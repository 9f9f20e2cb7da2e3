"""Hidden-node activation functions with closed-form derivatives.

Every supported kind exposes the value and its first three derivatives,
all evaluated without overflow for arguments up to around |x| = 700.
Higher derivatives of the bounded kinds are polynomials in the value
itself, so they inherit that stability for free; the logistic and
softplus kinds are branch-guarded explicitly.
"""

from dataclasses import dataclass

import numpy as np


def _logistic(x):
    # 1/(1+e^-x) without evaluating exp on the overflowing side
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x):
    # log(1+e^x) = x + log(1+e^-x) for x > 0
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = x[pos] + np.log1p(np.exp(-x[pos]))
    out[~pos] = np.log1p(np.exp(x[~pos]))
    return out


# Each kind computes its base value once and derives the requested orders
# 0..3 from it, returning them in the order asked for.


def _ladder_sigmoid(x, orders):
    # (e^x - 1)/(e^x + 1), i.e. tanh(x/2)
    s = np.tanh(0.5 * x)
    q = 1.0 - s * s if any(orders) else None
    ladder = (
        lambda: s,
        lambda: 0.5 * q,
        lambda: -0.5 * s * q,
        lambda: 0.25 * q * (3.0 * s * s - 1.0),
    )
    return [ladder[k]() for k in orders]


def _ladder_tanh(x, orders):
    s = np.tanh(x)
    q = 1.0 - s * s if any(orders) else None
    ladder = (
        lambda: s,
        lambda: q,
        lambda: -2.0 * s * q,
        lambda: -2.0 * q * (1.0 - 3.0 * s * s),
    )
    return [ladder[k]() for k in orders]


def _ladder_logistic(x, orders):
    s = _logistic(x)
    ds = s * (1.0 - s) if any(orders) else None
    ladder = (
        lambda: s,
        lambda: ds,
        lambda: ds * (1.0 - 2.0 * s),
        lambda: ds * (1.0 - 6.0 * s + 6.0 * s * s),
    )
    return [ladder[k]() for k in orders]


def _ladder_softplus(x, orders):
    # derivatives of orders 1..3 are the logistic's of orders 0..2
    higher = iter(_ladder_logistic(x, [k - 1 for k in orders if k]) if any(orders) else ())
    return [_softplus(x) if k == 0 else next(higher) for k in orders]


_LADDERS = {
    "sigmoid": _ladder_sigmoid,
    "tanh": _ladder_tanh,
    "logistic": _ladder_logistic,
    "softplus": _ladder_softplus,
}
KINDS = tuple(_LADDERS)


@dataclass(frozen=True)
class Activation:
    """A hidden-node nonlinearity named by one of KINDS, callable with a derivative order."""

    kind: str

    def __post_init__(self):
        if self.kind not in _LADDERS:
            raise ValueError(f"unknown activation kind {self.kind!r}, expected one of {KINDS}")

    def __call__(self, x, order=0):
        """The derivative of the given order at x (order 0 is the value)."""
        return self.derivatives(x, (order,))[0]

    def derivatives(self, x, orders):
        """Derivatives of the given orders at x, as a list.

        Every order must be in 0..3.  The base value is evaluated once for
        all of them.  `x` may be a scalar or an ndarray; each result has
        its shape.
        """
        for order in orders:
            if order not in (0, 1, 2, 3):
                raise ValueError(f"derivative order must be in 0..3, got {order}")
        arr = np.asarray(x, dtype=float)
        outs = _LADDERS[self.kind](np.atleast_1d(arr), orders)
        if arr.ndim == 0:
            return [float(out[0]) for out in outs]
        return [out.reshape(arr.shape) for out in outs]
