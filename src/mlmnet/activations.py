"""The hidden-node activation, the sigmoid, with closed-form derivatives.

The sigmoid is (e^x - 1)/(e^x + 1) = tanh(x/2).  Its derivatives of
orders 1 to 3 are polynomials in the value itself, so they are evaluated
without overflow wherever tanh is, for every finite argument.
"""

import numpy as np


class Activation:
    """The sigmoid tanh(x/2), callable with a derivative order."""

    def __call__(self, x, order=0):
        """The derivative of the given order at x (order 0 is the value)."""
        return self.derivatives(x, (order,))[0]

    def derivatives(self, x, orders):
        """Derivatives of the given orders at the ndarray x, as a list of arrays of its shape.

        Every order must be in 0..3.  The base value is evaluated once for
        all of them.
        """
        for order in orders:
            if order not in (0, 1, 2, 3):
                raise ValueError(f"derivative order must be in 0..3, got {order}")
        s = np.tanh(0.5 * x)
        q = 1.0 - s * s if any(orders) else None
        ladder = (
            lambda: s,
            lambda: 0.5 * q,
            lambda: -0.5 * s * q,
            lambda: 0.25 * q * (3.0 * s * s - 1.0),
        )
        return [ladder[k]() for k in orders]


SIGMOID = Activation()
