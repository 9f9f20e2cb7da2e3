"""The hidden-node activation, the sigmoid, with closed-form derivatives.

The sigmoid is (e^x - 1)/(e^x + 1) = tanh(x/2).  Its derivatives of
orders 1 to 3 are polynomials in the value itself, so they are evaluated
without overflow wherever tanh is, for every finite argument.
"""

import numpy as np


class Activation:
    """The sigmoid tanh(x/2), callable with a derivative order."""

    def __call__(self, x, order=0):
        """The derivative of the given order, in 0..3, at x (order 0 is the value).

        The result has the shape of x; a scalar x gives a scalar.
        """
        x = np.asarray(x, dtype=float)
        # the ladder works in place, so a scalar goes through it as a 1-element array
        (d,) = ladder(np.tanh(0.5 * x.ravel()), (order,))
        return d.reshape(x.shape)[()]


def ladder(s, orders):
    """The derivatives of the given orders from the base s = tanh(x/2), an ndarray.

    Order 0 is s itself, which is never written; every other order is a
    new array, formed in place after its first product.  The operations
    are those of the formulas

        q = 1 - s*s,  0.5*q,  -0.5*s*q,  0.25*q*(3*s*s - 1)

    in that order, so the values are the same bits as theirs.  Every
    order must be in 0..3.
    """
    for order in orders:
        if order not in (0, 1, 2, 3):
            raise ValueError(f"derivative order must be in 0..3, got {order}")
    q = None
    if any(orders):
        q = np.multiply(s, s)
        np.subtract(1.0, q, out=q)
    outs = []
    for k in orders:
        if k == 0:
            out = s
        elif k == 1:
            out = np.multiply(q, 0.5)
        elif k == 2:
            out = np.multiply(s, -0.5)
            out *= q
        else:
            poly = np.multiply(s, 3.0)
            poly *= s
            poly -= 1.0
            out = np.multiply(q, 0.25)
            out *= poly
        outs.append(out)
    return outs


SIGMOID = Activation()
