import numpy as np
import pytest

from mlmnet.activations import SIGMOID, Activation, ladder

from conftest import central_difference

# The former activation kinds are the one sigmoid S reparametrized: tanh(x) is
# S(2x), whose order-k derivative is 2^k S^(k)(2x), and the logistic
# 1/(1 + e^-x) is (1 + S(x))/2.  The tests that ran each kind run these forms,
# so the sigmoid ladder is checked at both input scales and under the affine map.
KINDS = ("sigmoid", "tanh", "logistic")


def former_kind(kind, x, order=0):
    """One derivative order of a former kind at x, through a single `SIGMOID` call."""
    if kind == "tanh":
        return 2.0**order * SIGMOID(2.0 * x, order)
    s = SIGMOID(x, order)
    if kind == "logistic":
        return (1.0 + s) / 2.0 if order == 0 else s / 2.0
    return s


def sigmoid_derivatives(x, orders):
    """Several derivative orders of the sigmoid at x from one base tanh(x/2), as `network` does."""
    return ladder(np.tanh(0.5 * x), orders)


def former_kind_derivatives(kind, x, orders):
    """Several derivative orders of a former kind at x, through one `sigmoid_derivatives` call."""
    if kind == "tanh":
        return [2.0**k * s for k, s in zip(orders, sigmoid_derivatives(2.0 * x, orders))]
    outs = sigmoid_derivatives(x, orders)
    if kind == "logistic":
        return [(1.0 + s) / 2.0 if k == 0 else s / 2.0 for k, s in zip(orders, outs)]
    return outs


def test_exact_values_at_zero():
    assert [out[0] for out in sigmoid_derivatives(np.zeros(1), (0, 1, 2, 3))] == [
        0.0, 0.5, 0.0, -0.25
    ]


def test_formulas_match_definitions():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(SIGMOID(x), (np.exp(x) - 1) / (np.exp(x) + 1))
    assert np.allclose(SIGMOID(x, 1), 2 * np.exp(x) / (np.exp(x) + 1) ** 2)
    assert np.allclose(former_kind("tanh", x), (np.exp(2 * x) - 1) / (np.exp(2 * x) + 1))
    assert np.allclose(former_kind("logistic", x), np.exp(x) / (np.exp(x) + 1))


def test_tanh_first_derivative_matches_finite_difference():
    x = np.array([0.3])
    fd = central_difference(lambda y: former_kind("tanh", y), x, 1e-5)[0]
    exact = former_kind("tanh", x, 1)[0]
    assert abs(exact - fd) / abs(exact) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_derivative_ladder_consistency(kind, order):
    # (d/dx) of order k matches order k+1 on a grid in [-5, 5]
    xs = np.linspace(-5.0, 5.0, 100)
    fd = central_difference(lambda y: former_kind(kind, y, order), xs, 1e-6)
    exact = former_kind(kind, xs, order + 1)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) / scale < 1e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stable_at_extreme_arguments(kind, order):
    x = np.array([-700.0, 700.0, -1e300, 1e300])
    assert np.all(np.isfinite(former_kind(kind, x, order)))


def test_shape_preserved_and_scalar_returned():
    assert SIGMOID(np.zeros((3, 4)), 1).shape == (3, 4)
    assert isinstance(SIGMOID(0.0, 1), float)


def test_unknown_kind_and_order_rejected():
    with pytest.raises(TypeError):
        Activation("relu")
    with pytest.raises(ValueError):
        SIGMOID(np.zeros(1), 4)


def test_activation_object_evaluates():
    act = Activation()
    x = np.array([0.0, 1.5])
    assert np.array_equal(act(x), SIGMOID(x))
    assert act(x)[0] == 0.0
    assert act(x, order=1)[1] == pytest.approx(2 * np.exp(1.5) / (np.exp(1.5) + 1) ** 2)


@pytest.mark.parametrize("kind", KINDS)
def test_derivatives_equal_single_order_evaluations(kind):
    x = np.linspace(-40.0, 40.0, 801).reshape(3, 267)
    for orders in [(0,), (3, 1), (2, 3, 0, 1), (1, 1)]:
        outs = former_kind_derivatives(kind, x, orders)
        assert len(outs) == len(orders)
        for order, out in zip(orders, outs):
            assert np.array_equal(out, former_kind(kind, x, order))
    with pytest.raises(ValueError):
        sigmoid_derivatives(x, (0, 4))


def reference_activation(kind, order, x):
    """One derivative order of the sigmoid or tanh, its formula written out in full: the reference."""
    if kind == "sigmoid":
        s = np.tanh(0.5 * x)
        return (s, 0.5 * (1.0 - s * s), -0.5 * s * (1.0 - s * s),
                0.25 * (1.0 - s * s) * (3.0 * s * s - 1.0))[order]
    s = np.tanh(x)
    return (s, 1.0 - s * s, -2.0 * s * (1.0 - s * s),
            -2.0 * (1.0 - s * s) * (1.0 - 3.0 * s * s))[order]


# The logistic is left out: (1 + S)/2 agrees with its formula only to rounding
@pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
def test_formulas_are_bit_identical_to_the_reference(kind):
    x = np.concatenate([
        np.random.default_rng(3).uniform(-40.0, 40.0, 4000), [-700.0, 700.0, 0.0, -0.0]
    ])
    for order in range(4):
        assert np.array_equal(former_kind(kind, x, order), reference_activation(kind, order, x))


def test_tanh_and_logistic_are_the_sigmoid_reparametrized():
    # tanh(x) is the sigmoid at twice its input weights and bias, and the
    # logistic 1/(1 + e^-x) an affine image of it that the output bias absorbs
    x = np.linspace(-30.0, 30.0, 100_001)
    assert np.array_equal(np.tanh(x), SIGMOID(2.0 * x))
    logistic = 1.0 / (1.0 + np.exp(-x))
    assert np.max(np.abs(logistic - (1.0 + SIGMOID(x)) / 2.0)) <= 4 * np.finfo(float).eps
