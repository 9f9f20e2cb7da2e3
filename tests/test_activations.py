import numpy as np
import pytest

from mlmnet.activations import KINDS, Activation, activation_derivatives, activation_eval

from conftest import central_difference


def test_exact_values_at_zero():
    assert activation_eval("sigmoid", 0, 0.0) == 0.0
    assert activation_eval("logistic", 0, 0.0) == 0.5
    assert activation_eval("tanh", 0, 0.0) == 0.0
    assert activation_eval("softplus", 0, 0.0) == pytest.approx(np.log(2.0))


def test_formulas_match_definitions():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(activation_eval("sigmoid", 0, x), (np.exp(x) - 1) / (np.exp(x) + 1))
    assert np.allclose(activation_eval("tanh", 0, x), (np.exp(2 * x) - 1) / (np.exp(2 * x) + 1))
    assert np.allclose(activation_eval("logistic", 0, x), np.exp(x) / (np.exp(x) + 1))
    assert np.allclose(activation_eval("softplus", 0, x), np.log(np.exp(x) + 1))


def test_tanh_first_derivative_matches_finite_difference():
    fd = central_difference(lambda y: activation_eval("tanh", 0, y), 0.3, 1e-5)
    exact = activation_eval("tanh", 1, 0.3)
    assert abs(exact - fd) / abs(exact) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_derivative_ladder_consistency(kind, order):
    # (d/dx) of order k matches order k+1 on a grid in [-5, 5]
    xs = np.linspace(-5.0, 5.0, 100)
    fd = central_difference(lambda y: activation_eval(kind, order, y), xs, 1e-6)
    exact = activation_eval(kind, order + 1, xs)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) / scale < 1e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stable_at_extreme_arguments(kind, order):
    for x in (-700.0, 700.0):
        assert np.isfinite(activation_eval(kind, order, x))


def test_shape_preserved_and_scalar_returned():
    out = activation_eval("logistic", 1, np.zeros((3, 4)))
    assert out.shape == (3, 4)
    assert isinstance(activation_eval("logistic", 1, 0.0), float)


def test_unknown_kind_and_order_rejected():
    with pytest.raises(ValueError):
        Activation("relu")
    with pytest.raises(ValueError):
        activation_eval("tanh", 4, 0.0)


def test_activation_object_evaluates():
    act = Activation("softplus")
    assert act(0.0) == pytest.approx(np.log(2.0))
    assert act(1.5, order=1) == pytest.approx(activation_eval("logistic", 0, 1.5))


@pytest.mark.parametrize("kind", KINDS)
def test_derivatives_equal_single_order_evaluations(kind):
    x = np.linspace(-40.0, 40.0, 801).reshape(3, 267)
    for orders in [(0,), (3, 1), (2, 3, 0, 1), (1, 1)]:
        outs = Activation(kind).derivatives(x, orders)
        assert len(outs) == len(orders)
        for order, out in zip(orders, outs):
            assert np.array_equal(out, activation_eval(kind, order, x))
    assert activation_derivatives(kind, (0, 2), 0.5) == [
        activation_eval(kind, 0, 0.5), activation_eval(kind, 2, 0.5)
    ]
    with pytest.raises(ValueError):
        activation_derivatives(kind, (0, 4), x)


def reference_activation(kind, order, x):
    """One derivative order of one kind, its formula written out in full: the reference."""
    if kind == "softplus":
        if order == 0:
            return np.where(x > 0, x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        kind, order = "logistic", order - 1
    if kind == "logistic":
        e = np.exp(-np.abs(x))
        s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        ds = s * (1.0 - s)
        return (s, ds, ds * (1.0 - 2.0 * s), ds * (1.0 - 6.0 * s + 6.0 * s * s))[order]
    if kind == "sigmoid":
        s = np.tanh(0.5 * x)
        return (s, 0.5 * (1.0 - s * s), -0.5 * s * (1.0 - s * s),
                0.25 * (1.0 - s * s) * (3.0 * s * s - 1.0))[order]
    s = np.tanh(x)
    return (s, 1.0 - s * s, -2.0 * s * (1.0 - s * s),
            -2.0 * (1.0 - s * s) * (1.0 - 3.0 * s * s))[order]


@pytest.mark.parametrize("kind", KINDS)
def test_formulas_are_bit_identical_to_the_reference(kind):
    x = np.concatenate([
        np.random.default_rng(3).uniform(-40.0, 40.0, 4000), [-700.0, 700.0, 0.0, -0.0]
    ])
    for order in range(4):
        assert np.array_equal(activation_eval(kind, order, x), reference_activation(kind, order, x))
