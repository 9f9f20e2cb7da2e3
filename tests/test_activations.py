import numpy as np
import pytest

from mlmnet.activations import KINDS, Activation

from conftest import central_difference


def test_exact_values_at_zero():
    assert Activation("sigmoid")(0.0) == 0.0
    assert Activation("logistic")(0.0) == 0.5
    assert Activation("tanh")(0.0) == 0.0
    assert Activation("softplus")(0.0) == pytest.approx(np.log(2.0))


def test_formulas_match_definitions():
    x = np.linspace(-3, 3, 11)
    assert np.allclose(Activation("sigmoid")(x), (np.exp(x) - 1) / (np.exp(x) + 1))
    assert np.allclose(Activation("tanh")(x), (np.exp(2 * x) - 1) / (np.exp(2 * x) + 1))
    assert np.allclose(Activation("logistic")(x), np.exp(x) / (np.exp(x) + 1))
    assert np.allclose(Activation("softplus")(x), np.log(np.exp(x) + 1))


def test_tanh_first_derivative_matches_finite_difference():
    fd = central_difference(lambda y: Activation("tanh")(y), 0.3, 1e-5)
    exact = Activation("tanh")(0.3, 1)
    assert abs(exact - fd) / abs(exact) < 1e-8


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_derivative_ladder_consistency(kind, order):
    # (d/dx) of order k matches order k+1 on a grid in [-5, 5]
    xs = np.linspace(-5.0, 5.0, 100)
    fd = central_difference(lambda y: Activation(kind)(y, order), xs, 1e-6)
    exact = Activation(kind)(xs, order + 1)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) / scale < 1e-6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stable_at_extreme_arguments(kind, order):
    for x in (-700.0, 700.0):
        assert np.isfinite(Activation(kind)(x, order))


def test_shape_preserved_and_scalar_returned():
    out = Activation("logistic")(np.zeros((3, 4)), 1)
    assert out.shape == (3, 4)
    assert isinstance(Activation("logistic")(0.0, 1), float)


def test_unknown_kind_and_order_rejected():
    with pytest.raises(ValueError):
        Activation("relu")
    with pytest.raises(ValueError):
        Activation("tanh")(0.0, 4)


def test_activation_object_evaluates():
    act = Activation("softplus")
    assert act(0.0) == pytest.approx(np.log(2.0))
    assert act(1.5, order=1) == pytest.approx(Activation("logistic")(1.5))


@pytest.mark.parametrize("kind", KINDS)
def test_derivatives_equal_single_order_evaluations(kind):
    x = np.linspace(-40.0, 40.0, 801).reshape(3, 267)
    for orders in [(0,), (3, 1), (2, 3, 0, 1), (1, 1)]:
        outs = Activation(kind).derivatives(x, orders)
        assert len(outs) == len(orders)
        for order, out in zip(orders, outs):
            assert np.array_equal(out, Activation(kind)(x, order))
    assert Activation(kind).derivatives(0.5, (0, 2)) == [
        Activation(kind)(0.5), Activation(kind)(0.5, 2)
    ]
    with pytest.raises(ValueError):
        Activation(kind).derivatives(x, (0, 4))


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
        assert np.array_equal(Activation(kind)(x, order), reference_activation(kind, order, x))
