"""The shared residual helpers: the floor, NaN and inf, empty inputs, the
locator, and the bits of the inline formulas they replace."""

import numpy as np
import pytest

from dnet.forms import wedge_vec
from dnet.residuals import FLOOR, cos_angle, floor, gap, rel, sin_angle, worst

ZEROS = np.zeros((3, 4))


@pytest.mark.parametrize("value", [
    rel(0.0, 0.0),
    rel(np.zeros(3), np.zeros(3)),
    sin_angle(ZEROS, ZEROS),
    sin_angle(ZEROS, np.ones((3, 4))),
    cos_angle(np.zeros(3), np.zeros(3), np.zeros(3)),
    gap(np.zeros(3), np.zeros(3)),
], ids=["rel-scalar", "rel", "sin", "sin-one-zero", "cos", "gap"])
def test_zero_over_zero_reads_zero(value):
    assert np.array_equal(value, np.zeros(np.shape(value)))


@pytest.mark.parametrize("value, expected", [
    (lambda: rel(np.nan, 1.0), np.nan),
    (lambda: rel(1.0, np.nan), np.nan),
    (lambda: rel(np.inf, 2.0), np.inf),
    (lambda: rel(np.array([1.0, 2.0]), np.array([np.nan, 1.0])), [np.nan, 2.0]),
    (lambda: sin_angle(np.array([[np.nan, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])),
     [np.nan]),
    (lambda: cos_angle(np.array([np.inf]), np.ones(1), np.ones(1)), [np.inf]),
    (lambda: cos_angle(np.ones(1), np.array([np.nan]), np.ones(1)), [np.nan]),
    (lambda: gap(np.array([np.nan]), np.ones(1)), [np.nan]),
    (lambda: gap(np.array([np.inf]), np.ones(1)), [np.nan]),       # inf / inf
], ids=["rel-nan-num", "rel-nan-scale", "rel-inf", "rel-array", "sin", "cos-inf",
        "cos-nan-norm", "gap-nan", "gap-inf"])
def test_non_finite_propagates(value, expected):
    # the helpers warn where the formulas they replace warn (inf / inf)
    with np.errstate(invalid="ignore"):
        np.testing.assert_array_equal(value(), expected)


@pytest.mark.parametrize("res", [
    sin_angle(np.zeros((0, 4)), np.zeros((0, 4))),
    gap(np.zeros(0), np.zeros(0)),
    cos_angle(np.zeros(0), np.zeros(0), np.zeros(0)),
], ids=["sin", "gap", "cos"])
def test_empty_input_gives_an_empty_residual_and_no_element(res):
    assert res.shape == (0,)
    assert worst(res) == (0.0, None)


@pytest.mark.parametrize("res, expected", [
    ([0.0, 0.0, 0.0], (0.0, None)),
    ([1.0, 3.0, 3.0, 2.0], (3.0, 1)),
    ([0.0, 3.0, np.nan, np.inf], (np.nan, 2)),
    ([1.0, np.inf, 5.0, np.nan], (np.nan, 1)),
    ([1.0, np.inf, 5.0], (np.inf, 1)),
    ([np.nan], (np.nan, 0)),
], ids=["zero", "first-largest", "nan", "inf-before-nan", "inf", "lone-nan"])
def test_locator(res, expected):
    value, element = worst(np.array(res))
    assert isinstance(value, float)
    np.testing.assert_equal((value, element), expected)


def test_floor_keeps_the_type_of_a_zero_d_scale():
    assert type(floor(np.float64(0.0))) is float and floor(0.0) == FLOOR
    assert floor(np.float64(2.5)) == 2.5
    assert isinstance(floor(np.zeros(2)), np.ndarray)
    assert np.array_equal(floor(np.array([0.0, -1.0, 3.0])), [FLOOR, FLOOR, 3.0])


@pytest.mark.parametrize("shape", [(7, 6), (2, 5, 6), (6,)])
def test_helpers_keep_the_bits_of_the_inline_formulas(shape):
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    u.flat[0] = 0.0                       # a zero operand somewhere
    norm = np.linalg.norm
    nu, nv = norm(u, axis=-1), norm(v, axis=-1)
    uv = np.sum(u * v, axis=-1)
    assert np.array_equal(sin_angle(u, v), norm(wedge_vec(u, v), axis=-1)
                          / np.maximum(nu * nv, 1e-300))
    assert np.array_equal(cos_angle(uv, nu, nv), np.abs(uv) / np.maximum(nu * nv, 1e-300))
    assert np.array_equal(gap(nu, nv), np.abs(nu - nv)
                          / np.maximum(np.maximum(np.abs(nu), np.abs(nv)), 1e-300))
    assert np.array_equal(rel(uv, nu), uv / np.maximum(nu, 1e-300))
