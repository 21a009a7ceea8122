"""The argument checks of errors.py, through the public entry points that use them.

Every integer argument refuses bools, floats, strings and values out of
range with an InputError, accepts numpy integers and passes them on as
Python ints; dimensions are compared before any index is used.
"""

import numpy as np
import pytest

from carlembed import numerics
from carlembed.calculus import (
    MultiPoly, beta_constant, key_inequality_check, poisson_gradient_ball,
)
from carlembed.errors import InputError, _check_integer
from carlembed.extremal import SearchConfig
from carlembed.geometry import Space, SpacePoint, inner
from carlembed.interpolation import PointSequence, interpolation_report
from carlembed.measure import MAX_GRID_RESOLUTION, DiscreteMeasure, analyze, kernel_constant_grid
from carlembed.numerics import (
    MAX_GAUSS_ORDER, QuadratureSpec, ball_quadrature, ball_rule, default_quadrature, gauss_legendre,
)

DISC, BALL2 = Space.disc(), Space.ball(2)
MU = DiscreteMeasure(DISC, [(SpacePoint(0.5), 1.0), (SpacePoint(-0.3), 2.0)])
F = MultiPoly(1, {(1,): 1.0})
Z2, LAM2 = SpacePoint([0.1, 0.2]), SpacePoint([0.3, 0.0])
Q = QuadratureSpec(radial_order=8, angular_order=8, sphere_nodes=8)

# entry point -> (a call taking one integer argument, a value out of its range)
INTEGER_ARGUMENTS = {
    "Space.ball dim": (Space.ball, 0),
    "MultiPoly dim": (lambda v: MultiPoly(v, {}), 0),
    "MultiPoly multi-index": (lambda v: MultiPoly(1, {(v,): 1.0}), -1),
    "beta_constant": (beta_constant, 0),
    "QuadratureSpec": (lambda v: QuadratureSpec(radial_order=v), 3),
    "gauss_legendre": (gauss_legendre, MAX_GAUSS_ORDER + 1),
    "ball_rule dim": (lambda v: ball_rule(Q, v), 0),
    "analyze resolution": (lambda v: analyze(MU, v), 7),
    "kernel_constant_grid resolution": (
        lambda v: kernel_constant_grid(MU, v), MAX_GRID_RESOLUTION + 1),
    "interpolation_report resolution": (
        lambda v: interpolation_report(PointSequence(DISC, [0.5, -0.3]), v), 7),
    "SearchConfig iterations": (lambda v: SearchConfig(space=DISC, iterations=v), 0),
    "SearchConfig seed": (lambda v: SearchConfig(space=DISC, seed=v), -1),
    "key_inequality_check atom index": (lambda v: key_inequality_check(MU, F, v), 2),
    "poisson_gradient_ball coordinate index": (
        lambda v: poisson_gradient_ball(Z2, LAM2, v, BALL2), 3),
}


@pytest.mark.parametrize("kind", ["bool", "float", "str", "out of range"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_integer_arguments_refuse_bools_floats_strings_and_values_out_of_range(entry, kind):
    call, out_of_range = INTEGER_ARGUMENTS[entry]
    value = {"bool": True, "float": 1.0, "str": "1", "out of range": out_of_range}[kind]
    with pytest.raises(InputError):
        call(value)


def test_integer_messages_name_the_range():
    cases = [((0,), "a non-negative integer"), ((1,), "a positive integer"),
             ((4,), "an integer >= 4"), ((1, 512), "an integer in [1, 512]")]
    for bounds, kind in cases:
        with pytest.raises(InputError) as info:
            _check_integer("x", True, *bounds)
        assert str(info.value) == f"x must be {kind}, got True"
    assert type(_check_integer("x", np.uint8(7), 1, 7)) is int


def test_dimensions_are_compared_before_an_index_is_used():
    # index 3 fits ball(3) but not the 2 coordinates of the points: no IndexError
    with pytest.raises(InputError) as info:
        poisson_gradient_ball(Z2, LAM2, 3, Space.ball(3))
    assert str(info.value) == "point has dimension 2, space has 3"
    with pytest.raises(InputError) as info:
        inner(Z2, SpacePoint(0.5))
    assert str(info.value) == "point has dimension 2, other point has 1"


def test_numpy_integers_are_accepted_and_passed_on_as_int():
    i2 = np.int64(2)
    assert type(Space.ball(i2).dim) is int
    assert type(MultiPoly(i2, {(0, 0): 1.0}).dim) is int
    assert beta_constant(i2) == beta_constant(2)
    spec = QuadratureSpec(radial_order=np.int32(8), angular_order=np.uint16(8), sphere_nodes=i2 * 4)
    orders = (spec.radial_order, spec.angular_order, spec.sphere_nodes)
    assert [type(v) for v in orders] == [int] * 3
    cfg = SearchConfig(space=DISC, atom_count=i2, iterations=np.int32(5), restarts=np.uint8(1),
                       seed=np.int64(3))
    assert [type(v) for v in (cfg.atom_count, cfg.iterations, cfg.restarts, cfg.seed)] == [int] * 4
    assert type(analyze(MU, np.int64(16)).grid_resolution) is int
    assert key_inequality_check(MU, F, np.int64(1)) == key_inequality_check(MU, F, 1)
    assert poisson_gradient_ball(Z2, LAM2, i2, BALL2) == poisson_gradient_ball(Z2, LAM2, 2, BALL2)
    assert all(np.array_equal(a, b) for a, b in zip(gauss_legendre(np.int64(3)), gauss_legendre(3)))


def test_rule_stream_numpy_orders_find_the_cached_rule_factors():
    # _rule_factors is the one rule cache (_leggauss holds the Gauss-Legendre
    # factors of its rules), keyed by type: numpy orders must find its entry
    caches = {name for name, value in vars(numerics).items() if hasattr(value, "cache_info")}
    assert caches == {"_leggauss", "_rule_factors"}
    one = lambda zs: np.ones(zs.shape[0])
    default = ball_quadrature(one, default_quadrature(BALL2), 2)
    size = numerics._rule_factors.cache_info().currsize
    spec = QuadratureSpec(radial_order=np.int64(48), angular_order=np.int64(32))
    assert ball_quadrature(one, spec, np.int64(2)) == default
    assert len(ball_rule(spec, np.int64(2))[1]) == 48 * 24 * 32 ** 2
    assert numerics._rule_factors.cache_info().currsize == size
