import numpy as np
import pytest

from speclat.errors import ConeError, NotMonotoneError
from speclat.monotone import MonotoneBijection
from speclat.order import check_scalar_map, endpoint_deviations
from speclat.sampling import random_monotone_bijection


def test_identity():
    f = MonotoneBijection.identity()
    assert f(0.3) == pytest.approx(0.3)
    assert f(-2.0) == pytest.approx(-2.0)


def test_power_odd_extension():
    f = MonotoneBijection.power(3.0)
    assert f(2.0) == pytest.approx(8.0)
    assert f(-2.0) == pytest.approx(-8.0)
    inv = f.inverse()
    assert inv(8.0) == pytest.approx(2.0)
    assert inv(f(-1.7)) == pytest.approx(-1.7)


def test_piecewise_linear_eval_and_tails():
    f = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.0, 2.0], left_slope=0.5, right_slope=4.0)
    assert f(0.5) == pytest.approx(1.0)
    assert f(-1.0) == pytest.approx(-0.5)
    assert f(2.0) == pytest.approx(6.0)


def test_piecewise_linear_inverse_round_trip(rng):
    for cone in ("sa", "pos", "eff"):
        f = random_monotone_bijection(rng, cone)
        inv = f.inverse()
        ts = rng.uniform(-3.0, 3.0, 50) if cone == "sa" else rng.uniform(0.0, 1.0, 50)
        np.testing.assert_allclose(inv(f(ts)), ts, atol=1e-10)


def test_compose_piecewise_linear(rng):
    f = random_monotone_bijection(rng, "sa")
    g = random_monotone_bijection(rng, "sa")
    h = g.compose(f)
    ts = rng.uniform(-4.0, 4.0, 100)
    np.testing.assert_allclose(h(ts), g(f(ts)), atol=1e-9)


def test_compose_powers():
    h = MonotoneBijection.power(3.0).compose(MonotoneBijection.power(0.5))
    assert h.exponent == pytest.approx(1.5)


def test_compose_mixed_kinds_rejected():
    f = MonotoneBijection.power(2.0)
    g = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(NotMonotoneError):
        f.compose(g)


def test_strictness_validation():
    with pytest.raises(NotMonotoneError):
        MonotoneBijection.piecewise_linear([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(NotMonotoneError):
        MonotoneBijection.piecewise_linear([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(NotMonotoneError):
        MonotoneBijection.piecewise_linear([0.0, 1.0], [0.0, 1.0], left_slope=-1.0)
    with pytest.raises(NotMonotoneError):
        MonotoneBijection.power(0.0)


def test_fixes_endpoints():
    f = MonotoneBijection.piecewise_linear([0.0, 0.4, 1.0], [0.0, 0.7, 1.0])
    assert endpoint_deviations(f, "eff") == ((0.0, 0.0), (1.0, 0.0))
    check_scalar_map(endpoint_deviations(f, "eff"), "eff")
    g = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.1, 1.0])
    with pytest.raises(ConeError, match="does not fix 0"):
        check_scalar_map(endpoint_deviations(g, "eff"), "eff")
