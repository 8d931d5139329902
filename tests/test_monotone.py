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


def _three_step(f, t):
    """What __call__ computed before it skipped the tails: interpolation,
    then the left and the right tail pass on every input."""
    scalar = np.isscalar(t)
    t = np.asarray(t, dtype=float)
    y = np.interp(t, f.knots, f.values)
    y = np.where(t < f.knots[0], f.values[0] + f.left_slope * (t - f.knots[0]), y)
    y = np.where(t > f.knots[-1], f.values[-1] + f.right_slope * (t - f.knots[-1]), y)
    return float(y) if scalar else y


def test_in_range_inputs_skip_the_tails_bit_for_bit(rng):
    """__call__ skips the tail passes when every entry lies within the
    knots. On scalars, empty and 0-d arrays, in-range arrays, arrays that
    reach into both tails and NaN entries it returns what the three-step
    formula returns, bit for bit and of the same type."""
    for cone in ("sa", "pos", "eff"):
        for _ in range(20):
            f = random_monotone_bijection(rng, cone)
            lo, hi = float(f.knots[0]), float(f.knots[-1])
            inputs = [
                float(rng.uniform(lo, hi)), lo, hi, lo - 0.5, hi + 0.5, np.nan, -0.0, 2,
                np.array([]), np.asarray(float(rng.uniform(lo, hi))), np.asarray(hi + 1.0),
                rng.uniform(lo, hi, 5), np.array([lo, hi]), rng.uniform(lo, hi, (2, 3)),
                rng.uniform(lo - 2.0, hi + 2.0, 7), np.array([lo - 1.0, hi + 1.0]),
                np.array([np.nan, hi + 1.0]), np.array([lo - 1.0, np.nan]),
            ]
            for t in inputs:
                got, want = f(t), _three_step(f, t)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # a NaN entry must not hide the other entries from the tails: 2.0 lies
    # beyond the last knot, where interpolation alone would clamp it to 1.0
    f = MonotoneBijection.piecewise_linear([0.0, 1.0], [0.0, 1.0], right_slope=3.0)
    got = f(np.array([np.nan, 2.0]))
    assert np.isnan(got[0]) and got[1] == 4.0
