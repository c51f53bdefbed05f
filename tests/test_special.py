"""`ratiomarker.special` against `scipy.special`, its oracle.

The package's `expit`, `ndtr` and `stdtr` are numpy-only. They must agree
with scipy to rounding level: relative error at most 1e-12 wherever
scipy's value is a normal float, and exactly at 0, +-inf and NaN. They are
not bitwise equal, since numpy's vector `exp` and the C library's differ in
the last bit on some arguments.

At one degree of freedom the oracle is the Cauchy CDF, 1/2 + arctan(t)/pi,
written as arctan(1/|t|)/pi for the lower tail: scipy's `stdtr(1, t)` is
off by up to about 4e-9 relative for |t| below 1e-3 (3.6e-9 at t = -5.6e-9
against a 60-digit reference), far more than at any other dof.
"""

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiomarker.special import expit, ndtr, softplus, stdtr

TINY = np.finfo(float).tiny  # the smallest normal float
RTOL = 1e-12
EXACT = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def assert_close_where_normal(got, want):
    """Relative error at most RTOL wherever `want` is a normal float."""
    got, want = np.asarray(got), np.asarray(want)
    normal = np.abs(want) >= TINY
    rel = np.abs(got[normal] - want[normal]) / np.abs(want[normal])
    assert rel.size == 0 or rel.max() <= RTOL, (rel.max(), want[normal][rel.argmax()])


def cauchy_cdf(t):
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        tail = np.arctan(1.0 / np.abs(t)) / np.pi
    return np.where(t < 0.0, tail, 1.0 - tail)


def oracle_stdtr(dof, t):
    return cauchy_cdf(t) if dof == 1 else sc.stdtr(dof, t)


def log_scaled(low, high):
    """Floats of either sign whose |value| is 10**u, u in [low, high]."""
    return st.builds(
        lambda u, negative: -(10.0**u) if negative else 10.0**u,
        st.floats(low, high),
        st.booleans(),
    )


def values(elements):
    return st.lists(elements, min_size=1, max_size=40).map(np.array)


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestExpit:
    @SETTINGS
    @given(values(st.floats(-800.0, 800.0) | log_scaled(-300, 300)))
    def test_matches_scipy(self, x):
        with np.errstate(over="ignore"):
            got = expit(x)
        assert_close_where_normal(got, sc.expit(x))

    def test_exact_values(self):
        np.testing.assert_array_equal(expit(EXACT), sc.expit(EXACT))
        assert expit(EXACT)[0] == 0.5

    def test_underflows_to_zero_like_scipy(self):
        x = np.array([-745.2, -1000.0, -1e300])
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(expit(x), sc.expit(x))


def ulps_apart(a, b):
    """How many doubles lie between a and b, both non-negative; 0 where
    both are NaN."""
    steps = np.abs(a.view(np.int64) - b.view(np.int64))
    return np.where(np.isnan(a) & np.isnan(b), 0, steps)


SIGNED = st.booleans()
# Any double, the special values, and |x| near 709 (where exp(-|x|) nears
# the smallest normal) and 745 (where it underflows to 0).
SOFTPLUS_ARGS = (
    st.floats(allow_nan=True, allow_infinity=True, width=64)
    | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    | st.builds(lambda u, neg: -u if neg else u, st.floats(700.0, 720.0), SIGNED)
    | st.builds(lambda u, neg: -u if neg else u, st.floats(735.0, 755.0), SIGNED)
)


class TestSoftplus:
    @SETTINGS
    @given(values(SOFTPLUS_ARGS))
    def test_is_the_expression_and_near_logaddexp(self, x):
        want = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
        assert softplus(x).tobytes() == want.tobytes()
        out = np.empty_like(x)
        assert softplus(x, out=out) is out
        assert out.tobytes() == want.tobytes()
        with np.errstate(invalid="ignore"):
            assert ulps_apart(softplus(x), np.logaddexp(0.0, x)).max() <= 2

    @SETTINGS
    @given(values(st.floats(-800.0, 800.0) | st.sampled_from([0.0, -0.0, np.inf, np.nan])))
    def test_expit_into_out_keeps_the_bits(self, x):
        out = np.empty_like(x)
        with np.errstate(over="ignore"):
            want = expit(x)
            assert expit(x, out=out) is out
        assert out.tobytes() == want.tobytes()


class TestNdtr:
    @SETTINGS
    @given(values(st.floats(-40.0, 40.0) | log_scaled(-300, 300)))
    def test_matches_scipy(self, x):
        assert_close_where_normal(ndtr(x), sc.ndtr(x))

    def test_lower_tail_down_to_the_smallest_normal(self):
        x = np.linspace(-37.5, 8.0, 4001)
        want = sc.ndtr(x)
        assert want.min() < 1e-300
        assert_close_where_normal(ndtr(x), want)

    def test_exact_values(self):
        np.testing.assert_array_equal(ndtr(EXACT), sc.ndtr(EXACT))
        assert ndtr(EXACT)[0] == 0.5

    def test_each_value_is_independent_of_the_others(self):
        x = np.concatenate([np.linspace(-39.0, 39.0, 301), EXACT])
        alone = np.array([ndtr(x[i : i + 1])[0] for i in range(x.size)])
        assert ndtr(x).tobytes() == alone.tobytes()


class TestStdtr:
    @SETTINGS
    @given(
        st.integers(1, 10_000) | st.floats(1.0, 10_000.0),
        values(log_scaled(-8, 300) | st.floats(-60.0, 60.0)),
    )
    def test_matches_scipy(self, dof, t):
        assert_close_where_normal(stdtr(dof, t), oracle_stdtr(dof, t))

    @pytest.mark.parametrize("dof", [1, 2, 3, 5, 10, 30, 198, 1000, 10_000])
    def test_tails_down_to_1e_300(self, dof):
        # |t| on a log grid reaches the tails of small dof, a fine linear grid
        # those of large dof.
        t = -np.concatenate(
            [np.logspace(-8.0, 300.0, 3001), np.linspace(0.5, 60.0, 3001)]
        )
        want = oracle_stdtr(dof, t)
        assert want[want >= TINY].min() < 1e-300
        assert_close_where_normal(stdtr(dof, t), want)

    @pytest.mark.parametrize("dof", [1, 2, 7, 198, 10_000])
    def test_exact_values(self, dof):
        got = stdtr(dof, EXACT)
        np.testing.assert_array_equal(got, sc.stdtr(dof, EXACT))
        assert got[0] == got[1] == 0.5

    @pytest.mark.parametrize("dof", [0, -1, np.nan])
    def test_no_positive_dof_is_nan(self, dof):
        assert np.isnan(stdtr(dof, np.array([-2.0, 0.0, 3.0]))).all()
        assert np.isnan(sc.stdtr(dof, np.array([-2.0, 0.0, 3.0]))).all()

    @pytest.mark.parametrize("dof", [1, 4, 198, 10_000])
    def test_each_value_is_independent_of_the_others(self, dof):
        # The continued fractions stop per value, so a p-value computed over
        # a whole vector equals the one computed alone.
        t = np.concatenate([-np.logspace(-8.0, 300.0, 151), np.linspace(-4.0, 4.0, 81)])
        t = np.concatenate([t, EXACT])
        alone = np.array([stdtr(dof, t[i : i + 1])[0] for i in range(t.size)])
        assert stdtr(dof, t).tobytes() == alone.tobytes()
