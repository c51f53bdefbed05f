"""GLM engine against independent reference computations.

Identity fits are checked against explicit normal-equation solutions and
t-distribution inference computed here from scratch. Logistic fits are
checked against a general-purpose optimizer minimizing the identical
penalized objective.
"""

import gc
import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from conftest import fit_glm_by_column, reference_fit

from ratiomarker import composition, glm
from ratiomarker.composition import (
    Outcome,
    StrictlyPositiveMatrix,
    _pairwise_logratio_blocks,
    pairwise_logratios,
    ratio_labels,
    ratio_pairs,
)
from ratiomarker.errors import DegenerateDesign, ValidationError
from ratiomarker.glm import (
    RIDGE,
    _fit_columns,
    benjamini_hochberg,
    daa,
    differential_ratio_analysis,
    fit_glm,
)
from ratiomarker.simulate import BiasModel, observe, planted_signal_scenario


def identity_oracle(z, y):
    """Ordinary least squares with classical t-based Wald inference."""
    x = np.column_stack([z, np.ones_like(z)])
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = len(y) - 2
    sigma2 = resid @ resid / dof
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se = np.sqrt(cov[0, 0])
    t = beta[0] / se
    p = 2.0 * stats.t.sf(abs(t), dof)
    return beta[0], beta[1], se, p


def logistic_oracle(z, y):
    """Minimize the logistic negative log-likelihood on the design
    [z - mean(z), 1] with the ridge RIDGE on both coefficients; returns
    (beta, beta0)."""
    zbar = z.mean()
    x = np.column_stack([z - zbar, np.ones_like(z)])

    def nll(beta):
        eta = x @ beta
        return np.sum(np.logaddexp(0.0, eta)) - y @ eta + 0.5 * RIDGE * beta @ beta

    def grad(beta):
        eta = x @ beta
        return x.T @ (special.expit(eta) - y) + RIDGE * beta

    result = optimize.minimize(
        nll, np.zeros(x.shape[1]), jac=grad, method="BFGS",
        options={"gtol": 1e-12, "maxiter": 500},
    )
    beta, a = result.x
    return beta, a - beta * zbar


def bh_oracle(p):
    """Step-up adjustment computed the slow, textbook way."""
    p = np.asarray(p, dtype=float)
    m = len(p)
    order = np.argsort(p)
    adjusted = np.full(m, np.nan)
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, p[i] * m / rank)
        adjusted[i] = running
    return adjusted


class TestIdentityLink:
    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            z = rng.normal(0.0, 1.0, 40)
            y = 0.7 * z + rng.normal(0.0, 0.5, 40)
            fit = fit_glm(z, Outcome.continuous(y))
            b, b0, se, p = identity_oracle(z, y)
            np.testing.assert_allclose(fit.beta, b, rtol=1e-9)
            np.testing.assert_allclose(fit.beta0, b0, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(fit.se, se, rtol=1e-9)
            np.testing.assert_allclose(fit.p_value, p, rtol=1e-9)

    def test_zero_one_values_read_as_continuous_fit_least_squares(self):
        # The route to a linear model of 0/1 data: `--outcome-kind continuous`.
        rng = np.random.default_rng(24)
        z = rng.normal(0.0, 1.0, 30)
        y = (z + rng.normal(0.0, 0.5, 30) > 0.0) * 1.0
        fit = fit_glm(z, Outcome.continuous(y))
        assert fit.link == "identity"
        np.testing.assert_allclose(
            [fit.beta, fit.beta0, fit.se, fit.p_value], identity_oracle(z, y), rtol=1e-9
        )

    def test_perfect_fit_does_not_blow_up(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        y = 2.0 * z + 1.0
        fit = fit_glm(z, Outcome.continuous(y))
        np.testing.assert_allclose(fit.beta, 2.0, rtol=1e-12)
        assert np.isfinite(fit.p_value)

    def test_prediction_is_linear(self):
        rng = np.random.default_rng(23)
        z = rng.normal(0.0, 1.0, 30)
        y = z + rng.normal(0.0, 0.1, 30)
        fit = fit_glm(z, Outcome.continuous(y))
        grid = np.linspace(-2, 2, 5)
        np.testing.assert_allclose(
            fit.predict_response(grid), fit.beta * grid + fit.beta0, rtol=1e-12
        )


class TestLogisticLink:
    def make_data(self, seed, n=80):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, 1.0, n)
        prob = special.expit(1.2 * z - 0.4)
        y = (rng.random(n) < prob).astype(float)
        return z, y

    def test_matches_reference_optimizer(self):
        # The fit does not depend on where the score sits.
        for seed, shift in itertools.product(range(8), [0.0, 1e4]):
            z, y = self.make_data(seed + 30)
            z = z + shift
            fit = fit_glm(z, Outcome.binary(y))
            want = logistic_oracle(z, y)
            np.testing.assert_allclose(fit.beta, want[0], rtol=1e-6)
            np.testing.assert_allclose(fit.beta0, want[1], rtol=1e-6, atol=1e-8)
            assert fit.converged

    def test_convergence_is_tested_before_each_step_only(self):
        # A fit that converges at its k-th check has taken k - 1 steps. With
        # MAX_ITER = k - 1 it takes the same steps and stops unchecked, so
        # it reports no convergence, as the reference does.
        z, y = self.make_data(55)
        out = Outcome.binary(y)
        k = fit_glm(z, out).n_iter
        for max_iter in (k, k - 1):
            with mock.patch.object(glm, "MAX_ITER", max_iter):
                fit = fit_glm(z, out)
            ref = reference_fit(z, out, max_iter)
            assert (fit.converged, fit.n_iter) == (ref.converged, ref.n_iter)
        assert not fit.converged
        assert fit.note.startswith(f"did not converge in {k - 1} iterations")

    def test_wald_p_value_from_normal(self):
        z, y = self.make_data(50)
        fit = fit_glm(z, Outcome.binary(y))
        want = 2.0 * special.ndtr(-abs(fit.beta / fit.se))
        np.testing.assert_allclose(fit.p_value, want, rtol=1e-12)

    def test_separable_data_reports_instead_of_raising(self):
        # Perfectly separated labels push |beta| toward the ridge-bounded
        # optimum; the fit must come back finite with a status, not raise.
        z = np.linspace(-2, 2, 40)
        y = (z > 0).astype(float)
        fit = fit_glm(z, Outcome.binary(y))
        assert np.isfinite(fit.beta)
        assert np.isfinite(fit.p_value)

    @pytest.mark.parametrize(
        "z, y, separated",
        [
            ([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0], True),
            ([4.0, 3.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0], True),
            # Quasi-complete: one tie where the classes meet.
            ([1.0, 2.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0], True),
            ([1.0, 3.0, 2.0, 4.0], [0.0, 0.0, 1.0, 1.0], False),
        ],
    )
    def test_separated_classes_are_noted(self, z, y, separated):
        fit = fit_glm(np.array(z), Outcome.binary(np.array(y)))
        assert fit.converged
        want = "outcome is separated by the score; beta is set by the ridge"
        assert fit.note == (want if separated else "")

    def test_probability_predictions_in_range(self):
        z, y = self.make_data(60)
        fit = fit_glm(z, Outcome.binary(y))
        # Scores far enough out overflow exp inside expit; that is no warning.
        scores = np.concatenate([np.linspace(-50, 50, 101), [-1e6, 1e6]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = fit.predict_response(scores)
        assert np.all(p >= 0.0)
        assert np.all(p <= 1.0)
        assert sorted(p[-2:]) == [0.0, 1.0]


@st.composite
def shifted_score_cases(draw):
    """An outcome, a score on a grid of step 2**-10 and a shift c with
    |c| <= 1e8 on the same grid, so that z + c is exact in float64."""
    n = draw(st.integers(4, 60))

    def draw_vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    if draw(st.booleans()):
        y = draw_vector(st.sampled_from([0.0, 1.0]))
        y[draw(st.integers(0, n - 1))] = 1.0 - y[0]  # both classes present
        out = Outcome.binary(y)
    else:
        y = draw_vector(st.integers(-20, 20)) / 4.0
        out = Outcome.continuous(y)
    z = y * draw(st.integers(0, 8)) + draw_vector(st.integers(-4096, 4096)) / 1024.0
    z[0] = z.max() + 1.0 / 1024.0  # never constant
    shift = draw(st.integers(-(10**8) * 1024, 10**8 * 1024)) / 1024.0
    return out, z, shift


class TestLocationInvariance:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(shifted_score_cases())
    def test_shifting_the_score_leaves_beta_and_p(self, case):
        out, z, shift = case
        assert np.all(z + shift - shift == z)
        want = fit_glm(z, out)
        got = fit_glm(z + shift, out)
        assert abs(got.beta - want.beta) <= 1e-8 * abs(want.beta)
        assert abs(got.p_value - want.p_value) <= 1e-8 * want.p_value


class TestFitValidation:
    def test_constant_score_rejected(self):
        with pytest.raises(DegenerateDesign, match="score is constant"):
            fit_glm(np.ones(10), Outcome.binary(np.tile([0.0, 1.0], 5)))

    @pytest.mark.parametrize("fit", [fit_glm, reference_fit], ids=["kernel", "reference"])
    @pytest.mark.parametrize("ulps, flat", [(10, True), (11, False)])
    def test_no_variation_is_a_range_within_n_eps_of_the_largest(self, fit, ulps, flat):
        # Ten values, one of them ulps * eps above 1: the range ulps * eps
        # is within 10 * eps * (1 + ulps * eps) only for ulps <= 10.
        z = np.ones(10)
        z[0] += ulps * np.finfo(float).eps
        out = Outcome.binary(np.tile([0.0, 1.0], 5))
        if flat:
            with pytest.raises(DegenerateDesign, match="score is constant"):
                fit(z, out)
        else:
            assert fit(z, out).converged

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="score length 5 vs outcome length 2"):
            fit_glm(np.arange(5.0), Outcome.binary(np.array([0.0, 1.0])))

    def test_logistic_needs_both_classes(self):
        with pytest.raises(ValidationError, match="both classes"):
            fit_glm(np.arange(6.0), Outcome.binary(np.ones(6)))


@st.composite
def column_fit_cases(draw):
    """Outcome, Newton iteration cap and blocks of score columns with the
    awkward kinds.

    Values lie on grids, so exact ties and perfect fits occur. Columns may
    be constant, exactly or up to rounding (log(3a) - log(a), or 0.1),
    hold a non-finite value, separate the classes, hold an
    outlier (where Newton steps get halved), sit far from zero relative to
    their spread (an ill-conditioned 2x2 system), or span many orders of
    magnitude. N from 2 gives dof <= 0 for identity fits, and a small
    cap, patched in as `glm.MAX_ITER`, gives non-converged logistic fits.
    """
    n = draw(st.integers(2, 24))

    def draw_vector(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    binary = draw(st.booleans())
    if binary:
        y = draw_vector(st.sampled_from([0.0, 1.0]))
        if draw(st.integers(0, 9)):
            y[draw(st.integers(0, n - 1))] = 1.0 - y[0]  # both classes present
        out = Outcome.binary(y)
    else:
        y = draw_vector(st.integers(-20, 20)) / 4.0
        out = Outcome.continuous(y)
    grid = st.integers(-64, 64)
    columns = []
    kinds = st.sampled_from(
        ["free", "informative", "separable", "outlier", "constant",
         "non_finite", "offset", "scaled", "perfect", "tripled", "tenth"]
    )
    for kind in draw(st.lists(kinds, min_size=1, max_size=10)):
        z = draw_vector(grid) / 8.0
        if kind == "informative":
            z = y * draw(st.integers(1, 16)) / 8.0 + z / 4.0
        elif kind == "separable":
            side = np.where(y > np.median(y), 1.0, -1.0)
            z = side * draw_vector(st.integers(1, 64)) / 8.0
        elif kind == "outlier":
            z[draw(st.integers(0, n - 1))] *= 10.0 ** draw(st.integers(1, 3))
        elif kind == "constant":
            z = np.full(n, draw(grid) / 8.0)
        elif kind == "tripled":
            a = draw_vector(st.integers(1, 64)) / 8.0
            z = np.log(3.0 * a) - np.log(a)
        elif kind == "tenth":
            z = np.full(n, 0.1)
        elif kind == "non_finite":
            z[draw(st.integers(0, n - 1))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf])
            )
        elif kind == "offset":
            z = 10.0 ** draw(st.integers(1, 8)) + z / 8.0
        elif kind == "scaled":
            z = z * 10.0 ** draw(st.integers(-6, 6))
        elif kind == "perfect":
            z = y * draw(st.sampled_from([-2.0, 0.5, 3.0])) + 1.0
        columns.append(z)
    z = np.column_stack(columns)
    max_iter = draw(st.sampled_from([1, 2, 3, 100]))
    cuts = sorted(draw(st.lists(st.integers(0, z.shape[1]), max_size=3)))
    blocks = np.split(z, cuts, axis=1)
    return out, max_iter, blocks


def fit_blocks(blocks, outcome):
    return _fit_columns(blocks, sum(z.shape[1] for z in blocks), outcome)


def fit_in_column_blocks(columns, outcome):
    """`_fit_columns` over the column blocks `daa` fits."""
    blocks = [columns[:, cols] for cols in composition._column_blocks(*columns.shape)]
    return fit_blocks(blocks, outcome)


def assert_fits_match(got, want):
    """Equal NaN masks; beta and p within the tolerance of two
    implementations of one fit."""
    beta, p_value, _ = got
    want_beta, want_p, _ = want
    np.testing.assert_array_equal(np.isnan(beta), np.isnan(want_beta))
    np.testing.assert_array_equal(np.isnan(p_value), np.isnan(want_p))
    ok = ~np.isnan(want_beta)
    assert np.all(
        np.abs(beta[ok] - want_beta[ok]) <= 1e-9 * (1.0 + np.abs(want_beta[ok]))
    )
    ok = ~np.isnan(want_p)
    assert np.all(np.abs(p_value[ok] - want_p[ok]) <= 1e-9)


def assert_fits_identical(got, want):
    """Equal notes, and beta and p equal bit for bit."""
    beta, p_value, notes = got
    want_beta, want_p, want_notes = want
    assert notes == want_notes
    assert beta.tobytes() == want_beta.tobytes()
    assert p_value.tobytes() == want_p.tobytes()


def reference_by_column(blocks, outcome):
    return fit_glm_by_column(blocks, outcome, fit=reference_fit)


class TestBatchedColumnFits:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(column_fit_cases())
    def test_matches_fit_glm_column_by_column(self, case):
        out, max_iter, blocks = case
        with mock.patch.object(glm, "MAX_ITER", max_iter):
            assert_fits_identical(
                fit_blocks(blocks, out), fit_glm_by_column(blocks, out)
            )

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(column_fit_cases())
    def test_matches_the_scalar_reference(self, case):
        out, max_iter, blocks = case
        with mock.patch.object(glm, "MAX_ITER", max_iter):
            got = fit_blocks(blocks, out)
            want = reference_by_column(blocks, out)
        assert_fits_match(got, want)
        # A rejected column's note is its error. Convergence notes are not
        # compared: near rounding level the two gradient norms differ, and
        # on offset columns the test can pass in one and fail in the other.
        rejected = np.flatnonzero(np.isnan(want[0]))
        assert [got[2][j] for j in rejected] == [want[2][j] for j in rejected]

    @pytest.mark.parametrize("block_elements", [1, 7 * 60, 1 << 15])
    def test_ratio_blocks_match_the_whole_table(self, monkeypatch, block_elements):
        # Blocks of one column, of seven, and one block for all 45 ratios:
        # each gives the bits of one fit per column, so all three agree.
        mat, out = planted_matrix(95)
        monkeypatch.setattr(composition, "_BLOCK_ELEMENTS", block_elements)
        for outcome in (out, Outcome.continuous(out.values + mat.values[:, 2])):
            res = differential_ratio_analysis(mat, outcome)
            ratios, pairs = pairwise_logratios(mat)
            jj, kk = ratio_pairs(mat.n_features)
            assert np.array_equal(res.numerator, jj)
            assert np.array_equal(res.denominator, kk)
            assert list(zip(jj.tolist(), kk.tolist())) == pairs
            got = (res.beta, res.p_value, res.notes)
            assert_fits_identical(got, fit_glm_by_column([ratios], outcome))
            assert_fits_match(got, reference_by_column([ratios], outcome))

    def test_step_objective_halves_as_logaddexp_does(self, monkeypatch):
        # The kernel's softplus and np.logaddexp(0, eta) differ by rounding
        # alone, far below the step test's slack, so every halving decision
        # and with it every fit keeps its bits.
        scenario = planted_signal_scenario(80, 40, seed=7)
        bias = BiasModel.random(80, 40, seed=1007, noise_sd=0.2)
        logs = np.log(observe(scenario, bias, seed=2007).values)
        y = scenario.group.astype(float)
        blocks = [z.T for _, z in _pairwise_logratio_blocks(logs, *ratio_pairs(40))]
        fits = [glm._fit_logistic_rows(z, y) for z in blocks]

        def logaddexp_objective(eta, y, b1, a):
            nll = np.logaddexp(0.0, eta).sum(axis=1) - np.einsum("ij,j->i", eta, y)
            return nll + 0.5 * RIDGE * (b1 * b1 + a * a)

        monkeypatch.setattr(glm, "_penalized_nll_rows", logaddexp_objective)
        for z, got in zip(blocks, fits):
            want = glm._fit_logistic_rows(z, y)
            for g, w in zip(got[:3], want[:3]):
                assert g.tobytes() == w.tobytes()

    def test_in_place_softplus_keeps_the_expression_bits(self):
        rng = np.random.default_rng(8)
        eta = rng.normal(0.0, 30.0, (50, 40))
        eta[0, :6] = [0.0, -0.0, 800.0, -800.0, 1e-300, -37.0]
        y = (rng.random(40) < 0.5).astype(float)
        b1, a = rng.normal(0.0, 1.0, 50), rng.normal(0.0, 1.0, 50)
        softplus = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        nll = softplus.sum(axis=1) - np.einsum("ij,j->i", eta, y)
        want = nll + 0.5 * RIDGE * (b1 * b1 + a * a)
        assert glm._penalized_nll_rows(eta, y, b1, a).tobytes() == want.tobytes()

    def test_daa_blocks_keep_each_note_in_place(self, monkeypatch):
        mat, out = planted_matrix(96)
        cols = np.array(mat.values)
        cols[:, 3] = 7.0
        cols[:, 6] = np.inf
        monkeypatch.setattr(composition, "_BLOCK_ELEMENTS", 4 * 60)
        got = fit_in_column_blocks(cols, out)
        assert_fits_identical(got, fit_glm_by_column([cols], out))
        assert_fits_match(got, reference_by_column([cols], out))
        assert got[2][3] == "score is constant; nothing to fit"
        assert got[2][6] == "score contains non-finite values"


class TestBenjaminiHochberg:
    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(25):
            p = rng.random(rng.integers(1, 40))
            np.testing.assert_allclose(
                benjamini_hochberg(p), bh_oracle(p), rtol=1e-12
            )

    def test_nan_passthrough(self):
        p = np.array([0.01, np.nan, 0.5, np.nan, 0.04])
        adj = benjamini_hochberg(p)
        assert np.isnan(adj[1])
        assert np.isnan(adj[3])
        # NaN entries do not count toward the number of tests.
        np.testing.assert_allclose(
            adj[[0, 2, 4]], bh_oracle([0.01, 0.5, 0.04]), rtol=1e-12
        )

    def test_capped_at_one(self):
        adj = benjamini_hochberg([0.9, 0.95, 0.99])
        assert np.all(adj <= 1.0)

    def test_monotone_in_rank(self):
        rng = np.random.default_rng(71)
        p = rng.random(30)
        adj = benjamini_hochberg(p)
        order = np.argsort(p)
        assert np.all(np.diff(adj[order]) >= -1e-15)


def planted_matrix(seed, n=60, g=10, effect=1.5):
    rng = np.random.default_rng(seed)
    logs = rng.normal(0.0, 0.5, (n, g))
    group = np.zeros(n)
    group[n // 2:] = 1.0
    logs[group == 1.0, 0] += effect / 2.0
    logs[group == 1.0, 1] -= effect / 2.0
    mat = StrictlyPositiveMatrix(
        np.exp(logs),
        [f"s{i}" for i in range(n)],
        [f"f{j}" for j in range(g)],
    )
    return mat, Outcome.binary(group)


class TestDaa:
    def test_result_shape_and_adjustment(self):
        mat, out = planted_matrix(80)
        res = daa(mat, out)
        assert len(res.feature_ids) == 10
        assert res.beta.shape == (10,)
        np.testing.assert_allclose(
            res.p_adjusted, bh_oracle(res.p_value), rtol=1e-12
        )

    def test_planted_features_found(self):
        mat, out = planted_matrix(81)
        res = daa(mat, out)
        sig = res.significant(0.05)
        assert sig[0]
        assert sig[1]
        assert set(np.argsort(res.p_value)[:2]) == {0, 1}

    def test_constant_column_flagged_not_fatal(self):
        mat, out = planted_matrix(82)
        cols = np.array(mat.values)
        cols[:, 3] = 7.0
        _, p_value, notes = fit_in_column_blocks(cols, out)
        assert np.isnan(p_value[3])
        assert np.isnan(benjamini_hochberg(p_value)[3])
        assert notes[3] != ""
        assert np.isfinite(p_value[0])

    def test_unknown_transform_rejected(self):
        mat, out = planted_matrix(83)
        with pytest.raises(ValidationError):
            daa(mat, out, transform="alr")


class TestCancellationConstantColumns:
    """Columns that are constant in exact arithmetic but are computed by
    cancelling logs about 100 times their own size, so their rounding
    noise exceeds a bound taken from their own magnitude."""

    CONSTANT = "score is constant; nothing to fit"

    def matrix_and_outcomes(self, columns):
        rng = np.random.default_rng(7)
        values = columns(rng)
        y = rng.normal(size=40)
        mat = StrictlyPositiveMatrix(
            values,
            [f"s{i}" for i in range(40)],
            [f"f{j}" for j in range(values.shape[1])],
        )
        return mat, [Outcome.continuous(y), Outcome.binary((y > 0.0) * 1.0)]

    def test_ratio_of_proportional_features_is_noted(self):
        def columns(rng):
            a = rng.uniform(100.0, 5000.0, 40)
            return np.column_stack([a, 1.01 * a, rng.uniform(100.0, 5000.0, 40)])

        mat, outcomes = self.matrix_and_outcomes(columns)
        for outcome in outcomes:
            res = differential_ratio_analysis(mat, outcome)
            assert res.notes[0] == self.CONSTANT
            assert np.isnan(res.beta[0]) and np.isnan(res.p_value[0])
            assert np.all(np.isfinite(res.p_value[1:]))

    def test_clr_of_one_rescaled_composition_is_noted(self):
        def columns(rng):
            return rng.uniform(100.0, 5000.0, (40, 1)) * np.array([1.0, 3.0, 7.0, 2.0])

        mat, outcomes = self.matrix_and_outcomes(columns)
        for outcome in outcomes:
            res = daa(mat, outcome, transform="clr")
            assert res.notes == [self.CONSTANT] * 4
            assert np.all(np.isnan(res.beta))


class TestDifferentialRatioAnalysis:
    def test_pair_count_and_labels(self):
        mat, out = planted_matrix(90, g=6)
        res = differential_ratio_analysis(mat, out)
        jj, kk = ratio_pairs(6)
        assert np.array_equal(res.numerator, jj)
        assert np.array_equal(res.denominator, kk)
        assert res.beta.shape == (15,)
        labels = list(ratio_labels(res.feature_ids, res.numerator, res.denominator))
        assert len(labels) == 15
        assert labels[0] == "f0/f1"
        assert labels[-1] == "f4/f5"

    def test_attribution_fraction_definition(self):
        mat, out = planted_matrix(91, effect=3.0)
        res = differential_ratio_analysis(mat, out)
        g = len(res.feature_ids)
        sig = res.p_adjusted < res.alpha
        assert res.n_significant == sig.sum()
        counts = np.zeros(g)
        for j, k, s in zip(*ratio_pairs(g), sig):
            counts[j] += s
            counts[k] += s
        np.testing.assert_allclose(res.attribution, counts / (g - 1))

    def test_result_holds_arrays_not_an_object_per_ratio(self):
        # Five arrays of 8-byte values and the notes list are 48 bytes a
        # ratio; a tuple and a label string per ratio were about 170. The
        # small first call loads what the analysis loads only once.
        differential_ratio_analysis(*planted_matrix(97, n=20, g=8))
        mat, out = planted_matrix(98, n=20, g=300)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = differential_ratio_analysis(mat, out)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.beta.size == 300 * 299 // 2
        assert retained / res.beta.size < 64

    def test_planted_features_attract_attribution(self):
        mat, out = planted_matrix(92, effect=3.0)
        res = differential_ratio_analysis(mat, out)
        top = set(np.argsort(res.attribution)[-2:])
        assert top == {0, 1}

    def test_scale_invariance(self):
        mat, out = planted_matrix(93)
        rng = np.random.default_rng(93)
        scales = np.exp(rng.normal(0.0, 2.0, mat.n_samples))
        scaled = StrictlyPositiveMatrix(
            mat.values * scales[:, None],
            list(mat.sample_ids),
            list(mat.feature_ids),
        )
        a = differential_ratio_analysis(mat, out)
        b = differential_ratio_analysis(scaled, out)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-10)
        np.testing.assert_allclose(a.p_value, b.p_value, atol=1e-10)

    def test_feature_cap(self):
        rng = np.random.default_rng(94)
        vals = np.exp(rng.normal(0.0, 0.1, (4, 11)))
        mat = StrictlyPositiveMatrix(
            vals, [f"s{i}" for i in range(4)], [f"f{j}" for j in range(11)]
        )
        out = Outcome.binary(np.array([0.0, 0.0, 1.0, 1.0]))
        cap = re.escape("11 features would give 55 ratio tests (cap 10)")
        with pytest.raises(ValidationError, match=cap):
            differential_ratio_analysis(mat, out, max_features=10)
