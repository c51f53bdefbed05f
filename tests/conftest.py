"""Shared pytest wiring and test helpers.

The acceptance tests register one summary line each; printing them from a
terminal-summary hook keeps the checklist visible even though pytest
captures stdout of passing tests.

The helpers below are the slow references the package's batched code is
checked against: `reference_fit` is a scalar two-column GLM fitter written
with matrix arithmetic, independent of the block kernel in `glm.py`, and
`cv_score_values` scores one candidate with one `fit_glm` per fold.
`reference_auc` ranks with `scipy.stats.rankdata`, which the package does
not import. `reference_score_candidates` is the scorer's sign path one
fold at a time, with no fold arrays. `reference_mean_and_se` groups
candidates by their scored-fold pattern with `np.unique(axis=0)`, and
`reference_next_generation` makes a generation's three draws, then breeds
one child at a time from them.
`reference_mlp_loss_and_grad` and `reference_encoder_decoder` train the
bottleneck network with a new array for every intermediate;
`separate_bias_mlp_loss_and_grad` is the same gradient with each bias
added and summed on its own, not folded into its weight block;
`reference_read_matrix` parses a matrix one `_parse_cell` call per cell,
and `reference_cutoff_sets` is the relaxed learner's cutoff sweep written
with the old `_hard_sets` rule, whose empty side raised and was caught.
`reference_relaxed_loss_and_grad` is the relaxed learner's step for one
fit, each side's mean log and its gradient term formed on its own, and
`reference_relaxed_training` runs it in the learner's momentum loop.
`two_equal_factor_pair` makes the PLS input whose two leading singular
values nearly tie. `reference_write_rows` is the old CLI row writer and
`reference_write_outcome` the old one-f-string outcome writer, the
references for `tabular`'s one line rule.

The `cpus` fixture makes `ordered_map` see one CPU or two, whatever the
machine has, so the serial path and the process-pool path both run on any
runner; with one CPU it also fails the test if a pool is started.
"""

import math
import multiprocessing.pool
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit, ndtr, stdtr
from scipy.stats import rankdata

from ratiomarker import glm, parallel, special
from ratiomarker.composition import CompositionMatrix
from ratiomarker.errors import DegenerateDesign, ParseError, ValidationError
from ratiomarker.glm import RIDGE, TOL, FittedGlm, fit_glm
from ratiomarker.latent import _blocks, _init_params
from ratiomarker.learn import scoring
from ratiomarker.metrics import _auc_rows, _flat
from ratiomarker.tabular import _detect_delimiter, _parse_cell, _read_lines

ACCEPTANCE_LINES = []


@pytest.fixture
def forbid_pool(monkeypatch):
    """Fail the test if anything starts a process pool."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing.pool, "Pool", refuse)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: request.param)
    if request.param == 1:
        request.getfixturevalue("forbid_pool")
    return request.param


def reference_fit(z, outcome, max_iter=None) -> FittedGlm:
    """Fit y ~ phi(beta * z + beta0) with the design [z - mean(z), 1].

    The same objective, rules and errors as `fit_glm`: the link is logistic
    for a binary outcome and identity otherwise, the ridge is on beta and
    the intercept at the mean score, convergence is tested on the gradient
    in those coordinates within `max_iter` (`glm.MAX_ITER` when None)
    Newton steps, steps are halved until the objective stops increasing,
    and se == 0 gives p = 0, or 1 at beta == 0.
    """
    z = np.asarray(z, dtype=float).ravel()
    y = outcome.values
    if not np.all(np.isfinite(z)):
        raise ValidationError("score contains non-finite values")
    # No variation: a range within rounding of the largest magnitude.
    if np.ptp(z) <= z.size * np.finfo(float).eps * np.abs(z).max():
        raise DegenerateDesign("score is constant; nothing to fit")
    if outcome.kind == "binary" and not outcome.both_classes_present():
        raise ValidationError("binary outcome must contain both classes")
    zbar = z.mean()
    x = np.column_stack([z - zbar, np.ones_like(z)])
    if outcome.kind == "continuous":
        return _fit_identity(x, y, zbar)
    return _fit_logistic(x, y, zbar, glm.MAX_ITER if max_iter is None else max_iter)


def _fit_identity(x, y, zbar) -> FittedGlm:
    # Least squares of y - mean(y) on the centred design, so a constant
    # outcome gives beta == 0 exactly.
    n = y.size
    ybar = y.mean()
    xtx = x.T @ x
    if np.linalg.det(xtx) == 0.0:
        raise DegenerateDesign("design matrix is singular")
    coef = np.linalg.solve(xtx, x.T @ (y - ybar))
    resid = (y - ybar) - x @ coef
    dof = n - 2
    if dof <= 0:
        se = p_value = float("nan")
    else:
        cov = float(resid @ resid) / dof * np.linalg.inv(xtx)
        se = math.sqrt(max(float(cov[0, 0]), 0.0))
        if se == 0.0:
            p_value = 1.0 if coef[0] == 0.0 else 0.0
        else:
            p_value = float(2.0 * stdtr(dof, -abs(coef[0] / se)))
    return FittedGlm(
        beta=float(coef[0]),
        beta0=float(ybar + coef[1] - coef[0] * zbar),
        se=se,
        p_value=p_value,
        converged=True,
        n_iter=0,
        link="identity",
    )


def _fit_logistic(x, y, zbar, max_iter) -> FittedGlm:
    # theta = (beta, a) with a = beta0 + beta * zbar; the penalty is
    # RIDGE / 2 * theta' theta.
    penalty = RIDGE * np.eye(2)

    def objective(theta):
        eta = x @ theta
        return float(
            np.sum(np.logaddexp(0.0, eta)) - y @ eta + 0.5 * theta @ penalty @ theta
        )

    def gradient_and_hessian(theta):
        mu = expit(x @ theta)
        w = mu * (1.0 - mu)
        return x.T @ (mu - y) + penalty @ theta, (x * w[:, None]).T @ x + penalty

    ybar = float(y.mean())
    theta = np.array([0.0, math.log(ybar / (1.0 - ybar))])
    f_cur = objective(theta)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        grad, hess = gradient_and_hessian(theta)
        if np.linalg.norm(grad) <= TOL * (1.0 + abs(theta[0])):
            converged = True
            break
        direction = np.linalg.solve(hess, grad)
        step = 1.0
        trial = theta - direction
        f_new = objective(trial)
        for _ in range(50):
            if f_new <= f_cur + 1e-12 * (1.0 + abs(f_cur)):
                break
            step *= 0.5
            trial = theta - step * direction
            f_new = objective(trial)
        theta = trial
        f_cur = f_new
    grad, hess = gradient_and_hessian(theta)
    se = math.sqrt(max(float(np.linalg.inv(hess)[0, 0]), 0.0))
    if se == 0.0:
        p_value = 1.0 if theta[0] == 0.0 else 0.0
    else:
        p_value = float(2.0 * ndtr(-abs(theta[0] / se)))
    note = "" if converged else (
        f"did not converge in {max_iter} iterations"
        f" (gradient norm {np.linalg.norm(grad):.3g})"
    )
    return FittedGlm(
        beta=float(theta[0]),
        beta0=float(theta[1] - theta[0] * zbar),
        se=se,
        p_value=p_value,
        converged=converged,
        n_iter=n_iter,
        link="logistic",
        note=note,
    )


def reference_auc(y, scores) -> float:
    """AUC by the rank-sum formula on `scipy.stats.rankdata` midranks;
    NaN when either class is absent."""
    y = np.asarray(y, dtype=float)
    n_pos = int(np.sum(y == 1.0))
    n_neg = int(np.sum(y == 0.0))
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    rank_sum = rankdata(np.asarray(scores, dtype=float))[y == 1.0].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def reference_r2(y, predictions) -> float:
    """R squared, 1 - SS_res / SS_tot with SS_tot about the mean of y, in
    scalar sums; NaN when y does not vary: its centred norm is within
    rounding of its largest magnitude."""
    y = np.asarray(y, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if math.sqrt(ss_tot) <= y.size * np.finfo(float).eps * np.abs(y).max():
        return float("nan")
    ss_res = float(np.sum((y - predictions) ** 2))
    return 1.0 - ss_res / ss_tot


def cv_score_values(z, outcome, folds) -> tuple[float, float, list[float]]:
    """Reference for `score_candidates`: the out-of-fold score of one score
    vector, with one `fit_glm` per fold.

    Returns (mean, standard error, per-fold scores). A candidate whose fit
    fails in any fold (constant score in training, say) is unusable and
    scores -inf.
    """
    scores = []
    for train, test in folds:
        try:
            fit = fit_glm(z[train], outcome.subset(train))
        except ValidationError:
            return float("-inf"), 0.0, []
        eta = fit.beta * z[test] + fit.beta0
        if outcome.kind == "binary":
            scores.append(reference_auc(outcome.values[test], eta))
        else:
            scores.append(reference_r2(outcome.values[test], eta))
    arr = np.asarray(scores, dtype=float)
    valid = arr[~np.isnan(arr)]
    if valid.size == 0:
        return float("-inf"), 0.0, scores
    mean = float(valid.mean())
    if valid.size >= 2:
        se = float(valid.std(ddof=1) / math.sqrt(valid.size))
    else:
        se = 0.0
    return mean, se, scores


def column_by_column(z_matrix, outcome, folds):
    """Reference for `score_candidates`: one `cv_score_values` per column."""
    scored = [
        cv_score_values(z_matrix[:, c], outcome, folds)[:2]
        for c in range(z_matrix.shape[1])
    ]
    return (
        np.array([m for m, _ in scored], dtype=float),
        np.array([s for _, s in scored], dtype=float),
    )


def reference_score_candidates(Z, outcome, folds):
    """Reference for `learn.scoring.score_candidates`: its sign path written
    one fold at a time, each fold's statistic and training range from its
    own gathered training rows and all columns ranked at once. Fitted
    columns are scored by `column_by_column` and the folds aggregated by
    `reference_mean_and_se`."""
    Z = np.asarray(Z, dtype=float)
    y = outcome.values
    batched = outcome.kind == "binary" and all(
        train.size and 0.0 < y[train].mean() < 1.0 for train, _ in folds
    )
    if not batched:
        return column_by_column(Z, outcome, folds)
    finite = np.all(np.isfinite(Z), axis=0)
    z_all = np.where(finite, Z, 0.0)
    undecided = ~finite
    dead = np.zeros(Z.shape[1], dtype=bool)
    width = max(test.size for _, test in folds)
    signs = np.empty((Z.shape[1], len(folds)))
    rows = np.zeros((len(folds), width), dtype=np.intp)
    labels = np.full((len(folds), width), -1.0)
    for f, (train, test) in enumerate(folds):
        z_train = z_all[train]
        y_train = y[train]
        stat = (y_train - y_train.mean()) @ z_train
        top = z_train.max(axis=0)
        bottom = z_train.min(axis=0)
        magnitude = np.maximum(top, -bottom)
        dead |= _flat(top - bottom, train.size, magnitude)
        undecided |= np.abs(stat) <= scoring._SIGN_MARGIN * TOL * (1.0 + magnitude)
        signs[:, f] = np.where(stat > 0.0, 1.0, -1.0)
        rows[f, : test.size] = test
        labels[f, : test.size] = y[test]
    dead &= finite
    signed = z_all.T[:, rows] * signs[:, :, None]
    signed[:, labels == -1.0] = np.inf
    mean, se = reference_mean_and_se(_auc_rows(labels, signed), dead)
    to_fit = np.flatnonzero(undecided & ~dead)
    if to_fit.size:
        mean[to_fit], se[to_fit] = column_by_column(Z[:, to_fit], outcome, folds)
    return mean, se


def reference_mean_and_se(scores, dead):
    """Reference for `learn.scoring._mean_and_se`: one reduction per
    distinct scored-fold pattern of the live rows."""
    mean = np.full(len(scores), float("-inf"))
    se = np.zeros(len(scores))
    scored = ~np.isnan(scores)
    for pattern in np.unique(scored[~dead], axis=0):
        k = int(pattern.sum())
        if k == 0:
            continue
        rows = np.flatnonzero(~dead & (scored == pattern).all(axis=1))
        valid = scores[np.ix_(rows, np.flatnonzero(pattern))]
        mean[rows] = valid.mean(axis=1)
        if k >= 2:
            se[rows] = valid.std(axis=1, ddof=1) / math.sqrt(k)
    return mean, se


def reference_next_generation(population, fits, rng, tournament_size, mutation_rate):
    """Reference for `learn.evolutionary._next_generation`: the same three
    draws (every tournament, every uniform, then the mutated genes), then
    the elite and one child at a time in plain Python, each tournament won
    by its first fittest pick and each gene crossed over and mutated on its
    own."""
    size, g = population.shape
    picks = rng.integers(0, size, (size - 1, 2, tournament_size)).tolist()
    uniforms = rng.random((size - 1, 2 * g)).tolist()
    n_mut = sum(u < mutation_rate for row in uniforms for u in row[g:])
    new_genes = iter(rng.integers(0, 3, n_mut).tolist() if n_mut else [])
    genes = (0, 1, -1)
    rows = population.tolist()

    def winner(idx):
        best = idx[0]
        for i in idx[1:]:
            if fits[i] > fits[best]:
                best = i
        return rows[best]

    new_pop = [winner(range(size))]
    for (picks_a, picks_b), u in zip(picks, uniforms):
        parent_a, parent_b = winner(picks_a), winner(picks_b)
        child = []
        for j in range(g):
            gene = parent_a[j] if u[j] < 0.5 else parent_b[j]
            if u[g + j] < mutation_rate:
                gene = genes[next(new_genes)]
            child.append(gene)
        new_pop.append(child)
    assert next(new_genes, None) is None
    return np.array(new_pop, dtype=np.int8)


def _matrix_cell(text, path, row, column) -> float:
    value = _parse_cell(text, path, row, column)
    if value < 0.0:
        raise ParseError(
            f"cell {text!r} is negative", path=path, row=row, column=column
        )
    return value


def reference_read_matrix(path) -> CompositionMatrix:
    """Reference for `tabular.read_matrix`: every cell parsed by its own
    `_parse_cell` call and checked to be non-negative, row by row, so the
    first error raised is the first bad cell in reading order."""
    lines = _read_lines(path)
    delim = _detect_delimiter(lines)
    header = lines[0].split(delim)
    n_cols = len(header)
    if n_cols < 3:
        raise ParseError(
            "matrix needs a sample-id column and at least two features",
            path=path,
            row=1,
        )
    if len(lines) < 2:
        raise ParseError("matrix has no sample rows", path=path)
    sample_ids, rows = [], []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(delim)
        if len(fields) != n_cols:
            raise ParseError(
                f"ragged row: expected {n_cols} cells, got {len(fields)}",
                path=path,
                row=i,
            )
        sample_ids.append(fields[0].strip())
        rows.append(
            [_matrix_cell(cell, path, i, j) for j, cell in enumerate(fields[1:], start=2)]
        )
    return CompositionMatrix(
        np.array(rows, dtype=float), sample_ids, [h.strip() for h in header[1:]]
    )


def reference_hard_sets(a, distance, cutoff):
    """The old `learn.relaxed._hard_sets`: the sides at one cutoff, or an
    error when one is empty."""
    num = np.flatnonzero((distance >= cutoff) & (a > 0.0)).tolist()
    den = np.flatnonzero((distance >= cutoff) & (a < 0.0)).tolist()
    if not num or not den:
        raise ValidationError(f"cutoff {cutoff:.6g} leaves an empty side")
    return num, den


def reference_cutoff_sets(a):
    """Reference for `learn.relaxed._cutoff_sets`: every distinct cutoff
    from the largest, an empty side skipped through `reference_hard_sets`'s
    error, and a set the size of the last one kept skipped."""
    with np.errstate(all="ignore"):
        distance = np.abs(special.expit(a) - 0.5)
    sets = []
    for cutoff in np.unique(distance)[::-1]:
        try:
            num, den = reference_hard_sets(a, distance, float(cutoff))
        except ValidationError:
            continue
        if sets and len(sets[-1][1]) + len(sets[-1][2]) == len(num) + len(den):
            continue
        sets.append((float(cutoff), num, den))
    return sets


def reference_relaxed_loss_and_grad(params, values, y, mode, link, logs=None):
    """Reference for `learn.relaxed.relaxed_loss_and_grad` on one fit: the
    loss and gradient of (a, beta, beta0), with both sides' weighted means
    (or sums) and their gradient terms formed one by one."""
    g = values.shape[1]
    a, beta, beta0 = params[:g], params[g], params[g + 1]
    n = values.shape[0]
    s = special.expit(a)
    s_other = 1.0 - s
    s_prime = s * s_other
    if mode == "slr":
        s_pos = values @ s
        s_neg = values @ s_other
        z = np.log(s_pos) - np.log(s_neg)
        dz_common = 1.0 / s_pos + 1.0 / s_neg
    else:
        if logs is None:
            logs = np.log(values)
        w_pos = float(s.sum())
        w_neg = float(g - w_pos)
        m_pos = (logs @ s) / w_pos
        m_neg = (logs @ s_other) / w_neg
        z = m_pos - m_neg
    eta = beta * z + beta0
    if link == "logistic":
        loss = float((np.logaddexp(0.0, eta) - y * eta).sum() / n)
        resid = (special.expit(eta) - y) / n
    else:
        diff = eta - y
        loss = float(0.5 * ((diff * diff).sum() / n))
        resid = diff / n
    grad = np.empty(g + 2)
    grad[g] = float(resid @ z)
    grad[g + 1] = float(resid.sum())
    if mode == "slr":
        grad[:g] = beta * s_prime * ((resid * dz_common) @ values)
    else:
        r_logs = resid @ logs
        c_pos = float(resid @ m_pos)
        c_neg = float(resid @ m_neg)
        grad[:g] = beta * s_prime * (
            (r_logs - c_pos) / w_pos + (r_logs - c_neg) / w_neg
        )
    return loss, grad


def reference_relaxed_training(params, values, y, mode, link, epochs, learning_rate):
    """Reference for `learn.relaxed._train` on one fit: (params, loss
    curve) after `epochs` momentum steps of `reference_relaxed_loss_and_grad`,
    each a new array."""
    logs = np.log(values)
    velocity = np.zeros_like(params)
    loss_curve = np.empty(epochs)
    with np.errstate(all="ignore"):
        for t in range(epochs):
            loss, grad = reference_relaxed_loss_and_grad(
                params, values, y, mode, link, logs
            )
            loss_curve[t] = loss
            velocity = 0.9 * velocity + grad
            params = params - learning_rate * velocity
    return params, loss_curve


def fit_glm_by_column(blocks, outcome, fit=fit_glm):
    """Reference for `glm._fit_columns`: one `fit` per column, `fit_glm`
    (the kernel's one-column call) unless another is given.

    A rejected column is a NaN row whose note is the error message; a fit
    keeps its numbers and its note ("" once converged).
    """
    beta, p_value, notes = [], [], []
    for z in blocks:
        for j in range(z.shape[1]):
            try:
                one = fit(z[:, j], outcome)
            except ValidationError as exc:
                beta.append(np.nan)
                p_value.append(np.nan)
                notes.append(str(exc))
                continue
            beta.append(one.beta)
            p_value.append(one.p_value)
            notes.append(one.note)
    return np.array(beta, dtype=float), np.array(p_value, dtype=float), notes


def separate_bias_mlp_loss_and_grad(params, x, y, hidden):
    """Oracle for `latent.mlp_loss_and_grad`: each layer a weight matmul and
    a broadcast bias add, each bias gradient a column sum, and the loss
    `np.mean`. It rounds differently from the folded arithmetic, so the two
    agree to a tolerance, not bit for bit."""
    n, d_in = x.shape
    d_out = y.shape[1]
    blocks = _blocks(params, d_in, hidden, d_out)
    w1, w2, w3, w4 = (block[:-1] for block in blocks)
    b1, b2, b3, b4 = (block[-1] for block in blocks)

    pre1 = x @ w1 + b1
    act1 = np.maximum(pre1, 0.0)
    bottleneck = act1 @ w2 + b2
    pre3 = bottleneck @ w3 + b3
    act3 = np.maximum(pre3, 0.0)
    out = act3 @ w4 + b4
    resid = out - y
    loss = float(np.mean(resid * resid))

    d_out_grad = 2.0 * resid / resid.size
    g_w4 = act3.T @ d_out_grad
    g_b4 = d_out_grad.sum(axis=0)
    d_act3 = d_out_grad @ w4.T
    d_pre3 = d_act3 * (pre3 > 0.0)
    g_w3 = bottleneck.T @ d_pre3
    g_b3 = d_pre3.sum(axis=0)
    d_bottleneck = d_pre3 @ w3.T
    g_w2 = act1.T @ d_bottleneck
    g_b2 = d_bottleneck.sum(axis=0)
    d_act1 = d_bottleneck @ w2.T
    d_pre1 = d_act1 * (pre1 > 0.0)
    g_w1 = x.T @ d_pre1
    g_b1 = d_pre1.sum(axis=0)

    grad = np.concatenate(
        [
            g_w1.ravel(),
            g_b1,
            g_w2.ravel(),
            g_b2,
            g_w3.ravel(),
            g_b3,
            g_w4.ravel(),
            g_b4,
        ]
    )
    return loss, grad


def reference_mlp_loss_and_grad(params, x, y, hidden, workspace=None):
    """Reference for `latent.mlp_loss_and_grad`: the same arithmetic in the
    same order, each intermediate a new array. Each layer's input gets its
    column of ones by `np.hstack`. `workspace` is ignored."""
    n, d_in = x.shape
    d_out = y.shape[1]
    w1, w2, w3, w4 = _blocks(params, d_in, hidden, d_out)
    ones = np.ones((n, 1))

    x1 = np.hstack([x, ones])
    pre1 = x1 @ w1
    act1 = np.hstack([np.maximum(pre1, 0.0), ones])
    bottleneck = np.hstack([act1 @ w2, ones])
    pre3 = bottleneck @ w3
    act3 = np.hstack([np.maximum(pre3, 0.0), ones])
    resid = act3 @ w4 - y
    loss = float(np.sum(resid * resid) / resid.size)

    d_out_grad = resid * (2.0 / resid.size)
    g4 = act3.T @ d_out_grad
    # Each layer's input gradient spans its ones column, which is dropped.
    d_act3 = (d_out_grad @ w4.T) * (act3 > 0.0)
    g3 = bottleneck.T @ d_act3[:, :-1]
    d_bottleneck = d_act3[:, :-1] @ w3[:-1].T
    g2 = act1.T @ d_bottleneck
    d_act1 = d_bottleneck * w2.T * (act1 > 0.0)
    g1 = x1.T @ d_act1[:, :-1]
    return loss, np.concatenate([g.ravel() for g in (g1, g2, g3, g4)])


def reference_encoder_decoder(x, y, config):
    """Reference for `latent.encoder_decoder_latent` on finite 2-d x and y:
    (params, loss_curve, final_loss) of Adam written as whole-array
    expressions over `reference_mlp_loss_and_grad`."""
    rng = np.random.default_rng(config.seed)
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    hidden = config.hidden_units
    params = _init_params(rng, x.shape[1], hidden, y.shape[1])
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    loss_curve = np.empty(config.epochs)
    for t in range(1, config.epochs + 1):
        loss, grad = reference_mlp_loss_and_grad(params, xc, yc, hidden)
        loss_curve[t - 1] = loss
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    final_loss, _ = reference_mlp_loss_and_grad(params, xc, yc, hidden)
    return params, loss_curve, final_loss


def two_equal_factor_pair(seed, n=200, noise=0.01):
    """An n x 8 pair of blocks driven by two orthogonal factors of equal
    strength, so the two leading singular values of the centered
    cross-covariance differ only through the noise (by 0.4-3% on seeds
    0-7). Each loading sums to zero, so the clr of exp(block) keeps both
    factors."""
    rng = np.random.default_rng(seed)
    loadings = np.array(
        [[1, 1, -1, -1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, -1, -1]]
    ) / 2.0
    factors, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, 2)))
    factors = (factors - factors.mean(axis=0)) * np.sqrt(n)
    x = factors @ loadings + rng.normal(0.0, noise, (n, 8))
    y = factors @ loadings[:, ::-1] + rng.normal(0.0, noise, (n, 8))
    return x, y


def reference_write_rows(path, header, rows):
    """The old `cli._write_rows`: `header`, one tab-joined line, or no line
    when it is None, then each row, a float cell as repr(float(c)) and any
    other cell as str."""
    with open(path, "w") as f:
        if header is not None:
            f.write(header + "\n")
        for row in rows:
            cells = (repr(float(c)) if isinstance(c, float) else str(c) for c in row)
            f.write("\t".join(cells) + "\n")


def reference_write_outcome(path, sample_ids, values):
    """The old `tabular.write_outcome`: one f-string per (id, value) pair."""
    lines = [f"{s}\t{float(v)!r}" for s, v in zip(sample_ids, values)]
    Path(path).write_text("\n".join(lines) + "\n")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
