"""Forward-stepwise balance selection.

The search initializes with the exhaustive best single pair: every ordered
candidate is a 1-vs-1 balance, all G(G-1)/2 of them are scored by
cross-validation on a shared fold split, and the best one (first in
lexicographic order on ties) wins. Growth then proceeds greedily: each
remaining feature is tried on each side, and the best addition is accepted
only while it improves the CV score by more than one standard error of the
current model's fold scores.
"""

import numpy as np

from ..composition import Outcome, StrictlyPositiveMatrix
from ..errors import NoImprovingPair
from ..glm import ModelSpec
from .biomarker import (
    LearnedModel,
    LearnerConfig,
    RatioBiomarker,
    balance_from_logs,
    orient_and_fit,
)
from .scoring import _learner_setup, make_folds, score_candidates

# Largest candidate matrix (n x pairs) the initialization scores at once;
# small blocks keep the scan's memory flat at no cost in speed.
_BLOCK_ELEMENTS = 1 << 15


def forward_stepwise_balance(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
    spec: ModelSpec | None = None,
) -> LearnedModel:
    config, spec = _learner_setup(matrix, outcome, config, spec)
    g = matrix.n_features
    rng = np.random.default_rng(config.seed)
    folds = make_folds(outcome, config.cv_folds, rng)
    logs = np.log(matrix.values)

    # Exhaustive 1-vs-1 initialization over pairs in lexicographic order,
    # scored in blocks of bounded size; argmax takes the first maximum, so
    # ties resolve to the smallest (j, k).
    jj, kk = np.triu_indices(g, 1)
    means = np.full(jj.size, float("-inf"))
    ses = np.zeros(jj.size)
    block = max(1, _BLOCK_ELEMENTS // outcome.n)
    for i in range(0, jj.size, block):
        pairs = slice(i, i + block)
        means[pairs], ses[pairs] = score_candidates(
            logs[:, jj[pairs]] - logs[:, kk[pairs]], outcome, spec, folds
        )
    if not np.any(means > float("-inf")):
        raise NoImprovingPair("no feature pair yields a fittable model")
    best = int(np.argmax(means))
    numerator = [int(jj[best])]
    denominator = [int(kk[best])]
    current_mean = float(means[best])
    current_se = float(ses[best])
    trace = []

    def record_step():
        trace.append(
            {
                "numerator": sorted(numerator),
                "denominator": sorted(denominator),
                "cv_score": current_mean,
                "cv_se": current_se,
            }
        )

    record_step()

    while len(numerator) + len(denominator) < g:
        in_use = set(numerator) | set(denominator)
        additions = [
            (f, side)
            for f in range(g)
            if f not in in_use
            for side in ("numerator", "denominator")
        ]
        z = np.column_stack(
            [
                balance_from_logs(logs, numerator + [f], denominator)
                if side == "numerator"
                else balance_from_logs(logs, numerator, denominator + [f])
                for f, side in additions
            ]
        )
        means, ses = score_candidates(z, outcome, spec, folds)
        best = int(np.argmax(means))
        add_mean = float(means[best])
        # One-standard-error stop: the addition must beat the current
        # score by more than the current model's fold-level SE. An
        # unfittable (-inf) best addition never does.
        if add_mean <= current_mean + current_se:
            break
        f, side = additions[best]
        (numerator if side == "numerator" else denominator).append(f)
        current_mean = add_mean
        current_se = float(ses[best])
        record_step()

    biomarker = RatioBiomarker(tuple(numerator), tuple(denominator), "balance")
    biomarker, fit, fitted = orient_and_fit(biomarker, matrix, outcome, spec)
    return LearnedModel(
        biomarker=biomarker,
        glm=fit,
        feature_ids=list(matrix.feature_ids),
        cv_score=current_mean,
        cv_se=current_se,
        training_scores=fitted,
        seed=config.seed,
        diagnostics={"steps": trace, "learner": "stepwise"},
    )
