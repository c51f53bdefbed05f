"""Forward-stepwise balance selection.

The search initializes with the exhaustive best single pair: every ordered
candidate is a 1-vs-1 balance, all G(G-1)/2 of them are scored by
cross-validation on a shared fold split, and the best one (first in
lexicographic order on ties) wins. Growth then proceeds greedily: each
remaining feature is tried on each side, and the best addition is accepted
only while it improves the CV score by more than `lam` standard errors of
the current model's fold scores.
"""

import numpy as np

from ..composition import (
    Outcome,
    StrictlyPositiveMatrix,
    _pairwise_logratio_blocks,
    ratio_pairs,
)
from ..errors import ValidationError
from .biomarker import LearnedModel, LearnerConfig, RatioBiomarker, orient_and_fit
from .scoring import _FoldArrays, _learner_setup, _score_sets, score_candidates


def forward_stepwise_balance(
    matrix: StrictlyPositiveMatrix,
    outcome: Outcome,
    config: LearnerConfig | None = None,
) -> LearnedModel:
    config = _learner_setup(matrix, outcome, config)
    g = matrix.n_features
    rng = np.random.default_rng(config.seed)
    folds = _FoldArrays(outcome, config.cv_folds, rng)
    logs = np.log(matrix.values)

    # Exhaustive 1-vs-1 initialization over pairs in lexicographic order,
    # scored in blocks of bounded size; argmax takes the first maximum, so
    # ties resolve to the smallest (j, k).
    jj, kk = ratio_pairs(g)
    means = np.full(jj.size, float("-inf"))
    ses = np.zeros(jj.size)
    for pairs, z in _pairwise_logratio_blocks(logs, jj, kk):
        means[pairs], ses[pairs] = score_candidates(z, folds)
    if not np.any(means > float("-inf")):
        raise ValidationError("no feature pair yields a fittable model")
    best = int(np.argmax(means))
    numerator = [int(jj[best])]
    denominator = [int(kk[best])]
    trace = []
    while True:
        current_mean, current_se = float(means[best]), float(ses[best])
        trace.append(
            {
                "numerator": sorted(numerator),
                "denominator": sorted(denominator),
                "cv_score": current_mean,
                "cv_se": current_se,
            }
        )
        free = np.setdiff1d(np.arange(g), numerator + denominator)
        if not free.size:
            break
        # Each free feature added to the numerator (column 2i), then to
        # the denominator (column 2i + 1).
        num, den = np.zeros((2, g, 2 * free.size))
        num[numerator] = 1.0
        den[denominator] = 1.0
        num[free, 0::2] = den[free, 1::2] = np.eye(free.size)
        means, ses = _score_sets(logs, "balance", num, den, folds)
        best = int(np.argmax(means))
        # The addition must beat the current score by more than lam times
        # the current model's fold-level SE (lam = 1: the one-SE rule). An
        # unfittable (-inf) best addition never does.
        if means[best] <= current_mean + config.lam * current_se:
            break
        side = numerator if best % 2 == 0 else denominator
        side.append(int(free[best // 2]))

    biomarker = RatioBiomarker(tuple(numerator), tuple(denominator), "balance")
    return orient_and_fit(
        biomarker, matrix, outcome, current_mean, current_se, config.seed,
        {"steps": trace, "learner": "stepwise"},
    )
