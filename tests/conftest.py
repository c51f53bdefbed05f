"""Shared pytest wiring and test helpers.

The acceptance tests register one summary line each; printing them from a
terminal-summary hook keeps the checklist visible even though pytest
captures stdout of passing tests.
"""

import numpy as np

from ratiomarker.errors import ValidationError
from ratiomarker.glm import fit_glm
from ratiomarker.learn.scoring import cv_score_values

ACCEPTANCE_LINES = []


def column_by_column(z_matrix, outcome, spec, folds):
    """Reference for `score_candidates`: one `cv_score_values` per column."""
    scored = [
        cv_score_values(z_matrix[:, c], outcome, spec, folds)[:2]
        for c in range(z_matrix.shape[1])
    ]
    return (
        np.array([m for m, _ in scored], dtype=float),
        np.array([s for _, s in scored], dtype=float),
    )


def fit_glm_by_column(blocks, outcome, spec):
    """Reference for `glm._fit_columns`: one `fit_glm` per column.

    A rejected column is a NaN row whose note is the error message; a fit
    keeps its numbers and its note ("" once converged).
    """
    beta, p_value, notes = [], [], []
    for z in blocks:
        for j in range(z.shape[1]):
            try:
                fit = fit_glm(z[:, j], outcome, spec)
            except ValidationError as exc:
                beta.append(np.nan)
                p_value.append(np.nan)
                notes.append(str(exc))
                continue
            beta.append(fit.beta)
            p_value.append(fit.p_value)
            notes.append(fit.note)
    return np.array(beta, dtype=float), np.array(p_value, dtype=float), notes


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance checklist")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
