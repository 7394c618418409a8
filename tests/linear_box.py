"""A closed-form black box for explainer and metric tests: a logistic linear
model as a plain predict callable, whose attributions are known."""

import numpy as np


def logistic_box(weights, intercept=0.0):
    """predict(rows) = sigmoid(rows @ weights + intercept) for an (n, d)
    block of rows, with missing cells read as 0."""
    weights = np.asarray(weights, dtype=np.float64)

    def predict(rows):
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        filled = np.where(np.isnan(rows), 0.0, rows)
        return 1.0 / (1.0 + np.exp(-(filled @ weights + intercept)))

    return predict
