"""Synthetic regression data with a planted linear signal.

The reference generator behind the model and CV sanity checks: a
standard-normal design, a fixed unit-norm coefficient vector, and
additive Gaussian noise of known scale.
"""

from __future__ import annotations

import numpy as np

from storynets.mlharness.features import FeatureTable


def planted_linear_data(n_rows=400, n_features=18, noise=0.1, rng_seed=0):
    """Returns (X, y, coef) with y = X @ coef + noise * eps, |coef| = 1."""
    rng = np.random.default_rng(rng_seed)
    X = rng.normal(size=(n_rows, n_features))
    coef = rng.normal(size=n_features)
    coef /= np.linalg.norm(coef)
    y = X @ coef + noise * rng.normal(size=n_rows)
    return X, y, coef


def planted_feature_rows(n_rows=400, n_features=18, noise=0.1, rng_seed=0):
    """Returns (FeatureTable, coef) over the planted_linear_data draw."""
    X, y, coef = planted_linear_data(n_rows, n_features, noise, rng_seed)
    table = FeatureTable(
        story_ids=tuple(f"synth-{i:04d}" for i in range(n_rows)),
        names=tuple(f"f{i:02d}" for i in range(n_features)),
        X=X,
        y=y,
        builder_tag="synthetic",
        config="All",
    )
    return table, coef
