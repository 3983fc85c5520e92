"""Monte-Carlo permutation-sampling Shapley attributions.

For each explained row, features are revealed one at a time in a random
order on top of a randomly drawn background row; the average marginal
change in the model output over many such orderings estimates each
feature's Shapley value.  Along one ordering the contributions telescope
to f(x) - f(background), so attributions plus the background mean
prediction reconstruct the prediction up to Monte-Carlo error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import predict_matrix

MIN_SAMPLES = 100


@dataclass(frozen=True)
class ShapleyResult:
    feature_names: tuple[str, ...]
    values: np.ndarray  # (n_rows, n_features)
    base_value: float  # mean prediction over the full background set
    predictions: np.ndarray  # (n_rows,) model output for each explained row
    additivity_se: np.ndarray  # (n_rows,) Monte-Carlo s.e. of sum(values)+base


def shapley_attribution(model, rows, n_samples=2000, rng_seed=0):
    """Per-row, per-feature attribution matrix for a trained model.

    `rows` is a FeatureTable with the model's feature names.  The
    background is the model's training design.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES} for a usable estimate")
    if rows.names != model.feature_names:
        raise ValueError("feature table columns differ from the model's features")
    X = rows.X
    bg = model.background
    n_rows, n_features = X.shape
    rng = np.random.default_rng(rng_seed)
    base_value = float(predict_matrix(model, bg).mean())
    predictions = predict_matrix(model, X)
    values = np.empty((n_rows, n_features))
    additivity_se = np.empty(n_rows)
    for r in range(n_rows):
        values[r], additivity_se[r] = _explain_row(model, X[r], bg, n_samples, rng)
    return ShapleyResult(
        feature_names=tuple(model.feature_names),
        values=values,
        base_value=base_value,
        predictions=np.asarray(predictions, dtype=float),
        additivity_se=additivity_se,
    )


def _explain_row(model, x, background, n_samples, rng):
    n_features = x.size
    bg_idx = rng.integers(0, background.shape[0], size=n_samples)
    orders = np.argsort(rng.random((n_samples, n_features)), axis=1)
    # states[s, t] = background row s with the first t features of the
    # permutation flipped to x; flattening lets one predict call cover all.
    states = np.empty((n_samples, n_features + 1, n_features))
    states[:, 0, :] = background[bg_idx]
    for t in range(n_features):
        states[:, t + 1, :] = states[:, t, :]
        rows_idx = np.arange(n_samples)
        states[rows_idx, t + 1, orders[:, t]] = x[orders[:, t]]
    preds = predict_matrix(model, states.reshape(-1, n_features)).reshape(
        n_samples, n_features + 1
    )
    contributions = np.diff(preds, axis=1)  # (n_samples, n_features) by position
    phi = np.zeros(n_features)
    np.add.at(phi, orders.ravel(), contributions.ravel())
    phi /= n_samples
    # the telescoped sum equals f(x) - f(bg_s); its spread is the MC error
    # of additivity against the full-background base value
    bg_preds = preds[:, 0]
    se = float(bg_preds.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return phi, se


def attribution_rows(story_ids, result):
    """Header, then the story_id x feature matrix of attributions."""
    yield ("story_id", *result.feature_names)
    for story_id, row in zip(story_ids, result.values.tolist()):
        yield (story_id, *row)
