"""Seeded feature tables for the `evaluate` workload.

The columns have the types of the real tables: integer counts with ties
(nodes, edges, diameter), alphas that equal N exactly when the isolated-seed
rule fired, and continuous clustering, path-length, centralisation and
emotion z-scores.  The target is the mean of four integer raters driven by a
planted function of five features, so real features beat the permuted
baseline by a clear margin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

N_STORIES = 1030
BUILDER = "TFMN"
ISOLATED_ALPHA_SHARE = 0.08
PLUTCHIK = ("joy", "trust", "fear", "surprise", "sadness", "disgust", "anger", "anticipation")


@dataclass(frozen=True)
class Tables:
    story_ids: list
    structural: dict  # {builder: {story_id: {name: value}}}
    alphas: dict  # {builder: {story_id: (a1, a2, a3)}}
    emotions: dict  # {story_id: {z_<emotion>: value}}
    targets: dict  # {"mean": {story_id: value}}

    def to_bytes(self):
        return json.dumps(
            {"structural": self.structural, "alphas": self.alphas,
             "emotions": self.emotions, "targets": self.targets},
            sort_keys=True,
        ).encode("utf-8")

    def y(self):
        return np.array([self.targets["mean"][s] for s in self.story_ids])


def _standard(x):
    return (x - x.mean()) / x.std()


def feature_tables(seed, n=N_STORIES):
    rng = np.random.default_rng(seed)
    ids = [f"t{seed % 100000:05d}x{i:04d}" for i in range(n)]
    nodes = np.clip(np.rint(rng.normal(45, 10, n)), 8, None)
    edges = np.rint(nodes * rng.uniform(1.1, 2.5, n))
    density = 2 * edges / (nodes * (nodes - 1))
    clustering = rng.beta(2, 5, n)
    aspl = 2 + 3 * rng.beta(2, 3, n)
    diameter = np.rint(aspl * rng.uniform(1.6, 2.4, n))
    central = rng.gamma(2.0, 0.006, n)
    degree = rng.integers(1, 9, (n, 3))
    alphas = nodes[:, None] * degree / (2 * edges[:, None])
    isolated = rng.random((n, 3)) < ISOLATED_ALPHA_SHARE
    alphas[isolated] = np.broadcast_to(nodes[:, None], (n, 3))[isolated]
    z = rng.normal(0, 1.2, (n, len(PLUTCHIK)))

    latent = (0.8 * _standard(nodes) + 0.5 * _standard(aspl) - 0.4 * _standard(clustering)
              + 0.4 * _standard(alphas[:, 0]) - 0.5 * z[:, 0] / 1.2)
    raters = np.clip(np.rint(3 + latent[:, None] + rng.normal(0, 0.6, (n, 4))), 1, 5)
    mean = raters.mean(axis=1)

    structural = {
        sid: {
            "n_nodes": float(nodes[i]), "n_edges": float(edges[i]),
            "density": float(density[i]), "avg_local_clustering": float(clustering[i]),
            "aspl_lcc": float(aspl[i]), "diameter_lcc": float(diameter[i]),
            "pagerank_centralisation": float(central[i]),
        }
        for i, sid in enumerate(ids)
    }
    return Tables(
        story_ids=ids,
        structural={BUILDER: structural},
        alphas={BUILDER: {sid: tuple(float(a) for a in alphas[i]) for i, sid in enumerate(ids)}},
        emotions={sid: {f"z_{e}": float(z[i, j]) for j, e in enumerate(PLUTCHIK)}
                  for i, sid in enumerate(ids)},
        targets={"mean": {sid: float(mean[i]) for i, sid in enumerate(ids)}},
    )
