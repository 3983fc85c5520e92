"""Feature tables for the regression harness.

Seven predictor configurations over three feature families: the seven
structural descriptors, the three prompt-seeded stationary activations,
and the eight emotion z-scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..affect import PLUTCHIK_EMOTIONS
from ..graphmetrics import STRUCTURAL_FEATURE_NAMES

ALPHA_FEATURE_NAMES = ("alpha_prompt1", "alpha_prompt2", "alpha_prompt3")

EMOTION_FEATURE_NAMES = tuple(f"z_{e}" for e in PLUTCHIK_EMOTIONS)

_CONFIG_BLOCKS = {
    "NetStr": ("structural",),
    "Spread": ("alphas",),
    "Emotions": ("emotions",),
    "NetStr+Spread": ("structural", "alphas"),
    "NetStr+Emo": ("structural", "emotions"),
    "Emo+Spread": ("emotions", "alphas"),
    "All": ("structural", "alphas", "emotions"),
}

FEATURE_CONFIGS = tuple(_CONFIG_BLOCKS)

_BLOCK_NAMES = {
    "structural": STRUCTURAL_FEATURE_NAMES,
    "alphas": ALPHA_FEATURE_NAMES,
    "emotions": EMOTION_FEATURE_NAMES,
}


@dataclass(frozen=True)
class FeatureTable:
    """One design matrix: a row per story, a column per named feature.

    Every value must be finite.  Indexing with a slice or an integer index
    array returns the sub-table of those rows.
    """

    story_ids: tuple[str, ...]
    names: tuple[str, ...]
    X: np.ndarray  # (n_rows, n_features)
    y: np.ndarray  # (n_rows,) regression target
    builder_tag: str
    config: str

    def __post_init__(self):
        n_rows, n_features = len(self.story_ids), len(self.names)
        if self.X.shape != (n_rows, n_features) or self.y.shape != (n_rows,):
            raise ValueError(
                f"feature table of {n_rows} stories x {n_features} feature names "
                f"cannot hold X {self.X.shape} and y {self.y.shape}"
            )
        if not (np.isfinite(self.X).all() and np.isfinite(self.y).all()):
            raise ValueError("feature table holds a NaN or infinite value")

    def __len__(self):
        return len(self.story_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            story_ids = self.story_ids[index]
        else:
            story_ids = tuple(self.story_ids[i] for i in index)
        return replace(self, story_ids=story_ids, X=self.X[index], y=self.y[index])


@dataclass(frozen=True)
class CorpusFeatures:
    """Per-story feature families plus regression targets.

    structural: {builder: {story_id: {name: value}}}
    alphas:     {builder: {story_id: (a1, a2, a3)}}
    emotions:   {story_id: {z_<emotion>: value}}
    targets:    {target_name: {story_id: value}}
    """

    structural: dict = field(default_factory=dict)
    alphas: dict = field(default_factory=dict)
    emotions: dict = field(default_factory=dict)
    targets: dict = field(default_factory=dict)

    def rows(self, builder, config, target):
        """The FeatureTable of one (builder, config, target) cell, stories sorted by id."""
        if target not in self.targets:
            raise KeyError(f"unknown target column {target!r}")
        if config not in _CONFIG_BLOCKS:
            raise ValueError(f"unknown feature configuration {config!r}")
        structural = self.structural.get(builder, {})
        alphas = self.alphas.get(builder, {})
        target_map = self.targets[target]
        story_ids = tuple(
            sorted(set(structural) & set(alphas) & set(self.emotions) & set(target_map))
        )
        blocks = _CONFIG_BLOCKS[config]
        block_values = {
            "structural": lambda s: [structural[s][name] for name in STRUCTURAL_FEATURE_NAMES],
            "alphas": lambda s: alphas[s],
            "emotions": lambda s: [self.emotions[s][name] for name in EMOTION_FEATURE_NAMES],
        }
        names = tuple(name for block in blocks for name in _BLOCK_NAMES[block])
        X = np.array(
            [[v for block in blocks for v in block_values[block](s)] for s in story_ids],
            dtype=float,
        )
        return FeatureTable(
            story_ids=story_ids,
            names=names,
            X=X.reshape(len(story_ids), len(names)),  # keeps an empty table 2-D
            y=np.array([target_map[s] for s in story_ids], dtype=float),
            builder_tag=builder,
            config=config,
        )
