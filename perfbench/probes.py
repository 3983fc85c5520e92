"""Per-layer probes: wrappers installed around the program's public functions.

A probe replaces every binding of a function in the program's modules (and
class attributes, for methods), so callers that imported the name directly,
such as `cv.py` binding `fit`, go through the wrapper too.  Wrappers time
each call inclusively (nested probed calls count in both) and let a
callback add counts.  Nothing is installed unless the traced run asks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

MODEL_KINDS = ("linear", "knn", "decision_tree", "random_forest", "gradient_boosting")

CLI_STAGES = ("preprocess", "build", "features", "spread", "emotions", "compare-builders")

PER_LAYER = (
    [f"cli.{s}_s" for s in CLI_STAGES] + ["cli.bytes_written"]
    + ["textpipe.read_conllu_s", "textpipe.read_stories_csv_s",
       "textpipe.match_prompts_s", "textpipe.match_prompts_calls"]
    + ["netbuild.cooccurrence_s", "netbuild.dependency_s", "netbuild.valence_s",
       "netbuild.networks", "netbuild.edges"]
    + ["graphmetrics.components_s", "graphmetrics.clustering_s", "graphmetrics.aspl_s",
       "graphmetrics.diameter_s", "graphmetrics.pagerank_s", "graphmetrics.components_calls",
       "graphmetrics.adjacency_calls", "graphmetrics.networks"]
    + ["activation.run_s", "activation.runs", "activation.steps_total", "activation.steps_max",
       "activation.isolated_seeds", "activation.unconverged"]
    + ["affect.profile_s", "affect.stories"]
    + ["stats.signflip_s", "stats.signflip_tests", "stats.wilcoxon_s"]
    + [f"models.fit_s.{k}" for k in MODEL_KINDS] + [f"models.fits.{k}" for k in MODEL_KINDS]
    + [f"models.predict_s.{k}" for k in MODEL_KINDS]
    + ["models.ridge_fallbacks", "trees.fit_tree_calls", "trees.predict_tree_calls"]
    + ["cv.cells"] + [f"shapley.s_per_row.{k}" for k in MODEL_KINDS] + ["shapley.model_rows"]
)

UNITS = {"cli.bytes_written": "bytes"}


def unit(name):
    if name in UNITS:
        return UNITS[name]
    if name.startswith("shapley.s_per_row."):
        return "s/row"
    return "s" if name.endswith("_s") or "_s." in name else "count"


class Tracer:
    """Accumulates per-layer values for one round at a time."""

    def __init__(self):
        self.values = defaultdict(float)
        self.active = defaultdict(int)  # probe name -> calls in progress
        self._undo = []

    def probe(self, owner, name, time_metric=None, after=None):
        """Wrap `owner.name` and every other binding of the same function."""
        original = getattr(owner, name)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.active[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.active[name] -= 1
            metric = time_metric(args, kwargs) if callable(time_metric) else time_metric
            if metric:
                tracer.values[metric] += elapsed
            if after:
                after(tracer.values, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        owners = [owner] + [m for n, m in sys.modules.items()
                            if n.startswith("storynets") and m is not owner]
        for mod in owners:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def remove(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def take(self):
        """Values of the round just finished; starts the next round at zero."""
        out = dict(self.values)
        self.values.clear()
        return out


def _count(metric):
    def after(values, args, kwargs, result):
        values[metric] += 1
    return after


def install_probes(tracer):
    """Probe the program's layers for the metrics in PER_LAYER.

    The cli metrics and `models.ridge_fallbacks` are taken by the workloads,
    around their calls into `storynets.cli.main` and through `warnings`.
    """
    from storynets import activation, affect, graphmetrics, netbuild, stats, textpipe
    from storynets.mlharness import cv, models, shapley, trees

    tracer.probe(textpipe, "read_conllu", "textpipe.read_conllu_s")
    tracer.probe(textpipe, "read_stories_csv", "textpipe.read_stories_csv_s")
    tracer.probe(textpipe, "match_prompts", "textpipe.match_prompts_s",
                 _count("textpipe.match_prompts_calls"))

    def built(values, args, kwargs, net):
        values["netbuild.networks"] += 1
        values["netbuild.edges"] += net.n_edges

    tracer.probe(netbuild, "build_cooccurrence", "netbuild.cooccurrence_s", built)
    tracer.probe(netbuild, "build_dependency_network", "netbuild.dependency_s", built)
    tracer.probe(netbuild, "annotate_valence", "netbuild.valence_s")

    tracer.probe(graphmetrics, "components", "graphmetrics.components_s",
                 _count("graphmetrics.components_calls"))
    tracer.probe(graphmetrics, "avg_local_clustering", "graphmetrics.clustering_s")
    tracer.probe(graphmetrics, "aspl_lcc", "graphmetrics.aspl_s")
    tracer.probe(graphmetrics, "diameter_lcc", "graphmetrics.diameter_s")
    tracer.probe(graphmetrics, "pagerank", "graphmetrics.pagerank_s")
    tracer.probe(graphmetrics, "structural_features", None, _count("graphmetrics.networks"))
    tracer.probe(netbuild.LexicalNetwork, "adjacency", None,
                 _count("graphmetrics.adjacency_calls"))

    def ran(values, args, kwargs, trace):
        values["activation.runs"] += 1
        values["activation.steps_total"] += trace.steps_taken
        values["activation.steps_max"] = max(values["activation.steps_max"], trace.steps_taken)
        values["activation.unconverged"] += not trace.converged

    def alphas(values, args, kwargs, per_builder):
        values["activation.isolated_seeds"] += sum(
            not t.seed_in_network for triple in per_builder.values() for t in triple
        )

    tracer.probe(activation, "run_to_stationarity", "activation.run_s", ran)
    tracer.probe(activation, "prompt_alphas", None, alphas)

    tracer.probe(affect, "profile_story", "affect.profile_s", _count("affect.stories"))
    tracer.probe(stats, "paired_signflip_test", "stats.signflip_s", _count("stats.signflip_tests"))
    tracer.probe(stats, "wilcoxon_signed_rank", "stats.wilcoxon_s")

    def fitted(values, args, kwargs, model):
        values[f"models.fits.{model.spec.kind}"] += 1

    def predicted(values, args, kwargs, preds):
        if tracer.active["shapley_attribution"]:
            values["shapley.model_rows"] += len(preds)

    tracer.probe(models, "fit", lambda a, k: f"models.fit_s.{a[0].kind}", fitted)
    tracer.probe(models, "predict_matrix", lambda a, k: f"models.predict_s.{a[0].spec.kind}",
                 predicted)
    tracer.probe(trees, "fit_tree", None, _count("trees.fit_tree_calls"))
    tracer.probe(trees, "predict_tree", None, _count("trees.predict_tree_calls"))
    tracer.probe(cv, "kfold_cv", None, _count("cv.cells"))

    def explained(values, args, kwargs, result):
        values[f"shapley.rows.{args[0].spec.kind}"] += len(result.predictions)

    tracer.probe(shapley, "shapley_attribution",
                 lambda a, k: f"shapley.time.{a[0].spec.kind}", explained)


def finish_round(values):
    """Turn raw accumulators into the PER_LAYER metrics of one round."""
    out = {name: float(values.get(name, 0.0)) for name in PER_LAYER}
    for kind in MODEL_KINDS:
        rows = values.get(f"shapley.rows.{kind}", 0)
        out[f"shapley.s_per_row.{kind}"] = values.get(f"shapley.time.{kind}", 0.0) / rows if rows else 0.0
    return out
