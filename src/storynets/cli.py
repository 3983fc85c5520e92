"""Pipeline command-line interface.

Subcommands: preprocess, build, features, spread, emotions, evaluate,
compare-builders, report.  An INI config file can supply every option;
flags override file values.  All artifacts are deterministic for a fixed
config, and every stage writes a manifest with the config hash and input
digests.  Every artifact is read and written here: `_read_csv` reads the
upstream CSVs back, and `_write` moves each file into place only once it
is complete, so a failed stage never leaves a partial file.

Exit codes: 0 ok, 2 bad input, 3 missing upstream stage output,
4 numerical non-convergence (PageRank in `features`).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import activation, affect, graphmetrics, netbuild, stats, textpipe
from .errors import ConvergenceError, InputFormatError, MissingUpstreamError
from .mlharness import (
    CorpusFeatures,
    ModelSpec,
    attribution_rows,
    fold_models,
    run_matrix,
    select_best,
    shapley_attribution,
)
from .mlharness.features import EMOTION_FEATURE_NAMES, FEATURE_CONFIGS
from .mlharness.models import MODEL_KINDS
from .mlharness.shapley import MIN_SAMPLES
from .netbuild import BUILDER_TAGS
from .seeding import derive_seed

log = logging.getLogger("storynets")

_BOOL_WORDS = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}
_NEGATED_FLAGS = {"with_baseline": "--no-baseline"}  # the one bool field defaulting to True


@dataclass(frozen=True)
class RunConfig:
    """Every option of a run: each field is an INI key and a flag of the same
    name (`--no-baseline` for `with_baseline`); its default sets its type."""

    stories_csv: str | None = None
    conllu: str | None = None
    lexicon: str | None = None
    lemma_table: str | None = None
    stoplist: str | None = None
    pronouns: str | None = None
    relations: str | None = None
    out_dir: str = "out"
    builders: tuple[str, ...] = BUILDER_TAGS
    window_sizes: tuple[int, ...] = (2, 3, 4)
    radius: int = 3
    retention: tuple[float, ...] = (0.5,)
    feature_configs: tuple[str, ...] = FEATURE_CONFIGS
    models: tuple[str, ...] = MODEL_KINDS
    targets: tuple[str, ...] = ("mean",)
    folds: int = 4
    n_perm: int = 10_000
    rng_seed: int = 7
    pagerank_damping: float = 0.85
    enrich_tfmn: bool = False
    with_baseline: bool = True
    shap_samples: int = 2000
    shap_max_rows: int = 100
    export_graphml: bool = False
    export_conllu: bool = False

    def validate(self):
        if self.enrich_tfmn and not self.relations:
            raise InputFormatError("enrich_tfmn requires a relations file")
        unknown = set(self.builders) - set(BUILDER_TAGS)
        if unknown:
            raise InputFormatError(f"unknown builder tags: {sorted(unknown)}")
        if not set(self.window_sizes) <= {2, 3, 4}:
            raise InputFormatError("window_sizes must be a subset of {2, 3, 4}")
        if self.folds < 2:
            raise InputFormatError("folds must be >= 2")
        if self.radius < 1:
            raise InputFormatError("radius must be >= 1")
        for r in self.retention:
            if not 0.0 < r < 1.0:
                raise InputFormatError(f"retention {r} outside (0, 1)")
        unknown = set(self.feature_configs) - set(FEATURE_CONFIGS)
        if unknown:
            raise InputFormatError(f"unknown feature configs: {sorted(unknown)}")
        unknown = set(self.models) - set(MODEL_KINDS)
        if unknown:
            raise InputFormatError(f"unknown model kinds: {sorted(unknown)}")
        if not 0.0 < self.pagerank_damping < 1.0:
            raise InputFormatError("pagerank_damping must lie in (0, 1)")
        if self.n_perm < 1:
            raise InputFormatError("n_perm must be >= 1")
        if self.shap_samples < MIN_SAMPLES:
            raise InputFormatError(f"shap_samples must be >= {MIN_SAMPLES}")
        if self.shap_max_rows < 0:
            raise InputFormatError("shap_max_rows must be >= 0")
        for name in ("models", "feature_configs", "retention", "targets"):
            if not getattr(self, name):
                raise InputFormatError(f"{name} must not be empty")
        if not self.active_builders():
            raise InputFormatError("no builder left once window_sizes is applied")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is None and value is not None and not Path(value).exists():
                raise InputFormatError(f"{f.name} path does not exist: {value}")

    def active_builders(self):
        """Configured builders restricted to the configured window sizes."""
        keep = []
        for tag in self.builders:
            if tag.startswith("coocc"):
                if int(tag.rsplit("WS", 1)[1]) in self.window_sizes:
                    keep.append(tag)
            else:
                keep.append(tag)
        return tuple(keep)


_FIELDS = {f.name: f for f in fields(RunConfig)}


def config_hash(config):
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_config_file(path):
    """The [storynets] section of an INI file as {field: text}."""
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise InputFormatError(f"cannot read config file {path}")
        values = dict(parser["storynets"])
    except KeyError:
        raise InputFormatError(f"{path}: missing [storynets] section") from None
    except configparser.Error as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    for key in values:
        if key not in _FIELDS:
            raise InputFormatError(f"{path}: unknown config key {key!r}")
    return values


def _coerce(field, text):
    """Option text typed from the field's default: None is a path (empty text
    gives None), a tuple a comma-separated list, a bool a word of _BOOL_WORDS."""
    default = field.default
    text = text.strip()
    try:
        if default is None:
            return text or None
        if isinstance(default, tuple):
            return tuple(type(default[0])(p.strip()) for p in text.split(",") if p.strip())
        if isinstance(default, bool):
            return _BOOL_WORDS[text.lower()]
        return type(default)(text)
    except (KeyError, ValueError):
        like = "/".join(_BOOL_WORDS) if isinstance(default, bool) else repr(default)
        raise InputFormatError(f"{field.name}: {text!r} is not a value like {like}") from None


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="storynets",
        description="Semantic-network pipeline for short narratives",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", help="INI config file with a [storynets] section")
        for f in fields(RunConfig):
            flag = _NEGATED_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
            if isinstance(f.default, bool):
                p.add_argument(flag, dest=f.name, action="store_const", const=not f.default)
            else:
                help_text = "comma-separated" if isinstance(f.default, tuple) else None
                p.add_argument(flag, dest=f.name, help=help_text)
    return parser


def resolve_config(args):
    """INI values overlaid with the flags that were given; text values are
    typed by `_coerce`, values that are already typed pass unchanged."""
    values = load_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    config = RunConfig(**{
        name: _coerce(_FIELDS[name], v) if isinstance(v, str) else v
        for name, v in values.items()
    })
    config.validate()
    return config


# ---------------------------------------------------------------------------
# artifact paths and manifest plumbing


def _paths(config):
    out = Path(config.out_dir)
    return {
        "corpus": out / "corpus.jsonl",
        "exclusions": out / "exclusions.csv",
        "networks": out / "networks.jsonl",
        "edges_dir": out / "edges",
        "graphml_dir": out / "graphml",
        "features": out / "features.csv",
        "histograms_dir": out / "histograms",
        "emotions": out / "emotions.csv",
        "results": out / "results.json",
        "comparison": out / "builder_comparison.csv",
        "report": out / "report.txt",
    }


def _stationary_path(config, retention):
    return Path(config.out_dir) / f"stationary_r{retention:g}.csv"


def _trajectory_path(config, retention):
    return Path(config.out_dir) / f"trajectories_r{retention:g}.csv"


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write(path, write):
    """Call `write(fh)` on `<name>.part` beside `path`, then move the finished
    file onto `path`; on any failure the part file is removed."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return path


def _write_csv(path, rows):
    """Rows (header first) of Python scalars; a float is written as its repr."""
    return _write(path, lambda fh: csv.writer(fh, lineterminator="\n").writerows(rows))


def _write_manifest(config, stage, inputs, outputs):
    out = Path(config.out_dir)
    manifest = {
        "stage": stage,
        "config_hash": config_hash(config),
        "rng_seed": config.rng_seed,
        "inputs": {str(p): _file_digest(p) for p in inputs if Path(p).exists()},
        "outputs": [str(p) for p in outputs],
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return _write(out / f"manifest_{stage.replace('-', '_')}.json", lambda fh: fh.write(text))


def _require(path, stage_to_run):
    if not Path(path).exists():
        raise MissingUpstreamError(path, stage_to_run)


def _load_wordlists(config):
    stoplist = (
        textpipe.load_wordlist(config.stoplist)
        if config.stoplist
        else textpipe.default_stoplist()
    )
    pronouns = (
        textpipe.load_wordlist(config.pronouns)
        if config.pronouns
        else textpipe.default_pronouns()
    )
    lemma_table = textpipe.load_lemma_table(config.lemma_table) if config.lemma_table else {}
    return stoplist, pronouns, lemma_table


def _read_corpus(config):
    path = _paths(config)["corpus"]
    _require(path, "preprocess")
    with open(path, encoding="utf-8") as fh:
        return [textpipe.story_from_json(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# stages


def cmd_preprocess(config):
    if not config.stories_csv:
        raise InputFormatError("preprocess requires --stories-csv")
    stoplist, pronouns, lemma_table = _load_wordlists(config)
    conllu_sentences = None
    if config.conllu:
        with open(config.conllu, "rb") as fh:
            conllu_sentences = textpipe.read_conllu(fh.read(), stoplist, pronouns)
    stories = textpipe.read_stories_csv(
        config.stories_csv, lemma_table, stoplist, pronouns, conllu_sentences
    )
    kept = []
    excluded = []
    for story in stories:
        matches = textpipe.match_prompts(story)
        missing = [m.prompt_lemma for m in matches if not m.matched]
        if missing:
            excluded.append((story.id, missing))
            log.info("excluding story %s: unmatched prompt(s) %s", story.id, missing)
        else:
            kept.append(story)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = _paths(config)
    lines = (textpipe.story_to_json(story) + "\n" for story in kept)
    _write(paths["corpus"], lambda fh: fh.writelines(lines))
    _write_csv(
        paths["exclusions"],
        [("story_id", "unmatched_prompts")] + [(sid, ";".join(m)) for sid, m in excluded],
    )
    outputs = [paths["corpus"], paths["exclusions"]]
    if config.export_conllu:
        conllu = textpipe.write_conllu({s.id: s.sentences for s in kept})
        outputs.append(_write(out / "corpus.conllu", lambda fh: fh.write(conllu)))
    inputs = [p for p in (config.stories_csv, config.conllu) if p]
    _write_manifest(config, "preprocess", inputs, outputs)
    log.info("retained %d stories, excluded %d", len(kept), len(excluded))
    return 0


def cmd_build(config):
    paths = _paths(config)
    stories = _read_corpus(config)
    relations = netbuild.load_relations(config.relations) if config.relations else None
    lexicon = affect.load_lexicon_file(config.lexicon) if config.lexicon else None
    builders = config.active_builders()
    if "TFMN" in builders:
        for story in stories:
            if not any(t.head_index is not None for t in story.all_tokens()) and any(
                len(s) > 1 for s in story.sentences
            ):
                raise InputFormatError(
                    f"story {story.id} has no dependency parse; supply --conllu at "
                    "preprocess time or drop TFMN from --builders"
                )
    paths["edges_dir"].mkdir(parents=True, exist_ok=True)
    if config.export_graphml:
        paths["graphml_dir"].mkdir(parents=True, exist_ok=True)
    edge_files = []

    def write_networks(fh):
        for story in stories:
            nets = netbuild.build_all_variants(
                story, radius=config.radius, relations=relations, lexicon=lexicon,
                enrich_tfmn=config.enrich_tfmn,
            )
            for tag in builders:
                net = nets[tag]
                record = {
                    "story_id": story.id,
                    "builder": tag,
                    "nodes": sorted(net.nodes),
                    "edges": [list(e) for e in sorted(net.edges)],
                    "valence": {n: net.valence[n] for n in sorted(net.valence)},
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                name = f"{story.id}__{tag}"
                edge_files.append(
                    _write_csv(paths["edges_dir"] / f"{name}.csv", netbuild.edge_rows(net))
                )
                if config.export_graphml:
                    graphml = netbuild.graphml(net)
                    _write(paths["graphml_dir"] / f"{name}.graphml", lambda g: g.write(graphml))

    _write(paths["networks"], write_networks)
    _write_manifest(
        config, "build", [paths["corpus"]], [paths["networks"]] + edge_files
    )
    log.info("built %d networks for %d stories", len(edge_files), len(stories))
    return 0


def _read_networks(config):
    paths = _paths(config)
    _require(paths["networks"], "build")
    with open(paths["networks"], encoding="utf-8") as fh:
        records = (json.loads(line) for line in fh if line.strip())
        return {
            (r["story_id"], r["builder"]): netbuild.make_network(
                r["nodes"], [tuple(e) for e in r["edges"]], r["builder"], r.get("valence", {})
            )
            for r in records
        }


def cmd_features(config):
    paths = _paths(config)
    nets = _read_networks(config)
    feats = {
        key: graphmetrics.structural_features(net, damping=config.pagerank_damping)
        for key, net in nets.items()
    }
    _write_csv(paths["features"], graphmetrics.feature_rows(feats))
    paths["histograms_dir"].mkdir(parents=True, exist_ok=True)
    outputs = [paths["features"]]
    by_builder = {}
    for (story_id, builder), f in feats.items():
        by_builder.setdefault(builder, []).append(f)
    for builder, rows in sorted(by_builder.items()):
        for name in graphmetrics.STRUCTURAL_FEATURE_NAMES + ("n_components",):
            values = (f.as_dict()[name] for f in rows)
            outputs.append(_write_csv(
                paths["histograms_dir"] / f"{name}__{builder}.csv",
                graphmetrics.histogram_rows(values),
            ))
    _write_manifest(config, "features", [paths["networks"]], outputs)
    log.info("wrote structural features for %d networks", len(feats))
    return 0


def cmd_spread(config):
    paths = _paths(config)
    stories = _read_corpus(config)
    nets_by_story = {}
    for (story_id, builder), net in _read_networks(config).items():
        nets_by_story.setdefault(story_id, {})[builder] = net
    outputs = []
    for retention in config.retention:
        alphas = [("story_id", "builder", "alpha1", "alpha2", "alpha3")]

        def traces():
            # one story's traces at a time; only their alphas are kept
            for story in stories:
                story_nets = nets_by_story.get(story.id)
                if not story_nets:
                    continue
                per_builder = activation.prompt_alphas(story, story_nets, retention=retention)
                for builder, triple in per_builder.items():
                    alphas.append((story.id, builder, *(t.stationary_alpha for t in triple)))
                    yield (story.id, builder), triple

        tpath = _write_csv(
            _trajectory_path(config, retention), activation.trajectory_rows(traces())
        )
        outputs.extend([_write_csv(_stationary_path(config, retention), alphas), tpath])
    _write_manifest(config, "spread", [paths["corpus"], paths["networks"]], outputs)
    return 0


def cmd_emotions(config):
    paths = _paths(config)
    stories = _read_corpus(config)
    if not config.lexicon:
        raise InputFormatError("emotions requires --lexicon")
    lexicon = affect.load_lexicon_file(config.lexicon)
    profiles = {s.id: affect.profile_story(s.sentences, lexicon) for s in stories}
    _write_csv(paths["emotions"], affect.emotion_rows(profiles))
    _write_manifest(
        config, "emotions", [paths["corpus"], config.lexicon], [paths["emotions"]]
    )
    return 0


def _read_csv(path, names, keys):
    """{row[keys[0]]: ... {name: float}} for the named columns of an upstream
    CSV; a missing column or a value that is not a finite number is bad input."""
    table = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                values = {name: float(row[name]) for name in names}
                if not all(map(math.isfinite, values.values())):
                    raise ValueError(f"non-finite value in {values}")
                node = table
                for key in keys[:-1]:
                    node = node.setdefault(row[key], {})
                node[row[keys[-1]]] = values
            except (KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"{path}, line {reader.line_num}: {exc!r}") from None
    return table


def _collect_targets(stories, wanted):
    targets = {}
    for name in wanted:
        if name == "mean":
            targets["mean"] = {s.id: s.mean_rating for s in stories}
            continue
        values = {s.id: float(s.ratings[name]) for s in stories if name in s.ratings}
        if not values:
            raise InputFormatError(f"no story carries a rating column {name!r}")
        targets[name] = values
    return targets


def _model_specs(config):
    return {
        kind: ModelSpec(kind=kind, rng_seed=derive_seed(config.rng_seed, "model", kind))
        for kind in config.models
    }


def cmd_evaluate(config):
    paths = _paths(config)
    stationary = _stationary_path(config, config.retention[0])
    _require(paths["features"], "features")
    _require(stationary, "spread")
    _require(paths["emotions"], "emotions")
    stories = _read_corpus(config)
    per_cell = ("builder", "story_id")
    structural = _read_csv(paths["features"], graphmetrics.STRUCTURAL_FEATURE_NAMES, per_cell)
    alphas = _read_csv(stationary, ("alpha1", "alpha2", "alpha3"), per_cell)
    features = CorpusFeatures(
        structural=structural,
        alphas={b: {s: tuple(a.values()) for s, a in rows.items()} for b, rows in alphas.items()},
        emotions=_read_csv(paths["emotions"], EMOTION_FEATURE_NAMES, ("story_id",)),
        targets=_collect_targets(stories, config.targets),
    )
    builders = [b for b in config.active_builders() if b in features.structural]
    # a table's stories do not depend on its feature config
    first_config = config.feature_configs[0]
    smallest = min(
        (len(features.rows(b, first_config, t)) for b in builders for t in config.targets),
        default=0,
    )
    if config.folds > smallest:
        raise InputFormatError(
            f"folds={config.folds} exceeds the {smallest} rows of the smallest feature table"
        )
    results = run_matrix(
        features,
        config.targets,
        builders,
        config.feature_configs,
        _model_specs(config),
        k=config.folds,
        rng_seed=config.rng_seed,
        with_baseline=config.with_baseline,
    )
    payload = {
        "config_hash": config_hash(config),
        "results": [r.to_dict() for r in results],
        "best": {
            target: select_best(results, target).to_dict() for target in config.targets
        },
    }
    text = json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    outputs = [_write(paths["results"], lambda fh: fh.write(text))]
    for target in config.targets:
        outputs.append(_write_attributions(config, features, results, target))
    inputs = [paths["features"], stationary, paths["emotions"], paths["corpus"]]
    _write_manifest(config, "evaluate", inputs, outputs)
    return 0


def _write_attributions(config, features, results, target):
    """SHAP-style attribution CSV for the best cell of one target.

    Models are refit per CV fold and each fold's held-out rows are
    explained against that fold's training background, up to
    shap_max_rows rows in total.
    """
    best = select_best(results, target)
    table = features.rows(best.builder_tag, best.config, target)
    spec = replace(_model_specs(config)[best.model_kind], rng_seed=best.rng_seed)
    explained_ids = []
    blocks = []
    remaining = config.shap_max_rows
    if remaining > 0:
        for fold_idx, test_idx, model in fold_models(table, spec, config.folds, best.rng_seed):
            take = table[test_idx[:remaining]]
            result = shapley_attribution(
                model,
                take,
                n_samples=config.shap_samples,
                rng_seed=derive_seed(config.rng_seed, "shap", target, fold_idx),
            )
            explained_ids.extend(take.story_ids)
            blocks.append(result)
            remaining -= len(take)
            if remaining <= 0:
                break
    rows = [("story_id",)]
    if blocks:
        merged = replace(blocks[0], values=np.vstack([b.values for b in blocks]))
        rows = attribution_rows(explained_ids, merged)
    return _write_csv(Path(config.out_dir) / f"attributions_{target}.csv", rows)


def cmd_compare_builders(config):
    paths = _paths(config)
    _require(paths["features"], "features")
    values_by_builder = _read_csv(
        paths["features"],
        graphmetrics.STRUCTURAL_FEATURE_NAMES + ("n_components",),
        ("builder", "story_id"),
    )
    _write_csv(
        paths["comparison"],
        stats.builder_comparison_rows(
            values_by_builder, n_perm=config.n_perm, rng_seed=config.rng_seed
        ),
    )
    _write_manifest(config, "compare-builders", [paths["features"]], [paths["comparison"]])
    return 0


def cmd_report(config):
    paths = _paths(config)
    _require(paths["results"], "evaluate")
    payload = json.loads(paths["results"].read_text(encoding="utf-8"))
    lines = ["storynets evaluation report", "=" * 60]
    results = payload["results"]
    real = [r for r in results if not r["permuted"]]
    permuted = {
        (r["target"], r["builder"], r["config"], r["model"]): r
        for r in results
        if r["permuted"]
    }
    for target in sorted({r["target"] for r in real}):
        lines.append("")
        lines.append(f"target: {target}")
        ranked = sorted(
            (r for r in real if r["target"] == target),
            key=lambda r: (r["mae"], -r["spearman"]),
        )
        lines.append("  best cells by MAE (ties break to higher Spearman):")
        for r in ranked[:10]:
            lines.append(
                f"    {r['builder']:>12s} | {r['config']:<13s} | {r['model']:<17s} "
                f"| MAE={r['mae']:.4f} | rho={r['spearman']:.4f} | r={r['pearson']:.4f}"
            )
        pairs = [
            (r["mae"], permuted[(r["target"], r["builder"], r["config"], r["model"])]["mae"])
            for r in real
            if r["target"] == target
            and (r["target"], r["builder"], r["config"], r["model"]) in permuted
        ]
        if pairs:
            real_maes = [p[0] for p in pairs]
            perm_maes = [p[1] for p in pairs]
            test = stats.wilcoxon_signed_rank(real_maes, perm_maes, alternative="less")
            p_text = f"{test.p_value:.3g}" if test.p_value > 0 else "<1e-308"
            lines.append(
                f"  real vs permuted MAE (one-sided Wilcoxon): W={test.statistic:g}, "
                f"p={p_text}, n={test.n}"
            )
    if paths["comparison"].exists():
        lines.append("")
        lines.append(f"builder comparison table: {paths['comparison']}")
    text = "\n".join(lines) + "\n"
    _write(paths["report"], lambda fh: fh.write(text))
    sys.stdout.write(text)
    _write_manifest(config, "report", [paths["results"]], [paths["report"]])
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "build": cmd_build,
    "features": cmd_features,
    "spread": cmd_spread,
    "emotions": cmd_emotions,
    "evaluate": cmd_evaluate,
    "compare-builders": cmd_compare_builders,
    "report": cmd_report,
}

STAGES = tuple(_COMMANDS)


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config)
    except (MissingUpstreamError, ConvergenceError, InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingUpstreamError):
            return 3
        return 4 if isinstance(exc, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
