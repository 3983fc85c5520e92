"""Pipeline command-line interface.

Stages: preprocess, build, features, spread, emotions, evaluate,
compare-builders, report.  An INI config file can supply every option;
flags override file values.  All artifacts are deterministic for a fixed
config.  Every artifact is read and written here, through the stage's
`_Run`, and `main` turns its record into the stage's manifest (config hash,
input digests, outputs by their name under out_dir).  `_Run.need` returns an
upstream artifact parsed by its one reader in `_OUTPUTS`: a CSV as the numbers
of every column its stage writes, a per-network CSV for the run's builders
only.  Each stage owns the files matching its `_OUTPUTS` patterns: once it
succeeds it removes those it did not write, so out_dir is no place for user
files of those names.
`_write` moves each file into place only once it is complete, so a failed
stage never leaves a partial file, nor removes one.  `evaluate` reads the
alphas of the first listed retention only, as they do not depend on it.

Exit codes: 0 ok, 2 bad input, 3 missing upstream stage output,
4 numerical non-convergence (PageRank in `features`).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import io
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
from .graphmetrics import FEATURE_COLUMNS
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
from .mlharness.models import MODEL_KINDS, min_training_rows
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
    radius: int = 3
    retention: tuple[float, ...] = (0.5,)
    feature_configs: tuple[str, ...] = FEATURE_CONFIGS
    models: tuple[str, ...] = MODEL_KINDS
    targets: tuple[str, ...] = ("mean",)
    folds: int = 4
    n_perm: int = 10_000
    rng_seed: int = 7
    pagerank_damping: float = 0.85
    with_baseline: bool = True
    shap_samples: int = 2000
    shap_max_rows: int = 100
    export_graphml: bool = False
    export_conllu: bool = False

    def validate(self):
        unknown = set(self.builders) - set(BUILDER_TAGS)
        if unknown:
            raise InputFormatError(f"unknown builder tags: {sorted(unknown)}")
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
        for name in ("builders", "models", "feature_configs", "retention", "targets"):
            values = getattr(self, name)
            if not values:
                raise InputFormatError(f"{name} must not be empty")
            # a retention is named by its file names, stationary_r<r:g>.csv
            keys = [f"{r:g}" for r in values] if name == "retention" else values
            repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
            if repeated:
                raise InputFormatError(f"{name} repeats {repeated[0]!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.default is None and value is not None and not Path(value).exists():
                raise InputFormatError(f"{f.name} path does not exist: {value}")


_FIELDS = {f.name: f for f in fields(RunConfig)}


def config_hash(config):
    payload = json.dumps(asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def load_config_file(path):
    """The [storynets] section of an INI file, read by `textpipe.open_text`,
    as {field: text}."""
    parser = configparser.ConfigParser()
    try:
        parser.read_file(textpipe.open_text(path), path)
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


class _StageParser(argparse.ArgumentParser):
    """Reports unknown arguments before it checks the stage name: an unknown
    flag before the stage leaves its value in the stage's place
    (`--window-sizes 2 report` reads `2` as the stage), so the flag is the
    fault to name."""

    def parse_args(self, args=None, namespace=None):
        parsed, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        if parsed.command not in STAGES:
            self.error(
                f"argument stage: invalid choice: {parsed.command!r} "
                f"(choose from {', '.join(STAGES)})"
            )
        return parsed


def build_arg_parser():
    """The stage name and every option; options may come before or after it."""
    parser = _StageParser(
        prog="storynets",
        description="Semantic-network pipeline for short narratives",
    )
    parser.add_argument("command", metavar="stage", help=", ".join(STAGES))
    parser.add_argument("--config", help="INI config file with a [storynets] section")
    for f in fields(RunConfig):
        flag = _NEGATED_FLAGS.get(f.name, "--" + f.name.replace("_", "-"))
        if isinstance(f.default, bool):
            parser.add_argument(flag, dest=f.name, action="store_const", const=not f.default)
        else:
            help_text = "comma-separated" if isinstance(f.default, tuple) else None
            parser.add_argument(flag, dest=f.name, help=help_text)
    return parser


def resolve_config(args):
    """INI values overlaid with the flags that were given; text values are
    typed by `_coerce`, values that are already typed pass unchanged."""
    values = load_config_file(args.config) if args.config else {}
    for name in _FIELDS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)
    config = RunConfig(**{
        name: _coerce(_FIELDS[name], v) if isinstance(v, str) else v
        for name, v in values.items()
    })
    config.validate()
    return config


# ---------------------------------------------------------------------------
# the files of one stage run

# every file each stage writes, as glob patterns under out_dir, each with the
# reader that parses it for the run's builders (None: no stage reads it back):
# `need` returns an upstream file so parsed, or names the stage behind a
# missing one, and a stage that succeeds removes the files matching its
# patterns that it did not write
_OUTPUTS = {
    "preprocess": {"corpus.jsonl": lambda path, builders: _read_jsonl(path, _story_from_json),
                   "exclusions.csv": None, "corpus.conllu": None},
    "build": {"networks.jsonl": lambda path, builders: _read_jsonl(path, _network_from_json),
              "edges/*": None, "graphml/*": None},
    "features": {"features.csv": lambda path, builders: _read_csv(path, FEATURE_COLUMNS, builders),
                 "histograms/*": None},
    "spread": {"trajectories_r*.csv": None, "stationary_r*.csv":
               lambda path, builders: _read_csv(path, ("alpha1", "alpha2", "alpha3"), builders)},
    "emotions": {"emotions.csv": lambda path, builders: _read_csv(path, EMOTION_FEATURE_NAMES)},
    "evaluate": {"results.json": lambda path, builders: _read_results(path),
                 "attributions_*.csv": None},
    "compare-builders": {"builder_comparison.csv": None},
    "report": {"report.txt": None},
}


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


class _Run:
    """Every file one stage reads or writes, each named once: `need` and
    `given` record the inputs (an upstream artifact by its name under
    `out_dir`, an option's file by its path as given), `write` and
    `write_csv` the outputs (by name under `out_dir`, in write order), and
    `finish` lists them all."""

    def __init__(self, config):
        self.config = config
        self.out = Path(config.out_dir)
        self.inputs = {}  # manifest name -> path
        self.outputs = []

    def need(self, name):
        """The upstream artifact `out_dir/name` as its reader in `_OUTPUTS`
        parses it for the run's builders, or its path where that is None; a
        missing one names the stage that writes it."""
        path = self.out / name
        stage, read = next((s, read) for s, patterns in _OUTPUTS.items()
                           for p, read in patterns.items() if Path(name).match(p))
        if not path.exists():
            raise MissingUpstreamError(path, stage)
        self.inputs[name] = path
        return read(path, self.config.builders) if read else path

    def given(self, path):
        """The input file an option names, or None where it names none."""
        if path:
            self.inputs[path] = path
        return path

    def write(self, name, write):
        """`_write` of `out_dir/name`, recorded as an output as it begins."""
        path = self.out / name
        path.parent.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return _write(path, write)

    def write_csv(self, name, rows):
        """Rows (header first) of Python scalars; a float is written as its repr."""
        return self.write(name, lambda fh: csv.writer(fh, lineterminator="\n").writerows(rows))

    def finish(self, stage):
        """Remove the files of `_OUTPUTS[stage]` that this run did not write
        (left by an earlier run with other options), then write the manifest."""
        written = set(self.outputs)
        for path in (p for pattern in _OUTPUTS[stage] for p in self.out.glob(pattern)):
            if path.is_file() and path.relative_to(self.out).as_posix() not in written:
                path.unlink()
        manifest = {
            "stage": stage,
            "config_hash": config_hash(self.config),
            "rng_seed": self.config.rng_seed,
            "inputs": {name: _file_digest(p) for name, p in self.inputs.items()},
            "outputs": self.outputs,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _write(self.out / f"manifest_{stage.replace('-', '_')}.json", lambda fh: fh.write(text))


def _load_wordlists(run):
    stoplist, pronouns, lemma_table = map(
        run.given, (run.config.stoplist, run.config.pronouns, run.config.lemma_table)
    )
    return (
        textpipe.load_wordlist(stoplist) if stoplist else textpipe.default_stoplist(),
        textpipe.load_wordlist(pronouns) if pronouns else textpipe.default_pronouns(),
        textpipe.load_lemma_table(lemma_table) if lemma_table else {},
    )


def _read_jsonl(path, parse):
    """{key: record} of the (key, record) pair `parse(line)` gives for each
    non-blank line of an upstream JSON-lines file, in file order; a line that
    does not parse, or repeats a key, is bad input."""
    records = {}
    for lineno, line in enumerate(textpipe.open_text(path), start=1):
        if line.strip():
            try:
                key, record = parse(line)
                if key in records:
                    raise ValueError(f"repeated record {key!r}")
                records[key] = record
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise InputFormatError(f"{path}, line {lineno}: {exc!r}") from None
    return records


def _story_from_json(line):
    story = textpipe.story_from_json(line)
    return story.id, story


# ---------------------------------------------------------------------------
# stages


def cmd_preprocess(run):
    config = run.config
    if not config.stories_csv:
        raise InputFormatError("preprocess requires --stories-csv")
    stoplist, pronouns, lemma_table = _load_wordlists(run)
    conllu_sentences = None
    if config.conllu:
        text = textpipe.open_text(run.given(config.conllu)).read()
        conllu_sentences = textpipe.read_conllu(text, stoplist, pronouns, config.conllu)
    stories = textpipe.read_stories_csv(
        run.given(config.stories_csv), lemma_table, stoplist, pronouns, conllu_sentences
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
    lines = (textpipe.story_to_json(story) + "\n" for story in kept)
    run.write("corpus.jsonl", lambda fh: fh.writelines(lines))
    run.write_csv(
        "exclusions.csv",
        [("story_id", "unmatched_prompts")] + [(sid, ";".join(m)) for sid, m in excluded],
    )
    if config.export_conllu:
        conllu = textpipe.write_conllu({s.id: s.sentences for s in kept})
        run.write("corpus.conllu", lambda fh: fh.write(conllu))
    log.info("retained %d stories, excluded %d", len(kept), len(excluded))


def cmd_build(run):
    config = run.config
    stories = run.need("corpus.jsonl").values()
    relations = netbuild.load_relations(run.given(config.relations)) if config.relations else None
    lexicon = affect.load_lexicon_file(run.given(config.lexicon)) if config.lexicon else None
    if "TFMN" in config.builders:
        for story in stories:
            if not any(t.head_index is not None for t in story.all_tokens()) and any(
                len(s) > 1 for s in story.sentences
            ):
                raise InputFormatError(
                    f"story {story.id} has no dependency parse; supply --conllu at "
                    "preprocess time or drop TFMN from --builders"
                )

    def write_networks(fh):
        for story in stories:
            nets = netbuild.build_all_variants(
                story, radius=config.radius, relations=relations, lexicon=lexicon
            )
            for tag in config.builders:
                net = nets[tag]
                record = {
                    "story_id": story.id,
                    "builder": tag,
                    "nodes": net.index.nodes,
                    "edges": net.index.edge_pairs(),
                    "valence": {n: net.valence[n] for n in sorted(net.valence)},
                }
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
                name = f"{story.id}__{tag}"
                run.write_csv(f"edges/{name}.csv", netbuild.edge_rows(net))
                if config.export_graphml:
                    graphml = netbuild.graphml(net)
                    run.write(f"graphml/{name}.graphml", lambda g: g.write(graphml))

    run.write("networks.jsonl", write_networks)
    log.info("built %d networks for %d stories", len(stories) * len(config.builders), len(stories))


def _network_from_json(line):
    r = json.loads(line)
    if not isinstance(r["story_id"], str):
        raise ValueError(f"story_id {r['story_id']!r} is not a string")
    if r["builder"] not in BUILDER_TAGS:
        raise ValueError(f"unknown builder {r['builder']!r}")
    if not isinstance(r["nodes"], list):
        raise ValueError(f"nodes {r['nodes']!r} are not a list")
    net = netbuild.LexicalNetwork(r["nodes"], r["edges"], r["builder"], r.get("valence", {}))
    return (r["story_id"], r["builder"]), net


def _check_network_stories(run, nets, stories):
    """A network of `networks.jsonl` whose story is not one of `stories`,
    those of `corpus.jsonl`, is bad input."""
    for story_id, _ in nets:
        if story_id not in stories:
            raise InputFormatError(
                f"{run.out / 'networks.jsonl'}: story {story_id!r} is not in corpus.jsonl"
            )


def cmd_features(run):
    nets = run.need("networks.jsonl")
    _check_network_stories(run, nets, run.need("corpus.jsonl"))
    centralisations = graphmetrics.pagerank_centralisations(
        [net.index for net in nets.values()], damping=run.config.pagerank_damping
    )
    feats = {
        key: graphmetrics.structural_features(net, centralisation=centralisation)
        for (key, net), centralisation in zip(nets.items(), centralisations)
    }
    run.write_csv("features.csv", graphmetrics.feature_rows(feats))
    by_builder = {}
    for (story_id, builder), f in feats.items():
        by_builder.setdefault(builder, []).append(f)
    for builder, rows in sorted(by_builder.items()):
        for name, values in zip(graphmetrics.FEATURE_COLUMNS, zip(*rows)):
            run.write_csv(f"histograms/{name}__{builder}.csv", graphmetrics.histogram_rows(values))
    log.info("wrote structural features for %d networks", len(feats))


def _write_trajectories(run, name, traces):
    """The long-format trajectory CSV of ((story_id, builder), traces) pairs: one
    (step, story_id, builder, seed, value) line per step of each trace.

    The bytes are those of `csv.writer`, but each trace's quoted middle cells
    are formatted once and its lines are joined in one write.
    """
    middle = io.StringIO()
    cells = csv.writer(middle, lineterminator="\n")

    def write(fh):
        fh.write("step,story_id,builder,seed,value\n")
        for (story_id, builder), triple in traces:
            for trace in triple:
                middle.seek(0)
                middle.truncate()
                cells.writerow(("", story_id, builder, trace.seed, ""))
                mid = middle.getvalue()[:-1]
                fh.write("".join(
                    f"{step}{mid}{value!r}\n" for step, value in enumerate(trace.seed_series)
                ))

    return run.write(name, write)


def cmd_spread(run):
    stories = run.need("corpus.jsonl")
    nets = run.need("networks.jsonl")
    _check_network_stories(run, nets, stories)
    netbuild.label_components([net.index for net in nets.values()])
    nets_by_story = {story_id: {} for story_id in stories}
    for (story_id, builder), net in nets.items():
        nets_by_story[story_id][builder] = net
    for retention in run.config.retention:
        alphas = [("story_id", "builder", "alpha1", "alpha2", "alpha3")]

        def traces():
            # one story's traces at a time; only their alphas are kept
            for story in stories.values():
                story_nets = nets_by_story[story.id]
                if not story_nets:
                    continue
                per_builder = activation.prompt_alphas(story, story_nets, retention=retention)
                for builder, triple in per_builder.items():
                    alphas.append((story.id, builder, *(t.stationary_alpha for t in triple)))
                    yield (story.id, builder), triple

        _write_trajectories(run, f"trajectories_r{retention:g}.csv", traces())
        run.write_csv(f"stationary_r{retention:g}.csv", alphas)


def cmd_emotions(run):
    stories = run.need("corpus.jsonl").values()
    if not run.config.lexicon:
        raise InputFormatError("emotions requires --lexicon")
    lexicon = affect.load_lexicon_file(run.given(run.config.lexicon))
    profiles = {s.id: affect.profile_story(s.sentences, lexicon) for s in stories}
    run.write_csv("emotions.csv", affect.emotion_rows(profiles))


def _read_csv(path, names, builders=None):
    """The columns `names` of an upstream CSV: a per-network one as {builder:
    {story_id: {name: float}}} for `builders` only (other builders' rows are
    not read), or with `builders` None a per-story one as {story_id: {name:
    float}}.  A missing column, a value that is not a finite number, a
    repeated key, a line the csv module refuses (a cell over its field size
    limit, say) or one of `builders` without rows is bad input."""
    keys = ("story_id",) if builders is None else ("builder", "story_id")
    table = {} if builders is None else {builder: {} for builder in builders}
    reader = csv.DictReader(textpipe.open_text(path, newline=""))
    try:
        for row in reader:
            node = table if builders is None else table.get(row["builder"])
            if node is None and row["builder"] is not None:
                continue  # a builder this run does not read
            values = {name: float(row[name]) for name in names}
            if not all(map(math.isfinite, values.values())):
                raise ValueError(f"non-finite value in {values}")
            if row["story_id"] in node:
                raise ValueError(f"repeated row {tuple(row[key] for key in keys)!r}")
            node[row["story_id"]] = values
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        # the csv reader's own count: a DictReader's lags on a line it cannot read
        raise InputFormatError(f"{path}, line {reader.reader.line_num}: {exc!r}") from None
    for builder in builders or ():
        if not table[builder]:
            raise InputFormatError(f"{path}: no rows for builder {builder!r}")
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


def cmd_evaluate(run):
    config = run.config
    features = CorpusFeatures(
        structural=run.need("features.csv"),
        alphas={
            b: {s: tuple(a.values()) for s, a in rows.items()}
            for b, rows in run.need(f"stationary_r{config.retention[0]:g}.csv").items()
        },
        emotions=run.need("emotions.csv"),
        targets=_collect_targets(run.need("corpus.jsonl").values(), config.targets),
    )
    # a table's stories do not depend on its feature config
    first_config = config.feature_configs[0]
    smallest = min(
        len(features.rows(b, first_config, t)) for b in config.builders for t in config.targets
    )
    if config.folds > smallest:
        raise InputFormatError(
            f"folds={config.folds} exceeds the {smallest} rows of the smallest feature table"
        )
    # the largest test fold holds ceil(n / folds) rows
    training = smallest - math.ceil(smallest / config.folds)
    for kind in config.models:
        if training < min_training_rows(kind):
            raise InputFormatError(
                f"{kind} needs at least {min_training_rows(kind)} training rows, but "
                f"{config.folds} folds of the smallest feature table ({smallest} rows) "
                f"leave {training}"
            )
    results = run_matrix(
        features,
        config.targets,
        config.builders,
        config.feature_configs,
        {kind: ModelSpec(kind) for kind in config.models},
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
    run.write("results.json", lambda fh: fh.write(text))
    for target in config.targets:
        _write_attributions(run, features, results, target)


def _write_attributions(run, features, results, target):
    """SHAP-style attribution CSV for the best cell of one target.

    Models are refit per CV fold and each fold's held-out rows are
    explained against that fold's training background, up to
    shap_max_rows rows in total.
    """
    config = run.config
    best = select_best(results, target)
    table = features.rows(best.builder_tag, best.config, target)
    spec = ModelSpec(best.model_kind, rng_seed=best.rng_seed)
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
    return run.write_csv(f"attributions_{target}.csv", rows)


def cmd_compare_builders(run):
    run.write_csv(
        "builder_comparison.csv",
        stats.builder_comparison_rows(
            run.need("features.csv"), n_perm=run.config.n_perm, rng_seed=run.config.rng_seed
        ),
    )


def _retention_finding(run):
    """One report line: whether the stationary alphas change with retention."""
    retention = run.config.retention
    tables = [
        {(builder, story_id, name): value
         for builder, per_story in run.need(f"stationary_r{r:g}.csv").items()
         for story_id, alphas in per_story.items() for name, value in alphas.items()}
        for r in retention
    ]
    head = "stationary alphas across retention " + ", ".join(f"{r:g}" for r in retention)
    if any(t.keys() != tables[0].keys() for t in tables):
        return f"{head}: the files cover different networks"
    diff = max((abs(t[key] - tables[0][key]) for t in tables[1:] for key in t), default=0.0)
    return f"{head}: " + ("identical" if diff == 0 else f"largest absolute difference {diff:.3g}")


_RESULT_FIELDS = {
    **dict.fromkeys(("target", "builder", "config", "model"), str),
    **dict.fromkeys(("mae", "spearman", "pearson"), (int, float)),
    "permuted": bool,
}


def _read_results(path):
    """The result rows of `results.json`; a row without one of the fields the
    report reads, or with one of the wrong type, is bad input."""
    try:
        results = json.load(textpipe.open_text(path))["results"]
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                raise InputFormatError(f"{path}: result row {i} is not an object")
            for name, types in _RESULT_FIELDS.items():
                if name not in row:
                    raise InputFormatError(f"{path}: result row {i} has no field {name!r}")
                value = row[name]
                # a bool is an int, but no number field holds one
                if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
                    raise InputFormatError(
                        f"{path}: result row {i} field {name!r} has the wrong type: {value!r}"
                    )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"{path}: {exc!r}") from None
    return results


def cmd_report(run):
    results = run.need("results.json")
    lines = ["storynets evaluation report", "=" * 60]
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
    if len(run.config.retention) > 1:
        lines.append("")
        lines.append(_retention_finding(run))
    if (run.out / "builder_comparison.csv").exists():
        run.need("builder_comparison.csv")
        lines.append("")
        lines.append("builder comparison table: builder_comparison.csv")
    text = "\n".join(lines) + "\n"
    run.write("report.txt", lambda fh: fh.write(text))
    sys.stdout.write(text)


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
        run = _Run(config)
        _COMMANDS[args.command](run)
        run.finish(args.command)
        return 0
    except (MissingUpstreamError, ConvergenceError, InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingUpstreamError):
            return 3
        return 4 if isinstance(exc, ConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
