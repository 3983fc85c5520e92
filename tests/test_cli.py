import csv
import dataclasses
import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from storynets import activation, cli, graphmetrics, stats
from storynets.cli import RunConfig, build_arg_parser, config_hash, main, resolve_config
from storynets.mlharness import ModelSpec, cv, run_matrix

from conftest import DEMO_STORY_CONLLU, DEMO_STORY_TEXT, LEXICON_TSV
from oracles import parse_graphml, trajectory_rows_reference
from test_cv import small_features

WORD_POOL = [
    "river", "stone", "lantern", "market", "violin", "garden", "letter",
    "shadow", "engine", "harbor", "circus", "mirror", "forest", "candle",
]

PROMPTS = [
    ("gloom", "payment", "exist"),
    ("stamp", "letter", "send"),
    ("petrol", "diesel", "pump"),
    ("belief", "faith", "sing"),
]


def chain_parse_block(story_id, words):
    lines = [f"# story_id = {story_id}"]
    for i, word in enumerate(words, start=1):
        head = i + 1 if i < len(words) else 0
        deprel = "dep" if head else "root"
        lines.append(
            f"{i}\t{word}\t{word.lower()}\tNOUN\t_\t_\t{head}\t{deprel}\t_\t_"
        )
    return "\n".join(lines) + "\n"


def head_cycle(line):
    """A `corpus.jsonl` line whose first sentence's first two tokens head each other."""
    record = json.loads(line)
    first = record["sentences"][0]
    first[0]["head"], first[1]["head"] = 1, 0
    return json.dumps(record)


def set_cell(column, text):
    """A damage: line 4 of `features.csv` with its `column` cell set to `text`."""

    def damage(lines):
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index(column)] = text
        return ",".join(cells)

    return damage


def synth_story(story_id, prompts, rng, drop_prompt=False):
    sentences = []
    for s, prompt in enumerate(prompts):
        words = [WORD_POOL[rng.integers(0, len(WORD_POOL))] for _ in range(4)]
        if not (drop_prompt and s == 0):
            words.insert(int(rng.integers(0, len(words))), prompt)
        sentences.append(words)
    text = ". ".join(" ".join(w.capitalize() if i == 0 else w for i, w in enumerate(sent))
                     for sent in sentences) + "."
    conllu = "".join(chain_parse_block(story_id, sent) + "\n" for sent in sentences)
    ratings = [int(rng.integers(1, 6)) for _ in range(4)]
    return text, conllu, ratings


def write_corpus(tmp_path, n_stories=12):
    rng = np.random.default_rng(20_24)
    stories_csv = tmp_path / "stories.csv"
    conllu_path = tmp_path / "stories.conllu"
    rows = [["id", "prompt1", "prompt2", "prompt3", "text", "H", "J", "K", "N"]]
    conllu_parts = []
    rows.append(["demo1", "gloom", "payment", "exist", DEMO_STORY_TEXT, "3", "4", "3", "4"])
    conllu_parts.append(DEMO_STORY_CONLLU)
    for i in range(n_stories - 1):
        prompts = PROMPTS[i % len(PROMPTS)]
        sid = f"story{i:02d}"
        text, conllu, ratings = synth_story(sid, prompts, rng)
        rows.append([sid, *prompts, text, *map(str, ratings)])
        conllu_parts.append(conllu)
    # one story that drops its first prompt and must be excluded
    text, conllu, ratings = synth_story("dropout", PROMPTS[1], rng, drop_prompt=True)
    rows.append(["dropout", *PROMPTS[1], text, *map(str, ratings)])
    conllu_parts.append(conllu)
    with open(stories_csv, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    conllu_path.write_text("\n".join(conllu_parts), encoding="utf-8")
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text(LEXICON_TSV, encoding="utf-8")
    return stories_csv, conllu_path, lexicon


def write_config(tmp_path, stories_csv, conllu_path, lexicon):
    config = tmp_path / "run.ini"
    config.write_text(
        "[storynets]\n"
        f"stories_csv = {stories_csv}\n"
        f"conllu = {conllu_path}\n"
        f"lexicon = {lexicon}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "builders = coocc_WS2,coocc_WS3,coocc_WS4,coocc_p_WS2,coocc_p_WS3,coocc_p_WS4,TFMN\n"
        "retention = 0.2,0.5,0.8\n"
        "feature_configs = NetStr,All\n"
        "models = linear,decision_tree\n"
        "targets = mean\n"
        "folds = 2\n"
        "n_perm = 200\n"
        "rng_seed = 11\n"
        "shap_samples = 120\n"
        "shap_max_rows = 4\n",
        encoding="utf-8",
    )
    return config


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    stories_csv, conllu_path, lexicon = write_corpus(tmp_path)
    config = write_config(tmp_path, stories_csv, conllu_path, lexicon)
    for stage in ("preprocess", "build", "features", "spread", "emotions",
                  "evaluate", "compare-builders", "report"):
        assert main([stage, "--config", str(config)]) == 0, stage
    return tmp_path, config


# a result row that `report` reads without complaint
RESULT_ROW = {"target": "mean", "builder": "TFMN", "config": "All", "model": "linear",
              "mae": 0.5, "spearman": 0.25, "pearson": 1, "permuted": False}


class TestPipeline:
    def test_preprocess_outputs(self, pipeline):
        tmp_path, _ = pipeline
        corpus = (tmp_path / "out" / "corpus.jsonl").read_text().splitlines()
        assert len(corpus) == 12
        with open(tmp_path / "out" / "exclusions.csv", newline="") as fh:
            excluded = list(csv.DictReader(fh))
        assert [e["story_id"] for e in excluded] == ["dropout"]
        assert excluded[0]["unmatched_prompts"] == "stamp"

    def test_build_writes_seven_edge_lists_per_story(self, pipeline):
        tmp_path, _ = pipeline
        edges = sorted((tmp_path / "out" / "edges").glob("demo1__*.csv"))
        assert len(edges) == 7
        header = edges[0].read_text().splitlines()[0]
        assert header == "source,target"

    def test_features_cover_all_cells(self, pipeline):
        tmp_path, _ = pipeline
        with open(tmp_path / "out" / "features.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12 * 7
        assert {r["builder"] for r in rows} == {
            "coocc_WS2", "coocc_WS3", "coocc_WS4",
            "coocc_p_WS2", "coocc_p_WS3", "coocc_p_WS4", "TFMN",
        }

    def test_stationary_alphas_invariant_across_retention(self, pipeline):
        tmp_path, _ = pipeline

        def read_alphas(r):
            path = tmp_path / "out" / f"stationary_r{r}.csv"
            with open(path, newline="") as fh:
                return {
                    (row["story_id"], row["builder"]): [
                        float(row["alpha1"]), float(row["alpha2"]), float(row["alpha3"])
                    ]
                    for row in csv.DictReader(fh)
                }

        base = read_alphas("0.5")
        for r in ("0.2", "0.8"):
            assert read_alphas(r) == base

    def test_trajectories_export_limited_to_100_steps(self, pipeline):
        tmp_path, _ = pipeline
        with open(tmp_path / "out" / "trajectories_r0.5.csv", newline="") as fh:
            steps = [int(row["step"]) for row in csv.DictReader(fh)]
        assert max(steps) <= 100
        assert min(steps) == 0

    def test_evaluate_results_shape(self, pipeline):
        tmp_path, _ = pipeline
        payload = json.loads((tmp_path / "out" / "results.json").read_text())
        results = payload["results"]
        # 7 builders x 2 configs x 2 models, doubled by the permutation baseline
        assert len(results) == 7 * 2 * 2 * 2
        assert sum(r["permuted"] for r in results) == 7 * 2 * 2
        best = payload["best"]["mean"]
        ranked = sorted(
            (r for r in results if not r["permuted"]),
            key=lambda r: (r["mae"], -r["spearman"]),
        )
        assert (best["builder"], best["config"], best["model"]) == (
            ranked[0]["builder"], ranked[0]["config"], ranked[0]["model"],
        )
        for r in results:
            assert r["mae"] == pytest.approx(
                np.mean([f["mae"] for f in r["folds"]]), abs=1e-12
            )

    def test_attributions_written_for_best_cell(self, pipeline):
        tmp_path, _ = pipeline
        lines = (tmp_path / "out" / "attributions_mean.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # shap_max_rows
        assert lines[0].startswith("story_id,")

    def test_compare_builders_table(self, pipeline):
        tmp_path, _ = pipeline
        with open(tmp_path / "out" / "builder_comparison.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_pairs = 7 * 6 // 2
        assert len(rows) == n_pairs * 8  # 7 descriptors + n_components
        for row in rows:
            assert float(row["p_bh"]) >= float(row["p_raw"]) - 1e-12

    def test_report_mentions_wilcoxon_separation(self, pipeline):
        tmp_path, _ = pipeline
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "real vs permuted MAE" in report
        assert "best cells" in report

    def test_manifests_carry_recomputable_config_hash(self, pipeline):
        tmp_path, config = pipeline
        import argparse

        from storynets.cli import RunConfig

        blank = {k: None for k in RunConfig.__dataclass_fields__}
        resolved = resolve_config(argparse.Namespace(config=str(config), **blank))
        expected = config_hash(resolved)
        for manifest_path in (tmp_path / "out").glob("manifest_*.json"):
            manifest = json.loads(manifest_path.read_text())
            assert manifest["config_hash"] == expected

    @pytest.mark.parametrize(
        "stage, name, damage",
        [
            ("evaluate", "features.csv", set_cell("density", "nan")),
            ("compare-builders", "features.csv", set_cell("density", "nan")),
            ("evaluate", "features.csv", lambda lines: lines[2]),
            ("compare-builders", "features.csv", lambda lines: lines[2]),
            ("evaluate", "emotions.csv", lambda lines: lines[2]),
            ("evaluate", "features.csv", set_cell("n_components", "nan")),
            ("evaluate", "features.csv", lambda lines: lines[3] + '"'),
            ("evaluate", "features.csv", lambda lines: lines[3].rsplit(",", 1)[0]),
            ("compare-builders", "features.csv", lambda lines: lines[3].split(",")[0]),
        ],
        ids=["evaluate", "compare-builders", "repeated-row-at-evaluate",
             "repeated-row-at-compare-builders", "repeated-emotions-row",
             "nan-n-components-at-evaluate", "stray-quote-at-evaluate",
             "short-row-at-evaluate", "row-without-builder-at-compare-builders"],
    )
    def test_non_finite_feature_is_bad_input(
        self, pipeline, tmp_path, capsys, stage, name, damage
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        lines[3] = damage(lines)
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and f"{name}, line 4" in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_folds_above_smallest_table_is_bad_input(self, pipeline, tmp_path, capsys):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        argv = ["evaluate", "--config", str(config), "--out-dir", str(out), "--folds", "13"]
        assert main(argv) == 2
        assert "folds=13 exceeds the 12 rows" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_table_too_small_for_a_model_is_bad_input(self, pipeline, tmp_path, capsys):
        # 12 stories in 2 folds leave 6 training rows: too few for 15 neighbours
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        argv = ["evaluate", "--config", str(config), "--out-dir", str(out),
                "--models", "linear,knn"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: knn needs at least 15 training rows" in err
        assert "(12 rows) leave 6" in err and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("name", ["features.csv", "stationary_r0.2.csv"])
    @pytest.mark.parametrize("builders", ["TFMN,coocc_WS2", "TFMN"])
    def test_requested_builder_without_rows_is_bad_input(
        self, pipeline, tmp_path, capsys, name, builders
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        with open(out / name, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row[1] != "TFMN"]
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        argv = ["evaluate", "--config", str(config), "--out-dir", str(out), "--builders", builders]
        assert main(argv) == 2
        assert f"error: {out / name}: no rows for builder 'TFMN'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize(
        "stage, name, damage",
        [
            ("features", "networks.jsonl", lambda lines: lines[2][:40]),
            ("build", "corpus.jsonl", lambda lines: json.dumps(
                {k: v for k, v in json.loads(lines[2]).items() if k != "sentences"})),
            ("spread", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "edges": [["aaa", "zzz"]]})),
            ("evaluate", "corpus.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "ratings": []})),
            ("build", "corpus.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "id": "../../escaped"})),
            ("build", "corpus.jsonl", lambda lines: head_cycle(lines[2])),
            ("emotions", "corpus.jsonl", lambda lines: head_cycle(lines[2])),
            ("features", "networks.jsonl", lambda lines: lines[1]),
            ("spread", "corpus.jsonl", lambda lines: lines[1]),
            ("features", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "builder": "bogus"})),
            ("features", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "nodes": [*json.loads(lines[2])["nodes"], 7]})),
            ("spread", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "nodes": "abc", "edges": [], "valence": {}})),
            ("features", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "nodes": ["x", "y", "z"], "edges": ["xy", ["y", "z"]],
                 "valence": {}})),
            ("features", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "valence": {"ghost": "positive"}})),
            ("features", "networks.jsonl", lambda lines: json.dumps(
                {**json.loads(lines[2]), "story_id": 7})),
        ],
        ids=["truncated-line", "no-sentences", "edge-outside-nodes", "ratings-not-a-mapping",
             "unsafe-story-id", "head-cycle-at-build", "head-cycle-at-emotions",
             "repeated-network", "repeated-story", "unknown-builder", "node-not-a-string",
             "nodes-not-a-list", "edge-not-a-pair", "valence-of-no-node",
             "story-id-not-a-string"],
    )
    def test_malformed_upstream_json_is_bad_input(
        self, pipeline, tmp_path, capsys, stage, name, damage
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        lines[2] = damage(lines)
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {out / name}, line 3:" in err
        assert "Traceback" not in err

    def test_network_of_a_story_outside_the_corpus_is_bad_input(self, pipeline, tmp_path, capsys):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        with open(out / "networks.jsonl", "r+", encoding="utf-8") as fh:
            record = json.loads(fh.readline())
            fh.seek(0, 2)
            fh.write(json.dumps({**record, "story_id": "ghost"}) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        for stage in ("spread", "features"):
            assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 2, stage
            err = capsys.readouterr().err
            assert f"error: {out / 'networks.jsonl'}: story 'ghost' is not in corpus.jsonl" in err
            assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize(
        "stage, option",
        [("build", "lexicon"), ("emotions", "lexicon"), ("preprocess", "conllu"),
         ("preprocess", "stories_csv"), ("preprocess", "stoplist"),
         ("preprocess", "lemma_table"), ("build", "relations")],
    )
    def test_input_file_that_is_not_utf8_is_bad_input(
        self, pipeline, tmp_path, capsys, stage, option
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        given = {"lexicon": "lexicon.tsv", "conllu": "stories.conllu", "stories_csv": "stories.csv"}
        data = (source / given[option]).read_bytes() if option in given else b"aaa\tbbb\tccc\n"
        bad = tmp_path / "input"
        bad.write_bytes(data[:5] + b"\xff" + data[5:])
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        argv = [stage, "--config", str(config), "--out-dir", str(out),
                "--" + option.replace("_", "-"), str(bad)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: byte 5 is not UTF-8 (invalid start byte)" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize(
        "stage, name",
        [("build", "corpus.jsonl"), ("features", "networks.jsonl"),
         ("compare-builders", "features.csv")],
    )
    def test_upstream_artifact_that_is_not_utf8_is_bad_input(
        self, pipeline, tmp_path, capsys, stage, name
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        data = (out / name).read_bytes()
        (out / name).write_bytes(data[:5] + b"\xff" + data[5:])
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"error: {out / name}: byte 5 is not UTF-8 (invalid start byte)" in err
        assert "Traceback" not in err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize(
        "content, builder",
        [(b"", "coocc_WS2"), (b"[]", "coocc_WS2"), (None, "TFMN")],
        ids=["empty", "brackets", "no-TFMN-rows"],
    )
    def test_features_table_without_a_builder_is_bad_input_at_compare_builders(
        self, pipeline, tmp_path, capsys, content, builder
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        features = out / "features.csv"
        if content is None:
            lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
            content = "".join(line for line in lines if ",TFMN," not in line).encode()
        features.write_bytes(content)
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main(["compare-builders", "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {features}: no rows for builder {builder!r}\n"
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_compare_builders_compares_the_run_builders_only(self, pipeline, tmp_path):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        argv = ["compare-builders", "--config", str(config), "--out-dir", str(out),
                "--builders", "TFMN,coocc_WS2"]
        assert main(argv) == 0
        with open(out / "builder_comparison.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert {(row["builder_a"], row["builder_b"]) for row in rows} == {("TFMN", "coocc_WS2")}
        p_raw = [float(row["p_raw"]) for row in rows]
        assert [float(row["p_bh"]) for row in rows] == list(stats.bh_fdr(p_raw))

    def test_run_builder_without_alphas_is_bad_input_at_report(self, pipeline, tmp_path, capsys):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        stationary = out / "stationary_r0.2.csv"
        lines = stationary.read_text(encoding="utf-8").splitlines(keepends=True)
        stationary.write_text("".join(line for line in lines if ",coocc_WS3," not in line),
                              encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        argv = ["report", "--config", str(config), "--out-dir", str(out), "--retention", "0.2,0.5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {stationary}: no rows for builder 'coocc_WS3'\n"
        )
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize(
        "stage, name, producer",
        [
            ("build", "corpus.jsonl", "preprocess"),
            ("features", "networks.jsonl", "build"),
            ("features", "corpus.jsonl", "preprocess"),
            ("spread", "corpus.jsonl", "preprocess"),
            ("spread", "networks.jsonl", "build"),
            ("emotions", "corpus.jsonl", "preprocess"),
            ("evaluate", "features.csv", "features"),
            ("evaluate", "stationary_r0.2.csv", "spread"),
            ("evaluate", "emotions.csv", "emotions"),
            ("evaluate", "corpus.jsonl", "preprocess"),
            ("compare-builders", "features.csv", "features"),
            ("report", "results.json", "evaluate"),
            ("report", "stationary_r0.2.csv", "spread"),
            ("report", "stationary_r0.8.csv", "spread"),
        ],
    )
    def test_missing_input_names_its_producer(
        self, pipeline, tmp_path, capsys, stage, name, producer
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        (out / name).unlink()
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: missing upstream artifact {str(out / name)!r}: "
            f"run the {producer!r} stage first\n"
        )
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_reversed_edges_read_as_the_same_network(self, pipeline, tmp_path):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lines = (out / "networks.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        assert record["edges"]
        record["edges"] = [[b, a] for a, b in reversed(record["edges"])] + record["edges"][:1]
        lines[2] = json.dumps(record)
        (out / "networks.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["features", "--config", str(config), "--out-dir", str(out)]) == 0
        features = (out / "features.csv").read_bytes()
        assert features == (source / "out" / "features.csv").read_bytes()

    def test_malformed_results_json_is_bad_input(self, pipeline, tmp_path, capsys):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        results = out / "results.json"
        results.write_text(results.read_text(encoding="utf-8")[:200], encoding="utf-8")
        assert main(["report", "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {results}: " in err and "line" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "payload, named",
        [({"results": [{"target": "mean"}]}, "'builder'"), ({"results": [3]}, "row 0"),
         ({"best": {}}, "'results'"),
         ({"results": [RESULT_ROW, {**RESULT_ROW, "spearman": "high"}]}, "row 1 field 'spearman'"),
         ({"results": [{**RESULT_ROW, "permuted": "no"}]}, "field 'permuted'"),
         ({"results": [{**RESULT_ROW, "mae": True}]}, "field 'mae'"),
         ({"results": [{**RESULT_ROW, "pearson": None}]}, "field 'pearson'"),
         ({"results": [{**RESULT_ROW, "model": 3}]}, "field 'model'")],
    )
    def test_results_row_without_its_fields_is_bad_input(
        self, pipeline, tmp_path, capsys, payload, named
    ):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        results = out / "results.json"
        results.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {results}: " in err and named in err
        assert "Traceback" not in err

    def test_unconverged_pagerank_exits_4(self, pipeline, tmp_path, capsys, monkeypatch):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        before = (out / "features.csv").read_bytes()
        batched = graphmetrics.pagerank_centralisations
        monkeypatch.setattr(
            graphmetrics, "pagerank_centralisations",
            lambda indexes, damping: batched(indexes, damping, max_iter=2),
        )
        assert main(["features", "--config", str(config), "--out-dir", str(out)]) == 4
        assert "pagerank did not converge within 2 iterations" in capsys.readouterr().err
        assert (out / "features.csv").read_bytes() == before
        assert not list(out.glob("*.part"))

    def test_manifests_digest_every_file_read(self, pipeline, tmp_path):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lexicon = tmp_path / "lexicon.tsv"
        shutil.copy(source / "lexicon.tsv", lexicon)
        relations = tmp_path / "relations.tsv"
        relations.write_text("gloom\tbookie\tsynonym\n", encoding="utf-8")
        argv = ["--config", str(config), "--out-dir", str(out), "--lexicon", str(lexicon)]

        def build_inputs():
            assert main(["build", *argv, "--relations", str(relations)]) == 0
            return json.loads((out / "manifest_build.json").read_text())["inputs"]

        before = build_inputs()
        assert {str(lexicon), str(relations)} <= set(before)
        lexicon.write_text(lexicon.read_text() + "zebra\tjoy\t1\n", encoding="utf-8")
        after = build_inputs()
        assert after[str(lexicon)] != before[str(lexicon)]
        assert after[str(relations)] == before[str(relations)]

        wordlists = {}
        for name in ("lemma_table", "stoplist", "pronouns"):
            wordlists[name] = tmp_path / f"{name}.txt"
            wordlists[name].write_text("zebra\n" if name != "lemma_table" else "", encoding="utf-8")
        flags = [x for name, path in wordlists.items()
                 for x in ("--" + name.replace("_", "-"), str(path))]
        assert main(["preprocess", *argv, *flags]) == 0
        inputs = json.loads((out / "manifest_preprocess.json").read_text())["inputs"]
        assert {str(p) for p in wordlists.values()} <= set(inputs)

    def test_stationary_table_has_one_row_per_network(self, pipeline):
        tmp_path, _ = pipeline
        lines = (tmp_path / "out" / "stationary_r0.5.csv").read_text().splitlines()
        assert lines[0] == "story_id,builder,alpha1,alpha2,alpha3"
        assert len(lines) == 1 + 12 * 7

    def test_failed_stage_leaves_no_partial_file(self, pipeline, tmp_path, monkeypatch):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real = activation.prompt_alphas
        calls = []

        def fail_on_second_story(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("diffusion failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(activation, "prompt_alphas", fail_on_second_story)
        with pytest.raises(RuntimeError, match="diffusion failed"):
            main(["spread", "--config", str(config), "--out-dir", str(out)])
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_rerun_with_fewer_builders_removes_stale_files(self, pipeline, tmp_path):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        argv = ["--config", str(config), "--out-dir", str(out), "--builders", "TFMN"]
        assert main(["build", *argv]) == 0
        assert main(["features", *argv]) == 0
        edges = sorted(p.name for p in (out / "edges").iterdir())
        assert len(edges) == 12 and all(name.endswith("__TFMN.csv") for name in edges)
        manifest = json.loads((out / "manifest_build.json").read_text())
        assert sorted(p.rsplit("/", 1)[-1] for p in manifest["outputs"]) == sorted(
            edges + ["networks.jsonl"]
        )
        histograms = sorted(p.name for p in (out / "histograms").iterdir())
        assert len(histograms) == 8 and all(name.endswith("__TFMN.csv") for name in histograms)

    def test_graphml_export_reads_back_as_each_network(self, pipeline, tmp_path):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        argv = ["build", "--config", str(config), "--out-dir", str(out), "--export-graphml"]
        assert main(argv) == 0
        nets = cli._Run(RunConfig(out_dir=str(out))).need("networks.jsonl")
        files = sorted((out / "graphml").iterdir())
        assert [p.name for p in files] == sorted(f"{s}__{b}.graphml" for s, b in nets)
        for path in files:
            net = nets[tuple(path.stem.split("__"))]
            back = parse_graphml(path.read_text(encoding="utf-8"))
            assert (back.nodes, back.edges) == (net.nodes, net.edges)
            assert {n: back.node_valence(n) for n in back.nodes} == {
                n: net.node_valence(n) for n in net.nodes
            }
        assert main([*argv, "--builders", "TFMN"]) == 0
        assert sorted(p.name for p in (out / "graphml").iterdir()) == sorted(
            f"{s}__TFMN.graphml" for s, b in nets if b == "TFMN"
        )

    def test_per_rater_target(self, pipeline, tmp_path, capsys):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        argv = ["evaluate", "--config", str(config), "--out-dir", str(out)]
        assert main([*argv, "--targets", "H"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert {r["target"] for r in results["results"]} == {"H"}
        assert (out / "attributions_H.csv").exists()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([*argv, "--targets", "nobody"]) == 2
        assert "error: no story carries a rating column 'nobody'" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    def test_evaluate_bytes_do_not_depend_on_worker_count(self, pipeline, tmp_path, monkeypatch):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        written = []
        for workers in (1, 2):
            monkeypatch.setattr(cv, "_workers", lambda n_tasks, w=workers: w)
            assert main(["evaluate", "--config", str(config), "--out-dir", str(out)]) == 0
            assert multiprocessing.active_children() == []
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("attributions_*.csv"))}
                           | {"results.json": (out / "results.json").read_bytes()})
        assert len(written[0]) >= 2 and written[0] == written[1]

    def test_failed_build_keeps_earlier_edge_files(self, pipeline, tmp_path, monkeypatch):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        real = cli.netbuild.build_all_variants
        calls = []

        def fail_on_second_story(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("build failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli.netbuild, "build_all_variants", fail_on_second_story)
        with pytest.raises(RuntimeError, match="build failed"):
            main(["build", "--config", str(config), "--out-dir", str(out), "--builders", "TFMN"])
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_report_states_retention_finding(self, pipeline, tmp_path):
        source, config = pipeline
        report = (source / "out" / "report.txt").read_text()
        assert "stationary alphas across retention 0.2, 0.5, 0.8: identical\n" in report
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lines = (out / "stationary_r0.8.csv").read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[3] = repr(float(cells[3]) + 0.25)
        lines[5] = ",".join(cells)
        (out / "stationary_r0.8.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--config", str(config), "--out-dir", str(out)]) == 0
        assert "0.2, 0.5, 0.8: largest absolute difference 0.25\n" in (
            out / "report.txt"
        ).read_text()
        del lines[5]
        (out / "stationary_r0.8.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["report", "--config", str(config), "--out-dir", str(out)]) == 0
        assert "0.2, 0.5, 0.8: the files cover different networks\n" in (
            out / "report.txt"
        ).read_text()

    def test_stages_are_idempotent(self, pipeline):
        tmp_path, config = pipeline
        before = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()
            if p.is_file()
        }
        for stage in ("build", "features", "spread", "emotions", "evaluate",
                      "compare-builders", "report"):
            assert main([stage, "--config", str(config)]) == 0
        after = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()
            if p.is_file()
        }
        assert before == after



DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_corpus.py"


def test_manifests_list_every_file_of_the_run(tmp_path, monkeypatch, capsys):
    """After a demo run of every stage, and again after re-running four stages
    with fewer retentions, targets and exports, each file under out/ but the
    manifests is an output of exactly one manifest, each listed output exists
    and matches its stage's patterns, and `report` no longer finds the alphas
    of the dropped retention."""
    subprocess.run(
        [sys.executable, str(DEMO_SCRIPT), "."], cwd=tmp_path, check=True, capture_output=True
    )
    monkeypatch.chdir(tmp_path)
    flags = ["--config", "run.ini", "--retention", "0.2,0.5", "--export-graphml",
             "--export-conllu", "--targets", "mean,H"]
    for stage in cli.STAGES:
        assert main([stage, *flags]) == 0, stage

    def check_listed():
        listed = []
        for manifest in sorted(Path("out").glob("manifest_*.json")):
            record = json.loads(manifest.read_text(encoding="utf-8"))
            patterns = cli._OUTPUTS[record["stage"]]
            for p in record["outputs"]:
                assert any(Path(p).match(pattern) for pattern in patterns), (manifest, p)
                listed.append(Path("out") / p)
        assert len(listed) == len(set(listed))
        files = {p for p in Path("out").rglob("*")
                 if p.is_file() and not p.match("manifest_*.json")}
        assert set(listed) == files
        return files

    assert {p.suffix for p in check_listed()} >= {".graphml", ".conllu"}
    for stage in ("preprocess", "build", "spread", "evaluate"):
        assert main([stage, "--config", "run.ini"]) == 0, stage
    files = check_listed()
    assert not {p.suffix for p in files} & {".graphml", ".conllu"}
    capsys.readouterr()
    assert main(["report", "--config", "run.ini", "--retention", "0.2,0.5"]) == 3
    assert "run the 'spread' stage first" in capsys.readouterr().err



def test_report_manifest_lists_the_builder_comparison(tmp_path, monkeypatch):
    """`report` names builder_comparison.csv in report.txt only when the file
    exists, so its manifest lists the file as an input exactly then."""
    subprocess.run(
        [sys.executable, str(DEMO_SCRIPT), "."], cwd=tmp_path, check=True, capture_output=True
    )
    monkeypatch.chdir(tmp_path)
    for stage in cli.STAGES:
        assert main([stage, "--config", "run.ini"]) == 0, stage

    def report_inputs():
        record = json.loads(Path("out/manifest_report.json").read_text(encoding="utf-8"))
        return {Path(p).name: digest for p, digest in record["inputs"].items()}

    comparison = Path("out/builder_comparison.csv")
    assert report_inputs()["builder_comparison.csv"] == cli._file_digest(comparison)
    assert "builder comparison table" in Path("out/report.txt").read_text(encoding="utf-8")
    comparison.unlink()
    assert main(["report", "--config", "run.ini"]) == 0
    assert "builder_comparison.csv" not in report_inputs()
    assert "builder comparison table" not in Path("out/report.txt").read_text(encoding="utf-8")


def test_manifests_name_upstream_artifacts_under_out_dir(tmp_path, monkeypatch):
    """The same run made with an absolute out_dir in two directories lists
    each upstream artifact by its name under out_dir, so both runs' manifests
    hold the same inputs. results.json alone differs in bytes: its config hash
    covers out_dir."""
    subprocess.run(
        [sys.executable, str(DEMO_SCRIPT), "."], cwd=tmp_path, check=True, capture_output=True
    )
    monkeypatch.chdir(tmp_path)
    inputs = []
    for out in (tmp_path / "a" / "out", tmp_path / "b" / "out"):
        for stage in cli.STAGES:
            assert main([stage, "--config", "run.ini", "--out-dir", str(out)]) == 0, stage
        inputs.append({
            manifest.name: json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
            for manifest in out.glob("manifest_*.json")
        })
    first, second = inputs
    assert set(first["manifest_report.json"]) == {"results.json", "builder_comparison.csv"}
    assert "corpus.jsonl" in first["manifest_build.json"]
    assert {m: set(names) for m, names in first.items()} == {
        m: set(names) for m, names in second.items()
    }
    for manifest, names in first.items():
        for name, digest in names.items():
            assert (digest == second[manifest][name]) == (name != "results.json"), name


class TestExitCodes:
    def test_missing_stories_csv_is_bad_input(self, tmp_path):
        assert main([
            "preprocess", "--stories-csv", str(tmp_path / "nowhere.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_stage_before_upstream_is_exit_3(self, tmp_path):
        assert main(["features", "--out-dir", str(tmp_path / "fresh")]) == 3
        assert main(["report", "--out-dir", str(tmp_path / "fresh")]) == 3

    def test_options_may_precede_the_stage(self, tmp_path):
        assert main(["--out-dir", str(tmp_path / "fresh"), "features"]) == 3

    @pytest.mark.parametrize("before", [True, False], ids=["before-stage", "after-stage"])
    def test_unknown_flag_is_named_on_either_side_of_the_stage(self, tmp_path, capsys, before):
        flag = ["--window-sizes", "2"]
        rest = ["report", "--out-dir", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as excinfo:
            main(flag + rest if before else rest + flag)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --window-sizes" in err
        assert "invalid choice" not in err

    def test_unknown_stage_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reprot"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'reprot'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--window-sizes", "2"), ("--enrich-tfmn",)], ids="-".join)
    def test_unknown_flag_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--out-dir", str(tmp_path / "out"), *argv])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_emotions_without_lexicon_is_exit_2(self, tmp_path):
        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=3)
        out = tmp_path / "out"
        assert main([
            "preprocess", "--stories-csv", str(stories_csv), "--conllu", str(conllu),
            "--out-dir", str(out),
        ]) == 0
        assert main(["emotions", "--out-dir", str(out)]) == 2

    def test_empty_csv_is_fine(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out_empty"
        assert main(["preprocess", "--stories-csv", str(empty), "--out-dir", str(out)]) == 0
        assert (out / "corpus.jsonl").read_text() == ""

    def test_unknown_builder_rejected(self, tmp_path):
        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=3)
        assert main([
            "preprocess", "--stories-csv", str(stories_csv),
            "--out-dir", str(tmp_path / "o"), "--builders", "coocc_WS9",
        ]) == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["preprocess", "--help"])
        assert excinfo.value.code == 0
        assert "--stories-csv" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path):
        import argparse

        from storynets.cli import RunConfig

        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=3)
        config = write_config(tmp_path, stories_csv, conllu, lexicon)
        blank = {k: None for k in RunConfig.__dataclass_fields__}
        from_file = resolve_config(argparse.Namespace(config=str(config), **blank))
        assert from_file.rng_seed == 11
        overridden = resolve_config(
            argparse.Namespace(
                config=str(config), **{**blank, "rng_seed": 99, "builders": "TFMN"}
            )
        )
        assert overridden.rng_seed == 99
        assert overridden.builders == ("TFMN",)
        assert config_hash(overridden) != config_hash(from_file)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--shap-samples", "5"),
            ("--n-perm", "0"),
            ("--n-perm", "-3"),
            ("--shap-max-rows", "-1"),
            ("--models=",),
            ("--builders=",),
            ("--feature-configs=",),
            ("--retention=",),
            ("--targets=",),
            ("--folds", "1"),
            ("--radius", "0"),
            ("--retention", "1.0"),
            ("--feature-configs", "Foo"),
            ("--models", "svm"),
            ("--pagerank-damping", "1.0"),
            ("--builders", "TFMN,coocc_WS2,TFMN"),
            ("--retention", "0.5,0.5"),
            ("--retention", "0.5,0.500000001"),
            ("--feature-configs", "All,All"),
            ("--models", "linear,linear"),
            ("--targets", "mean,mean"),
        ],
        ids="-".join,
    )
    def test_option_value_that_would_crash_late_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["evaluate", "--out-dir", str(out), *argv]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_relations_enrich_adds_tfmn_edges(self, tmp_path):
        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=3)
        relations = tmp_path / "relations.tsv"
        # the demo story's TFMN contains both lemmas but no direct edge
        relations.write_text("gloom\tbookie\tsynonym\n", encoding="utf-8")
        out = tmp_path / "out_rel"
        base = ["--stories-csv", str(stories_csv), "--conllu", str(conllu),
                "--out-dir", str(out), "--builders", "TFMN"]
        assert main(["preprocess", *base]) == 0
        assert main(["build", *base]) == 0
        plain = (out / "edges" / "demo1__TFMN.csv").read_text()
        assert main(["build", *base, "--relations", str(relations)]) == 0
        enriched = (out / "edges" / "demo1__TFMN.csv").read_text()
        assert "bookie,gloom" not in plain
        assert "bookie,gloom" in enriched

    def test_export_conllu_roundtrips(self, tmp_path):
        from storynets import textpipe

        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=4)
        out = tmp_path / "out_conllu"
        assert main([
            "preprocess", "--stories-csv", str(stories_csv), "--conllu", str(conllu),
            "--out-dir", str(out), "--export-conllu",
        ]) == 0
        original = textpipe.read_conllu(conllu.read_text())
        exported = textpipe.read_conllu((out / "corpus.conllu").read_text())
        # the prompt-dropping story is excluded at preprocess, the rest round-trip
        assert set(exported) == set(original) - {"dropout"}
        for sid in exported:
            for s1, s2 in zip(original[sid], exported[sid]):
                assert [
                    (t.lemma, t.upos, t.head_index, t.deprel) for t in s1
                ] == [(t.lemma, t.upos, t.head_index, t.deprel) for t in s2]

    @pytest.mark.parametrize(
        "story_id", ["", "a/b", "../../escaped", "a\\b", "a\0b", "a__b"]
    )
    def test_unsafe_story_id_is_bad_input(self, tmp_path, story_id):
        stories_csv = tmp_path / "unsafe.csv"
        with open(stories_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "prompt1", "prompt2", "prompt3", "text", "R"])
            writer.writerow(["ok", "cat", "dog", "sun", "Cat dog sun walk.", "3"])
            writer.writerow([story_id, "cat", "dog", "sun", "Cat dog sun walk.", "3"])
        out = tmp_path / "out_unsafe"
        assert main(["preprocess", "--stories-csv", str(stories_csv), "--out-dir", str(out)]) == 2
        assert not (out / "corpus.jsonl").exists()

    @pytest.mark.parametrize(
        "prompt3, cell",
        [("sun", (2, "")), ("sun", (6, "2")), ("", None)],
        ids=["empty-lemma", "own-head", "empty-prompt"],
    )
    def test_row_a_value_type_refuses_is_bad_input(self, tmp_path, capsys, prompt3, cell):
        stories_csv = tmp_path / "stories.csv"
        with open(stories_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "prompt1", "prompt2", "prompt3", "text", "R"])
            writer.writerow(["p1", "cat", "dog", prompt3, "Cat dog sun walk.", "3"])
        lines = chain_parse_block("p1", ["Cat", "dog", "sun", "walk"]).splitlines()
        if cell:
            cells = lines[2].split("\t")  # line 3: "dog", token 2, whose HEAD is 3
            cells[cell[0]] = cell[1]
            lines[2] = "\t".join(cells)
        conllu = tmp_path / "stories.conllu"
        conllu.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["preprocess", "--stories-csv", str(stories_csv), "--conllu", str(conllu),
                "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        where = f"{conllu}: line 3:" if cell else f"{stories_csv}: row 2:"
        assert f"error: {where}" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_cyclic_conllu_parse_is_bad_input(self, tmp_path, capsys):
        stories_csv = tmp_path / "stories.csv"
        stories_csv.write_text("id,prompt1,prompt2,prompt3,text,R\n"
                               "p1,cat,dog,sun,Cat dog sun walk.,3\n", encoding="utf-8")
        lines = chain_parse_block("p1", ["Cat", "dog", "sun", "walk"]).splitlines()
        cells = lines[2].split("\t")  # "dog", token 2, whose HEAD is 3: now 1, whose HEAD is 2
        cells[6] = "1"
        lines[2] = "\t".join(cells)
        conllu = tmp_path / "stories.conllu"
        conllu.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["preprocess", "--stories-csv", str(stories_csv), "--conllu", str(conllu),
                "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert (f"error: {conllu}: line 2: sentence 1: the head chain from token 1 returns "
                "to token 1") in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("raters", ["R,R", "R,"], ids=["repeated", "empty"])
    def test_bad_rater_header_is_bad_input(self, tmp_path, capsys, raters):
        stories_csv = tmp_path / "stories.csv"
        stories_csv.write_text(f"id,prompt1,prompt2,prompt3,text,{raters}\n"
                               "p1,cat,dog,sun,Cat dog sun walk.,1,5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["preprocess", "--stories-csv", str(stories_csv), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {stories_csv}: row 1: rater headers" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_tfmn_without_parse_is_bad_input(self, tmp_path):
        stories_csv = tmp_path / "plain.csv"
        with open(stories_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "prompt1", "prompt2", "prompt3", "text", "R"])
            writer.writerow(["p1", "cat", "dog", "sun", "Cat dog sun walk.", "3"])
        out = tmp_path / "out_plain"
        assert main(["preprocess", "--stories-csv", str(stories_csv), "--out-dir", str(out)]) == 0
        assert main(["build", "--out-dir", str(out)]) == 2
        assert main(["build", "--out-dir", str(out), "--builders", "coocc_WS2"]) == 0

    def test_build_checks_every_parse_before_writing(self, tmp_path):
        stories_csv = tmp_path / "mixed.csv"
        with open(stories_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "prompt1", "prompt2", "prompt3", "text", "R"])
            writer.writerow(["p1", "cat", "dog", "sun", "Cat dog sun walk.", "3"])
            writer.writerow(["p2", "cat", "dog", "sun", "Cat dog sun walk.", "4"])
        conllu = tmp_path / "p1.conllu"
        conllu.write_text(chain_parse_block("p1", ["Cat", "dog", "sun", "walk"]), encoding="utf-8")
        out = tmp_path / "out_mixed"
        base = ["--stories-csv", str(stories_csv), "--out-dir", str(out)]
        assert main(["preprocess", *base, "--conllu", str(conllu)]) == 0
        assert main(["build", *base]) == 2
        assert list((out / "edges").glob("*")) == []
        assert not (out / "networks.jsonl").exists()


class TestAttributionFolds:
    """`_write_attributions` walks `cv.fold_models` and stops at its row budget."""

    def _run(self, tmp_path, monkeypatch, shap_max_rows):
        features = small_features()  # 45 stories: three folds of 15
        results = run_matrix(
            features, ["mean"], ["TFMN"], ["NetStr"], {"linear": ModelSpec("linear")},
            k=3, rng_seed=1,
        )
        config = cli.RunConfig(
            out_dir=str(tmp_path), models=("linear",), folds=3,
            shap_samples=100, shap_max_rows=shap_max_rows,
        )
        fitted = []
        real_fit = cv.fit

        def counting_fit(spec, table):
            fitted.append(len(table))
            return real_fit(spec, table)

        monkeypatch.setattr(cv, "fit", counting_fit)
        path = cli._write_attributions(cli._Run(config), features, results, "mean")
        return fitted, path.read_text(encoding="utf-8").splitlines()

    def test_budget_inside_one_fold_fits_one_model(self, tmp_path, monkeypatch):
        fitted, lines = self._run(tmp_path, monkeypatch, shap_max_rows=4)
        assert fitted == [30]
        assert len(lines) == 1 + 4

    def test_budget_across_folds_stops_when_spent(self, tmp_path, monkeypatch):
        fitted, lines = self._run(tmp_path, monkeypatch, shap_max_rows=20)
        assert fitted == [30, 30]
        assert len(lines) == 1 + 20

    def test_no_budget_writes_header_only(self, tmp_path, monkeypatch):
        fitted, lines = self._run(tmp_path, monkeypatch, shap_max_rows=0)
        assert fitted == []
        assert lines == ["story_id"]


# A non-default value for every RunConfig field, as INI / flag text; None
# marks a path field, which gets an existing file.  A bool field's flag
# takes no value.
NON_DEFAULT_TEXT = {
    "stories_csv": None,
    "conllu": None,
    "lexicon": None,
    "lemma_table": None,
    "stoplist": None,
    "pronouns": None,
    "relations": None,
    "out_dir": "elsewhere",
    "builders": "TFMN,coocc_WS2",
    "radius": "2",
    "retention": "0.2,0.8",
    "feature_configs": "NetStr,All",
    "models": "linear,knn",
    "targets": "mean,H",
    "folds": "5",
    "n_perm": "500",
    "rng_seed": "11",
    "pagerank_damping": "0.9",
    "with_baseline": "off",
    "shap_samples": "300",
    "shap_max_rows": "7",
    "export_graphml": "true",
    "export_conllu": "1",
}


def _resolve(argv):
    return resolve_config(build_arg_parser().parse_args(argv))


class TestOptionParity:
    """Every RunConfig field reads the same through its flag and through the INI file."""

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
    def test_flag_and_ini_give_the_same_config(self, tmp_path, field):
        text = NON_DEFAULT_TEXT[field]
        if text is None:
            target = tmp_path / f"{field}.txt"
            target.write_text("x\n", encoding="utf-8")
            text = str(target)
        base = "[storynets]\n"
        plain_ini = tmp_path / "plain.ini"
        plain_ini.write_text(base, encoding="utf-8")
        set_ini = tmp_path / "set.ini"
        set_ini.write_text(base + f"{field} = {text}\n", encoding="utf-8")

        default = RunConfig.__dataclass_fields__[field].default
        flag = ["--no-baseline" if field == "with_baseline" else "--" + field.replace("_", "-")]
        if not isinstance(default, bool):
            flag.append(text)
        from_flag = _resolve(["report", "--config", str(plain_ini), *flag])
        from_ini = _resolve(["report", "--config", str(set_ini)])
        assert getattr(from_ini, field) != default
        assert from_flag == from_ini
        assert config_hash(from_flag) == config_hash(from_ini)


class TestMalformedOptionValues:
    """A value that does not parse as its field's type is bad input: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "line", ["rng_seed = abc", "folds = 3.5", "export_graphml = maybe"]
    )
    def test_malformed_ini_value_exits_2(self, tmp_path, capsys, line):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[storynets]\nout_dir = {tmp_path / 'out'}\n{line}\n", encoding="utf-8")
        assert main(["report", "--config", str(ini)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "out_dir = o\n",  # no section header
            "[other]\nfolds = 2\n",
            "[storynets]\nfolds = 2\nfolds = 3\n",
            "[storynets]\nout_dir = o%1\n",  # bad interpolation
            "[storynets]\nenrich_tfmn = yes\n",  # unknown key
        ],
    )
    def test_malformed_ini_file_exits_2(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        assert main(["report", "--config", str(ini)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_list_flag_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path / "out"), "--retention", "0.5,x"]) == 2
        assert "error:" in capsys.readouterr().err


def _trace(seed, series):
    return activation.ActivationTrace(
        seed=seed, seed_series=series, stationary_alpha=series[-1],
        converged=True, steps_taken=len(series) - 1,
    )


class TestTrajectoryWriter:
    def test_trajectories_are_the_bytes_of_csv_writer(self, tmp_path):
        traces = [
            (('story, "one"', "TFMN"), (_trace('a,"b"', (3.0, 0.1, 1e-17)), _trace("c", (2.0,)))),
            (("plain", "coocc_WS2"), (_trace("line\nbreak", (5.0, 2.5)),)),
        ]
        path = cli._write_trajectories(cli._Run(RunConfig(out_dir=str(tmp_path))), "t.csv", traces)
        want = tmp_path / "want.csv"
        with open(want, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(trajectory_rows_reference(traces))
        assert path.read_bytes() == want.read_bytes()
        assert b'"story, ""one"""' in path.read_bytes()

    def test_failed_trajectory_write_leaves_no_part_file(self, tmp_path):
        def traces():
            yield ("s", "TFMN"), (_trace("a", (1.0, 0.5)),)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write_trajectories(cli._Run(RunConfig(out_dir=str(tmp_path))), "t.csv", traces())
        assert list(tmp_path.iterdir()) == []

class TestWriter:
    def test_floats_written_as_repr(self, tmp_path):
        run = cli._Run(RunConfig(out_dir=str(tmp_path)))
        path = run.write_csv("t.csv", [("a", "b", "c", "count"), (0.1, 1e-17, 2.0, 3)])
        assert path.read_text(encoding="utf-8") == "a,b,c,count\n0.1,1e-17,2.0,3\n"

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old\n", encoding="utf-8")

        def write(fh):
            fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write(path, write)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]
