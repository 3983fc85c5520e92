import csv
import dataclasses
import json
import shutil

import numpy as np
import pytest

from storynets import activation, cli
from storynets.cli import RunConfig, build_arg_parser, config_hash, main, resolve_config
from storynets.mlharness import ModelSpec, cv, run_matrix

from conftest import DEMO_STORY_CONLLU, DEMO_STORY_TEXT, LEXICON_TSV
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

    @pytest.mark.parametrize("stage", ["evaluate", "compare-builders"])
    def test_non_finite_feature_is_bad_input(self, pipeline, tmp_path, capsys, stage):
        source, config = pipeline
        out = tmp_path / "out"
        shutil.copytree(source / "out", out)
        lines = (out / "features.csv").read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        cells = lines[3].split(",")
        cells[header.index("density")] = "nan"
        lines[3] = ",".join(cells)
        (out / "features.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main([stage, "--config", str(config), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "features.csv, line 4" in err
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


class TestExitCodes:
    def test_missing_stories_csv_is_bad_input(self, tmp_path):
        assert main([
            "preprocess", "--stories-csv", str(tmp_path / "nowhere.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_stage_before_upstream_is_exit_3(self, tmp_path):
        assert main(["features", "--out-dir", str(tmp_path / "fresh")]) == 3
        assert main(["report", "--out-dir", str(tmp_path / "fresh")]) == 3

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
            ("--builders=coocc_WS2", "--window-sizes=3"),
        ],
        ids="-".join,
    )
    def test_option_value_that_would_crash_late_is_rejected(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["evaluate", "--out-dir", str(out), *argv]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_window_sizes_leaving_tfmn_is_legal(self):
        config = _resolve(["evaluate", "--window-sizes="])
        assert config.window_sizes == ()
        assert config.active_builders() == ("TFMN",)

    def test_enrich_without_relations_rejected(self, tmp_path):
        stories_csv, conllu, lexicon = write_corpus(tmp_path, n_stories=3)
        assert main([
            "preprocess", "--stories-csv", str(stories_csv),
            "--out-dir", str(tmp_path / "o2"), "--enrich-tfmn",
        ]) == 2

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
        assert main(["build", *base, "--relations", str(relations), "--enrich-tfmn"]) == 0
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
        path = cli._write_attributions(config, features, results, "mean")
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
    "window_sizes": "2,4",
    "radius": "2",
    "retention": "0.2,0.8",
    "feature_configs": "NetStr,All",
    "models": "linear,knn",
    "targets": "mean,H",
    "folds": "5",
    "n_perm": "500",
    "rng_seed": "11",
    "pagerank_damping": "0.9",
    "enrich_tfmn": "yes",
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
        # enrich_tfmn needs a relations file, so both sides carry one
        relations = tmp_path / "relations.tsv"
        relations.write_text("a\tb\tsynonym\n", encoding="utf-8")
        base = "[storynets]\n" + (f"relations = {relations}\n" if field != "relations" else "")
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
        "line", ["rng_seed = abc", "folds = 3.5", "enrich_tfmn = maybe"]
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
        ],
    )
    def test_malformed_ini_file_exits_2(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        ini.write_text(text, encoding="utf-8")
        assert main(["report", "--config", str(ini)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_list_flag_exits_2(self, tmp_path, capsys):
        assert main(["report", "--out-dir", str(tmp_path / "out"), "--window-sizes", "2,x"]) == 2
        assert "error:" in capsys.readouterr().err


class TestWriter:
    def test_floats_written_as_repr(self, tmp_path):
        path = cli._write_csv(tmp_path / "t.csv", [("a", "b", "c", "count"), (0.1, 1e-17, 2.0, 3)])
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
