"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 10 needs the
original corpus and lexicon files and is skipped (never failing CI) unless
the STORYNETS_* environment variables point at them.
"""

import itertools
import os
import time

import numpy as np
import pytest

from storynets import activation, affect, graphmetrics, netbuild, stats, textpipe
from storynets.mlharness import (
    ModelSpec,
    fit,
    kfold_cv,
    permutation_baseline,
    shapley_attribution,
)

from conftest import make_sentence
from oracles import (
    induced_subgraph,
    linear_coefficients,
    structural_features_alone,
    wilcoxon_exact_enumeration,
)
from synthetic import planted_feature_rows


def _report(num, label):
    class _Reporter:
        def __enter__(self):
            self.t0 = time.time()
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {num:02d} [{label}]: {verdict} ({time.time() - self.t0:.1f}s)")
            return False

    return _Reporter()


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    labels = [f"n{i:02d}" for i in range(n)]
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return netbuild.LexicalNetwork(labels, edges)


def test_criterion_1_cooccurrence_fidelity():
    with _report(1, "co-occurrence fidelity"):
        sent = make_sentence(["child", "play", "football", "game"])
        ws3 = netbuild.build_cooccurrence([sent], 3, False)
        assert ws3.edges == frozenset(
            {
                ("child", "play"),
                ("child", "football"),
                ("football", "play"),
                ("game", "play"),
                ("football", "game"),
            }
        )
        ws2 = netbuild.build_cooccurrence([sent], 2, False)
        assert ws2.edges == frozenset(
            {("child", "play"), ("football", "play"), ("football", "game")}
        )
        ws4 = netbuild.build_cooccurrence([sent], 4, False)
        assert ws4.edges == frozenset(
            (a, b) for a, b in itertools.combinations(sorted(ws4.nodes), 2)
        )


def test_criterion_2_metric_oracle_suite():
    with _report(2, "metric oracle suite, 200 random graphs"):
        from test_graphmetrics import oracle_clustering, oracle_lcc_metrics

        checked = 0
        for p in (0.1, 0.3, 0.6):
            for i in range(67 if p != 0.6 else 66):
                seed = int(p * 1000) + i
                n = 2 + (seed * 13) % 29  # 2..30
                net = random_graph(n, p, seed)
                aspl_ref, diam_ref = oracle_lcc_metrics(net)
                assert abs(graphmetrics.aspl_lcc(net) - aspl_ref) <= 1e-12
                assert graphmetrics.diameter_lcc(net) == diam_ref
                assert abs(
                    graphmetrics.avg_local_clustering(net) - oracle_clustering(net)
                ) <= 1e-12
                n_nodes, n_edges = net.n_nodes, net.n_edges
                expected = 2 * n_edges / (n_nodes * (n_nodes - 1)) if n_nodes >= 2 else 0.0
                assert graphmetrics.density(net) == expected
                checked += 1
        assert checked == 200


def test_criterion_3_pagerank():
    with _report(3, "pagerank sums, cycles, star oracle"):
        from test_graphmetrics import cycle_graph, oracle_pagerank, star_graph

        for seed in range(20):
            net = random_graph(3 + seed % 20, 0.4, 900 + seed)
            lcc = graphmetrics.components(net)[0]
            ranks = graphmetrics.pagerank(induced_subgraph(net, lcc))
            assert abs(sum(ranks.values()) - 1.0) <= 1e-10
            assert all(v >= 0 for v in ranks.values())
        for n in (3, 5, 8, 13):
            cyc = cycle_graph(*[f"c{i}" for i in range(n)])
            assert graphmetrics.pagerank_centralisations([cyc.index])[0] < 1e-8
        star = star_graph("hub", [f"leaf{i}" for i in range(3)])
        mine = graphmetrics.pagerank(star)
        reference = oracle_pagerank(star)
        for node in star.nodes:
            assert abs(mine[node] - reference[node]) <= 1e-8


def test_criterion_4_activation_conservation_and_oracle():
    with _report(4, "activation conservation, oracle, retention invariance"):
        retentions = (0.2, 0.4, 0.5, 0.6, 0.8)
        rng = np.random.default_rng(44)
        for i in range(100):
            n = int(rng.integers(2, 51))
            p = float(rng.choice([0.08, 0.2, 0.5]))
            net = random_graph(n, p, 5000 + i)
            seed_node = sorted(net.nodes)[int(rng.integers(0, n))]
            alphas = []
            for r in retentions:
                trace = activation.run_to_stationarity(net, seed_node, retention=r)
                assert trace.converged
                assert trace.mass_drift <= 1e-9  # total mass == N at every step
                alphas.append(trace.stationary_alpha)
            oracle = activation.stationary_oracle(net, seed_node)
            assert all(abs(a - oracle) <= 1e-6 for a in alphas)
            assert max(alphas) - min(alphas) <= 1e-6


def test_criterion_5_isolated_seed_rule():
    with _report(5, "isolated-seed rule"):
        from storynets.textpipe import Story

        sent = make_sentence(["storm", "violin", "memory", "anchor"])
        story = Story(
            id="fixture",
            prompt_lemmas=("storm", "violin", "ghost"),
            text="storm violin memory anchor ghost",
            sentences=(sent + (make_sentence(["ghost"], 1)[0],),),
            ratings={"r": 3},
        )
        net = netbuild.LexicalNetwork(
            {"storm", "violin", "memory", "anchor"},
            [("storm", "violin"), ("memory", "anchor")],
            "coocc_WS2",
        )
        traces = activation.prompt_alphas(story, {"coocc_WS2": net})["coocc_WS2"]
        assert traces[0].seed_in_network and traces[1].seed_in_network
        ghost = traces[2]
        assert not ghost.seed_in_network
        assert ghost.stationary_alpha == net.n_nodes  # alpha = N
        # degree-0 seed inside the graph obeys the same limit
        with_isolate = netbuild.LexicalNetwork(
            set(net.nodes) | {"lone"}, net.edges, "coocc_WS2"
        )
        trace = activation.run_to_stationarity(with_isolate, "lone")
        assert trace.stationary_alpha == with_isolate.n_nodes


def test_criterion_6_emotion_zscores():
    with _report(6, "emotion z-scores and negation flips"):
        rows = [f"w{i}\tjoy\t{1 if i < 1 else 0}" for i in range(4)]
        lex = affect.load_lexicon("\n".join(rows))
        z = affect.emotion_zscores({"joy": 6}, 8, lex)
        assert abs(z["joy"] - 3.266) <= 1e-3
        exact = affect.emotion_zscores({"joy": 8 * 0.25}, 8, lex)
        assert exact["joy"] == 0.0
        for emotion, opposite in affect.PLUTCHIK_OPPOSITE.items():
            single = affect.load_lexicon(f"word\t{emotion}\t1\npad\tjoy\t1\n")
            plain, _ = affect.emotion_counts([("word", False)], single)
            flipped, _ = affect.emotion_counts([("word", True)], single)
            changed = {e for e in affect.PLUTCHIK_EMOTIONS if plain[e] != flipped[e]}
            assert changed == {emotion, opposite}


def test_criterion_7_ml_pipeline_sanity():
    with _report(7, "ml pipeline sanity on the planted generator"):
        rows, _ = planted_feature_rows(n_rows=400, n_features=18, noise=0.1, rng_seed=0)
        gb = kfold_cv(rows, ModelSpec("gradient_boosting", rng_seed=1), k=4, rng_seed=0)
        linear = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=0)
        assert gb.spearman > 0.8
        assert linear.spearman > 0.8
        real_maes, perm_maes, perm_rhos, perm_rs = [], [], [], []
        for seed in range(20):
            real = kfold_cv(rows, ModelSpec("linear"), k=4, rng_seed=seed)
            perm = permutation_baseline(rows, ModelSpec("linear"), k=4, rng_seed=seed)
            real_maes.append(real.mae)
            perm_maes.append(perm.mae)
            perm_rhos.append(perm.spearman)
            perm_rs.append(perm.pearson)
        # permuted-feature correlations collapse around zero in expectation
        assert abs(np.mean(perm_rhos)) < 0.05
        assert abs(np.mean(perm_rs)) < 0.05
        wilcoxon = stats.wilcoxon_signed_rank(real_maes, perm_maes, alternative="less")
        assert all(r < p for r, p in zip(real_maes, perm_maes))
        assert wilcoxon.statistic == 0.0
        assert wilcoxon.p_value < 0.001


def test_criterion_8_shapley_correctness():
    with _report(8, "shapley linear oracle and additivity"):
        from test_models import rows_from_arrays

        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 6))
        coef = np.linspace(0.5, 2.0, 6) * np.array([1, -1, 1, -1, 1, -1])
        y = X @ coef + 0.3
        model = fit(ModelSpec("linear"), rows_from_arrays(X, y))
        explained = np.sign(coef) * 2.0 * np.ones((3, 6))
        explained[1] *= -1.5
        explained[2, :] = np.sign(coef) * -2.5
        result = shapley_attribution(model, rows_from_arrays(explained, np.zeros(3)),
                                     n_samples=2000, rng_seed=88)
        expected = linear_coefficients(model)[0] * (explained - model.background.mean(axis=0))
        rel_err = np.abs(result.values - expected) / np.abs(expected)
        assert rel_err.max() < 0.05
        reconstructed = result.values.sum(axis=1) + result.base_value
        assert np.all(
            np.abs(reconstructed - result.predictions) <= 3 * result.additivity_se + 1e-12
        )


def test_criterion_9_statistics():
    with _report(9, "wilcoxon exact path, sign-flip calibration, BH"):
        rng = np.random.default_rng(9)
        for n in range(3, 13):
            x = rng.integers(-4, 8, size=n).astype(float)
            y = rng.integers(-4, 8, size=n).astype(float)
            for alt in ("two-sided", "less", "greater"):
                mine = stats.wilcoxon_signed_rank(x, y, alt)
                ref = wilcoxon_exact_enumeration(x, y, alt)
                assert abs(mine.p_value - ref.p_value) <= 1e-12
        from scipy.stats import binom

        runs, rejections = 200, 0
        null_rng = np.random.default_rng(90)
        for i in range(runs):
            a = null_rng.normal(size=25)
            b = null_rng.normal(size=25)
            result = stats.paired_signflip_test(a, b, n_perm=400, rng_seed=3000 + i)
            rejections += result.p_value <= 0.05
        low, high = binom.interval(0.95, runs, 0.05)
        assert low <= rejections <= high
        assert stats.bh_fdr([0.01, 0.02, 0.03, 0.04]) == pytest.approx([0.04] * 4)


CORPUS_ENV = {
    "stories": "STORYNETS_STORIES_CSV",
    "conllu": "STORYNETS_CONLLU",
    "lexicon": "STORYNETS_EMOLEX",
}

# mean +/- SD bands for per-builder structural features, used by the
# best-effort corpus reproduction check
REFERENCE_BANDS = {
    "TFMN": {"n_nodes": (25, 8), "n_edges": (61, 30), "aspl_lcc": (2.3, 0.5),
             "avg_local_clustering": (0.68, 0.08), "density": (0.21, 0.07),
             "diameter_lcc": (5, 1), "pagerank_centralisation": (0.015, 0.006)},
    "coocc_WS2": {"n_nodes": (24, 8), "n_edges": (22, 8), "aspl_lcc": (4, 1),
                  "avg_local_clustering": (0.02, 0.04), "density": (0.09, 0.04),
                  "diameter_lcc": (9, 4), "pagerank_centralisation": (0.02, 0.01)},
    "coocc_WS3": {"n_nodes": (24, 8), "n_edges": (40, 20), "aspl_lcc": (2.5, 0.7),
                  "avg_local_clustering": (0.67, 0.07), "density": (0.16, 0.06),
                  "diameter_lcc": (5, 2), "pagerank_centralisation": (0.02, 0.01)},
    "coocc_WS4": {"n_nodes": (24, 8), "n_edges": (52, 20), "aspl_lcc": (2.0, 0.5),
                  "avg_local_clustering": (0.78, 0.07), "density": (0.21, 0.08),
                  "diameter_lcc": (4, 2), "pagerank_centralisation": (0.017, 0.008)},
    "coocc_p_WS2": {"n_nodes": (27, 8), "n_edges": (30, 10), "aspl_lcc": (4, 1),
                    "avg_local_clustering": (0.05, 0.06), "density": (0.09, 0.03),
                    "diameter_lcc": (10, 3), "pagerank_centralisation": (0.013, 0.007)},
    "coocc_p_WS3": {"n_nodes": (27, 8), "n_edges": (54, 20), "aspl_lcc": (2.6, 0.6),
                    "avg_local_clustering": (0.64, 0.06), "density": (0.16, 0.05),
                    "diameter_lcc": (6, 2), "pagerank_centralisation": (0.013, 0.006)},
    "coocc_p_WS4": {"n_nodes": (27, 8), "n_edges": (72, 30), "aspl_lcc": (2.2, 0.4),
                    "avg_local_clustering": (0.75, 0.06), "density": (0.21, 0.07),
                    "diameter_lcc": (4, 1), "pagerank_centralisation": (0.013, 0.005)},
}


@pytest.mark.skipif(
    not all(os.environ.get(v) for v in CORPUS_ENV.values()),
    reason="optional corpus reproduction: set STORYNETS_STORIES_CSV, "
    "STORYNETS_CONLLU and STORYNETS_EMOLEX to run (best effort, not CI-gating)",
)
def test_criterion_10_optional_corpus_reproduction():
    with _report(10, "optional corpus reproduction"):
        stoplist = textpipe.default_stoplist()
        pronouns = textpipe.default_pronouns()
        conllu = textpipe.open_text(os.environ[CORPUS_ENV["conllu"]]).read()
        parses = textpipe.read_conllu(conllu, stoplist, pronouns)
        stories = textpipe.read_stories_csv(
            os.environ[CORPUS_ENV["stories"]], {}, stoplist, pronouns, parses
        )
        kept = [s for s in stories if all(m.matched for m in textpipe.match_prompts(s))]
        assert len(stories) == 1071
        assert len(kept) == 1029
        lexicon = affect.load_lexicon_file(os.environ[CORPUS_ENV["lexicon"]])
        per_builder = {tag: [] for tag in netbuild.BUILDER_TAGS}
        features_rows = {}
        for story in kept:
            nets = netbuild.build_all_variants(story)
            for tag, net in nets.items():
                f = structural_features_alone(net)
                per_builder[tag].append(f)
                features_rows[(story.id, tag)] = f
        for tag, bands in REFERENCE_BANDS.items():
            values = per_builder[tag]
            for name, (mean, sd) in bands.items():
                observed = float(np.mean([getattr(f, name) for f in values]))
                assert mean - sd <= observed <= mean + sd, (tag, name, observed)
        # TFMN / all-features gradient boosting
        from storynets.mlharness import CorpusFeatures

        alphas = {}
        for story in kept:
            nets = netbuild.build_all_variants(story)
            traces = activation.prompt_alphas(story, {"TFMN": nets["TFMN"]})
            alphas[story.id] = tuple(t.stationary_alpha for t in traces["TFMN"])
        emotions = {
            s.id: {
                f"z_{e}": affect.profile_story(s.sentences, lexicon)[e]
                for e in affect.PLUTCHIK_EMOTIONS
            }
            for s in kept
        }
        features = CorpusFeatures(
            structural={"TFMN": {
                s.id: features_rows[(s.id, "TFMN")]._asdict() for s in kept
            }},
            alphas={"TFMN": alphas},
            emotions=emotions,
            targets={"mean": {s.id: s.mean_rating for s in kept}},
        )
        rows = features.rows("TFMN", "All", "mean")
        result = kfold_cv(rows, ModelSpec("gradient_boosting", rng_seed=1), k=4, rng_seed=0)
        assert result.mae <= 0.65
        assert result.spearman >= 0.55
