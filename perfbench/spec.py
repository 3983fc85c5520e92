"""From-spec reference computations, written apart from the program.

Everything here works on plain token dicts as stored in `corpus.jsonl`
(`surface`, `lemma`, `upos`, `head`, `deprel`, `stop`, `pron`) and uses
numpy and scipy only.  The output checks compare the program's artefacts
with these results; the corpus generator uses the networks to stratify
stories by their expected activation cost.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

BUILDERS = (
    "coocc_WS2", "coocc_WS3", "coocc_WS4",
    "coocc_p_WS2", "coocc_p_WS3", "coocc_p_WS4",
    "TFMN",
)
CONTENT_UPOS = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "ADV"})
RADIUS = 3


def _cooccurrence(sentences, window, keep):
    nodes, edges = set(), set()
    for sent in sentences:
        lemmas = [t["lemma"] for t in sent if keep(t)]
        nodes.update(lemmas)
        arr = np.array(lemmas, dtype=object)
        for offset in range(1, window):
            for a, b in zip(arr[:-offset], arr[offset:]):
                if a != b:
                    edges.add((a, b) if a < b else (b, a))
    return nodes, edges


def pronoun_free(tok):
    return tok["lemma"].isalpha() and not tok["stop"] and not tok["pron"]


def pronoun_kept(tok):
    return tok["lemma"].isalpha() and (not tok["stop"] or tok["pron"])


def stop_only(tok):
    """The filter the pronoun-free builders apply today: pronouns that are not
    stop-words slip through.  Used only to recognise the counted fault."""
    return tok["lemma"].isalpha() and not tok["stop"]


def tfmn_node(tok):
    return tok["pron"] or (tok["upos"] in CONTENT_UPOS and not tok["stop"] and tok["lemma"].isalpha())


def dependency_network(sentences, radius=RADIUS):
    """Content lemmas linked when within `radius` hops on the parse tree."""
    nodes, edges = set(), set()
    for sent in sentences:
        n = len(sent)
        heads = [(i, t["head"]) for i, t in enumerate(sent) if t["head"] is not None]
        pos = [i for i, t in enumerate(sent) if tfmn_node(t)]
        nodes.update(sent[i]["lemma"] for i in pos)
        if len(pos) < 2 or not heads:
            continue
        tree = np.zeros((n, n))
        for i, h in heads:
            tree[i, h] = tree[h, i] = 1.0
        dist = shortest_path(tree, directed=False, unweighted=True, indices=pos)[:, pos]
        for a_i, b_i in zip(*np.nonzero(dist <= radius)):
            a, b = sent[pos[a_i]]["lemma"], sent[pos[b_i]]["lemma"]
            if a < b:
                edges.add((a, b))
    return nodes, edges


def build_networks(sentences):
    """{builder: (nodes, edges)} for the seven builders, from the spec."""
    nets = {}
    for w in (2, 3, 4):
        nets[f"coocc_WS{w}"] = _cooccurrence(sentences, w, pronoun_free)
        nets[f"coocc_p_WS{w}"] = _cooccurrence(sentences, w, pronoun_kept)
    nets["TFMN"] = dependency_network(sentences)
    return nets


def leaky_pronoun_free(sentences, window):
    return _cooccurrence(sentences, window, stop_only)


class Graph:
    """Sorted node index, dense adjacency and csgraph component labels."""

    def __init__(self, nodes, edges):
        self.nodes = sorted(nodes)
        self.index = {n: i for i, n in enumerate(self.nodes)}
        n = len(self.nodes)
        self.adj = np.zeros((n, n))
        for u, v in edges:
            i, j = self.index[u], self.index[v]
            self.adj[i, j] = self.adj[j, i] = 1.0
        self.deg = self.adj.sum(axis=1)
        self.n_comp, self.labels = connected_components(csr_matrix(self.adj), directed=False)
        self.n_edges = len(edges)

    def component(self, i):
        return np.nonzero(self.labels == self.labels[i])[0]

    def largest_component(self):
        """Largest first, ties to the component holding the smallest lemma."""
        if not self.nodes:
            return np.zeros(0, dtype=int)
        sizes = np.bincount(self.labels)
        best = max(range(self.n_comp), key=lambda c: (sizes[c], -np.argmax(self.labels == c)))
        return np.nonzero(self.labels == best)[0]


def stationary_alpha(graph, seed):
    """N * deg(seed) / vol(component); N when the seed is absent or isolated."""
    n = float(len(graph.nodes))
    i = graph.index.get(seed)
    if i is None or graph.deg[i] == 0:
        return n
    return n * graph.deg[i] / graph.deg[graph.component(i)].sum()


def activation_cost(sentences, prompts, retention=0.5, tol=1e-9):
    """Predicted diffusion iterations over the seven networks and three prompts.

    Each run needs about log(N / tol) / -log(lambda) steps, where lambda is
    the second-largest eigenvalue modulus of the lazy walk on the seed's
    component.
    """
    total = 0.0
    for nodes, edges in build_networks(sentences).values():
        graph = Graph(nodes, edges)
        steps = {}
        for prompt in prompts:
            i = graph.index.get(prompt)
            if i is None or graph.deg[i] == 0:
                total += 1.0
                continue
            label = graph.labels[i]
            if label not in steps:
                comp = graph.component(i)
                a = graph.adj[np.ix_(comp, comp)]
                d = 1.0 / np.sqrt(graph.deg[comp])
                mu = np.linalg.eigvalsh(a * d[:, None] * d[None, :])
                lam = max(abs(retention + (1 - retention) * mu[0]),
                          retention + (1 - retention) * mu[-2], 1e-12)
                steps[label] = math.log(len(graph.nodes) / tol) / max(-math.log(lam), 1e-12)
            total += steps[label]
    return total


def structural(graph, damping):
    """The eight columns of features.csv, computed with csgraph and linear algebra."""
    n, m = len(graph.nodes), graph.n_edges
    a = graph.adj
    deg = graph.deg
    tri = np.einsum("ij,jk,ki->i", a, a, a) / 2.0
    ok = deg >= 2
    clustering = float(np.mean(2.0 * tri[ok] / (deg[ok] * (deg[ok] - 1)))) if ok.any() else 0.0
    lcc = graph.largest_component()
    k = lcc.size
    if k <= 1:
        aspl, diameter, central = 0.0, 0.0, 0.0
    else:
        sd = a[np.ix_(lcc, lcc)]
        dist = shortest_path(csr_matrix(sd), directed=False, unweighted=True)
        aspl = float(dist.sum() / (k * (k - 1)))
        diameter = float(dist.max())
        transition = sd / sd.sum(axis=0)[None, :]
        rank = np.linalg.solve(np.eye(k) - damping * transition, np.full(k, (1 - damping) / k))
        central = float(np.abs(rank - 1.0 / k).sum() / k)
    return {
        "n_nodes": float(n),
        "n_edges": float(m),
        "density": 2.0 * m / (n * (n - 1)) if n >= 2 else 0.0,
        "avg_local_clustering": clustering,
        "aspl_lcc": aspl,
        "diameter_lcc": diameter,
        "pagerank_centralisation": central,
        "n_components": float(graph.n_comp),
    }


def levenshtein(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def prompt_seed(sentences, prompt):
    """The node a prompt should seed: its exact lemma when the story has it,
    else the first token within edit distance 1 (inflection tolerance), else None."""
    tokens = [t for sent in sentences for t in sent]
    if any(t["lemma"] == prompt for t in tokens):
        return prompt
    for t in tokens:
        if levenshtein(t["lemma"], prompt) <= 1 or levenshtein(t["surface"].lower(), prompt) <= 1:
            return t["lemma"]
    return None
