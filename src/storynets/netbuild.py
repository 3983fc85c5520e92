"""Construction of the seven per-story network variants.

Six sliding-window co-occurrence networks (window sizes 2-4, pronouns
kept or removed) and one dependency-radius network with valence
annotation, negation flipping and optional relation-file enrichment.
All networks are simple, undirected and unweighted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputFormatError, ParseIntegrityError
from .textpipe import filter_content

BUILDER_TAGS = (
    "coocc_WS2",
    "coocc_WS3",
    "coocc_WS4",
    "coocc_p_WS2",
    "coocc_p_WS3",
    "coocc_p_WS4",
    "TFMN",
)

CONTENT_UPOS = frozenset({"NOUN", "PROPN", "VERB", "ADJ", "ADV"})

VALENCES = ("positive", "negative", "neutral")


def _edge(a, b):
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Sorted-node CSR form of a network, read by metrics, PageRank and activation.

    Node `i` is the i-th lemma in sorted order and row `i` of `indptr` /
    `indices` lists its neighbours in ascending order, so sums over
    neighbours accumulate in a fixed order.  `component` numbers the
    connected components largest first, ties broken by smallest member:
    label 0 is the largest connected component (LCC).
    """

    nodes: tuple[str, ...]
    position: dict[str, int]
    indptr: np.ndarray
    indices: np.ndarray
    degree: np.ndarray

    @cached_property
    def _rows(self):
        return np.repeat(np.arange(len(self.nodes)), self.degree)

    @cached_property
    def component(self):
        # Min-label propagation leaves each node holding its component's
        # smallest position; components are then ranked by (-size, that).
        root, previous = np.arange(len(self.nodes)), None
        while not np.array_equal(root, previous):
            previous = root.copy()
            np.minimum.at(root, self._rows, previous[self.indices])
        roots = np.unique(root)
        rank = np.empty(len(self.nodes), dtype=np.int64)
        rank[roots[np.lexsort((roots, -np.bincount(root)[roots]))]] = np.arange(roots.size)
        return rank[root]

    @property
    def n_components(self):
        return int(self.component.max()) + 1 if self.nodes else 0

    def members(self, label):
        """Sorted positions of the nodes in one component."""
        return np.flatnonzero(self.component == label)

    def neighbour_sum(self, values):
        """Per node, the sum of `values` over its neighbours in ascending order."""
        return np.bincount(self._rows, weights=values[self.indices], minlength=len(self.nodes))

    def dense_adjacency(self):
        adj = np.zeros((len(self.nodes),) * 2, dtype=np.float32)
        adj[self._rows, self.indices] = 1.0
        return adj

    @cached_property
    def lcc_path_lengths(self):
        """(Sum of distances over ordered LCC node pairs, LCC diameter).

        One breadth-first pass from every LCC node at once, with a dense
        boolean frontier; only the two integers are kept.
        """
        lcc = self.members(0)
        reached = np.zeros((lcc.size, len(self.nodes)), dtype=bool)
        reached[np.arange(lcc.size), lcc] = True
        frontier, adj = reached.copy(), self.dense_adjacency()
        total = diameter = 0
        while True:
            frontier = (frontier @ adj > 0) & ~reached
            if not frontier.any():
                return total, diameter
            diameter += 1
            total += diameter * int(frontier.sum())
            reached |= frontier


@dataclass(frozen=True)
class LexicalNetwork:
    """Simple undirected graph over lemma labels.

    Edges are canonical sorted pairs; `valence` holds per-node labels once
    `annotate_valence` has run (nodes absent from it count as neutral).
    """

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    builder_tag: str = ""
    valence: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a > b:
                raise ValueError(f"edge {(a, b)!r} not in canonical order")
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge {(a, b)!r} has an endpoint outside the node set")
        for node, val in self.valence.items():
            if val not in VALENCES:
                raise ValueError(f"bad valence {val!r} for node {node!r}")

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edges)

    @cached_property
    def index(self):
        """The network's `GraphIndex`, built on first use and kept."""
        nodes = tuple(sorted(self.nodes))
        position = {node: i for i, node in enumerate(nodes)}
        pairs = np.array(
            [(position[a], position[b]) for a, b in self.edges], dtype=np.int64
        ).reshape(-1, 2)
        src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
        degree = np.bincount(src, minlength=len(nodes))
        indptr = np.concatenate([[0], np.cumsum(degree)])
        return GraphIndex(nodes, position, indptr, dst[np.lexsort((dst, src))], degree)

    def adjacency(self):
        adj = {node: set() for node in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def node_valence(self, node):
        return self.valence.get(node, "neutral")


def make_network(nodes, edges, builder_tag="", valence=None):
    canon = frozenset(_edge(a, b) for a, b in edges)
    return LexicalNetwork(
        nodes=frozenset(nodes),
        edges=canon,
        builder_tag=builder_tag,
        valence=dict(valence or {}),
    )


@dataclass(frozen=True)
class RelationFile:
    """Synonym / hypernym lemma pairs supplied by the user."""

    triples: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        for a, b, kind in self.triples:
            if kind not in ("synonym", "hypernym"):
                raise ValueError(f"unknown relation kind {kind!r}")
            if a != a.lower() or b != b.lower():
                raise ValueError("relation lemmas must be lowercase")
            if a == b:
                raise ValueError(f"self-pair {a!r} in relation file")


def load_relations(path):
    triples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise InputFormatError(
                    f"{path}: line {lineno}: expected 3 tab-separated columns, got {len(parts)}"
                )
            a, b, kind = (p.strip().lower() for p in parts)
            if kind not in ("synonym", "hypernym"):
                raise InputFormatError(f"{path}: line {lineno}: unknown relation kind {kind!r}")
            if a == b:
                raise InputFormatError(f"{path}: line {lineno}: self-pair {a!r}")
            triples.append((a, b, kind))
    return RelationFile(tuple(triples))


def build_cooccurrence(sentences, window_size, keep_pronouns, builder_tag=None):
    """Link each token to the next window_size-1 tokens in its sentence.

    Sentences are re-filtered here (alphabetic, stop-words out, pronouns
    per `keep_pronouns`), so both full parses and pre-filtered streams are
    accepted.  Every surviving lemma becomes a node even when unlinked.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    if builder_tag is None:
        builder_tag = f"coocc{'_p' if keep_pronouns else ''}_WS{window_size}"
    nodes = set()
    edges = set()
    for sent in sentences:
        lemmas = [t.lemma for t in filter_content(sent, keep_pronouns)]
        nodes.update(lemmas)
        for i in range(len(lemmas)):
            for j in range(i + 1, min(i + window_size, len(lemmas))):
                if lemmas[i] != lemmas[j]:
                    edges.add(_edge(lemmas[i], lemmas[j]))
    return make_network(nodes, edges, builder_tag)


def _tree_adjacency(sentence):
    """Undirected adjacency of the dependency tree over all tokens.

    Raises ParseIntegrityError on cyclic head chains.  Multiple roots are
    tolerated (forest): cross-tree distances are infinite.
    """
    n = len(sentence)
    adj = [[] for _ in range(n)]
    for tok in sentence:
        head = tok.head_index
        if head is None:
            continue
        if not 0 <= head < n:
            raise ParseIntegrityError(
                f"token {tok.token_index} points at head {head} outside the sentence"
            )
        adj[tok.token_index].append(head)
        adj[head].append(tok.token_index)
    for start in range(n):
        seen = set()
        cur = start
        while sentence[cur].head_index is not None:
            if cur in seen:
                raise ParseIntegrityError(
                    f"cyclic head structure through token {cur}"
                )
            seen.add(cur)
            cur = sentence[cur].head_index
    return adj


def _tree_distances_within(adj, source, radius):
    """BFS distances up to `radius` steps from `source` over the tree."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        if dist[cur] == radius:
            continue
        for nxt in adj[cur]:
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def is_tfmn_node(token):
    """Content word (by UPOS) that is not a stop-word, or any pronoun."""
    if token.is_pronoun:
        return True
    return token.upos in CONTENT_UPOS and not token.is_stop and token.lemma.isalpha()


def build_dependency_network(sentences, radius=3, builder_tag="TFMN"):
    """Link content lemmas within `radius` hops on the syntax tree.

    Distances are measured over all tokens, so stop-words contribute path
    steps without ever becoming nodes.  Sentence graphs merge by lemma.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    nodes = set()
    edges = set()
    for sent in sentences:
        adj = _tree_adjacency(sent)
        node_positions = [t.token_index for t in sent if is_tfmn_node(t)]
        node_set = set(node_positions)
        for tok in sent:
            if tok.token_index in node_set:
                nodes.add(tok.lemma)
        for pos in node_positions:
            dist = _tree_distances_within(adj, pos, radius)
            for other, d in dist.items():
                if other in node_set and other != pos and d <= radius:
                    a = sent[pos].lemma
                    b = sent[other].lemma
                    if a != b:
                        edges.add(_edge(a, b))
    return make_network(nodes, edges, builder_tag)


def annotate_valence(net, lexicon, occurrences=()):
    """Label every node positive/negative/neutral.

    `occurrences` is the story's (lemma, negated) stream; each occurrence
    votes +1/-1 from the lexicon's valence lists, with negated occurrences
    flipped to their opposite.  Majority wins, ties and unknown words are
    neutral.  Nodes never seen in the stream fall back to a single
    unnegated lexicon lookup.
    """
    votes = {node: 0 for node in net.nodes}
    seen = set()
    for lemma, negated in occurrences:
        if lemma not in votes:
            continue
        vote = 0
        if lemma in lexicon.positive_words:
            vote += 1
        if lemma in lexicon.negative_words:
            vote -= 1
        if negated:
            vote = -vote
        votes[lemma] += vote
        seen.add(lemma)
    valence = {}
    for node in net.nodes:
        score = votes[node]
        if node not in seen:
            score = (node in lexicon.positive_words) - (node in lexicon.negative_words)
        if score > 0:
            valence[node] = "positive"
        elif score < 0:
            valence[node] = "negative"
        else:
            valence[node] = "neutral"
    return LexicalNetwork(net.nodes, net.edges, net.builder_tag, valence)


def add_semantic_edges(net, relations):
    """Overlay relation-file edges whose both lemmas already are nodes."""
    edges = set(net.edges)
    for a, b, _kind in relations.triples:
        if a in net.nodes and b in net.nodes:
            edges.add(_edge(a, b))
    return LexicalNetwork(net.nodes, frozenset(edges), net.builder_tag, dict(net.valence))


def build_all_variants(story, radius=3, relations=None, lexicon=None, enrich_tfmn=False,
                       negated_occurrences=None):
    """The six co-occurrence variants plus the TFMN for one story.

    Valence is annotated on the TFMN when a lexicon is supplied; relation
    enrichment is off unless requested.  Returns {builder_tag: network}.
    """
    nets = {}
    for window in (2, 3, 4):
        for keep in (False, True):
            tag = f"coocc{'_p' if keep else ''}_WS{window}"
            nets[tag] = build_cooccurrence(story.sentences, window, keep, tag)
    tfmn = build_dependency_network(story.sentences, radius=radius)
    if relations is not None and enrich_tfmn:
        tfmn = add_semantic_edges(tfmn, relations)
    if lexicon is not None:
        if negated_occurrences is None:
            from .affect import negation_marked_lemmas

            negated_occurrences = negation_marked_lemmas(story.sentences)
        tfmn = annotate_valence(tfmn, lexicon, negated_occurrences)
    nets["TFMN"] = tfmn
    return nets


def edge_rows(net):
    """Header, then the edges as (source, target) in canonical pair order,
    lexicographically sorted."""
    yield ("source", "target")
    yield from sorted(net.edges)


def _xml_escape(s):
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def graphml(net):
    """Minimal GraphML with a string `valence` attribute per node."""
    out = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="valence" for="node" attr.name="valence" attr.type="string"/>',
        '  <graph edgedefault="undirected">',
    ]
    for node in sorted(net.nodes):
        out.append(
            f'    <node id="{_xml_escape(node)}">'
            f'<data key="valence">{net.node_valence(node)}</data></node>'
        )
    for a, b in sorted(net.edges):
        out.append(f'    <edge source="{_xml_escape(a)}" target="{_xml_escape(b)}"/>')
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"
