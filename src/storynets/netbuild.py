"""Construction of the seven per-story network variants, and their graph forms.

Six sliding-window co-occurrence networks (window sizes 2-4, pronouns
kept or removed) and one dependency-radius network with valence
annotation, negation flipping and optional relation-file enrichment.
All networks are simple, undirected and unweighted.

Each network is stored as one `GraphIndex`, a sorted-node CSR form whose
order is the canonical order of every export.  Batched work
reads a `GraphBatch`: many indexes laid out as one block-diagonal CSR
graph (a disjoint union, as in PyTorch Geometric's mini-batches), each
block's rows and indices offset by its start.  A node's neighbours keep
their ascending order, so a sum over them adds the same terms in the same
order as on its own index.  Component labelling is one min-label
propagation over a batch; `GraphIndex.component` is the one-block case,
and `label_components` labels a whole stage's networks in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .affect import negation_marked_lemmas
from .textpipe import filter_content, open_text, read_tsv, tree_neighbourhoods

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


@dataclass(frozen=True, eq=False)
class GraphIndex:
    """Sorted-node CSR form of a network: the one form a `LexicalNetwork` stores.

    Node `i` is the i-th lemma in sorted order.  `rows` and `indices` list
    every (node, neighbour) entry in CSR order, each node's neighbours in
    ascending order, so sums over neighbours accumulate in a fixed order.
    `component` numbers the connected components largest first, ties
    broken by smallest member: label 0 is the largest connected component
    (LCC).
    """

    nodes: tuple[str, ...]
    position: dict[str, int]
    rows: np.ndarray
    indices: np.ndarray
    degree: np.ndarray

    @cached_property
    def component(self):
        return GraphBatch.of([self]).component_labels()

    @property
    def n_components(self):
        return int(self.component.max()) + 1 if self.nodes else 0

    def members(self, label):
        """Sorted positions of the nodes in one component."""
        return np.flatnonzero(self.component == label)

    def edge_pairs(self):
        """Each edge once as its (smaller, larger) node pair, in CSR order: sorted."""
        upper = self.rows < self.indices
        return [(self.nodes[i], self.nodes[j])
                for i, j in zip(self.rows[upper].tolist(), self.indices[upper].tolist())]

    def dense_adjacency(self):
        adj = np.zeros((len(self.nodes),) * 2, dtype=np.float32)
        adj[self.rows, self.indices] = 1.0
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


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """Many graphs as one block-diagonal CSR graph.

    Block `b` holds nodes `starts[b]` to `starts[b] + sizes[b]`, in the
    order of its own index.  `rows` and `indices` list every (node,
    neighbour) entry of every block, offset by the block's start and in
    CSR order, so each node's neighbours stay in ascending order.
    """

    starts: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    indices: np.ndarray
    degree: np.ndarray

    @classmethod
    def of(cls, indexes):
        """The disjoint union of `indexes`, one block each, in the given order."""
        sizes = np.array([len(index.nodes) for index in indexes], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        offsets = np.repeat(starts, [index.indices.size for index in indexes])
        return cls(
            starts=starts,
            sizes=sizes,
            rows=np.concatenate([index.rows for index in indexes] + [_NO_NODES]) + offsets,
            indices=np.concatenate([index.indices for index in indexes] + [_NO_NODES]) + offsets,
            degree=np.concatenate([index.degree for index in indexes] + [_NO_NODES]),
        )

    @property
    def n_nodes(self):
        return self.degree.size

    @cached_property
    def block(self):
        """The block of every node."""
        return np.repeat(np.arange(self.sizes.size), self.sizes)

    def neighbour_sum(self, values):
        """Per node, the sum of `values` over its neighbours in ascending order."""
        return np.bincount(self.rows, weights=values[self.indices], minlength=self.n_nodes)

    def induced(self, keep):
        """The batch on the nodes where the mask `keep` is true; blocks left empty
        are dropped.  In every block the kept nodes must be a union of whole
        components, so no kept node loses a neighbour."""
        sizes = np.bincount(self.block[keep], minlength=self.sizes.size)
        sizes = sizes[sizes > 0]
        renumber = np.cumsum(keep) - 1
        entries = keep[self.rows]
        return GraphBatch(
            starts=np.cumsum(sizes) - sizes,
            sizes=sizes,
            rows=renumber[self.rows[entries]],
            indices=renumber[self.indices[entries]],
            degree=self.degree[keep],
        )

    def component_labels(self):
        """Per node, its component's rank within its block: largest first, ties
        broken by smallest member, so label 0 is each block's LCC."""
        # Min-label propagation (with pointer jumping) leaves each node holding
        # its component's smallest position; no edge joins two blocks, so no
        # label crosses one.
        root, previous = np.arange(self.n_nodes), None
        while not np.array_equal(root, previous):
            previous = root.copy()
            np.minimum.at(root, self.rows, previous[self.indices])
            root = root[root]
        roots = np.unique(root)
        block = self.block[roots]
        order = np.lexsort((roots, -np.bincount(root)[roots], block))
        rank = np.empty(self.n_nodes, dtype=np.int64)
        # roots ascend, so each block's roots are one run of them
        rank[roots[order]] = np.arange(roots.size) - np.searchsorted(block, block[order])
        return rank[root]


_NO_NODES = np.zeros(0, dtype=np.int64)


def label_components(indexes):
    """Give every index its `component` labels from one propagation over the
    batch of those not yet labelled."""
    pending = [index for index in indexes if "component" not in vars(index)]
    if pending:
        batch = GraphBatch.of(pending)
        labels = batch.component_labels()
        for index, start, size in zip(pending, batch.starts.tolist(), batch.sizes.tolist()):
            vars(index)["component"] = labels[start : start + size]  # the cached_property's slot


class LexicalNetwork:
    """Simple undirected graph over lemma labels, stored as its `GraphIndex`.

    Built in one pass from any node iterable and any (a, b) pairs, each a
    2-item tuple or list, so a pair given reversed or repeated is one edge.
    `nodes` and `edges` (each edge as its sorted pair) are frozensets built
    from the index on first use.  `valence` holds per-node labels once
    `annotate_valence` has run (nodes absent from it count as neutral).
    """

    def __init__(self, nodes, edges, builder_tag="", valence=None):
        nodes = frozenset(nodes)
        for node in nodes:
            if not isinstance(node, str):
                raise ValueError(f"node {node!r} is not a string")
        nodes = tuple(sorted(nodes))
        position = {node: i for i, node in enumerate(nodes)}
        pairs = set()
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a pair")
            a, b = edge
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in position or b not in position:
                raise ValueError(f"edge {(a, b)!r} has an endpoint outside the node set")
            pairs.add((position[a], position[b]) if a < b else (position[b], position[a]))
        self.valence = {} if valence is None else valence
        for node, val in self.valence.items():
            if node not in position:
                raise ValueError(f"valence for {node!r}, which is not a node")
            if val not in VALENCES:
                raise ValueError(f"bad valence {val!r} for node {node!r}")
        pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
        order = np.lexsort((dst, src))
        degree = np.bincount(src, minlength=len(nodes))
        self.index = GraphIndex(nodes, position, src[order], dst[order], degree)
        self.builder_tag = builder_tag

    nodes = cached_property(lambda self: frozenset(self.index.nodes))
    edges = cached_property(lambda self: frozenset(self.index.edge_pairs()))

    @property
    def n_nodes(self):
        return len(self.index.nodes)

    @property
    def n_edges(self):
        return self.index.indices.size // 2

    def adjacency(self):
        adj = {node: set() for node in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def node_valence(self, node):
        return self.valence.get(node, "neutral")


@dataclass(frozen=True)
class RelationFile:
    """Synonym / hypernym lemma pairs supplied by the user."""

    triples: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        for triple in self.triples:
            self.triple(*triple)

    @staticmethod
    def triple(a, b, kind):
        """One relation as a triple; an unknown kind, an uppercase lemma or a
        self-pair is a ValueError."""
        if kind not in ("synonym", "hypernym"):
            raise ValueError(f"unknown relation kind {kind!r}")
        if a != a.lower() or b != b.lower():
            raise ValueError("relation lemmas must be lowercase")
        if a == b:
            raise ValueError(f"self-pair {a!r} in relation file")
        return a, b, kind


def load_relations(path):
    """TSV of lemma<TAB>lemma<TAB>kind rows, lowercased on load."""
    rows = read_tsv(
        open_text(path), 3, path, lambda *cells: RelationFile.triple(*map(str.lower, cells))
    )
    return RelationFile(tuple(rows))


def build_cooccurrence(sentences, window_size, keep_pronouns):
    """Link each token to the next window_size-1 tokens in its sentence.

    Sentences are re-filtered here (alphabetic, stop-words out, pronouns
    per `keep_pronouns`), so both full parses and pre-filtered streams are
    accepted.  Every surviving lemma becomes a node even when unlinked.
    The network's tag is `coocc_WS<n>`, or `coocc_p_WS<n>` with pronouns.
    """
    if window_size < 2:
        raise ValueError(f"window_size must be >= 2, got {window_size}")
    nodes = set()
    edges = set()
    for sent in sentences:
        lemmas = [t.lemma for t in filter_content(sent, keep_pronouns)]
        nodes.update(lemmas)
        for i in range(len(lemmas)):
            for j in range(i + 1, min(i + window_size, len(lemmas))):
                if lemmas[i] != lemmas[j]:
                    edges.add((lemmas[i], lemmas[j]))
    return LexicalNetwork(nodes, edges, f"coocc{'_p' if keep_pronouns else ''}_WS{window_size}")


def is_tfmn_node(token):
    """Content word (by UPOS) that is not a stop-word, or any pronoun."""
    if token.is_pronoun:
        return True
    return token.upos in CONTENT_UPOS and not token.is_stop and token.lemma.isalpha()


def build_dependency_network(sentences, radius=3):
    """Link content lemmas within `radius` hops on the syntax tree: the TFMN.

    Distances are measured over all tokens, so stop-words contribute path
    steps without ever becoming nodes.  Sentence graphs merge by lemma.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    nodes = set()
    edges = set()
    for sent in sentences:
        node_positions = [t.token_index for t in sent if is_tfmn_node(t)]
        lemmas = {pos: sent[pos].lemma for pos in node_positions}
        nodes.update(lemmas.values())
        for pos, near in zip(node_positions, tree_neighbourhoods(sent, node_positions, radius)):
            edges.update(
                (lemmas[pos], lemmas[other])
                for other in near
                if other in lemmas and lemmas[other] != lemmas[pos]
            )
    return LexicalNetwork(nodes, edges, "TFMN")


def annotate_valence(net, lexicon, occurrences=()):
    """Label every node positive/negative/neutral.

    `occurrences` is the story's (lemma, negated) stream; each occurrence
    votes +1/-1 from the lexicon's valence lists, with negated occurrences
    flipped to their opposite.  Majority wins, ties and unknown words are
    neutral.  Nodes never seen in the stream fall back to a single
    unnegated lexicon lookup.
    """
    votes = {node: 0 for node in net.index.nodes}
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
    for node in net.index.nodes:
        score = votes[node]
        if node not in seen:
            score = (node in lexicon.positive_words) - (node in lexicon.negative_words)
        if score > 0:
            valence[node] = "positive"
        elif score < 0:
            valence[node] = "negative"
        else:
            valence[node] = "neutral"
    return LexicalNetwork(net.index.nodes, net.index.edge_pairs(), net.builder_tag, valence)


def add_semantic_edges(net, relations):
    """Overlay relation-file edges whose both lemmas already are nodes."""
    added = {(a, b) for a, b, _kind in relations.triples if a in net.nodes and b in net.nodes}
    return LexicalNetwork(net.nodes, net.edges | added, net.builder_tag, dict(net.valence))


def build_all_variants(story, radius=3, relations=None, lexicon=None):
    """The six co-occurrence variants plus the TFMN for one story.

    The TFMN gains the relation-file edges when `relations` is given and
    valence labels when `lexicon` is.  Returns {builder_tag: network}.
    """
    nets = {}
    for window in (2, 3, 4):
        for keep in (False, True):
            net = build_cooccurrence(story.sentences, window, keep)
            nets[net.builder_tag] = net
    tfmn = build_dependency_network(story.sentences, radius=radius)
    if relations is not None:
        tfmn = add_semantic_edges(tfmn, relations)
    if lexicon is not None:
        tfmn = annotate_valence(tfmn, lexicon, negation_marked_lemmas(story.sentences))
    nets["TFMN"] = tfmn
    return nets


def edge_rows(net):
    """Header, then the edges as (source, target) in the index's canonical
    order, lexicographically sorted."""
    yield ("source", "target")
    yield from net.index.edge_pairs()


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
    for node in net.index.nodes:
        out.append(
            f'    <node id="{_xml_escape(node)}">'
            f'<data key="valence">{net.node_valence(node)}</data></node>'
        )
    for a, b in net.index.edge_pairs():
        out.append(f'    <edge source="{_xml_escape(a)}" target="{_xml_escape(b)}"/>')
    out.append("  </graph>")
    out.append("</graphml>")
    return "\n".join(out) + "\n"
