"""Graph and partition data model, plus exact category-graph computation.

The graph is stored in compressed adjacency form with sorted neighbor
lists, so edge-membership queries cost O(log deg) and walks get
constant-time neighbor access. Graphs and partitions are immutable and
safe to share between threads; every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidNode, UnknownCategory


def _lookup(table: np.ndarray, keys: np.ndarray):
    """Where each of the int64 ``keys`` sits in the ascending, distinct
    ``table``, and whether it is there: through a rank table over the
    table's span where that is no longer than table and keys together."""
    lo, hi = (table[0], int(table[-1])) if len(table) else (0, -1)
    span = hi - int(lo) + 1
    if span <= len(table) + keys.size:
        # read unsigned, the wrapped offset is in range exactly for the
        # keys lo..hi; where the ids run densely, it is the rank
        at = keys - lo
        if span == len(table):
            return at, at.view(np.uint64) < span
        rank = np.full(span + 1, -1)   # the last slot: every key outside
        rank[table - lo] = np.arange(len(table))
        np.minimum(at.view(np.uint64), span, out=at.view(np.uint64))
        at = rank[at]   # at int64 indices, which numpy gathers faster
        return at, at >= 0
    # by column, as numpy searches rising keys (a sorted edge list's u) faster
    at = np.searchsorted(table, keys.T).T
    return at, (at < len(table)) & (np.append(table, 0)[at] == keys)


def _distinct(nodes: np.ndarray) -> tuple:
    """``np.unique(nodes, return_index=True, return_inverse=True)``, through
    a table over the integer ids' span where it is at most twice their count."""
    n = len(nodes)
    if (not n or nodes.dtype.kind not in "iu"
            or int(nodes.max()) - int(nodes.min()) >= 2 * n):
        return np.unique(nodes, return_index=True, return_inverse=True)
    at = nodes - nodes.min()
    first = np.full(int(at.max()) + 1, n)
    np.minimum.at(first, at, np.arange(n))
    seen = first < n
    return nodes[first[seen]], first[seen], (np.cumsum(seen) - 1)[at]


def _ids(values, count: int, what: str, outside: str = "",
         error: type = InvalidNode) -> np.ndarray:
    """``values``, an id or an array of ids, as int64 once each is a whole
    number in 0..count-1, and not a lone boolean; else ``error``, formatted
    with the first other's value ``v`` and flat index ``i``: ``what`` "is not
    a whole number", or ``outside`` (``what`` "outside 0..{last}" if "")."""
    raw = np.asarray(values)
    ids = raw if raw.dtype.kind in "iubf" else raw.astype(float)
    # integer and boolean ids are whole, bar a lone boolean, with no float copy
    whole = (ids == np.trunc(ids) if ids.dtype.kind == "f" else
             np.full(ids.shape, not isinstance(values, (bool, np.bool_))))
    bad = np.flatnonzero(~whole | (ids < 0) | (ids >= count))
    if len(bad):
        rule = ((outside or what + " outside 0..{last}") if whole.flat[bad[0]]
                else what + " is not a whole number")
        raise error(rule.format(v=raw.flat[bad[0]], i=bad[0], last=count - 1))
    return ids.astype(np.int64, copy=False)


_CHUNK = 2**16   # CSR entries Graph.validate checks at a time


def _csr_rules(indptr: np.ndarray, indices: np.ndarray) -> None:
    """The O(N+E) shape rules of a CSR on N = ``len(indptr) - 1`` nodes:
    ``indptr`` rises from 0 to ``len(indices)``, each id lies in 0..N-1
    and the entries, each edge's two, are even in number; else ValueError."""
    if (not len(indptr) or indptr[0] != 0 or indptr[-1] != len(indices)
            or np.any(indptr[:-1] > indptr[1:])):
        raise ValueError("malformed indptr")
    if indices.size and (indices.min() < 0 or indices.max() >= len(indptr) - 1):
        raise ValueError("neighbor id out of range")
    if len(indices) % 2:
        raise ValueError("degree sum must equal twice the edge count")


def _scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest value in
    [0.5, 1): exact above subnormals, so a ratio of sums of the scaled
    values is that of ``x``, and no such sum overflows."""
    return np.ldexp(x, -np.frexp(x.max(initial=0.0))[1])


def _cross(cat_of: np.ndarray, edges: np.ndarray, c: int) -> tuple:
    """The edges (u, v) whose ends ``cat_of`` puts in two categories, in
    order, as (u, v, a * C + b) with a < b their categories."""
    u, v = edges[:, 0], edges[:, 1]
    cu, cv = cat_of[u], cat_of[v]
    cross = cu != cv
    pair = np.minimum(cu, cv) * c + np.maximum(cu, cv)
    return u[cross], v[cross], pair[cross]


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on dense node ids 0..N-1.

    ``indptr``/``indices`` follow the usual CSR convention: the neighbors
    of node v are ``indices[indptr[v]:indptr[v+1]]``, sorted ascending.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @staticmethod
    def from_edges(node_count: int, edges) -> "Graph":
        """Build a graph from an iterable/array of (u, v) pairs.

        Raises InvalidNode on ids ``_ids`` refuses and ValueError on
        self-loops or duplicate edges.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be (m, 2) pairs")
        edges = _ids(edges, node_count, "edge endpoint {v}",
                     "edge endpoint outside 0..{last}")
        if np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loops are not allowed")
        # symmetrize: each undirected edge appears in both endpoint rows,
        # ordered by one head * N + tail key, which a second copy repeats
        m = len(edges)
        keys = np.empty(2 * m, dtype=np.int64)
        np.multiply(edges[:, 0], node_count, out=keys[:m])
        np.multiply(edges[:, 1], node_count, out=keys[m:])
        keys[:m] += edges[:, 1]
        keys[m:] += edges[:, 0]
        keys.sort()
        degrees = np.bincount(edges.ravel(), minlength=node_count)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        # each sorted key's tail, in place
        np.remainder(keys, node_count, out=keys)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(degrees)
        return Graph(indptr=indptr, indices=keys)

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        v = self._check_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        v = self._check_node(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge-membership test by binary search in u's neighbor row."""
        u, v = self._check_node(u), self._check_node(v)
        row = self.indices[self.indptr[u]:self.indptr[u + 1]]
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """All edges as an (|E|, 2) array with u < v per row."""
        heads = np.repeat(np.arange(self.node_count, dtype=np.int64),
                          self.degrees)
        mask = heads < self.indices
        return np.column_stack([heads[mask], self.indices[mask]])

    @cached_property
    def adjacency_lists(self) -> list[list[int]]:
        """Plain-list adjacency. No sampler reads it; the benchmark's
        tracer (bench/spans.py) wraps it by name."""
        idx = self.indices.tolist()
        ptr = self.indptr.tolist()
        return [idx[ptr[v]:ptr[v + 1]] for v in range(self.node_count)]

    @cached_property
    def is_connected(self) -> bool:
        """Hook-and-shortcut over the u < v edges: each root takes the
        smallest root across its edges, then pointers jump to roots. Ids are
        ``np.min_scalar_type(N - 1)``; only the answer is cached."""
        ids = np.min_scalar_type(self.node_count - 1)
        heads = np.repeat(np.arange(self.node_count, dtype=ids), self.degrees)
        upper = heads < self.indices
        u, v = heads[upper], self.indices.astype(ids)[upper]
        del heads, upper
        parent = np.arange(self.node_count, dtype=ids)
        while u.size:
            # an edge inside one tree stays inside it
            cross = parent[u] != parent[v]
            u, v = u[cross], v[cross]
            pu, pv = parent[u], parent[v]
            np.minimum.at(parent, pu, pv)
            np.minimum.at(parent, pv, pu)
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
        return bool(np.all(parent == 0))

    def validate(self) -> None:
        """Check structural invariants, ``_csr_rules`` first, then each row,
        then each entry's reverse; raises ValueError naming the first
        violation. Entries are checked ``_CHUNK`` at a time, so that a graph
        that passes makes no array as long as ``indices``."""
        _csr_rules(self.indptr, self.indices)
        n, indptr = self.node_count, self.indptr
        indices = self.indices.astype(np.int64, copy=False)   # so no key overflows
        seen, upper = indptr[:-1].copy(), 0   # where each row's next lower entry is
        symmetric = True
        for lo in range(0, len(indices), _CHUNK):
            hi = min(lo + _CHUNK, len(indices))
            first, last = np.searchsorted(indptr, [lo, hi - 1], "right") - 1
            heads = np.repeat(np.arange(first, last + 1), np.diff(
                np.clip(indptr[first:last + 2], lo, hi)))
            tails = indices[lo:hi]
            # a self-loop, or a step within one row that does not rise
            bad = heads == tails
            bad[1:] |= (heads[1:] == heads[:-1]) & (tails[1:] <= tails[:-1])
            bad[0] |= indptr[first] < lo and indices[lo - 1] >= tails[0]
            if bad.any():
                v = heads[np.argmax(bad)]
                if np.any(indices[indptr[v]:indptr[v + 1]] == v):
                    raise ValueError(f"self-loop at node {v}")
                raise ValueError(f"neighbor row of {v} not sorted/unique")
            # each t's entries (h, t), h < t rising, take the next places of
            # row t, which must hold h: as many lower entries as upper ones
            # pair each with its reverse
            up = heads < tails
            t, h = np.divmod(np.sort(tails[up] * n + heads[up]), n)
            at = np.arange(len(t))
            runs = np.maximum.accumulate(np.where(np.diff(t, prepend=-1) != 0, at, 0))
            place, upper = seen[t] + at - runs, upper + len(t)
            np.add.at(seen, t, 1)
            symmetric &= np.array_equal(indices.take(place, mode="clip"), h)
        if not (symmetric and 2 * upper == len(indices) and np.all(seen <= indptr[1:])):
            # the first entry whose reverse key is not a key
            heads = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
            fwd, rev = heads * n + indices, indices * n + heads
            tail, head = divmod(int(rev[np.argmin(_lookup(fwd, rev)[1])]), n)
            raise ValueError(f"missing reverse adjacency for ({head}, {tail})")

    def _check_node(self, v) -> int:
        return int(_ids(v, self.node_count, "node {v}"))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __repr__(self) -> str:
        return f"Graph(N={self.node_count}, E={self.edge_count})"


@dataclass(frozen=True, eq=False)
class CategoryPartition:
    """Total assignment of every node to exactly one category.

    ``labels[v]`` is the category id of node v; ``names[c]`` its display
    name. Category ids are dense 0..C-1.
    """

    labels: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", _ids(
            self.labels, len(self.names), "label {v}", "label outside 0..C-1",
            UnknownCategory))

    @property
    def node_count(self) -> int:
        return len(self.labels)

    @property
    def num_categories(self) -> int:
        return len(self.names)

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_categories)

    def labels_for(self, g: Graph) -> np.ndarray:
        if self.node_count != g.node_count:
            raise ValueError("partition and graph disagree on node count")
        return self.labels

    def label_of(self, v: int) -> int:
        return int(self.labels[_ids(v, len(self.labels), "node {v}")])

    def __eq__(self, other) -> bool:
        return (isinstance(other, CategoryPartition)
                and self.names == other.names
                and np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        return f"CategoryPartition(N={self.node_count}, C={self.num_categories})"


@dataclass(frozen=True)
class CategoryGraph:
    """Exact coarse-grained graph: category sizes plus inter-category
    cut counts and the normalized connection weights.

    A pair (A, B), A < B, is stored iff its cut is nonempty, and
    weight(A, B) = cut(A, B) / (|A| * |B|), the chance that a uniformly
    chosen member of A and a uniformly chosen member of B are adjacent.
    Intra-category pairs carry no weight by definition.
    """

    sizes: dict[int, int]
    cut_counts: dict[tuple[int, int], int]
    weights: dict[tuple[int, int], float]


def exact_category_graph(g: Graph, part: CategoryPartition) -> CategoryGraph:
    """Ground-truth category graph from the fully known graph.

    Serves as the oracle all estimators are evaluated against.
    """
    c, labels = part.num_categories, part.labels_for(g)
    sizes = {cid: int(s) for cid, s in enumerate(part.sizes)}
    # each edge twice over the CSR entries, once in its a < b cell
    flat = np.bincount(np.repeat(labels * c, g.degrees) + labels[g.indices], minlength=c * c)
    cuts = {(int(key) // c, int(key) % c): int(flat[key])
            for key in np.flatnonzero(np.triu(flat.reshape(c, c), 1))}
    weights = {(a, b): cut / (sizes[a] * sizes[b])
               for (a, b), cut in cuts.items()}
    return CategoryGraph(sizes=sizes, cut_counts=cuts, weights=weights)
