"""Graph and partition data model, plus exact category-graph computation.

The graph is stored in compressed adjacency form with sorted neighbor
lists, so edge-membership queries cost O(log deg) and walks get
constant-time neighbor access. Graphs and partitions are immutable and
safe to share between threads; every function here is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import (
    EmptyCategory,
    InvalidNode,
    SelfPairNotSupported,
    UnknownCategory,
)


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

        Raises InvalidNode on out-of-range ids and ValueError on
        self-loops or duplicate edges.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be (m, 2) pairs")
        if edges.size and (edges.min() < 0 or edges.max() >= node_count):
            raise InvalidNode(f"edge endpoint outside 0..{node_count - 1}")
        # symmetrize: each undirected edge appears in both endpoint rows,
        # ordered by one head * N + tail key, which a second copy repeats
        keys = np.concatenate([edges[:, 0], edges[:, 1]])
        keys *= node_count
        keys += np.concatenate([edges[:, 1], edges[:, 0]])
        keys.sort()
        heads, tails = np.divmod(keys, node_count)
        if np.any(heads == tails):
            raise ValueError("self-loops are not allowed")
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges are not allowed")
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(heads, minlength=node_count))
        return Graph(indptr=indptr, indices=tails)

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
        self._check_node(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        self._check_node(v)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge-membership test by binary search in u's neighbor row."""
        self._check_node(u)
        self._check_node(v)
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
        smallest root across its edges, then pointers jump to roots."""
        u, v = self.edge_array.T
        parent = np.arange(self.node_count, dtype=np.int64)
        while u.size:
            pu, pv = parent[u], parent[v]
            # an edge inside one tree stays inside it
            cross = pu != pv
            u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
            np.minimum.at(parent, pu, pv)
            np.minimum.at(parent, pv, pu)
            while True:
                grand = parent[parent]
                if np.array_equal(grand, parent):
                    break
                parent = grand
        return bool(np.all(parent == 0))

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        n = self.node_count
        if (len(self.indptr) != n + 1 or self.indptr[0] != 0
                or self.indptr[-1] != len(self.indices)
                or np.any(self.degrees < 0)):
            raise ValueError("malformed indptr")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("neighbor id out of range")
        if int(self.degrees.sum()) != 2 * self.edge_count:
            raise ValueError("degree sum must equal twice the edge count")
        heads = np.repeat(np.arange(n, dtype=np.int64), self.degrees)
        loops = heads[heads == self.indices]
        # a step within one row that does not increase
        same_row = heads[1:] == heads[:-1]
        unsorted = heads[1:][same_row & (np.diff(self.indices) <= 0)]
        if loops.size or unsorted.size:
            v = min(loops[:1].tolist() + unsorted[:1].tolist())
            if loops.size and loops[0] == v:
                raise ValueError(f"self-loop at node {v}")
            raise ValueError(f"neighbor row of {v} not sorted/unique")
        # symmetry: the (head, tail) keys, already ascending, must equal
        # the sorted (tail, head) keys
        fwd = heads * n + self.indices
        rev = self.indices * n + heads
        if not np.array_equal(fwd, np.sort(rev)):
            at = np.minimum(np.searchsorted(fwd, rev), len(fwd) - 1)
            tail, head = divmod(int(rev[np.argmax(fwd[at] != rev)]), n)
            raise ValueError(f"missing reverse adjacency for ({head}, {tail})")

    def _check_node(self, v: int) -> None:
        if not 0 <= v < self.node_count:
            raise InvalidNode(f"node {v} outside 0..{self.node_count - 1}")

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
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.names)):
            raise UnknownCategory("label outside 0..C-1")

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
        if not 0 <= v < len(self.labels):
            raise InvalidNode(f"node {v} outside 0..{len(self.labels) - 1}")
        return int(self.labels[v])

    def members(self, category: int) -> np.ndarray:
        self._check_category(category)
        return np.flatnonzero(self.labels == category)

    def _check_category(self, category: int) -> None:
        if not 0 <= category < self.num_categories:
            raise UnknownCategory(
                f"category {category} outside 0..{self.num_categories - 1}")

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


def volume(g: Graph, nodes: Iterable[int]) -> int:
    """Sum of degrees over a set of nodes."""
    arr = np.asarray(list(nodes) if not isinstance(nodes, np.ndarray) else nodes,
                     dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= g.node_count):
        raise InvalidNode("node id out of range")
    return int(g.degrees[arr].sum())


def relative_fractions(g: Graph, part: CategoryPartition,
                       category: int) -> tuple[float, float]:
    """Relative size of a category by node count and by volume.

    Returns (|A|/N, vol(A)/vol(V)); both lie in [0, 1].
    """
    part._check_category(category)
    members = part.members(category)
    f_count = len(members) / g.node_count
    total_vol = int(g.degrees.sum())
    f_vol = (volume(g, members) / total_vol) if total_vol else 0.0
    return f_count, f_vol


def edge_cut(g: Graph, part: CategoryPartition, a: int, b: int) -> int:
    """Number of edges with one endpoint in category a, the other in b."""
    if a == b:
        raise SelfPairNotSupported("edge cut is defined for distinct categories")
    part._check_category(a)
    part._check_category(b)
    return exact_category_graph(g, part).cut_counts.get((min(a, b), max(a, b)), 0)


def mean_degree(g: Graph, part: CategoryPartition | None = None,
                category: int | None = None) -> float:
    """Average node degree in one category, or over the whole graph
    when ``category`` is None."""
    if category is None:
        if g.node_count == 0:
            raise EmptyCategory("graph has no nodes")
        return 2 * g.edge_count / g.node_count
    if part is None:
        raise ValueError("category given without a partition")
    part._check_category(category)
    members = part.members(category)
    if members.size == 0:
        raise EmptyCategory(f"category {category} has no members")
    return int(g.degrees[members].sum()) / len(members)


def exact_category_graph(g: Graph, part: CategoryPartition) -> CategoryGraph:
    """Ground-truth category graph from the fully known graph.

    Serves as the oracle all estimators are evaluated against.
    """
    labels = part.labels_for(g)
    c = part.num_categories
    sizes = {cid: int(s) for cid, s in enumerate(part.sizes)}
    la, lb = labels[g.edge_array].T
    cross = la != lb
    lo = np.minimum(la[cross], lb[cross])
    hi = np.maximum(la[cross], lb[cross])
    flat = np.bincount(lo * c + hi, minlength=c * c)
    cuts = {(int(key) // c, int(key) % c): int(flat[key])
            for key in np.flatnonzero(flat)}
    weights = {(a, b): cut / (sizes[a] * sizes[b])
               for (a, b), cut in cuts.items()}
    return CategoryGraph(sizes=sizes, cut_counts=cuts, weights=weights)
