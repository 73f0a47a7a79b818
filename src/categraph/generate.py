"""Synthetic benchmark graphs with planted category structure.

The model: nodes in each category first form a random k-regular graph,
then a fixed number of random edges (default N*k/10) is added between
nodes of different categories, and finally the category labels of a
fraction ``alpha`` of nodes are randomly permuted among themselves.
alpha=0 keeps labels aligned with the planted communities; alpha=1
decouples them from the structure entirely while preserving every
category size exactly.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    GenerationFailed,
    InfeasibleRegularGraph,
    InvalidParameter,
    TooManyEdgesRequested,
    check_count,
)
from .graph import CategoryPartition, Graph, _lookup

# Benchmark default: ten categories on the 1-2-5 decade ladder, 88,850
# nodes in total.
DEFAULT_CATEGORY_SIZES = (50, 100, 200, 500, 1000, 2000,
                          5000, 10000, 20000, 50000)

_MAX_REGULAR_ATTEMPTS = 100


def _check_model(sizes, k: int, inter_edge_count: int | None = None) -> None:
    """The model's one parameter check: InvalidParameter for k, a size or
    an edge count that breaks its count rule, or sizes whose int64 labels
    numpy could not address, else InfeasibleRegularGraph."""
    k = check_count(k, "k", "degree k")
    if inter_edge_count is not None:
        check_count(inter_edge_count, "inter_edge_count",
                    "inter-category edge count")
    for size in sizes:
        s = check_count(size, "category_sizes", "category size")
        if s <= k:
            raise InfeasibleRegularGraph(
                f"category size {s} must exceed degree k={k}")
        if (s * k) % 2 != 0:
            raise InfeasibleRegularGraph(
                f"size*k must be even (size={s}, k={k})")
    if (total := sum(map(int, sizes))) > np.iinfo(np.intp).max // 8:
        raise InvalidParameter(
            f"category sizes must total at most 2**60 - 1, got {total}")


@dataclass(frozen=True)
class SyntheticParams:
    """Parameters of the synthetic model.

    ``inter_edge_count`` defaults to N*k/10 (floor). ``alpha`` is the
    fraction of nodes whose labels get permuted.
    """

    category_sizes: tuple[int, ...]
    k: int
    inter_edge_count: int | None = None
    alpha: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        sizes = tuple(self.category_sizes)
        if not sizes:
            raise InfeasibleRegularGraph("need at least one category")
        _check_model(sizes, self.k, self.inter_edge_count)
        object.__setattr__(self, "category_sizes", tuple(map(int, sizes)))
        if self.seed is not None:
            check_count(self.seed, "seed")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def node_count(self) -> int:
        return sum(self.category_sizes)

    def resolved_inter_edges(self) -> int:
        if self.inter_edge_count is not None:
            return int(self.inter_edge_count)
        return self.node_count * self.k // 10


def _merge(sorted_keys: np.ndarray, new_sorted: np.ndarray) -> np.ndarray:
    return np.insert(sorted_keys, np.searchsorted(sorted_keys, new_sorted),
                     new_sorted)


def _first_occurrences(keys: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Where each distinct key of ``keys[ok]`` first occurs, by key."""
    idx = np.flatnonzero(ok)
    return idx[np.unique(keys[idx], return_index=True)[1]]


def _suitable(accepted: np.ndarray, stub_nodes: np.ndarray, size: int) -> bool:
    # Generation can still finish iff some pair of the (non-empty) leftover
    # stub nodes is non-adjacent, as one is if there are more pairs than edges.
    distinct = np.unique(stub_nodes)
    if (d := len(distinct)) * (d - 1) // 2 > len(accepted):
        return True
    iu, iv = np.triu_indices(d, k=1)
    return not _lookup(accepted, distinct[iu] * size + distinct[iv])[1].all()


def _regular_edges_once(size: int, k: int, rng: np.random.Generator):
    """One pairing-model attempt at a simple k-regular edge set.

    Pairs stubs uniformly, accepting the first copy of each new edge;
    colliding stubs (self-pairs, duplicate edges) are re-paired until none
    remain or no valid pairing can complete. Returns the sorted (u, v)
    rows, or None on failure.
    """
    accepted = np.empty(0, dtype=np.int64)
    stubs = np.repeat(np.arange(size, dtype=np.int64), k)
    while stubs.size:
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        a, b = np.minimum(u, v), np.maximum(u, v)
        keys = a * size + b
        firsts = _first_occurrences(keys, (a != b) & ~_lookup(accepted, keys)[1])
        accepted = _merge(accepted, keys[firsts])
        stubs = np.delete(np.column_stack([a, b]), firsts, axis=0).ravel()
        if stubs.size and not _suitable(accepted, stubs, size):
            return None
    return np.column_stack(np.divmod(accepted, size))


def gen_intra_regular(sizes: Sequence[int], k: int,
                      rng: np.random.Generator) -> tuple[Graph, CategoryPartition]:
    """Disjoint random k-regular graphs, one per category.

    Node ids are assigned in contiguous blocks, category by category.
    """
    _check_model(sizes, k)
    sizes = list(map(int, sizes))
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    all_edges = [np.empty((0, 2), dtype=np.int64)]
    offset = 0
    for size in sizes:
        for _ in range(_MAX_REGULAR_ATTEMPTS):
            edges = _regular_edges_once(size, k, rng)
            if edges is not None:
                break
        else:
            raise GenerationFailed(
                f"no simple {k}-regular graph on {size} nodes after "
                f"{_MAX_REGULAR_ATTEMPTS} attempts")
        all_edges.append(edges + offset)
        offset += size
    g = Graph.from_edges(offset, np.concatenate(all_edges))
    names = tuple(f"C{i}" for i in range(len(sizes)))
    return g, CategoryPartition(labels=labels, names=names)


def add_inter_edges(g: Graph, part: CategoryPartition, m: int,
                    rng: np.random.Generator) -> Graph:
    """Add exactly m new edges between nodes of different categories.

    Pairs are drawn uniformly at random among the absent cross-category
    pairs; when m is a large share of those, the candidates are
    enumerated instead so the call always terminates.
    """
    _check_model((), 0, m)
    if m == 0:
        return g
    n, labels = g.node_count, part.labels
    cross_total = (n * n - int((part.sizes.astype(np.int64) ** 2).sum())) // 2
    ea = g.edge_array
    existing_inter = int(np.count_nonzero(labels[ea[:, 0]] != labels[ea[:, 1]]))
    available = cross_total - existing_inter
    if m > available:
        raise TooManyEdgesRequested(
            f"requested {m} inter-category edges, only {available} free pairs")

    taken = np.sort(ea[:, 0] * n + ea[:, 1])
    if cross_total <= 2_000_000 and m * 4 > available:
        # dense regime: enumerate the cross-category pairs, each once as
        # (a member of c) x (a node labeled above c), in ascending key
        # order, and sample the absent ones without replacement
        keys = []
        for c in range(part.num_categories):
            mine, above = np.flatnonzero(labels == c), np.flatnonzero(labels > c)
            keys.append((np.minimum.outer(mine, above) * n
                         + np.maximum.outer(mine, above)).ravel())
        keys = np.sort(np.concatenate(keys))
        cands = keys[~_lookup(taken, keys)[1]]
        chosen = cands[rng.choice(len(cands), size=m, replace=False)]
    else:
        # sparse regime: batches of uniform pairs; the first m new
        # cross-category pairs in draw order
        chosen = np.empty(0, dtype=np.int64)
        while (need := m - len(chosen)):
            us = rng.integers(0, n, size=max(64, 2 * need))
            vs = rng.integers(0, n, size=max(64, 2 * need))
            keys = np.minimum(us, vs) * n + np.maximum(us, vs)
            ok = (labels[us] != labels[vs]) & ~_lookup(taken, keys)[1]
            new = keys[np.sort(_first_occurrences(keys, ok))[:need]]
            chosen = np.concatenate([chosen, new])
            if len(new) < need:
                taken = _merge(taken, np.sort(new))

    new = np.column_stack(np.divmod(chosen, n))
    return Graph.from_edges(n, np.concatenate([ea, new]))


def permute_labels(part: CategoryPartition, alpha: float,
                   rng: np.random.Generator) -> CategoryPartition:
    """Randomly permute the labels of a uniformly chosen floor(alpha*N)
    node subset among themselves; the multiset of category sizes is
    preserved exactly."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    n = part.node_count
    count = math.floor(alpha * n)
    if count == 0:
        return part
    picked = rng.choice(n, size=count, replace=False)
    labels = part.labels.copy()
    labels[picked] = labels[picked][rng.permutation(count)]
    return CategoryPartition(labels=labels, names=part.names)


def synthetic_graph(params: SyntheticParams) -> tuple[Graph, CategoryPartition]:
    """Full synthetic model: regular intra-category graphs, random
    inter-category edges, then label permutation.

    Deterministic given ``params.seed``. Warns if the result is
    disconnected (walk samplers then cover the start component only).
    """
    rng = np.random.default_rng(params.seed)
    g, part = gen_intra_regular(params.category_sizes, params.k, rng)
    g = add_inter_edges(g, part, params.resolved_inter_edges(), rng)
    part = permute_labels(part, params.alpha, rng)
    if not g.is_connected:
        warnings.warn("synthetic graph is disconnected; walk samplers "
                      "will only cover the start node's component",
                      RuntimeWarning, stacklevel=2)
    return g, part
