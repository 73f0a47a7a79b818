"""Turn a trace into exactly what a measurement scenario would reveal.

Two scenarios are simulated. Induced-subgraph observation reveals the
category and degree of each drawn node plus the edges among drawn nodes
only. Star observation additionally reveals, for every drawn node, how
many of its neighbors fall in each category -- but not the neighbors'
identities, and no edges between neighbors.

The resulting ObservationLog is the only input the estimators may read;
they never touch the graph itself. An ObservationTable reduces a trace
straight to the log's totals, for callers that observe many traces of
one graph and need nothing else of the log.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import check_weights
from .graph import (CategoryPartition, Graph, _cross, _distinct, _ids,
                    _lookup, _scaled)
from .sampling import SampleTrace

INDUCED = "induced"
STAR = "star"


@dataclass(frozen=True, eq=False)
class CategoryTotals:
    """Per-category inverse-weight totals of a group of draws.

    Every size and edge-weight estimator is a ratio of these. Over the
    draws in category c, ``mass[c]`` sums 1/w and ``degree_mass[c]``
    sums deg/w. Star mode adds ``towards[a, b]``: over the draws in a,
    the sum of (neighbors in b)/w. Induced mode adds ``edge_mass[a, b]``
    (a < b): over every ordered pair of draws, one in a and one in b,
    whose nodes share an observed edge, the sum of 1/(w_a * w_b). Sums
    run over the drawn nodes in ascending id order, each node's draws
    grouped; a mode not observed leaves its part None. ``stacked``
    stacks groups on a leading axis.
    """

    mass: np.ndarray
    degree_mass: np.ndarray
    towards: np.ndarray | None = None
    edge_mass: np.ndarray | None = None

    @classmethod
    def stacked(cls, groups) -> "CategoryTotals":
        """The totals of several groups, row g of each array from group g."""
        parts = zip(*(vars(t).values() for t in groups))
        return cls(*(None if p[0] is None else np.stack(p) for p in parts))


def _totals(c: int, masses: np.ndarray, drawn, cats: np.ndarray,
            degrees: np.ndarray, entries: np.ndarray | None = None,
            cross: tuple | None = None) -> CategoryTotals:
    """The totals over the nodes ``drawn`` picks, in ascending id order:
    ``masses`` sums each node's draws' ``_scaled`` 1/w, so no product of
    two overflows, and ``cats`` and ``degrees`` are the picked nodes'. The
    star part reads ``masses`` at the nodes of ``_entries``, the induced
    part at the ends of ``cross``, ``_cross`` of the observed edges: an
    undrawn node's 0.0, like a zero count left out, adds exactly 0.0, as
    in a log of just the draws."""
    node_mass = masses[drawn]
    mass = np.bincount(cats, weights=node_mass, minlength=c)
    degree_mass = np.bincount(cats, weights=degrees * node_mass, minlength=c)
    towards = edge_mass = None
    if entries is not None:
        at, pair, count = entries
        towards = _square(c, pair, count * masses[at])
    if cross is not None:
        u, v, pair = cross
        edge_mass = _square(c, pair, masses[u] * masses[v])
    return CategoryTotals(mass, degree_mass, towards, edge_mass)


def _square(c: int, pair: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights`` summed by ``pair`` (a * C + b) as (C, C) floats."""
    square = np.bincount(pair, weights=weights, minlength=c * c)
    return square.reshape(c, c).astype(float, copy=False)   # int if no pair


def _entries(counts: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """The nonzero ``counts`` (a row per node, a column per category) node
    by node, as int64 rows of (row, the row's ``cats`` * C + column, count),
    so each (a, b) cell's in ascending node order."""
    flat = np.flatnonzero(counts)
    at, b = np.divmod(flat, counts.shape[1])
    return np.stack([at, cats[at] * counts.shape[1] + b, counts.ravel()[flat]])


@dataclass(frozen=True, eq=False)
class ObservationLog:
    """What a sampling experiment actually observed.

    One record per draw: node, category, degree, sampling weight.
    Duplicate draws of a node yield duplicate records; multiset
    semantics carry through to the estimators, which count repeated
    nodes (and any edges they touch) repeatedly.

    ``induced_edges`` holds the deduplicated edge set among distinct
    drawn nodes (induced mode); estimators recover draw-pair
    multiplicity from the records. ``neighbor_counts[i, c]`` is how
    many neighbors of draw i lie in category c (star mode), one int64 row
    a draw; row i sums to draw i's degree. Each draw of a node carries its
    one category, degree and neighbor counts.
    """

    mode: str
    nodes: np.ndarray
    categories: np.ndarray
    degrees: np.ndarray
    weights: np.ndarray
    num_categories: int
    category_names: tuple[str, ...]
    population_hint: int | None = None
    induced_edges: np.ndarray | None = None
    neighbor_counts: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def totals(self) -> CategoryTotals:
        """The totals of all draws, which every estimator of this log
        reads, reduced once per log."""
        return self.totals_of(slice(None))

    def totals_of(self, rows) -> CategoryTotals:
        """The totals of the draws ``rows`` picks, repeats counted, as for
        a log of just those draws: one pass sums each drawn id's mass."""
        ids, _, keys, *_ = self._index
        return _totals(self.num_categories, np.bincount(
            keys[rows], weights=self._inverse_weights[rows], minlength=len(ids)),
            slice(None), *self._nodes)

    @cached_property
    def _inverse_weights(self) -> np.ndarray:
        """1/w of each draw, ``_scaled`` once: all groups of draws share it."""
        return _scaled(1.0 / self.weights)

    @cached_property
    def _index(self) -> tuple:
        """The drawn ids, the first draw of each, each draw's key (its rank
        among the ids) and ``_lookup`` of the induced edges' ends in them."""
        ids, first, keys = _distinct(self.nodes)
        edges = self.induced_edges
        edges = np.empty((0, 2), dtype=np.int64) if edges is None else edges
        return ids, first, keys, *_lookup(ids, edges)

    @cached_property
    def _nodes(self) -> tuple:
        """Each drawn id's category and degree, by ``_index`` key, and the
        ``_entries`` of its star neighbor counts or ``_cross``."""
        _, first, _, at, drawn = self._index
        cats, degrees = self.categories[first], self.degrees[first]
        if self.mode == STAR:
            return cats, degrees, _entries(self.neighbor_counts[first], cats), None
        return cats, degrees, None, _cross(cats, at[drawn.all(axis=1)],
                                           self.num_categories)

    def resampled(self, indices: np.ndarray) -> "ObservationLog":
        """Log for a with-replacement resample of the draws.

        The induced edge set shrinks to edges whose endpoints both
        survive the resample; star rows just follow their draws.
        """
        indices = np.asarray(indices, dtype=np.int64)
        nodes = self.nodes[indices]
        induced = self.induced_edges
        if induced is not None:
            # both ends drawn; .all(axis=1) on the two columns is 20x slower
            induced = induced[np.logical_and(*np.isin(induced, nodes).T)]
        counts = self.neighbor_counts
        return replace(self, nodes=nodes,
                       categories=self.categories[indices],
                       degrees=self.degrees[indices],
                       weights=self.weights[indices],
                       induced_edges=induced,
                       neighbor_counts=None if counts is None else counts[indices])


def _refusal(log: ObservationLog, star: Callable | None = None) -> tuple | None:
    """The first (row, rule, value) of ``log`` that a rule of a log refuses,
    rule by rule, or None; row n names an induced edge. ``star()``, called
    once the record rules pass, gives a star log's (draw, category, count)
    entries, each nonzero cell of ``neighbor_counts`` once: the star rules
    cost O(entries), gathering from the block only the cells they name."""
    for bad, rule, values, rows in _rules(log, star):
        at = np.flatnonzero(bad)
        if len(at):   # a row of counts or edge ends is named as int64
            value = values[at[0]]
            return (at[0] if rows is None else rows[at[0]], rule,
                    (value.astype(np.int64) if np.ndim(value) else value).tolist())
    return None


def _rules(log: ObservationLog, star: Callable | None):
    """The rules of ``_refusal`` in turn, as (the items each refuses, the
    rule, the items' values, their rows or None where items are draws)."""
    nodes, cats, degrees, weights = log.nodes, log.categories, log.degrees, log.weights
    c = log.num_categories
    yield nodes < 0, "node id must be >= 0", nodes, None
    yield (cats < 0) | (cats >= c), f"category must be in 0..{c - 1}", cats, None
    yield degrees < 0, "degree must be >= 0", degrees, None
    if star is not None:
        at, b, count = entries = star()
        yield count < 0, "nbr_cats count must be >= 0", count, at
    ids, first, keys, rank, drawn = log._index
    head = first[keys]   # each draw's node's first draw, which the others repeat
    for what, values in (("category", cats), ("degree", degrees), ("weight", weights)):
        yield (values != values[head],
               f"{what} differs from an earlier record of the node", values, None)
    if star is not None:
        sums = np.zeros(len(nodes), np.int64)
        np.add.at(sums, at, count)   # in int64, as a row's sum
        yield sums != degrees, "nbr_cats must sum to deg", sums, None
        # as many nonzero counts as the first draw, each equal to its cell
        at, b, count = entries if count.all() else entries[:, count != 0]
        size = np.bincount(at, minlength=len(nodes))
        differs = size != size[head]
        differs[at[log.neighbor_counts[head[at], b] != count]] = True
        yield (differs, "nbr_cats differs from an earlier record of the node",
               log.neighbor_counts, None)
        return
    edges, rows = log.induced_edges, np.full(len(log.induced_edges), len(nodes))
    yield ~np.logical_and(*drawn.T), "induced edge has an undrawn endpoint", edges, rows
    # edges are keyed by their ends' ranks among the drawn ids, as
    # u * N + v on ids up to 2**63 - 1 would overflow
    u, v = rank.T
    yield u == v, "induced edge is a self-loop", edges, rows
    _, once, which = _distinct(np.minimum(u, v) * len(ids) + np.maximum(u, v))
    yield (once[which] != np.arange(len(u)), "induced edge repeats an earlier one",
           edges, rows)


def _draws(g: Graph, part: CategoryPartition, trace: SampleTrace) -> tuple:
    """The trace's nodes as int64, checked by ``_ids`` draw by draw, weights,
    checked by ``check_weights``, and the graph's labels (``labels_for``)."""
    nodes = _ids(trace.nodes, g.node_count, "draw {i}: node {v}",
                 "draw {i}: node {v} is outside 0..{last}")
    weights = np.asarray(trace.weights, dtype=float)
    check_weights(weights)
    return nodes, weights, part.labels_for(g)


def _observed(mode: str, g: Graph, part: CategoryPartition, nodes: np.ndarray,
              weights: np.ndarray, labels: np.ndarray, **own_part) -> ObservationLog:
    """The log of ``_draws``: every log's fields, and the mode's own part."""
    return ObservationLog(
        mode=mode, nodes=nodes, categories=labels[nodes],
        degrees=g.degrees[nodes].astype(np.int64), weights=weights,
        num_categories=part.num_categories, category_names=part.names,
        population_hint=g.node_count, **own_part)


def _neighbor_counts(g: Graph, labels: np.ndarray, c: int,
                     nodes: np.ndarray) -> np.ndarray:
    """``[i, c]``: how many neighbors of ``nodes[i]`` lie in category c, as
    int64."""
    rows, nbrs = _adjacent(g, nodes)
    d = len(nodes)
    return np.bincount(rows * c + labels[nbrs], minlength=d * c).reshape(d, c)


def _adjacent(g: Graph, nodes: np.ndarray) -> tuple:
    """The CSR entries of the rows of ``nodes``, in order: each entry's
    index in ``nodes`` and its neighbor."""
    deg = g.degrees[nodes]
    # each node's run of indices, shifted from where its entries start
    at = np.arange(deg.sum()) + np.repeat(g.indptr[nodes] + deg - np.cumsum(deg), deg)
    return np.repeat(np.arange(len(nodes)), deg), g.indices[at]


def observe_induced(g: Graph, part: CategoryPartition,
                    trace: SampleTrace) -> ObservationLog:
    """Observe categories of drawn nodes and the edges among them, the rows
    of ``edge_array`` with both ends drawn, read off the drawn rows' CSR."""
    draws = _draws(g, part, trace)
    drawn = np.zeros(g.node_count, dtype=bool)
    drawn[draws[0]] = True
    ids = np.flatnonzero(drawn)
    rows, tails = _adjacent(g, ids)
    heads = ids[rows]
    kept = drawn[tails] & (heads < tails)
    return _observed(INDUCED, g, part, *draws, induced_edges=np.column_stack(
        [heads[kept], tails[kept]]))


def observe_star(g: Graph, part: CategoryPartition,
                 trace: SampleTrace) -> ObservationLog:
    """Observe, per drawn node, the category histogram of all its
    neighbors, counted once a node. Neighbor identities are not retained."""
    nodes, _, labels = draws = _draws(g, part, trace)
    ids, _, keys = _distinct(nodes)
    counts = _neighbor_counts(g, labels, part.num_categories, ids)
    return _observed(STAR, g, part, *draws, neighbor_counts=counts[keys])


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """What observing any node of one graph under one partition reveals,
    each part built on first use. ``totals`` reduces a trace straight to
    its logs' totals, bit for bit, without building a log."""

    graph: Graph
    partition: CategoryPartition

    @cached_property
    def neighbor_entries(self) -> np.ndarray:
        """``_entries`` of how many neighbors of each node lie in each
        category, by node id."""
        g, part = self.graph, self.partition
        labels = part.labels_for(g)
        return _entries(_neighbor_counts(g, labels, part.num_categories,
                                         np.arange(g.node_count)), labels)

    @cached_property
    def cross_edges(self) -> tuple:
        """``_cross`` of the graph's edges, in ``edge_array`` order."""
        return _cross(self.partition.labels_for(self.graph),
                      self.graph.edge_array, self.partition.num_categories)

    def totals(self, trace: SampleTrace, modes) -> CategoryTotals:
        """The log totals of ``trace`` for all ``modes``, in one pass."""
        g, part = self.graph, self.partition
        nodes, weights, labels = _draws(g, part, trace)
        masses = np.bincount(nodes, weights=_scaled(1.0 / weights),
                             minlength=g.node_count)
        drawn = np.flatnonzero(masses > 0)   # a mass of 0.0 would add 0.0
        return _totals(
            part.num_categories, masses, drawn, labels[drawn], g.degrees[drawn],
            self.neighbor_entries if STAR in modes else None,
            self.cross_edges if INDUCED in modes else None)
