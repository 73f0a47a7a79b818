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

import numpy as np

from .errors import InvalidNode, check_weights
from .graph import CategoryPartition, Graph, _cross, _lookup, _scaled
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
    whose nodes share an observed edge, the sum of 1/(w_a * w_b). A
    table gives one pass per trace, both modes; a mode not observed
    leaves its part None. ``stacked`` stacks groups on a leading axis.
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


def _totals(c: int, cats: np.ndarray, winv: np.ndarray, degrees: np.ndarray,
            star: tuple | None = None,
            induced: tuple | None = None) -> CategoryTotals:
    """The totals of draws with categories ``cats``, inverse weights
    ``winv`` and ``degrees``, summed in draw order, and each mode's part.

    The star part reads ``star`` = (columns, at): one integer row of
    neighbor counts per category, each draw's entry at ``at``. The
    induced part reads ``induced`` = (keys, size, cross): each draw's
    node key below ``size`` and ``_cross`` of the observed edges between
    keys. An edge with an undrawn end (mass 0.0) adds exactly 0.0, as in
    a log of just the draws; ``winv`` arrives ``_scaled``, so no mass or
    product of two overflows. ``edge_mass`` holds floats also when no
    edge is given, where numpy's bincount returns integers.
    """
    mass = np.bincount(cats, weights=winv, minlength=c)
    degree_mass = np.bincount(cats, weights=degrees * winv, minlength=c)
    towards = edge_mass = None
    if star is not None:
        columns, at = star
        towards = np.column_stack([
            np.bincount(cats, weights=col[at] * winv, minlength=c)
            for col in columns])
    if induced is not None:
        keys, size, (u, v, pair) = induced
        node_mass = np.bincount(keys, weights=winv, minlength=size)
        edge_mass = np.bincount(pair, weights=node_mass[u] * node_mass[v],
                                minlength=c * c)
        edge_mass = edge_mass.reshape(c, c).astype(float, copy=False)
    return CategoryTotals(mass, degree_mass, towards, edge_mass)


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
    many neighbors of draw i lie in category c (star mode); each row
    sums to the draw's degree.
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
        a log of just those draws."""
        draws = (self.num_categories, self.categories[rows],
                 self._inverse_weights[rows], self.degrees[rows])
        if self.mode == STAR:
            return _totals(*draws, star=(self._star_columns, rows))
        ids, _, keys, *_ = self._index
        return _totals(*draws, induced=(keys[rows], len(ids), self._cross_edges))

    @cached_property
    def _inverse_weights(self) -> np.ndarray:
        """1/w of each draw, ``_scaled`` once: all groups of draws share it."""
        return _scaled(1.0 / self.weights)

    @cached_property
    def _star_columns(self) -> np.ndarray:
        """The neighbor counts, one contiguous row per category."""
        return np.ascontiguousarray(self.neighbor_counts.T)

    @cached_property
    def _index(self) -> tuple:
        """The drawn ids, the first draw of each, each draw's key (its rank
        among the ids) and ``_lookup`` of the induced edges' ends in them."""
        ids, first, keys = np.unique(self.nodes, return_index=True,
                                     return_inverse=True)
        edges = self.induced_edges
        edges = np.empty((0, 2), dtype=np.int64) if edges is None else edges
        return ids, first, keys, *_lookup(ids, edges)

    @cached_property
    def _cross_edges(self) -> tuple:
        """``_cross`` of the induced edges between drawn ids, by ``_index`` key."""
        _, first, _, at, drawn = self._index
        return _cross(self.categories[first], at[drawn.all(axis=1)],
                      self.num_categories)

    def resampled(self, indices: np.ndarray) -> "ObservationLog":
        """Log for a with-replacement resample of the draws.

        The induced edge set shrinks to edges whose endpoints both
        survive the resample; star rows just follow their draws.
        """
        indices = np.asarray(indices, dtype=np.int64)
        nodes = self.nodes[indices]
        induced = self.induced_edges
        if self.mode == INDUCED and induced is not None:
            # both ends drawn; .all(axis=1) on the two columns is 20x slower
            induced = induced[np.logical_and(*np.isin(induced, nodes).T)]
        counts = self.neighbor_counts
        if counts is not None:
            counts = counts[indices]
        return replace(self, nodes=nodes,
                       categories=self.categories[indices],
                       degrees=self.degrees[indices],
                       weights=self.weights[indices],
                       induced_edges=induced,
                       neighbor_counts=counts)


def _draws(g: Graph, part: CategoryPartition, trace: SampleTrace) -> dict:
    """The fields every log holds, read off the graph for the trace's
    draws. The first draw whose node is not a whole number in the graph
    raises InvalidNode; then ``check_weights`` refuses a weight."""
    nodes = np.asarray(trace.nodes)
    weights = np.asarray(trace.weights, dtype=float)
    whole = nodes == np.trunc(nodes)
    bad = np.flatnonzero(~whole | (nodes < 0) | (nodes >= g.node_count))
    if len(bad):
        raise InvalidNode(f"draw {bad[0]}: node {nodes[bad[0]]} is " + (
            f"outside 0..{g.node_count - 1}" if whole[bad[0]] else "not a whole number"))
    check_weights(weights)
    nodes = nodes.astype(np.int64)
    return dict(nodes=nodes, categories=part.labels_for(g)[nodes],
                degrees=g.degrees[nodes].astype(np.int64), weights=weights,
                num_categories=part.num_categories,
                category_names=part.names, population_hint=g.node_count)


def observe_induced(g: Graph, part: CategoryPartition,
                    trace: SampleTrace) -> ObservationLog:
    """Observe categories of drawn nodes and the edges among them."""
    draws = _draws(g, part, trace)
    drawn = np.zeros(g.node_count, dtype=bool)
    drawn[draws["nodes"]] = True
    ea = g.edge_array
    return ObservationLog(mode=INDUCED, **draws,
                          induced_edges=ea[drawn[ea[:, 0]] & drawn[ea[:, 1]]])


def observe_star(g: Graph, part: CategoryPartition,
                 trace: SampleTrace) -> ObservationLog:
    """Observe, per drawn node, the category histogram of all its
    neighbors. Neighbor identities are not retained."""
    draws = _draws(g, part, trace)
    # the transpose of contiguous rows, which _star_columns takes uncopied
    rows = np.take(ObservationTable(g, part).neighbor_columns, draws["nodes"], 1)
    return ObservationLog(mode=STAR, **draws, neighbor_counts=rows.T)


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """What observing any node of one graph under one partition reveals,
    each part built on first use. ``totals`` reduces a trace straight to
    its logs' totals, bit for bit, without building a log."""

    graph: Graph
    partition: CategoryPartition

    @cached_property
    def neighbor_columns(self) -> np.ndarray:
        """``[c, v]``: how many neighbors of node v lie in category c, as
        int64, one contiguous row per category."""
        g, c = self.graph, self.partition.num_categories
        heads = np.repeat(np.arange(g.node_count, dtype=np.int64), g.degrees)
        flat = self.partition.labels_for(g)[g.indices] * g.node_count + heads
        counts = np.bincount(flat, minlength=c * g.node_count)
        return counts.reshape(c, g.node_count)

    @cached_property
    def cross_edges(self) -> tuple:
        """``_cross`` of the graph's edges, in ``edge_array`` order."""
        return _cross(self.partition.labels_for(self.graph),
                      self.graph.edge_array, self.partition.num_categories)

    def totals(self, trace: SampleTrace, modes) -> CategoryTotals:
        """The log totals of ``trace`` for all ``modes``, in one pass."""
        d, size = _draws(self.graph, self.partition, trace), self.graph.node_count
        return _totals(
            d["num_categories"], d["categories"], _scaled(1.0 / d["weights"]),
            d["degrees"], (self.neighbor_columns, d["nodes"]) if STAR in modes else None,
            (d["nodes"], size, self.cross_edges) if INDUCED in modes else None)
