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

from .errors import InvalidNode
from .graph import CategoryPartition, Graph
from .sampling import SampleTrace

INDUCED = "induced"
STAR = "star"


@dataclass(frozen=True, eq=False)
class CategoryTotals:
    """Per-category inverse-weight totals of a group of draws.

    Every size and edge-weight estimator is a ratio of these. Over the
    draws in category c, ``mass[c]`` sums 1/w and ``degree_mass[c]``
    sums deg/w. Star logs add ``towards[a, b]``: over the draws in a,
    the sum of (neighbors in b)/w. Induced logs add ``edge_mass[a, b]``
    (a < b): over every ordered pair of draws, one in a and one in b,
    whose nodes share an observed edge, the sum of 1/(w_a * w_b).
    ``stacked`` puts several groups' totals on a leading group axis.
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
    ``winv`` and ``degrees``, summed in draw order.

    A star group passes ``star`` = (columns, at): one float row of
    neighbor counts per category, each draw's entry at ``at``. An induced
    group passes ``induced`` = (keys, size, cross): each draw's node key
    below ``size`` and ``_cross`` of the observed edges between keys.
    An edge with an undrawn end (mass 0.0) adds exactly 0.0, as in a log
    of just the draws, also where the other end's mass overflowed to inf
    and the product is NaN. ``edge_mass`` holds floats also when no edge
    is given, where numpy's bincount returns integers.
    """
    mass = np.bincount(cats, weights=winv, minlength=c)
    degree_mass = np.bincount(cats, weights=degrees * winv, minlength=c)
    if star is not None:
        columns, at = star
        towards = np.column_stack([
            np.bincount(cats, weights=col[at] * winv, minlength=c)
            for col in columns])
        return CategoryTotals(mass, degree_mass, towards=towards)
    keys, size, (u, v, pair) = induced
    node_mass = np.bincount(keys, weights=winv, minlength=size)
    with np.errstate(invalid="ignore"):
        products = node_mass[u] * node_mass[v]
    products[np.isnan(products)] = 0.0
    edge_mass = np.bincount(pair, weights=products, minlength=c * c)
    edge_mass = edge_mass.reshape(c, c).astype(float, copy=False)
    return CategoryTotals(mass, degree_mass, edge_mass=edge_mass)


def _cross(cat_of: np.ndarray, edges: np.ndarray, c: int) -> tuple:
    """The edges (u, v) whose ends ``cat_of`` puts in two categories, in
    order, as (u, v, a * C + b) with a < b their categories."""
    u, v = edges[:, 0], edges[:, 1]
    cu, cv = cat_of[u], cat_of[v]
    cross = cu != cv
    pair = np.minimum(cu, cv) * c + np.maximum(cu, cv)
    return u[cross], v[cross], pair[cross]


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
                 1.0 / self.weights[rows], self.degrees[rows])
        if self.mode == STAR:
            return _totals(*draws, star=(self._star_columns, rows))
        keys, size, cross = self._cross_edges
        return _totals(*draws, induced=(keys[rows], size, cross))

    @cached_property
    def _star_columns(self) -> np.ndarray:
        """The neighbor counts as floats, one contiguous row per category."""
        return np.ascontiguousarray(self.neighbor_counts.T, dtype=float)

    @cached_property
    def _cross_edges(self) -> tuple:
        """Each draw's node key, the key count, and the induced edges
        across categories (``_cross``) between those keys."""
        nodes, edges = self.nodes, self.induced_edges
        if edges is None:
            edges = np.empty((0, 2), dtype=np.int64)
        if nodes.size and nodes.max() > 64 * nodes.size:
            # sparse ids (past 64 per draw): key nodes by their rank
            # among the distinct drawn ids instead. Below that the rank
            # sort costs more than the id-indexed arrays (7-14x at 50,000
            # draws and up to 4 ids per draw); they cross at 24-96.
            ids, nodes = np.unique(nodes, return_inverse=True)
            edges = np.searchsorted(ids, edges)
        cat_of = np.zeros(nodes.max(initial=-1) + 1, dtype=np.int64)
        cat_of[nodes] = self.categories
        return nodes, len(cat_of), _cross(cat_of, edges, self.num_categories)

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
    draws; the first draw outside the graph raises InvalidNode."""
    nodes = np.asarray(trace.nodes, dtype=np.int64)
    outside = np.flatnonzero((nodes < 0) | (nodes >= g.node_count))
    if len(outside):
        raise InvalidNode(f"draw {outside[0]}: node {nodes[outside[0]]} is "
                          f"outside 0..{g.node_count - 1}")
    return dict(nodes=nodes, categories=part.labels_for(g)[nodes],
                degrees=g.degrees[nodes].astype(np.int64),
                weights=np.asarray(trace.weights, dtype=float),
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
    counts = ObservationTable(g, part).neighbor_columns[:, draws["nodes"]]
    counts = np.ascontiguousarray(counts.T, dtype=np.int64)
    return ObservationLog(mode=STAR, **draws, neighbor_counts=counts)


@dataclass(frozen=True, eq=False)
class ObservationTable:
    """What observing any node of one graph under one partition reveals,
    each part built on first use. ``totals`` reduces a trace straight to
    its log's totals, bit for bit, without building the log."""

    graph: Graph
    partition: CategoryPartition

    @cached_property
    def neighbor_columns(self) -> np.ndarray:
        """``[c, v]``: how many neighbors of node v lie in category c, as
        floats, one contiguous row per category."""
        g, c = self.graph, self.partition.num_categories
        heads = np.repeat(np.arange(g.node_count, dtype=np.int64), g.degrees)
        flat = self.partition.labels_for(g)[g.indices] * g.node_count + heads
        counts = np.bincount(flat, minlength=c * g.node_count)
        return counts.reshape(c, g.node_count).astype(float)

    @cached_property
    def cross_edges(self) -> tuple:
        """``_cross`` of the graph's edges, in ``edge_array`` order."""
        return _cross(self.partition.labels_for(self.graph),
                      self.graph.edge_array, self.partition.num_categories)

    def totals(self, mode: str, trace: SampleTrace) -> CategoryTotals:
        """``observe_<mode>(graph, partition, trace).totals``."""
        d = _draws(self.graph, self.partition, trace)
        draws = (d["num_categories"], d["categories"], 1.0 / d["weights"],
                 d["degrees"])
        if mode == STAR:
            return _totals(*draws, star=(self.neighbor_columns, d["nodes"]))
        return _totals(*draws, induced=(d["nodes"], self.graph.node_count,
                                        self.cross_edges))
