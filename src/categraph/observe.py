"""Turn a trace into exactly what a measurement scenario would reveal.

Two scenarios are simulated. Induced-subgraph observation reveals the
category and degree of each drawn node plus the edges among drawn nodes
only. Star observation additionally reveals, for every drawn node, how
many of its neighbors fall in each category -- but not the neighbors'
identities, and no edges between neighbors.

The resulting ObservationLog is the only input the estimators may read;
they never touch the graph itself.
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
        a log of just those draws. An induced edge of the log with an
        endpoint no picked draw holds adds an exact 0.0."""
        c = self.num_categories
        cats = self.categories[rows]
        winv = 1.0 / self.weights[rows]
        mass = np.bincount(cats, weights=winv, minlength=c)
        degree_mass = np.bincount(cats, weights=self.degrees[rows] * winv,
                                  minlength=c)
        if self.mode == STAR:
            towards = np.column_stack([
                np.bincount(cats, weights=col * winv, minlength=c)
                for col in self.neighbor_counts[rows].T])
            return CategoryTotals(mass, degree_mass, towards=towards)
        keys, size, u, v, pair = self._cross_edges
        # inverse-weight mass per distinct node, 0.0 where none is picked
        node_mass = np.bincount(keys[rows], weights=winv, minlength=size)
        edge_mass = np.bincount(pair, weights=node_mass[u] * node_mass[v],
                                minlength=c * c).reshape(c, c)
        return CategoryTotals(mass, degree_mass, edge_mass=edge_mass)

    @cached_property
    def _cross_edges(self) -> tuple:
        """Each draw's node key, the key count, and the induced edges
        across categories as key pairs (u, v) and bins a * C + b, a < b."""
        c = self.num_categories
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
        u, v = edges[:, 0], edges[:, 1]
        cu, cv = cat_of[u], cat_of[v]
        cross = cu != cv
        pair = np.minimum(cu, cv) * c + np.maximum(cu, cv)
        return nodes, len(cat_of), u[cross], v[cross], pair[cross]

    def resampled(self, indices: np.ndarray) -> "ObservationLog":
        """Log for a with-replacement resample of the draws.

        The induced edge set shrinks to edges whose endpoints both
        survive the resample; star rows just follow their draws.
        """
        indices = np.asarray(indices, dtype=np.int64)
        nodes = self.nodes[indices]
        induced = self.induced_edges
        if self.mode == INDUCED and induced is not None:
            # load_log's test; .all(axis=1) on the two columns is 20x slower
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
    c = part.num_categories
    rows = np.repeat(np.arange(g.node_count, dtype=np.int64), g.degrees)
    flat = rows * c + part.labels[g.indices]
    per_node = np.bincount(flat, minlength=g.node_count * c)
    per_node = per_node.reshape(g.node_count, c)
    return ObservationLog(mode=STAR, **draws,
                          neighbor_counts=per_node[draws["nodes"]])
