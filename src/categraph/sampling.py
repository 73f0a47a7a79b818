"""Node samplers: independence designs and crawling walks.

Every sampler returns a SampleTrace whose draws carry the node and its
unnormalized sampling weight, the quantity later used for inverse-
probability correction:

  * uis   -- uniform i.i.d. draws with replacement, weight 1
  * wis   -- i.i.d. draws proportional to supplied node weights
  * rw    -- simple random walk, stationary weight deg(v)
  * mhrw  -- Metropolis-Hastings walk targeting the uniform law, weight 1
  * wrw   -- random walk on an edge-weighted graph where the weight of
             {u, v} is the sum of the two endpoint category weights;
             stationary weight is the node's incident edge-weight sum

Walks are sequential by nature; distinct traces may be generated
concurrently against the shared immutable graph, each from its own seed.
Burn-in defaults to 0: the estimators are consistent regardless, so
discarding a prefix is an experiment knob, not a correctness
requirement.
"""
from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    EmptyGraph,
    InvalidThinning,
    InvalidWeight,
    IsolatedStartNode,
)
from .graph import CategoryPartition, Graph


@dataclass(frozen=True)
class SampleTrace:
    """Ordered multiset of draws from one sampler run.

    Repeated nodes are permitted (sampling with replacement). ``steps``
    keeps each draw's original position so that thinned traces stay
    traceable to the raw run.
    """

    nodes: np.ndarray
    steps: np.ndarray
    weights: np.ndarray
    sampler: str
    seed: int | list[int] | None
    start: int | None
    burn_in: int
    thin_interval: int = 1

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def _as_rng(seed) -> tuple[np.random.Generator, int | list[int] | None]:
    if isinstance(seed, np.random.Generator):
        return seed, None
    if seed is None:
        return np.random.default_rng(), None
    recorded = list(seed) if isinstance(seed, (list, tuple)) else int(seed)
    return np.random.default_rng(seed), recorded


def _check_request(g: Graph, n: int, verb: str) -> None:
    if g.node_count == 0:
        raise EmptyGraph(f"cannot {verb} an empty graph")
    if n < 1:
        raise ValueError("need at least one draw")


def _weight_vector(weights, count: int, item: str) -> np.ndarray:
    """One positive finite weight per id 0..count-1, from a mapping or
    an array of length count."""
    if isinstance(weights, Mapping):
        arr = np.empty(count)
        for i in range(count):
            if i not in weights:
                raise InvalidWeight(f"no weight for {item} {i}")
            arr[i] = weights[i]
    else:
        arr = np.asarray(weights, dtype=float)
        if arr.shape != (count,):
            raise InvalidWeight(f"need one weight per {item}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise InvalidWeight(f"{item} weights must be positive and finite")
    return arr


def sample_uis(g: Graph, n: int, seed=None) -> SampleTrace:
    """n i.i.d. uniform draws with replacement; all weights are 1."""
    _check_request(g, n, "sample from")
    rng, recorded = _as_rng(seed)
    nodes = rng.integers(0, g.node_count, size=n)
    return SampleTrace(nodes=nodes.astype(np.int64),
                       steps=np.arange(n, dtype=np.int64),
                       weights=np.ones(n),
                       sampler="uis", seed=recorded, start=None, burn_in=0)


def sample_wis(g: Graph, weights, n: int, seed=None) -> SampleTrace:
    """n i.i.d. draws with probability proportional to known node
    weights; each draw is annotated with its own weight.

    ``weights`` is either a node-id -> weight mapping covering every
    node or an array of length N. All weights must be positive and
    finite.
    """
    _check_request(g, n, "sample from")
    arr = _weight_vector(weights, g.node_count, "node")
    rng, recorded = _as_rng(seed)
    nodes = rng.choice(g.node_count, size=n, p=arr / arr.sum())
    return SampleTrace(nodes=nodes.astype(np.int64),
                       steps=np.arange(n, dtype=np.int64),
                       weights=arr[nodes],
                       sampler="wis", seed=recorded, start=None, burn_in=0)


def _prepare_walk(g: Graph, n: int, start, burn_in: int, seed, kind: str):
    _check_request(g, n, "walk on")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    rng, recorded = _as_rng(seed)
    if start is None:
        candidates = np.flatnonzero(g.degrees > 0)
        if candidates.size == 0:
            raise IsolatedStartNode("graph has no edges to walk on")
        start = int(candidates[rng.integers(0, candidates.size)])
    else:
        start = int(start)
        g._check_node(start)
        if g.degree(start) == 0:
            raise IsolatedStartNode(f"start node {start} has no neighbors")
    if not g.is_connected:
        warnings.warn(f"{kind} walk on a disconnected graph covers only "
                      "the start node's component", RuntimeWarning,
                      stacklevel=3)
    return rng, recorded, start


def sample_rw(g: Graph, n: int, start: int | None = None,
              burn_in: int = 0, seed=None) -> SampleTrace:
    """Simple random walk; next hop uniform among neighbors.

    Runs burn_in + n steps from ``start`` (uniform random non-isolated
    node if omitted), discards the first burn_in, and weights every
    retained draw by its degree, the walk's stationary bias.
    """
    rng, recorded, start = _prepare_walk(g, n, start, burn_in, seed, "rw")
    adj = g.adjacency_lists
    total = burn_in + n
    r = rng.random(total)
    out = np.empty(total, dtype=np.int64)
    u = start
    for i in range(total):
        nbrs = adj[u]
        u = nbrs[int(r[i] * len(nbrs))]
        out[i] = u
    nodes = out[burn_in:]
    return SampleTrace(nodes=nodes, steps=np.arange(n, dtype=np.int64),
                       weights=g.degrees[nodes].astype(float),
                       sampler="rw", seed=recorded, start=start,
                       burn_in=burn_in)


def sample_mhrw(g: Graph, n: int, start: int | None = None,
                burn_in: int = 0, seed=None) -> SampleTrace:
    """Metropolis-Hastings random walk targeting the uniform law.

    Proposes a uniform neighbor v of the current node u and accepts
    with probability min(1, deg(u)/deg(v)); a rejection repeats the
    current node as the next draw, which is what keeps the chain's
    stationary distribution uniform. All weights are 1.
    """
    rng, recorded, start = _prepare_walk(g, n, start, burn_in, seed, "mhrw")
    adj = g.adjacency_lists
    deg = g.degrees.tolist()
    total = burn_in + n
    r_prop = rng.random(total)
    r_acc = rng.random(total)
    out = np.empty(total, dtype=np.int64)
    u = start
    for i in range(total):
        nbrs = adj[u]
        v = nbrs[int(r_prop[i] * len(nbrs))]
        if r_acc[i] * deg[v] < deg[u]:
            u = v
        out[i] = u
    nodes = out[burn_in:]
    return SampleTrace(nodes=nodes, steps=np.arange(n, dtype=np.int64),
                       weights=np.ones(n),
                       sampler="mhrw", seed=recorded, start=start,
                       burn_in=burn_in)


def sample_wrw(g: Graph, part: CategoryPartition,
               category_weights: Mapping[int, float] | Sequence[float],
               n: int, start: int | None = None, burn_in: int = 0,
               seed=None) -> SampleTrace:
    """Random walk on a category-weighted graph.

    Edge {u, v} gets weight cw[label(u)] + cw[label(v)]; the walk leaves
    u through an edge with probability proportional to that weight, so
    categories with large weights are oversampled. The stationary
    weight of a node is the sum of its incident edge weights, recorded
    as the draw weight. Equal category weights reduce the transition
    law to the simple random walk.
    """
    if part.node_count != g.node_count:
        raise ValueError("partition and graph disagree on node count")
    cw = _weight_vector(category_weights, part.num_categories, "category")
    rng, recorded, start = _prepare_walk(g, n, start, burn_in, seed, "wrw")
    node_cw = cw[part.labels]
    deg = g.degrees
    # per-row running sums of the edge weights, added in row order: one
    # numpy step per degree position j, over the reaching[j] rows longer
    # than j, whose starts lead by_degree
    cum = node_cw[g.indices] + np.repeat(node_cw, deg)
    by_degree = g.indptr[:-1][np.argsort(-deg, kind="stable")]
    reaching = len(deg) - np.cumsum(np.bincount(deg))
    for j in range(1, len(reaching)):
        at = by_degree[:reaching[j]] + j
        cum[at] += cum[at - 1]
    node_totals = np.zeros(g.node_count)
    node_totals[deg > 0] = cum[g.indptr[1:][deg > 0] - 1]
    cum = cum.tolist()
    ptr = g.indptr.tolist()
    adj = g.adjacency_lists
    total_steps = burn_in + n
    out = np.empty(total_steps, dtype=np.int64)
    u = start
    for i, r in enumerate(rng.random(total_steps)):
        lo, hi = ptr[u], ptr[u + 1]
        u = adj[u][bisect_right(cum, r * cum[hi - 1], lo, hi) - lo]
        out[i] = u
    nodes = out[burn_in:]
    return SampleTrace(nodes=nodes, steps=np.arange(n, dtype=np.int64),
                       weights=node_totals[nodes],
                       sampler="wrw", seed=recorded, start=start,
                       burn_in=burn_in)


def thin(trace: SampleTrace, interval: int) -> SampleTrace:
    """Keep every interval-th draw (positions 0, T, 2T, ...).

    Weights ride along unchanged; they are properties of the drawn
    nodes, not of the positions.
    """
    if not isinstance(interval, (int, np.integer)) or interval < 1:
        raise InvalidThinning("thinning interval must be an integer >= 1")
    if interval == 1:
        return trace
    return replace(trace,
                   nodes=trace.nodes[::interval],
                   steps=trace.steps[::interval],
                   weights=trace.weights[::interval],
                   thin_interval=trace.thin_interval * int(interval))
