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

The walks are step rules of one engine, ``lockstep_walks``: a batch
of walks, one per seed, advances together, each walker drawing exactly
what a lone walk draws: a small batch steps walker by walker in Python,
a large one all walkers at once in numpy. ``SAMPLERS`` is the one table
of samplers.
Burn-in defaults to 0: the estimators are consistent regardless, so
discarding a prefix is an experiment knob, not a correctness
requirement.
"""
from __future__ import annotations

import copy
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import partial
from itertools import product
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (EmptyGraph, InvalidWeight, IsolatedStartNode, check_count,
                     weights_ok)
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
    """A generator and the seed a trace records: a Generator or None
    records None; an integer >= 0 or a list of them, itself."""
    if isinstance(seed, np.random.Generator):
        return seed, None
    if seed is None:
        return np.random.default_rng(), None
    recorded = ([check_count(s, "seed") for s in seed]
                if isinstance(seed, (list, tuple)) else check_count(seed, "seed"))
    return np.random.default_rng(seed), recorded


def _check_request(g: Graph, n: int, verb: str) -> None:
    if g.node_count == 0:
        raise EmptyGraph(f"cannot {verb} an empty graph")
    check_count(n, "n")


def _weight_vector(weights, count: int, item: str) -> np.ndarray:
    """One weight per id 0..count-1, each as ``weights_ok`` asks, from a
    mapping or an array of length count."""
    if isinstance(weights, Mapping):
        for i in range(count):
            if i not in weights:
                raise InvalidWeight(f"no weight for {item} {i}")
        weights = list(map(weights.__getitem__, range(count)))
    arr = np.asarray(weights, dtype=float)
    if arr.shape != (count,):
        raise InvalidWeight(f"need one weight per {item}")
    if not np.all(weights_ok(arr)):
        raise InvalidWeight(f"{item} weights must be positive and finite, "
                            "with a finite inverse")
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
    finite, with a finite inverse.
    """
    _check_request(g, n, "sample from")
    arr = _weight_vector(weights, g.node_count, "node")
    rng, recorded = _as_rng(seed)
    nodes = rng.choice(g.node_count, size=n, p=arr / arr.sum())
    return SampleTrace(nodes=nodes.astype(np.int64),
                       steps=np.arange(n, dtype=np.int64),
                       weights=arr[nodes],
                       sampler="wis", seed=recorded, start=None, burn_in=0)


def _wrw_sums(g: Graph, part: CategoryPartition,
              category_weights) -> tuple[np.ndarray, np.ndarray]:
    """wrw's per-row running sums of the edge weights, added in row
    order, and each node's total, its draw weight; category weights
    (equal if None) and draw weights must pass ``weights_ok``."""
    labels = part.labels_for(g)
    node_cw = _weight_vector(
        np.ones(part.num_categories) if category_weights is None
        else category_weights, part.num_categories, "category")[labels]
    # one numpy step per degree position j, over the reaching[j] rows
    # longer than j, whose starts lead by_degree
    indptr, deg = g.indptr, g.degrees
    with np.errstate(over="ignore"):   # an overflow shows in a node total
        cum = node_cw[g.indices] + np.repeat(node_cw, deg)
        by_degree = indptr[:-1][np.argsort(-deg, kind="stable")]
        reaching = len(deg) - np.cumsum(np.bincount(deg))
        for j in range(1, len(reaching)):
            at = by_degree[:reaching[j]] + j
            cum[at] += cum[at - 1]
    node_totals = np.zeros(g.node_count)
    node_totals[deg > 0] = cum[indptr[1:][deg > 0] - 1]
    _weight_vector(node_totals[deg > 0], np.count_nonzero(deg), "wrw draw")
    return cum, node_totals


def _step_rule(rule: str, g: Graph, part, category_weights, scalar: bool):
    """A walk's step, its number of uniform streams and its per-node draw
    weight. The array step maps every walker's current node and one
    uniform array per stream to the next nodes (perhaps updating the
    current nodes in place). The scalar step maps one walker's node and
    one list of uniforms per stream to the list of nodes it visits; it
    reads the same arrays through memoryviews, in Python floats, so it
    takes the array step's path."""
    indptr, indices, deg = g.indptr, g.indices, g.degrees.astype(float)
    ip, ix, dg = map(memoryview, (indptr, indices, deg))
    if rule == "rw":
        def step(cur, r):
            return indices[indptr[cur] + (r * deg[cur]).astype(np.int64)]

        def walk(u, rs):
            return [u := ix[ip[u] + int(r * dg[u])] for r in rs]
        return walk if scalar else step, 1, deg
    if rule == "mhrw":
        def step(cur, r, accept):
            d = deg[cur]
            v = indices[indptr[cur] + (r * d).astype(np.int64)]
            np.copyto(cur, v, where=accept * deg[v] < d)
            return cur

        def walk(u, rs, accepts):
            path = []
            for r, a in zip(rs, accepts):
                d = dg[u]
                v = ix[ip[u] + int(r * d)]
                if a * dg[v] < d:
                    u = v
                path.append(u)
            return path
        return walk if scalar else step, 2, np.ones(g.node_count)
    cum, node_totals = _wrw_sums(g, part, category_weights)
    if scalar:
        sums, totals = memoryview(cum), memoryview(node_totals)

        def walk(u, rs):
            return [u := ix[bisect_right(sums, r * totals[u], ip[u], ip[u + 1])]
                    for r in rs]
        return walk, 1, node_totals
    # complex numbers order by real, then imaginary part, so one search
    # for u + (r * total(u))j over the row + (running sum)j keys is a
    # bisect_right inside row u; the complex products are exact
    search = (np.repeat(np.arange(g.node_count), g.degrees)
              + 1j * cum).searchsorted
    totals_j = 1j * node_totals
    return (lambda cur, r: indices[search(cur + r * totals_j[cur], "right")],
            1, node_totals)


# Uniforms held at once over all walkers and streams: 2**16 doubles, 512 KiB.
_CHUNK_DOUBLES = 1 << 16
# Batches of fewer walkers than this take the scalar step: below it a
# Python step per walker costs less than numpy's per-call overhead per
# batch step (measured crossovers: about 9-12 walkers for rw and mhrw,
# 12-16 for wrw, on 5,000- and 88,850-node graphs).
_SCALAR_BELOW = 10


def lockstep_walks(rule: str, g: Graph, n: int, seeds: Sequence,
                   start: int | None = None, burn_in: int = 0,
                   part: CategoryPartition | None = None,
                   category_weights=None) -> Iterator[SampleTrace]:
    """One "rw", "mhrw" or "wrw" walk of burn_in + n steps per seed, all
    advancing together; wrw reads ``part`` and ``category_weights``
    (equal if None). Each walker draws from its seed as a lone walk
    would: its start unless given, then one uniform per step, mhrw's
    acceptance uniforms after all of its proposals. A batch of fewer
    than ``_SCALAR_BELOW`` walkers takes the rule's scalar step, one
    walker at a time over each chunk of uniforms, a larger one its array
    step; both visit the same nodes. Visits are held in the smallest
    unsigned dtype that fits a node id until used."""
    scalar = len(seeds) < _SCALAR_BELOW
    step, stream_count, node_weights = _step_rule(rule, g, part,
                                                  category_weights, scalar)
    _check_request(g, n, "walk on")
    check_count(burn_in, "burn_in")
    rngs, recorded = zip(*map(_as_rng, seeds))
    if start is not None and g.degree(int(start)) == 0:
        raise IsolatedStartNode(f"start node {start} has no neighbors")
    candidates = np.flatnonzero(g.degrees > 0)
    if candidates.size == 0:
        raise IsolatedStartNode("graph has no edges to walk on")
    starts = [int(candidates[rng.integers(0, candidates.size)])
              if start is None else int(start) for rng in rngs]
    if not g.is_connected:
        warnings.warn(f"{rule} walk on a disconnected graph covers only "
                      "the start node's component", RuntimeWarning,
                      stacklevel=3)
    total, walkers = burn_in + n, len(starts)
    streams = [rngs]
    if stream_count == 2:
        # the second stream follows the first in each generator
        streams = [[copy.deepcopy(rng) for rng in rngs], rngs]
        for rng, left in product(rngs, range(total, 0, -_CHUNK_DOUBLES)):
            rng.random(min(left, _CHUNK_DOUBLES))
    visits = np.empty((total, walkers), np.min_scalar_type(g.node_count - 1))
    chunk = max(1, _CHUNK_DOUBLES // (walkers * stream_count))
    draws = np.empty((stream_count, chunk, walkers))
    cur = np.asarray(starts, dtype=np.int64)
    for lo in range(0, total, chunk):
        size = min(chunk, total - lo)
        for s, stream in enumerate(streams):
            for w, rng in enumerate(stream):
                draws[s, :size, w] = rng.random(size)
        if scalar:
            for w in range(walkers):
                visits[lo:lo + size, w] = path = step(
                    int(cur[w]), *draws[:, :size, w].tolist())
                cur[w] = path[-1]
            continue
        for i, uniforms in enumerate(zip(*draws[:, :size]), lo):
            visits[i] = cur = step(cur, *uniforms)
    columns = (visits[burn_in:, w].astype(np.int64) for w in range(walkers))
    return (SampleTrace(nodes=nodes, steps=np.arange(n, dtype=np.int64),
                        weights=node_weights[nodes], sampler=rule, seed=seed,
                        start=first, burn_in=burn_in)
            for nodes, seed, first in zip(columns, recorded, starts))


def sample_rw(g: Graph, n: int, start: int | None = None,
              burn_in: int = 0, seed=None) -> SampleTrace:
    """Simple random walk; next hop uniform among neighbors.

    Runs burn_in + n steps from ``start`` (uniform random non-isolated
    node if omitted), discards the first burn_in, and weights every
    retained draw by its degree, the walk's stationary bias.
    """
    return next(lockstep_walks("rw", g, n, [seed], start, burn_in))


def sample_mhrw(g: Graph, n: int, start: int | None = None,
                burn_in: int = 0, seed=None) -> SampleTrace:
    """Metropolis-Hastings random walk targeting the uniform law.

    Proposes a uniform neighbor v of the current node u and accepts
    with probability min(1, deg(u)/deg(v)); a rejection repeats the
    current node as the next draw, which is what keeps the chain's
    stationary distribution uniform. All weights are 1.
    """
    return next(lockstep_walks("mhrw", g, n, [seed], start, burn_in))


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
    return next(lockstep_walks("wrw", g, n, [seed], start, burn_in, part,
                               category_weights))


def thin(trace: SampleTrace, interval: int) -> SampleTrace:
    """Keep every interval-th draw (positions 0, T, 2T, ...).

    Weights ride along unchanged; they are properties of the drawn
    nodes, not of the positions.
    """
    check_count(interval, "thin_interval", "interval")
    if interval == 1:
        return trace
    return replace(trace,
                   nodes=trace.nodes[::interval],
                   steps=trace.steps[::interval],
                   weights=trace.weights[::interval],
                   thin_interval=trace.thin_interval * int(interval))


# name -> draw(g, n, seeds, start=, burn_in=, part=, category_weights=),
# one trace per seed; wis weighs by degree, uis and wis ignore the rest
SAMPLERS: dict[str, Callable[..., Iterator[SampleTrace]]] = {
    "uis": lambda g, n, seeds, **_: (sample_uis(g, n, seed=s) for s in seeds),
    "wis": lambda g, n, seeds, **_: (
        sample_wis(g, g.degrees.astype(float), n, seed=s) for s in seeds),
    **{rule: partial(lockstep_walks, rule) for rule in ("rw", "mhrw", "wrw")},
}


def draw_traces(sampler: str, g: Graph, n: int, seeds: Sequence,
                thin_interval: int = 1, **options) -> Iterator[SampleTrace]:
    """One trace of n draws per seed from the named sampler, each kept
    from n * thin_interval by ``thin``; ``options`` as in SAMPLERS."""
    check_count(n, "n")
    check_count(len(seeds), "walks", "len(seeds)")
    check_count(thin_interval, "thin_interval")
    traces = SAMPLERS[sampler](g, n * thin_interval, seeds, **options)
    return (thin(trace, thin_interval) for trace in traces)
