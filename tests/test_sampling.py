import warnings
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryPartition,
    EmptyGraph,
    ExperimentConfig,
    Graph,
    InvalidParameter,
    InvalidThinning,
    InvalidWeight,
    IsolatedStartNode,
    SyntheticParams,
    sample_mhrw,
    sample_rw,
    sample_uis,
    sample_wis,
    sample_wrw,
    synthetic_graph,
    thin,
)

from categraph import sampling
from categraph.errors import weights_ok
from categraph.fileio import load_trace, save_trace
from categraph.sampling import draw_traces, lockstep_walks

from _reference import (naive_mhrw, naive_rw, naive_wis, naive_wrw,
                        random_graph, random_partition)

LONG_RUN = 1_000_000


def frequencies(trace, n_nodes):
    return np.bincount(trace.nodes, minlength=n_nodes) / len(trace)


class _Uniforms(np.random.Generator):
    """A Generator whose ``random(size)`` hands out chosen uniforms, in
    order; every other draw comes from an unused PCG64."""

    def __init__(self, uniforms):
        super().__init__(np.random.PCG64(0))
        self.left = list(uniforms)

    def random(self, size=None, dtype=np.float64, out=None):
        assert isinstance(size, int) and size <= len(self.left)
        taken, self.left = self.left[:size], self.left[size:]
        return np.array(taken, dtype=float)


def _edge_uniforms(d):
    """0, the largest double below 1, and each k/d with its two
    neighboring doubles: every uniform in [0, 1) at or next to an edge
    of a d-neighbor row's intervals."""
    cuts = np.arange(d + 1) / d
    near = np.concatenate([[0.0, 1 - 2.0**-53], cuts,
                           np.nextafter(cuts, -1.0), np.nextafter(cuts, 2.0)])
    return near[(near >= 0.0) & (near < 1.0)].tolist()


def test_uis_single_node_graph():
    g = Graph.from_edges(1, [])
    t = sample_uis(g, 10, seed=0)
    assert t.nodes.tolist() == [0] * 10
    assert np.all(t.weights == 1.0)


def test_uis_triangle_concentration():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    t = sample_uis(g, LONG_RUN, seed=1)
    assert np.allclose(frequencies(t, 3), 1 / 3, atol=0.005)


def test_wis_degree_weights_on_path():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = sample_wis(g, g.degrees.astype(float), LONG_RUN, seed=2)
    freq = frequencies(t, 3)
    assert abs(freq[1] - 0.5) < 0.005
    assert abs(freq[0] - 0.25) < 0.005
    # each draw is annotated with its own weight
    assert np.array_equal(t.weights, g.degrees[t.nodes])


def test_wis_rejects_nonpositive_weight():
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(InvalidWeight):
        sample_wis(g, np.array([1.0, 0.0]), 5, seed=0)
    with pytest.raises(InvalidWeight):
        sample_wis(g, np.array([1.0, -2.0]), 5, seed=0)
    with pytest.raises(InvalidWeight):
        sample_wis(g, {0: 1.0}, 5, seed=0)


def test_wis_constant_weights_match_uniform_chi2():
    # chi-square against the uniform expectation, df=9; 27.88 is the
    # 0.999 quantile
    g = Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)])
    n = 20_000
    t = sample_wis(g, np.full(10, 3.7), n, seed=3)
    observed = np.bincount(t.nodes, minlength=10)
    chi2 = float(np.sum((observed - n / 10) ** 2 / (n / 10)))
    assert chi2 < 27.88


def test_rw_single_step_is_neighbor_of_start():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = sample_rw(g, 1, start=1, burn_in=0, seed=4)
    assert t.nodes[0] in (0, 2)
    assert t.start == 1


def test_rw_isolated_start():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(IsolatedStartNode):
        sample_rw(g, 5, start=2, seed=0)


@pytest.mark.slow
def test_rw_cycle_visits_uniform():
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    t = sample_rw(g, LONG_RUN, start=0, seed=5)
    assert np.all(np.abs(frequencies(t, 5) * 5 - 1) < 0.02)


@pytest.mark.slow
def test_rw_star_center_half():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t = sample_rw(g, LONG_RUN, start=0, seed=6)
    freq = frequencies(t, 4)
    assert abs(freq[0] / 0.5 - 1) < 0.02


def test_rw_weights_are_degrees():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    t = sample_rw(g, 200, start=0, seed=7)
    assert np.array_equal(t.weights, g.degrees[t.nodes])


def test_rw_consecutive_draws_adjacent():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                             (0, 3)])
    t = sample_rw(g, 500, start=0, burn_in=0, seed=8)
    assert t.nodes[0] in g.neighbors(0)
    for u, v in zip(t.nodes, t.nodes[1:]):
        assert g.has_edge(int(u), int(v))


@pytest.mark.slow
def test_mhrw_star_visits_uniform():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t = sample_mhrw(g, LONG_RUN, start=0, seed=9)
    assert np.all(np.abs(frequencies(t, 4) * 4 - 1) < 0.02)


def test_mhrw_acceptance_rule_on_star():
    # center (deg 3) -> leaf (deg 1) is always accepted, so the center
    # never repeats; leaf -> center is accepted w.p. 1/3, so leaves do
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    t = sample_mhrw(g, 50_000, start=0, seed=10)
    nodes = t.nodes
    center_repeats = np.sum((nodes[:-1] == 0) & (nodes[1:] == 0))
    assert center_repeats == 0
    at_leaf = nodes[:-1] != 0
    moved = nodes[:-1][at_leaf] != nodes[1:][at_leaf]
    assert abs(np.mean(moved) - 1 / 3) < 0.02


def test_mhrw_steps_adjacent_or_repeat():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    t = sample_mhrw(g, 500, start=2, seed=11)
    for u, v in zip(t.nodes, t.nodes[1:]):
        assert u == v or g.has_edge(int(u), int(v))
    assert np.all(t.weights == 1.0)


def _two_cat_path():
    # path 0-1-2 with node 0 in the heavy category
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.array([0, 1, 1]), names=("A", "B"))
    return g, part


def test_wrw_transition_bias_toward_heavy_category():
    # edge {1,0} has weight 10+1=11, edge {1,2} weight 1+1=2, so from
    # the middle node the walk moves to node 0 w.p. 11/13
    g, part = _two_cat_path()
    t = sample_wrw(g, part, {0: 10.0, 1: 1.0}, 200_000, start=1, seed=12)
    nodes = t.nodes
    from_middle = nodes[:-1] == 1
    toward_heavy = np.mean(nodes[1:][from_middle] == 0)
    assert abs(toward_heavy - 11 / 13) < 0.01


@pytest.mark.slow
def test_wrw_equal_weights_matches_rw_law():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    t = sample_wrw(g, CategoryPartition(labels=np.zeros(4, dtype=int),
                                        names=("all",)),
                   {0: 1.0}, LONG_RUN, start=0, seed=13)
    freq = frequencies(t, 4)
    expected = g.degrees / g.degrees.sum()
    assert np.all(np.abs(freq / expected - 1) < 0.02)
    # equal category weights make every edge weight 2, so node weights
    # are exactly twice the degree
    assert np.array_equal(t.weights, 2.0 * g.degrees[t.nodes])


def test_wrw_rejects_bad_category_weights():
    g, part = _two_cat_path()
    with pytest.raises(InvalidWeight):
        sample_wrw(g, part, {0: 1.0, 1: 0.0}, 5, seed=0)
    with pytest.raises(InvalidWeight):
        sample_wrw(g, part, {0: 1.0}, 5, seed=0)


EMPTY = Graph.from_edges(0, [])
PATH, PARTITION = _two_cat_path()
BAD_REQUESTS = {
    "uis on an empty graph": (lambda: sample_uis(EMPTY, 5), EmptyGraph,
                              "cannot sample from an empty graph"),
    "wis on an empty graph": (lambda: sample_wis(EMPTY, [], 5), EmptyGraph,
                              "cannot sample from an empty graph"),
    "rw on an empty graph": (lambda: sample_rw(EMPTY, 5), EmptyGraph,
                             "cannot walk on an empty graph"),
    "uis with no draws": (lambda: sample_uis(PATH, 0), ValueError,
                          "n must be >= 1, got 0"),
    "wis with no draws": (lambda: sample_wis(PATH, [1, 1, 1], 0), ValueError,
                          "n must be >= 1, got 0"),
    "mhrw with no draws": (lambda: sample_mhrw(PATH, 0), ValueError,
                           "n must be >= 1, got 0"),
    "wis weight missing": (lambda: sample_wis(PATH, {0: 1.0, 2: 1.0}, 5),
                           InvalidWeight, "no weight for node 1"),
    "wis weight for an unknown node": (
        lambda: sample_wis(PATH, {0: 1.0, 1: 1.0, 2: 1.0, 3: 5.0, -1: 2.0,
                                  "x": 3.0}, 5),
        InvalidWeight, "weight for unknown node 3"),
    "wis weight for a node named by a string": (
        lambda: sample_wis(PATH, {0: 1.0, "x": 3.0, 1: 1.0, 2: 1.0}, 5),
        InvalidWeight, "weight for unknown node 'x'"),
    "wis weights too short": (lambda: sample_wis(PATH, [1.0, 1.0], 5),
                              InvalidWeight, "one weight per node"),
    "wis weight not finite": (lambda: sample_wis(PATH, [1, np.nan, 1], 5),
                              InvalidWeight, "node weights must be positive"),
    "wrw weight missing": (lambda: sample_wrw(PATH, PARTITION, {0: 1.0}, 5),
                           InvalidWeight, "no weight for category 1"),
    "wrw weight for an unknown category": (
        lambda: sample_wrw(PATH, PARTITION, {0: 1.0, 1: 2.0, 7: 9.0}, 5),
        InvalidWeight, "weight for unknown category 7"),
    "wrw weight keyed by a boolean": (
        lambda: sample_wrw(PATH, PARTITION, {True: 1.0, 0: 2.0}, 5),
        InvalidWeight, "weight for unknown category True"),
    "wrw weights too long": (lambda: sample_wrw(PATH, PARTITION, [1, 1, 1], 5),
                             InvalidWeight, "one weight per category"),
    "wrw weight negative": (lambda: sample_wrw(PATH, PARTITION, [1, -1], 5),
                            InvalidWeight,
                            "category weights must be positive"),
    "rw with a negative burn-in": (lambda: sample_rw(PATH, 5, burn_in=-1),
                                   ValueError, "burn_in must be >= 0"),
    "rw with a fractional n": (lambda: sample_rw(PATH, 2.5), InvalidParameter,
                               "n: 2.5 is not an integer"),
    "rw with a fractional burn-in": (
        lambda: sample_rw(PATH, 5, burn_in=1.5), InvalidParameter,
        "burn_in: 1.5 is not an integer"),
    "rw traces for no seeds": (
        lambda: draw_traces("rw", PATH, 5, []), InvalidParameter,
        r"len\(seeds\) must be >= 1, got 0"),
    "uis traces for no seeds": (
        lambda: draw_traces("uis", PATH, 5, []), InvalidParameter,
        r"len\(seeds\) must be >= 1, got 0"),
    "uis with a negative seed": (
        lambda: sample_uis(PATH, 5, seed=-1), InvalidParameter,
        "seed must be >= 0, got -1"),
    "rw traces with a negative seed entry": (
        lambda: draw_traces("rw", PATH, 5, [[7, -1]]), InvalidParameter,
        "seed must be >= 0, got -1"),
    "rw on an edgeless graph": (lambda: sample_rw(Graph.from_edges(3, []), 5),
                                IsolatedStartNode,
                                "graph has no edges to walk on"),
    "wis traces on an edgeless graph": (
        lambda: draw_traces("wis", Graph.from_edges(3, []), 5, [0]),
        EmptyGraph, "cannot sample by degree from a graph with no edges"),
    "uis traces thinned by 0": (
        lambda: draw_traces("uis", PATH, 5, [0], thin_interval=0),
        InvalidThinning, "thin_interval must be >= 1, got 0"),
    "rw traces thinned by -1": (
        lambda: draw_traces("rw", PATH, 5, [0], thin_interval=-1),
        InvalidThinning, "thin_interval must be >= 1, got -1"),
}


@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_bad_requests_name_what_is_wrong(case):
    draw, error, message = BAD_REQUESTS[case]
    with pytest.raises(error, match=message):
        draw()


# the 4-cycle 0-1-2-3 labeled A, A, B, B
CYCLE = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
CYCLE_PARTITION = CategoryPartition(labels=np.array([0, 0, 1, 1]),
                                    names=("A", "B"))
# draw weights the writers and readers refuse: a subnormal whose inverse
# overflows, and wrw edge weights whose sums overflow
UNWRITABLE_DRAW_WEIGHTS = {
    "wis node weights 1e-320": (
        lambda: sample_wis(CYCLE, [1e-320] * 4, 20, seed=1),
        "node weights must be positive and finite, with a finite inverse"),
    "wrw category weights 1e308": (
        lambda: sample_wrw(CYCLE, CYCLE_PARTITION, [1e308, 1e308], 20, seed=1),
        "wrw draw weights must be positive and finite, with a finite inverse"),
    "sweep config wrw category weights 1e308": (
        lambda: ExperimentConfig(graph=CYCLE, partition=CYCLE_PARTITION,
                                 samplers=("uis", "wrw"),
                                 wrw_category_weights=[1e308, 1e308]),
        "wrw draw weights must be positive and finite, with a finite inverse"),
    "wrw category weights 1e-320": (
        lambda: sample_wrw(CYCLE, CYCLE_PARTITION, [1e-320, 1e-320], 20,
                           seed=1),
        "category weights must be positive and finite, with a finite inverse"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_DRAW_WEIGHTS))
def test_samplers_refuse_draw_weights_the_writers_refuse(case):
    """Refused before any draw, with no numpy warning on the way."""
    draw, message = UNWRITABLE_DRAW_WEIGHTS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidWeight, match=message):
            draw()


@pytest.mark.parametrize("scale", [1e308, 2.0 ** 1021, 2.0 ** -1000])
def test_wis_draws_alike_at_any_scale_of_its_weights(scale):
    """Weights whose sum overflows, or that are all tiny, draw the nodes
    that the same weights unscaled draw, with no warning, and are
    recorded as given."""
    weights = [1.0] * 4 if scale == 1e308 else [1.0, 2.0, 3.0, 4.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = sample_wis(CYCLE, np.multiply(weights, scale), 50, seed=1)
    trace = sample_wis(CYCLE, weights, 50, seed=1)
    assert scaled.nodes.tolist() == trace.nodes.tolist()
    assert scaled.weights.tolist() == (trace.weights * scale).tolist()


@settings(max_examples=100, deadline=None)
@given(base=st.lists(st.tuples(st.floats(1.0, 2.0, exclude_max=True),
                               st.booleans()), min_size=1, max_size=40),
       k=st.integers(-1000, 1000), n=st.integers(1, 2000),
       seed=st.integers(0, 2**63))
@example(base=[(1.0, False), (1.5, True), (1.25, False)], k=3,
         n=2**16 + 3, seed=5)
def test_wis_draws_the_inverse_cdf_oracle_bit_for_bit(base, k, n, seed):
    """Weights at any power-of-two scale, some 20 orders of magnitude
    from the rest so that the CDF has steps of zero width, draw the
    oracle's nodes and weights, across blocks of uniforms too."""
    apart = 1e-20 if k >= 0 else 1e20   # so every weight passes weights_ok
    weights = np.ldexp([m * (apart if far else 1.0) for m, far in base], k)
    assert np.all(weights_ok(weights))
    g = Graph.from_edges(len(weights), [])
    trace = sample_wis(g, weights, n, seed=seed)
    nodes, drawn = naive_wis(g, weights, n, seed)
    assert trace.nodes.tolist() == nodes
    assert trace.weights.tolist() == drawn


def test_wis_draws_what_choice_draws_on_the_c4_degrees():
    """The sweep's wis cells keep their numbers: the first n = 50,000
    replicate on the C4 graph's degree weights is Generator.choice's."""
    g, _ = synthetic_graph(SyntheticParams(
        category_sizes=(100, 200, 200, 300, 400, 500, 600, 700, 1000, 1000),
        k=10, alpha=0.5, seed=42))
    degrees, seed = g.degrees.astype(float), [7, 1, 2, 0]
    trace = sample_wis(g, degrees, 50_000, seed=seed)
    expected = np.random.default_rng(seed).choice(
        g.node_count, size=50_000, p=degrees / degrees.sum())
    assert np.array_equal(trace.nodes, expected)
    assert np.array_equal(trace.weights, degrees[expected])


@pytest.mark.parametrize("weights, u, node", [
    # an exact CDF value: bisect right of the step at 0.25, to node 1
    ([1.0, 1.0, 2.0], 0.25, 1),
    # ten 0.1 steps sum to 1 - 2**-53 before the CDF is normalised
    ([1.0] * 10, 1 - 2.0**-53, 9),
])
def test_wis_draws_at_the_edges_of_its_cdf(weights, u, node):
    """A uniform equal to a CDF value, or to the sum of unnormalised
    steps, draws the node that choice and the oracle draw."""
    g = Graph.from_edges(len(weights), [])
    assert sample_wis(g, weights, 1, seed=_Uniforms([u])).nodes.tolist() == [node]
    assert naive_wis(g, weights, 1, _Uniforms([u]))[0] == [node]
    p = np.asarray(weights) / sum(weights)
    assert _Uniforms([u]).choice(len(weights), 1, p=p).tolist() == [node]


# nodes 0, 4 and 7 are isolated: the first, one inside and the last
ISOLATED = Graph.from_edges(8, [(1, 2), (1, 3), (2, 3), (3, 5), (5, 6)])


def test_wis_by_degree_never_draws_an_isolated_node():
    """The table's wis draws Generator.choice's nodes over p = deg/sum(deg),
    where an isolated node, which no walk visits either, has no mass;
    uniforms at and beside each CDF value, 0 and 1 - 2**-53 included,
    draw the oracle's nodes. sample_wis still refuses a weight of 0."""
    deg = ISOLATED.degrees
    trace, = draw_traces("wis", ISOLATED, 5000, [3])
    expected = np.random.default_rng(3).choice(8, size=5000, p=deg / deg.sum())
    assert trace.nodes.tolist() == expected.tolist()
    assert trace.weights.tolist() == deg[trace.nodes].tolist()
    cdf = np.cumsum(deg) / deg.sum()
    edges = [u for u in np.concatenate([[0.0, 1 - 2.0**-53], cdf,
                                        np.nextafter(cdf, 0.0)]).tolist()
             if u < 1.0]
    trace, = draw_traces("wis", ISOLATED, len(edges), [_Uniforms(edges)])
    nodes, weights = naive_wis(ISOLATED, deg, len(edges), _Uniforms(edges))
    assert trace.nodes.tolist() == nodes
    assert trace.weights.tolist() == weights
    for t in (trace, *draw_traces("wis", ISOLATED, 2000, [1, 2])):
        assert set(t.nodes.tolist()) == {1, 2, 3, 5, 6}
    with pytest.raises(InvalidWeight, match="node weights must be positive"):
        sample_wis(ISOLATED, deg.astype(float), 5, seed=0)


def test_samplers_take_the_least_weight_the_readers_take(tmp_path):
    least = np.nextafter(2.0 ** -1024, 1)
    trace = sample_wis(CYCLE, [least] * 4, 20, seed=1)
    assert set(trace.weights.tolist()) == {least}
    save_trace(trace, tmp_path / "t.jsonl")
    assert load_trace(tmp_path / "t.jsonl").weights.tolist() == [least] * 20
    # equal wrw weights up to half the largest float, over two edges a node
    trace = sample_wrw(CYCLE, CYCLE_PARTITION, [2.0 ** 1021] * 2, 20, seed=1)
    assert set(trace.weights.tolist()) == {2.0 ** 1023}


def _hub_graph():
    """Node 0 joined to 2,400 of 2,600 nodes, a path through the rest,
    and sparse random edges, in three categories."""
    rng = np.random.default_rng(5)
    n = 2600
    edges = {(0, v) for v in range(1, 2401)}
    edges |= {(v, v + 1) for v in range(2400, n - 1)}
    for u, v in rng.integers(1, n, size=(4000, 2)).tolist():
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(n, sorted(edges))
    part = CategoryPartition(labels=rng.integers(0, 3, size=n),
                             names=("a", "b", "c"))
    return g, part


def test_wrw_matches_per_row_cumsum_reference(three_color_graph):
    hub, hub_part = _hub_graph()
    assert hub.degree(0) >= 2000
    for cw, (g, part), (seed, start, burn_in) in product(
            ([1.0, 3.7, 0.29], [1.0, 1.0, 1.0]),
            ((hub, hub_part), three_color_graph),
            ((0, None, 0), (1, None, 7), (2, 1, 3))):
        t = sample_wrw(g, part, cw, 3000, start=start, burn_in=burn_in,
                       seed=seed)
        nodes, weights, first = naive_wrw(g, part.labels.tolist(), cw,
                                          3000, start, burn_in, seed)
        assert t.nodes.tolist() == nodes
        assert t.weights.tolist() == weights
        assert t.start == first


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       cw=st.lists(st.floats(2.0**-60, 2.0**60), min_size=3, max_size=3))
def test_wrw_running_sums_add_each_row_in_order(seed, cw):
    """Accumulated a degree class at a time, each row's sums are its
    weights added left to right, bit for bit, and the last its total."""
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(3, 40)), float(rng.uniform(0, 0.4)), rng)
    part = random_partition(g.node_count, 3, rng)
    sums, totals = sampling._wrw_sums(g, part, cw if len(set(cw)) > 1 else None)
    if sums is None:
        return
    node_cw = np.asarray(cw)[part.labels]
    for v in range(g.node_count):
        run, want = 0.0, []
        for u in g.neighbors(v).tolist():
            run += float(node_cw[v]) + float(node_cw[u])
            want.append(run)
        assert sums[g.indptr[v]:g.indptr[v + 1]].tolist() == want
        assert totals[v] == (want[-1] if want else 0.0)


def test_wrw_takes_one_step_per_category_weight_vector():
    """Unit weights give no running sums and draw weights 2·deg, bit for
    bit; any other weights give the row bisect, a scalar step that a
    batch of any size takes (its visits: the examples of
    test_scalar_and_array_steps_match_per_walker_oracles)."""
    g, part = _hub_graph()
    for unit in (None, [1.0, 1.0, 1.0], {0: 1, 1: 1, 2: 1}):
        sums, weights = sampling._wrw_sums(g, part, unit)
        assert sums is None
        assert weights.dtype == np.float64
        assert np.array_equal(weights, 2.0 * g.degrees)
    cw = [1.0, 3.7, 0.29]
    assert sampling._wrw_sums(g, part, cw)[0].shape == (2 * g.edge_count,)
    rw_step = sampling._step_rule("rw", g, part, None, False)[0]
    lone, is_scalar, streams, weights = sampling._step_rule("wrw", g, part,
                                                            cw, True)
    assert is_scalar and streams == 1
    assert lone.__code__ is not rw_step.__code__
    for scalar in (True, False):
        step, is_scalar, _, _ = sampling._step_rule("wrw", g, part, cw, scalar)
        assert is_scalar and step.__code__ is lone.__code__


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 10, 12, 49, 100, 2400])
def test_unit_weight_wrw_steps_at_the_edges_of_a_row(d):
    """At unit category weights wrw takes rw's step, which lands where the
    per-row cumsum bisect lands for every uniform at or next to an edge
    of the row's intervals: from the center of a d-leaf star, whose leaves
    lead back, one lone walk (scalar step) and 12 walkers (array step)."""
    g = Graph.from_edges(d + 1, [(0, v) for v in range(1, d + 1)])
    part = CategoryPartition(labels=np.arange(d + 1) % 2, names=("a", "b"))
    unit, labels = [1.0, 1.0], part.labels.tolist()
    center = _edge_uniforms(d)
    leaf = [0.0, 1 - 2.0**-53] * len(center)
    walks = [[r for pair in zip(np.roll(center, w).tolist(), leaf) for r in pair]
             for w in range(12)]
    n = len(walks[0])
    assert 12 >= sampling._SCALAR_BELOW
    rw_step = sampling._step_rule("rw", g, part, None, False)[0]
    assert sampling._step_rule("wrw", g, part, unit, False)[0].__code__ \
        is rw_step.__code__
    traces = [sample_wrw(g, part, unit, n, start=0, seed=_Uniforms(walks[0])),
              *lockstep_walks("wrw", g, n, list(map(_Uniforms, walks)),
                              start=0, part=part, category_weights=unit)]
    for trace, uniforms in zip(traces, walks[:1] + walks, strict=True):
        nodes, weights, _ = naive_wrw(g, labels, unit, n, 0, 0,
                                      _Uniforms(uniforms))
        assert trace.nodes.tolist() == nodes
        assert trace.weights.tolist() == weights == [2.0 * g.degree(v)
                                                     for v in nodes]
        assert nodes == naive_rw(g, n, 0, 0, _Uniforms(uniforms))[0]


@pytest.mark.slow
def test_stationary_laws_all_samplers(eight_node_graph):
    """Every sampler's 1e6-draw visit frequencies match its analytic
    stationary law within 2% relative error per node."""
    g = eight_node_graph
    n_nodes = g.node_count
    part = CategoryPartition(labels=np.array([0, 0, 1, 1, 0, 1, 0, 1]),
                             names=("x", "y"))
    cw = np.array([2.0, 0.5])
    # analytic WRW law, derived straight from the edge list
    node_w = np.zeros(n_nodes)
    for u, v in g.edge_array.tolist():
        w = cw[part.labels[u]] + cw[part.labels[v]]
        node_w[u] += w
        node_w[v] += w

    uniform = np.full(n_nodes, 1 / n_nodes)
    degree_law = g.degrees / g.degrees.sum()
    cases = [
        (sample_uis(g, LONG_RUN, seed=20), uniform),
        (sample_wis(g, g.degrees.astype(float), LONG_RUN, seed=21), degree_law),
        (sample_rw(g, LONG_RUN, start=0, seed=22), degree_law),
        (sample_mhrw(g, LONG_RUN, start=0, seed=23), uniform),
        (sample_wrw(g, part, cw, LONG_RUN, start=0, seed=24),
         node_w / node_w.sum()),
    ]
    for trace, law in cases:
        freq = frequencies(trace, n_nodes)
        assert np.all(np.abs(freq / law - 1) < 0.02), trace.sampler


@pytest.mark.parametrize("make", [
    lambda g, part: sample_uis(g, 50, seed=33),
    lambda g, part: sample_wis(g, g.degrees.astype(float), 50, seed=33),
    lambda g, part: sample_rw(g, 50, burn_in=3, seed=33),
    lambda g, part: sample_mhrw(g, 50, burn_in=3, seed=33),
    lambda g, part: sample_wrw(g, part, {0: 3.0, 1: 1.0}, 50, seed=33),
])
def test_traces_deterministic_given_seed(make, eight_node_graph):
    part = CategoryPartition(labels=np.array([0, 0, 1, 1, 0, 1, 0, 1]),
                             names=("x", "y"))
    t1 = make(eight_node_graph, part)
    t2 = make(eight_node_graph, part)
    assert np.array_equal(t1.nodes, t2.nodes)
    assert np.array_equal(t1.weights, t2.weights)
    assert t1.start == t2.start


def test_burn_in_discards_prefix():
    g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    full = sample_rw(g, 30, start=0, burn_in=0, seed=40)
    burned = sample_rw(g, 20, start=0, burn_in=10, seed=40)
    assert np.array_equal(full.nodes[10:], burned.nodes)


def test_walk_on_disconnected_graph_warns():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.warns(RuntimeWarning):
        t = sample_rw(g, 100, start=0, seed=41)
    assert set(t.nodes.tolist()) <= {0, 1, 2}


def test_thin_identity():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = sample_uis(g, 10, seed=50)
    assert thin(t, 1) is t


def test_thin_every_third():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = sample_uis(g, 10, seed=51)
    out = thin(t, 3)
    assert out.steps.tolist() == [0, 3, 6, 9]
    assert np.array_equal(out.nodes, t.nodes[[0, 3, 6, 9]])
    assert out.thin_interval == 3


def test_thin_keeps_walk_weights():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    t = sample_rw(g, 30, start=0, seed=52)
    out = thin(t, 4)
    assert np.array_equal(out.weights, g.degrees[out.nodes])


def test_thin_rejects_zero():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    t = sample_uis(g, 10, seed=53)
    with pytest.raises(InvalidThinning):
        thin(t, 0)


def _random_walk_graph(seed, hub):
    """A sparse random graph, or one whose node 0 joins 500 to 599
    other nodes, in three categories; some nodes may be isolated."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(510, 600) if hub else rng.integers(2, 40))
    pairs = rng.integers(0, n, size=(2 * n, 2))
    if hub:
        spokes = rng.choice(np.arange(1, n), size=int(rng.integers(500, n)),
                            replace=False)
        pairs = np.concatenate([pairs, np.column_stack(
            [np.zeros_like(spokes), spokes])])
    edges = {(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v}
    if not edges:
        edges = {(0, 1)}
    return (Graph.from_edges(n, sorted(edges)),
            random_partition(n, min(3, n), rng))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(graph_seed=st.integers(0, 2**32 - 1), hub=st.booleans(),
       walkers=st.integers(1, 6), seed=st.integers(0, 2**63),
       n=st.integers(1, 50), burn_in=st.integers(0, 10),
       given_start=st.booleans(), chunk=st.integers(1, 40),
       cw=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
@example(graph_seed=3, hub=True, walkers=6, seed=1, n=50, burn_in=2,
         given_start=False, chunk=7, cw=[1.0, 1.0, 1.0])
def test_lockstep_walks_match_per_walker_oracles(graph_seed, hub, walkers,
                                                 seed, n, burn_in,
                                                 given_start, chunk, cw):
    """Every walker of a batch equals its own literal per-step walk,
    element for element, across uniform chunk boundaries."""
    g, part = _random_walk_graph(graph_seed, hub)
    if hub:
        assert g.degree(0) >= 500
    cw = cw[:part.num_categories]
    seeds = [[seed, w] for w in range(walkers)]
    start = None
    if given_start:
        walkable = np.flatnonzero(g.degrees)
        start = int(walkable[graph_seed % len(walkable)])
    oracles = {
        "rw": lambda s: naive_rw(g, n, start, burn_in, s),
        "mhrw": lambda s: naive_mhrw(g, n, start, burn_in, s),
        "wrw": lambda s: naive_wrw(g, part.labels.tolist(), cw, n, start,
                                   burn_in, s),
    }
    with mock.patch.object(sampling, "_CHUNK_DOUBLES", chunk):
        for rule, oracle in oracles.items():
            traces = lockstep_walks(rule, g, n, seeds, start=start,
                                    burn_in=burn_in, part=part,
                                    category_weights=cw)
            for trace, s in zip(traces, seeds, strict=True):
                nodes, weights, first = oracle(s)
                assert trace.nodes.tolist() == nodes
                assert trace.weights.tolist() == weights
                assert trace.start == first
                assert trace.seed == s and trace.sampler == rule


@pytest.mark.parametrize("chunk", [1, 7, 64, 10_000])
def test_generator_seeds_walk_and_end_as_the_per_walker_oracles(chunk):
    """A Generator passed as the seed draws the oracle's trace and is
    left where the oracle leaves an identically seeded generator, across
    uniform chunk boundaries and for a batch of such seeds."""
    g, part = _random_walk_graph(5, hub=False)
    cw = [0.5, 2.0, 7.0][:part.num_categories]
    n, burn_in = 40, 3
    oracles = {
        "rw": lambda s: naive_rw(g, n, None, burn_in, s),
        "mhrw": lambda s: naive_mhrw(g, n, None, burn_in, s),
        "wrw": lambda s: naive_wrw(g, part.labels.tolist(), cw, n, None,
                                   burn_in, s),
    }
    singles = {
        "rw": lambda s: sample_rw(g, n, burn_in=burn_in, seed=s),
        "mhrw": lambda s: sample_mhrw(g, n, burn_in=burn_in, seed=s),
        "wrw": lambda s: sample_wrw(g, part, cw, n, burn_in=burn_in, seed=s),
    }
    with mock.patch.object(sampling, "_CHUNK_DOUBLES", chunk):
        for rule, oracle in oracles.items():
            ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
            trace = singles[rule](ours)
            assert trace.nodes.tolist() == oracle(theirs)[0]
            assert trace.seed is None
            assert ours.random() == theirs.random()
            batch = [np.random.default_rng(k) for k in range(3)]
            twins = [np.random.default_rng(k) for k in range(3)]
            traces = lockstep_walks(rule, g, n, batch, burn_in=burn_in,
                                    part=part, category_weights=cw)
            for trace, ours, theirs in zip(traces, batch, twins, strict=True):
                assert trace.nodes.tolist() == oracle(theirs)[0]
                assert ours.random() == theirs.random()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(graph_seed=st.integers(0, 2**32 - 1), hub=st.booleans(),
       walkers=st.integers(1, 12), seed=st.integers(0, 2**63),
       n=st.integers(1, 50), burn_in=st.integers(0, 10),
       given_start=st.booleans(), chunk=st.integers(1, 40),
       generator=st.booleans(),
       cw=st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
@example(graph_seed=3, hub=True, walkers=12, seed=1, n=50, burn_in=2,
         given_start=False, chunk=7, generator=True, cw=[1.0, 1.0, 1.0])
@example(graph_seed=3, hub=True, walkers=12, seed=2, n=50, burn_in=3,
         given_start=False, chunk=40, generator=True, cw=[1.0, 3.7, 0.29])
@example(graph_seed=3, hub=True, walkers=30, seed=3, n=40, burn_in=2,
         given_start=True, chunk=64, generator=False, cw=[0.5, 2.0, 7.0])
def test_scalar_and_array_steps_match_per_walker_oracles(
        graph_seed, hub, walkers, seed, n, burn_in, given_start, chunk,
        generator, cw):
    """With the crossover just above the batch (scalar step) and at it
    (array step), every walker equals its own literal per-step walk,
    across uniform chunk boundaries of both mhrw streams; a Generator
    seed is left where the oracle leaves its twin."""
    g, part = _random_walk_graph(graph_seed, hub)
    cw = cw[:part.num_categories]
    keys = [[seed, w] for w in range(walkers)]
    start = None
    if given_start:
        walkable = np.flatnonzero(g.degrees)
        start = int(walkable[graph_seed % len(walkable)])
    oracles = {
        "rw": lambda s: naive_rw(g, n, start, burn_in, s),
        "mhrw": lambda s: naive_mhrw(g, n, start, burn_in, s),
        "wrw": lambda s: naive_wrw(g, part.labels.tolist(), cw, n, start,
                                   burn_in, s),
    }
    for (rule, oracle), crossover in product(oracles.items(),
                                             (walkers + 1, walkers)):
        seeds = [np.random.default_rng(k) if generator and w == 0 else k
                 for w, k in enumerate(keys)]
        twin = np.random.default_rng(keys[0])
        expected = [oracle(twin)] + [oracle(k) for k in keys[1:]]
        with mock.patch.object(sampling, "_CHUNK_DOUBLES", chunk), \
                mock.patch.object(sampling, "_SCALAR_BELOW", crossover), \
                mock.patch.object(sampling, "_step_rule",
                                  wraps=sampling._step_rule) as rule_of:
            traces = list(lockstep_walks(rule, g, n, seeds, start=start,
                                         burn_in=burn_in, part=part,
                                         category_weights=cw))
        assert rule_of.call_args.args[-1] is (crossover > walkers)
        for trace, (nodes, weights, first) in zip(traces, expected,
                                                  strict=True):
            assert trace.nodes.tolist() == nodes
            assert trace.weights.tolist() == weights
            assert trace.start == first
        if generator:
            assert traces[0].seed is None
            assert seeds[0].random() == twin.random()
