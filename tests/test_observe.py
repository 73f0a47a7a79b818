import re

import numpy as np
import pytest

from categraph import (
    CategoryPartition,
    Graph,
    InvalidNode,
    SampleTrace,
    observe_induced,
    observe_star,
    sample_uis,
)


def make_trace(nodes, weights=None):
    nodes = np.asarray(nodes, dtype=np.int64)
    if weights is None:
        weights = np.ones(len(nodes))
    return SampleTrace(nodes=nodes, steps=np.arange(len(nodes)),
                       weights=np.asarray(weights, dtype=float),
                       sampler="uis", seed=None, start=None, burn_in=0)


@pytest.fixture(scope="module")
def labeled_graph():
    # 0,1 in A; 2,3 in B; 4 isolated in A
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1, 0]),
                             names=("A", "B"))
    return g, part


def test_star_histograms_and_degrees(labeled_graph):
    g, part = labeled_graph
    log = observe_star(g, part, make_trace([0, 2]))
    # node 0 has neighbors 1 (A) and 2 (B)
    assert log.neighbor_counts[0].tolist() == [1, 1]
    # node 2 has neighbors 0,1 (A) and 3 (B)
    assert log.neighbor_counts[1].tolist() == [2, 1]
    assert log.degrees.tolist() == [2, 3]
    assert np.array_equal(log.neighbor_counts.sum(axis=1), log.degrees)


def test_star_isolated_node(labeled_graph):
    g, part = labeled_graph
    log = observe_star(g, part, make_trace([4]))
    assert log.degrees.tolist() == [0]
    assert log.neighbor_counts[0].tolist() == [0, 0]


def test_star_histogram_totals_reproduce_trace_volume(labeled_graph):
    g, part = labeled_graph
    trace = sample_uis(g, 400, seed=3)
    log = observe_star(g, part, trace)
    assert int(log.neighbor_counts.sum()) == int(g.degrees[trace.nodes].sum())


def test_induced_full_population_sees_all_edges(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 3, 4]))
    assert sorted(map(tuple, log.induced_edges.tolist())) == \
        sorted(map(tuple, g.edge_array.tolist()))


def test_induced_nonadjacent_pair_sees_nothing(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([0, 3]))
    assert len(log.induced_edges) == 0


def test_induced_partial_sample(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([0, 1, 3]))
    assert sorted(map(tuple, log.induced_edges.tolist())) == [(0, 1)]


def test_duplicate_draws_produce_duplicate_records(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([2, 2, 2]))
    assert log.n == 3
    assert log.nodes.tolist() == [2, 2, 2]
    assert log.categories.tolist() == [1, 1, 1]
    # the deduplicated edge set stays deduplicated
    assert len(log.induced_edges) == 0


def test_observers_are_pure(labeled_graph):
    g, part = labeled_graph
    trace = make_trace([0, 2, 2, 3], weights=[1.0, 2.0, 2.0, 3.0])
    a = observe_star(g, part, trace)
    b = observe_star(g, part, trace)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.neighbor_counts, b.neighbor_counts)
    assert np.array_equal(a.weights, b.weights)
    assert a.population_hint == b.population_hint == g.node_count


def test_trace_weights_carried_through(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([0, 2], weights=[4.0, 5.0]))
    assert log.weights.tolist() == [4.0, 5.0]


def test_trace_outside_graph_rejected(labeled_graph):
    g, part = labeled_graph
    with pytest.raises(ValueError):
        observe_induced(g, part, make_trace([0, 99]))


@pytest.mark.parametrize("nodes,message", [
    ([0, 99, -1], "draw 1: node 99 is outside 0..4"),
    ([-1, 5], "draw 0: node -1 is outside 0..4"),
])
@pytest.mark.parametrize("observe", [observe_induced, observe_star])
def test_observers_name_the_first_draw_outside_the_graph(labeled_graph, observe,
                                                        nodes, message):
    g, part = labeled_graph
    with pytest.raises(InvalidNode, match=f"^{re.escape(message)}$"):
        observe(g, part, make_trace(nodes))


@pytest.mark.parametrize("n", [0, 3])
def test_induced_on_an_edgeless_graph_sees_no_edges(n):
    g = Graph.from_edges(n, [])
    part = CategoryPartition(labels=np.zeros(n, dtype=int), names=("A",))
    log = observe_induced(g, part, make_trace(np.arange(n)))
    assert log.induced_edges.shape == (0, 2)
    assert log.induced_edges.dtype == np.int64
    assert log.totals.edge_mass.tolist() == [[0]]


@pytest.mark.parametrize("observe", [observe_induced, observe_star])
def test_observers_refuse_a_partition_of_another_size(labeled_graph, observe):
    g, _ = labeled_graph
    part = CategoryPartition(labels=np.zeros(4, dtype=int), names=("A",))
    with pytest.raises(ValueError,
                       match="partition and graph disagree on node count"):
        observe(g, part, make_trace([0]))


def test_resample_restricts_induced_edges(labeled_graph):
    g, part = labeled_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 3]))
    sub = log.resampled(np.array([0, 3, 3]))  # nodes 0 and 3 only
    assert sub.nodes.tolist() == [0, 3, 3]
    assert len(sub.induced_edges) == 0
    sub2 = log.resampled(np.array([0, 1, 1, 3]))
    assert sorted(map(tuple, sub2.induced_edges.tolist())) == [(0, 1)]


def test_resample_star_rows_follow_draws(labeled_graph):
    g, part = labeled_graph
    log = observe_star(g, part, make_trace([0, 2]))
    sub = log.resampled(np.array([1, 1]))
    assert sub.nodes.tolist() == [2, 2]
    assert np.array_equal(sub.neighbor_counts[0], log.neighbor_counts[1])
