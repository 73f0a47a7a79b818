import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryPartition,
    Graph,
    InvalidNode,
    InvalidWeight,
    SampleTrace,
    observe_induced,
    observe_star,
    sample_uis,
)
from categraph.errors import check_weights
from categraph.observe import ObservationTable


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


def observe_with_a_table(g, part, trace):
    return ObservationTable(g, part).totals(trace, ("induced", "star"))


@pytest.mark.parametrize("nodes,weights,error,message", [
    ([0, 1.7, 2], None, InvalidNode, "draw 1: node 1.7 is not a whole number"),
    ([0, 1, float("nan")], None, InvalidNode, "draw 2: node nan is not a whole number"),
    ([0, 1.5, 9], None, InvalidNode, "draw 1: node 1.5 is not a whole number"),
    ([0, 9, 1.5], None, InvalidNode, "draw 1: node 9.0 is outside 0..4"),
    *[([0, 1, 2], [1.0, w, 1.0], InvalidWeight,
       f"draw 1: weight must be positive and finite, with a finite inverse, got {w!r}")
      for w in (0.0, -1.0, float("nan"), float("inf"), 1e-320)],
])
@pytest.mark.parametrize("observe", [observe_induced, observe_star,
                                     observe_with_a_table])
def test_observers_refuse_what_the_readers_refuse(labeled_graph, observe, nodes,
                                                  weights, error, message):
    """A node that is not a whole number or a weight ``weights_ok``
    refuses is named by its draw, never read as another node or weight."""
    g, part = labeled_graph
    trace = SampleTrace(nodes=np.array(nodes), steps=np.arange(len(nodes)),
                        weights=np.ones(len(nodes)) if weights is None
                        else np.array(weights), sampler="uis", seed=None,
                        start=None, burn_in=0)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        observe(g, part, trace)


@pytest.mark.parametrize("weight", [0.0, -2.0, float("nan"), 1e-320])
def test_check_weights_names_the_first_draw_it_refuses(weight):
    """The one weight rule of the observers, samplers and readers: a
    weight of 2^-1023, whose inverse is finite, and the largest float pass."""
    check_weights([2.0 ** -1023, 1.0, sys.float_info.max])
    message = ("draw 1: weight must be positive and finite, with a finite "
               f"inverse, got {weight!r}")
    with pytest.raises(InvalidWeight, match=f"^{re.escape(message)}$"):
        check_weights([1.0, weight, float("inf"), 0.0])


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


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_induced_edges_are_the_edge_array_rows_with_both_ends_drawn(data):
    """Read off the drawn rows' CSR entries, the edges are those rows of
    ``edge_array``, in its order and dtype, under repeated draws."""
    n = data.draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph.from_edges(n, edges)
    part = CategoryPartition(labels=np.zeros(n, np.int64), names=("a",))
    draws = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    got = observe_induced(g, part, make_trace(draws)).induced_edges
    drawn = np.zeros(n, dtype=bool)
    drawn[draws] = True
    ea = g.edge_array
    want = ea[drawn[ea[:, 0]] & drawn[ea[:, 1]]]
    assert (got.dtype, got.shape, got.flags.c_contiguous) == \
        (want.dtype, want.shape, want.flags.c_contiguous)
    assert np.array_equal(got, want)
