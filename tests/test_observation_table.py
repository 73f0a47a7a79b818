"""The per-graph observation table that the evaluation sweep reduces its
traces with: it must give every trace exactly the totals of the log the
observers build, and tables of different graphs or partitions must never
mix."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (CategoryPartition, Graph, SampleTrace,
                       observe_induced, observe_star)
from categraph.observe import CategoryTotals, ObservationTable
from categraph.sampling import SAMPLERS, draw_traces

OBSERVERS = {"induced": observe_induced, "star": observe_star}


def assert_same_bytes(got: CategoryTotals, want: CategoryTotals):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if value is None:
            assert other is None, name
        else:
            assert (other.dtype, other.shape) == (value.dtype, value.shape), name
            assert other.tobytes() == value.tobytes(), name


@st.composite
def connected_graphs(draw):
    """A random connected graph of 2 to 12 nodes (a random tree plus
    extra edges) and a random partition of it into 1 to 4 categories."""
    n = draw(st.integers(2, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=20))
    edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    c = draw(st.integers(1, 4))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    return (Graph.from_edges(n, sorted(edges)),
            CategoryPartition(labels=np.array(labels),
                              names=tuple(f"C{i}" for i in range(c))))


# wrw category weights: near the low end of weights_ok, a node drawn a
# few times has an inverse-weight mass that overflows to inf; near the
# high end, the product of two masses underflows to 0
CATEGORY_WEIGHTS = st.one_of(st.floats(2.0 ** -1024, 2.0 ** -1021,
                                       exclude_min=True),
                             st.floats(0.25, 4.0),
                             st.floats(2.0 ** 1000, 2.0 ** 1010))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(graph=connected_graphs(), sampler=st.sampled_from(sorted(SAMPLERS)),
       mode=st.sampled_from(sorted(OBSERVERS)), replicates=st.integers(1, 6),
       n=st.integers(1, 60), seed=st.integers(0, 2**32),
       cw=st.lists(CATEGORY_WEIGHTS, min_size=4, max_size=4))
# node 1 overflows to inf and its cross neighbor 0 is never drawn
@example(graph=(Graph.from_edges(3, [(0, 1), (1, 2)]),
                CategoryPartition(labels=np.array([1, 0, 0]),
                                  names=("C0", "C1"))),
         sampler="wrw", mode="induced", replicates=1, n=12, seed=61,
         cw=[6e-309] * 4)
def test_table_totals_equal_the_observed_logs_totals(graph, sampler, mode,
                                                     replicates, n, seed, cw):
    """Stacked over a cell's traces, the table's totals are the observed
    logs' totals byte for byte, overflowed masses included."""
    g, part = graph
    traces = list(draw_traces(sampler, g, n,
                              [[seed, rep] for rep in range(replicates)],
                              part=part,
                              category_weights=cw[:part.num_categories]))
    table = ObservationTable(g, part)
    assert_same_bytes(
        CategoryTotals.stacked([table.totals(mode, t) for t in traces]),
        CategoryTotals.stacked([OBSERVERS[mode](g, part, t).totals
                                for t in traces]))


def literal_neighbor_counts(g, part, nodes):
    return [[sum(int(part.labels[w]) == c for w in g.neighbors(v))
             for c in range(part.num_categories)] for v in nodes]


def test_tables_of_two_graphs_and_two_partitions_never_mix():
    """Observing alternately on two graphs of one size, each under two
    partitions, and on graphs built and dropped one after another, each
    (graph, partition) reads its own histograms and cross edges."""
    rng = np.random.default_rng(5)
    nodes = np.array([0, 3, 3, 7, 1, 9, 5])
    trace = SampleTrace(nodes=nodes, steps=np.arange(len(nodes)),
                        weights=rng.uniform(0.5, 2.0, len(nodes)),
                        sampler="uis", seed=None, start=None, burn_in=0)
    path = Graph.from_edges(10, [(v, v + 1) for v in range(9)])
    star = Graph.from_edges(10, [(0, v) for v in range(1, 10)])
    halves = CategoryPartition(labels=np.repeat([0, 1], 5), names=("A", "B"))
    thirds = CategoryPartition(labels=np.arange(10) % 3,
                               names=("X", "Y", "Z"))
    dropped = [(Graph.from_edges(10, [(v, (v + k) % 10) for v in range(10)]),
                part) for k in (2, 3, 4) for part in (thirds, halves)]
    for g, part in [(path, halves), (star, halves), (path, thirds),
                    (star, thirds), (path, halves), *dropped]:
        log = observe_star(g, part, trace)
        assert log.neighbor_counts.dtype == np.int64
        assert log.neighbor_counts.tolist() == literal_neighbor_counts(
            g, part, nodes)
        table = ObservationTable(g, part)
        for mode, observe in OBSERVERS.items():
            assert_same_bytes(table.totals(mode, trace),
                              observe(g, part, trace).totals)


def test_a_resample_beside_an_overflowed_mass_adds_no_nan():
    """Node 0, drawn three times at weight 2**-1023, has mass inf; the
    edge to undrawn node 1 adds 0.0 to the resample's totals, as in the
    resampled log, which drops that edge, not inf * 0.0."""
    g = Graph.from_edges(2, [(0, 1)])
    part = CategoryPartition(labels=np.array([0, 1]), names=("A", "B"))
    trace = SampleTrace(nodes=np.array([0, 1]), steps=np.arange(2),
                        weights=np.full(2, 2.0 ** -1023), sampler="uis",
                        seed=None, start=None, burn_in=0)
    log = observe_induced(g, part, trace)
    rows = np.array([0, 0, 0])
    got = log.totals_of(rows)
    assert_same_bytes(got, log.resampled(rows).totals)
    assert got.edge_mass.tolist() == [[0.0, 0.0], [0.0, 0.0]]
