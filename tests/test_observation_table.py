"""The per-graph observation table that the evaluation sweep reduces its
traces with: it must give every trace exactly the totals of the log the
observers build, and tables of different graphs or partitions must never
mix."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import naive_totals, naive_towards
from categraph import (CategoryPartition, Graph, SampleTrace, observe,
                       observe_induced, observe_star)
from categraph.fileio import load_log, save_log
from categraph.observe import CategoryTotals, ObservationTable
from categraph.sampling import SAMPLERS, draw_traces

OBSERVERS = {"induced": observe_induced, "star": observe_star}
# each mode's own part of the totals
OWN_PART = {"induced": "edge_mass", "star": "towards"}
MODE_SETS = [("induced",), ("star",), ("induced", "star"), ("star", "induced")]


def assert_same_array(got: np.ndarray, want: np.ndarray, name: str):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def assert_same_bytes(got: CategoryTotals, want: CategoryTotals):
    for name, value in vars(want).items():
        if value is None:
            assert getattr(got, name) is None, name
        else:
            assert_same_array(getattr(got, name), value, name)


def assert_parts_of_the_logs(got: CategoryTotals, logs_totals: dict):
    """The shared parts of ``got`` and each mode's own part are, byte for
    byte, those of the totals of that mode's log in ``logs_totals``; the
    own part of a mode not given is None."""
    for mode, want in logs_totals.items():
        for name in ("mass", "degree_mass", OWN_PART[mode]):
            assert_same_array(getattr(got, name), getattr(want, name), name)
    for mode, name in OWN_PART.items():
        if mode not in logs_totals:
            assert getattr(got, name) is None, name


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
# few times has an inverse-weight mass beyond the float range; near the
# high end, the product of two masses is below it, unless scaled
CATEGORY_WEIGHTS = st.one_of(st.floats(2.0 ** -1024, 2.0 ** -1021,
                                       exclude_min=True),
                             st.floats(0.25, 4.0),
                             st.floats(2.0 ** 1000, 2.0 ** 1010))


def cycle_of_thirds(n: int):
    """The cycle 0-1-...-(n-1)-0 with nodes in three runs of ids, so the
    edge (n-1, 0) that closes it joins the first and the last."""
    return (Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)]),
            CategoryPartition(labels=np.arange(n) * 3 // n,
                              names=("C0", "C1", "C2")))


@settings(max_examples=300, deadline=None)
@given(graph=connected_graphs(), sampler=st.sampled_from(sorted(SAMPLERS)),
       modes=st.sampled_from(MODE_SETS), replicates=st.integers(1, 6),
       n=st.integers(1, 60), seed=st.integers(0, 2**32),
       cw=st.lists(CATEGORY_WEIGHTS, min_size=4, max_size=4))
# node 1's unscaled mass is beyond the float range and its cross
# neighbor 0 is never drawn
@example(graph=(Graph.from_edges(3, [(0, 1), (1, 2)]),
                CategoryPartition(labels=np.array([1, 0, 0]),
                                  names=("C0", "C1"))),
         sampler="wrw", modes=("induced", "star"), replicates=1, n=12,
         seed=61, cw=[6e-309] * 4)
# six draws of a 1,000-node graph visit nodes 998, 999, 0 and 1: the
# table sums over those four drawn ids, the first and the last included,
# as the log sums over its own distinct ids
@example(graph=cycle_of_thirds(1000), sampler="rw", modes=("induced", "star"),
         replicates=1, n=6, seed=593, cw=[1.0] * 4)
def test_table_totals_equal_the_observed_logs_totals(graph, sampler, modes,
                                                     replicates, n, seed, cw):
    """Stacked over a cell's traces, one table call per trace gives the
    totals of each mode's observed logs part by part, byte for byte,
    masses at the ends of the float range included, and no part of a
    mode not asked for."""
    g, part = graph
    traces = list(draw_traces(sampler, g, n,
                              [[seed, rep] for rep in range(replicates)],
                              part=part,
                              category_weights=cw[:part.num_categories]))
    table = ObservationTable(g, part)
    assert_parts_of_the_logs(
        CategoryTotals.stacked([table.totals(t, modes) for t in traces]),
        {mode: CategoryTotals.stacked([OBSERVERS[mode](g, part, t).totals
                                       for t in traces]) for mode in modes})


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
        for modes in MODE_SETS:
            assert_parts_of_the_logs(
                table.totals(trace, modes),
                {mode: OBSERVERS[mode](g, part, trace).totals
                 for mode in modes})


def test_a_table_refuses_a_partition_of_another_size():
    """Each part of a table checks its partition against its graph, also
    one with more labels than the graph has nodes."""
    g = Graph.from_edges(10, [(v, v + 1) for v in range(9)])
    table = ObservationTable(g, CategoryPartition(labels=np.zeros(12, np.int64),
                                                  names=("A",)))
    trace = SampleTrace(nodes=np.array([0, 9]), steps=np.arange(2),
                        weights=np.ones(2), sampler="uis", seed=None,
                        start=None, burn_in=0)
    for read in (lambda: table.neighbor_entries, lambda: table.cross_edges,
                 lambda: table.totals(trace, ("star",))):
        with pytest.raises(ValueError, match="partition and graph disagree"):
            read()


def test_neighbor_counts_stay_int64_from_the_table_to_the_totals(tmp_path):
    """The table's rows, a star log's counts and the columns its totals
    read are int64, and the counts are one C-contiguous (n, C) block, a row
    a draw, whether the log is observed, read from its sidecar or its
    JSON Lines, or resampled."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    assert ObservationTable(g, part).neighbor_entries.dtype == np.int64
    log = observe_star(g, part, SampleTrace(
        nodes=np.array([0, 2, 2, 3]), steps=np.arange(4), weights=np.ones(4),
        sampler="uis", seed=None, start=None, burn_in=0))
    path = tmp_path / "star.jsonl"
    save_log(log, path)
    from_sidecar = load_log(path)
    (tmp_path / "star.jsonl.categraph.npz").unlink()
    for got, n in ((log, 4), (from_sidecar, 4), (load_log(path), 4),
                   (log.resampled([3, 0]), 2)):
        assert got.neighbor_counts.dtype == np.int64
        assert got.neighbor_counts.shape == (n, 2)
        assert got.neighbor_counts.flags.c_contiguous
        assert got._nodes[2].dtype == np.int64


def test_a_resample_beside_an_overflowed_mass_adds_no_nan():
    """Node 0, drawn three times at weight 2**-1023, has an unscaled mass
    of inf; the edge to undrawn node 1 adds 0.0 to the resample's totals,
    as in the resampled log, which drops that edge, not inf * 0.0."""
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


# every weight weights_ok accepts, its ends included
WEIGHTS = st.floats(2.0 ** -1024, 1.7976931348623157e308, exclude_min=True)


def assert_matches_the_oracle(got: CategoryTotals, want: dict, exact: bool):
    """Each part of ``got`` equals the oracle's exactly or within rel
    1e-12; below the smallest normal float, where a scaled mass is
    subnormal and rounds by an absolute step, within 2**-1022."""
    for name, values in want.items():
        got_values = np.ravel(getattr(got, name)).tolist()
        want_values = np.ravel(values).tolist()
        assert len(got_values) == len(want_values), name
        if exact:
            assert got_values == want_values, name
        else:
            assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=2.0 ** -1022)
                       for a, b in zip(got_values, want_values)), name


@settings(max_examples=300, deadline=None)
@given(graph=connected_graphs(), unit=st.booleans(), data=st.data())
def test_totals_match_the_per_draw_oracle(graph, unit, data):
    """A log's ``totals_of`` any rows and a table's totals of a trace
    equal ``naive_totals``, the literal per-draw sums: bit for bit with
    unit weights, within rel 1e-12 for any weights ``weights_ok``
    accepts. The table's totals stay the logs', byte for byte."""
    g, part = graph
    n = data.draw(st.integers(1, 30), label="n")
    nodes = data.draw(st.lists(st.integers(0, g.node_count - 1),
                               min_size=n, max_size=n), label="nodes")
    weights = [1.0] * n if unit else data.draw(
        st.lists(WEIGHTS, min_size=n, max_size=n), label="weights")
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n),
                              label="rows"), dtype=np.int64)
    trace = SampleTrace(nodes=np.array(nodes), steps=np.arange(n),
                        weights=np.array(weights), sampler="wis", seed=None,
                        start=None, burn_in=0)
    logs = {mode: observe_(g, part, trace) for mode, observe_ in OBSERVERS.items()}
    table = ObservationTable(g, part).totals(trace, tuple(OBSERVERS))
    assert_parts_of_the_logs(table, {mode: log.totals for mode, log in logs.items()})
    for log in logs.values():
        assert_matches_the_oracle(log.totals_of(rows), naive_totals(log, rows), unit)
        assert_matches_the_oracle(table, naive_totals(log, slice(None)), unit)


@st.composite
def star_traces(draw):
    """A graph of 1 to 14 nodes in 1 to 12 categories, isolated nodes'
    rows all zero, a trace whose draws repeat nodes, and rows of it."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    c = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=30))
    # unit weights, weights whose sums round, and any weights
    weights = draw(st.one_of(st.just([1.0] * len(nodes)), *(st.lists(
        w, min_size=len(nodes), max_size=len(nodes))
        for w in (st.floats(0.1, 10), WEIGHTS))))
    rows = draw(st.lists(st.integers(0, len(nodes) - 1), max_size=40))
    return (Graph.from_edges(n, edges),
            CategoryPartition(labels=np.array(labels, np.int64),
                              names=tuple(map(str, range(c)))),
            nodes, weights, rows)


@settings(max_examples=200, deadline=None)
@given(case=star_traces())
# nodes 2 and 3 are isolated, and no drawn node neighbours categories 0 or 2
@example(case=(Graph.from_edges(4, [(0, 1)]),
               CategoryPartition(labels=np.array([0, 1, 2, 2]), names=("a", "b", "c")),
               [3, 0, 0, 2, 3], [1.0, 0.5, 0.5, 3.0, 1.0], [4, 1, 1, 0]))
# towards[0][1] sums 0.1, 0.2 and 0.3 in ascending id order, which in
# floats is not (0.3 + 0.2) + 0.1
@example(case=(Graph.from_edges(4, [(0, 3), (1, 3), (2, 3)]),
               CategoryPartition(labels=np.array([0, 0, 0, 1]), names=("a", "b")),
               [2, 1, 0], [10 / 3, 5.0, 10.0], [0, 1, 2]))
def test_star_towards_equal_the_per_column_route(case):
    """A star log's ``totals_of`` any rows, and a table's totals of the
    trace, reduced by nonzero entries, equal the per-column bincounts of
    ``naive_towards`` exactly: a zero count left out would add 0.0."""
    g, part, nodes, weights, rows = case
    trace = SampleTrace(nodes=np.array(nodes), steps=np.arange(len(nodes)),
                        weights=np.array(weights), sampler="wis", seed=None,
                        start=None, burn_in=0)
    log = observe_star(g, part, trace)
    for picked in (slice(None), np.array(rows, dtype=np.int64)):
        assert np.array_equal(log.totals_of(picked).towards,
                              naive_towards(log, picked))
    assert np.array_equal(ObservationTable(g, part).totals(trace, ("star",)).towards,
                          naive_towards(log, slice(None)))


def test_a_short_star_observation_builds_no_table(monkeypatch):
    """Observing a few draws of a 2,000-node graph builds no table: the
    neighbor histograms are counted once, for the distinct drawn ids."""
    g, part = cycle_of_thirds(2000)
    nodes = np.array([1999, 0, 5, 5, 1999, 700])
    counted = []
    neighbor_counts = observe._neighbor_counts

    def spy(g, labels, c, ids):
        counted.append(ids.tolist())
        return neighbor_counts(g, labels, c, ids)

    def no_table(*args):
        raise AssertionError("observe_star built an ObservationTable")

    monkeypatch.setattr(observe, "_neighbor_counts", spy)
    monkeypatch.setattr(observe, "ObservationTable", no_table)
    log = observe_star(g, part, SampleTrace(
        nodes=nodes, steps=np.arange(6), weights=np.ones(6), sampler="uis",
        seed=None, start=None, burn_in=0))
    assert counted == [[0, 5, 700, 1999]]
    assert log.neighbor_counts.tolist() == literal_neighbor_counts(g, part, nodes)


def test_draws_are_summed_by_node_in_ascending_id_order():
    """Masses 0.3, 0.2 and 0.1 drawn in that order at nodes 2, 1 and 0
    of one category sum per node in ascending id order, (0.1 + 0.2) +
    0.3, which in floats is not the draw order's (0.3 + 0.2) + 0.1: in a
    log and in a table."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.zeros(3, np.int64),
                             names=("A",))
    trace = SampleTrace(nodes=np.array([2, 1, 0]), steps=np.arange(3),
                        weights=np.array([10 / 3, 5.0, 10.0]), sampler="wis",
                        seed=None, start=None, burn_in=0)
    assert (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1
    # the largest 1/w, 0.3, is scaled by 2 into [0.5, 1)
    want = [2 * ((0.1 + 0.2) + 0.3)]
    table = ObservationTable(g, part)
    for mode, observe_ in OBSERVERS.items():
        assert observe_(g, part, trace).totals.mass.tolist() == want
        assert table.totals(trace, (mode,)).mass.tolist() == want
