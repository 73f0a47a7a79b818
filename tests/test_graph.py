import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryGraph,
    CategoryPartition,
    EmptySample,
    Graph,
    InvalidNode,
    SampleTrace,
    SyntheticParams,
    UnknownCategory,
    est_mean_degrees,
    est_size_star,
    est_volume_fraction_star,
    exact_category_graph,
    observe_star,
    sample_rw,
    synthetic_graph,
)

from categraph import graph
from categraph.graph import _distinct, _lookup

from _reference import (
    brute_force_category_graph,
    naive_csr_violation,
    naive_is_connected,
    random_graph,
    random_partition,
)


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


def test_from_edges_rejects_duplicate():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(InvalidNode):
        Graph.from_edges(3, [(0, 5)])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2)], "self-loops are not allowed"),
    ([(1, 2), (2, 1), (0, 0)], "self-loops are not allowed"),
    ([(0, 1), (1, 2), (1, 0)], "duplicate edges are not allowed"),
    ([(0, 2), (0, 2)], "duplicate edges are not allowed"),
])
def test_from_edges_always_checks_its_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(3, np.array(edges))


def test_structural_invariants_random_graphs():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_graph(30, 0.15, rng)
        g.validate()
        assert int(g.degrees.sum()) == 2 * g.edge_count


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 2, 4], [1, 0, 2, 2], "self-loop at node 2"),
    ([0, 2, 3, 4], [2, 1, 0, 0], "neighbor row of 0 not sorted/unique"),
    ([0, 1, 3, 4], [1, 0, 0, 1], "neighbor row of 1 not sorted/unique"),
    ([0, 2, 3, 4], [1, 2, 0, 1], r"missing reverse adjacency for \(0, 2\)"),
    ([0, 2, 1, 4], [1, 2, 0, 1], "malformed indptr"),
])
def test_validate_names_each_violation(indptr, indices, message):
    g = Graph(indptr=np.array(indptr), indices=np.array(indices))
    with pytest.raises(ValueError, match=message):
        g.validate()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), symmetric=st.booleans(),
       edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3),
       shift=st.lists(st.integers(0, 10**6), max_size=2), sort=st.booleans(),
       chunk=st.sampled_from([1, 2, 3, 5, 2**16]))
def test_validate_names_what_the_per_row_oracle_names(n, seed, symmetric, edits, shift,
                                                      sort, chunk):
    """A graph's CSR, or rows of other ids each drawn on its own, with
    entries rewritten to other ids, or an entry moved to the next row, and
    each row then sorted or not, checked a few entries at a time or all at
    once: validate raises the oracle's message, or passes where the oracle
    finds nothing."""
    rng = np.random.default_rng(seed)
    g = random_graph(n, 0.5, rng)
    indptr, indices = g.indptr.copy(), g.indices.copy()
    if not symmetric:
        rows = [np.flatnonzero((rng.random(n) < 0.4) & (np.arange(n) != v)) for v in range(n)]
        indptr, indices = np.cumsum([0] + list(map(len, rows))), np.concatenate(rows)
        if len(indices) % 2:   # an even count, as _csr_rules has it
            indptr, indices = indptr - (indptr > 0), indices[1:]
    for at, value in edits if len(indices) else ():
        indices[at % len(indices)] = value % n
    for at in shift:
        indptr[1 + at % n] += 1 if indptr[1 + at % n] < indptr[-1] else 0
    for v in range(n) if sort and np.all(np.diff(indptr) >= 0) else ():
        indices[indptr[v]:indptr[v + 1]].sort()
    want = naive_csr_violation(indptr, indices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_CHUNK", chunk)
        if want is None:
            Graph(indptr=indptr, indices=indices).validate()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                Graph(indptr=indptr, indices=indices).validate()


def test_validate_names_what_the_oracle_names_on_every_small_csr(monkeypatch):
    """Every CSR of an even count of entries in sorted rows without
    self-loops on up to 4 nodes, checked two entries at a time: among them
    are rows that more entries name than each holds, while others fall
    short, so every entry's place in its reverse row may hold its head."""
    monkeypatch.setattr(graph, "_CHUNK", 2)
    for n in range(1, 5):
        rows = [[[u for u in range(n) if u != v and mask >> u & 1]
                 for mask in range(2 ** n) if not mask >> v & 1] for v in range(n)]
        for csr in itertools.product(*rows):
            indptr = np.cumsum([0] + list(map(len, csr)))
            if indptr[-1] % 2:
                continue
            indices = np.array([u for row in csr for u in row], np.int64)
            try:
                Graph(indptr=indptr, indices=indices).validate()
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == naive_csr_violation(indptr, indices), csr


def test_is_connected_matches_search_over_edge_queries():
    rng = np.random.default_rng(4)
    seen = set()
    for n in (1, 2, 5, 12, 30, 60):
        for p in (0.0, 0.03, 0.08, 0.3):
            g = random_graph(n, p, rng)
            assert g.is_connected == naive_is_connected(g)
            seen.add(g.is_connected)
    assert seen == {True, False}
    assert Graph.from_edges(0, []).is_connected


@pytest.mark.parametrize("n, edges", [
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),      # path
    (6, [(5, 3), (3, 1), (1, 4), (4, 0), (0, 2)]),      # relabeled path
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),      # cycle
    (6, [(0, 2), (2, 4), (1, 3), (3, 5)]),              # two components
    (4, [(1, 2), (2, 3)]),                              # node 0 isolated
    (4, [(0, 1), (1, 2)]),                              # node 3 isolated
    (1, []),
    (3, []),
])
def test_is_connected_on_small_shapes(n, edges):
    g = Graph.from_edges(n, edges)
    assert g.is_connected == naive_is_connected(g)


def test_is_connected_on_a_long_path():
    n = 50_000
    path = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    assert Graph.from_edges(n, path).is_connected
    cut = np.delete(path, n // 2, axis=0)
    assert not Graph.from_edges(n, cut).is_connected


@pytest.mark.parametrize("d", [60, 240])
def test_is_connected_transient_memory_per_edge(circulant, traced_peak, d):
    """240,000 and 960,000 edges over 4,000 nodes: with ids in the
    smallest dtype and no ``edge_array``, the traced peak stays below 32
    bytes an edge (about 14 measured; int64 pairs through ``edge_array``
    took 65), and nothing but the answer is cached."""
    g = circulant(4000, d)
    peak = traced_peak(lambda: g.is_connected)
    assert g.is_connected and "edge_array" not in vars(g)
    assert peak < 32 * g.edge_count


def test_neighbor_rows_sorted_and_has_edge():
    g = Graph.from_edges(5, [(3, 1), (0, 3), (2, 3), (4, 0)])
    assert g.neighbors(3).tolist() == [0, 1, 2]
    assert g.has_edge(3, 1) and g.has_edge(1, 3)
    assert not g.has_edge(1, 2)


@pytest.mark.parametrize("edges, nodes, total", [
    ([(0, 1), (1, 2), (0, 2)], [0, 1, 2], 6),   # triangle
    ([(0, 1), (1, 2), (0, 2)], [], 0),          # empty set
    ([(0, 1), (1, 2)], [0, 2], 2),              # path endpoints
])
def test_degrees_sum_to_the_volume_of_a_node_set(edges, nodes, total):
    g = Graph.from_edges(3, edges)
    assert sum(g.degree(v) for v in nodes) == g.degrees[nodes].sum() == total


def every_node_once(g):
    """A unit-weight trace drawing each node once: its estimates are the
    graph's exact values."""
    nodes = np.arange(g.node_count)
    return SampleTrace(nodes=nodes, steps=nodes, weights=np.ones(len(nodes)),
                       sampler="test", seed=None, start=None, burn_in=0)


@pytest.mark.parametrize("build", [
    lambda: (Graph.from_edges(3, [(0, 1), (1, 2)]),
             CategoryPartition(labels=np.array([0, 1, 0]), names=("end", "mid"))),
    lambda: (Graph.from_edges(4, [(0, 1), (2, 3)]),
             CategoryPartition(labels=np.zeros(4, dtype=int), names=("all",))),
    lambda: synthetic_graph(SyntheticParams(category_sizes=(40, 60, 100), k=4,
                                            alpha=0.3, seed=5)),
], ids=["path middle", "single category", "synthetic"])
def test_size_and_volume_fractions_match_direct_count(build):
    """Each category's size (exact) and share of the degree sum (a star
    log of every node once) are the direct count's, exactly."""
    g, part = build()
    sizes = exact_category_graph(g, part).sizes
    fvol = est_volume_fraction_star(observe_star(g, part, every_node_once(g)))
    # direct counts, no shared code with the library internals
    vol_all = sum(len(g.neighbors(v)) for v in range(g.node_count))
    for c in range(part.num_categories):
        members = [v for v in range(g.node_count) if part.label_of(v) == c]
        vol_c = sum(len(g.neighbors(v)) for v in members)
        assert sizes[c] == len(members)
        assert fvol[c] == vol_c / vol_all


@pytest.mark.parametrize("edges, cuts", [
    ([(0, 2)], {(0, 1): 1}),
    ([(0, 1), (2, 3)], {}),      # no edge between the categories
    ([(0, 1), (0, 2), (1, 3)], {(0, 1): 2}),   # intra edges carry no cut
])
def test_cut_counts_of_two_categories(edges, cuts):
    g = Graph.from_edges(4, edges)
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    assert exact_category_graph(g, part).cut_counts == cuts


@pytest.mark.parametrize("seed", range(8))
def test_cut_counts_match_brute_force_on_small_dense_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    g = random_graph(n, float(rng.uniform(0.05, 0.5)), rng)
    part = random_partition(n, int(rng.integers(2, 5)), rng)
    _, cuts, _ = brute_force_category_graph(g, part)
    assert exact_category_graph(g, part).cut_counts == cuts


def test_cut_counts_three_color(three_color_graph):
    g, part = three_color_graph
    cg = exact_category_graph(g, part)
    assert cg.cut_counts == {(0, 2): 3, (1, 2): 1, (0, 1): 4}
    assert cg.weights[(0, 2)] == 3 / 9


def test_exact_category_graph_three_color(three_color_graph):
    g, part = three_color_graph
    cg = exact_category_graph(g, part)
    assert cg.sizes == {0: 3, 1: 2, 2: 3}
    assert cg.weights == {(0, 2): 3 / 9, (1, 2): 1 / 6, (0, 1): 4 / 6}


def test_exact_category_graph_single_category():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.zeros(3, dtype=int), names=("all",))
    cg = exact_category_graph(g, part)
    assert cg.weights == {} and cg.cut_counts == {}


@pytest.mark.parametrize("n", [0, 3])
def test_exact_category_graph_edgeless(n):
    g = Graph.from_edges(n, [])
    part = CategoryPartition(labels=np.arange(n) % 2, names=("a", "b"))
    cg = exact_category_graph(g, part)
    assert cg.sizes == {0: (n + 1) // 2, 1: n // 2}
    assert cg.cut_counts == {} and cg.weights == {}


def test_exact_category_graph_refuses_a_partition_of_another_size(path3):
    g, _ = path3
    part = CategoryPartition(labels=np.zeros(4, dtype=int), names=("all",))
    with pytest.raises(ValueError,
                       match="partition and graph disagree on node count"):
        exact_category_graph(g, part)


def test_exact_category_graph_matches_brute_force_small():
    rng = np.random.default_rng(7)
    g = random_graph(20, 0.2, rng)
    part = random_partition(20, 3, rng)
    cg = exact_category_graph(g, part)
    sizes, cuts, weights = brute_force_category_graph(g, part)
    assert cg.sizes == sizes
    assert cg.cut_counts == cuts
    assert cg.weights == weights


@pytest.mark.parametrize("seed", range(6))
def test_exact_category_graph_matches_brute_force_randomized(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(5, 201))
    g = random_graph(n, float(rng.uniform(0.01, 0.3)), rng)
    part = random_partition(n, int(rng.integers(2, 7)), rng)
    cg = exact_category_graph(g, part)
    sizes, cuts, weights = brute_force_category_graph(g, part)
    assert cg.sizes == sizes
    assert cg.cut_counts == cuts
    assert cg.weights == weights
    assert all(0 <= w <= 1 for w in cg.weights.values())


def test_weight_one_iff_complete_bipartite():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    assert exact_category_graph(g, part).weights[(0, 1)] == 1.0
    g2 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2)])
    assert exact_category_graph(g2, part).weights[(0, 1)] < 1.0


@pytest.mark.parametrize("edges, labels, means", [
    ([(0, 1), (1, 2), (2, 3), (3, 0)], [0, 0, 0, 0], (2.0, {0: 2.0})),
    ([(0, 1), (1, 2)], [0, 1, 0], (4 / 3, {0: 1.0, 1: 2.0})),
], ids=["regular block", "path"])
def test_mean_degrees_of_every_node_once_are_exact(edges, labels, means):
    """The whole graph's mean degree, 2E/N, and each category's."""
    g = Graph.from_edges(len(labels), edges)
    part = CategoryPartition(labels=np.array(labels), names=("a", "b"))
    log = observe_star(g, part, every_node_once(g))
    assert est_mean_degrees(log) == means
    assert means[0] == 2 * g.edge_count / g.node_count


def test_a_category_without_members_has_size_zero_and_no_mean_degree():
    g = Graph.from_edges(2, [(0, 1)])
    part = CategoryPartition(labels=np.zeros(2, dtype=int), names=("a", "ghost"))
    assert exact_category_graph(g, part) == CategoryGraph(
        sizes={0: 2, 1: 0}, cut_counts={}, weights={})
    log = observe_star(g, part, every_node_once(g))
    assert est_mean_degrees(log) == (1.0, {0: 1.0})
    assert est_size_star(log, 2) == {0: 2.0}


def test_a_graph_without_nodes_has_an_empty_category_graph_and_no_estimates():
    g = Graph.from_edges(0, [])
    part = CategoryPartition(labels=np.empty(0, dtype=np.int64), names=("a",))
    assert exact_category_graph(g, part) == CategoryGraph(
        sizes={0: 0}, cut_counts={}, weights={})
    with pytest.raises(EmptySample, match="no draws to estimate from"):
        est_mean_degrees(observe_star(g, part, every_node_once(g)))


def test_sizes_and_volume_fractions_partition_the_graph(three_color_graph):
    g, part = three_color_graph
    assert sum(exact_category_graph(g, part).sizes.values()) == g.node_count
    fvol = est_volume_fraction_star(observe_star(g, part, every_node_once(g)))
    assert sum(fvol.values()) == pytest.approx(1.0)


# (call on the path3 graph and partition, error, message): a node,
# category or label id is a whole number in range and never a lone boolean
ID_RULE = {
    "walk start 1.5": (lambda g, p: sample_rw(g, 3, start=1.5, seed=0),
                       InvalidNode, "node 1.5 is not a whole number"),
    "walk start True": (lambda g, p: sample_rw(g, 3, start=True, seed=0),
                        InvalidNode, "node True is not a whole number"),
    "degree of 1.5": (lambda g, p: g.degree(1.5), InvalidNode,
                      "node 1.5 is not a whole number"),
    "label of 1.5": (lambda g, p: p.label_of(1.5), InvalidNode,
                     "node 1.5 is not a whole number"),
    "neighbors of True": (lambda g, p: g.neighbors(True), InvalidNode,
                          "node True is not a whole number"),
    "edge end 1.5": (lambda g, p: Graph.from_edges(3, [(0, 1.5), (1, 2)]),
                     InvalidNode, "edge endpoint 1.5 is not a whole number"),
    "has_edge to 1.5": (lambda g, p: g.has_edge(0, 1.5), InvalidNode,
                        "node 1.5 is not a whole number"),
    "has_edge from 1.5": (lambda g, p: g.has_edge(1.5, 0), InvalidNode,
                          "node 1.5 is not a whole number"),
    "neighbors of 1.5": (lambda g, p: g.neighbors(1.5), InvalidNode,
                         "node 1.5 is not a whole number"),
    "degree of True": (lambda g, p: g.degree(True), InvalidNode,
                       "node True is not a whole number"),
    "label of True": (lambda g, p: p.label_of(True), InvalidNode,
                      "node True is not a whole number"),
    "label 0.5": (lambda g, p: CategoryPartition(labels=[0.5, 1.2],
                                                 names=p.names),
                  UnknownCategory, "label 0.5 is not a whole number"),
    # integers out of range keep their messages
    "degree of 3": (lambda g, p: g.degree(3), InvalidNode,
                    "node 3 outside 0..2"),
    "degree of -1": (lambda g, p: g.degree(-1), InvalidNode,
                     "node -1 outside 0..2"),
    "walk start 3": (lambda g, p: sample_rw(g, 3, start=3, seed=0),
                     InvalidNode, "node 3 outside 0..2"),
    "has_edge to -1": (lambda g, p: g.has_edge(0, -1), InvalidNode,
                       "node -1 outside 0..2"),
    "label of 3": (lambda g, p: p.label_of(3), InvalidNode,
                   "node 3 outside 0..2"),
    "edge end 3": (lambda g, p: Graph.from_edges(3, [(0, 3)]), InvalidNode,
                   "edge endpoint outside 0..2"),
    "edge end -1": (lambda g, p: Graph.from_edges(3, [(0, -1)]), InvalidNode,
                    "edge endpoint outside 0..2"),
    "neighbors of 3": (lambda g, p: g.neighbors(3), InvalidNode,
                       "node 3 outside 0..2"),
    "label 2": (lambda g, p: CategoryPartition(labels=[0, 2], names=p.names),
                UnknownCategory, "label outside 0..C-1"),
    "label -1": (lambda g, p: CategoryPartition(labels=[0, -1], names=p.names),
                 UnknownCategory, "label outside 0..C-1"),
}


@pytest.mark.parametrize("case", sorted(ID_RULE))
def test_one_id_rule_refuses_what_is_not_a_whole_id_in_range(path3, case):
    call, error, message = ID_RULE[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*path3)


def test_whole_float_and_numpy_ids_are_their_integers(path3):
    g, part = path3
    assert g.degree(1.0) == g.degree(np.int32(1)) == 2
    assert part.label_of(np.uint8(1)) == 1
    assert sample_rw(g, 3, start=2.0, seed=0).start == 2
    assert Graph.from_edges(3, np.array([[0.0, 1.0], [1.0, 2.0]])) == g
    assert CategoryPartition(labels=[0.0, 1.0, 0.0], names=part.names) == part


@pytest.mark.parametrize("build, message", [
    (lambda: Graph.from_edges(3, [(0, 1, 2)]), r"edges must be \(m, 2\) pairs"),
    (lambda: Graph(indptr=np.array([0, 1, 2]), indices=np.array([1, 2])
                   ).validate(), "neighbor id out of range"),
    (lambda: Graph(indptr=np.array([0, 1, 1]), indices=np.array([1])
                   ).validate(), "degree sum must equal twice the edge count"),
])
def test_malformed_graph_input_is_named(build, message):
    with pytest.raises(ValueError, match=message):
        build()



INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def lookups(draw):
    """An ascending, distinct int64 table, dense or sparse near 0 or either
    int64 end or spread over the whole range, and keys of any of its ids,
    their neighbours, both int64 ends, 0 and -1, flat or as pairs."""
    lo = draw(st.sampled_from([0, -40, -2**63, 2**63 - 41]))
    ids = draw(st.lists(st.integers(lo, lo + 40), max_size=30))
    ids += draw(st.lists(INT64, max_size=2 * draw(st.booleans())))
    table = np.unique(np.array(ids, np.int64))
    near = [v + d for v in table.tolist() for d in (-1, 1)
            if -2**63 <= v + d < 2**63]
    keys = draw(st.lists(st.sampled_from(
        table.tolist() + near + [-2**63, 2**63 - 1, 0, -1]), max_size=40))
    keys = np.array(keys, np.int64)
    return table, (keys[:len(keys) // 2 * 2].reshape(-1, 2)
                   if draw(st.booleans()) else keys)


@settings(max_examples=300, deadline=None)
@given(case=lookups())
@example(case=(np.arange(2**63 - 3, 2**63 - 1, dtype=np.int64),   # wraps
               np.array([-2**63, -2**63 + 1, 2**63 - 1, 2**63 - 3, 0])))
@example(case=(np.array([-2**63, 2**63 - 1]),   # the widest span: a search
               np.array([[-2**63, 2**63 - 1], [0, -1]])))
@example(case=(np.array([], np.int64), np.array([0, -2**63])))
def test_lookup_finds_each_key_as_a_dict_does(case):
    """On either route, the direct table (span at most table plus keys) or
    the search, where an offset from table[0] wraps or not."""
    table, keys = case
    rank = {v: i for i, v in enumerate(table.tolist())}
    at, found = _lookup(table, keys)
    assert found.shape == keys.shape
    assert found.tolist() == np.vectorize(rank.__contains__, otypes=[bool])(
        keys).tolist()
    assert at[found].tolist() == [rank[k] for k in keys[found].tolist()]


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(st.one_of(st.integers(-5, 40), INT64), max_size=40),
       small=st.booleans())
def test_distinct_is_np_unique(nodes, small):
    """The same ids, first draws and keys, dtypes and shapes, whether the
    ids' span takes the table (at most twice their count) or the sort."""
    nodes = np.array(nodes, np.int64)
    if small:
        nodes = (nodes % 50).astype(np.uint8)
    want = np.unique(nodes, return_index=True, return_inverse=True)
    for got, expected in zip(_distinct(nodes), want):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert np.array_equal(got, expected)


@st.composite
def partitioned_graphs(draw):
    """A random graph and partition, plus an isolated node in each of its
    categories and a category of two nodes that holds no cross edge,
    perhaps one inside it."""
    n, c = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges.append((n, n + 1))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    labels += [c, c, *range(c)]
    return (Graph.from_edges(len(labels), edges),
            CategoryPartition(labels=labels, names=tuple(map(str, range(c + 1)))))


@settings(max_examples=200, deadline=None)
@given(case=partitioned_graphs())
def test_exact_category_graph_over_the_csr_is_the_brute_force(case):
    """One bincount over the CSR entries, read at a < b: cuts, in ascending
    (a, b), sizes and weights; edge_array stays unbuilt."""
    g, part = case
    cg = exact_category_graph(g, part)
    assert (cg.sizes, cg.cut_counts, cg.weights) == \
        brute_force_category_graph(g, part)
    assert list(cg.cut_counts) == sorted(cg.cut_counts)
    assert "edge_array" not in vars(g)
