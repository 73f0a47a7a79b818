import numpy as np
import pytest

from categraph import (
    CategoryPartition,
    EmptyCategory,
    Graph,
    InvalidNode,
    SelfPairNotSupported,
    SyntheticParams,
    UnknownCategory,
    edge_cut,
    exact_category_graph,
    mean_degree,
    relative_fractions,
    synthetic_graph,
    volume,
)

from _reference import (
    brute_force_category_graph,
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


def test_neighbor_rows_sorted_and_has_edge():
    g = Graph.from_edges(5, [(3, 1), (0, 3), (2, 3), (4, 0)])
    assert g.neighbors(3).tolist() == [0, 1, 2]
    assert g.has_edge(3, 1) and g.has_edge(1, 3)
    assert not g.has_edge(1, 2)


def test_volume_triangle():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert volume(g, [0, 1, 2]) == 6


def test_volume_empty_set():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert volume(g, []) == 0


def test_volume_path_endpoints():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert volume(g, [0, 2]) == 2


def test_volume_invalid_node():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(InvalidNode):
        volume(g, [0, 7])


def test_relative_fractions_path_middle(path3):
    g, part = path3
    assert relative_fractions(g, part, 1) == (1 / 3, 1 / 2)


def test_relative_fractions_single_category():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    part = CategoryPartition(labels=np.zeros(4, dtype=int), names=("all",))
    assert relative_fractions(g, part, 0) == (1.0, 1.0)


def test_relative_fractions_unknown_category(path3):
    g, part = path3
    with pytest.raises(UnknownCategory):
        relative_fractions(g, part, 9)


def test_relative_fractions_match_direct_count_on_synthetic():
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(40, 60, 100), k=4, alpha=0.3, seed=5))
    largest = int(np.argmax(part.sizes))
    # direct counts, no shared code with the library internals
    members = [v for v in range(g.node_count) if part.label_of(v) == largest]
    vol_a = sum(len(g.neighbors(v)) for v in members)
    vol_all = sum(len(g.neighbors(v)) for v in range(g.node_count))
    f, f_vol = relative_fractions(g, part, largest)
    assert f == len(members) / g.node_count
    assert f_vol == vol_a / vol_all


def test_edge_cut_basic():
    g = Graph.from_edges(4, [(0, 2)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    assert edge_cut(g, part, 0, 1) == 1


def test_edge_cut_disconnected_categories():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    assert edge_cut(g, part, 0, 1) == 0


def test_edge_cut_self_pair_rejected(path3):
    g, part = path3
    with pytest.raises(SelfPairNotSupported):
        edge_cut(g, part, 0, 0)


@pytest.mark.parametrize("seed", range(8))
def test_edge_cut_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 30))
    g = random_graph(n, float(rng.uniform(0.05, 0.5)), rng)
    part = random_partition(n, int(rng.integers(2, 5)), rng)
    _, cuts, _ = brute_force_category_graph(g, part)
    for a in range(part.num_categories):
        for b in range(part.num_categories):
            if a != b:
                assert edge_cut(g, part, a, b) == cuts.get((min(a, b), max(a, b)), 0)


def test_edge_cut_three_color(three_color_graph):
    g, part = three_color_graph
    assert edge_cut(g, part, 0, 2) == 3
    cg = exact_category_graph(g, part)
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


def test_mean_degree_regular_block():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    part = CategoryPartition(labels=np.zeros(4, dtype=int), names=("all",))
    assert mean_degree(g, part, 0) == 2.0


def test_mean_degree_whole_graph(path3):
    g, _ = path3
    assert mean_degree(g) == 4 / 3
    assert mean_degree(g) == 2 * g.edge_count / g.node_count


def test_mean_degree_empty_category():
    g = Graph.from_edges(2, [(0, 1)])
    part = CategoryPartition(labels=np.zeros(2, dtype=int), names=("a", "ghost"))
    with pytest.raises(EmptyCategory):
        mean_degree(g, part, 1)


def test_volume_and_fraction_partition_identities(three_color_graph):
    g, part = three_color_graph
    vols = [volume(g, part.members(c)) for c in range(part.num_categories)]
    assert sum(vols) == volume(g, range(g.node_count))
    fracs = [relative_fractions(g, part, c)[0]
             for c in range(part.num_categories)]
    assert sum(fracs) == pytest.approx(1.0)
