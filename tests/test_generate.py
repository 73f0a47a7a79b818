import hashlib
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryPartition,
    DEFAULT_CATEGORY_SIZES,
    GenerationFailed,
    InfeasibleRegularGraph,
    InvalidParameter,
    SyntheticParams,
    TooManyEdgesRequested,
    add_inter_edges,
    exact_category_graph,
    gen_intra_regular,
    permute_labels,
    synthetic_graph,
)
from categraph import generate

from _reference import naive_add_inter_edges, naive_regular_edges_once


def test_intra_regular_cycle_degrees():
    g, part = gen_intra_regular([6], 2, np.random.default_rng(0))
    assert g.degrees.tolist() == [2] * 6


def test_intra_regular_two_blocks_no_cross_edges():
    g, part = gen_intra_regular([50, 100], 5, np.random.default_rng(1))
    assert np.all(g.degrees == 5)
    assert exact_category_graph(g, part).cut_counts == {}
    g.validate()


def test_intra_regular_k4():
    # only one simple 3-regular graph on 4 nodes: the complete graph
    g, _ = gen_intra_regular([4], 3, np.random.default_rng(2))
    assert g.edge_count == 6
    assert np.all(g.degrees == 3)


def test_intra_regular_infeasible_size():
    with pytest.raises(InfeasibleRegularGraph):
        gen_intra_regular([3], 3, np.random.default_rng(0))


def test_intra_regular_infeasible_parity():
    with pytest.raises(InfeasibleRegularGraph):
        gen_intra_regular([5], 3, np.random.default_rng(0))


def test_add_inter_edges_zero_is_identity():
    g, part = gen_intra_regular([10, 10], 2, np.random.default_rng(3))
    assert add_inter_edges(g, part, 0, np.random.default_rng(0)) is g


def test_add_inter_edges_saturates_tiny_cut():
    g, part = gen_intra_regular([2, 2], 1, np.random.default_rng(4))
    g2 = add_inter_edges(g, part, 4, np.random.default_rng(5))
    # all four cross pairs used
    assert exact_category_graph(g2, part).cut_counts == {(0, 1): 4}
    assert exact_category_graph(g2, part).weights[(0, 1)] == 1.0


def test_add_inter_edges_too_many():
    g, part = gen_intra_regular([2, 2], 1, np.random.default_rng(4))
    with pytest.raises(TooManyEdgesRequested):
        add_inter_edges(g, part, 5, np.random.default_rng(5))


def test_add_inter_edges_only_cross_and_exact_count():
    g, part = gen_intra_regular([30, 40, 50], 4, np.random.default_rng(6))
    before = g.edge_count
    g2 = add_inter_edges(g, part, 77, np.random.default_rng(7))
    assert g2.edge_count == before + 77
    new = exact_category_graph(g2, part)
    assert sum(new.cut_counts.values()) == 77
    g2.validate()


def test_a_model_needs_a_category_and_alpha_in_the_unit_interval():
    with pytest.raises(InfeasibleRegularGraph, match="need at least one category"):
        SyntheticParams(category_sizes=(), k=2)
    part = CategoryPartition(labels=np.array([0, 1]), names=("a", "b"))
    for alpha in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            permute_labels(part, alpha, np.random.default_rng(0))


def test_permute_labels_alpha_zero_identity():
    part = CategoryPartition(labels=np.array([0, 1, 1, 2]),
                             names=("a", "b", "c"))
    assert permute_labels(part, 0.0, np.random.default_rng(0)) is part


def test_permute_labels_preserves_size_multiset():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 4, size=500)
    part = CategoryPartition(labels=labels, names=("a", "b", "c", "d"))
    for alpha in (0.25, 0.5, 1.0):
        out = permute_labels(part, alpha, np.random.default_rng(9))
        assert sorted(out.sizes.tolist()) == sorted(part.sizes.tolist())


def test_permute_labels_full_shuffle_changes_assignment():
    labels = np.repeat([0, 1], 200)
    part = CategoryPartition(labels=labels, names=("a", "b"))
    out = permute_labels(part, 1.0, np.random.default_rng(10))
    assert not np.array_equal(out.labels, part.labels)
    assert out.sizes.tolist() == [200, 200]


def test_permute_labels_selection_count_is_floor():
    # exactly floor(0.5 * 88850) = 44425 nodes are selected, so at most
    # that many labels change, and (with 10 balanced labels) almost all
    # selected nodes do change
    n = 88850
    labels = np.arange(n) % 10
    part = CategoryPartition(labels=labels,
                             names=tuple(str(i) for i in range(10)))
    out = permute_labels(part, 0.5, np.random.default_rng(11))
    changed = int(np.count_nonzero(out.labels != part.labels))
    assert changed <= 44425
    assert changed > 0.85 * 44425  # ~90% of selected nodes get a new label


def test_permute_labels_small_floor_boundary():
    # alpha=0.35 on 10 nodes selects exactly floor(3.5) = 3 of them
    part = CategoryPartition(labels=np.arange(10) % 5,
                             names=tuple("abcde"))
    out = permute_labels(part, 0.35, np.random.default_rng(12))
    assert int(np.count_nonzero(out.labels != part.labels)) <= 3


def test_synthetic_edge_count_identity():
    params = SyntheticParams(category_sizes=(100,) * 10, k=10, seed=12)
    g, _ = synthetic_graph(params)
    n = params.node_count
    assert g.edge_count == n * params.k // 2 + n * params.k // 10
    assert g.edge_count == 6000


def test_synthetic_desk_scale_explicit_inter():
    params = SyntheticParams(category_sizes=(100,) * 10, k=10,
                             inter_edge_count=1000, seed=13)
    g, _ = synthetic_graph(params)
    assert g.edge_count == 6000


def test_synthetic_deterministic():
    params = SyntheticParams(category_sizes=(40, 60, 80), k=4,
                             alpha=0.5, seed=21)
    g1, p1 = synthetic_graph(params)
    g2, p2 = synthetic_graph(params)
    assert g1 == g2
    assert p1 == p2


def test_synthetic_alpha_one_weights_near_global_density():
    params = SyntheticParams(category_sizes=(100,) * 10, k=10,
                             alpha=1.0, seed=22)
    g, part = synthetic_graph(params)
    cg = exact_category_graph(g, part)
    n = g.node_count
    density = 2 * g.edge_count / (n * (n - 1))
    vals = np.asarray(list(cg.weights.values()))
    assert len(vals) == 45
    # labels are independent of structure, so every pair weight should
    # concentrate around the global edge density
    assert np.all(np.abs(vals / density - 1) < 0.5)
    assert abs(vals.mean() / density - 1) < 0.05


def test_synthetic_disconnected_warns():
    params = SyntheticParams(category_sizes=(20, 20), k=2,
                             inter_edge_count=0, seed=23)
    with pytest.warns(RuntimeWarning):
        synthetic_graph(params)


@pytest.mark.slow
def test_synthetic_benchmark_scale_edge_count():
    assert sum(DEFAULT_CATEGORY_SIZES) == 88850
    params = SyntheticParams(category_sizes=DEFAULT_CATEGORY_SIZES, k=5,
                             seed=24)
    g, part = synthetic_graph(params)
    assert g.edge_count == int(0.6 * 88850 * 5)
    assert g.edge_count == 266550
    assert part.sizes.tolist() == sorted(DEFAULT_CATEGORY_SIZES)


# ---------------------------------------------------------------------------
# the array-op pairing rounds and inter-edge draws against per-pair loops


def _next_draws(rng):
    return rng.integers(0, 2**62, size=8).tolist()


def _oracle_intra(sizes, k, rng, attempts):
    """The intra-category edges as gen_intra_regular builds them, or
    None where a category fails ``attempts`` times."""
    edges, offset = [], 0
    for size in sizes:
        for _ in range(attempts):
            block = naive_regular_edges_once(size, k, rng)
            if block is not None:
                break
        else:
            return None
        edges += [(u + offset, v + offset) for u, v in block]
        offset += size
    return edges


def _sizes(k, raw):
    """Category sizes above k with size*k even; raw 0 and 1 give k+1
    and k+2, where retries and GenerationFailed happen."""
    sizes = [k + 1 + r if r < 2 else max(k + 1, r) for r in raw]
    return [s + (s * k) % 2 for s in sizes]


def _inter_count(cross, regime, pick):
    """An inter-edge count in the sparse regime (at most a quarter of
    the free pairs), the dense regime (more), or beyond the free pairs."""
    lo, hi = {"sparse": (0, cross // 4), "dense": (cross // 4 + 1, cross),
              "refused": (cross + 1, cross + 3)}[regime]
    return lo + pick % (hi - lo + 1) if hi >= lo else cross + 1


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 6),
       raw=st.lists(st.integers(0, 40), min_size=1, max_size=4),
       attempts=st.sampled_from([1, 3, 100]),
       seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(["sparse", "dense", "refused"]),
       again=st.sampled_from(["sparse", "dense", "refused"]),
       pick=st.integers(0, 2**20))
@example(k=6, raw=[1, 1, 1], attempts=1, seed=0, regime="dense",
         again="dense", pick=0)
@example(k=4, raw=[1, 0, 40], attempts=100, seed=5, regime="sparse",
         again="sparse", pick=2**20)
@example(k=0, raw=[3, 0], attempts=1, seed=7, regime="dense",
         again="sparse", pick=1)
def test_generator_matches_per_pair_oracles(k, raw, attempts, seed, regime,
                                            again, pick):
    """Edge sets, exceptions and the generator's next draws agree with
    the per-pair loops, across retries, GenerationFailed, both
    inter-edge regimes and TooManyEdgesRequested. A second
    add_inter_edges call meets inter-category edges already present."""
    sizes = _sizes(k, raw)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = _oracle_intra(sizes, k, twin, attempts)
    with mock.patch.object(generate, "_MAX_REGULAR_ATTEMPTS", attempts):
        if expected is None:
            with pytest.raises(GenerationFailed):
                gen_intra_regular(sizes, k, rng)
            assert _next_draws(rng) == _next_draws(twin)
            return
        g, part = gen_intra_regular(sizes, k, rng)
    assert list(map(tuple, g.edge_array.tolist())) == expected

    n = sum(sizes)
    free = (n * n - sum(s * s for s in sizes)) // 2
    for round_regime in (regime, again):
        m = _inter_count(free, round_regime, pick)
        try:
            new = naive_add_inter_edges(n, expected, part.labels, m, twin)
        except ValueError:
            with pytest.raises(TooManyEdgesRequested):
                add_inter_edges(g, part, m, rng)
            break
        g = add_inter_edges(g, part, m, rng)
        expected = sorted(expected + new)
        assert list(map(tuple, g.edge_array.tolist())) == expected
        free -= m
    assert _next_draws(rng) == _next_draws(twin)


def test_suitable_tests_keys_before_any_edge_is_accepted():
    none = np.empty(0, dtype=np.int64)
    assert not generate._suitable(none, np.array([3, 3]), 5)
    assert generate._suitable(none, np.array([3, 4, 3, 3]), 5)
    three = np.array([0 * 5 + 1, 0 * 5 + 2, 1 * 5 + 2])   # a triangle
    assert not generate._suitable(three, np.array([2, 1, 0, 1]), 5)
    assert generate._suitable(three, np.array([2, 3]), 5)


def test_c4_graph_is_pinned():
    # sha256 of the arrays as the per-pair set loops built them
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(100, 200, 200, 300, 400, 500, 600, 700, 1000, 1000),
        k=10, alpha=0.5, seed=42))
    digests = {name: hashlib.sha256(arr.astype(np.int64).tobytes()).hexdigest()
               for name, arr in (("indptr", g.indptr), ("indices", g.indices),
                                 ("labels", part.labels))}
    assert digests == {
        "indptr": "76d01e67b5a83ccf11b4997964cb9c852c3e7508dee00b237a477bb1fdae7571",
        "indices": "2d27342882781e35a0a07daf1b853d3900f234d703aa4b03cbbb8035a8d55488",
        "labels": "9d662d406dc23d7402d96df15fe8ceedbbcc42460db5c6de19480af2172f318f",
    }


BAD_PARAMS = [
    (dict(category_sizes=(10,), k=2, inter_edge_count=-3), InvalidParameter,
     "inter-category edge count must be >= 0, got -3"),
    (dict(category_sizes=(10,), k=-2), InvalidParameter,
     "degree k must be >= 0, got -2"),
    (dict(category_sizes=(0,), k=-1), InvalidParameter,
     "degree k must be >= 0, got -1"),
    (dict(category_sizes=(5, 0), k=0), InvalidParameter,
     "category size must be >= 1, got 0"),
    (dict(category_sizes=(-4,), k=2), InvalidParameter,
     "category size must be >= 1, got -4"),
    (dict(category_sizes=(3,), k=3), InfeasibleRegularGraph,
     "category size 3 must exceed degree k=3"),
    (dict(category_sizes=(5,), k=3), InfeasibleRegularGraph,
     "size\\*k must be even"),
    (dict(category_sizes=(10,), k=True), InvalidParameter,
     "degree k: True is not an integer"),
    (dict(category_sizes=(10,), k=2, inter_edge_count=3.5), InvalidParameter,
     "inter-category edge count: 3.5 is not an integer"),
    (dict(category_sizes=(10.0,), k=2), InvalidParameter,
     "category size: 10.0 is not an integer"),
    (dict(category_sizes=(10, 2**63), k=2), InvalidParameter,
     r"category sizes must total at most 2\*\*60 - 1, got 9223372036854775818$"),
    (dict(category_sizes=np.full(2, 2**62), k=2), InvalidParameter,
     r"category sizes must total at most 2\*\*60 - 1, got 9223372036854775808$"),
    # fits int64, but its int64 labels would not fit the address space
    (dict(category_sizes=(4, 2**62), k=2), InvalidParameter,
     r"category sizes must total at most 2\*\*60 - 1, got 4611686018427387908$"),
]


@pytest.mark.parametrize("kwargs,error,message", BAD_PARAMS)
def test_bad_parameters_raise_typed_errors(kwargs, error, message):
    with pytest.raises(error, match=message):
        SyntheticParams(**kwargs)
    if "inter_edge_count" not in kwargs:
        with pytest.raises(error, match=message):
            gen_intra_regular(kwargs["category_sizes"], kwargs["k"],
                              np.random.default_rng(0))


@pytest.mark.parametrize("seed,message", [
    (-1, "seed must be >= 0, got -1"),
    (True, "seed: True is not an integer"),
    (1.5, "seed: 1.5 is not an integer"),
])
def test_synthetic_seed_follows_the_count_rule(seed, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        SyntheticParams(category_sizes=(10,), k=2, seed=seed)
    assert SyntheticParams(category_sizes=(10,), k=2, seed=2**70).seed == 2**70


def test_add_inter_edges_refuses_a_negative_count():
    g, part = gen_intra_regular([10, 10], 2, np.random.default_rng(3))
    with pytest.raises(InvalidParameter, match="got -3"):
        add_inter_edges(g, part, -3, np.random.default_rng(0))


def test_dense_inter_edges_enumerate_cross_pairs_only():
    """Half of the 6,000 cross pairs of a 3,000-node and a 2-node category:
    the dense regime holds those pairs, not all 4.5 million node pairs."""
    rng = np.random.default_rng(5)
    g, part = gen_intra_regular([3000, 2], 1, rng)
    tracemalloc.start()
    try:
        g = add_inter_edges(g, part, 3000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert g.edge_count == 1501 + 3000
    assert exact_category_graph(g, part).cut_counts == {(0, 1): 3000}


@pytest.mark.parametrize("seed", range(4))
def test_dense_inter_edges_match_the_oracle_on_interleaved_labels(seed):
    """After permute_labels the categories no longer hold blocks of node
    ids; the dense regime still takes its candidates in ascending pair
    order, as the per-pair loop does."""
    rng = np.random.default_rng(seed)
    g, part = gen_intra_regular([8, 10, 12], 2, rng)
    part = permute_labels(part, 1.0, rng)
    edges, labels = list(map(tuple, g.edge_array.tolist())), part.labels
    free = ((30 * 30 - 8 * 8 - 10 * 10 - 12 * 12) // 2
            - sum(labels[u] != labels[v] for u, v in edges))
    m = free // 2   # dense: more than a quarter of the free pairs
    rng, twin = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    new = naive_add_inter_edges(30, edges, labels, m, twin)
    g = add_inter_edges(g, part, m, rng)
    assert list(map(tuple, g.edge_array.tolist())) == sorted(edges + new)
    assert _next_draws(rng) == _next_draws(twin)


# ---------------------------------------------------------------------------
# synthetic_graph builds one Graph: the intra-category rows go straight into
# the inter-edge draw, with the draws of the three public steps

@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sizes, k, m, alpha", [
    (DEFAULT_CATEGORY_SIZES[:6], 10, None, 0.5),   # the sparse ladder
    ((2, 2, 2), 1, 10, 1.0),                       # a dense tiny cut
    ((4, 6), 3, 0, 0.3),                           # no inter-category edge
], ids=["sparse ladder", "dense tiny cut", "no inter edges"])
def test_synthetic_graph_equals_its_three_steps_on_one_generator(seed, sizes, k,
                                                                 m, alpha):
    """The graph, the partition and the generator's next draw are those of
    gen_intra_regular, add_inter_edges and permute_labels run in turn on a
    generator of the same seed; the connectivity is left cached."""
    params = SyntheticParams(category_sizes=sizes, k=k, inter_edge_count=m,
                             alpha=alpha, seed=seed)
    made, default_rng = [], np.random.default_rng
    with mock.patch.object(generate.np.random, "default_rng",
                           lambda s: made.append(default_rng(s)) or made[-1]), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)   # m = 0 disconnects
        g, part = synthetic_graph(params)
    rng = np.random.default_rng(seed)
    want_g, want_part = gen_intra_regular(sizes, k, rng)
    want_g = add_inter_edges(want_g, want_part, params.resolved_inter_edges(), rng)
    want_part = permute_labels(want_part, alpha, rng)
    assert (g, part) == (want_g, want_part)
    assert made[0].random() == rng.random()
    assert vars(g)["is_connected"] is (m != 0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 16), data=st.data(), seed=st.integers(0, 2**32 - 1),
       regime=st.sampled_from(["sparse", "dense", "refused"]),
       pick=st.integers(0, 2**20))
def test_inter_edges_match_the_per_pair_oracle(n, data, seed, regime, pick):
    """The helper synthetic_graph and add_inter_edges share takes the
    oracle's (n, edges, labels, m, rng) and gives its pairs in its order,
    or refuses where it does, leaving the generator where it leaves it."""
    labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    iu, iv = np.triu_indices(n, k=1)
    keep = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    edges = np.column_stack([iu, iv])[np.array(keep, dtype=bool)]
    sizes = np.bincount(labels)
    free = ((n * n - int((sizes ** 2).sum())) // 2
            - int(np.count_nonzero(labels[edges[:, 0]] != labels[edges[:, 1]])))
    m = _inter_count(free, regime, pick)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        want = naive_add_inter_edges(n, edges.tolist(), labels, m, twin)
    except ValueError:
        with pytest.raises(TooManyEdgesRequested):
            generate._inter_edges(n, edges, labels, m, rng)
    else:
        got = generate._inter_edges(n, edges, labels, m, rng)
        assert list(map(tuple, got.tolist())) == want
    assert _next_draws(rng) == _next_draws(twin)
