import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from categraph import (
    PROPORTIONAL,
    CategoryPartition,
    EmptySample,
    Graph,
    InsufficientSample,
    InvalidParameter,
    MissingSizeEstimate,
    ObservationLog,
    SampleTrace,
    WrongObservationMode,
    bootstrap_variance,
    est_mean_degrees,
    est_size_induced,
    est_size_star,
    est_volume_fraction_star,
    est_weight_induced,
    est_weight_star,
    estimate_category_graph,
    exact_category_graph,
    hh_ratio,
    hh_total,
    observe_induced,
    observe_star,
    reweighted_size,
    sample_rw,
    sample_uis,
)

from categraph.estimate import ESTIMATOR_PAIRS

import _reference as ref


def make_trace(nodes, weights=None):
    nodes = np.asarray(nodes, dtype=np.int64)
    if weights is None:
        weights = np.ones(len(nodes))
    return SampleTrace(nodes=nodes, steps=np.arange(len(nodes)),
                       weights=np.asarray(weights, dtype=float),
                       sampler="test", seed=None, start=None, burn_in=0)


def manual_log(categories, weights, degrees=None, num_categories=None):
    """Synthetic log for formula-level tests, bypassing any graph."""
    cats = np.asarray(categories, dtype=np.int64)
    n = len(cats)
    num_categories = num_categories or int(cats.max()) + 1
    return ObservationLog(
        mode="induced",
        nodes=np.arange(n, dtype=np.int64),
        categories=cats,
        degrees=np.asarray(degrees if degrees is not None else np.ones(n),
                           dtype=np.int64),
        weights=np.asarray(weights, dtype=float),
        num_categories=num_categories,
        category_names=tuple(f"C{i}" for i in range(num_categories)),
        induced_edges=np.empty((0, 2), dtype=np.int64))


@pytest.fixture(scope="module")
def two_pair_graph():
    """A = {0, 1}, B = {2, 3}, single cross edge {0, 2}: w(A,B) = 1/4."""
    g = Graph.from_edges(4, [(0, 2)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    return g, part


# ---------------------------------------------------------------------------
# reweighted size and Hansen-Hurwitz helpers

def test_reweighted_size_is_inverse_weight_mass():
    assert reweighted_size([1.0, 2.0, 4.0]) == 1.0 + 0.5 + 0.25
    assert reweighted_size(np.ones(7)) == 7.0


def test_hh_total_uniform_recovers_population_size():
    log = manual_log([0, 0, 0], weights=[1 / 5, 1 / 5, 1 / 5])
    assert hh_total(np.ones(3), log) == pytest.approx(5.0)


def test_hh_total_single_draw_enumeration_unbiased():
    # population values x = [1, 2, 3]; averaging the single-draw
    # estimate over all three equally likely draws gives the total, 6
    estimates = []
    for v, x in enumerate([1.0, 2.0, 3.0]):
        log = manual_log([0], weights=[1 / 3])
        estimates.append(hh_total(np.array([x]), log))
    assert np.mean(estimates) == 6.0


def test_hh_total_empty():
    log = manual_log([0], weights=[1.0])
    empty = log.resampled(np.empty(0, dtype=np.int64))
    with pytest.raises(EmptySample):
        hh_total(np.empty(0), empty)


def test_hh_ratio_estimates_mean_degree_on_path():
    # degree-weighted draws on the path 0-1-2; the ratio of the degree
    # total to the node-count total targets the mean degree 4/3.
    # Monte Carlo mean over 1e5 independent 25-draw replicates.
    rng = np.random.default_rng(101)
    degrees = np.array([1.0, 2.0, 1.0])
    p = degrees / degrees.sum()
    reps, n = 100_000, 25
    draws = rng.choice(3, size=(reps, n), p=p)
    w = degrees[draws]
    ratios = np.sum(degrees[draws] / w, axis=1) / np.sum(1.0 / w, axis=1)
    assert abs(np.mean(ratios) / (4 / 3) - 1) < 0.01
    # spot check that hh_ratio computes the same ratio on one replicate
    log = manual_log(draws[0] % 1, weights=w[0])
    assert hh_ratio(degrees[draws[0]], np.ones(n), log) == pytest.approx(
        ratios[0])


@pytest.mark.parametrize("estimate", [
    lambda log: hh_total(np.ones(2), log),
    lambda log: hh_ratio(np.ones(3), np.ones(2), log),
    lambda log: hh_ratio(np.ones(2), np.ones(3), log),
], ids=["total", "ratio denominator", "ratio numerator"])
def test_hh_helpers_need_one_value_per_draw(estimate):
    log = manual_log([0, 0, 1], weights=[1, 1, 1])
    with pytest.raises(ValueError, match="need exactly one value per draw"):
        estimate(log)


# ---------------------------------------------------------------------------
# size estimators

def test_size_induced_unit_weights():
    log = manual_log([0, 0, 1, 1], weights=[1, 1, 1, 1])
    assert est_size_induced(log, 10)[0] == 5.0


def test_size_induced_weighted():
    log = manual_log([0, 0, 1, 1], weights=[2, 2, 1, 1])
    sizes = est_size_induced(log, 10)
    assert sizes[0] == pytest.approx(10 * (0.5 + 0.5) / (0.5 + 0.5 + 1 + 1))
    assert sizes[0] == pytest.approx(10 / 3)


def test_size_induced_zero_draw_category_gets_zero():
    log = manual_log([0, 0], weights=[1, 1], num_categories=3)
    sizes = est_size_induced(log, 10)
    assert sizes[1] == 0.0 and sizes[2] == 0.0


def test_size_induced_full_population_exact(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 3]))
    assert est_size_induced(log, 4) == {0: 2.0, 1: 2.0}


def test_mean_degrees_unit_weights():
    log = manual_log([0, 0], weights=[1, 1], degrees=[2, 4])
    k_all, per = est_mean_degrees(log)
    assert k_all == 3.0
    assert per[0] == 3.0


def test_mean_degrees_degree_weights_harmonic_form():
    degs = [1, 2, 1, 4]
    log = manual_log([0, 0, 0, 0], weights=degs, degrees=degs)
    k_all, _ = est_mean_degrees(log)
    assert k_all == pytest.approx(len(degs) / sum(1 / d for d in degs))


def test_mean_degrees_full_population(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 3]))
    k_all, _ = est_mean_degrees(log)
    assert k_all == 2 * g.edge_count / g.node_count


def test_mean_degrees_skips_unseen_category():
    log = manual_log([0, 0], weights=[1, 1], degrees=[2, 4], num_categories=2)
    _, per = est_mean_degrees(log)
    assert 1 not in per


# ---------------------------------------------------------------------------
# star-specific estimators

def test_volume_fraction_star_full_path(path3):
    g, part = path3
    log = observe_star(g, part, make_trace([0, 1, 2]))
    fvol = est_volume_fraction_star(log)
    assert fvol[1] == 0.5  # middle node holds half the volume
    assert sum(fvol.values()) == pytest.approx(1.0)


def test_volume_fraction_star_single_draw_all_neighbors_one_category(path3):
    g, part = path3
    log = observe_star(g, part, make_trace([0]))  # only neighbor is node 1
    assert est_volume_fraction_star(log)[1] == 1.0


def test_volume_fraction_star_rejects_induced_log(path3):
    g, part = path3
    log = observe_induced(g, part, make_trace([0, 1]))
    with pytest.raises(WrongObservationMode):
        est_volume_fraction_star(log)


def test_size_star_full_population_exact(three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, make_trace(range(8)))
    sizes = est_size_star(log, 8)
    truth = exact_category_graph(g, part).sizes
    for c, s in truth.items():
        assert sizes[c] == pytest.approx(s, rel=1e-12)


def test_size_star_regular_graph_reduces_to_volume_share():
    # on a regular graph every per-category mean degree equals the
    # global one, so the size estimate is population * volume fraction
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1, 1, 0]),
                             names=("A", "B"))
    log = observe_star(g, part, make_trace([0, 2, 4, 5]))
    sizes = est_size_star(log, 6)
    fvol = est_volume_fraction_star(log)
    for c in sizes:
        assert sizes[c] == pytest.approx(6 * fvol[c], rel=1e-12)


def test_size_star_omits_unseen_category(three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, make_trace([0, 1, 3]))  # no black draws
    sizes = est_size_star(log, 8)
    assert 2 not in sizes


def test_size_star_homogeneous_degree_covers_unseen(three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, make_trace([0, 1, 3]))
    sizes = est_size_star(log, 8, assume_homogeneous_degree=True)
    fvol = est_volume_fraction_star(log)
    assert sizes[2] == pytest.approx(8 * fvol[2])


def test_volume_fraction_star_uis_nrmse_small():
    """30 replicates of a 10^4-draw uniform sample pin every category's
    volume fraction to within NRMSE 0.05."""
    from categraph import SyntheticParams, relative_fractions, synthetic_graph

    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(100,) * 5, k=8, alpha=0.5, seed=77))
    truth = {c: relative_fractions(g, part, c)[1]
             for c in range(part.num_categories)}
    estimates = {c: [] for c in truth}
    for rep in range(30):
        log = observe_star(g, part, sample_uis(g, 10_000, seed=[770, rep]))
        fvol = est_volume_fraction_star(log)
        for c in truth:
            estimates[c].append(fvol[c])
    for c, vals in estimates.items():
        err = np.sqrt(np.mean((np.asarray(vals) - truth[c]) ** 2)) / truth[c]
        assert err < 0.05


def test_star_pipeline_recovers_three_category_weights(three_color_graph):
    """UIS with n=10^4 through the star/star pipeline lands within
    NRMSE 0.1 of the exact weights 3/9, 1/6 and 4/6."""
    g, part = three_color_graph
    truth = exact_category_graph(g, part).weights
    estimates = {pair: [] for pair in truth}
    for rep in range(30):
        log = observe_star(g, part, sample_uis(g, 10_000, seed=[880, rep]))
        est = estimate_category_graph(log, population=8,
                                      size_estimator="star",
                                      weight_estimator="star")
        for pair in truth:
            estimates[pair].append(est.weights[pair])
    for pair, vals in estimates.items():
        err = np.sqrt(np.mean((np.asarray(vals) - truth[pair]) ** 2))
        assert err / truth[pair] < 0.1


# ---------------------------------------------------------------------------
# weight estimators

def test_weight_induced_full_sample(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 3]))
    assert est_weight_induced(log)[(0, 1)] == 1 / 4


def test_weight_induced_multiset_semantics(two_pair_graph):
    # node 0 drawn twice: the edge {0,2} is counted twice, and
    # |S_A|*|S_B| = 2*1, so the estimate is 1
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 0, 2]))
    assert est_weight_induced(log)[(0, 1)] == 1.0


def test_weight_induced_weighted_draws(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 2], weights=[2.0, 1.0]))
    # numerator 1/(2*1), denominator (1/2)*(1/1)
    assert est_weight_induced(log)[(0, 1)] == 1.0


def test_weight_induced_skips_unsampled_side(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 1]))
    assert est_weight_induced(log) == {}


def test_weight_induced_rejects_star_log(two_pair_graph):
    g, part = two_pair_graph
    log = observe_star(g, part, make_trace([0, 2]))
    with pytest.raises(WrongObservationMode):
        est_weight_induced(log)


def test_weight_star_full_sample(two_pair_graph):
    g, part = two_pair_graph
    log = observe_star(g, part, make_trace([0, 1, 2, 3]))
    est = est_weight_star(log, {0: 2.0, 1: 2.0})
    assert est[(0, 1)] == (1 + 1) / (2 * 2 + 2 * 2)


def test_weight_star_one_sided(two_pair_graph):
    g, part = two_pair_graph
    log = observe_star(g, part, make_trace([0]))
    est = est_weight_star(log, {0: 2.0, 1: 2.0})
    assert est[(0, 1)] == 1 / (1 * 2 + 0)


def test_weight_star_skips_pair_with_no_draws(three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, make_trace([0]))  # white only
    est = est_weight_star(log, {0: 3.0, 1: 2.0, 2: 3.0})
    assert (1, 2) not in est  # neither gray nor black drawn
    assert (0, 1) in est and (0, 2) in est


def test_weight_star_rejects_induced_log(two_pair_graph):
    g, part = two_pair_graph
    log = observe_induced(g, part, make_trace([0, 2]))
    with pytest.raises(WrongObservationMode):
        est_weight_star(log, {0: 2.0, 1: 2.0})


def test_weight_star_needs_size_estimates(two_pair_graph):
    g, part = two_pair_graph
    log = observe_star(g, part, make_trace([0, 2]))
    with pytest.raises(MissingSizeEstimate,
                       match="size estimates are required"):
        est_weight_star(log, None)


def test_weight_estimates_symmetric_under_relabeling(three_color_graph):
    # swapping two category ids must swap the weight keys, nothing else
    g, part = three_color_graph
    swap = np.array([1, 0, 2])
    part2 = CategoryPartition(labels=swap[part.labels],
                              names=(part.names[1], part.names[0],
                                     part.names[2]))
    trace = make_trace([0, 1, 3, 4, 5, 6])
    est1 = est_weight_induced(observe_induced(g, part, trace))
    est2 = est_weight_induced(observe_induced(g, part2, trace))
    for (a, b), w in est1.items():
        sa, sb = int(swap[a]), int(swap[b])
        assert est2[(min(sa, sb), max(sa, sb))] == w


def test_weight_induced_single_pair_expectation_matches_design():
    """Exact expectation over all ordered two-draw samples equals the
    brute-force edge weight."""
    g = Graph.from_edges(5, [(0, 2), (1, 4), (0, 1)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1, 2]),
                             names=("A", "B", "C"))
    _, _, true_weights = ref.brute_force_category_graph(g, part)
    values = []
    for v1, v2 in itertools.product(range(5), repeat=2):
        log = observe_induced(g, part, make_trace([v1, v2]))
        est = est_weight_induced(log)
        if (0, 1) in est:
            values.append(est[(0, 1)])
    assert np.mean(values) == true_weights[(0, 1)]


# ---------------------------------------------------------------------------
# uniform reduction: weighted code with unit weights must reproduce the
# plain counting forms bit for bit

def _random_log_pair(seed, unit_weights):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(8, 40))
    g = ref.random_graph(n_nodes, float(rng.uniform(0.1, 0.4)), rng)
    part = ref.random_partition(n_nodes, int(rng.integers(2, 5)), rng)
    n_draws = int(rng.integers(3, 60))
    nodes = rng.integers(0, n_nodes, size=n_draws)
    if unit_weights:
        weights = np.ones(n_draws)
    else:
        weights = rng.uniform(0.5, 3.0, size=n_draws)
    trace = make_trace(nodes, weights)
    return (observe_induced(g, part, trace),
            observe_star(g, part, trace))


@pytest.mark.parametrize("seed", range(12))
def test_uniform_reduction_bit_for_bit(seed):
    ind_log, star_log = _random_log_pair(seed, unit_weights=True)
    n_pop = 100

    sizes = est_size_induced(ind_log, n_pop)
    assert sizes == ref.naive_size_induced_uniform(ind_log, n_pop)

    k_all, per = est_mean_degrees(ind_log)
    ref_k_all, ref_per = ref.naive_mean_degrees_uniform(ind_log)
    assert k_all == ref_k_all and per == ref_per

    fvol = est_volume_fraction_star(star_log)
    assert fvol == ref.naive_volume_fraction_star_uniform(star_log)

    star_sizes = est_size_star(star_log, n_pop)
    assert star_sizes == ref.naive_size_star_uniform(star_log, n_pop)

    weights = est_weight_induced(ind_log)
    assert weights == ref.naive_weight_induced_uniform(ind_log)

    star_weights = est_weight_star(star_log, sizes)
    assert star_weights == ref.naive_weight_star_uniform(star_log, sizes)


def _assert_close(got, want):
    assert set(got) == set(want)
    for key, v in want.items():
        assert got[key] == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_weighted_estimators_match_literal_formulas(seed):
    ind_log, star_log = _random_log_pair(1000 + seed, unit_weights=False)
    n_pop = 100
    sizes = est_size_induced(ind_log, n_pop)
    _assert_close(sizes, ref.naive_size_induced_weighted(ind_log, n_pop))
    _assert_close(est_weight_induced(ind_log),
                  ref.naive_weight_induced_weighted(ind_log))

    k_all, per = est_mean_degrees(star_log)
    ref_k_all, ref_per = ref.naive_mean_degrees_weighted(star_log)
    assert k_all == pytest.approx(ref_k_all, rel=1e-12)
    _assert_close(per, ref_per)
    _assert_close(est_volume_fraction_star(star_log),
                  ref.naive_volume_fraction_star_weighted(star_log))
    star_sizes = est_size_star(star_log, n_pop)
    _assert_close(star_sizes, ref.naive_size_star_weighted(star_log, n_pop))
    # star weights fed by either size estimator
    for feed in (sizes, star_sizes):
        _assert_close(est_weight_star(star_log, feed),
                      ref.naive_weight_star_weighted(star_log, feed))


@st.composite
def observed_logs(draw):
    """The induced and the star log of one draw multiset on a random
    graph and partition, and whether every weight is 1."""
    n = draw(st.integers(1, 10))
    iu, iv = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    g = Graph.from_edges(n, np.column_stack([iu, iv])[np.array(keep, dtype=bool)])
    c = draw(st.integers(1, 4))
    part = CategoryPartition(
        labels=np.array(draw(st.lists(st.integers(0, c - 1), min_size=n,
                                      max_size=n)), dtype=np.int64),
        names=tuple(f"C{i}" for i in range(c)))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=25))
    unit = draw(st.booleans())
    weights = (np.ones(len(nodes)) if unit else draw(st.lists(
        st.floats(2**-10, 2**10), min_size=len(nodes), max_size=len(nodes))))
    trace = make_trace(nodes, weights)
    return observe_induced(g, part, trace), observe_star(g, part, trace), unit


@settings(max_examples=150, deadline=None)
@given(logs=observed_logs(), population=st.integers(1, 10**6), data=st.data())
def test_every_estimator_matches_its_oracle(logs, population, data):
    """Unit weights give the counting forms bit for bit; other weights
    give the per-draw division forms within rel 1e-12."""
    ind, star, unit = logs
    oracle = {name: getattr(ref, f"naive_{name}_{'uniform' if unit else 'weighted'}")
              for name in ("size_induced", "mean_degrees", "volume_fraction_star",
                           "size_star", "weight_induced", "weight_star")}

    def same(got, want):
        if unit:
            assert got == want
        else:
            assert set(got) == set(want)
            for key, value in want.items():
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0)

    sizes = est_size_induced(ind, population)
    same(sizes, oracle["size_induced"](ind, population))
    k_all, per = est_mean_degrees(star)
    want_k_all, want_per = oracle["mean_degrees"](star)
    same({-1: k_all, **per}, {-1: want_k_all, **want_per})
    same(est_weight_induced(ind), oracle["weight_induced"](ind))
    feeds = [sizes, data.draw(st.dictionaries(
        st.integers(0, star.num_categories - 1),
        st.one_of(st.just(0.0), st.floats(0.5, 1e6))), label="sizes")]
    if star.degrees.sum() == 0:
        with pytest.raises(InsufficientSample):
            est_size_star(star, population)
    else:
        fvol = oracle["volume_fraction_star"](star)
        same(est_volume_fraction_star(star), fvol)
        same(est_size_star(star, population, assume_homogeneous_degree=True),
             {c: population * f for c, f in fvol.items()})
        star_sizes = est_size_star(star, population)
        same(star_sizes, oracle["size_star"](star, population))
        feeds.append(star_sizes)
    for feed in feeds:
        same(est_weight_star(star, feed), oracle["weight_star"](star, feed))


# ---------------------------------------------------------------------------
# scale invariance of the Hansen-Hurwitz ratios

def _rescaled(log, c):
    return dataclasses.replace(log, weights=log.weights * c)


@pytest.mark.parametrize("seed", range(5))
def test_scale_invariance_within_float_tolerance(seed):
    ind_log, star_log = _random_log_pair(2000 + seed, unit_weights=False)
    for c in (7.3, 0.013, 1234.5):
        a = est_size_induced(ind_log, 50)
        b = est_size_induced(_rescaled(ind_log, c), 50)
        for key in a:
            assert b[key] == pytest.approx(a[key], rel=1e-12, abs=1e-300)
        wa = est_weight_induced(ind_log)
        wb = est_weight_induced(_rescaled(ind_log, c))
        for key in wa:
            assert wb[key] == pytest.approx(wa[key], rel=1e-12, abs=1e-300)
        sa = est_size_star(star_log, 50)
        sb = est_size_star(_rescaled(star_log, c), 50)
        for key in sa:
            assert sb[key] == pytest.approx(sa[key], rel=1e-12, abs=1e-300)


def test_scale_invariance_exact_for_power_of_two():
    # doubling every weight halves every inverse weight exactly, so
    # outputs are bit-identical
    ind_log, star_log = _random_log_pair(3000, unit_weights=False)
    assert est_size_induced(ind_log, 50) == est_size_induced(
        _rescaled(ind_log, 2.0), 50)
    assert est_weight_induced(ind_log) == est_weight_induced(
        _rescaled(ind_log, 2.0))
    assert est_size_star(star_log, 50) == est_size_star(
        _rescaled(star_log, 2.0), 50)


# ---------------------------------------------------------------------------
# full pipeline

def _full_trace(g):
    return make_trace(np.arange(g.node_count))


def test_full_population_pipeline_matches_exact(three_color_graph):
    g, part = three_color_graph
    truth = exact_category_graph(g, part)
    combos = [("induced", "induced", observe_induced),
              ("induced", "star", observe_star),
              ("star", "star", observe_star)]
    for size_est, weight_est, observer in combos:
        log = observer(g, part, _full_trace(g))
        est = estimate_category_graph(log, population=g.node_count,
                                      size_estimator=size_est,
                                      weight_estimator=weight_est)
        for c, s in truth.sizes.items():
            assert est.sizes[c] == pytest.approx(s, rel=1e-9)
        for pair, w in truth.weights.items():
            assert est.weights[pair] == pytest.approx(w, rel=1e-9)


def test_pipeline_mode_mismatches_raise(three_color_graph):
    # the one rule: induced logs take induced/induced only; star logs
    # take star weights fed by either size estimator
    assert ESTIMATOR_PAIRS == {
        "induced": (("induced", "induced"),),
        "star": (("induced", "star"), ("star", "star")),
    }
    g, part = three_color_graph
    logs = {"induced": observe_induced(g, part, _full_trace(g)),
            "star": observe_star(g, part, _full_trace(g))}
    for mode, se, we in itertools.product(("induced", "star"), repeat=3):
        if (se, we) in ESTIMATOR_PAIRS[mode]:
            est = estimate_category_graph(logs[mode], 8, size_estimator=se,
                                          weight_estimator=we)
            assert (est.size_estimator, est.weight_estimator) == (se, we)
        else:
            with pytest.raises(WrongObservationMode):
                estimate_category_graph(logs[mode], 8, size_estimator=se,
                                        weight_estimator=we)


def test_default_weight_estimator_is_the_one_the_table_pairs(three_color_graph):
    g, part = three_color_graph
    logs = {"induced": observe_induced(g, part, _full_trace(g)),
            "star": observe_star(g, part, _full_trace(g))}
    for mode, pairs in ESTIMATOR_PAIRS.items():
        for se, we in pairs:
            est = estimate_category_graph(logs[mode], 8, size_estimator=se)
            assert est.weight_estimator == we
    # a mode the table does not name has no default; _require refuses it
    for log in logs.values():
        with pytest.raises(WrongObservationMode):
            estimate_category_graph(dataclasses.replace(log, mode="bogus"), 8)


def test_pipeline_rejects_unknown_estimator(three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, _full_trace(g))
    with pytest.raises(ValueError, match="size estimator"):
        estimate_category_graph(log, 8, size_estimator="bogus")
    with pytest.raises(ValueError, match="weight estimator"):
        estimate_category_graph(log, 8, weight_estimator="bogus")


def test_pipeline_default_weight_estimator_follows_mode(three_color_graph):
    g, part = three_color_graph
    est = estimate_category_graph(
        observe_star(g, part, _full_trace(g)), 8)
    assert est.weight_estimator == "star"
    est = estimate_category_graph(
        observe_induced(g, part, _full_trace(g)), 8)
    assert est.weight_estimator == "induced"


@pytest.mark.parametrize("population", [-10, 0, float("nan"), float("inf"),
                                        "12", True, "foo"])
def test_population_must_be_positive_and_finite(population):
    log = manual_log([0, 1, 1, 0], [1.0, 2.0, 1.0, 4.0])
    message = re.escape("population must be a positive finite number, "
                        f"got {population!r}")
    with pytest.raises(ValueError, match=message):
        estimate_category_graph(log, population)
    with pytest.raises(ValueError, match=message):
        bootstrap_variance(log, 2, seed=0, population=population)


def test_pipeline_population_from_hint(three_color_graph):
    g, part = three_color_graph
    est = estimate_category_graph(observe_induced(g, part, _full_trace(g)))
    assert est.population == 8 and est.population_mode == "exact"


def test_proportional_mode_preserves_ratios(three_color_graph):
    g, part = three_color_graph
    trace = make_trace([0, 1, 3, 5, 6, 2, 4])
    log = observe_induced(g, part, trace)
    exact = estimate_category_graph(log, population=8)
    prop = estimate_category_graph(log, population=PROPORTIONAL)
    assert prop.population_mode == PROPORTIONAL and prop.population == 1.0
    for a in range(3):
        for b in range(3):
            if exact.sizes[b]:
                assert (prop.sizes[a] / prop.sizes[b] ==
                        pytest.approx(exact.sizes[a] / exact.sizes[b],
                                      rel=1e-12))


def test_zero_draw_category_flagged(three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, make_trace([0, 1, 3]))  # no black
    est = estimate_category_graph(log, 8)
    assert est.zero_draw_categories == frozenset({2})
    assert est.sizes[2] == 0.0
    # pairs touching black are unestimable under the induced estimator
    assert (0, 2) in est.skipped_weight_pairs
    assert (1, 2) in est.skipped_weight_pairs


def sparse_ids(log):
    """The same log with every node id moved near 2**62."""
    def move(ids):
        return 2**62 + ids * 1_000_003
    return dataclasses.replace(log, nodes=move(log.nodes),
                               induced_edges=move(log.induced_edges))


def test_induced_estimates_take_sparse_node_ids(three_color_graph):
    g, part = three_color_graph
    for trace in (sample_uis(g, 40, seed=3),
                  sample_rw(g, 40, start=0, seed=4)):
        log = observe_induced(g, part, trace)
        sparse = sparse_ids(log)
        assert sparse.nodes.min() >= 2**62 and len(sparse.induced_edges)
        dense_est = estimate_category_graph(log, population=8)
        sparse_est = estimate_category_graph(sparse, population=8)
        assert sparse_est.sizes == dense_est.sizes
        assert sparse_est.weights == dense_est.weights


def test_estimate_on_empty_log_raises(three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, make_trace([0]))
    empty = log.resampled(np.empty(0, dtype=np.int64))
    with pytest.raises(EmptySample):
        estimate_category_graph(empty, 8)


# every estimator: the modes whose logs it takes, and one call of it
REFUSALS = {
    "hh_total": (("induced", "star"), lambda log: hh_total(np.ones(log.n), log)),
    "hh_ratio": (("induced", "star"),
                 lambda log: hh_ratio(np.ones(log.n), np.ones(log.n), log)),
    "est_size_induced": (("induced", "star"), lambda log: est_size_induced(log, 8)),
    "est_mean_degrees": (("induced", "star"), est_mean_degrees),
    "est_volume_fraction_star": (("star",), est_volume_fraction_star),
    "est_size_star": (("star",), lambda log: est_size_star(log, 8)),
    "est_weight_induced": (("induced",), est_weight_induced),
    "est_weight_star": (("star",),
                        lambda log: est_weight_star(log, {0: 3.0, 1: 2.0, 2: 3.0})),
    **{f"estimate_category_graph {se}/{we}": (
        tuple(m for m, pairs in ESTIMATOR_PAIRS.items() if (se, we) in pairs),
        lambda log, se=se, we=we: estimate_category_graph(
            log, 8, size_estimator=se, weight_estimator=we))
       for se, we in itertools.product(("induced", "star"), repeat=2)},
}


@pytest.mark.parametrize("mode", ["induced", "star"])
@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_estimator_refusals_in_order(three_color_graph, name, mode):
    """A log of a mode the estimator does not take is refused first,
    even when it is empty; then an empty log is refused."""
    takes, call = REFUSALS[name]
    g, part = three_color_graph
    observe = observe_induced if mode == "induced" else observe_star
    full = observe(g, part, make_trace([0, 3, 5]))
    empty = observe(g, part, make_trace([]))
    if mode in takes:
        call(full)
        with pytest.raises(EmptySample):
            call(empty)
    else:
        for log in (full, empty):
            with pytest.raises(WrongObservationMode):
                call(log)


# ---------------------------------------------------------------------------
# bootstrap

def test_bootstrap_minimal_runs(three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, make_trace([0, 1, 2, 5, 6]))
    size_var, weight_var = bootstrap_variance(log, 2, seed=1, population=8)
    assert all(np.isfinite(v) for v in size_var.values())
    assert all(np.isfinite(v) for v in weight_var.values())


def test_bootstrap_single_category_variance_zero():
    # with one category the induced size estimate is constant (= N), so
    # every resample agrees exactly
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    part = CategoryPartition(labels=np.zeros(4, dtype=int), names=("all",))
    log = observe_induced(g, part, make_trace([0, 1, 2, 3]))
    size_var, _ = bootstrap_variance(log, 50, seed=2, population=4)
    assert size_var[0] == 0.0


def test_bootstrap_variance_shrinks_with_sample_size():
    rng = np.random.default_rng(3)
    g = ref.random_graph(60, 0.1, rng, min_degree_one=True)
    part = ref.random_partition(60, 3, rng)
    small = observe_induced(g, part, sample_uis(g, 100, seed=4))
    large = observe_induced(g, part, sample_uis(g, 1000, seed=5))
    var_small, _ = bootstrap_variance(small, 200, seed=6, population=60)
    var_large, _ = bootstrap_variance(large, 200, seed=7, population=60)
    for c in var_small:
        assert var_large[c] < var_small[c]


def test_bootstrap_rejects_tiny_b(three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, make_trace([0, 1]))
    with pytest.raises(ValueError):
        bootstrap_variance(log, 1, seed=0, population=8)


@pytest.mark.parametrize("b,message", [
    (1, "B must be >= 2, got 1"),
    (2.5, "B: 2.5 is not an integer"),
    (True, "B: True is not an integer"),
])
def test_bootstrap_size_follows_the_count_rule(three_color_graph, b, message):
    g, part = three_color_graph
    log = observe_induced(g, part, make_trace([0, 1]))
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        bootstrap_variance(log, b, seed=0, population=8)


def test_bootstrap_skips_resamples_that_estimate_nothing():
    """Nodes 0-3 with edges 1-2 and 2-3, so node 0 is isolated: a
    resample of draw 0 alone has no edges and adds no star size, while
    the log as a whole still estimates. A log whose draws have no edges
    at all is refused."""
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    part = CategoryPartition(labels=np.array([0, 0, 1, 1]), names=("A", "B"))
    log = observe_star(g, part, make_trace([0, 2]))
    size_var, weight_var = bootstrap_variance(log, 50, seed=1,
                                              size_estimator="star")
    assert list(size_var) == [1] and size_var[1] > 0
    assert weight_var == {}
    edgeless = observe_star(g, part, make_trace([0, 0]))
    with pytest.raises(InsufficientSample, match="no edges observed"):
        bootstrap_variance(edgeless, 50, seed=1, size_estimator="star")


@settings(max_examples=300, deadline=None)
@given(logs=observed_logs(), pair=st.sampled_from(
           [(mode, pair) for mode, pairs in ESTIMATOR_PAIRS.items()
            for pair in pairs]),
       homogeneous=st.booleans(), sparse=st.booleans(),
       population=st.one_of(st.none(), st.just(PROPORTIONAL),
                            st.integers(1, 10**6), st.floats(0.5, 1e6)),
       B=st.integers(2, 6), seed=st.integers(0, 2**32))
def test_bootstrap_matches_the_per_resample_loop(logs, pair, homogeneous,
                                                 sparse, population, B, seed):
    """Grouped totals and one estimator pass give exactly the variances
    of estimating every resampled log in full, wherever that loop runs
    through; where one of its resamples estimates nothing, the grouped
    pass still returns unless the whole log estimates nothing."""
    ind, star, _ = logs
    (mode, (se, we)) = pair
    log = star if mode == "star" else sparse_ids(ind) if sparse else ind
    options = dict(population=population, size_estimator=se,
                   weight_estimator=we,
                   assume_homogeneous_degree=homogeneous)
    try:
        want = ref.naive_bootstrap_variance(log, B, seed, **options)
    except InsufficientSample:
        if log.degrees.sum() == 0:
            with pytest.raises(InsufficientSample):
                bootstrap_variance(log, B, seed, **options)
        else:
            bootstrap_variance(log, B, seed, **options)
        return
    assert bootstrap_variance(log, B, seed, **options) == want
