"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s or -rA to see them). All tolerances are fixed
here, not tuned at runtime.
"""
import time

import numpy as np
import pytest

from categraph import (
    CategoryPartition,
    ExperimentConfig,
    Graph,
    SampleTrace,
    SyntheticParams,
    est_mean_degrees,
    est_size_induced,
    est_size_star,
    est_volume_fraction_star,
    est_weight_induced,
    est_weight_star,
    estimate_category_graph,
    exact_category_graph,
    observe_induced,
    observe_star,
    run_experiment,
    sample_mhrw,
    sample_rw,
    sample_wrw,
    synthetic_graph,
)

import _reference as ref
from test_cli import chain

CONSISTENCY_SIZES = (100, 200, 200, 300, 400, 500, 600, 700, 1000, 1000)
SAMPLE_SIZES = (500, 5000, 50000)


def ok(cid, name):
    print(f"ACCEPTANCE {cid} {name}: PASS")


@pytest.fixture(scope="module")
def consistency_run():
    """Criterion-4 graph (N=5000, k=10, alpha=0.5, fixed seed) and the
    full sampler x mode x estimator sweep; criteria 4, 5 and 9 all read
    from this one report."""
    t0 = time.perf_counter()
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=CONSISTENCY_SIZES, k=10, alpha=0.5, seed=42))
    cfg = ExperimentConfig(graph=g, partition=part,
                           samplers=("uis", "wis", "rw", "mhrw", "wrw"),
                           sample_sizes=SAMPLE_SIZES, replicates=30, seed=7)
    report = run_experiment(cfg)
    return report, time.perf_counter() - t0


def test_c01_generator_exactness():
    t0 = time.perf_counter()
    g, _ = synthetic_graph(SyntheticParams(
        category_sizes=(100,) * 10, k=10, seed=1))
    elapsed = time.perf_counter() - t0
    assert g.node_count == 1000
    assert g.edge_count == 6000          # 0.6 * N * k exactly
    assert elapsed < 1.0
    ok("C1", "generator-exactness")


def test_c02_three_category_oracle():
    # |white|=3, |gray|=2, |black|=3; cuts white-black=3, gray-black=1,
    # gray-white=4
    edges = [(0, 5), (1, 6), (2, 7), (3, 5), (0, 3), (1, 3), (0, 4), (2, 4)]
    g = Graph.from_edges(8, edges)
    part = CategoryPartition(labels=np.array([0, 0, 0, 1, 1, 2, 2, 2]),
                             names=("white", "gray", "black"))
    cg = exact_category_graph(g, part)
    assert cg.weights[(0, 2)] == 3 / 9
    assert cg.weights[(1, 2)] == 1 / 6
    assert cg.weights[(0, 1)] == 4 / 6
    ok("C2", "exact-category-graph-oracle")


def test_c03_full_sample_exactness():
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(150, 200, 250), k=6, alpha=0.4, seed=3))
    truth = exact_category_graph(g, part)
    nodes = np.arange(g.node_count, dtype=np.int64)
    trace = SampleTrace(nodes=nodes, steps=nodes.copy(),
                        weights=np.ones(len(nodes)), sampler="full",
                        seed=None, start=None, burn_in=0)
    combos = [(observe_induced, "induced", "induced"),
              (observe_star, "induced", "star"),
              (observe_star, "star", "star")]
    for observer, size_est, weight_est in combos:
        est = estimate_category_graph(observer(g, part, trace),
                                      population=g.node_count,
                                      size_estimator=size_est,
                                      weight_estimator=weight_est)
        for c, s in truth.sizes.items():
            assert abs(est.sizes[c] / s - 1) < 1e-9
        for pair, w in truth.weights.items():
            assert abs(est.weights[pair] / w - 1) < 1e-9
    ok("C3", "full-sample-exactness")


def test_c04_consistency_suite(consistency_run):
    report, elapsed = consistency_run
    assert elapsed < 300.0, f"consistency sweep took {elapsed:.0f}s"
    cell_keys = sorted({(c.quantity_kind, c.sampler, c.mode,
                         c.size_estimator, c.weight_estimator)
                        for c in report.cells})
    assert len(cell_keys) == 30  # 5 samplers x (1 induced + 2 star) x 2 kinds
    for kind, sampler, mode, se, we in cell_keys:
        medians = []
        for n in SAMPLE_SIZES:
            cell = report.find(kind, sampler, mode, n,
                               size_estimator=se, weight_estimator=we)
            assert cell.excluded == 0
            medians.append(cell.median_nrmse)
        assert medians[0] >= medians[1] >= medians[2], \
            (kind, sampler, mode, se, we, medians)
    uis_large = report.find("size", "uis", "induced", 50000,
                            size_estimator="induced")
    assert uis_large.median_nrmse < 0.05
    ok("C4", f"consistency-suite ({elapsed:.1f}s)")


def test_c05_star_beats_induced_for_weights(consistency_run):
    report, _ = consistency_run
    for sampler in ("uis", "rw", "wrw"):
        induced = report.find("weight", sampler, "induced", 5000,
                              weight_estimator="induced").median_nrmse
        for size_feed in ("induced", "star"):
            star = report.find("weight", sampler, "star", 5000,
                               size_estimator=size_feed,
                               weight_estimator="star").median_nrmse
            assert star < induced, (sampler, size_feed, star, induced)
    ok("C5", "star-weight-estimator-dominates")


@pytest.mark.slow
def test_c06_stationary_distributions(eight_node_graph):
    g = eight_node_graph
    n = g.node_count
    steps = 1_000_000
    degree_law = g.degrees / g.degrees.sum()

    rw = sample_rw(g, steps, start=0, seed=60)
    freq = np.bincount(rw.nodes, minlength=n) / steps
    assert np.all(np.abs(freq / degree_law - 1) < 0.02)

    mhrw = sample_mhrw(g, steps, start=0, seed=61)
    freq = np.bincount(mhrw.nodes, minlength=n) / steps
    assert np.all(np.abs(freq * n - 1) < 0.02)

    part = CategoryPartition(labels=np.array([0, 1, 0, 1, 0, 1, 0, 1]),
                             names=("even", "odd"))
    wrw = sample_wrw(g, part, {0: 1.0, 1: 1.0}, steps, start=0, seed=62)
    freq = np.bincount(wrw.nodes, minlength=n) / steps
    assert np.all(np.abs(freq / degree_law - 1) < 0.02)
    ok("C6", "stationary-distribution-checks")


def test_c07_hansen_hurwitz_unbiasedness():
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 6),
             (3, 7), (4, 8), (5, 9), (6, 7), (8, 9), (2, 3), (0, 5)]
    g = Graph.from_edges(10, edges)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    part = CategoryPartition(labels=labels, names=("A", "B"))
    true_a = 4
    deg = g.degrees.astype(float)
    p = deg / deg.sum()
    reps, per_rep = 100_000, 100
    rng = np.random.default_rng(2024)
    draws = rng.choice(10, size=(reps, per_rep), p=p)
    winv = 1.0 / deg[draws]
    in_a = labels[draws] == 0
    estimates = 10 * np.sum(winv * in_a, axis=1) / np.sum(winv, axis=1)
    # the vectorized form must agree with the production estimator
    for row, expected in zip(draws[:3], estimates[:3]):
        trace = SampleTrace(nodes=row, steps=np.arange(per_rep),
                            weights=deg[row], sampler="wis", seed=None,
                            start=None, burn_in=0)
        log = observe_induced(g, part, trace)
        assert est_size_induced(log, 10)[0] == pytest.approx(
            float(expected), rel=1e-12)
    assert abs(float(np.mean(estimates)) / true_a - 1) < 0.01
    ok("C7", "hansen-hurwitz-unbiasedness")


def test_c08_uniform_reduction_and_scale_invariance():
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(8000 + seed)
        n_nodes = int(rng.integers(8, 30))
        g = ref.random_graph(n_nodes, float(rng.uniform(0.15, 0.4)), rng)
        part = ref.random_partition(n_nodes, int(rng.integers(2, 5)), rng)
        n_draws = int(rng.integers(4, 40))
        nodes = rng.integers(0, n_nodes, size=n_draws)
        unit = SampleTrace(nodes=nodes, steps=np.arange(n_draws),
                           weights=np.ones(n_draws), sampler="uis",
                           seed=None, start=None, burn_in=0)
        ind = observe_induced(g, part, unit)
        star = observe_star(g, part, unit)

        # unit weights reproduce the plain counting estimators bit for bit
        sizes = est_size_induced(ind, 77)
        assert sizes == ref.naive_size_induced_uniform(ind, 77)
        assert est_mean_degrees(ind) == ref.naive_mean_degrees_uniform(ind)
        assert (est_volume_fraction_star(star)
                == ref.naive_volume_fraction_star_uniform(star))
        assert est_size_star(star, 77) == ref.naive_size_star_uniform(star, 77)
        assert est_weight_induced(ind) == ref.naive_weight_induced_uniform(ind)
        assert (est_weight_star(star, sizes)
                == ref.naive_weight_star_uniform(star, sizes))

        # rescaling all weights by 7.3 moves nothing beyond float noise
        import dataclasses
        wtrace = dataclasses.replace(unit,
                                     weights=rng.uniform(0.5, 4.0, n_draws))
        for log in (observe_induced(g, part, wtrace),
                    observe_star(g, part, wtrace)):
            scaled = dataclasses.replace(log, weights=log.weights * 7.3)
            base = estimate_category_graph(
                log, 77, size_estimator="induced")
            moved = estimate_category_graph(
                scaled, 77, size_estimator="induced")
            for c, v in base.sizes.items():
                assert moved.sizes[c] == pytest.approx(v, rel=1e-12,
                                                       abs=1e-300)
            for pair, v in base.weights.items():
                assert moved.weights[pair] == pytest.approx(v, rel=1e-12,
                                                            abs=1e-300)
        checked += 1
    assert checked == 100
    ok("C8", "uniform-reduction-and-scale-invariance")


def test_c09_sampler_ordering_for_sizes(consistency_run):
    report, _ = consistency_run
    med = {s: report.find("size", s, "induced", 5000,
                          size_estimator="induced").median_nrmse
           for s in ("uis", "rw", "mhrw")}
    assert med["uis"] <= med["rw"] <= med["mhrw"], med
    ok("C9", "sampler-ordering-uis-rw-mhrw")


def test_c10_pipeline_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    for f1, f2 in zip(chain(d1, seed=17), chain(d2, seed=17)):
        assert f1.read_bytes() == f2.read_bytes(), f1.name
    ok("C10", "pipeline-determinism")
