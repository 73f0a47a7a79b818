"""Tests of the benchmark's own code: every checker accepts a real
output of the program and rejects a copy with one item corrupted, and
the span arithmetic is right on hand-built spans.

    python3 -m pytest bench/test_bench.py
"""
import functools
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from categraph import (  # noqa: E402
    ExperimentConfig,
    SyntheticParams,
    bootstrap_variance,
    cli,
    estimate_category_graph,
    observe_induced,
    observe_star,
    run_experiment,
    sample_mhrw,
    sample_rw,
    sample_uis,
    sample_wis,
    sample_wrw,
    synthetic_graph,
)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from checks import CheckError, RefGraph  # noqa: E402
import workloads  # noqa: E402
from workloads import sweep_cells  # noqa: E402

SIZES = (60, 140, 300, 500)


@pytest.fixture(scope="module")
def graph():
    g, part = synthetic_graph(SyntheticParams(category_sizes=SIZES, k=6, alpha=0.5, seed=3))
    return g, part, RefGraph.from_csr(g.indptr, g.indices, part.labels, part.names)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("chain")
    edges, cats, out = d / "g.tsv", d / "c.tsv", d / "exact.json"
    assert cli.main(["generate", "--sizes", ",".join(map(str, SIZES)), "--k", "6",
                     "--alpha", "0.5", "--seed", "4", "--out-edges", str(edges),
                     "--out-categories", str(cats)]) == 0
    assert cli.main(["exact", "--edges", str(edges), "--categories", str(cats),
                     "--out", str(out)]) == 0
    return checks.read_graph_files(edges, cats), json.loads(out.read_text())


def non_neighbour(ref, v):
    return next(x for x in range(ref.n) if x != v and not ref.adjacent([v], [x])[0])


# ---------------------------------------------------------------------------
# checkers: a real output passes, one corrupted item fails

def test_exact_rejects_one_cut_or_size(files):
    ref, payload = files
    checks.check_exact(payload, ref)
    bad = json.loads(json.dumps(payload))
    edge = bad["edges"][0]
    sizes = {c["id"]: c["size"] for c in bad["categories"]}
    edge["weight"] += 1 / (sizes[edge["a"]] * sizes[edge["b"]])   # one cut edge more
    with pytest.raises(CheckError):
        checks.check_exact(bad, ref)
    bad = json.loads(json.dumps(payload))
    bad["categories"][0]["size"] += 1
    with pytest.raises(CheckError):
        checks.check_exact(bad, ref)


def test_exact_rejects_a_missing_pair(files):
    ref, payload = files
    bad = json.loads(json.dumps(payload))
    bad["edges"].pop()
    with pytest.raises(CheckError):
        checks.check_exact(bad, ref)


@pytest.mark.parametrize("sampler", ["rw", "mhrw", "wrw"])
def test_walk_rejects_one_step(graph, sampler):
    g, part, ref = graph
    cw = np.arange(1.0, part.num_categories + 1)
    trace = {"rw": lambda: sample_rw(g, 2000, seed=1),
             "mhrw": lambda: sample_mhrw(g, 2000, seed=1),
             "wrw": lambda: sample_wrw(g, part, cw, 2000, seed=1)}[sampler]()
    checks.check_walk(trace.nodes, trace.start, ref, may_stay=sampler == "mhrw")
    nodes = trace.nodes.copy()
    nodes[1000] = non_neighbour(ref, nodes[999])
    with pytest.raises(CheckError, match="walk step"):
        checks.check_walk(nodes, trace.start, ref, may_stay=sampler == "mhrw")


def test_draws_reject_a_walk_without_start_or_a_node_outside(graph):
    g, part, ref = graph
    cw = np.ones(part.num_categories)
    trace = sample_mhrw(g, 500, seed=2)
    workloads._check_draws(ref, cw, "mhrw", trace.nodes, trace.weights, trace.start)
    with pytest.raises(CheckError, match="start"):
        workloads._check_draws(ref, cw, "mhrw", trace.nodes, trace.weights, None)
    nodes = trace.nodes.copy()
    nodes[-1] = ref.n
    with pytest.raises(CheckError, match="outside"):
        workloads._check_draws(ref, cw, "mhrw", nodes, trace.weights, trace.start)


def test_walk_rejects_a_stay_outside_mhrw(graph):
    g, _, ref = graph
    trace = sample_rw(g, 500, seed=2)
    nodes = np.insert(trace.nodes, 10, trace.nodes[9])   # stay once at step 10
    checks.check_walk(nodes, trace.start, ref, may_stay=True)
    with pytest.raises(CheckError):
        checks.check_walk(nodes, trace.start, ref, may_stay=False)


@pytest.mark.parametrize("sampler", ["uis", "wis", "rw", "mhrw", "wrw"])
def test_weights_reject_one_weight(graph, sampler):
    g, part, ref = graph
    cw = np.array([5.0, 1.0, 0.5, 2.0])
    trace = {"uis": lambda: sample_uis(g, 1000, seed=3),
             "wis": lambda: sample_wis(g, g.degrees.astype(float), 1000, seed=3),
             "rw": lambda: sample_rw(g, 1000, seed=3),
             "mhrw": lambda: sample_mhrw(g, 1000, seed=3),
             "wrw": lambda: sample_wrw(g, part, cw, 1000, seed=3)}[sampler]()
    checks.check_weights(sampler, trace.nodes, trace.weights, ref, cw)
    weights = trace.weights.copy()
    weights[500] *= 1.5
    with pytest.raises(CheckError):
        checks.check_weights(sampler, trace.nodes, weights, ref, cw)


def test_wrw_weight_is_incident_edge_sum(graph):
    g, part, ref = graph
    cw = np.array([5.0, 1.0, 0.5, 2.0])
    v = 7
    want = sum(cw[part.labels[v]] + cw[part.labels[u]] for u in g.neighbors(v))
    assert math.isclose(ref.wrw_weights(cw)[v], want)


@pytest.fixture(scope="module")
def star_log(graph):
    g, part, _ = graph
    return observe_star(g, part, sample_rw(g, 3000, seed=5))


def test_records_reject_one_degree_or_category(graph, star_log):
    _, part, ref = graph
    log = star_log
    names = [part.names[c] for c in log.categories]
    checks.check_records(log.nodes, names, log.degrees, ref)
    degrees = log.degrees.copy()
    degrees[100] += 1
    with pytest.raises(CheckError, match="degree"):
        checks.check_records(log.nodes, names, degrees, ref)
    names[100] = next(n for n in part.names if n != names[100])
    with pytest.raises(CheckError, match="category"):
        checks.check_records(log.nodes, names, log.degrees, ref)


def test_star_rows_reject_one_row(graph, star_log):
    _, _, ref = graph
    log = star_log
    checks.check_star_rows(log.nodes, log.neighbor_counts, log.degrees, ref)
    rows = log.neighbor_counts.copy()
    c = int(np.flatnonzero(rows[200])[0])
    rows[200, c] -= 1                           # same degree, wrong histogram
    rows[200, (c + 1) % rows.shape[1]] += 1
    with pytest.raises(CheckError, match="star row 200"):
        checks.check_star_rows(log.nodes, rows, log.degrees, ref)
    rows = log.neighbor_counts.copy()
    rows[200, c] += 1                           # sum no longer the degree
    with pytest.raises(CheckError):
        checks.check_star_rows(log.nodes, rows, log.degrees, ref)


def test_induced_edges_reject_a_missing_or_extra_edge(graph):
    g, part, ref = graph
    log = observe_induced(g, part, sample_uis(g, 400, seed=6))
    checks.check_induced_edges(log.nodes, log.induced_edges, ref)
    with pytest.raises(CheckError):
        checks.check_induced_edges(log.nodes, log.induced_edges[1:], ref)
    u = int(log.nodes[0])
    extra = np.vstack([log.induced_edges, [[u, non_neighbour(ref, u)]]])
    with pytest.raises(CheckError):
        checks.check_induced_edges(log.nodes, extra, ref)


def test_sizes_sum_and_largest_reject_one_size(graph):
    g, part, ref = graph
    log = observe_induced(g, part, sample_uis(g, 20000, seed=7))
    est = estimate_category_graph(log, population=g.node_count)
    sizes = {part.names[c]: v for c, v in est.sizes.items()}
    truth = dict(zip(part.names, map(int, ref.sizes)))
    checks.check_sizes_sum(sizes, g.node_count)
    checks.check_largest_sizes(sizes, truth, 2, 0.10)
    largest = max(truth, key=truth.get)
    sizes[largest] *= 1.2
    with pytest.raises(CheckError):
        checks.check_sizes_sum(sizes, g.node_count)
    with pytest.raises(CheckError, match=largest):
        checks.check_largest_sizes(sizes, truth, 2, 0.10)
    del sizes[largest]
    with pytest.raises(CheckError):
        checks.check_largest_sizes(sizes, truth, 2, 0.10)


def test_bootstrap_rejects_nan_zero_or_negative(graph, star_log):
    g, _, _ = graph
    size_var, weight_var = bootstrap_variance(star_log, 20, seed=8, size_estimator="star")
    est = estimate_category_graph(star_log, size_estimator="star")
    values = {**est.sizes, **est.weights}
    variances = {**size_var, **weight_var}
    checks.check_bootstrap(variances, values)
    key = next(iter(size_var))
    for bad_value in (float("nan"), 0.0, -1.0, float("inf")):
        with pytest.raises(CheckError):
            checks.check_bootstrap({**variances, key: bad_value}, values)
    checks.check_bootstrap({**variances, key: 0.0}, {**values, key: 0.0})
    with pytest.raises(CheckError):
        checks.check_bootstrap({}, values)


@pytest.fixture(scope="module")
def sweep(graph):
    g, part, ref = graph
    report = run_experiment(ExperimentConfig(
        graph=g, partition=part, samplers=("uis", "rw"), sample_sizes=(300, 30000),
        replicates=10, seed=9))
    return sweep_cells(report), dict(zip(part.names, map(int, ref.sizes))), g.node_count


def test_sweep_rejects_exclusion_order_or_binomial(sweep):
    cells, sizes, n = sweep
    checks.check_sweep(cells, sizes, n)

    def corrupted(pick, change):
        bad = json.loads(json.dumps(cells))
        cell = next(c for c in bad if pick(c))
        change(cell)
        return bad

    def uis_induced(c):
        return (c["kind"], c["sampler"], c["mode"]) == ("size", "uis", "induced")

    checks.check_sweep(corrupted(lambda c: c["n"] == 300, lambda c: c.update(excluded=1)),
                       sizes, n)
    bad = corrupted(lambda c: c["n"] == 30000, lambda c: c.update(excluded=1))
    with pytest.raises(CheckError, match="excludes"):
        checks.check_sweep(bad, sizes, n)
    bad = corrupted(lambda c: c["kind"] == "weight" and c["n"] == 30000,
                    lambda c: c.update(median=1e9))
    with pytest.raises(CheckError, match="not below"):
        checks.check_sweep(bad, sizes, n)
    name = next(iter(sizes))
    bad = corrupted(lambda c: uis_induced(c) and c["n"] == 300,
                    lambda c: c["nrmse"].update({name: c["nrmse"][name] * 4}))
    with pytest.raises(CheckError, match="binomial"):
        checks.check_sweep(bad, sizes, n)


# ---------------------------------------------------------------------------
# spans

def test_self_times_subtract_direct_children():
    hand = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 5.0, 9.0, 0],
            ["b.child", 6.0, 7.0, 2], ["other", 11.0, 12.0, -1]]
    assert spans.self_times(hand) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_layer_metrics_totals_self_and_calls():
    tracer = spans.Tracer()
    tracer.spans = [["cli.main", 0.0, 10.0, -1], ["fileio.load_graph", 1.0, 4.0, 0],
                    ["sampling.rw", 4.0, 8.0, 0], ["graph.is_connected", 4.5, 5.5, 2],
                    ["cli.main", 20.0, 22.0, -1], ["fileio.load_graph", 20.5, 21.0, 4]]
    tracer.counts["sampling.rw_draws"] = 7
    m = spans.layer_metrics(tracer)
    assert m["cli.self_s"] == pytest.approx(3.0 + 1.5)
    assert m["fileio.load_graph_s"] == pytest.approx(3.5)
    assert m["fileio.load_graph_calls"] == 2
    assert m["sampling.rw_s"] == pytest.approx(4.0)      # child span included
    assert m["graph.is_connected_s"] == pytest.approx(1.0)
    assert m["sampling.rw_draws"] == 7
    assert m["sampling.mhrw_s"] == 0


def test_patch_records_nested_spans_and_restores():
    class Thing:
        @staticmethod
        def build(x):
            return x + 1

        @functools.cached_property
        def expensive(self):
            return 42

    mod = types.SimpleNamespace()
    mod.outer = lambda t: Thing.build(t.expensive)
    originals = (mod.outer, Thing.__dict__["build"], Thing.__dict__["expensive"])
    tracer = spans.Tracer()
    tracer.patch(mod, "outer", "outer")
    tracer.patch(Thing, "build", "build", spans._add("builds", lambda a, kw, r: 1))
    tracer.patch(Thing, "expensive", "expensive")
    t = Thing()
    assert mod.outer(t) == 43 and mod.outer(t) == 43
    names = [(s[0], s[3]) for s in tracer.spans]
    # the cached property computes once; its span and build's nest in outer
    assert names == [("outer", -1), ("expensive", 0), ("build", 0), ("outer", -1), ("build", 3)]
    assert tracer.counts["builds"] == 2
    tracer.restore()
    assert (mod.outer, Thing.__dict__["build"], Thing.__dict__["expensive"]) == originals


# ---------------------------------------------------------------------------
# timing arithmetic and the checking child


def test_round_time_is_sum_of_median_scaled_repeats():
    cal = run.CALIBRATION_S
    rounds = [[("exact", 1.0, cal), ("sample", 4.0, 2 * cal)],
              [("exact", 3.0, 3 * cal), ("sample", 2.0, cal)],
              [("exact", 0.5, cal), ("sample", 2.0, 2 * cal)]]
    # exact: 1.0, 1.0, 0.5 -> 1.0; sample: 2.0, 2.0, 1.0 -> 2.0
    assert run.round_time(rounds) == pytest.approx(3.0)
    assert run.round_time(rounds, "sample") == pytest.approx(2.0)
    assert run.round_time(rounds, "estimate") == 0


class _Fake:
    def reference(self):
        self.seen = []

    def operations(self):
        yield "op", 1, None, self.seen.append
        yield "op", 1, None, self.must_be_even

    def must_be_even(self, x):
        if x % 2:
            raise CheckError(f"{x} is odd; seen {self.seen}")


def test_checker_runs_checks_in_a_child(capsys):
    check = run.Checker(_Fake())
    try:
        assert check(0, 5) and check(1, 4)
        assert not check(1, 3)
        assert check("must_be_even", 8)
        assert "3 is odd; seen [5]" in capsys.readouterr().err
    finally:
        check.close()
    assert not check._proc.is_alive()
