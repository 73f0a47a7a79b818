import numpy as np
import pytest

from categraph import (
    CategoryGraph,
    CategoryPartition,
    ExperimentConfig,
    ExperimentReport,
    Graph,
    InvalidWeight,
    SampleTrace,
    SyntheticParams,
    UndefinedNRMSE,
    estimate_category_graph,
    exact_category_graph,
    nrmse,
    observe_induced,
    observe_star,
    run_experiment,
    synthetic_graph,
)
from categraph import evaluate, observe
from categraph.estimate import ESTIMATOR_PAIRS
from categraph.sampling import sample_rw, sample_uis

from _reference import naive_score_cell


def test_nrmse_exact_estimates():
    assert nrmse([1.0, 1.0], 1.0) == 0.0


def test_nrmse_symmetric_errors():
    assert nrmse([0.0, 2.0], 1.0) == 1.0


def test_nrmse_single_replicate():
    assert nrmse([2.0], 1.0) == 1.0


def test_nrmse_zero_truth_undefined():
    with pytest.raises(UndefinedNRMSE):
        nrmse([1.0], 0.0)


def test_nrmse_needs_estimates():
    with pytest.raises(ValueError):
        nrmse([], 1.0)


@pytest.fixture(scope="module")
def small_graph():
    return synthetic_graph(SyntheticParams(
        category_sizes=(20, 20, 20), k=4, alpha=0.3, seed=99))


def test_full_sample_log_nrmse_tiny(small_graph):
    g, part = small_graph
    truth = exact_category_graph(g, part)
    nodes = np.arange(g.node_count)
    trace = SampleTrace(nodes=nodes, steps=nodes.copy(),
                        weights=np.ones(len(nodes)), sampler="full",
                        seed=None, start=None, burn_in=0)
    for observer, size_est, weight_est in [
            (observe_induced, "induced", "induced"),
            (observe_star, "induced", "star"),
            (observe_star, "star", "star")]:
        est = estimate_category_graph(observer(g, part, trace),
                                      population=g.node_count,
                                      size_estimator=size_est,
                                      weight_estimator=weight_est)
        for c, s in truth.sizes.items():
            assert nrmse([est.sizes[c]], s) < 1e-9
        for pair, w in truth.weights.items():
            assert nrmse([est.weights[pair]], w) < 1e-9


def _small_config(g, part, **overrides):
    kwargs = dict(graph=g, partition=part, samplers=("uis", "rw"),
                  sample_sizes=(50, 120), replicates=3, seed=11,
                  probe_percentiles=(25.0, 75.0))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def test_config_validation(small_graph):
    g, part = small_graph
    with pytest.raises(ValueError):
        _small_config(g, part, replicates=1)
    with pytest.raises(ValueError):
        _small_config(g, part, sample_sizes=(100, 100))
    with pytest.raises(ValueError):
        _small_config(g, part, sample_sizes=(100, 50))
    with pytest.raises(ValueError):
        _small_config(g, part, samplers=("uis", "bogus"))


def test_config_checks_value_ranges_before_any_cell_runs(small_graph):
    g, part = small_graph
    for bad in ({"sample_sizes": (0, 100)}, {"sample_sizes": (-5,)},
                {"burn_in": -1}, {"thin_interval": 0}, {"seed": -1}):
        with pytest.raises(ValueError, match=">= "):
            _small_config(g, part, **bad)
    for weights in ([1.0] * (part.num_categories - 1),
                    [1.0] * (part.num_categories - 1) + [float("inf")],
                    [0.0] * part.num_categories):
        with pytest.raises(InvalidWeight, match="category"):
            _small_config(g, part, samplers=("wrw",),
                          wrw_category_weights=weights)


@pytest.mark.parametrize("name,value,bad", [
    ("sample_sizes", (10.7, 20), 10.7),
    ("sample_sizes", (10, True), True),
    ("replicates", 2.5, 2.5),
    ("replicates", True, True),
    ("burn_in", 1.5, 1.5),
    ("burn_in", False, False),
    ("thin_interval", 2.0, 2.0),
    ("seed", 1.5, 1.5),
])
def test_config_counts_must_be_integers(small_graph, name, value, bad):
    g, part = small_graph
    with pytest.raises(ValueError, match=f"^{name}: {bad!r} is not an integer$"):
        _small_config(g, part, **{name: value})


def test_config_takes_numpy_integer_counts(small_graph):
    g, part = small_graph
    cfg = _small_config(g, part, sample_sizes=np.array([50, 120]),
                        replicates=np.int64(3), burn_in=np.int32(0),
                        thin_interval=np.uint8(1))
    assert cfg.sample_sizes == (50, 120)
    assert all(type(n) is int for n in cfg.sample_sizes)


def test_config_rejects_unknown_mode_and_estimator(small_graph):
    g, part = small_graph
    with pytest.raises(ValueError, match="mode"):
        _small_config(g, part, modes=("induced", "bogus"))
    with pytest.raises(ValueError, match="estimator"):
        _small_config(g, part, size_estimators=("bogus",))
    with pytest.raises(ValueError, match="estimator"):
        _small_config(g, part, weight_estimators=("star", "bogus"))


@pytest.mark.parametrize("field, name", [
    ("samplers", "uis"), ("modes", "star"), ("weight_estimators", "star")])
def test_config_refuses_a_name_that_is_not_a_string(small_graph, field, name):
    g, part = small_graph
    with pytest.raises(ValueError, match=rf"unknown .*\['{name}'\]"):
        _small_config(g, part, **{field: [[name]]})


def test_cells_cover_exactly_the_supported_pairs(small_graph):
    # all four (size, weight) pairs requested in both modes: cells appear
    # for exactly the pairs the estimator table lists per mode
    g, part = small_graph
    report = run_experiment(_small_config(
        g, part, samplers=("uis",), sample_sizes=(60,), replicates=2,
        size_estimators=("induced", "star"),
        weight_estimators=("induced", "star")))
    table = {(mode, se, we) for mode, pairs in ESTIMATOR_PAIRS.items()
             for se, we in pairs}
    weight_cells = {(c.mode, c.size_estimator, c.weight_estimator)
                    for c in report.cells if c.quantity_kind == "weight"}
    size_cells = {(c.mode, c.size_estimator)
                  for c in report.cells if c.quantity_kind == "size"}
    assert weight_cells == table
    assert size_cells == {(mode, se) for mode, se, _ in table}


def test_run_experiment_deterministic(small_graph):
    g, part = small_graph
    r1 = run_experiment(_small_config(g, part))
    r2 = run_experiment(_small_config(g, part))
    assert len(r1.cells) == len(r2.cells)
    for c1, c2 in zip(r1.cells, r2.cells):
        assert c1.nrmse_by_quantity == c2.nrmse_by_quantity
        assert c1.excluded == c2.excluded
        assert c1.probe_nrmse == c2.probe_nrmse


@pytest.mark.parametrize("modes", [("induced", "star"), ("star",), ("induced",)])
def test_each_trace_is_observed_in_one_pass(monkeypatch, small_graph, modes):
    """Every mode of a cell reads one pass over each replicate trace: one
    ``_draws`` call per (sampler, n, replicate), however many modes."""
    calls = []
    draws = observe._draws
    monkeypatch.setattr(observe, "_draws",
                        lambda *args: calls.append(args) or draws(*args))
    g, part = small_graph
    cfg = _small_config(g, part, modes=modes)
    report = run_experiment(cfg)
    assert {c.mode for c in report.cells} == set(modes)
    assert len(calls) == (len(cfg.samplers) * len(cfg.sample_sizes)
                          * cfg.replicates)


def test_a_sweep_scores_every_weight_at_any_scale_of_its_weights():
    """wrw category weights 2^-1000 ... 2^-600 on the C4 graph: every
    cell, scored with nothing excluded and no warning, is bit for bit the
    cell of the same weights scaled by 2^800, since no total leaves the
    float range."""
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(100, 200, 200, 300, 400, 500, 600, 700, 1000, 1000),
        k=10, alpha=0.5, seed=42))

    def cells(scale):
        return run_experiment(ExperimentConfig(
            graph=g, partition=part, samplers=("wrw",), sample_sizes=(700,),
            replicates=4, wrw_category_weights=[
                scale * w for w in [2.0 ** -1000, 2.0 ** -800, 2.0 ** -600]
                * 3 + [2.0 ** -1000]])).cells

    tiny, scaled = cells(1.0), cells(2.0 ** 800)
    weights = len(exact_category_graph(g, part).weights)
    assert [repr(cell) for cell in tiny] == [repr(cell) for cell in scaled]
    for cell in tiny:
        assert cell.excluded == 0
        assert np.isfinite(list(cell.nrmse_by_quantity.values())).all()
        if cell.quantity_kind == "weight":
            assert len(cell.nrmse_by_quantity) == weights


def test_report_cell_structure(small_graph):
    g, part = small_graph
    report = run_experiment(_small_config(g, part))
    # size cells: 2 samplers x (induced mode induced est + star mode
    # induced/star ests) x 2 n
    size_cells = [c for c in report.cells if c.quantity_kind == "size"]
    weight_cells = [c for c in report.cells if c.quantity_kind == "weight"]
    assert len(size_cells) == 2 * 3 * 2
    assert len(weight_cells) == 2 * 3 * 2
    for cell in weight_cells:
        assert set(cell.probe_nrmse) <= {"p25", "p75"}
    cell = report.find("size", "uis", "induced", 120)
    assert set(cell.nrmse_by_quantity) == {"C0", "C1", "C2"}


def test_median_is_that_of_the_sorted_nrmse_values(small_graph):
    g, part = small_graph
    report = run_experiment(_small_config(g, part))
    for cell in report.cells:
        if not cell.nrmse_by_quantity:
            continue
        values = np.sort(list(cell.nrmse_by_quantity.values()))
        assert cell.median_nrmse == np.median(values)


def test_large_uniform_sample_drives_size_error_down(small_graph):
    g, part = small_graph
    cfg = _small_config(g, part, samplers=("uis",),
                        sample_sizes=(60, 600), replicates=4)
    report = run_experiment(cfg)
    big = report.find("size", "uis", "induced", 600,
                      size_estimator="induced")
    assert big.median_nrmse < 0.1
    small = report.find("size", "uis", "induced", 60,
                        size_estimator="induced")
    assert big.median_nrmse < small.median_nrmse


def test_incompatible_estimator_request_warns_and_skips(small_graph):
    g, part = small_graph
    cfg = _small_config(g, part, modes=("induced",),
                        size_estimators=("star",),
                        weight_estimators=("star",))
    with pytest.warns(RuntimeWarning):
        report = run_experiment(cfg)
    assert report.cells == []


def test_thinning_keeps_requested_sample_size(small_graph):
    g, part = small_graph
    cfg = _small_config(g, part, samplers=("rw",), sample_sizes=(40, 80),
                        thin_interval=5, replicates=2)
    report = run_experiment(cfg)  # smoke: draws 5x, keeps every 5th
    assert report.find("size", "rw", "induced", 80) is not None


def test_report_files_roundtrip_bytes(tmp_path, small_graph):
    g, part = small_graph
    report = run_experiment(_small_config(g, part))
    csv1, json1 = tmp_path / "r1.csv", tmp_path / "r1.json"
    csv2, json2 = tmp_path / "r2.csv", tmp_path / "r2.json"
    report.write_csv(csv1)
    report.write_json(json1)
    report2 = run_experiment(_small_config(g, part))
    report2.write_csv(csv2)
    report2.write_json(json2)
    assert csv1.read_bytes() == csv2.read_bytes()
    assert json1.read_bytes() == json2.read_bytes()
    header = csv1.read_text().splitlines()[0]
    assert header == ("quantity_kind,sampler,mode,estimator,n,"
                      "median_nrmse,p25,p75,excluded_count")


def test_cells_match_literal_scoring_with_missed_categories():
    # a 6-node category that short walks often miss, so some cells
    # exclude quantities and some probe edges go unscored
    g, part = synthetic_graph(SyntheticParams(
        category_sizes=(6, 30, 40, 24), k=3, alpha=0.3, seed=5))
    cfg = _small_config(g, part, sample_sizes=(12, 80), replicates=4, seed=2)
    report = run_experiment(cfg)
    truth = exact_category_graph(g, part)
    names = part.names
    pairs = {"induced": [("induced", "induced")],
             "star": [("induced", "star"), ("star", "star")]}
    draw = {"uis": lambda n, seed: sample_uis(g, n, seed=seed),
            "rw": lambda n, seed: sample_rw(g, n, seed=seed)}
    checked = excluded = probed = 0
    for si, sampler in enumerate(cfg.samplers):
        for ni, n in enumerate(cfg.sample_sizes):
            estimates = {}   # (mode, size est, weight est) -> replicates
            for rep in range(cfg.replicates):
                trace = draw[sampler](n, [cfg.seed, si, ni, rep])
                for mode, observer in (("induced", observe_induced),
                                       ("star", observe_star)):
                    log = observer(g, part, trace)
                    for se, we in pairs[mode]:
                        estimates.setdefault((mode, se, we), []).append(
                            estimate_category_graph(
                                log, population=g.node_count,
                                size_estimator=se, weight_estimator=we))
            for (mode, se, we), ests in estimates.items():
                for kind, cell_we, truth_map, probes in (
                        ("size", None, truth.sizes, {}),
                        ("weight", we, truth.weights, report.probe_pairs)):
                    scores, n_excluded, probe_scores = naive_score_cell(
                        [e.sizes if kind == "size" else e.weights
                         for e in ests], truth_map, probes)
                    cell = report.find(kind, sampler, mode, n,
                                       size_estimator=se,
                                       weight_estimator=cell_we)
                    named = {(names[q] if kind == "size"
                              else f"{names[q[0]]}|{names[q[1]]}"): v
                             for q, v in scores.items()}
                    assert cell.nrmse_by_quantity == pytest.approx(
                        named, rel=1e-12)
                    assert cell.excluded == n_excluded
                    assert cell.probe_nrmse == pytest.approx(
                        probe_scores, rel=1e-12)
                    checked += 1
                    excluded += n_excluded > 0
                    probed += len(probe_scores)
    assert checked == len(report.cells)
    assert excluded and probed


def test_an_empty_cell_a_missed_lookup_and_a_truth_without_edges():
    """A cell with no scored quantity has NaN median and quartiles, a
    lookup of a cell not in the report names it, and a truth without
    edges has no probe pairs."""
    cell = evaluate.CellResult("size", "uis", "induced", "induced", None, 10,
                               nrmse_by_quantity={}, excluded=2)
    assert np.isnan([cell.median_nrmse, cell.p25, cell.p75]).all()
    edgeless = CategoryGraph(sizes={0: 2}, cut_counts={}, weights={})
    report = ExperimentReport([cell], edgeless, {}, ("a",))
    assert report.find("size", "uis", "induced", 10) is cell
    with pytest.raises(KeyError, match=r"no cell \(size, uis, induced, n=20, "
                       r"size=None, weight=None\)"):
        report.find("size", "uis", "induced", 20)
    assert evaluate._probe_pairs(edgeless, [25, 75]) == {}


def test_a_sweep_counts_an_empty_category_as_excluded():
    """A category with no members has true size 0, so no NRMSE: each
    size cell counts it as excluded, and the sweep scores the rest."""
    edges = [(v, (v + 1) % 6) for v in range(6)] + [(0, 3)]
    part = CategoryPartition(labels=np.array([0, 0, 0, 1, 1, 1]),
                             names=("a", "b", "c"))
    report = run_experiment(ExperimentConfig(
        graph=Graph.from_edges(6, edges), partition=part, samplers=("uis",),
        sample_sizes=(50,), replicates=2))
    assert len(report.cells) == 6
    for cell in report.cells:
        scored = {"size": {"a", "b"}, "weight": {"a|b"}}[cell.quantity_kind]
        assert set(cell.nrmse_by_quantity) == scored
        assert cell.excluded == (cell.quantity_kind == "size")
