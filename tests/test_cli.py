import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from categraph import (ExperimentConfig, InvalidWeight, est_size_induced,
                       est_weight_star, estimate_category_graph, observe_star,
                       run_experiment, sample_uis, sample_wis, sample_wrw)
import categraph
from categraph.cli import main
from categraph.evaluate import CSV_COLUMNS
from categraph.fileio import load_config, load_graph, load_trace, save_log


def run(args):
    return main([str(a) for a in args])


def chain(workdir, seed=5):
    """generate -> exact -> sample -> observe -> estimate in workdir."""
    edges = workdir / "edges.tsv"
    cats = workdir / "cats.tsv"
    assert run(["generate", "--sizes", "30,30,40", "--k", "4",
                "--alpha", "0.2", "--seed", seed,
                "--out-edges", edges, "--out-categories", cats]) == 0
    assert run(["exact", "--edges", edges, "--categories", cats,
                "--format", "json", "--out", workdir / "truth.json"]) == 0
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "rw", "--n", "200", "--seed", seed,
                "--out", workdir / "trace.jsonl"]) == 0
    assert run(["observe", "--edges", edges, "--categories", cats,
                "--trace", workdir / "trace.jsonl", "--mode", "star",
                "--out", workdir / "log.jsonl"]) == 0
    assert run(["estimate", "--log", workdir / "log.jsonl",
                "--size-est", "star", "--population", "exact:100",
                "--out", workdir / "est.json"]) == 0
    cfg = {
        "seed": 3, "replicates": 2, "sample_sizes": [40, 80],
        "samplers": ["uis"],
        "graph": {"edge_file": str(edges), "category_file": str(cats)},
    }
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["evaluate", "--config", cfg_path,
                "--csv", workdir / "report.csv",
                "--json", workdir / "report.json"]) == 0
    return [workdir / name for name in
            ("edges.tsv", "cats.tsv", "truth.json", "trace.jsonl",
             "log.jsonl", "est.json", "report.csv", "report.json")]


def test_full_chain_products_parse(tmp_path):
    files = chain(tmp_path)
    for f in files:
        assert f.exists() and f.stat().st_size > 0
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert {"N_mode", "categories", "edges"} <= set(truth)
    est = json.loads((tmp_path / "est.json").read_text())
    assert est["size_estimator"] == "star"
    report = (tmp_path / "report.csv").read_text().splitlines()
    assert report[0].startswith("quantity_kind,")
    assert len(report) > 1


def test_chain_byte_identical_across_runs(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    d1.mkdir()
    d2.mkdir()
    files1 = chain(d1)
    files2 = chain(d2)
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_multiple_walks_write_derived_traces(tmp_path):
    chain(tmp_path)  # reuse graph files
    assert run(["sample", "--edges", tmp_path / "edges.tsv",
                "--categories", tmp_path / "cats.tsv",
                "--sampler", "mhrw", "--n", "50", "--walks", "3",
                "--seed", "9", "--out", tmp_path / "multi.jsonl"]) == 0
    metas = []
    for i in range(3):
        lines = (tmp_path / f"multi.jsonl.{i}").read_text().splitlines()
        assert len(lines) == 51
        metas.append(json.loads(lines[0]))
    assert [m["seed"] for m in metas] == [[9, 0], [9, 1], [9, 2]]


def test_missing_file_sets_exit_code_and_stderr(tmp_path, capsys):
    code = run(["estimate", "--log", tmp_path / "nope.jsonl",
                "--out", tmp_path / "x.json"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_bad_population_spec(tmp_path, capsys):
    chain(tmp_path)
    code = run(["estimate", "--log", tmp_path / "log.jsonl",
                "--population", "sometimes", "--out", tmp_path / "x.json"])
    assert code == 1
    assert "population" in capsys.readouterr().err


def test_wrw_sampler_with_named_weights(tmp_path):
    chain(tmp_path)
    assert run(["sample", "--edges", tmp_path / "edges.tsv",
                "--categories", tmp_path / "cats.tsv",
                "--sampler", "wrw", "--n", "100", "--seed", "4",
                "--wrw-weights", "C0=5,C2=0.5",
                "--out", tmp_path / "wrw.jsonl"]) == 0
    lines = (tmp_path / "wrw.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["sampler"] == "wrw"


def test_estimate_with_bootstrap_variances(tmp_path):
    chain(tmp_path)
    assert run(["estimate", "--log", tmp_path / "log.jsonl",
                "--size-est", "induced", "--bootstrap", "5", "--seed", "2",
                "--population", "auto",
                "--out", tmp_path / "est_var.json"]) == 0
    est = json.loads((tmp_path / "est_var.json").read_text())
    assert any("size_var" in c for c in est["categories"])


def test_malformed_log_gives_one_error_line(tmp_path, capsys):
    chain(tmp_path)
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    del record["w"]
    lines[1] = json.dumps(record)
    (tmp_path / "bad.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(["estimate", "--log", tmp_path / "bad.jsonl",
                "--out", tmp_path / "x.json"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: FileFormatError: ")
    assert "bad.jsonl:2: record has no 'w'" in err[0]
    assert not (tmp_path / "x.json").exists()


def test_thin_below_one_is_an_error(tmp_path, capsys):
    chain(tmp_path)
    for k in ("0", "-3"):
        capsys.readouterr()
        code = run(["sample", "--edges", tmp_path / "edges.tsv",
                    "--categories", tmp_path / "cats.tsv",
                    "--sampler", "rw", "--n", "20", "--thin", k,
                    "--out", tmp_path / f"thin{k}.jsonl"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: InvalidThinning: ")
        assert not (tmp_path / f"thin{k}.jsonl").exists()


def _one_error_line(capsys, kind):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {kind}: ")
    return err[0]


def test_walks_below_one_is_an_error_before_the_graph_loads(tmp_path, capsys):
    for k in ("0", "-2"):
        capsys.readouterr()
        code = run(["sample", "--edges", tmp_path / "missing.tsv",
                    "--categories", tmp_path / "missing.tsv",
                    "--sampler", "rw", "--n", "20", "--walks", k,
                    "--out", tmp_path / "walks.jsonl"])
        assert code == 1
        assert f"got {k}" in _one_error_line(capsys, "InvalidParameter")
        assert list(tmp_path.iterdir()) == []


def test_estimate_reads_a_log_with_sparse_node_ids(tmp_path):
    from categraph import fileio
    from test_estimate import sparse_ids

    chain(tmp_path)
    assert run(["sample", "--edges", tmp_path / "edges.tsv",
                "--categories", tmp_path / "cats.tsv", "--sampler", "uis",
                "--n", "60", "--seed", "4", "--out", tmp_path / "uis.jsonl"]) == 0
    assert run(["observe", "--edges", tmp_path / "edges.tsv",
                "--categories", tmp_path / "cats.tsv",
                "--trace", tmp_path / "uis.jsonl", "--mode", "induced",
                "--out", tmp_path / "dense.jsonl"]) == 0
    sparse = sparse_ids(fileio.load_log(tmp_path / "dense.jsonl"))
    fileio.save_log(sparse, tmp_path / "sparse.jsonl")
    assert "46116860184" in (tmp_path / "sparse.jsonl").read_text()
    for name in ("dense", "sparse"):
        assert run(["estimate", "--log", tmp_path / f"{name}.jsonl",
                    "--out", tmp_path / f"{name}.json"]) == 0
    assert ((tmp_path / "sparse.json").read_bytes()
            == (tmp_path / "dense.json").read_bytes())


def test_population_must_be_positive(tmp_path, capsys):
    chain(tmp_path)
    for spec in ("exact:0", "exact:-5"):
        capsys.readouterr()
        code = run(["estimate", "--log", tmp_path / "log.jsonl",
                    "--population", spec, "--out", tmp_path / "x.json"])
        assert code == 1
        assert spec in _one_error_line(capsys, "CategraphError")
        assert not (tmp_path / "x.json").exists()


def test_config_without_a_required_key_gives_one_error_line(tmp_path, capsys):
    for graph, key in (({"synthetic": {"category_sizes": [10, 10]}},
                        "'graph.synthetic.k'"),
                       ({"synthetic": {"k": 3}},
                        "'graph.synthetic.category_sizes'"),
                       ({"edge_file": "e.tsv"}, "'graph.category_file'")):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replicates": 2, "graph": graph}))
        capsys.readouterr()
        assert run(["evaluate", "--config", cfg_path]) == 1
        line = _one_error_line(capsys, "FileFormatError")
        assert "cfg.json" in line and key in line


def test_thin_keeps_n_draws(tmp_path):
    chain(tmp_path)
    for sampler in ("uis", "rw"):
        out = tmp_path / f"{sampler}.jsonl"
        assert run(["sample", "--edges", tmp_path / "edges.tsv",
                    "--categories", tmp_path / "cats.tsv",
                    "--sampler", sampler, "--n", "30", "--thin", "4",
                    "--seed", "2", "--out", out]) == 0
        meta, *rows = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert meta["thin"] == 4
        assert [r["i"] for r in rows] == list(range(0, 120, 4))


def _every_key_config():
    """An experiment config that sets every key the reader takes."""
    return {
        "seed": 3, "replicates": 2, "sample_sizes": [20, 40],
        "samplers": ["uis", "wis", "rw", "mhrw", "wrw"],
        "modes": ["induced", "star"],
        "size_estimators": ["induced", "star"],
        "weight_estimators": ["induced", "star"],
        "burn_in": 3, "thin": 2, "probe_percentiles": [25, 75.5],
        "wrw_category_weights": [1, 2.5],
        "graph": {"synthetic": {"category_sizes": [10, 12], "k": 3,
                                "inter_edge_count": None, "alpha": 0.5,
                                "seed": 1}},
    }


def _set(*path_and_value):
    *path, value = path_and_value

    def change(cfg):
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return change


BAD_CONFIGS = {
    "unknown top-level key": (_set("replicate", 2), "unknown key 'replicate'"),
    "unknown graph key": (_set("graph", "edges", "e.tsv"),
                          "unknown key 'graph.edges'"),
    "unknown synthetic key": (_set("graph", "synthetic", "sizes", [10]),
                              "unknown key 'graph.synthetic.sizes'"),
    "replicates as a string": (_set("replicates", "3"),
                               "'replicates' must be an integer >= 2"),
    "replicates as a boolean": (_set("replicates", True),
                                "'replicates' must be an integer >= 2"),
    "fractional seed": (_set("seed", 1.5), "'seed' must be an integer >= 0"),
    "k as a string": (_set("graph", "synthetic", "k", "4"),
                      "'graph.synthetic.k' must be an integer >= 0"),
    "samplers as a string": (_set("samplers", "uis"),
                             "'samplers' must be a list, each a string"),
    "percentile as a string": (_set("probe_percentiles", [25, "75"]),
                               "'probe_percentiles' must be a list, each a "
                               "number"),
    "wrw weights as a word": (_set("wrw_category_weights", "heavy"),
                              "'wrw_category_weights' must be"),
    "graph as a list": (_set("graph", []),
                        "'graph' must be a JSON object"),
    "unknown sampler": (_set("samplers", ["uis", "bogus"]),
                        "unknown sampler 'bogus'"),
    "synthetic and an edge file": (_set("graph", "edge_file", "e.tsv"),
                                   "not both"),
    "synthetic and a category file": (_set("graph", "category_file", "c.tsv"),
                                      "not both"),
    "sample size zero": (_set("sample_sizes", [0, 40]),
                         "'sample_sizes' must be a list, each an integer "
                         ">= 1, got [0, 40]"),
    "negative burn-in": (_set("burn_in", -1),
                         "'burn_in' must be an integer >= 0, got -1"),
    "wrw weight zero": (_set("wrw_category_weights", [1, 0]),
                        "category weights must be positive and finite"),
    "wrw draw weights overflow": (
        _set("wrw_category_weights", [1e308, 1e308]),
        "wrw draw weights must be positive and finite"),
    "wrw weights too short": (_set("wrw_category_weights", [1]),
                              "one weight per category"),
    "negative seed": (_set("seed", -1),
                      "'seed' must be an integer >= 0, got -1"),
    "negative synthetic seed": (
        _set("graph", "synthetic", "seed", -1),
        "'graph.synthetic.seed' must be null or an integer >= 0, got -1"),
    "negative k": (_set("graph", "synthetic", "k", -2),
                   "'graph.synthetic.k' must be an integer >= 0, got -2"),
    "NaN alpha": (_set("graph", "synthetic", "alpha", math.nan),
                  "alpha must lie in [0, 1]"),
    "percentile above 100": (_set("probe_percentiles", [25, 150]),
                             "probe percentiles must lie in [0, 100]"),
    "NaN percentile": (_set("probe_percentiles", [math.nan]),
                       "probe percentiles must lie in [0, 100]"),
    "inter edges above the free pairs": (
        _set("graph", "synthetic", "inter_edge_count", 1000),
        "requested 1000 inter-category edges, only 120 free pairs"),
    "sizes whose total does not fit int64": (
        _set("graph", "synthetic", "category_sizes", [10, 2**63]),
        "category sizes must total at most 2**60 - 1, got 9223372036854775818"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_is_checked_key_by_key(tmp_path, capsys, case):
    change, message = BAD_CONFIGS[case]
    cfg = _every_key_config()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["evaluate", "--config", cfg_path,
                "--csv", tmp_path / "report.csv"]) == 0
    change(cfg)
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg_path]) == 1
    line = _one_error_line(capsys, "FileFormatError")
    assert f"{cfg_path}: " in line and message in line


def test_large_seeds_stay_accepted(tmp_path):
    big = str(2**70)
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    assert run(["generate", "--sizes", "30,30", "--k", "4", "--seed", big,
                "--out-edges", edges, "--out-categories", cats]) == 0
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "rw", "--n", "20", "--seed", big,
                "--out", tmp_path / "t.jsonl"]) == 0
    assert json.loads(
        (tmp_path / "t.jsonl").read_text().split("\n")[0])["seed"] == 2**70
    assert run(["observe", "--edges", edges, "--categories", cats,
                "--trace", tmp_path / "t.jsonl", "--mode", "induced",
                "--out", tmp_path / "log.jsonl"]) == 0
    assert run(["estimate", "--log", tmp_path / "log.jsonl", "--bootstrap",
                "2", "--seed", big, "--out", tmp_path / "est.json"]) == 0
    cfg = _every_key_config()
    cfg["seed"] = 2**70
    cfg["graph"]["synthetic"].update(category_sizes=[30, 30], k=4, seed=2**70)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["evaluate", "--config", cfg_path,
                "--csv", tmp_path / "report.csv"]) == 0


def test_evaluate_without_report_files_prints_one_line_per_cell(
        tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_every_key_config()))
    assert run(["evaluate", "--config", cfg_path,
                "--csv", tmp_path / "report.csv"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg_path]) == 0
    printed = [ln.split("\t") for ln in capsys.readouterr().out.splitlines()]
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # every column but p25 and p75, in the CSV's order
    assert rows and printed == [row[:6] + row[8:] for row in rows]


def test_the_json_the_csv_and_the_printed_table_read_one_row(tmp_path,
                                                             capsys):
    """Each cell's JSON object is its row; the row's CSV_COLUMNS are its
    CSV row and, but for p25 and p75, its printed line; its statistics
    are those of its scores. One-draw samples leave cells unscored."""
    cfg = {"graph": {"synthetic": {"category_sizes": [10, 10, 20], "k": 4,
                                   "alpha": 0.3, "seed": 5}},
           "samplers": ["uis", "rw"], "sample_sizes": [1, 40],
           "replicates": 2, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["evaluate", "--config", cfg_path, "--csv", tmp_path / "r.csv",
                "--json", tmp_path / "r.json"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--config", cfg_path]) == 0
    printed = capsys.readouterr().out.splitlines()
    with open(tmp_path / "r.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(CSV_COLUMNS)
    objects = json.loads((tmp_path / "r.json").read_text())["cells"]
    cells = run_experiment(load_config(cfg_path)).cells
    assert len(cells) == len(objects) == len(rows) == len(printed)
    assert any(not cell.nrmse_by_quantity for cell in cells)
    for cell, obj, row, line in zip(cells, objects, rows, printed):
        np.testing.assert_equal(obj, json.loads(json.dumps(cell.row)))
        assert row == [str(cell.row[k]) for k in CSV_COLUMNS]
        assert line == "\t".join(str(cell.row[k]) for k in CSV_COLUMNS
                                 if k not in ("p25", "p75"))
        values = list(cell.nrmse_by_quantity.values())
        np.testing.assert_equal(
            [cell.median_nrmse, cell.p25, cell.p75],
            [np.median(values), np.percentile(values, 25),
             np.percentile(values, 75)] if values else [np.nan] * 3)


def test_writers_write_utf8_under_an_ascii_locale(tmp_path):
    """The DOT and graph writers write UTF-8 whatever the locale."""
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\n")
    cats.write_bytes("0\t\u00e9\n1\tb\n".encode("utf-8"))
    src = str(Path(categraph.__file__).parents[1])
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    save = ("import sys; from categraph import fileio; "
            "fileio.save_graph(*fileio.load_graph(*sys.argv[1:3]), *sys.argv[3:])")
    dot = tmp_path / "g.dot"
    for argv in (["-m", "categraph.cli", "exact", "--edges", edges,
                  "--categories", cats, "--format", "dot", "--out", dot],
                 ["-c", save, edges, cats, tmp_path / "e2.tsv", tmp_path / "c2.tsv"]):
        done = subprocess.run([sys.executable, *map(str, argv)], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert '[label="\u00e9"' in dot.read_text(encoding="utf-8")
    assert (tmp_path / "c2.tsv").read_bytes() == cats.read_bytes()
    assert (tmp_path / "e2.tsv").read_bytes() == edges.read_bytes()


def test_invalid_config_json_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"replicates": 2,')
    assert run(["evaluate", "--config", cfg_path]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {cfg_path}:1: invalid JSON (Expecting "
        "property name enclosed in double quotes)")


def test_config_nested_beyond_the_recursion_limit_names_the_file(tmp_path,
                                                                 capsys):
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["evaluate", "--config", cfg_path]) == 1
    assert _one_error_line(capsys, "FileFormatError").startswith(
        f"error: FileFormatError: {cfg_path}:1: invalid JSON (maximum "
        "recursion depth exceeded")


@pytest.mark.parametrize("config,message", [
    ([1], "the config must be a JSON object"),
    ({}, "config needs graph.synthetic or graph.edge_file/category_file"),
])
def test_a_config_without_a_graph_is_refused(tmp_path, capsys, config,
                                              message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["evaluate", "--config", cfg_path]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {cfg_path}: {message}")


def test_config_passes_a_graph_file_error_through(tmp_path, capsys):
    edges = tmp_path / "e.tsv"
    cats = tmp_path / "c.tsv"
    edges.write_text("0\t1\n1\t0\n")
    cats.write_text("0\ta\n1\tb\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"replicates": 2, "graph": {
        "edge_file": str(edges), "category_file": str(cats)}}))
    assert run(["evaluate", "--config", cfg_path]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {edges}:2: duplicate edge 1-0")


@pytest.fixture(scope="module")
def small_graph(tmp_path_factory):
    """Edge and category files of a 100-node graph, categories C0..C2."""
    d = tmp_path_factory.mktemp("graph")
    assert run(["generate", "--sizes", "30,30,40", "--k", "4", "--seed", "5",
                "--out-edges", d / "edges.tsv",
                "--out-categories", d / "cats.tsv"]) == 0
    return d / "edges.tsv", d / "cats.tsv"


@pytest.mark.parametrize("token", ["C0", "C0=x", "C9=2", "C0=1,=2"])
def test_a_bad_wrw_weight_names_the_flag(tmp_path, capsys, small_graph, token):
    edges, cats = small_graph
    capsys.readouterr()
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "10", "--wrw-weights", token,
                "--out", tmp_path / "t.jsonl"]) == 1
    bad = token.split(",")[-1]
    assert _one_error_line(capsys, "CategraphError") == (
        f"error: CategraphError: --wrw-weights: {bad!r} is not "
        "<name>=<number> for a category of the graph")
    assert list(tmp_path.iterdir()) == []


def test_wrw_weights_join_a_token_without_equals_sign_to_the_next(tmp_path):
    """A category named with "," can be weighted: "a,b=2,c=1" weighs "a,b"."""
    edges, cats = tmp_path / "edges.tsv", tmp_path / "cats.tsv"
    edges.write_text("0\t1\n1\t2\n2\t3\n3\t0\n")
    cats.write_text("0\ta,b\n1\ta,b\n2\tc\n3\tc\n")
    out = tmp_path / "wrw.jsonl"
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "40", "--seed", "3",
                "--wrw-weights", "a,b=2,c=1", "--out", out]) == 0
    g, part = load_graph(edges, cats)
    weights = {part.names.index("a,b"): 2.0, part.names.index("c"): 1.0}
    expected = sample_wrw(g, part, weights, 40, seed=3)
    assert load_trace(out).weights.tolist() == expected.weights.tolist()
    assert set(expected.weights.tolist()) == {7.0, 5.0}


def test_wrw_weights_split_each_token_at_its_last_equals_sign(tmp_path):
    """A category named with "=" can be weighted: a number holds none."""
    edges, cats = tmp_path / "edges.tsv", tmp_path / "cats.tsv"
    edges.write_text("0\t1\n1\t2\n2\t3\n3\t0\n")
    cats.write_text("0\ta=b\n1\ta=b\n2\tc\n3\tc\n")
    out = tmp_path / "wrw.jsonl"
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "40", "--seed", "3",
                "--wrw-weights", "a=b=2,c=1", "--out", out]) == 0
    g, part = load_graph(edges, cats)
    weights = {part.names.index("a=b"): 2.0, part.names.index("c"): 1.0}
    expected = sample_wrw(g, part, weights, 40, seed=3)
    trace = load_trace(out)
    assert trace.nodes.tolist() == expected.nodes.tolist()
    assert trace.weights.tolist() == expected.weights.tolist()
    assert set(trace.weights.tolist()) == {7.0, 5.0}   # (2+2)+(2+1), (2+1)+(1+1)


@pytest.mark.parametrize("flag", ["C0=nan", "C0=inf", "C0=0", "C0=-1",
                                  "C0=1e-320", "C0=2,C1=nan"])
def test_an_unusable_wrw_weight_names_the_flag_and_token(tmp_path, capsys,
                                                        small_graph, flag):
    edges, cats = small_graph
    capsys.readouterr()
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "10", "--wrw-weights", flag,
                "--out", tmp_path / "t.jsonl"]) == 1
    assert _one_error_line(capsys, "InvalidWeight") == (
        f"error: InvalidWeight: --wrw-weights: {flag.split(',')[-1]!r}: "
        "category weights must be positive and finite, with a finite inverse")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, token", [("C0=1,C1=3,C0=2", "C0=2"),
                                         ("C2=1,C2=1", "C2=1")])
def test_a_repeated_wrw_weight_is_refused(tmp_path, capsys, small_graph,
                                          flag, token):
    edges, cats = small_graph
    capsys.readouterr()
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "10", "--wrw-weights", flag,
                "--out", tmp_path / "t.jsonl"]) == 1
    assert _one_error_line(capsys, "CategraphError") == (
        f"error: CategraphError: --wrw-weights: {token!r} weighs "
        f"{token.split('=')[0]!r} again")
    assert list(tmp_path.iterdir()) == []


def test_wis_draws_by_degree_beside_an_isolated_node(tmp_path):
    """Node 3, listed only in the category file, has no edge: wis draws
    in proportion to degree, so it never draws node 3, as no walk does."""
    edges, cats = tmp_path / "edges.tsv", tmp_path / "cats.tsv"
    edges.write_text("0\t1\n1\t2\n")
    cats.write_text("0\ta\n1\ta\n2\tb\n3\tb\n")
    out = tmp_path / "wis.jsonl"
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wis", "--n", "2000", "--seed", "4",
                "--out", out]) == 0
    trace = load_trace(out)
    degrees = np.array([1, 2, 1, 0])
    expected = np.random.default_rng(4).choice(4, size=2000,
                                               p=degrees / degrees.sum())
    assert trace.nodes.tolist() == expected.tolist()
    assert trace.weights.tolist() == degrees[trace.nodes].tolist()
    assert 3 not in trace.nodes


@pytest.mark.parametrize("spec", ["exact:abc", "exact:", "exact:1.5", "exact"])
def test_a_bad_population_names_the_flag(tmp_path, capsys, small_graph, spec):
    edges, cats = small_graph
    log = tmp_path / "log.jsonl"
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "uis", "--n", "10", "--out", tmp_path / "t.jsonl"]) == 0
    assert run(["observe", "--edges", edges, "--categories", cats,
                "--trace", tmp_path / "t.jsonl", "--mode", "star",
                "--out", log]) == 0
    capsys.readouterr()
    assert run(["estimate", "--log", log, "--population", spec,
                "--out", tmp_path / "x.json"]) == 1
    assert _one_error_line(capsys, "CategraphError") == (
        "error: CategraphError: --population must be exact:<N> with N >= 1, "
        f"proportional, or auto; got {spec!r}")


@pytest.mark.parametrize("n", ["0", "-4"])
def test_n_below_one_is_an_error_before_the_graph_loads(tmp_path, capsys, n):
    assert run(["sample", "--edges", tmp_path / "missing.tsv",
                "--categories", tmp_path / "missing.tsv",
                "--sampler", "uis", "--n", n,
                "--out", tmp_path / "t.jsonl"]) == 1
    assert _one_error_line(capsys, "InvalidParameter") == (
        f"error: InvalidParameter: --n must be >= 1, got {n}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sizes,flags,message", [
    ("10,a", (), "--sizes: 'a' is not an integer"),
    ("10,,12", (), "--sizes: '' is not an integer"),
    ("10,12,", (), "--sizes: '' is not an integer"),
    ("10,0", (), "category size must be >= 1, got 0"),
    ("10,12", ("--k", "-2"), "degree k must be >= 0, got -2"),
    ("10,12", ("--inter", "-3"), "inter-category edge count must be >= 0, got -3"),
    ("10,12", ("--seed", "-3"), "seed must be >= 0, got -3"),
    ("10,9223372036854775808", (),
     "category sizes must total at most 2**60 - 1, got 9223372036854775818"),
    ("4,4611686018427387904", (),
     "category sizes must total at most 2**60 - 1, got 4611686018427387908"),
])
def test_generate_names_a_bad_parameter(tmp_path, capsys, sizes, flags, message):
    code = run(["generate", "--sizes", sizes, "--k", "2", *flags,
                "--out-edges", tmp_path / "e.tsv",
                "--out-categories", tmp_path / "c.tsv"])
    assert code == 1
    assert _one_error_line(capsys, "InvalidParameter") == (
        f"error: InvalidParameter: {message}")
    assert not (tmp_path / "e.tsv").exists()


def test_an_allocation_the_machine_refuses_is_one_error_line(tmp_path, capsys):
    """2**59 int64 draws need 4 EiB, more than a 64-bit address space
    maps, so the allocation fails at once, before any file is written."""
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\n1\t2\n")
    cats.write_text("0\ta\n1\ta\n2\tb\n")
    capsys.readouterr()
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "uis", "--n", str(2**59),
                "--out", tmp_path / "t.jsonl"]) == 1
    _one_error_line(capsys, "MemoryError")
    assert not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("sample", ("--sampler", "uis", "--burn-in", "-1"),
     "InvalidParameter: --burn-in must be >= 0, got -1"),
    ("sample", ("--sampler", "rw", "--burn-in", "-1"),
     "InvalidParameter: --burn-in must be >= 0, got -1"),
    ("sample", ("--sampler", "rw", "--thin", "0"),
     "InvalidThinning: --thin must be >= 1, got 0"),
    ("estimate", ("--bootstrap", "1"),
     "InvalidParameter: --bootstrap must be >= 2, got 1"),
    ("estimate", ("--bootstrap", "-2"),
     "InvalidParameter: --bootstrap must be >= 2, got -2"),
    ("estimate", ("--population", "bogus"),
     "CategraphError: --population must be exact:<N> with N >= 1, "
     "proportional, or auto; got 'bogus'"),
    ("sample", ("--sampler", "uis", "--seed", "-1"),
     "InvalidParameter: --seed must be >= 0, got -1"),
    ("estimate", ("--seed", "-2"),
     "InvalidParameter: --seed must be >= 0, got -2"),
])
def test_a_bad_flag_is_named_before_any_file_is_read(tmp_path, capsys,
                                                     command, flags, message):
    missing = tmp_path / "missing"
    files = (("--edges", missing, "--categories", missing, "--n", "10")
             if command == "sample" else ("--log", missing))
    assert run([command, *files, *flags, "--out", tmp_path / "out"]) == 1
    assert _one_error_line(capsys, message.split(":")[0]) == f"error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_choices_and_config_defaults_come_from_the_pairs_table(capsys):
    from categraph.estimate import ESTIMATOR_PAIRS
    from categraph.evaluate import ExperimentConfig

    pairs = [pair for mode_pairs in ESTIMATOR_PAIRS.values()
             for pair in mode_pairs]
    names = {"modes": tuple(ESTIMATOR_PAIRS),
             "size_estimators": tuple(dict.fromkeys(s for s, _ in pairs)),
             "weight_estimators": tuple(dict.fromkeys(w for _, w in pairs))}
    assert names["size_estimators"] == names["weight_estimators"] == (
        "induced", "star")
    fields = ExperimentConfig.__dataclass_fields__
    assert {key: fields[key].default for key in names} == names
    for command, flag, key in (("observe", "--mode", "modes"),
                               ("estimate", "--size-est", "size_estimators"),
                               ("estimate", "--weight-est", "weight_estimators")):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        assert f"{flag} {{{','.join(names[key])}}}" in capsys.readouterr().out


def test_proportional_population_gives_shares(tmp_path):
    chain(tmp_path)
    assert run(["estimate", "--log", tmp_path / "log.jsonl",
                "--population", "proportional",
                "--out", tmp_path / "shares.json"]) == 0
    est = json.loads((tmp_path / "shares.json").read_text())
    assert est["N_mode"] == "proportional" and est["N"] == 1.0
    assert est["size_estimator"] == "induced"
    assert math.isclose(sum(c["size"] for c in est["categories"]), 1.0)


def test_wrw_without_weights_weighs_categories_equally(tmp_path, small_graph):
    edges, cats = small_graph
    out = tmp_path / "wrw.jsonl"
    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "wrw", "--n", "50", "--seed", "3",
                "--out", out]) == 0
    g, _ = load_graph(edges, cats)
    _, *rows = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["w"] for r in rows] == [2.0 * g.degree(r["v"]) for r in rows]


def test_observe_names_the_first_draw_outside_the_graph(tmp_path, capsys,
                                                        small_graph):
    edges, cats = small_graph
    trace = tmp_path / "t.jsonl"
    trace.write_text('{"sampler": "uis"}\n{"i": 0, "v": 3, "w": 1.0}\n'
                     '{"i": 1, "v": 100, "w": 1.0}\n')
    capsys.readouterr()
    assert run(["observe", "--edges", edges, "--categories", cats,
                "--trace", trace, "--mode", "induced",
                "--out", tmp_path / "log.jsonl"]) == 1
    assert _one_error_line(capsys, "InvalidNode") == (
        "error: InvalidNode: draw 1: node 100 is outside 0..99")
    assert not (tmp_path / "log.jsonl").exists()


def test_weight_with_an_overflowing_inverse_is_named_by_its_line(tmp_path,
                                                                 capsys):
    """A subnormal weight, whose inverse is infinite, is refused at its
    line instead of ending the estimate in a NaN."""
    records = [{"mode": "induced", "N": None, "categories": ["a", "b"]},
               {"v": 0, "c": 0, "deg": 1, "w": 1e-320},
               {"v": 1, "c": 1, "deg": 1, "w": 1.0},
               {"induced_edges": [[0, 1]]}]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    capsys.readouterr()
    assert run(["estimate", "--log", log, "--out", tmp_path / "est.json"]) == 1
    assert ("log.jsonl:2: 'w' must be a positive finite number, got 1e-320"
            in _one_error_line(capsys, "FileFormatError"))
    assert not (tmp_path / "est.json").exists()


def _with_ff(path, text, line):
    """Write ``text`` with byte 0xff put at the start of line ``line``."""
    lines = text.encode().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"\n".join(lines))
    return path


def test_bytes_that_are_not_utf8_are_named_by_file_and_line(tmp_path, capsys,
                                                             small_graph):
    edges, cats = small_graph
    bad_cats = _with_ff(tmp_path / "cats.tsv", cats.read_text(), 2)
    assert run(["exact", "--edges", edges, "--categories", bad_cats,
                "--out", tmp_path / "truth.json"]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {bad_cats}:2: byte 0xff is not UTF-8 "
        "(invalid start byte)")

    assert run(["sample", "--edges", edges, "--categories", cats,
                "--sampler", "uis", "--n", "5", "--out",
                tmp_path / "trace.jsonl"]) == 0
    trace = _with_ff(tmp_path / "bad.jsonl",
                     (tmp_path / "trace.jsonl").read_text(), 3)
    capsys.readouterr()
    assert run(["observe", "--edges", edges, "--categories", cats,
                "--trace", trace, "--mode", "star",
                "--out", tmp_path / "log.jsonl"]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {trace}:3: byte 0xff is not UTF-8 "
        "(invalid start byte)")

    config = tmp_path / "cfg.json"
    config.write_bytes(b'{"replicates": 2,\n "seed": "\xff"}\n')
    assert run(["evaluate", "--config", config]) == 1
    assert _one_error_line(capsys, "FileFormatError") == (
        f"error: FileFormatError: {config}:2: byte 0xff is not UTF-8 "
        "(invalid start byte)")


HUGE = 10**400   # an integer beyond the float range: float(HUGE) overflows


def _log_file(tmp_path, log, **meta):
    """``log`` saved, with ``meta`` put into its meta line."""
    path = tmp_path / "log.jsonl"
    save_log(log, path)
    first, rest = path.read_text().split("\n", 1)
    path.write_text(json.dumps({**json.loads(first), **meta}) + "\n" + rest)
    return path


def _config_file(tmp_path, **keys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_every_key_config(), **keys}))
    return path


# (what to run on tmp_path, a star log of the graph and the graph: a
# command line or a call; the error it raises; a message fragment)
BEYOND_THE_FLOAT_RANGE = {
    "log meta N": (
        lambda d, log, g, part: ["estimate", "--log", _log_file(d, log, N=HUGE),
                                 "--out", d / "est.json"], "FileFormatError",
        "log.jsonl:1: meta 'N' must be a positive integer or null, got 1000"),
    "--population exact:N": (
        lambda d, log, g, part: ["estimate", "--log", _log_file(d, log),
                                 "--population", f"exact:{HUGE}",
                                 "--out", d / "est.json"], "ValueError",
        "population must be a positive finite number, got 1000"),
    "config probe_percentiles": (
        lambda d, log, g, part: ["evaluate", "--config", _config_file(
            d, probe_percentiles=[25, HUGE])], "FileFormatError",
        "cfg.json: probe percentiles must lie in [0, 100]"),
    "config wrw_category_weights": (
        lambda d, log, g, part: ["evaluate", "--config", _config_file(
            d, wrw_category_weights=[HUGE, 1])], "FileFormatError",
        "cfg.json: category weights must be positive and finite"),
    "estimate_category_graph": (
        lambda d, log, g, part: lambda: estimate_category_graph(log, HUGE),
        ValueError, "population must be a positive finite number, got 1000"),
    "est_size_induced": (
        lambda d, log, g, part: lambda: est_size_induced(log, HUGE),
        ValueError, "population must be a positive finite number, got 1000"),
    "est_weight_star": (
        lambda d, log, g, part: lambda: est_weight_star(log, {0: HUGE, 1: 2.0}),
        ValueError, "size estimates need a category in 0..2 and a finite size"),
    "ExperimentConfig probe_percentiles": (
        lambda d, log, g, part: lambda: ExperimentConfig(
            g, part, probe_percentiles=(HUGE,)),
        ValueError, "probe percentiles must lie in [0, 100]"),
    "sample_wis": (
        lambda d, log, g, part: lambda: sample_wis(g, [HUGE] * g.node_count, 5),
        InvalidWeight, "node weights must be positive and finite"),
    "sample_wrw": (
        lambda d, log, g, part: lambda: sample_wrw(g, part, [HUGE, 1, 1], 5),
        InvalidWeight, "category weights must be positive and finite"),
}


@pytest.mark.parametrize("case", sorted(BEYOND_THE_FLOAT_RANGE))
def test_numbers_beyond_the_float_range_give_typed_errors(
        tmp_path, capsys, three_color_graph, case):
    """Each is refused by the rule that refuses an in-range bad value,
    never ended by an OverflowError: a file names its line or itself, the
    CLI prints one error line, and a call raises that rule's class."""
    make, error, message = BEYOND_THE_FLOAT_RANGE[case]
    g, part = three_color_graph
    log = observe_star(g, part, sample_uis(g, 40, seed=1))
    action = make(tmp_path, log, g, part)
    if isinstance(action, list):
        capsys.readouterr()
        assert run(action) == 1
        assert message in _one_error_line(capsys, error)
    else:
        with pytest.raises(error, match=re.escape(message)):
            action()
