import json

import pytest

from categraph.cli import main


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
        assert f"got {k}" in _one_error_line(capsys, "CategraphError")
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
    for graph, key in (({"synthetic": {"category_sizes": [10, 10]}}, "'k'"),
                       ({"synthetic": {"k": 3}}, "'category_sizes'"),
                       ({"edge_file": "e.tsv"}, "'category_file'")):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"replicates": 2, "graph": graph}))
        capsys.readouterr()
        assert run(["evaluate", "--config", cfg_path]) == 1
        line = _one_error_line(capsys, "CategraphError")
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
                               "replicates: expected integer"),
    "replicates as a boolean": (_set("replicates", True),
                                "replicates: expected integer"),
    "fractional seed": (_set("seed", 1.5), "seed: expected integer"),
    "k as a string": (_set("graph", "synthetic", "k", "4"),
                      "graph.synthetic.k: expected integer"),
    "samplers as a string": (_set("samplers", "uis"),
                             "samplers: expected list of strings"),
    "percentile as a string": (_set("probe_percentiles", [25, "75"]),
                               "probe_percentiles: expected list of numbers"),
    "wrw weights as a word": (_set("wrw_category_weights", "heavy"),
                              "wrw_category_weights: expected"),
    "graph as a list": (_set("graph", []), "graph: expected object"),
    "unknown sampler": (_set("samplers", ["uis", "bogus"]),
                        "unknown sampler 'bogus'"),
    "synthetic and an edge file": (_set("graph", "edge_file", "e.tsv"),
                                   "not both"),
    "synthetic and a category file": (_set("graph", "category_file", "c.tsv"),
                                      "not both"),
    "sample size zero": (_set("sample_sizes", [0, 40]),
                         "sample sizes must be >= 1"),
    "negative burn-in": (_set("burn_in", -1), "burn_in must be >= 0"),
    "wrw weight zero": (_set("wrw_category_weights", [1, 0]),
                        "category weights must be positive and finite"),
    "wrw weights too short": (_set("wrw_category_weights", [1]),
                              "one weight per category"),
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
    line = _one_error_line(capsys, "CategraphError")
    assert f"{cfg_path}: " in line and message in line
