import json
import warnings

import numpy as np
import pytest

from categraph import (
    CategoryPartition,
    FileFormatError,
    Graph,
    bootstrap_variance,
    estimate_category_graph,
    exact_category_graph,
    observe_induced,
    observe_star,
    sample_rw,
)
from categraph.fileio import (
    export_category_graph,
    load_estimate,
    load_graph,
    load_log,
    load_trace,
    save_estimate,
    save_graph,
    save_log,
    save_trace,
)

from _reference import naive_load_graph


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_simple_path(tmp_path):
    edges = write(tmp_path / "e.tsv", "0\t1\n1\t2\n")
    cats = write(tmp_path / "c.tsv", "0\tleft\n1\tmid\n2\tright\n")
    g, part = load_graph(edges, cats)
    assert g.node_count == 3 and g.edge_count == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert part.names == ("left", "mid", "right")


def test_load_comments_and_sparse_external_ids(tmp_path):
    edges = write(tmp_path / "e.tsv", "# a comment\n10\t30\n")
    cats = write(tmp_path / "c.tsv", "10\ta\n20\tb\n30\ta\n")
    g, part = load_graph(edges, cats)
    assert g.node_count == 3   # 20 is an isolated labeled node
    assert g.edge_count == 1
    assert g.has_edge(0, 2)    # dense ids follow sorted external ids
    assert part.sizes.tolist() == [2, 1]


def test_load_rejects_self_loop_with_line_number(tmp_path):
    edges = write(tmp_path / "e.tsv", "0\t1\n3\t3\n")
    cats = write(tmp_path / "c.tsv", "0\ta\n1\ta\n3\ta\n")
    with pytest.raises(FileFormatError, match=":2"):
        load_graph(edges, cats)


def test_load_rejects_duplicate_edge(tmp_path):
    edges = write(tmp_path / "e.tsv", "0\t1\n1\t0\n")
    cats = write(tmp_path / "c.tsv", "0\ta\n1\ta\n")
    with pytest.raises(FileFormatError, match="duplicate"):
        load_graph(edges, cats)


def test_load_rejects_unlabeled_endpoint(tmp_path):
    edges = write(tmp_path / "e.tsv", "0\t5\n")
    cats = write(tmp_path / "c.tsv", "0\ta\n")
    with pytest.raises(FileFormatError, match="no category"):
        load_graph(edges, cats)


def test_load_rejects_double_label(tmp_path):
    edges = write(tmp_path / "e.tsv", "")
    cats = write(tmp_path / "c.tsv", "0\ta\n0\tb\n")
    with pytest.raises(FileFormatError, match="twice"):
        load_graph(edges, cats)


# The loader's contract: the earliest refused line is named, counting
# blank and comment lines; (edge file, category file, message).
CATS = "0\ta\n1\ta\n2\tb\n3\tb\n"
MALFORMED_GRAPHS = {
    "edge id not an integer": ("# c\n\n0\t1\n1\tx\n", CATS,
                               "e.tsv:4: node ids must be"),
    "fractional edge id": ("0\t1.5\n", CATS, "e.tsv:1: node ids must be"),
    "comment after an edge": ("0\t1\n\n2\t3 # x\n", CATS,
                              "e.tsv:3: node ids must be"),
    "empty edge field": ("0\t1\n2\t\n", CATS, "e.tsv:2: node ids must be"),
    "edge id beyond 64 bits": ("0\t99999999999999999999\n", CATS,
                               "e.tsv:1: node ids must be"),
    "digit separator in edge id": ("1_0\t0\n", CATS,
                                   "e.tsv:1: node ids must be"),
    "three edge fields": ("# c\n0\t1\t2\n", CATS,
                          "e.tsv:2: expected 'u<TAB>v'"),
    "one edge field": ("0\t1\n\n0 2\n", CATS,
                       "e.tsv:3: expected 'u<TAB>v'"),
    "blank-looking edge line": ("0\t1\n \n", CATS,
                                "e.tsv:2: expected 'u<TAB>v'"),
    "self-loop": ("0\t1\n\n3\t3\n", CATS, "e.tsv:3: self-loop at node 3"),
    "self-loop at unlabeled node": ("7\t7\n", CATS,
                                    "e.tsv:1: self-loop at node 7"),
    "unlabeled second endpoint": ("0\t1\n# c\n1\t7\n", CATS,
                                  "e.tsv:3: node 7 has no category label"),
    "unlabeled first endpoint": ("9\t0\n", CATS,
                                 "e.tsv:1: node 9 has no category label"),
    "unlabeled in an empty category file": ("0\t1\n", "",
                                            "e.tsv:1: node 0 has no category"),
    "duplicate edge": ("0\t1\n2\t3\n0\t1\n", CATS,
                       "e.tsv:3: duplicate edge 0-1"),
    "reversed duplicate edge": ("0\t1\n\n1\t0\n", CATS,
                                "e.tsv:3: duplicate edge 1-0"),
    "self-loop before a bad id": ("0\t1\n2\t2\n1\tx\n", CATS,
                                  "e.tsv:2: self-loop"),
    "bad id before a duplicate": ("0\t1\n1\tx\n0\t1\n", CATS,
                                  "e.tsv:2: node ids must be"),
    "bad field count before an unlabeled node": (
        "0\t1\n1\t2\t3\n0\t9\n", CATS, "e.tsv:2: expected"),
    "category id not an integer": ("", "0\ta\nx\tb\n",
                                   "c.tsv:2: node id 'x' is not an integer"),
    "digit separator in category id": ("", "0\ta\n1_0\tb\n",
                                       "c.tsv:2: node id '1_0' is not an "
                                       "integer"),
    "non-ASCII digits in category id": ("", "\u0661\u0660\ta\n",
                                        "c.tsv:1: node id '\u0661\u0660' is "
                                        "not an integer"),
    "category id beyond 64 bits": ("", "99999999999999999999\ta\n",
                                   "c.tsv:1: node id '99999999999999999999' "
                                   "does not fit 64 bits"),
    "one category field": ("", "0\ta\n# c\n1\n",
                           "c.tsv:3: expected 'node<TAB>category'"),
    "three category fields": ("", "0\ta\tb\n",
                              "c.tsv:1: expected 'node<TAB>category'"),
    "node labeled twice": ("", "0\ta\n\n0\tb\n", "c.tsv:3: node 0 labeled twice"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_load_graph_names_first_refused_line(tmp_path, case):
    edge_text, cat_text, message = MALFORMED_GRAPHS[case]
    edges = write(tmp_path / "e.tsv", edge_text)
    cats = write(tmp_path / "c.tsv", cat_text)
    with pytest.raises(FileFormatError, match=message):
        load_graph(edges, cats)


def test_load_graph_reads_crlf_files(tmp_path):
    edges = write(tmp_path / "e.tsv", "")
    cats = write(tmp_path / "c.tsv", "")
    (tmp_path / "e.tsv").write_bytes(b"# c\r\n0\t1\r\n\r\n1\t2\r\n")
    (tmp_path / "c.tsv").write_bytes(b"0\tleft\r\n1\tmid\r\n2\tleft\r\n")
    g, part = load_graph(edges, cats)
    assert g.edge_array.tolist() == [[0, 1], [1, 2]]
    assert part.names == ("left", "mid")


def test_load_graph_keeps_names_with_hash_and_spaces(tmp_path):
    edges = write(tmp_path / "e.tsv", "5\t1\n")
    cats = write(tmp_path / "c.tsv", "5\tcity # 2\n1\tNew York \n")
    g, part = load_graph(edges, cats)
    assert part.names == ("New York ", "city # 2")
    assert part.labels.tolist() == [0, 1]
    assert g.edge_array.tolist() == [[0, 1]]


@pytest.mark.parametrize("edge_text", ["", "# nothing here\n\n# at all\n"])
def test_load_graph_without_edges_gives_isolated_nodes(tmp_path, edge_text):
    edges = write(tmp_path / "e.tsv", edge_text)
    cats = write(tmp_path / "c.tsv", "3\ta\n1\tb\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, part = load_graph(edges, cats)
    assert g.node_count == 2 and g.edge_count == 0
    assert part.names == ("b", "a")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_load_graph_matches_per_line_reader(tmp_path, seed):
    """Sparse, unsorted, partly negative external ids with comments and
    blank lines scattered through both files."""
    rng = np.random.default_rng(seed)
    n = 300
    ext = rng.choice(np.arange(-10**12, 10**12, 7919), size=n, replace=False)
    names = [f"cat {c}" for c in rng.integers(0, 6, size=n)]
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < 0.03
    pairs = np.column_stack([iu[keep], iv[keep]])
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip][:, ::-1]
    pairs = pairs[rng.permutation(len(pairs))]

    def text(lines):
        out = []
        for line in lines:
            if rng.random() < 0.05:
                out.append("" if rng.random() < 0.5 else "# skip\tme")
            out.append(line)
        return "\n".join(out) + "\n"

    edges = write(tmp_path / "e.tsv", text(
        f"{ext[u]}\t{ext[v]}" for u, v in pairs.tolist()))
    cats = write(tmp_path / "c.tsv", text(
        f"{ext[i]}\t{names[i]}" for i in rng.permutation(n).tolist()))
    g, part = load_graph(edges, cats)
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    assert g.node_count == n
    assert g.edge_array.tolist() == [list(e) for e in want_edges]
    assert part.labels.tolist() == want_labels
    assert part.names == want_names
    g.validate()


def test_graph_roundtrip(tmp_path, three_color_graph):
    g, part = three_color_graph
    save_graph(g, part, tmp_path / "e.tsv", tmp_path / "c.tsv")
    g2, part2 = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert g2 == g
    assert part2 == part


def test_trace_roundtrip(tmp_path, three_color_graph):
    g, _ = three_color_graph
    trace = sample_rw(g, 25, start=0, burn_in=5, seed=8)
    save_trace(trace, tmp_path / "t.jsonl")
    back = load_trace(tmp_path / "t.jsonl")
    assert np.array_equal(back.nodes, trace.nodes)
    assert np.array_equal(back.weights, trace.weights)
    assert back.sampler == "rw" and back.burn_in == 5 and back.start == 0
    assert back.seed == 8


def test_trace_file_shape(tmp_path, three_color_graph):
    g, _ = three_color_graph
    trace = sample_rw(g, 3, start=0, seed=8)
    save_trace(trace, tmp_path / "t.jsonl")
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    meta = json.loads(lines[0])
    assert {"sampler", "seed", "burn_in", "thin"} <= set(meta)
    row = json.loads(lines[1])
    assert set(row) == {"i", "v", "w"}


@pytest.mark.parametrize("mode", ["induced", "star"])
def test_log_roundtrip(tmp_path, three_color_graph, mode):
    g, part = three_color_graph
    trace = sample_rw(g, 20, start=0, seed=9)
    observer = observe_induced if mode == "induced" else observe_star
    log = observer(g, part, trace)
    save_log(log, tmp_path / "log.jsonl")
    back = load_log(tmp_path / "log.jsonl")
    assert back.mode == mode
    assert np.array_equal(back.nodes, log.nodes)
    assert np.array_equal(back.categories, log.categories)
    assert np.array_equal(back.degrees, log.degrees)
    assert np.array_equal(back.weights, log.weights)
    assert back.population_hint == 8
    assert back.category_names == part.names
    if mode == "induced":
        assert np.array_equal(back.induced_edges, log.induced_edges)
    else:
        assert np.array_equal(back.neighbor_counts, log.neighbor_counts)


def test_log_file_shape(tmp_path, three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, sample_rw(g, 4, start=0, seed=10))
    save_log(log, tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["mode"] == "induced"
    assert set(json.loads(lines[1])) == {"v", "c", "deg", "w"}
    assert "induced_edges" in json.loads(lines[-1])


def test_estimate_roundtrip(tmp_path, three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, sample_rw(g, 40, start=0, seed=11))
    est = estimate_category_graph(log, population=8, size_estimator="star")
    size_var, weight_var = bootstrap_variance(log, 10, seed=12, population=8,
                                              size_estimator="star")
    import dataclasses
    est = dataclasses.replace(est, size_variances=size_var,
                              weight_variances=weight_var)
    save_estimate(est, tmp_path / "est.json")
    back = load_estimate(tmp_path / "est.json")
    assert back.sizes == est.sizes
    assert back.weights == est.weights
    assert back.size_variances == est.size_variances
    assert back.weight_variances == est.weight_variances
    assert back.size_estimator == "star"
    assert back.population_mode == "exact"
    assert back.category_names == part.names


def test_exact_graph_dot_export(tmp_path, three_color_graph):
    g, part = three_color_graph
    cg = exact_category_graph(g, part)
    export_category_graph(cg, "dot", tmp_path / "g.dot", names=part.names)
    text = (tmp_path / "g.dot").read_text()
    assert text.startswith("graph category_graph {")
    assert '0 [label="white", size=3.0];' in text
    assert f"0 -- 2 [weight={3 / 9!r}];" in text
    assert f"1 -- 2 [weight={1 / 6!r}];" in text
    assert f"0 -- 1 [weight={4 / 6!r}];" in text


def test_empty_estimate_exports(tmp_path):
    g = Graph.from_edges(2, [])
    part = CategoryPartition(labels=np.zeros(2, dtype=int), names=("only",))
    cg = exact_category_graph(g, part)
    export_category_graph(cg, "json", tmp_path / "empty.json",
                          names=part.names)
    payload = json.loads((tmp_path / "empty.json").read_text())
    assert payload["edges"] == []
    export_category_graph(cg, "dot", tmp_path / "empty.dot")
    assert "{" in (tmp_path / "empty.dot").read_text()


def test_export_unknown_format(tmp_path, three_color_graph):
    g, part = three_color_graph
    cg = exact_category_graph(g, part)
    with pytest.raises(ValueError):
        export_category_graph(cg, "xml", tmp_path / "x")


# ---------------------------------------------------------------------------
# malformed logs and traces: typed errors that name the line


def _saved_records(tmp_path, three_color_graph, mode):
    """A valid log of 6 rw draws, as parsed JSON lines."""
    g, part = three_color_graph
    observer = observe_induced if mode == "induced" else observe_star
    save_log(observer(g, part, sample_rw(g, 6, start=0, seed=9)),
             tmp_path / "log.jsonl")
    lines = (tmp_path / "log.jsonl").read_text().splitlines()
    return [json.loads(ln) for ln in lines]


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _set(key, value, index=2):
    def mutate(records):
        records[index][key] = value
    return mutate


def _drop(key):
    def mutate(records):
        del records[2][key]
    return mutate


def _nbr(update):
    def mutate(records):
        records[2]["nbr_cats"].update(update)
    return mutate


def _add_edge(edge):
    def mutate(records):
        records[-1]["induced_edges"].append(edge)
    return mutate


# (mode, mutation, line named, message fragment); record 2 is on line 3
MALFORMED_LOGS = {
    "missing key": ("star", _drop("w"), 3, "record has no 'w'"),
    "category not an integer": ("induced", _set("c", "x"), 3,
                                "'c' must be an integer"),
    "weight not a number": ("star", _set("w", "1.0"), 3,
                            "'w' must be a number"),
    "boolean weight": ("induced", _set("w", True), 3, "'w' must be a number"),
    "fractional degree": ("star", _set("deg", 1.5), 3,
                          "'deg' must be an integer"),
    "nbr_cats key beyond C": ("star", _nbr({"3": 0}), 3, "nbr_cats key"),
    "negative nbr_cats key": ("star", _nbr({"-1": 0}), 3, "nbr_cats key"),
    "negative nbr_cats count": ("star", _nbr({"0": -1}), 3,
                                "nbr_cats count"),
    "nbr_cats not an object": ("star", _set("nbr_cats", [1]), 3,
                               "nbr_cats must be an object"),
    "category beyond C": ("induced", _set("c", 7), 3,
                          r"category must be in 0\.\.2"),
    "negative category": ("star", _set("c", -1), 3, "category must be"),
    "zero weight": ("induced", _set("w", 0), 3,
                    "weight must be positive and finite"),
    "negative weight": ("star", _set("w", -2.0), 3,
                        "weight must be positive and finite"),
    "NaN weight": ("induced", _set("w", float("nan")), 3,
                   "weight must be positive and finite"),
    "infinite weight": ("star", _set("w", float("inf")), 3,
                        "weight must be positive and finite"),
    "negative degree": ("induced", _set("deg", -1), 3, "degree must be >= 0"),
    "negative node id": ("induced", _set("v", -1), 3, "node id must be"),
    "nbr_cats not summing to deg": ("star", _nbr({"0": 99}), 3,
                                    "nbr_cats must sum to deg"),
    "undrawn edge endpoint": ("induced", _add_edge([0, 99]), 8,
                              r"induced edge has an undrawn endpoint, got \[0, 99\]"),
    "edge of three nodes": ("induced", _add_edge([0, 1, 2]), 8,
                            r"induced_edges must be a list of \[u, v\] integer"),
    "zero population": ("star", _set("N", 0, index=0), 1, "meta 'N'"),
    "categories not a list": ("induced", _set("categories", "abc", index=0),
                              1, "meta 'categories'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
def test_load_log_rejects_malformed_record(tmp_path, three_color_graph, case):
    mode, mutate, line, message = MALFORMED_LOGS[case]
    records = _saved_records(tmp_path, three_color_graph, mode)
    mutate(records)
    path = _write_records(tmp_path / "bad.jsonl", records)
    with pytest.raises(FileFormatError, match=f"bad.jsonl:{line}: {message}"):
        load_log(path)


def test_load_log_names_line_of_invalid_json(tmp_path, three_color_graph):
    records = _saved_records(tmp_path, three_color_graph, "star")
    text = "".join(json.dumps(r) + "\n" for r in records[:3])
    path = tmp_path / "bad.jsonl"
    path.write_text(text + "\n" + '{"v": 1,\n')   # blank line 4, bad line 5
    with pytest.raises(FileFormatError, match=r"bad.jsonl:5: invalid JSON"):
        load_log(path)


def test_load_trace_rejects_malformed_record(tmp_path, three_color_graph):
    g, _ = three_color_graph
    save_trace(sample_rw(g, 5, start=0, seed=8), tmp_path / "t.jsonl")
    good = [json.loads(ln)
            for ln in (tmp_path / "t.jsonl").read_text().splitlines()]
    cases = [(_drop("v"), 3, "record has no 'v'"),
             (_set("i", "x"), 3, "'i' must be an integer"),
             (_set("w", 0.0), 3, "weight must be positive and finite"),
             (_set("burn_in", "5", index=0), 1, "meta 'burn_in' must be an integer")]
    for mutate, line, message in cases:
        records = json.loads(json.dumps(good))
        mutate(records)
        path = _write_records(tmp_path / "bad.jsonl", records)
        with pytest.raises(FileFormatError, match=f"bad.jsonl:{line}: {message}"):
            load_trace(path)


def test_save_estimate_refuses_non_finite_values(tmp_path, three_color_graph):
    g, part = three_color_graph
    log = observe_induced(g, part, sample_rw(g, 20, start=0, seed=3))
    est = estimate_category_graph(log, population=8)
    import dataclasses
    bad = dataclasses.replace(est, sizes={**est.sizes, 0: float("nan")})
    with pytest.raises(ValueError):
        save_estimate(bad, tmp_path / "est.json")
    assert not (tmp_path / "est.json").exists()
