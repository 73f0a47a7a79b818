import dataclasses
import json
import math
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryPartition,
    FileFormatError,
    Graph,
    SyntheticParams,
    bootstrap_variance,
    estimate_category_graph,
    exact_category_graph,
    observe_induced,
    observe_star,
    sample_rw,
    synthetic_graph,
)
from categraph import fileio
from categraph.fileio import (
    _read_jsonl,
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
from categraph.observe import ObservationLog
from categraph.sampling import SampleTrace

from _reference import (
    naive_load_graph,
    naive_read_jsonl,
    naive_save_graph,
    naive_save_log,
    naive_save_trace,
)


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
    "empty category id": ("", "0\ta\n\tb\n", "c.tsv:2: node id '' is not an"),
    "padded category id beyond 64 bits": (
        "", "0\ta\n 9223372036854775808\tb\n",
        "c.tsv:2: node id ' 9223372036854775808' does not fit 64 bits"),
    "category id refused before a field count": (
        "", "0\ta\n# c\nx\tb\n1\n", "c.tsv:3: node id 'x' is not"),
    "field count before a refused category id": (
        "", "0\ta\n1\nx\tb\n", "c.tsv:2: expected 'node<TAB>category'"),
    "node labeled twice before a refused id": (
        "", "0\ta\n0\tb\nx\tc\n", "c.tsv:2: node 0 labeled twice"),
    "node labeled twice before a field count": (
        "", "0\ta\n0\tb\n1\n", "c.tsv:2: node 0 labeled twice"),
    "refused id before a node labeled twice": (
        "", "0\ta\n1_0\tb\n0\tc\n", "c.tsv:2: node id '1_0' is not"),
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
    """External ids of every shape the dense-id guess meets: sparse,
    unsorted and partly negative; dense 0..N-1 in shuffled order; dense
    and shifted by an offset; dense with gaps; and sparse with both
    int64 extremes, so that ``ext - ext_ids[0]`` overflows. Comments and
    blank lines are scattered through both files."""
    rng = np.random.default_rng(seed)
    n = 300
    sparse = rng.choice(np.arange(-10**12, 10**12, 7919), size=n, replace=False)
    extremes = sparse.copy()
    extremes[rng.choice(n, size=2, replace=False)] = [-2**63, 2**63 - 1]
    gaps = rng.permutation(n + 40)[:n]
    for ext in (sparse, rng.permutation(n),
                rng.permutation(n) + int(rng.integers(-10**15, 10**15)),
                gaps, extremes):
        _check_against_naive_load_graph(tmp_path, rng, ext)


@settings(max_examples=80, deadline=None)
@given(ext=st.lists(st.one_of(st.integers(-20, 20), st.integers(-2**63, 2**63 - 1)),
                    min_size=1, max_size=12, unique=True),
       data=st.data())
def test_load_graph_matches_the_per_line_reader_on_random_files(
        tmp_path_factory, ext, data):
    """Both files shuffled, with blank and comment lines anywhere; the
    ids run with gaps and signs."""
    n = len(ext)
    names = data.draw(st.lists(st.text(alphabet="ab #é", min_size=1, max_size=3),
                               min_size=n, max_size=n))
    iu, iv = np.triu_indices(n, k=1)
    keep = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    flip = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    pairs = [(v, u) if f else (u, v)
             for u, v, k, f in zip(iu.tolist(), iv.tolist(), keep, flip) if k]

    def text(lines):
        lines = data.draw(st.permutations(lines))
        for at, filler in data.draw(st.lists(st.tuples(
                st.integers(0, len(lines)), st.sampled_from(["", "#", "# 1\t2"])),
                max_size=4)):
            lines.insert(at, filler)
        return "".join(line + "\n" for line in lines)

    d = tmp_path_factory.mktemp("graph")
    edges = write(d / "e.tsv", text([f"{ext[u]}\t{ext[v]}" for u, v in pairs]))
    cats = write(d / "c.tsv", text([f"{x}\t{name}" for x, name in zip(ext, names)]))
    g, part = load_graph(edges, cats)
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    assert g.node_count == n
    assert g.edge_array.tolist() == [list(e) for e in want_edges]
    assert part.labels.tolist() == want_labels
    assert part.names == want_names


def _check_against_naive_load_graph(tmp_path, rng, ext):
    n = len(ext)
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
    # integers of any length are written, as a file may hold one
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    finally:
        sys.set_int_max_str_digits(limit)
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


def _replace_line(index, value):
    def mutate(records):
        records[index] = value
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
                            "'w' must be a positive finite number"),
    "boolean weight": ("induced", _set("w", True), 3,
                       "'w' must be a positive finite number"),
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
                    "'w' must be a positive finite number"),
    "negative weight": ("star", _set("w", -2.0), 3,
                        "'w' must be a positive finite number"),
    "NaN weight": ("induced", _set("w", float("nan")), 3,
                   "'w' must be a positive finite number"),
    "infinite weight": ("star", _set("w", float("inf")), 3,
                        "'w' must be a positive finite number"),
    "weight beyond the largest float": ("induced", _set("w", 10**400), 3,
                                        "'w' must be a positive finite number"),
    "integer weight one above the largest float": (
        "star", _set("w", int(sys.float_info.max) + 1), 3,
        "'w' must be a positive finite number, got 17976931348623157"),
    "subnormal weight with an infinite inverse": (
        "induced", _set("w", 1e-320), 3,
        "'w' must be a positive finite number, got 1e-320"),
    "weight 2**-1024": ("star", _set("w", 2.0 ** -1024), 3,
                        "'w' must be a positive finite number, got 5.56"),
    "negative degree": ("induced", _set("deg", -1), 3, "degree must be >= 0"),
    "negative node id": ("induced", _set("v", -1), 3, "node id must be"),
    "nbr_cats not summing to deg": ("star", _nbr({"0": 99}), 3,
                                    "nbr_cats must sum to deg"),
    "undrawn edge endpoint": ("induced", _add_edge([0, 99]), 8,
                              r"induced edge has an undrawn endpoint, got \[0, 99\]"),
    "edge of three nodes": ("induced", _add_edge([0, 1, 2]), 8,
                            r"induced_edges must be a list of \[u, v\] integer"),
    "self-loop induced edge": ("induced", _add_edge([0, 0]), 8,
                               r"induced edge is a self-loop, got \[0, 0\]"),
    "induced edge twice, reversed": (
        "induced", _add_edge([4, 0]), 8,
        r"induced edge repeats an earlier one, got \[4, 0\]"),
    "node with two categories": (
        "induced", _set("c", 1, index=6), 7,
        "category differs from an earlier record of the node, got 1"),
    "node with two degrees": (
        "star", _set("deg", 3, index=6), 7,
        "degree differs from an earlier record of the node, got 3"),
    "node with two weights": (
        "induced", _set("w", 0.5, index=6), 7,
        "weight differs from an earlier record of the node, got 0.5"),
    "node with two neighbor rows": (
        "star", _set("nbr_cats", {"0": 2}, index=6), 7,
        r"nbr_cats differs from an earlier record of the node, got \[2, 0, 0\]"),
    "no induced_edges line": (
        "induced", lambda records: records.pop(), 7,
        "induced log missing trailing induced_edges block"),
    "meta line a list": ("star", _replace_line(0, [1]), 1,
                         "log meta line is not a JSON object"),
    "mode a list": ("star", _set("mode", [], index=0), 1,
                    r"meta 'mode' must be induced or star, got \[\]"),
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


def test_load_log_keys_induced_edges_by_rank_not_by_raw_id(tmp_path):
    # u * N + v on raw ids near 2**63 - 1 would overflow int64
    big = 2**63 - 1
    records = [{"mode": "induced", "N": None, "categories": ["a", "b"]},
               {"v": big, "c": 0, "deg": 1, "w": 1.0},
               {"v": big - 1, "c": 1, "deg": 1, "w": 1.0},
               {"induced_edges": [[big, big - 1]]}]
    path = _write_records(tmp_path / "log.jsonl", records)
    assert load_log(path).induced_edges.tolist() == [[big, big - 1]]
    records[-1]["induced_edges"].append([big - 1, big])
    path = _write_records(tmp_path / "bad.jsonl", records)
    with pytest.raises(FileFormatError, match="bad.jsonl:4: induced edge "
                       "repeats an earlier one"):
        load_log(path)


@pytest.mark.parametrize("key, value, message", [
    ("c", True, "'c' must be an integer"),
    ("v", 2**63, "'v' must be an integer"),
    ("deg", -2**63 - 1, "'deg' must be an integer"),
    ("nbr_cats", {"0": False}, "nbr_cats count must be an integer"),
    ("nbr_cats", {"1": 2**64}, "nbr_cats count must be an integer"),
])
def test_load_log_refuses_booleans_and_ints_beyond_64_bits(
        tmp_path, three_color_graph, key, value, message):
    records = _saved_records(tmp_path, three_color_graph, "star")
    _set(key, value, index=4)(records)
    path = _write_records(tmp_path / "bad.jsonl", records)
    with pytest.raises(FileFormatError, match=f"bad.jsonl:5: {message}"):
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
             (_set("w", 0.0), 3, "'w' must be a positive finite number, got 0.0"),
             (_set("v", 10**5000), 3,
              r"invalid JSON \(Exceeds the limit \(4300 digits\)"),
             (_set("burn_in", "5", index=0), 1, "meta 'burn_in' must be an integer"),
             (_set("sampler", [1], index=0), 1,
              r"meta 'sampler' must be a string, got \[1\]"),
             *((_set("seed", seed, index=0), 1,
                "meta 'seed' must be null or an integer >= 0 or a list, each "
                f"an integer >= 0, got {re.escape(repr(seed))}$")
               for seed in ({"x": 1}, -1, [7, -1], True, 2.0, "7"))]
    for mutate, line, message in cases:
        records = json.loads(json.dumps(good))
        mutate(records)
        path = _write_records(tmp_path / "bad.jsonl", records)
        with pytest.raises(FileFormatError, match=f"bad.jsonl:{line}: {message}"):
            load_trace(path)


def test_load_trace_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(FileFormatError,
                       match="empty.jsonl:1: missing trace meta line"):
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


@pytest.mark.parametrize("first_line", ["5\ta", "+5\ta", " 5 \ta"])
def test_load_graph_reads_signed_and_padded_category_ids(tmp_path, first_line):
    """Signed ids and ids padded with spaces are read by the parser that
    reads the edge file, with the values ``int()`` gives them."""
    edges = write(tmp_path / "e.tsv", "5\t-2\n1\t 5\n# c\n-2\t1\n")
    cats = write(tmp_path / "c.tsv", f"{first_line}\n\n+1\tb\n-2\ta b\n")
    g, part = load_graph(edges, cats)
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    assert g.edge_array.tolist() == [list(e) for e in want_edges]
    assert part.labels.tolist() == want_labels == [0, 1, 2]
    assert part.names == want_names == ("a b", "b", "a")


# every whitespace character but tab and the line ends, as padding; a
# sign, a digit separator, non-ASCII digits, 2**63 and the empty string
PADDING = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\t\n\r"]
ID_SPELLINGS = ([f"{c}5" for c in PADDING] + [f"5{c}" for c in PADDING]
                + [f"{c}+5{c}" for c in PADDING[:2]]
                + ["+5", "-5", "1_0", "\u0661\u0660", str(2**63), ""])


@pytest.mark.parametrize("spelling", ID_SPELLINGS)
def test_both_graph_files_read_an_id_the_same_way(tmp_path, spelling):
    """An id either loads from both files with one value, shown by an
    edge that joins it to a plain id, or is refused in both, naming its
    line; padded and signed fives load."""
    assert len(PADDING) == 26
    readable = spelling.strip() in ("5", "+5", "-5")
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    labeled = write(cats, f"# c\n{spelling}\ta\n7\tb\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load_graph(write(edges, ""), labeled)
        except FileFormatError as exc:
            assert not readable
            assert str(exc).startswith(f"{cats}:2: node id {spelling!r} ")
            with pytest.raises(FileFormatError) as refused:
                load_graph(write(edges, f"# c\n7\t{spelling}\n"),
                           write(cats, "7\tb\n"))
            assert str(refused.value) == (
                f"{edges}:2: node ids must be 64-bit decimal integers")
        else:
            g, part = load_graph(write(edges, f"# c\n{spelling}\t7\n"),
                                 labeled)
            assert readable and g.edge_count == 1
            assert sorted(part.names) == ["a", "b"]


def test_load_graph_refuses_unlabeled_id_in_a_gap(tmp_path):
    """A guessed dense id that lands on another node's label is a miss,
    also where ``ext - ext_ids[0]`` overflows."""
    cats = write(tmp_path / "c.tsv",
                 f"{-2**63}\ta\n0\ta\n2\tb\n{2**63 - 1}\tb\n")
    for edge_text, node in [("0\t2\n0\t1\n", 1),
                            (f"0\t{2**63 - 1}\n{2**63 - 2}\t0\n", 2**63 - 2),
                            (f"{-2**63}\t2\n{-2**63 + 1}\t0\n", -2**63 + 1)]:
        edges = write(tmp_path / "e.tsv", edge_text)
        with pytest.raises(FileFormatError,
                           match=f"e.tsv:2: node {node} has no category"):
            load_graph(edges, cats)
    g, part = load_graph(write(tmp_path / "e.tsv", f"{-2**63}\t{2**63 - 1}\n"),
                         cats)
    assert g.edge_array.tolist() == [[0, 3]]
    assert part.labels.tolist() == [0, 0, 1, 1]


def _graph_outcome(edges, cats):
    """What ``load_graph`` gives: the edges, labels and names, or the
    message of its FileFormatError."""
    try:
        g, part = load_graph(edges, cats)
    except FileFormatError as exc:
        return str(exc)
    return g.edge_array.tolist(), part.labels.tolist(), part.names


# edits that a valid graph file may meet and that the one parse of
# load_graph must either read as the line-by-line reader does or hand to it
GRAPH_EDITS = {
    "'#' inside a line": lambda text, at: text[:at] + "#" + text[at:],
    "'#' starting a line": lambda text, at: _at_line_start(text, at, "#"),
    "whitespace-only line": lambda text, at: _at_line_start(text, at, " \n"),
    "form-feed line": lambda text, at: _at_line_start(text, at, "\x0c\n"),
    "CRLF line end": lambda text, at: _at_line_end(text, at, "\r\n"),
    "CR line end": lambda text, at: _at_line_end(text, at, "\r"),
    "CR inside a line": lambda text, at: text[:at] + "\r" + text[at:],
    "U+2028 inside a line": lambda text, at: text[:at] + "\u2028" + text[at:],
    "U+3000 padding": lambda text, at: text[:at] + "\u3000" + text[at:],
    "BOM": lambda text, at: "\ufeff" + text,
    "no final newline": lambda text, at: text.rstrip("\n"),
    "blank line": lambda text, at: _at_line_start(text, at, "\n"),
    "empty file": lambda text, at: "",
    "comment-only file": lambda text, at: "# none\n\n# here\tat all\n",
}


def _at_line_start(text, at, insert):
    at = text.rfind("\n", 0, at) + 1
    return text[:at] + insert + text[at:]


def _at_line_end(text, at, end):
    at = text.find("\n", at)
    return text if at < 0 else text[:at] + end + text[at + 1:]


@settings(max_examples=300, deadline=None)
@given(ext=st.lists(st.integers(-30, 30), min_size=1, max_size=8, unique=True),
       data=st.data())
def test_load_graph_reads_edited_files_as_the_line_reader_does(
        tmp_path_factory, ext, data):
    """Valid files with up to three edits each: the result, or the
    FileFormatError naming a line, is what the line-by-line reader
    gives, and a loaded graph is what ``naive_load_graph`` loads."""
    n = len(ext)
    names = data.draw(st.lists(st.text(alphabet="ab #", min_size=1, max_size=3),
                               min_size=n, max_size=n))
    iu, iv = np.triu_indices(n, k=1)
    keep = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    texts = {"e.tsv": "".join(f"{ext[u]}\t{ext[v]}\n"
                              for u, v, k in zip(iu, iv, keep) if k),
             "c.tsv": "".join(f"{x}\t{name}\n" for x, name in zip(ext, names))}
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(sorted(texts)))
        edit = data.draw(st.sampled_from(sorted(GRAPH_EDITS)))
        at = data.draw(st.integers(0, len(texts[name])))
        texts[name] = GRAPH_EDITS[edit](texts[name], at)
    d = tmp_path_factory.mktemp("graph")
    for name, text in texts.items():
        (d / name).write_bytes(text.encode())
    edges, cats = str(d / "e.tsv"), str(d / "c.tsv")

    got = _graph_outcome(edges, cats)
    with mock.patch.object(fileio, "_read_records", lambda path, dtype: None):
        assert _graph_outcome(edges, cats) == got
    if isinstance(got, str):
        assert re.match(rf"({re.escape(edges)}|{re.escape(cats)}):\d+: ", got)
    else:
        want_edges, want_labels, want_names = naive_load_graph(edges, cats)
        assert got == ([list(e) for e in want_edges], want_labels, want_names)


def test_load_graph_reads_text_files_named_like_archives(tmp_path):
    """``np.loadtxt`` would open these names through a decompressor, and
    it reads a path given as bytes as lines of bytes."""
    edges = write(tmp_path / "e.tsv.gz", "0\t1\n")
    cats = write(tmp_path / "c.tsv.xz", "0\ta\n1\tb\n")
    assert _graph_outcome(edges, cats) == ([[0, 1]], [0, 1], ("a", "b"))
    edges = write(tmp_path / "e.tsv", "0\t1\n").encode()
    cats = write(tmp_path / "c.tsv", "0\ta\n1\tb\n").encode()
    assert _graph_outcome(edges, cats) == ([[0, 1]], [0, 1], ("a", "b"))


def test_valid_graph_files_are_not_split_into_lines(tmp_path, monkeypatch):
    """A valid file is parsed once, and the line splitter, which only
    names a refused line, never runs."""
    splits = []
    split = fileio._numbered_lines
    monkeypatch.setattr(fileio, "_numbered_lines",
                        lambda *args, **kw: splits.append(args) or split(*args, **kw))
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    g, part = synthetic_graph(SyntheticParams(category_sizes=(40, 300, 700), k=4,
                                              seed=3))
    save_graph(g, part, edges, cats)
    for edge_text, cat_text in [
            (edges.read_text(), cats.read_text()),
            ("# header\r\n\r\n5\t-2\r\n\n+1\t\u30005\n-2\t+1",
             "# header\n 5 \ta\n\n+1\tb\n-2\tb"),
            ("5\t1\n", "5\tcity # 2\n1\tNew York \n")]:
        edges.write_bytes(edge_text.encode())
        cats.write_bytes(cat_text.encode())
        want_edges, want_labels, want_names = naive_load_graph(edges, cats)
        assert _graph_outcome(edges, cats) == (
            [list(e) for e in want_edges], want_labels, want_names)
    assert splits == []


# ---------------------------------------------------------------------------
# writers: the same bytes as the per-line writers of tests/_reference.py,
# and no file for a weight the readers would refuse

# the least weight the readers take, a subnormal: at 2**-1024 and below
# a weight's inverse overflows
LEAST_WEIGHT = math.nextafter(2.0 ** -1024, 1)
SPECIAL_WEIGHTS = (LEAST_WEIGHT, 1e308, 0.1 + 0.2, 1e16, 1.0)
weights_st = st.one_of(st.sampled_from(SPECIAL_WEIGHTS),
                       st.floats(min_value=LEAST_WEIGHT, max_value=1e308))
ids_st = st.integers(0, 2**63 - 1)
names_st = st.text(alphabet='aZ é中ß#"\\-', max_size=6)
seeds_st = st.one_of(st.none(), st.integers(0, 2**63),
                     st.lists(st.integers(0, 2**32), max_size=4))


def _same_bytes(tmp, write_new, write_naive, *files):
    write_new(*(tmp / f"new_{f}" for f in files))
    write_naive(*(tmp / f"naive_{f}" for f in files))
    for f in files:
        assert (tmp / f"new_{f}").read_bytes() == (tmp / f"naive_{f}").read_bytes()


@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(ids_st, ids_st, weights_st), max_size=12),
       sampler=names_st, seed=seeds_st, start=st.one_of(st.none(), ids_st),
       burn_in=st.integers(0, 10**6), thin=st.integers(1, 50))
@example(draws=[(0, 2**63 - 1, w) for w in SPECIAL_WEIGHTS], sampler="中é",
         seed=[3, 2**32], start=2**63 - 1, burn_in=0, thin=1)
@example(draws=[], sampler="rw", seed=None, start=None, burn_in=0, thin=1)
def test_save_trace_matches_per_line_writer(tmp_path_factory, draws, sampler,
                                            seed, start, burn_in, thin):
    steps, nodes, weights = (list(col) for col in zip(*draws)) if draws \
        else ([], [], [])
    trace = SampleTrace(nodes=np.array(nodes, dtype=np.int64),
                        steps=np.array(steps, dtype=np.int64),
                        weights=np.array(weights, dtype=float),
                        sampler=sampler, seed=seed, start=start,
                        burn_in=burn_in, thin_interval=thin)
    _same_bytes(tmp_path_factory.mktemp("trace"),
                lambda p: save_trace(trace, p),
                lambda p: naive_save_trace(trace, p), "t.jsonl")


@st.composite
def logs(draw):
    mode = draw(st.sampled_from(["induced", "star"]))
    c = draw(st.integers(1, 4))
    n = draw(st.integers(0, 10))
    nodes = draw(st.lists(ids_st, min_size=n, max_size=n))
    counts = np.array(draw(st.lists(
        st.one_of(st.just([0] * c),
                  st.lists(st.integers(0, 10**6), min_size=c, max_size=c)),
        min_size=n, max_size=n)), dtype=np.int64).reshape(n, c)
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=6)) if nodes else []
    return ObservationLog(
        mode=mode, nodes=np.array(nodes, dtype=np.int64),
        categories=np.array(draw(st.lists(st.integers(0, c - 1),
                                          min_size=n, max_size=n)), dtype=np.int64),
        degrees=counts.sum(axis=1),
        weights=np.array(draw(st.lists(weights_st, min_size=n, max_size=n)),
                         dtype=float),
        num_categories=c,
        category_names=tuple(draw(st.lists(names_st, min_size=c, max_size=c))),
        population_hint=draw(st.one_of(st.none(), st.integers(1, 2**63 - 1))),
        induced_edges=(np.array(edges, dtype=np.int64).reshape(-1, 2)
                       if mode == "induced" else None),
        neighbor_counts=counts if mode == "star" else None)


def _log(mode, n, **fields):
    return ObservationLog(
        mode=mode, nodes=2**63 - 1 - np.arange(n, dtype=np.int64),
        categories=np.zeros(n, dtype=np.int64),
        degrees=np.zeros(n, dtype=np.int64),
        weights=np.array(SPECIAL_WEIGHTS[:n], dtype=float), num_categories=2,
        category_names=("é", "中 x"), **fields)


@settings(max_examples=60, deadline=None)
@given(log=logs())
@example(log=_log("star", 4, neighbor_counts=np.zeros((4, 2), dtype=np.int64)))
@example(log=_log("induced", 5, population_hint=None,
                  induced_edges=np.zeros((0, 2), dtype=np.int64)))
@example(log=_log("star", 0, population_hint=7,
                  neighbor_counts=np.zeros((0, 2), dtype=np.int64)))
def test_save_log_matches_per_line_writer(tmp_path_factory, log):
    _same_bytes(tmp_path_factory.mktemp("log"),
                lambda p: save_log(log, p),
                lambda p: naive_save_log(log, p), "log.jsonl")


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_save_graph_matches_per_line_writer(tmp_path_factory, n, data):
    iu, iv = np.triu_indices(n, k=1)
    keep = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    g = Graph.from_edges(n, np.column_stack([iu, iv])[np.array(keep, dtype=bool)])
    names = tuple(data.draw(st.lists(names_st, min_size=1, max_size=4)))
    part = CategoryPartition(
        labels=np.array(data.draw(st.lists(st.integers(0, len(names) - 1),
                                           min_size=n, max_size=n)), dtype=np.int64),
        names=names)
    _same_bytes(tmp_path_factory.mktemp("graph"),
                lambda e, c: save_graph(g, part, e, c),
                lambda e, c: naive_save_graph(g, part, e, c), "e.tsv", "c.tsv")


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -1.0,
                                 1e-320, 2.0 ** -1024])
def test_writers_refuse_weights_the_readers_refuse(tmp_path, three_color_graph,
                                                   bad):
    g, part = three_color_graph
    trace = sample_rw(g, 5, start=0, seed=8)
    weights = trace.weights.copy()
    weights[2] = bad
    log = observe_star(g, part, trace)
    for save, item in [(save_trace, dataclasses.replace(trace, weights=weights)),
                       (save_log, dataclasses.replace(log, weights=weights))]:
        with pytest.raises(ValueError,
                           match="draw 2: weight must be positive and finite"):
            save(item, tmp_path / "out.jsonl")
        assert not (tmp_path / "out.jsonl").exists()


# ---------------------------------------------------------------------------
# readers: each non-blank line is one JSON value, read as json.loads reads it

TRACE_META = {"sampler": "rw", "seed": 1, "start": 0, "burn_in": 0, "thin": 1}
LOG_META = {"mode": "star", "N": None, "categories": ["a"]}
# (lines after the meta line, the line json.loads refuses). The joined
# parse "[" + ",".join(lines) + "]" reads the first case as one record
# per line, and wrapping each line in [...] reads the second as one
# value per line.
JSONL_TRAPS = {
    "two values on one line, a string across two": (
        ['{"i": 0, "v": 0, "w": 1.0}, {"i": 1, "v": 1, "w": 1.0}',
         '{"i": 2, "v": 3, "w": 1.0, "x": "}', '{"}'], 2),
    "brackets across lines": (["1],[[[[1]", "[1]]]"], 2),
    "string across lines": (['{"i": 0, "v": 0, "w": 1.0}', '"', '"'], 3),
    "BOM": (['\ufeff{"i": 0, "v": 0, "w": 1.0}'], 2),
    "trailing value": (['{"i": 0, "v": 0, "w": 1.0} 1'], 2),
}


@pytest.mark.parametrize("loader", [load_trace, load_log])
@pytest.mark.parametrize("case", sorted(JSONL_TRAPS))
def test_jsonl_readers_refuse_what_json_loads_refuses(tmp_path, loader, case):
    lines, bad_line = JSONL_TRAPS[case]
    meta = TRACE_META if loader is load_trace else LOG_META
    path = write(tmp_path / "bad.jsonl",
                 "\n".join([json.dumps(meta), *lines]) + "\n")
    with pytest.raises(FileFormatError, match=f"bad.jsonl:{bad_line}: invalid JSON"):
        loader(path)


def test_jsonl_readers_accept_surrounding_spaces(tmp_path, three_color_graph):
    g, part = three_color_graph
    trace = sample_rw(g, 6, start=0, seed=8)
    for save, load, item in [(save_trace, load_trace, trace),
                             (save_log, load_log, observe_star(g, part, trace))]:
        save(item, tmp_path / "good.jsonl")
        lines = (tmp_path / "good.jsonl").read_text().splitlines()
        spaced = [" " * (i % 3) + ln + "\t \r" * (i % 2)
                  for i, ln in enumerate(lines)]
        back = load(write(tmp_path / "spaced.jsonl", "\n".join(spaced) + "\n"))
        assert np.array_equal(back.nodes, item.nodes)
        assert np.array_equal(back.weights, item.weights)


def test_jsonl_readers_refuse_a_bom_before_the_meta_line(tmp_path):
    path = write(tmp_path / "bom.jsonl", "\ufeff" + json.dumps(TRACE_META) + "\n")
    with pytest.raises(FileFormatError,
                       match=r"bom.jsonl:1: invalid JSON \(Unexpected UTF-8 BOM"):
        load_trace(path)


# Characters str.splitlines() breaks at but JSON Lines does not: the
# first three may stand raw in a JSON string, the rest are control
# characters, which json.loads refuses there.
RAW_IN_STRINGS = ["\u2028", "\u2029", "\x85"]
CONTROL = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


def _jsonl_with(kind, meta_char, draw_char):
    if kind == "trace":
        meta = {"sampler": f"rw{meta_char}x", "seed": 3}
        draws = [{"i": i, "v": v, "w": 1.0} for i, v in enumerate((4, 7))]
    else:
        meta = {"mode": "induced", "N": 10, "categories": [f"a{meta_char}b", "c"]}
        draws = [{"v": v, "c": c, "deg": 2, "w": 1.0} for v, c in ((4, 0), (7, 1))]
    draws[1]["note"] = f"x{draw_char}y"
    rows = [meta, *draws] + ([{"induced_edges": [[4, 7]]}] if kind == "log" else [])
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)


@pytest.mark.parametrize("char", RAW_IN_STRINGS)
@pytest.mark.parametrize("kind", ["trace", "log"])
def test_jsonl_lines_end_only_at_newlines(tmp_path, kind, char):
    path = write(tmp_path / "f.jsonl", _jsonl_with(kind, char, char))
    if kind == "trace":
        back = load_trace(path)
        assert back.sampler == f"rw{char}x" and back.nodes.tolist() == [4, 7]
    else:
        back = load_log(path)
        assert back.category_names == (f"a{char}b", "c")
        assert back.nodes.tolist() == [4, 7]
        assert back.induced_edges.tolist() == [[4, 7]]


@pytest.mark.parametrize("char", CONTROL)
@pytest.mark.parametrize("kind", ["trace", "log"])
def test_jsonl_control_characters_in_strings_name_their_line(tmp_path, kind,
                                                             char):
    loader = load_trace if kind == "trace" else load_log
    escaped = json.dumps(char)[1:-1]   # json.dumps writes \u000b and so on
    for lineno, chars in ((1, (char, "")), (3, ("", char))):
        text = _jsonl_with(kind, *chars).replace(escaped, char)
        path = write(tmp_path / "f.jsonl", text)
        with pytest.raises(FileFormatError, match=fr"f.jsonl:{lineno}: invalid "
                           r"JSON \(Invalid control character"):
            loader(path)


COMPACT_LINES = "".join(f'{{"i": {i}, "v": [{i}, "x"]}}\n' for i in range(1000))


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet='{}[]," :1.e-\\\ufeff\t\r\n\x0ctrunl', max_size=40))
# compact lines the C scanner reads whole, then one it reads only in part
# and, in the second, an invalid line after it
@example(text=COMPACT_LINES + ' {"w": 1.5} \n')
@example(text=COMPACT_LINES + ' {"w": 1.5} \n\n{"w": 1.5,}\n')
def test_read_jsonl_matches_per_line_json_loads(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    path.write_text('{"m": 0}\n' + text)
    try:
        want = naive_read_jsonl(path)
    except ValueError as exc:
        with pytest.raises(FileFormatError, match=f"f.jsonl:{exc.args[0]}: invalid JSON"):
            _read_jsonl(path, "trace")
        return
    meta_line, meta, lines, values = _read_jsonl(path, "trace")
    assert [(meta_line, meta), *zip(lines.tolist(), values)] == want


# ---------------------------------------------------------------------------
# DOT labels and estimate files


def test_dot_labels_escape_quotes_and_backslashes(tmp_path, three_color_graph):
    g, _ = three_color_graph
    cg = exact_category_graph(g, CategoryPartition(
        labels=np.array([0, 0, 0, 1, 1, 2, 2, 2]), names=("x", "y", "z")))
    export_category_graph(cg, "dot", tmp_path / "g.dot",
                          names=('a"b', "c\\d", '\\"'))
    text = (tmp_path / "g.dot").read_text()
    assert '0 [label="a\\"b", size=3.0];' in text
    assert '1 [label="c\\\\d", size=2.0];' in text
    assert '2 [label="\\\\\\"", size=3.0];' in text


def _saved_estimate(tmp_path, three_color_graph):
    g, part = three_color_graph
    log = observe_star(g, part, sample_rw(g, 40, start=0, seed=11))
    size_var, weight_var = bootstrap_variance(log, 5, seed=12, population=8,
                                              size_estimator="star")
    est = dataclasses.replace(
        estimate_category_graph(log, population=8, size_estimator="star"),
        size_variances=size_var, weight_variances=weight_var)
    save_estimate(est, tmp_path / "est.json")
    return json.loads((tmp_path / "est.json").read_text())


_DROP = object()


def _put(value, *keys):
    """Set (or, for _DROP, delete) the value at a key path."""
    def mutate(payload):
        *path, last = keys
        for key in path:
            payload = payload[key]
        if value is _DROP:
            del payload[last]
        else:
            payload[last] = value
    return mutate


# mutation of a saved estimate -> message after "bad.json: "
MALFORMED_ESTIMATES = {
    "no categories": (_put(_DROP, "categories"), "missing key 'categories'"),
    "no edges": (_put(_DROP, "edges"), "missing key 'edges'"),
    "no N_mode": (_put(_DROP, "N_mode"), "missing key 'N_mode'"),
    "category without name": (_put(_DROP, "categories", 1, "name"),
                              r"missing key 'categories\[1\]\.name'"),
    "edge without weight": (_put(_DROP, "edges", 0, "weight"),
                            r"missing key 'edges\[0\]\.weight'"),
    "size as a string": (_put("3", "categories", 0, "size"),
                         r"'categories\[0\]\.size' must be a finite number, got '3'"),
    "NaN size": (_put(math.nan, "categories", 2, "size"),
                 r"'categories\[2\]\.size' must be a finite number, got nan"),
    "infinite weight variance": (
        _put(math.inf, "edges", 1, "weight_var"),
        r"'edges\[1\]\.weight_var' must be a finite number, got inf"),
    "boolean category id": (_put(True, "categories", 0, "id"),
                            r"'categories\[0\]\.id' must be an integer"),
    "negative category id": (
        _put(-5, "categories", 0, "id"),
        r"'categories\[0\]\.id' must be an integer >= 0, got -5"),
    "repeated category id": (
        _put(0, "categories", 2, "id"),
        r"'categories\[2\]\.id' repeats an earlier category, got 0"),
    "name not a string": (_put(7, "categories", 0, "name"),
                          r"'categories\[0\]\.name' must be a string"),
    "categories not a list": (_put({}, "categories"),
                              "'categories' must be a list"),
    "edge not an object": (_put([0, 1], "edges", 0),
                           r"edges\[0\] must be a JSON object"),
    "infinite N": (_put(math.inf, "N"), "'N' must be a finite number"),
    "N beyond the largest float": (_put(10**400, "N"),
                                   "'N' must be a finite number"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ESTIMATES))
def test_load_estimate_names_file_and_key(tmp_path, three_color_graph, case):
    mutate, message = MALFORMED_ESTIMATES[case]
    payload = _saved_estimate(tmp_path, three_color_graph)
    mutate(payload)
    path = write(tmp_path / "bad.json", json.dumps(payload))
    with pytest.raises(FileFormatError, match=f"bad.json: {message}"):
        load_estimate(path)


@pytest.mark.parametrize("text, message", [
    ("{}", "bad.json: missing key 'N_mode'"),
    ("[]", "bad.json: estimate must be a JSON object"),
    ('{"N_mode": ', r"bad.json:1: invalid JSON \(Expecting value\)"),
])
def test_load_estimate_refuses_other_documents(tmp_path, text, message):
    with pytest.raises(FileFormatError, match=message):
        load_estimate(write(tmp_path / "bad.json", text))


def test_readers_take_the_least_weight_and_integer_weights(tmp_path):
    records = [{"sampler": "rw"},
               {"i": 0, "v": 3, "w": LEAST_WEIGHT},
               {"i": 1, "v": 4, "w": 2},
               {"i": 2, "v": 5, "w": int(sys.float_info.max)}]
    trace = load_trace(_write_records(tmp_path / "t.jsonl", records))
    assert trace.weights.tolist() == [LEAST_WEIGHT, 2.0, sys.float_info.max]


@pytest.mark.parametrize("load, meta", [(load_trace, {"sampler": "rw"}),
                                        (load_log, {"mode": "star"})])
def test_readers_name_a_line_nested_beyond_the_recursion_limit(tmp_path, load,
                                                               meta):
    path = tmp_path / "deep.jsonl"
    path.write_text(json.dumps(meta) + "\n" + "[" * 100_000 + "]" * 100_000
                    + "\n")
    with pytest.raises(FileFormatError, match=r"deep.jsonl:2: invalid JSON "
                       r"\(maximum recursion depth exceeded"):
        load(path)


# values at the edges of the int64 and weight rules, or of any JSON type
column_values = st.one_of(
    st.sampled_from([int(sys.float_info.max), int(sys.float_info.max) + 1,
                     1e-320, 2.0 ** -1024, LEAST_WEIGHT, 2**63 - 1, 2**63,
                     -2**63, -2**63 - 1, float("inf"), float("nan"), 0.0]),
    st.one_of(st.integers(-2**64, 2**64), st.floats(), st.booleans(),
              st.none(), st.text(max_size=2),
              st.lists(st.integers(), max_size=1)))


@st.composite
def column_records(draw):
    """Records of valid "v" and "w" values, all float or all integer
    weights or a mix, with up to two entries made an edge value or one of
    any JSON type, dropped, or the whole record not an object."""
    weights = draw(st.sampled_from([
        st.floats(LEAST_WEIGHT, 1e308), st.integers(1, 10**20),
        st.one_of(st.floats(LEAST_WEIGHT, 1e308), st.integers(1, 10**20))]))
    records = draw(st.lists(st.fixed_dictionaries({
        "v": st.integers(-2**63, 2**63 - 1), "w": weights}), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if records else 0):
        i = draw(st.integers(0, len(records) - 1))
        key = draw(st.sampled_from(["v", "w"]))
        change = draw(st.sampled_from(["value", "value", "drop", "record"]))
        if change == "record":
            records[i] = draw(st.sampled_from([[1], "v", 7, None]))
        elif type(records[i]) is dict and change == "drop":
            records[i].pop(key, None)
        elif type(records[i]) is dict:
            records[i][key] = draw(column_values)
    return records


@settings(max_examples=300, deadline=None)
@given(records=column_records())
@example(records=[{"v": 0, "w": 1.5}, {"v": 1, "w": 1e-320}])
@example(records=[{"v": 0, "w": 2}, {"v": 1, "w": int(sys.float_info.max) + 1}])
@example(records=[{"v": 2**63 - 1, "w": 1.0}, {"v": 2**63, "w": 1.0}])
def test_whole_columns_are_taken_or_refused_as_value_by_value(records):
    """A column checked whole gives the array, or names the line with the
    message, that checking each value gives."""
    keys = {"v": fileio._INT64, "w": fileio._WEIGHT}
    lines = list(range(2, len(records) + 2))

    def outcome():
        try:
            return [(c.dtype, c.tolist())
                    for c in fileio._columns("f", lines, records, keys)]
        except FileFormatError as exc:
            return str(exc)

    with mock.patch.object(fileio, "_whole_column", return_value=None):
        expected = outcome()
    assert outcome() == expected
