import dataclasses
import itertools
import json
import math
import os
import pickle
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from categraph import (
    CategoryGraph,
    CategoryPartition,
    FileFormatError,
    Graph,
    InvalidParameter,
    SyntheticParams,
    bootstrap_variance,
    estimate_category_graph,
    exact_category_graph,
    observe_induced,
    observe_star,
    sample_rw,
    synthetic_graph,
)
from categraph import fileio, observe
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
from categraph.estimate import ESTIMATOR_PAIRS
from categraph.graph import _lookup
from categraph.observe import ObservationLog
from categraph.sampling import SampleTrace

from _reference import (
    naive_load_graph,
    naive_log_refusal,
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


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_archive_named_graph_files_name_the_same_line(tmp_path, case, suffix):
    """Names that ``np.loadtxt`` would decompress are parsed from the kept
    lines' text, and name the same line with the same message."""
    edge_text, cat_text, message = MALFORMED_GRAPHS[case]
    edges = write(tmp_path / f"e.tsv{suffix}", edge_text)
    cats = write(tmp_path / f"c.tsv{suffix}", cat_text)
    message = message.replace(".tsv:", f".tsv{suffix}:")
    with pytest.raises(FileFormatError, match=re.escape(message)):
        load_graph(edges, cats)


# (number of valid lines before the refused one, valid lines after it)
BISECTION_CASES = [(1000, 0), (512, 40), (0, 0), (0, 700), (1, 0), (255, 1)]


@pytest.mark.parametrize("suffix", ["", ".gz"])
@pytest.mark.parametrize("before, after", BISECTION_CASES)
def test_bisection_names_the_refused_line_at_any_row(tmp_path, before, after,
                                                     suffix):
    """The refused line is found wherever the halving splits fall: last
    after 1,000 valid lines, at row 513, alone, first, and next to the
    boundaries of a power of two; blank and comment lines count."""
    ids = range(before + after + 2)
    cats = write(tmp_path / f"c.tsv{suffix}",
                 "# c\n" + "".join(f"{i}\tx\n" for i in ids))
    valid = [f"{i}\t{i + 1}\n" for i in ids[:-1]]
    edges = tmp_path / f"e.tsv{suffix}"
    for refused, message in [("0\tx\n", "node ids must be"),
                             ("0\t1\t2\n", "expected 'u<TAB>v'")]:
        write(edges, "\n" + "".join(valid[:before]) + refused
              + "".join(valid[before:before + after]))
        with pytest.raises(FileFormatError,
                           match=re.escape(f"{edges}:{before + 2}: {message}")):
            load_graph(str(edges), cats)
    labels = [f"{i}\tx\n" for i in ids]
    for refused, message in [("x\ty\n", "node id 'x' is not an integer"),
                             ("7\n", "expected 'node<TAB>category'")]:
        write(tmp_path / f"c.tsv{suffix}", "# c\n" + "".join(labels[:before])
              + refused + "".join(labels[before:before + after]))
        with pytest.raises(FileFormatError, match=re.escape(
                f"c.tsv{suffix}:{before + 2}: {message}")):
            load_graph(str(edges), cats)


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
    """External ids of every shape the id lookup meets: sparse, unsorted
    and partly negative; dense 0..N-1 in shuffled order; dense and
    shifted by an offset, which the range check maps; dense with gaps,
    with one gap among the last ids and with one gap mid-way, which the
    search maps; and sparse with both int64 extremes, so that a
    difference of ids overflows. Comments and blank lines are scattered
    through both files."""
    rng = np.random.default_rng(seed)
    n = 300
    sparse = rng.choice(np.arange(-10**12, 10**12, 7919), size=n, replace=False)
    extremes = sparse.copy()
    extremes[rng.choice(n, size=2, replace=False)] = [-2**63, 2**63 - 1]
    gaps = rng.permutation(n + 40)[:n]
    last_gap = np.delete(np.arange(n + 1), n - int(rng.integers(1, 10)))
    mid_gap = np.delete(np.arange(n + 1), n // 2)
    for ext in (sparse, rng.permutation(n),
                rng.permutation(n) + int(rng.integers(-10**15, 10**15)),
                gaps, rng.permutation(last_gap), rng.permutation(mid_gap),
                extremes):
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


def _only_edges(edges):
    def mutate(records):
        records[1:] = [{"induced_edges": edges}]
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
    "edge endpoint below every drawn id": (
        "induced", _add_edge([-1, 0]), 8,
        r"induced edge has an undrawn endpoint, got \[-1, 0\]"),
    "no records and one edge": (
        "induced", _only_edges([[0, 1]]), 2,
        r"induced edge has an undrawn endpoint, got \[0, 1\]"),
    "edge of three nodes": ("induced", _add_edge([0, 1, 2]), 8,
                            r"induced_edges must be a list of \[u, v\] integer"),
    "fractional edge end": (
        "induced", _add_edge([0, 1.5]), 8,
        r"induced_edges must be a list of \[u, v\] integer pairs, got 1.5$"),
    "boolean edge end": (
        "induced", _add_edge([True, 0]), 8,
        r"induced_edges must be a list of \[u, v\] integer pairs, got True$"),
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


@st.composite
def log_lines(draw):
    """The JSON values of a log file's lines, of the kinds load_log reads,
    now and then breaking a rule: a node's draws share its category, weight
    and counts, listed in any key order, explicit zeros or not, unless a
    draw's id, category, degree, weight, a count or a key is rewritten or
    two of its counts swapped; induced edges join two drawn nodes, either
    way round, each pair once, unless a self-loop, an edge to a node never
    drawn or a pair's repeat is put among them."""
    mode = draw(st.sampled_from(["star", "induced"]))
    c = draw(st.integers(1, 4))
    names = draw(st.sampled_from([[], [f"c{b}" for b in range(c)]]))
    ints = st.integers(-1, c + 1)
    pool = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    nodes = {v: (draw(st.integers(0, c - 1)), draw(st.sampled_from([0.5, 1.0])),
                 draw(st.lists(st.integers(0, 3), min_size=c, max_size=c)))
             for v in pool}
    records = []
    for v in draw(st.lists(st.sampled_from(pool), max_size=6)):
        cat, w, counts = nodes[v]
        record = {"v": v, "c": cat, "deg": sum(counts), "w": w}
        edit = draw(st.sampled_from([None] * 12 + ["v", "c", "deg", "w", "count", "key",
                                                   "swap", "swap"]))
        if mode == "star":
            cells = draw(st.permutations(range(c)))
            if edit == "swap":
                counts = [counts[b] for b in cells]
            zeros = draw(st.booleans())
            record["nbr_cats"] = {str(b): counts[b] for b in cells if counts[b] or zeros}
        if edit in ("v", "c", "deg"):
            record[edit] = draw(ints)
        elif edit == "w":
            record["w"] = draw(st.sampled_from([0.5, 1.0, 2.0]))
        elif mode == "star" and edit in ("count", "key"):
            key = str(draw(ints) if edit == "key" else draw(st.integers(0, c - 1)))
            record["nbr_cats"][key] = draw(st.integers(-1, 3))
        records.append(record)
    lines = [{"mode": mode, "N": None, "categories": names}, *records]
    if mode == "induced":
        drawn = sorted({r["v"] for r in records})
        pairs = list(itertools.combinations(drawn, 2))
        edges = [list(e)[::draw(st.sampled_from([1, -1]))] for e in draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=4))] if pairs else []
        edit = draw(st.sampled_from([None, None, "loop", "undrawn", "repeat"]))
        if drawn and edit:
            x = draw(st.sampled_from(drawn))
            edge = {"loop": [x, x], "undrawn": [x, 9]}.get(edit) or (
                edges and draw(st.sampled_from(edges))[::-1])
            edges.insert(draw(st.integers(0, len(edges))), edge or [x, x])
        lines.append({"induced_edges": edges})
    return lines


@settings(max_examples=200, deadline=None)
@given(lines=log_lines())
# a node's later record lists the same counts in another key order, and
# with an explicit zero; then with one count changed
@example(lines=[{"mode": "star", "N": None, "categories": ["a", "b", "c"]},
                {"v": 4, "c": 0, "deg": 3, "w": 1.0, "nbr_cats": {"0": 1, "2": 2}},
                {"v": 4, "c": 0, "deg": 3, "w": 1.0, "nbr_cats": {"2": 2, "1": 0, "0": 1}}])
@example(lines=[{"mode": "star", "N": None, "categories": ["a", "b", "c"]},
                {"v": 4, "c": 0, "deg": 3, "w": 1.0, "nbr_cats": {"0": 1, "2": 2}},
                {"v": 4, "c": 0, "deg": 3, "w": 1.0, "nbr_cats": {"2": 1, "0": 2}}])
def test_load_log_refuses_the_line_the_rule_by_rule_oracle_names(tmp_path_factory, lines):
    """load_log names the line and message the per-record oracle finds first,
    or reads the log where it finds none, its counts the oracle's dense rows;
    save_log then writes that log, and a sidecar hit reads it back."""
    d = tmp_path_factory.mktemp("log")
    path = _write_records(d / "log.jsonl", lines)
    refusal = naive_log_refusal(path)
    if refusal is not None:
        line, message = refusal
        with pytest.raises(FileFormatError, match=re.escape(f"{path}:{line}: {message}") + "$"):
            load_log(path)
        return
    log = load_log(path)
    if log.mode == "star":
        c = log.num_categories
        assert log.neighbor_counts.tolist() == [
            [r["nbr_cats"].get(str(b), 0) for b in range(c)] for r in lines[1:]]
    save_log(log, d / "again.jsonl")
    with mock.patch.object(fileio, "_read_jsonl", side_effect=AssertionError):
        assert _fields(load_log(d / "again.jsonl")) == _fields(log)


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
    """An id between two labeled ids is not labeled, also next to the
    int64 extremes, where a difference of ids would overflow."""
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


@pytest.mark.parametrize("cat_text, edge_text, node", [
    ("12\tb\n10\ta\n20\ta\n", "10\t12\n20\t21\n", 21),
    ("12\tb\n10\ta\n20\ta\n", "10\t12\n12\t9\n", 9),
    ("-12\tb\n-10\ta\n-20\ta\n", "-10\t-12\n-20\t0\n", 0),
])
def test_load_graph_refuses_ids_beyond_a_non_contiguous_file(
        tmp_path, cat_text, edge_text, node):
    """The search of a file whose ids have gaps finds no label above the
    largest id, 0 included, or below the smallest."""
    cats = write(tmp_path / "c.tsv", cat_text)
    with pytest.raises(FileFormatError,
                       match=f"e.tsv:2: node {node} has no category label"):
        load_graph(write(tmp_path / "e.tsv", edge_text), cats)


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
    FileFormatError naming a line, is what the same texts give under
    ``.gz`` names, which are parsed from the kept lines' text, and a
    loaded graph is what ``naive_load_graph`` loads."""
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
        (d / f"{name}.gz").write_bytes(text.encode())
    edges, cats = str(d / "e.tsv"), str(d / "c.tsv")

    got = _graph_outcome(edges, cats)
    from_text = _graph_outcome(f"{edges}.gz", f"{cats}.gz")
    if isinstance(from_text, str):
        from_text = from_text.replace(".tsv.gz:", ".tsv:", 1)
    assert from_text == got
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


def test_load_graph_never_holds_the_file_beside_its_records(
        tmp_path, circulant, traced_peak):
    """20,000 edges, each line led by 500 spaces: the file's bytes are let
    go before the parse, so the traced peak stays below the edge file's
    size plus 32 bytes an edge (about 5 measured); held through the graph
    build, they added about 57."""
    g = circulant(2000, 10)
    edges = write(tmp_path / "e.tsv", "".join(
        f"{' ' * 500}{u}\t{v}\n" for u, v in g.edge_array.tolist()))
    cats = write(tmp_path / "c.tsv", "".join(f"{v}\ta\n" for v in range(2000)))
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_graph(edges, cats)))
    assert loaded[0][0] == g
    assert peak < (tmp_path / "e.tsv").stat().st_size + 32 * g.edge_count


def test_valid_graph_files_are_not_split_into_lines(tmp_path, monkeypatch):
    """A valid file is parsed once, and the line splitter, which only
    names a refused line, never runs."""
    splits = []
    split = fileio._kept_lines
    monkeypatch.setattr(fileio, "_kept_lines",
                        lambda *args: splits.append(args) or split(*args))
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
# the parsed-graph sidecar: a pair parsed once is read back, never in
# place of a parse of other bytes

def _loaded(edges, cats):
    """``load_graph``'s pair as plain values, its arrays' dtypes with them."""
    g, part = load_graph(edges, cats)
    return ([(a.tolist(), a.dtype) for a in (g.indptr, g.indices, part.labels)],
            part.names)


@settings(max_examples=60, deadline=None)
@given(ext=st.lists(st.one_of(st.integers(-20, 20), st.integers(-2**63, 2**63 - 1)),
                    min_size=1, max_size=10, unique=True),
       data=st.data())
def test_a_second_load_reads_the_sidecar_and_equals_the_parse(
        tmp_path_factory, ext, data):
    """Comments, CRLF, sparse ids, archive-like names, and non-ASCII and
    trailing-NUL category names: the second load, which parses nothing,
    equals the first, a parse, and the per-line reader's, all in int64."""
    n = len(ext)
    names = data.draw(st.lists(st.text(alphabet="a é\x00中", min_size=1, max_size=3),
                               min_size=n, max_size=n))
    names[0] += "\x00"   # numpy's str dtype would drop it
    iu, iv = np.triu_indices(n, k=1)
    keep = data.draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    suffix = data.draw(st.sampled_from(["", ".gz"]))
    d = tmp_path_factory.mktemp("graph")
    edges = write(d / f"e.tsv{suffix}", "# edges" + end + "".join(
        f"{ext[u]}\t{ext[v]}{end}" for u, v, k in zip(iu, iv, keep) if k))
    cats = write(d / f"c.tsv{suffix}", "# labels" + end + "".join(
        f"{x}\t{name}{end}" for x, name in zip(ext, names)))
    first = _loaded(edges, cats)
    assert (d / f"e.tsv{suffix}.categraph.npz").exists()
    with mock.patch.object(fileio, "_parse_graph", side_effect=AssertionError):
        assert _loaded(edges, cats) == first
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    want = Graph.from_edges(n, np.array(want_edges, np.int64).reshape(-1, 2))
    assert first == ([(want.indptr.tolist(), np.int64),
                      (want.indices.tolist(), np.int64),
                      (want_labels, np.int64)], want_names)


@pytest.mark.parametrize("rewritten", ["e.tsv", "c.tsv"])
def test_a_rewrite_of_the_same_size_and_time_is_parsed_again(tmp_path, rewritten):
    """The key is the files' bytes, not their size or modification time."""
    edges = write(tmp_path / "e.tsv", "0\t1\n1\t2\n")
    cats = write(tmp_path / "c.tsv", "0\ta\n1\tb\n2\tc\n")
    assert _loaded(edges, cats)[1] == ("a", "b", "c")
    path = tmp_path / rewritten
    stat = path.stat()
    path.write_text({"e.tsv": "0\t2\n1\t2\n", "c.tsv": "0\tc\n1\tb\n2\ta\n"}[rewritten])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size
    assert path.stat().st_mtime_ns == stat.st_mtime_ns
    g, part = load_graph(edges, cats)
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    assert g.edge_array.tolist() == [list(e) for e in want_edges]
    assert (part.labels.tolist(), part.names) == (want_labels, want_names)


def _rewrite_sidecar(path, drop=(), **changes):
    with np.load(path) as npz:
        arrays = {key: a for key, a in {**npz, **changes}.items() if key not in drop}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _stored_array(path, name):
    with np.load(path) as npz:
        return npz[name]


def _stored_meta(path):
    return json.loads(_stored_array(path, "meta").tobytes())


def _rewrite_meta(path, drop=(), **changes):
    """Rewrite the sidecar's JSON meta object, ``changes`` made and the
    keys ``drop`` names left out."""
    meta = {k: v for k, v in {**_stored_meta(path), **changes}.items() if k not in drop}
    _rewrite_sidecar(path, meta=json.dumps(meta).encode())


def _rewrite_entries(path, edit):
    """Rewrite a star log sidecar's (record, category, count) entries as
    ``edit`` returns them, given them as rows."""
    entries = _stored_array(path, "nbr_cats").reshape(-1, 3)
    _rewrite_sidecar(path, nbr_cats=np.asarray(edit(entries), np.int64).ravel())


def _count_below_zero(entries):
    """The entries with 9 moved from the first to a category its record has
    no entry in: a count below 0, each record's sum kept."""
    record = entries[0, 0]
    free = min({0, 1, 2} - set(entries[entries[:, 0] == record, 1].tolist()))
    moved = entries.copy()
    moved[0, 2] -= 9
    return np.vstack([moved, [[record, free, 9]]])


class _Unpickled:
    """Unpickled, it makes the directory ``path``, which the tests below
    find: no sidecar is ever unpickled."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


BROKEN_SIDECARS = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:200]),
    "not a zip": lambda path: path.write_bytes(b"PK not a zip archive"),
    "a pickle": lambda path: path.write_bytes(
        pickle.dumps(_Unpickled(path.parent / "unpickled"))),
    "wrong key": lambda path: (_rewrite_meta(path, names=["x", "y"]),
                               _rewrite_sidecar(path, key=b"\x00" * 32)),
    "index out of range": lambda path: _rewrite_sidecar(
        path, indices=np.array([1, 5, 0, 2, 1, 3, 2, 0], np.uint8)),
    "negative index": lambda path: _rewrite_sidecar(
        path, indices=np.array([1, -1, 0, 2, 1, 3, 2, 0])),
    "indptr falls": lambda path: _rewrite_sidecar(
        path, indptr=np.array([0, 2, 1, 6, 8, 8])),
    "indptr short of the indices": lambda path: _rewrite_sidecar(
        path, indptr=np.array([0, 2, 4, 6, 7, 7])),
    "label out of range": lambda path: _rewrite_sidecar(
        path, labels=np.array([0, 1, 2, 1, 1])),
    "float labels": lambda path: _rewrite_sidecar(
        path, labels=np.array([0.0, 1, 0, 1, 1])),
    "object labels": lambda path: _rewrite_sidecar(path, labels=np.array(
        [_Unpickled(path.parent / "unpickled")] * 5, dtype=object)),
    "names not strings": lambda path: _rewrite_meta(path, names=[0, 1]),
    "names not JSON": lambda path: _rewrite_sidecar(
        path, meta=b'{"names": [x], "connected": false}'),
    "labels missing": lambda path: _rewrite_sidecar(path, drop=("labels",)),
    "connectivity missing": lambda path: _rewrite_meta(path, drop=("connected",)),
    "connectivity an integer": lambda path: _rewrite_meta(path, connected=0),
    "connectivity in an array": lambda path: _rewrite_meta(path, connected=[False]),
    "connectivity a string": lambda path: _rewrite_meta(path, connected="false"),
    "connectivity null": lambda path: _rewrite_meta(path, connected=None),
    "meta not an object": lambda path: _rewrite_sidecar(
        path, meta=json.dumps([["a", "b"], False]).encode()),
    "meta missing": lambda path: _rewrite_sidecar(path, drop=("meta",)),
    # a trace's or a log's sidecar: its key, meta and record columns, and
    # a star log's nonzero counts as flat (record, category, count) entries,
    # or an induced log's edges
    "trace: wrong key": lambda path: _rewrite_sidecar(
        path, key=b"\x00" * 32, v=np.array([9, 9, 9, 9, 9])),
    "trace: weights missing": lambda path: _rewrite_sidecar(path, drop=("w",)),
    "trace: meta missing": lambda path: _rewrite_sidecar(path, drop=("meta",)),
    "trace: int32 nodes": lambda path: _rewrite_sidecar(
        path, v=np.array([0, 1, 0, 1, 0], np.int32)),
    "trace: big-endian steps": lambda path: _rewrite_sidecar(
        path, i=np.arange(5, dtype=">i8")),
    "trace: a weight short": lambda path: _rewrite_sidecar(path, w=np.ones(4)),
    "trace: weights in a column": lambda path: _rewrite_sidecar(
        path, w=np.ones((5, 1))),
    "trace: a zero weight": lambda path: _rewrite_sidecar(path, w=np.zeros(5)),
    "trace: object nodes": lambda path: _rewrite_sidecar(path, v=np.array(
        [_Unpickled(path.parent / "unpickled")] * 5, dtype=object)),
    "star log: wrong key": lambda path: _rewrite_sidecar(path, key=b"\x01" * 32),
    "star log: counts missing": lambda path: _rewrite_sidecar(path, drop=("nbr_cats",)),
    "star log: counts in two dimensions": lambda path: _rewrite_sidecar(
        path, nbr_cats=_stored_array(path, "nbr_cats").reshape(-1, 3)),
    "star log: float counts": lambda path: _rewrite_sidecar(
        path, nbr_cats=_stored_array(path, "nbr_cats").astype(float)),
    "star log: a negative count": lambda path: _rewrite_entries(
        path, lambda entries: entries * [1, 1, -1]),
    "star log: a count below 0, each sum kept": lambda path: _rewrite_entries(
        path, _count_below_zero),
    "star log: an entry of record n": lambda path: _rewrite_entries(
        path, lambda entries: np.vstack([entries, [[5, 0, 0]]])),
    "star log: an entry of record -1": lambda path: _rewrite_entries(
        path, lambda entries: np.vstack([entries, [[-1, 0, 0]]])),
    "star log: an entry of category C": lambda path: _rewrite_entries(
        path, lambda entries: np.vstack([entries, [[0, 3, 0]]])),
    "star log: an entry repeated": lambda path: _rewrite_entries(
        path, lambda entries: np.vstack([entries[:1], entries])),
    "star log: an entry cut short": lambda path: _rewrite_entries(
        path, lambda entries: entries.ravel()[:-1]),
    "star log: meta not JSON": lambda path: _rewrite_sidecar(path, meta=b"{x"),
    "induced log: edges missing": lambda path: _rewrite_sidecar(
        path, drop=("induced_edges",)),
    "induced log: an odd count of edge ends": lambda path: _rewrite_sidecar(
        path, induced_edges=np.zeros(3, np.int64)),
    "induced log: uint64 degrees": lambda path: _rewrite_sidecar(
        path, deg=np.zeros(5, np.uint64)),
    "induced log: object edges": lambda path: _rewrite_sidecar(
        path, induced_edges=np.array([[None, None]], dtype=object)),
}


def _graph_files(d):
    write(d / "e.tsv", "0\t1\n1\t2\n2\t3\n3\t0\n")
    write(d / "c.tsv", "0\ta\n1\tb\n2\ta\n3\tb\n4\tb\n")
    load_graph(d / "e.tsv", d / "c.tsv")


def _trace_files(d):
    save_trace(SampleTrace(nodes=np.array([0, 2, 0, 3, 4]), steps=np.arange(5),
                           weights=np.array([1.0, 0.5, 1.0, 2.0, 3.0]),
                           sampler="rw", seed=1, start=0, burn_in=0), d / "t.jsonl")


def _log_files(mode):
    def save(d):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        part = CategoryPartition(labels=np.array([0, 0, 1, 2, 2]),
                                 names=("a", "b", "c"))
        observer = observe_induced if mode == "induced" else observe_star
        save_log(observer(g, part, sample_rw(g, 5, start=0, seed=2)), d / "log.jsonl")
    return save


# each kind of sidecar: (write the files and the sidecar, the file it is
# kept beside, a load as plain values, the parse a hit does not call)
SIDECAR_KINDS = {
    "graph": (_graph_files, "e.tsv", lambda d: _loaded(d / "e.tsv", d / "c.tsv"),
              "_parse_graph"),
    "trace": (_trace_files, "t.jsonl",
              lambda d: _fields(load_trace(d / "t.jsonl")), "_read_jsonl"),
    **{f"{mode} log": (_log_files(mode), "log.jsonl",
                       lambda d: _fields(load_log(d / "log.jsonl")), "_read_jsonl")
       for mode in ("star", "induced")},
}


def _fields(item):
    """A trace's or log's fields, each array as its bytes, dtype, shape and
    order, so that equal values are equal bit for bit and laid out alike."""
    return {f.name: (v.tobytes(), v.dtype, v.shape, v.flags.c_contiguous,
                     v.flags.f_contiguous)
            if isinstance(v, np.ndarray) else v
            for f in dataclasses.fields(item) for v in [getattr(item, f.name)]}


@pytest.mark.parametrize("case", sorted(BROKEN_SIDECARS))
def test_a_broken_sidecar_is_ignored_and_replaced(tmp_path, case):
    """A sidecar that does not hold the key, cannot be read without a
    pickle, or fails a check is parsed past, and written again: by the
    next graph load, or by the next write of the trace or log."""
    kind = case.split(": ")[0] if ": " in case else "graph"
    write_files, name, load, parse = SIDECAR_KINDS[kind]
    write_files(tmp_path)
    want = load(tmp_path)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert f"{name}.categraph.npz" in files
    BROKEN_SIDECARS[case](tmp_path / f"{name}.categraph.npz")
    with mock.patch.object(fileio, parse, wraps=getattr(fileio, parse)) as parsed:
        assert load(tmp_path) == want
    assert parsed.called
    if kind != "graph":
        write_files(tmp_path)
    with mock.patch.object(fileio, parse, side_effect=AssertionError):
        assert load(tmp_path) == want
    assert sorted(p.name for p in tmp_path.iterdir()) == files


# each kind's file edited in place to the same length, still readable:
# one edge end of the graph, the trace's seed, the logs' population hint
SAME_LENGTH_EDITS = {"graph": (b"2\t3\n", b"2\t4\n"),
                     "trace": (b'"seed": 1', b'"seed": 7'),
                     "star log": (b'"N": 5', b'"N": 7'),
                     "induced log": (b'"N": 5', b'"N": 7')}


def _thread_count_kept(load, *args):
    """``load(*args)``, or the FileFormatError it raises, once the threads
    alive after the call are those alive before it."""
    before = threading.active_count()
    try:
        return load(*args)
    except FileFormatError as exc:
        return str(exc)
    finally:
        assert threading.active_count() == before


@pytest.mark.parametrize("kind", sorted(SIDECAR_KINDS))
def test_a_file_edited_in_place_after_its_sidecar_is_parsed(tmp_path, kind):
    """The key is hashed beside the sidecar's read and compared before a
    hit is served: a same-length edit is parsed, as the load of the file
    without a sidecar is; no load, hit, stale, missed or refused, leaves a
    thread behind."""
    write_files, name, load, parse = SIDECAR_KINDS[kind]
    write_files(tmp_path)
    path, sidecar = tmp_path / name, tmp_path / f"{name}.categraph.npz"
    with mock.patch.object(fileio, parse, side_effect=AssertionError):
        before = _thread_count_kept(load, tmp_path)
    old, new = SAME_LENGTH_EDITS[kind]
    text = path.read_bytes()
    assert text.count(old) == 1
    path.write_bytes(text.replace(old, new))
    with mock.patch.object(fileio, parse, wraps=getattr(fileio, parse)) as parsed:
        edited = _thread_count_kept(load, tmp_path)
    assert parsed.called and edited != before
    sidecar.unlink(missing_ok=True)
    assert _thread_count_kept(load, tmp_path) == edited
    path.write_bytes(text.replace(old, b"x" * len(old)))   # refused
    assert isinstance(_thread_count_kept(load, tmp_path), str)


@pytest.mark.parametrize("kind", ["trace", "star log", "induced log"])
def test_a_read_without_a_sidecar_hashes_nothing(tmp_path, kind):
    """A trace or log read with no sidecar beside its file parses it and
    hashes nothing, as no key would be compared, and leaves no thread."""
    write_files, name, load, _ = SIDECAR_KINDS[kind]
    write_files(tmp_path)
    want = load(tmp_path)
    (tmp_path / f"{name}.categraph.npz").unlink()
    with mock.patch.object(fileio, "_key", side_effect=AssertionError):
        assert _thread_count_kept(load, tmp_path) == want


def test_a_pair_rewritten_during_its_parse_is_not_kept(tmp_path, monkeypatch):
    """The files are hashed again after the parse; where they changed, the
    parse of the earlier bytes is not kept under the earlier key."""
    edges = write(tmp_path / "e.tsv", "0\t1\n")
    cats = write(tmp_path / "c.tsv", "0\ta\n1\tb\n2\tc\n")
    parse = fileio._parse_graph

    def parse_then_rewrite(*paths):
        pair = parse(*paths)
        write(tmp_path / "e.tsv", "1\t2\n")
        return pair

    monkeypatch.setattr(fileio, "_parse_graph", parse_then_rewrite)
    assert load_graph(edges, cats)[0].edge_array.tolist() == [[0, 1]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv", "e.tsv"]


@pytest.mark.parametrize("refusal", ["read-only directory", "disk full"])
def test_a_sidecar_the_directory_refuses_leaves_no_file(tmp_path, monkeypatch,
                                                       refusal):
    """The load gives the parse and writes nothing beside the graph files.
    A read-only directory refuses the temporary file; where the test runs
    with the rights to write there regardless, the refusal is simulated."""
    d = tmp_path / "graph"
    d.mkdir()
    edges = write(d / "e.tsv", "0\t1\n")
    cats = write(d / "c.tsv", "0\ta\n1\tb\n")
    if refusal == "read-only directory":
        d.chmod(0o555)
        if os.access(d, os.W_OK):
            monkeypatch.setattr(fileio.tempfile, "mkstemp", mock.Mock(
                side_effect=PermissionError(13, "Permission denied")))
    else:
        monkeypatch.setattr(fileio.np.lib.format, "write_array_header_1_0", mock.Mock(
            side_effect=OSError(28, "No space left on device")))
    try:
        g, part = load_graph(edges, cats)
        assert (g.edge_array.tolist(), part.names) == ([[0, 1]], ("a", "b"))
        assert sorted(p.name for p in d.iterdir()) == ["c.tsv", "e.tsv"]
    finally:
        d.chmod(0o755)


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHS))
def test_a_refused_pair_names_its_line_and_leaves_no_sidecar(tmp_path, case):
    """A refusal names the line it did before the sidecar, writes nothing,
    and a sidecar of the files' earlier, valid bytes does not hide it."""
    edge_text, cat_text, message = MALFORMED_GRAPHS[case]
    edges = write(tmp_path / "e.tsv", edge_text)
    cats = write(tmp_path / "c.tsv", cat_text)
    with pytest.raises(FileFormatError, match=message):
        load_graph(edges, cats)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tsv", "e.tsv"]
    write(tmp_path / "e.tsv", "0\t1\n")
    write(tmp_path / "c.tsv", "0\ta\n1\tb\n")
    load_graph(edges, cats)
    write(tmp_path / "e.tsv", edge_text)
    write(tmp_path / "c.tsv", cat_text)
    with pytest.raises(FileFormatError, match=message):
        load_graph(edges, cats)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.tsv", "e.tsv", "e.tsv.categraph.npz"]


def test_a_sidecar_load_never_holds_the_file(tmp_path, circulant, traced_peak):
    """The graph of ``test_load_graph_never_holds_the_file_beside_its_records``
    loaded a second time: the files are hashed 64 KiB at a time and nothing is parsed, so the traced peak stays
    below two such blocks and 32 bytes an edge (0.52 MB measured, against
    a 10.2 MB edge file)."""
    g = circulant(2000, 10)
    edges = write(tmp_path / "e.tsv", "".join(
        f"{' ' * 500}{u}\t{v}\n" for u, v in g.edge_array.tolist()))
    cats = write(tmp_path / "c.tsv", "".join(f"{v}\ta\n" for v in range(2000)))
    assert load_graph(edges, cats)[0] == g
    loaded = []
    with mock.patch.object(fileio, "_parse_graph", side_effect=AssertionError):
        peak = traced_peak(lambda: loaded.append(load_graph(edges, cats)))
    assert loaded[0][0] == g
    assert peak < 2 * 2**16 + 32 * g.edge_count


@pytest.mark.parametrize("edges, connected", [
    ("0\t1\n1\t2\n2\t3\n", True), ("0\t1\n2\t3\n", False)])
def test_a_graph_sidecar_hit_computes_no_connectivity(tmp_path, edges, connected):
    """The parse keeps the graph's connectivity in its sidecar, and a hit
    sets the cached property from it, so no walk on it computes it again."""
    edges = write(tmp_path / "e.tsv", edges)
    cats = write(tmp_path / "c.tsv", "0\ta\n1\tb\n2\ta\n3\tb\n")
    assert load_graph(edges, cats)[0].is_connected is connected
    assert _stored_meta(tmp_path / "e.tsv.categraph.npz")["connected"] is connected
    with mock.patch.object(fileio, "_parse_graph", side_effect=AssertionError), \
            mock.patch.object(Graph.__dict__["is_connected"], "func",
                              side_effect=AssertionError):
        assert load_graph(edges, cats)[0].is_connected is connected


def test_a_walk_on_a_disconnected_graph_from_its_sidecar_warns(tmp_path):
    edges = write(tmp_path / "e.tsv", "0\t1\n1\t2\n3\t4\n4\t5\n")
    cats = write(tmp_path / "c.tsv", "".join(f"{v}\ta\n" for v in range(6)))
    load_graph(edges, cats)
    with mock.patch.object(fileio, "_parse_graph", side_effect=AssertionError):
        g = load_graph(edges, cats)[0]
    with pytest.warns(RuntimeWarning, match="disconnected graph"):
        trace = sample_rw(g, 50, start=0, seed=41)
    assert set(trace.nodes.tolist()) <= {0, 1, 2}


# the graph sidecar save_graph keeps: the parse of the files it wrote,
# byte for byte the sidecar a load's miss writes

def _pair(pair):
    """A graph pair as plain values: its arrays with their dtypes, its
    names and its connectivity."""
    g, part = pair
    return ([(a.tolist(), a.dtype) for a in (g.indptr, g.indices, part.labels)],
            part.names, g.is_connected)


NAME_POOL = ("a", "\x00b", "é中", "b\x00", " ", "#", "")


@st.composite
def cached_graphs(draw):
    """A graph, with isolated nodes as often as not, and a partition of it
    whose names are drawn from NAME_POOL and whose labels first appear in
    any order; every category has members."""
    n = draw(st.integers(1, 12))
    iu, iv = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    g = Graph.from_edges(n, np.column_stack([iu, iv])[np.array(keep, dtype=bool)])
    c = draw(st.integers(1, min(n, len(NAME_POOL))))
    names = draw(st.permutations(NAME_POOL))[:c]
    extra = draw(st.lists(st.integers(0, c - 1), min_size=n - c, max_size=n - c))
    labels = draw(st.permutations(list(range(c)) + extra))
    return g, CategoryPartition(labels=np.array(labels, np.int64), names=names)


@settings(max_examples=80, deadline=None)
@given(graph=cached_graphs())
@example(graph=(Graph.from_edges(5, [(1, 3)]), CategoryPartition(   # isolated
    labels=np.array([2, 0, 2, 1, 0]), names=("a", "\x00b", "é中"))))
def test_save_graph_keeps_the_parse_of_the_files_it_wrote(tmp_path_factory, graph):
    """A load after save_graph parses nothing and gives the parse, field by
    field: the names in order of first appearance, the labels renumbered
    to match, and the connectivity. The sidecar is the one a miss writes."""
    g, part = graph
    g.is_connected   # cached, as synthetic_graph and load_graph leave it
    d = tmp_path_factory.mktemp("graph")
    edges, cats, sidecar = d / "e.tsv", d / "c.tsv", d / "e.tsv.categraph.npz"
    save_graph(g, part, edges, cats)
    kept = sidecar.read_bytes()
    with mock.patch.object(fileio, "_parse_graph", side_effect=AssertionError):
        hit = load_graph(edges, cats)
    assert _pair(hit) == _pair(fileio._parse_graph(edges, cats))
    assert hit[0] == g
    sidecar.unlink()
    with mock.patch.object(fileio, "_parse_graph", wraps=fileio._parse_graph) as parsed:
        load_graph(edges, cats)
    assert parsed.called and sidecar.read_bytes() == kept


@pytest.mark.parametrize("case", ["connectivity not cached", "category file a device",
                                  "edge file a device", "read-only directory",
                                  "disk full"])
def test_save_graph_keeps_no_sidecar_where_none_is_kept(tmp_path, monkeypatch, case):
    """A graph whose connectivity is not cached, a path that is not a
    regular file, and a directory that refuses the sidecar leave the files
    and no sidecar. A read-only directory refuses the temporary file; where
    the test runs with the rights to write there regardless, the refusal
    is simulated."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.array([1, 0, 1]), names=("a", "b"))
    if case != "connectivity not cached":
        assert g.is_connected
    d = tmp_path / "graph"
    d.mkdir()
    edges, cats = write(d / "e.tsv", ""), write(d / "c.tsv", "")
    if case == "category file a device":
        cats = os.devnull
    elif case == "edge file a device":
        edges = os.devnull
    elif case == "read-only directory":
        d.chmod(0o555)
        if os.access(d, os.W_OK):
            monkeypatch.setattr(fileio.tempfile, "mkstemp", mock.Mock(
                side_effect=PermissionError(13, "Permission denied")))
    elif case == "disk full":
        monkeypatch.setattr(fileio.np.lib.format, "write_array_header_1_0", mock.Mock(
            side_effect=OSError(28, "No space left on device")))
    try:
        save_graph(g, part, edges, cats)
        assert sorted(p.name for p in d.iterdir()) == ["c.tsv", "e.tsv"]
        assert not os.path.exists(os.devnull + ".categraph.npz")
        if "device" not in case:
            assert (d / "e.tsv").read_text() == "0\t1\n1\t2\n"
            assert (d / "c.tsv").read_text() == "0\tb\n1\ta\n2\tb\n"
    finally:
        d.chmod(0o755)


@pytest.mark.parametrize("edited, old, new", [("e.tsv", b"2\t3", b"0\t3"),
                                              ("c.tsv", b"2\ta", b"2\tb")])
def test_a_byte_edited_after_save_graph_is_parsed(tmp_path, edited, old, new):
    """The sidecar is keyed by the bytes written, not read back: one byte
    edited in either file since is parsed, not served from it."""
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    part = CategoryPartition(labels=np.array([0, 1, 0, 1]), names=("a", "b"))
    assert g.is_connected
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    save_graph(g, part, edges, cats)
    assert (tmp_path / "e.tsv.categraph.npz").exists()
    path = tmp_path / edited
    text = path.read_bytes()
    assert text.count(old) == 1
    path.write_bytes(text.replace(old, new))
    with mock.patch.object(fileio, "_parse_graph", wraps=fileio._parse_graph) as parsed:
        got = load_graph(edges, cats)
    assert parsed.called
    want_edges, want_labels, want_names = naive_load_graph(edges, cats)
    assert got[0].edge_array.tolist() == [list(e) for e in want_edges]
    assert (got[1].labels.tolist(), got[1].names) == (want_labels, want_names)
    assert _pair(got) != _pair((g, part))


# ---------------------------------------------------------------------------
# trace and log sidecars: what the writer left equals the parse, checks
# and refusals included

@st.composite
def written(draw):
    """A trace or a star or induced log for the writers, with repeated
    nodes, categories without draws and node arrays of several dtypes; one
    in two has one flaw, which the readers refuse or a cast to int64 hides.
    The writers refuse these flaws, so a flawed file is written unchecked."""
    kind = draw(st.sampled_from(["trace", "star", "induced"]))
    flaw = draw(st.sampled_from([None] * 8 + ["big id", "negative id", "float ids"] + (
        ["burn_in", "thin", "start"] if kind == "trace"
        else ["category", "degree", "negative count", "edge"])))
    n = draw(st.integers(0, 7))
    ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    dtype = draw(st.sampled_from([np.int64, np.int32, np.uint16]))
    if flaw == "big id":   # written as it is, beyond what the readers take
        ids[0], dtype = 2**63, np.uint64
    elif flaw in ("negative id", "float ids"):
        ids[0], dtype = -1, {"negative id": np.int64, "float ids": np.float64}[flaw]
    picks = draw(st.lists(st.integers(0, len(ids) - 1), min_size=n, max_size=n))
    nodes = np.array([ids[i] for i in picks], dtype=dtype)
    node_weights = draw(st.lists(st.one_of(weights_st, st.integers(1, 2**62)),
                                 min_size=len(ids), max_size=len(ids)))
    if {type(w) for w in node_weights} != {int}:   # else integer weights
        node_weights = list(map(float, node_weights))
    weights = np.array([node_weights[i] for i in picks])
    if kind == "trace":
        meta = {"burn_in": 0, "thin_interval": 1,
                "start": draw(st.one_of(st.none(), st.integers(0, 5))),
                **{"burn_in": {"burn_in": -3}, "thin": {"thin_interval": 0},
                   "start": {"start": -5}}.get(flaw, {})}
        # save_trace writes whole float ids as integers, and refuses the rest
        save = (save_unchecked_trace if flaw in ("burn_in", "thin", "start", "big id")
                else save_trace)
        return save, load_trace, SampleTrace(
            nodes=nodes, steps=np.arange(n) * draw(st.integers(1, 3)),
            weights=weights, sampler="rw", seed=draw(seeds_st), **meta)
    c = draw(st.integers(1, 3))
    node_cats = draw(st.lists(st.integers(0, c - 1), min_size=len(ids),
                              max_size=len(ids)))
    node_cats[0] += c * (flaw == "category")
    counts = np.array(draw(st.lists(st.lists(
        st.integers(0, 3), min_size=c, max_size=c), min_size=len(ids),
        max_size=len(ids))), dtype=np.int64)[picks].reshape(n, c)
    if flaw == "negative count" and n and c > 1:   # the row's sum kept
        row = draw(st.integers(0, n - 1))
        counts[row] += [-1 - counts[row, 0], 1 + counts[row, 0]] + [0] * (c - 2)
    degrees = counts.sum(axis=1)
    if flaw == "degree" and n:
        degrees[draw(st.integers(0, n - 1))] += 1
    drawn = sorted({ids[i] for i in picks} - {2**63})
    pairs = list(itertools.combinations(drawn, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if flaw == "edge":   # a self-loop, an undrawn end or a repeat
        edges.append(draw(st.sampled_from([(ids[0], ids[0]), (10, ids[0]), *edges[:1]])))
    return save_unchecked_log if flaw else save_log, load_log, ObservationLog(
        mode=kind, nodes=nodes, categories=np.array(node_cats)[picks],
        degrees=degrees, weights=weights, num_categories=c,
        category_names=tuple("abc"[:c]),
        population_hint=draw(st.one_of(st.none(), st.integers(1, 100))),
        induced_edges=np.array(edges, np.int64).reshape(-1, 2),
        neighbor_counts=counts.T.copy().T if draw(st.booleans()) else counts)


def _outcome(load, path):
    try:
        return _fields(load(path))
    except FileFormatError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(case=written())
def test_a_sidecar_hit_equals_the_parse(tmp_path_factory, case):
    """A load with the writer's sidecar equals one with it deleted, arrays
    bit for bit, and a refused file raises the same message either way; a
    hit parses no text."""
    save, load, item = case
    path = tmp_path_factory.mktemp("sidecar") / "f.jsonl"
    save(item, path)
    sidecar = path.parent / "f.jsonl.categraph.npz"
    hit = _outcome(load, path)
    if sidecar.exists() and not isinstance(hit, str):
        with mock.patch.object(fileio, "_read_jsonl", side_effect=AssertionError):
            assert _outcome(load, path) == hit
    # the writer leaves a sidecar where its columns are int64 and its
    # weights float64, as the checked writers' ids and a log's weights are
    # cast, and a sidecar depends on the file's bytes alone
    exact = load is load_log or (item.weights.dtype == np.float64 and (
        save is save_trace or item.nodes.dtype == np.int64))
    assert sidecar.exists() == exact
    if exact:
        stored = sidecar.read_bytes()
        save(dataclasses.replace(item, nodes=item.nodes.astype(np.int64)), path)
        assert sidecar.read_bytes() == stored
    sidecar.unlink(missing_ok=True)
    assert _outcome(load, path) == hit


def _in_time(call, seconds=20):
    """``call()``, run in a thread that must end within ``seconds``: a pipe
    opened a second time would block it."""
    out = []
    thread = threading.Thread(target=lambda: out.append(call()), daemon=True)
    thread.start()
    thread.join(seconds)
    assert out, f"{call} did not end within {seconds} s"
    return out[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_pipes_are_read_and_written_once_and_keep_no_sidecar(tmp_path,
                                                             three_color_graph):
    """A pipe (as ``<(cat trace.jsonl)`` passes one) is neither hashed,
    which would drain it, nor given a sidecar: each is read or written once."""
    g, part = three_color_graph
    trace = sample_rw(g, 6, start=0, seed=8)
    save_trace(trace, tmp_path / "t.jsonl")
    text = (tmp_path / "t.jsonl").read_bytes()
    for path in (tmp_path / "in", tmp_path / "out"):
        os.mkfifo(path)
    threading.Thread(target=(tmp_path / "in").write_bytes, args=(text,),
                     daemon=True).start()
    assert _fields(_in_time(lambda: load_trace(tmp_path / "in"))) == _fields(trace)
    written = []
    drain = threading.Thread(daemon=True, target=lambda: written.append(
        (tmp_path / "out").read_bytes()))
    drain.start()
    _in_time(lambda: save_trace(trace, tmp_path / "out"))
    drain.join(20)
    assert written == [text]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "in", "out", "t.jsonl", "t.jsonl.categraph.npz"]


@pytest.mark.parametrize("meta, message", [
    ({"burn_in": -3}, "meta 'burn_in' must be an integer >= 0, got -3"),
    ({"thin_interval": 0}, "meta 'thin' must be an integer >= 1, got 0"),
    ({"start": -5}, "meta 'start' must be null or an integer >= 0, got -5"),
])
def test_load_trace_refuses_counts_below_their_floors(tmp_path, meta, message):
    """A burn-in, thinning interval or start the samplers would refuse is
    refused on reading, naming the meta line, with the writer's sidecar and
    without it."""
    trace = SampleTrace(nodes=np.array([0, 1]), steps=np.array([0, 1]),
                        weights=np.ones(2), sampler="rw", seed=None, start=0,
                        burn_in=0)
    save_unchecked_trace(dataclasses.replace(trace, **meta), tmp_path / "t.jsonl")
    for sidecar in (True, False):
        assert (tmp_path / "t.jsonl.categraph.npz").exists() == sidecar
        with pytest.raises(FileFormatError, match=f"t.jsonl:1: {re.escape(message)}$"):
            load_trace(tmp_path / "t.jsonl")
        (tmp_path / "t.jsonl.categraph.npz").unlink(missing_ok=True)


@pytest.mark.parametrize("meta, message", [
    ({"burn_in": -3}, "trace meta 'burn_in' must be an integer >= 0, got -3"),
    ({"thin_interval": 0}, "trace meta 'thin' must be an integer >= 1, got 0"),
    ({"start": -5}, "trace meta 'start' must be null or an integer >= 0, got -5"),
    ({"start": 1.0}, "trace meta 'start' must be null or an integer >= 0, got 1.0"),
])
def test_save_trace_refuses_meta_the_reader_refuses(tmp_path, meta, message):
    """The writer checks the meta line by the reader's rules, and names the
    refusal in the reader's words, before it writes any file."""
    trace = SampleTrace(nodes=np.array([0, 1]), steps=np.array([0, 1]),
                        weights=np.ones(2), sampler="rw", seed=None, start=0,
                        burn_in=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        save_trace(dataclasses.replace(trace, **meta), tmp_path / "t.jsonl")
    assert list(tmp_path.iterdir()) == []


def save_unchecked_trace(trace, path):
    """What ``save_trace`` leaves for ``trace`` but without its meta check,
    through the writer's own ``_write`` and ``_leave``: a file, and where
    its columns are int64 and float64 a sidecar, that a reader may refuse."""
    meta = json.dumps({"sampler": trace.sampler, "seed": trace.seed,
                       "start": trace.start, "burn_in": trace.burn_in,
                       "thin": trace.thin_interval})
    columns = trace.steps, trace.nodes, trace.weights
    key = fileio._write(path, meta + "\n", "".join(
        f'{{"i": {i}, "v": {v}, "w": {w!r}}}\n'
        for i, v, w in zip(*(x.tolist() for x in columns))),
        key=fileio._seeded("trace"))
    fileio._leave(path, key, meta, dict(zip("ivw", columns)))


def save_unchecked_log(log, path):
    """What ``save_log`` leaves for ``log`` but without its checks, its
    columns cast to int64 and float64: the per-line writer's file, and
    through the writer's own ``_leave`` a sidecar, that a reader may refuse."""
    part = "neighbor_counts" if log.mode == "star" else "induced_edges"
    log = dataclasses.replace(log, weights=np.asarray(log.weights, float), **{
        field: np.asarray(getattr(log, field)).astype(np.int64)
        for field in ("nodes", "categories", "degrees", part)})
    naive_save_log(log, path)
    meta = json.dumps({"mode": log.mode, "N": log.population_hint,
                       "categories": list(log.category_names)})
    if part == "neighbor_counts":   # kept as nonzero (record, category, count) entries
        at, b = np.nonzero(log.neighbor_counts)
        kept = {"nbr_cats": np.stack([at, b, log.neighbor_counts[at, b]], 1).ravel()}
    else:
        kept = {part: log.induced_edges}
    fileio._leave(path, fileio._key("log", path), meta, {
        "v": log.nodes, "c": log.categories, "deg": log.degrees, "w": log.weights,
        **kept})


@pytest.mark.parametrize("kind", ["trace", "star", "induced", "graph"])
def test_a_writer_keys_its_sidecar_by_the_bytes_it_wrote(tmp_path, monkeypatch,
                                                         three_color_graph, kind):
    """The key a writer hashes block by block as it writes, blocks of 3
    rows here, is the key a reader computes from the file, so the writer
    reads nothing back; save_graph's is of its category file, then its
    edge file, as load_graph's."""
    g, part = three_color_graph
    trace = sample_rw(g, 10, start=0, seed=8)
    path, cats, key = tmp_path / "f", tmp_path / "c.tsv", fileio._key
    with monkeypatch.context() as mp:
        mp.setattr(fileio, "_BLOCK", 3)
        mp.setattr(fileio, "_key", mock.Mock(side_effect=AssertionError))
        if kind == "graph":
            assert g.is_connected   # cached, so that save_graph keeps a sidecar
            save_graph(g, part, path, cats)
        else:
            item = trace if kind == "trace" else {
                "star": observe_star, "induced": observe_induced}[kind](g, part, trace)
            (save_trace if kind == "trace" else save_log)(item, path)
    read = {"graph": ("graph", cats, path), "trace": ("trace", path)}.get(kind, ("log", path))
    with np.load(tmp_path / "f.categraph.npz") as npz:
        assert npz["key"].tobytes() == key(*read)


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
    """The writer's files equal the per-line writer's, with the writers'
    block as it is and shrunk to 3 rows, so that small files span blocks."""
    write_naive(*(tmp / f"naive_{f}" for f in files))
    for block in (fileio._BLOCK, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_BLOCK", block)
            write_new(*(tmp / f"new_{f}" for f in files))
        for f in files:
            assert ((tmp / f"new_{f}").read_bytes()
                    == (tmp / f"naive_{f}").read_bytes()), (block, f)


@settings(max_examples=60, deadline=None)
@given(draws=st.lists(st.tuples(ids_st, ids_st, weights_st), max_size=12),
       sampler=names_st, seed=seeds_st, start=st.one_of(st.none(), ids_st),
       burn_in=st.integers(0, 10**6), thin=st.integers(1, 50))
@example(draws=[(0, 2**63 - 1, w) for w in SPECIAL_WEIGHTS], sampler="中é",
         seed=[3, 2**32], start=2**63 - 1, burn_in=0, thin=1)
@example(draws=[], sampler="rw", seed=None, start=None, burn_in=0, thin=1)
@example(draws=[(i, i, 1.5) for i in range(3)], sampler="rw", seed=None,
         start=None, burn_in=0, thin=1)
@example(draws=[(i, 2**63 - 1 - i, 0.1 * i + 0.1) for i in range(7)],
         sampler="wrw", seed=1, start=0, burn_in=2, thin=3)
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
    """A log the readers take: each draw of a node repeats its first's
    category, counts (summing to its degree) and weight, and each induced
    edge joins two drawn nodes, each pair once, in either order."""
    mode = draw(st.sampled_from(["induced", "star"]))
    c = draw(st.integers(1, 12))   # category ids of one and two digits
    n = draw(st.integers(0, 10))
    nodes = draw(st.lists(ids_st, min_size=n, max_size=n))
    first = [nodes.index(v) for v in nodes]   # each draw's node's first draw
    counts = np.array(draw(st.lists(
        st.one_of(st.just([0] * c),
                  st.lists(st.integers(0, 10**6), min_size=c, max_size=c)),
        min_size=n, max_size=n)), dtype=np.int64).reshape(n, c)[first]
    edges = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=6)) if nodes else []
    edges = list({frozenset(e): e for e in edges if e[0] != e[1]}.values())
    return ObservationLog(
        mode=mode, nodes=np.array(nodes, dtype=np.int64),
        categories=np.array(draw(st.lists(st.integers(0, c - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)[first],
        degrees=counts.sum(axis=1),
        weights=np.array(draw(st.lists(weights_st, min_size=n, max_size=n)),
                         dtype=float)[first],
        num_categories=c,
        category_names=tuple(draw(st.lists(names_st, min_size=c, max_size=c))),
        population_hint=draw(st.one_of(st.none(), st.integers(1, 2**63 - 1))),
        induced_edges=(np.array(edges, dtype=np.int64).reshape(-1, 2)
                       if mode == "induced" else None),
        neighbor_counts=counts if mode == "star" else None)


def _log(mode, n, **fields):
    counts = fields.get("neighbor_counts", np.zeros((n, 0), np.int64))
    return ObservationLog(
        mode=mode, nodes=2**63 - 1 - np.arange(n, dtype=np.int64),
        categories=np.zeros(n, dtype=np.int64), degrees=counts.sum(axis=1),
        weights=np.array(SPECIAL_WEIGHTS[:n], dtype=float), num_categories=2,
        category_names=("é", "中 x"), **fields)


@settings(max_examples=60, deadline=None)
@given(log=logs())
@example(log=_log("star", 4, neighbor_counts=np.zeros((4, 2), dtype=np.int64)))
@example(log=_log("induced", 5, population_hint=None,
                  induced_edges=np.zeros((0, 2), dtype=np.int64)))
@example(log=_log("star", 0, population_hint=7,
                  neighbor_counts=np.zeros((0, 2), dtype=np.int64)))
@example(log=_log("star", 3, neighbor_counts=np.array([[0, 2], [1, 0], [3, 4]])))
# counts of many digits, and of few distinct values, in one block
@example(log=_log("star", 4, neighbor_counts=np.array(
    [[10**6, 2**40], [0, 0], [2**40, 10**6], [0, 10**6]])))
@example(log=dataclasses.replace(
    _log("star", 3, neighbor_counts=np.array(
        [[10**6] + [0] * 9 + [2**40, 1], [0] * 12, [0] * 10 + [10**6, 2**40]])),
    num_categories=12, category_names=tuple("abcdefghijkl")))
@example(log=_log("induced", 5, population_hint=9, induced_edges=np.array(
    [[2**63 - 1 - u, 2**63 - 1 - v] for u, v in itertools.combinations(range(5), 2)]
    [:7])))
@example(log=_log("induced", 3, population_hint=None, induced_edges=np.array(
    [[2**63 - 1, 2**63 - 2], [2**63 - 2, 2**63 - 3], [2**63 - 1, 2**63 - 3]])))
def test_save_log_matches_per_line_writer(tmp_path_factory, log):
    _same_bytes(tmp_path_factory.mktemp("log"),
                lambda p: save_log(log, p),
                lambda p: naive_save_log(log, p), "log.jsonl")


@st.composite
def partitioned_graphs(draw):
    n = draw(st.integers(0, 12))
    iu, iv = np.triu_indices(n, k=1)
    keep = draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu)))
    names = tuple(draw(st.lists(names_st, min_size=1, max_size=4)))
    labels = draw(st.lists(st.integers(0, len(names) - 1), min_size=n, max_size=n))
    return (Graph.from_edges(n, np.column_stack([iu, iv])[np.array(keep, dtype=bool)]),
            CategoryPartition(labels=np.array(labels, dtype=np.int64), names=names))


def _path(n, names=("a",)):
    """An n-node path, the nodes labeled 0, 1, ... in turn."""
    return (Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]),
            CategoryPartition(labels=np.arange(n) % len(names), names=names))


@settings(max_examples=40, deadline=None)
@given(graph=partitioned_graphs())
@example(graph=_path(0, names=()))
@example(graph=_path(1))                      # no edges
@example(graph=_path(3, names=("é", "b")))    # one block of nodes
@example(graph=_path(4))                      # one block of edges
@example(graph=_path(8, names=("a", "中 x", "#")))   # several blocks
def test_save_graph_matches_per_line_writer(tmp_path_factory, graph):
    g, part = graph
    tmp = tmp_path_factory.mktemp("graph")
    # the reader would merge repeated names, and a category file cannot
    # hold a category without members
    refusal = ("repeats another category's" if len(set(part.names)) < len(part.names)
               else "has no members" if np.any(part.sizes == 0) else None)
    if refusal:
        with pytest.raises(ValueError, match=refusal):
            save_graph(g, part, tmp / "e.tsv", tmp / "c.tsv")
        assert not any(tmp.iterdir())
        return
    _same_bytes(tmp, lambda e, c: save_graph(g, part, e, c),
                lambda e, c: naive_save_graph(g, part, e, c), "e.tsv", "c.tsv")


EXTREME_IDS = (-2**63, -1, 0, 9, 10, 2**32, 2**63 - 1)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_save_trace_writes_extreme_ids_as_the_per_line_writer(tmp_path, dtype):
    """Every pair of steps and node ids from the extremes of the dtype and
    the lengths between, at the writers' block and at 3 rows."""
    info = np.iinfo(dtype)
    ids = [max(min(x, info.max), info.min) for x in EXTREME_IDS]
    steps, nodes = np.array(list(itertools.product(ids, repeat=2)), dtype).T
    trace = SampleTrace(nodes=nodes, steps=steps, sampler="rw", seed=None,
                        weights=np.resize(SPECIAL_WEIGHTS, len(nodes)),
                        start=None, burn_in=0, thin_interval=1)
    _same_bytes(tmp_path, lambda p: save_trace(trace, p),
                lambda p: naive_save_trace(trace, p), "t.jsonl")


def test_save_graph_writes_names_holding_nul_as_the_per_line_writer(tmp_path):
    """A category name may hold U+0000, first, last or inside, and the
    writer keeps a name's bytes by its length, not up to a NUL."""
    names = ("\x00", "\x00a", "b\x00", "中\x00é", "\x00\x00", "")
    g = Graph.from_edges(9, [(v, v + 1) for v in range(8)])
    part = CategoryPartition(labels=np.arange(9) % len(names), names=names)
    _same_bytes(tmp_path, lambda e, c: save_graph(g, part, e, c),
                lambda e, c: naive_save_graph(g, part, e, c), "e.tsv", "c.tsv")


def test_save_log_writes_a_wide_star_record_among_empty_ones(tmp_path):
    """A star block of empty records around one with 120 nonzero counts,
    and one with a single count, so its entries are far more than its rows."""
    counts = np.zeros((7, 130), np.int64)
    counts[2, 5:125] = np.arange(1, 121) ** 3
    counts[5, 129] = 1
    log = dataclasses.replace(_log("star", 7, neighbor_counts=counts),
                              degrees=counts.sum(axis=1), num_categories=130,
                              category_names=tuple(map(str, range(130))),
                              weights=np.resize(SPECIAL_WEIGHTS, 7))
    _same_bytes(tmp_path, lambda p: save_log(log, p),
                lambda p: naive_save_log(log, p), "log.jsonl")


def test_save_log_transient_memory_does_not_grow_with_the_widest_record(
        tmp_path, traced_peak):
    """The writer's traced peak on 50,000 star records over 2,000
    categories, a count each, and on the same log with one record of 2,000
    counts: each entry is a row of its own, so the one wide record adds its
    entries, not 2**14 rows as wide as it (hundreds of MiB). The counts are
    uint8 and laid out one row a category; their sidecar keeps the nonzero
    ones as int64 entries."""
    counts = np.zeros((2000, 50_000), np.uint8).T
    counts[:, 0] = 1
    peaks = []
    for nonzero in (1, 2000):   # record 7's
        counts[7, :nonzero] = 1
        log = ObservationLog(
            mode="star", nodes=np.arange(50_000), categories=np.zeros(50_000, np.int64),
            degrees=counts.sum(axis=1, dtype=np.int64), weights=np.ones(50_000),
            num_categories=2000, category_names=tuple(map(str, range(2000))),
            neighbor_counts=counts)
        peaks.append(traced_peak(lambda: save_log(log, tmp_path / "log.jsonl")))
    assert peaks[1] - peaks[0] < 4 * 2**20


def test_save_graph_refuses_an_empty_category(tmp_path):
    """The category file lists labeled nodes only, so a category with no
    members would be dropped on reading and later ids would shift."""
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.array([0, 2, 2]), names=("a", "b", "c"))
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    with pytest.raises(ValueError, match="^category 'b' has no members"):
        save_graph(g, part, edges, cats)
    assert not edges.exists() and not cats.exists()


@pytest.mark.parametrize("labels", [[0, 1, 1, 0], [0, 1, 1, 0, 1, 0]],
                         ids=["4 labels", "6 labels"])
def test_save_graph_refuses_a_partition_of_another_node_count(tmp_path, labels):
    """4 labels on a 5-node graph would write files the reader refuses (an
    edge end without a label), and 6 a 6-node graph that reads back as
    another; both raise before either file is opened."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    part = CategoryPartition(labels=np.array(labels), names=("a", "b"))
    with pytest.raises(ValueError, match="disagree on node count"):
        save_graph(g, part, tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 1], [1], "degree sum must equal twice the edge count"),
    ([0, 2, 3, 4], [2, 1, 0, 0], "neighbor row of 0 not sorted/unique"),
    ([0, 2, 3, 4], [1, 2, 0, 1], r"missing reverse adjacency for \(0, 2\)"),
], ids=["an entry without its reverse", "an unsorted row", "a missing reverse entry"])
def test_save_graph_refuses_a_graph_that_fails_validate(tmp_path, indptr, indices,
                                                        message):
    """A Graph built with broken CSR, its connectivity cached, raises
    before either file is opened, so no sidecar keeps its arrays for a
    later load to serve."""
    g = Graph(indptr=np.array(indptr), indices=np.array(indices))
    g.is_connected
    part = CategoryPartition(labels=np.zeros(g.node_count, np.int64), names=("a",))
    with pytest.raises(ValueError, match=message):
        save_graph(g, part, tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert not any(tmp_path.iterdir())


def test_save_graph_transient_memory_does_not_grow_with_the_edges(
        tmp_path, circulant, traced_peak):
    """The writer's traced peak on 248,000 and on 1,000,000 edges over the
    same 4,000 nodes, ``edge_array`` built beforehand: written in blocks,
    the two peaks differ by less than 4 MiB (one string per file made
    them differ by 79 MiB)."""
    peaks = []
    for d in (62, 250):
        g = circulant(4000, d)
        part = CategoryPartition(labels=np.zeros(4000, np.int64), names=("a",))
        g.edge_array
        peaks.append(traced_peak(
            lambda: save_graph(g, part, tmp_path / "e.tsv", tmp_path / "c.tsv")))
    assert peaks[1] - peaks[0] < 4 * 2**20


@pytest.mark.parametrize("names, bad, rule", [
    (("a\tb", "c"), "a\tb", "holds a tab or a line break"),
    (("a", "b\nc"), "b\nc", "holds a tab or a line break"),
    (("a\r", "b"), "a\r", "holds a tab or a line break"),
    (("a", "b", "a"), "a", "repeats another category's"),
], ids=["tab", "newline", "carriage return", "repeat"])
def test_save_graph_refuses_a_name_the_reader_would_refuse_or_merge(
        tmp_path, names, bad, rule):
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = CategoryPartition(labels=np.array([0, 1, 1]), names=names)
    edges, cats = tmp_path / "e.tsv", tmp_path / "c.tsv"
    with pytest.raises(ValueError,
                       match=re.escape(f"category name {bad!r} {rule}")):
        save_graph(g, part, edges, cats)
    assert not edges.exists() and not cats.exists()


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


def _three_draws(mode, **fields):
    """A log of three draws, node 4 twice, that load_log reads, with
    ``fields`` replaced."""
    return dataclasses.replace(ObservationLog(
        mode=mode, nodes=np.array([4, 7, 4]), categories=np.array([0, 1, 0]),
        degrees=np.array([2, 1, 2]), weights=np.ones(3), num_categories=2,
        category_names=("a", "b"), induced_edges=np.array([[7, 4]]),
        neighbor_counts=np.array([[1, 1], [0, 1], [1, 1]])), **fields)


# (mode, fields replaced, the refusal: the reader's message for its line,
# or, for what no line can hold, the draw or edge that holds it)
REFUSED_LOGS = {
    "a negative node id": ("star", {"nodes": np.array([-4, 7, -4])},
                           ":2: node id must be >= 0, got -4"),
    "counts that do not sum to deg": ("star", {"degrees": np.array([2, 2, 2])},
                                      ":3: nbr_cats must sum to deg, got 1"),
    "a repeated node with another category": (
        "induced", {"categories": np.array([0, 1, 1])},
        ":4: category differs from an earlier record of the node, got 1"),
    "a category beyond C": ("star", {"categories": np.array([0, 2, 0])},
                            ":3: category must be in 0..1, got 2"),
    "an induced self-loop": ("induced", {"induced_edges": np.array([[4, 4]])},
                             ":5: induced edge is a self-loop, got [4, 4]"),
    "an induced edge with an undrawn end": (
        "induced", {"induced_edges": np.array([[4, 9]])},
        ":5: induced edge has an undrawn endpoint, got [4, 9]"),
    "population 0": ("star", {"population_hint": 0},
                     ":1: meta 'N' must be a positive integer or null, got 0"),
    "node 0.5": ("star", {"nodes": np.array([4, 0.5, 4])},
                 "draw 1: 'v' must be an integer, got 0.5"),
    "node 2**63 as a float": ("induced", {"nodes": np.array([4, 7, 2.0**63])},
                              "draw 2: 'v' must be an integer, got 9.223372036854776e+18"),
    "a NaN degree": ("induced", {"degrees": np.array([2, np.nan, 2])},
                     "draw 1: 'deg' must be an integer, got nan"),
    "a count of 1.5": ("star", {"neighbor_counts": np.array([[1, 1], [0, 1.5], [1, 1]])},
                       "draw 1: nbr_cats count must be an integer, got [0.0, 1.5]"),
    "an edge end of 4.5": ("induced", {"induced_edges": np.array([[7, 4.5]])},
                           "induced edge 0: an end must be an integer, got [7.0, 4.5]"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_LOGS))
def test_save_log_refuses_what_load_log_refuses(tmp_path, case):
    """The writer runs the reader's checks on the arrays it keeps, and
    refuses an id, degree or count that is no whole number within int64,
    before it writes the file or its sidecar."""
    mode, fields, message = REFUSED_LOGS[case]
    save_log(_three_draws(mode), tmp_path / "good.jsonl")   # the log is read
    with pytest.raises(InvalidParameter, match=re.escape(message) + "$"):
        save_log(_three_draws(mode, **fields), tmp_path / "l.jsonl")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "good.jsonl", "good.jsonl.categraph.npz"]


REFUSED_TRACE_COLUMNS = {
    "step 0.5": ({"steps": np.array([0, 0.5, 2])}, "draw 1: 'i' must be an integer, got 0.5"),
    "a NaN node": ({"nodes": np.array([0, np.nan, 2])},
                   "draw 1: 'v' must be an integer, got nan"),
    "node 2**63 as uint64": ({"nodes": np.array([0, 2**63, 2], np.uint64)},
                             "draw 1: 'v' must be an integer, got 9223372036854775808"),
    "node -2**64 as a float": ({"nodes": np.array([0, 1, -2.0**64])},
                               "draw 2: 'v' must be an integer, got -1.8446744073709552e+19"),
    "text nodes": ({"nodes": np.array(["0", "1", "2"])},
                   "'v' must be an integer, got <U1 values"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_TRACE_COLUMNS))
def test_save_trace_refuses_ids_and_steps_beyond_int64(tmp_path, case):
    fields, message = REFUSED_TRACE_COLUMNS[case]
    trace = SampleTrace(nodes=np.arange(3), steps=np.arange(3), weights=np.ones(3),
                        sampler="rw", seed=None, start=None, burn_in=0)
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        save_trace(dataclasses.replace(trace, **fields), tmp_path / "t.jsonl")
    assert list(tmp_path.iterdir()) == []


def test_writers_write_whole_ids_as_integers(tmp_path):
    """Whole floats, booleans and uint64 values within int64 are written as
    the int64 values are, so the readers read them back as those."""
    trace = SampleTrace(nodes=np.array([1, 0, 1]), steps=np.arange(3),
                        weights=np.ones(3), sampler="rw", seed=None, start=None,
                        burn_in=0)
    log = _three_draws("star")
    for save, item, fields in [
            (save_trace, trace, {"nodes": np.array([True, False, True]),
                                 "steps": np.array([0.0, 1.0, 2.0])}),
            (save_log, log, {"nodes": np.array([4.0, 7.0, 4.0]),
                             "degrees": np.array([2, 1, 2], np.uint64),
                             "neighbor_counts": log.neighbor_counts * 1.0})]:
        save(item, tmp_path / "int.jsonl")
        save(dataclasses.replace(item, **fields), tmp_path / "other.jsonl")
        for name in ("", ".categraph.npz"):
            assert ((tmp_path / f"other.jsonl{name}").read_bytes()
                    == (tmp_path / f"int.jsonl{name}").read_bytes())


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
    "edge end not a listed category": (
        _put(5, "edges", 0, "a"),
        r"'edges\[0\]\.a' must be a listed category id, got 5"),
    "edge end of a dropped category": (
        _put(_DROP, "categories", 2),
        r"'edges\[1\]\.b' must be a listed category id, got 2"),
    "boolean edge end": (
        _put(True, "edges", 0, "b"),
        r"'edges\[0\]\.b' must be a listed category id, got True"),
    "edge from a category to itself": (
        _put(0, "edges", 0, "b"),
        r"'edges\[0\]\.b' must be greater than 'edges\[0\]\.a', got 0"),
    "edge with the higher id first": (
        _put(0, "edges", 2, "b"),
        r"'edges\[2\]\.b' must be greater than 'edges\[2\]\.a', got 0"),
    "edge pair listed twice": (
        lambda payload: payload["edges"].append(dict(payload["edges"][0])),
        r"'edges\[3\]' repeats an earlier edge, got \[0, 1\]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ESTIMATES))
def test_load_estimate_names_file_and_key(tmp_path, three_color_graph, case):
    mutate, message = MALFORMED_ESTIMATES[case]
    payload = _saved_estimate(tmp_path, three_color_graph)
    mutate(payload)
    path = write(tmp_path / "bad.json", json.dumps(payload))
    with pytest.raises(FileFormatError, match=f"bad.json: {message}"):
        load_estimate(path)


def _written_estimates(g, part):
    """Estimates as the writers produce them: every estimator pair with
    and without homogeneous degree, with bootstrap variances; an exact
    graph; and star estimates that skip a category."""
    trace = sample_rw(g, 40, start=0, seed=11)
    for mode, pairs in ESTIMATOR_PAIRS.items():
        log = (observe_star if mode == "star" else observe_induced)(g, part,
                                                                   trace)
        for (size, weight), homogeneous in itertools.product(pairs,
                                                             [False, True]):
            kw = dict(population=8, size_estimator=size,
                      weight_estimator=weight,
                      assume_homogeneous_degree=homogeneous)
            size_var, weight_var = bootstrap_variance(log, 5, seed=12, **kw)
            yield dataclasses.replace(estimate_category_graph(log, **kw),
                                      size_variances=size_var,
                                      weight_variances=weight_var)
    yield exact_category_graph(g, part)
    for nodes in ([0, 3], [5, 6]):
        log = observe_star(g, part, dataclasses.replace(
            trace, nodes=np.array(nodes), steps=np.arange(2),
            weights=np.ones(2)))
        yield estimate_category_graph(log, population=8, size_estimator="star")


def test_every_written_estimate_loads(tmp_path, three_color_graph):
    g, part = three_color_graph
    estimates = list(_written_estimates(g, part))
    assert len(estimates) == 2 * 3 + 3
    assert all(len(est.sizes) < 3 for est in estimates[-2:])
    for est in estimates:
        save_estimate(est, tmp_path / "est.json", names=part.names)
        got = load_estimate(tmp_path / "est.json")
        if not isinstance(est, CategoryGraph):
            assert (got.size_variances, got.weight_variances) == (
                est.size_variances, est.weight_variances)
        assert (got.sizes, got.weights) == (
            {c: float(s) for c, s in est.sizes.items()}, est.weights)


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
# a value the int64 rule refuses, also as an edge end and a neighbor count
@example(records=[{"v": 0, "w": 1.0}, {"v": True, "w": 1.0}])
@example(records=[{"v": 0, "w": 1.0}, {"v": 2**63, "w": 1.0}])
@example(records=[{"v": 0, "w": 1.0}, {"v": -2**63 - 1, "w": 1.0}])
@example(records=[{"v": 0, "w": 1.0}, {"v": 1.5, "w": 1.0}])
def test_whole_columns_are_taken_or_refused_as_value_by_value(records):
    """A column checked whole gives the array, or names the line with the
    message, that checking each value gives: the record columns a parse
    decodes, and the "v" values decoded as the ends of an induced edge
    block and as ``nbr_cats`` counts."""
    lines = np.arange(2, len(records) + 2)
    ends = [r["v"] for r in records if type(r) is dict and "v" in r]
    block = [ends[i:i + 2] for i in range(0, len(ends) - 1, 2)]
    nbrs = [{"c": 0, "nbr_cats": {"0": v}} for v in ends]
    parsed = lambda meta, lines, records: fileio._Parsed("f", 1, meta, lines, records)
    reads = [lambda: [parsed({}, lines, records)[key] for key in ("v", "w")],
             lambda: [parsed({"mode": "induced"}, np.array([9]),
                             [{"induced_edges": block}])["induced_edges"]],
             lambda: [parsed({}, lines[:len(ends)], nbrs)["nbr_cats"]]]

    def outcome():
        results = []
        for read in reads:
            try:
                results.append([(c.dtype, c.tolist()) for c in read()])
            except FileFormatError as exc:
                results.append(str(exc))
        return results

    with mock.patch.object(fileio, "_whole_column", return_value=None):
        expected = outcome()
    assert outcome() == expected


def test_an_induced_log_looks_up_its_edges_once(tmp_path, three_color_graph):
    """load_log's rules, the estimate and the bootstrap all read the log's
    one distinct-node index: the induced edges' ends are looked up once."""
    g, part = three_color_graph
    path = tmp_path / "log.jsonl"
    save_log(observe_induced(g, part, sample_rw(g, 40, start=0, seed=3)), path)
    calls = []

    def spy(table, keys):
        calls.append(len(keys))
        return _lookup(table, keys)

    with mock.patch.object(fileio, "_lookup", spy), \
            mock.patch.object(observe, "_lookup", spy):
        log = load_log(path)
        estimate_category_graph(log)
        bootstrap_variance(log, 4, seed=0)
    assert calls == [len(log.induced_edges)]


def _put_bytes(path, line, raw):
    """Put ``raw`` at the start of line ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = raw + lines[line - 1]
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("suffix", ["", ".gz"])
def test_graph_readers_name_the_line_of_a_byte_that_is_not_utf8(tmp_path,
                                                                suffix):
    """Also in a comment line, in a truncated sequence and after a CRLF
    line end; names like archives are read from the kept lines' text."""
    edges, cats = tmp_path / f"e.tsv{suffix}", tmp_path / f"c.tsv{suffix}"
    edges.write_bytes(b"0\t1\n# \xff\n")
    cats.write_bytes(b"0\ta\n1\tb\n")
    with pytest.raises(FileFormatError, match=re.escape(
            f"{edges}:2: byte 0xff is not UTF-8 (invalid start byte)")):
        load_graph(str(edges), str(cats))
    edges.write_bytes(b"0\t1\n")
    cats.write_bytes(b"0\ta\r\n\r\n1\tb\xc3\n")
    with pytest.raises(FileFormatError, match=re.escape(
            f"{cats}:3: byte 0xc3 is not UTF-8 (invalid continuation byte)")):
        load_graph(str(edges), str(cats))


def test_json_readers_name_the_line_of_a_byte_that_is_not_utf8(
        tmp_path, three_color_graph):
    for mode in ("star", "induced"):
        path = _write_records(tmp_path / f"{mode}.jsonl",
                              _saved_records(tmp_path, three_color_graph, mode))
        _put_bytes(path, 4, b"\x80")
        with pytest.raises(FileFormatError, match=re.escape(
                f"{path}:4: byte 0x80 is not UTF-8 (invalid start byte)")):
            load_log(path)
    path = tmp_path / "est.json"
    path.write_text(json.dumps(_saved_estimate(tmp_path, three_color_graph),
                               indent=1))
    _put_bytes(path, 5, b"\xe2\x82")
    with pytest.raises(FileFormatError, match=re.escape(
            f"{path}:5: byte 0xe2 is not UTF-8 (invalid continuation byte)")):
        load_estimate(path)


def test_a_star_log_on_500_categories_keeps_a_sidecar_at_most_twice_its_file(tmp_path):
    """The star sidecar keeps the nonzero counts as (record, category,
    count) entries, as the file does, not a row of C counts a draw: on a
    graph of 500 categories of 20 nodes it is at most 2x its JSON Lines
    (the dense rows made it 29x), and a hit reads the parse's log."""
    g, part = synthetic_graph(SyntheticParams((20,) * 500, k=10, alpha=0.5, seed=1))
    path = tmp_path / "log.jsonl"
    save_log(observe_star(g, part, sample_rw(g, 5_000, seed=2)), path)
    sidecar = tmp_path / "log.jsonl.categraph.npz"
    assert sidecar.stat().st_size <= 2 * path.stat().st_size
    with mock.patch.object(fileio, "_read_jsonl", side_effect=AssertionError):
        hit = _fields(load_log(path))
    sidecar.unlink()
    assert _fields(load_log(path)) == hit


def test_a_star_log_on_500_categories_is_written_and_read_in_about_its_block(
        tmp_path, traced_peak):
    """The writer runs the reader's rules on the nonzero (record, category,
    count) entries of the log's block, and a sidecar hit scatters its entries
    into one block of zeros: on 5,000 draws over 500 categories the writer
    traces less than a quarter of the block beyond it, and a hit less than
    1.3 blocks (a second dense block and a row-by-row comparison took about
    twice the block in each)."""
    g, part = synthetic_graph(SyntheticParams((20,) * 500, k=10, alpha=0.5, seed=1))
    log = observe_star(g, part, sample_rw(g, 5_000, seed=2))
    path, block = tmp_path / "log.jsonl", log.neighbor_counts.nbytes
    assert traced_peak(lambda: save_log(log, path)) < 0.25 * block
    with mock.patch.object(fileio, "_read_jsonl", side_effect=AssertionError):
        assert traced_peak(lambda: load_log(path)) < 1.3 * block
