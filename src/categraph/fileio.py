"""File formats: edge lists, category files, trace/log JSONL, estimate
JSON, and DOT export.

Text files are UTF-8, and share one line model, read from their bytes:
``\r\n`` and ``\r`` end a line as ``\n`` does, as in text mode, and
nothing else does (not U+2028 nor ``\x0c``, which JSON strings and TSV
fields may hold). The first byte that is not UTF-8 is named by its line.

Edge files are TSV, one "u<TAB>v" pair per line with integer node ids;
lines starting with '#' are comments. Category files are TSV
"node<TAB>category_name" with exactly one line per node. External node
ids may be any integers that fit 64 bits; they are mapped to dense
0..N-1 ids, in ascending order, by a range check or one search.
Category names are interned to ids in order of first appearance. Each
graph file has one reader: one ``np.loadtxt`` parse, and a bisection
with that parse over the lines only to find a refused one.

Traces and observation logs are JSON Lines: one meta object, then one
object per draw. All writers emit keys in a fixed order so identical
inputs produce byte-identical files; each writes its rows in blocks of
``_BLOCK``, so its transient memory is one block's, not its file's.
"""
from __future__ import annotations

import json
import os
import re
from contextlib import suppress
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import (COUNT_FLOORS, CategraphError, FileFormatError,
                     check_weights, finite, weights_ok)
from .estimate import MODES, CategoryGraphEstimate
from .evaluate import ExperimentConfig
from .generate import SyntheticParams, synthetic_graph
from .graph import CategoryGraph, CategoryPartition, Graph, _lookup
from .observe import INDUCED, STAR, ObservationLog
from .sampling import SampleTrace

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_BLOCK = 2**14   # rows (edges, nodes, draws or records) formatted per write
# a refused node id that reads as this once stripped is out of range
_NODE_ID = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# text lines

def _file_bytes(path, end: bytes = b"\n") -> bytes:
    """A file's bytes, ``\n`` ending each line, and ending in ``end``: by
    default ``\n``, so that the last line of a line file ends too."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data if data.endswith(end) else data + end


def _text(path, data: bytes) -> str:
    """A file's bytes as UTF-8; the first other byte names its line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FileFormatError(f"{path}:{line}: byte 0x{data[exc.start]:02x} "
                              f"is not UTF-8 ({exc.reason})") from None


def _kept_lines(path, data: bytes, skip: bytes) -> tuple[np.ndarray, list]:
    """The 1-based numbers and the text of the lines of ``data`` (from
    ``path``) whose first byte, a blank line's ``\n``, is not in ``skip``."""
    chars = np.frombuffer(data, np.uint8)
    firsts = chars[np.append(0, np.flatnonzero(chars == ord("\n"))[:-1] + 1)]
    kept = ~np.isin(firsts, np.frombuffer(skip, np.uint8))
    return (np.flatnonzero(kept) + 1,
            list(compress(_text(path, data).split("\n"), kept.tolist())))


# ---------------------------------------------------------------------------
# graphs and partitions

# every kept line of a graph file is one record of two tab-separated fields
_SKIPPED = b"\n#"   # blank lines and comments
_BLANK_LINE = re.compile(rb"\n(?=\n)")   # a line end followed by a blank line
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_LABEL = np.dtype([("node", np.int64), ("category", object)])
# np.loadtxt opens a path with these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def load_graph(edge_path, category_path) -> tuple[Graph, CategoryPartition]:
    """Load a graph and its category partition from TSV files.

    Every edge endpoint must appear in the category file; nodes that
    appear only there are isolated nodes. Each file is read once, by
    :func:`_read_table`, and its rules are checked once over the records
    read; the earliest refused line is named, counting blank and comment
    lines.
    """
    ext_ids, labels, names = _read_categories(category_path)
    part = CategoryPartition(labels=labels, names=names)
    n = len(ext_ids)
    records, bad = _read_table(edge_path, _EDGE)
    ext = records.view(np.int64).reshape(-1, 2)
    dense, labeled = _lookup(ext_ids, ext)
    if bad is None and labeled.all():
        # from_edges refuses self-loops and repeated edges
        with suppress(ValueError):
            return Graph.from_edges(n, dense), part
    self_loop = ext[:, 0] == ext[:, 1]
    duplicate = _later_copies(np.minimum(dense[:, 0], dense[:, 1]) * n
                              + np.maximum(dense[:, 0], dense[:, 1]))[0]
    refused = self_loop | ~(labeled[:, 0] & labeled[:, 1]) | duplicate
    # where the records pass every rule, the parse refused the next line
    row = int(np.argmax(refused)) if refused.any() else len(ext)
    if row == len(ext):
        rule = ("expected 'u<TAB>v'" if bad.count("\t") != 1
                else "node ids must be 64-bit decimal integers")
    elif self_loop[row]:
        rule = f"self-loop at node {ext[row, 0]}"
    elif not labeled[row].all():
        rule = f"node {ext[row][~labeled[row]][0]} has no category label"
    else:
        rule = f"duplicate edge {ext[row, 0]}-{ext[row, 1]}"
    lines = _kept_lines(edge_path, _file_bytes(edge_path), _SKIPPED)[0]
    raise FileFormatError(f"{edge_path}:{lines[row]}: {rule}")


def _later_copies(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each key repeats an earlier one, and the stable order that
    sorts the keys: every copy but the first is marked, so the earliest
    refused row is the one named."""
    order = np.argsort(keys, kind="stable")
    later = np.zeros(len(keys), dtype=bool)
    later[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return later, order


def _read_categories(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The category file as (sorted external ids, the category id of
    each, category names interned in that order). Ids are read by the
    edge file's rule; the earliest line with a field count other than
    two, an unreadable id or an id labeled before is named."""
    records, bad = _read_table(path, _LABEL)
    nodes = records["node"]
    twice, order = _later_copies(nodes)
    if twice.any():
        row = int(np.argmax(twice))
        rule = f"node {nodes[row]} labeled twice"
    elif bad is not None:
        row, fields = len(nodes), bad.split("\t")
        rule = ("expected 'node<TAB>category'" if len(fields) != 2
                else f"node id {fields[0]!r} " + (
                    "does not fit 64 bits" if _NODE_ID.fullmatch(fields[0].strip())
                    else "is not an integer"))
    else:
        names = records["category"][order].tolist()
        name_id = {name: c for c, name in enumerate(dict.fromkeys(names))}
        labels = np.fromiter(map(name_id.__getitem__, names), np.int64, len(names))
        return nodes[order], labels, tuple(name_id)
    lines = _kept_lines(path, _file_bytes(path), _SKIPPED)[0]
    raise FileFormatError(f"{path}:{lines[row]}: {rule}")


def _read_table(path, dtype: np.dtype):
    """A graph file's kept lines, neither blank nor starting with '#', as
    (records of ``dtype`` of those before the first line the parse
    refuses, that line's text or None). One :func:`_parse` call reads the
    path where ``np.loadtxt`` reads the kept lines as they are (each '#'
    starts a comment line, and the name is not one it would decompress),
    else the kept lines' text; the file's bytes are let go before it, so
    they are never held beside the records. Where it refuses a line, or
    does not read one record per kept line, a bisection over the kept
    lines, read again, with the same call finds that line.
    """
    data = _file_bytes(path)
    # the lines that do not start with their own '\n' or with '#'
    blank = data.startswith(b"\n") + (len(_BLANK_LINE.findall(data))
                                      if b"\n\n" in data else 0)
    comments = (data.startswith(b"#") + data.count(b"\n#")
                if b"#" in data else 0)
    count = data.count(b"\n") - blank - comments
    name = os.fsdecode(path)   # loadtxt opens only a str path itself
    if ((not comments or data.count(b"#") == comments)
            and os.path.splitext(name)[1] not in _COMPRESSED):
        source, comment = name, "#" if comments else None
    else:
        source, comment = _kept_lines(path, data, _SKIPPED)[1], None
    del data
    records = _parse(source, dtype, count, comment)
    if records is not None:
        return records, None
    rows = _kept_lines(path, _file_bytes(path), _SKIPPED)[1]
    lo, hi = 0, len(rows)   # rows[lo:hi] holds the first refused line
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse(rows[lo:mid], dtype, mid - lo) is None:
            hi = mid
        else:
            lo = mid
    return _parse(rows[:lo], dtype, lo), rows[lo]


def _parse(source, dtype: np.dtype, count: int, comments=None):
    """``count`` records of ``dtype``, two tab-separated fields a line,
    read by one ``np.loadtxt`` call from ``source``, a str path or a list
    of lines; None where it refuses a line or reads another count. An id
    is ASCII digits with an optional sign and surrounding whitespace."""
    if not count:   # loadtxt warns on input without data
        return np.empty(0, dtype)
    try:
        records = np.loadtxt(source, dtype=dtype, delimiter="\t",
                             comments=comments, ndmin=1, encoding="utf-8")
    except ValueError:
        return None
    return records if len(records) == count else None


def save_graph(g: Graph, part: CategoryPartition, edge_path,
               category_path) -> None:
    """Write the edge list (u < v, sorted) and the category file. A name
    the reader would refuse or merge, or a category without members, which
    the category file cannot hold, raises ValueError; nothing is written."""
    last = {name: c for c, name in enumerate(part.names)}
    for c, name in enumerate(part.names):
        if {"\t", "\n", "\r"} & set(name):
            raise ValueError(f"category name {name!r} holds a tab or a line break")
        if last[name] != c:
            raise ValueError(f"category name {name!r} repeats another category's")
    empty = np.flatnonzero(part.sizes == 0)
    if len(empty):
        raise ValueError(f"category {part.names[empty[0]]!r} has no members, "
                         "and a category file lists only labeled nodes")
    _write(edge_path, (g.edge_count, lambda lo, hi: ("%d\t%d\n" * (hi - lo))
                       % tuple(g.edge_array[lo:hi].ravel().tolist())))
    _write(category_path, (part.node_count, lambda lo, hi: "".join(
        [f"{v}\t{part.names[c]}\n"
         for v, c in enumerate(part.labels[lo:hi].tolist(), lo)])))


def _write(path, *parts) -> None:
    """Write ``parts`` in order: a string as it is, and a (count, block)
    pair as ``block(lo, hi)``, the text of rows lo..hi-1, for each run of
    ``_BLOCK`` of its ``count`` rows."""
    with open(path, "w", encoding="utf-8") as fh:
        for part in parts:
            count, block = (1, lambda lo, hi: part) if isinstance(part, str) else part
            for lo in range(0, count, _BLOCK):
                fh.write(block(lo, min(lo + _BLOCK, count)))


# ---------------------------------------------------------------------------
# JSON values

# every JSON value read, in meta lines, records, estimates and configs,
# is checked against a table of its key's kind
class _Kind(NamedTuple):
    what: str                       # what a value must be, for messages
    ok: Callable[[object], bool]


def _either(*kinds: _Kind) -> _Kind:
    return _Kind(" or ".join(k.what for k in kinds),
                 lambda v: any(k.ok(v) for k in kinds))


def _list_of(kind: _Kind) -> _Kind:
    return _Kind(f"a list, each {kind.what}",
                 lambda v: type(v) is list and all(map(kind.ok, v)))


def _count(row: str) -> _Kind:
    least = COUNT_FLOORS[row]
    return _Kind(f"an integer >= {least}",
                 lambda v: _INTEGER.ok(v) and v >= least)


# booleans are neither integers nor numbers
_NULL = _Kind("null", lambda v: v is None)
_STRING = _Kind("a string", lambda v: type(v) is str)
_INTEGER = _Kind("an integer", lambda v: type(v) is int)
_INT64 = _Kind("an integer", lambda v: type(v) is int
               and _INT64_MIN <= v <= _INT64_MAX)
_NUMBER = _Kind("a number", lambda v: type(v) in (int, float))
_FINITE = _Kind("a finite number", finite)
_WEIGHT = _Kind("a positive finite number",
                lambda v: type(v) in (int, float) and weights_ok(v))
_LIST = _Kind("a list", lambda v: type(v) is list)
_OBJECT = _Kind("a JSON object", lambda v: type(v) is dict)
_SEED = _count("seed")


def _checked(at: str, obj, keys: dict, where: str = "", needs=(),
             closed: bool = False) -> dict:
    """``obj``, once it is a JSON object holding ``needs``, each key in
    ``keys`` holding a value of its kind and, if ``closed``, no other
    key. Messages start with ``at``; ``where`` prefixes key names."""
    if type(obj) is not dict:
        raise FileFormatError(f"{at} {where.rstrip('.')} must be a JSON object")
    for key in needs:
        if key not in obj:
            raise FileFormatError(f"{at} missing key {where + key!r}")
    for key, value in obj.items():
        kind = keys.get(key)
        if kind is None and closed:
            raise FileFormatError(f"{at} unknown key {where + key!r}")
        if kind is not None and not kind.ok(value):
            raise FileFormatError(
                f"{at} {where + key!r} must be {kind.what}, got {value!r}")
    return obj


def _read_json(path, name: str) -> dict:
    """A JSON file's object, read by :func:`_decode`; a value that is not
    an object is named by ``name``."""
    value = _decode(path, 1, _text(path, _file_bytes(path, b"")))
    if type(value) is not dict:
        raise FileFormatError(f"{path}: {name} must be a JSON object")
    return value


_scan_once = json.JSONDecoder().scan_once


def _decode(path, line: int, text: str):
    """``json.loads(text)``, where ``text`` starts at ``line`` of the
    file; what it refuses (invalid JSON, a BOM, an integer of too many
    digits, nesting beyond the recursion limit) is named by the file and
    the line the error points at. The C scanner reads most JSON Lines
    lines whole; its StopIteration must not reach ``map``, which it would
    end early."""
    try:
        value, end = _scan_once(text, 0)
    except (StopIteration, ValueError, RecursionError):
        end = None
    if end == len(text):
        return value
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(
            f"{path}:{line + getattr(exc, 'lineno', 1) - 1}: invalid JSON "
            f"({getattr(exc, 'msg', exc)})") from None


# ---------------------------------------------------------------------------
# sample traces

def save_trace(trace: SampleTrace, path) -> None:
    """Write a trace; a weight the readers refuse raises InvalidWeight (a
    ValueError) and no file is written. Floats are written with the
    ``repr`` that ``json.dumps`` uses."""
    check_weights(trace.weights)
    meta = {"sampler": trace.sampler, "seed": trace.seed,
            "start": trace.start, "burn_in": trace.burn_in,
            "thin": trace.thin_interval}
    _write(path, json.dumps(meta) + "\n", (len(trace.nodes), lambda lo, hi: "".join(
        [f'{{"i": {i}, "v": {v}, "w": {w!r}}}\n' for i, v, w in zip(
            trace.steps[lo:hi].tolist(), trace.nodes[lo:hi].tolist(),
            trace.weights[lo:hi].tolist())])))


_TRACE_META = {"sampler": _STRING,
               "seed": _either(_NULL, _SEED, _list_of(_SEED)),
               "start": _either(_NULL, _INTEGER),
               "burn_in": _INTEGER, "thin": _INTEGER}
_TRACE_RECORD = {"i": _INT64, "v": _INT64, "w": _WEIGHT}


def load_trace(path) -> SampleTrace:
    meta_line, meta, lines, rows = _read_jsonl(path, "trace")
    meta = _checked(f"{path}:{meta_line}: meta",
                    {"sampler": "unknown", "seed": None, "start": None,
                     "burn_in": 0, "thin": 1, **meta}, _TRACE_META)
    steps, nodes, weights = _columns(path, lines, rows, _TRACE_RECORD)
    return SampleTrace(nodes=nodes, steps=steps, weights=weights,
                       sampler=meta["sampler"], seed=meta["seed"],
                       start=meta["start"], burn_in=meta["burn_in"],
                       thin_interval=meta["thin"])


def _read_jsonl(path, kind: str) -> tuple[int, dict, np.ndarray, list]:
    """Parse a JSON Lines file whose first non-blank line holds a meta
    object: (meta line number, meta, line numbers of the other
    non-blank lines, their values).

    Each non-blank line is decoded once by :func:`_decode`, so its value
    is that of ``json.loads``, and the first line it refuses is named
    with its error. Lines end at ``\n`` only (see the module docstring).
    """
    lines, nonblank = _kept_lines(path, _file_bytes(path), b"\n")
    values = list(map(_decode, repeat(path), lines.tolist(), nonblank))
    if not values:
        raise FileFormatError(f"{path}:1: missing {kind} meta line")
    if type(values[0]) is not dict:
        raise FileFormatError(
            f"{path}:{lines[0]}: {kind} meta line is not a JSON object")
    return lines[0], values[0], lines[1:], values[1:]


def _columns(path, lines, records, keys: dict) -> list[np.ndarray]:
    """Each key of ``keys`` (an _INT64 or _WEIGHT kind) over the records,
    read by :func:`_column`; a record without the key is named."""
    columns = []
    for key, kind in keys.items():
        try:
            values = list(map(itemgetter(key), records))
        except (KeyError, TypeError):   # a record without the key
            _require(path, lines, [type(r) is dict and key in r for r in records],
                     f"record has no {key!r}", records)
        columns.append(_column(path, lines, values, kind,
                               f"{key!r} must be {kind.what}"))
    return columns


def _column(path, lines, values: list, kind: _Kind, rule: str) -> np.ndarray:
    """``values`` of ``kind`` (_INT64 or _WEIGHT) as one array, taken whole by
    :func:`_whole_column` or else value by value, ``rule`` naming a refusal."""
    column = _whole_column(values, kind)
    if column is None:
        _require(path, lines, list(map(kind.ok, values)), rule, values)
        column = np.asarray(values, np.int64 if kind is _INT64 else float)
    return column


def _whole_column(values: list, kind: _Kind) -> np.ndarray | None:
    """``values`` as one array if their types and numpy range checks show
    each is of ``kind`` (_INT64 or _WEIGHT), else None. Integer weights are
    checked value by value: numpy rounds one just above the float range down."""
    types = set(map(type, values))
    if kind is _INT64 and types <= {int}:
        with suppress(OverflowError):
            return np.asarray(values, np.int64)
    if kind is _WEIGHT and types <= {float}:
        column = np.asarray(values, float)
        if np.all(weights_ok(column)):
            return column
    return None


def _require(path, lines, ok, rule: str, values) -> None:
    """Name the line of the first value the mask ``ok`` refuses."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        got = values[bad[0]]
        if isinstance(got, (np.generic, np.ndarray)):
            got = got.tolist()
        raise FileFormatError(f"{path}:{lines[bad[0]]}: {rule}, got {got!r}")


# ---------------------------------------------------------------------------
# observation logs

def save_log(log: ObservationLog, path) -> None:
    """Write a log; a weight the readers refuse raises InvalidWeight (a
    ValueError) and no file is written."""
    check_weights(log.weights)
    meta = {"mode": log.mode, "N": log.population_hint,
            "categories": list(log.category_names)}
    columns = [np.asarray(x).astype(t, copy=False) for x, t in (
        (log.nodes, np.int64), (log.categories, np.int64),
        (log.degrees, np.int64), (log.weights, float))]

    def records(lo: int, hi: int) -> str:
        tails = ((f', "nbr_cats": {{{nbrs}}}'
                  for nbrs in _nbr_cats(log.neighbor_counts[lo:hi]))
                 if log.mode == STAR else repeat(""))
        return "".join([f'{{"v": {v}, "c": {c}, "deg": {d}, "w": {w!r}{tail}}}\n'
                        for v, c, d, w, tail in zip(
                            *(x[lo:hi].tolist() for x in columns), tails)])

    induced = ()
    if log.mode == INDUCED:
        # json.dumps({"induced_edges": edges}), a block of pairs at a time
        edges = np.asarray(log.induced_edges).astype(np.int64, copy=False)
        induced = ('{"induced_edges": [', (len(edges), lambda lo, hi: (
            ", [%d, %d]" * (hi - lo))[2 if lo == 0 else 0:]
            % tuple(edges[lo:hi].ravel().tolist())), "]}\n")
    _write(path, json.dumps(meta) + "\n", (len(columns[0]), records), *induced)


def _nbr_cats(counts: np.ndarray) -> list[str]:
    """Each star record's ``nbr_cats`` entries, as the text between the
    braces, from its row of ``counts``: its nonzero counts in category
    order."""
    rows, cols = np.nonzero(counts)
    entries = [f'"{c}": {k}' for c, k in
               zip(cols.tolist(), counts[rows, cols].astype(np.int64).tolist())]
    bounds = np.searchsorted(rows, np.arange(len(counts) + 1)).tolist()
    return [", ".join(entries[a:b]) for a, b in zip(bounds, bounds[1:])]


_LOG_META = {"mode": _Kind(" or ".join(MODES), lambda v: v in MODES),
             "categories": _list_of(_STRING),
             "N": _Kind("a positive integer or null", lambda v: v is None
                        or _INTEGER.ok(v) and finite(v) and v > 0)}
_LOG_RECORD = {"v": _INT64, "c": _INT64, "deg": _INT64, "w": _WEIGHT}


def load_log(path) -> ObservationLog:
    """Read a log written by :func:`save_log`.

    Every record must hold an integer node id >= 0, a category id in
    0..C-1, a degree >= 0 and a positive finite weight, and every
    record of a node the same category, degree and weight; star records'
    neighbor counts must sum to their degree and repeat the node's
    first, and induced edges must join two distinct drawn nodes, each
    pair once in either order. A record that breaks a rule is named by
    its line.
    """
    meta_line, meta, lines, rows = _read_jsonl(path, "log")
    meta = _checked(f"{path}:{meta_line}: meta",
                    {"mode": None, "categories": [], "N": None, **meta},
                    _LOG_META)
    mode, names = meta["mode"], meta["categories"]
    induced = None
    if mode == INDUCED:
        if not rows or type(rows[-1]) is not dict \
                or "induced_edges" not in rows[-1]:
            raise FileFormatError(
                f"{path}:{lines[-1] if rows else meta_line}: induced log "
                "missing trailing induced_edges block")
        induced = _edge_block(path, lines[-1], rows[-1]["induced_edges"])
        edge_lines = np.full(len(induced), lines[-1])
        lines, rows = lines[:-1], rows[:-1]

    nodes, cats, degrees, weights = _columns(path, lines, rows, _LOG_RECORD)
    num_categories = len(names) or (int(cats.max()) + 1 if len(cats) else 0)
    _require(path, lines, nodes >= 0, "node id must be >= 0", nodes)
    _require(path, lines, (cats >= 0) & (cats < num_categories),
             f"category must be in 0..{num_categories - 1}", cats)
    _require(path, lines, degrees >= 0, "degree must be >= 0", degrees)
    counts = (_neighbor_counts(path, lines, rows, num_categories)
              if mode == STAR else None)
    log = ObservationLog(
        mode=mode, nodes=nodes, categories=cats, degrees=degrees,
        weights=weights, num_categories=num_categories,
        category_names=tuple(names or map(str, range(num_categories))),
        population_hint=meta["N"], induced_edges=induced, neighbor_counts=counts)
    # each record of a node repeats its first's, read off the log's index
    ids, first, keys, rank, drawn = log._index
    for what, values in (("category", cats), ("degree", degrees),
                         ("weight", weights)):
        _require(path, lines, values == values[first[keys]],
                 f"{what} differs from an earlier record of the node", values)
    if mode == STAR:
        _require(path, lines, counts.sum(axis=1) == degrees,
                 "nbr_cats must sum to deg", counts.sum(axis=1))
        _require(path, lines, (counts == counts[first[keys]]).all(axis=1),
                 "nbr_cats differs from an earlier record of the node", counts)
    else:
        _require(path, edge_lines, np.logical_and(*drawn.T),
                 "induced edge has an undrawn endpoint", induced)
        # edges are keyed by their ends' ranks among the drawn ids, as
        # u * N + v on ids up to 2**63 - 1 would overflow
        u, v = rank.T
        _require(path, edge_lines, u != v, "induced edge is a self-loop",
                 induced)
        _require(path, edge_lines, ~_later_copies(
            np.minimum(u, v) * len(ids) + np.maximum(u, v))[0],
            "induced edge repeats an earlier one", induced)
    return log


def _edge_block(path, lineno: int, block) -> np.ndarray:
    rule = "induced_edges must be a list of [u, v] integer pairs"
    if (type(block) is not list or not set(map(type, block)) <= {list}
            or not set(map(len, block)) <= {2}):
        raise FileFormatError(f"{path}:{lineno}: {rule}")
    flat = list(chain.from_iterable(block))
    return _column(path, [lineno] * len(flat), flat, _INT64, rule).reshape(-1, 2)


def _neighbor_counts(path, lines, records, num_categories: int) -> np.ndarray:
    """The ``nbr_cats`` objects as (n, C) int64 counts, one row a category."""
    nbrs = list(map(dict.get, records, repeat("nbr_cats"), repeat({})))
    _require(path, lines, [type(x) is dict for x in nbrs],
             "nbr_cats must be an object", nbrs)
    rows = np.repeat(np.arange(len(nbrs)), list(map(len, nbrs)))
    entry_lines = lines[rows]
    keys = list(chain.from_iterable(nbrs))
    col_of = {str(c): c for c in range(num_categories)}
    cols = np.fromiter(map(col_of.get, keys, repeat(-1)), np.int64, len(keys))
    _require(path, entry_lines, cols >= 0,
             f"nbr_cats key must be a category in 0..{num_categories - 1}",
             keys)
    values = list(chain.from_iterable(map(dict.values, nbrs)))
    column = _column(path, entry_lines, values, _INT64,
                     "nbr_cats count must be an integer")
    _require(path, entry_lines, column >= 0, "nbr_cats count must be >= 0", values)
    counts = np.zeros((num_categories, len(nbrs)), dtype=np.int64)
    counts[cols, rows] = column
    return counts.T


# ---------------------------------------------------------------------------
# category graphs and estimates

def _estimate_payload(est: CategoryGraphEstimate) -> dict:
    return {"N_mode": est.population_mode,
            "N": est.population,
            "size_estimator": est.size_estimator,
            "weight_estimator": est.weight_estimator,
            "categories": _entries(est.sizes, est.size_variances, "size",
                                   lambda c: {"id": c,
                                              "name": est.category_names[c]}),
            "edges": _entries(est.weights, est.weight_variances, "weight",
                              lambda pair: {"a": pair[0], "b": pair[1]})}


def _entries(values: dict, variances: dict | None, name: str,
             fields: Callable[[object], dict]) -> list[dict]:
    """One entry per key of ``values``, in key order: the key's ``fields``,
    its value as ``name`` and its variance, if any, as ``name + "_var"``."""
    variances = variances or {}
    return [{**fields(key), name: values[key],
             **({f"{name}_var": variances[key]} if key in variances else {})}
            for key in sorted(values)]


def _as_estimate(est: CategoryGraphEstimate | CategoryGraph,
                 names: tuple[str, ...] | None) -> CategoryGraphEstimate:
    """``est`` as an estimate: an exact category graph gives its sizes and
    weights as they are, named ``names`` or else by their ids."""
    if not isinstance(est, CategoryGraph):
        return est
    return CategoryGraphEstimate(
        sizes={c: float(s) for c, s in est.sizes.items()},
        weights=dict(est.weights),
        size_estimator="exact", weight_estimator="exact",
        population=float(sum(est.sizes.values())), population_mode="exact",
        category_names=(tuple(str(c) for c in sorted(est.sizes))
                        if names is None else names))


def save_estimate(est: CategoryGraphEstimate | CategoryGraph, path,
                  names: tuple[str, ...] | None = None) -> None:
    # a non-finite value raises ValueError here, before the file opens
    _write(path, json.dumps(_estimate_payload(_as_estimate(est, names)),
                            indent=1, sort_keys=True, allow_nan=False) + "\n")


_ESTIMATE_KEYS = {"N_mode": _STRING, "N": _FINITE,
                  "size_estimator": _STRING, "weight_estimator": _STRING,
                  "categories": _LIST, "edges": _LIST}
_CATEGORY_KEYS = {"id": _Kind("an integer >= 0",
                               lambda v: _INTEGER.ok(v) and v >= 0),
                  "name": _STRING, "size": _FINITE, "size_var": _FINITE}
_EDGE_KEYS = {"weight": _FINITE, "weight_var": _FINITE}


def load_estimate(path) -> CategoryGraphEstimate:
    """Read an estimate written by :func:`save_estimate`. Invalid JSON, a
    missing key, a value of the wrong JSON type or a non-finite number
    raises FileFormatError naming the file and the key, and so does a
    category id that is negative or repeats an earlier one, an edge whose
    ends are not two listed categories, the lower id first, and an edge
    that repeats an earlier one."""
    at = f"{path}:"
    payload = _checked(at, _read_json(path, "estimate"), _ESTIMATE_KEYS, needs=(
        "N_mode", "size_estimator", "weight_estimator", "categories", "edges"))
    cats = [_checked(at, c, _CATEGORY_KEYS, f"categories[{i}].",
                     needs=("id", "name", "size"))
            for i, c in enumerate(payload["categories"])]
    first = {}
    for i, c in enumerate(cats):
        if first.setdefault(c["id"], i) != i:
            raise FileFormatError(f"{at} 'categories[{i}].id' repeats an "
                                  f"earlier category, got {c['id']!r}")
    listed = _Kind("a listed category id",
                   lambda v: _INTEGER.ok(v) and v in first)
    edges = [_checked(at, e, {"a": listed, "b": listed, **_EDGE_KEYS},
                      f"edges[{i}].", needs=("a", "b", "weight"))
             for i, e in enumerate(payload["edges"])]
    pairs = {}
    for i, e in enumerate(edges):
        if e["a"] >= e["b"]:
            raise FileFormatError(f"{at} 'edges[{i}].b' must be greater "
                                  f"than 'edges[{i}].a', got {e['b']!r}")
        if pairs.setdefault((e["a"], e["b"]), i) != i:
            raise FileFormatError(f"{at} 'edges[{i}]' repeats an earlier "
                                  f"edge, got {[e['a'], e['b']]!r}")
    names_by_id = {c["id"]: c["name"] for c in cats}
    max_id = max(names_by_id) if names_by_id else -1
    names = tuple(names_by_id.get(i, str(i)) for i in range(max_id + 1))
    sizes = {c["id"]: float(c["size"]) for c in cats}
    size_var = {c["id"]: float(c["size_var"]) for c in cats if "size_var" in c}
    weights = {(e["a"], e["b"]): float(e["weight"]) for e in edges}
    weight_var = {(e["a"], e["b"]): float(e["weight_var"])
                  for e in edges if "weight_var" in e}
    return CategoryGraphEstimate(
        sizes=sizes, weights=weights,
        size_estimator=payload["size_estimator"],
        weight_estimator=payload["weight_estimator"],
        population=float(payload.get("N", 0.0)),
        population_mode=payload["N_mode"],
        category_names=names,
        size_variances=size_var or None,
        weight_variances=weight_var or None)


def save_dot(est: CategoryGraphEstimate | CategoryGraph, path,
             names: tuple[str, ...] | None = None) -> None:
    """DOT rendering: one node per category (label=name, size attr),
    one edge per positive-weight pair (weight attr)."""
    est = _as_estimate(est, names)
    lines = ["graph category_graph {"]
    for c in sorted(est.sizes):
        name = est.category_names[c] if c < len(est.category_names) else str(c)
        name = name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {c} [label="{name}", size={est.sizes[c]!r}];')
    for (a, b), w in sorted(est.weights.items()):
        if w > 0:
            lines.append(f"  {a} -- {b} [weight={w!r}];")
    lines.append("}")
    _write(path, "\n".join(lines) + "\n")


def export_category_graph(est: CategoryGraphEstimate | CategoryGraph,
                          fmt: str, path,
                          names: tuple[str, ...] | None = None) -> None:
    """Write an estimate (or exact category graph) as JSON or DOT."""
    if fmt == "json":
        save_estimate(est, path, names=names)
    elif fmt == "dot":
        save_dot(est, path, names=names)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


# ---------------------------------------------------------------------------
# experiment configs

_SWEEP_KEYS = {"graph": _OBJECT, "seed": _SEED,
               "replicates": _count("replicates"),
               "sample_sizes": _list_of(_count("n")),
               **dict.fromkeys(("samplers", "modes", "size_estimators",
                                "weight_estimators"), _list_of(_STRING)),
               "burn_in": _count("burn_in"), "thin": _count("thin_interval"),
               "probe_percentiles": _list_of(_NUMBER),
               "wrw_category_weights": _either(
                   _Kind('"equal"', lambda v: v == "equal"),
                   _list_of(_NUMBER))}
_GRAPH_KEYS = {"synthetic": _OBJECT, "edge_file": _STRING,
               "category_file": _STRING}
_SYNTHETIC_KEYS = {"category_sizes": _list_of(_count("category_sizes")),
                   "k": _count("k"),
                   "inter_edge_count": _either(_NULL,
                                               _count("inter_edge_count")),
                   "alpha": _NUMBER, "seed": _either(_NULL, _SEED)}


def load_config(path) -> ExperimentConfig:
    """Build the graph and sweep of an experiment config. A key outside
    the tables above or a value they, the model or the sweep refuse
    raises FileFormatError naming the file; a graph file's names that."""
    at = f"{path}:"
    raw = _checked(at, _read_json(path, "the config"), _SWEEP_KEYS,
                   closed=True)
    source = _checked(at, raw.get("graph", {}), _GRAPH_KEYS, "graph.",
                      closed=True)
    if "synthetic" in source and len(source) > 1:
        raise FileFormatError(f"{at} graph takes graph.synthetic or "
                              "graph.edge_file/category_file, not both")
    if "synthetic" in source:
        model = _checked(at, source["synthetic"], _SYNTHETIC_KEYS,
                         "graph.synthetic.", needs=("category_sizes", "k"),
                         closed=True)
    elif "edge_file" in source:
        _checked(at, source, _GRAPH_KEYS, "graph.", needs=("category_file",))
        graph = load_graph(source["edge_file"], source["category_file"])
    else:
        raise FileFormatError(f"{at} config needs graph.synthetic or "
                              "graph.edge_file/category_file")
    # only wrw_category_weights may be "equal", its default
    kwargs = {("thin_interval" if key == "thin" else key): value
              for key, value in raw.items()
              if key != "graph" and value != "equal"}
    try:
        if "synthetic" in source:
            graph = synthetic_graph(SyntheticParams(**model))
        return ExperimentConfig(*graph, **kwargs)
    except (ValueError, CategraphError) as exc:
        raise FileFormatError(f"{at} {exc}") from None
