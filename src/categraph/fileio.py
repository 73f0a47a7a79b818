"""File formats: edge lists, category files, trace/log JSONL, estimate
JSON, and DOT export.

Edge files are TSV, one "u<TAB>v" pair per line with integer node ids;
lines starting with '#' are comments. Category files are TSV
"node<TAB>category_name" with exactly one line per node. External node
ids may be any integers that fit 64 bits; they are mapped to dense
0..N-1 ids (in ascending order of the external id) at load time.
Category names are interned to ids in order of first appearance.

Traces and observation logs are JSON Lines: one meta object, then one
object per draw. All writers emit keys in a fixed order so identical
inputs produce byte-identical files; each builds its file as one string
and writes it once.
"""
from __future__ import annotations

import json
import os
import re
import sys
from contextlib import suppress
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import COUNT_FLOORS, CategraphError, FileFormatError
from .estimate import MODES, CategoryGraphEstimate
from .evaluate import ExperimentConfig
from .generate import SyntheticParams, synthetic_graph
from .graph import CategoryGraph, CategoryPartition, Graph
from .observe import INDUCED, STAR, ObservationLog
from .sampling import SampleTrace

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
_FLOAT_MAX = sys.float_info.max
# the largest float whose inverse overflows: a weight must exceed it
_WEIGHT_FLOOR = 2.0 ** -1024
# a refused node id that reads as this once stripped is out of range
_NODE_ID = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# graphs and partitions

# every kept line of a graph file is one record of two tab-separated fields
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_LABEL = np.dtype([("node", np.int64), ("category", object)])


def load_graph(edge_path, category_path) -> tuple[Graph, CategoryPartition]:
    """Load a graph and its category partition from TSV files.

    Every edge endpoint must appear in the category file; nodes that
    appear only there are isolated nodes. Each file is parsed once, by
    :func:`_read_records`. Only a file that parse does not confirm, such
    as one with a refused line, is read again and split into lines, to
    name the earliest refused line, counting blank and comment lines.
    """
    ext_ids, labels, names = _read_categories(category_path)
    part = CategoryPartition(labels=labels, names=names)
    n = len(ext_ids)
    edges = _read_records(edge_path, _EDGE)
    if edges is not None:
        ext = edges.view(np.int64).reshape(-1, 2)
        dense, labeled = _dense_ids(ext_ids, ext)
        if labeled.all():
            # from_edges refuses self-loops and repeated edges
            with suppress(ValueError):
                return Graph.from_edges(n, dense), part

    lines, rows = _numbered_lines(edge_path, comments=True)
    ext, unreadable = _int_rows(rows, 2)
    dense, labeled = _dense_ids(ext_ids, ext)
    self_loop = ext[:, 0] == ext[:, 1]
    duplicate = _later_copies(np.minimum(dense[:, 0], dense[:, 1]) * n
                              + np.maximum(dense[:, 0], dense[:, 1]))
    refused = self_loop | ~(labeled[:, 0] & labeled[:, 1]) | duplicate
    if refused.any():
        row = int(np.argmax(refused))
        u_ext, v_ext = ext[row].tolist()
        if self_loop[row]:
            rule = f"self-loop at node {u_ext}"
        elif not labeled[row].all():
            rule = f"node {ext[row][~labeled[row]][0]} has no category label"
        else:
            rule = f"duplicate edge {u_ext}-{v_ext}"
    elif unreadable is not None:
        row = unreadable
        rule = ("expected 'u<TAB>v'" if rows[row].count("\t") != 1
                else "node ids must be 64-bit decimal integers")
    else:
        return Graph.from_edges(n, dense), part
    raise FileFormatError(f"{edge_path}:{lines[row]}: {rule}")


def _dense_ids(ext_ids: np.ndarray, ext: np.ndarray):
    """The dense id of each external id in ``ext`` and whether the
    category file labels it.

    Each id is first guessed as ``ext - ext_ids[0]``, which is right
    wherever the labeled ids run densely from the first; the difference
    may overflow, and a wrong guess never passes the equality check, so
    only the misses are searched. Where all labeled ids run densely, an
    id is labeled if its guess lies in range.
    """
    if not len(ext_ids):
        return np.zeros_like(ext), np.zeros(ext.shape, dtype=bool)
    guess = ext - ext_ids[0]
    if int(ext_ids[-1]) - int(ext_ids[0]) == len(ext_ids) - 1:
        # read unsigned, the wrapped difference is below N exactly for
        # the ids ext_ids[0]..ext_ids[-1]
        return guess, guess.view(np.uint64) < len(ext_ids)
    dense = np.clip(guess, 0, len(ext_ids) - 1)
    labeled = ext_ids[dense] == ext
    miss = ~labeled
    found = np.minimum(np.searchsorted(ext_ids, ext[miss]), len(ext_ids) - 1)
    dense[miss] = found
    labeled[miss] = ext_ids[found] == ext[miss]
    return dense, labeled


def _later_copies(keys: np.ndarray) -> np.ndarray:
    """Whether each key repeats an earlier one: every copy but the first
    is marked, so the earliest refused row is the one named."""
    order = np.argsort(keys, kind="stable")
    later = np.zeros(len(keys), dtype=bool)
    later[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    return later


def _numbered_lines(path, comments: bool = False) -> tuple[np.ndarray, list]:
    """The 1-based numbers and the text of a file's non-blank lines, and
    with ``comments`` of those not starting with '#'. Lines end at ``\n``
    only, as text mode reads ``\r\n`` and ``\r``; ``str.splitlines`` would
    also split at U+2028, ``\x0c`` and others that JSON strings and TSV
    fields may hold."""
    with open(path) as fh:
        text = fh.read()
    rows = list(filter(None, text.split("\n")))
    # the first UTF-8 byte of each line, a blank line's being its own
    # '\n'; a byte below 128 always stands for that ASCII character
    chars = np.frombuffer((text + "\n").encode(), np.uint8)
    firsts = chars[np.append(0, np.flatnonzero(chars == ord("\n"))[:-1] + 1)]
    keep = firsts != ord("\n")
    if comments and (firsts == ord("#")).any():
        keep &= firsts != ord("#")
        rows = [ln for ln in rows if ln[0] != "#"]
    return np.flatnonzero(keep) + 1, rows


# np.loadtxt opens a path with these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _read_records(path, dtype: np.dtype) -> np.ndarray | None:
    """A graph file's kept lines as records of ``dtype``, read by one
    ``np.loadtxt`` call on the path; an id is read as :func:`_parse_ints`
    reads it. None where the file has no kept line, where that call
    refuses a line, or where a count of the file's lines from its bytes
    does not confirm that it read each kept line as one record.

    The count reads line ends and '#' as their ASCII bytes, as UTF-8
    and the other ASCII-based encodings write them.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:   # text mode, as loadtxt reads, ends lines there too
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    # a line is kept unless it starts with its own '\n' or with '#'
    newline = np.frombuffer(data, np.uint8) == ord("\n")
    blank = int(newline[0]) + np.count_nonzero(newline[1:] & newline[:-1])
    comments = (data.startswith(b"#") + data.count(b"\n#")
                if b"#" in data else 0)
    rows = np.count_nonzero(newline) - blank - comments
    path = os.fsdecode(path)   # loadtxt opens only a str path itself
    if not rows or os.path.splitext(path)[1] in _COMPRESSED:
        return None
    # loadtxt cuts a line at '#', which is right when each starts a line
    cut = "#" if comments and data.count(b"#") == comments else None
    try:
        records = np.loadtxt(path, dtype=dtype, delimiter="\t",
                             comments=cut, ndmin=1)
    except ValueError:
        return None
    return records if len(records) == rows else None


def _read_categories(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The category file as (sorted external ids, the category id of
    each, category names interned in that order).

    Ids are read by the edge file's parser; the earliest line with a
    field count other than two, an unreadable id or an id labeled
    before is named.
    """
    records = _read_records(path, _LABEL)
    if records is not None:
        order = np.argsort(records["node"], kind="stable")
        ext = records["node"][order]
        if not (ext[1:] == ext[:-1]).any():
            return ext, *_interned(records["category"][order].tolist())

    lines, rows = _numbered_lines(path, comments=True)
    tabs = np.fromiter(map(str.count, rows, repeat("\t")), np.int64, len(rows))
    two_fields = len(rows) if (tabs == 1).all() else int(np.argmax(tabs != 1))
    fields = "\t".join(rows[:two_fields]).split("\t") if two_fields else []
    ids, names = fields[0::2], fields[1::2]
    ext, unreadable = _int_rows(ids, 1)
    ext = ext[:, 0]
    twice = _later_copies(ext)
    if twice.any():
        row = int(np.argmax(twice))
        rule = f"node {ext[row]} labeled twice"
    elif unreadable is not None:
        row = unreadable
        rule = f"node id {ids[row]!r} " + (
            "does not fit 64 bits" if _NODE_ID.fullmatch(ids[row].strip())
            else "is not an integer")
    elif two_fields < len(rows):
        row, rule = two_fields, "expected 'node<TAB>category'"
    else:
        order = np.argsort(ext, kind="stable")
        return ext[order], *_interned(list(map(names.__getitem__,
                                               order.tolist())))
    raise FileFormatError(f"{path}:{lines[row]}: {rule}")


def _interned(names: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The category id of each name and the names, interned in order."""
    name_id = {name: c for c, name in enumerate(dict.fromkeys(names))}
    labels = np.fromiter(map(name_id.__getitem__, names), np.int64, len(names))
    return labels, tuple(name_id)


def _int_rows(rows: list[str], width: int) -> tuple[np.ndarray, int | None]:
    """Parse rows of ``width`` tab-separated int64 fields: (the values,
    None), or, when a row cannot be read, (the values of the rows before
    it, its index), found by bisection."""
    values = _parse_ints(rows, width)
    if values is not None:
        return values, None
    lo, hi = 0, len(rows)   # rows[lo:hi] holds the first unreadable row
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_ints(rows[lo:mid], width) is None:
            hi = mid
        else:
            lo = mid
    return _parse_ints(rows[:lo], width), lo


def _parse_ints(rows: list[str], width: int) -> np.ndarray | None:
    """Each field is read as ``np.loadtxt`` reads an int64: ASCII digits
    with an optional sign and surrounding whitespace."""
    if not any(rows):   # loadtxt skips empty rows, and warns if all are
        return None if rows else np.empty((0, width), dtype=np.int64)
    try:
        values = np.loadtxt(rows, dtype=np.int64, delimiter="\t",
                            comments=None, ndmin=2)
    except ValueError:
        return None
    return values if values.shape == (len(rows), width) else None


def save_graph(g: Graph, part: CategoryPartition, edge_path,
               category_path) -> None:
    """Write the edge list (u < v, sorted) and the category file."""
    flat = g.edge_array.ravel().tolist()
    _write(edge_path, ("%d\t%d\n" * (len(flat) // 2)) % tuple(flat))
    names = map(part.names.__getitem__, part.labels.tolist())
    _write(category_path,
           "".join([f"{v}\t{name}\n" for v, name in enumerate(names)]))


def _write(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _check_weights(weights: np.ndarray) -> None:
    """Refuse, before any file opens, a weight the readers would refuse."""
    weights = np.asarray(weights)
    bad = np.flatnonzero(~((weights > _WEIGHT_FLOOR) & (weights <= _FLOAT_MAX)))
    if len(bad):
        raise ValueError(f"draw {bad[0]}: weight must be positive and "
                         f"finite, got {weights[bad[0]].item()!r}")


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
# an integer beyond the largest float does not convert to a finite one
_FINITE = _Kind("a finite number",
                lambda v: _NUMBER.ok(v) and -_FLOAT_MAX <= v <= _FLOAT_MAX)
# and a weight's inverse must be finite too, for the estimators
_WEIGHT = _Kind("a positive finite number", lambda v: (
    type(v) is float or type(v) is int) and _WEIGHT_FLOOR < v <= _FLOAT_MAX)
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
    """A JSON file's object; invalid JSON is named by its line, and a
    value that is not an object by ``name``."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if type(value) is not dict:
        raise FileFormatError(f"{path}: {name} must be a JSON object")
    return value


# ---------------------------------------------------------------------------
# sample traces

def save_trace(trace: SampleTrace, path) -> None:
    """Write a trace; a weight that is not positive and finite raises
    ValueError and no file is written. Floats are written with the
    ``repr`` that ``json.dumps`` uses."""
    _check_weights(trace.weights)
    meta = {"sampler": trace.sampler, "seed": trace.seed,
            "start": trace.start, "burn_in": trace.burn_in,
            "thin": trace.thin_interval}
    draws = zip(trace.steps.tolist(), trace.nodes.tolist(),
                trace.weights.tolist())
    _write(path, json.dumps(meta) + "\n" + "".join(
        [f'{{"i": {i}, "v": {v}, "w": {w!r}}}\n' for i, v, w in draws]))


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


_scan_once = json.JSONDecoder().scan_once


def _decode(line: str):
    """A line's value as ``json.loads`` reads it; the scanner's
    StopIteration must not reach ``map``, which it would end early."""
    try:
        value, end = _scan_once(line, 0)
    except (StopIteration, ValueError, RecursionError):
        end = None
    return value if end == len(line) else json.loads(line)


def _read_jsonl(path, kind: str) -> tuple[int, dict, np.ndarray, list]:
    """Parse a JSON Lines file whose first non-blank line holds a meta
    object: (meta line number, meta, line numbers of the other
    non-blank lines, their values).

    Each non-blank line is decoded once by :func:`_decode`, so its value
    is that of ``json.loads``, and the first line ``json.loads`` refuses
    (invalid JSON, a BOM, an integer of too many digits, nesting beyond
    the recursion limit) is named with its error. Lines end at ``\n``
    only (see :func:`_numbered_lines`).
    """
    lines, nonblank = _numbered_lines(path)
    try:
        values = list(map(_decode, nonblank))
    except (ValueError, RecursionError):
        for lineno, line in zip(lines, nonblank):
            try:
                json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise FileFormatError(f"{path}:{lineno}: invalid JSON "
                                      f"({getattr(exc, 'msg', exc)})") from None
        raise
    if not values:
        raise FileFormatError(f"{path}:1: missing {kind} meta line")
    if type(values[0]) is not dict:
        raise FileFormatError(
            f"{path}:{lines[0]}: {kind} meta line is not a JSON object")
    return lines[0], values[0], lines[1:], values[1:]


def _columns(path, lines, records, keys: dict) -> list[np.ndarray]:
    """Each key of ``keys`` (an _INT64 or _WEIGHT kind) over the records,
    as an int64 or float array. A column is checked whole, by the set of
    its value types and numpy range checks; only a refused one is
    checked value by value, to name the first refused line."""
    columns = []
    for key, kind in keys.items():
        column = _whole_column(records, key, kind)
        if column is None:
            _require(path, lines,
                     [type(r) is dict and key in r for r in records],
                     f"record has no {key!r}", records)
            values = list(map(itemgetter(key), records))
            _require(path, lines, list(map(kind.ok, values)),
                     f"{key!r} must be {kind.what}", values)
            column = np.asarray(values, np.int64 if kind is _INT64 else float)
        columns.append(column)
    return columns


def _whole_column(records, key: str, kind: _Kind) -> np.ndarray | None:
    """The records' ``key`` values as one array if each record holds one
    of ``kind``, else None. Integer weights are left to the exact
    per-value check: numpy rounds one just above the largest float down
    to it."""
    try:
        values = list(map(itemgetter(key), records))
    except (KeyError, TypeError):
        return None
    types = set(map(type, values))
    if kind is _INT64 and types <= {int}:
        with suppress(OverflowError):
            return np.asarray(values, np.int64)
    if kind is _WEIGHT and types <= {float}:
        column = np.asarray(values, float)
        if np.all((column > _WEIGHT_FLOOR) & (column <= _FLOAT_MAX)):
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
    """Write a log; a weight that is not positive and finite raises
    ValueError and no file is written."""
    _check_weights(log.weights)
    meta = {"mode": log.mode, "N": log.population_hint,
            "categories": list(log.category_names)}
    nodes, cats, degrees = (np.asarray(x).astype(np.int64).tolist()
                            for x in (log.nodes, log.categories, log.degrees))
    weights = np.asarray(log.weights).astype(float).tolist()
    records = zip(nodes, cats, degrees, weights)
    if log.mode == STAR:
        records = [
            f'{{"v": {v}, "c": {c}, "deg": {d}, "w": {w!r}, '
            f'"nbr_cats": {{{nbrs}}}}}\n'
            for (v, c, d, w), nbrs in zip(records, _nbr_cats(log))]
    else:
        records = [f'{{"v": {v}, "c": {c}, "deg": {d}, "w": {w!r}}}\n'
                   for v, c, d, w in records]
    if log.mode == INDUCED:
        edges = np.asarray(log.induced_edges).astype(np.int64).tolist()
        records.append(json.dumps({"induced_edges": edges}) + "\n")
    _write(path, json.dumps(meta) + "\n" + "".join(records))


def _nbr_cats(log: ObservationLog) -> list[str]:
    """Each star record's ``nbr_cats`` entries, as the text between the
    braces: its nonzero counts in category order."""
    counts = log.neighbor_counts
    rows, cols = np.nonzero(counts)
    entries = [f'"{c}": {k}' for c, k in
               zip(cols.tolist(), counts[rows, cols].astype(np.int64).tolist())]
    bounds = np.searchsorted(rows, np.arange(len(counts) + 1)).tolist()
    return [", ".join(entries[a:b]) for a, b in zip(bounds, bounds[1:])]


_LOG_META = {"mode": _Kind(" or ".join(MODES), lambda v: v in MODES),
             "categories": _list_of(_STRING),
             "N": _Kind("a positive integer or null",
                        lambda v: v is None or _INTEGER.ok(v) and v > 0)}
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
        induced_line, lines, rows = lines[-1], lines[:-1], rows[:-1]

    nodes, cats, degrees, weights = _columns(path, lines, rows, _LOG_RECORD)
    num_categories = len(names) or (int(cats.max()) + 1 if len(cats) else 0)
    _require(path, lines, nodes >= 0, "node id must be >= 0", nodes)
    _require(path, lines, (cats >= 0) & (cats < num_categories),
             f"category must be in 0..{num_categories - 1}", cats)
    _require(path, lines, degrees >= 0, "degree must be >= 0", degrees)
    # each record of a node repeats its first's category, degree, weight
    _, first, inverse = np.unique(nodes, return_index=True,
                                  return_inverse=True)
    first = first[inverse]
    for what, values in (("category", cats), ("degree", degrees),
                         ("weight", weights)):
        _require(path, lines, values == values[first],
                 f"{what} differs from an earlier record of the node", values)

    counts = None
    if mode == STAR:
        counts = _neighbor_counts(path, lines, rows, num_categories)
        _require(path, lines, counts.sum(axis=1) == degrees,
                 "nbr_cats must sum to deg", counts.sum(axis=1))
        _require(path, lines, (counts == counts[first]).all(axis=1),
                 "nbr_cats differs from an earlier record of the node", counts)
    else:
        edge_lines = np.full(len(induced), induced_line)
        drawn = np.logical_and(*np.isin(induced, nodes).T)
        _require(path, edge_lines, drawn,
                 "induced edge has an undrawn endpoint", induced)
        # key each edge by its endpoints' ranks among the drawn ids the
        # edges hold, as u * N + v on ids up to 2**63 - 1 would overflow
        ends, rank = np.unique(induced, return_inverse=True)
        u, v = rank.reshape(induced.shape).T
        _require(path, edge_lines, u != v, "induced edge is a self-loop",
                 induced)
        _require(path, edge_lines, ~_later_copies(
            np.minimum(u, v) * len(ends) + np.maximum(u, v)),
            "induced edge repeats an earlier one", induced)
    return ObservationLog(
        mode=mode, nodes=nodes, categories=cats, degrees=degrees,
        weights=weights, num_categories=num_categories,
        category_names=tuple(names or map(str, range(num_categories))),
        population_hint=meta["N"],
        induced_edges=induced, neighbor_counts=counts)


def _edge_block(path, lineno: int, block) -> np.ndarray:
    if (type(block) is list and set(map(type, block)) <= {list}
            and set(map(len, block)) <= {2}):
        flat = list(chain.from_iterable(block))
        if all(map(_INT64.ok, flat)):
            return np.asarray(flat, dtype=np.int64).reshape(-1, 2)
    raise FileFormatError(
        f"{path}:{lineno}: induced_edges must be a list of [u, v] "
        "integer pairs")


def _neighbor_counts(path, lines, records, num_categories: int) -> np.ndarray:
    """The star records' ``nbr_cats`` objects as an (n, C) count matrix."""
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
    _require(path, entry_lines, list(map(_INT64.ok, values)),
             "nbr_cats count must be an integer", values)
    _require(path, entry_lines, np.asarray(values, dtype=np.int64) >= 0,
             "nbr_cats count must be >= 0", values)
    counts = np.zeros((len(nbrs), num_categories), dtype=np.int64)
    counts[rows, cols] = values
    return counts


# ---------------------------------------------------------------------------
# category graphs and estimates

def _estimate_payload(est: CategoryGraphEstimate) -> dict:
    cats = []
    for c in sorted(est.sizes):
        entry = {"id": c, "name": est.category_names[c],
                 "size": est.sizes[c]}
        if est.size_variances and c in est.size_variances:
            entry["size_var"] = est.size_variances[c]
        cats.append(entry)
    edges = []
    for a, b in sorted(est.weights):
        entry = {"a": a, "b": b, "weight": est.weights[(a, b)]}
        if est.weight_variances and (a, b) in est.weight_variances:
            entry["weight_var"] = est.weight_variances[(a, b)]
        edges.append(entry)
    return {"N_mode": est.population_mode,
            "N": est.population,
            "size_estimator": est.size_estimator,
            "weight_estimator": est.weight_estimator,
            "categories": cats,
            "edges": edges}


def _exact_as_estimate(cg: CategoryGraph,
                       names: tuple[str, ...] | None) -> CategoryGraphEstimate:
    n = sum(cg.sizes.values())
    if names is None:
        names = tuple(str(c) for c in sorted(cg.sizes))
    return CategoryGraphEstimate(
        sizes={c: float(s) for c, s in cg.sizes.items()},
        weights=dict(cg.weights),
        size_estimator="exact", weight_estimator="exact",
        population=float(n), population_mode="exact",
        category_names=names)


def save_estimate(est: CategoryGraphEstimate | CategoryGraph, path,
                  names: tuple[str, ...] | None = None) -> None:
    if isinstance(est, CategoryGraph):
        est = _exact_as_estimate(est, names)
    # a non-finite value raises ValueError here, before the file opens
    _write(path, json.dumps(_estimate_payload(est), indent=1, sort_keys=True,
                            allow_nan=False) + "\n")


_ESTIMATE_KEYS = {"N_mode": _STRING, "N": _FINITE,
                  "size_estimator": _STRING, "weight_estimator": _STRING,
                  "categories": _LIST, "edges": _LIST}
_CATEGORY_KEYS = {"id": _Kind("an integer >= 0",
                               lambda v: _INTEGER.ok(v) and v >= 0),
                  "name": _STRING, "size": _FINITE, "size_var": _FINITE}
_EDGE_KEYS = {"a": _INTEGER, "b": _INTEGER, "weight": _FINITE,
              "weight_var": _FINITE}


def load_estimate(path) -> CategoryGraphEstimate:
    """Read an estimate written by :func:`save_estimate`. Invalid JSON, a
    missing key, a value of the wrong JSON type or a non-finite number
    raises FileFormatError naming the file and the key, and so does a
    category id that is negative or repeats an earlier one."""
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
    edges = [_checked(at, e, _EDGE_KEYS, f"edges[{i}].",
                      needs=("a", "b", "weight"))
             for i, e in enumerate(payload["edges"])]
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
    if isinstance(est, CategoryGraph):
        est = _exact_as_estimate(est, names)
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
