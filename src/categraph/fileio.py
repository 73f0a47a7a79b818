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
import math
import re
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from .errors import FileFormatError
from .estimate import MODES, CategoryGraphEstimate
from .graph import CategoryGraph, CategoryPartition, Graph
from .observe import INDUCED, STAR, ObservationLog
from .sampling import SampleTrace

_INT64_MIN, _INT64_MAX = -2**63, 2**63 - 1
# a refused node id that reads as this once stripped is out of range
_NODE_ID = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# graphs and partitions

def load_graph(edge_path, category_path) -> tuple[Graph, CategoryPartition]:
    """Load a graph and its category partition from TSV files.

    Every edge endpoint must appear in the category file; nodes that
    appear only there are isolated nodes. Both files are parsed in bulk
    and checked with array operations; the earliest refused line is
    named, counting blank and comment lines.
    """
    ext_ids, labels, names = _read_categories(category_path)
    lines, rows = _numbered_lines(edge_path, comments=True)
    ext, unreadable = _int_rows(rows, 2)

    n = len(ext_ids)
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
        return Graph.from_edges(n, dense), CategoryPartition(labels=labels,
                                                             names=names)
    raise FileFormatError(f"{edge_path}:{lines[row]}: {rule}")


def _dense_ids(ext_ids: np.ndarray, ext: np.ndarray):
    """The dense id of each external id in ``ext`` and whether the
    category file labels it.

    Each id is first guessed as ``ext - ext_ids[0]``, which is right
    wherever the labeled ids run densely from the first; the difference
    may overflow, and a wrong guess never passes the equality check, so
    only the misses are searched.
    """
    if not len(ext_ids):
        return np.zeros_like(ext), np.zeros(ext.shape, dtype=bool)
    dense = np.clip(ext - ext_ids[0], 0, len(ext_ids) - 1)
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


def _read_categories(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The category file as (sorted external ids, the category id of
    each, category names interned in that order).

    Ids are read by the edge file's parser; the earliest line with a
    field count other than two, an unreadable id or an id labeled
    before is named.
    """
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
        order = np.argsort(ext)
        names = list(map(names.__getitem__, order.tolist()))
        name_id = {name: c for c, name in enumerate(dict.fromkeys(names))}
        labels = np.fromiter(map(name_id.__getitem__, names), np.int64)
        return ext[order], labels, tuple(name_id)
    raise FileFormatError(f"{path}:{lines[row]}: {rule}")


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
    bad = np.flatnonzero(~(np.isfinite(weights) & (weights > 0)))
    if len(bad):
        raise ValueError(f"draw {bad[0]}: weight must be positive and "
                         f"finite, got {weights[bad[0]].item()!r}")


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


def load_trace(path) -> SampleTrace:
    meta_line, meta, lines, rows = _read_jsonl(path, "trace")
    weights = _column(path, lines, rows, "w", float)
    _require(path, lines, np.isfinite(weights) & (weights > 0),
             "weight must be positive and finite", weights)
    start = _meta(path, meta_line, meta, "start", None,
                  lambda v: v is None or type(v) is int,
                  "must be an integer or null")
    burn_in, thin = (_meta(path, meta_line, meta, key, default,
                           lambda v: type(v) is int, "must be an integer")
                     for key, default in (("burn_in", 0), ("thin", 1)))
    return SampleTrace(
        nodes=_column(path, lines, rows, "v", int),
        steps=_column(path, lines, rows, "i", int),
        weights=weights,
        sampler=meta.get("sampler", "unknown"),
        seed=meta.get("seed"), start=start, burn_in=burn_in,
        thin_interval=thin)


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
    is that of ``json.loads``, and a line ``json.loads`` refuses (invalid
    JSON, a BOM) is named with its error. Lines end at ``\n`` only (see
    :func:`_numbered_lines`).
    """
    lines, nonblank = _numbered_lines(path)
    try:
        values = list(map(_decode, nonblank))
    except json.JSONDecodeError as exc:
        # every earlier copy of the failing line parsed, so this finds it
        lineno = lines[nonblank.index(exc.doc)]
        raise FileFormatError(
            f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
    if not values:
        raise FileFormatError(f"{path}:1: missing {kind} meta line")
    if type(values[0]) is not dict:
        raise FileFormatError(
            f"{path}:{lines[0]}: {kind} meta line is not a JSON object")
    return lines[0], values[0], lines[1:], values[1:]


def _typed(values, kind: type) -> list[bool]:
    """Which values are JSON integers that fit 64 bits (``int``) or JSON
    numbers (``float``); booleans are neither."""
    if kind is int:
        return [type(v) is int and _INT64_MIN <= v <= _INT64_MAX
                for v in values]
    return [type(v) in (int, float) for v in values]


def _column(path, lines, records, key: str, kind: type) -> np.ndarray:
    """``key`` of every record as an int64 or float array."""
    _require(path, lines, [type(r) is dict and key in r for r in records],
             f"record has no {key!r}", records)
    values = list(map(itemgetter(key), records))
    _require(path, lines, _typed(values, kind),
             f"{key!r} must be {'an integer' if kind is int else 'a number'}",
             values)
    return np.asarray(values, dtype=np.int64 if kind is int else float)


def _require(path, lines, ok, rule: str, values) -> None:
    """Name the line of the first value the mask ``ok`` refuses."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if len(bad):
        got = values[bad[0]]
        if isinstance(got, (np.generic, np.ndarray)):
            got = got.tolist()
        raise FileFormatError(f"{path}:{lines[bad[0]]}: {rule}, got {got!r}")


def _meta(path, lineno, meta: dict, key: str, default, ok, rule: str):
    value = meta.get(key, default)
    if not ok(value):
        raise FileFormatError(
            f"{path}:{lineno}: meta {key!r} {rule}, got {value!r}")
    return value


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
    mode = _meta(path, meta_line, meta, "mode", None,
                 lambda v: v in MODES, f"must be {' or '.join(MODES)}")
    names = _meta(path, meta_line, meta, "categories", [],
                  lambda v: type(v) is list and all(type(x) is str for x in v),
                  "must be a list of names")
    population = _meta(path, meta_line, meta, "N", None,
                       lambda v: v is None or type(v) is int and v > 0,
                       "must be a positive integer or null")
    induced = None
    if mode == INDUCED:
        if not rows or type(rows[-1]) is not dict \
                or "induced_edges" not in rows[-1]:
            raise FileFormatError(
                f"{path}:{lines[-1] if rows else meta_line}: induced log "
                "missing trailing induced_edges block")
        induced = _edge_block(path, lines[-1], rows[-1]["induced_edges"])
        induced_line, lines, rows = lines[-1], lines[:-1], rows[:-1]

    nodes = _column(path, lines, rows, "v", int)
    cats = _column(path, lines, rows, "c", int)
    degrees = _column(path, lines, rows, "deg", int)
    weights = _column(path, lines, rows, "w", float)
    num_categories = len(names) or (int(cats.max()) + 1 if len(cats) else 0)
    _require(path, lines, nodes >= 0, "node id must be >= 0", nodes)
    _require(path, lines, (cats >= 0) & (cats < num_categories),
             f"category must be in 0..{num_categories - 1}", cats)
    _require(path, lines, degrees >= 0, "degree must be >= 0", degrees)
    _require(path, lines, np.isfinite(weights) & (weights > 0),
             "weight must be positive and finite", weights)
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
        population_hint=population,
        induced_edges=induced, neighbor_counts=counts)


def _edge_block(path, lineno: int, block) -> np.ndarray:
    if (type(block) is list and set(map(type, block)) <= {list}
            and set(map(len, block)) <= {2}):
        flat = list(chain.from_iterable(block))
        if all(_typed(flat, int)):
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
    _require(path, entry_lines, _typed(values, int),
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


_STRING = (lambda v: type(v) is str, "a string")
_INTEGER = (lambda v: type(v) is int, "an integer")
_NUMBER = (lambda v: type(v) in (int, float) and math.isfinite(v),
           "a finite number")
_LIST = (lambda v: type(v) is list, "a list")
# key: (required, (check, what the value must be))
_ESTIMATE_KEYS = {"N_mode": (True, _STRING), "N": (False, _NUMBER),
                  "size_estimator": (True, _STRING),
                  "weight_estimator": (True, _STRING),
                  "categories": (True, _LIST), "edges": (True, _LIST)}
_CATEGORY_KEYS = {"id": (True, _INTEGER), "name": (True, _STRING),
                  "size": (True, _NUMBER), "size_var": (False, _NUMBER)}
_EDGE_KEYS = {"a": (True, _INTEGER), "b": (True, _INTEGER),
              "weight": (True, _NUMBER), "weight_var": (False, _NUMBER)}


def _checked(path, where: str, obj, keys: dict) -> dict:
    """``obj``, once it is a JSON object whose ``keys`` are present when
    required and of the right JSON type; ``where`` prefixes key names."""
    if type(obj) is not dict:
        raise FileFormatError(
            f"{path}: {where.rstrip('.') or 'estimate'} must be a JSON object")
    for key, (required, (ok, what)) in keys.items():
        if key not in obj:
            if required:
                raise FileFormatError(f"{path}: missing key {where + key!r}")
        elif not ok(obj[key]):
            raise FileFormatError(
                f"{path}: {where + key!r} must be {what}, got {obj[key]!r}")
    return obj


def load_estimate(path) -> CategoryGraphEstimate:
    """Read an estimate written by :func:`save_estimate`. Invalid JSON, a
    missing key, a value of the wrong JSON type or a non-finite number
    raises FileFormatError naming the file and the key."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    payload = _checked(path, "", payload, _ESTIMATE_KEYS)
    cats = [_checked(path, f"categories[{i}].", c, _CATEGORY_KEYS)
            for i, c in enumerate(payload["categories"])]
    edges = [_checked(path, f"edges[{i}].", e, _EDGE_KEYS)
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
