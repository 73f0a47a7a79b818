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
0..N-1 ids, in ascending order, by a rank table or one search.
Category names are interned to ids in order of first appearance. Each
graph file has one reader: one ``np.loadtxt`` parse, and a bisection
with that parse over the lines only to find a refused one.

Traces and observation logs are JSON Lines: one meta object, then one
object per draw. All writers emit keys in a fixed order so identical
inputs produce byte-identical files; each writes its rows in blocks of
``_BLOCK``, so its transient memory is one block's, not its file's. A
block is a numpy byte array, a row a line or a segment of one: literal
bytes and each field's text right-aligned, kept by a mask read off each
field's length.

A parse is kept beside its file, keyed by the file's bytes (each writer
hashes each block as it writes it): one JSON meta object and the flat
arrays a parse yields, a graph's CSR and labels with its names and
connectivity as meta, a star log's counts as their nonzero (record,
category, count) entries. One reader, ``_from_sidecar``, takes any kind
where its file, hashed on a helper thread meanwhile, holds the key; the
same rules then run on its arrays as on a parse's, and a sidecar that
fails in any way is parsed past.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
import zipfile
from contextlib import suppress
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

import numpy as np

from .errors import (COUNT_FLOORS, CategraphError, FileFormatError,
                     InvalidParameter, check_weights, finite, weights_ok)
from .estimate import MODES, CategoryGraphEstimate
from .evaluate import ExperimentConfig
from .generate import SyntheticParams, synthetic_graph
from .graph import (CategoryGraph, CategoryPartition, Graph, _csr_rules, _distinct,
                    _lookup)
from .observe import INDUCED, STAR, ObservationLog, _refusal
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
# sidecars: a file's parse kept beside it, as ``<file>.categraph.npz``

_SIDECAR = ".categraph.npz"
_VERSIONS = {"graph": 3, "trace": 1, "log": 3}   # of what each kind holds


def _key(kind: str, *paths) -> bytes | None:
    """SHA-256 over ``kind``'s format version, numpy's and each file's bytes
    and length; None where one is not a regular file, as a pipe, which a
    hash would drain, cannot be opened or is no path, which a parse names."""
    key = _seeded(kind)
    with suppress(OSError, TypeError):
        if all(map(os.path.isfile, paths)):
            for path in paths:
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(2**16), b""):
                        key.update(block)
                    key.update(fh.tell().to_bytes(8, "little"))
            return key.digest()
    return None


def _seeded(kind: str):
    """SHA-256 of ``kind``'s format version and numpy's, which ``_key`` and
    ``_write`` go on to feed a file's bytes and length."""
    return hashlib.sha256(f"categraph {kind} {_VERSIONS[kind]}, "
                          f"numpy {np.__version__}".encode())


def _from_sidecar(kind: str, path, build: Callable, *paths):
    """``build(meta, arrays)`` of the sidecar beside ``path`` (its JSON meta
    object and flat arrays, read without unpickling) where it holds the key
    of ``paths``, hashed meanwhile on a helper thread once it opens; else
    None, as for one that fails to read or that ``build`` refuses by raising."""
    keys = []
    thread = threading.Thread(target=lambda: keys.append(_key(kind, *paths)))
    with suppress(Exception), open(os.fsdecode(path) + _SIDECAR, "rb") as fh:
        thread.start()
        with np.load(fh, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        stored = arrays.pop("key").tobytes()
        built = build(json.loads(arrays.pop("meta").tobytes()), arrays)
        thread.join()
        if stored == keys[0]:
            return built
    if thread.is_alive():   # joined, so that no thread outlives the read
        thread.join()


def _keep(path, key: bytes, arrays: dict) -> None:
    """Write ``key`` and ``arrays`` (arrays or (array, dtype) pairs) beside
    ``path`` in np.savez's bytes, no entry dated by the clock, each cast ``_BLOCK``
    items at a time, via a temporary file moved into place; an OSError leaves none."""
    path = os.fsdecode(path) + _SIDECAR
    with suppress(OSError):
        fd, tmp = tempfile.mkstemp(".tmp", os.path.basename(path) + ".",
                                   os.path.dirname(path) or ".")
        try:
            with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as zf:
                for name, a in {"key": key, **arrays}.items():
                    a, dtype = a if type(a) is tuple else (a, np.asarray(a).dtype)
                    with zf.open(name + ".npy", "w", force_zip64=True) as member:
                        np.lib.format.write_array_header_1_0(member, {
                            "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                            "fortran_order": False, "shape": np.shape(a)})
                        for lo in range(0, np.size(a), _BLOCK):
                            member.write(np.ravel(a)[lo:lo + _BLOCK].astype(dtype))
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise


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
    lines. A pair that passes is kept beside the edge file, as by ``save_graph``,
    in ``<edge file>.categraph.npz``, which a load of the same bytes reads.
    """
    pair = _from_sidecar("graph", edge_path, _kept_graph, category_path, edge_path)
    if pair is not None:
        return pair
    key = _key("graph", category_path, edge_path)
    g, part = _parse_graph(edge_path, category_path)
    if key and _key("graph", category_path, edge_path) == key:
        _keep_graph(edge_path, key, g, part)
    return g, part


def _kept_graph(meta: dict, arrays: dict) -> tuple[Graph, CategoryPartition]:
    """A graph sidecar's pair, once its meta and arrays are of the kinds
    ``_keep_graph`` writes, a label a node, and its CSR passes ``_csr_rules``,
    the O(N+E) part of Graph.validate, which ``save_graph`` ran in full."""
    names, connected = meta["names"], meta["connected"]
    stored = [arrays[a] for a in ("indptr", "indices", "labels")]
    if not (type(names) is list and set(map(type, names)) <= {str}
            and type(connected) is bool
            and all(a.ndim == 1 and a.dtype.kind in "iu" for a in stored)
            and len(stored[0]) == len(stored[2]) + 1):
        raise ValueError("the graph sidecar fails its checks")
    indptr, indices, labels = (a.astype(np.int64, copy=False) for a in stored)
    _csr_rules(indptr, indices)
    g = Graph(indptr=indptr, indices=indices)
    vars(g)["is_connected"] = connected   # the cached property
    return g, CategoryPartition(labels=labels, names=tuple(names))


def _keep_graph(edge_path, key: bytes, g: Graph, part: CategoryPartition) -> None:
    """Keep the pair beside the edge file as its files parse to it: the names
    in order of first appearance, the labels renumbered to match."""
    order = np.argsort(_distinct(part.labels)[1])
    labels = np.argsort(order)[part.labels]
    _keep(edge_path, key, {
        "meta": json.dumps({"names": [part.names[c] for c in order],
                            "connected": g.is_connected}).encode(),
        "indptr": (g.indptr, np.int64), "labels": (labels, np.int64),
        "indices": (g.indices, np.min_scalar_type(g.node_count))})


def _parse_graph(edge_path, category_path) -> tuple[Graph, CategoryPartition]:
    """The graph files' parse, their earliest refused line named."""
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
    # every copy of an edge but its first is refused, so the earliest is named
    _, first, which = _distinct(np.minimum(dense[:, 0], dense[:, 1]) * n
                                + np.maximum(dense[:, 0], dense[:, 1]))
    refused = (self_loop | ~(labeled[:, 0] & labeled[:, 1])
               | (first[which] != np.arange(len(ext))))
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


def _read_categories(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """The category file as (sorted external ids, the category id of
    each, category names interned in that order). Ids are read by the
    edge file's rule; the earliest line with a field count other than
    two, an unreadable id or an id labeled before is named."""
    records, bad = _read_table(path, _LABEL)
    nodes = records["node"]
    ids, first, which = _distinct(nodes)
    twice = first[which] != np.arange(len(nodes))
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
        names = records["category"][first].tolist()   # ids distinct: first sorts them
        name_id = {name: c for c, name in enumerate(dict.fromkeys(names))}
        labels = np.fromiter(map(name_id.__getitem__, names), np.int64, len(names))
        return ids, labels, tuple(name_id)
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
    """Write the category file and the edge list (u < v, sorted). A graph
    that fails ``Graph.validate``, a partition of another node count, a
    name the reader would refuse or merge, or a category without members,
    which the category file cannot hold, raises ValueError; nothing is
    written. Where ``g``'s connectivity is cached, the files' parse is
    kept, keyed by the bytes as written."""
    g.validate()
    part.labels_for(g)   # a ValueError where the node counts differ
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
    names = [name.encode() for name in part.names]
    key = _seeded("graph") if "is_connected" in vars(g) else None
    labeled = _write(category_path, (part.node_count, lambda lo, hi: _rows(
        np.arange(lo, hi), b"\t", _table(names, part.labels[lo:hi]), b"\n")), key=key)
    u, v = g.edge_array.T
    key = _write(edge_path, (g.edge_count, lambda lo, hi: _rows(
        u[lo:hi], b"\t", v[lo:hi], b"\n")), key=key)
    if labeled and key:
        _keep_graph(edge_path, key, g, part)


def _write(path, *parts, key=None) -> bytes | None:
    """Write ``parts`` in order: a string as UTF-8, and a (count, block)
    pair as ``block(lo, hi)``, the bytes of rows lo..hi-1, for each run of
    ``_BLOCK`` of its ``count`` rows. With ``key``, a ``_seeded`` hash, feed
    it the bytes as they are written and their length, as ``_key`` does,
    and return its digest, or None where ``path`` is not a regular file."""
    size = 0
    with open(path, "wb") as fh:
        for part in parts:
            count, block = ((1, lambda lo, hi: part.encode())
                            if isinstance(part, str) else part)
            for lo in range(0, count, _BLOCK):
                data = block(lo, min(lo + _BLOCK, count))
                size += fh.write(data)
                if key:
                    key.update(data)
    if key and os.path.isfile(path):
        key.update(size.to_bytes(8, "little"))
        return key.digest()
    return None


def _rows(*parts) -> bytes:
    """A block of rows: the bytes :func:`_block` keeps."""
    text, keep = _block(*parts)
    return text[keep].tobytes()


def _block(*parts, multiple: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """A block of rows as (rows, width) uint8 bytes and the mask of those
    kept: ``parts`` side by side, each a literal (bytes), a column (of
    :func:`_field`) or a field (text, lengths), whose text is right-aligned,
    its last ``length`` bytes kept. A width rounded up to a ``multiple``
    adds bytes not kept."""
    parts = [(np.frombuffer(p, np.uint8), len(p)) if type(p) is bytes
             else p if type(p) is tuple else _field(p) for p in parts]
    ends = np.cumsum([t.shape[-1] for t, _ in parts])
    rows = next(len(n) for _, n in parts if np.ndim(n))
    text = np.empty((rows, -(-ends[-1] // multiple) * multiple), np.uint8)
    keep = np.zeros(text.shape, bool)
    for (t, n), end in zip(parts, ends):
        w = t.shape[-1]
        _items(text[:, end - w:end])[:] = _items(t)
        kept = np.arange(w) >= w - np.arange(w + 1)[:, None]   # by length
        _items(keep[:, end - w:end])[:] = _items(kept)[n]
    return text, keep


def _items(a: np.ndarray) -> np.ndarray:
    """``a``'s rows along its last axis as items, which numpy copies whole."""
    return a.view(np.dtype((np.void, a.shape[-1])))[..., 0]


def _field(column) -> tuple[np.ndarray, np.ndarray]:
    """A column's text and each row's length: integers in decimal, the
    digits of their unsigned magnitudes by division by 10; other values as
    their float's ``repr``, as ``json.dumps`` writes it, made once for each
    distinct value."""
    column = np.asarray(column)
    if column.dtype.kind not in "iu":
        bits, which = np.unique(column.astype(float).view(np.int64),
                                return_inverse=True)
        return _table([repr(x).encode() for x in bits.view(float).tolist()], which)
    neg = column < 0
    mag = column.astype(np.uint64)   # modulo 2**64, so that negating it gives
    np.negative(mag, out=mag, where=neg)   # the magnitude of any int, -2**63 too
    digits = len(str(mag.max(initial=0)))
    length = sum((mag >= np.uint64(10 ** k) for k in range(1, digits)), 1 + neg)
    text = np.empty((len(mag), digits + neg.any()), np.uint8)
    for k in range(text.shape[1] - 1, -1, -1):
        tens = mag // 10
        text[:, k] = mag - tens * 10
        mag = tens
    text += ord("0")
    text[neg, text.shape[1] - length[neg]] = ord("-")
    return text, length


def _table(texts: list[bytes], which) -> tuple[np.ndarray, np.ndarray]:
    """The field of each ``texts[which]``, from a table of the texts."""
    lengths = np.array(list(map(len, texts)), np.int64)
    width = int(lengths.max(initial=1))
    table = np.frombuffer(b"".join(t.rjust(width) for t in texts), np.uint8)
    return np.take(table.reshape(len(texts), width), which, 0), lengths[which]


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
_NATURAL = _Kind("an integer >= 0", lambda v: _INTEGER.ok(v) and v >= 0)
_SEED = _count("seed")


def _checked(at: str, obj, keys: dict, where: str = "", needs=(),
             closed: bool = False, error: type = FileFormatError) -> dict:
    """``obj``, once it is a JSON object holding ``needs``, each key in
    ``keys`` holding a value of its kind and, if ``closed``, no other key;
    else ``error``. Messages start with ``at``; ``where`` prefixes keys."""
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
            raise error(
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
    """Write a trace; a weight the readers refuse raises InvalidWeight, and
    meta they refuse or a step or node that is no whole number within int64
    InvalidParameter (both ValueErrors), with the reader's rule, and no file
    is written. Steps and nodes are written as integers, and weights with
    the ``repr`` that ``json.dumps`` uses."""
    check_weights(trace.weights)
    meta = json.dumps(_checked("trace meta", {
        "sampler": trace.sampler, "seed": trace.seed, "start": trace.start,
        "burn_in": trace.burn_in, "thin": trace.thin_interval}, _TRACE_META,
        error=InvalidParameter))
    steps, nodes, weights = columns = (
        _integers(trace.steps, "'i'"), _integers(trace.nodes, "'v'"), trace.weights)
    key = _write(path, meta + "\n", (len(nodes), lambda lo, hi: _rows(
        b'{"i": ', steps[lo:hi], b', "v": ', nodes[lo:hi], b', "w": ',
        weights[lo:hi], b"}\n")), key=_seeded("trace"))
    _leave(path, key, meta, dict(zip("ivw", columns)))


_TRACE_META = {"sampler": _STRING,
               "seed": _either(_NULL, _SEED, _list_of(_SEED)),
               "start": _either(_NULL, _NATURAL),
               "burn_in": _count("burn_in"), "thin": _count("thin_interval")}
# the record columns of traces ("i", "v" and "w") and logs
_RECORD = {"i": _INT64, "v": _INT64, "c": _INT64, "deg": _INT64, "w": _WEIGHT}


def load_trace(path) -> SampleTrace:
    return _read_records(path, "trace", _trace)


def _trace(path, meta_line: int, meta, lines, rows) -> SampleTrace:
    meta = _checked(f"{path}:{meta_line}: meta",
                    {"sampler": "unknown", "seed": None, "start": None,
                     "burn_in": 0, "thin": 1, **meta}, _TRACE_META)
    steps, nodes, weights = (rows[key] for key in "ivw")   # in the order read
    return SampleTrace(nodes=nodes, steps=steps, weights=weights,
                       sampler=meta["sampler"], seed=meta["seed"],
                       start=meta["start"], burn_in=meta["burn_in"],
                       thin_interval=meta["thin"])


def _integers(values, what: str, row: str = "draw") -> np.ndarray:
    """``values`` as int64, where each is a whole number within int64 (an
    integer, a boolean or a whole float); else InvalidParameter naming the
    ``row`` of the first other value and ``what`` it is."""
    column = np.asarray(values)
    if column.dtype.kind not in "biuf":
        raise InvalidParameter(f"{what} must be an integer, got {column.dtype} values")
    with np.errstate(invalid="ignore"):   # NaN and floats beyond int64 cast to any int
        ints = column.astype(np.int64, copy=False)
    whole = ints == column
    if column.dtype.kind == "f":   # 2**63 may cast to 2**63 - 1, equal as a float
        whole &= column < 2.0**63
    bad = np.nonzero(~whole)[0]
    if len(bad):
        raise InvalidParameter(f"{row} {bad[0]}: {what} must be an integer, "
                               f"got {column[bad[0]].tolist()!r}")
    return ints


def _leave(path, key: bytes | None, meta: str, arrays: dict) -> None:
    """Keep the meta line and ``arrays`` a JSON Lines writer just wrote to
    ``path`` beside it, under the ``key`` ``_write`` gave, each flat in C
    order: only int64 arrays and float64 weights "w", as another dtype's
    text may not read back as its values."""
    if key and all(np.asarray(a).dtype == (
            float if name == "w" else np.int64) for name, a in arrays.items()):
        _keep(path, key, {"meta": meta.encode(),
                          **{name: np.ravel(a) for name, a in arrays.items()}})


def _read_records(path, kind: str, build: Callable):
    """``build(path, meta line, meta, line numbers, arrays)`` of a JSON Lines
    file: of its sidecar's arrays, by :func:`_kept_records`, else of
    :class:`_Parsed` of its parse."""
    built = _from_sidecar(kind, path, lambda meta, arrays: _kept_records(
        path, build, meta, arrays), path)
    if built is None:
        parsed = _Parsed(path, *_read_jsonl(path, kind))
        built = build(path, parsed.meta_line, parsed.meta, parsed.lines, parsed)
    return built


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


class _Parsed(dict):
    """A JSON Lines parse's records as the flat arrays its writer keeps, each
    decoded from the JSON values where a reader first reads it, so that the
    first refusal in the reader's order is named: a column of ``_RECORD``, an
    induced log's trailing block as "induced_edges" ends, or a star log's
    "nbr_cats" objects as (record, category, count) entries, as written."""

    def __init__(self, *parse):   # path, meta line, meta, lines, records
        self.path, self.meta_line, self.meta, self.lines, self.records = parse

    def __missing__(self, key: str) -> np.ndarray:
        if key in ("induced_edges", "nbr_cats"):
            self[key] = (self._edge_ends if key == "induced_edges" else self._star_entries)()
            return self[key]
        path, lines, records, kind = self.path, self.lines, self.records, _RECORD[key]
        try:
            values = list(map(itemgetter(key), records))
        except (KeyError, TypeError):   # a record without the key
            _require(path, lines, [type(r) is dict and key in r for r in records],
                     f"record has no {key!r}", records)
        self[key] = _column(path, lines, values, kind, f"{key!r} must be {kind.what}")
        return self[key]

    def _edge_ends(self) -> np.ndarray:   # read before the columns: the block is no record
        path, lines, records = self.path, self.lines, self.records
        if not records or type(records[-1]) is not dict \
                or "induced_edges" not in records[-1]:
            raise FileFormatError(f"{path}:{lines[-1] if records else self.meta_line}: "
                                  "induced log missing trailing induced_edges block")
        block, self.records = records[-1]["induced_edges"], records[:-1]
        rule = "induced_edges must be a list of [u, v] integer pairs"
        if (type(block) is not list or not set(map(type, block)) <= {list}
                or not set(map(len, block)) <= {2}):
            raise FileFormatError(f"{path}:{lines[-1]}: {rule}")
        flat = list(chain.from_iterable(block))
        return _column(path, [lines[-1]] * len(flat), flat, _INT64, rule)

    def _star_entries(self) -> np.ndarray:
        nbrs = list(map(dict.get, self.records, repeat("nbr_cats"), repeat({})))
        _require(self.path, self.lines, [type(x) is dict for x in nbrs],
                 "nbr_cats must be an object", nbrs)
        at = np.repeat(np.arange(len(nbrs)), list(map(len, nbrs)))
        lines, keys = self.lines[at], list(chain.from_iterable(nbrs))
        c = _category_count(self.meta.get("categories", []), self["c"])
        col_of = {str(b): b for b in range(c)}
        cats = np.fromiter(map(col_of.get, keys, repeat(-1)), np.int64, len(keys))
        _require(self.path, lines, cats >= 0,
                 f"nbr_cats key must be a category in 0..{c - 1}", keys)
        counts = _column(self.path, lines, list(chain.from_iterable(map(
            dict.values, nbrs))), _INT64, "nbr_cats count must be an integer")
        return np.stack([at, cats, counts], axis=1).ravel()


def _kept_records(path, build: Callable, meta: dict, arrays: dict):
    """``build(path, 1, meta, line numbers, arrays)`` of the arrays a JSON Lines
    writer keeps, each flat and int64 or float64 weights "w" the readers take,
    a record column one value a record, on lines 2, 3, ... and the line after."""
    if not (np.all(weights_ok(arrays["w"])) and all(a.ndim == 1 and a.dtype == (
            float if name == "w" else np.int64) for name, a in arrays.items())):
        raise ValueError("a sidecar array is not one a writer keeps")
    if any(len(arrays[key]) != len(arrays["v"]) for key in _RECORD.keys() & arrays.keys()):
        raise FileFormatError("a sidecar column is not one value a record")
    return build(path, 1, meta, np.arange(2, len(arrays["v"]) + 3), arrays)


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
    """Write a log that :func:`load_log` reads back, or else no file. A
    weight the readers refuse raises InvalidWeight, and an id, degree or
    count that is no whole number within int64 InvalidParameter, naming its
    draw or induced edge; any other record :func:`load_log` refuses raises
    InvalidParameter with the reader's message for the line it would be:
    the reader's rules run on the arrays kept beside the file, star counts
    as the nonzero (record, category, count) entries of the log's block,
    which the records are written from too."""
    check_weights(log.weights)
    meta = {"mode": log.mode, "N": log.population_hint,
            "categories": list(log.category_names)}
    text = json.dumps(meta)
    arrays = {key: _integers(x, repr(key)) for key, x in (
        ("v", log.nodes), ("c", log.categories), ("deg", log.degrees))}
    arrays["w"] = np.asarray(log.weights).astype(float, copy=False)
    # heads: each record's first row among the rows written in blocks
    counts, heads, entries = log.neighbor_counts, np.arange(log.n), ()
    if log.mode == STAR:   # kept as the nonzero (record, category, count) entries
        c, flat = counts.shape[1], np.flatnonzero(counts)
        try:   # zero is whole, so only the nonzero counts are cast
            entries = np.column_stack([*np.divmod(flat, c), _integers(
                counts.flat[flat], "nbr_cats count")])
        except InvalidParameter:   # the block's check names the draw and its row
            _integers(counts, "nbr_cats count")
        arrays["nbr_cats"] = entries.ravel()
        heads += np.searchsorted(flat, heads * c)   # each entry is a row after its head
        prefixes = [f'{sep}"{b}": '.encode() for sep in ("", ", ") for b in range(c)]
    elif log.mode == INDUCED:
        arrays["induced_edges"] = _integers(log.induced_edges, "an end",
                                            "induced edge").ravel()
    try:   # the log load_log reads from these arrays is the one written
        _log(path, 1, meta, np.arange(2, log.n + 3), arrays, counts)
    except FileFormatError as exc:
        raise InvalidParameter(str(exc)) from None
    columns = [arrays[key] for key in ("v", "c", "deg", "w")]

    def records(lo: int, hi: int) -> bytes:   # those whose heads are rows lo..hi-1
        first, last = np.searchsorted(heads, [lo, hi])
        if first == last:   # rows of one record's entries
            return b""
        v, cat, deg, w = (x[first:last] for x in columns)
        head = [b'{"v": ', v, b', "c": ', cat, b', "deg": ', deg, b', "w": ', w]
        if log.mode != STAR:
            return _rows(*head, b"}\n")
        at, cats, count = entries[slice(*np.searchsorted(flat, [first * c, last * c]))].T
        return _star_rows(head, at - first, cats, count, prefixes)

    induced = ()
    if log.mode == INDUCED:
        # json.dumps({"induced_edges": edges}), a block of pairs at a time
        u, v = arrays["induced_edges"].reshape(-1, 2).T
        induced = ('{"induced_edges": [', (len(u), lambda lo, hi: _rows(
            b", [", u[lo:hi], b", ", v[lo:hi], b"]")[2 if lo == 0 else 0:]), "]}\n")
    key = _write(path, text + "\n", (log.n + len(entries), records), *induced,
                 key=_seeded("log"))
    _leave(path, key, text, arrays)


def _star_rows(head: list, at: np.ndarray, cats: np.ndarray, count: np.ndarray,
               prefixes: list) -> bytes:
    """Star records: ``head``'s parts, then ``"nbr_cats": {...}}`` holding
    the entries ``"b": n`` of each record's categories ``cats`` and
    ``count``, ``at`` naming the record of each, in record order; of C
    categories, ``prefixes`` holds ``"b": `` for each, then ``, "b": ``. Each
    entry is one row of a block as wide as the widest entry, and each head
    is split across rows of that width, placed before its record's entries:
    a block holds its entries and heads, never rows times its widest record."""
    n, c = len(head[1]), len(prefixes) // 2
    close = np.frombuffer(b"}}\n", np.uint8)
    entries = _block(_table(prefixes, cats + c * (np.diff(at, prepend=-1) == 0)),
                     count, (close, 3 * (np.diff(at, append=n) != 0)))
    size = np.bincount(at, minlength=n)   # each record's entries
    width = entries[0].shape[1]
    heads = _block(*head, b', "nbr_cats": {', (close, 3 * (size == 0)),
                   multiple=width)
    tall = heads[0].shape[1] // width   # rows a head takes
    first = tall * np.arange(n) + np.cumsum(size) - size   # each head's first row
    text, keep = (np.empty((n * tall + len(at), width), a.dtype) for a in entries)
    for out, h, e in zip((text, keep), heads, entries):
        _items(out)[first[:, None] + np.arange(tall)] = _items(h.reshape(n, tall, -1))
        _items(out)[tall * (at + 1) + np.arange(len(at))] = _items(e)
    return text[keep].tobytes()


_LOG_META = {"mode": _Kind(" or ".join(MODES), lambda v: v in MODES),
             "categories": _list_of(_STRING),
             "N": _Kind("a positive integer or null", lambda v: v is None
                        or _INTEGER.ok(v) and finite(v) and v > 0)}


def load_log(path) -> ObservationLog:
    """Read a log written by :func:`save_log`, from its sidecar where that
    holds the file's key: meta and record values of the kinds ``_LOG_META``
    and ``_RECORD`` name, checked as they are parsed, then the rules of a
    log, ``observe._refusal``'s. A record that breaks a rule is named by
    its line."""
    return _read_records(path, "log", _log)


def _log(path, meta_line: int, meta, lines, rows, counts=None) -> ObservationLog:
    """The log of a parse's or a sidecar's ``rows``, star entries scattered
    into a block of zeros, or of a writer's ``rows`` and its block ``counts``;
    the first row ``_refusal`` refuses is named by its line."""
    meta = _checked(f"{path}:{meta_line}: meta",
                    {"mode": None, "categories": [], "N": None, **meta},
                    _LOG_META)
    mode, names = meta["mode"], meta["categories"]
    induced = rows["induced_edges"].reshape(-1, 2) if mode == INDUCED else None
    nodes, cats, degrees, weights = (rows[key] for key in ("v", "c", "deg", "w"))
    num_categories = _category_count(names, cats)
    shape, scatter = (len(nodes), num_categories), mode == STAR and counts is None
    counts = np.zeros(shape, np.int64) if scatter else counts
    log = ObservationLog(
        mode=mode, nodes=nodes, categories=cats, degrees=degrees,
        weights=weights, num_categories=num_categories,
        category_names=tuple(names or map(str, range(num_categories))),
        population_hint=meta["N"], induced_edges=induced,
        neighbor_counts=counts if mode == STAR else None)

    def star() -> np.ndarray:   # read once the record rules pass
        entries = rows["nbr_cats"].reshape(-1, 3).T
        # a ValueError for an entry outside the block, which only a sidecar
        # or a writer's block wider than the meta's categories holds
        cells = np.ravel_multi_index(entries[:2], shape)
        if scatter:
            if np.any(np.diff(np.sort(cells)) == 0):   # only a sidecar's may
                raise ValueError("a nbr_cats entry repeats another")
            counts.put(cells, entries[2])
        return entries

    refused = _refusal(log, star if mode == STAR else None)
    if refused:
        row, rule, got = refused
        raise FileFormatError(f"{path}:{lines[row]}: {rule}, got {got!r}")
    return log


def _category_count(names: list, cats: np.ndarray) -> int:
    """C of a log: its meta's category names', else its largest category + 1."""
    return len(names) or (int(cats.max()) + 1 if len(cats) else 0)


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
_CATEGORY_KEYS = {"id": _NATURAL, "name": _STRING, "size": _FINITE,
                  "size_var": _FINITE}
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
