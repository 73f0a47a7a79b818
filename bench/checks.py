"""Correctness checks on the program's outputs.

Every check compares an output with a value the benchmark computes on
its own, from the graph files or edge arrays (never through categraph),
or with a property the method must have. Each raises CheckError with a
message that names the first offending item. All tolerances are fixed
here and hold for any workload seed.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Relative float tolerance for sums the program adds in another order.
FLOAT_RTOL = 1e-9
# uis induced size NRMSE must lie within this factor of the binomial
# value sqrt((1-p)/(n p)). Over 30 replicates the ratio stays within
# [0.44, 1.75] in 400,000 simulated cells, so 3 is never crossed by
# chance.
BINOMIAL_FACTOR = 3.0
# Below this many draws a replicate can miss a small category (a
# 500-step mhrw walk misses a 100-node one on some seeds), and the
# quantities that need it are then excluded from the cell by design.
EXCLUSION_FREE_N = 5000


class CheckError(Exception):
    """An output disagrees with the benchmark's own computation."""


class RefGraph:
    """The benchmark's own view of a graph: sorted edge keys, degrees,
    labels and the neighbour-category histogram, from an edge list.

    ``u``/``v`` list every undirected edge once, in dense ids 0..n-1.
    """

    def __init__(self, n: int, u, v, labels, names):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        self.n = n
        self.u, self.v = u, v
        self.labels = np.asarray(labels, dtype=np.int64)
        self.names = tuple(names)
        c = len(self.names)
        self.keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        self.degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        flat = np.concatenate([u * c + self.labels[v], v * c + self.labels[u]])
        self.histogram = np.bincount(flat, minlength=n * c).reshape(n, c)
        self.sizes = np.bincount(self.labels, minlength=c)

    @staticmethod
    def from_csr(indptr, indices, labels, names) -> "RefGraph":
        n = len(indptr) - 1
        heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        keep = heads < indices
        return RefGraph(n, heads[keep], np.asarray(indices)[keep], labels, names)

    def adjacent(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        keys = np.minimum(a, b) * self.n + np.maximum(a, b)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return self.keys[pos] == keys

    def wrw_weights(self, cw) -> np.ndarray:
        """Stationary wrw weight: sum over incident edges {x, y} of
        cw[cat x] + cw[cat y]."""
        cw = np.asarray(cw, dtype=float)
        edge_w = cw[self.labels[self.u]] + cw[self.labels[self.v]]
        return (np.bincount(self.u, weights=edge_w, minlength=self.n)
                + np.bincount(self.v, weights=edge_w, minlength=self.n))

    def cut_counts(self) -> Counter:
        """Edges between distinct categories, keyed by sorted name pair."""
        la, lb = self.labels[self.u], self.labels[self.v]
        cross = la != lb
        c = len(self.names)
        flat = np.bincount(np.minimum(la, lb)[cross] * c + np.maximum(la, lb)[cross],
                           minlength=c * c)
        return Counter({tuple(sorted((self.names[k // c], self.names[k % c]))): int(flat[k])
                        for k in np.flatnonzero(flat)})


def read_graph_files(edge_path, category_path) -> RefGraph:
    """Parse the TSV edge and category files without categraph.

    External ids are ranked to dense ids and names are numbered in
    sorted order; checks compare categories by name, never by id.
    """
    ext, label_names = [], []
    with open(category_path) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                node, name = line.rstrip("\n").split("\t")
                ext.append(int(node))
                label_names.append(name)
    ext = np.asarray(ext, dtype=np.int64)
    order = np.argsort(ext)
    names = sorted(set(label_names))
    name_id = {name: i for i, name in enumerate(names)}
    labels = np.asarray([name_id[label_names[i]] for i in order], dtype=np.int64)
    with open(edge_path) as fh:
        text = fh.read()
    if "#" in text:
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))
    pairs = np.asarray(text.split(), dtype=np.int64).reshape(-1, 2)
    dense = np.searchsorted(ext[order], pairs)
    return RefGraph(len(ext), dense[:, 0], dense[:, 1], labels, names)


def check_exact(payload: dict, ref: RefGraph) -> None:
    """Exact sizes and weights equal the benchmark's own counts."""
    name_of = {c["id"]: c["name"] for c in payload["categories"]}
    sizes = {c["name"]: c["size"] for c in payload["categories"]}
    own_sizes = {name: int(s) for name, s in zip(ref.names, ref.sizes)}
    if sizes != own_sizes:
        raise CheckError(f"exact sizes {sizes} != counted {own_sizes}")
    cuts = ref.cut_counts()
    weights = {tuple(sorted((name_of[e["a"]], name_of[e["b"]]))): e["weight"]
               for e in payload["edges"]}
    if set(weights) != set(cuts):
        raise CheckError(f"exact weight pairs {sorted(set(weights) ^ set(cuts))} "
                         "disagree with the pairs that have cut edges")
    for pair, cut in cuts.items():
        denom = own_sizes[pair[0]] * own_sizes[pair[1]]
        if round(weights[pair] * denom) != cut or not math.isclose(
                weights[pair], cut / denom, rel_tol=FLOAT_RTOL):
            raise CheckError(f"exact weight {pair} = {weights[pair]!r}, "
                             f"counted cut {cut} / {denom}")


def check_walk(nodes, start: int, ref: RefGraph, may_stay: bool) -> None:
    """Consecutive draws, the start node included, are adjacent; a
    Metropolis-Hastings walk may also stay where it is."""
    path = np.concatenate([[start], np.asarray(nodes, dtype=np.int64)])
    ok = ref.adjacent(path[:-1], path[1:])
    if may_stay:
        ok |= path[:-1] == path[1:]
    if not ok.all():
        i = int(np.flatnonzero(~ok)[0])
        raise CheckError(f"walk step {i}: {path[i]} -> {path[i + 1]} is not an edge")


def expected_weights(sampler: str, nodes, ref: RefGraph, cw=None) -> np.ndarray:
    nodes = np.asarray(nodes, dtype=np.int64)
    if sampler in ("uis", "mhrw"):
        return np.ones(len(nodes))
    if sampler in ("rw", "wis"):
        # wis weighs each node by its degree wherever the benchmark
        # draws it (the run_experiment default)
        return ref.degrees[nodes].astype(float)
    if sampler == "wrw":
        return ref.wrw_weights(cw)[nodes]
    raise ValueError(f"no stationary weight rule for {sampler!r}")


def check_weights(sampler: str, nodes, weights, ref: RefGraph, cw=None) -> None:
    """Draw weights equal the stationary weight recomputed from edges."""
    want = expected_weights(sampler, nodes, ref, cw)
    bad = ~np.isclose(np.asarray(weights, dtype=float), want, rtol=FLOAT_RTOL, atol=0.0)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"{sampler} draw {i} (node {nodes[i]}): weight "
                         f"{weights[i]!r}, stationary weight {want[i]!r}")


def check_records(nodes, category_names, degrees, ref: RefGraph) -> None:
    """Logged category and degree of each draw match the graph."""
    nodes = np.asarray(nodes, dtype=np.int64)
    own = [ref.names[c] for c in ref.labels[nodes]]
    for i, (got, want) in enumerate(zip(category_names, own)):
        if got != want:
            raise CheckError(f"record {i} (node {nodes[i]}): category {got}, graph says {want}")
    bad = np.asarray(degrees) != ref.degrees[nodes]
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(f"record {i} (node {nodes[i]}): degree {degrees[i]}, "
                         f"graph says {ref.degrees[nodes[i]]}")


def check_star_rows(nodes, rows, degrees, ref: RefGraph) -> None:
    """Each star row equals the benchmark's own histogram of neighbour
    categories (columns in ``ref.names`` order) and sums to the degree."""
    nodes = np.asarray(nodes, dtype=np.int64)
    rows = np.asarray(rows)
    bad = np.flatnonzero((rows != ref.histogram[nodes]).any(axis=1)
                         | (rows.sum(axis=1) != np.asarray(degrees)))
    if bad.size:
        i = int(bad[0])
        raise CheckError(f"star row {i} (node {nodes[i]}): {rows[i].tolist()}, "
                         f"neighbours give {ref.histogram[nodes[i]].tolist()}")


def check_induced_edges(nodes, edges, ref: RefGraph) -> None:
    """Induced edges are exactly the edges among the drawn nodes."""
    drawn = np.zeros(ref.n, dtype=bool)
    drawn[np.asarray(nodes, dtype=np.int64)] = True
    inside = drawn[ref.u] & drawn[ref.v]
    own = np.sort(np.minimum(ref.u, ref.v)[inside] * ref.n + np.maximum(ref.u, ref.v)[inside])
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    got = np.sort(np.minimum(edges[:, 0], edges[:, 1]) * ref.n
                  + np.maximum(edges[:, 0], edges[:, 1]))
    if not np.array_equal(got, own):
        diff = np.setxor1d(got, own)
        key = int(diff[0]) if diff.size else None
        where = f"e.g. edge {key // ref.n}-{key % ref.n}" if key is not None else "duplicates"
        raise CheckError(f"{len(got)} induced edges, {len(own)} among the drawn nodes ({where})")


def check_sizes_sum(sizes: dict, population: float) -> None:
    """Induced size estimates sum to N."""
    total = sum(sizes.values())
    if not math.isclose(total, population, rel_tol=FLOAT_RTOL):
        raise CheckError(f"induced size estimates sum to {total!r}, N = {population}")


def check_largest_sizes(sizes: dict, true_sizes: dict, count: int, tolerance: float) -> None:
    """The ``count`` largest categories are estimated within a relative
    ``tolerance``; both maps are keyed by category name."""
    for name in sorted(true_sizes, key=lambda k: -true_sizes[k])[:count]:
        est = sizes.get(name)
        if est is None or not abs(est / true_sizes[name] - 1) <= tolerance:
            raise CheckError(f"size of {name}: estimate {est!r}, truth "
                             f"{true_sizes[name]}, tolerance {tolerance:.0%}")


def check_bootstrap(variances: dict, estimates: dict) -> None:
    """Bootstrap variances are finite and positive. A quantity estimated
    as exactly 0 (say, a weight with no observed edge) is 0 in every
    resample, so its variance may be 0; both maps share their keys."""
    if not variances:
        raise CheckError("estimate carries no bootstrap variances")
    for key, var in variances.items():
        if not (math.isfinite(var) and (var > 0 or (var == 0 and estimates[key] == 0))):
            raise CheckError(f"bootstrap variance of {key}: {var!r} "
                             f"(estimate {estimates.get(key)!r})")


def check_sweep(cells: list[dict], category_sizes: dict, population: int) -> None:
    """Checks on the evaluation sweep, one dict per report cell with
    keys kind, sampler, mode, size_est, weight_est, n, median,
    excluded and nrmse (a map from quantity name to NRMSE).

    No cell with at least EXCLUSION_FREE_N draws excludes a quantity;
    every cell's median NRMSE is lower at its largest sample size than
    at its smallest; the uis induced size
    NRMSE of each category lies within BINOMIAL_FACTOR of
    sqrt((1-p)/(n p)), with p its share of the nodes.
    """
    series: dict[tuple, dict[int, float]] = {}
    for cell in cells:
        key = (cell["kind"], cell["sampler"], cell["mode"], cell["size_est"], cell["weight_est"])
        if cell["excluded"] and cell["n"] >= EXCLUSION_FREE_N:
            raise CheckError(f"cell {key} n={cell['n']} excludes {cell['excluded']} quantities")
        series.setdefault(key, {})[cell["n"]] = cell["median"]
        if key == ("size", "uis", "induced", "induced", None):
            for name, value in cell["nrmse"].items():
                p = category_sizes[name] / population
                binom = math.sqrt((1 - p) / (cell["n"] * p))
                if not binom / BINOMIAL_FACTOR <= value <= binom * BINOMIAL_FACTOR:
                    raise CheckError(f"uis induced size NRMSE of {name} at n={cell['n']}: "
                                     f"{value!r}, binomial value {binom!r}")
    for key, by_n in series.items():
        small, large = by_n[min(by_n)], by_n[max(by_n)]
        if not large < small:
            raise CheckError(f"cell {key}: median NRMSE {large!r} at n={max(by_n)} "
                             f"is not below {small!r} at n={min(by_n)}")
