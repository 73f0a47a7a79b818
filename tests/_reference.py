"""Independent brute-force oracles the production code is tested against.

Everything here is written the slow, obvious way on purpose: O(N^2)
pair enumeration for the exact category graph, and literal loop
transcriptions of the estimator formulas (counting forms for unit
weights, per-draw division forms for general weights). None of it
shares code with the package internals, save the bootstrap loop, which
estimates each resampled log with the public per-log pipeline.
"""
from __future__ import annotations

import json

import numpy as np


def brute_force_category_graph(g, part):
    """O(N^2) pair enumeration; returns (sizes, cuts, weights) dicts."""
    n = g.node_count
    sizes: dict[int, int] = {}
    for v in range(n):
        c = part.label_of(v)
        sizes[c] = sizes.get(c, 0) + 1
    cuts: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                a, b = part.label_of(u), part.label_of(v)
                if a != b:
                    key = (min(a, b), max(a, b))
                    cuts[key] = cuts.get(key, 0) + 1
    weights = {key: cuts[key] / (sizes[key[0]] * sizes[key[1]])
               for key in cuts}
    return sizes, cuts, weights


# ---------------------------------------------------------------------------
# uniform (unit-weight) estimator forms, counting-based


def naive_size_induced_uniform(log, population):
    n = len(log.nodes)
    out = {}
    for c in range(log.num_categories):
        count = sum(1 for cat in log.categories.tolist() if cat == c)
        out[c] = population * count / n
    return out


def naive_mean_degrees_uniform(log):
    degs = log.degrees.tolist()
    cats = log.categories.tolist()
    k_all = sum(degs) / len(degs)
    per = {}
    for c in range(log.num_categories):
        mine = [d for d, cc in zip(degs, cats) if cc == c]
        if mine:
            per[c] = sum(mine) / len(mine)
    return k_all, per


def naive_volume_fraction_star_uniform(log):
    total = sum(log.degrees.tolist())
    out = {}
    for c in range(log.num_categories):
        seen = sum(int(row[c]) for row in log.neighbor_counts)
        out[c] = seen / total
    return out


def naive_size_star_uniform(log, population):
    fvol = naive_volume_fraction_star_uniform(log)
    k_all, per = naive_mean_degrees_uniform(log)
    return {c: population * fvol[c] * (k_all / per[c])
            for c in fvol if c in per and per[c] > 0}


def naive_weight_induced_uniform(log):
    """Literal double loop over ordered draw pairs with an edge query."""
    edge_set = {tuple(e) for e in log.induced_edges.tolist()}

    def is_edge(u, v):
        return (u, v) in edge_set or (v, u) in edge_set

    nodes = log.nodes.tolist()
    cats = log.categories.tolist()
    counts = {}
    for c in range(log.num_categories):
        counts[c] = sum(1 for cc in cats if cc == c)
    out = {}
    for a in range(log.num_categories):
        if counts[a] == 0:
            continue
        for b in range(a + 1, log.num_categories):
            if counts[b] == 0:
                continue
            hits = 0
            for u, cu in zip(nodes, cats):
                if cu != a:
                    continue
                for v, cv in zip(nodes, cats):
                    if cv == b and is_edge(u, v):
                        hits += 1
            out[(a, b)] = hits / (counts[a] * counts[b])
    return out


def naive_weight_star_uniform(log, sizes):
    cats = log.categories.tolist()
    counts = {}
    for c in range(log.num_categories):
        counts[c] = sum(1 for cc in cats if cc == c)
    out = {}
    for a in range(log.num_categories):
        for b in range(a + 1, log.num_categories):
            has_a, has_b = counts[a] > 0, counts[b] > 0
            if not (has_a or has_b):
                continue
            if (has_a and b not in sizes) or (has_b and a not in sizes):
                continue
            numer = 0.0
            denom = 0.0
            if has_a:
                numer += sum(int(row[b]) for row, cc in
                             zip(log.neighbor_counts, cats) if cc == a)
                denom += counts[a] * sizes[b]
            if has_b:
                numer += sum(int(row[a]) for row, cc in
                             zip(log.neighbor_counts, cats) if cc == b)
                denom += counts[b] * sizes[a]
            if denom == 0.0:
                continue
            out[(a, b)] = numer / denom
    return out


# ---------------------------------------------------------------------------
# weighted forms, literal per-draw division loops


def naive_size_induced_weighted(log, population):
    w = log.weights.tolist()
    cats = log.categories.tolist()
    total = sum(1.0 / x for x in w)
    out = {}
    for c in range(log.num_categories):
        mass = sum(1.0 / x for x, cc in zip(w, cats) if cc == c)
        out[c] = population * mass / total
    return out


def naive_weight_induced_weighted(log):
    edge_set = {tuple(e) for e in log.induced_edges.tolist()}

    def is_edge(u, v):
        return (u, v) in edge_set or (v, u) in edge_set

    nodes = log.nodes.tolist()
    cats = log.categories.tolist()
    w = log.weights.tolist()
    mass = {}
    for c in range(log.num_categories):
        mass[c] = sum(1.0 / x for x, cc in zip(w, cats) if cc == c)
    out = {}
    for a in range(log.num_categories):
        if mass.get(a, 0) == 0:
            continue
        for b in range(a + 1, log.num_categories):
            if mass.get(b, 0) == 0:
                continue
            numer = 0.0
            for u, cu, wu in zip(nodes, cats, w):
                if cu != a:
                    continue
                for v, cv, wv in zip(nodes, cats, w):
                    if cv == b and is_edge(u, v):
                        numer += 1.0 / (wu * wv)
            out[(a, b)] = numer / (mass[a] * mass[b])
    return out



def naive_mean_degrees_weighted(log):
    degs = log.degrees.tolist()
    cats = log.categories.tolist()
    w = log.weights.tolist()
    k_all = (sum(d / x for d, x in zip(degs, w))
             / sum(1.0 / x for x in w))
    per = {}
    for c in range(log.num_categories):
        mass = sum(1.0 / x for x, cc in zip(w, cats) if cc == c)
        if mass > 0:
            per[c] = sum(d / x for d, x, cc in zip(degs, w, cats)
                         if cc == c) / mass
    return k_all, per


def naive_volume_fraction_star_weighted(log):
    w = log.weights.tolist()
    total = sum(d / x for d, x in zip(log.degrees.tolist(), w))
    out = {}
    for c in range(log.num_categories):
        seen = sum(int(row[c]) / x for row, x in zip(log.neighbor_counts, w))
        out[c] = seen / total
    return out


def naive_size_star_weighted(log, population):
    fvol = naive_volume_fraction_star_weighted(log)
    k_all, per = naive_mean_degrees_weighted(log)
    return {c: population * fvol[c] * (k_all / per[c])
            for c in fvol if c in per and per[c] > 0}


def naive_weight_star_weighted(log, sizes):
    cats = log.categories.tolist()
    w = log.weights.tolist()
    mass = {}
    for c in range(log.num_categories):
        mass[c] = sum(1.0 / x for x, cc in zip(w, cats) if cc == c)
    out = {}
    for a in range(log.num_categories):
        for b in range(a + 1, log.num_categories):
            has_a, has_b = mass[a] > 0, mass[b] > 0
            if not (has_a or has_b):
                continue
            if (has_a and b not in sizes) or (has_b and a not in sizes):
                continue
            numer = 0.0
            denom = 0.0
            if has_a:
                numer += sum(int(row[b]) / x for row, x, cc in
                             zip(log.neighbor_counts, w, cats) if cc == a)
                denom += mass[a] * sizes[b]
            if has_b:
                numer += sum(int(row[a]) / x for row, x, cc in
                             zip(log.neighbor_counts, w, cats) if cc == b)
                denom += mass[b] * sizes[a]
            if denom == 0.0:
                continue
            out[(a, b)] = numer / denom
    return out


def naive_totals(log, rows):
    """The per-category totals of the draws ``rows`` picks (a slice or a
    list of draw indices, repeats counted), by literal per-draw loops in
    exact rational arithmetic. Each 1/w is taken times the power of two
    that puts the log's largest float 1/w in [0.5, 1), the one scale of
    a log's groups. Returns {"mass", "degree_mass"} plus "towards" (star)
    or "edge_mass" (induced) as nested lists, each value the exact sum
    rounded once to a float:

    * mass[c], degree_mass[c]: over the picked draws in c, 1/w and deg/w;
    * towards[a][b]: over the picked draws in a, (neighbors in b)/w;
    * edge_mass[a][b], a < b: over every ordered pair of picked draws,
      one in a and one in b, whose nodes share an induced edge,
      1/(w_a * w_b).
    """
    from fractions import Fraction
    from math import frexp

    c = log.num_categories
    weights = log.weights.tolist()
    scale = Fraction(2) ** -frexp(max(1.0 / w for w in weights))[1]
    inverse = [scale / Fraction(w) for w in weights]
    picked = (list(range(log.n))[rows] if isinstance(rows, slice)
              else [int(i) for i in rows])
    cats, degrees = log.categories.tolist(), log.degrees.tolist()
    mass, degree_mass = [Fraction(0)] * c, [Fraction(0)] * c
    square = [[Fraction(0)] * c for _ in range(c)]
    for i in picked:
        mass[cats[i]] += inverse[i]
        degree_mass[cats[i]] += degrees[i] * inverse[i]
    if log.mode == "star":
        for i in picked:
            for b in range(c):
                square[cats[i]][b] += int(log.neighbor_counts[i][b]) * inverse[i]
    else:
        edge_set = {tuple(e) for e in log.induced_edges.tolist()}
        nodes = log.nodes.tolist()
        for i in picked:
            for j in picked:
                if cats[i] < cats[j] and ((nodes[i], nodes[j]) in edge_set
                                          or (nodes[j], nodes[i]) in edge_set):
                    square[cats[i]][cats[j]] += inverse[i] * inverse[j]
    own = "towards" if log.mode == "star" else "edge_mass"
    return {"mass": [float(x) for x in mass],
            "degree_mass": [float(x) for x in degree_mass],
            own: [[float(x) for x in row] for row in square]}


def naive_towards(log, rows):
    """Star ``towards`` of the draws ``rows`` picks (a slice or an index
    array, repeats counted) by the per-column route: each drawn id's mass,
    its picked draws' 1/w summed with the log's one power-of-two scale, then
    for each category b one ``np.bincount`` of the ids' categories, in
    ascending id order, weighted by (neighbors in b) times the mass, zero
    counts included."""
    inverse = 1.0 / log.weights
    inverse = np.ldexp(inverse, -np.frexp(inverse.max(initial=0.0))[1])
    ids, first, keys = np.unique(log.nodes, return_index=True,
                                 return_inverse=True)
    masses = np.bincount(keys[rows], weights=inverse[rows], minlength=len(ids))
    cats = log.categories[first]
    return np.column_stack([
        np.bincount(cats, weights=column * masses, minlength=log.num_categories)
        for column in np.take(log.neighbor_counts.T, first, 1)])


def naive_bootstrap_variance(log, B, seed, population=None, *,
                             size_estimator="induced", weight_estimator=None,
                             assume_homogeneous_degree=False):
    """Bootstrap variances the slow way: B resampled logs, each
    estimated in full, the values filed per quantity in Python dicts.
    A resample that estimates nothing raises as the estimator does."""
    from categraph import estimate_category_graph

    rng = np.random.default_rng(seed)
    size_samples: dict[int, list[float]] = {}
    weight_samples: dict[tuple[int, int], list[float]] = {}
    for _ in range(B):
        idx = rng.integers(0, log.n, size=log.n)
        est = estimate_category_graph(
            log.resampled(idx), population,
            size_estimator=size_estimator,
            weight_estimator=weight_estimator,
            assume_homogeneous_degree=assume_homogeneous_degree)
        for cat, value in est.sizes.items():
            size_samples.setdefault(cat, []).append(value)
        for pair, value in est.weights.items():
            weight_samples.setdefault(pair, []).append(value)
    size_var = {cat: float(np.var(vals, ddof=1))
                for cat, vals in size_samples.items() if len(vals) >= 2}
    weight_var = {pair: float(np.var(vals, ddof=1))
                  for pair, vals in weight_samples.items() if len(vals) >= 2}
    return size_var, weight_var


def random_graph(n, p, rng, min_degree_one=False):
    """Simple G(n, p) helper for randomized property tests."""
    from categraph import Graph
    iu, iv = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges = list(zip(iu[mask].tolist(), iv[mask].tolist()))
    if min_degree_one:
        present = set(edges)
        deg = {}
        for u, v in edges:
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        for v in range(n):
            if deg.get(v, 0) == 0:
                other = (v + 1) % n
                key = (min(v, other), max(v, other))
                if key not in present:
                    present.add(key)
                    edges.append(key)
                    deg[v] = deg.get(v, 0) + 1
                    deg[other] = deg.get(other, 0) + 1
    return Graph.from_edges(n, edges)


def random_partition(n, num_categories, rng):
    from categraph import CategoryPartition
    labels = rng.integers(0, num_categories, size=n)
    # make sure every category id appears so names stay dense
    labels[:num_categories] = np.arange(num_categories)
    return CategoryPartition(
        labels=labels,
        names=tuple(f"C{i}" for i in range(num_categories)))


# ---------------------------------------------------------------------------
# graph and JSONL files and the wrw walk, literal per-line and per-row forms


def naive_load_graph(edge_path, category_path):
    """Per-line reading of the TSV graph files.

    Returns (edges, labels, names): the sorted (u, v), u < v, pairs of
    dense ids (external ids in ascending order), each node's category
    id, and the category names in order of first appearance over the
    ascending external ids. Raises ValueError on any refused line.
    """
    label_by_ext = {}
    with open(category_path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            node, name = line.split("\t")
            if int(node) in label_by_ext:
                raise ValueError(f"node {node} labeled twice")
            label_by_ext[int(node)] = name
    ext_ids = sorted(label_by_ext)
    dense = {ext: i for i, ext in enumerate(ext_ids)}
    names, labels = [], []
    for ext in ext_ids:
        if label_by_ext[ext] not in names:
            names.append(label_by_ext[ext])
        labels.append(names.index(label_by_ext[ext]))
    edges = set()
    with open(edge_path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            u_ext, v_ext = line.split("\t")
            u, v = dense[int(u_ext)], dense[int(v_ext)]
            if u == v or (min(u, v), max(u, v)) in edges:
                raise ValueError(f"self-loop or duplicate: {line!r}")
            edges.add((min(u, v), max(u, v)))
    return sorted(edges), labels, tuple(names)


def naive_save_graph(g, part, edge_path, category_path):
    """The edge list and category file, one write per line."""
    with open(edge_path, "w") as fh:
        for u, v in g.edge_array.tolist():
            fh.write(f"{u}\t{v}\n")
    with open(category_path, "w") as fh:
        for v in range(part.node_count):
            fh.write(f"{v}\t{part.names[part.labels[v]]}\n")


def naive_save_trace(trace, path):
    """A trace as JSON Lines, one ``json.dumps`` per draw."""
    meta = {"sampler": trace.sampler, "seed": trace.seed,
            "start": trace.start, "burn_in": trace.burn_in,
            "thin": trace.thin_interval}
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for step, node, weight in zip(trace.steps.tolist(),
                                      trace.nodes.tolist(),
                                      trace.weights.tolist()):
            fh.write(json.dumps({"i": step, "v": node, "w": weight}) + "\n")


def naive_save_log(log, path):
    """An observation log as JSON Lines, one ``json.dumps`` per record."""
    meta = {"mode": log.mode, "N": log.population_hint,
            "categories": list(log.category_names)}
    with open(path, "w") as fh:
        fh.write(json.dumps(meta) + "\n")
        for i in range(log.n):
            rec = {"v": int(log.nodes[i]), "c": int(log.categories[i]),
                   "deg": int(log.degrees[i]), "w": float(log.weights[i])}
            if log.mode == "star":
                row = log.neighbor_counts[i]
                rec["nbr_cats"] = {str(c): int(row[c])
                                   for c in np.flatnonzero(row)}
            fh.write(json.dumps(rec) + "\n")
        if log.mode == "induced":
            edges = [[int(u), int(v)] for u, v in log.induced_edges.tolist()]
            fh.write(json.dumps({"induced_edges": edges}) + "\n")


def naive_read_jsonl(path):
    """The non-blank lines of a JSON Lines file as (line number, value)
    pairs, one ``json.loads`` per line. Raises ValueError holding the
    number of the first line ``json.loads`` refuses."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh.read().split("\n"), 1):
            if line:
                try:
                    out.append((lineno, json.loads(line)))
                except json.JSONDecodeError:
                    raise ValueError(lineno) from None
    return out


def naive_log_refusal(path):
    """The first line ``load_log`` refuses in a log file whose lines hold
    JSON values of the kinds it reads, and that line's message, as (line,
    message); None where it refuses none. Each rule runs over every record
    in turn, in the reader's order, star counts as a dense Python row of C
    a record."""
    (_, meta), *records = naive_read_jsonl(path)
    edges = []
    if meta["mode"] == "induced":
        (edge_line, block), records = records[-1], records[:-1]
        edges = block["induced_edges"]
    c = len(meta.get("categories", [])) or max(
        [r["c"] for _, r in records], default=-1) + 1
    for rule, key, ok in (("node id must be >= 0", "v", lambda x: x >= 0),
                          (f"category must be in 0..{c - 1}", "c", lambda x: 0 <= x < c),
                          ("degree must be >= 0", "deg", lambda x: x >= 0)):
        for line, r in records:
            if not ok(r[key]):
                return line, f"{rule}, got {r[key]!r}"
    rows = []
    if meta["mode"] == "star":
        for line, r in records:
            for key in r["nbr_cats"]:
                if key not in [str(b) for b in range(c)]:
                    return line, (f"nbr_cats key must be a category in 0..{c - 1}, "
                                  f"got {key!r}")
        for line, r in records:
            for count in r["nbr_cats"].values():
                if count < 0:
                    return line, f"nbr_cats count must be >= 0, got {count!r}"
        rows = [[r["nbr_cats"].get(str(b), 0) for b in range(c)] for _, r in records]
    first = {}
    for i, (_, r) in enumerate(records):
        first.setdefault(r["v"], i)
    for what, key in (("category", "c"), ("degree", "deg"), ("weight", "w")):
        for line, r in records:
            if r[key] != records[first[r["v"]]][1][key]:
                return line, (f"{what} differs from an earlier record of the node, "
                              f"got {r[key]!r}")
    if meta["mode"] == "star":
        for (line, r), row in zip(records, rows):
            if sum(row) != r["deg"]:
                return line, f"nbr_cats must sum to deg, got {sum(row)!r}"
        for (line, r), row in zip(records, rows):
            if row != rows[first[r["v"]]]:
                return line, (f"nbr_cats differs from an earlier record of the node, "
                              f"got {row!r}")
        return None
    drawn = {r["v"] for _, r in records}
    for u, v in edges:
        if u not in drawn or v not in drawn:
            return edge_line, f"induced edge has an undrawn endpoint, got {[u, v]!r}"
    for u, v in edges:
        if u == v:
            return edge_line, f"induced edge is a self-loop, got {[u, v]!r}"
    pairs = set()
    for u, v in edges:
        if frozenset((u, v)) in pairs:
            return edge_line, f"induced edge repeats an earlier one, got {[u, v]!r}"
        pairs.add(frozenset((u, v)))
    return None


def naive_wrw(g, labels, category_weights, n, start=None, burn_in=0,
              seed=None):
    """The category-weighted walk with one np.cumsum table per row and
    one bisect per step; returns (nodes, weights, start).

    Draws from the seed in the order the sampler does: the start node
    (uniform over non-isolated nodes) if none is given, then one
    uniform number per step.
    """
    from bisect import bisect_right

    rng = np.random.default_rng(seed)
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    if start is None:
        candidates = [v for v in range(len(labels))
                      if indptr[v + 1] > indptr[v]]
        start = candidates[rng.integers(0, len(candidates))]
    cw = [float(category_weights[c]) for c in labels]
    rows, totals = [], []
    for v in range(len(labels)):
        nbrs = indices[indptr[v]:indptr[v + 1]]
        cum = np.cumsum([cw[x] + cw[v] for x in nbrs]).tolist()
        rows.append((nbrs, cum))
        totals.append(cum[-1] if cum else 0.0)
    nodes = []
    u = start
    for r in rng.random(burn_in + n):
        nbrs, cum = rows[u]
        u = nbrs[bisect_right(cum, r * cum[-1])]
        nodes.append(u)
    nodes = nodes[burn_in:]
    return nodes, [totals[v] for v in nodes], start


def naive_wis(g, weights, n, seed):
    """i.i.d. draws in proportion to node weights by the inverse CDF that
    ``Generator.choice`` builds, one bisect per uniform; returns (nodes,
    weights).

    The weights are first scaled by the power of two that puts the
    largest in [0.5, 1), so that their sum stays finite; then, as in
    ``choice``: p = w / sum(w), cdf = cumsum(p) divided by its last
    entry, and node i for a uniform r when cdf[i - 1] <= r < cdf[i].
    """
    from bisect import bisect_right

    given = [float(weights[v]) for v in range(g.node_count)]
    w = np.ldexp(given, -np.frexp(max(given))[1])
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    rng = np.random.default_rng(seed)
    nodes = [bisect_right(cdf, r) for r in rng.random(n).tolist()]
    return nodes, [given[v] for v in nodes]


def _neighbor_lists(g):
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    return [indices[indptr[v]:indptr[v + 1]] for v in range(len(indptr) - 1)]


def _first_node(rng, nbrs, start):
    """The given start, or one drawn uniformly over non-isolated nodes."""
    if start is not None:
        return start
    candidates = [v for v in range(len(nbrs)) if nbrs[v]]
    return candidates[rng.integers(0, len(candidates))]


def naive_rw(g, n, start=None, burn_in=0, seed=None):
    """The simple random walk over per-node neighbor lists, one
    uniform per step; returns (nodes, weights, start). Draws from the
    seed in naive_wrw's order."""
    rng = np.random.default_rng(seed)
    nbrs = _neighbor_lists(g)
    start = u = _first_node(rng, nbrs, start)
    nodes = []
    for r in rng.random(burn_in + n):
        u = nbrs[u][int(r * len(nbrs[u]))]
        nodes.append(u)
    nodes = nodes[burn_in:]
    return nodes, [float(len(nbrs[v])) for v in nodes], start


def naive_mhrw(g, n, start=None, burn_in=0, seed=None):
    """The Metropolis-Hastings walk over per-node neighbor lists: the
    start, then every step's proposal uniform, then every step's
    acceptance uniform; returns (nodes, weights, start)."""
    rng = np.random.default_rng(seed)
    nbrs = _neighbor_lists(g)
    start = u = _first_node(rng, nbrs, start)
    proposals = rng.random(burn_in + n)
    acceptances = rng.random(burn_in + n)
    nodes = []
    for r, a in zip(proposals, acceptances):
        v = nbrs[u][int(r * len(nbrs[u]))]
        if a * len(nbrs[v]) < len(nbrs[u]):
            u = v
        nodes.append(u)
    nodes = nodes[burn_in:]
    return nodes, [1.0] * len(nodes), start


def naive_is_connected(g):
    """Depth-first search from node 0 over has_edge queries."""
    n = g.node_count
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == n or n == 0


def naive_csr_violation(indptr, indices):
    """The message ``Graph.validate`` raises for a CSR, or None: its shape,
    then each row in node order, then each entry's reverse in entry order,
    as Python lists."""
    indptr, indices = list(map(int, indptr)), list(map(int, indices))
    n = len(indptr) - 1
    if (n < 0 or indptr[0] != 0 or indptr[-1] != len(indices)
            or any(a > b for a, b in zip(indptr, indptr[1:]))):
        return "malformed indptr"
    if any(not 0 <= t < n for t in indices):
        return "neighbor id out of range"
    if len(indices) % 2:
        return "degree sum must equal twice the edge count"
    rows = [indices[indptr[v]:indptr[v + 1]] for v in range(n)]
    for v, row in enumerate(rows):
        if v in row:
            return f"self-loop at node {v}"
        if any(a >= b for a, b in zip(row, row[1:])):
            return f"neighbor row of {v} not sorted/unique"
    for h, row in enumerate(rows):
        for t in row:
            if h not in rows[t]:
                return f"missing reverse adjacency for ({h}, {t})"
    return None


# ---------------------------------------------------------------------------
# the evaluation harness's scoring, literal per-quantity form


def naive_score_cell(replicate_estimates, truth, probes):
    """Score one grid cell from its replicates' {quantity: estimate}
    maps: for every true quantity, sqrt(mean squared error) / truth,
    or an exclusion if any replicate lacks an estimate of it.

    Returns (scores by quantity, excluded count, scores by probe label).
    """
    scores, excluded = {}, 0
    for q, true_value in truth.items():
        if any(q not in est for est in replicate_estimates):
            excluded += 1
            continue
        squared = 0.0
        for est in replicate_estimates:
            squared += (est[q] - true_value) ** 2
        scores[q] = (squared / len(replicate_estimates)) ** 0.5 / true_value
    probe_scores = {label: scores[q] for label, q in probes.items()
                    if q in scores}
    return scores, excluded, probe_scores


# ---------------------------------------------------------------------------
# the synthetic generator's pairing rounds and inter-edge draws, as
# per-pair loops over Python sets


def naive_regular_edges_once(size, k, rng):
    """One pairing-model attempt: shuffle the stubs, pair them in order,
    keep the first copy of every new edge and re-pair the rest. Returns
    the sorted edge list, or None once the leftover stub nodes are all
    adjacent to each other."""
    edges = set()
    stubs = np.repeat(np.arange(size, dtype=np.int64), k)
    while stubs.size:
        rng.shuffle(stubs)
        leftovers = []
        it = iter(stubs.tolist())
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftovers.append(s1)
                leftovers.append(s2)
        if not leftovers:
            break
        distinct = sorted(set(leftovers))
        if not any((s1, s2) not in edges
                   for i, s1 in enumerate(distinct) for s2 in distinct[i + 1:]):
            return None
        stubs = np.asarray(leftovers, dtype=np.int64)
    return sorted(edges)


def naive_add_inter_edges(n, edges, labels, m, rng):
    """The m new cross-category pairs (u < v) in the order chosen, given
    the existing (u < v) edge list; ValueError when fewer than m are
    free. Enumerates the candidates and picks m without replacement when
    there are at most 2,000,000 cross pairs and m is more than a quarter
    of the free ones, else draws pairs in batches and keeps new ones."""
    labels = [int(c) for c in labels]
    counts = {}
    for c in labels:
        counts[c] = counts.get(c, 0) + 1
    cross_total = (n * n - sum(s * s for s in counts.values())) // 2
    existing = {(int(u), int(v)) for u, v in edges}
    available = cross_total - sum(labels[u] != labels[v] for u, v in existing)
    if m > available:
        raise ValueError(f"only {available} free pairs")
    if cross_total <= 2_000_000 and m * 4 > available:
        cands = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if labels[a] != labels[b] and (a, b) not in existing]
        return [cands[i] for i in rng.choice(len(cands), size=m, replace=False)]
    chosen = []
    while len(chosen) < m:
        need = m - len(chosen)
        us = rng.integers(0, n, size=max(64, 2 * need))
        vs = rng.integers(0, n, size=max(64, 2 * need))
        for u, v in zip(us.tolist(), vs.tolist()):
            pair = (min(u, v), max(u, v))
            if labels[u] == labels[v] or pair in existing or pair in chosen:
                continue
            chosen.append(pair)
            if len(chosen) == m:
                break
    return chosen
