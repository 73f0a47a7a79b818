"""The workloads: what they set up, the operations of one round, and
the checks on each operation's output.

Every input comes from the workload seed. A round is a fixed list of
operations, so each round attempts the same work; ``run.py`` times the
operations and runs each check after its operation, outside the timing,
in a child process forked after set-up: ``reference`` and the checks
run there, and the checks of one round are called in order.
Workloads call categraph through module attributes
(``evaluate.run_experiment``, ``cli.main``, ...) so that a traced run's
wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
from categraph import cli, evaluate, fileio, generate

import checks
from checks import CheckError, RefGraph

SAMPLERS = ("uis", "wis", "rw", "mhrw", "wrw")
WALKS = ("rw", "mhrw", "wrw")

# The C4 acceptance graph: ten categories, 5,000 nodes.
SWEEP_SIZES = (100, 200, 200, 300, 400, 500, 600, 700, 1000, 1000)
SWEEP_SAMPLE_SIZES = (500, 5000, 50000)
SWEEP_REPLICATES = 30
# Cells per sampler and sample size: sizes and weights each get one
# induced-mode cell and two star-mode cells (induced or star size
# estimates).
SWEEP_CELLS = 2 * 3

# The ten-category 1-2-5 ladder, 88,850 nodes and 533,100 edges at k=10.
LADDER_SIZES = (50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000)
# wrw category weights: largest size over own size, so small
# categories are oversampled (C0 weighs 1000, C9 weighs 1).
LADDER_WRW_WEIGHTS = {f"C{i}": max(LADDER_SIZES) / s for i, s in enumerate(LADDER_SIZES)}
K = 10
ALPHA = 0.5

# Relative error allowed on the two largest categories (50,000 and
# 20,000 nodes); errors seen for the 50k-draw samples stay below 1.5%.
CLI_TOLERANCE = 0.10

CLI_WALK_STEPS = 50_000
CLI_WRW_WALKS = 4
CLI_WRW_STEPS = 12_500
CLI_UIS_DRAWS = 50_000
CLI_BOOTSTRAP = 50


def graph_seed(seed: int, rep: int) -> int:
    """Seed of the graph built by set-up repetition ``rep`` (0..99).

    Generation time depends on the seed through the pairing model's
    retries, so a run times several graphs and reports the median; the
    workload runs on the graph of repetition 0, built last.
    """
    return 100 * seed + rep


def _synthetic(sizes, seed: int, rep: int):
    return generate.synthetic_graph(generate.SyntheticParams(
        category_sizes=sizes, k=K, alpha=ALPHA, seed=graph_seed(seed, rep)))


def _own_sizes(labels, names) -> dict:
    counts = np.bincount(labels, minlength=len(names))
    return {name: int(counts[c]) for c, name in enumerate(names)}


def sweep_cells(report) -> list[dict]:
    """Report cells in the plain form check_sweep reads."""
    return [{"kind": c.quantity_kind, "sampler": c.sampler, "mode": c.mode,
             "size_est": c.size_estimator, "weight_est": c.weight_estimator,
             "n": c.n, "median": c.median_nrmse, "excluded": c.excluded,
             "nrmse": c.nrmse_by_quantity} for c in report.cells]


class Sweep:
    """The C4 sweep: every sampler x sample size x replicate, both
    modes, all three estimator combinations, through run_experiment."""

    name = "sweep"
    setup_repeats = 25
    rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, rep: int) -> None:
        self.graph, self.part = _synthetic(SWEEP_SIZES, self.seed, rep)

    def reference(self) -> None:
        self.pending: dict[str, list] = {}
        self.sizes = _own_sizes(self.part.labels, self.part.names)
        self.ref = RefGraph.from_csr(self.graph.indptr, self.graph.indices,
                                     self.part.labels, self.part.names)
        self.cw = np.ones(len(self.ref.names))

    def operations(self):
        # One run_experiment call per sampler and sample size, so that
        # each operation is short enough for the calibrations around it
        # to follow the host's speed; together they cover the whole grid.
        for si, sampler in enumerate(SAMPLERS):
            for ni, n in enumerate(SWEEP_SAMPLE_SIZES):
                cfg = evaluate.ExperimentConfig(
                    graph=self.graph, partition=self.part, samplers=(sampler,),
                    sample_sizes=(n,), replicates=SWEEP_REPLICATES,
                    seed=100 * self.seed + 10 * si + ni)
                yield ("sweep", SWEEP_CELLS, lambda cfg=cfg: evaluate.run_experiment(cfg),
                       self._check)

    def _check(self, report) -> None:
        """Check one sampler's cells once all its sample sizes are in;
        the checks of a round arrive in order, smallest size first."""
        cells = sweep_cells(report)
        if len(cells) != SWEEP_CELLS:
            raise CheckError(f"{len(cells)} cells, expected {SWEEP_CELLS}")
        sampler, n = cells[0]["sampler"], cells[0]["n"]
        if n == SWEEP_SAMPLE_SIZES[0]:
            self.pending[sampler] = []
        self.pending[sampler] += cells
        if n == SWEEP_SAMPLE_SIZES[-1]:
            checks.check_sweep(self.pending.pop(sampler), self.sizes, self.graph.node_count)

    def sampler_inputs(self):
        return self.graph, self.part, np.ones(self.part.num_categories)

    def check_draws(self, draws) -> None:
        _check_draws(self.ref, self.cw, *draws)


def _check_draws(ref: RefGraph, cw, sampler: str, nodes, weights, start) -> None:
    """Draws lie in the graph, walks step along its edges (an mhrw walk
    may stay put) and each weight is the sampler's stationary weight;
    ``cw`` holds the wrw category weights in ``ref.names`` order."""
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.min() < 0 or nodes.max() >= ref.n:
        raise CheckError(f"{sampler}: draws outside 0..{ref.n - 1}")
    if sampler in WALKS:
        if start is None:
            raise CheckError(f"{sampler}: a walk without a start node")
        checks.check_walk(nodes, start, ref, may_stay=sampler == "mhrw")
    checks.check_weights(sampler, nodes, weights, ref, cw)


def _read_jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class CliChain:
    """The README's command chain through categraph.cli.main, on the
    88,850-node graph written by ``generate``."""

    name = "cli-chain"
    setup_repeats = 3
    rounds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.edges = workdir / "graph.tsv"
        self.categories = workdir / "categories.tsv"
        self.digests: dict[str, str] = {}

    @staticmethod
    def _cli(*argv) -> None:
        # the CLI's own messages go to stderr, keeping stdout for the result
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"categraph {argv[0]} exited with {code}")

    def setup(self, rep: int) -> None:
        self._cli("generate", "--sizes", ",".join(map(str, LADDER_SIZES)), "--k", K,
                  "--alpha", ALPHA, "--seed", graph_seed(self.seed, rep),
                  "--out-edges", self.edges, "--out-categories", self.categories)

    def reference(self) -> None:
        self.ref = checks.read_graph_files(self.edges, self.categories)
        self.sizes = _own_sizes(self.ref.labels, self.ref.names)
        self.cw = np.asarray([LADDER_WRW_WEIGHTS[name] for name in self.ref.names])

    def operations(self):
        d, s = self.dir.joinpath, self.seed
        graph = ("--edges", self.edges, "--categories", self.categories)
        wrw_weights = ",".join(f"{k}={v:g}" for k, v in LADDER_WRW_WEIGHTS.items())
        commands = [
            ("exact", ("exact", *graph, "--format", "json", "--out", d("exact.json")),
             self._check_exact),
            ("sample", ("sample", *graph, "--sampler", "rw", "--n", CLI_WALK_STEPS,
                        "--seed", s, "--out", d("rw.jsonl")),
             lambda: self._check_trace("rw", d("rw.jsonl"), CLI_WALK_STEPS)),
            ("sample", ("sample", *graph, "--sampler", "wrw", "--n", CLI_WRW_STEPS,
                        "--walks", CLI_WRW_WALKS, "--wrw-weights", wrw_weights,
                        "--seed", s + 1, "--out", d("wrw.jsonl")),
             lambda: [self._check_trace("wrw", d(f"wrw.jsonl.{i}"), CLI_WRW_STEPS)
                      for i in range(CLI_WRW_WALKS)]),
            ("sample", ("sample", *graph, "--sampler", "uis", "--n", CLI_UIS_DRAWS,
                        "--seed", s + 2, "--out", d("uis.jsonl")),
             lambda: self._check_trace("uis", d("uis.jsonl"), CLI_UIS_DRAWS)),
            ("observe", ("observe", *graph, "--trace", d("rw.jsonl"), "--mode", "star",
                         "--out", d("star.jsonl")),
             lambda: self._check_log(d("star.jsonl"), d("rw.jsonl"))),
            ("observe", ("observe", *graph, "--trace", d("uis.jsonl"), "--mode", "induced",
                         "--out", d("induced.jsonl")),
             lambda: self._check_log(d("induced.jsonl"), d("uis.jsonl"))),
            ("estimate", ("estimate", "--log", d("star.jsonl"), "--size-est", "star",
                          "--bootstrap", CLI_BOOTSTRAP, "--seed", s + 3,
                          "--out", d("est_star.json")),
             lambda: self._check_estimate(d("est_star.json"))),
            ("estimate", ("estimate", "--log", d("induced.jsonl"), "--size-est", "induced",
                          "--bootstrap", CLI_BOOTSTRAP, "--seed", s + 4,
                          "--out", d("est_induced.json")),
             lambda: self._check_estimate(d("est_induced.json"))),
        ]
        for kind, argv, check in commands:
            out = argv[argv.index("--out") + 1]
            yield (kind, 1, lambda argv=argv: self._cli(*argv),
                   lambda _, out=out, check=check: self._check_once(out, check))

    def _check_once(self, out: Path, check) -> None:
        """Full check of a command's first output; later rounds must
        write the same bytes, since identical flags and seed promise
        byte-identical files."""
        paths = sorted(self.dir.glob(out.name + "*"))
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        if out.name not in self.digests:
            check()
            self.digests[out.name] = digest
        elif self.digests[out.name] != digest:
            raise CheckError(f"{out.name} differs from the first round's output")

    def _check_exact(self) -> None:
        with open(self.dir / "exact.json") as fh:
            checks.check_exact(json.load(fh), self.ref)

    def _check_trace(self, sampler: str, path: Path, n: int) -> None:
        meta, *rows = _read_jsonl(path)
        if len(rows) != n:
            raise CheckError(f"{path.name}: {len(rows)} draws, expected {n}")
        _check_draws(self.ref, self.cw, sampler, [r["v"] for r in rows],
                     [r["w"] for r in rows], meta["start"])

    def _check_log(self, log_path: Path, trace_path: Path) -> None:
        meta, *records = _read_jsonl(log_path)
        _, *draws = _read_jsonl(trace_path)
        if meta["mode"] == "induced":
            induced = records.pop()["induced_edges"]
        if [(r["v"], r["w"]) for r in records] != [(d["v"], d["w"]) for d in draws]:
            raise CheckError(f"{log_path.name} does not replay {trace_path.name}")
        names = meta["categories"]
        nodes = [r["v"] for r in records]
        degrees = np.asarray([r["deg"] for r in records])
        checks.check_records(nodes, [names[r["c"]] for r in records], degrees, self.ref)
        if meta["mode"] == "induced":
            checks.check_induced_edges(nodes, induced, self.ref)
            return
        column = {str(c): self.ref.names.index(name) for c, name in enumerate(names)}
        rows = np.zeros((len(records), len(self.ref.names)), dtype=np.int64)
        for i, r in enumerate(records):
            for c, count in r["nbr_cats"].items():
                rows[i, column[c]] = count
        checks.check_star_rows(nodes, rows, degrees, self.ref)

    def _check_estimate(self, path: Path) -> None:
        with open(path) as fh:
            payload = json.load(fh)
        sizes = {c["name"]: c["size"] for c in payload["categories"]}
        if payload["size_estimator"] == "induced":
            checks.check_sizes_sum(sizes, self.ref.n)
        checks.check_largest_sizes(sizes, self.sizes, 2, CLI_TOLERANCE)
        values = {**sizes, **{(e["a"], e["b"]): e["weight"] for e in payload["edges"]}}
        variances = {**{c["name"]: c["size_var"] for c in payload["categories"] if "size_var" in c},
                     **{(e["a"], e["b"]): e["weight_var"]
                        for e in payload["edges"] if "weight_var" in e}}
        checks.check_bootstrap(variances, values)

    def sampler_inputs(self):
        g, part = fileio.load_graph(self.edges, self.categories)
        return g, part, np.asarray([LADDER_WRW_WEIGHTS[name] for name in part.names])

    def check_draws(self, draws) -> None:
        _check_draws(self.ref, self.cw, *draws)


WORKLOADS = {w.name: w for w in (Sweep, CliChain)}
