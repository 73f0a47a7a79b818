"""Monte Carlo evaluation of the estimators against exact ground truth.

The experiment runner sweeps a grid of sampler x observation mode x
estimator choice x sample size, runs R independent sample+estimate
replicates per grid cell, and scores every category size and every true
edge weight by its normalized root-mean-square error across replicates.
Cells report the median NRMSE over quantities (plus quartiles and the
full per-quantity map, which doubles as the NRMSE CDF), and optionally
track specific probe edges picked at fixed percentiles of the true
weight distribution.

Replicates are seeded independently from (seed, sampler, n, replicate),
so reports are deterministic and cells may be evaluated concurrently.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Sequence

import numpy as np

from .errors import UndefinedNRMSE, check_count
from .estimate import (ESTIMATOR_PAIRS, MODES, SIZE_ESTIMATORS,
                       WEIGHT_ESTIMATORS, _sizes, _weights)
from .graph import CategoryGraph, CategoryPartition, Graph, exact_category_graph
from .observe import STAR, CategoryTotals, ObservationTable
from .sampling import SAMPLERS, _wrw_sums, draw_traces
# bench/spans.py wraps the estimator, observers and samplers by name
from .estimate import estimate_category_graph  # noqa: F401
from .observe import observe_induced, observe_star  # noqa: F401
from .sampling import (  # noqa: F401
    sample_mhrw,
    sample_rw,
    sample_uis,
    sample_wis,
    sample_wrw,
)


def nrmse(estimates: Sequence[float], truth: float) -> float:
    """Root-mean-square error across replicates, normalized by the
    true value. Undefined for truth 0."""
    if truth == 0:
        raise UndefinedNRMSE("true value is zero")
    est = np.asarray(estimates, dtype=float)
    if est.size == 0:
        raise ValueError("need at least one estimate")
    return float(np.sqrt(np.mean((est - truth) ** 2)) / truth)


@dataclass
class ExperimentConfig:
    """Declarative description of one evaluation sweep."""

    graph: Graph
    partition: CategoryPartition
    samplers: tuple[str, ...] = ("uis", "rw", "mhrw", "wrw")
    sample_sizes: tuple[int, ...] = (500, 5000, 50000)
    replicates: int = 30
    seed: int = 0
    modes: tuple[str, ...] = MODES
    size_estimators: tuple[str, ...] = SIZE_ESTIMATORS
    weight_estimators: tuple[str, ...] = WEIGHT_ESTIMATORS
    burn_in: int = 0
    thin_interval: int = 1
    probe_percentiles: tuple[float, ...] = (25.0, 75.0)
    wrw_category_weights: Sequence[float] | None = None  # default: all equal

    def __post_init__(self):
        self.sample_sizes = tuple(check_count(n, "n", "sample_sizes")
                                  for n in self.sample_sizes)
        for name in ("replicates", "seed", "burn_in", "thin_interval"):
            setattr(self, name, check_count(getattr(self, name), name))
        self.samplers = tuple(self.samplers)
        self.modes = tuple(self.modes)
        self.size_estimators = tuple(self.size_estimators)
        self.weight_estimators = tuple(self.weight_estimators)
        self.probe_percentiles = tuple(float(p) for p in self.probe_percentiles)
        for what, names, known in (
                ("sampler", self.samplers, SAMPLERS),
                ("observation mode", self.modes, ESTIMATOR_PAIRS),
                ("estimator", self.size_estimators, SIZE_ESTIMATORS),
                ("estimator", self.weight_estimators, WEIGHT_ESTIMATORS)):
            for name in names:
                if not isinstance(name, str) or name not in known:
                    raise ValueError(f"unknown {what} {name!r}")
        if any(a >= b for a, b in zip(self.sample_sizes, self.sample_sizes[1:])):
            raise ValueError("sample sizes must be strictly increasing")
        if not all(0 <= p <= 100 for p in self.probe_percentiles):
            raise ValueError("probe percentiles must lie in [0, 100]")
        if self.wrw_category_weights is not None:   # and the draw weights
            _wrw_sums(self.graph, self.partition, self.wrw_category_weights)


@dataclass
class CellResult:
    """Scores for one grid cell.

    ``nrmse_by_quantity`` maps category name (sizes) or "A|B" pair name
    (weights) to its NRMSE over replicates; quantities the estimator
    could not produce in every replicate are excluded and counted.
    """

    quantity_kind: str          # "size" | "weight"
    sampler: str
    mode: str
    size_estimator: str
    weight_estimator: str | None
    n: int
    nrmse_by_quantity: dict[str, float]
    excluded: int
    probe_nrmse: dict[str, float] = field(default_factory=dict)

    @property
    def estimator_label(self) -> str:
        if self.quantity_kind == "size":
            return self.size_estimator
        if self.weight_estimator == STAR:
            return f"{STAR}[sizes={self.size_estimator}]"
        return self.weight_estimator

    @property
    def median_nrmse(self) -> float:
        if not self.nrmse_by_quantity:
            return float("nan")
        return float(np.median(list(self.nrmse_by_quantity.values())))

    @property
    def p25(self) -> float:
        return self._percentile(25)

    @property
    def p75(self) -> float:
        return self._percentile(75)

    def _percentile(self, q: float) -> float:
        if not self.nrmse_by_quantity:
            return float("nan")
        return float(np.percentile(list(self.nrmse_by_quantity.values()), q))

    def nrmse_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted NRMSE values and their cumulative fractions."""
        vals = np.sort(np.asarray(list(self.nrmse_by_quantity.values())))
        return vals, np.arange(1, len(vals) + 1) / len(vals)


@dataclass
class ExperimentReport:
    """All cell results of one sweep plus the ground truth used."""

    cells: list[CellResult]
    truth: CategoryGraph
    probe_pairs: dict[str, tuple[int, int]]
    category_names: tuple[str, ...]

    def find(self, quantity_kind: str, sampler: str, mode: str, n: int,
             size_estimator: str | None = None,
             weight_estimator: str | None = None) -> CellResult:
        for cell in self.cells:
            if (cell.quantity_kind == quantity_kind and cell.sampler == sampler
                    and cell.mode == mode and cell.n == n
                    and (size_estimator is None or cell.size_estimator == size_estimator)
                    and (weight_estimator is None or cell.weight_estimator == weight_estimator)):
                return cell
        raise KeyError(f"no cell ({quantity_kind}, {sampler}, {mode}, n={n}, "
                       f"size={size_estimator}, weight={weight_estimator})")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["quantity_kind", "sampler", "mode", "estimator",
                             "n", "median_nrmse", "p25", "p75",
                             "excluded_count"])
            for cell in self.cells:
                writer.writerow([cell.quantity_kind, cell.sampler, cell.mode,
                                 cell.estimator_label, cell.n,
                                 repr(cell.median_nrmse), repr(cell.p25),
                                 repr(cell.p75), cell.excluded])

    def write_json(self, path) -> None:
        payload = {
            "truth": {
                "sizes": {self.category_names[c]: s
                          for c, s in sorted(self.truth.sizes.items())},
                "weights": {f"{self.category_names[a]}|{self.category_names[b]}": w
                            for (a, b), w in sorted(self.truth.weights.items())},
            },
            "probe_pairs": {label: f"{self.category_names[a]}|{self.category_names[b]}"
                            for label, (a, b) in sorted(self.probe_pairs.items())},
            "cells": [{
                "quantity_kind": cell.quantity_kind,
                "sampler": cell.sampler,
                "mode": cell.mode,
                "size_estimator": cell.size_estimator,
                "weight_estimator": cell.weight_estimator,
                "estimator": cell.estimator_label,
                "n": cell.n,
                "median_nrmse": cell.median_nrmse,
                "p25": cell.p25,
                "p75": cell.p75,
                "excluded_count": cell.excluded,
                "probe_nrmse": cell.probe_nrmse,
                "nrmse_by_quantity": cell.nrmse_by_quantity,
            } for cell in self.cells],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _combos_for_mode(cfg: ExperimentConfig, mode: str):
    """The requested (size_estimator, weight_estimator) pairs that a
    mode supports, in table order. A mode that supports none of them
    is skipped with a warning."""
    combos = [(se, we) for se, we in ESTIMATOR_PAIRS[mode]
              if se in cfg.size_estimators and we in cfg.weight_estimators]
    if not combos:
        warnings.warn(f"no requested estimator combination fits mode "
                      f"{mode!r}; cell grid skipped", RuntimeWarning,
                      stacklevel=2)
    return combos


def _probe_pairs(truth: CategoryGraph,
                 percentiles: Sequence[float]) -> dict[str, tuple[int, int]]:
    if not truth.weights or not percentiles:
        return {}
    pairs = sorted(truth.weights, key=lambda p: (truth.weights[p], p))
    values = np.asarray([truth.weights[p] for p in pairs])
    out = {}
    for p in percentiles:
        target = np.percentile(values, p)
        idx = int(np.argmin(np.abs(values - target)))
        out[f"p{p:g}"] = pairs[idx]
    return out


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full sweep and score every grid cell.

    The R replicate walks of one (sampler, n) cell advance in one
    lockstep batch. Within one (sampler, n, replicate) triple, a single
    trace is drawn and shared by both observation modes and all
    estimator choices, so comparisons across modes and estimators are
    paired. One ``ObservationTable`` reduces each trace straight to its
    totals per mode, with no log or per-draw star rows; the replicate
    totals are stacked per mode and read by each estimator pair at once.
    """
    g, part = cfg.graph, cfg.partition
    table = ObservationTable(g, part)
    truth = exact_category_graph(g, part)
    names = part.names
    probes = _probe_pairs(truth, cfg.probe_percentiles)
    combos = {mode: pairs for mode in cfg.modes
              if (pairs := _combos_for_mode(cfg, mode))}
    # per kind: the true values and the name of each quantity
    quantities = {
        "size": (truth.sizes, lambda c: names[c]),
        "weight": (truth.weights, lambda p: f"{names[p[0]]}|{names[p[1]]}"),
    }

    cells: list[CellResult] = []
    for (si, sampler), (ni, n) in product(enumerate(cfg.samplers),
                                          enumerate(cfg.sample_sizes)):
        traces = draw_traces(
            sampler, g, n,
            [[cfg.seed, si, ni, rep] for rep in range(cfg.replicates)],
            thin_interval=cfg.thin_interval, burn_in=cfg.burn_in,
            part=part, category_weights=cfg.wrw_category_weights)
        # per mode, each replicate's totals, reduced as its trace is drawn
        totals = {mode: [] for mode in combos}
        for trace in traces:
            for mode, rows in totals.items():
                rows.append(table.totals(mode, trace))
        for mode, rows in totals.items():
            t = CategoryTotals.stacked(rows)
            for se, we in combos[mode]:
                sizes, sized = _sizes(t, se, float(g.node_count))
                weights, weighed = _weights(t, we, sizes, sized)
                for kind, cell_we, values, defined in (
                        ("size", None, sizes, sized),
                        ("weight", we, weights, weighed)):
                    true_values, name_of = quantities[kind]
                    # [quantity][replicate]; one undefined value excludes
                    values, defined = (np.moveaxis(x, 0, -1)
                                       for x in (values, defined))
                    scores = {q: nrmse(values[q], true_value)
                              for q, true_value in sorted(true_values.items())
                              if defined[q].all()}
                    cells.append(CellResult(
                        quantity_kind=kind, sampler=sampler, mode=mode,
                        size_estimator=se, weight_estimator=cell_we, n=n,
                        nrmse_by_quantity={name_of(q): s
                                           for q, s in scores.items()},
                        excluded=len(true_values) - len(scores),
                        probe_nrmse={label: scores[pair]
                                     for label, pair in probes.items()
                                     if kind == "weight" and pair in scores}))
    cells.sort(key=lambda c: (c.quantity_kind, c.sampler, c.mode,
                              c.size_estimator, c.weight_estimator or "",
                              c.n))
    return ExperimentReport(cells=cells, truth=truth, probe_pairs=probes,
                            category_names=names)
