"""Category-size and edge-weight estimators over an ObservationLog.

All estimators are inverse-probability-weighted (Hansen-Hurwitz style)
ratios of the per-category totals in ``ObservationLog.totals``: each
draw contributes through 1/w(v), where w(v) is its unnormalized
sampling weight, so the unknown normalization of the sampling design
cancels. With all weights equal to 1 they reduce
exactly to the plain sample-proportion forms, which is what a uniform
independence sample calls for.

Estimates are deliberately not clamped to [0, 1] or rounded: the raw
ratio forms are the consistent ones, and clamping would bias them.
Categories with no draws get size 0 under the induced estimator
(flagged) and no estimate under the star estimator, whose per-category
mean degree is undefined there. Edge-weight estimators emit one-sided
values when only one endpoint category was sampled and skip a pair when
neither was.

Everything here is a pure function of (log, options); replicates and
bootstrap resamples may run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    EmptySample,
    InsufficientSample,
    MissingSizeEstimate,
    WrongObservationMode,
)
from .observe import INDUCED, STAR, ObservationLog

PROPORTIONAL = "proportional"

# The (size estimator, weight estimator) pairs each observation mode
# supports. Star estimators read neighbor histograms, which induced logs
# do not carry; induced weights read the induced edge set, which star
# logs do not carry.
ESTIMATOR_PAIRS = {
    INDUCED: ((INDUCED, INDUCED),),
    STAR: ((INDUCED, STAR), (STAR, STAR)),
}
# the names the table spells, in table order
MODES = tuple(ESTIMATOR_PAIRS)
SIZE_ESTIMATORS, WEIGHT_ESTIMATORS = (tuple(dict.fromkeys(names)) for names
                                      in zip(*sum(ESTIMATOR_PAIRS.values(), ())))


def _require(log: ObservationLog, size: str | None = None,
             weight: str | None = None) -> None:
    """Every estimator's preconditions, in order: the log's mode must
    pair the given size and weight estimators in ESTIMATOR_PAIRS (None
    matches any), then the log must hold draws."""
    pairs = ESTIMATOR_PAIRS.get(log.mode, ())
    if not any(size in (None, s) and weight in (None, w) for s, w in pairs):
        asked = tuple(e or "any" for e in (size, weight))
        raise WrongObservationMode(
            f"a {log.mode} log supports the (size, weight) estimator pairs "
            f"{list(pairs)}, not {asked}")
    if log.n == 0:
        raise EmptySample("no draws to estimate from")


def reweighted_size(weights) -> float:
    """Inverse-weight mass of a draw multiset: sum of 1/w(v).

    This is the quantity that plays the role of a sample count once
    sampling bias is corrected for; with unit weights it IS the count.
    """
    w = np.asarray(weights, dtype=float)
    return float(np.sum(1.0 / w))


def hh_total(values, log: ObservationLog) -> float:
    """Estimate a population total from per-draw values.

    Treats the log's weights as exact sampling probabilities; returns
    (1/n) * sum of x(v)/w(v). When weights are known only up to a
    constant, use :func:`hh_ratio` instead, where the constant cancels.
    """
    _require(log)
    values = np.asarray(values, dtype=float)
    if values.shape != (log.n,):
        raise ValueError("need exactly one value per draw")
    return float(np.sum(values / log.weights) / log.n)


def hh_ratio(numer_values, denom_values, log: ObservationLog) -> float:
    """Ratio of two estimated totals; any constant factor shared by all
    sampling weights cancels out."""
    _require(log)
    numer = np.asarray(numer_values, dtype=float)
    denom = np.asarray(denom_values, dtype=float)
    if numer.shape != (log.n,) or denom.shape != (log.n,):
        raise ValueError("need exactly one value per draw")
    winv = 1.0 / log.weights
    return float(np.sum(numer * winv) / np.sum(denom * winv))


def _pair_dict(a, b, values) -> dict[tuple[int, int], float]:
    return dict(zip(zip(a.tolist(), b.tolist()), values.tolist()))


def est_size_induced(log: ObservationLog, population: float) -> dict[int, float]:
    """Category sizes from the corrected share of draws per category.

    size(A) = population * winv(S_A) / winv(S), where winv is the
    inverse-weight mass of the draws. Categories never drawn get 0.
    """
    _require(log, size=INDUCED)
    mass = log.totals.mass
    return dict(enumerate((population * mass / mass.sum()).tolist()))


def est_mean_degrees(log: ObservationLog) -> tuple[float, dict[int, float]]:
    """Weighted mean degree over the whole sample and per category.

    Returns (k_all, {category: k_cat}); categories without draws are
    absent from the map since their mean is undefined.
    """
    _require(log)
    t = log.totals
    k_all = float(t.degree_mass.sum() / t.mass.sum())
    seen = np.flatnonzero(t.mass > 0)
    return k_all, dict(zip(seen.tolist(),
                           (t.degree_mass[seen] / t.mass[seen]).tolist()))


def est_volume_fraction_star(log: ObservationLog) -> dict[int, float]:
    """Share of total degree mass pointing into each category,
    estimated from the neighbor-category histograms of the draws.

    Far more information per draw than counting draw categories: every
    neighbor of every drawn node contributes. Values sum to 1.
    """
    _require(log, size=STAR)
    t = log.totals
    denom = float(t.degree_mass.sum())
    if denom == 0.0:
        raise InsufficientSample("no edges observed from any draw")
    return dict(enumerate((t.towards.sum(axis=0) / denom).tolist()))


def est_size_star(log: ObservationLog, population: float,
                  assume_homogeneous_degree: bool = False) -> dict[int, float]:
    """Category sizes from volume fractions and mean-degree ratios.

    size(A) = population * volfrac(A) * (k_all / k_A). Needs at least
    one draw in A for k_A, so unseen categories are omitted -- unless
    ``assume_homogeneous_degree`` replaces k_A by k_all, a variance-
    (and coverage-) friendly shortcut that trades away some accuracy
    when categories differ in density.
    """
    _require(log, size=STAR)
    fvol = est_volume_fraction_star(log)
    if assume_homogeneous_degree:
        return {c: float(population * f) for c, f in fvol.items()}
    k_all, k_cat = est_mean_degrees(log)
    return {c: float(population * fvol[c] * (k_all / k))
            for c, k in k_cat.items() if k > 0}


def est_weight_induced(log: ObservationLog) -> dict[tuple[int, int], float]:
    """Edge weights from edges observed between drawn nodes.

    For each category pair, the corrected count of observed cross
    edges over the corrected count of drawn cross node pairs. A pair is
    reported only when both categories have draws; duplicate draws of a
    node multiply its contribution, exactly as if every ordered draw
    pair had been checked for an edge (the sum is grouped per distinct
    node for speed).
    """
    _require(log, weight=INDUCED)
    t = log.totals
    a, b = np.triu_indices(log.num_categories, 1)
    keep = (t.mass[a] > 0) & (t.mass[b] > 0)
    a, b = a[keep], b[keep]
    return _pair_dict(a, b, t.edge_mass[a, b] / (t.mass[a] * t.mass[b]))


def est_weight_star(log: ObservationLog,
                    size_estimates: dict[int, float]) -> dict[tuple[int, int], float]:
    """Edge weights from the neighbor histograms of drawn nodes.

    Corrected count of observed edges into the other category, over the
    corrected maximum number observable, which requires size estimates
    for the categories on the far side. Either size estimator's output
    can be plugged in. One-sided pairs (draws in only one of the two
    categories) are still estimable; pairs with no draws on either
    side, or whose required far-side size is unavailable or zero, are
    skipped.
    """
    _require(log, weight=STAR)
    if size_estimates is None:
        raise MissingSizeEstimate("size estimates are required")
    t = log.totals
    c = log.num_categories
    known = np.array([k in size_estimates for k in range(c)], dtype=bool)
    size = np.array([size_estimates.get(k, 0.0) for k in range(c)], dtype=float)
    drawn = t.mass > 0
    a, b = np.triu_indices(c, 1)
    # a side without draws adds exactly 0 to both sums
    numer = t.towards[a, b] + t.towards[b, a]
    denom = t.mass[a] * size[b] + t.mass[b] * size[a]
    # a side with draws needs the far side's size; with no draws on
    # either side the denominator is 0
    keep = (known[b] | ~drawn[a]) & (known[a] | ~drawn[b]) & (denom != 0.0)
    return _pair_dict(a[keep], b[keep], numer[keep] / denom[keep])


@dataclass(frozen=True)
class CategoryGraphEstimate:
    """Estimated category graph plus provenance.

    ``population_mode`` records whether absolute sizes were requested
    (exact N supplied) or everything is known only up to one shared
    constant (proportional: N taken as 1). Weight estimates may exceed
    1 under sampling noise; they are reported raw.
    """

    sizes: dict[int, float]
    weights: dict[tuple[int, int], float]
    size_estimator: str
    weight_estimator: str
    population: float
    population_mode: str
    category_names: tuple[str, ...]
    size_variances: dict[int, float] | None = None
    weight_variances: dict[tuple[int, int], float] | None = None
    zero_draw_categories: frozenset[int] = field(default_factory=frozenset)
    skipped_size_categories: frozenset[int] = field(default_factory=frozenset)
    skipped_weight_pairs: frozenset[tuple[int, int]] = field(default_factory=frozenset)


def estimate_category_graph(log: ObservationLog,
                            population: float | str | None = None,
                            *,
                            size_estimator: str = INDUCED,
                            weight_estimator: str | None = None,
                            assume_homogeneous_degree: bool = False,
                            ) -> CategoryGraphEstimate:
    """Full pipeline: size estimates feeding edge-weight estimates.

    ``population`` may be the known node count, the string
    "proportional" (sizes and weights then correct up to one shared
    constant), or None to use the log's population hint when present.
    """
    if size_estimator not in SIZE_ESTIMATORS:
        raise ValueError(f"unknown size estimator {size_estimator!r}")
    if weight_estimator not in (None, *WEIGHT_ESTIMATORS):
        raise ValueError(f"unknown weight estimator {weight_estimator!r}")
    _require(log, size_estimator, weight_estimator)
    if weight_estimator is None:   # the one the mode pairs with the size
        weight_estimator = dict(ESTIMATOR_PAIRS[log.mode])[size_estimator]

    if population is None:
        population = (log.population_hint if log.population_hint is not None
                      else PROPORTIONAL)
    if population == PROPORTIONAL:
        pop_value, pop_mode = 1.0, PROPORTIONAL
    else:
        pop_value, pop_mode = float(population), "exact"
        if not 0 < pop_value < np.inf:
            raise ValueError("population must be a positive finite number, "
                             f"got {population!r}")

    if size_estimator == INDUCED:
        sizes = est_size_induced(log, pop_value)
    else:
        sizes = est_size_star(log, pop_value,
                              assume_homogeneous_degree=assume_homogeneous_degree)
    if weight_estimator == INDUCED:
        weights = est_weight_induced(log)
    else:
        weights = est_weight_star(log, sizes)

    c = log.num_categories
    pairs = frozenset(combinations(range(c), 2))
    zero_draw = frozenset(np.flatnonzero(log.totals.mass == 0).tolist())
    return CategoryGraphEstimate(
        sizes=sizes, weights=weights,
        size_estimator=size_estimator, weight_estimator=weight_estimator,
        population=pop_value, population_mode=pop_mode,
        category_names=log.category_names,
        zero_draw_categories=zero_draw,
        skipped_size_categories=frozenset(range(c)).difference(sizes),
        skipped_weight_pairs=pairs.difference(weights))


def bootstrap_variance(log: ObservationLog, B: int, seed=None,
                       population: float | str | None = None,
                       *,
                       size_estimator: str = INDUCED,
                       weight_estimator: str | None = None,
                       assume_homogeneous_degree: bool = False,
                       ) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """Bootstrap variances of the size and weight estimates.

    Resamples the draws with replacement B times, re-runs the full
    estimate, and returns the sample variance per quantity (over the
    resamples in which the quantity was estimable; quantities seen
    fewer than twice are dropped).
    """
    if B < 2:
        raise ValueError("need at least two bootstrap replicates")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
