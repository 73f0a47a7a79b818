"""Category-size and edge-weight estimators over an ObservationLog.

All estimators are inverse-probability-weighted (Hansen-Hurwitz style)
ratios of per-category totals (``CategoryTotals``): each draw
contributes through 1/w(v), where w(v) is its unnormalized sampling
weight, so the unknown normalization of the sampling design cancels.
With all weights equal to 1 they reduce exactly to the plain
sample-proportion forms, which is what a uniform independence sample
calls for.

Every formula lives in ``_sizes`` and ``_weights``, which read one
log's totals or stacked ones (resamples, replicates) and return values
and a mask of which are defined; the estimators below are views of them.

Estimates are deliberately not clamped to [0, 1] or rounded: the raw
ratio forms are the consistent ones, and clamping would bias them.
Categories with no draws get size 0 under the induced estimator
(flagged) and no estimate under the star estimator, whose per-category
mean degree is undefined there. Edge-weight estimators emit one-sided
values when only one endpoint category was sampled and skip a pair when
neither was.

Everything here is a pure function of (log, options).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import (
    EmptySample,
    InsufficientSample,
    MissingSizeEstimate,
    WrongObservationMode,
    check_count,
)
from .observe import INDUCED, STAR, CategoryTotals, ObservationLog
from .sampling import _as_rng

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


def _sizes(t: CategoryTotals, estimator: str, population: float,
           homogeneous: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Sizes from totals with or without a leading group axis, and
    which are defined; an undefined size holds 0.0. Every induced size
    is defined; a star size needs k_c > 0, or with ``homogeneous`` a
    group whose draws have edges."""
    mass = t.mass
    if estimator == INDUCED:
        return (population * mass / mass.sum(axis=-1, keepdims=True),
                np.ones(mass.shape, dtype=bool))
    volume = t.degree_mass.sum(axis=-1, keepdims=True)
    k_all = volume / mass.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a homogeneous degree is every category's k_all, so k_all / k = 1
        k = np.broadcast_to(k_all, mass.shape) if homogeneous else t.degree_mass / mass
        sizes = population * (t.towards.sum(axis=-2) / volume) * (k_all / k)
    return np.where(k > 0, sizes, 0.0), k > 0


def _weights(t: CategoryTotals, estimator: str, sizes: np.ndarray | None = None,
             known: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Weights [..., a, b], a < b, from totals with or without a leading
    group axis, and which are defined; an undefined weight holds 0.0.
    Star weights read ``sizes`` where ``known``."""
    mass = t.mass
    drawn = mass > 0
    if estimator == INDUCED:
        numer, denom = t.edge_mass, mass[..., :, None] * mass[..., None, :]
        defined = drawn[..., :, None] & drawn[..., None, :]
    else:
        numer = t.towards + np.swapaxes(t.towards, -1, -2)
        half = mass[..., :, None] * sizes[..., None, :]
        denom = half + np.swapaxes(half, -1, -2)
        # a side with draws needs the far side's size; with no draws on
        # either side the denominator is 0
        needs = known[..., None, :] | ~drawn[..., :, None]
        defined = needs & np.swapaxes(needs, -1, -2) & (denom != 0.0)
    defined = np.triu(defined, 1)
    return np.divide(numer, denom, out=np.zeros(denom.shape), where=defined), defined


def _keys(mask: np.ndarray) -> list:
    """The categories, or the (a, b) pairs, that a mask marks, in order."""
    return [k[0] if len(k) == 1 else tuple(k) for k in np.argwhere(mask).tolist()]


def _defined(values: np.ndarray, defined: np.ndarray) -> dict:
    return dict(zip(_keys(defined), values[defined].tolist()))


def _log_sizes(log: ObservationLog, estimator: str, population: float,
               homogeneous: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``_sizes`` of a log; a star log whose draws have no edges is refused."""
    sizes, defined = _sizes(log.totals, estimator, population, homogeneous)
    if not defined.any():
        raise InsufficientSample("no edges observed from any draw")
    return sizes, defined


def est_size_induced(log: ObservationLog, population: float) -> dict[int, float]:
    """Category sizes from the corrected share of draws per category.

    size(A) = population * winv(S_A) / winv(S), where winv is the
    inverse-weight mass of the draws. Categories never drawn get 0.
    """
    _require(log, size=INDUCED)
    return _defined(*_log_sizes(log, INDUCED, population))


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
    return est_size_star(log, 1.0, assume_homogeneous_degree=True)


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
    return _defined(*_log_sizes(log, STAR, population,
                                assume_homogeneous_degree))


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
    return _defined(*_weights(log.totals, INDUCED))


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
    cats = range(log.num_categories)
    known = np.array([k in size_estimates for k in cats], dtype=bool)
    sizes = np.array([size_estimates.get(k, 0.0) for k in cats], dtype=float)
    return _defined(*_weights(log.totals, STAR, sizes, known))


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

    ``population`` may be the known node count, a positive finite real
    number (a boolean or a string such as "12" is refused), the string
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
        # a string or a boolean is not a population, though float() reads it
        real = isinstance(population, Real) and not isinstance(population, bool)
        pop_value, pop_mode = float(population) if real else np.nan, "exact"
        if not 0 < pop_value < np.inf:
            raise ValueError("population must be a positive finite number, "
                             f"got {population!r}")

    sizes, sized = _log_sizes(log, size_estimator, pop_value,
                              assume_homogeneous_degree)
    weights, weighed = _weights(log.totals, weight_estimator, sizes, sized)
    return CategoryGraphEstimate(
        sizes=_defined(sizes, sized), weights=_defined(weights, weighed),
        size_estimator=size_estimator, weight_estimator=weight_estimator,
        population=pop_value, population_mode=pop_mode,
        category_names=log.category_names,
        zero_draw_categories=frozenset(_keys(log.totals.mass == 0)),
        skipped_size_categories=frozenset(_keys(~sized)),
        skipped_weight_pairs=frozenset(_keys(np.triu(~weighed, 1))))


def _variances(values: np.ndarray, defined: np.ndarray) -> dict:
    """Per quantity, the sample variance of its defined values across
    groups; quantities defined fewer than twice are dropped."""
    enough = defined.sum(axis=0) >= 2
    values, defined = (np.moveaxis(x, 0, -1)[enough] for x in (values, defined))
    return dict(zip(_keys(enough), (float(np.var(v[d], ddof=1))
                                    for v, d in zip(values, defined))))


def bootstrap_variance(log: ObservationLog, B: int, seed=None,
                       population: float | str | None = None,
                       *,
                       size_estimator: str = INDUCED,
                       weight_estimator: str | None = None,
                       assume_homogeneous_degree: bool = False,
                       ) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """Bootstrap variances of the size and weight estimates.

    Resamples the draws with replacement B times, reducing each to its
    totals (``totals_of``) as it is drawn, and returns the sample variance
    per quantity over the resamples in which it was estimable; those seen
    fewer than twice are dropped. A log ``estimate_category_graph``
    refuses is refused.
    """
    check_count(B, "B")
    rng, _ = _as_rng(seed)
    # the whole log's estimate makes every refusal a resample would
    est = estimate_category_graph(
        log, population, size_estimator=size_estimator,
        weight_estimator=weight_estimator,
        assume_homogeneous_degree=assume_homogeneous_degree)
    t = CategoryTotals.stacked(
        log.totals_of(rng.integers(0, log.n, size=log.n)) for _ in range(B))
    sizes, sized = _sizes(t, size_estimator, est.population,
                          assume_homogeneous_degree)
    weights, weighed = _weights(t, est.weight_estimator, sizes, sized)
    return _variances(sizes, sized), _variances(weights, weighed)
