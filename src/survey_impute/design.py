"""Sampling designs: SRSWOR and stratified SRSWOR.

SRSWOR is the one-stratum case (N_h = N, n_h = n): the descriptor
exposes per-stratum sizes and allocations for both kinds, so pi_k,
pi_kl and the variance downstream each have one stratum-wise formula.
Inclusion probabilities are exact (no approximations), so the
Horvitz-Thompson machinery downstream can rely on them bit for bit.
Unit ids are 0-based positions into the population arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDesignError

SRSWOR = "srswor"
STRATIFIED = "stratified"


@dataclass(frozen=True)
class Stratum:
    """One stratum: its population units (stored sorted and read-only)
    and its sample allocation."""

    units: np.ndarray
    n_h: int

    def __post_init__(self):
        units = np.asarray(self.units, dtype=np.int64)
        if units.ndim != 1 or units.size == 0:
            raise InvalidDesignError("stratum must hold a 1-d nonempty unit array")
        units = np.sort(units)
        if np.any(units[1:] == units[:-1]):
            raise InvalidDesignError("stratum units must be distinct")
        units.setflags(write=False)
        object.__setattr__(self, "units", units)
        if not 1 <= self.n_h <= units.size:
            raise InvalidDesignError(
                f"stratum allocation n_h={self.n_h} outside [1, {units.size}]"
            )


@dataclass(frozen=True)
class DesignDescriptor:
    """Everything needed to recompute first and second order inclusion
    probabilities after the fact.

    kind : "srswor" or "stratified"
    population_size : N
    sample_size : n (total over strata when stratified)
    strata : tuple of Stratum, stratified only; must partition 0..N-1
    """

    kind: str
    population_size: int
    sample_size: int
    strata: tuple = None

    def __post_init__(self):
        N, n = self.population_size, self.sample_size
        if self.kind not in (SRSWOR, STRATIFIED):
            raise InvalidDesignError(f"unknown design kind {self.kind!r}")
        if N < 1 or not 1 <= n <= N:
            raise InvalidDesignError(f"need 1 <= n <= N, got n={n}, N={N}")
        if self.kind == SRSWOR:
            if self.strata is not None:
                raise InvalidDesignError("srswor design takes no strata")
            return
        if not self.strata:
            raise InvalidDesignError("stratified design needs strata")
        object.__setattr__(self, "strata", tuple(self.strata))
        all_units = np.concatenate([s.units for s in self.strata])
        if all_units.size != N or not np.array_equal(np.sort(all_units), np.arange(N)):
            raise InvalidDesignError("strata must partition units 0..N-1")
        if sum(s.n_h for s in self.strata) != n:
            raise InvalidDesignError("stratum allocations must sum to sample_size")
        for h, s in enumerate(self.strata):
            # n_h >= 2 so within-stratum joint probabilities exist
            if s.n_h < 2:
                raise InvalidDesignError(f"stratum {h}: n_h={s.n_h} < 2")
            if s.units.size < 2:
                raise InvalidDesignError(f"stratum {h}: N_h={s.units.size} < 2")

    @property
    def population_sizes(self):
        """N_h per stratum; [N] for SRSWOR."""
        if self.kind == SRSWOR:
            return np.array([self.population_size])
        return np.array([s.units.size for s in self.strata])

    @property
    def allocations(self):
        """n_h per stratum; [n] for SRSWOR."""
        if self.kind == SRSWOR:
            return np.array([self.sample_size])
        return np.array([s.n_h for s in self.strata])


@dataclass(frozen=True)
class SampleDraw:
    """A realized sample: sorted unit ids, their first-order inclusion
    probabilities, and the design that produced them."""

    unit_ids: np.ndarray
    pi_first: np.ndarray
    design: DesignDescriptor

    def __post_init__(self):
        ids = np.asarray(self.unit_ids, dtype=np.int64)
        pi = np.asarray(self.pi_first, dtype=np.float64)
        ids.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "unit_ids", ids)
        object.__setattr__(self, "pi_first", pi)
        if ids.ndim != 1 or pi.shape != ids.shape:
            raise InvalidDesignError("unit_ids and pi_first must be matching 1-d arrays")
        if ids.size != self.design.sample_size:
            raise InvalidDesignError("draw size does not match design sample_size")
        if np.any(ids < 0) or np.any(ids >= self.design.population_size):
            raise InvalidDesignError("unit ids out of range")
        sorted_ids = np.sort(ids)
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise InvalidDesignError("duplicate unit ids in draw")
        if np.any(pi <= 0.0) or np.any(pi > 1.0):
            raise InvalidDesignError("inclusion probabilities must lie in (0, 1]")

    @property
    def n(self):
        return self.unit_ids.size


def first_order(design, unit_ids):
    """pi_k = n_h / N_h for the given units (any units in the population)."""
    rates = design.allocations / design.population_sizes
    return rates[stratum_labels(design, unit_ids)]


def stratum_labels(design, unit_ids):
    """Stratum index of each unit; all zeros under SRSWOR.

    Binary search in each stratum's sorted units: O(H m log N_h) for m
    units, with no N-length lookup table.
    """
    unit_ids = np.asarray(unit_ids, dtype=np.int64)
    if design.kind == SRSWOR:
        labels = np.where((unit_ids >= 0) & (unit_ids < design.population_size), 0, -1)
    else:
        labels = np.full(unit_ids.shape, -1, dtype=np.int64)
        for h, s in enumerate(design.strata):
            pos = np.minimum(np.searchsorted(s.units, unit_ids), s.units.size - 1)
            labels[s.units[pos] == unit_ids] = h
    if np.any(labels < 0):
        raise InvalidDesignError("unit ids outside the design's strata")
    return labels


def joint_inclusion(design, k, l):
    """pi_kl for one pair of distinct units, read off `joint_matrix`.

    Test oracle: production variance code uses the stratum-wise closed
    form in `variance.v1_hat` and never evaluates pairs.
    """
    if k == l:
        raise ValueError("joint_inclusion is defined for distinct units; use first_order")
    return float(joint_matrix(design, [k, l])[0, 1])


def delta(design, k, l):
    """Delta_kl = pi_kl - pi_k pi_l, with pi_kk = pi_k, read off
    `joint_matrix`.

    Test oracle for the double-sum variance; not on any production path.
    """
    J = joint_matrix(design, [k, l])
    pi_kl = J[0, 0] if k == l else J[0, 1]
    return float(pi_kl - J[0, 0] * J[1, 1])


def joint_matrix(design, unit_ids):
    """Matrix of pi_kl over the given units, with pi_kk = pi_k on the
    diagonal: n_h (n_h - 1) / (N_h (N_h - 1)) within stratum h and
    pi_k pi_l across strata, whose draws are independent.

    Test oracle only: it costs O(m^2) time and memory for m units. The
    Horvitz-Thompson double sum built from it must equal the O(n)
    stratum-wise form that `variance.v1_hat` evaluates.
    """
    N_h, n_h = design.population_sizes, design.allocations
    if np.any(N_h < 2):
        raise InvalidDesignError("joint inclusion undefined for N_h < 2")
    labels = stratum_labels(design, unit_ids)
    pi = first_order(design, unit_ids)
    within = n_h * (n_h - 1) / (N_h * (N_h - 1))
    same = labels[:, None] == labels[None, :]
    J = np.where(same, within[labels][:, None], pi[:, None] * pi[None, :])
    np.fill_diagonal(J, pi)
    return J


def _largest_remainder(raw, total):
    """Integer apportionment of `total` proportional to nonnegative `raw`.

    Floors first, then hands leftover units to the largest fractional
    remainders; ties go to the lower index (stable, deterministic).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if total == 0:
        return np.zeros(raw.shape, dtype=np.int64)
    if np.any(raw < 0) or raw.sum() <= 0:
        raise InvalidDesignError("apportionment weights must be nonnegative with positive sum")
    quota = raw * (total / raw.sum())
    base = np.floor(quota).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        remainder = quota - base
        order = np.lexsort((np.arange(raw.size), -remainder))
        base[order[:short]] += 1
    return base


def stratum_sizes(population_size, fractions):
    """Population stratum sizes from target fractions (largest remainder)."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions <= 0):
        raise InvalidDesignError("stratum fractions must be positive")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise InvalidDesignError("stratum fractions must sum to 1")
    sizes = _largest_remainder(fractions, population_size)
    if np.any(sizes < 2):
        raise InvalidDesignError("stratum fractions give a stratum with fewer than 2 units")
    return sizes


def neyman_allocation(sizes, sds, n, min_size=1):
    """Neyman allocation n_h proportional to N_h * S_h, clamped to
    [min_size, N_h] and redistributed.

    Oversized strata are fixed at N_h first (they free budget), then
    undersized ones are raised to min_size; repeating until stable keeps
    the proportional shares on the remaining free strata correct.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sds = np.asarray(sds, dtype=np.float64)
    H = sizes.size
    if sds.shape != (H,):
        raise InvalidDesignError("sizes and sds must have matching length")
    if np.any(sds < 0) or not np.all(np.isfinite(sds)):
        raise InvalidDesignError("stratum sds must be finite and nonnegative")
    if not min_size * H <= n <= sizes.sum():
        raise InvalidDesignError(
            f"total n={n} infeasible for {H} strata with min_size={min_size}"
        )
    if np.any(sizes < min_size):
        raise InvalidDesignError("min_size exceeds a stratum population size")
    weights = sizes * sds
    if weights.sum() == 0:
        weights = sizes.astype(np.float64)  # all-equal spread: fall back to proportional

    alloc = np.zeros(H, dtype=np.int64)
    fixed = np.zeros(H, dtype=bool)
    while True:
        free = ~fixed
        remaining = n - int(alloc[fixed].sum())
        if remaining < min_size * int(free.sum()):
            # cap-fixing stranded the floors of the remaining strata;
            # restart with floors reserved up front (caps stay honored)
            return _floors_first(sizes, weights, n, min_size)
        w = weights[free]
        if w.sum() == 0:
            w = sizes[free].astype(np.float64)
        alloc[free] = _largest_remainder(w, remaining)
        too_big = free & (alloc > sizes)
        if too_big.any():
            alloc[too_big] = sizes[too_big]
            fixed |= too_big
            continue
        too_small = free & (alloc < min_size)
        if too_small.any():
            alloc[too_small] = min_size
            fixed |= too_small
            continue
        break
    return alloc


def _floors_first(sizes, weights, n, min_size):
    """Fallback allocation: every stratum gets min_size, the surplus is
    apportioned over spare capacity with only the cap clamp active."""
    caps = sizes - min_size
    extra = np.zeros(sizes.size, dtype=np.int64)
    fixed = np.zeros(sizes.size, dtype=bool)
    while True:
        free = ~fixed
        remaining = n - min_size * sizes.size - int(extra[fixed].sum())
        w = weights[free]
        if free.any() and w.sum() == 0:
            w = np.maximum(caps[free], 1).astype(np.float64)
        extra[free] = _largest_remainder(w, remaining) if free.any() else 0
        over = free & (extra > caps)
        if not over.any():
            break
        extra[over] = caps[over]
        fixed |= over
    return min_size + extra


def draw_srswor(population_size, sample_size, rng):
    """Simple random sample without replacement; ids returned sorted."""
    design = DesignDescriptor(SRSWOR, population_size, sample_size)
    ids = np.sort(rng.choice(population_size, size=sample_size, replace=False))
    return SampleDraw(ids, first_order(design, ids), design)


def draw_stratified(sort_key, alloc_variable, fractions, sample_size, rng):
    """Stratified SRSWOR.

    The population is ranked by `sort_key` (ascending, ties broken by
    unit id) and cut into contiguous strata of the given fractions.
    Allocation is Neyman on the within-stratum sd of `alloc_variable`
    with a floor of 2 per stratum.
    """
    sort_key = np.asarray(sort_key, dtype=np.float64)
    alloc_variable = np.asarray(alloc_variable, dtype=np.float64)
    N = sort_key.size
    if alloc_variable.shape != (N,):
        raise InvalidDesignError("sort_key and alloc_variable must have matching length")
    sizes = stratum_sizes(N, fractions)

    order = np.argsort(sort_key, kind="stable")
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    sds = np.array([np.std(alloc_variable[b], ddof=1) for b in blocks])
    alloc = neyman_allocation(sizes, sds, sample_size, min_size=2)

    strata = tuple(Stratum(b, int(n_h)) for b, n_h in zip(blocks, alloc))
    design = DesignDescriptor(STRATIFIED, N, sample_size, strata)

    picks = [rng.choice(s.units, size=s.n_h, replace=False) for s in strata]
    ids = np.sort(np.concatenate(picks))
    return SampleDraw(ids, first_order(design, ids), design)
