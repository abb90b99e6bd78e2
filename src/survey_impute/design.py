"""Sampling designs: SRSWOR and stratified SRSWOR.

A sample is one record, SampleDraw: its unit ids, the stratum each unit
was drawn from, and the population size N_h of each stratum, with SRSWOR
the one stratum N. n_h is the count of the sample's labels. pi_k, pi_kl
and the design variance downstream depend on nothing else (Sarndal,
Swensson & Wretman 1992, sections 3.7-3.8), so each has one stratum-wise
formula and no sample carries its population partition. Inclusion
probabilities are exact (no approximations), so the Horvitz-Thompson
machinery downstream can rely on them bit for bit. Unit ids are 0-based
positions into the population arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDesignError

# n_h floor of a design with more than one stratum, so within-stratum
# joint probabilities exist; the lower bound of Neyman allocation's box
MIN_STRATUM_SIZE = 2


@dataclass(frozen=True)
class SampleDraw:
    """A realized sample: unit ids, the stratum each was drawn from, and
    the population sizes N_h of the strata (SRSWOR is one stratum, (N,)).
    allocations (n_h, the sampled units per stratum) and pi_first
    (n_h / N_h of each unit's stratum) are counted off the labels. All
    arrays are read-only int64 or float64 copies."""

    unit_ids: np.ndarray
    strata: np.ndarray
    population_sizes: np.ndarray
    allocations: np.ndarray = field(init=False, repr=False)
    pi_first: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N_h = np.array(self.population_sizes, dtype=np.int64)
        ids = np.array(self.unit_ids, dtype=np.int64)
        labels = np.array(self.strata, dtype=np.int64)
        if N_h.ndim != 1 or N_h.size == 0:
            raise InvalidDesignError("need nonempty 1-d stratum sizes")
        if ids.ndim != 1 or labels.shape != ids.shape:
            raise InvalidDesignError("unit_ids and strata must be matching 1-d arrays")
        if np.any(ids < 0) or np.any(ids >= N_h.sum()):
            raise InvalidDesignError("unit ids out of range")
        sorted_ids = np.sort(ids)
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise InvalidDesignError("duplicate unit ids in draw")
        if np.any(labels < 0) or np.any(labels >= N_h.size):
            raise InvalidDesignError("stratum labels out of range")
        n_h = np.bincount(labels, minlength=N_h.size)
        if np.any(n_h < 1) or np.any(n_h > N_h):
            raise InvalidDesignError(
                f"need 1 <= n_h <= N_h, got n_h={n_h.tolist()}, N_h={N_h.tolist()}"
            )
        if N_h.size > 1 and np.any(n_h < MIN_STRATUM_SIZE):
            raise InvalidDesignError(f"each n_h must be >= {MIN_STRATUM_SIZE}, got {n_h.tolist()}")
        pi = (n_h / N_h)[labels]
        for name, value in (("unit_ids", ids), ("strata", labels), ("population_sizes", N_h),
                            ("allocations", n_h), ("pi_first", pi)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def population_size(self):
        return int(self.population_sizes.sum())

    @property
    def n(self):
        return self.unit_ids.size


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
    """Stratum sizes of the population from target fractions (largest remainder)."""
    fractions = np.asarray(fractions, dtype=np.float64)
    if np.any(fractions <= 0):
        raise InvalidDesignError("stratum fractions must be positive")
    if abs(fractions.sum() - 1.0) > 1e-9:
        raise InvalidDesignError("stratum fractions must sum to 1")
    sizes = _largest_remainder(fractions, population_size)
    if np.any(sizes < 2):
        raise InvalidDesignError("stratum fractions give a stratum with fewer than 2 units")
    return sizes


def neyman_allocation(sizes, sds, n):
    """Neyman allocation: n_h proportional to N_h * S_h, minimizing
    sum N_h^2 S_h^2 / n_h subject to MIN_STRATUM_SIZE <= n_h <= N_h.

    The bounds are met by pegging (Bitran & Hax 1981, Management Science
    27:431-441): the free strata share what is left of n in proportion
    to N_h * S_h, or to N_h when those weights are all zero. If shares
    break a bound, the side with the larger total excess is pegged, every
    over-cap stratum at N_h or every under-floor one at the floor, and the
    free strata share again. The result is the continuous box-constrained
    optimum, rounded to integers by largest remainder.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    sds = np.asarray(sds, dtype=np.float64)
    H = sizes.size
    if sds.shape != (H,):
        raise InvalidDesignError("sizes and sds must have matching length")
    if np.any(sds < 0) or not np.all(np.isfinite(sds)):
        raise InvalidDesignError("stratum sds must be finite and nonnegative")
    if not MIN_STRATUM_SIZE * H <= n <= sizes.sum():
        raise InvalidDesignError(
            f"total n={n} infeasible for {H} strata of at least {MIN_STRATUM_SIZE} units"
        )
    if np.any(sizes < MIN_STRATUM_SIZE):
        raise InvalidDesignError(f"a stratum has fewer than {MIN_STRATUM_SIZE} population units")
    weights = sizes * sds

    alloc = np.zeros(H, dtype=np.int64)
    free = np.ones(H, dtype=bool)
    while free.any():
        remaining = n - int(alloc.sum())
        w = weights[free]
        if w.sum() == 0:
            w = sizes[free].astype(np.float64)  # all-equal spread: proportional
        share = w * (remaining / w.sum())
        bounded = np.clip(share, MIN_STRATUM_SIZE, sizes[free])
        if np.array_equal(bounded, share):
            alloc[free] = _largest_remainder(w, remaining)
            break
        # the side with the larger total excess sits at its bound in the optimum
        side = share > bounded if (share - bounded).sum() >= 0 else share < bounded
        peg = np.flatnonzero(free)[side]
        alloc[peg] = bounded[side]
        free[peg] = False
    return alloc


def draw_srswor(population_size, sample_size, rng):
    """Simple random sample without replacement; ids returned sorted."""
    if not 1 <= sample_size <= population_size:
        raise InvalidDesignError(f"need 1 <= n <= N, got n={sample_size}, N={population_size}")
    ids = np.sort(rng.choice(population_size, size=sample_size, replace=False))
    return SampleDraw(ids, np.zeros(sample_size, dtype=np.int64), (population_size,))


def draw_stratified(sort_key, alloc_variable, fractions, sample_size, rng):
    """Stratified SRSWOR.

    The population is ranked by `sort_key` (ascending, ties broken by
    unit id) and cut into contiguous strata of the given fractions.
    Allocation is Neyman on the within-stratum sd of `alloc_variable`
    with a floor of 2 per stratum. Each stratum's units are drawn from
    its sorted ids; the sample's ids come back sorted.
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
    alloc = neyman_allocation(sizes, sds, sample_size)

    picks = [rng.choice(np.sort(b), n_h, replace=False) for b, n_h in zip(blocks, alloc)]
    ids = np.concatenate(picks)
    by_id = np.argsort(ids)
    return SampleDraw(ids[by_id], np.repeat(np.arange(alloc.size), alloc)[by_id], sizes)
