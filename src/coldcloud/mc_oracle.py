"""Independent Monte Carlo ground truth for the weighted-count statistics.

Every closed form in the package can be checked against this sampler: draw
a Poisson-distributed number of atoms from the initial Gaussian phase
space, fly them ballistically, sum the beam weights, and estimate
mean/variance/covariance across many independent realizations.  Only the
atoms that can reach the beam or the box are drawn: a Poisson cloud
restricted to a region is the same Poisson process there (Kingman,
*Poisson Processes*, 1993).  Where the windows of the first windowed
coordinate are narrow, as for validate's beam window, that coordinate is
drawn from their bands in the (position, velocity) plane instead of from
the whole cloud (see sample_cloud and _band_draw).

Reproducibility contract: each realization uses its own generator seeded by
a splitmix64 mix of the master seed and the realization index.  It draws,
one coordinate at a time, the positions and then the velocities of the
atoms still kept: first the coordinates with a window, then the others,
each group in x, y, z order.  The draw starts with the Poisson count of the
whole cloud, or, for a band draw, with the Poisson counts of the bands.
Above _PART_ATOMS mean atoms, a realization adds independent sub-clouds of
equal mean, sub-cloud j >= 1 seeded by the same mix of its seed and j.  All
statistics are reductions over a fully materialized (realization, time)
array.  Results are therefore bit-identical no matter how many threads the
realizations are spread over.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .beam import BeamParams, beam_size, weight
from .cloud import CloudParams, _checked, _spread_sq

__all__ = [
    "Realization",
    "EnsembleStats",
    "BinaryCountReport",
    "substream_seed",
    "sample_cloud",
    "propagate",
    "effective_count",
    "weighted_counts",
    "ensemble_stats",
    "binary_count_check",
    "dropped_weight_bound",
]

_MASK64 = (1 << 64) - 1

# Beam window of weighted_counts.  An atom is drawn only if its y and its z
# each come within BEAM_CUT * W_i of the beam axis at some grid time t_i,
# where W_i = w(AXIAL_CUT * sigma_x(t_i)) bounds the beam radius w(x) over
# |x| <= AXIAL_CUT * sigma_x(t_i).  A dropped atom in that range weighs at
# most exp(-2 BEAM_CUT^2) at t_i, and an atom leaves it with probability
# erfc(AXIAL_CUT/sqrt(2)), so the expected weight dropped per realization,
# summed over m grid times, is at most
#     n_total * m * (exp(-2 BEAM_CUT^2) + erfc(AXIAL_CUT/sqrt(2))),
# about 1e-15 atoms for 1e6 atoms on 5 times (configs/default.json).
BEAM_CUT = 5.0
AXIAL_CUT = 10.0
# Largest mean atom number drawn as one cloud: 512 KiB per coordinate array.
_PART_ATOMS = 1 << 16


def substream_seed(master_seed: int, index: int) -> int:
    """Derive the per-realization seed: splitmix64 of master seed and index.

    The mix decorrelates consecutive indices completely, so realizations
    can be generated in any order (or in parallel) with identical results.
    """
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Realization:
    """One sampled cloud: atom positions and velocities at release.

    ``count`` is the number of atoms drawn, which sample_cloud limits to
    those inside its windows.  It stores both (count, 3) arrays
    column-major, so each
    coordinate ``[:, d]``, which propagation, weight and box test read, is
    contiguous.
    """

    positions: np.ndarray
    velocities: np.ndarray
    count: int


@dataclass(frozen=True)
class EnsembleStats:
    """Sample statistics of the weighted count over many realizations.

    ``covariance`` is the (time, time) sample covariance matrix; its
    diagonal is ``variance`` by construction.  All standard errors are
    jackknife estimates (the one for the mean coincides with the usual
    s/sqrt(n)).
    """

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray
    se_mean: np.ndarray
    se_variance: np.ndarray
    se_covariance: np.ndarray
    realization_count: int
    seed: int


@dataclass(frozen=True)
class BinaryCountReport:
    """Poisson check for an indicator (hard-edged) detection volume.

    For a 0/1 weight the count must stay Poissonian at all times, so the
    variance/mean ratio is 1 up to sampling error.  ``consistent`` flags
    |ratio - 1| <= 3 standard errors per time.  At a time when no atom of
    any realization is in the box, ratio and ratio_se are NaN and the time
    is not consistent.
    """

    times: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    ratio: np.ndarray
    ratio_se: np.ndarray
    consistent: np.ndarray

    @property
    def all_consistent(self) -> bool:
        return bool(np.all(self.consistent))


def _draw_plan(c: CloudParams, times, lo, hi) -> tuple:
    """What sample_cloud draws for one (cloud, times, windows), computed
    once per ensemble since it does not depend on the seed: the checked
    times, the windows lo, hi broadcast to (3, times), the windowed
    coordinates in x, y, z order, and the _bands of the first of them, or
    None for the full draw."""
    if not c.n_total > 0:
        raise ValueError("sampling requires a positive mean atom number")
    times = np.atleast_1d(_checked(times, "times", 0.0))
    lo, hi = (np.broadcast_to(np.asarray(side, dtype=float), (3, times.size)) for side in (lo, hi))
    windowed = ((lo > -np.inf) | (hi < np.inf)).all(axis=1) & (times.size > 0)
    order = np.flatnonzero(windowed).tolist()
    bands = _bands(c, times, lo[order[0]], hi[order[0]], order[0] == 2) if order else None
    return times, lo, hi, order, bands


def _bands(c: CloudParams, times: np.ndarray, lo: np.ndarray, hi: np.ndarray, falls: bool):
    """The windows lo_i <= x0 + v t_i - f_i <= hi_i of one coordinate as
    bands a_i <= (x0 + v t_i)/s_i <= b_i of the whitened (x0/sigma_r,
    v/sigma_v) plane, with s_i^2 = sigma_r^2 + sigma_v^2 t_i^2 and f_i the
    fall g t_i^2/2 on z.  Returns (mass, a, b, nearest^2, e_r, e_v): each
    band's standard normal mass, its bounds, the square of its point nearest
    0, and its unit normal e_i = (sigma_r, sigma_v t_i)/s_i.

    None, for the full draw, unless every bound is finite, the masses sum
    below 1, so that the band draw proposes fewer atoms than the whole cloud
    holds, and the uniform envelopes of the rejection step, of area
    (b_i - a_i) phi(nearest_i), sum below 2: n_total times that sum is the
    expected number of uniform pairs the rejection rounds draw, which a
    band far off centre would make unbounded.
    """
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        return None
    s = np.sqrt(_spread_sq(c, times))
    fall = 0.5 * c.g * times**2 if falls else 0.0
    a, b = (lo + fall) / s, (hi + fall) / s
    root2 = math.sqrt(2.0)
    mass = np.maximum(0.0, [0.5 * (math.erf(upper / root2) - math.erf(lower / root2))
                            for lower, upper in zip(a.tolist(), b.tolist())])
    nearest_sq = np.clip(0.0, a, b) ** 2
    envelope = np.maximum(b - a, 0.0) * np.exp(-0.5 * nearest_sq) / math.sqrt(2.0 * math.pi)
    if not (mass.sum() < 1.0 and envelope.sum() < 2.0):
        return None
    return mass, a, b, nearest_sq, c.sigma_r / s, c.sigma_v * times / s


def _window_hits(c: CloudParams, pair: np.ndarray, times: np.ndarray, lo, hi,
                 falls: bool) -> np.ndarray:
    """For each (position, velocity) column of pair, the number of times t_i
    at which the coordinate lies in its window [lo_i, hi_i]."""
    hits = np.zeros(pair.shape[1], dtype=np.min_scalar_type(len(times)))
    pos = np.empty(pair.shape[1])
    for t, a, b in zip(times, lo, hi):
        # the propagate formula, so a box edge cuts as the count does
        np.multiply(pair[1], t, out=pos)
        pos += pair[0]
        if falls:
            pos -= 0.5 * c.g * t**2
        hits += (pos >= a) & (pos <= b)
    return hits


def _band_draw(c: CloudParams, rng: np.random.Generator, times: np.ndarray, lo: np.ndarray,
               hi: np.ndarray, falls: bool, bands: tuple) -> np.ndarray:
    """The (position, velocity) pairs, shape (2, kept), of the cloud's atoms
    inside the union of one coordinate's windows lo, hi at the times.

    Band i gets a Poisson(n_total m_i) count of proposals, the Poisson
    (n_total sum m) count split among the bands with probabilities
    m_i/sum m.  Across its band a proposal is a standard normal truncated to
    [a_i, b_i], by uniform rejection (Devroye 1986), along it a free
    normal.  A proposal in k windows is kept with probability 1/k, so the
    kept atoms are the cloud restricted to the union (Karp, Luby & Madras
    1989): a thinned Poisson process is Poisson.
    """
    mass, a, b, nearest_sq, e_r, e_v = bands
    per_band = rng.poisson(c.n_total * mass)
    count = int(per_band.sum())
    lower, width, top, e_r, e_v = np.repeat(np.stack([a, b - a, nearest_sq, e_r, e_v]),
                                            per_band, axis=1)
    across = np.empty(count)
    pending = np.arange(count)
    while pending.size:
        u = rng.random((2, pending.size))
        x = lower[pending] + width[pending] * u[0]
        accepted = u[1] < np.exp(0.5 * (top[pending] - x * x))
        across[pending[accepted]] = x[accepted]
        pending = pending[~accepted]
    along = rng.standard_normal(count)
    pair = np.stack([c.sigma_r * (across * e_r - along * e_v),
                     c.sigma_v * (across * e_v + along * e_r)])
    hits = _window_hits(c, pair, times, lo, hi, falls)
    # hits is 0 only where rounding moved a proposal off its band's edge
    return pair.take(np.flatnonzero((hits > 0) & (rng.random(count) * hits < 1.0)), axis=1)


def _draw(c: CloudParams, seed: int, plan: tuple) -> Realization:
    """sample_cloud(c, seed, ...) for the _draw_plan of its other arguments."""
    times, lo, hi, order, bands = plan
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = {}
    if bands is None:
        count = int(rng.poisson(c.n_total))
    else:
        d = order[0]
        drawn[d] = _band_draw(c, rng, times, lo[d], hi[d], d == 2, bands)
        count = drawn[d].shape[1]
    for d in order[len(drawn):]:
        pair = rng.standard_normal((2, count))
        pair[0] *= c.sigma_r
        pair[1] *= c.sigma_v
        kept = np.flatnonzero(_window_hits(c, pair, times, lo[d], hi[d], d == 2))
        drawn = {e: earlier.take(kept, axis=1) for e, earlier in drawn.items()}
        drawn[d] = pair.take(kept, axis=1)
        count = kept.size
    positions, velocities = (np.empty((count, 3), order="F") for _ in range(2))
    for d in range(3):
        if d in drawn:
            positions[:, d], velocities[:, d] = drawn[d]
        else:  # the coordinates without a window, drawn last and in full
            for column, sigma in ((positions[:, d], c.sigma_r), (velocities[:, d], c.sigma_v)):
                rng.standard_normal(out=column)
                column *= sigma
    return Realization(positions=positions, velocities=velocities, count=count)


def sample_cloud(c: CloudParams, seed: int, times=(), lo=-np.inf, hi=np.inf) -> Realization:
    """Draw one cloud realization, deterministic for a given seed.

    The atom count is Poisson with mean n_total; positions and velocities
    are i.i.d. isotropic Gaussians (sigma_r, sigma_v).  ``lo`` and ``hi``
    broadcast to (3, len(times)): the window of each coordinate at each
    time.  An atom is kept only if each coordinate, propagated with the
    fall along z, lies in its window at some time; a coordinate that has
    the whole line as its window at some time keeps every atom.  With no
    times this is the whole cloud.

    Draw order is fixed.  The coordinates with windows come first, then
    the others, each group in x, y, z order.  The first windowed coordinate
    is drawn from its bands when they are narrow (see _bands and
    _band_draw), which keeps the same atoms in distribution: a Poisson
    count per band, the uniform pairs of the rejection rounds, one normal
    per proposal along its band, and one uniform per proposal for the 1/k
    thinning.  Otherwise the draw starts with the Poisson count of the whole
    cloud.  Every other coordinate
    draws a (2, kept) block, the positions then the velocities of the atoms
    still kept, which are stored column-major (see Realization).
    """
    return _draw(c, seed, _draw_plan(c, times, lo, hi))


def propagate(r0, v0, g: float, t: float):
    """Ballistic position r0 + v0*t with the gravity drop -g*t^2/2 along z.

    Accepts single 3-vectors or arrays of shape (..., 3); the result keeps
    the memory layout of the inputs.
    """
    if not 0 <= t < np.inf:
        raise ValueError("t must be finite and nonnegative")
    r0 = np.asarray(r0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    out = r0 + v0 * t
    out[..., 2] -= 0.5 * g * t**2
    return out


def effective_count(b: BeamParams, real: Realization, g: float, t: float) -> float:
    """Weighted atom count N(t) = sum of beam weights over the atoms."""
    pos = propagate(real.positions, real.velocities, g, t)
    return float(np.sum(weight(b, pos)))


def _sub_clouds(c: CloudParams) -> int:
    """Independent sub-clouds drawn per realization of c."""
    return max(1, math.ceil(c.n_total / _PART_ATOMS))


def _realization_rows(c: CloudParams, row, width: int, times: np.ndarray, lo, hi,
                      n_realizations: int, seed: int, threads: int) -> np.ndarray:
    """(realization, width) array whose row i is row(realization i), a
    sequence of width numbers: the m weighted counts of weighted_counts, the
    m box counts of binary_count_check, or both from one draw.

    Realization i sums _sub_clouds(c) sub-clouds of equal mean, drawn in the
    windows lo, hi at the given times as sample_cloud draws them, from one
    _draw_plan for the whole ensemble: sub-cloud 0 from
    s = substream_seed(seed, i), sub-cloud j from substream_seed(s, j), in
    order of j.  So scheduling order cannot change the result.  One thread
    runs on the calling thread; more split the realizations into contiguous
    chunks over a thread pool of at most one worker per CPU.
    """
    threads = min(threads, os.cpu_count() or 1)
    out = np.empty((n_realizations, width))
    parts = _sub_clouds(c)
    part = replace(c, n_total=c.n_total / parts)
    plan = _draw_plan(part, times, lo, hi)

    def fill(indices) -> None:
        for i in indices:
            first = substream_seed(seed, i)
            out[i] = row(_draw(part, first, plan))
            for j in range(1, parts):
                out[i] += row(_draw(part, substream_seed(first, j), plan))

    if threads <= 1:
        fill(range(n_realizations))
        return out
    chunk = -(-n_realizations // threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fill, [range(lo, min(lo + chunk, n_realizations))
                             for lo in range(0, n_realizations, chunk)]))
    return out


def _leave_one_out_covariances(cross: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample covariances with each realization left out in turn.

    a and b are centered data with realizations along axis 0; they
    broadcast against each other to the shape of the full cross sum
    ``cross`` = sum_i a_i * b_i.  The result, one estimate per left-out
    realization, comes from downdating that sum, so its cost is that of
    a * b: O(n*m) for matched columns, O(n*m^2) for a full (m, m) matrix.
    """
    n = a.shape[0]
    rest_a = a.sum(axis=0) - a                       # ~ -a for centered data
    rest_b = b.sum(axis=0) - b
    return (cross - a * b - rest_a * rest_b / (n - 1)) / (n - 2)


def _jackknife_se(loo: np.ndarray) -> np.ndarray:
    """Jackknife standard error from the leave-one-out estimates loo[i]."""
    n = loo.shape[0]
    return np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))


def _ensemble_from_values(values: np.ndarray, times: np.ndarray, seed: int) -> EnsembleStats:
    n = values.shape[0]
    mean = values.mean(axis=0)
    centered = values - mean
    cross = centered.T @ centered
    cov = cross / (n - 1)
    cov = 0.5 * (cov + cov.T)  # enforce exact symmetry of the BLAS product
    var = np.diag(cov).copy()
    se_cov = _jackknife_se(_leave_one_out_covariances(
        cross, centered[:, :, None], centered[:, None, :]))
    se_cov = 0.5 * (se_cov + se_cov.T)
    return EnsembleStats(
        times=np.array(times, dtype=float),
        mean=mean,
        variance=var,
        covariance=cov,
        se_mean=np.sqrt(var / n),
        se_variance=np.diag(se_cov).copy(),
        se_covariance=se_cov,
        realization_count=n,
        seed=seed,
    )


def dropped_weight_bound(c: CloudParams, n_times: int) -> dict:
    """BEAM_CUT, AXIAL_CUT and their bound on the expected weight per
    realization, summed over n_times grid times, that the beam window of
    weighted_counts leaves out."""
    tails = math.exp(-2.0 * BEAM_CUT**2) + math.erfc(AXIAL_CUT / math.sqrt(2.0))
    return {"beam_cut": BEAM_CUT, "axial_cut": AXIAL_CUT,
            "dropped_weight_bound": c.n_total * n_times * tails}


def _beam_window(c: CloudParams, b: BeamParams, times: np.ndarray) -> np.ndarray:
    """Upper window bounds (3, times) of weighted_counts; the lower ones are
    their negatives.  x is not windowed."""
    half = BEAM_CUT * beam_size(b, AXIAL_CUT * np.sqrt(_spread_sq(c, times)))
    return np.stack([np.full(times.size, np.inf), half, half])


def weighted_counts(
    c: CloudParams,
    b: BeamParams,
    times,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Raw weighted counts N(t), shape (n_realizations, n_times).

    Row i sums the sub-clouds of realization i (see _realization_rows), so
    the array is identical for any thread count.  Only atoms inside the beam
    window (see BEAM_CUT and dropped_weight_bound) are drawn.  Useful for
    statistics beyond what ensemble_stats reports (ratio estimators,
    bootstrap, ...).
    """
    times = np.atleast_1d(_checked(times, "times", 0.0))
    hi = _beam_window(c, b, times)
    return _realization_rows(
        c, lambda real: [effective_count(b, real, c.g, t) for t in times],
        times.size, times, -hi, hi, n_realizations, seed, threads,
    )


def ensemble_stats(
    c: CloudParams,
    b: BeamParams,
    times,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> EnsembleStats:
    """Estimate mean/variance/covariance of N(t) over independent clouds.

    Unbiased sample statistics with jackknife standard errors.  Identical
    results for any ``threads`` value.
    """
    if n_realizations < 3:
        raise ValueError("need at least 3 realizations for jackknife standard errors")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = weighted_counts(c, b, times, n_realizations, seed, threads)
    return _ensemble_from_values(values, times, seed)


def _box(box_bounds) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper 3-vectors of a box ((xlo, ylo, zlo), (xhi, yhi, zhi))."""
    lo, hi = (np.asarray(side, dtype=float) for side in box_bounds)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("box_bounds must be a pair of 3-vectors")
    # a NaN bound fails the comparison; infinite bounds pass it
    if not np.all(lo < hi):
        raise ValueError("box lower bounds must be below upper bounds")
    return lo, hi


def _inside(pos: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Number of the (..., count, 3) positions inside the box lo, hi, over
    the count axis."""
    # coordinate by coordinate: no (..., count, 3) boolean temporaries
    mask = np.ones(pos.shape[:-1], dtype=bool)
    for d in range(3):
        mask &= pos[..., d] >= lo[d]
        mask &= pos[..., d] <= hi[d]
    return np.count_nonzero(mask, axis=-1)


def _box_report(counts: np.ndarray, times: np.ndarray) -> BinaryCountReport:
    """Variance/mean ratio of the (realization, time) box counts, with its
    jackknife standard error."""
    n = counts.shape[0]
    mean = counts.mean(axis=0)
    centered = counts - mean
    sq_sum = np.sum(centered**2, axis=0)
    var = sq_sum / (n - 1)
    # leave-one-out variances over leave-one-out means; 0/0 (NaN) for an
    # empty box
    loo_var = _leave_one_out_covariances(sq_sum, centered, centered)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = var / mean
        ratio_se = _jackknife_se(loo_var / (mean - centered / (n - 1)))
    return BinaryCountReport(
        times=times,
        mean=mean,
        variance=var,
        ratio=ratio,
        ratio_se=ratio_se,
        consistent=np.abs(ratio - 1.0) <= 3.0 * ratio_se,
    )


def binary_count_check(
    c: CloudParams,
    box_bounds,
    times,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> BinaryCountReport:
    """Poisson sanity check of the sampler with an indicator weight.

    ``box_bounds`` is ((xlo, ylo, zlo), (xhi, yhi, zhi)); infinities select
    all space.  Counts atoms inside the box after free fall and reports the
    variance/mean ratio with a jackknife standard error; a healthy sampler
    gives 1 within noise at every time, independently of any beam-weight
    physics.  Only atoms that enter the box at some grid time are drawn.
    """
    if n_realizations < 3:
        raise ValueError("need at least 3 realizations for jackknife standard errors")
    lo, hi = _box(box_bounds)
    times = np.atleast_1d(_checked(times, "times", 0.0))

    def box_counts(real: Realization):
        return [_inside(propagate(real.positions, real.velocities, c.g, t), lo, hi)
                for t in times]

    counts = _realization_rows(c, box_counts, times.size, times, lo[:, None], hi[:, None],
                               n_realizations, seed, threads)
    return _box_report(counts, times)


def _ensemble_and_box(c: CloudParams, b: BeamParams, times, box_bounds, n_realizations: int,
                      seed: int, threads: int = 1) -> tuple[EnsembleStats, BinaryCountReport]:
    """ensemble_stats and a binary_count_check report of the same
    realizations, from one draw.

    The stats equal ensemble_stats(c, b, times, n_realizations, seed,
    threads) bit for bit.  The box is counted from the atoms of that
    beam-window draw, so it must lie inside the window at every grid time
    (ValueError otherwise): an atom in the box at t_i is then inside the
    window at t_i, hence drawn, and the count is exact.
    """
    if n_realizations < 3:
        raise ValueError("need at least 3 realizations for jackknife standard errors")
    lo, hi = _box(box_bounds)
    times = np.atleast_1d(_checked(times, "times", 0.0))
    window = _beam_window(c, b, times)
    if np.any(lo[:, None] < -window) or np.any(hi[:, None] > window):
        raise ValueError("the box must lie inside the beam window at every grid time")
    m = times.size
    fall = 0.5 * c.g * times**2

    def both_counts(real: Realization) -> np.ndarray:
        # effective_count's sums and the box counts from one propagation to
        # all m times: the propagate formula in a (time, coordinate, atom)
        # array, each time and coordinate contiguous, so each time's weight
        # sum adds the same numbers in the same order as effective_count
        pos = real.velocities.T * times[:, None, None]
        pos += real.positions.T
        pos[:, 2] -= fall[:, None]
        pos = pos.transpose(0, 2, 1)
        return np.concatenate([weight(b, pos).sum(axis=1), _inside(pos, lo, hi)])

    values = _realization_rows(c, both_counts, 2 * m, times, -window, window,
                               n_realizations, seed, threads)
    weighted, boxed = (np.ascontiguousarray(half) for half in np.hsplit(values, 2))
    return _ensemble_from_values(weighted, times, seed), _box_report(boxed, times)
