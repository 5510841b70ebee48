"""Independent Monte Carlo ground truth for the weighted-count statistics.

Every closed form in the package can be checked against this sampler: draw
a Poisson-distributed number of atoms from the initial Gaussian phase
space, fly them ballistically, sum the beam weights, and estimate
mean/variance/covariance across many independent realizations.

Reproducibility contract: each realization uses its own generator seeded by
a splitmix64 mix of the master seed and the realization index, and all
statistics are reductions over a fully materialized (realization, time)
array.  Results are therefore bit-identical no matter how many threads the
realizations are spread over.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .beam import BeamParams, weight
from .cloud import CloudParams

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
]

_MASK64 = (1 << 64) - 1


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

    sample_cloud stores both (count, 3) arrays column-major, so each
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


def sample_cloud(c: CloudParams, seed: int) -> Realization:
    """Draw one cloud realization, deterministic for a given seed.

    The atom count is Poisson with mean n_total; positions and velocities
    are i.i.d. isotropic Gaussians (sigma_r, sigma_v).  Draw order is
    fixed: count, then positions, then velocities, each a row-major
    (count, 3) block of draws stored column-major (see Realization).
    """
    if not c.n_total > 0:
        raise ValueError("sampling requires a positive mean atom number")
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.poisson(c.n_total))
    positions, velocities = (np.empty((count, 3), order="F") for _ in range(2))
    np.multiply(c.sigma_r, rng.standard_normal((count, 3)), out=positions)
    np.multiply(c.sigma_v, rng.standard_normal((count, 3)), out=velocities)
    return Realization(positions=positions, velocities=velocities, count=count)


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


def _realization_rows(c: CloudParams, row, times: np.ndarray, n_realizations: int,
                      seed: int, threads: int) -> np.ndarray:
    """(realization, time) array whose row i is row(realization i).

    Realization i is drawn from substream_seed(seed, i), so scheduling
    order cannot change the result.  One thread runs on the calling thread;
    more split the realizations into contiguous chunks over a thread pool
    of at most one worker per CPU.
    """
    threads = min(threads, os.cpu_count() or 1)
    out = np.empty((n_realizations, times.size))

    def fill(indices) -> None:
        for i in indices:
            out[i] = row(sample_cloud(c, substream_seed(seed, i)))

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


def weighted_counts(
    c: CloudParams,
    b: BeamParams,
    times,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Raw weighted counts N(t), shape (n_realizations, n_times).

    Row i comes from the substream seed of realization i, so the array is
    identical for any thread count.  Useful for statistics beyond what
    ensemble_stats reports (ratio estimators, bootstrap, ...).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    return _realization_rows(
        c, lambda real: [effective_count(b, real, c.g, t) for t in times],
        times, n_realizations, seed, threads,
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
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations for variance estimates")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    values = weighted_counts(c, b, times, n_realizations, seed, threads)
    return _ensemble_from_values(values, times, seed)


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
    physics.
    """
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations for variance estimates")
    lo, hi = (np.asarray(side, dtype=float) for side in box_bounds)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("box_bounds must be a pair of 3-vectors")
    # a NaN bound fails the comparison; infinite bounds pass it
    if not np.all(lo < hi):
        raise ValueError("box lower bounds must be below upper bounds")
    times = np.atleast_1d(np.asarray(times, dtype=float))

    def inside(pos: np.ndarray) -> int:
        # column by column: no (count, 3) boolean temporaries
        mask = np.ones(pos.shape[0], dtype=bool)
        for d in range(3):
            mask &= pos[:, d] >= lo[d]
            mask &= pos[:, d] <= hi[d]
        return np.count_nonzero(mask)

    def box_counts(real: Realization):
        return [inside(propagate(real.positions, real.velocities, c.g, t)) for t in times]

    counts = _realization_rows(c, box_counts, times, n_realizations, seed, threads)
    n = n_realizations
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

    consistent = np.abs(ratio - 1.0) <= 3.0 * ratio_se
    return BinaryCountReport(
        times=times,
        mean=mean,
        variance=var,
        ratio=ratio,
        ratio_se=ratio_se,
        consistent=consistent,
    )
