"""Independent Monte Carlo ground truth for the weighted-count statistics.

Every closed form in the package can be checked against this sampler: draw
a Poisson-distributed number of atoms from the initial Gaussian phase
space, fly them ballistically, sum the beam weights, and estimate
mean/variance/covariance across many independent realizations.  Only the
atoms that can reach the beam or a count's box are drawn: a Poisson cloud
restricted to a region is the same Poisson process there (Kingman,
*Poisson Processes*, 1993).  An atom is kept when, at some grid time, it
is inside that time's window box, and is weighed only at the grid times
whose box holds it (see BEAM_CUT).  Where those boxes hold less than the
cloud, the coordinates whose windows are all finite are drawn from the
product of their bands in the (position, velocity) planes (see _band_draw).
A draw also returns its window test: the atoms it holds at each grid time
are the Poisson counts of binary_count_check and of ensemble_stats (see
_held).

Reproducibility contract: an ensemble is drawn in blocks of consecutive
clouds, block k in one array pass from the generator seeded by a splitmix64
mix of the master seed and k.  A realization of more than _PART_ATOMS mean
atoms (its proposals for a band draw) is the fewest sub-clouds of equal
mean within that budget, and a block holds as many clouds as fit in it, at
least one.  A band draw takes, in order: one Poisson count per cloud and
grid time; for each band coordinate in x, y, z order, the uniform pairs of
its rejection rounds, then one normal per proposal along its band; one
uniform per proposal for the thinning.  A full draw takes one Poisson count
per cloud instead.  Then each remaining windowed coordinate, and last the
coordinates without a window, each group in x, y, z order, take the
positions and then the velocities of the atoms still kept.  Each step runs
over the block's proposals or atoms in cloud order; sample_cloud is a block
of one cloud.  A realization's counts add its atoms one by one within a
block, then block by block, so they are bit-identical for any number of
threads the blocks are spread over.
"""

from __future__ import annotations

import contextlib
import math
import os
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
    "ensemble_stats",
    "binary_count_check",
    "dropped_weight_bound",
    "window_draw",
]

_MASK64 = (1 << 64) - 1

# Beam window of ensemble_stats.  An atom is weighed at a grid time t_i
# only if its y and its z both lie within BEAM_CUT * W_i of the beam axis
# at t_i, and drawn only if that holds at one grid time, where W_i =
# w(AXIAL_CUT * sigma_x(t_i)) bounds the beam radius w(x) over |x| <=
# AXIAL_CUT * sigma_x(t_i).  A weight left out at t_i in that range is at
# most exp(-2 BEAM_CUT^2), and an atom leaves it with probability
# erfc(AXIAL_CUT/sqrt(2)), so the expected weight dropped per realization,
# summed over m grid times, is at most
#     n_total * m * (exp(-2 BEAM_CUT^2) + erfc(AXIAL_CUT/sqrt(2))),
# about 1e-15 atoms for 1e6 atoms on 5 times (configs/default.json).
BEAM_CUT = 5.0
AXIAL_CUT = 10.0
# Largest mean atom number drawn in one block: 128 KiB per coordinate array.
_PART_ATOMS = 1 << 14


def _integral(value) -> bool:
    """Whether value is an integer, numpy's too, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def substream_seed(master_seed: int, index: int) -> int:
    """Derive a block's seed: splitmix64 of master seed and block index.

    The mix decorrelates consecutive indices completely, so blocks can be
    drawn in any order (or in parallel) with identical results.  A numpy
    integer gives the Python int's bits; a ValueError names any other type.
    """
    for name, value in (("master_seed", master_seed), ("index", index)):
        if not _integral(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    z = (int(master_seed) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Realization:
    """Sampled atoms, one cloud or a block's clouds: positions and velocities at release.

    ``count`` is the number of atoms drawn, which sample_cloud limits to
    those inside the window box of some time.  It stores both (count, 3)
    arrays column-major, so each coordinate ``[:, d]``, which propagation,
    weight and box test read, is contiguous.
    """

    positions: np.ndarray
    velocities: np.ndarray
    count: int


@dataclass(frozen=True)
class EnsembleStats:
    """Sample statistics of the weighted count over many realizations.

    ``counts`` holds the raw (realization, time) weighted counts N(t), for
    statistics beyond these (ratio estimators, bootstrap, ...).
    ``covariance`` is the (time, time) sample covariance matrix; its
    diagonal is ``variance`` by construction.  ``se_mean`` is s/sqrt(n).
    ``se_covariance`` follows from Campbell's theorem with the draws' own
    atoms (see _ensemble_from_values), and its diagonal is ``se_variance``.
    ``poisson`` is the Poisson check of the same realizations: at each grid
    time t_i it counts the atoms weighed then, those inside the beam
    window's box |y|, |z| <= half_width_m[i] (see window_draw), x unbounded.
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
    counts: np.ndarray
    poisson: BinaryCountReport


@dataclass(frozen=True)
class BinaryCountReport:
    """Poisson check of the atoms a draw's window box holds at each time.

    That count must stay Poissonian, so its variance/mean ratio is 1 up to
    sampling error (``ratio_se``, see _box_report).  ``consistent`` flags
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
    coordinates in x, y, z order, and the _bands of those among them whose
    bounds are all finite, or None for the full draw."""
    if not c.n_total > 0:
        raise ValueError("sampling requires a positive mean atom number")
    times = np.atleast_1d(_checked(times, "times", 0.0))
    lo, hi = (np.broadcast_to(np.asarray(side, dtype=float), (3, times.size)) for side in (lo, hi))
    windowed = ((lo > -np.inf) | (hi < np.inf)).all(axis=1) & (times.size > 0)
    order = np.flatnonzero(windowed).tolist()
    banded = [d for d in order if np.isfinite(lo[d]).all() and np.isfinite(hi[d]).all()]
    return times, lo, hi, order, _bands(c, times, lo, hi, banded) if banded else None


def _bands(c: CloudParams, times: np.ndarray, lo: np.ndarray, hi: np.ndarray, coords: list):
    """The windows lo_i <= x0 + v t_i - f_i <= hi_i of the coordinates
    coords as bands a_i <= (x0 + v t_i)/s_i <= b_i of each coordinate's
    whitened (x0/sigma_r, v/sigma_v) plane, with s_i^2 = sigma_r^2 +
    sigma_v^2 t_i^2 and f_i the fall g t_i^2/2 on z.  Returns (coords, joint,
    a, b, nearest^2, e_r, e_v): the joint mass M_i = prod_d m_i^d of the
    window box at t_i, the (coordinate, time) bounds of the bands and the
    squares of their points nearest 0, and the unit normal e_i = (sigma_r,
    sigma_v t_i)/s_i that every coordinate shares.

    None, for the full draw, unless sum_i M_i < 1 (fewer proposals than the
    cloud holds) and the expected uniform pairs of the rejection rounds per
    cloud atom, sum_i sum_d env_i^d prod_{e != d} m_i^e, stay below 2, with
    env_i^d = (b - a) phi(nearest) the area of band (d, i)'s uniform
    envelope: a band far off centre would make them unbounded.
    """
    s = np.sqrt(_spread_sq(c, times))
    fall = np.where(np.equal(coords, 2)[:, None], 0.5 * c.g * times**2, 0.0)
    a, b = (lo[coords] + fall) / s, (hi[coords] + fall) / s
    root2 = math.sqrt(2.0)
    mass = np.maximum(0.0, [[0.5 * (math.erf(upper / root2) - math.erf(lower / root2))
                             for lower, upper in zip(*rows)]
                            for rows in zip(a.tolist(), b.tolist())])
    nearest_sq = np.clip(0.0, a, b) ** 2
    envelope = np.maximum(b - a, 0.0) * np.exp(-0.5 * nearest_sq) / math.sqrt(2.0 * math.pi)
    joint = mass.prod(axis=0)
    pairs = sum(np.sum(envelope[j] * np.delete(mass, j, axis=0).prod(axis=0))
                for j in range(len(coords)))
    if not (joint.sum() < 1.0 and pairs < 2.0):
        return None
    return coords, joint, a, b, nearest_sq, c.sigma_r / s, c.sigma_v * times / s


def _window_hits(c: CloudParams, pair: np.ndarray, times: np.ndarray, lo, hi,
                 falls: bool) -> np.ndarray:
    """(time, atom) mask: whether the coordinate of each (position,
    velocity) column of pair lies in its window [lo_i, hi_i] at t_i."""
    # the propagate formula, so a box edge cuts as the count does
    pos = pair[1] * times[:, None]
    pos += pair[0]
    if falls:
        pos -= (0.5 * c.g * times**2)[:, None]
    return (pos >= lo[:, None]) & (pos <= hi[:, None])


def _truncated_normal(rng: np.random.Generator, lower: np.ndarray, width: np.ndarray,
                      top: np.ndarray) -> np.ndarray:
    """Standard normals truncated to [lower, lower + width] by uniform
    rejection (Devroye 1986): rounds of uniform pairs for those pending, x
    accepted with probability exp(-(x^2 - top)/2), top the interval's
    smallest x^2."""
    u = rng.random((2, lower.size))
    out = lower + width * u[0]  # the first round over all, without gathers
    pending = np.flatnonzero(u[1] >= np.exp(0.5 * (top - out * out)))
    while pending.size:
        u = rng.random((2, pending.size))
        x = lower[pending] + width[pending] * u[0]
        accepted = u[1] < np.exp(0.5 * (top[pending] - x * x))
        out[pending[accepted]] = x[accepted]
        pending = pending[~accepted]
    return out


def _band_draw(c: CloudParams, rng: np.random.Generator, times: np.ndarray, lo: np.ndarray,
               hi: np.ndarray, bands: tuple, n: int) -> tuple[dict, np.ndarray, np.ndarray]:
    """The (position, velocity) pairs, shape (2, kept), of the band
    coordinates of the atoms of n clouds inside the union over t_i of the
    window boxes, keyed by coordinate, their (time, kept) mask of being
    inside each box, and the cloud of each atom.

    Each cloud gets a Poisson(n_total M_i) count of proposals at time i.
    In each band coordinate in turn, across band i a proposal is a standard
    normal truncated to [a_i, b_i], along it a free normal.  A proposal in
    k boxes is kept with probability 1/k, so the kept atoms are the cloud
    restricted to the union (Karp, Luby & Madras 1989): a thinned Poisson
    process is Poisson.
    """
    coords, joint, a, b, nearest_sq, e_r, e_v = bands
    proposals = rng.poisson(c.n_total * joint, (n, times.size))
    owner = np.repeat(np.arange(n), proposals.sum(axis=1))
    count = owner.size

    def proposed(rows: np.ndarray) -> np.ndarray:  # (..., time) -> (..., proposal)
        return np.repeat(np.tile(rows, n), proposals.ravel(), axis=-1)

    e_r, e_v = proposed(np.stack([e_r, e_v]))
    drawn, inside = {}, np.ones((1, count), dtype=bool)
    for j, d in enumerate(coords):
        across = _truncated_normal(rng, *proposed(np.stack([a[j], b[j] - a[j], nearest_sq[j]])))
        along = rng.standard_normal(count)
        drawn[d] = np.stack([c.sigma_r * (across * e_r - along * e_v),
                             c.sigma_v * (across * e_v + along * e_r)])
        inside = inside & _window_hits(c, drawn[d], times, lo[d], hi[d], d == 2)
    hits = np.count_nonzero(inside, axis=0)
    # hits is 0 only where rounding moved a proposal off its band's edge
    kept = np.flatnonzero((hits > 0) & (rng.random(count) * hits < 1.0))
    return ({d: pair.take(kept, axis=1) for d, pair in drawn.items()}, inside.take(kept, axis=1),
            owner.take(kept))


def _draw(c: CloudParams, rng: np.random.Generator, plan: tuple,
          n: int = 1) -> tuple[Realization, np.ndarray, np.ndarray]:
    """n independent clouds c for a _draw_plan, from one generator in one
    array pass: all their atoms as one Realization, its (time, atom) mask of
    being inside each time's window box, by the propagate formula (one row
    of True when no coordinate is windowed), and each atom's cloud 0..n-1,
    in nondecreasing order."""
    times, lo, hi, order, bands = plan
    if bands is None:
        owner = np.repeat(np.arange(n), rng.poisson(c.n_total, n))
        drawn, inside = {}, np.ones((1, owner.size), dtype=bool)
    else:
        drawn, inside, owner = _band_draw(c, rng, times, lo, hi, bands, n)
    for d in (d for d in order if d not in drawn):
        drawn[d] = pair = rng.standard_normal((2, inside.shape[1]))
        pair[0] *= c.sigma_r
        pair[1] *= c.sigma_v
        inside = inside & _window_hits(c, pair, times, lo[d], hi[d], d == 2)
        kept = np.flatnonzero(inside.any(axis=0))
        drawn = {e: block.take(kept, axis=1) for e, block in drawn.items()}
        inside, owner = inside.take(kept, axis=1), owner.take(kept)
    count = inside.shape[1]
    positions, velocities = (np.empty((count, 3), order="F") for _ in range(2))
    for d in range(3):
        if d in drawn:
            positions[:, d], velocities[:, d] = drawn[d]
        else:  # the coordinates without a window, drawn last and in full
            for column, sigma in ((positions[:, d], c.sigma_r), (velocities[:, d], c.sigma_v)):
                rng.standard_normal(out=column)
                column *= sigma
    return Realization(positions=positions, velocities=velocities, count=count), inside, owner


def sample_cloud(c: CloudParams, seed: int, times=(), lo=-np.inf, hi=np.inf) -> Realization:
    """Draw one cloud realization, deterministic for a given seed.

    The atom count is Poisson with mean n_total; positions and velocities
    are i.i.d. isotropic Gaussians (sigma_r, sigma_v).  ``lo`` and ``hi``
    broadcast to (3, len(times)): the window of each coordinate at each
    time.  An atom is kept only if, at some time t_i, every coordinate,
    propagated with the fall along z, lies in its window at t_i; a
    coordinate that has the whole line as its window at some time counts
    as one without a window.  With no times this is the whole cloud.  How
    the kept atoms are drawn, and in what order, is the module's
    reproducibility contract (see also _bands and _band_draw).
    """
    return _draw(c, np.random.default_rng(seed), _draw_plan(c, times, lo, hi))[0]


def propagate(r0, v0, g: float, t: float):
    """Ballistic position r0 + v0*t with the gravity drop -g*t^2/2 along z.

    Accepts single 3-vectors or arrays of shape (..., 3); the result keeps
    the memory layout of the inputs.
    """
    t = float(_checked(t, "t", 0.0))
    r0 = np.asarray(r0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    out = r0 + v0 * t
    out[..., 2] -= 0.5 * g * t**2
    return out


def _per_time(real: Realization, inside: np.ndarray, times: np.ndarray, g: float):
    """Yield for each grid time t_i the atoms idx that a draw's (time, atom)
    window mask inside holds at t_i (one all-True row: all, at every time)
    and their (atom, 3) positions then, by the propagate formula.  Only they
    are weighed at t_i; the rest weigh within dropped_weight_bound there."""
    for t, held in zip(times.tolist(), np.broadcast_to(inside, (times.size, real.count))):
        idx = np.flatnonzero(held)
        pos = np.empty((idx.size, 3), order="F")
        for d, column in enumerate(pos.T):
            np.multiply(real.velocities[:, d].take(idx), t, out=column)
            column += real.positions[:, d].take(idx)
        pos[:, 2] -= 0.5 * g * t**2
        yield idx, pos


def _sub_clouds(c: CloudParams, plan: tuple) -> tuple[int, float]:
    """How many sub-clouds a realization of c is for a _draw_plan, and the
    mean atoms of each: its mean atoms, the proposals n_total sum_i M_i of a
    band draw or n_total, split into the fewest parts of at most _PART_ATOMS."""
    bands = plan[-1]
    atoms = c.n_total * (1.0 if bands is None else float(bands[1].sum()))
    parts = max(1, math.ceil(atoms / _PART_ATOMS))
    return parts, atoms / parts


def _realization_rows(c: CloudParams, row, width: int, times: np.ndarray, lo, hi,
                      n_realizations: int, seed: int, threads: int) -> np.ndarray:
    """(realization, width) array of width numbers that add over a
    realization's atoms: the _weighed rows, the m box counts of
    binary_count_check.
    row(*_draw(n clouds), n) returns their (n, width) sums, by bincount.

    Realization i is the sub-clouds i p, ..., i p + p - 1 (see _sub_clouds)
    in the windows lo, hi at the given times.  Block k draws the sub-clouds
    k s, ..., k s + s - 1 (fewer in the last block) from the generator
    seeded by substream_seed(seed, k): whole realizations if p = 1, else
    one sub-cloud, as a sub-cloud's mean is then above _PART_ATOMS/2.  Block
    rows add into the realizations in block order, so scheduling cannot
    change the result.  One thread runs on the calling thread; more map the
    blocks over a thread pool of at most one worker per CPU.
    """
    threads = min(threads, os.cpu_count() or 1)
    plan = _draw_plan(c, times, lo, hi)  # independent of n_total but for its check
    parts, mean = _sub_clouds(c, plan)
    part = replace(c, n_total=c.n_total / parts)
    units = n_realizations * parts
    # as many sub-clouds as fit in _PART_ATOMS mean atoms, at least one
    size = max(1, units if mean * units <= _PART_ATOMS else int(_PART_ATOMS // mean))
    firsts = range(0, units, size)

    def block(first: int) -> np.ndarray:
        n, rng = min(size, units - first), np.random.default_rng(substream_seed(seed, first // size))
        return row(*_draw(part, rng, plan, n), n)

    out = np.zeros((n_realizations, width))
    if threads > 1:  # imported here: concurrent.futures loads logging, queue and threading
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) if threads > 1 else contextlib.nullcontext() as pool:
        for first, sums in zip(firsts, (pool.map if pool else map)(block, firsts)):
            out[first // parts:first // parts + len(sums)] += sums
    return out


def _campbell_rows(w: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """(n, m^2): per cloud the m x m sums over its atoms of w_j^2 w_k^2 of
    the (time, atom) weights w, which it overwrites, row-major (see
    _ensemble_from_values)."""
    m = w.shape[0]
    sq = np.square(w, out=w)
    # kappa enters only the standard errors, so its sums over each cloud's
    # run of atoms may take reduceat's faster order
    held = np.bincount(owner, minlength=n) > 0
    starts = np.searchsorted(owner, np.flatnonzero(held))
    kappa = np.zeros((n, m, m))
    for j in range(m):
        for k in range(j, m):
            kappa[held, j, k] = kappa[held, k, j] = np.add.reduceat(sq[j] * sq[k], starts)
    return kappa.reshape(n, m * m)


def _ensemble_from_values(rows: np.ndarray, times: np.ndarray, seed: int) -> EnsembleStats:
    """EnsembleStats of n _weighed rows.  For counts N_j = sum_atoms w_j
    over a Poisson cloud, the sample covariance has variance kappa_jk/n +
    (var_j var_k + cov_jk^2)/(n - 1), and by Campbell's theorem (Kingman,
    *Poisson Processes*, 1993) the rows' mean m x m sum estimates kappa_jk =
    E[sum_atoms w_j^2 w_k^2].  The last m columns give the Poisson check."""
    n, m = rows.shape[0], times.size
    values = np.ascontiguousarray(rows[:, :m])
    kappa = rows[:, m:m * (m + 1)].mean(axis=0).reshape(m, m)
    mean = values.mean(axis=0)
    centered = values - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)  # enforce exact symmetry of the BLAS product
    var = np.diag(cov).copy()
    se_cov = np.sqrt(kappa / n + (np.outer(var, var) + cov**2) / (n - 1))
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
        counts=values,
        poisson=_box_report(rows[:, m * (m + 1):], times),
    )


def _ensemble_args(times, n_realizations: int, seed: int) -> tuple[np.ndarray, int, int]:
    """The checked times, n_realizations and seed of an ensemble: integers,
    numpy's too but not bools, with at least 3 realizations (for standard
    errors).  A ValueError names any other argument."""
    if not (_integral(n_realizations) and n_realizations >= 3):
        raise ValueError(f"n_realizations must be an integer of at least 3, got {n_realizations!r}")
    if not _integral(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return np.atleast_1d(_checked(times, "times", 0.0)), int(n_realizations), int(seed)


def dropped_weight_bound(c: CloudParams, n_times: int) -> dict:
    """BEAM_CUT, AXIAL_CUT and their bound on the expected weight per
    realization, summed over n_times grid times, that the beam window of
    ensemble_stats leaves out."""
    tails = math.exp(-2.0 * BEAM_CUT**2) + math.erfc(AXIAL_CUT / math.sqrt(2.0))
    return {"beam_cut": BEAM_CUT, "axial_cut": AXIAL_CUT,
            "dropped_weight_bound": c.n_total * n_times * tails}


def window_draw(c: CloudParams, b: BeamParams, times: np.ndarray) -> dict:
    """How ensemble_stats draws a realization of c on the grid times: its
    beam window (see dropped_weight_bound), whose y and z half-width per
    time bounds the atoms drawn, weighed and Poisson-counted then, its
    sub-clouds, each from the product of the window's bands ("bands") or
    the whole cloud ("full"), and the share proposed, sum_i M_i or 1."""
    hi = _beam_window(c, b, times)
    plan = _draw_plan(c, times, -hi, hi)
    bands = plan[-1]
    return {"beam_window": {**dropped_weight_bound(c, times.size), "half_width_m": hi[1].tolist()},
            "sub_clouds": _sub_clouds(c, plan)[0],
            "draw": "full" if bands is None else "bands",
            "proposed_share": 1.0 if bands is None else float(bands[1].sum())}


def _beam_window(c: CloudParams, b: BeamParams, times: np.ndarray) -> np.ndarray:
    """Upper window bounds (3, times) of ensemble_stats; the lower ones are
    their negatives.  x is not windowed."""
    half = BEAM_CUT * beam_size(b, AXIAL_CUT * np.sqrt(_spread_sq(c, times)))
    return np.stack([np.full(times.size, np.inf), half, half])


def ensemble_stats(
    c: CloudParams,
    b: BeamParams,
    times,
    n_realizations: int,
    seed: int,
    threads: int = 1,
) -> EnsembleStats:
    """Estimate mean/variance/covariance of N(t) over independent clouds.

    Unbiased sample statistics of the raw weighted counts ``counts``, with
    standard errors from Campbell's theorem (see _ensemble_from_values), and
    the Poisson check ``poisson`` of the same draw (see EnsembleStats).  An
    atom is weighed at the grid times where it is inside the beam window,
    and drawn only if there is one (see BEAM_CUT and dropped_weight_bound).
    Identical results for any ``threads`` value.
    """
    times, n_realizations, seed = _ensemble_args(times, n_realizations, seed)
    return _ensemble_from_values(_weighed(c, b, times, n_realizations, seed, threads), times, seed)


def _weighed(c: CloudParams, b: BeamParams, times: np.ndarray, n_realizations: int, seed: int,
             threads: int) -> np.ndarray:
    """(realization, m + m^2 + m) rows on the m checked grid times: each
    realization's weighted counts, its m x m Campbell sums (see
    _campbell_rows), then its atoms weighed at each time, those its window
    box holds (see _held), for ensemble_stats (see _realization_rows)."""
    hi = _beam_window(c, b, times)

    def row(real, inside, owner, n):
        w = np.zeros((times.size, real.count))  # 0 outside each time's window box
        counts, held = [], []
        for i, (idx, pos) in enumerate(_per_time(real, inside, times, c.g)):
            w[i, idx] = weights = weight(b, pos)
            counts.append(np.bincount(at := owner.take(idx), weights, n))
            held.append(_held(at, n))
        return np.column_stack([*counts, _campbell_rows(w, owner, n), *held])

    width = times.size * (times.size + 2)
    return _realization_rows(c, row, width, times, -hi, hi, n_realizations, seed, threads)


def _box(box_bounds) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper 3-vectors of a box ((xlo, ylo, zlo), (xhi, yhi, zhi))."""
    lo, hi = (np.asarray(side, dtype=float) for side in box_bounds)
    if lo.shape != (3,) or hi.shape != (3,):
        raise ValueError("box_bounds must be a pair of 3-vectors")
    # a NaN bound fails the comparison; infinite bounds pass it
    if not np.all(lo < hi):
        raise ValueError("box lower bounds must be below upper bounds")
    return lo, hi


def _held(at: np.ndarray, n: int) -> np.ndarray:
    """Poisson count at one grid time: the atoms of each cloud 0..n-1 that a
    draw's window mask holds then, from at, the cloud of each of them."""
    return np.bincount(at, minlength=n)


def _box_report(counts: np.ndarray, times: np.ndarray) -> BinaryCountReport:
    """Variance/mean ratio r of the n (realization, time) box counts, with
    the delta method's standard error.  Every cumulant of a 0/1 weight's
    count is its mean (Campbell's theorem), so n Var(r) = (1 - 2r + r^3)/mean
    + 2n r^2/(n - 1), positive since integer counts have r >= 1 - mean."""
    n = counts.shape[0]
    mean = counts.mean(axis=0)
    centered = counts - mean
    var = np.sum(centered**2, axis=0) / (n - 1)
    # 0/0 (NaN) for an empty box
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = var / mean
        ratio_se = np.sqrt(((1.0 - 2.0 * ratio + ratio**3) / mean
                            + 2.0 * n * ratio**2 / (n - 1)) / n)
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
    variance/mean ratio with its standard error (see _box_report); a
    healthy sampler gives 1 within noise at every time, independently of
    any beam-weight physics.  The box is the draw's window: only atoms
    inside it at some grid time are drawn, and its counts are the draw's
    window mask.
    """
    times, n_realizations, seed = _ensemble_args(times, n_realizations, seed)
    lo, hi = _box(box_bounds)
    counts = _realization_rows(
        c, lambda _, inside, owner, n: np.broadcast_to(  # one row without a window
            np.column_stack([_held(owner[row], n) for row in inside]), (n, times.size)),
        times.size, times, lo[:, None], hi[:, None], n_realizations, seed, threads)
    return _box_report(counts, times)

