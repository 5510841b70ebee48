import concurrent.futures
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from coldcloud import mc_oracle
from coldcloud import (
    BeamParams,
    CloudParams,
    EffNumInputs,
    binary_count_check,
    covariance_exact,
    ensemble_stats,
    mean_number,
    propagate,
    sample_cloud,
    substream_seed,
    time_scales,
    variance,
    weight,
)
from coldcloud.cli import load_config

# small desk ensemble: collimated narrow probe where the closed forms hold
CLOUD = CloudParams(n_total=1e3, sigma_r=1e-3, sigma_v=0.1, g=9.81)
BEAM = BeamParams(w0=10e-6, wavelength=1e-9)
INPUTS = EffNumInputs(CLOUD, BEAM)
# a beam wide enough that weights both underflow and survive
BEAM_40 = BeamParams(w0=40e-6, wavelength=1e-9)


def _banded(c, times, lo, hi):
    """Whether sample_cloud draws the band coordinates from the product of
    their bands."""
    return mc_oracle._draw_plan(c, times, lo, hi)[-1] is not None


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(123, 7) == substream_seed(123, 7)

    def test_64_bit_range_and_distinct(self):
        seeds = {substream_seed(99, i) for i in range(2000)}
        assert len(seeds) == 2000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_master_seed_matters(self):
        assert substream_seed(1, 0) != substream_seed(2, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2**63 - 1, 2**64 - 1])
    def test_numpy_integers_give_the_python_ints_bits(self, seed):
        expected = substream_seed(seed, 3)
        assert 0 <= expected < 2**64
        kinds = [np.uint64] + ([np.int64] if seed < 2**63 else [])
        for kind in kinds:
            assert substream_seed(kind(seed), 3) == expected
            assert substream_seed(seed, kind(3)) == expected
            assert type(substream_seed(kind(seed), kind(3))) is int

    @pytest.mark.parametrize("bad", [1.5, "1", True])
    def test_rejects_non_integers_by_name(self, bad):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            substream_seed(bad, 0)
        with pytest.raises(ValueError, match="index must be an integer"):
            substream_seed(1, bad)


class TestSampleCloud:
    def test_same_seed_identical(self):
        a = sample_cloud(CLOUD, 4242)
        b = sample_cloud(CLOUD, 4242)
        assert a.count == b.count
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)

    def test_count_is_poisson_distributed(self):
        counts = np.array([sample_cloud(CLOUD, substream_seed(5, i)).count for i in range(400)])
        # Poisson(1e3): mean and variance both 1e3
        se_mean = math.sqrt(CLOUD.n_total / counts.size)
        assert abs(counts.mean() - CLOUD.n_total) <= 3.0 * se_mean
        assert abs(counts.var(ddof=1) / CLOUD.n_total - 1.0) <= 4.0 * math.sqrt(2.0 / counts.size)

    def test_position_and_velocity_spreads(self):
        pos = np.concatenate(
            [sample_cloud(CLOUD, substream_seed(6, i)).positions for i in range(300)]
        )
        vel = np.concatenate(
            [sample_cloud(CLOUD, substream_seed(6, i)).velocities for i in range(300)]
        )
        n_axis = pos.size
        tol = 4.0 * math.sqrt(2.0 / n_axis)
        assert abs(pos.var(ddof=1) / CLOUD.sigma_r**2 - 1.0) < tol
        assert abs(vel.var(ddof=1) / CLOUD.sigma_v**2 - 1.0) < tol

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError):
            sample_cloud(CloudParams(0.0, 1e-3, 0.1), 1)

    def test_draws_are_scaled_normals_in_column_major_layout(self):
        # no windows: the count, then a (2, count) block of positions and
        # velocities for each of x, y, z
        real = sample_cloud(CLOUD, 2024)
        rng = np.random.Generator(np.random.PCG64(2024))
        count = int(rng.poisson(CLOUD.n_total))
        assert real.count == count
        for d in range(3):
            draws = rng.standard_normal((2, count))
            np.testing.assert_array_equal(real.positions[:, d], CLOUD.sigma_r * draws[0])
            np.testing.assert_array_equal(real.velocities[:, d], CLOUD.sigma_v * draws[1])
        moved = propagate(real.positions, real.velocities, CLOUD.g, 0.01)
        for array in (real.positions, real.velocities, moved):
            assert all(array[:, d].flags.c_contiguous for d in range(3))

    @pytest.mark.parametrize("lo,hi,banded", [
        # a band around the fallen centre in z only: z is drawn first, from
        # its bands
        pytest.param([[-np.inf], [-np.inf], [-9e-4]], [[np.inf], [np.inf], [-6e-4]], True,
                     id="lo0-hi0"),
        # a half-line in x and a band in y; z has the whole line at t = 0.
        # y is drawn first, from its bands, then x in full
        pytest.param([[2e-4] * 3, [-3e-4] * 3, [-np.inf, -1e-3, -1e-3]],
                     [[np.inf] * 3, [3e-4] * 3, [np.inf, 1e-3, 1e-3]], True, id="lo1-hi1"),
        # the same with |y| <= 0.6 sigma_r: the y bands hold 1.18 times the
        # cloud, so the draw starts from the whole cloud's count
        pytest.param([[2e-4] * 3, [-6e-4] * 3, [-np.inf, -1e-3, -1e-3]],
                     [[np.inf] * 3, [6e-4] * 3, [np.inf, 1e-3, 1e-3]], False, id="full"),
        # a box in all three coordinates, drawn from the product of its bands
        pytest.param([[-1e-3], [-5e-4], [-2e-3]], [[8e-4], [1e-3], [4e-4]], True, id="box"),
    ])
    def test_windowed_draw_matches_hand_loop(self, lo, hi, banded):
        times = np.array([0.0, 0.004, 0.011])
        lo3, hi3 = np.broadcast_to(lo, (3, 3)), np.broadcast_to(hi, (3, 3))
        _, joint, pairs, _, _ = _naive_bands(CLOUD, times, lo3, hi3, [0, 1, 2])
        assert _banded(CLOUD, times, lo, hi) == banded == (sum(joint) < 1.0 and pairs < 2.0)
        real = sample_cloud(CLOUD, 77, times, lo, hi)
        r0, v0 = _naive_cloud(CLOUD, 77, times, lo3, hi3)
        assert 0 < real.count == len(r0) < CLOUD.n_total / 2
        np.testing.assert_array_equal(real.positions, r0)
        np.testing.assert_array_equal(real.velocities, v0)


class TestPropagate:
    def test_identity_at_zero_time(self):
        r0 = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(propagate(r0, np.array([0.1, 0.2, 0.3]), 9.81, 0.0), r0)

    def test_free_fall_drop(self):
        r = propagate(np.zeros(3), np.zeros(3), 9.81, 0.1)
        assert r[2] == pytest.approx(-0.04905, rel=1e-12)
        assert r[0] == r[1] == 0.0

    def test_straight_line_without_gravity(self):
        r = propagate(np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, -1.0]), 0.0, 0.5)
        np.testing.assert_allclose(r, [1.0, 1.0, -0.5], rtol=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            propagate(np.zeros(3), np.zeros(3), 9.81, -0.1)


class TestEnsembleStats:
    def test_deterministic_and_thread_invariant(self):
        times = [0.0, 0.01]
        a = ensemble_stats(CLOUD, BEAM, times, 150, seed=11)
        b = ensemble_stats(CLOUD, BEAM, times, 150, seed=11)
        c = ensemble_stats(CLOUD, BEAM, times, 150, seed=11, threads=4)
        for x, y in ((a, b), (a, c)):
            np.testing.assert_array_equal(x.mean, y.mean)
            np.testing.assert_array_equal(x.covariance, y.covariance)
            np.testing.assert_array_equal(x.se_covariance, y.se_covariance)

    @pytest.mark.parametrize("cpus,workers", [(3, [3]), (None, [])])
    def test_threads_capped_at_cpu_count(self, monkeypatch, cpus, workers):
        # a serial stand-in for the pool: no real thread is started
        recorded = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # mc_oracle imports the pool from concurrent.futures where it builds one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(mc_oracle.os, "cpu_count", lambda: cpus)
        times = [0.0, 0.01]
        capped = ensemble_stats(CLOUD, BEAM, times, 40, seed=5, threads=100_000).counts
        assert recorded == workers
        np.testing.assert_array_equal(capped, ensemble_stats(CLOUD, BEAM, times, 40, seed=5).counts)

    def test_seed_changes_results(self):
        a = ensemble_stats(CLOUD, BEAM, [0.0], 100, seed=1)
        b = ensemble_stats(CLOUD, BEAM, [0.0], 100, seed=2)
        assert not np.array_equal(a.mean, b.mean)

    def test_matrix_invariants(self):
        stats = ensemble_stats(CLOUD, BEAM, [0.0, 0.005, 0.012], 200, seed=3)
        np.testing.assert_array_equal(stats.covariance, stats.covariance.T)
        np.testing.assert_array_equal(stats.se_covariance, stats.se_covariance.T)
        np.testing.assert_array_equal(np.diag(stats.covariance), stats.variance)
        assert stats.realization_count == 200

    def test_agrees_with_closed_forms(self):
        # denser cloud than the other tests: the covariance estimator needs
        # a reasonable fraction of realizations with atoms in the beam
        cloud = CloudParams(n_total=4e3, sigma_r=1e-3, sigma_v=0.1, g=9.81)
        inp = EffNumInputs(cloud, BEAM)
        times = np.array([0.0, 0.006, 0.012, 0.02])
        stats = ensemble_stats(cloud, BEAM, times, 2500, seed=321)
        mean_z = (stats.mean - mean_number(inp, times)) / stats.se_mean
        var_z = (stats.variance - variance(inp, times)) / stats.se_variance
        assert np.all(np.abs(mean_z) < 3.0)
        assert np.all(np.abs(var_z) < 3.0)
        for j in range(times.size):
            for k in range(j + 1, times.size):
                th = covariance_exact(inp, 0.5 * (times[j] + times[k]), times[j] - times[k])
                z = (stats.covariance[j, k] - th) / stats.se_covariance[j, k]
                assert abs(z) < 3.0

    def test_covariance_se_without_shared_atoms(self):
        # one atom of weight 1 per nonzero count, and none weighted at both
        # times (kappa_01 = 0): the covariance SE is its Gaussian part alone
        values = np.zeros((50, 2))
        values[:5, 0] = 1.0
        values[5:10, 1] = 1.0
        kappa = np.stack([values[:, 0], np.zeros(50), np.zeros(50), values[:, 1]], axis=1)
        stats = mc_oracle._ensemble_from_values(np.hstack([values, kappa]), np.array([0.0, 1.0]), 0)
        gaussian = np.sqrt((stats.variance[0] * stats.variance[1] + stats.covariance[0, 1] ** 2) / 49)
        assert stats.se_covariance[0, 1] == stats.se_covariance[1, 0]
        np.testing.assert_allclose(stats.se_covariance[0, 1], gaussian, rtol=1e-15)
        np.testing.assert_allclose(stats.se_variance, np.sqrt(0.1 / 50 + 2 * stats.variance**2 / 49),
                                   rtol=1e-15)

    def test_two_valued_variance_se_is_positive(self):
        # a two-valued column, two atoms of weight 1 where it reads 2: every
        # leave-one-out variance is the same, so a jackknife SE reads 0.
        # Campbell's identity keeps the atoms' fourth moment, kappa = 1
        values = np.tile([0.0, 2.0], 25)[:, None]
        stats = mc_oracle._ensemble_from_values(np.hstack([values, values]), np.array([0.0]), 0)
        expected = np.sqrt(1.0 / 50 + 2 * stats.variance[0] ** 2 / 49)
        np.testing.assert_allclose(stats.se_variance[0], expected, rtol=1e-15)
        assert expected > 0.2
        assert stats.se_covariance[0, 0] == stats.se_variance[0]

    def test_standard_errors_are_calibrated(self):
        # compound-Poisson counts from an independent generator with exact
        # (co)variances: the z of each has unit spread.  A leave-one-out
        # jackknife raised to the Gaussian part read the covariance z's sd
        # as 1.07-1.08 on these ensembles
        var_1, var_2, cov = oracles.compound_poisson_moments(1.0, 1.0)
        rng = np.random.default_rng(26)
        z = []
        for _ in range(3000):
            rows = oracles.compound_poisson_rows(rng, 1.0, 1.0, 400)
            stats = mc_oracle._ensemble_from_values(rows, np.array([0.0, 1.0]), 0)
            z.append([(stats.covariance[0, 1] - cov) / stats.se_covariance[0, 1],
                      *(stats.variance - [var_1, var_2]) / stats.se_variance])
        spread = np.std(z, axis=0)
        assert np.all((0.95 <= spread) & (spread <= 1.05)), spread

    def test_ratio_se_is_calibrated(self):
        # plain Poisson counts, no sampler: the z of the variance/mean ratio
        # has unit spread from sparse to crowded boxes.  The jackknife read
        # sd 3.3 at mean 0.05
        means = np.array([0.05, 0.3, 1.0, 3.0, 20.0])
        rng = np.random.default_rng(26)
        z = []
        for _ in range(2000):
            report = mc_oracle._box_report(rng.poisson(means, (1000, means.size)), means)
            z.append((report.ratio - 1.0) / report.ratio_se)
        spread = np.std(z, axis=0)
        assert np.all((0.9 <= spread) & (spread <= 1.1)), spread

    def test_variance_to_mean_ratio_half(self):
        # tau_w/tau_r = 0.01 without gravity: the soft weight halves the
        # Poisson variance; jackknife the ratio from raw counts
        cloud = CloudParams(1e3, 1e-3, 0.1, 0.0)
        beam = BeamParams(w0=20e-6, wavelength=1e-9)
        values = ensemble_stats(cloud, beam, [0.0], 4000, seed=99).counts[:, 0]
        n = values.size
        mean = values.mean()
        var = values.var(ddof=1)
        centered = values - mean
        rest = centered.sum() - centered
        loo_var = (np.sum(centered**2) - centered**2 - rest**2 / (n - 1)) / (n - 2)
        loo_mean = mean - centered / (n - 1)
        loo = loo_var / loo_mean
        se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert abs(var / mean - 0.5) <= 3.0 * se

    def test_standard_error_shrinks_like_sqrt_n(self):
        # the counts are heavy-tailed (mean 0.025 atoms), so each standard
        # error needs thousands of realizations to be steady within 15%
        a = ensemble_stats(CLOUD, BEAM, [0.0], 2400, seed=50)
        b = ensemble_stats(CLOUD, BEAM, [0.0], 9600, seed=50)
        ratio = a.se_mean[0] / b.se_mean[0]
        assert 1.7 < ratio < 2.3  # expect 2 for 4x the realizations

    def test_empty_time_grid(self):
        # no grid time gives no columns, in every ensemble function
        stats = ensemble_stats(CLOUD, BEAM, [], 5, seed=0)
        assert stats.counts.shape == (5, 0) and stats.poisson.ratio.shape == (0,)
        assert stats.mean.shape == stats.se_variance.shape == (0,)
        assert stats.covariance.shape == stats.se_covariance.shape == (0, 0)
        report = binary_count_check(CLOUD, ((-1e-3,) * 3, (1e-3,) * 3), [], 5, seed=0)
        assert report.ratio.shape == report.consistent.shape == (0,)

    def test_rejects_tiny_ensembles(self):
        # one check guards every ensemble: at least 3 realizations
        for n in (1, 2):
            with pytest.raises(ValueError, match="at least 3"):
                ensemble_stats(CLOUD, BEAM, [0.0], n, seed=0)
            with pytest.raises(ValueError, match="at least 3"):
                binary_count_check(CLOUD, ((-1e-3,) * 3, (1e-3,) * 3), [0.0], n, seed=0)

    ENTRY_POINTS = {
        "ensemble_stats.counts": lambda n, seed: ensemble_stats(
            CLOUD, BEAM, [0.0], n, seed).counts,
        "ensemble_stats": lambda n, seed: ensemble_stats(CLOUD, BEAM, [0.0], n, seed),
        "binary_count_check": lambda n, seed: binary_count_check(
            CLOUD, ((-1e-3,) * 3, (1e-3,) * 3), [0.0], n, seed),
        "ensemble_stats.poisson": lambda n, seed: ensemble_stats(
            CLOUD, BEAM, [0.0], n, seed).poisson,
    }

    @pytest.mark.parametrize("bad", [-1, 2.5, 3.0, True])
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_realization_count_must_be_an_integer(self, name, bad):
        with pytest.raises(ValueError, match="n_realizations must be an integer"):
            self.ENTRY_POINTS[name](bad, 0)

    @pytest.mark.parametrize("bad", [1.5, True])
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_seed_must_be_an_integer(self, name, bad):
        with pytest.raises(ValueError, match="seed must be an integer"):
            self.ENTRY_POINTS[name](3, bad)

    def test_numpy_integers_count(self):
        # a numpy count and seed give the bits of the Python ints
        np.testing.assert_array_equal(
            ensemble_stats(CLOUD, BEAM, [0.0], np.int64(4), np.int64(9)).counts,
            ensemble_stats(CLOUD, BEAM, [0.0], 4, 9).counts)


def _naive_windowed(times, lo, hi):
    """The windowed coordinates: those without the whole line as their
    window at every time."""
    return [d for d in range(3)
            if all(lo[d, i] > -np.inf or hi[d, i] < np.inf for i in range(len(times)))]


def _naive_bands(c, times, lo, hi, windowed):
    """The band coordinates, the windowed ones whose bounds are all finite,
    in x, y, z order, and per time t_i the window box of the band
    coordinates: (coords, M, pairs, bands, normals) with M_i the box's
    normal mass, the product of the coordinates' band masses; pairs the
    expected uniform pairs of the rejection rounds per cloud atom,
    sum_i sum_d env_i^d prod_{e != d} m_i^e; bands[i] the (a, b, nearest^2)
    of each coordinate's band a <= e_i . (x0/sigma_r, v/sigma_v) <= b of its
    whitened plane; and normals[i] = e_i = (sigma_r, sigma_v t_i)/s_i.
    None without band coordinates."""
    coords = [d for d in windowed
              if all(math.isfinite(x) for x in list(lo[d]) + list(hi[d]))]
    if not coords:
        return None
    joint, pairs, bands, normals = [], 0.0, [], []
    for i, t in enumerate(times):
        s = math.sqrt(c.sigma_r**2 + (c.sigma_v * t) ** 2)
        masses, envelopes, box = [], [], []
        for d in coords:
            fall = 0.5 * c.g * t**2 if d == 2 else 0.0
            a, b = (lo[d, i] + fall) / s, (hi[d, i] + fall) / s
            masses.append(max(0.0, 0.5 * (math.erf(b / math.sqrt(2.0))
                                          - math.erf(a / math.sqrt(2.0)))))
            nearest = min(max(0.0, a), b)
            envelopes.append(max(b - a, 0.0) * math.exp(-0.5 * nearest**2)
                             / math.sqrt(2.0 * math.pi))
            box.append((a, b, nearest**2))
        joint.append(math.prod(masses))
        pairs += sum(env * math.prod(masses[:j] + masses[j + 1:])
                     for j, env in enumerate(envelopes))
        bands.append(box)
        normals.append((c.sigma_r / s, c.sigma_v * t / s))
    return coords, joint, pairs, bands, normals


def _naive_clouds(c, rng, times, lo, hi, n=1):
    """The windowed draw of n clouds from one generator, written out by
    hand.  lo and hi are (3, times) arrays; an atom is kept when, at some
    time t_i, every windowed coordinate lies in its window at t_i.  Returns
    the (r0, v0) of each cloud.

    The band coordinates (see _naive_bands) are drawn first when their
    boxes' masses sum below 1 and their uniform pairs below 2: a
    Poisson(n_total M_i) count of proposals per cloud and time, cloud by cloud;
    for each band coordinate in x, y, z order, rounds of uniform rejection
    for the truncated normal across its bands over the proposals of all n
    clouds, each round the across uniforms of the pending proposals, then
    their accept uniforms, and then a normal along the band per proposal,
    rotated back to (x0, v); and one uniform per proposal, kept when below
    1/k for k the times at which it lies in every band coordinate's window.
    Otherwise the draw starts with the Poisson count of each whole cloud.
    Every other coordinate, the windowed ones first, each group in x, y, z
    order, draws a (2, kept) block of positions and velocities over the
    kept atoms of all n clouds."""
    every_time = set(range(len(times)))
    windowed = _naive_windowed(times, lo, hi)

    def times_inside(d, x0, v):
        found = set()
        for i, t in enumerate(times):
            coord = x0 + v * t
            if d == 2:
                coord -= 0.5 * c.g * t**2
            if lo[d, i] <= coord <= hi[d, i]:
                found.add(i)
        return found

    plan = _naive_bands(c, times, lo, hi, windowed)
    coords = []
    if plan is None or not (sum(plan[1]) < 1.0 and plan[2] < 2.0):
        # (cloud, coordinate -> (x0, v), the times the atom is inside so far)
        atoms = [(r, {}, every_time) for r in range(n) for _ in range(int(rng.poisson(c.n_total)))]
    else:
        coords, joint, _, bands, normals = plan
        proposals = [(r, i) for r in range(n) for i, mass in enumerate(joint)
                     for _ in range(int(rng.poisson(c.n_total * mass)))]
        pairs = [{} for _ in proposals]
        for k, d in enumerate(coords):
            across = [None] * len(proposals)
            pending = list(range(len(proposals)))
            while pending:
                u = rng.random(2 * len(pending))
                rejected = []
                for j, p in enumerate(pending):
                    a, b, near_sq = bands[proposals[p][1]][k]
                    x = a + (b - a) * u[j]
                    if u[len(pending) + j] < math.exp(0.5 * (near_sq - x * x)):
                        across[p] = x
                    else:
                        rejected.append(p)
                pending = rejected
            for p, (_, i) in enumerate(proposals):
                e_r, e_v = normals[i]
                along = rng.standard_normal()
                pairs[p][d] = (c.sigma_r * (across[p] * e_r - along * e_v),
                               c.sigma_v * (across[p] * e_v + along * e_r))
        atoms = []
        for (r, _), pair in zip(proposals, pairs):
            inside = set.intersection(*(times_inside(d, *pair[d]) for d in coords))
            if rng.random() * len(inside) < 1.0 and inside:
                atoms.append((r, pair, inside))
    for d in [d for d in windowed if d not in coords] + [d for d in range(3) if d not in windowed]:
        draws = rng.standard_normal((2, len(atoms)))
        for (_, pair, _), x0, v in zip(atoms, c.sigma_r * draws[0], c.sigma_v * draws[1]):
            pair[d] = (x0, v)
        if d in windowed:
            atoms = [(r, pair, inside & times_inside(d, *pair[d])) for r, pair, inside in atoms]
            atoms = [atom for atom in atoms if atom[2]]
    return [tuple(np.array([[pair[d][side] for d in range(3)]
                            for owner, pair, _ in atoms if owner == r]).reshape(-1, 3)
                  for side in (0, 1))
            for r in range(n)]


def _naive_cloud(c, seed, times, lo, hi):
    """sample_cloud by hand: one cloud from the generator seeded by seed."""
    return _naive_clouds(c, np.random.Generator(np.random.PCG64(seed)), times, lo, hi)[0]


def _sequential_sum(values):
    """The sum of values added one by one, in order."""
    total = 0.0
    for value in values:
        total += float(value)
    return total


def _naive_layout(c, times, lo, hi):
    """The block layout of an ensemble, by hand: (parts, size), the
    sub-clouds of a realization and how many sub-clouds one block draws.
    A cloud's mean atoms are its proposals, n_total sum_i M_i, for a band
    draw and n_total otherwise; a realization above _PART_ATOMS of them is
    the fewest sub-clouds of equal mean within it, and a block holds as many
    sub-clouds as fit in _PART_ATOMS, at least one."""
    plan = _naive_bands(c, times, lo, hi, _naive_windowed(times, lo, hi))
    banded = plan is not None and sum(plan[1]) < 1.0 and plan[2] < 2.0
    atoms = c.n_total * (sum(plan[1]) if banded else 1.0)
    parts = max(1, math.ceil(atoms / mc_oracle._PART_ATOMS))
    return parts, max(1, math.floor(mc_oracle._PART_ATOMS / (atoms / parts)))


def _naive_rows(c, seed, n_realizations, times, lo, hi, per_atom, dropped=None):
    """The block loop written out by hand: windowed draws (see
    _naive_clouds), propagation by the formula, per_atom(positions), one
    value per atom, at every time.  An atom's value counts at t_i only if
    its own window test holds there: every windowed coordinate in its
    window at t_i.  dropped, if given, collects the (time index, positions,
    values) of the atoms left out.  Realization i is the sub-clouds i p,
    ..., i p + p - 1 of mean n_total / p, and block k draws sub-clouds
    k s, ..., k s + s - 1 (see _naive_layout) from the generator seeded by
    substream_seed(seed, k).  Each block sums the values of a realization's
    atoms one by one, in order, and its sums are added to the realization's
    row in block order."""
    windowed = _naive_windowed(times, lo, hi)
    parts, size = _naive_layout(c, times, lo, hi)
    part = CloudParams(c.n_total / parts, c.sigma_r, c.sigma_v, c.g)
    rows = np.zeros((n_realizations, len(times)))
    units = n_realizations * parts
    for k, first in enumerate(range(0, units, size)):
        rng = np.random.Generator(np.random.PCG64(substream_seed(seed, k)))
        clouds = _naive_clouds(part, rng, times, lo, hi, min(size, units - first))
        sums = {}
        for unit, (r0, v0) in enumerate(clouds, start=first):
            for i, t in enumerate(times):
                pos = r0 + v0 * t
                pos[:, 2] -= 0.5 * c.g * t**2
                held = np.ones(len(pos), dtype=bool)
                for d in windowed:
                    held &= (pos[:, d] >= lo[d, i]) & (pos[:, d] <= hi[d, i])
                values = np.asarray(per_atom(pos))
                if dropped is not None:
                    dropped.append((i, pos[~held], values[~held]))
                key = (unit // parts, i)
                sums[key] = _sequential_sum([sums.get(key, 0.0), *values[held]])
        for (r, i), total in sums.items():
            rows[r, i] += total
    return rows


class TestAgainstNaiveLoop:
    beam = BEAM_40
    times = np.array([0.0, 0.004, 0.011])

    def test_weighted_counts(self):
        self.check_weighted_counts(split=False)

    def test_binary_count_check(self):
        self.check_binary_count_check(split=False)

    # the beam window proposes ~57 atoms per realization and the boxes
    # 500-1000: _PART_ATOMS = 40 and 300 split them into 2 and into 2-4
    # sub-clouds, each drawn as its own block
    @pytest.mark.parametrize("check", ["check_weighted_counts", "check_binary_count_check"])
    def test_split_into_sub_clouds(self, monkeypatch, check):
        monkeypatch.setattr(mc_oracle, "_PART_ATOMS",
                            {"check_weighted_counts": 40, "check_binary_count_check": 300}[check])
        getattr(self, check)(split=True)

    def check_weighted_counts(self, split):
        l_r = self.beam.rayleigh_length

        def plain_weights(pos):
            w_sq = (self.beam.w0 * np.sqrt(1.0 + (pos[:, 0] / l_r) ** 2)) ** 2
            return np.exp(-2.0 * (pos[:, 1] ** 2 + pos[:, 2] ** 2) / w_sq)

        # the beam window from its definition: |y|, |z| <= c * w(K * sigma_x(t))
        sigma_x = np.sqrt(CLOUD.sigma_r**2 + (CLOUD.sigma_v * self.times) ** 2)
        half = mc_oracle.BEAM_CUT * self.beam.w0 * np.sqrt(
            1.0 + (mc_oracle.AXIAL_CUT * sigma_x / l_r) ** 2)
        hi = np.stack([np.full(3, np.inf), half, half])
        assert _banded(CLOUD, self.times, -hi, hi)
        # unsplit, the 40 realizations fit one block
        parts, size = _naive_layout(CLOUD, self.times, -hi, hi)
        assert (parts == 2 and size == 1) if split else (parts == 1 and size >= 40)
        dropped = []
        naive = _naive_rows(CLOUD, 17, 40, self.times, -hi, hi, plain_weights, dropped)
        assert np.all(naive > 0.0)
        # what is left out at t_i weighs at most the cut there, or lies past
        # AXIAL_CUT cloud widths in x; some of it weighs more than 0
        cut = math.exp(-2.0 * mc_oracle.BEAM_CUT**2)
        for i, pos, values in dropped:
            far = np.abs(pos[:, 0]) > mc_oracle.AXIAL_CUT * sigma_x[i]
            assert np.all((values <= cut) | far)
        assert any(np.any(values > 0.0) for _, _, values in dropped)
        for threads in (1, 2):
            stats = ensemble_stats(CLOUD, self.beam, self.times, 40, 17, threads)
            np.testing.assert_array_equal(stats.counts, naive)
            # its statistics reduce the same counts
            np.testing.assert_array_equal(stats.mean, naive.mean(axis=0))

    def check_binary_count_check(self, split):
        s, inf = CLOUD.sigma_r, np.inf
        # (lo, hi, whether the draw takes the product of bands): three
        # banded coordinates; x and y banded, then the half-line z <= 0
        # drawn and tested; bands holding more than the cloud, so the full
        # draw tests x >= -sigma_r and |y| <= 2 sigma_r; whole space, with
        # nothing windowed
        boxes = [([-1e-3, -5e-4, -2e-3], [8e-4, 1e-3, 4e-4], True),
                 ([-1e-3, -5e-4, -inf], [8e-4, 1e-3, 0.0], True),
                 ([-s, -2 * s, -inf], [inf, 2 * s, inf], False),
                 ([-inf] * 3, [inf] * 3, False)]
        for lo, hi, banded in boxes:
            lo, hi = np.array(lo), np.array(hi)
            lo3, hi3 = np.tile(lo[:, None], 3), np.tile(hi[:, None], 3)
            assert _banded(CLOUD, self.times, lo[:, None], hi[:, None]) == banded
            # unsplit, the 60 realizations span 2-4 blocks
            parts, size = _naive_layout(CLOUD, self.times, lo3, hi3)
            assert (parts > 1 and size == 1) if split else (parts == 1 and 15 <= size < 60)
            naive = _naive_rows(CLOUD, 23, 60, self.times, lo3, hi3,
                                lambda pos: np.all((pos >= lo) & (pos <= hi), axis=-1))
            assert np.all(naive > 0.0)
            for threads in (1, 2):
                report = binary_count_check(CLOUD, (lo, hi), self.times, 60, 23, threads)
                np.testing.assert_array_equal(report.mean, naive.mean(axis=0))
                np.testing.assert_array_equal(report.variance, naive.var(axis=0, ddof=1))

    def test_campbell_rows(self):
        # weights of 40 atoms over 3 times, shared by 6 clouds of which the
        # second and the last hold none: per cloud the sums of w_j^2 w_k^2
        rng = np.random.default_rng(27)
        owner = np.sort(rng.choice([0, 2, 3, 4], 40))
        w = rng.random((3, 40)) ** 4
        rows = mc_oracle._campbell_rows(w.copy(), owner, 6)
        assert rows.shape == (6, 9)
        for r in range(6):
            mine = w[:, owner == r]
            kappa = [[math.fsum(mine[j] ** 2 * mine[k] ** 2) for k in range(3)] for j in range(3)]
            np.testing.assert_allclose(rows[r], np.ravel(kappa), rtol=1e-14)
        assert not rows[[1, 5]].any()


class TestSubClouds:
    # no window: a realization's mean atoms are n_total
    @pytest.mark.parametrize("n_total,parts", [
        (float(mc_oracle._PART_ATOMS), 1), (mc_oracle._PART_ATOMS + 1.0, 2),
        (1e4, 1), (1e6, 62), (0.5, 1)])
    def test_count(self, n_total, parts):
        cloud = CloudParams(n_total, 1e-3, 0.1)
        plan = mc_oracle._draw_plan(cloud, (), -np.inf, np.inf)
        assert mc_oracle._sub_clouds(cloud, plan) == (parts, n_total / parts)

    # a 1 mm waist: the window boxes hold more than the cloud, which is
    # drawn whole, so a realization's mean atoms are n_total.  At n_total
    # == _PART_ATOMS each block draws one realization with sample_cloud;
    # one atom more: two of half the mean, each its own block
    @pytest.mark.parametrize("part_atoms", [1000, 999])
    def test_rows_at_the_boundary(self, monkeypatch, part_atoms):
        monkeypatch.setattr(mc_oracle, "_PART_ATOMS", part_atoms)
        beam = BeamParams(w0=1e-3, wavelength=1e-9)
        times = np.array([0.0, 0.004])
        hi = mc_oracle._beam_window(CLOUD, beam, times)
        assert not _banded(CLOUD, times, -hi, hi)
        parts = 1 if part_atoms == 1000 else 2
        part = CloudParams(CLOUD.n_total / parts, CLOUD.sigma_r, CLOUD.sigma_v, CLOUD.g)
        expected = np.zeros((30, times.size))
        for i in range(30):
            for j in range(parts):
                real = sample_cloud(part, substream_seed(41, parts * i + j), times, -hi, hi)
                for k, t in enumerate(times):
                    pos = propagate(real.positions, real.velocities, CLOUD.g, t)
                    # weighed only inside the window at t
                    held = np.all((pos >= -hi[:, k]) & (pos <= hi[:, k]), axis=1)
                    expected[i, k] += _sequential_sum(weight(beam, pos)[held])
        np.testing.assert_array_equal(ensemble_stats(CLOUD, beam, times, 30, 41).counts, expected)

    # the beam window proposes ~57 atoms per realization: _PART_ATOMS = 130
    # draws 2 realizations a block, so 7 span 4 blocks and the last holds
    # one; _PART_ATOMS = 50 splits each into 2 sub-clouds, each its own
    # block, so 7 span 14 blocks
    @pytest.mark.parametrize("part_atoms,parts,blocks", [(130, 1, 4), (50, 2, 14)])
    def test_blocks_match_hand_loop(self, monkeypatch, part_atoms, parts, blocks):
        monkeypatch.setattr(mc_oracle, "_PART_ATOMS", part_atoms)
        times = np.array([0.0, 0.004, 0.011])
        hi = mc_oracle._beam_window(CLOUD, BEAM_40, times)
        layout = _naive_layout(CLOUD, times, -hi, hi)
        assert layout[0] == parts and math.ceil(7 * parts / layout[1]) == blocks
        naive = _naive_rows(CLOUD, 43, 7, times, -hi, hi, lambda pos: weight(BEAM_40, pos))
        assert np.all(naive > 0.0)
        for threads in (1, 2):
            np.testing.assert_array_equal(
                ensemble_stats(CLOUD, BEAM_40, times, 7, 43, threads).counts, naive)

    def test_split_cloud_is_poisson_in_whole_space(self, monkeypatch):
        monkeypatch.setattr(mc_oracle, "_PART_ATOMS", 300)
        box = ((-np.inf, -np.inf, -np.inf), (np.inf, np.inf, np.inf))
        report = binary_count_check(CLOUD, box, [0.0, 0.01], 2000, seed=8)
        assert report.all_consistent
        np.testing.assert_allclose(report.ratio, 1.0, atol=4.0 * np.max(report.ratio_se))

    def test_split_cloud_agrees_with_closed_forms(self, monkeypatch):
        # the cloud of test_agrees_with_closed_forms as 3 sub-clouds of 4e3/3:
        # its beam window proposes ~14 atoms per realization
        monkeypatch.setattr(mc_oracle, "_PART_ATOMS", 6)
        cloud = CloudParams(n_total=4e3, sigma_r=1e-3, sigma_v=0.1, g=9.81)
        inp = EffNumInputs(cloud, BEAM)
        times = np.array([0.0, 0.006, 0.012, 0.02])
        hi = mc_oracle._beam_window(cloud, BEAM, times)
        assert mc_oracle._sub_clouds(cloud, mc_oracle._draw_plan(cloud, times, -hi, hi))[0] == 3
        stats = ensemble_stats(cloud, BEAM, times, 2500, seed=321)
        mean_z = (stats.mean - mean_number(inp, times)) / stats.se_mean
        var_z = (stats.variance - variance(inp, times)) / stats.se_variance
        assert np.all(np.abs(mean_z) < 3.0)
        assert np.all(np.abs(var_z) < 3.0)


class TestBeamWindow:
    @pytest.mark.parametrize("g", [0.0, 9.81])
    # the desk probe (l_R = 0.31 m) and one with l_R = sigma_r
    @pytest.mark.parametrize("wavelength", [1e-9, math.pi * 1e-10 / 1e-3])
    def test_dropped_atoms_weigh_at_most_the_cut(self, g, wavelength):
        cloud = CloudParams(n_total=1e4, sigma_r=1e-3, sigma_v=0.1, g=g)
        beam = BeamParams(w0=10e-6, wavelength=wavelength)
        times = np.array([0.0, 0.005, 0.01, 0.02, 0.05, 0.1])
        hi = mc_oracle._beam_window(cloud, beam, times)
        cut = math.exp(-2.0 * 5.0**2)  # c = 5, as documented at BEAM_CUT
        dropped_atoms = atoms = 0
        for seed in range(10):
            r0, v0 = oracles.sample_cloud_full(cloud, seed)
            flown = [oracles.fly_and_weigh(cloud, beam.w0, beam.wavelength, r0, v0, t)
                     for t in times]
            # kept: |y| and |z| both inside the window at one grid time
            kept = np.any([np.all(np.abs(pos[:, 1:]) <= hi[1:, i], axis=1)
                           for i, (pos, _) in enumerate(flown)], axis=0)
            for _, weights in flown:
                assert np.max(weights[~kept], initial=0.0) <= cut
            dropped_atoms += np.count_nonzero(~kept)
            atoms += len(r0)
        assert dropped_atoms > 0.25 * atoms

    def test_agrees_with_full_draw(self):
        # mean and variance of the weighted counts and of the box counts:
        # the windowed draw against the whole-cloud oracle, each difference
        # in units of sqrt(2) oracle standard errors
        n = 3000
        times = np.array([0.0, 0.004, 0.011])
        lo = np.array([-1e-3, -5e-4, -2e-3])
        hi = np.array([8e-4, 1e-3, 4e-4])

        def both(pos, weights):
            return np.sum(weights), np.count_nonzero(np.all((pos >= lo) & (pos <= hi), axis=-1))

        full = []
        for i in range(n):  # oracle seeds independent of substream_seed
            r0, v0 = oracles.sample_cloud_full(CLOUD, 1_000_003 * i + 1)
            full.append([both(*oracles.fly_and_weigh(CLOUD, BEAM_40.w0, BEAM_40.wavelength,
                                                     r0, v0, t)) for t in times])
        full = np.array(full, dtype=float)
        report = binary_count_check(CLOUD, (lo, hi), times, n, seed=31)
        thinned = ensemble_stats(CLOUD, BEAM_40, times, n, seed=32).counts
        for values, mean, var in ((full[:, :, 0], thinned.mean(axis=0), thinned.var(axis=0, ddof=1)),
                                  (full[:, :, 1], report.mean, report.variance)):
            ref_var = values.var(axis=0, ddof=1)
            fourth = np.mean((values - values.mean(axis=0)) ** 4, axis=0)
            z_mean = (mean - values.mean(axis=0)) / np.sqrt(2.0 * ref_var / n)
            z_var = (var - ref_var) / np.sqrt(2.0 * (fourth - ref_var**2) / n)
            assert np.all(np.abs(z_mean) < 4.0) and np.all(np.abs(z_var) < 4.0)


class TestBandDraw:
    """The band coordinates drawn from the product of their bands: the kept
    atoms are the cloud restricted to the union over the grid times of the
    window boxes."""

    # five windows |y| <= 0.2 sigma_r at 1 ms steps: each band holds 15-16%
    # of the cloud, their union 27%, so most kept atoms lie in several bands
    times = np.array([0.0, 0.001, 0.002, 0.003, 0.004])
    half = 2e-4

    def z_of_mean_count(self, n=400):
        lo = np.array([[-np.inf], [-self.half], [-np.inf]])
        hi = -lo
        joint = mc_oracle._draw_plan(CLOUD, self.times, lo, hi)[-1][1]
        assert joint.sum() > 2.5 * self.union_mass()
        counts = np.array([sample_cloud(CLOUD, substream_seed(71, i), self.times, lo, hi).count
                           for i in range(n)])
        expected = CLOUD.n_total * self.union_mass()
        return (counts.mean() - expected) / math.sqrt(expected / n)

    def union_mass(self):
        m = self.times.size
        return oracles.band_union_mass(CLOUD.sigma_r, CLOUD.sigma_v, self.times,
                                       [-self.half] * m, [self.half] * m)

    @staticmethod
    def force_k_to_one(monkeypatch):
        # each coordinate's hits collapsed to one row, "in its window at
        # some time": every proposal is in k = 1 box and is kept
        true_hits = mc_oracle._window_hits
        monkeypatch.setattr(mc_oracle, "_window_hits",
                            lambda *args: true_hits(*args).any(axis=0, keepdims=True))

    def test_mean_count_is_n_times_union_mass(self):
        assert abs(self.z_of_mean_count()) < 4.0

    def test_keeping_every_proposal_fails(self, monkeypatch):
        # an atom in k bands is proposed k times; without the 1/k thinning
        # the mean count is n times the summed masses, 2.8 times too many
        self.force_k_to_one(monkeypatch)
        assert self.z_of_mean_count() > 100.0

    def z_of_box_count(self, n=1000):
        """The kept count of the windows |y| <= half and |z + g t^2/2| <=
        half, drawn from the product of their bands, against the whole-cloud
        oracle cut to the same boxes: an atom counts when it is inside the
        box of one time.  The boxes overlap as the y bands above do."""
        fall = 0.5 * CLOUD.g * self.times**2
        lo = np.stack([np.full(self.times.size, -np.inf), np.full(self.times.size, -self.half),
                       -fall - self.half])
        hi = np.stack([np.full(self.times.size, np.inf), np.full(self.times.size, self.half),
                       -fall + self.half])
        assert _banded(CLOUD, self.times, lo, hi)
        banded = np.array([sample_cloud(CLOUD, substream_seed(72, i), self.times, lo, hi).count
                           for i in range(n)])
        full = []
        for i in range(n):
            r0, v0 = oracles.sample_cloud_full(CLOUD, 1_000_003 * i + 11)
            pos = r0 + v0 * self.times[:, None, None]
            pos[..., 2] -= fall[:, None]
            inside = (pos[..., 1:] >= lo[1:].T[:, None]) & (pos[..., 1:] <= hi[1:].T[:, None])
            full.append(np.count_nonzero(inside.all(axis=-1).any(axis=0)))
        se = math.sqrt((banded.var(ddof=1) + np.var(full, ddof=1)) / n)
        return (banded.mean() - np.mean(full)) / se

    def test_box_count_matches_full_draw(self):
        assert abs(self.z_of_box_count()) < 4.0

    def test_box_count_without_thinning_fails(self, monkeypatch):
        # with k forced to 1 the mean count is n sum_i M_i, the atoms in
        # several boxes counted once per box
        self.force_k_to_one(monkeypatch)
        assert self.z_of_box_count() > 100.0

    def test_desk_window_matches_full_draw(self):
        self.check_desk_window((1,))

    def test_desk_window_on_y_and_z_matches_full_draw(self):
        self.check_desk_window((1, 2))

    def check_desk_window(self, windowed):
        # the desk config's beam window on the coordinates windowed: the
        # kept count and sums of squares and products per realization,
        # against the whole-cloud oracle cut to the same windows, an atom
        # kept when inside them at one grid time
        n = 1000
        cloud = CloudParams(n_total=1e4, sigma_r=1e-3, sigma_v=0.1, g=9.81)
        times = np.array([0.0, 0.005, 0.01, 0.015, 0.02])
        half = mc_oracle._beam_window(cloud, BeamParams(w0=10e-6, wavelength=1e-9), times)[1]
        hi = np.full((3, times.size), np.inf)
        hi[list(windowed)] = half
        assert _banded(cloud, times, -hi, hi)

        def moments(r0, v0):
            return [len(r0), np.sum(r0[:, 1] ** 2), np.sum(v0[:, 1] ** 2),
                    np.sum(r0[:, 1] * v0[:, 1]), np.sum(r0[:, 2] * v0[:, 2])]

        banded, full = [], []
        for i in range(n):
            real = sample_cloud(cloud, substream_seed(5, i), times, -hi, hi)
            banded.append(moments(real.positions, real.velocities))
            r0, v0 = oracles.sample_cloud_full(cloud, 1_000_003 * i + 7)
            y = r0[:, 1] + v0[:, 1] * times[:, None]
            z = r0[:, 2] + v0[:, 2] * times[:, None] - 0.5 * cloud.g * times[:, None] ** 2
            kept = np.any((np.abs(y) <= hi[1, :, None]) & (np.abs(z) <= hi[2, :, None]), axis=0)
            full.append(moments(r0[kept], v0[kept]))
        banded, full = np.array(banded), np.array(full)
        se = np.sqrt((banded.var(axis=0, ddof=1) + full.var(axis=0, ddof=1)) / n)
        assert np.all(np.abs(banded.mean(axis=0) - full.mean(axis=0)) < 4.0 * se)


class TestBinaryCountCheck:
    def test_whole_space_is_poisson(self):
        box = ((-np.inf, -np.inf, -np.inf), (np.inf, np.inf, np.inf))
        report = binary_count_check(CLOUD, box, [0.0, 0.01], 2000, seed=8)
        assert report.all_consistent
        np.testing.assert_allclose(report.ratio, 1.0, atol=4.0 * np.max(report.ratio_se))

    def test_centered_box_stays_poisson(self):
        half = 0.5 * CLOUD.sigma_r
        box = ((-half, -half, -half), (half, half, half))
        report = binary_count_check(CLOUD, box, [0.0, 0.005], 2000, seed=9)
        assert report.all_consistent

    def test_box_under_fallen_cloud_stays_poisson(self):
        ts = time_scales(CLOUD, BEAM)
        drop = -0.5 * CLOUD.g * ts.tau_g**2
        s = CLOUD.sigma_r
        box = ((-2 * s, -2 * s, drop - 2 * s), (2 * s, 2 * s, drop + 2 * s))
        report = binary_count_check(CLOUD, box, [ts.tau_g], 2000, seed=10)
        assert report.all_consistent

    def test_thread_invariant(self):
        half = 0.5 * CLOUD.sigma_r
        box = ((-half, -half, -half), (half, half, half))
        a = binary_count_check(CLOUD, box, [0.0, 0.005], 300, seed=12)
        b = binary_count_check(CLOUD, box, [0.0, 0.005], 300, seed=12, threads=2)
        for field in ("mean", "variance", "ratio", "ratio_se"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_rejects_bad_boxes(self):
        with pytest.raises(ValueError):
            binary_count_check(CLOUD, ((0, 0, 0), (0, 0, 0)), [0.0], 10, seed=1)
        with pytest.raises(ValueError):
            binary_count_check(CLOUD, ((0, 0), (1, 1)), [0.0], 10, seed=1)


class TestSharedDraw:
    """ensemble_stats' Poisson check: the counts of the atoms weighed at
    each time, from the beam-window draw of its statistics."""

    beam = BEAM_40
    times = np.array([0.0, 0.004, 0.011])

    def test_box_counts_equal_a_hand_loop(self):
        # the Poisson count at t_i is the atoms inside the beam window at t_i
        window = mc_oracle._beam_window(CLOUD, self.beam, self.times)
        naive = _naive_rows(CLOUD, 23, 60, self.times, -window, window,
                            lambda pos: np.ones(len(pos)))
        assert np.all(naive.sum(axis=0) > 0)
        for threads in (1, 2):
            report = ensemble_stats(CLOUD, self.beam, self.times, 60, 23, threads).poisson
            np.testing.assert_array_equal(report.mean, naive.mean(axis=0))
            np.testing.assert_array_equal(report.variance, naive.var(axis=0, ddof=1))
            np.testing.assert_array_equal(report.ratio,
                                          naive.var(axis=0, ddof=1) / naive.mean(axis=0))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("config,n_realizations", [("validate_desk.json", 1000),
                                                   ("default.json", 3)])
def test_block_memory_is_bounded(config, n_realizations):
    # one block at a time, of at most _PART_ATOMS mean proposed atoms: the
    # traced peak of the desk's whole validate ensemble and of a default.json
    # ensemble stays below what one 2**16-atom default.json sub-cloud took
    # (3.1-3.25 MB), so the process's peak memory cannot grow
    cfg = load_config(str(CONFIGS / config))

    def run():
        ensemble_stats(cfg.cloud, cfg.beam, cfg.mc_times, n_realizations, 7)
    run()  # one-off allocations of a first call stay out of the peak
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2e6, peak
