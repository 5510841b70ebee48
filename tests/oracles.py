"""Brute-force oracles kept independent of the library code paths.

Everything here recomputes a target quantity from first principles
(quadrature, exact integer arithmetic, oscillatory Fourier integrals) so
the closed forms in the package are checked against something that shares
none of their algebra.
"""

import math

import numpy as np
from scipy.integrate import dblquad, quad

from coldcloud import SeriesConvergenceError, covariance_exact, time_scales


def transverse_quad(func, y_window, z_window, epsrel=1e-12):
    """Adaptive 2D integral of func(y, z) over an explicit window.

    Callers pick windows wide enough that the truncated tails are
    negligible at the target tolerance; keeping the window close to the
    integrand support is what keeps the adaptive rule cheap and sharp.
    """
    value, _ = dblquad(
        func, y_window[0], y_window[1], z_window[0], z_window[1],
        epsabs=0.0, epsrel=epsrel,
    )
    return value


def gaussian_product_window(width_a, width_b, center_b=0.0, n_widths=10.0):
    """Window covering the product of two Gaussians of the given 1/e^2-like
    widths, one centered at zero and one at center_b.

    Returns (lo, hi) spanning n_widths of the product width around the
    product center; beyond that the product tail is below 1e-21.
    """
    inv_a = 1.0 / width_a**2
    inv_b = 1.0 / width_b**2
    width = 1.0 / math.sqrt(inv_a + inv_b)
    center = center_b * inv_b / (inv_a + inv_b)
    return center - n_widths * width, center + n_widths * width


# 15-point Kronrod panel rule (positive half; symmetric)
_K15_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_K15_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])


def _panel_rule(a, b, n_panels):
    """Composite Kronrod-15 nodes and weights on [a, b]."""
    nodes = np.concatenate([_K15_NODES[:-1], -_K15_NODES[::-1]])
    weights = np.concatenate([_K15_WEIGHTS[:-1], _K15_WEIGHTS[::-1]])
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    xs = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    ws = (half[:, None] * weights[None, :]).ravel()
    return xs, ws


def plane_integral_vec(func2d, x_bounds, y_bounds, epsrel=1e-10):
    """2D integral of a vectorized integrand by grid-doubling panel rules.

    func2d takes meshgrid-style arrays (nx, ny) and returns values of the
    same shape.  Panels are doubled until two successive grids agree to
    epsrel, which is the adaptivity appropriate for smooth bell-shaped
    integrands evaluated in bulk.
    """
    prev = None
    n = 8
    while n <= 512:
        xs, wx = _panel_rule(*x_bounds, n)
        ys, wy = _panel_rule(*y_bounds, n)
        vals = func2d(xs[:, None], ys[None, :])
        value = float(wx @ vals @ wy)
        if prev is not None and abs(value - prev) <= epsrel * abs(value):
            return value
        prev = value
        n *= 2
    raise RuntimeError("plane integral did not converge under grid doubling")


def quad3d_vec(func3d, x_bounds, y_bounds, z_bounds, epsrel=1e-8):
    """3D adaptive quadrature with a vectorized transverse plane rule.

    The outer z integral is scipy's adaptive QUADPACK; each plane is the
    grid-doubling rule above with func3d evaluated in one batched call per
    grid, so million-point oracles stay fast.
    """

    def plane(z):
        return plane_integral_vec(
            lambda x, y: func3d(x, y, z), x_bounds, y_bounds, epsrel=0.1 * epsrel
        )

    value, _ = quad(plane, *z_bounds, epsabs=0.0, epsrel=epsrel, limit=200)
    return value


def quasistationary_coefficients(inp, big_t):
    """n0, zeta, alpha_T^2, a_T and b_T of the quasistationary covariance,
    from their written formulas: n0 = N*tau_w^2/tau_r^2 and, with
    u = (T/tau_r)^2, alpha_T^2 = 2*(1+u), a_T = u*(4+u), b_T = 2*u*(2+u)^2."""
    ts = time_scales(inp.cloud, inp.beam)
    u = (big_t / ts.tau_r) ** 2
    return (inp.cloud.n_total * ts.tau_w**2 / ts.tau_r**2, ts.zeta,
            2.0 * (1.0 + u), u * (4.0 + u), 2.0 * u * (2.0 + u) ** 2)


def quasistationary_fourier_oracle(inp, big_t, omega, dps=25):
    """Arbitrary-precision Fourier transform of the quasistationary
    covariance at fall time big_t, rebuilt in mpmath from its written
    coefficients.

    Oscillatory quadrature at 25 digits keeps full double-precision relative
    accuracy even where the spectrum has decayed ten orders below its peak:
    on the tests' frequencies it is within 2.4e-15 of the same quadrature
    at 40 digits.
    """
    import mpmath as mp

    tau_w = time_scales(inp.cloud, inp.beam).tau_w
    with mp.workdps(dps):
        n0_m, z_m, asq, a_m, b_m = (
            mp.mpf(v) for v in quasistationary_coefficients(inp, big_t)
        )
        tw, om = mp.mpf(tau_w), mp.mpf(omega)

        def cov(u):
            lor = 1 / ((u / tw) ** 2 + asq)
            return n0_m * lor * mp.exp(-z_m * (a_m - b_m * lor))

        if om == 0:
            value = mp.quad(cov, [0, mp.inf])
        else:
            value = mp.quadosc(lambda u: cov(u) * mp.cos(om * u), [0, mp.inf], omega=om)
        return float(2 * value)


def variance_over_mean_mp(c, b, t, dps=50):
    """variance/mean of the weighted count at time t, rebuilt in mpmath from
    the written laws: the mean is tau_w^2/(tau_r^2 + tau_w^2 + t^2) times the
    fall factor exp[-t^4/(tau_g^2 (tau_r^2 + tau_w^2 + t^2))], in units of
    the atom number, and the variance is the mean at tau_w^2/2, with tau_r =
    sigma_r/sigma_v, tau_w = w0/(2 sigma_v) and tau_g = 2 sqrt(2) sigma_v/g.
    Neither underflows at 50 digits, where the float variance is subnormal.
    """
    import mpmath as mp

    with mp.workdps(dps):
        sigma_r, sigma_v, g, w0, t = (mp.mpf(v) for v in (c.sigma_r, c.sigma_v, c.g, b.w0, t))
        tau_r_sq, tau_w_sq = (sigma_r / sigma_v) ** 2, (w0 / (2 * sigma_v)) ** 2
        inv_tau_g_sq = (g / (2 * mp.sqrt(2) * sigma_v)) ** 2

        def law(share):
            offset = tau_r_sq + share * tau_w_sq + t**2
            return share * tau_w_sq / offset * mp.exp(-inv_tau_g_sq * t**4 / offset)

        return float(law(mp.mpf(0.5)) / law(mp.mpf(1)))


def cosine_transform(tau, values, omega):
    """Trapezoid cosine transform of an even correlation sample.

    Returns sum over the grid of values*cos(omega*tau), i.e. the real
    Fourier transform of an even function sampled on ``tau``.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    integrand = values[None, :] * np.cos(omega[:, None] * tau[None, :])
    return np.trapezoid(integrand, tau, axis=1)


def spectrum_numeric(inp, big_t, tau_grid, omega):
    """Model-independent spectrum: cosine transform of the exact covariance.

    ``tau_grid`` must be symmetric about zero and span many correlation
    widths with several points per width; nothing here checks either.
    """
    return cosine_transform(tau_grid, covariance_exact(inp, big_t, tau_grid), omega)


def pk_reference(k: int, x: float) -> float:
    """p_k by exact integer combinatorics, floats only at the last step."""
    total = 0.0
    for j in range(k + 1):
        coeff = math.factorial(2 * k - j) // (math.factorial(j) * math.factorial(k - j))
        total += float(coeff) * (2.0 * x) ** j
    return total


def log_pk_exact(k: int, x) -> np.ndarray:
    """log p_k(x) from the exact sum at each float x, its log taken at 40
    digits.  With x = n/2^e, 2^(e*k) p_k(x) = sum_j C_j (2n)^j 2^(e*(k-j)) is
    an integer, summed by Horner's rule in Python's integers."""
    import mpmath as mp

    coeff = [math.factorial(2 * k - j) // (math.factorial(j) * math.factorial(k - j))
             for j in range(k + 1)]
    out = []
    with mp.workdps(40):
        for value in np.atleast_1d(np.asarray(x, dtype=float)).tolist():
            n, d = value.as_integer_ratio()
            e = d.bit_length() - 1
            total = coeff[k]
            for j in range(k - 1, -1, -1):
                total = total * 2 * n + (coeff[j] << (e * (k - j)))
            out.append(float(mp.log(total) - e * k * mp.log(2)))
    return np.array(out)


def log_pk_logsumexp(k: int, x) -> np.ndarray:
    """log p_k(x) summed by scipy.special.logsumexp, the library's earlier
    log-space sum, for the earlier series enveloped_series_scipy."""
    from scipy.special import gammaln, logsumexp

    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.arange(k + 1, dtype=float)
    log_coeff = gammaln(2 * k - j + 1) - gammaln(j + 1) - gammaln(k - j + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_2x = np.log(2.0 * x)
        # j = 0 contributes log_coeff alone even at x = 0
        log_terms = log_coeff[:, None] + np.where(
            j[:, None] == 0, 0.0, j[:, None] * log_2x[None, :]
        )
    return logsumexp(log_terms, axis=0)


def enveloped_series_scipy(c: float, x) -> np.ndarray:
    """exp(-x-4c) * sum_k c^k p_k(x)/(k!)^2 with scipy.special.gammaln for
    k! and log_pk_logsumexp for p_k: the library's earlier series, kept
    verbatim as an oracle for its scipy-free one."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if c == 0.0:
        return np.exp(-x)
    from scipy.special import gammaln

    log_c = math.log(c)
    log_rtol = math.log(1e-12)
    peak = 4.0 * c + 2.0 * math.sqrt(2.0 * c * x.max(initial=0.0))
    cap = int(peak + 10.0 * math.sqrt(peak)) + 20
    total, log_total, prev = 0.0, -np.inf, -np.inf
    for k in range(cap + 1):
        term = k * log_c - 2.0 * gammaln(k + 1) + log_pk_logsumexp(k, x) - 4.0 * c - x
        total = total + np.exp(term)
        log_total = np.logaddexp(log_total, term)
        if np.all(term <= log_rtol + log_total) and np.all(term <= prev):
            return total
        prev = term
    raise SeriesConvergenceError(f"spectrum series did not converge within {cap} terms (c={c:.3g})")


def peak_series_reference(c: float, kmax: int = 400) -> float:
    """sum_k c^k (2k)!/(k!)^3 with exact integer factorials, for spectra at
    zero frequency."""
    total = 0.0
    for k in range(kmax + 1):
        coeff = math.factorial(2 * k) / (math.factorial(k) ** 3)
        term = c**k * coeff
        total += term
        if k > 4 and term < 1e-17 * total:
            break
    return total


def gaussian_density_reference(n_total, sigma_r, sigma_v, g, r, t):
    """Cloud density straight from the definition used by the sampler:
    Gaussian of per-axis variance sigma_r^2 + (sigma_v t)^2 centered at the
    fallen position."""
    var = sigma_r**2 + (sigma_v * t) ** 2
    center = np.array([0.0, 0.0, -0.5 * g * t**2])
    d2 = float(np.sum((np.asarray(r, dtype=float) - center) ** 2))
    return n_total / (2.0 * math.pi * var) ** 1.5 * math.exp(-d2 / (2.0 * var))


def sample_cloud_full(c, seed):
    """Whole-cloud draw: a Poisson count, then the row-major (count, 3)
    blocks of positions and of velocities.  The library sampler's former
    draw, kept as the reference its windowed draw must agree with in
    distribution."""
    rng = np.random.Generator(np.random.PCG64(seed))
    count = int(rng.poisson(c.n_total))
    return c.sigma_r * rng.standard_normal((count, 3)), c.sigma_v * rng.standard_normal((count, 3))


def compound_poisson_rows(rng, lam, a, n):
    """n realizations of two counts over a Poisson(lam) number of atoms,
    N_k = sum of w_k over the atoms, with w_1 = exp(-a u^2) and w_2 =
    exp(-a (u + v)^2) for standard normals u, v drawn per atom.  Each row
    is (N_1, N_2, then the 2 x 2 sums over its atoms of w_j^2 w_k^2,
    row-major): the layout of the Monte Carlo oracle's ensemble rows."""
    counts = rng.poisson(lam, n)
    u, v = rng.standard_normal((2, int(counts.sum())))
    w = np.exp(-a * np.stack([u * u, (u + v) ** 2]))
    sq = w * w
    owner = np.repeat(np.arange(n), counts)
    columns = [w[0], w[1], sq[0] * sq[0], sq[0] * sq[1], sq[1] * sq[0], sq[1] * sq[1]]
    return np.stack([np.bincount(owner, weights=col, minlength=n) for col in columns], axis=1)


def compound_poisson_moments(lam, a):
    """Exact (Var N_1, Var N_2, Cov(N_1, N_2)) of compound_poisson_rows:
    lam E[w_j w_k] by Campbell's theorem, Gaussian integrals of the
    quadratic forms 2a u^2, 2a (u + v)^2 and a x^T B x, x = (u, v),
    B = [[2, 1], [1, 1]]."""
    b = np.array([[2.0, 1.0], [1.0, 1.0]])
    return (lam / math.sqrt(1.0 + 4.0 * a), lam / math.sqrt(1.0 + 8.0 * a),
            lam / math.sqrt(np.linalg.det(np.eye(2) + 2.0 * a * b)))


def band_union_mass(sigma_r, sigma_v, times, lo, hi):
    """Normal mass of the (x0, v) plane, x0 ~ N(0, sigma_r^2) and v ~ N(0,
    sigma_v^2), where lo_i <= x0 + v t_i <= hi_i for some i: the union of
    the bands that sample_cloud's windows on a coordinate without fall
    make.  Quadrature over x0 of the normal mass of the union of the v
    intervals, merged by hand."""
    def normal_cdf(x):
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def v_mass(x0):
        intervals = []
        for t, a, b in zip(times, lo, hi):
            if t > 0:
                intervals.append(((a - x0) / (sigma_v * t), (b - x0) / (sigma_v * t)))
            elif a <= x0 <= b:
                return 1.0
        mass, reach = 0.0, -math.inf
        for left, right in sorted(intervals):
            left = max(left, reach)
            if right > left:
                mass += normal_cdf(right) - normal_cdf(left)
                reach = right
        return mass

    # the t = 0 windows make the only jumps in x0; the tails beyond 12
    # sigma_r weigh below 1e-32
    edges = [x for t, a, b in zip(times, lo, hi) if t == 0 for x in (a, b)]
    cuts = sorted({-12.0 * sigma_r, 12.0 * sigma_r,
                   *(x for x in edges if abs(x) < 12.0 * sigma_r)})
    density = 1.0 / (sigma_r * math.sqrt(2.0 * math.pi))
    return sum(quad(lambda x0: density * math.exp(-0.5 * (x0 / sigma_r) ** 2) * v_mass(x0),
                    left, right, epsabs=1e-14, epsrel=1e-12, limit=200)[0]
               for left, right in zip(cuts, cuts[1:]))


def fly_and_weigh(c, w0, wavelength, r0, v0, t):
    """Ballistic positions at time t, with the fall along -z, and the
    Gaussian beam weight exp(-2 (y^2 + z^2)/w(x)^2) of each atom."""
    pos = r0 + v0 * t
    pos[:, 2] -= 0.5 * c.g * t**2
    w_sq = w0**2 * (1.0 + (pos[:, 0] * wavelength / (math.pi * w0**2)) ** 2)
    return pos, np.exp(-2.0 * (pos[:, 1] ** 2 + pos[:, 2] ** 2) / w_sq)


def sigma_general_quad(inp, t, rel_tol=1e-9):
    """sigma(t) by adaptive quadrature of layer density / beam section.

    The package's original algorithm, kept as the reference for its fixed
    Gauss-Hermite rule: scalar t, the x-integral truncated at 10
    instantaneous cloud spreads, where the Gaussian tail is below 1e-21.
    """
    from coldcloud.beam import beam_section
    from coldcloud.effnum import _layer_densities

    half_width = 10.0 * math.sqrt(inp.cloud.sigma_r**2 + (inp.cloud.sigma_v * t) ** 2)

    def integrand(x):
        return _layer_densities(inp, x, t)(1.0) / beam_section(inp.beam, x)

    value, _ = quad(integrand, -half_width, half_width, epsabs=0.0, epsrel=rel_tol, limit=200)
    return value


def sigma_saturated_quad(inp, opt, t, rel_tol=1e-13):
    """sigma_s(t) by adaptive quadrature in x of adaptive radial layers.

    The package's original algorithm without its saturation series, kept as
    the reference for the fixed rules: scalar t, every layer the radial
    integral of f/(1+2*s_m*f) times the cloud, with the angle about the beam
    axis done in closed form, 2*pi*exp(-(r-d)^2/(2*var))*I0(r*d/var).  The
    x-integral stops at 10 instantaneous cloud spreads and breaks at
    multiples of the Rayleigh length, the scale of the saturation.
    """
    from scipy.special import i0e

    c, b = inp.cloud, inp.beam
    var = c.sigma_r**2 + (c.sigma_v * t) ** 2
    spread = math.sqrt(var)
    d = 0.5 * c.g * t**2
    l_r = math.pi * b.w0**2 / b.wavelength
    half_width = 10.0 * spread

    def layer_over_section(x):
        w_sq = b.w0**2 * (1.0 + (x / l_r) ** 2)
        two_s = 2.0 * opt.s_m0 * b.w0**2 / w_sq
        norm = c.n_total / (2.0 * math.pi * var) ** 1.5 * math.exp(-x * x / (2.0 * var))

        def ring(r):
            f = math.exp(-2.0 * r * r / w_sq)
            cloud = math.exp(-((r - d) ** 2) / (2.0 * var)) * i0e(r * d / var)
            return 2.0 * math.pi * r * f / (1.0 + two_s * f) * cloud

        lo, hi = gaussian_product_window(0.5 * math.sqrt(w_sq), spread, center_b=d)
        value, _ = quad(ring, max(lo, 0.0), hi, epsabs=0.0, epsrel=rel_tol, limit=200)
        return norm * value / (0.5 * math.pi * w_sq)

    breaks = [k * l_r for k in (-10.0, -1.0, 0.0, 1.0, 10.0) if abs(k * l_r) < half_width]
    value, _ = quad(layer_over_section, -half_width, half_width, points=breaks,
                    epsabs=0.0, epsrel=rel_tol, limit=500)
    return value
