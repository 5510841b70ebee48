"""Effective atom number of a Gaussian probe in a falling cold-atom cloud.

A cloud released from a magneto-optical trap expands ballistically and
falls while a probe beam counts its atoms through their phase shift.  This
package computes the resulting effective atom number: its mean over time,
its saturated (nonlinear) variant, the sub-Poissonian fluctuation
statistics with their time-dependent noise spectra, and the cavity-detuning
noise those fluctuations induce.  A Monte Carlo particle oracle
cross-validates every closed form.
"""

import numpy as _np

from .beam import BeamParams, beam_section, beam_size, mode_amplitude, weight
from .cavity import (
    CavityParams,
    cooperativity,
    detuning_shift,
    detuning_spectrum,
    is_linear_regime,
)
from .cloud import (
    CloudParams,
    TimeScales,
    center_density,
    density,
    phase_space_density,
    time_scales,
)
from .effnum import (
    EffNumInputs,
    column_number_density,
    layer_number_density,
    linear_field_shift,
    sigma_general,
    sigma_high_temperature,
    sigma_long_rayleigh,
    sigma_small_waist,
)
from .exceptions import SeriesConvergenceError
from .fluct import (
    covariance_exact,
    covariance_quasistationary,
    mean_number,
    normalized_spectrum,
    pk_polynomial,
    spectra,
    spectrum_exponential,
    spectrum_series,
    variance,
)
from .mc_oracle import (
    BinaryCountReport,
    EnsembleStats,
    Realization,
    binary_count_check,
    effective_count,
    ensemble_stats,
    propagate,
    sample_cloud,
    substream_seed,
    weighted_counts,
)
from .optical import OpticalParams, polarizability
from .saturation import (
    nonlinear_field_shift,
    saturation_on_axis,
    sigma_saturated_closed,
    sigma_saturated_general,
)

__version__ = "0.1.0"

# glibc malloc returns free memory at the top of its heap to the OS beyond
# a trim threshold (128 KiB at start), and raises the threshold to twice the
# size of any freed block that it had mapped on its own.  Freeing one 24 MiB
# block here keeps the arrays of MC realizations and spectral-series orders
# in the heap instead of faulting them in afresh on every use.  On a 2-core
# Xeon, a 1000-realization validate of validate_desk.json went from 2.2e6
# page faults and 10 s to none and 7.7 s.  Other allocators see one
# allocation whose pages are never touched.
_np.empty(3 << 20)

__all__ = [
    "__version__",
    # beam
    "BeamParams", "beam_size", "beam_section", "weight", "mode_amplitude",
    # cloud
    "CloudParams", "TimeScales", "time_scales", "phase_space_density",
    "density", "center_density",
    # effective number
    "EffNumInputs", "column_number_density", "layer_number_density",
    "sigma_general", "sigma_small_waist", "sigma_long_rayleigh",
    "sigma_high_temperature", "linear_field_shift",
    # saturation
    "OpticalParams", "polarizability", "saturation_on_axis",
    "sigma_saturated_closed", "sigma_saturated_general", "nonlinear_field_shift",
    # fluctuations
    "mean_number", "variance", "covariance_exact", "covariance_quasistationary",
    "pk_polynomial", "spectrum_exponential", "spectrum_series",
    "normalized_spectrum", "spectra",
    # cavity
    "CavityParams", "cooperativity", "detuning_shift", "detuning_spectrum",
    "is_linear_regime",
    # Monte Carlo oracle
    "Realization", "EnsembleStats", "BinaryCountReport", "substream_seed",
    "sample_cloud", "propagate", "effective_count", "weighted_counts",
    "ensemble_stats", "binary_count_check",
    # errors
    "SeriesConvergenceError",
]
