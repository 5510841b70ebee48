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

from . import beam, cavity, cloud, effnum, exceptions, fluct, mc_oracle, optical, saturation
from .beam import *
from .cavity import *
from .cloud import *
from .effnum import *
from .exceptions import *
from .fluct import *
from .mc_oracle import *
from .optical import *
from .saturation import *

__version__ = "0.1.0"

# glibc malloc returns free memory at the top of its heap to the OS beyond
# a trim threshold (128 KiB at start), and raises the threshold to twice the
# size of any freed block that it had mapped on its own.  Freeing one 24 MiB
# block here keeps the arrays of spectral-series orders in the heap instead
# of faulting them in afresh on every call.  On a 2-core Xeon (glibc 2.36),
# a repeated 2000-frequency spectrum takes 0-3 page faults with the block
# and 574-576 without.  A repeated 4-realization ensemble of the default
# 1e6-atom cloud takes 0-3 either way, as it is drawn in blocks of at most
# 2**14 mean proposed atoms (drawn whole, it took 1.1e4-1.2e4 without the
# block).
# Other allocators see one untouched allocation.
_np.empty(3 << 20)

__all__ = ["__version__"] + [
    name for module in (beam, cavity, cloud, effnum, exceptions, fluct, mc_oracle, optical,
                        saturation)
    for name in module.__all__
]
