"""Radial Dirac equation on warped products: operators, flows, estimate checks."""

import os

# One BLAS thread, set before NumPy first loads (its OpenBLAS reads the
# variable once, at load).  Every command runs in one thread, on banded
# sweeps and thin products that a second BLAS thread does not speed up;
# OpenBLAS's idle workers would only spin, and a threaded dot product
# (np.linalg.norm) would make the last digits of the artifacts depend on
# the core count.  A value set in the environment is left alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .admissibility import AdmissibilityReport, ModePotential, check_admissible
from .errors import (ConfigurationError, ContractViolationError, GridTooCoarseError,
                     HypothesisViolationError, NonAdmissibleError, NumericalError,
                     PolicyError, UnsupportedFamilyError, WarpDiracError)
from .estimates import (ExponentTriple, NormScanResult, is_admissible_triple, mu_scan,
                        smoothing_norm, strichartz_norm)
from .evolution import (DataTemplate, FlatBesselOracle, SpinorState, SpinorTrajectory, evolve,
                        gaussian_state)
from .operators import (DiscreteRadialOperator, RadialGrid, assemble_dirac,
                        assemble_kg, factorization_check, flat_reference_operator,
                        norm_equivalence_check, verify_square)
from .profiles import (A2Verdict, Family, MetricProfile, ProfileConstants,
                       check_A2, profile_constants)
from .scan import DEFAULT_SCAN_POLICY, InfimumScanPolicy
from .spectrum import LPBand, ModeIndex, band_index, lp_band, sphere_spectrum

__version__ = "0.1.0"
