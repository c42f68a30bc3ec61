"""Ideal-crystal recovery from finite point-set windows.

Detects almost periods of a discrete point set restricted to a ball,
extracts exact periods, and either recovers a decomposition A = L + F
(full-rank lattice plus finite residue set) or certifies the absence of
such structure at the observed scale.
"""

from .almost_period import (
    TOL_EXACT,
    AlmostPeriodCertificate,
    FailureWitness,
    Period,
    Rejection,
    candidate_almost_periods,
    is_almost_period,
    snap_to_period,
    verify_exact_period,
)
from .config import RunConfig
from .crystal import (
    COORD_TOL,
    CrystalDecomposition,
    Lattice,
    NoCrystalEvidence,
    build_lattice,
    cone_filter,
    dominance_check,
    independence_det,
    recover_crystal,
    refine_lattice,
    residues,
    verify_decomposition,
)
from .errors import *  # noqa: F401,F403
from .generators import (
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
    gen_poisson,
)
from .geometry import (
    DifferenceSet,
    TypeGapReport,
    denseness_radius,
    difference_vectors,
    finite_type_gap,
)
from .pointset import (
    TOL_EQ,
    WindowedSet,
    load_points,
    min_separation,
    serialize,
    window_restrict,
)
from .report import build_report, canonical_json, render_json, render_text

__version__ = "0.1.0"
