"""Verification laboratory for the correspondence between gauge-theory
vacuum equations and Bethe ansatz equations of open and closed spin chains.

The package splits into root-system data (lie_roots), special functions
(specfun), the two superpotential realizations and their vacuum products
(gauge), transfer-matrix oracles and Bethe residuals (chain), the one
evaluator of the equation row tables both sides build (rows), the preset
dictionaries translating one side into the other (bridge), and seeded
multi-start solvers (solve).  The command line front end lives in cli.
"""

from .bridge import (
    DictionaryPreset,
    VerificationReport,
    all_presets,
    calibrate_preset,
    duality_compare,
    map_chain_to_gauge,
    map_gauge_to_chain,
    preset_by_id,
    presets,
    verify_identity,
)
from .chain import (
    BetheRoots,
    ChainSpec,
    bethe_lhs,
    bethe_residuals,
    certify_roots,
    transfer_matrix,
)
from .gauge import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    GaugeTheorySpec,
    VacuumBranch,
    superpotential_grad,
    superpotential_value,
    vacuum_from_gradient,
    vacuum_lhs,
    vacuum_lhs_2d,
    vacuum_lhs_squared,
)
from .lie_roots import RootSystem, build_root_system, generate_roots, weight_factor
from .solve import SolveConfig, cross_check, solve_bethe, solve_vacuum
from .specfun import dilog, dilog_qpoch_link, qpoch

__version__ = "0.1.0"

__all__ = [
    "BetheRoots",
    "BRANCH_MINUS",
    "BRANCH_PLUS",
    "ChainSpec",
    "DictionaryPreset",
    "GaugeTheorySpec",
    "RootSystem",
    "SolveConfig",
    "VacuumBranch",
    "VerificationReport",
    "all_presets",
    "bethe_lhs",
    "bethe_residuals",
    "build_root_system",
    "calibrate_preset",
    "certify_roots",
    "cross_check",
    "dilog",
    "dilog_qpoch_link",
    "duality_compare",
    "generate_roots",
    "map_chain_to_gauge",
    "map_gauge_to_chain",
    "preset_by_id",
    "presets",
    "qpoch",
    "solve_bethe",
    "solve_vacuum",
    "superpotential_grad",
    "superpotential_value",
    "transfer_matrix",
    "vacuum_from_gradient",
    "vacuum_lhs",
    "vacuum_lhs_2d",
    "vacuum_lhs_squared",
    "verify_identity",
    "weight_factor",
]
