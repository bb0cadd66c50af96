"""Electromagnetic response of a relativistic electron gas.

Permittivities, permeabilities, susceptibilities, collective-mode
frequencies, and the dispersion relation at finite temperature and
chemical potential, with the nonrelativistic and vacuum limits as
cross-checked oracles.
"""

from .core import (E2_DEFAULT, Kinematics, Regime, ResponseSet, ScalarTriple,
                   Susceptibilities, ThermoState, make_kinematics)
from .dispersion import (BandReport, DispersionMode, DispersionSolution,
                         negative_index_scan, solve_dispersion)
from .limits import (NRState, RootNotBracketed, lindhard_chi_e,
                     nr_plasmon_omega2, pauli_landau, plasmon_frequency,
                     thomas_fermi_mass2, thomas_fermi_mass2_nr)
from .quadrature import DEFAULT_TOL, NonConvergence
from .response import (ConstitutiveTensors, assemble_responses,
                       constitutive_tensors, evaluate_point, susceptibilities)
from .scalar_functions import (DrudeResult, LightConeSingular,
                               MomentIntegrals, StationaryResult,
                               drude_scalars, longwave_A, longwave_B,
                               medium_B_full, medium_D_full, moment_integrals,
                               scalar_triple, scalar_triples, select_regime,
                               stationary_scalars, vacuum_C)

__version__ = "0.1.0"

__all__ = [
    "E2_DEFAULT",
    "DEFAULT_TOL",
    "Regime",
    "ThermoState",
    "Kinematics",
    "make_kinematics",
    "ScalarTriple",
    "ResponseSet",
    "Susceptibilities",
    "ConstitutiveTensors",
    "NonConvergence",
    "LightConeSingular",
    "RootNotBracketed",
    "vacuum_C",
    "medium_B_full",
    "medium_D_full",
    "MomentIntegrals",
    "moment_integrals",
    "longwave_A",
    "longwave_B",
    "StationaryResult",
    "stationary_scalars",
    "DrudeResult",
    "drude_scalars",
    "select_regime",
    "scalar_triple",
    "scalar_triples",
    "assemble_responses",
    "evaluate_point",
    "susceptibilities",
    "constitutive_tensors",
    "NRState",
    "lindhard_chi_e",
    "thomas_fermi_mass2",
    "thomas_fermi_mass2_nr",
    "nr_plasmon_omega2",
    "pauli_landau",
    "plasmon_frequency",
    "DispersionMode",
    "DispersionSolution",
    "BandReport",
    "solve_dispersion",
    "negative_index_scan",
    "__version__",
]
