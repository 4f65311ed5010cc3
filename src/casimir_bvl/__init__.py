"""Casimir pressures from Lifshitz theory under pluggable dielectric models,
with Bohr-van Leeuwen consistency checks of the classical limit."""

from .bvl import BvLReport, SlabPoint, Verdict, bvl_verdict
from .fresnel import ReflectionSet, reflection, reflection_static
from .lifshitz import (CavityConfig, PressureResult, StressSplit,
                       classical_transverse_pressure, pressure_matsubara,
                       pressure_real_frequency)
from .materials import (Extrapolation, Kind, MaterialModel, Oscillator,
                        ZeroFreqClass, drude, eval_epsilon, generalized_plasma,
                        ideal_metal, insulator, plasma, tabulated,
                        zero_freq_class)

__version__ = "0.1.0"

__all__ = [
    "BvLReport", "CavityConfig", "Extrapolation", "Kind", "MaterialModel",
    "Oscillator", "PressureResult", "ReflectionSet", "SlabPoint",
    "StressSplit", "Verdict", "ZeroFreqClass",
    "bvl_verdict", "classical_transverse_pressure", "drude", "eval_epsilon",
    "generalized_plasma", "ideal_metal", "insulator", "plasma",
    "pressure_matsubara", "pressure_real_frequency", "reflection",
    "reflection_static", "tabulated", "zero_freq_class",
]
