"""Matrix-symbol analysis of invariant operators on the 2-torus and SU(2).

The library decides and quantifies global hypoellipticity from the behavior
of per-frequency symbol gains, constructs explicit counterexample fields
when the gain bound fails, certifies the algebraic failure families in
exact arithmetic (rational torus resonances, imaginary half-integer shifts,
Pell resonances), and computes exact constants of the subelliptic a-priori
inequalities on spectral truncations.

``import hyposym`` loads no submodule: each exported name, and each
submodule, is imported on first access (PEP 562), so a CLI command
compiles and runs only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# exported names by defining module
_EXPORTS = {
    "coefficients": (
        "CoefficientField", "Counterexample", "RegularityReport", "apply_symbol",
        "build_counterexample", "classify_regularity", "random_field", "sobolev_norm",
    ),
    "diophantine": (
        "Classification", "ContinuedFraction", "PellSolution", "TorusGainResult",
        "classify_coefficient", "continued_fraction", "liouville_witnesses",
        "pell_solutions", "torus_min_gain",
    ),
    "errors": (
        "HyposymError", "NoFitError", "PrecisionError", "PreconditionError",
        "SearchExhaustedError", "SpecFileError", "WindowTooSmallError",
    ),
    "exact": ("Enclosure", "Surd", "format_real", "parse_real"),
    "hypo": (
        "Certificate", "GrowthFit", "Verdict", "Witness", "certify", "estimate_h",
        "fit_growth", "singular_scan", "verdict",
    ),
    "operators": ("Coefficient", "Su2DiagPoly", "TorusPoly"),
    "specfile": ("ParsedSpec", "emit_spec", "parse_spec"),
    "spectral": (
        "NU", "SU2", "TORUS2", "FrequencyIndex", "Su2Label", "Torus2Label", "Window",
        "enumerate_frequencies", "frequency_for_label",
    ),
    "subelliptic": (
        "SubellipticReport", "TruncatedKernel", "best_alpha_constant", "check_alpha",
        "check_beta", "extremal_field", "kernel_on_truncation",
    ),
    "symbols": (
        "GainTable", "MatrixSymbol", "MatrixTable", "OrderEstimate", "build_symbol",
        "estimate_order", "gain_table", "smallest_gain",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "fitting"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
