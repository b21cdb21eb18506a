"""Matrix-symbol analysis of invariant operators on the 2-torus and SU(2).

The library decides and quantifies global hypoellipticity from the behavior
of per-frequency symbol gains, constructs explicit counterexample fields
when the gain bound fails, certifies the algebraic failure families in
exact arithmetic (rational torus resonances, imaginary half-integer shifts,
Pell resonances), and computes exact constants of the subelliptic a-priori
inequalities on spectral truncations.
"""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientField,
    Counterexample,
    RegularityReport,
    apply_symbol,
    build_counterexample,
    classify_regularity,
    random_field,
    sobolev_norm,
)
from .diophantine import (
    Classification,
    ContinuedFraction,
    PellSolution,
    TorusGainResult,
    classify_coefficient,
    continued_fraction,
    liouville_witnesses,
    pell_solutions,
    torus_min_gain,
)
from .errors import (
    HyposymError,
    NoFitError,
    PrecisionError,
    PreconditionError,
    SearchExhaustedError,
    SpecFileError,
    WindowTooSmallError,
)
from .exact import Enclosure, Surd, format_real, parse_real
from .hypo import (
    Certificate,
    GrowthFit,
    Verdict,
    Witness,
    certify,
    estimate_h,
    fit_growth,
    singular_scan,
    verdict,
)
from .specfile import ParsedSpec, emit_spec, parse_spec
from .spectral import (
    NU,
    SU2,
    TORUS2,
    FrequencyIndex,
    SpectralModel,
    Su2Label,
    Torus2Label,
    Window,
    enumerate_frequencies,
    frequency_for_label,
)
from .subelliptic import (
    SubellipticReport,
    TruncatedKernel,
    best_alpha_constant,
    check_alpha,
    check_beta,
    extremal_field,
    kernel_on_truncation,
    per_frequency_constant,
)
from .symbols import (
    Coefficient,
    GainTable,
    MatrixSymbol,
    MatrixTable,
    OrderEstimate,
    Su2DiagPoly,
    TorusPoly,
    build_symbol,
    estimate_order,
    gain_table,
    operator_norm,
    smallest_gain,
)
