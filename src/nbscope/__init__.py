"""nbscope: certificate-based detection of natural-boundary behavior in
bounded power series.

The library studies power series f(z) = sum a_n z^n with bounded
coefficients through the recurring-window structure of the coefficient
stream: windows that recur along increasing indices stand in for right
limits (limits of index-shifted copies), and discrete certificates --
zero-flank centers, one-sided flank-matching pairs with separated centers,
or block mismatches at every length for finite-valued streams -- carry the
evidence that the series cannot continue analytically across any arc of
the unit circle.  An arc-integral probe corroborates numerically but never
decides.

Subpackages: :mod:`nbscope.sequences` (generators, windows, CSV),
:mod:`nbscope.rightlimits` (searches, certificates, verdict),
:mod:`nbscope.analytic` (certified evaluation, boundary probe,
reflectionless checks), :mod:`nbscope.randomseries` (seeded stochastic
paths, Monte Carlo experiment), :mod:`nbscope.cli` (command line).
"""

from .analytic import (
    ArcSpec,
    BoundaryProbeReport,
    EvalResult,
    NumericCapError,
    boundary_l1_scan,
    decay_rule_check,
    eval_f,
    eval_shift_pair,
    eval_two_sided,
    periodic_reflectionless_check,
    truncation_length,
)
from .randomseries import (
    MonteCarloReport,
    ProcessSpec,
    certificate_rate_experiment,
    iid_process,
    markov_process,
    rotation_process,
    sample_process,
    separated_values,
    variance_window,
)
from .ratform import RationalForm, RationalFormError, reduce_eventually_periodic
from .rightlimits import (
    AnalysisConfig,
    NonReflectionlessCertificate,
    RightLimitCandidate,
    SzegoReport,
    Verdict,
    detect_eventual_periodicity,
    extract_right_limits,
    find_gap_certificate,
    find_pair_certificate,
    szego_block_analysis,
    verdict,
    verify_gap_hit,
    verify_pair,
)
from .sequences import (
    GeneratorSpec,
    OneSidedSequence,
    SequenceError,
    TwoSidedSequence,
    TwoSidedWindow,
    VerificationError,
    erdos,
    explicit,
    gap_powers,
    make_sequence,
    periodic,
    periodic_extension,
    constant_extension,
    window_extension,
    read_sequence_csv,
    read_window_csv,
    rotation,
    rudin_shapiro,
    snap_to_limit_points,
    window,
    write_sequence_csv,
    write_window_csv,
)

__version__ = "0.1.0"
