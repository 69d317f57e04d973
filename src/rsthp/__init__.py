"""Link-level simulator for multiuser MISO downlink precoding.

Compares linear zero-forcing, Tomlinson-Harashima, and dirty-paper
style precoding, each with an optional rate-splitting common stream,
under perfect and imperfect channel knowledge at the transmitter.
"""

from .channel import (
    ErrorRegime,
    complex_gaussian,
    draw_error_ensemble,
    stream_rng,
)
from .exceptions import (
    DimensionMismatchError,
    EmptyGridError,
    InvalidVarianceError,
    NonUnitDiagonalError,
    RankDeficientError,
    SaturatedSinrError,
    SchemeMismatchError,
    SimulatorError,
    ZeroMatrixError,
)
from .linalg import (
    LqFactors,
    dominant_right_singular_vector,
    lq_decompose,
    pseudo_inverse,
)
from .precoding import (
    ALL_SCHEME_TAGS,
    PrecoderSet,
    SchemeTag,
    build_precoders,
    effective_transmit_power,
    parse_scheme_tag,
)
from .rates import (
    SINR_CAP,
    RateReport,
    SinrCrossCheck,
    SinrReport,
    cross_check_sinr,
    estimate_sinr_monte_carlo,
    rates_from_sinr,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    sum_rate_samples,
)
from .sweeps import (
    SweepCell,
    SweepConfig,
    SweepResult,
    average_sum_rate,
    default_power_split_grid,
    ergodic_sum_rate,
    optimize_power_split,
    run_sweep,
    snr_db_to_power,
)
from .thp_chain import (
    ChainTrace,
    ModuloLattice,
    QamConstellation,
    measure_power_loss,
    modulo_reduce,
    qam_constellation,
    random_feedback_matrix,
    run_perfect_csit_chain,
    thp_encode,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_SCHEME_TAGS",
    "ChainTrace",
    "DimensionMismatchError",
    "EmptyGridError",
    "ErrorRegime",
    "InvalidVarianceError",
    "LqFactors",
    "ModuloLattice",
    "NonUnitDiagonalError",
    "PrecoderSet",
    "QamConstellation",
    "RankDeficientError",
    "RateReport",
    "SINR_CAP",
    "SaturatedSinrError",
    "SchemeMismatchError",
    "SchemeTag",
    "SimulatorError",
    "SinrCrossCheck",
    "SinrReport",
    "SweepCell",
    "SweepConfig",
    "SweepResult",
    "ZeroMatrixError",
    "average_sum_rate",
    "build_precoders",
    "complex_gaussian",
    "cross_check_sinr",
    "default_power_split_grid",
    "dominant_right_singular_vector",
    "draw_error_ensemble",
    "effective_transmit_power",
    "ergodic_sum_rate",
    "estimate_sinr_monte_carlo",
    "lq_decompose",
    "measure_power_loss",
    "modulo_reduce",
    "optimize_power_split",
    "parse_scheme_tag",
    "pseudo_inverse",
    "qam_constellation",
    "random_feedback_matrix",
    "rates_from_sinr",
    "run_perfect_csit_chain",
    "run_sweep",
    "sinr_imperfect_csit",
    "sinr_perfect_csit",
    "snr_db_to_power",
    "stream_rng",
    "sum_rate_samples",
    "thp_encode",
]
