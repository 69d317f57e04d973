"""Link-level simulator for multiuser MISO downlink precoding.

Compares linear zero-forcing, Tomlinson-Harashima, and dirty-paper
style precoding, each with an optional rate-splitting common stream,
under perfect and imperfect channel knowledge at the transmitter.

The package exports the names a library caller needs to configure and
run a sweep, build precoders, evaluate SINRs and drive the modulo
chain. Everything else is imported from its module (rsthp.sweeps,
rsthp.rates, rsthp.linalg, rsthp.exceptions, ...).
"""

from .channel import (
    ErrorRegime,
    complex_gaussian,
    draw_error_ensemble,
    stream_rng,
)
from .exceptions import SimulatorError
from .precoding import SchemeTag, build_precoders, parse_scheme_tag
from .rates import (
    cross_check_sinr,
    rates_from_sinr,
    sinr_imperfect_csit,
    sinr_perfect_csit,
    sum_rate_samples,
)
from .sweeps import SweepConfig, run_sweep, snr_db_to_power
from .thp_chain import (
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
    "ErrorRegime",
    "ModuloLattice",
    "QamConstellation",
    "SchemeTag",
    "SimulatorError",
    "SweepConfig",
    "build_precoders",
    "complex_gaussian",
    "cross_check_sinr",
    "draw_error_ensemble",
    "measure_power_loss",
    "modulo_reduce",
    "parse_scheme_tag",
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
