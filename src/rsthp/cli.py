"""Command line front end.

Subcommands:
  sweep-snr              ergodic sum rate vs SNR (perfect CSIT or a fixed
                         error variance)
  sweep-error-variance   ergodic sum rate vs error variance at fixed SNR
  sweep-alpha            ergodic sum rate vs SNR with SNR-scaled error
                         variance
  validate-chain         self-checks of the modulo chain algebra
  cross-check-sinr       closed-form SINRs vs the signal-model estimator

A sweep flag left out keeps SweepConfig's default for its field, so a
sweep command and run_sweep with the same settings give the same table.
Sweeps write the main table (CSV or structured text) to --out plus a
sidecar <out>.config.json echoing the resolved configuration. Outputs
depend only on the configuration, so a rerun with the same arguments is
byte-identical. Exit codes: 0 success, 1 a validation check failed,
2 bad arguments or configuration.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .channel import (
    NOISE_STREAM,
    ErrorRegime,
    complex_gaussian,
    draw_error_ensemble,
    stream_rng,
)
from .exceptions import SimulatorError
from .precoding import ALL_SCHEME_TAGS, SchemeTag, build_precoders, parse_scheme_tag
from .rates import CROSS_CHECK_TOL, cross_check_sinr
from .sweeps import (
    SIGMA_N2,
    SweepConfig,
    SweepResult,
    check_dimensions,
    check_memory,
    draw_channel,
    run_sweep,
    snr_db_to_power,
    working_set_bytes,
)
from .thp_chain import (
    measure_power_loss,
    modulo_reduce,
    qam_constellation,
    random_feedback_matrix,
    run_perfect_csit_chain,
    thp_encode,
)

_COLUMNS = ("scheme", "x_value", "x_kind", "esr_bps_hz", "ci_halfwidth",
            "chosen_split_mean", "seed")
CSV_HEADER = ",".join(_COLUMNS)

_DEFAULT_SCHEME_TEXT = ",".join(s.tag for s in SweepConfig.schemes)

# Most points a start:step:stop range may expand to; a longer range is
# almost surely a mistyped step, and building it could exhaust memory.
MAX_RANGE_POINTS = 10_000

# Bytes the check commands hold per sample and stream: at most eight
# complex128 (samples, streams) arrays are alive at once (symbols,
# noise, lattice offsets, feedback outputs, received signal and their
# temporaries).
_BYTES_PER_SAMPLE_STREAM = 8 * 16


def default_seed() -> int:
    """Default master seed, SweepConfig's; env RSTHP_SEED overrides."""
    text = os.environ.get("RSTHP_SEED", str(SweepConfig.master_seed))
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"RSTHP_SEED must be an integer, got {text!r}") from None


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse "start:step:stop" (stop inclusive) or a comma list of values."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"grid range must be finite, got {text!r}")
        if step <= 0.0:
            raise ValueError(f"grid step must be positive, got {step}")
        # Points start + i * step pass stop by at most 1e-9 of a step.
        steps = (stop - start) / step + 1e-9
        if steps >= MAX_RANGE_POINTS:
            raise ValueError(
                f"grid range {text!r} has about {steps + 1:.3g} points, more than "
                f"the {MAX_RANGE_POINTS} allowed"
            )
        count = math.floor(max(steps, -1.0)) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def parse_schemes(text: str) -> tuple[SchemeTag, ...]:
    return tuple(parse_scheme_tag(p) for p in text.split(","))


def _rows(result: SweepResult) -> list[dict]:
    """The table's rows, one per cell, keyed by CSV_HEADER's columns."""
    config = result.config
    return [
        dict(zip(_COLUMNS, (
            cell.scheme_tag, cell.x_value, config.x_kind, cell.esr,
            cell.ci_halfwidth, cell.chosen_split_mean, config.master_seed,
        )))
        for cell in result.cells
    ]


def format_csv(result: SweepResult) -> str:
    # repr keeps full float precision and is stable across runs.
    lines = [CSV_HEADER] + [
        ",".join(v if isinstance(v, str) else repr(v) for v in row.values())
        for row in _rows(result)
    ]
    return "\n".join(lines) + "\n"


def format_structured(result: SweepResult) -> str:
    payload = {"x_kind": result.config.x_kind, "rows": _rows(result)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def config_as_dict(config: SweepConfig) -> dict:
    """Every SweepConfig field in JSON form, schemes as their tags, plus
    the noise variance and the x axis the sweep implies."""
    record = {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in dataclasses.asdict(config).items()
    }
    record.update(
        schemes=[s.tag for s in config.schemes], sigma_n2=SIGMA_N2, x_kind=config.x_kind
    )
    return record


def _sweep_output_paths(out_path: str) -> tuple[str, str]:
    """The table's path and its sidecar's."""
    return out_path, out_path + ".config.json"


def _check_writable(out_path: str) -> None:
    """OSError unless the table and its sidecar can both be written."""
    # abspath drops a trailing separator, so check the name before it.
    if not os.path.basename(out_path):
        raise OSError(f"cannot write --out {out_path!r}: it names no file")
    directory = os.path.dirname(os.path.abspath(out_path))
    if not os.access(directory, os.W_OK | os.X_OK):
        raise OSError(f"cannot write {out_path}: {directory} is missing or not writable")
    for path in _sweep_output_paths(out_path):
        if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
            raise OSError(f"cannot write {path}: it is a directory or not writable")


def write_sweep_outputs(result: SweepResult, out_path: str, out_format: str) -> str:
    """Write the table and its sidecar; return the sidecar's path.

    Both go to temporary files in the target directory first and are
    renamed into place only once both are written, so a failed write
    leaves neither file half written.
    """
    table = format_csv(result) if out_format == "csv" else format_structured(result)
    config = json.dumps(config_as_dict(result.config), indent=2, sort_keys=True) + "\n"
    paths = _sweep_output_paths(out_path)
    pending = []
    try:
        for path, text in zip(paths, (table, config)):
            temporary = f"{path}.{os.getpid()}.tmp"
            pending.append(temporary)
            with open(temporary, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        for temporary, path in zip(pending, paths):
            os.replace(temporary, path)
    finally:
        for temporary in pending:
            if os.path.exists(temporary):
                os.remove(temporary)
    return paths[1]


def _common_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    # Each sweep flag's dest is the SweepConfig field it sets, its
    # metavar the flag's name; a flag left out stays None and leaves the
    # field to SweepConfig.
    for flag, dest, kind, text in (
        ("--users", "n_users", int, "number of single-antenna users"),
        ("--tx-antennas", "n_tx", int, "transmit antennas"),
        ("--schemes", "schemes", str, f"comma list of schemes (default: {_DEFAULT_SCHEME_TEXT})"),
        ("--channels", "n_channels", int, "channel draws to average over"),
        ("--error-samples", "n_error_samples", int, "CSIT error draws per channel"),
        ("--lambda", "power_loss", float, "modulo power loss factor for THP schemes"),
        ("--split-grid", "power_split_grid", str, "power-split search grid (start:step:stop "
         "or comma list; default: the library's default_power_split_grid())"),
    ):
        metavar = flag[2:].upper().replace("-", "_")
        parser.add_argument(flag, dest=dest, type=kind, metavar=metavar, help=text)
    parser.add_argument(
        "--seed", dest="master_seed", metavar="SEED", type=int, default=default_seed(),
        help="master seed (env RSTHP_SEED overrides the default)",
    )
    parser.add_argument("--out", type=str, required=True, help="output table path")
    parser.add_argument("--format", choices=("csv", "text"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")


# Each SweepConfig field a sweep flag sets, in the order the flags are
# read, with the reader of a flag given as text.
_SWEEP_FIELDS = {
    "snr_grid_db": parse_grid, "error_variance_grid": parse_grid, "n_users": None,
    "n_tx": None, "schemes": parse_schemes, "n_channels": None, "n_error_samples": None,
    "power_loss": None, "power_split_grid": parse_grid, "master_seed": None,
}


def _config_from_args(args, regime: ErrorRegime) -> SweepConfig:
    """The sweep's config: each sweep flag given sets its field, and a
    field whose flag was left out (None) keeps SweepConfig's default."""
    fields = {"error_regime": regime}
    for name, read in _SWEEP_FIELDS.items():
        value = getattr(args, name, None)
        if value is not None:
            fields[name] = read(value) if read else value
    return SweepConfig(**fields)


def _finish_sweep(args, config: SweepConfig) -> int:
    config.validate()
    # Outputs that cannot be written fail now, before any cell runs.
    _check_writable(args.out)
    result = run_sweep(config, n_jobs=args.jobs)
    sidecar = write_sweep_outputs(result, args.out, args.format)
    for cell in result.cells:
        print(
            f"{cell.scheme_tag:12s} {config.x_kind}={cell.x_value:g} "
            f"esr={cell.esr:.4f} +-{cell.ci_halfwidth:.4f} "
            f"split={cell.chosen_split_mean:.3f}"
        )
    print(f"wrote {args.out} and {sidecar}")
    return 0


def cmd_sweep_snr(args) -> int:
    if args.error_variance == 0.0:
        regime = ErrorRegime.perfect()
    else:
        regime = ErrorRegime.fixed_variance(args.error_variance)
    return _finish_sweep(args, _config_from_args(args, regime))


def cmd_sweep_error_variance(args) -> int:
    return _finish_sweep(args, _config_from_args(args, ErrorRegime.perfect()))


def cmd_sweep_alpha(args) -> int:
    regime = ErrorRegime.snr_scaled(args.alpha)
    return _finish_sweep(args, _config_from_args(args, regime))


def _print_check(name: str, passed: bool, detail: str) -> bool:
    print(f"{'ok  ' if passed else 'FAIL'} {name}: {detail}")
    return passed


def _require_count(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be >= 1, got {value}")


def _require_seed(seed: int) -> None:
    # numpy's own message for a negative seed does not name the flag.
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")


def _require_samples_fit(samples: int, n_streams: int) -> None:
    """ValueError unless the check's sample arrays fit the memory budget."""
    need = _BYTES_PER_SAMPLE_STREAM * samples * n_streams
    check_memory(f"--samples {samples}", need, "--samples")


def cmd_validate_chain(args) -> int:
    _require_seed(args.seed)
    _require_count("--channels", args.channels)
    _require_count("--samples", args.samples)
    _require_samples_fit(args.samples, 4)
    qam = qam_constellation(4)
    lattice = qam.lattice()
    tau = lattice.tau
    rng = np.random.default_rng(args.seed)
    all_ok = True

    spread = 4.0 * complex_gaussian(rng, (args.samples,))
    reduced = modulo_reduce(spread, lattice)
    in_cell = bool(
        np.all(reduced.real >= -tau / 2)
        and np.all(reduced.real < tau / 2)
        and np.all(reduced.imag >= -tau / 2)
        and np.all(reduced.imag < tau / 2)
    )
    all_ok &= _print_check(
        "modulo range", in_cell, f"{args.samples} wide draws land in the cell"
    )

    feedback = random_feedback_matrix(4, 1.0, args.seed + 1)
    symbols = rng.choice(qam.points, size=(args.samples, 4))
    w, d = thp_encode(symbols, feedback, lattice)
    residual = np.max(np.abs(w @ feedback.T - symbols - d))
    offsets = d / tau
    on_lattice = float(
        np.max(np.abs(offsets.real - np.round(offsets.real)))
        + np.max(np.abs(offsets.imag - np.round(offsets.imag)))
    )
    ok = bool(residual < 1e-10 and on_lattice < 1e-10)
    all_ok &= _print_check(
        "encode identity",
        ok,
        f"max |B w - s - d| = {residual:.2e}, offsets on lattice to {on_lattice:.2e}",
    )

    e_tr = snr_db_to_power(15.0)
    worst = 0.0
    for c in range(args.channels):
        h_est = draw_channel(args.seed, c, 4, 4)
        noise = complex_gaussian(stream_rng(args.seed, NOISE_STREAM, c), (4,))
        s = np.random.default_rng(args.seed + c).choice(qam.points, size=4)
        for base in ("cthp", "dthp"):
            precoders = build_precoders(h_est, SchemeTag(base), e_tr, 0.75)
            trace = run_perfect_csit_chain(precoders, s, noise, lattice)
            expected = trace.v + precoders.rx_gain * noise / precoders.beta
            worst = max(worst, float(np.max(np.abs(trace.received - expected))))
    ok = worst < 1e-9
    all_ok &= _print_check(
        "chain cancellation",
        ok,
        f"worst residual over {args.channels} channels, both structures: {worst:.2e}",
    )

    # Fixed feedback matrix: the loss estimate is a property of the
    # protocol, only the symbol draw should follow the user seed.
    dense = random_feedback_matrix(8, 1.5, 77)
    loss = measure_power_loss(qam, dense, lattice, 200000, args.seed + 3)
    ok = 0.72 <= loss <= 0.78
    all_ok &= _print_check(
        "power loss", ok, f"4-QAM estimate {loss:.4f} (expected in [0.72, 0.78])"
    )

    return 0 if all_ok else 1


def cmd_cross_check_sinr(args) -> int:
    _require_seed(args.seed)
    _require_count("--samples", args.samples)
    check_dimensions(args.users, args.tx_antennas)
    # The sweeps' estimate of one channel with one error draw (drawn at
    # any --error-variance) and one build per scheme.
    one_channel = SweepConfig(
        n_users=args.users, n_tx=args.tx_antennas, schemes=ALL_SCHEME_TAGS,
        error_regime=ErrorRegime.fixed_variance(1.0), snr_grid_db=(0.0,), n_channels=1,
        n_error_samples=1, power_split_grid=(0.0,),
    )
    what = f"{args.users} users and {args.tx_antennas} antennas"
    check_memory(what, working_set_bytes(one_channel, 1), "--users/--tx-antennas")
    _require_samples_fit(args.samples, args.users)
    e_tr = snr_db_to_power(args.snr_db)
    h_est = draw_channel(args.seed, 0, args.users, args.tx_antennas)
    # A zero variance draws the all-zero realization: perfect CSIT.
    h_e = draw_error_ensemble(
        args.users, args.tx_antennas, args.error_variance, 1, args.seed, 0
    )[0]
    # Every scheme is built, then checked, before the first line, so a
    # bad --split or a saturated SINR exits 2 alone.
    precoder_sets = [
        build_precoders(h_est, scheme, e_tr, args.power_loss, power_split=args.split)
        for scheme in parse_schemes(args.schemes)
    ]
    checks = [cross_check_sinr(p, h_e, SIGMA_N2, args.samples, args.seed) for p in precoder_sets]
    failed = False
    for check in checks:
        print(f"scheme {check.closed.scheme_tag} (csit={check.closed.csit}):")
        streams = (
            ("user", check.closed.private, check.estimated.private),
            ("common@user", check.closed.common, check.estimated.common),
        )
        for label, closed_sinr, est_sinr in streams:
            if closed_sinr is None:
                continue
            for k, (closed, est) in enumerate(zip(closed_sinr, est_sinr)):
                gap = abs(est - closed) / closed
                print(
                    f"  {label} {k}: closed {closed:.4f}  simulated {est:.4f}  gap {gap:.2%}"
                )
        for note in check.annotations:
            print(f"  note: {note}")
        if check.closed.csit == "perfect" and check.max_rel_gap_private > CROSS_CHECK_TOL:
            failed = True
            print(
                f"  FAIL perfect-CSIT gap {check.max_rel_gap_private:.2%} "
                f"exceeds {CROSS_CHECK_TOL:.0%}"
            )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsthp",
        description="Downlink precoding sum-rate simulator (zero-forcing, "
        "Tomlinson-Harashima, and rate-splitting schemes)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-snr", help="ergodic sum rate vs SNR")
    _common_sweep_arguments(p)
    p.add_argument("--snr-db", dest="snr_grid_db", metavar="SNR_DB", help="SNR grid in dB")
    p.add_argument(
        "--error-variance",
        type=float,
        default=0.0,
        help="fixed CSIT error variance (0 = perfect CSIT)",
    )
    p.set_defaults(handler=cmd_sweep_snr)

    p = sub.add_parser(
        "sweep-error-variance", help="ergodic sum rate vs CSIT error variance"
    )
    _common_sweep_arguments(p)
    p.add_argument(
        "--snr-db", dest="snr_grid_db", metavar="SNR_DB", default="15",
        help="fixed SNR in dB (one value)",
    )
    p.add_argument(
        "--error-variance",
        dest="error_variance_grid",
        metavar="ERROR_VARIANCE",
        default="0.05,0.1,0.2,0.3,0.4,0.5",
        help="error variance grid",
    )
    p.set_defaults(handler=cmd_sweep_error_variance)

    p = sub.add_parser(
        "sweep-alpha", help="ergodic sum rate vs SNR with SNR-scaled error variance"
    )
    _common_sweep_arguments(p)
    p.add_argument("--snr-db", dest="snr_grid_db", metavar="SNR_DB", help="SNR grid in dB")
    p.add_argument(
        "--alpha", type=float, default=0.6, help="error variance decay exponent"
    )
    p.set_defaults(handler=cmd_sweep_alpha)

    p = sub.add_parser("validate-chain", help="modulo chain self-checks")
    p.add_argument("--channels", type=int, default=100)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(handler=cmd_validate_chain)

    p = sub.add_parser(
        "cross-check-sinr", help="closed-form SINRs vs signal-model simulation"
    )
    p.add_argument("--users", type=int, default=SweepConfig.n_users)
    p.add_argument("--tx-antennas", type=int, default=SweepConfig.n_tx)
    p.add_argument("--schemes", type=str, default="cthp,dthp")
    p.add_argument("--snr-db", type=float, default=15.0)
    p.add_argument("--error-variance", type=float, default=0.0)
    p.add_argument("--split", type=float, default=0.0, help="common-stream power split")
    p.add_argument("--lambda", dest="power_loss", type=float, default=SweepConfig.power_loss)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=default_seed())
    p.set_defaults(handler=cmd_cross_check_sinr)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (SimulatorError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
