"""Where the traced run opens spans in rsthp, and the per-layer metrics
derived from them.

Spans wrap the names at the point of lookup: sweeps.py, precoding.py
and cli.py bind their callees with ``from .x import name``, so the
attribute patched is the caller's module attribute, not the defining
one. thp_chain is off the sweep path and is not traced.
"""

import importlib
import inspect

from workloads import SPLIT_GRID_POINTS, Workload


def targets() -> list[tuple]:
    """(module, attribute, span name, observe) for Tracer.patched."""
    channel = importlib.import_module("rsthp.channel")
    precoding = importlib.import_module("rsthp.precoding")
    sweeps = importlib.import_module("rsthp.sweeps")
    cli = importlib.import_module("rsthp.cli")
    draw_signature = inspect.signature(channel.draw_error_ensemble)
    sinr_signature = inspect.signature(sweeps.sum_rate_samples)

    def rng(tracer, *args, **kwargs):
        tracer.count("stream_rng_calls")

    def channel_draw(tracer, master_seed, *key):
        tracer.count("stream_rng_calls")
        if key and key[0] == channel.CHANNEL_STREAM:
            tracer.count("channel_draws")
            tracer.see("channels", (int(master_seed), int(key[1])))

    def error_draw(tracer, *args, **kwargs):
        bound = draw_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = (bound.arguments["seed"], bound.arguments["channel_index"])
        tracer.see("error_draw_keys", key)

    def direction(tracer, a):
        tracer.see("direction_channels", a.tobytes())

    def sinr_batch(tracer, *args, **kwargs):
        errors = sinr_signature.bind(*args, **kwargs).arguments["errors"]
        tracer.count("realizations", len(errors))

    def cell(tracer, config, *args, **kwargs):
        tracer.count("channel_cells", config.n_channels)

    return [
        # SeedSequence construction is the bulk of an error draw; it is
        # counted, and its time stays in the draw's self time.
        (channel, "stream_rng", None, rng),
        (sweeps, "stream_rng", None, channel_draw),
        (sweeps, "draw_error_ensemble", "channel.draw_error_ensemble", error_draw),
        (precoding, "dominant_right_singular_vector",
         "linalg.dominant_right_singular_vector", direction),
        (precoding, "lq_decompose", "linalg.lq_decompose", None),
        (precoding, "pseudo_inverse", "linalg.pseudo_inverse", None),
        (sweeps, "build_precoders", "precoding.build_precoders", None),
        (sweeps, "sum_rate_samples", "rates.sum_rate_samples", sinr_batch),
        (sweeps, "ergodic_sum_rate", "sweeps.ergodic_sum_rate", cell),
        (sweeps, "optimize_power_split", "sweeps.optimize_power_split", None),
        (sweeps, "average_sum_rate", "sweeps.average_sum_rate", None),
        (cli, "write_sweep_outputs", "cli.write_sweep_outputs", None),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, keyed by metric name."""
    s = tracer.stats
    draws = s("channel.draw_error_ensemble")
    direction = s("linalg.dominant_right_singular_vector")
    builds = s("precoding.build_precoders")
    sinr = s("rates.sum_rate_samples")
    realizations = tracer.counters.get("realizations", 0)
    searches = s("sweeps.optimize_power_split").calls
    return {
        "channel.draw_error_ensemble.calls": draws.calls,
        "channel.draw_error_ensemble.self_s": draws.self_s,
        "channel.stream_rng.calls": tracer.counters.get("stream_rng_calls", 0),
        "channel.error_draw.redundancy": _ratio(
            draws.calls, tracer.n_distinct("error_draw_keys")),
        "channel.channel_draw.redundancy": _ratio(
            tracer.counters.get("channel_draws", 0), tracer.n_distinct("channels")),
        "linalg.dominant_right_singular_vector.calls": direction.calls,
        "linalg.dominant_right_singular_vector.self_s": direction.self_s,
        "linalg.dominant_right_singular_vector.us_per_call": 1e6 * _ratio(
            direction.self_s, direction.calls),
        "linalg.direction.redundancy": _ratio(
            direction.calls, tracer.n_distinct("direction_channels")),
        "linalg.lq_decompose.calls": s("linalg.lq_decompose").calls,
        "linalg.lq_decompose.self_s": s("linalg.lq_decompose").self_s,
        "linalg.pseudo_inverse.calls": s("linalg.pseudo_inverse").calls,
        "linalg.pseudo_inverse.self_s": s("linalg.pseudo_inverse").self_s,
        "precoding.build_precoders.calls": builds.calls,
        "precoding.build_precoders.self_s": builds.self_s,
        "precoding.builds_per_channel_cell": _ratio(
            builds.calls, tracer.counters.get("channel_cells", 0)),
        "rates.sum_rate_samples.calls": sinr.calls,
        "rates.sum_rate_samples.self_s": sinr.self_s,
        "rates.realizations": realizations,
        "rates.ns_per_realization": 1e9 * _ratio(sinr.self_s, realizations),
        "sweeps.ergodic_sum_rate.calls": s("sweeps.ergodic_sum_rate").calls,
        "sweeps.ergodic_sum_rate.self_s": s("sweeps.ergodic_sum_rate").self_s,
        "sweeps.optimize_power_split.self_s": s("sweeps.optimize_power_split").self_s,
        "sweeps.average_sum_rate.self_s": s("sweeps.average_sum_rate").self_s,
        "sweeps.split_search.useful_ratio": _ratio(searches, tracer.edge_calls(
            "sweeps.optimize_power_split", "sweeps.average_sum_rate")),
        "cli.write_sweep_outputs.self_s": s("cli.write_sweep_outputs").self_s,
        "trace.coverage": _ratio(tracer.root_s, traced_wall_s),
    }


def derived_counts(w: Workload) -> dict[str, float]:
    """Counts derived by hand for the sweep engine of rsthp 0.1.0.

    Per cell every channel is drawn once; a base scheme builds once per
    channel, an RS scheme once per split point, and each nonzero split
    recomputes the common-stream direction. A faster engine is expected
    to move these; they are printed beside the traced counts, not gated.
    """
    n_x = len(w.x_values)
    n_rs = sum(1 for tag in w.schemes if tag.endswith("-rs") or tag == "rs-linear")
    n_base = len(w.schemes) - n_rs
    builds_per_channel_x = n_rs * SPLIT_GRID_POINTS + n_base
    return {
        "linalg.direction.redundancy": n_rs * n_x * (SPLIT_GRID_POINTS - 1),
        "channel.error_draw.redundancy": 0 if w.perfect else w.n_cells,
        "channel.channel_draw.redundancy": w.n_cells,
        "precoding.builds_per_channel_cell": builds_per_channel_x / len(w.schemes),
        "rates.realizations": w.n_channels * n_x * builds_per_channel_x
        * (1 if w.perfect else w.n_error_samples),
    }
