"""Tests of the benchmark's span tracer and output checks.

    PYTHONPATH=src python3 -m pytest bench/tests
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from checks import check_output, load_reference  # noqa: E402
from layers import targets  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from rsthp import cli  # noqa: E402


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", lambda deep: leaf() if deep else None)
    outer = tracer.wrap("outer", lambda: (inner(False), inner(True)))

    outer()

    # outer [0, 10] holds inner [1, 3] and inner [4, 8]; the second
    # inner holds leaf [5, 6].
    assert (tracer.stats("outer").total_s, tracer.stats("outer").self_s) == (10.0, 4.0)
    assert (tracer.stats("inner").total_s, tracer.stats("inner").self_s) == (6.0, 5.0)
    assert (tracer.stats("leaf").total_s, tracer.stats("leaf").self_s) == (1.0, 1.0)
    assert tracer.stats("inner").calls == 2
    assert tracer.root_s == 10.0
    assert tracer.edge_calls("outer", "inner") == 2
    assert tracer.edge_calls("inner", "leaf") == 1


def test_patched_names_are_restored_after_an_error():
    originals = [(module, name, getattr(module, name)) for module, name, *_ in targets()]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(targets()):
            assert all(getattr(m, n) is not f for m, n, f in originals)
            raise RuntimeError("inside the traced block")
    assert all(getattr(m, n) is f for m, n, f in originals)


def test_traced_run_writes_byte_identical_output(tmp_path):
    argv = [
        "sweep-snr", "--schemes", "zf,dthp-rs", "--channels", "2",
        "--error-samples", "3", "--split-grid", "0:0.5:0.5",
        "--snr-db", "10,20", "--error-variance", "0.2",
    ]
    plain, traced = tmp_path / "plain.csv", tmp_path / "traced.csv"
    assert cli.main(argv + ["--out", str(plain)]) == 0
    tracer = Tracer()
    with tracer.patched(targets()):
        assert cli.main(argv + ["--out", str(traced)]) == 0

    assert plain.read_bytes() == traced.read_bytes()
    assert (tmp_path / "plain.csv.config.json").read_bytes() == (
        tmp_path / "traced.csv.config.json"
    ).read_bytes()
    # 2 schemes x 2 SNRs x 2 channels; dthp-rs builds at both splits.
    assert tracer.stats("precoding.build_precoders").calls == 2 * 2 + 2 * 2 * 2
    assert tracer.stats("linalg.dominant_right_singular_vector").calls == 2 * 2
    assert tracer.counters["channel_draws"] == 8
    assert tracer.stats("cli.write_sweep_outputs").calls == 1


def _reference_record(name):
    reference = load_reference(name)
    cells = [[s, x, esr, 0.1, split] for s, x, esr, split in reference["cells"]]
    return reference, {"cells": cells, "config_json": reference["config_json"]}


def test_checks_pass_on_the_reference_and_flag_each_defect():
    w = WORKLOADS["perfect-snr"]
    reference, record = _reference_record(w.name)
    clean = check_output(w, reference["seed"], record, reference)
    assert (clean["failed"], clean["problems"], clean["esr_max_abs_dev"]) == (0, [], 0.0)

    broken = copy.deepcopy(record)
    rows = {(c[0], c[1]): c for c in broken["cells"]}
    rows["zf", 0.0][2] += 2e-9  # off the reference
    rows["dthp-rs", 30.0][2] = rows["dthp", 30.0][2] - 1.0  # RS below its base
    rows["cthp", 30.0][3] = float("nan")  # non-finite CI
    rows["zf-dpc-rs", 0.0][4] = 0.97  # split off the grid
    broken["cells"].remove(rows["cthp-rs", 0.0])  # missing cell
    result = check_output(w, reference["seed"], broken, reference)
    assert result["attempted"] == w.n_cells
    assert result["failed"] == 5

    # Away from the reference seed only the seed-free checks apply.
    other = check_output(w, 7, broken, reference)
    assert other["failed"] == 4
    assert other["esr_max_abs_dev"] is None


def test_checks_flag_a_changed_configuration():
    w = WORKLOADS["fixed-error-cli"]
    reference, record = _reference_record(w.name)
    config = json.loads(record["config_json"])
    config["n_channels"] += 1
    record["config_json"] = json.dumps(config)
    assert check_output(w, 7, record, reference)["problems"]
