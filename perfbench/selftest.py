"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

They run one untraced and one traced `interactive` pass in-process (a few
seconds); no test runs the referee workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
INTERACTIVE_OPS = sum(count for _, count in workloads.INTERACTIVE_MIX)


@pytest.fixture(scope="module")
def passes():
    """An untraced, then a traced interactive pass, in this process."""
    plain = passrun.run_pass("interactive", 3, traced=False, spans_path=None)
    tracer_box = {}
    original_install = layertrace.install

    def keep(tracer):
        tracer_box["tracer"] = tracer
        return original_install(tracer)

    layertrace.install = keep
    try:
        traced = passrun.run_pass("interactive", 3, traced=True, spans_path=None)
    finally:
        layertrace.install = original_install
    return plain, traced, tracer_box["tracer"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", ["closed_form", "interactive"])
def test_seeds_give_different_inputs_of_equal_size(workload):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a != b
    assert sum(map(workloads.op_count, a)) == sum(map(workloads.op_count, b))


def test_closed_form_strata_fix_the_work_per_seed():
    def shape(seed):
        out = []
        for op in workloads.generate("closed_form", seed):
            for lo, hi, ns in workloads.CLOSED_FORM_STRATA[op.family]:
                if lo <= op.m <= hi:
                    out.append((op.family, lo, op.args[1], op.args[0][0]))
        return sorted(out)

    assert shape(1) == shape(2) == shape(3)
    assert len(shape(1)) == len(workloads.generate("closed_form", 1))


def test_closed_form_mo_draws_mirror_pro():
    ops = workloads.generate("closed_form", 5)
    for lo, hi, _ in workloads.CLOSED_FORM_STRATA["pro"]:
        pro = [op.m for op in ops if op.family == "pro" and lo <= op.m <= hi]
        mo = [op.m for op in ops if op.family == "mo" and lo <= op.m <= hi]
        assert sorted(lo + hi - m for m in pro) == sorted(mo)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) and m["better"] in ("higher", "lower")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_benchmark_json_names():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_are_declared(passes):
    plain, traced, _ = passes
    record = {"setup_probes": [{"setup_s": 0.05}], "passes": [plain, traced]}
    e2e = run.end_to_end(record)
    layers = run.per_layer(record)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for name in list(e2e) + list(layers):
        assert NAME.fullmatch(name), name
    assert all(value > 0 for value in e2e.values())


def test_install_wraps_every_binding_and_uninstall_restores():
    modules = layertrace.layer_modules()
    oracle, fusion, verify, cli = (modules[k] for k in ("oracle", "fusion", "verify", "cli"))
    before = {
        "oracle.mat_mul": oracle.mat_mul,
        "fusion.inverse": fusion.inverse,
        "verify.inverse": verify.inverse,
        "cli.fusion_matrix": cli.fusion_matrix,
        "suite": verify._SUITE_FNS["tables"],
        "action": oracle.CellModule.action,
    }
    assert layertrace.wrapped_bindings() == []
    undo = layertrace.install(layertrace.Tracer())
    try:
        assert layertrace.unwrapped_originals() == []
        after = {
            "oracle.mat_mul": oracle.mat_mul,
            "fusion.inverse": fusion.inverse,
            "verify.inverse": verify.inverse,
            "cli.fusion_matrix": cli.fusion_matrix,
            "suite": verify._SUITE_FNS["tables"],
            "action": oracle.CellModule.action,
        }
        for key, value in after.items():
            assert value.__perfbench_original__ is before[key], key
        assert oracle.cell_module.cache_info().currsize >= 0
    finally:
        layertrace.uninstall(undo)
    assert layertrace.wrapped_bindings() == []
    assert oracle.mat_mul is before["oracle.mat_mul"]
    assert verify._SUITE_FNS["tables"] is before["suite"]
    assert oracle.CellModule.action is before["action"]


def test_untraced_pass_is_unwrapped_and_checked(passes):
    plain, _, _ = passes
    assert not plain["traced"] and "layers" not in plain
    assert plain["wrong"] == 0
    assert plain["failed"] == plain["known_defect"]
    assert plain["attempted"] == INTERACTIVE_OPS


def test_traced_self_times_add_up_to_run_s(passes):
    plain, traced, _ = passes
    layers = traced["layers"]
    self_total = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    overhead = traced["wall_s"] - plain["wall_s"]
    gap = traced["wall_s"] - self_total
    assert gap == pytest.approx(layers["trace.unattributed_s"])
    assert 0 <= gap <= max(abs(overhead), 0.05 * traced["wall_s"])
    assert layers["cli.calls"] == INTERACTIVE_OPS
    assert layers["oracle.self_s"] == 0 and layers["diagrams.green_data.self_s"] == 0
    assert plain["digest"] == traced["digest"]


def test_untraced_pass_samples_host_speed(passes):
    plain, traced, _ = passes
    assert plain["samples"] > 10 and plain["speed"] > 0
    assert traced["samples"] == 0 and traced["speed"] is None
    assert 0 < plain["cpu_wall_s"] <= plain["wall_s"] * 1.05
    assert sum(plain["latencies_ms"]) <= 1e3 * plain["wall_s"]
    # interactive ops are far shorter than an op that gets its own factor
    assert len(plain["op_speeds"]) == INTERACTIVE_OPS and set(plain["op_speeds"]) == {None}
    scaled = run.scaled_latencies({"speed": 2.0, "op_speeds": [None, 0.5], "latencies_ms": [1.0, 4.0]})
    assert scaled["latencies_ms"] == [2.0, 2.0]


def test_sampler_takes_its_chunks_out_and_restores_the_handler():
    import signal
    from time import perf_counter

    before = signal.getsignal(signal.SIGALRM)
    start = perf_counter()
    with speed.Sampler() as sampler:
        while perf_counter() - start < 0.3:
            speed.chunk()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.rates) >= 5
    assert 0 < sampler.spent < perf_counter() - start
    assert sampler.speed() > 0


def test_pass_count_is_fixed_by_seconds_not_by_the_host():
    for workload in workloads.WORKLOADS:
        n = run.pass_count(workload, SPEC["run_seconds"], trace=False)
        assert n >= 1 and n * run.PASS_S[workload] <= 1.5 * SPEC["run_seconds"]
        assert 1 <= run.pass_count(workload, SPEC["run_seconds"], trace=True) <= n
    assert run.pass_count("referee", 1, trace=False) == 1


def test_traced_errors_match_known_defects(passes):
    _, traced, _ = passes
    layers = traced["layers"]
    assert traced["known_defect"] > 0
    assert layers["growth.errors"] == traced["known_defect"]
    assert layers["cli.errors"] == traced["known_defect"]
    others = [layer for layer in layertrace.LAYERS if layer not in ("growth", "cli")]
    assert all(layers[f"{layer}.errors"] == 0 for layer in others)


def test_each_raised_exception_counts_once():
    tracer = layertrace.Tracer()
    tracer.active = True

    def inner():
        raise ValueError("inner")

    def outer():
        return tracer.call("tables.inner", "tables", inner, None, (), {})

    for _ in range(50):
        with pytest.raises(ValueError):
            tracer.call("growth.outer", "growth", outer, None, (), {})
    assert tracer.errors["tables"] == 50 and tracer.errors["growth"] == 0


def test_spans_nest(passes):
    _, _, tracer = passes
    count = len(tracer.span_start)
    assert count > 0
    for k in range(count):
        parent = tracer.span_parent[k]
        assert tracer.span_start[k] <= tracer.span_end[k]
        assert 0 <= tracer.span_op[k] < INTERACTIVE_OPS
        if parent >= 0:
            assert parent < k
            assert tracer.span_start[parent] <= tracer.span_start[k]
            assert tracer.span_end[k] <= tracer.span_end[parent]
            assert tracer.span_op[parent] == tracer.span_op[k]


def test_tail_is_highest_percentile_with_ten_beyond():
    one = {"latencies_ms": [float(k) for k in range(1, 401)]}
    q = run.op_latency([one])
    assert q["tail_pct"] == 97.5 and q["tail_ms"] == 390 and q["p50_ms"] == 200.5
    q = run.op_latency([one, one])
    assert q["ops"] == 800 and q["tail_ms"] == 390
    q = run.op_latency([{"latencies_ms": [1.0, 2.0, 3.0, 4.0]}, {"latencies_ms": [1.0, 2.0, 3.0, 6.0]}])
    assert q["tail_pct"] == 100.0 and q["tail_ms"] == 5.0 and q["p50_ms"] == 2.5


def test_checks_reject_wrong_outputs():
    import growthlab

    verify_op = workloads.Op("verify", workloads.VERIFY_ARGV)
    empty = json.dumps({"checks": [], "failures": 0, "total": 0})
    assert workloads.check_op(growthlab, verify_op, (0, empty, ""), None)[0] == workloads.WRONG

    green = workloads.Op("green_data", (), "tl", 4)
    data = growthlab.green_data(growthlab.Family.TEMPERLEY_LIEB, 4)
    assert workloads.check_op(growthlab, green, data, None)[0] == workloads.OK
    bad = growthlab.GreenData(data.j_class_count, data.l_class_count, data.r_class_count, 2)
    assert workloads.check_op(growthlab, green, bad, None)[0] == workloads.WRONG

    query = workloads.Op("query", ("V1", 3), "pro", 6)
    result = workloads.run_op(growthlab, query, lambda: None)
    assert workloads.check_op(growthlab, query, result, None)[0] == workloads.OK
    result["power"] = (result["power"][0] + 1,) + tuple(result["power"][1:])
    assert workloads.check_op(growthlab, query, result, None)[0] == workloads.WRONG

    fusion = workloads.Op("fusion", ("fusion", "--format", "json"), "tl", 3)
    assert workloads.check_op(growthlab, fusion, (0, "{not json", ""), None)[0] == workloads.WRONG


def test_half_diagram_counts():
    assert [workloads.half_diagram_count("mo", m) for m in range(6)] == [1, 2, 5, 13, 35, 96]
    assert workloads.half_diagram_count("tl", 7) == 35
    assert workloads.half_diagram_count("pro", 5) == 32


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "referee", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
