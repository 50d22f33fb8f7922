"""One cold pass of one workload, in the interpreter that runs this file.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 [--spans PATH]
    python3 perfbench/passrun.py --setup-only

Prints one JSON record as its last line of stdout. `run.py` starts a fresh
interpreter for every pass, so the oracle's caches start empty as they do
for every `growthlab verify` user; the pass asserts that before timing.
Times in the record are measured seconds, net of the host-speed sampler's
chunks; `speed` is the factor that turns them into reference seconds
(speed.py).
"""

import os
import sys
from time import perf_counter, process_time

# The package import is timed before the runner imports anything of its own
# (argparse, json, hashlib, pathlib), so it pays for every module growthlab
# needs that a bare interpreter has not loaded yet.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_start = perf_counter()
import growthlab  # noqa: E402
import growthlab.cli  # noqa: E402,F401  (the CLI pulls in verify and the oracle)

SETUP_S = perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _loadavg() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


class GuardError(RuntimeError):
    pass


def _cold_start_guard(traced: bool) -> None:
    oracle = layertrace.layer_modules()["oracle"]
    for name in layertrace.ORACLE_CACHED:
        size = getattr(oracle, name).cache_info().currsize
        if size != 0:
            raise GuardError(f"oracle.{name} cache holds {size} entries before timing")
    if traced:
        left = layertrace.unwrapped_originals()
        if left:
            raise GuardError(f"unwrapped bindings after install: {left}")
    else:
        wrapped = layertrace.wrapped_bindings()
        if wrapped:
            raise GuardError(f"wrappers present in an untraced pass: {wrapped}")


def run_pass(workload: str, seed: int, traced: bool, spans_path: str | None) -> dict:
    ops = workloads.generate(workload, seed)
    tracer = undo = None
    if traced:
        tracer = layertrace.Tracer()
        undo = layertrace.install(tracer)
    _cold_start_guard(traced)

    outputs = []
    latencies: list[float] = []
    op_speeds: list[float | None] = []
    marks: list[tuple[float, int]] = []
    # untraced passes run the host-speed sampler; its chunks are taken out of
    # every time below. Traced passes run without it, so that spans hold
    # growthlab's time only.
    sampler = speed.Sampler() if not traced else None

    def lap() -> None:
        if sampler:
            marks.append((perf_counter() - sampler.spent, len(sampler.rates)))
        else:
            marks.append((perf_counter(), 0))

    load_start = _loadavg()
    with sampler or contextlib.nullcontext():
        cpu_start = process_time()
        wall_start = perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
                tracer.active = True
            marks.clear()
            lap()
            try:
                output, exc = workloads.run_op(growthlab, op, lap), None
            except Exception as error:  # a failed op is counted, not fatal
                output, exc = None, error
            lap()
            if tracer is not None:
                tracer.active = False
            for (t0, i0), (t1, i1) in zip(marks, marks[1:]):
                latencies.append(t1 - t0)
                op_speeds.append(sampler.speed(i0, i1) if i1 - i0 >= speed.OP_SAMPLES else None)
            outputs.append((output, exc))
        wall_s = perf_counter() - wall_start
        cpu_s = process_time() - cpu_start
    if sampler:
        wall_s -= sampler.spent
        cpu_s -= sampler.spent_cpu
        factor = sampler.speed()
    else:
        factor = None
    load_end = _loadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = wrong = known_defect = 0
    digest = hashlib.sha256()
    problems = []
    for op, (output, exc) in zip(ops, outputs):
        status, text, detail = workloads.check_op(growthlab, op, output, exc)
        weight = workloads.op_count(op)
        attempted += weight
        digest.update(text.encode())
        digest.update(b"\0")
        if status == workloads.OK:
            continue
        failed += weight
        if status == workloads.WRONG:
            wrong += weight
        if workloads.is_known_defect(op, output):
            known_defect += weight
        elif len(problems) < 20:
            problems.append(detail)
    share, share_base = workloads.repeat_share(ops)
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "cpu_wall_s": cpu_s,
        "speed": factor,
        "samples": len(sampler.rates) if sampler else 0,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [1e3 * x for x in latencies],
        "op_speeds": op_speeds,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "known_defect": known_defect,
        "problems": problems,
        "digest": digest.hexdigest(),
        "repeat_share": share,
        "repeat_base": share_base,
        "loadavg_start": load_start,
        "loadavg_end": load_end,
    }
    if tracer is not None:
        layers = layertrace.layer_metrics(tracer)
        self_total = sum(layers[f"{layer}.self_s"] for layer in layertrace.LAYERS)
        layers["trace.unattributed_s"] = wall_s - self_total
        record["layers"] = layers
        layertrace.uninstall(undo)
        if spans_path:
            tracer.write_spans(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        record = {"setup_s": SETUP_S}
    else:
        try:
            record = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
        except GuardError as exc:
            print(f"cold-start guard: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
