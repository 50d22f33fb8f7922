"""growthlab benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload referee|closed_form|interactive \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; growthlab is imported from `src/`.
Every pass runs single-threaded in a fresh interpreter, one after another
(closed loop, one client). A run makes a fixed number of passes,
`--seconds` over the workload's typical pass time (`PASS_S`), so that its
`attempted` and `failed` counts do not depend on the host. Outputs are
checked after each pass's timed region.

Pass times are reported in reference seconds (see speed.py): each untraced
pass samples the host's speed with a fixed chunk of Python work, and its
times are scaled by that speed, so that the host's slow and fast spells
cancel out. `setup_s` is scaled by the run's median speed factor.

With `--trace 0` the last stdout line reports the end-to-end metrics:
`setup_s` (in-process import of the package, median over fresh imports
spread over the run), the medians over passes of `run_s`, `cpu_s`,
`ops_per_s` and `peak_rss_mb`, and `op_p50_ms` and `op_tail_ms` over the ops
of all passes pooled. With `--trace 1` passes alternate untraced and traced,
and it reports the per-layer metrics of the traced passes (medians, in
measured seconds) plus the tracing overhead. Earlier stdout lines are a
human summary, with the measured wall times and speed factors; the full
record of every pass, with run metadata, goes to `perfbench/out/`, and the
spans of the last traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6  # at least this many fresh-interpreter imports a run, besides the passes' own
RUN_LIMIT_S = 170  # a run must end within 180 s
# typical seconds of one untraced pass, which set the number of passes in a
# run; a run rounds down, so that it stays near `--seconds`
PASS_S = {"referee": 10.0, "closed_form": 8.0, "interactive": 1.8}
PASS_ENV_DROP = ("GROWTHLAB_MAX_M",)

class BenchError(RuntimeError):
    pass


def _pass_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in PASS_ENV_DROP}
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: list[str], deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *args],
            cwd=ROOT,
            env=_pass_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read from `.git`; None without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metadata(seed: int) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "growthlab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes in a run: `seconds` of typical pass time, and the same on every run.

    A fixed count, not "until the time is up", so that runs of one seed
    attempt (and fail) the same ops whatever the host's speed. With tracing
    it counts untraced + traced rounds.
    """
    per_round = PASS_S[workload] * (2 if trace else 1)
    return max(1, int(seconds // per_round))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the passes of one run; returns the run record."""
    deadline = perf_counter() + RUN_LIMIT_S
    _child(["--setup-only"], deadline)  # writes the bytecode caches; untimed
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
    rounds = pass_count(workload, seconds, trace)
    probes = ceil(SETUP_PROBES / rounds)
    setups: list[dict] = []
    passes: list[dict] = []
    for _ in range(rounds):
        # set-up probes are spread over the run, next to the passes
        for _ in range(probes):
            setups.append(_child(["--setup-only"], deadline))
        base = ["--workload", workload, "--seed", str(seed)]
        passes.append(_child(base + ["--trace", "0"], deadline))
        if trace:
            passes.append(_child(base + ["--trace", "1", "--spans", str(spans)], deadline))
    return {
        "meta": _metadata(seed),
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "setup_probes": setups,
        "passes": passes,
    }


def op_latency(passes: list[dict]) -> dict:
    """Median and tail latency of the ops of all passes pooled, in ms.

    The tail is the highest percentile that leaves at least ten ops of one
    pass beyond it (p97.0 for 336 ops per pass), read by nearest rank from
    the pooled ops. With ten ops or fewer per pass it is the slowest op: the
    median over passes of each pass's slowest op.
    """
    per_pass = len(passes[0]["latencies_ms"])
    pooled = sorted(x for p in passes for x in p["latencies_ms"])
    if per_pass > 10:
        pct = 100.0 * (per_pass - 10) / per_pass
        tail = pooled[ceil(len(pooled) * pct / 100) - 1]
    else:
        pct = 100.0
        tail = statistics.median(max(p["latencies_ms"]) for p in passes)
    return {
        "p50_ms": statistics.median(pooled),
        "tail_ms": tail,
        "tail_pct": pct,
        "ops_per_pass": per_pass,
        "ops": len(pooled),
    }


def scaled_latencies(p: dict) -> dict:
    """A pass's op latencies in reference milliseconds."""
    speeds = (p["speed"] if s is None else s for s in p["op_speeds"])
    return {"latencies_ms": [x * s for x, s in zip(p["latencies_ms"], speeds)]}


def setup_seconds(record: dict, passes: list[dict]) -> float:
    """Median import time of the set-up probes and passes, in reference seconds.

    A fresh import (about 60 ms) is too short to sample the host's speed
    during it, so the median is scaled by the run's median speed factor,
    which takes out the host's drift from one run to the next.
    """
    imports = [r["setup_s"] for r in record["setup_probes"] + record["passes"]]
    return statistics.median(imports) * statistics.median(p["speed"] for p in passes)


def end_to_end(record: dict) -> dict[str, float]:
    passes = [p for p in record["passes"] if not p["traced"]]
    latency = op_latency([scaled_latencies(p) for p in passes])
    return {
        "setup_s": setup_seconds(record, passes),
        "run_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
        "cpu_s": statistics.median(p["cpu_wall_s"] * p["speed"] for p in passes),
        "ops_per_s": statistics.median(
            (p["attempted"] - p["failed"]) / (p["wall_s"] * p["speed"]) for p in passes
        ),
        "op_p50_ms": latency["p50_ms"],
        "op_tail_ms": latency["tail_ms"],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(record: dict) -> dict[str, float]:
    """Medians over the traced passes, in measured (not reference) seconds."""
    traced = [p for p in record["passes"] if p["traced"]]
    plain = [p for p in record["passes"] if not p["traced"]]
    names = traced[0]["layers"]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    traced_run = statistics.median(p["wall_s"] for p in traced)
    plain_run = statistics.median(p["wall_s"] for p in plain)
    out["trace.traced_run_s"] = traced_run
    out["trace.untraced_run_s"] = plain_run
    out["trace.overhead_s"] = traced_run - plain_run
    return out


def _units(names) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: units[name] for name in names}


def correctness(record: dict) -> tuple[bool, list[str]]:
    """No wrong output, no failure but the known defect, identical passes.

    The known zero-multiplicity CLI error is counted in `failed` and leaves
    `correct` true; any other failed or wrong op makes it false.
    """
    problems = []
    for p in record["passes"]:
        if p["wrong"]:
            problems.append(f"{p['wrong']} ops gave a wrong output")
        problems.extend(p["problems"])
    digests = {p["digest"] for p in record["passes"]}
    if len(digests) != 1:
        problems.append(f"passes of one seed disagree: {sorted(digests)}")
    return not problems, problems


def summary_lines(record: dict, metrics: dict, units: dict) -> list[str]:
    passes = record["passes"]
    first = passes[0]
    plain = [p for p in passes if not p["traced"]]
    lat = op_latency(plain)
    meta = record["meta"]
    lines = [
        f"workload={record['workload']} seed={meta['seed']} passes={len(passes)} "
        f"commit={meta['commit']} source={meta['source_sha256'][:12]} "
        f"python={meta['python']} nproc={meta['nproc']}",
        f"digest={first['digest']}",
        f"op latency: p50 and p{lat['tail_pct']:.4g} of {lat['ops']} ops "
        f"({lat['ops_per_pass']} per pass)",
        f"failed ops: {first['failed']}/{first['attempted']} per pass "
        f"({first['known_defect']} are the known zero-multiplicity CLI error)",
        f"repeat share: {first['repeat_share']:.4f} of {first['repeat_base']} ops "
        "that name a (family, m) repeat an earlier one in the pass",
        "loadavg per pass (start, end): "
        + " ".join(f"({p['loadavg_start']}, {p['loadavg_end']})" for p in passes),
        "measured wall s per untraced pass: "
        + " ".join(f"{p['wall_s']:.3f}" for p in plain),
        "host speed factor per untraced pass: "
        + " ".join(f"{p['speed']:.3f}" for p in plain),
    ]
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "growthlab" / "__init__.py").is_file():
        print(f"error: no growthlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(record) if args.trace else end_to_end(record)
    units = _units(metrics)
    correct, problems = correctness(record)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    for line in summary_lines(record, metrics, units) + problems:
        print(line)
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in record["passes"]),
        "failed": sum(p["failed"] for p in record["passes"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
