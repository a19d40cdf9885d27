#!/usr/bin/env python3
"""Builds wormsim_bench and runs the end-to-end benchmark (README.md here).

One workload, one process (the form BENCHMARK.json's "command" names):

    python3 bench/e2e/run_bench.py --workload campaign-cold --seed 1 \\
        --seconds 15 --trace 0

  prints, as its last stdout line, {"correct", "attempted", "failed",
  "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
  of a traced run with --trace 1. Exits 1 when a correctness gate fails.

N sets of every workload, each workload in its own process, the workload
order alternating between sets and set i using seed --seed + i:

    python3 bench/e2e/run_bench.py --sets 5 --out before.json

  prints every metric with its unit, median and quartiles.

Comparison of two --out files under the bounds in BENCHMARK.json:

    python3 bench/e2e/run_bench.py --compare before.json after.json

  prints one row per (workload, end-to-end metric) labelled better, worse,
  unchanged or unresolved; exits 1 when any row is worse.

Smoke check (registered as the bench_e2e_smoke test of this directory's
CMake project): every workload at --scale smoke, untraced and traced;
asserts that every metric BENCHMARK.json names is emitted and every gate
passes:

    python3 bench/e2e/run_bench.py --smoke

wormsim_bench is built with CMake into $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e), relative to the repository root. Temporary files of the
build and of the runs stay in that directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
RUN_TIMEOUT_S = 170


def log(*args) -> None:
    print(*args, file=sys.stderr, flush=True)


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2e"


def temp_env(directory: Path) -> dict:
    """The environment with TMPDIR pointed into `directory`."""
    tmp = directory / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return {**os.environ, "TMPDIR": str(tmp)}


def build() -> Path:
    """Configures (once) and builds wormsim_bench; CMake's output goes to
    stderr."""
    out = build_dir()
    env = temp_env(out)
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(out), "--target", "wormsim_bench",
                    "-j", "4"], stdout=sys.stderr, check=True, env=env)
    return out / "wormsim_bench"


def run_workload(binary: Path, workload: str, seed: int, seconds: float,
               trace: bool, scale: str = "full") -> dict:
    """Runs one workload in its own process; returns wormsim_bench's JSON.

    Work files and traces go beside the binary, in its build directory.
    """
    work = binary.parent / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scale", scale, "--work-dir", str(work)]
    if trace:
        cmd += ["--trace", str(binary.parent / "traces")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=temp_env(binary.parent))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: wormsim_bench exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def check_metrics(result: dict, trace: bool) -> list[str]:
    """Names BENCHMARK.json expects that the run did not emit."""
    expected = PER_LAYER if trace else END_TO_END
    return [name for name in expected if name not in result["metrics"]]


def failed_gates(result: dict) -> list[str]:
    return [f"{g['name']}: {g['detail']}" for g in result["gates"]
            if not g["ok"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def single(args) -> int:
    result = run_workload(build(), args.workload, args.seed, args.seconds,
                          bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    missing = check_metrics(result, bool(args.trace))
    for line in failed_gates(result):
        log("gate failed:", line)
    for name in missing:
        log("metric missing:", name)
    correct = result["correct"] and not missing
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names
                    if n in result["metrics"]},
    }))
    return 0 if correct else 1


def sets(args) -> int:
    binary = build()
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    ok = True
    for s in range(args.sets):
        order = WORKLOADS if s % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            result = run_workload(binary, workload, args.seed + s,
                                  args.seconds, bool(args.trace))
            gates = failed_gates(result)
            ok = ok and not gates and not check_metrics(result,
                                                        bool(args.trace))
            log(f"set {s} {workload} seed {args.seed + s}: "
                f"{'ok' if not gates else 'GATES FAILED ' + '; '.join(gates)}")
            runs[workload].append({k: v["value"]
                                   for k, v in result["metrics"].items()})
    units = {m["name"]: m["unit"] for m in [*END_TO_END.values(),
                                             *PER_LAYER.values()]}
    print(f"{'workload':<16} {'metric':<34} {'unit':<12} "
          f"{'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for workload, rows in runs.items():
        for name in rows[0]:
            values = [r[name] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0
            print(f"{workload:<16} {name:<34} {units.get(name, ''):<12} "
                  f"{med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "runs": runs}, indent=1))
    return 0 if ok else 1


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Labels B against A; also returns B's median change, signed so that
    positive is better.

    worse: B's median is worse than A's by more than the bound. better: B's
    median is better by more than A's quartile spread and B wins at least
    nine tenths of the paired runs. When A's own spread exceeds the bound
    the row is unresolved unless every B run beats (or loses to) every A run.
    """
    sign = 1 if better == "higher" else -1
    q1, ma, q3 = quartiles(a)
    mb = statistics.median(b)
    change = sign * (mb - ma) / ma if ma else 0.0
    if ma and (q3 - q1) / ma > bound:
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better", change
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if abs(mb - ma) > (q3 - q1) and change > 0 and wins >= 0.9 * len(a):
        return "better", change
    return "unchanged", change


def compare(args) -> int:
    a, b = (json.loads(Path(p).read_text())["runs"] for p in args.compare)
    print(f"{'workload':<16} {'metric':<14} {'unit':<6} {'A median':>12} "
          f"{'B median':>12} {'change':>8} {'bound':>6}  verdict")
    any_worse = False
    for workload in [w for w in a if w in b]:
        for name, spec in END_TO_END.items():
            va = [r[name] for r in a[workload] if name in r]
            vb = [r[name] for r in b[workload] if name in r]
            if not va or not vb:
                continue
            label, change = verdict(va, vb, spec["better"], spec["bound"])
            any_worse = any_worse or label == "worse"
            print(f"{workload:<16} {name:<14} {spec['unit']:<6} "
                  f"{statistics.median(va):>12.6g} "
                  f"{statistics.median(vb):>12.6g} {change:>+8.2%} "
                  f"{spec['bound']:>6.0%}  {label}")
    return 1 if any_worse else 0


def smoke(args) -> int:
    binary = Path(args.binary) if args.binary else build()
    problems = []
    for trace in (False, True):
        for workload in WORKLOADS:
            result = run_workload(binary, workload, 1, 0.2, trace, "smoke")
            problems += [f"{workload} trace={int(trace)}: gate {g}"
                         for g in failed_gates(result)]
            problems += [f"{workload} trace={int(trace)}: missing metric {m}"
                         for m in check_metrics(result, trace)]
    for p in problems:
        log(p)
    log(f"bench_e2e_smoke: {len(WORKLOADS)} workloads x 2 trace modes, "
        f"{'OK' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--sets", type=int)
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    mode.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the --sets results here")
    parser.add_argument("--binary", help="prebuilt wormsim_bench (--smoke)")
    args = parser.parse_args()
    try:
        if args.workload:
            return single(args)
        if args.sets:
            return sets(args)
        if args.compare:
            return compare(args)
        return smoke(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as error:
        log(f"run_bench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
