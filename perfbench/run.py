#!/usr/bin/env python3
"""End-to-end benchmark of the IR-Fusion library.

Run from the root of a source tree:

    python3 perfbench/run.py --workload cold_signoff --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

It builds the benchmark executable from source (into .bench_build/), trains
the shared model once per build tree, runs one workload and prints, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics. The line before it
records the environment (nproc, IRF_THREADS, SIMD tier, build type).

Exit status: 0 on a correct run, 1 when an output failed its correctness
check, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
CMAKE_DIR = BUILD_ROOT / "cmake"
BINARY = CMAKE_DIR / "perfbench" / "irf_perfbench"
MODEL = BUILD_ROOT / "model" / "irf_perfbench_model.irf"
RUNS = BUILD_ROOT / "runs"

THREADS = "4"            # IRF_THREADS for every run, recorded with the result
RUN_TIMEOUT_S = 170      # one workload run, after the build
JOBS = "4"               # parallel compile jobs
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def program_env():
    """Pinned environment: fixed thread count, program defaults otherwise."""
    env = dict(os.environ)
    for var in ("IRF_TRACE", "IRF_METRICS", "IRF_SIMD", "IRF_DEBUG_CHECKS",
                "IRF_SCALE", "IRF_SEED", "IRF_RESIDUAL_CURVES"):
        env.pop(var, None)
    env["IRF_THREADS"] = THREADS
    env["IRF_LOG_LEVEL"] = "quiet"
    return env


def run_logged(cmd, log_path, timeout=None):
    with open(log_path, "w") as out:
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-30:]
        raise BenchError(f"{' '.join(map(str, cmd[:3]))} failed:\n" + "\n".join(tail))


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no IR-Fusion source tree at {ROOT}")
    if not shutil.which("cmake"):
        raise BenchError("cmake not found")
    BUILD_ROOT.mkdir(exist_ok=True)
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR),
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'project_hook.cmake'}"],
                   BUILD_ROOT / "configure.log")
    run_logged(["cmake", "--build", str(CMAKE_DIR), "--target", "irf_perfbench",
                "-j", JOBS], BUILD_ROOT / "build.log")
    if not MODEL.is_file():
        MODEL.parent.mkdir(exist_ok=True)
        log("training the shared model (once per build tree)")
        run_logged([str(BINARY), "--prepare-model", str(MODEL)],
                   BUILD_ROOT / "model.log")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_workload(workload, seed, seconds, trace, extra=()):
    """Run the executable once; returns (exit code, env line, result, work dir)."""
    work = RUNS / workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--model", str(MODEL), "--work-dir", str(work), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              env=program_env(), timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work / workload, ignore_errors=True)  # generated SPICE decks
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode == 2 or len(lines) < 2:
        raise BenchError(f"{workload} run failed (exit {proc.returncode})")
    return proc.returncode, lines[-2], json.loads(lines[-1]), work


def check_result(result, expected_units):
    """The result object carries exactly the declared metrics, with units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise BenchError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise BenchError("attempted must be a positive integer")
    if not result["correct"]:
        return
    metrics = result["metrics"]
    if set(metrics) != set(expected_units):
        missing = sorted(set(expected_units) - set(metrics))
        extra = sorted(set(metrics) - set(expected_units))
        raise BenchError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, m in metrics.items():
        if m.get("unit") != expected_units[name] or not isinstance(m.get("value"), (int, float)):
            raise BenchError(f"metric {name}: {m}")


def selftest():
    """Tiny smoke runs of every workload plus the fault-injection checks."""
    e2e, per_layer, workloads = declared_metrics()
    failures = []

    def expect(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    listed = subprocess.run([str(BINARY), "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    table = {"end_to_end": {}, "per_layer": {}}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        table[kind][name] = unit
    expect(table["end_to_end"] == e2e and table["per_layer"] == per_layer,
           "executable metric table matches BENCHMARK.json")
    for name, unit in {**e2e, **per_layer}.items():
        expect(bool(NAME_RE.match(name)) and bool(UNIT_RE.match(unit)),
               f"metric {name} has a valid name and unit")
    expect(workloads == ["cold_signoff", "serve_mix", "train_fit"], "declared workloads")

    for w in workloads:
        for trace, units in ((0, e2e), (1, per_layer)):
            code, _, result, _ = run_workload(w, 1, 1, trace, ["--smoke"])
            try:
                check_result(result, units)
                shape_ok = True
            except BenchError as e:
                log(str(e))
                shape_ok = False
            expect(code == 0 and result["correct"] and shape_ok,
                   f"{w} trace={trace}: correct, every declared metric with its unit")
        code, _, result, _ = run_workload(w, 1, 1, 0, ["--smoke", "--inject", "corrupt-map"])
        expect(code == 1 and not result["correct"] and result["failed"] >= 1
               and result["metrics"] == {},
               f"{w}: a corrupted map is caught by the gate and counted as failed")

    code, _, result, work = run_workload("serve_mix", 1, 2, 0,
                                         ["--smoke", "--inject", "gen-stall"])
    notes = json.loads((work / "report_serve_mix.json").read_text())["notes"]
    expect(code == 0 and notes.get("stall_requests", 0) >= 1
           and notes.get("stall_min_excess_ms", -1.0) >= 0.0,
           "serve_mix: a generator stall is charged to the requests scheduled during it")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        build()
        if args.selftest:
            return selftest()
        e2e, per_layer, workloads = declared_metrics()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; one of {workloads}")
        code, env_line, result, _ = run_workload(args.workload, args.seed, args.seconds,
                                                 args.trace)
        check_result(result, per_layer if args.trace else e2e)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 2
    print(env_line)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
