#!/usr/bin/env python3
"""Pipeline benchmark: builds the repository from source, generates one
workload's inputs from a seed, measures it and prints one JSON result line.

    python3 pipebench/run.py --workload ingest --seed 1 --trace 0
    python3 pipebench/run.py --steadiness --repeats 10 --sets 2 --workloads ingest

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) and each run's scratch files to .bench_run, both inside the
checkout. See pipebench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_sources():
    """The benchmark measures the program in this checkout; without its
    sources there is nothing to build, so fail before printing a result."""
    needed = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/sisg_serve.cc"]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        log("pipebench: the checkout lacks " + ", ".join(missing) +
            "; run from the root of a full checkout")
        sys.exit(2)


def build():
    """Configures once, then builds the driver and sisg_serve (a no-op when
    nothing changed). Returns the build directory."""
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "pipebench"
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "a") as logf:
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=logf, stderr=logf).returncode != 0:
                log(f"pipebench: cmake configure failed; see {build_log}")
                sys.exit(2)
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", str(out), "-j", jobs, "--target",
               "pipebench_driver", "tool_sisg_serve"]
        if subprocess.run(cmd, stdout=logf, stderr=logf).returncode != 0:
            log(f"pipebench: build failed; see {build_log}")
            sys.exit(2)
    return out


def conform(result, trace, spec, workload):
    """Checks the driver's metrics against BENCHMARK.json. A timed run must
    report every end-to-end metric. A traced run reports the layers its
    workload exercises; a layer it never calls did no work and is reported
    as 0, so every traced run carries every per-layer name."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - set(units))
    if extra:
        raise ValueError(f"{workload}: undeclared metrics {extra}")
    for name, unit in units.items():
        if name not in metrics:
            if not trace:
                raise ValueError(f"{workload}: missing metric {name}")
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError(f"{workload}: {name} unit "
                             f"{metrics[name]['unit']} != {unit}")
    result["metrics"] = {n: metrics[n] for n in units}
    return result


def run_driver(cmd):
    """Runs the driver in its own process group; on timeout the whole group
    (the driver and any server it started) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def run_once(build_dir, workload, seed, seconds, trace, spec, echo=True):
    """Generates inputs, measures, and returns (exit code, result dict or
    None, the driver's host tag line). Human-readable lines of the driver go
    to stdout when `echo`."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        log(f"pipebench: unknown workload {workload}; choose from {names}")
        return 2, None, ""
    driver = build_dir / "pipebench_driver"
    serve_bin = build_dir / "sisg" / "tools" / "sisg_serve"
    runs = ROOT / ".bench_run"
    work = runs / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", str(work)]
        rc, out, err = run_driver([str(driver), "gen"] + common)
        if rc != 0:
            log(f"pipebench: input generation failed:\n{out}{err}")
            return 1, None, ""
        rc, out, err = run_driver(
            [str(driver), "run"] + common +
            ["--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--serve_bin", str(serve_bin)])
        sys.stderr.write(err)
        lines = out.splitlines()
        host = next((l for l in lines if l.startswith("host:")), "")
        if echo:
            for line in lines[:-1]:
                print(line)
        try:
            result = conform(json.loads(lines[-1]), trace, spec, workload)
        except (IndexError, ValueError, KeyError) as e:
            log(f"pipebench: no valid result line from the driver ({e})")
            return 1, None, host
        if trace and (work / "trace.jsonl").is_file():
            shutil.copy(work / "trace.jsonl",
                        runs / f"trace-{workload}-{seed}.jsonl")
        return rc, result, host
    except subprocess.TimeoutExpired:
        log(f"pipebench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def calib_of(host):
    """The calibration loop's milliseconds from the driver's host tag."""
    for field in host.split():
        if field.startswith("calib_ms="):
            return float(field.split("=", 1)[1])
    return float("nan")


def steadiness(build_dir, spec, workloads, repeats, sets, seconds, first_seed):
    """Runs each workload `repeats` times in each of `sets` sets, with
    distinct seeds, and prints each end-to-end metric's median and quartile
    spread against its bound, the figures the bounds in BENCHMARK.json are
    chosen from. The sets run interleaved, run i of every set before run
    i + 1 of any, so a host that drifts slowly drifts under all of them
    alike; with two or more sets it also prints how far each set's median
    lies from the others', in both directions. Returns whether every spread
    and every difference stays within its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = [{} for _ in range(sets)]
        calibs = [[] for _ in range(sets)]
        for i in range(repeats):
            for j in range(sets):
                seed = first_seed + 1000 * j + i
                t0 = time.time()
                rc, result, host = run_once(build_dir, workload, seed, seconds,
                                            False, spec, echo=False)
                if rc != 0 or result is None or not result["correct"]:
                    print(f"{workload} set {j} seed {seed}: FAILED (exit {rc})",
                          flush=True)
                    worst = float("inf")
                    continue
                for name, m in result["metrics"].items():
                    values[j].setdefault(name, []).append(m["value"])
                calibs[j].append(calib_of(host))
                print(f"{workload} set {j} seed {seed}: " + ", ".join(
                    f"{n}={m['value']:.4g}"
                    for n, m in result["metrics"].items())
                    + f" ({time.time() - t0:.0f} s; calib_ms="
                    f"{calibs[j][-1]:.1f})", flush=True)
        for j in range(sets):
            if len(calibs[j]) >= 2:
                print(f"  {workload:14s} set {j} host.calib_ms median "
                      f"{statistics.median(calibs[j]):.1f}")
        for name, bound in bounds.items():
            medians = []
            for j in range(sets):
                vals = values[j].get(name, [])
                if len(vals) < 4:
                    continue
                q1, med, q3 = statistics.quantiles(vals, n=4)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                worst = max(worst, spread / bound)
                note = " OK" if spread < bound / 3 else (
                    " within bound" if spread <= bound else " TOO NOISY")
                print(f"  {workload:14s} set {j} {name:12s} median {med:.6g} "
                      f"IQR/median {spread:.4f} bound {bound}{note}",
                      flush=True)
            if len(medians) >= 2:
                # Worse in either direction: max/min over the sets' medians.
                lo, hi = min(medians), max(medians)
                apart = hi / lo - 1 if lo > 0 else (0.0 if hi == lo
                                                     else float("inf"))
                worst = max(worst, apart / bound)
                note = "OK" if apart <= bound else "SETS DISAGREE"
                print(f"  {workload:14s} sets  {name:12s} medians "
                      f"{lo:.6g}..{hi:.6g} apart {apart:.4f} bound {bound} "
                      f"{note}", flush=True)
    print(f"worst spread/bound: {worst:.3f}")
    return worst <= 1.0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run each workload repeatedly and print median/IQR")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--sets", type=int, default=1,
                   help="interleaved sets of runs to compare (steadiness)")
    p.add_argument("--workloads", help="comma-separated (steadiness mode)")
    args = p.parse_args()

    check_sources()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    build_dir = build()
    if args.steadiness:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        return 0 if steadiness(build_dir, spec, workloads, args.repeats,
                               args.sets, seconds, args.seed) else 1
    if not args.workload:
        p.error("--workload is required")
    rc, result, _ = run_once(build_dir, args.workload, args.seed, seconds,
                             bool(args.trace), spec)
    if result is None:
        return rc or 1
    print(json.dumps(result), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
