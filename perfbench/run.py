"""boolcube benchmark: one workload, one seed, one run.

usage (from the root of a checkout):
    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 30 --trace 0

Writes the seed's input documents under .perfbench/, times set-up in fresh
interpreters, runs the workload in its own fresh process (perfbench/worker.py)
and prints two lines: a record of the run (environment, sample counts,
failed_ratio, found_ratio, report digest) and, last, the result object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "boolcube"

# Set-up is timed in SETUP_PROBES fresh interpreters plus the workload's own
# process; setup_s is the median.
SETUP_PROBES = 4
# A run stops starting passes after --seconds; a pass, a set-up probe or the
# worker's exit must not take longer than this.
CHILD_TIMEOUT_S = 150


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        top, head = (git.stdout.split() + ["", ""])[:2]
        # Only a repository rooted at this checkout names its commit.
        if git.returncode == 0 and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "src_sha256": src.hexdigest()}


def machine_probe() -> float:
    """Median time of a fixed pure-Python loop: a record of how fast the
    machine ran, for telling machine drift from a change in the program."""
    times = []
    for _ in range(7):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _wait_ready(proc: subprocess.Popen) -> None:
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not start: %r" % line)


def time_setup(plan_path: Path) -> float:
    """Fresh interpreter -> import boolcube -> warm-up ops, in seconds."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"),
                             str(plan_path), "--setup-only"],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        _wait_ready(proc)
        dt = perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe exited with %d" % proc.returncode)
    return dt


def run_worker(plan_path: Path, out: Path, args) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), str(plan_path),
           "--out", str(out), "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", "--spans",
                str(out.with_name(out.stem + "-spans.npz"))]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        _wait_ready(proc)
        setup = perf_counter() - t0
        proc.wait(timeout=args.seconds + CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return setup, json.loads(out.read_text())


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    lat = res["latencies"]
    deciles = statistics.quantiles(lat, n=10)
    p50, p90 = deciles[4], deciles[8]
    metrics = {
        "ops_per_s": (len(lat) - res["failed"]) / sum(lat),
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    samples = {"ops_per_s": len(lat), "latency_p50_s": len(lat),
               "latency_p90_s": len(lat),
               "latency_p90_s_above": sum(1 for x in lat if x > p90),
               "peak_rss_mb": 1, "setup_s": len(setups)}
    return metrics, samples


UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print("no boolcube sources at %s: run from the root of a checkout"
              % SRC.relative_to(ROOT), file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import gen
    import spans
    if args.workload not in gen.WORKLOADS:
        print("unknown workload %r; one of %s" % (args.workload,
                                                   ", ".join(gen.WORKLOADS)),
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench"
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    (work / "out").mkdir(parents=True, exist_ok=True)
    plan = gen.make_plan(args.workload, args.seed, ROOT)
    plan_path = work / "out" / (tag + "-plan.json")
    plan_path.write_text(json.dumps(plan))
    probes = [machine_probe()]
    try:
        setups = [time_setup(plan_path) for _ in range(SETUP_PROBES)]
        setup, res = run_worker(plan_path, work / "out" / (tag + ".json"), args)
        probes.append(machine_probe())
    finally:
        shutil.rmtree(work / "inputs" / ("%s-s%d" % (args.workload, args.seed)),
                      ignore_errors=True)
    setups.append(setup)

    digest = hashlib.sha256(json.dumps(res["digests"], sort_keys=True)
                            .encode()).hexdigest()
    attempted, failed = res["attempted"], res["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": res["passes"],
        "ops_per_pass": len(plan["ops"]), "env": environment(),
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "report_digest": digest, "failures": res["failures"],
        "machine_probe_s": probes,
    }
    if res["targets"]:
        record["found_ratio"] = {"value": res["found"] / res["targets"],
                                 "unit": "ratio", "targets": res["targets"]}
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _ in spans.LAYER_METRICS}
        record["samples"] = {"traced_ops": res["traced_ops"],
                             "untraced_ops": len(res["latencies"])}
    else:
        values, record["samples"] = end_to_end(res, setups)
        metrics = {name: {"value": v, "unit": UNITS[name]}
                   for name, v in values.items()}
    record["setup_samples_s"] = setups
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
