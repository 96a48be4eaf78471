#!/usr/bin/env python3
"""Build and run one workload of the repository's wall-clock benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the libraries under
src/ plus the adbench binary) with CMake into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later calls
rebuild only what changed. adbench's "# ..." lines (host fingerprint,
notes, failed checks) are echoed, and the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Traced runs also write .bench_out/trace-<workload>-<seed>.json.

Exit status: 0 when every output check passed, 1 when a check failed
or the result is malformed, 2 when the benchmark cannot build or run
(for example in a directory without the repository's sources).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def cmake(args):
    """Run cmake; its output goes to stderr only when it fails."""
    r = subprocess.run(["cmake"] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
    return r.returncode == 0


def build():
    """Configure (once) and build adbench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for attempt in range(2):
        ok = (out / "CMakeCache.txt").is_file() or cmake(
            ["-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
        ok = ok and cmake(["--build", str(out), "--target", "adbench",
                           "-j", jobs])
        if ok:
            return out / "adbench"
        if attempt == 0 and out.exists():
            log("build failed; retrying from a clean build directory")
            shutil.rmtree(out)
    return None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def src_digest():
    """SHA-256 over the sources the benchmark builds (first 16 hex)."""
    h = hashlib.sha256()
    files = [REPO / "CMakeLists.txt"]
    for top in (REPO / "src", HERE):
        files += sorted(p for p in top.rglob("*") if p.is_file()
                        and p.suffix in (".cc", ".hh", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(REPO)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid_result(result, trace):
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = declared_metrics(trace)
    if want is not None and sorted(result["metrics"]) != sorted(want):
        return "metric names differ from BENCHMARK.json"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (REPO / "src" / "CMakeLists.txt").is_file():
        log(f"no sources at {REPO / 'src'}; run from a full checkout")
        return 2
    if shutil.which("cmake") is None:
        log("cmake not found")
        return 2
    binary = build()
    if binary is None or not binary.is_file():
        log("build failed")
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir",
           str(REPO / ".bench_out"), "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"adbench exited with status {proc.returncode}")
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line of adbench output is not JSON")
        return 2
    problem = valid_result(result, args.trace == 1)
    if problem:
        log(problem)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
