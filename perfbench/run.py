#!/usr/bin/env python3
"""The repository benchmark: times the shipped `cubemm` binary from
outside on one workload and prints every metric by name with its unit.

    python3 perfbench/run.py --workload verified-large --seed 1 --seconds 20 --trace 0

Run from the root of a cubemm checkout. It builds `cubemm` and the
in-process probe (perfbench/probe) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs the binary in a scratch
working directory (.bench_work) with no tuning file and no forced
scalar kernel, checks every product against the benchmark's own, and
ends its standard output with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics; --trace 1 runs the separate
traced in-process pass for the per-layer metrics and writes its spans
to .bench_out. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_load  # noqa: E402
import common  # noqa: E402
import serve_load  # noqa: E402

ROOT = HERE.parent
WORKLOADS = {
    "verified-large": cli_load,
    "wide-machine": cli_load,
    "serve-mix": serve_load,
}
# End-to-end figures every run prints but BENCHMARK.json does not bound:
# on a VM that shares its CPUs, serve latency follows the hypervisor's
# steal time (see perfbench/README.md).
UNBOUNDED = {"job_p50_ms": "ms", "job_p99_ms": "ms", "failed_frac": "ratio"}
# A run is stopped (and fails) well inside the 180 s a run may take.
WATCHDOG_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files(*extra):
    """The files the benchmark reads as source: the workspace plus
    ``extra`` directories (recorded as a digest with every run)."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates",) + extra:
        files += [p for p in base.rglob("*") if p.is_file()]
    return sorted(p for p in files if p.exists())


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "cubemm-cli", "--bin", "cubemm"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "probe" / "Cargo.toml")],
    ):
        res = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail(f"build failed: {' '.join(argv)}", 3)
    binaries = target / "release" / "cubemm", target / "release" / "perfprobe"
    for b in binaries:
        # Only the files cargo built the binary from can make it stale:
        # an edit elsewhere in the tree leaves it untouched, and rightly.
        info = b.with_suffix(".d")
        if not b.exists() or not info.exists():
            fail(f"{b} or its dep-info file missing after the build", 3)
        sources = common.dep_info(info.read_text(), ROOT)
        missing = [str(p) for p in sources if not p.exists()]
        if missing or not sources:
            fail(f"{b} was built from files that are gone ({missing[:3]}): refusing a stale binary", 3)
        newest = max(sources, key=lambda p: p.stat().st_mtime)
        if b.stat().st_mtime < newest.stat().st_mtime:
            fail(f"{b} is older than {newest}: refusing a stale binary", 3)
    return binaries


def environment(ctx):
    """The record every result is read against."""
    env = json.loads(common.probe(ctx, ["env"], []))
    if env["debug_assertions"]:
        fail("the probe was built with debug assertions: refusing a debug build", 3)
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = res.stdout.strip() or rev
    digest = hashlib.sha256()
    for p in source_files(HERE / "probe"):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {
        "host_cores": env["host_cores"],
        "nproc": len(os.sched_getaffinity(0)),
        "microkernel": env["microkernel"],
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "CUBEMM_TUNE_FILE": ctx.env["CUBEMM_TUNE_FILE"],
        "CUBEMM_FORCE_SCALAR": ctx.env.get("CUBEMM_FORCE_SCALAR", "(unset)"),
    }


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def on_watchdog(_sig, _frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        fail(f"{ROOT} is not a cubemm checkout (no Cargo.toml / crates/cli): nothing to measure")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cubemm, probe = build(target if target.is_absolute() else ROOT / target)

    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    child_env = dict(os.environ)
    # Pin the kernel: no tuning file can leak in (the path names nothing)
    # and the host-detected microkernel is used.
    child_env["CUBEMM_TUNE_FILE"] = str(workdir / "no-tuning-file.json")
    child_env.pop("CUBEMM_FORCE_SCALAR", None)
    (workdir / "no-tuning-file.json").unlink(missing_ok=True)
    ctx = common.Context(str(cubemm), str(probe), str(workdir), child_env,
                         args.seed, args.seconds, args.trace)

    # Hand the interpreter lock over quickly, so the serve-mix writer
    # thread wakes on schedule.
    sys.setswitchinterval(1e-4)
    signal.signal(signal.SIGALRM, on_watchdog)
    signal.alarm(WATCHDOG_S)
    steal0, total0 = cpu_ticks()
    try:
        env = environment(ctx)
        module = WORKLOADS[args.workload]
        if args.trace:
            values, attempted, failed, notes, details, spans = module.trace(ctx, args.workload)
        else:
            values, attempted, failed, notes, details = module.measure(ctx, args.workload)
            spans = None
    finally:
        signal.alarm(0)
        common.stop_all()
    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to other guests while this run wanted
    # it: the noise floor every timing above sits on.
    env["host_steal"] = f"{100.0 * (steal1 - steal0) / max(1, total1 - total0):.1f}%"

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if not args.trace and missing:
        fail(f"workload produced no value for {missing}", 1)
    out_metrics = {}
    for m in wanted:
        # Per-layer metrics of layers a workload never calls read 0.
        out_metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for line in notes:
        print(line)
    if args.trace and missing:
        print("not exercised by this workload (reported as 0): " + ", ".join(missing))
    for name, m in out_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, unit in UNBOUNDED.items():
            print(f"{name} = {values[name]:.6g} {unit} (reported, not in BENCHMARK.json)")
    if spans is not None:
        with open(outdir / f"{tag}.spans.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
    with open(outdir / f"{tag}.json", "w") as f:
        json.dump({"env": env, "metrics": out_metrics, "notes": notes, "details": details},
                  f, indent=1, default=str)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
