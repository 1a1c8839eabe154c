"""The two closed-loop workloads: one client runs `cubemm run` jobs back
to back, cycling through the workload's shapes with a fresh seed per
job.

* verified-large — p = 64, n = 1536: the host reference check, the
  local GEMM and the partition/assembly copies dominate; the engine
  handles only 160-1,088 messages per job.
* wide-machine — p = 4096, n = 256: engine scheduling, the ledger and
  collective packet handling dominate (12k-540k messages per job); the
  reference check and the local GEMM are each under 2%, so a
  verification or GEMM change should show no change here.
"""

import statistics
import time

import common
import metrics

WORKLOADS = {
    "verified-large": {
        "n": 1536,
        "p": 64,
        "shapes": [("3dd", "one"), ("3d-all", "one"), ("cannon", "one"), ("dns", "one")],
    },
    "wide-machine": {
        "n": 256,
        "p": 4096,
        "shapes": [("cannon", "one"), ("cannon", "multi"), ("3d-all", "one"),
                   ("3dd", "one"), ("dns", "one")],
    },
}

# Warm-up and traced-pass seeds live far from the timed jobs' indices.
WARM_BASE = 1_000_000
TRACE_BASE = 2_000_000


def _job(spec, shape, seed):
    algo, port = shape
    return {"algo": algo, "port": port, "n": spec["n"], "p": spec["p"], "seed": seed}


def _probe_line(job):
    return f"{job['algo']} {job['n']} {job['p']} {job['port']} {job['seed']}"


def _run(ctx, job):
    """One `cubemm run` process, timed from spawn to exit."""
    argv = [ctx.cubemm, "run", "--algo", job["algo"], "--n", str(job["n"]),
            "--p", str(job["p"]), "--port", job["port"], "--seed", str(job["seed"])]
    wall, rc, out, rss, cpu = common.run_timed(ctx, argv)
    fields = {}
    for line in out.splitlines():
        key, _, value = line.strip().partition(":")
        fields[key.strip()] = value.strip()
    return dict(job, wall_s=wall, cpu_s=cpu, rc=rc, rss_kb=rss,
                fingerprint=fields.get("fingerprint"),
                messages=int(fields.get("messages injected", "0") or 0),
                output=out if rc != 0 else "")


def _gate(observed, expected):
    """Applies the correctness gate to each job in place; returns the
    number that failed it."""
    failed = 0
    for obs, exp in zip(observed, expected):
        obs["mismatch"] = metrics.cli_mismatch(obs, exp)
        failed += obs["mismatch"] is not None
    return failed


def measure(ctx, name):
    """The untraced run: end-to-end metrics."""
    spec = WORKLOADS[name]
    shapes = spec["shapes"]
    # Set-up: one untimed warm-up run per job shape. Each is one set-up
    # sample; setup_s is their median.
    warm = [_run(ctx, _job(spec, s, common.mix(ctx.seed, WARM_BASE + k)))
            for k, s in enumerate(shapes)]
    for w in warm:
        if w["rc"] != 0:
            raise RuntimeError(f"warm-up {w['algo']} failed (exit {w['rc']}):\n{w['output']}")

    jobs = []
    start = time.perf_counter()
    while time.perf_counter() - start < ctx.seconds:
        i = len(jobs)
        jobs.append(_run(ctx, _job(spec, shapes[i % len(shapes)], common.mix(ctx.seed, i))))
    expected = common.probe_rows(ctx, ["expect-cli"], [_probe_line(j) for j in jobs])
    failed = _gate(jobs, expected)

    good = [j for j in jobs if j["mismatch"] is None]
    # Per-shape medians of the correct jobs; a mix figure weighs every
    # shape once, so a run ending mid-cycle does not tilt it toward the
    # shapes that happen to come first.
    def per_shape(key):
        out = [[j[key] * 1e3 for j in good if (j["algo"], j["port"]) == s] for s in shapes]
        if not all(out):
            raise RuntimeError("a job shape has no correct job in the timed window")
        return [statistics.median(v) for v in out]

    wall_ms, cpu_ms = per_shape("wall_s"), per_shape("cpu_s")
    jobs_per_s = len(shapes) / (sum(wall_ms) / 1e3) * len(good) / len(jobs)
    values = {
        "setup_s": statistics.median(w["wall_s"] for w in warm),
        "jobs_per_s": jobs_per_s,
        "cpu_ms_per_job": statistics.fmean(cpu_ms),
        # A closed loop has no offered rate: every job it completes
        # correctly is goodput.
        "goodput_jobs_per_s": jobs_per_s,
        "ok_frac": len(good) / len(jobs),
        "peak_rss_mb": max(j["rss_kb"] for j in jobs + warm) / 1024.0,
        "job_p50_ms": metrics.percentile([j["wall_s"] * 1e3 for j in jobs], 50),
        # Too few jobs for a p99: the tail of the mix is the shape users
        # wait longest for.
        "job_p99_ms": max(wall_ms),
        "failed_frac": 1 - len(good) / len(jobs),
    }
    per_count = [sum(1 for j in jobs if (j["algo"], j["port"]) == s) for s in shapes]
    notes = [
        f"closed loop, 1 client: {len(jobs)} jobs over {len(shapes)} shapes "
        f"(n = {spec['n']}, p = {spec['p']}), {min(per_count)}-{max(per_count)} per shape; "
        f"setup_s is the median of {len(warm)} set-ups (one warm-up run per shape)",
        "jobs_per_s and cpu_ms_per_job: one cycle through the shapes at their median job "
        "times (jobs_per_s times the share of correct jobs)",
        f"job_p50_ms is the median of all {len(jobs)} jobs; job_p99_ms is the slowest shape's "
        "median, as the loop runs too few jobs for a p99",
    ]
    for j in jobs:
        if j["mismatch"]:
            notes.append(f"GATE FAILURE {j['algo']} seed {j['seed']}: {j['mismatch']}")
    details = {"warm": warm, "jobs": jobs}
    return values, len(jobs), failed, notes, details


def trace(ctx, name):
    """The traced run: per-layer metrics from the in-process pass over
    the same jobs the CLI ran."""
    spec = WORKLOADS[name]
    shapes = spec["shapes"]
    cli = []
    start = time.perf_counter()
    # Whole cycles only, so every shape weighs the same in the means;
    # the in-process pass then runs each job twice (spans off and on).
    while not cli or time.perf_counter() - start < ctx.seconds / 3:
        base = TRACE_BASE + len(cli)
        cli.extend(_run(ctx, _job(spec, s, common.mix(ctx.seed, base + k)))
                   for k, s in enumerate(shapes))
    rows = common.probe_rows(ctx, ["trace-cli"], [_probe_line(j) for j in cli])
    runs = {(r["job"], r["mode"]): r for r in rows if r["kind"] == "job"}
    probes = {(r["algo"], r["n"], r["p"]): r for r in rows if r["kind"] == "probe"}
    spans = [r for r in rows if r["kind"] == "span"]

    failed = _gate(cli, [runs[(i, "traced")] for i in range(len(cli))])
    for i in range(len(cli)):
        if runs[(i, "untraced")]["fingerprint"] != runs[(i, "traced")]["fingerprint"]:
            failed += 1
            cli[i]["mismatch"] = "traced and untraced products differ"

    n_jobs = len(cli)
    layers = metrics.layer_self_ms([s for s in spans if s["name"] != "job"])
    untraced_ms = metrics.mean([runs[(i, "untraced")]["total_ns"] / 1e6 for i in range(n_jobs)])
    traced_ms = metrics.mean([runs[(i, "traced")]["total_ns"] / 1e6 for i in range(n_jobs)])
    cli_ms = metrics.mean([j["wall_s"] * 1e3 for j in cli])

    flops = [2.0 * j["n"] ** 3 for j in cli]
    gflops_of = [probes[(j["algo"], j["n"], j["p"])]["gemm_flops"]
                 / probes[(j["algo"], j["n"], j["p"])]["gemm_ns"] for j in cli]
    local_gemm_ms = metrics.mean([f / g / 1e6 for f, g in zip(flops, gflops_of)])
    messages = metrics.mean([runs[(i, "traced")]["messages"] for i in range(n_jobs)])
    multiply_ms = layers.get("core.multiply", 0.0)
    non_gemm_ms = multiply_ms - local_gemm_ms
    unattributed, flagged = metrics.reconcile(untraced_ms, layers)

    values = {
        "dense.reference_ms": layers.get("dense.reference", 0.0),
        "dense.local_gemm_gflops": sum(flops) / (local_gemm_ms * n_jobs * 1e6),
        "dense.local_gemm_ms": local_gemm_ms,
        "core.multiply_ms": multiply_ms,
        "core.non_gemm_ms": non_gemm_ms,
        "dense.partition_ms": metrics.mean(
            [probes[(j["algo"], j["n"], j["p"])]["partition_ns"] / 1e6 for j in cli]),
        "dense.operands_ms": layers.get("dense.operands", 0.0),
        "dense.check_ms": layers.get("dense.check", 0.0),
        "serve.fingerprint_ms": layers.get("serve.fingerprint", 0.0),
        "simnet.messages": messages,
        "simnet.word_hops": metrics.mean([runs[(i, "traced")]["word_hops"] for i in range(n_jobs)]),
        "simnet.peak_words": metrics.mean([runs[(i, "traced")]["peak_words"] for i in range(n_jobs)]),
        "simnet.ns_per_message": non_gemm_ms * 1e6 / messages,
        "cli.other_ms": cli_ms - untraced_ms,
        "bench.cli_job_ms": cli_ms,
        "bench.reference_share": layers.get("dense.reference", 0.0) / cli_ms,
        "bench.trace_overhead_ms": traced_ms - untraced_ms,
        "bench.unattributed_ms": unattributed,
        "bench.unattributed_flag": float(flagged),
        "bench.job_samples": float(n_jobs),
    }
    notes = [
        f"traced pass: {n_jobs} jobs ({n_jobs // len(shapes)} cycles of {len(shapes)} shapes), "
        f"each run in-process with spans off and on; layer values are means per job",
        f"in-process job {untraced_ms:.3f} ms untraced, {traced_ms:.3f} ms traced; "
        f"CLI job {cli_ms:.3f} ms",
        "dense.local_gemm_ms is computed: 2n^3 / dense.local_gemm_gflops "
        "(gemm_acc, default kernel, on the per-node block of order n/q)",
    ]
    if flagged:
        notes.append(f"FLAG bench.unattributed_ms = {unattributed:.3f} ms exceeds "
                     f"{metrics.JOB_TIME_BOUND:.0%} of the {untraced_ms:.3f} ms job")
    for j in cli:
        if j.get("mismatch"):
            notes.append(f"GATE FAILURE {j['algo']} seed {j['seed']}: {j['mismatch']}")
    details = {"cli": cli, "probes": list(probes.values())}
    return values, n_jobs, failed, notes, details, spans
