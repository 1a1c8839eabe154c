"""Pure helpers behind the benchmark's numbers: percentiles, the serve
ladder's goodput and health rules, span self times, the layer-sum
reconciliation, and the correctness gate's comparisons.

Nothing here touches a process or a clock, so the unit tests in
``perfbench/tests`` cover it directly.
"""

import math

# The layer-sum reconciliation is flagged when the unattributed remainder
# exceeds the benchmark's own bound on job time (jobs_per_s in
# BENCHMARK.json) as a share of the job.
JOB_TIME_BOUND = 0.25


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0-100] of ``values``; ``inf``
    entries (failed jobs) sort last. Returns ``nan`` for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, q):
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Open-loop ladder
# ---------------------------------------------------------------------------


# The generator runs late for two reasons: the host deschedules it now
# and then (on a 2-core VM that shares its CPUs, stalls of 5-30 ms hit
# about 1% of sends, even when idle), or it cannot keep up. Latency is
# timed from the due time, so a stall is charged to the jobs it delays;
# a step is invalid when the median send is late by more than
# LATE_P50_MS (the generator fell behind) or the p99 by more than
# LATE_P99_MS (stalls alone take half the serve-mix latency limit).
LATE_P50_MS = 1.0
LATE_P99_MS = 50.0


def step_summary(rate, jobs, late_ms, backlog_end):
    """Summarises one ladder step.

    ``jobs`` holds one ``(latency_ms, ok)`` pair per job sent in the
    step, latency timed from the job's due time; a job that was not
    answered with a correct ``ok`` counts as missing every limit.
    ``late_ms`` holds each send's lateness behind its due time and
    ``backlog_end`` the number of the step's jobs still unanswered when
    its last job was sent. The step is valid when the generator kept its
    schedule and the queue did not grow while it ran.
    """
    latencies = [lat if ok else math.inf for lat, ok in jobs]
    n = len(jobs)
    grew = backlog_end > max(16, 0.05 * n)
    late_p50, late_p99 = percentile(late_ms, 50), percentile(late_ms, 99)
    return {
        "rate": rate,
        "jobs": n,
        "ok": sum(1 for _, ok in jobs if ok),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "beyond_p99": samples_beyond(n, 99),
        "backlog_end": backlog_end,
        "backlog_grew": grew,
        "gen_late_p50_ms": late_p50,
        "gen_late_p99_ms": late_p99,
        "valid": late_p50 <= LATE_P50_MS and late_p99 <= LATE_P99_MS and not grew,
    }


def step_passes(step, limit_ms):
    """A step passes when it is valid and its p99 meets the limit."""
    return step["valid"] and step["p99_ms"] <= limit_ms


def ladder_stopped(steps, limit_ms, after):
    """Whether a ladder climbing in rate order should stop: its last
    ``after`` steps all failed, so the service is past capacity."""
    return len(steps) >= after and not any(step_passes(s, limit_ms) for s in steps[-after:])


def goodput(steps, limit_ms):
    """The highest offered rate whose step is valid and meets the p99
    latency limit, reported as that step's measured rate of correct
    answers within the limit. Returns ``(value, step_index)``;
    ``(0.0, None)`` when no step qualifies."""
    best = None
    for i, s in enumerate(steps):
        if step_passes(s, limit_ms):
            if best is None or s["rate"] > steps[best]["rate"]:
                best = i
    if best is None:
        return 0.0, None
    return steps[best]["good_per_s"], best


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time (ns) of each span: its duration minus the part of it
    that its direct children cover. Returns ``{span id: ns}``."""
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0) + (s["end_ns"] - s["start_ns"])
    return {s["id"]: (s["end_ns"] - s["start_ns"]) - covered.get(s["id"], 0) for s in spans}


def layer_self_ms(spans, jobs_of_name=None):
    """Mean self time per job (ms) of every span name.

    By default a name's total is divided by the number of distinct jobs
    in ``spans``; ``jobs_of_name`` maps a name to its own job count
    (layers that run only on some job classes)."""
    own = self_times(spans)
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0) + own[s["id"]]
    all_jobs = len({s["job"] for s in spans}) or 1
    out = {}
    for name, ns in total.items():
        n = (jobs_of_name or {}).get(name, all_jobs) or 1
        out[name] = ns / n / 1e6
    return out


def reconcile(job_ms, layers_ms, bound=JOB_TIME_BOUND):
    """The layer-sum reconciliation: the part of a job that no layer's
    self time explains, and whether it is larger than the benchmark's
    own bound allows. Returns ``(unattributed_ms, flagged)``."""
    unattributed = job_ms - sum(layers_ms.values())
    return unattributed, abs(unattributed) > bound * job_ms


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def cli_mismatch(observed, expected):
    """Why a `cubemm run` job fails the gate, or ``None`` if it passes.
    ``observed`` is parsed from the process, ``expected`` comes from the
    benchmark's own product for the same (algo, n, p, seed)."""
    if observed.get("rc") != 0:
        return f"exit code {observed.get('rc')}"
    if not expected.get("verified"):
        return "the benchmark's own product failed its reference check"
    if observed.get("fingerprint") != expected.get("fingerprint"):
        return f"fingerprint {observed.get('fingerprint')} != {expected.get('fingerprint')}"
    return None


SERVE_COMPARED = ("status", "algo", "attempts", "outcome", "fingerprint")
# Outcomes whose product the service promises bit-identical to a healthy
# run of the same request.
BITWISE_OUTCOMES = ("clean", "recovered", "verified")


def reference_tolerance(n):
    """The largest deviation from ``gemm::reference`` a correct product
    of order ``n`` may show (the same bound `cubemm run` checks)."""
    return 1e-9 * n


def expectation_fault(expected):
    """Why the benchmark cannot trust an expected served answer, or
    ``None``. The answer comes from ``cubemm_serve::execute``; the probe
    also computes the request's healthy product and checks it against
    ``gemm::reference``. A clean, recovered or verified answer must name
    that product's fingerprint. A corrected one must name the product of
    the faulted run, which must lie within the tolerance of the checksum
    verification (``abft_tol``) of the reference: correction leaves
    damage below that tolerance in place, so the service promises no
    more. A bug shared by the service and ``execute`` shows here, not in
    the served-answer comparison."""
    if expected.get("status") != "ok":
        return None
    tol = reference_tolerance(expected["n"])
    outcome = expected.get("outcome")
    if outcome in BITWISE_OUTCOMES:
        if not expected["healthy_diff"] <= tol:
            return f"the healthy product misses gemm::reference by {expected['healthy_diff']:.3g}"
        if expected["fingerprint"] != expected["healthy_fingerprint"]:
            return (f"execute answered {expected['fingerprint']} ({outcome}), the healthy "
                    f"product checked against gemm::reference is {expected['healthy_fingerprint']}")
        return None
    if outcome == "corrected":
        if expected["fingerprint"] != expected["rerun_fingerprint"]:
            return (f"execute answered {expected['fingerprint']}, the rerun of the faulted job "
                    f"gives {expected['rerun_fingerprint']}")
        if not expected["rerun_diff"] <= expected["abft_tol"]:
            return (f"the corrected product misses gemm::reference by "
                    f"{expected['rerun_diff']:.3g}, beyond the checksum tolerance "
                    f"{expected['abft_tol']:.3g}")
        return None
    return f"unexpected ok outcome {outcome!r}"


def serve_mismatch(response, expected):
    """Why a served response fails the gate, or ``None`` if it passes.
    ``overloaded`` is load shedding, not a wrong answer: it passes the
    gate and counts as a missed latency limit instead."""
    if expected.get("unsound"):
        return f"expected answer unsound: {expected['unsound']}"
    if response is None:
        return "no response"
    if response.get("status") == "overloaded":
        return None
    for key in SERVE_COMPARED:
        if response.get(key) != expected.get(key):
            return f"{key} {response.get(key)!r} != {expected.get(key)!r}"
    return None
