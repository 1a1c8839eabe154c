"""The open-loop serve-mix workload: one `cubemm serve --workers 2` fed
over its stdin pipe by a writer that sends on a fixed schedule, while a
reader timestamps the responses.

The job pool mixes small shapes (n in {64, 96, 128}, p in {16, 64}),
named algorithms where the shape applies plus `auto`: half healthy ABFT
jobs, a quarter ABFT jobs with fault plans from the seeded soak stream
(crash-and-reboot and corruption recovery), a quarter `"abft":false`
jobs that take the host-reference path. It covers the serve queue, the
machine cache and the JSON codec, and small jobs that the large-n
workloads never see.
"""

import json
import statistics
from collections import Counter
import subprocess
import threading
import time

import common
import metrics

POOL_SIZE = 480
WORKERS = 2
# Offered rates (jobs/s). A quiet 2-core host sustains ~800-1200 jobs/s
# of this mix with 2 workers, and the figure drifts by 10-20% within a
# minute; one whose CPUs are busy with other guests (steal above 20%) as
# little as ~400. The reference rate stays under capacity in both. The
# ladder climbs in rungs 50/s apart where capacity lies, up to about
# twice the quiet capacity, so a faster service shows. A climb stops once
# STOP_AFTER steps in a row miss the limit or are invalid: the queue can
# no longer keep up. Every window climbs the whole ladder; goodput is the
# median of the climbs, so one lucky or unlucky stretch does not set it.
REF_RATE = 150
LADDER = [100, 200, 300, 400, 500, 600, 650, 700, 750, 800, 850, 900, 950, 1000,
          1050, 1100, 1150, 1200, 1300, 1400, 1600, 1800, 2000]
STOP_AFTER = 2
# Fixed p99 latency limit for the ladder: about 40 median jobs, so it
# fails on a growing queue rather than on a single descheduled moment.
LIMIT_MS = 100.0
# The reference-rate jobs, the closed batches and the ladder climbs run
# in this many windows, so each figure spans the whole run.
WINDOWS = 3
# Capacity: closed batches of BATCH jobs sent at once (under the
# service's default queue bound of 256, so none is shed), one at the
# start of each window and one after every BATCH_EVERY ladder steps, so
# they sample the host's speed all through the run; jobs_per_s is the
# median over batches of correct answers per second.
BATCH = 240
BATCH_EVERY = 3
# Set-up: spawn plus one closed warm-up batch (which walks the pool's
# shapes and fills the machine cache); done SETUPS times, setup_s is the
# median.
SETUPS = 5
# The traced run drives the reference rate only, for this many jobs.
TRACE_JOBS = 1000


def _pool(ctx):
    text = common.probe(ctx, ["serve-pool", "--seed", str(ctx.seed), "--count", str(POOL_SIZE)], [])
    return [tuple(line.split("\t", 1)) for line in text.splitlines() if line.strip()]


def _line(jid, body):
    return ('{"id":"%s",%s\n' % (jid, body[1:])).encode()


class Session:
    """One live `cubemm serve` process. A reader thread only timestamps
    raw response lines, so it never holds the interpreter long enough to
    delay the writer; responses are decoded after each phase."""

    def __init__(self, ctx):
        self.proc = common.spawn(
            ctx, [ctx.cubemm, "serve", "--workers", str(WORKERS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.raw = []
        self.received = {}
        self.sent = 0
        self.stderr = []
        self.threads = [threading.Thread(target=self._read, daemon=True),
                        threading.Thread(target=self._read_err, daemon=True)]
        for t in self.threads:
            t.start()

    def _read(self):
        clock, append = time.perf_counter, self.raw.append
        for raw in self.proc.stdout:
            append((clock(), raw))

    def _read_err(self):
        for raw in self.proc.stderr:
            self.stderr.append(raw.decode(errors="replace").rstrip())

    def send(self, jobs, rate):
        """Sends ``jobs`` (``(id, line)`` pairs) on an open-loop schedule
        at ``rate`` jobs/s (``None``: all at once). Returns one ``(due,
        sent)`` pair per job and how many of them were still unanswered
        right after the last send."""
        out = []
        clock, write, flush = time.perf_counter, self.proc.stdin.write, self.proc.stdin.flush
        t0 = clock()
        for i, (_, line) in enumerate(jobs):
            due = t0 + (i / rate if rate else 0.0)
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            write(line)
            flush()
            out.append((due, sent))
        self.sent += len(jobs)
        return out, self.sent - len(self.raw)

    def drain(self, timeout):
        """Waits until every job sent so far is answered (or ``timeout``
        s pass), then decodes the new responses into ``received``."""
        deadline = time.perf_counter() + timeout
        while len(self.raw) < self.sent and time.perf_counter() < deadline:
            time.sleep(0.001)
        for t, raw in self.raw[len(self.received):]:
            resp = json.loads(raw)
            self.received[resp["id"]] = (t, resp)

    def close(self):
        """EOF, drain, reap. Returns ``(exit code, peak RSS KiB, CPU s,
        drain counters)``."""
        self.proc.stdin.close()
        rc, rss, cpu = common.reap(self.proc)
        for t in self.threads:
            t.join()
        counters = {}
        for line in self.stderr:
            if "drained" in line:
                for part in line.split("—", 1)[-1].split(","):
                    value, _, key = part.strip().partition(" ")
                    if value.isdigit():
                        counters[key] = int(value)
        return rc, rss, cpu, counters


def _setup(ctx, pool, tag, offset):
    """Spawn plus a closed warm-up batch of the pool, starting at
    ``offset``; returns the session, the set-up time and the batch."""
    t0 = time.perf_counter()
    s = Session(ctx)
    jobs = _schedule(pool, tag, BATCH, offset, stride=1)
    s.send([(jid, line) for jid, _, line in jobs], None)
    s.drain(60)
    if len(s.received) < len(jobs):
        raise RuntimeError("serve warm-up did not finish within 60 s")
    return s, time.perf_counter() - t0, jobs


def _schedule(pool, phase, count, offset, stride=197):
    """``count`` jobs of the pool for one phase, with unique ids. A
    stride coprime to the pool size walks every pool entry."""
    out = []
    for i in range(count):
        k = (offset + i * stride) % len(pool)
        jid = f"{phase}-{i}"
        out.append((jid, k, _line(jid, pool[k][1])))
    return out


def _phase(session, sched, rate, expected):
    """Runs one open-loop phase; returns its raw timings and the jobs
    that failed the correctness gate."""
    sent, backlog = session.send([(jid, line) for jid, _, line in sched], rate)
    # Unanswered jobs count as gate failures below.
    session.drain(120)
    raw = {"lat": [], "late": [], "backlog": backlog, "good": 0}
    failures = []
    last_resp = first_due = sent[0][0]
    for (jid, k, _), (due, t_sent) in zip(sched, sent):
        got = session.received.get(jid)
        resp = got[1] if got else None
        why = metrics.serve_mismatch(resp, expected[k])
        if why:
            failures.append((jid, k, why))
        ok = why is None and resp["status"] == "ok"
        latency = (got[0] - due) * 1e3 if got else float("inf")
        raw["lat"].append((latency, ok))
        raw["late"].append((t_sent - due) * 1e3)
        if got:
            last_resp = max(last_resp, got[0])
        raw["good"] += ok and latency <= LIMIT_MS
    raw["span"] = max(last_resp - first_due, 1e-9)
    return raw, failures


def _score(rate, raws):
    """Scores one offered rate from the phases that ran at it."""
    step = metrics.step_summary(rate, [x for r in raws for x in r["lat"]],
                                [x for r in raws for x in r["late"]],
                                max(r["backlog"] for r in raws))
    span = sum(r["span"] for r in raws)
    step["ok_per_s"] = step["ok"] / span
    step["good_per_s"] = sum(r["good"] for r in raws) / span
    return step


def _expected(ctx, pool):
    """Each pool entry's expected answer from the in-process `execute`,
    marked ``unsound`` when it does not match a product checked against
    ``gemm::reference``."""
    rows = common.probe_rows(ctx, ["expect-serve"], [f"{c}\t{b}" for c, b in pool])
    expected = [r for r in rows if r["kind"] == "expect"]
    for r in expected:
        r["unsound"] = metrics.expectation_fault(r)
    return expected


def _gate_batch(session, jobs, expected):
    return [(j, k, why) for j, k, _ in jobs
            if (why := metrics.serve_mismatch(session.received.get(j, (0, None))[1], expected[k]))]


def measure(ctx, _name):
    """The untraced run: set-up, then windows of reference-rate jobs and
    closed batches interleaved with the ladder steps."""
    pool = _pool(ctx)
    expected = _expected(ctx, pool)
    setups, rss_all = [], []
    failures = []
    for i in range(SETUPS):
        # Consecutive set-ups warm up on consecutive stretches of the
        # pool, so together they check every entry.
        session, took, warm = _setup(ctx, pool, f"warm{i}", i * BATCH)
        setups.append(took)
        failures += _gate_batch(session, warm, expected)
        if i < SETUPS - 1:
            rc, rss, _, _ = session.close()
            rss_all.append(rss)
            if rc != 0:
                raise RuntimeError(f"cubemm serve exited {rc}")

    # At least 1000 reference jobs, so the p99 has ten samples beyond it.
    ref_jobs = max(1000, int(REF_RATE * 0.3 * ctx.seconds))
    step_seconds = 0.0175 * ctx.seconds
    per_window = -(-ref_jobs // WINDOWS)
    ref_sched, ref_raw, batch_raw, climbs = [], [], [], []
    for w in range(WINDOWS):
        sched = _schedule(pool, f"ref{w}", per_window, 61 * w)
        raw, f = _phase(session, sched, REF_RATE, expected)
        ref_sched += sched
        ref_raw.append(raw)
        failures += f
        steps = []
        for r, rate in enumerate(LADDER):
            if metrics.ladder_stopped(steps, LIMIT_MS, STOP_AFTER):
                break
            if r % BATCH_EVERY == 0:
                b = len(batch_raw)
                sched = _schedule(pool, f"batch{b}", BATCH, (b % 2) * BATCH, stride=1)
                raw, f = _phase(session, sched, None, expected)
                batch_raw.append(raw)
                failures += f
            sched = _schedule(pool, f"climb{w}-{r}", int(rate * step_seconds), 31 * (r + 1) + w)
            raw, f = _phase(session, sched, rate, expected)
            failures += f
            steps.append(_score(rate, [raw]))
        climbs.append(steps)
    ref = _score(REF_RATE, ref_raw)
    rc, rss, cpu, drain = session.close()
    rss_all.append(rss)
    if rc != 0:
        raise RuntimeError(f"cubemm serve exited {rc}")

    batch_rates = [sum(ok for _, ok in r["lat"]) / r["span"] for r in batch_raw]
    goodputs = [metrics.goodput(steps, LIMIT_MS) for steps in climbs]
    predicted = sum(expected[k]["status"] != "ok" for _, k, _ in ref_sched) / len(ref_sched)
    attempted = ((SETUPS + len(batch_raw)) * BATCH + ref["jobs"]
                 + sum(s["jobs"] for steps in climbs for s in steps))
    # Jobs the service executed (load it shed cost next to nothing).
    executed = drain.get("submitted", 0) - drain.get("overloaded", 0) - drain.get("rejected", 0)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(batch_rates),
        "cpu_ms_per_job": cpu * 1e3 / max(1, executed),
        "goodput_jobs_per_s": statistics.median(v for v, _ in goodputs),
        "ok_frac": ref["ok"] / ref["jobs"],
        "peak_rss_mb": max(rss_all) / 1024.0,
        "job_p50_ms": ref["p50_ms"],
        "job_p99_ms": ref["p99_ms"],
        "failed_frac": 1 - ref["ok"] / ref["jobs"],
    }
    unsound = sum(1 for r in expected if r["unsound"])
    notes = [
        f"open loop into cubemm serve --workers {WORKERS}: pool of {len(pool)} jobs "
        f"({', '.join(f'{v} {k}' for k, v in sorted(Counter(c for c, _ in pool).items()))}); "
        f"setup_s is the median of {SETUPS} set-ups (spawn + a {BATCH}-job closed batch)",
        f"jobs_per_s: median of {len(batch_rates)} closed batches of {BATCH} jobs sent at once "
        f"({', '.join(f'{x:.0f}' for x in batch_rates)} jobs/s)",
        f"reference rate {REF_RATE}/s in {WINDOWS} windows, one before each ladder climb: "
        f"{ref['jobs']} jobs; job_p50_ms / job_p99_ms timed from the due time "
        f"({ref['beyond_p99']} beyond p99); generator late p50/p99 "
        f"{ref['gen_late_p50_ms']:.3f}/{ref['gen_late_p99_ms']:.3f} ms",
        f"cpu_ms_per_job: the service's CPU time over the {executed} jobs it executed",
        f"failed_frac over {ref['jobs']} reference jobs; the in-process execute pass "
        f"predicts {predicted:.6g}",
        f"expected answers: {len(expected) - unsound} of {len(expected)} tied to a product "
        f"checked against gemm::reference",
        f"ladder climbs (p99 limit {LIMIT_MS:g} ms; a step is valid when generator lateness "
        f"p50 <= {metrics.LATE_P50_MS:g} ms, p99 <= {metrics.LATE_P99_MS:g} ms and the queue held; "
        f"a climb stops after {STOP_AFTER} failing steps in a row; goodput is the median of "
        f"{', '.join(f'{v:.0f}' for v, _ in goodputs)} jobs/s):",
    ]
    for w, (steps, (_, best)) in enumerate(zip(climbs, goodputs)):
        for i, s in enumerate(steps):
            mark = " <- goodput" if i == best else ""
            notes.append(
                f"  climb {w} {s['rate']:5d}/s  jobs {s['jobs']:4d}  ok {s['ok']:4d}  "
                f"p50 {s['p50_ms']:8.3f} ms  p99 {s['p99_ms']:8.3f} ms ({s['beyond_p99']} beyond)  "
                f"late p50/p99 {s['gen_late_p50_ms']:.3f}/{s['gen_late_p99_ms']:.3f} ms  "
                f"backlog {s['backlog_end']}  {'valid' if s['valid'] else 'INVALID'}{mark}")
    notes.append(f"drain: {drain}")
    for jid, k, why in failures:
        notes.append(f"GATE FAILURE {jid} (pool {k}): {why}")
    details = {"setups_s": setups, "batch_rates": batch_rates, "ref": ref, "climbs": climbs,
               "drain": drain}
    return values, attempted, len(failures), notes, details


def trace(ctx, _name):
    """The traced run: the reference-rate phase against the service for
    the queue and recovery counters, then the in-process pass over the
    pool."""
    pool = _pool(ctx)
    expected = _expected(ctx, pool)
    rows = common.probe_rows(ctx, ["trace-serve"], [f"{c}\t{b}" for c, b in pool])
    runs = {(r["job"], r["mode"]): r for r in rows if r["kind"] == "job"}
    failures = [(f"pool-{k}-{mode}", k, f"in-process {mode} answer: {why}")
                for k in range(len(pool)) for mode in ("traced", "untraced")
                if (why := metrics.serve_mismatch(runs[(k, mode)], expected[k]))]

    session, _, warm = _setup(ctx, pool, "warm", 0)
    failures += _gate_batch(session, warm, expected)
    sched = _schedule(pool, "ref", TRACE_JOBS, 0)
    raw, f = _phase(session, sched, REF_RATE, expected)
    ref = _score(REF_RATE, [raw])
    failures += f
    rc, _, _, drain = session.close()
    if rc != 0:
        raise RuntimeError(f"cubemm serve exited {rc}")
    answered = [session.received[j][1] for j, _, _ in sched if j in session.received]
    oks = [r for r in answered if r["status"] == "ok"]

    spans = [r for r in rows if r["kind"] == "span"]
    served = [s for s in spans if s["mode"] == "traced" and s["name"] != "job"]
    direct = [s for s in spans if s["mode"] == "layers" and s["name"] != "layers"]
    by_class = Counter(c for c, _ in pool)
    abft_jobs = by_class.get("abft", 0) + by_class.get("fault", 0)
    served_ms = metrics.layer_self_ms(served, {
        "serve.exec_abft": by_class.get("abft", 0),
        "serve.exec_fault": by_class.get("fault", 0),
        "serve.exec_plain": by_class.get("plain", 0),
    })
    direct_ms = metrics.layer_self_ms(direct, {
        "dense.reference": by_class.get("plain", 0),
        "dense.check": by_class.get("plain", 0),
        "dense.abft_augment": abft_jobs,
        "dense.abft_verify": abft_jobs,
    })
    layer_rows = [r for r in rows if r["kind"] == "layers"]
    probes = [r for r in rows if r["kind"] == "probe"]
    plain_layer_jobs = [r for r in layer_rows if r["class"] == "plain"]
    probe_of = {(r["algo"], r["n"], r["p"]): r for r in probes}
    # Local GEMM per unprotected job, from its shape's probe.
    plain_req = [json.loads(pool[r["job"]][1]) for r in plain_layer_jobs]
    plain_algo = [runs[(r["job"], "traced")].get("algo") for r in plain_layer_jobs]
    gemm_ms, part_ms, flops = [], [], []
    for req, algo in zip(plain_req, plain_algo):
        shape_probe = probe_of.get((algo, req["n"], req["p"]))
        if shape_probe:
            f = 2.0 * req["n"] ** 3
            flops.append(f)
            gemm_ms.append(f / (shape_probe["gemm_flops"] / shape_probe["gemm_ns"]) / 1e6)
            part_ms.append(shape_probe["partition_ns"] / 1e6)

    untraced_ms = metrics.mean([runs[(k, "untraced")]["total_ns"] / 1e6 for k in range(len(pool))])
    traced_ms = metrics.mean([runs[(k, "traced")]["total_ns"] / 1e6 for k in range(len(pool))])
    exec_ms = [(sp["end_ns"] - sp["start_ns"]) / 1e6 for sp in served
               if sp["name"].startswith("serve.exec_")]
    unattributed, flagged = metrics.reconcile(untraced_ms, {
        "parse": served_ms.get("serve.parse", 0.0),
        "exec": sum(served_ms.get(f"serve.exec_{c}", 0.0) * by_class.get(c, 0)
                    for c in ("abft", "fault", "plain")) / len(pool),
        "encode": served_ms.get("serve.encode", 0.0),
    })
    multiply_ms = direct_ms.get("core.multiply", 0.0)
    local_gemm_ms = metrics.mean(gemm_ms)
    messages = metrics.mean([r["messages"] for r in layer_rows])
    values = {
        "dense.reference_ms": direct_ms.get("dense.reference", 0.0),
        "dense.local_gemm_gflops": sum(flops) / (sum(gemm_ms) * 1e6) if gemm_ms else 0.0,
        "dense.local_gemm_ms": local_gemm_ms,
        "core.multiply_ms": multiply_ms,
        "core.non_gemm_ms": multiply_ms - local_gemm_ms,
        "dense.partition_ms": metrics.mean(part_ms),
        "dense.operands_ms": direct_ms.get("dense.operands", 0.0),
        "dense.check_ms": direct_ms.get("dense.check", 0.0),
        "serve.fingerprint_ms": direct_ms.get("serve.fingerprint", 0.0),
        "simnet.messages": messages,
        "simnet.word_hops": metrics.mean([r["word_hops"] for r in layer_rows]),
        "simnet.peak_words": metrics.mean([r["peak_words"] for r in layer_rows]),
        "simnet.ns_per_message": (multiply_ms - local_gemm_ms) * 1e6 / messages if messages else 0.0,
        "serve.parse_us": served_ms.get("serve.parse", 0.0) * 1e3,
        "serve.encode_us": served_ms.get("serve.encode", 0.0) * 1e3,
        "serve.exec_abft_ms": served_ms.get("serve.exec_abft", 0.0),
        "serve.exec_fault_ms": served_ms.get("serve.exec_fault", 0.0),
        "serve.exec_plain_ms": served_ms.get("serve.exec_plain", 0.0),
        "dense.abft_augment_ms": direct_ms.get("dense.abft_augment", 0.0),
        "dense.abft_verify_ms": direct_ms.get("dense.abft_verify", 0.0),
        "harness.attempts": metrics.mean([r["attempts"] for r in oks]),
        "harness.retry_frac": sum(1 for r in oks if r["attempts"] > 1) / max(1, len(oks)),
        "serve.quarantines": float(drain.get("quarantines", 0)),
        "serve.reboots": float(drain.get("reboots", 0)),
        "serve.queue_wait_ms": ref["p50_ms"] - statistics.median(exec_ms),
        "bench.trace_overhead_ms": traced_ms - untraced_ms,
        "bench.unattributed_ms": unattributed,
        "bench.unattributed_flag": float(flagged),
        "bench.gen_late_p99_ms": ref["gen_late_p99_ms"],
        "bench.job_samples": float(len(pool)),
    }
    notes = [
        f"traced pass: {len(pool)} pool jobs in-process (parse -> execute -> encode) with spans "
        f"off and on; layer values are means per job of the class they apply to",
        f"reference rate {REF_RATE}/s against cubemm serve: {ref['jobs']} jobs, "
        f"p50 {ref['p50_ms']:.3f} ms; in-process execute p50 {statistics.median(exec_ms):.3f} ms",
        f"drain: {drain}",
    ]
    if flagged:
        notes.append(f"FLAG bench.unattributed_ms = {unattributed:.3f} ms exceeds "
                     f"{metrics.JOB_TIME_BOUND:.0%} of the {untraced_ms:.3f} ms job")
    for jid, k, why in failures:
        notes.append(f"GATE FAILURE {jid} (pool {k}): {why}")
    details = {"ref": ref, "drain": drain, "probes": probes}
    return values, ref["jobs"] + BATCH + 2 * len(pool), len(failures), notes, details, spans
