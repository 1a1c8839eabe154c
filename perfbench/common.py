"""Process plumbing shared by the workloads: spawning the binaries under
test with the pinned environment, peak-RSS accounting, the probe, and
seeding."""

import json
import os
import re
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

# Every child process the benchmark starts, so an error or the run's
# watchdog can stop and reap all of them.
LIVE = []


@dataclass
class Context:
    """What a workload needs: the binaries, the scratch working
    directory, the pinned child environment, and the run's arguments."""

    cubemm: str
    probe: str
    workdir: str
    env: dict
    seed: int
    seconds: float
    trace: int


def spawn(ctx, argv, **kw):
    proc = subprocess.Popen(argv, cwd=ctx.workdir, env=ctx.env, **kw)
    LIVE.append(proc)
    return proc


def reap(proc):
    """Waits for ``proc``; returns ``(exit code, peak RSS KiB, CPU s)``.
    CPU time (user + system) excludes the time the hypervisor gave the
    CPU to other guests, so it stays put when wall time does not."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    LIVE.remove(proc)
    return proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def stop_all():
    for proc in list(LIVE):
        if proc.poll() is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass
        LIVE.remove(proc)


def run_timed(ctx, argv):
    """Runs one process to exit: ``(wall s, exit code, stdout, peak RSS
    KiB, CPU s)``, wall time from spawn to exit."""
    t0 = time.perf_counter()
    proc = spawn(ctx, argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = proc.stdout.read()
    rc, rss, cpu = reap(proc)
    return time.perf_counter() - t0, rc, out.decode(errors="replace"), rss, cpu


def probe(ctx, args, lines):
    """Runs the in-process probe with ``lines`` on stdin and returns its
    standard output."""
    proc = spawn(ctx, [ctx.probe] + args, stdin=subprocess.PIPE,
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate("".join(l + "\n" for l in lines).encode())
    LIVE.remove(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"perfprobe {args[0]} failed: {err.decode(errors='replace').strip()}")
    return out.decode()


def probe_rows(ctx, args, lines):
    return [json.loads(l) for l in probe(ctx, args, lines).splitlines() if l.strip()]


def mix(seed, i):
    """A job seed derived from the workload seed and the job index
    (splitmix64 finaliser), kept below 2^31 so ``seed + 1`` fits every
    consumer."""
    z = (seed * 0x9E3779B97F4A7C15 + (i + 1) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return (z ^ (z >> 31)) & 0x7FFFFFFF


def dep_info(text, base):
    """The input files a cargo dep-info file (``<binary>.d``) lists:
    ``target: dep dep ...``, with spaces inside a name escaped by a
    backslash. Relative names are taken from ``base``."""
    deps = []
    for line in text.splitlines():
        _, sep, rest = line.partition(": ")
        if sep:
            deps += [d.replace("\\ ", " ") for d in re.split(r"(?<!\\)\s+", rest.strip()) if d]
    return [Path(base) / d for d in deps]
