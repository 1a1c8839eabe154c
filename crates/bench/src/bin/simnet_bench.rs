//! Simulator throughput: the checked-in executor perf trajectory.
//!
//! Measures host-time cost of the simnet execution core itself — machine
//! spin-up, neighbor ping-pong latency, and a full recursive-doubling
//! all-gather — on the virtual-clock work-queue executor, and writes the
//! results as `BENCH_simnet.json` in the working directory, mirroring the
//! `BENCH_kernels.json` format (the host's core count and CPU model are
//! recorded alongside).
//!
//! ```text
//! cargo run --release -p cubemm-bench --bin simnet_bench              # full run
//! cargo run --release -p cubemm-bench --bin simnet_bench -- --smoke   # CI smoke
//! cargo run --release -p cubemm-bench --bin simnet_bench -- \
//!     --baseline OLD.json                                             # + speedups
//! ```
//!
//! `--smoke` runs the small sizes only — plus one spin-up at p = 4096 —
//! and cross-checks every case's virtual-time result against its closed
//! form, exiting non-zero on mismatch — a cheap guard that keeps the
//! executor and bench code from bit-rotting. The full run performs the
//! same verification before timing anything, and includes spin-up points
//! at p = 4096 and p = 65536. A `--baseline FILE` reads a previously
//! written `BENCH_simnet.json` and emits a `speedup_vs_baseline` column,
//! the before/after evidence for executor changes (rows a baseline marks
//! `"engine": "threaded"` are ignored).

use std::time::Instant;

use cubemm_collectives::allgather;
use cubemm_simnet::{CostParams, Machine, Proc, RunOutcome};
use cubemm_topology::Subcube;

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

/// Ping-pong rounds per run: enough that per-message cost dominates the
/// two-node spin-up.
const PINGPONG_ROUNDS: usize = 512;

/// Words per all-gather contribution.
const ALLGATHER_WORDS: usize = 64;

#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    p: usize,
}

/// Boots a healthy one-port machine and runs `program`.
fn run<O, F, Fut>(p: usize, program: F) -> RunOutcome<O>
where
    F: Fn(Proc, ()) -> Fut,
    Fut: std::future::Future<Output = O>,
{
    #[allow(
        clippy::expect_used,
        reason = "bench machine shapes are fixed and valid; failure is a bench bug"
    )]
    Machine::builder(p)
        .cost(COST)
        .build()
        .expect("valid bench machine")
        .run(vec![(); p], program)
        .expect("healthy bench run")
}

/// One `p`-node machine spin-up and tear-down with no communication.
fn spinup(p: usize) -> f64 {
    let out = run(p, |proc, ()| async move { proc.id() });
    assert_eq!(out.outputs.len(), p);
    out.stats.elapsed
}

/// Two nodes volleying a 4-word message `PINGPONG_ROUNDS` times.
fn pingpong() -> f64 {
    let out = run(2, |mut proc, ()| async move {
        let msg = vec![proc.id() as f64; 4];
        for r in 0..PINGPONG_ROUNDS as u64 {
            if proc.id() == 0 {
                proc.send(1, r, msg.clone());
                let _ = proc.recv(1, r).await;
            } else {
                let got = proc.recv(0, r).await;
                proc.send(0, r, got);
            }
        }
        proc.clock()
    });
    out.stats.elapsed
}

/// Full-cube recursive-doubling all-gather of `ALLGATHER_WORDS`-word
/// contributions.
fn allgather_run(p: usize) -> f64 {
    let dim = p.trailing_zeros();
    let out = run(p, move |mut proc, ()| async move {
        let sc = Subcube::whole(dim);
        let mine: Vec<f64> = vec![proc.id() as f64; ALLGATHER_WORDS];
        let got = allgather(&mut proc, &sc, 0, mine.into()).await;
        assert_eq!(got.len(), p);
        got[p - 1].len()
    });
    out.stats.elapsed
}

fn run_case(case: Case) -> f64 {
    match case.name {
        "spinup" => spinup(case.p),
        "pingpong" => pingpong(),
        "allgather" => allgather_run(case.p),
        other => unreachable!("unknown case {other}"),
    }
}

/// Verifies each case's virtual time against its closed form — the
/// executor must get faster without changing a single simulated number.
fn verify(case: Case) -> Result<(), String> {
    let elapsed = run_case(case);
    let want = match case.name {
        "spinup" => 0.0,
        // Each volley is two serialized 4-word hops.
        "pingpong" => PINGPONG_ROUNDS as f64 * 2.0 * (COST.ts + COST.tw * 4.0),
        // Table 1, one-port: ts·log p + tw·(p−1)·M.
        "allgather" => {
            COST.ts * f64::from(case.p.trailing_zeros())
                + COST.tw * ((case.p - 1) * ALLGATHER_WORDS) as f64
        }
        other => unreachable!("unknown case {other}"),
    };
    if elapsed != want {
        return Err(format!(
            "{}/p={}: virtual time {elapsed} != closed form {want}",
            case.name, case.p
        ));
    }
    Ok(())
}

/// Median-of-`reps` wall seconds for one execution of `case`.
fn time_case(case: Case, reps: usize) -> f64 {
    let _ = run_case(case); // warm-up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(run_case(case));
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Pulls `(case, p) -> seconds` rows back out of a previously written
/// `BENCH_simnet.json` (the format this binary emits; a line scanner
/// keyed on the known shape). Rows an older file marks
/// `"engine": "threaded"` measured a different executor and are skipped.
fn parse_baseline(text: &str) -> Vec<(String, usize, f64)> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let get = |key: &str| -> Option<&str> {
            let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = line[at..].trim_start();
            let rest = rest.strip_prefix('"').unwrap_or(rest);
            let end = rest.find([',', '"', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim())
        };
        if get("engine") == Some("threaded") {
            continue;
        }
        if let (Some(case), Some(p), Some(secs)) = (get("case"), get("p"), get("seconds")) {
            if let (Ok(p), Ok(secs)) = (p.parse(), secs.parse()) {
                rows.push((case.to_string(), p, secs));
            }
        }
    }
    rows
}

/// The host CPU's model name (Linux `/proc/cpuinfo`), for the record.
fn host_cpu() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let baseline: Vec<(String, usize, f64)> = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1))
        .map(|path| match std::fs::read_to_string(path) {
            Ok(text) => parse_baseline(&text),
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        })
        .unwrap_or_default();

    let case = |name: &'static str, p: usize| Case { name, p };
    let cases: Vec<Case> = if smoke {
        vec![
            case("spinup", 8),
            case("pingpong", 2),
            case("allgather", 8),
            case("spinup", 4096),
        ]
    } else {
        vec![
            case("spinup", 8),
            case("spinup", 64),
            case("spinup", 256),
            case("pingpong", 2),
            case("allgather", 8),
            case("allgather", 64),
            case("allgather", 256),
            case("spinup", 4096),
            case("spinup", 65536),
        ]
    };

    // Correctness first: a fast executor that simulates wrong times is
    // worse than a slow one.
    for &case in &cases {
        if let Err(e) = verify(case) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!("all cases verified against closed-form virtual times");

    let reps = if smoke { 3 } else { 9 };
    let mut rows: Vec<String> = Vec::new();
    println!(
        "{:<12} {:>6} {:>12} {:>10}",
        "case", "p", "seconds", "vs base"
    );
    for &case in &cases {
        let secs = time_case(case, reps);
        let base = baseline
            .iter()
            .find(|(n, p, _)| n == case.name && *p == case.p)
            .map(|&(_, _, s)| s);
        let speedup = base.map_or(0.0, |b| b / secs);
        println!(
            "{:<12} {:>6} {:>12.6} {:>10}",
            case.name,
            case.p,
            secs,
            base.map_or_else(|| "-".to_string(), |_| format!("{speedup:.2}x")),
        );
        rows.push(format!(
            "    {{\"case\": \"{}\", \"p\": {}, \"seconds\": {:.6}, \"speedup_vs_baseline\": {:.3}}}",
            case.name, case.p, secs, speedup
        ));
    }

    if !smoke {
        let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
        let json = format!(
            "{{\n  \"bench\": \"simnet_engine\",\n  \"host_cores\": {host_cores},\n  \
             \"host_cpu\": \"{}\",\n  \"baseline\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
            host_cpu(),
            if baseline.is_empty() {
                "none"
            } else {
                "--baseline file, event rows"
            },
            rows.join(",\n")
        );
        std::fs::write("BENCH_simnet.json", &json).expect("write BENCH_simnet.json");
        println!("wrote BENCH_simnet.json");
    }
}
