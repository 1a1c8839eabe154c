//! The `cubemm` subcommands.

use cubemm_core::abft::AbftOutcome;
use cubemm_core::prelude::*;
use cubemm_dense::gemm;
use cubemm_harness::recovery::{multiply_with_recovery, RecoveryError, RecoveryPolicy};
use cubemm_model::{render_ascii, RegionMap, Sweep};
use cubemm_simnet::{ChargePolicy, CorruptKind, Corruption, CostParams, FaultPlan, RunError};

use crate::args::{parse_kernel, parse_port, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
cubemm — communication-efficient matrix multiplication on simulated hypercubes
(reproduction of Gupta & Sadayappan, SPAA 1994)

USAGE:
  cubemm list [n] [p]            show every algorithm and its applicability
  cubemm run --algo A --n N --p P [--port one|multi] [--ts T] [--tw W]
             [--charge sender|symmetric] [--seed S]
             [--kernel naive|ikj|blocked[:TILE]|packed[:THREADS]]
             [--fault-link A:B] [--fault-degrade A:B:TSF:TWF]
             [--fault-straggler NODE:FACTOR] [--fault-drop FROM:TO:K]
             [--fault-corrupt FROM:TO:K:WORD:DELTA]
             [--fault-flip FROM:TO:K:WORD:BIT] [--fault-crash NODE:STEP]
             [--fault-strict true|false]
             [--fault-plan FILE] [--fault-plan-dump FILE]
             [--abft] [--recover-attempts N]
                                 one verified simulated multiplication;
                                 --fault-* flags repeat, and a faulty run
                                 reports retries/detours/drops and the
                                 extra virtual time against a healthy
                                 baseline re-run
  cubemm sweep --n N [--p 4,16,64,512] [--port one|multi] [--ts T] [--tw W]
               [--charge ...] [--kernel ...] [--fault-* ...] [--jobs N]
                                 compare all applicable algorithms
  cubemm regions [--port one|multi] [--ts T] [--tw W]
                                 Figure 13/14-style best-algorithm map
  cubemm analyze <algo|all> [--n N] [--p P] [--port one|multi|both]
                 [--jobs N] [--symbolic]
                                 static schedule analysis: prove the compiled
                                 schedule deadlock-free and port/link-legal,
                                 extract its exact (a, b) Table 2 coordinates
                                 by replay, and report per-phase traffic;
                                 `analyze all` sweeps every algorithm over
                                 the default (n, p) grid and fails on any
                                 violation. --symbolic certifies the closed
                                 forms instead: collective schemas and
                                 algorithm compositions are proven against
                                 Tables 1/2 as polynomial identities in n
                                 and 2^d, valid for every p = 2^d at once
                                 (grid replay remains as a spot-check
                                 inside each certificate)
  cubemm serve [--workers N] [--queue N] [--socket PATH]
                                 long-lived multiply service: JSON-lines
                                 requests on stdin (or a Unix socket),
                                 one typed JSON response per job; see
                                 DESIGN.md §13 for the protocol
  cubemm chaos <algo|all> [--seed S] [--runs N] [--n N] [--max-entries K]
               [--budget-factor F] [--recover-attempts N]
               [--fail-on corrected] [--repro-dir DIR]
                                 seeded coverage-guided chaos campaign:
                                 randomized fault plans spanning every
                                 fault family run under ABFT + recovery
                                 against invariant oracles (bitwise
                                 product, report sanity, typed-failure
                                 taxonomy, virtual-time budget); any
                                 oracle failure is delta-debugged to a
                                 minimal repro plan, written to
                                 --repro-dir as --fault-plan JSON.
                                 Byte-identical output for a fixed
                                 --seed; `all` also prints aggregate
                                 fault-space coverage. Exit 0 = every
                                 oracle held, 2 = violations (repros
                                 written)
  cubemm tune-kernel [--n 512] [--reps 3] [--threads 1] [--full]
                     [--out FILE] [--dry-run]
                                 sweep the packed kernel's mc/kc/nc blocking
                                 grid (pruned against this host's detected
                                 cache sizes) on an n×n×n product and write
                                 the winner to FILE (default
                                 $CUBEMM_TUNE_FILE or ./cubemm-tune.json);
                                 untuned packed runs load it automatically
                                 when its microkernel matches. --full widens
                                 the grid ~4x; --dry-run prints the table
                                 without writing
  cubemm help                    this text

Defaults: n=64, p=64, port=one, ts=150, tw=3, charge=sender (the paper's
parameters and accounting), kernel=packed (single-threaded; `packed:0`
picks a thread count automatically).
Each run simulates the whole machine on one host thread under a
virtual-clock-ordered scheduler, up to p = 65536 nodes.
A run that cannot progress (e.g. --fault-drop on an algorithm without
retries) is reported as a structured deadlock naming every blocked node,
detected exactly and instantly by the scheduler's progress ledger (no
watchdog; results are identical at any --jobs value).
--jobs N runs independent sweep/analysis grid points on N worker
threads; output is identical to --jobs 1 (the default).
Every subcommand rejects a flag it does not define (exit 2).
--abft runs the multiplication under Huang-Abraham checksum protection:
silent data corruption (--fault-corrupt perturbs word WORD of the K-th
payload crossing the directed edge FROM->TO by DELTA; --fault-flip flips
bit BIT of it) is detected from the product's checksum residuals and
either corrected in place or survived by quarantining the corrupting
link and re-running; a node crash scheduled with --fault-crash (kills
NODE at its STEP-th communication call) is survived by rebooting it.
--recover-attempts N bounds the re-runs (default 4, capped exponential
virtual backoff between attempts). --fault-plan loads a JSON fault plan
(flags stack on top); --fault-plan-dump writes the effective plan.
cubemm serve boots a pool of --workers machines (default 4) and reads
one JSON request per line: {\"id\",\"n\",\"p\",...} with optional algo
(default auto = the Table 2 model's pick), kernel, port, ts, tw, seed,
abft (default true), priority 0-9, deadline (virtual time), attempts,
and faults (a fault-plan object). Each job is answered with exactly one
typed JSON line: ok (with a bit-exact product fingerprint), overloaded
(+retry_after_ms; the --queue bound is strict and excess load is shed
lowest-priority-first), rejected, failed, deadline, or malformed (bad
lines never kill the stream). EOF or SIGTERM stops admission, drains
the queue, and prints a summary to stderr.
Exit codes: 0 = verified product (clean, ABFT-corrected, or recovered);
            2 = usage/run errors, or damage still uncorrectable after
                the --recover-attempts budget;
            3 = deadlock (every live node blocked in a receive);
            4 = serve only: the request stream itself broke (I/O error);
                per-job failures never abort the service.
Algorithms: simple cannon hje berntsen dns diag2d 3dd 3d-all-trans 3d-all
            dns-cannon 3d-all-cannon 3d-all-flat cannon-torus fox
";

fn fail(msg: &str) -> i32 {
    eprintln!("error: {msg}");
    2
}

/// The flags [`machine_from`] reads: the machine model and the
/// repeatable fault family.
const MACHINE_FLAGS: &[&str] = &[
    "port",
    "ts",
    "tw",
    "charge",
    "kernel",
    "fault-plan",
    "fault-link",
    "fault-degrade",
    "fault-straggler",
    "fault-drop",
    "fault-corrupt",
    "fault-flip",
    "fault-crash",
    "fault-strict",
];

/// Parses `--jobs N` (default 1 — serial, byte-identical output at any
/// value; see `cubemm_harness::run_grid`).
fn jobs_from(args: &Args) -> Result<usize, String> {
    let jobs: usize = args.get_or("jobs", 1)?;
    if jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    Ok(jobs)
}

/// `cubemm list [n] [p]`.
pub fn list(argv: &[String]) -> i32 {
    let args = match Args::parse(argv, &[], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let n: usize = args.positional(0).unwrap_or(64);
    let p: usize = args.positional(1).unwrap_or(64);
    println!("applicability at n = {n}, p = {p}:");
    for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
        match algo.check(n, p) {
            Ok(()) => println!("  {:<14} ok", algo.name()),
            Err(e) => println!("  {:<14} -- {e}", algo.name()),
        }
    }
    0
}

fn machine_from(args: &Args) -> Result<(MachineConfig, f64, f64), String> {
    let ts: f64 = args.get_or("ts", 150.0)?;
    let tw: f64 = args.get_or("tw", 3.0)?;
    let charge = match args.raw("charge") {
        None | Some("sender") => ChargePolicy::SenderOnly,
        Some("symmetric") => ChargePolicy::Symmetric,
        Some(other) => {
            return Err(format!(
                "unknown charge policy {other:?} (sender|symmetric)"
            ))
        }
    };
    let cfg = MachineConfig::builder()
        .port(parse_port(args.raw("port"))?)
        .costs(CostParams { ts, tw })
        .kernel(parse_kernel(args.raw("kernel"))?)
        .charge(charge)
        .faults(faults_from(args)?)
        .build();
    Ok((cfg, ts, tw))
}

/// Splits a `--fault-*` spec into exactly `n` colon-separated fields.
fn fields<'a>(flag: &str, spec: &'a str, n: usize) -> Result<Vec<&'a str>, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() != n {
        return Err(format!(
            "--{flag} {spec:?}: expected {n} colon-separated fields"
        ));
    }
    Ok(parts)
}

fn num<T: std::str::FromStr>(flag: &str, spec: &str, field: &str) -> Result<T, String> {
    field
        .parse()
        .map_err(|_| format!("--{flag} {spec:?}: invalid number {field:?}"))
}

/// Requires `a <-> b` to be a hypercube edge before handing it to the
/// (panicking) `FaultPlan` builders.
fn require_edge(flag: &str, spec: &str, a: usize, b: usize) -> Result<(), String> {
    if (a ^ b).count_ones() != 1 {
        return Err(format!(
            "--{flag} {spec:?}: nodes {a} and {b} are not hypercube neighbors"
        ));
    }
    Ok(())
}

/// Builds the deterministic fault plan from the repeatable `--fault-*`
/// flags (see `USAGE`).
fn faults_from(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = match args.raw("fault-plan") {
        None => FaultPlan::new(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("--fault-plan {path:?}: {e}"))?;
            FaultPlan::from_json(&text).map_err(|e| format!("--fault-plan {path:?}: {e}"))?
        }
    };
    for spec in args.raw_all("fault-link") {
        let f = fields("fault-link", spec, 2)?;
        let (a, b) = (
            num("fault-link", spec, f[0])?,
            num("fault-link", spec, f[1])?,
        );
        require_edge("fault-link", spec, a, b)?;
        plan = plan.with_dead_link(a, b);
    }
    for spec in args.raw_all("fault-degrade") {
        let f = fields("fault-degrade", spec, 4)?;
        let (a, b) = (
            num("fault-degrade", spec, f[0])?,
            num("fault-degrade", spec, f[1])?,
        );
        let (tsf, twf): (f64, f64) = (
            num("fault-degrade", spec, f[2])?,
            num("fault-degrade", spec, f[3])?,
        );
        require_edge("fault-degrade", spec, a, b)?;
        if !(tsf.is_finite() && tsf > 0.0 && twf.is_finite() && twf > 0.0) {
            return Err(format!(
                "--fault-degrade {spec:?}: factors must be positive and finite"
            ));
        }
        plan = plan.with_degraded_link(a, b, tsf, twf);
    }
    for spec in args.raw_all("fault-straggler") {
        let f = fields("fault-straggler", spec, 2)?;
        let node = num("fault-straggler", spec, f[0])?;
        let slow: f64 = num("fault-straggler", spec, f[1])?;
        if !(slow.is_finite() && slow >= 1.0) {
            return Err(format!(
                "--fault-straggler {spec:?}: slowdown must be finite and >= 1"
            ));
        }
        plan = plan.with_straggler(node, slow);
    }
    for spec in args.raw_all("fault-drop") {
        let f = fields("fault-drop", spec, 3)?;
        plan = plan.with_drop(
            num("fault-drop", spec, f[0])?,
            num("fault-drop", spec, f[1])?,
            num("fault-drop", spec, f[2])?,
        );
    }
    for spec in args.raw_all("fault-corrupt") {
        let f = fields("fault-corrupt", spec, 5)?;
        let (from, to) = (
            num("fault-corrupt", spec, f[0])?,
            num("fault-corrupt", spec, f[1])?,
        );
        require_edge("fault-corrupt", spec, from, to)?;
        let k: u64 = num("fault-corrupt", spec, f[2])?;
        let word: usize = num("fault-corrupt", spec, f[3])?;
        let delta: f64 = num("fault-corrupt", spec, f[4])?;
        if !delta.is_finite() || delta == 0.0 {
            return Err(format!(
                "--fault-corrupt {spec:?}: delta must be finite and non-zero"
            ));
        }
        plan = plan.with_corruption(
            from,
            to,
            k,
            Corruption {
                word,
                kind: CorruptKind::Perturb { delta },
            },
        );
    }
    for spec in args.raw_all("fault-flip") {
        let f = fields("fault-flip", spec, 5)?;
        let (from, to) = (
            num("fault-flip", spec, f[0])?,
            num("fault-flip", spec, f[1])?,
        );
        require_edge("fault-flip", spec, from, to)?;
        let k: u64 = num("fault-flip", spec, f[2])?;
        let word: usize = num("fault-flip", spec, f[3])?;
        let bit: u32 = num("fault-flip", spec, f[4])?;
        if bit > 63 {
            return Err(format!("--fault-flip {spec:?}: bit must be 0..=63"));
        }
        plan = plan.with_corruption(
            from,
            to,
            k,
            Corruption {
                word,
                kind: CorruptKind::BitFlip { bit },
            },
        );
    }
    for spec in args.raw_all("fault-crash") {
        let f = fields("fault-crash", spec, 2)?;
        plan = plan.with_crash(
            num("fault-crash", spec, f[0])?,
            num("fault-crash", spec, f[1])?,
        );
    }
    match args.raw("fault-strict") {
        None => {}
        Some("false") => plan = plan.lenient(),
        Some("true") => plan = plan.strict(),
        Some(other) => {
            return Err(format!(
                "unknown --fault-strict value {other:?} (true|false)"
            ))
        }
    }
    Ok(plan)
}

/// `cubemm run --algo A --n N --p P ...`.
pub fn run(argv: &[String]) -> i32 {
    let flags = [
        MACHINE_FLAGS,
        &[
            "algo",
            "n",
            "p",
            "seed",
            "fault-plan-dump",
            "recover-attempts",
        ],
    ]
    .concat();
    let args = match Args::parse(argv, &flags, &["abft"]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let algo: Algorithm = match args.require::<String>("algo").and_then(|s| {
        s.parse::<Algorithm>()
            .map_err(|e| format!("{e} (see `cubemm help` for the list)"))
    }) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let n: usize = match args.get_or("n", 64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let p: usize = match args.get_or("p", 64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let seed: u64 = match args.get_or("seed", 1) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let (cfg, ts, tw) = match machine_from(&args) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if let Some(path) = args.raw("fault-plan-dump") {
        if let Err(e) = std::fs::write(path, cfg.faults.to_json() + "\n") {
            return fail(&format!("--fault-plan-dump {path:?}: {e}"));
        }
        println!("effective fault plan written to {path}");
    }

    let a = Matrix::random(n, n, seed);
    let b = Matrix::random(n, n, seed + 1);
    if args.has("abft") {
        // ABFT pads to the nearest acceptable order internally, so the
        // raw n is not checked here.
        return run_abft(algo, &a, &b, p, &args, &cfg);
    }

    if let Err(e) = algo.check(n, p) {
        return fail(&format!("{algo} cannot run n={n} on p={p}: {e}"));
    }
    let res = match algo.multiply(&a, &b, p, &cfg) {
        Ok(r) => r,
        Err(AlgoError::Sim(e @ RunError::Deadlock { .. })) => {
            eprintln!("error: {e}");
            return 3;
        }
        Err(e) => return fail(&e.to_string()),
    };
    let err = res.c.max_abs_diff(&gemm::reference(&a, &b));
    println!(
        "{algo}: n = {n}, p = {p}, {} nodes, ts = {ts}, tw = {tw}",
        cfg.port
    );
    println!("  verified:              max |Δ| = {err:.2e}");
    // The same identity `cubemm serve` reports: FNV-1a 64 over the
    // product's bits, for byte-exact comparison across modes.
    println!(
        "  fingerprint:           {}",
        cubemm_serve::fingerprint_hex(&res.c)
    );
    println!("  simulated comm time:   {:.1}", res.stats.elapsed);
    println!("  messages injected:     {}", res.stats.total_messages());
    println!("  word·hops moved:       {}", res.stats.total_word_hops());
    println!("  peak words (total):    {}", res.stats.total_peak_words());
    if !cfg.faults.is_empty() {
        // Re-run the same multiplication on a healthy machine so the
        // report can price the injected faults.
        let mut healthy = cfg.clone();
        healthy.faults = FaultPlan::new();
        let baseline = match algo.multiply(&a, &b, p, &healthy) {
            Ok(r) => r.stats.elapsed,
            Err(e) => return fail(&format!("healthy baseline run failed: {e}")),
        };
        let fp = &cfg.faults;
        println!("  faults:");
        println!(
            "    injected:            {} dead, {} degraded, {} stragglers, {} drops ({})",
            fp.dead_links().count(),
            fp.degraded_links().count(),
            fp.stragglers().count(),
            fp.scheduled_drops().count(),
            if fp.is_strict() { "strict" } else { "lenient" },
        );
        println!("    retries:             {}", res.stats.total_retries());
        println!("    detour hops:         {}", res.stats.total_detour_hops());
        println!("    messages dropped:    {}", res.stats.total_dropped());
        println!(
            "    vs healthy run:      {baseline:.1} -> {:.1} ({:+.1})",
            res.stats.elapsed,
            res.stats.elapsed - baseline,
        );
    }
    if err > 1e-9 * n as f64 {
        return fail("verification FAILED");
    }
    0
}

/// The `--abft` arm of `cubemm run`: checksum-protected multiplication
/// under quarantine-and-rerun recovery (see `USAGE` for the exit-code
/// contract).
fn run_abft(
    algo: Algorithm,
    a: &Matrix,
    b: &Matrix,
    p: usize,
    args: &Args,
    cfg: &MachineConfig,
) -> i32 {
    let n = a.rows();
    let attempts: usize = match args.get_or("recover-attempts", 4) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if attempts == 0 {
        return fail("--recover-attempts must be at least 1");
    }
    let policy = RecoveryPolicy {
        max_attempts: attempts,
        ..RecoveryPolicy::default()
    };
    let (res, report) = match multiply_with_recovery(algo, a, b, p, cfg, &policy) {
        Ok(v) => v,
        Err(RecoveryError::Fatal(AlgoError::Sim(e @ RunError::Deadlock { .. }))) => {
            eprintln!("error: {e}");
            return 3;
        }
        Err(e) => return fail(&e.to_string()),
    };
    let err = res.c.max_abs_diff(&gemm::reference(a, b));
    println!(
        "{algo}: n = {n} (ABFT-augmented to {}), p = {p}, {} nodes, ts = {}, tw = {}",
        res.augmented, cfg.port, cfg.cost.ts, cfg.cost.tw
    );
    println!("  verified:              max |Δ| = {err:.2e}");
    match &res.outcome {
        AbftOutcome::Clean => {
            println!("  abft outcome:          clean (no corruption detected)");
        }
        AbftOutcome::Corrected {
            entries,
            block,
            node,
        } => {
            print!(
                "  abft outcome:          corrected {} entr{}",
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            if let (Some((bi, bj)), Some(node)) = (block, node) {
                print!(" in block ({bi},{bj}) — suspect node {node}");
            }
            println!();
        }
        AbftOutcome::Uncorrectable { .. } => {
            // multiply_with_recovery never returns an untrustworthy
            // product; keep the arm so the match stays exhaustive.
            return fail("internal error: recovery returned an uncorrectable product");
        }
    }
    println!(
        "  attempts:              {} (virtual backoff {:.1})",
        report.attempts, report.backoff_spent
    );
    if !report.backoff_delays.is_empty() {
        let schedule = report
            .backoff_delays
            .iter()
            .map(|d| format!("{d:.1}"))
            .collect::<Vec<_>>()
            .join(" -> ");
        println!("    backoff schedule:    {schedule}");
    }
    for act in &report.actions {
        println!("    recovery:            {act}");
    }
    println!(
        "  fingerprint:           {}",
        cubemm_serve::fingerprint_hex(&res.c)
    );
    println!(
        "  payloads corrupted:    {} (final attempt)",
        res.stats.total_corrupted()
    );
    println!(
        "  simulated comm time:   {:.1} (final attempt)",
        res.stats.elapsed
    );
    if err > 1e-9 * n as f64 {
        return fail("verification FAILED");
    }
    0
}

/// `cubemm sweep --n N [--p list] ...`.
pub fn sweep(argv: &[String]) -> i32 {
    let args = match Args::parse(argv, &[MACHINE_FLAGS, &["n", "p", "jobs"]].concat(), &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let n: usize = match args.get_or("n", 64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let (cfg, ts, tw) = match machine_from(&args) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let ps: Vec<usize> = match args.raw("p") {
        None => vec![4, 8, 16, 64, 512],
        Some(list) => match list.split(',').map(|t| t.trim().parse()).collect() {
            Ok(v) => v,
            Err(_) => return fail(&format!("invalid --p list {list:?}")),
        },
    };

    let jobs = match jobs_from(&args) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };

    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let reference = gemm::reference(&a, &b);

    // Every (algorithm, p) cell is an independent simulated run; compute
    // them through the parallel grid driver (results come back in task
    // order, so the table below is identical at any --jobs value), then
    // print.
    enum Cell {
        Inapplicable,
        Elapsed(f64),
        WrongProduct,
        Failed(String),
    }
    let algos: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .chain(Algorithm::EXTENSIONS)
        .collect();
    let tasks: Vec<(Algorithm, usize)> = algos
        .iter()
        .flat_map(|&algo| ps.iter().map(move |&p| (algo, p)))
        .collect();
    let cells = cubemm_harness::run_grid(&tasks, jobs, |&(algo, p)| match algo.check(n, p) {
        Err(_) => Cell::Inapplicable,
        Ok(()) => match algo.multiply(&a, &b, p, &cfg) {
            Ok(res) => {
                if res.c.max_abs_diff(&reference) > 1e-9 * n as f64 {
                    Cell::WrongProduct
                } else {
                    Cell::Elapsed(res.stats.elapsed)
                }
            }
            Err(e) => Cell::Failed(e.to_string()),
        },
    });

    println!("sweep: n = {n}, {}, ts = {ts}, tw = {tw}", cfg.port);
    print!("{:<14}", "p =");
    for p in &ps {
        print!("{p:>10}");
    }
    println!();
    let mut cells = tasks.iter().zip(cells);
    for algo in &algos {
        print!("{:<14}", algo.name());
        for _ in &ps {
            let Some((&(algo, p), cell)) = cells.next() else {
                return fail("internal error: sweep grid size mismatch");
            };
            match cell {
                Cell::Inapplicable => print!("{:>10}", "-"),
                Cell::Elapsed(t) => print!("{t:>10.0}"),
                Cell::WrongProduct => {
                    return fail(&format!("{algo} produced a wrong product at p={p}"))
                }
                Cell::Failed(e) => return fail(&e),
            }
        }
        println!();
    }
    println!("all runs verified; '-' marks inapplicable shapes");
    0
}

/// `cubemm regions ...`.
pub fn regions(argv: &[String]) -> i32 {
    let args = match Args::parse(argv, &["port", "ts", "tw"], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let ts: f64 = match args.get_or("ts", 150.0) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let tw: f64 = match args.get_or("tw", 3.0) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let port = match parse_port(args.raw("port")) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let map = RegionMap::generate(Sweep::default(), port, ts, tw);
    print!("{}", render_ascii(&map));
    0
}

/// The port models `--port one|multi|both` selects (default: both —
/// analysis is cheap and the claims differ per model).
fn analyze_ports(raw: Option<&str>) -> Result<Vec<cubemm_simnet::PortModel>, String> {
    match raw {
        None | Some("both") => Ok(vec![
            cubemm_simnet::PortModel::OnePort,
            cubemm_simnet::PortModel::MultiPort,
        ]),
        some => Ok(vec![parse_port(some)?]),
    }
}

/// `cubemm analyze <algo|all> ...`.
pub fn analyze(argv: &[String]) -> i32 {
    let args = match Args::parse(argv, &["algo", "n", "p", "port", "jobs"], &["symbolic"]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let ports = match analyze_ports(args.raw("port")) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let selector = match args
        .positional::<String>(0)
        .or_else(|| args.raw("algo").map(str::to_string))
    {
        Some(s) => s,
        None => return fail("analyze needs an algorithm name or `all`"),
    };

    if args.has("symbolic") {
        return analyze_symbolic(&selector, &ports);
    }

    if selector == "all" {
        // Registry sweep over the default grid: one summary line per
        // point, non-zero exit on any unsound or non-conformant result.
        // Each point replays its schedule on an independent simulated
        // machine, so the grid runs through the parallel driver; results
        // come back in task order and the report below is identical at
        // any --jobs value.
        let jobs = match jobs_from(&args) {
            Ok(v) => v,
            Err(e) => return fail(&e),
        };
        let mut tasks = Vec::new();
        for algo in Algorithm::ALL.into_iter().chain(Algorithm::EXTENSIONS) {
            for &port in &ports {
                for (n, p) in cubemm_analyze::applicable_grid(algo) {
                    tasks.push((algo, port, n, p));
                }
            }
        }
        let results = cubemm_harness::run_grid(&tasks, jobs, |&(algo, port, n, p)| {
            cubemm_analyze::analyze_algorithm(algo, n, p, port)
        });
        let mut violations = 0usize;
        for (&(algo, port, n, p), result) in tasks.iter().zip(results) {
            let r = match result {
                Ok(r) => r,
                Err(e) => return fail(&e),
            };
            let cost = r.analysis.cost;
            let status = if !r.analysis.is_sound() || !r.verdict.is_conformant() {
                violations += 1;
                "VIOLATION"
            } else if r.analysis.is_full_bandwidth() {
                "ok"
            } else {
                "ok (links serialize)"
            };
            println!(
                "{:<14} n={n:<3} p={p:<3} {:<10} a={:<6} b={:<9} {status}: {}",
                algo.name(),
                format!("{port}"),
                cost.map_or_else(|| "-".into(), |c| format!("{}", c.a)),
                cost.map_or_else(|| "-".into(), |c| format!("{}", c.b)),
                r.verdict
            );
            if !r.analysis.is_sound() {
                for d in &r.analysis.diagnostics {
                    println!("    - {d}");
                }
            }
        }
        if violations > 0 {
            return fail(&format!("{violations} schedule(s) failed analysis"));
        }
        println!("all schedules certified");
        return 0;
    }

    let algo: Algorithm = match selector
        .parse::<Algorithm>()
        .map_err(|e| format!("{e} (see `cubemm help` for the list)"))
    {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let n: usize = match args.get_or("n", 64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let p: usize = match args.get_or("p", 64) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if let Err(e) = algo.check(n, p) {
        return fail(&format!("{algo} cannot run n={n} on p={p}: {e}"));
    }
    let mut bad = false;
    for port in ports {
        let r = match cubemm_analyze::analyze_algorithm(algo, n, p, port) {
            Ok(r) => r,
            Err(e) => return fail(&e),
        };
        print!("{}", cubemm_analyze::render(&r));
        bad |= !r.analysis.is_sound() || !r.verdict.is_conformant();
    }
    if bad {
        return fail("schedule failed analysis");
    }
    0
}

/// `cubemm analyze ... --symbolic`: the parametric certification gate.
///
/// Instead of replaying schedules at enumerated `(n, p)` grid points,
/// this certifies the *closed forms*: every collective schema and every
/// algorithm composition is proven against Tables 1/2 as polynomial
/// identities in `n` and `2^d`, valid for every hypercube size at once.
/// Grid replay survives only as the grounding spot-check inside each
/// certificate. Non-zero exit if any obligation fails.
fn analyze_symbolic(selector: &str, ports: &[cubemm_simnet::PortModel]) -> i32 {
    let mut bad = 0usize;
    let mut total = 0usize;
    if selector == "all" {
        for cert in cubemm_analyze::certify_all_collectives() {
            total += 1;
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
        println!();
        for cert in cubemm_analyze::certify_all_algorithms() {
            total += 1;
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
    } else {
        let algo: Algorithm = match selector
            .parse::<Algorithm>()
            .map_err(|e| format!("{e} (see `cubemm help` for the list)"))
        {
            Ok(a) => a,
            Err(e) => return fail(&e),
        };
        for &port in ports {
            total += 1;
            let cert = cubemm_analyze::certify_algorithm(algo, port);
            bad += usize::from(!cert.ok());
            print!("{cert}");
        }
    }
    if bad > 0 {
        return fail(&format!("{bad}/{total} symbolic certificate(s) failed"));
    }
    println!("{total}/{total} symbolic certificates hold for all p = 2^d");
    0
}

/// Feeds a request stream to a live pool, one JSON line per job,
/// answering on `output` (shared with the pool's responders). Returns
/// the number of malformed lines answered in-band; an `Err` is a broken
/// *stream* (the exit-4 case), which per-job failures never are.
fn serve_stream<R, W>(
    input: R,
    output: &std::sync::Arc<std::sync::Mutex<W>>,
    pool: &cubemm_serve::ServePool,
) -> std::io::Result<u64>
where
    R: std::io::BufRead,
    W: std::io::Write + Send + 'static,
{
    use cubemm_serve::{JobResponse, JobStatus, Responder};

    fn emit<W: std::io::Write>(out: &std::sync::Mutex<W>, resp: &JobResponse) {
        let mut w = out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = writeln!(w, "{}", resp.encode());
        let _ = w.flush();
    }

    let mut malformed = 0u64;
    for line in input.lines() {
        if cubemm_serve::shutdown::requested() {
            break;
        }
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match cubemm_serve::parse_request(line) {
            Ok(req) => {
                let out = std::sync::Arc::clone(output);
                let responder: Responder = std::sync::Arc::new(move |resp| emit(&out, &resp));
                pool.submit(req, responder);
            }
            Err((id, error)) => {
                // A bad line is answered, not fatal: the stream (and
                // every queued job) lives on.
                malformed += 1;
                emit(
                    output,
                    &JobResponse {
                        id,
                        status: JobStatus::Malformed { error },
                    },
                );
            }
        }
    }
    Ok(malformed)
}

/// Accept loop for `--socket PATH`: each connection gets its own
/// reader thread against the shared pool; SIGTERM stops accepting and
/// the scope joins every connection before the caller drains.
#[cfg(unix)]
fn serve_socket(path: &str, pool: &cubemm_serve::ServePool) -> std::io::Result<u64> {
    use std::io::BufReader;
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let malformed = AtomicU64::new(0);
    let result = std::thread::scope(|scope| -> std::io::Result<()> {
        loop {
            if cubemm_serve::shutdown::requested() {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let malformed = &malformed;
                    scope.spawn(move || {
                        let Ok(read_half) = stream.try_clone() else {
                            return;
                        };
                        let output = Arc::new(Mutex::new(stream));
                        if let Ok(m) = serve_stream(BufReader::new(read_half), &output, pool) {
                            malformed.fetch_add(m, Ordering::Relaxed);
                        }
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
    });
    let _ = std::fs::remove_file(path);
    result.map(|()| malformed.load(Ordering::Relaxed))
}

/// `cubemm serve [--workers N] [--queue N] [--socket PATH]`.
pub fn serve(argv: &[String]) -> i32 {
    use cubemm_serve::{ServeConfig, ServePool};

    let args = match Args::parse(argv, &["workers", "queue", "socket"], &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let workers: usize = match args.get_or("workers", 4) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let queue_cap: usize = match args.get_or("queue", 256) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if workers == 0 || queue_cap == 0 {
        return fail("--workers and --queue must be at least 1");
    }
    cubemm_serve::shutdown::install();
    let pool = ServePool::start(ServeConfig { workers, queue_cap });
    let streamed = match args.raw("socket") {
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!("cubemm serve: listening on {path} ({workers} workers)");
                serve_socket(path, &pool)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                drop(pool);
                return fail("--socket requires a Unix platform");
            }
        }
        None => {
            let stdin = std::io::stdin();
            let output = std::sync::Arc::new(std::sync::Mutex::new(std::io::stdout()));
            serve_stream(stdin.lock(), &output, &pool)
        }
    };
    let stats = pool.drain();
    let malformed = *streamed.as_ref().unwrap_or(&0);
    eprintln!(
        "cubemm serve: drained — {} submitted, {} ok, {} failed, {} deadline, \
         {} rejected, {} overloaded, {} shed, {} malformed, {} quarantines, {} reboots",
        stats.submitted,
        stats.ok,
        stats.failed,
        stats.deadline_missed,
        stats.rejected,
        stats.overloaded,
        stats.shed,
        malformed,
        stats.quarantines,
        stats.reboots,
    );
    match streamed {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("error: request stream broke: {e}");
            4
        }
    }
}

/// `cubemm tune-kernel` — sweep the packed kernel's mc/kc/nc blocking
/// grid on this host and persist the winner so untuned
/// `Kernel::Packed` runs pick it up (see `cubemm_dense::tune`).
pub fn tune_kernel(argv: &[String]) -> i32 {
    use cubemm_dense::microkernel::MicrokernelImpl;
    use cubemm_dense::tune;

    let args = match Args::parse(argv, &["n", "reps", "threads", "out"], &["full", "dry-run"]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let n: usize = match args.get_or("n", 512) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let reps: usize = match args.get_or("reps", 3) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let threads: usize = match args.get_or("threads", 1) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    if n == 0 || reps == 0 {
        return fail("--n and --reps must be at least 1");
    }
    let out = args
        .raw("out")
        .map(str::to_string)
        .or_else(|| {
            std::env::var(tune::TUNE_FILE_ENV)
                .ok()
                .filter(|p| !p.is_empty())
        })
        .unwrap_or_else(|| tune::DEFAULT_TUNE_FILE.to_string());
    let mk = MicrokernelImpl::active();
    let cache = tune::detect_caches();
    eprintln!(
        "tune-kernel: microkernel {} — L1d {} KiB, L2 {} KiB — sweeping n={n} reps={reps} threads={threads}",
        mk.name(),
        cache.l1d / 1024,
        cache.l2 / 1024,
    );
    let (best, entries) = tune::tune(mk, n, reps, threads, args.has("full"));
    println!("{:>5} {:>5} {:>5} {:>9}", "mc", "kc", "nc", "GFLOPS");
    for e in &entries {
        println!(
            "{:>5} {:>5} {:>5} {:>9.3}",
            e.blocking.mc, e.blocking.kc, e.blocking.nc, e.gflops
        );
    }
    eprintln!(
        "tune-kernel: winner mc={} kc={} nc={} at {:.3} GFLOPS{}",
        best.mc,
        best.kc,
        best.nc,
        best.gflops,
        if best.kc != cubemm_dense::gemm::DEFAULT_KC {
            " (kc differs from the untuned default — tuned runs will not be \
             bitwise comparable to untuned hosts; pin kc explicitly if you \
             need that)"
        } else {
            ""
        },
    );
    if args.has("dry-run") {
        eprintln!("tune-kernel: --dry-run, not writing {out}");
        return 0;
    }
    match best.save(std::path::Path::new(&out)) {
        Ok(()) => {
            eprintln!("tune-kernel: wrote {out} (picked up by the next untuned packed run)");
            0
        }
        Err(e) => fail(&format!("writing {out}: {e}")),
    }
}

/// `cubemm chaos <algo|all>`: the seeded, coverage-guided fault
/// campaign (DESIGN.md §16). Every run is reproducible from `--seed`;
/// oracle failures are delta-debugged down to a minimal fault plan and
/// (with `--repro-dir`) written as `--fault-plan`-ready JSON.
pub fn chaos(argv: &[String]) -> i32 {
    use cubemm_harness::chaos::{run_campaign, ChaosOptions, Coverage};

    let flags = [
        "algo",
        "seed",
        "runs",
        "n",
        "max-entries",
        "budget-factor",
        "recover-attempts",
        "fail-on",
        "repro-dir",
    ];
    let args = match Args::parse(argv, &flags, &[]) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let selector = match args
        .positional::<String>(0)
        .or_else(|| args.raw("algo").map(str::to_string))
    {
        Some(s) => s,
        None => return fail("chaos needs an algorithm name or `all`"),
    };
    let seed: u64 = match args.get_or("seed", 0) {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };
    let defaults = ChaosOptions::default();
    let parsed = (|| -> Result<ChaosOptions, String> {
        let fail_on_corrected = match args.raw("fail-on") {
            None => false,
            Some("corrected") => true,
            Some(other) => {
                return Err(format!(
                    "unknown --fail-on value {other:?} (only `corrected`)"
                ))
            }
        };
        Ok(ChaosOptions {
            runs: args.get_or("runs", defaults.runs)?,
            n: args.get_or("n", defaults.n)?,
            max_entries: args.get_or("max-entries", defaults.max_entries)?,
            budget_factor: args.get_or("budget-factor", defaults.budget_factor)?,
            fail_on_corrected,
            policy: RecoveryPolicy {
                max_attempts: args.get_or("recover-attempts", defaults.policy.max_attempts)?,
                ..defaults.policy
            },
        })
    })();
    let opts = match parsed {
        Ok(o) => o,
        Err(e) => return fail(&e),
    };
    if opts.runs == 0 || opts.n == 0 || opts.max_entries == 0 {
        return fail("--runs, --n and --max-entries must be at least 1");
    }

    let algos: Vec<Algorithm> = if selector == "all" {
        Algorithm::ALL
            .into_iter()
            .chain(Algorithm::EXTENSIONS)
            .collect()
    } else {
        match selector
            .parse::<Algorithm>()
            .map_err(|e| format!("{e} (see `cubemm help` for the list)"))
        {
            Ok(a) => vec![a],
            Err(e) => return fail(&e),
        }
    };

    let mut aggregate = Coverage::new();
    let mut total_violations = 0usize;
    for algo in &algos {
        let report = match run_campaign(*algo, seed, &opts) {
            Ok(r) => r,
            Err(e) => return fail(&format!("chaos {}: {e}", algo.name())),
        };
        print!("{}", report.render());
        aggregate.merge(&report.coverage);
        total_violations += report.violations.len();
        if let Some(dir) = args.raw("repro-dir") {
            if !report.violations.is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    return fail(&format!("--repro-dir {dir:?}: {e}"));
                }
                for v in &report.violations {
                    let path = format!("{dir}/chaos-{}-run{}.json", algo.name(), v.run);
                    if let Err(e) = std::fs::write(&path, &v.shrunk_json) {
                        return fail(&format!("writing {path:?}: {e}"));
                    }
                    eprintln!(
                        "chaos {}: run {} repro ({} entr{}) -> {path}",
                        algo.name(),
                        v.run,
                        v.shrunk_entries,
                        if v.shrunk_entries == 1 { "y" } else { "ies" }
                    );
                }
            }
        }
    }
    if algos.len() > 1 {
        println!("aggregate coverage: {}", aggregate.summary());
    }
    if total_violations > 0 {
        eprintln!(
            "chaos: {total_violations} oracle violation(s); replay a repro with \
             `cubemm run --abft --fault-plan FILE`"
        );
        return 2;
    }
    println!("chaos: every oracle held over {} campaign(s)", algos.len());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn list_runs_clean() {
        assert_eq!(list(&argv("64 64")), 0);
        assert_eq!(list(&argv("")), 0);
    }

    #[test]
    fn chaos_campaign_runs_clean_on_a_healthy_stack() {
        assert_eq!(chaos(&argv("cannon --seed 7 --runs 6")), 0);
    }

    #[test]
    fn chaos_rejects_bad_arguments() {
        assert_ne!(chaos(&argv("")), 0);
        assert_ne!(chaos(&argv("nope --runs 1")), 0);
        assert_ne!(chaos(&argv("cannon --runs 0")), 0);
        assert_ne!(chaos(&argv("cannon --runs 1 --fail-on everything")), 0);
        assert_ne!(chaos(&argv("cannon --runs 1 --seed many")), 0);
    }

    #[test]
    fn chaos_fail_on_corrected_writes_replayable_repros() {
        // `--fail-on corrected` turns every in-place correction into a
        // "violation", exercising the shrinker and the repro files end
        // to end: the campaign must exit 2 and each written plan must
        // replay through `run --abft --fault-plan` (exit 0 — the
        // corruption is corrected or recovered, which is the point).
        let dir = std::env::temp_dir().join(format!("cubemm-chaos-cli-{}", std::process::id()));
        let dirs = dir.display().to_string();
        assert_eq!(
            chaos(&argv(&format!(
                "cannon --seed 11 --runs 40 --fail-on corrected --repro-dir {dirs}"
            ))),
            2
        );
        let mut repros = 0usize;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let plan = FaultPlan::from_json(&text).unwrap();
            assert!(plan.fault_count() >= 1, "{path:?} shrunk to nothing");
            assert_eq!(
                run(&argv(&format!(
                    "--abft --algo cannon --n 6 --p 64 --fault-plan {}",
                    path.display()
                ))),
                0,
                "repro {path:?} must replay"
            );
            repros += 1;
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(repros > 0, "no repro files were written");
    }

    #[test]
    fn tune_kernel_dry_run_and_bad_args() {
        // Tiny n: pins the plumbing (sweep, table, flag parsing), not perf.
        assert_eq!(tune_kernel(&argv("--n 48 --reps 1 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--n 0 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--reps 0 --dry-run")), 0);
        assert_ne!(tune_kernel(&argv("--n nope")), 0);
    }

    #[test]
    fn run_small_configuration() {
        assert_eq!(run(&argv("--algo 3d-all --n 16 --p 8")), 0);
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --port multi")), 0);
    }

    #[test]
    fn run_rejects_bad_input() {
        assert_ne!(run(&argv("--algo nope --n 16 --p 8")), 0);
        assert_ne!(run(&argv("--algo 3d-all --n 15 --p 8")), 0);
        assert_ne!(run(&argv("--n 16")), 0);
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --kernel simd")), 0);
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --engine fiber")), 0);
    }

    #[test]
    fn unknown_flags_are_usage_errors_everywhere() {
        // Retired flags and typos exit 2 instead of running on defaults.
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --engine event")), 2);
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --bogus 3")), 2);
        assert_eq!(run(&argv("--algo cannon --n 16 --p 16 --kernal packed")), 2);
        assert_eq!(sweep(&argv("--n 16 --p 4,8,16 --engine event")), 2);
        assert_eq!(analyze(&argv("cannon --n 16 --p 16 --engine event")), 2);
        assert_eq!(serve(&argv("--node-budget 4")), 2);
        assert_eq!(regions(&argv("--port multi --tss 5")), 2);
        assert_eq!(list(&argv("--n 16")), 2);
        assert_eq!(chaos(&argv("cannon --runs 1 --sed 3")), 2);
        assert_eq!(tune_kernel(&argv("--dry-run --reps 1 --n 48 --ful")), 2);
    }

    #[test]
    fn run_accepts_every_kernel_spelling() {
        for kernel in ["naive", "ikj", "blocked:32", "packed", "packed:2"] {
            assert_eq!(
                run(&argv(&format!(
                    "--algo cannon --n 16 --p 16 --kernel {kernel}"
                ))),
                0,
                "--kernel {kernel} failed"
            );
        }
    }

    #[test]
    fn run_with_injected_faults_still_verifies() {
        // Lenient dead link: the simulator detours, the product is still
        // checked against the reference, and the faults section prints.
        assert_eq!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-link 0:1")),
            0
        );
        // Degraded link + straggler, multi-port.
        assert_eq!(
            run(&argv(
                "--algo 3d-all --n 16 --p 8 --port multi \
                 --fault-degrade 0:1:2.0:4.0 --fault-straggler 3:2.5"
            )),
            0
        );
    }

    #[test]
    fn run_rejects_malformed_fault_specs() {
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-link 0:3")),
            0
        );
        assert_ne!(run(&argv("--algo cannon --n 16 --p 16 --fault-link 0")), 0);
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-straggler 2:0.5")),
            0
        );
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-drop 0:1")),
            0
        );
        assert_ne!(
            run(&argv("--algo cannon --n 16 --p 16 --fault-strict maybe")),
            0
        );
        // A fault plan referencing a node outside the machine surfaces
        // the simulator's config error rather than panicking.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 16 --p 16 --fault-straggler 99:2.0"
            )),
            0
        );
    }

    #[test]
    fn abft_corrects_or_recovers_and_exits_zero() {
        // In-flight corruption, corrected in place on the first attempt
        // (site found by the smoke probe; the simulator is
        // deterministic, so it stays stable).
        assert_eq!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:1:0:1:64"
            )),
            0
        );
        // Sign-flip corruption.
        assert_eq!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-flip 0:1:0:1:63"
            )),
            0
        );
        // Scheduled node crash: survived by reboot-and-rerun.
        assert_eq!(
            run(&argv("--algo cannon --n 6 --p 4 --abft --fault-crash 2:1")),
            0
        );
        // ABFT pads internally: n = 6 is indivisible for p = 16 (√p = 4)
        // but the augmented order 8 is fine.
        assert_eq!(run(&argv("--algo cannon --n 6 --p 16 --abft")), 0);
    }

    #[test]
    fn abft_exit_codes_follow_the_contract() {
        // Site (2,3,seq 0) propagates through Cannon's forwarded blocks:
        // detected but not locatable, so a budget of one attempt leaves
        // it uncorrectable (exit 2) while the default budget quarantines
        // the link and converges (exit 0).
        let site = "--algo cannon --n 6 --p 4 --abft --fault-corrupt 2:3:0:1:64";
        assert_eq!(run(&argv(&format!("{site} --recover-attempts 1"))), 2);
        assert_eq!(run(&argv(site)), 0);
        // A dropped message on an algorithm without retries deadlocks:
        // exit 3, with and without --abft.
        assert_eq!(
            run(&argv("--algo cannon --n 16 --p 4 --fault-drop 0:1:0")),
            3
        );
        assert_eq!(
            run(&argv(
                "--algo cannon --n 16 --p 4 --abft --fault-drop 0:1:0"
            )),
            3
        );
    }

    #[test]
    fn fault_plan_round_trips_through_files() {
        let dir = std::env::temp_dir().join(format!("cubemm-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("plan.json");
        let path = path.to_str().expect("utf-8 temp path");
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft \
                 --fault-corrupt 0:1:0:1:64 --fault-crash 2:1 \
                 --fault-plan-dump {path}"
            ))),
            0
        );
        let text = std::fs::read_to_string(path).expect("dumped plan exists");
        let plan = FaultPlan::from_json(&text).expect("dumped plan parses");
        assert!(plan.has_corruptions());
        assert_eq!(plan.crash_step(2), Some(1));
        // Loading the dumped plan reproduces the run; a flag on top of
        // the file stacks.
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft --fault-plan {path}"
            ))),
            0
        );
        assert_eq!(
            run(&argv(&format!(
                "--algo cannon --n 6 --p 4 --abft --fault-plan {path} --fault-crash 3:1"
            ))),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abft_and_fault_flags_reject_malformed_specs() {
        // Not a hypercube edge.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:3:0:1:64"
            )),
            0
        );
        // Zero delta, bad bit, short spec.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-corrupt 0:1:0:1:0"
            )),
            0
        );
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --fault-flip 0:1:0:1:64"
            )),
            0
        );
        assert_ne!(run(&argv("--algo cannon --n 6 --p 4 --fault-crash 2")), 0);
        // Missing plan file; zero retry budget.
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --fault-plan /nonexistent/plan.json"
            )),
            0
        );
        assert_ne!(
            run(&argv(
                "--algo cannon --n 6 --p 4 --abft --recover-attempts 0"
            )),
            0
        );
    }

    #[test]
    fn sweep_and_regions_run_clean() {
        assert_eq!(sweep(&argv("--n 16 --p 4,8,16")), 0);
        assert_eq!(regions(&argv("--port multi --ts 5 --tw 3")), 0);
    }

    #[test]
    fn sweep_accepts_parallel_jobs() {
        assert_eq!(sweep(&argv("--n 16 --p 4,8,16 --jobs 3")), 0);
    }

    #[test]
    fn jobs_flag_is_validated() {
        assert_ne!(sweep(&argv("--n 16 --p 4 --jobs 0")), 0);
        assert_ne!(sweep(&argv("--n 16 --p 4 --jobs many")), 0);
        assert_ne!(analyze(&argv("all --jobs 0")), 0);
        assert_ne!(analyze(&argv("all --jobs many")), 0);
    }

    #[test]
    fn analyze_certifies_small_configurations() {
        assert_eq!(analyze(&argv("cannon --n 16 --p 16 --port one")), 0);
        assert_eq!(analyze(&argv("3d-all --n 16 --p 8 --port multi")), 0);
        // `--algo` spelling and the both-ports default.
        assert_eq!(analyze(&argv("--algo simple --n 16 --p 16")), 0);
    }

    #[test]
    fn analyze_rejects_bad_input() {
        assert_ne!(analyze(&argv("")), 0);
        assert_ne!(analyze(&argv("nosuch --n 16 --p 16")), 0);
        assert_ne!(analyze(&argv("cannon --n 17 --p 16")), 0);
        assert_ne!(analyze(&argv("cannon --n 16 --p 16 --port dual")), 0);
    }

    /// Runs `serve_stream` over a canned script against a small live
    /// pool and returns the decoded response lines.
    fn serve_script(script: &str) -> Vec<cubemm_simnet::json::Json> {
        use std::sync::{Arc, Mutex};
        let pool = cubemm_serve::ServePool::start(cubemm_serve::ServeConfig {
            workers: 2,
            ..cubemm_serve::ServeConfig::default()
        });
        let output: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        serve_stream(std::io::Cursor::new(script.to_string()), &output, &pool)
            .expect("in-memory stream cannot break");
        pool.drain();
        let bytes = output.lock().unwrap().clone();
        String::from_utf8(bytes)
            .expect("responses are UTF-8")
            .lines()
            .map(|l| cubemm_simnet::json::parse(l).expect("each response line is JSON"))
            .collect()
    }

    #[test]
    fn serve_stream_answers_every_line_and_survives_malformed_input() {
        use cubemm_simnet::json::Json;
        let script = concat!(
            "{\"id\":\"a\",\"n\":16,\"p\":16,\"algo\":\"cannon\"}\n",
            "this is not json\n",
            "\n", // blank lines are skipped, not answered
            "{\"id\":\"b\",\"n\":16,\"p\":16,\"algo\":\"cannon\",\"abft\":false}\n",
            "{\"id\":\"c\",\"n\":16,\"p\":16,\"priority\":99}\n",
        );
        let responses = serve_script(script);
        assert_eq!(responses.len(), 4);
        let status_of = |id: &str| {
            responses
                .iter()
                .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
                .and_then(|r| r.get("status"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        assert_eq!(status_of("a").as_deref(), Some("ok"));
        assert_eq!(status_of("b").as_deref(), Some("ok"));
        // Bad priority: malformed, but the id was readable and echoed.
        assert_eq!(status_of("c").as_deref(), Some("malformed"));
        // The unparseable line got an anonymous malformed response.
        assert!(responses.iter().any(|r| {
            r.get("id").and_then(Json::as_str) == Some("")
                && r.get("status").and_then(Json::as_str) == Some("malformed")
        }));
    }

    #[test]
    fn serve_stream_matches_one_shot_run_bitwise() {
        use cubemm_simnet::json::Json;
        // The serve-vs-run byte-identity check, through the CLI layer:
        // the served fingerprint equals the fingerprint of the same
        // multiplication done directly (same seed → same inputs).
        let responses = serve_script(
            "{\"id\":\"x\",\"n\":16,\"p\":16,\"algo\":\"cannon\",\"abft\":false,\"seed\":1}\n",
        );
        let served = responses[0]
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("ok response carries a fingerprint")
            .to_string();
        let a = Matrix::random(16, 16, 1);
        let b = Matrix::random(16, 16, 2);
        let direct = Algorithm::Cannon
            .multiply(&a, &b, 16, &MachineConfig::default())
            .expect("direct run");
        assert_eq!(served, cubemm_serve::fingerprint_hex(&direct.c));
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert_eq!(serve(&["--workers".into(), "0".into()]), 2);
        assert_eq!(serve(&["--queue".into(), "x".into()]), 2);
    }
}
