//! `perfprobe`: the in-process half of the repository benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! The benchmark times the shipped `cubemm` binary from outside. This
//! program supplies what an outside observer cannot:
//!
//! * `serve-pool` — the serve-mix job pool, with fault plans drawn from
//!   the public `random_soak_plan` stream,
//! * `expect-cli` / `expect-serve` — each job's expected answer,
//!   computed here and not by the process under test (the correctness
//!   gate); every served answer also comes with the facts that tie it to
//!   a product checked against `gemm::reference`,
//! * `trace-cli` / `trace-serve` — the per-layer pass: the same jobs run
//!   in this process with in-memory spans around the calls into each
//!   crate's public functions, once with spans off and once with spans
//!   on; the spans are printed when the pass ends,
//! * `env` — the microkernel and core count the results depend on.
//!
//! Jobs arrive on stdin, one per line; every answer is one JSON object
//! per line on stdout.

use std::io::{self, BufRead, BufWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::gemm;
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::{abft, partition, Matrix};
use cubemm_harness::chaos::{random_soak_plan, ChaosRng};
use cubemm_harness::recovery::{multiply_with_recovery_tol, RecoveryPolicy};
use cubemm_serve::{
    execute, fingerprint_hex, parse_request, resolve_auto, AlgoChoice, JobRequest, JobStatus,
};
use cubemm_simnet::json::Json;
use cubemm_simnet::{CostParams, FaultPlan, PortModel};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("env") => cmd_env(),
        Some("serve-pool") => cmd_serve_pool(&args[1..]),
        Some("expect-cli") => cmd_expect_cli(),
        Some("expect-serve") => cmd_expect_serve(),
        Some("trace-cli") => cmd_trace_cli(),
        Some("trace-serve") => cmd_trace_serve(),
        _ => Err("usage: perfprobe env | serve-pool --seed S --count K | \
                  expect-cli | expect-serve | trace-cli | trace-serve"
            .to_string()),
    };
    if let Err(e) = result {
        eprintln!("perfprobe: {e}");
        std::process::exit(2);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One closed span: a named call into a layer, with the span that
/// caused it.
struct Span {
    parent: Option<usize>,
    job: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. When off it only runs the closures, so the
/// untraced pass pays nothing but the call.
struct Spans {
    on: bool,
    origin: Instant,
    job: usize,
    rows: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new(on: bool, origin: Instant) -> Spans {
        Spans {
            on,
            origin,
            job: 0,
            rows: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    fn enter<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.rows.len();
        let start_ns = self.now_ns();
        self.rows.push(Span {
            parent: self.open.last().copied(),
            job: self.job,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.rows[id].end_ns = self.now_ns();
        out
    }

    fn write(&self, mode: &str, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.rows.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| num(p as f64));
            let row = obj(vec![
                ("kind", Json::Str("span".into())),
                ("mode", Json::Str(mode.into())),
                ("id", num(id as f64)),
                ("parent", parent),
                ("job", num(s.job as f64)),
                ("name", Json::Str(s.name.into())),
                ("start_ns", num(s.start_ns as f64)),
                ("end_ns", num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", row.encode())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

fn num(x: f64) -> Json {
    Json::Num(x)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn stdin_lines() -> Result<Vec<String>, String> {
    io::stdin()
        .lock()
        .lines()
        .map(|l| l.map_err(|e| format!("reading stdin: {e}")))
        .filter(|l| !matches!(l, Ok(s) if s.trim().is_empty()))
        .collect()
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let pos = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(pos + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name} needs a valid value"))
}

/// Runs `f` over `items` on up to two threads (the benchmark's process
/// budget), keeping input order in the output. Only used off the clock.
fn par_map<I: Sync, O: Send>(items: &[I], f: impl Fn(&I) -> O + Sync) -> Vec<O> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                slots
                    .lock()
                    .expect("no worker panics while holding the slots")[i] = Some(out);
            });
        }
    });
    slots
        .into_inner()
        .expect("no worker panics while holding the slots")
        .into_iter()
        .map(|o| o.expect("every slot is filled once the scope joins"))
        .collect()
}

fn emit(rows: impl IntoIterator<Item = Json>) -> Result<(), String> {
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for row in rows {
        writeln!(out, "{}", row.encode()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Side of the processor grid a job's per-node blocks are cut on: `∛p`
/// for the 3-D families, `√p` for the rest.
fn grid_side(algo: Algorithm, p: usize) -> usize {
    let three_d = matches!(
        algo,
        Algorithm::Dns
            | Algorithm::Diag3d
            | Algorithm::AllTrans3d
            | Algorithm::All3d
            | Algorithm::Berntsen
    );
    let d = p.trailing_zeros();
    1usize << if three_d { d / 3 } else { d / 2 }
}

// ---------------------------------------------------------------------------
// env
// ---------------------------------------------------------------------------

fn cmd_env() -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    emit([obj(vec![
        (
            "microkernel",
            Json::Str(MicrokernelImpl::active().name().into()),
        ),
        ("host_cores", num(cores as f64)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
    ])])
}

// ---------------------------------------------------------------------------
// CLI jobs
// ---------------------------------------------------------------------------

/// One `cubemm run` job: `ALGO N P PORT SEED` on its input line.
struct CliJob {
    algo: Algorithm,
    n: usize,
    p: usize,
    cfg: MachineConfig,
    seed: u64,
}

fn parse_cli_job(line: &str) -> Result<CliJob, String> {
    let f: Vec<&str> = line.split_whitespace().collect();
    let [algo, n, p, port, seed] = f[..] else {
        return Err(format!("job line {line:?}: expected ALGO N P PORT SEED"));
    };
    let bad = |what: &str| format!("job line {line:?}: bad {what}");
    Ok(CliJob {
        algo: algo.parse().map_err(|_| bad("algorithm"))?,
        n: n.parse().map_err(|_| bad("n"))?,
        p: p.parse().map_err(|_| bad("p"))?,
        cfg: MachineConfig {
            port: match port {
                "one" => PortModel::OnePort,
                "multi" => PortModel::MultiPort,
                _ => return Err(bad("port")),
            },
            ..MachineConfig::default()
        },
        seed: seed.parse().map_err(|_| bad("seed"))?,
    })
}

/// What one in-process job produced.
struct CliOut {
    fingerprint: String,
    max_abs_diff: f64,
    messages: usize,
    word_hops: usize,
    peak_words: usize,
}

/// The job `cubemm run` performs, call for call, each call in its
/// layer's span: operands, the simulated multiply, the host reference,
/// the comparison, the fingerprint.
fn cli_job(job: &CliJob, sp: &mut Spans) -> Result<CliOut, String> {
    let (n, seed) = (job.n, job.seed);
    let (a, b) = sp.enter("dense.operands", |_| operands(n, seed));
    let res = sp
        .enter("core.multiply", |_| {
            job.algo.multiply(&a, &b, job.p, &job.cfg)
        })
        .map_err(|e| format!("{} n={n} p={}: {e}", job.algo, job.p))?;
    let reference = sp.enter("dense.reference", |_| gemm::reference(&a, &b));
    let max_abs_diff = sp.enter("dense.check", |_| res.c.max_abs_diff(&reference));
    let fingerprint = sp.enter("serve.fingerprint", |_| fingerprint_hex(&res.c));
    Ok(CliOut {
        fingerprint,
        max_abs_diff,
        messages: res.stats.total_messages(),
        word_hops: res.stats.total_word_hops(),
        peak_words: res.stats.total_peak_words(),
    })
}

fn cli_row(i: usize, mode: &str, total_ns: u64, job: &CliJob, out: &CliOut) -> Json {
    obj(vec![
        ("kind", Json::Str("job".into())),
        ("job", num(i as f64)),
        ("mode", Json::Str(mode.into())),
        ("total_ns", num(total_ns as f64)),
        ("fingerprint", Json::Str(out.fingerprint.clone())),
        ("max_abs_diff", num(out.max_abs_diff)),
        (
            "verified",
            Json::Bool(out.max_abs_diff <= 1e-9 * job.n as f64),
        ),
        ("messages", num(out.messages as f64)),
        ("word_hops", num(out.word_hops as f64)),
        ("peak_words", num(out.peak_words as f64)),
    ])
}

fn cmd_expect_cli() -> Result<(), String> {
    let jobs = stdin_lines()?
        .iter()
        .map(|l| parse_cli_job(l))
        .collect::<Result<Vec<_>, _>>()?;
    let outs = par_map(&jobs, |job| {
        let mut off = Spans::new(false, Instant::now());
        cli_job(job, &mut off)
    });
    let mut rows = Vec::with_capacity(jobs.len());
    for (i, (job, out)) in jobs.iter().zip(outs).enumerate() {
        rows.push(cli_row(i, "expect", 0, job, &out?));
    }
    emit(rows)
}

/// Times `C += A·B` on one per-node block of order `b` with the default
/// kernel, repeating until the measurement is long enough to trust.
fn local_gemm_probe(b: usize) -> (f64, f64) {
    let x = Matrix::random(b, b, 1);
    let y = Matrix::random(b, b, 2);
    let mut c = Matrix::zeros(b, b);
    let kernel = MachineConfig::default().kernel;
    let t = Instant::now();
    let mut iters = 0u64;
    while iters < 3 || t.elapsed().as_millis() < 40 {
        gemm::gemm_acc(&mut c, &x, std::hint::black_box(&y), kernel);
        iters += 1;
    }
    std::hint::black_box(&c);
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    (ns, 2.0 * (b * b * b) as f64)
}

/// Times the `q × q` square split of `A` and `B` plus the reassembly of
/// a product from `q × q` blocks.
fn partition_probe(n: usize, q: usize) -> f64 {
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let t = Instant::now();
    let mut iters = 0u64;
    while iters < 2 || t.elapsed().as_millis() < 20 {
        let mut blocks: Vec<Option<Matrix>> = Vec::with_capacity(q * q);
        for i in 0..q {
            for j in 0..q {
                blocks.push(Some(partition::square(&a, q, i, j)));
                std::hint::black_box(partition::square(&b, q, i, j));
            }
        }
        let c = partition::assemble_square(n, q, |i, j| {
            blocks[i * q + j]
                .take()
                .expect("each block is assembled exactly once")
        });
        std::hint::black_box(c);
        iters += 1;
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Per-shape layer probes: local GEMM on the per-node block and the 2-D
/// partition/assembly, for every distinct `(algo, n, p)`.
fn probe_rows(shapes: &[(Algorithm, usize, usize)]) -> Vec<Json> {
    let mut seen: Vec<(Algorithm, usize, usize)> = Vec::new();
    let mut rows = Vec::new();
    for &(algo, n, p) in shapes {
        if seen.contains(&(algo, n, p)) {
            continue;
        }
        seen.push((algo, n, p));
        let q = grid_side(algo, p);
        let block = (n / q).max(1);
        let (gemm_ns, gemm_flops) = local_gemm_probe(block);
        let partition_ns = if n % q == 0 {
            partition_probe(n, q)
        } else {
            0.0
        };
        rows.push(obj(vec![
            ("kind", Json::Str("probe".into())),
            ("algo", Json::Str(algo.name().into())),
            ("n", num(n as f64)),
            ("p", num(p as f64)),
            ("q", num(q as f64)),
            ("block", num(block as f64)),
            ("gemm_ns", num(gemm_ns)),
            ("gemm_flops", num(gemm_flops)),
            ("partition_ns", num(partition_ns)),
        ]));
    }
    rows
}

/// The traced pass over CLI jobs. Each job runs twice, spans off and
/// spans on, alternating which goes first so neither mode always pays
/// for a cold start.
fn cmd_trace_cli() -> Result<(), String> {
    let jobs = stdin_lines()?
        .iter()
        .map(|l| parse_cli_job(l))
        .collect::<Result<Vec<_>, _>>()?;
    let origin = Instant::now();
    let mut off = Spans::new(false, origin);
    let mut on = Spans::new(true, origin);
    let mut rows = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        on.job = i;
        for traced in [i % 2 == 1, i % 2 == 0] {
            let sp = if traced { &mut on } else { &mut off };
            let t = Instant::now();
            let out = sp.enter("job", |sp| cli_job(job, sp))?;
            let total_ns = t.elapsed().as_nanos() as u64;
            let mode = if traced { "traced" } else { "untraced" };
            rows.push(cli_row(i, mode, total_ns, job, &out));
        }
    }
    let shapes: Vec<_> = jobs.iter().map(|j| (j.algo, j.n, j.p)).collect();
    rows.extend(probe_rows(&shapes));
    emit(rows)?;
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    on.write("traced", &mut out)
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Serve jobs
// ---------------------------------------------------------------------------

/// Algorithms the serve mix names, when the shape applies.
const SERVE_ALGOS: [Algorithm; 8] = [
    Algorithm::Cannon,
    Algorithm::Hje,
    Algorithm::Fox,
    Algorithm::Simple,
    Algorithm::Berntsen,
    Algorithm::Dns,
    Algorithm::Diag3d,
    Algorithm::All3d,
];

/// Draws the serve-mix pool: `count` request bodies (no `id`), each
/// tagged with its job class. Half are healthy ABFT jobs, a quarter
/// ABFT jobs carrying a fault plan from the soak stream, a quarter
/// unprotected (`"abft":false`) jobs that take the host-reference path.
///
/// Classes, shapes and algorithms are laid out in a fixed rotation, so
/// every pool has the same composition; the seed draws the operands and
/// the fault plans.
fn cmd_serve_pool(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")?;
    let count: usize = flag(args, "--count")?;
    let mut seeds = ChaosRng::new(seed ^ 0x7365_7276_652d_6d69);
    let mut plans = ChaosRng::new(seed);
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    for k in 0..count {
        let class = ["abft", "fault", "abft", "plain"][k % 4];
        let (n, p) = [
            (64usize, 16usize),
            (64, 64),
            (96, 16),
            (96, 64),
            (128, 16),
            (128, 64),
        ][(k / 4) % 6];
        let abft = class != "plain";
        let fits: Vec<Algorithm> = SERVE_ALGOS
            .into_iter()
            .filter(|&a| {
                if abft {
                    cubemm_core::abft::padded_order(a, n, p).is_ok()
                } else {
                    a.check(n, p).is_ok()
                }
            })
            .collect();
        let pick = (k / 24) % (fits.len() + 1);
        let algo = fits.get(pick).map_or("auto", |a| a.name());
        let job_seed = seeds.below(1 << 32);
        let mut body =
            format!(r#"{{"n":{n},"p":{p},"algo":"{algo}","seed":{job_seed},"abft":{abft}"#);
        if class == "fault" {
            let plan = loop {
                let plan = random_soak_plan(&mut plans, p);
                if !plan.is_empty() {
                    break plan;
                }
            };
            body.push_str(&format!(r#","faults":{}"#, plan.to_json()));
        }
        body.push('}');
        let req = parse_request(&with_id(&body, &format!("pool-{k}")))
            .map_err(|e| format!("pool job {k} does not parse: {e:?}"))?;
        if req.abft != abft || (class == "fault") == req.faults.is_empty() {
            return Err(format!("pool job {k} lost fields in parsing: {body}"));
        }
        writeln!(out, "{class}\t{body}").map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Inserts an `id` field at the front of a request body.
fn with_id(body: &str, id: &str) -> String {
    format!(r#"{{"id":"{id}",{}"#, &body[1..])
}

/// One pool line: `CLASS<TAB>BODY`.
struct ServeJob {
    class: String,
    body: String,
}

fn parse_serve_jobs() -> Result<Vec<ServeJob>, String> {
    stdin_lines()?
        .into_iter()
        .map(|l| {
            let (class, body) = l
                .split_once('\t')
                .ok_or_else(|| format!("pool line {l:?}: expected CLASS<TAB>BODY"))?;
            Ok(ServeJob {
                class: class.to_string(),
                body: body.to_string(),
            })
        })
        .collect()
}

/// The answer fields the benchmark compares against the live service.
fn status_fields(status: &JobStatus) -> Vec<(&'static str, Json)> {
    let mut f = vec![("status", Json::Str(status.tag().into()))];
    if let JobStatus::Ok {
        algo,
        attempts,
        outcome,
        fingerprint,
        ..
    } = status
    {
        f.push(("algo", Json::Str((*algo).into())));
        f.push(("attempts", num(*attempts as f64)));
        f.push(("outcome", Json::Str((*outcome).into())));
        f.push(("fingerprint", Json::Str(fingerprint.clone())));
    }
    f
}

/// Outcomes whose product the service promises bit-identical to a
/// healthy run of the same request.
const BITWISE_OUTCOMES: [&str; 3] = ["clean", "recovered", "verified"];

fn ok_outcome(status: &JobStatus) -> Option<(&'static str, &str)> {
    match status {
        JobStatus::Ok {
            outcome,
            fingerprint,
            ..
        } => Some((outcome, fingerprint.as_str())),
        _ => None,
    }
}

/// What `cubemm serve` does with one line: parse, execute, encode — each
/// call in its layer's span.
fn serve_job(job: &ServeJob, k: usize, sp: &mut Spans) -> Result<JobStatus, String> {
    let line = with_id(&job.body, &format!("pool-{k}"));
    let req = sp
        .enter("serve.parse", |_| parse_request(&line))
        .map_err(|e| format!("pool job {k}: {e:?}"))?;
    let exec_span = match job.class.as_str() {
        "abft" => "serve.exec_abft",
        "fault" => "serve.exec_fault",
        _ => "serve.exec_plain",
    };
    let outcome = sp.enter(exec_span, |_| execute(&req));
    std::hint::black_box(sp.enter("serve.encode", |_| outcome.response.encode()));
    Ok(outcome.response.status)
}

/// The machine a request asks for, built from its public fields; the
/// fault plan only when `faults` is set.
fn request_config(req: &JobRequest, faults: bool) -> MachineConfig {
    MachineConfig::builder()
        .port(req.port)
        .costs(CostParams {
            ts: req.ts,
            tw: req.tw,
        })
        .kernel(req.kernel)
        .faults(if faults {
            req.faults.clone()
        } else {
            FaultPlan::default()
        })
        .engine(req.engine)
        .build()
}

/// A served job's expected answer, with the facts the gate needs to
/// trust it: the fingerprint of the request's healthy product and that
/// product's deviation from `gemm::reference`, and for a `corrected`
/// answer the same two figures for the faulted run's product plus the
/// tolerance the checksum verification of the healthy product applies
/// (the accuracy a corrected product is promised).
fn expect_serve_row(job: &ServeJob, k: usize) -> Result<Json, String> {
    let mut off = Spans::new(false, Instant::now());
    let status = serve_job(job, k, &mut off)?;
    let req = parse_request(&with_id(&job.body, &format!("pool-{k}")))
        .map_err(|e| format!("pool job {k}: {e:?}"))?;
    let mut f = vec![
        ("kind", Json::Str("expect".into())),
        ("job", num(k as f64)),
        ("n", num(req.n as f64)),
    ];
    f.extend(status_fields(&status));
    if let Some((outcome, _)) = ok_outcome(&status) {
        let (healthy, abft_tol) = serve_layers(&req, &mut off, true)?
            .ok_or_else(|| format!("pool job {k}: answered ok but no algorithm applies"))?;
        f.push(("healthy_fingerprint", Json::Str(healthy.fingerprint)));
        f.push(("healthy_diff", num(healthy.max_abs_diff)));
        if let ("corrected", Some(tol)) = (outcome, abft_tol) {
            let algo = resolved_algo(&req).expect("serve_layers resolved it");
            let (a, b) = operands(req.n, req.seed);
            let policy = RecoveryPolicy {
                max_attempts: req.attempts,
                ..RecoveryPolicy::default()
            };
            let cfg = request_config(&req, true);
            let (res, _) = multiply_with_recovery_tol(algo, &a, &b, req.p, &cfg, &policy, None)
                .map_err(|e| format!("pool job {k}: rerun of a corrected job failed: {e}"))?;
            f.push(("rerun_fingerprint", Json::Str(fingerprint_hex(&res.c))));
            f.push((
                "rerun_diff",
                num(res.c.max_abs_diff(&gemm::reference(&a, &b))),
            ));
            f.push(("abft_tol", num(tol)));
        }
    }
    Ok(obj(f))
}

fn cmd_expect_serve() -> Result<(), String> {
    let jobs = parse_serve_jobs()?;
    let indexed: Vec<(usize, &ServeJob)> = jobs.iter().enumerate().collect();
    let rows = par_map(&indexed, |&(k, job)| expect_serve_row(job, k));
    emit(rows.into_iter().collect::<Result<Vec<_>, _>>()?)
}

/// The algorithm a request runs, as the service resolves it.
fn resolved_algo(req: &JobRequest) -> Option<Algorithm> {
    match req.algo {
        AlgoChoice::Named(a) => Some(a),
        AlgoChoice::Auto => resolve_auto(req),
    }
}

/// A request's operands, drawn as the service draws them.
fn operands(n: usize, seed: u64) -> (Matrix, Matrix) {
    (
        Matrix::random(n, n, seed),
        Matrix::random(n, n, seed.wrapping_add(1)),
    )
}

/// The healthy product of one served job, its layers called directly
/// with spans (the service's own path runs inside `execute`, which the
/// bench cannot open): unprotected jobs take the reference path, ABFT
/// jobs augment, multiply and verify. The fault plan is left out, so
/// counts repeat exactly. With `check` set, an ABFT product is also
/// compared with `gemm::reference` (outside any span); an unprotected
/// one always is. An ABFT job also returns the tolerance its checksum
/// verification applied.
fn serve_layers(
    req: &JobRequest,
    sp: &mut Spans,
    check: bool,
) -> Result<Option<(CliOut, Option<f64>)>, String> {
    let Some(algo) = resolved_algo(req) else {
        return Ok(None);
    };
    let cfg = request_config(req, false);
    let (n, seed) = (req.n, req.seed);
    if !req.abft {
        let job = CliJob {
            algo,
            n,
            p: req.p,
            cfg,
            seed,
        };
        return cli_job(&job, sp).map(|out| Some((out, None)));
    }
    let (a, b) = sp.enter("dense.operands", |_| operands(n, seed));
    let fail = |e: cubemm_core::AlgoError| format!("{algo} n={n} p={}: {e}", req.p);
    let total = cubemm_core::abft::padded_order(algo, n, req.p).map_err(fail)?;
    let (aa, bb) = sp.enter("dense.abft_augment", |_| abft::augment(&a, &b, total));
    let res = sp
        .enter("core.multiply", |_| algo.multiply(&aa, &bb, req.p, &cfg))
        .map_err(fail)?;
    let mut cf = res.c;
    let (verdict, tol) = sp.enter("dense.abft_verify", |_| {
        let tol = abft::default_tolerance(&cf);
        (abft::verify_and_correct(&mut cf, n, tol), tol)
    });
    std::hint::black_box(verdict);
    let c = abft::strip(&cf, n);
    let fingerprint = sp.enter("serve.fingerprint", |_| fingerprint_hex(&c));
    let max_abs_diff = if check {
        c.max_abs_diff(&gemm::reference(&a, &b))
    } else {
        f64::NAN
    };
    let out = CliOut {
        fingerprint,
        max_abs_diff,
        messages: res.stats.total_messages(),
        word_hops: res.stats.total_word_hops(),
        peak_words: res.stats.total_peak_words(),
    };
    Ok(Some((out, Some(tol))))
}

/// The traced pass over the serve pool: every line through parse →
/// execute → encode with spans off and on (alternating order), then the
/// direct layer calls, then the per-shape probes of the unprotected
/// jobs.
fn cmd_trace_serve() -> Result<(), String> {
    let jobs = parse_serve_jobs()?;
    let origin = Instant::now();
    let mut off = Spans::new(false, origin);
    let mut on = Spans::new(true, origin);
    let mut layers = Spans::new(true, origin);
    let mut rows = Vec::new();
    let mut plain_shapes = Vec::new();
    for (k, job) in jobs.iter().enumerate() {
        on.job = k;
        layers.job = k;
        let mut answer = None;
        for traced in [k % 2 == 1, k % 2 == 0] {
            let sp = if traced { &mut on } else { &mut off };
            let t = Instant::now();
            let status = sp.enter("job", |sp| serve_job(job, k, sp))?;
            answer = ok_outcome(&status).map(|(o, fp)| (o, fp.to_string()));
            let total_ns = t.elapsed().as_nanos() as u64;
            let mut f = vec![
                ("kind", Json::Str("job".into())),
                ("job", num(k as f64)),
                (
                    "mode",
                    Json::Str(if traced { "traced" } else { "untraced" }.into()),
                ),
                ("class", Json::Str(job.class.clone())),
                ("total_ns", num(total_ns as f64)),
            ];
            f.extend(status_fields(&status));
            rows.push(obj(f));
        }
        let req = parse_request(&with_id(&job.body, &format!("pool-{k}")))
            .map_err(|e| format!("pool job {k}: {e:?}"))?;
        if let Some((out, _)) = layers.enter("layers", |sp| serve_layers(&req, sp, false))? {
            // The direct layer calls copy the service's path; a product
            // that differs from what `execute` answered means the copy
            // has drifted and its spans time something else.
            if let Some((outcome, fingerprint)) = &answer {
                if BITWISE_OUTCOMES.contains(outcome) && *fingerprint != out.fingerprint {
                    return Err(format!(
                        "pool job {k}: the direct layer calls give {} but execute answered \
                         {fingerprint} ({outcome}): the copy of the service's path has drifted",
                        out.fingerprint
                    ));
                }
            }
            rows.push(obj(vec![
                ("kind", Json::Str("layers".into())),
                ("job", num(k as f64)),
                ("class", Json::Str(job.class.clone())),
                ("messages", num(out.messages as f64)),
                ("word_hops", num(out.word_hops as f64)),
                ("peak_words", num(out.peak_words as f64)),
            ]));
            if !req.abft {
                if let Some(algo) = resolved_algo(&req) {
                    plain_shapes.push((algo, req.n, req.p));
                }
            }
        }
    }
    rows.extend(probe_rows(&plain_shapes));
    emit(rows)?;
    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    on.write("traced", &mut out)
        .and_then(|()| layers.write("layers", &mut out))
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}
