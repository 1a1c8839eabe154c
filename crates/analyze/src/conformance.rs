//! Whole-algorithm capture and Table 2 conformance.
//!
//! Every multiplication algorithm's communication schedule is
//! data-oblivious: the messages, peers, and sizes depend only on
//! `(n, p, port)`. So one traced run — at any cost parameters — yields
//! the schedule, and everything else is static: the checks prove it
//! deadlock-free and legal, the replay extracts its exact `(a, b)`, and
//! this module compares those against the closed forms in
//! `cubemm_model::costs` (the paper's Table 2).
//!
//! The comparison policies encode the workspace's documented, asserted
//! deviations (see `tests/table2_validation.rs` and DESIGN.md):
//!
//! * **3-D Diagonal, one-port** — the implementation overlaps the two
//!   broadcast axes, beating the paper's bound by exactly one
//!   `log ∛p` phase on each axis: measured `= ¾ ×` the Table 2 row.
//! * **3-D All_Trans** — a stepping stone with no row of its own; it
//!   must cost at least the 3-D All row it refines.
//! * **Multi-port rows** — exact when the `log`-way slice arithmetic is
//!   even; otherwise the ceiling granularity inflates `b` by a bounded
//!   factor (never `a`).
//! * **HJE one-port and the extension/baseline set** — no Table 2 row.

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::gemm::Kernel;
use cubemm_dense::Matrix;
use cubemm_model::{overhead, ModelAlgo, Overhead};
use cubemm_simnet::{CostParams, PortModel};

use crate::check::{analyze, replay_elapsed, Analysis, Strictness};
use crate::ir::Schedule;

/// Relative tolerance for "exactly equals the closed form".
const TOL: f64 = 1e-9;

/// Maximum `b` inflation accepted as slice-granularity rounding on
/// multi-port rows (uneven `log`-way splits send ceiling-sized slices).
pub const GRANULARITY_SLACK: f64 = 0.2;

/// How a measured `(a, b)` is compared against the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Policy {
    /// Compare against this row: `a` exact, `b` exact or within
    /// [`GRANULARITY_SLACK`].
    Table(ModelAlgo),
    /// Measured equals `factor ×` the row on both axes.
    Scaled(ModelAlgo),
    /// Stepping stone: must cost at least the row it refines.
    AtLeast(ModelAlgo),
    /// No Table 2 row exists.
    NoRow,
}

/// The scale factor for [`Policy::Scaled`] rows (3-D Diagonal's
/// one-port overlap).
pub const DIAG3D_ONE_PORT_FACTOR: f64 = 0.75;

pub(crate) fn policy(algo: Algorithm, port: PortModel) -> Policy {
    match (algo, port) {
        (Algorithm::Simple, _) => Policy::Table(ModelAlgo::Simple),
        (Algorithm::Cannon, _) => Policy::Table(ModelAlgo::Cannon),
        // `overhead` itself has no one-port HJE row, so both ports can
        // share the policy; one-port resolves to `NoTableRow`.
        (Algorithm::Hje, _) => Policy::Table(ModelAlgo::Hje),
        (Algorithm::Berntsen, _) => Policy::Table(ModelAlgo::Berntsen),
        (Algorithm::Dns, _) => Policy::Table(ModelAlgo::Dns),
        (Algorithm::Diag3d, PortModel::OnePort) => Policy::Scaled(ModelAlgo::Diag3d),
        (Algorithm::Diag3d, PortModel::MultiPort) => Policy::Table(ModelAlgo::Diag3d),
        (Algorithm::AllTrans3d, _) => Policy::AtLeast(ModelAlgo::All3d),
        (Algorithm::All3d, _) => Policy::Table(ModelAlgo::All3d),
        // Diag2d is a stepping stone without a row; the extension and
        // baseline algorithms are outside the paper's table.
        _ => Policy::NoRow,
    }
}

/// The outcome of comparing an extracted `(a, b)` against Table 2.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Both coordinates equal the closed form.
    Exact,
    /// `a` is exact; `b` exceeds the closed form by the slice
    /// granularity (ratio ≤ `1 + GRANULARITY_SLACK`).
    WithinGranularity {
        /// `measured b / table b`.
        ratio: f64,
    },
    /// Measured equals `factor ×` the row on both axes (3-D Diagonal's
    /// documented one-port overlap).
    ScaledExact {
        /// The documented factor.
        factor: f64,
    },
    /// Stepping stone: costs at least its refinement's row.
    AtLeast {
        /// `measured a / table a`.
        a_ratio: f64,
        /// `measured b / table b`.
        b_ratio: f64,
    },
    /// The model has no row for this algorithm/port.
    NoTableRow,
    /// The schedule failed a legality or deadlock check; conformance is
    /// moot.
    Illegal,
    /// The measured cost disagrees with the closed form.
    Mismatch {
        /// Extracted start-ups.
        a: f64,
        /// Extracted word volume.
        b: f64,
        /// The row's start-ups.
        expected_a: f64,
        /// The row's word volume.
        expected_b: f64,
    },
}

impl Verdict {
    /// Whether this verdict certifies the implementation.
    pub fn is_conformant(&self) -> bool {
        !matches!(self, Verdict::Illegal | Verdict::Mismatch { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Exact => write!(f, "exact"),
            Verdict::WithinGranularity { ratio } => {
                write!(f, "within slice granularity (b ×{ratio:.4})")
            }
            Verdict::ScaledExact { factor } => {
                write!(f, "exactly {factor} × the table row (documented overlap)")
            }
            Verdict::AtLeast { a_ratio, b_ratio } => write!(
                f,
                "≥ refined row (a ×{a_ratio:.4}, b ×{b_ratio:.4}) — stepping stone"
            ),
            Verdict::NoTableRow => write!(f, "no Table 2 row"),
            Verdict::Illegal => write!(f, "ILLEGAL schedule"),
            Verdict::Mismatch {
                a,
                b,
                expected_a,
                expected_b,
            } => write!(
                f,
                "MISMATCH: extracted (a={a}, b={b}), table (a={expected_a}, b={expected_b})"
            ),
        }
    }
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= TOL * x.abs().max(y.abs()).max(1.0)
}

fn judge(
    policy: Policy,
    port: PortModel,
    n: usize,
    p: usize,
    a: f64,
    b: f64,
) -> (Option<Overhead>, Verdict) {
    let row = |m: ModelAlgo| overhead(m, port, n, p);
    match policy {
        Policy::NoRow => (None, Verdict::NoTableRow),
        Policy::Table(m) => match row(m) {
            None => (None, Verdict::NoTableRow),
            Some(o) => {
                let verdict = if close(a, o.a) && close(b, o.b) {
                    Verdict::Exact
                } else if close(a, o.a) && b > o.b && b <= o.b * (1.0 + GRANULARITY_SLACK) {
                    Verdict::WithinGranularity { ratio: b / o.b }
                } else {
                    Verdict::Mismatch {
                        a,
                        b,
                        expected_a: o.a,
                        expected_b: o.b,
                    }
                };
                (Some(o), verdict)
            }
        },
        Policy::Scaled(m) => match row(m) {
            None => (None, Verdict::NoTableRow),
            Some(o) => {
                let f = DIAG3D_ONE_PORT_FACTOR;
                let verdict = if close(a, f * o.a) && close(b, f * o.b) {
                    Verdict::ScaledExact { factor: f }
                } else {
                    Verdict::Mismatch {
                        a,
                        b,
                        expected_a: f * o.a,
                        expected_b: f * o.b,
                    }
                };
                (Some(o), verdict)
            }
        },
        Policy::AtLeast(m) => match row(m) {
            None => (None, Verdict::NoTableRow),
            Some(o) => {
                let verdict = if a >= o.a * (1.0 - TOL) && b >= o.b * (1.0 - TOL) {
                    Verdict::AtLeast {
                        a_ratio: a / o.a,
                        b_ratio: b / o.b,
                    }
                } else {
                    Verdict::Mismatch {
                        a,
                        b,
                        expected_a: o.a,
                        expected_b: o.b,
                    }
                };
                (Some(o), verdict)
            }
        },
    }
}

/// A fully analyzed algorithm instance.
#[derive(Debug)]
pub struct AlgoAnalysis {
    /// The algorithm.
    pub algo: Algorithm,
    /// Port model analyzed under.
    pub port: PortModel,
    /// Matrix dimension.
    pub n: usize,
    /// Node count.
    pub p: usize,
    /// The static analysis of the captured schedule.
    pub analysis: Analysis,
    /// The Table 2 row compared against, when one exists.
    pub expected: Option<Overhead>,
    /// The conformance verdict.
    pub verdict: Verdict,
}

/// Captures the communication schedule `algo` compiles to for `n × n`
/// matrices on `p` nodes: one traced run, then the trace is regrouped
/// into per-node program rounds. Also returns the run's elapsed virtual
/// time at [`CostParams::PAPER`] so callers can cross-validate the
/// static replay against the machine.
pub fn capture(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<(Schedule, f64), String> {
    algo.check(n, p).map_err(|e| e.to_string())?;
    let a = Matrix::random(n, n, 0xA11CE);
    let b = Matrix::random(n, n, 0xB0B);
    let cfg = MachineConfig::builder()
        .port(port)
        .costs(CostParams::PAPER)
        .kernel(Kernel::Naive)
        .traced(true)
        .build();
    let res = algo
        .multiply(&a, &b, p, &cfg)
        .map_err(|e| format!("capture run failed: {e}"))?;
    let schedule = Schedule::from_traces(p, &res.traces)?;
    Ok((schedule, res.stats.elapsed))
}

/// Captures, checks, and judges one `(algorithm, n, p, port)` point.
///
/// Besides the schedule checks, this cross-validates the analyzer
/// itself: the static replay at the capture's cost parameters must
/// reproduce the machine's elapsed time, or the analysis engine no
/// longer models the machine and the result would be untrustworthy.
pub fn analyze_algorithm(
    algo: Algorithm,
    n: usize,
    p: usize,
    port: PortModel,
) -> Result<AlgoAnalysis, String> {
    let (schedule, machine_elapsed) = capture(algo, n, p, port)?;
    let analysis = analyze(&schedule, port, Strictness::Serialized);

    let (expected, verdict) = if let (true, Some(cost)) = (analysis.is_sound(), analysis.cost) {
        let replayed = replay_elapsed(&schedule, port, CostParams::PAPER)?;
        if !close(replayed, machine_elapsed) {
            return Err(format!(
                "replay fidelity failure for {algo} (n={n}, p={p}, {port:?}): \
                 static replay says {replayed}, machine measured {machine_elapsed}"
            ));
        }
        judge(policy(algo, port), port, n, p, cost.a, cost.b)
    } else {
        (None, Verdict::Illegal)
    };

    Ok(AlgoAnalysis {
        algo,
        port,
        n,
        p,
        analysis,
        expected,
        verdict,
    })
}

/// The default `(n, p)` sweep: a 3×3 grid whose points keep every
/// algorithm's block arithmetic even wherever the table demands
/// exactness (`n` multiples of 24 cover the `√p` and `∛p` splits; `p`
/// covers a square, a cube, and 64 = both).
pub const DEFAULT_NS: [usize; 3] = [24, 48, 96];
/// Node counts of the default sweep.
pub const DEFAULT_PS: [usize; 3] = [8, 16, 64];

/// The applicable `(n, p)` points of the default grid for `algo`.
pub fn applicable_grid(algo: Algorithm) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &p in &DEFAULT_PS {
        for &n in &DEFAULT_NS {
            if algo.check(n, p).is_ok() {
                out.push((n, p));
            }
        }
    }
    out
}
