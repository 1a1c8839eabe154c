//! Symbolic schedule certification: closed-form proofs over all
//! `p = 2^d`, grounded by differential expansion at concrete `d`.
//!
//! The conformance pass of PR 3 certifies *captures*: concrete
//! schedules at enumerated `(n, p)` points. This module certifies
//! *families*. Each collective carries a declarative
//! [`CollSchema`](cubemm_collectives::CollSchema) — round count, copy
//! rule, rotated dimension orders, and per-round volume as an
//! exponential schema — and each registry algorithm a phase-level
//! [`AlgoSchema`](cubemm_core::schema::AlgoSchema). The certifier
//! discharges, per schema, a list of [`Obligation`]s:
//!
//! * **structural obligations** hold for every `d` by a short symbolic
//!   argument (round count equals `δ` as a linear form; the rotated
//!   copies `o_r(c) = (c ± r) mod δ` are pairwise distinct per round by
//!   the residue argument, so multi-port copies are link-disjoint;
//!   round `r` consumes only frontier state produced by rounds `< r`,
//!   so the family is deadlock-free by induction over rounds);
//! * **cost obligations** compare exact polynomials: the closed-form
//!   `(a, b)` summed from the volume schema must *formally equal* the
//!   Table 1 row, and phase-composed algorithm costs the Table 2 row —
//!   monomials in the `n^a·2^(e·d/12)·d^k` basis are linearly
//!   independent, so formal equality is equality for all `p = 2^d`;
//! * **grounding obligations** tie the schema to the real code: the
//!   schema's independent expansion at concrete `d` must be
//!   message-for-message identical to the compiled plans (and, in the
//!   differential test harness, to trace captures of real runs).
//!
//! What stays point-checked, and why, is catalogued in DESIGN.md §15.

use cubemm_collectives::{CollKind, CollSchema};
use cubemm_core::schema::{AlgoSchema, CollPhase, Phase, SchemaForm};
use cubemm_core::Algorithm;
use cubemm_model::sym::{Poly, Rat, SymOverhead};
use cubemm_model::{overhead_sym, ModelAlgo};
use cubemm_simnet::{CostParams, Machine, Payload, PortModel};
use cubemm_topology::Subcube;

use crate::check::{analyze, Strictness};
use crate::collectives::{collective_schedule, Collective};
use crate::conformance::{
    analyze_algorithm, applicable_grid, Policy, DIAG3D_ONE_PORT_FACTOR, GRANULARITY_SLACK,
};
use crate::ir::{Event, Round, Schedule};

/// A closed-form `(a, b)` cost pair: time is `t_s·a + t_w·b`.
#[derive(Debug, Clone, PartialEq)]
pub struct SymCost {
    /// Start-up coefficient.
    pub a: Poly,
    /// Word-transfer coefficient.
    pub b: Poly,
}

/// One discharged (or refuted) proof obligation of a certificate.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Short obligation name (`rounds`, `cost-b`, …).
    pub name: &'static str,
    /// What is being claimed, for the transcript.
    pub statement: String,
    /// Did the check discharge the obligation?
    pub ok: bool,
    /// How it was discharged, or why it failed.
    pub detail: String,
}

impl Obligation {
    fn pass(name: &'static str, statement: String, detail: String) -> Obligation {
        Obligation {
            name,
            statement,
            ok: true,
            detail,
        }
    }

    fn fail(name: &'static str, statement: String, detail: String) -> Obligation {
        Obligation {
            name,
            statement,
            ok: false,
            detail,
        }
    }
}

/// The analyzer-side [`Collective`] a schema kind corresponds to (the
/// inverse of [`Collective::kind`]).
fn collective_of(kind: CollKind) -> Collective {
    match kind {
        CollKind::Bcast => Collective::Bcast,
        CollKind::Scatter => Collective::Scatter,
        CollKind::Gather => Collective::Gather,
        CollKind::Reduce => Collective::Reduce,
        CollKind::Allgather => Collective::Allgather,
        CollKind::ReduceScatter => Collective::ReduceScatter,
        CollKind::Alltoall => Collective::Alltoall,
    }
}

impl Collective {
    /// The schema kind describing this collective.
    pub fn kind(&self) -> CollKind {
        match self {
            Collective::Bcast => CollKind::Bcast,
            Collective::Scatter => CollKind::Scatter,
            Collective::Gather => CollKind::Gather,
            Collective::Reduce => CollKind::Reduce,
            Collective::Allgather => CollKind::Allgather,
            Collective::ReduceScatter => CollKind::ReduceScatter,
            Collective::Alltoall => CollKind::Alltoall,
        }
    }
}

/// The Table 1 row for `kind` under `port` as exact polynomials in the
/// collective basis: size variable `m` (the Table 1 unit), `δ` for the
/// subcube dimension, and `N = 2^δ` encoded as `x¹²`. The symbolic
/// counterpart of [`crate::collectives::table1`].
pub fn table1_sym(kind: CollKind, port: PortModel) -> SymCost {
    let m = Poly::v(1);
    let delta = Poly::d();
    let n_minus_1 = Poly::p_pow(1, 1).sub(&Poly::int(1));
    let inv_delta = Poly::term(Rat::ONE, 0, 0, -1);
    let b_one = match kind {
        CollKind::Bcast | CollKind::Reduce => m.mul(&delta),
        CollKind::Scatter | CollKind::Gather | CollKind::Allgather | CollKind::ReduceScatter => {
            n_minus_1.mul(&m)
        }
        CollKind::Alltoall => Poly::p_pow(1, 1).mul(&m).mul(&delta).scale(Rat::new(1, 2)),
    };
    let b = match (kind, port) {
        (_, PortModel::OnePort) => b_one,
        (CollKind::Bcast | CollKind::Reduce, PortModel::MultiPort) => m,
        (CollKind::Alltoall, PortModel::MultiPort) => {
            Poly::p_pow(1, 1).mul(&m).scale(Rat::new(1, 2))
        }
        (_, PortModel::MultiPort) => b_one.mul(&inv_delta),
    };
    SymCost { a: delta, b }
}

/// The closed-form `(a, b)` a schema *claims*, by exact geometric
/// summation of its per-round volume over the declared round count:
///
/// ```text
///   b = Σ_{r=0}^{R−1} coef · 2^(aδ + g·r + c) · m / ncopies
/// ```
///
/// with `R = δ + skew`. Fails if the exponent slope `g` is outside
/// `{−1, 0, 1}` (no reference schema needs more).
pub fn coll_cost_sym(schema: &CollSchema, port: PortModel) -> Result<SymCost, String> {
    let skew = schema.rounds_skew;
    let rounds = Poly::d().add(&Poly::int(i128::from(skew)));
    let vol = schema.vol;
    let coef =
        Rat::new(i128::from(vol.coef.0), i128::from(vol.coef.1)) * Rat::int(2).pow(vol.pow2_const);
    // m · 2^(pow2_delta·δ) with the constant folded in.
    let base = Poly::term(coef, 1, 12 * vol.pow2_delta, 0);
    let two_pow_skew = Rat::int(2).pow(skew);
    let sum = match vol.pow2_r {
        0 => base.mul(&rounds),
        1 => {
            // Σ 2^r = 2^R − 1,  2^R = 2^skew · 2^δ
            let geom = Poly::term(two_pow_skew, 0, 12, 0).sub(&Poly::int(1));
            base.mul(&geom)
        }
        -1 => {
            // Σ 2^(−r) = 2 − 2^(1−R),  2^(1−R) = 2^(1−skew) · 2^(−δ)
            let geom = Poly::int(2).sub(&Poly::term(Rat::int(2).pow(1 - skew), 0, -12, 0));
            base.mul(&geom)
        }
        g => return Err(format!("unsupported per-round exponent slope {g}")),
    };
    let b = match port {
        PortModel::OnePort => sum,
        PortModel::MultiPort => sum.mul(&Poly::term(Rat::ONE, 0, 0, -1)),
    };
    Ok(SymCost { a: rounds, b })
}

/// Expands `schema` into a whole-machine [`Schedule`] at concrete
/// dimension `d` — independently of the plan generators. `root` is the
/// root rank for the rooted shapes (ignored by the all-to-all shapes,
/// which the generators pin to relative rank space), `m` the Table 1
/// unit, `base` the tag base.
pub fn expand_collective(
    schema: &CollSchema,
    port: PortModel,
    d: u32,
    m: usize,
    base: u64,
    root: usize,
) -> Schedule {
    let p = 1usize << d;
    let rooted = matches!(
        schema.kind,
        CollKind::Bcast | CollKind::Scatter | CollKind::Gather | CollKind::Reduce
    );
    let root = if rooted { root } else { 0 };
    let mut s = Schedule::new(p);
    for node in 0..p {
        let v = node ^ root;
        for spec in schema.expand_node(port, d, m, base, v) {
            let mut round = Round::default();
            for send in &spec.sends {
                round.events.push(Event::Send {
                    to: send.peer_v ^ root,
                    tag: send.tag,
                    words: send.words,
                    hops: 1,
                });
            }
            for recv in &spec.recvs {
                round.events.push(Event::Recv {
                    from: recv.peer_v ^ root,
                    tag: recv.tag,
                    expect: Some(recv.words),
                });
            }
            s.push_round(node, round);
        }
    }
    s
}

fn event_key(e: &Event) -> (u8, usize, u64, usize, u32) {
    match *e {
        Event::Send {
            to,
            tag,
            words,
            hops,
        } => (0, to, tag, words, hops),
        Event::Recv { from, tag, expect } => (1, from, tag, expect.unwrap_or(usize::MAX), 1),
    }
}

fn describe(e: &Event) -> String {
    match *e {
        Event::Send { to, tag, words, .. } => format!("send {words}w tag {tag} → {to}"),
        Event::Recv { from, tag, expect } => {
            format!("recv {:?}w tag {tag} ← {from}", expect)
        }
    }
}

/// Message-for-message comparison of two schedules. Each node must run
/// the same rounds carrying the same multiset of events (peer, tag,
/// words, hops). With `skip_empty`, rounds without events are dropped
/// before aligning — trace-derived schedules never record a node's
/// idle rounds, while expansions and compiled plans keep them.
pub fn diff_schedules(lhs: &Schedule, rhs: &Schedule, skip_empty: bool) -> Result<(), String> {
    if lhs.p != rhs.p {
        return Err(format!("node counts differ: {} vs {}", lhs.p, rhs.p));
    }
    for u in 0..lhs.p {
        let pick = |s: &Schedule| -> Vec<Round> {
            s.nodes[u]
                .iter()
                .filter(|r| !skip_empty || !r.events.is_empty())
                .cloned()
                .collect()
        };
        let (lr, rr) = (pick(lhs), pick(rhs));
        if lr.len() != rr.len() {
            return Err(format!(
                "node {u}: round counts differ ({} vs {})",
                lr.len(),
                rr.len()
            ));
        }
        for (i, (a, b)) in lr.iter().zip(&rr).enumerate() {
            let mut ae = a.events.clone();
            let mut be = b.events.clone();
            ae.sort_by_key(event_key);
            be.sort_by_key(event_key);
            if ae != be {
                let detail = ae
                    .iter()
                    .zip(&be)
                    .find(|(x, y)| x != y)
                    .map(|(x, y)| format!("{} vs {}", describe(x), describe(y)))
                    .unwrap_or_else(|| format!("event counts {} vs {}", ae.len(), be.len()));
                return Err(format!("node {u} round {i}: {detail}"));
            }
        }
    }
    Ok(())
}

/// Runs the real collective `kind` on a traced simulated machine and
/// rebuilds its schedule from the trace — the experimental side of the
/// differential harness.
pub fn captured_collective(
    kind: CollKind,
    port: PortModel,
    d: u32,
    m: usize,
    root: usize,
) -> Result<Schedule, String> {
    use cubemm_collectives as coll;
    let p = 1usize << d;
    let machine = Machine::builder(p)
        .port(port)
        .cost(CostParams::PAPER)
        .traced(true)
        .build()
        .map_err(|e| format!("machine build failed: {e}"))?;
    let zeros = |len: usize| -> Payload { std::iter::repeat_n(0.0, len).collect() };
    let out = machine
        .run(vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            let n = sc.size();
            match kind {
                CollKind::Bcast => {
                    let data = (v == root).then(|| zeros(m));
                    coll::bcast(&mut proc, &sc, root, 0, data, m).await;
                }
                CollKind::Scatter => {
                    let parts = (v == root).then(|| vec![zeros(m); n]);
                    coll::scatter(&mut proc, &sc, root, 0, parts, m).await;
                }
                CollKind::Gather => {
                    coll::gather(&mut proc, &sc, root, 0, zeros(m)).await;
                }
                CollKind::Reduce => {
                    coll::reduce_sum(&mut proc, &sc, root, 0, zeros(m)).await;
                }
                CollKind::Allgather => {
                    coll::allgather(&mut proc, &sc, 0, zeros(m)).await;
                }
                CollKind::ReduceScatter => {
                    coll::reduce_scatter(&mut proc, &sc, 0, vec![zeros(m); n]).await;
                }
                CollKind::Alltoall => {
                    coll::alltoall_personalized(&mut proc, &sc, 0, vec![zeros(m); n]).await;
                }
            }
        })
        .map_err(|e| format!("collective run failed: {e}"))?;
    Schedule::from_traces(p, &out.traces)
}

/// A collective's symbolic certificate: its claimed closed-form cost,
/// the Table 1 row it must equal, and the discharged obligations.
#[derive(Debug, Clone)]
pub struct CollCertificate {
    /// The collective.
    pub kind: CollKind,
    /// Port model certified under.
    pub port: PortModel,
    /// Schema-derived closed form.
    pub cost: SymCost,
    /// Table 1 closed form.
    pub table: SymCost,
    /// The proof obligations, in discharge order.
    pub obligations: Vec<Obligation>,
}

impl CollCertificate {
    /// Did every obligation discharge?
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.ok)
    }
}

/// Concrete dimensions at which certificates ground their symbolic
/// claims against the compiled plan generators (kept small so the
/// certifier stays fast; the test harness sweeps much wider and against
/// real traced runs).
pub const GROUND_DIMS: [u32; 4] = [1, 2, 3, 5];

/// Certifies one collective schema under `port`: discharges the
/// structural, cost, and grounding obligations described in the module
/// docs. A schema that lies about any claim — round count, volume
/// polynomial, or expansion — fails the corresponding obligation.
pub fn certify_collective(schema: &CollSchema, port: PortModel) -> CollCertificate {
    let kind = schema.kind;
    let table = table1_sym(kind, port);
    let mut obligations = Vec::new();

    // Obligation 1: declared round count is exactly δ, as a linear form.
    let rounds = Poly::d().add(&Poly::int(i128::from(schema.rounds_skew)));
    let stmt = format!(
        "rounds per copy R(δ) = δ (declared: {})",
        rounds.render("m", "N", "δ")
    );
    if rounds == Poly::d() {
        obligations.push(Obligation::pass(
            "rounds",
            stmt,
            "linear forms equal; with one peeled dimension per round, δ rounds peel \
             every dimension exactly once"
                .into(),
        ));
    } else {
        obligations.push(Obligation::fail(
            "rounds",
            stmt,
            "declared round count differs from the structural δ".into(),
        ));
    }

    // Obligation 2: port legality of the copy rule. One-port: a single
    // copy means one send and one receive per node per round. Multi-port:
    // the δ rotated copies use dimensions o_r(c) = (c ± r) mod δ, which
    // are pairwise distinct for c in [0, δ): o_r(c₁) = o_r(c₂) implies
    // c₁ ≡ c₂ (mod δ), hence c₁ = c₂ — a residue argument valid for all
    // δ. Each copy therefore drives its own link.
    match port {
        PortModel::OnePort => obligations.push(Obligation::pass(
            "port-legality",
            "one-port: ncopies = 1".into(),
            "single copy; at most one send and one receive per node per round by the \
             shape guards"
                .into(),
        )),
        PortModel::MultiPort => {
            let bad = (1u32..=16)
                .flat_map(|delta| (0..delta).map(move |r| (delta, r)))
                .find(|&(delta, r)| {
                    let mut dims = schema.round_dims(delta, PortModel::MultiPort, r);
                    dims.sort_unstable();
                    dims.dedup();
                    dims.len() != delta as usize
                });
            let stmt = "multi-port: δ rotated copies are link-disjoint every round".into();
            match bad {
                None => obligations.push(Obligation::pass(
                    "port-legality",
                    stmt,
                    "residue argument: o_r(c₁) = o_r(c₂) (mod δ) ⇒ c₁ = c₂; spot-verified \
                     for δ ≤ 16"
                        .into(),
                )),
                Some((delta, r)) => obligations.push(Obligation::fail(
                    "port-legality",
                    stmt,
                    format!("copies collide at δ = {delta}, round {r}"),
                )),
            }
        }
    }

    // Obligations 3/4: the closed-form cost claimed by the volume schema
    // equals the Table 1 row, as formal polynomials.
    match coll_cost_sym(schema, port) {
        Err(e) => obligations.push(Obligation::fail(
            "cost-b",
            "closed-form b summable".into(),
            e,
        )),
        Ok(cost) => {
            let render = |p: &Poly| p.render("m", "N", "δ");
            let stmt_a = format!(
                "a = {} must equal Table 1's {}",
                render(&cost.a),
                render(&table.a)
            );
            if cost.a == table.a {
                obligations.push(Obligation::pass(
                    "cost-a",
                    stmt_a,
                    "formal equality in the monomial basis".into(),
                ));
            } else {
                obligations.push(Obligation::fail(
                    "cost-a",
                    stmt_a,
                    "polynomials differ".into(),
                ));
            }
            let stmt_b = format!(
                "b = {} must equal Table 1's {}",
                render(&cost.b),
                render(&table.b)
            );
            if cost.b == table.b {
                obligations.push(Obligation::pass(
                    "cost-b",
                    stmt_b,
                    "geometric sum of the volume schema matches the table row term-for-term".into(),
                ));
            } else {
                obligations.push(Obligation::fail(
                    "cost-b",
                    stmt_b,
                    "polynomials differ".into(),
                ));
            }
            let cert_cost = cost;
            // Obligation 5: FIFO matching and deadlock-freedom, by
            // induction over rounds, grounded by expansion.
            let mut ground_fail: Option<String> = None;
            'ground: for &d in &GROUND_DIMS {
                for m in [24usize, 7] {
                    let coll = collective_of(kind);
                    let expansion = expand_collective(schema, port, d, m, 0, 0);
                    let plans = collective_schedule(coll, port, d, m);
                    if let Err(e) = diff_schedules(&expansion, &plans, false) {
                        ground_fail = Some(format!(
                            "expansion ≠ compiled plans at δ = {d}, m = {m}: {e}"
                        ));
                        break 'ground;
                    }
                    let analysis = analyze(&expansion, port, Strictness::Serialized);
                    if !analysis.is_sound() {
                        ground_fail = Some(format!(
                            "expansion fails the concrete checker at δ = {d}, m = {m}"
                        ));
                        break 'ground;
                    }
                }
            }
            let stmt = "every round-r receive matches a round-r send across one link; \
                        round r depends only on frontier state of rounds < r"
                .to_string();
            match ground_fail {
                None => obligations.push(Obligation::pass(
                    "fifo-deadlock",
                    stmt,
                    format!(
                        "induction over rounds (frontier masks grow monotonically); grounded: \
                         expansion ≡ compiled plans and concrete checks pass at δ ∈ {GROUND_DIMS:?}"
                    ),
                )),
                Some(e) => obligations.push(Obligation::fail("fifo-deadlock", stmt, e)),
            }
            return CollCertificate {
                kind,
                port,
                cost: cert_cost,
                table,
                obligations,
            };
        }
    }
    CollCertificate {
        kind,
        port,
        cost: SymCost {
            a: Poly::zero(),
            b: Poly::zero(),
        },
        table,
        obligations,
    }
}

/// Certifies the reference schemas of all seven collectives under both
/// port models: the all-collectives half of the symbolic gate.
pub fn certify_all_collectives() -> Vec<CollCertificate> {
    let mut out = Vec::new();
    for kind in CollKind::ALL {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            out.push(certify_collective(&CollSchema::reference(kind), port));
        }
    }
    out
}

/// Rewrites a polynomial over `(n, x = 2^(d/12), d)` into the subcube
/// basis `d = j·δ`: `x^e → y^(e·j)` (with `y = 2^(δ/12)`) and
/// `d^k → j^k·δ^k`. Used so dominance arguments can exploit `δ ≥ 1`
/// (i.e. `d ≥ j`) instead of only `d ≥ 1`.
fn in_subcube_basis(p: &Poly, j: u32) -> Poly {
    let j = j as i32;
    let mut out = Poly::zero();
    for ((v, x, d), c) in p.iter_terms() {
        out = out.add(&Poly::term(c * Rat::int(i128::from(j)).pow(d), v, x * j, d));
    }
    out
}

/// `lhs ≥ rhs` for every valid dimension (`d` a multiple of `j`,
/// `n ≥ 1`), by monomial dominance in the subcube basis.
fn dominates(lhs: &Poly, rhs: &Poly, j: u32) -> bool {
    in_subcube_basis(&lhs.sub(rhs), j).nonnegative_for_ge_one()
}

/// The closed-form `(a, b)` one collective phase contributes: its
/// Table 1 row rewritten from the subcube basis (`δ = d/sub`) to the
/// global one, with the message unit substituted in.
fn coll_phase_cost(cp: &CollPhase, port: PortModel) -> Result<SymCost, String> {
    let t = table1_sym(cp.kind, port);
    Ok(SymCost {
        a: t.a.subst_delta(cp.sub)?,
        b: t.b.subst_delta(cp.sub)?.subst_v(&cp.unit)?,
    })
}

/// Composes an algorithm schema's phases into its closed-form `(a, b)`
/// under `port`. Serial phases add; fused multi-port phases cost their
/// slowest stream, established per coordinate by monomial dominance
/// (an error here means no stream provably dominates — a schema bug,
/// not a cost bug).
pub fn algo_cost_sym(schema: &AlgoSchema, port: PortModel) -> Result<SymCost, String> {
    let SchemaForm::Closed(phases) = &schema.form else {
        return Err("parametric family has no closed form".into());
    };
    let mut a = Poly::zero();
    let mut b = Poly::zero();
    for phase in phases {
        match phase {
            Phase::Coll {
                coll,
                repeat,
                label,
            } => {
                let c = coll_phase_cost(coll, port).map_err(|e| format!("{label}: {e}"))?;
                a = a.add(&c.a.mul(repeat));
                b = b.add(&c.b.mul(repeat));
            }
            Phase::Fused { streams, label } => {
                let costs: Result<Vec<SymCost>, String> =
                    streams.iter().map(|s| coll_phase_cost(s, port)).collect();
                let costs = costs.map_err(|e| format!("{label}: {e}"))?;
                let sub = streams[0].sub;
                match port {
                    PortModel::OnePort => {
                        for c in &costs {
                            a = a.add(&c.a);
                            b = b.add(&c.b);
                        }
                    }
                    PortModel::MultiPort => {
                        let pick = |get: &dyn Fn(&SymCost) -> &Poly| -> Result<Poly, String> {
                            costs
                                .iter()
                                .find(|c| costs.iter().all(|o| dominates(get(c), get(o), sub)))
                                .map(|c| get(c).clone())
                                .ok_or_else(|| {
                                    format!("{label}: no fused stream provably dominates")
                                })
                        };
                        a = a.add(&pick(&|c: &SymCost| &c.a)?);
                        b = b.add(&pick(&|c: &SymCost| &c.b)?);
                    }
                }
            }
            Phase::Shift {
                rounds,
                a1,
                b1,
                amp,
                bmp,
                ..
            } => {
                let (pa, pb) = match port {
                    PortModel::OnePort => (a1, b1),
                    PortModel::MultiPort => (amp, bmp),
                };
                a = a.add(&rounds.mul(pa));
                b = b.add(&rounds.mul(pb));
            }
            Phase::Routed { sub, vol, .. } => {
                let delta = Poly::d().scale(Rat::new(1, i128::from(*sub)));
                a = a.add(&delta);
                match port {
                    PortModel::OnePort => b = b.add(&delta.mul(vol)),
                    PortModel::MultiPort => b = b.add(vol),
                }
            }
        }
    }
    Ok(SymCost { a, b })
}

/// Maps a registry algorithm onto its Table 2 row identity, when the
/// model has one.
fn model_algo(policy: Policy) -> Option<ModelAlgo> {
    match policy {
        Policy::Table(m) | Policy::Scaled(m) | Policy::AtLeast(m) => Some(m),
        Policy::NoRow => None,
    }
}

/// An algorithm's symbolic certificate.
#[derive(Debug)]
pub struct AlgoCertificate {
    /// The algorithm.
    pub algo: Algorithm,
    /// Port model certified under.
    pub port: PortModel,
    /// Composed closed form (absent for parametric families).
    pub cost: Option<SymCost>,
    /// The Table 2 row compared against, when one exists.
    pub table: Option<SymOverhead>,
    /// Applicability conditions inherited from the table row.
    pub conditions: Vec<&'static str>,
    /// The proof obligations, in discharge order.
    pub obligations: Vec<Obligation>,
}

impl AlgoCertificate {
    /// Did every obligation discharge?
    pub fn ok(&self) -> bool {
        self.obligations.iter().all(|o| o.ok)
    }
}

fn render_global(p: &Poly) -> String {
    p.render("n", "p", "log p")
}

/// The All3d multi-port row is the table's large-message regime; its
/// side condition in (n, p, d).
fn all3d_mp_compliant(n: usize, p: usize) -> bool {
    let d = f64::from((p as u32).trailing_zeros());
    ((n * n) as f64) >= (p as f64) * (p as f64).cbrt() * (d / 3.0).max(1.0)
}

fn close(x: f64, y: f64) -> bool {
    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
}

/// Grounds a composed closed form against one real captured run: the
/// capture must be sound and conformant, and its extracted `(a, b)`
/// must equal `factor ×` the symbolic prediction (`b` may exceed it by
/// the multi-port slice granularity, never `a`).
fn ground_algorithm(
    algo: Algorithm,
    port: PortModel,
    cost: Option<&SymCost>,
    factor: f64,
) -> Obligation {
    let points = applicable_grid(algo);
    let stmt = "captured runs match the symbolic prediction at sampled grid points".to_string();
    let mut checked = 0usize;
    let mut sample: Vec<(usize, usize)> = Vec::new();
    sample.extend(points.first().copied());
    if points.len() > 1 {
        sample.extend(points.last().copied());
    }
    for (n, p) in sample {
        if algo == Algorithm::All3d && port == PortModel::MultiPort && !all3d_mp_compliant(n, p) {
            continue;
        }
        let analysis = match analyze_algorithm(algo, n, p, port) {
            Ok(a) => a,
            Err(e) => return Obligation::fail("grounding", stmt, e),
        };
        if !analysis.verdict.is_conformant() {
            return Obligation::fail(
                "grounding",
                stmt,
                format!("(n={n}, p={p}): capture verdict {}", analysis.verdict),
            );
        }
        if let (Some(cost), Some(measured)) = (cost, analysis.analysis.cost) {
            let d = f64::from((p as u32).trailing_zeros());
            let (ea, eb) = (
                factor * cost.a.eval(n as f64, d),
                factor * cost.b.eval(n as f64, d),
            );
            if !close(measured.a, ea) {
                return Obligation::fail(
                    "grounding",
                    stmt,
                    format!(
                        "(n={n}, p={p}): measured a = {} vs symbolic {ea}",
                        measured.a
                    ),
                );
            }
            let b_ok = close(measured.b, eb)
                || (measured.b > eb && measured.b <= eb * (1.0 + GRANULARITY_SLACK));
            if !b_ok {
                return Obligation::fail(
                    "grounding",
                    stmt,
                    format!(
                        "(n={n}, p={p}): measured b = {} vs symbolic {eb} \
                         (beyond granularity slack)",
                        measured.b
                    ),
                );
            }
        }
        checked += 1;
    }
    if checked == 0 {
        return Obligation::fail("grounding", stmt, "no applicable grid point".into());
    }
    Obligation::pass(
        "grounding",
        stmt,
        format!(
            "{checked} captured run(s): sound, conformant, and (a, b) within \
             factor {factor} of the closed form (b up to slice granularity)"
        ),
    )
}

/// Certifies one registry algorithm under `port`: composes its schema
/// into a closed form, compares it symbolically against the Table 2
/// row under the conformance policy, and grounds it against a real
/// captured run.
pub fn certify_algorithm(algo: Algorithm, port: PortModel) -> AlgoCertificate {
    let schema = (algo.descriptor().schema)();
    let pol = crate::conformance::policy(algo, port);
    let table = model_algo(pol).and_then(|m| overhead_sym(m, port));
    let conditions = table
        .as_ref()
        .map(|t| t.conditions.clone())
        .unwrap_or_default();
    let mut obligations = Vec::new();

    if let SchemaForm::Family { note } = &schema.form {
        obligations.push(Obligation::pass(
            "closed-form",
            "the structure is parametric, not a single-variable closed form".into(),
            format!("{note}; certified at concrete points only (documented in DESIGN.md §15)"),
        ));
        obligations.push(ground_algorithm(algo, port, None, 1.0));
        return AlgoCertificate {
            algo,
            port,
            cost: None,
            table,
            conditions,
            obligations,
        };
    }

    let cost = match algo_cost_sym(&schema, port) {
        Ok(c) => {
            obligations.push(Obligation::pass(
                "composition",
                format!(
                    "phases compose to a = {}, b = {}",
                    render_global(&c.a),
                    render_global(&c.b)
                ),
                "serial phases add; fused multi-port phases resolved by monomial dominance".into(),
            ));
            Some(c)
        }
        Err(e) => {
            obligations.push(Obligation::fail(
                "composition",
                "phases compose to a closed form".into(),
                e,
            ));
            None
        }
    };

    let mut factor = 1.0;
    if let Some(cost) = &cost {
        match (pol, &table) {
            (Policy::Table(_), Some(t)) => {
                let stmt = format!(
                    "composed (a, b) formally equals the Table 2 row \
                     (a = {}, b = {})",
                    render_global(&t.a),
                    render_global(&t.b)
                );
                if cost.a == t.a && cost.b == t.b {
                    obligations.push(Obligation::pass(
                        "table-2",
                        stmt,
                        "equal as formal polynomials — hence equal for every p = 2^d".into(),
                    ));
                } else {
                    obligations.push(Obligation::fail(
                        "table-2",
                        stmt,
                        format!(
                            "composed a = {}, b = {}",
                            render_global(&cost.a),
                            render_global(&cost.b)
                        ),
                    ));
                }
            }
            (Policy::Scaled(_), Some(t)) => {
                factor = DIAG3D_ONE_PORT_FACTOR;
                let stmt = format!(
                    "composed (a, b) formally equals the Table 2 row; the \
                     implementation's broadcast-axis overlap runs it at \
                     {factor} × the row (documented deviation)"
                );
                if cost.a == t.a && cost.b == t.b {
                    obligations.push(Obligation::pass(
                        "table-2",
                        stmt,
                        "row equality is formal; the factor is grounded below".into(),
                    ));
                } else {
                    obligations.push(Obligation::fail(
                        "table-2",
                        stmt,
                        format!(
                            "composed a = {}, b = {}",
                            render_global(&cost.a),
                            render_global(&cost.b)
                        ),
                    ));
                }
            }
            (Policy::AtLeast(m), Some(t)) => {
                let stmt = format!(
                    "stepping stone: composed (a, b) dominates the {} row it refines",
                    m.name()
                );
                if dominates(&cost.a, &t.a, schema.divides)
                    && dominates(&cost.b, &t.b, schema.divides)
                {
                    obligations.push(Obligation::pass(
                        "table-2",
                        stmt,
                        format!(
                            "a − a' = {}, b − b' = {}: non-negative for every valid d \
                             by monomial dominance",
                            render_global(&cost.a.sub(&t.a)),
                            render_global(&cost.b.sub(&t.b))
                        ),
                    ));
                } else {
                    obligations.push(Obligation::fail(
                        "table-2",
                        stmt,
                        "dominance not established".into(),
                    ));
                }
            }
            (Policy::NoRow, _) | (_, None) => {
                obligations.push(Obligation::pass(
                    "table-2",
                    "no Table 2 row for this algorithm/port".into(),
                    format!(
                        "the certificate is the derived closed form a = {}, b = {}, \
                         grounded against measured runs",
                        render_global(&cost.a),
                        render_global(&cost.b)
                    ),
                ));
            }
        }
    }

    obligations.push(ground_algorithm(algo, port, cost.as_ref(), factor));
    AlgoCertificate {
        algo,
        port,
        cost,
        table,
        conditions,
        obligations,
    }
}

fn render_obligations(f: &mut std::fmt::Formatter<'_>, obs: &[Obligation]) -> std::fmt::Result {
    for o in obs {
        let mark = if o.ok { "✓" } else { "✗" };
        writeln!(f, "  {mark} {:<14} {}", o.name, o.statement)?;
        writeln!(f, "      {}", o.detail)?;
    }
    Ok(())
}

impl std::fmt::Display for CollCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "CERTIFIED" } else { "FAILED" };
        writeln!(
            f,
            "collective {} [{}] — {verdict} for all δ ≥ 1",
            self.kind.name(),
            match self.port {
                PortModel::OnePort => "one-port",
                PortModel::MultiPort => "multi-port",
            }
        )?;
        writeln!(
            f,
            "  a = {}   b = {}",
            self.cost.a.render("m", "N", "δ"),
            self.cost.b.render("m", "N", "δ")
        )?;
        render_obligations(f, &self.obligations)
    }
}

impl std::fmt::Display for AlgoCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "CERTIFIED" } else { "FAILED" };
        writeln!(
            f,
            "algorithm {} [{}] — {verdict} for every applicable p = 2^d",
            self.algo.name(),
            match self.port {
                PortModel::OnePort => "one-port",
                PortModel::MultiPort => "multi-port",
            }
        )?;
        if let Some(cost) = &self.cost {
            writeln!(
                f,
                "  a = {}   b = {}",
                render_global(&cost.a),
                render_global(&cost.b)
            )?;
        }
        for c in &self.conditions {
            writeln!(f, "  condition: {c}")?;
        }
        render_obligations(f, &self.obligations)
    }
}

/// Certifies all 14 registry algorithms under both port models: the
/// all-algorithms half of the symbolic gate.
pub fn certify_all_algorithms() -> Vec<AlgoCertificate> {
    let mut out = Vec::new();
    for desc in cubemm_core::registry::DESCRIPTORS {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            out.push(certify_algorithm(desc.algo, port));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_sym_matches_numeric_table() {
        for coll in Collective::ALL {
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                let sym = table1_sym(coll.kind(), port);
                for d in 1u32..=10 {
                    for m in [12usize, 60] {
                        let (na, nb) = crate::collectives::table1(coll, port, d, m);
                        let (sa, sb) = (
                            sym.a.eval(m as f64, f64::from(d)),
                            sym.b.eval(m as f64, f64::from(d)),
                        );
                        assert!(
                            (sa - na).abs() < 1e-6 && (sb - nb).abs() < 1e-6,
                            "{coll:?} {port:?} d={d} m={m}: sym ({sa}, {sb}) vs num ({na}, {nb})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reference_schemas_certify() {
        for cert in certify_all_collectives() {
            assert!(
                cert.ok(),
                "{:?} {:?} failed: {:?}",
                cert.kind,
                cert.port,
                cert.obligations
                    .iter()
                    .filter(|o| !o.ok)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn expansion_matches_plans_with_nonzero_root() {
        for kind in CollKind::ALL {
            let schema = CollSchema::reference(kind);
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                // The plan-derived reference only exists for root 0, so
                // ground nonzero roots against real traced runs instead.
                let root = 5;
                let expansion = expand_collective(&schema, port, 3, 12, 0, root);
                let traced = captured_collective(kind, port, 3, 12, root).unwrap();
                diff_schedules(&expansion, &traced, true).unwrap_or_else(|e| {
                    panic!("{kind:?} {port:?} root {root}: {e}");
                });
            }
        }
    }

    #[test]
    fn all_registry_algorithms_certify() {
        for cert in certify_all_algorithms() {
            assert!(
                cert.ok(),
                "{:?} {:?} failed: {:#?}",
                cert.algo,
                cert.port,
                cert.obligations
                    .iter()
                    .filter(|o| !o.ok)
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Registry-coverage lint (CI's `registry_coverage` step): every
    /// registered algorithm must carry a symbolic schema, and every
    /// algorithm the conformance layer judges against a Table 2 row
    /// (Table / Scaled / AtLeast) must provide a *closed-form*
    /// composition — a `Family` escape hatch there would silently turn
    /// the for-all-d proof back into grid spot-checks.
    #[test]
    fn registry_coverage_every_descriptor_has_schema_and_policy() {
        use cubemm_core::SchemaForm;
        for desc in cubemm_core::registry::DESCRIPTORS {
            let schema = (desc.schema)();
            assert_eq!(
                schema.algo, desc.algo,
                "descriptor {:?} wired to the wrong schema",
                desc.algo
            );
            for port in [PortModel::OnePort, PortModel::MultiPort] {
                let pol = crate::conformance::policy(desc.algo, port);
                if !matches!(pol, Policy::NoRow) {
                    assert!(
                        matches!(schema.form, SchemaForm::Closed(_)),
                        "{:?} has a Table 2 conformance row under {port:?} but no \
                         closed-form schema: its certificate would not be parametric",
                        desc.algo
                    );
                }
            }
        }
        // And the registry itself is complete: every Algorithm variant
        // appears exactly once.
        let mut seen: Vec<Algorithm> = cubemm_core::registry::DESCRIPTORS
            .iter()
            .map(|d| d.algo)
            .collect();
        seen.dedup();
        assert_eq!(
            seen.len(),
            Algorithm::ALL.len() + Algorithm::EXTENSIONS.len(),
            "registry misses or duplicates an algorithm"
        );
    }

    #[test]
    fn off_by_one_round_schema_is_rejected() {
        let mut schema = CollSchema::reference(CollKind::Bcast);
        schema.rounds_skew = 1;
        let cert = certify_collective(&schema, PortModel::OnePort);
        assert!(!cert.ok());
        let names: Vec<&str> = cert
            .obligations
            .iter()
            .filter(|o| !o.ok)
            .map(|o| o.name)
            .collect();
        assert!(names.contains(&"rounds"), "failed: {names:?}");
        // The skewed expansion also stops matching the compiled plans.
        assert!(names.contains(&"fifo-deadlock"), "failed: {names:?}");
    }

    #[test]
    fn wrong_volume_polynomial_is_rejected() {
        let mut schema = CollSchema::reference(CollKind::Allgather);
        // Claim constant volume instead of the 2^r doubling.
        schema.vol = cubemm_collectives::VolSchema::ONE;
        let cert = certify_collective(&schema, PortModel::OnePort);
        assert!(!cert.ok());
        assert!(
            cert.obligations.iter().any(|o| o.name == "cost-b" && !o.ok),
            "cost-b should fail: {:?}",
            cert.obligations
        );
    }
}
