//! Randomized differential tests for the symbolic schedule IR.
//!
//! The certificates in `cubemm_analyze::symbolic` prove cost and
//! structure for *all* `d` by polynomial identity; these tests attack
//! the remaining trusted component — the schema *expansion* — by
//! drawing random dimensions and diffing the expanded schedule
//! message-for-message against two independent oracles:
//!
//! 1. the compiled per-node plans (`collective_schedule`, the PR 3
//!    generators), at random `d ∈ [1, 16]`;
//! 2. trace-derived schedules from real machine runs
//!    (`captured_collective`), at random `d ∈ [1, 8]` and random roots.
//!
//! Plus negative controls: a schema skewed by one round, or carrying
//! the wrong volume polynomial, must be *rejected* by the checker —
//! the gate has teeth.

use cubemm_analyze::{
    captured_collective, certify_collective, collective_schedule, diff_schedules,
    expand_collective, Collective,
};
use cubemm_collectives::{CollKind, CollSchema};
use cubemm_simnet::PortModel;

/// Deterministic xorshift64* — no external PRNG crates, reproducible
/// failures (the seed is in the panic message via the drawn values).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

const PORTS: [PortModel; 2] = [PortModel::OnePort, PortModel::MultiPort];

/// Oracle 1: at random `d ∈ [1, 16]`, the symbolic expansion of every
/// reference schema is message-identical to the compiled plans. This is
/// the induction step made empirical — the expansion the proofs sum
/// over is exactly what the generators emit, including at machine sizes
/// (p = 65536) the enumerated grid never touches.
///
/// The upper end of the draw is budgeted per collective: plan
/// compilation materializes real payloads, which cost O(p·m) for the
/// unit-volume patterns but O(p²·m) for all-to-all — so each kind draws
/// from the largest range a debug-build test can afford, and the
/// cheapest patterns are the ones pushed to p = 65536.
#[test]
fn random_d_expansion_matches_compiled_plans() {
    let mut rng = Rng(0x5eed_0001);
    for coll in Collective::ALL {
        let kind = coll.kind();
        let schema = CollSchema::reference(kind);
        // (max d, max m) the plan compiler can materialize cheaply.
        let (dmax, mmax) = match kind {
            CollKind::Bcast | CollKind::Reduce => (16, 40),
            CollKind::Scatter | CollKind::Gather => (12, 16),
            CollKind::Allgather | CollKind::ReduceScatter => (10, 12),
            CollKind::Alltoall => (8, 8),
        };
        for port in PORTS {
            for _ in 0..3 {
                let d = rng.range(1, dmax) as u32;
                let m = rng.range(1, mmax) as usize;
                let expansion = expand_collective(&schema, port, d, m, 0, 0);
                let plans = collective_schedule(coll, port, d, m);
                diff_schedules(&expansion, &plans, false).unwrap_or_else(|e| {
                    panic!("{coll:?} {port:?} d={d} m={m}: expansion != plans: {e}")
                });
            }
        }
    }
}

/// Oracle 2: the expansion matches what a real traced machine run
/// actually sent, at random roots. Every `(kind, port)` pair draws one
/// small machine (d ∈ [1, 5]) and one large one (d ∈ [6, 8]).
#[test]
fn random_d_expansion_matches_traced_runs() {
    let mut rng = Rng(0x5eed_0002);
    for kind in CollKind::ALL {
        let schema = CollSchema::reference(kind);
        for port in PORTS {
            for (dmin, dmax) in [(1, 5), (6, 8)] {
                let d = rng.range(dmin, dmax) as u32;
                let m = rng.range(1, 16) as usize;
                let root = (rng.next() as usize) % (1usize << d);
                let expansion = expand_collective(&schema, port, d, m, 0, root);
                let traced = captured_collective(kind, port, d, m, root)
                    .unwrap_or_else(|e| panic!("{kind:?} {port:?} d={d}: {e}"));
                // Traces drop a node's idle rounds; expansions keep them.
                diff_schedules(&expansion, &traced, true).unwrap_or_else(|e| {
                    panic!(
                        "{kind:?} {port:?} d={d} m={m} root={root}: \
                         expansion != trace: {e}"
                    )
                });
            }
        }
    }
}

/// Negative control: skewing any schema's round count by one must fail
/// certification — and not via some incidental obligation, but via the
/// round-count identity and the differential harness both.
#[test]
fn every_schema_skewed_by_one_round_is_rejected() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            schema.rounds_skew += 1;
            let cert = certify_collective(&schema, port);
            assert!(
                !cert.ok(),
                "{kind:?} {port:?}: off-by-one rounds certified anyway"
            );
            let failed: Vec<&str> = cert
                .obligations
                .iter()
                .filter(|o| !o.ok)
                .map(|o| o.name)
                .collect();
            assert!(
                failed.contains(&"rounds"),
                "{kind:?} {port:?}: wrong rounds not caught by the rounds identity: {failed:?}"
            );
        }
    }
}

/// Negative control: replacing any schema's volume polynomial with a
/// constant must trip the symbolic Table 1 word-count identity (or,
/// where the constant accidentally matches per-round volume, the
/// differential diff against compiled plans).
#[test]
fn every_schema_with_wrong_volume_polynomial_is_rejected() {
    for kind in CollKind::ALL {
        for port in PORTS {
            let mut schema = CollSchema::reference(kind);
            // Doubling every round's packet count breaks the Table 1
            // word-volume identity for every collective (all have
            // non-zero b), whatever shape the true polynomial has.
            schema.vol.coef.0 *= 2;
            let cert = certify_collective(&schema, port);
            assert!(
                !cert.ok(),
                "{kind:?} {port:?}: wrong volume polynomial certified anyway"
            );
        }
    }
}
