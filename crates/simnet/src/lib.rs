//! A simulated hypercube multicomputer.
//!
//! The paper evaluates its algorithms under an abstract machine model — a
//! `p`-processor binary hypercube in which sending `m` words to a neighbor
//! costs `t_s + t_w·m`, with either *one-port* nodes (a node drives one
//! link at a time) or *multi-port* nodes (a node drives all `log p` links
//! simultaneously). No such machine exists today, so this crate builds one
//! in software:
//!
//! * every virtual processor executes the *actual* SPMD algorithm (real
//!   data moves, so correctness is checked end to end, not assumed) as a
//!   resumable async node program, run as suspended continuations on a
//!   virtual-clock-ordered work queue (one host thread simulates up to
//!   `p = 65536` nodes);
//! * each processor carries a **virtual clock**; communication primitives
//!   advance the clocks according to the paper's cost model, and the
//!   elapsed virtual time of a run is the maximum clock over all
//!   processors.
//!
//! # Cost semantics
//!
//! The model charges transfers to the **sender's port**:
//!
//! * [`Proc::send`] to a neighbor starts when the sender's port is free
//!   (its clock) and occupies it for `t_s + t_w·m`; the message *arrives*
//!   at the end of that interval.
//! * [`Proc::recv`] is passive: it advances the receiver's clock to the
//!   message arrival time if the message has not yet arrived (receives do
//!   not occupy the port; on real machines they are serviced by the
//!   channel DMA while the node drives its own outgoing transfer on the
//!   same full-duplex link).
//! * [`Proc::multi`] issues a *batch* of logically concurrent operations.
//!   Under [`PortModel::OnePort`] the sends serialize (sum of costs);
//!   under [`PortModel::MultiPort`] sends to distinct neighbors proceed in
//!   parallel (max of costs), with sends sharing a link serialized.
//! * [`Proc::send_routed`] models a point-to-point transfer to a
//!   non-neighbor over `h` hops (`h` = Hamming distance): one-port
//!   store-and-forward `h·(t_s + t_w·m)`, multi-port pipelined
//!   `h·t_s + t_w·m` — exactly how the paper prices such phases (the DNS
//!   and 3-D Diagonal first phases). Relay-port occupancy is not
//!   modelled, matching the paper's accounting.
//!
//! This reproduces every entry the paper derives: e.g. a one-port
//! recursive-doubling all-gather of `M`-word blocks over `N` nodes costs
//! `t_s·log N + t_w·(N−1)M`, and a one-port Cannon shift-multiply-add step
//! (send A right, send B down, receive both) costs `2(t_s + t_w·m)` —
//! see `cubemm-collectives` and the Table 1/Table 2 validation tests.
//!
//! # Determinism
//!
//! Clock arithmetic depends only on per-sender program order and matched
//! `(from, tag)` receives, never on OS scheduling, so a run's virtual time
//! is bit-for-bit reproducible across executions and across the order in
//! which the host resumes runnable nodes (property-tested).
//!
//! # Fault model
//!
//! A [`FaultPlan`] (see [`MachineOptions::faults`] and the [`faults`]
//! module) deterministically injects dead links, degraded links,
//! straggler nodes, and scheduled message drops. Sends over dead links
//! transparently re-route over a live Hamming detour — charging the
//! extra hops honestly — or fail with a typed [`SendError`] under a
//! strict plan. An empty plan changes no clock arithmetic: every healthy
//! result is bit-for-bit identical with the fault layer present.
//!
//! Failures surface as values through [`Machine::run`], which returns a
//! structured [`RunError`] — distinguishing configuration problems,
//! simulated deadlocks (naming *every* blocked node with the
//! `(from, tag)` it awaited), node panics, scheduled node crashes, and
//! link faults — instead of panicking. Plans can also schedule *silent
//! data corruption* (a bit-flip or perturbation of one word of the k-th
//! payload crossing a directed edge): delivery and timing stay healthy
//! and only the data is wrong, which is the failure mode the ABFT layer
//! in `cubemm-core` detects and corrects.
//!
//! # Execution
//!
//! Machines are built with [`Machine::builder`] and booted with
//! [`Machine::run`]; node programs are async functions over an owned
//! [`Proc`] (see the `machine` module docs for the resumable-step
//! contract). A single-threaded discrete-event executor resumes
//! suspended node continuations in virtual-clock order, so machine size
//! is not capped by host threads — `p = 4096–65536` sweeps run on one
//! core.
//!
//! Scheduling decisions come from a **progress ledger** (see `ledger.rs`
//! and DESIGN.md §11): per-node mailboxes indexed by `(from, tag)` and a
//! record of which nodes are parked in receives. A parked receive
//! becomes runnable *exactly* when its message is injected; the moment
//! every live node is parked the run is provably deadlocked and aborts
//! instantly — there is no host-time watchdog, and host scheduling can
//! never influence virtual clocks. When any node fails, the ledger
//! aborts the whole run promptly.

pub mod faults;
#[doc(hidden)]
pub mod json;
mod ledger;
mod machine;
mod proc;
mod stats;
pub mod trace;

pub use faults::{
    CorruptKind, Corruption, FaultEntry, FaultPlan, FaultPlanError, LinkQuality, RetryPolicy,
    SendError,
};
pub use machine::{Blocked, Engine, Machine, MachineBuilder, MachineOptions, RunError, RunOutcome};
pub use proc::{Op, Proc};
pub use stats::{FiredFault, FiredKind, NodeStats, RunStats};
pub use trace::{TraceEvent, TraceKind};

use std::sync::Arc;

/// Words a [`Payload`] stores inline, without touching the heap.
pub const PAYLOAD_INLINE_WORDS: usize = 8;

/// Message payload: an immutable word vector.
///
/// Two representations behind one read surface (`Deref<Target = [f64]>`):
/// messages of at most [`PAYLOAD_INLINE_WORDS`] words — the control- and
/// flit-sized traffic that dominates collective start-up rounds — are
/// stored inline in the envelope and never allocate; anything larger
/// rides a shared `Arc<[f64]>`, so a node forwarding the same block to
/// several children copies nothing. Construct through the `From` /
/// `FromIterator` impls (every send primitive takes `impl Into<Payload>`,
/// so slices, vectors, arrays, and `Arc<[f64]>` all work unchanged).
#[derive(Clone)]
pub struct Payload(PayloadRepr);

#[derive(Clone)]
enum PayloadRepr {
    /// At most [`PAYLOAD_INLINE_WORDS`] words, stored in the envelope.
    Inline {
        len: u8,
        words: [f64; PAYLOAD_INLINE_WORDS],
    },
    /// A shared immutable allocation.
    Shared(Arc<[f64]>),
}

impl Payload {
    /// Builds the inline representation; `slice` must fit.
    #[inline]
    fn inline(slice: &[f64]) -> Self {
        debug_assert!(slice.len() <= PAYLOAD_INLINE_WORDS);
        let mut words = [0.0; PAYLOAD_INLINE_WORDS];
        words[..slice.len()].copy_from_slice(slice);
        Payload(PayloadRepr::Inline {
            len: slice.len() as u8,
            words,
        })
    }

    /// Whether this payload is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.0, PayloadRepr::Inline { .. })
    }
}

impl std::ops::Deref for Payload {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.0 {
            PayloadRepr::Inline { len, words } => &words[..usize::from(*len)],
            PayloadRepr::Shared(data) => data,
        }
    }
}

impl AsRef<[f64]> for Payload {
    #[inline]
    fn as_ref(&self) -> &[f64] {
        self
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::inline(&[])
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl From<&[f64]> for Payload {
    fn from(slice: &[f64]) -> Self {
        if slice.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(slice)
        } else {
            Payload(PayloadRepr::Shared(Arc::from(slice)))
        }
    }
}

impl From<Vec<f64>> for Payload {
    fn from(vec: Vec<f64>) -> Self {
        if vec.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(&vec)
        } else {
            Payload(PayloadRepr::Shared(Arc::from(vec)))
        }
    }
}

impl From<Box<[f64]>> for Payload {
    fn from(boxed: Box<[f64]>) -> Self {
        if boxed.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(&boxed)
        } else {
            Payload(PayloadRepr::Shared(Arc::from(boxed)))
        }
    }
}

impl From<Arc<[f64]>> for Payload {
    fn from(shared: Arc<[f64]>) -> Self {
        // Copying ≤ 8 words out of the Arc keeps the envelope
        // allocation-free; the sharing it forgoes is cheaper than the
        // refcount traffic it avoids.
        if shared.len() <= PAYLOAD_INLINE_WORDS {
            Payload::inline(&shared)
        } else {
            Payload(PayloadRepr::Shared(shared))
        }
    }
}

impl<const N: usize> From<[f64; N]> for Payload {
    fn from(array: [f64; N]) -> Self {
        Payload::from(&array[..])
    }
}

impl FromIterator<f64> for Payload {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut words = [0.0; PAYLOAD_INLINE_WORDS];
        let mut len = 0usize;
        for w in it.by_ref() {
            if len == PAYLOAD_INLINE_WORDS {
                // Spill: finish collecting on the heap.
                let mut vec = Vec::with_capacity(PAYLOAD_INLINE_WORDS * 2);
                vec.extend_from_slice(&words);
                vec.push(w);
                vec.extend(it);
                return Payload(PayloadRepr::Shared(Arc::from(vec)));
            }
            words[len] = w;
            len += 1;
        }
        Payload(PayloadRepr::Inline {
            len: len as u8,
            words,
        })
    }
}

/// Message start-up and per-word transfer costs (`t_s`, `t_w` in the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Start-up cost per message hop.
    pub ts: f64,
    /// Transfer cost per word per hop.
    pub tw: f64,
}

impl CostParams {
    /// Cost of moving `words` words across one link.
    #[inline]
    pub fn hop(&self, words: usize) -> f64 {
        self.ts + self.tw * words as f64
    }

    /// The paper's headline setting (`t_s = 150`, `t_w = 3`).
    pub const PAPER: CostParams = CostParams { ts: 150.0, tw: 3.0 };

    /// Pure start-up accounting: elapsed time equals the number of message
    /// start-ups on the critical path (the `a` of Table 2).
    pub const STARTUPS_ONLY: CostParams = CostParams { ts: 1.0, tw: 0.0 };

    /// Pure bandwidth accounting: elapsed time equals the word volume on
    /// the critical path (the `b` of Table 2).
    pub const WORDS_ONLY: CostParams = CostParams { ts: 0.0, tw: 1.0 };
}

/// Which physical links the machine provides.
///
/// The default is the full hypercube. [`LinkTopology::Torus2d`]
/// restricts the machine to the links of a `q × q` torus embedded via
/// the Gray-code rings (each axis a Hamiltonian ring through its
/// dimension group): sends over any other hypercube edge panic. This is
/// the validation behind the paper's framing — Cannon's original
/// unit-shift form runs on the torus machine, while every
/// hypercube-specific algorithm (including Cannon's XOR-skew form)
/// needs edges a mesh does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LinkTopology {
    /// All `log p` hypercube links per node (the paper's machine).
    #[default]
    Hypercube,
    /// Only the four torus links per node of a `q × q` Gray-ring
    /// embedding (`q² = p`, axis 0 in the low bits).
    Torus2d {
        /// Bits per axis (`q = 2^bits`).
        axis_bits: u32,
    },
}

impl LinkTopology {
    /// Whether the edge between two hypercube-adjacent labels exists in
    /// this topology.
    pub fn allows(&self, a: usize, b: usize) -> bool {
        match *self {
            LinkTopology::Hypercube => true,
            LinkTopology::Torus2d { axis_bits } => {
                let diff = a ^ b;
                let axis_shift = (diff.trailing_zeros() / axis_bits) * axis_bits;
                let mask = ((1usize << axis_bits) - 1) << axis_shift;
                let ca = cubemm_topology::gray_inverse((a & mask) >> axis_shift);
                let cb = cubemm_topology::gray_inverse((b & mask) >> axis_shift);
                let q = 1usize << axis_bits;
                // Gray-ring neighbors: coordinates adjacent on the ring.
                (ca + 1) % q == cb || (cb + 1) % q == ca
            }
        }
    }
}

/// Which endpoints a transfer's `t_s + t_w·m` occupies.
///
/// The paper's accounting (reproduced by [`ChargePolicy::SenderOnly`])
/// charges the sender's port and treats receives as passive — consistent
/// with channel-DMA hardware and with every Table 1/2 entry (e.g. a
/// recursive-doubling exchange costs one unit per step, a Cannon
/// shift-multiply-add `2(t_s + t_w·m)`). [`ChargePolicy::Symmetric`]
/// additionally charges the receiver's port one `t_s + t_w·m` per
/// message (routed multi-hop messages charge the receiving endpoint for
/// its final hop only) — a strictly more conservative model used by the
/// model-sensitivity ablation to check that the paper's rankings do not
/// depend on the charging assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChargePolicy {
    /// Transfers occupy the sender's port only (the paper's model).
    #[default]
    SenderOnly,
    /// Transfers occupy both endpoints' ports.
    Symmetric,
}

/// Whether a node can drive one link at a time or all of them (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortModel {
    /// A node engages at most one communication link at a time.
    OnePort,
    /// A node can use all its `log p` links simultaneously.
    MultiPort,
}

impl std::fmt::Display for PortModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortModel::OnePort => write!(f, "one-port"),
            PortModel::MultiPort => write!(f, "multi-port"),
        }
    }
}

#[cfg(test)]
mod topology_tests {
    use super::LinkTopology;
    use cubemm_topology::gray;

    #[test]
    fn hypercube_allows_everything() {
        let t = LinkTopology::Hypercube;
        assert!(t.allows(0, 1));
        assert!(t.allows(0b1000, 0b0000));
    }

    #[test]
    fn torus_allows_exactly_the_ring_edges() {
        // q = 8 per axis (axis_bits = 3): along one axis, allowed edges
        // are exactly consecutive Gray codes.
        let t = LinkTopology::Torus2d { axis_bits: 3 };
        for r in 0..8usize {
            let a = gray(r);
            let b = gray((r + 1) % 8);
            assert!(t.allows(a, b), "ring edge {r}->{} must exist", (r + 1) % 8);
            assert!(t.allows(a << 3, b << 3), "second-axis ring edge");
        }
        // gray(0)=000 and gray(3)=010 differ in one bit but are ring
        // distance 3 apart: not a torus link.
        assert!(!t.allows(gray(0), 0b010));
    }
}
