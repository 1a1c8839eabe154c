//! Collective communication on sub-hypercubes of the simulated machine.
//!
//! The paper prices every algorithm in terms of the optimal hypercube
//! collectives of Johnsson & Ho \[7\] (its Table 1):
//!
//! | pattern | one-port `t_w` | multi-port `t_w` |
//! |---|---|---|
//! | one-to-all broadcast | `M log N` | `M` |
//! | one-to-all personalized (scatter) | `(N−1)M` | `(N−1)M / log N` |
//! | all-to-all broadcast (all-gather) | `(N−1)M` | `(N−1)M / log N` |
//! | all-to-all personalized | `N·M·log N / 2` | `N·M / 2` |
//!
//! (each with `t_s·log N` start-ups; reductions are the communication
//! inverses of the corresponding broadcasts).
//!
//! This crate implements those schedules *as real message-passing
//! programs* over [`cubemm_simnet::Proc`]:
//!
//! * **one-port**: spanning-binomial-tree (SBT) broadcast/scatter/reduce,
//!   recursive-doubling all-gather / recursive-halving reduce-scatter, and
//!   the classic `log N`-step dimension-exchange all-to-all personalized.
//! * **multi-port**: the message is split into `log N` slices and the
//!   one-port schedule is replicated over `log N` *rotated* dimension
//!   orders; at every round the copies use pairwise-distinct dimensions,
//!   so a node drives all its links at once, recovering the
//!   full-bandwidth bounds above. (Zero-length slice messages are still
//!   sent so the round structure is uniform; they cost only their `t_s`,
//!   which is absorbed into the round's concurrent batch.)
//!
//! The Table 1 entries are *measured* from these implementations by the
//! `table1` integration tests and the `cubemm-bench` harness rather than
//! assumed.
//!
//! # Calling conventions
//!
//! Every member of the subcube must call the collective with the same
//! `base` tag and consistent arguments. Callers must space base tags of
//! distinct collective invocations by at least [`TAG_SPACE`].
//!
//! ```
//! use cubemm_collectives::bcast;
//! use cubemm_simnet::{CostParams, Machine, Payload};
//! use cubemm_topology::Subcube;
//!
//! // Broadcast 6 words from rank 0 over a whole 8-node hypercube.
//! let cost = CostParams { ts: 1.0, tw: 1.0 };
//! let machine = Machine::builder(8).cost(cost).build().unwrap();
//! let out = machine
//!     .run(vec![(); 8], |mut proc, ()| async move {
//!         let sc = Subcube::whole(proc.dim());
//!         let data = (sc.rank_of(proc.id()) == 0)
//!             .then(|| (0..6).map(f64::from).collect::<Payload>());
//!         let got = bcast(&mut proc, &sc, 0, 0, data, 6).await;
//!         assert_eq!(got.len(), 6);
//!     })
//!     .unwrap();
//! // Table 1, one-port: log N · (t_s + t_w · M) = 3 · 7.
//! assert_eq!(out.stats.elapsed, 21.0);
//! ```

mod allgather;
mod allreduce;
mod alltoall;
mod bcast;
mod ft;
mod gather;
pub mod plan;
mod reduce;
mod scatter;
pub mod schema;

pub use allgather::{
    allgather, allgather_plan, reduce_scatter, reduce_scatter_plan, AllgatherRun, ReduceScatterRun,
};
pub use allreduce::{allreduce_is_bandwidth_optimal, allreduce_sum};
pub use alltoall::{alltoall_personalized, alltoall_plan, AlltoallRun};
pub use bcast::{bcast, bcast_plan, BcastRun};
pub use ft::{allgather_ft, bcast_ft, execute_ft};
pub use gather::{gather, gather_plan, GatherRun};
pub use plan::{
    execute, execute_fused, CollectiveRun, PacketError, PacketStore, Plan, RecvMode, Xfer,
};
pub use reduce::{reduce_plan, reduce_sum, reduce_sum_checked, ChecksumMismatch, ReduceRun};
pub use scatter::{scatter, scatter_plan, ScatterRun};
pub use schema::{CollKind, CollSchema, RoundSpec, VolSchema, WireSpec};

use cubemm_simnet::Payload;

/// Minimum spacing between the `base` tags of two collective calls whose
/// messages could be in flight concurrently.
pub const TAG_SPACE: u64 = 1 << 12;

/// Tag for round `r` of copy (rotated schedule) `c`.
#[inline]
pub(crate) fn round_tag(base: u64, r: u32, c: u32) -> u64 {
    debug_assert!(r < 64 && c < 64);
    base + u64::from(r) * 64 + u64::from(c)
}

/// Splits `data` into `parts` near-equal contiguous word chunks; chunk
/// `c` covers `[c·len/parts, (c+1)·len/parts)`.
pub(crate) fn chunk(data: &[f64], parts: usize, c: usize) -> Payload {
    let (lo, hi) = chunk_bounds(data.len(), parts, c);
    Payload::from(&data[lo..hi])
}

/// The bounds of chunk `c` of a `len`-word message split `parts` ways.
#[inline]
pub(crate) fn chunk_bounds(len: usize, parts: usize, c: usize) -> (usize, usize) {
    (c * len / parts, (c + 1) * len / parts)
}

/// Reassembles chunks produced by [`chunk`].
pub(crate) fn unchunk(total_len: usize, parts: &[Payload]) -> Payload {
    let mut out = Vec::with_capacity(total_len);
    for p in parts {
        out.extend_from_slice(p);
    }
    debug_assert_eq!(out.len(), total_len);
    Payload::from(out.into_boxed_slice())
}

/// Concatenates whole payloads into one message.
#[allow(dead_code)] // used by unit tests and kept for schedule builders
pub(crate) fn concat(parts: impl IntoIterator<Item = Payload>) -> Payload {
    let mut out: Vec<f64> = Vec::new();
    for p in parts {
        out.extend_from_slice(&p);
    }
    Payload::from(out.into_boxed_slice())
}

/// Splits a received bundle into `count` equal-length payloads.
#[allow(dead_code)] // used by unit tests and kept for schedule builders
pub(crate) fn split_equal(bundle: &[f64], count: usize) -> Vec<Payload> {
    if count == 0 {
        return Vec::new();
    }
    assert_eq!(bundle.len() % count, 0, "bundle not equally divisible");
    let each = bundle.len() / count;
    (0..count)
        .map(|i| Payload::from(&bundle[i * each..(i + 1) * each]))
        .collect()
}

/// Element-wise sum of two equal-length payloads.
pub(crate) fn add_payloads(a: &[f64], b: &[f64]) -> Payload {
    assert_eq!(a.len(), b.len(), "reduction operand length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared machinery for the per-module collective tests: boots a
    //! healthy machine with the standard test cost model.
    use cubemm_simnet::{CostParams, Machine, PortModel, Proc, RunOutcome};

    pub(crate) const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

    pub(crate) fn run<I, O, F, Fut>(
        p: usize,
        port: PortModel,
        inits: Vec<I>,
        program: F,
    ) -> RunOutcome<O>
    where
        F: Fn(Proc, I) -> Fut,
        Fut: std::future::Future<Output = O>,
    {
        Machine::builder(p)
            .port(port)
            .cost(COST)
            .build()
            .expect("valid test machine")
            .run(inits, program)
            .expect("healthy run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        let data: Vec<f64> = (0..13).map(|x| x as f64).collect();
        for parts in 1..6 {
            let pieces: Vec<Payload> = (0..parts).map(|c| chunk(&data, parts, c)).collect();
            let total: usize = pieces.iter().map(|p| p.len()).sum();
            assert_eq!(total, 13);
            let back = unchunk(13, &pieces);
            assert_eq!(&back[..], &data[..]);
        }
    }

    #[test]
    fn chunk_handles_fewer_words_than_parts() {
        let data = [1.0, 2.0];
        let pieces: Vec<Payload> = (0..5).map(|c| chunk(&data, 5, c)).collect();
        assert_eq!(pieces.iter().map(|p| p.len()).sum::<usize>(), 2);
        assert!(pieces.iter().any(|p| p.is_empty()));
    }

    #[test]
    fn split_equal_roundtrip() {
        let a: Payload = Payload::from(vec![1.0, 2.0].into_boxed_slice());
        let b: Payload = Payload::from(vec![3.0, 4.0].into_boxed_slice());
        let bundle = concat([a.clone(), b.clone()]);
        let back = split_equal(&bundle, 2);
        assert_eq!(&back[0][..], &a[..]);
        assert_eq!(&back[1][..], &b[..]);
    }

    #[test]
    fn add_payloads_sums() {
        let s = add_payloads(&[1.0, 2.0], &[10.0, 20.0]);
        assert_eq!(&s[..], &[11.0, 22.0]);
    }
}
