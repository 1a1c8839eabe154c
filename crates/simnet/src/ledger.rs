//! The progress ledger: the state the work-queue executor schedules
//! from.
//!
//! One boot owns one ledger. The executor and every node's [`Proc`]
//! share it on the calling thread (`Rc`, interior `RefCell`), and it
//! tracks everything a scheduling decision needs, *exactly*:
//!
//! * **per-node mailboxes** — an indexed slab keyed by `(from, tag)`, so
//!   a receive is a direct map lookup instead of a queue scan;
//! * **parked receives** — which nodes are suspended, on which
//!   `(from, tag)`, and at which virtual clock;
//! * **liveness** — how many nodes are still executing their program.
//!
//! The bookkeeping buys two properties:
//!
//! 1. **Exact wakeups.** When a message is injected for a parked
//!    receiver waiting on precisely that `(from, tag)`, the ledger hands
//!    the envelope over and marks the receiver runnable at injection
//!    time. A parked node is never resumed by traffic it cannot consume.
//! 2. **Exact, instant deadlock detection.** A node only parks after
//!    checking its mailbox, and a matching injection eagerly unparks its
//!    target, so *"every parked node's awaited message is absent"* holds
//!    between any two ledger calls. The moment every live node is
//!    parked, no future injection is possible and the run is
//!    deadlocked — detected by whichever node parks last (or finishes
//!    last), with no host-time watchdog. Virtual clocks never see host
//!    time, so detection cannot leak into results.
//!
//! Aborts (node panic, typed link failure, scheduled crash, deadlock)
//! store the first failure and make every parked node runnable once, so
//! each records the `(from, tag)` it was blocked on for the post-mortem
//! report and unwinds.
//!
//! [`Proc`]: crate::Proc

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::task::Poll;

use crate::machine::{Blocked, Failure};
use crate::proc::Envelope;
use crate::stats::NodeStats;
use crate::trace::TraceEvent;

/// Per-node mailbox: FIFO queues indexed by `(from, tag)`. Sender
/// program order is preserved per key because injection appends.
type Mailbox = HashMap<(usize, u64), VecDeque<Envelope>>;

/// A node's final statistics and trace, deposited when its [`Proc`]
/// drops.
///
/// [`Proc`]: crate::Proc
pub(crate) type NodeParts = (NodeStats, Vec<TraceEvent>);

/// What [`Ledger::inject`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Queued in the destination mailbox (or handed straight to the
    /// destination if it was parked on exactly this `(from, tag)`).
    Delivered,
    /// The machine is aborting; the sender should unwind quietly.
    Aborting,
    /// The destination already finished its program — an SPMD protocol
    /// bug on a healthy machine.
    DestFinished,
}

/// A suspended receive.
#[derive(Debug, Clone, Copy)]
struct Park {
    from: usize,
    tag: u64,
    /// The node's virtual clock when it parked, as `f64::to_bits`
    /// (monotone for non-negative clocks): its work-queue key.
    clock: u64,
}

struct State {
    mailboxes: Vec<Mailbox>,
    /// Direct-handoff slot: a message injected while its receiver is
    /// parked on exactly that `(from, tag)` bypasses the mailbox and is
    /// taken from here when the receiver resumes. Single-slot by
    /// construction: filling it unparks the receiver, so a second
    /// matching inject goes to the mailbox, and the receiver drains the
    /// slot before parking again.
    handoff: Vec<Option<Envelope>>,
    parked: Vec<Option<Park>>,
    /// Whether each node has finished (returned or unwound).
    done: Vec<bool>,
    /// Nodes still executing their program.
    live: usize,
    /// Nodes currently parked in a receive.
    parked_count: usize,
    aborting: bool,
    /// First failure wins; later ones are cascading victims.
    failure: Option<Failure>,
    /// Parked receives recorded as nodes unwind, for the deadlock report.
    blocked: Vec<Blocked>,
    /// Nodes made runnable (by a handoff or an abort) since the executor
    /// last drained the list, as `(clock bits, node)`.
    runnable: Vec<(u64, usize)>,
    /// Per-node final parts, filled as each `Proc` drops.
    parts: Vec<Option<NodeParts>>,
}

/// The shared scheduler state of one boot (see module docs).
pub(crate) struct Ledger {
    state: RefCell<State>,
}

/// What a finished boot left in its ledger.
pub(crate) struct Outcome {
    /// The first failure, if the run failed.
    pub(crate) failure: Option<Failure>,
    /// Blocked receives recorded during the abort, sorted by node label.
    pub(crate) blocked: Vec<Blocked>,
    /// Per-node parts, indexed by node label.
    pub(crate) parts: Vec<Option<NodeParts>>,
}

impl Ledger {
    pub(crate) fn new(p: usize) -> Self {
        Ledger {
            state: RefCell::new(State {
                mailboxes: (0..p).map(|_| HashMap::new()).collect(),
                handoff: (0..p).map(|_| None).collect(),
                parked: vec![None; p],
                done: vec![false; p],
                live: p,
                parked_count: 0,
                aborting: false,
                failure: None,
                blocked: Vec::new(),
                runnable: Vec::new(),
                parts: (0..p).map(|_| None).collect(),
            }),
        }
    }

    /// Queues `env` for `to`, handing it over directly (and making `to`
    /// runnable) iff `to` is parked on exactly `(env.from, env.tag)`.
    pub(crate) fn inject(&self, to: usize, env: Envelope) -> Delivery {
        let s = &mut *self.state.borrow_mut();
        if s.done[to] {
            return if s.aborting {
                Delivery::Aborting
            } else {
                Delivery::DestFinished
            };
        }
        if let Some(park) = s.parked[to] {
            if (park.from, park.tag) == (env.from, env.tag) {
                // Exact wakeup: the receiver is logically runnable from
                // this instant, and the deadlock predicate must see it
                // that way before the executor resumes it.
                debug_assert!(s.handoff[to].is_none());
                s.handoff[to] = Some(env);
                s.parked[to] = None;
                s.parked_count -= 1;
                s.runnable.push((park.clock, to));
                return Delivery::Delivered;
            }
        }
        s.mailboxes[to]
            .entry((env.from, env.tag))
            .or_default()
            .push_back(env);
        Delivery::Delivered
    }

    /// One pass of the check-then-park receive protocol for node `id`
    /// at virtual time `clock`. `Ready(Ok)` hands over the matching
    /// envelope; `Pending` means the node parked (the executor resumes
    /// it once a handoff or an abort makes it runnable); `Ready(Err(()))`
    /// means the machine aborted (the blocked receive has been recorded)
    /// and the caller must unwind quietly.
    pub(crate) fn poll_receive(
        &self,
        id: usize,
        from: usize,
        tag: u64,
        clock: f64,
    ) -> Poll<Result<Envelope, ()>> {
        use std::collections::hash_map::Entry;
        let s = &mut *self.state.borrow_mut();
        loop {
            if s.aborting {
                s.blocked.push(Blocked {
                    node: id,
                    from,
                    tag,
                });
                return Poll::Ready(Err(()));
            }
            if let Some(env) = s.handoff[id].take() {
                debug_assert!(env.from == from && env.tag == tag);
                return Poll::Ready(Ok(env));
            }
            if let Entry::Occupied(mut entry) = s.mailboxes[id].entry((from, tag)) {
                if let Some(env) = entry.get_mut().pop_front() {
                    if entry.get().is_empty() {
                        // Keep the slab from accumulating dead keys when
                        // programs tag each round uniquely.
                        entry.remove();
                    }
                    return Poll::Ready(Ok(env));
                }
            }
            if s.parked[id].is_none() {
                s.parked[id] = Some(Park {
                    from,
                    tag,
                    clock: clock.to_bits(),
                });
                s.parked_count += 1;
                if s.parked_count == s.live {
                    // Every live node is parked and no matching message
                    // exists (a matching inject would have unparked its
                    // target): the run can never progress again.
                    declare_deadlock(s);
                    continue; // loop top records this node and errors out
                }
            }
            return Poll::Pending;
        }
    }

    /// Moves the nodes made runnable since the last call into `out`
    /// (cleared first) as `(clock bits, node)` work-queue entries.
    pub(crate) fn drain_runnable(&self, out: &mut Vec<(u64, usize)>) {
        out.clear();
        std::mem::swap(&mut self.state.borrow_mut().runnable, out);
    }

    /// Whether `id` is parked in a receive (executor sanity check: a
    /// `Pending` poll from a node that is not parked means the program
    /// awaited something that is not a simnet primitive).
    pub(crate) fn is_parked(&self, id: usize) -> bool {
        self.state.borrow().parked[id].is_some()
    }

    /// Marks a node finished (normal return or unwind), releasing any
    /// parked slot it held and re-checking the deadlock predicate: if
    /// the nodes that remain are all parked, nobody can feed them.
    pub(crate) fn finish(&self, id: usize) {
        let s = &mut *self.state.borrow_mut();
        if s.parked[id].take().is_some() {
            s.parked_count -= 1;
        }
        if !s.done[id] {
            s.done[id] = true;
            s.live -= 1;
        }
        if !s.aborting && s.live > 0 && s.parked_count == s.live {
            declare_deadlock(s);
        }
    }

    /// Records a failure (keeping the first) and aborts the run.
    pub(crate) fn trigger(&self, failure: Failure) {
        let s = &mut *self.state.borrow_mut();
        s.failure.get_or_insert(failure);
        abort(s);
    }

    /// Stores node `id`'s final statistics and trace. Called from
    /// `Proc::drop`, so it must not panic: no ledger borrow is live when
    /// a node future drops (unwinding releases them first), and if one
    /// were, the parts are dropped and the run fails on the missing
    /// parts instead of aborting the process.
    pub(crate) fn deposit(&self, id: usize, parts: NodeParts) {
        if let Ok(mut s) = self.state.try_borrow_mut() {
            s.parts[id] = Some(parts);
        }
    }

    /// Takes the run outcome once every node has finished.
    pub(crate) fn take_outcome(&self) -> Outcome {
        let s = &mut *self.state.borrow_mut();
        let mut blocked = std::mem::take(&mut s.blocked);
        blocked.sort_by_key(|b| b.node);
        Outcome {
            failure: s.failure.take(),
            blocked,
            parts: std::mem::take(&mut s.parts),
        }
    }
}

fn declare_deadlock(s: &mut State) {
    debug_assert!(
        s.parked
            .iter()
            .enumerate()
            .filter_map(|(id, park)| park.map(|k| (id, (k.from, k.tag))))
            .all(|(id, key)| s.mailboxes[id].get(&key).is_none_or(VecDeque::is_empty)),
        "deadlock declared while a parked node's message was deliverable"
    );
    s.failure.get_or_insert(Failure::Deadlock);
    abort(s);
}

/// Enters the aborting state once, making every parked node runnable so
/// it records its blocked receive and unwinds.
fn abort(s: &mut State) {
    if s.aborting {
        return;
    }
    s.aborting = true;
    for (id, park) in s.parked.iter().enumerate() {
        if let Some(park) = park {
            s.runnable.push((park.clock, id));
        }
    }
}
