//! Integration tests for the fault-injection subsystem: structured run
//! outcomes, the ledger's abort broadcast, fault-tolerant routing, and
//! the determinism of degraded runs.

use std::time::{Duration, Instant};

use cubemm_simnet::{
    Blocked, CorruptKind, Corruption, CostParams, FaultPlan, Machine, PortModel, Proc, RetryPolicy,
    RunError, SendError,
};

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

#[allow(
    clippy::expect_used,
    reason = "fixed, valid test machines; a failure is a test bug"
)]
fn machine(p: usize, port: PortModel, faults: FaultPlan) -> Machine {
    Machine::builder(p)
        .port(port)
        .cost(COST)
        .faults(faults)
        .build()
        .expect("valid test machine")
}

/// A poisoned run must be released by the ledger's abort broadcast: a
/// node panic unblocks every sibling receive almost immediately.
#[test]
fn node_panic_releases_blocked_siblings_immediately() {
    let started = Instant::now();
    let err = machine(8, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 8], |mut proc, ()| async move {
            if proc.id() == 3 {
                panic!("injected failure");
            }
            // Everyone else waits for a message node 3 will never send.
            let _ = proc.recv(3, 1).await;
        })
        .expect_err("the poisoned run must fail");
    let wall = started.elapsed();
    match err {
        RunError::NodePanicked { node, message } => {
            assert_eq!(node, 3);
            assert!(message.contains("injected failure"), "message: {message}");
        }
        other => panic!("expected NodePanicked, got {other:?}"),
    }
    assert!(
        wall < Duration::from_secs(10),
        "abort took {wall:?}; siblings were not released by the ledger's \
         abort broadcast"
    );
}

/// A tag-mismatch deadlock reports every blocked node with the exact
/// `(from, tag)` it was waiting on — detected by the ledger the moment
/// the last node parks, in well under a second of host time.
#[test]
fn deadlock_report_names_all_blocked_nodes_with_their_awaited_receives() {
    let started = Instant::now();
    let err = machine(4, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 4], |mut proc, ()| async move {
            // A cycle of receives nobody ever feeds: node i waits on its
            // successor with a tag unique to i.
            let from = (proc.id() + 1) % 4;
            let _ = proc.recv(from, 40 + proc.id() as u64).await;
        })
        .expect_err("the cycle must deadlock");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "exact deadlock detection took {:?}",
        started.elapsed()
    );
    match &err {
        RunError::Deadlock { blocked } => {
            let want: Vec<Blocked> = (0..4)
                .map(|node| Blocked {
                    node,
                    from: (node + 1) % 4,
                    tag: 40 + node as u64,
                })
                .collect();
            assert_eq!(*blocked, want, "every blocked receive must be reported");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
    // The rendered report names each node and its awaited (from, tag).
    let text = err.to_string();
    for node in 0..4 {
        assert!(
            text.contains(&format!("node {node} blocked on (from={}", (node + 1) % 4)),
            "report missing node {node}: {text}"
        );
    }
}

/// A dead link re-routes transparently (lenient plans): the run completes
/// with the same data at a strictly higher virtual time — exactly the
/// 3-hop bipartite detour.
#[test]
fn dead_link_rerouting_completes_with_strictly_higher_elapsed() {
    let m = 4;
    let program = move |mut proc: Proc, ()| async move {
        if proc.id() == 0 {
            proc.send(1, 9, (0..m).map(f64::from).collect::<Vec<_>>());
            0.0
        } else if proc.id() == 1 {
            let got = proc.recv(0, 9).await;
            assert_eq!(&got[..], &[0.0, 1.0, 2.0, 3.0]);
            proc.clock()
        } else {
            0.0
        }
    };
    let healthy = machine(4, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(healthy.stats.elapsed, 18.0); // ts + tw·m

    let plan = FaultPlan::new().with_dead_link(0, 1);
    let faulty = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .unwrap();
    // Store-and-forward over the 3-hop detour: 3 (ts + tw·m).
    assert_eq!(faulty.stats.elapsed, 54.0);
    assert!(faulty.stats.elapsed > healthy.stats.elapsed);
    assert_eq!(faulty.stats.total_detour_hops(), 2);

    // Multi-port pipelines the detour: 3·ts + tw·m.
    let mp = machine(4, PortModel::MultiPort, plan)
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(mp.stats.elapsed, 38.0);
}

/// Under a strict plan the same dead link is a typed failure instead.
/// A dead link and a straggler compose: the straggling sender pays its
/// slowdown on the whole 3-hop detour.
#[test]
fn dead_link_detour_from_a_straggler_pays_both_faults() {
    let plan = FaultPlan::new().with_dead_link(0, 1).with_straggler(0, 2.0);
    let out = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc: Proc, ()| async move {
            match proc.id() {
                0 => proc.send(1, 9, [0.0, 1.0, 2.0, 3.0]),
                1 => {
                    let got = proc.recv(0, 9).await;
                    assert_eq!(&got[..], &[0.0, 1.0, 2.0, 3.0]);
                }
                _ => {}
            }
            proc.clock()
        })
        .unwrap();
    // 2 × store-and-forward over 3 hops: 2 · 3 (ts + tw·4).
    assert_eq!(out.outputs[0], 108.0);
    assert_eq!(out.outputs[1], 108.0);
    assert_eq!(out.stats.total_detour_hops(), 2);
}

/// A scheduled drop on a program without retries deadlocks, and the
/// report names exactly the receives the lost message left hanging;
/// nodes the drop never touched finish normally.
#[test]
fn unretried_drop_deadlocks_with_the_exact_blocked_receives() {
    let err = machine(4, PortModel::OnePort, FaultPlan::new().with_drop(0, 1, 0))
        .run(vec![(); 4], |mut proc: Proc, ()| async move {
            match proc.id() {
                // The first send is dropped in flight; the reply it
                // would have triggered never comes.
                0 => {
                    proc.send(1, 1, [1.0]);
                    let _ = proc.recv(1, 2).await;
                }
                1 => {
                    let got = proc.recv(0, 1).await;
                    proc.send(0, 2, got);
                }
                _ => {
                    let partner = proc.id() ^ 1;
                    let _ = proc.exchange(partner, 3, [2.0]).await;
                }
            }
        })
        .expect_err("the lost message must deadlock the run");
    assert_eq!(
        err,
        RunError::Deadlock {
            blocked: vec![
                Blocked {
                    node: 0,
                    from: 1,
                    tag: 2
                },
                Blocked {
                    node: 1,
                    from: 0,
                    tag: 1
                },
            ]
        }
    );
}

#[test]
fn strict_plan_turns_the_dead_link_into_a_structured_error() {
    let plan = FaultPlan::new().with_dead_link(0, 1).strict();
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [1.0]);
            } else if proc.id() == 1 {
                let _ = proc.recv(0, 9).await;
            }
        })
        .expect_err("strict dead link must abort");
    assert_eq!(
        err,
        RunError::LinkDead {
            node: 0,
            error: SendError::LinkDead { from: 0, to: 1 },
        }
    );
}

/// A node cut off by dead links is unroutable: the run fails cleanly
/// with the typed error rather than hanging or panicking.
#[test]
fn cut_off_destination_is_reported_unroutable() {
    let plan = (0..2u32).fold(FaultPlan::new(), |plan, d| {
        plan.with_dead_link(1, 1 ^ (1 << d))
    });
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [1.0]);
            } else if proc.id() == 1 {
                let _ = proc.recv(0, 9).await;
            }
        })
        .expect_err("cut-off node must be unroutable");
    assert_eq!(
        err,
        RunError::LinkDead {
            node: 0,
            error: SendError::Unroutable { from: 0, to: 1 },
        }
    );
}

/// The drop schedule loses exactly the k-th injection;
/// `send_with_retry` recovers, charging the virtual-time backoff.
#[test]
fn scheduled_drop_is_recovered_by_retry_with_backoff() {
    let plan = FaultPlan::new().with_drop(0, 1, 0);
    let out = machine(2, PortModel::OnePort, plan)
        .run(vec![(); 2], |mut proc, ()| async move {
            if proc.id() == 0 {
                let attempts = proc
                    .send_with_retry(1, 9, [5.0, 6.0], RetryPolicy::default())
                    .expect("second attempt is delivered");
                assert_eq!(attempts, 2);
                proc.clock()
            } else {
                let got = proc.recv(0, 9).await;
                assert_eq!(&got[..], &[5.0, 6.0]);
                proc.clock()
            }
        })
        .unwrap();
    // Two charged transmissions (ts + 2·tw each) plus the 1.0 backoff.
    assert_eq!(out.outputs[0], 29.0);
    assert_eq!(out.stats.total_retries(), 1);
    assert_eq!(out.stats.total_dropped(), 1);
}

/// When every attempt is dropped the sender gets a typed exhaustion
/// error it can surface as a value — the machine itself still completes.
#[test]
fn exhausted_retries_surface_as_a_value_not_an_abort() {
    let plan = (0..4u64).fold(FaultPlan::new(), |plan, k| plan.with_drop(0, 1, k));
    let out = machine(2, PortModel::OnePort, plan)
        .run(vec![(); 2], |mut proc, ()| async move {
            if proc.id() == 0 {
                Some(proc.send_with_retry(1, 9, [1.0], RetryPolicy::default()))
            } else {
                None // the receiver never posts a receive
            }
        })
        .unwrap();
    assert_eq!(
        out.outputs[0],
        Some(Err(SendError::RetriesExhausted {
            from: 0,
            to: 1,
            attempts: 4,
        }))
    );
    assert_eq!(out.stats.total_dropped(), 4);
}

/// The retry-time cap binds before the attempt cap: a policy with a huge
/// attempt budget against a permanently lossy link stops as soon as the
/// next exponential backoff would exceed `max_total_backoff`, instead of
/// burning virtual time without bound.
#[test]
fn retry_total_backoff_cap_bounds_virtual_time() {
    // Drop everything 0 sends toward 1, forever.
    let plan = (0..64u64).fold(FaultPlan::new(), |plan, k| plan.with_drop(0, 1, k));
    let policy = RetryPolicy {
        max_attempts: 64,
        backoff: 1.0,
        backoff_factor: 2.0,
        max_total_backoff: 100.0,
    };
    let out = machine(2, PortModel::OnePort, plan)
        .run(vec![(); 2], move |mut proc, ()| async move {
            if proc.id() == 0 {
                Some((proc.send_with_retry(1, 9, [1.0], policy), proc.clock()))
            } else {
                None
            }
        })
        .unwrap();
    let (result, clock) = out.outputs[0].expect("sender output");
    // Backoffs 1 + 2 + 4 + 8 + 16 + 32 = 63 fit the cap; the next (64)
    // would not, so the call stops after its 7th transmission.
    assert_eq!(
        result,
        Err(SendError::RetriesExhausted {
            from: 0,
            to: 1,
            attempts: 7
        })
    );
    // 7 charged transmissions (ts + tw = 12 each) plus 63 of backoff.
    assert_eq!(clock, 7.0 * 12.0 + 63.0);
    assert_eq!(out.stats.total_retries(), 6);
}

/// A scheduled corruption mangles exactly the k-th payload crossing the
/// directed edge — delivery, timing, and every other message untouched.
#[test]
fn scheduled_corruption_mangles_exactly_the_targeted_payload() {
    let plan = FaultPlan::new().with_corruption(
        0,
        1,
        1,
        Corruption {
            word: 2,
            kind: CorruptKind::Perturb { delta: 100.0 },
        },
    );
    let faulty = machine(2, PortModel::OnePort, plan)
        .run(vec![(); 2], |mut proc: Proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 7, [1.0, 2.0, 3.0]);
                proc.send(1, 8, [4.0, 5.0, 6.0]);
                proc.clock()
            } else if proc.id() == 1 {
                let first = proc.recv(0, 7).await;
                let second = proc.recv(0, 8).await;
                assert_eq!(&first[..], &[1.0, 2.0, 3.0], "crossing 0 is clean");
                assert_eq!(
                    &second[..],
                    &[4.0, 5.0, 106.0],
                    "crossing 1, word 2 carries the delta"
                );
                proc.clock()
            } else {
                0.0
            }
        })
        .unwrap();
    assert_eq!(faulty.stats.total_corrupted(), 1);
    // Timing is identical to the healthy run: corruption is silent.
    let healthy = machine(2, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 2], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 7, [1.0, 2.0, 3.0]);
                proc.send(1, 8, [4.0, 5.0, 6.0]);
            } else {
                let _ = proc.recv(0, 7).await;
                let _ = proc.recv(0, 8).await;
            }
            proc.clock()
        })
        .unwrap();
    assert_eq!(
        faulty.stats.elapsed.to_bits(),
        healthy.stats.elapsed.to_bits()
    );
}

/// Corruption keyed to a detour edge fires when routing pushes traffic
/// across it — the crossing counters follow the actual path, not the
/// logical destination.
#[test]
fn corruption_follows_the_routed_path() {
    // Kill 0<->1 so 0 -> 1 detours; corrupt the first crossing of the
    // detour's first edge 0 -> 2 (dimension order tries bit 1 next).
    let plan = FaultPlan::new().with_dead_link(0, 1).with_corruption(
        0,
        2,
        0,
        Corruption {
            word: 0,
            kind: CorruptKind::BitFlip { bit: 63 },
        },
    );
    let out = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            if proc.id() == 0 {
                proc.send(1, 9, [8.0]);
            } else if proc.id() == 1 {
                let got = proc.recv(0, 9).await;
                assert_eq!(&got[..], &[-8.0], "sign flipped on the detour edge");
            }
        })
        .unwrap();
    assert_eq!(out.stats.total_corrupted(), 1);
}

/// A scheduled crash kills the rank as it begins the given communication
/// call and surfaces as a structured `NodeCrashed`, releasing every
/// blocked sibling through the abort broadcast.
#[test]
fn scheduled_crash_surfaces_as_node_crashed() {
    let plan = FaultPlan::new().with_crash(2, 1);
    let err = machine(4, PortModel::OnePort, plan)
        .run(vec![(); 4], |mut proc, ()| async move {
            // Ring: everyone sends right, receives from the left. Node 2
            // dies beginning its second call (the receive).
            let right = (proc.id() + 1) % 4;
            let left = (proc.id() + 3) % 4;
            proc.send_routed(right, 9, [proc.id() as f64]);
            let _ = proc.recv(left, 9).await;
        })
        .expect_err("the crash must abort the run");
    assert_eq!(err, RunError::NodeCrashed { node: 2, step: 1 });
    assert_eq!(
        err.to_string(),
        "node 2 crashed at communication step 1 (scheduled fault)"
    );
}

/// Corrupted runs obey the determinism contract: the same plan twice
/// gives bitwise-identical outputs, and clearing the crash entry
/// ("rebooting") lets the same program complete.
#[test]
fn corruption_and_crash_plans_are_deterministic_and_reboot_clears_crashes() {
    let plan = FaultPlan::new()
        .with_corruption(
            0,
            1,
            0,
            Corruption {
                word: 1,
                kind: CorruptKind::Perturb { delta: -3.5 },
            },
        )
        .with_crash(3, 0);
    let program = |mut proc: Proc, ()| async move {
        // Everyone communicates, so the crash (which fires at the start
        // of a communication call) has a step to fire on at node 3.
        let partner = proc.id() ^ 1;
        proc.send(partner, 9, [proc.id() as f64, 2.0]);
        let got = proc.recv(partner, 9).await;
        got[1]
    };
    let a = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .expect_err("node 3 crashes immediately");
    let b = machine(4, PortModel::OnePort, plan.clone())
        .run(vec![(); 4], program)
        .expect_err("deterministically");
    assert_eq!(a, b);
    assert_eq!(a, RunError::NodeCrashed { node: 3, step: 0 });
    // Reboot node 3: the corruption still fires, but the run completes.
    let rebooted = machine(4, PortModel::OnePort, plan.without_crash(3))
        .run(vec![(); 4], program)
        .unwrap();
    assert_eq!(rebooted.outputs[1], -1.5);
    assert_eq!(rebooted.stats.total_corrupted(), 1);
}

/// Stragglers and degraded links price exactly as configured.
#[test]
fn stragglers_and_degraded_links_scale_costs_exactly() {
    let program = |mut proc: Proc, ()| async move {
        if proc.id() == 0 {
            proc.send(1, 9, [1.0, 2.0, 3.0, 4.0]);
        } else {
            let _ = proc.recv(0, 9).await;
        }
        proc.clock()
    };
    // Healthy: ts + tw·4 = 18.
    let healthy = machine(2, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(healthy.stats.elapsed, 18.0);
    // A 2x straggler sender doubles it.
    let slow = FaultPlan::new().with_straggler(0, 2.0);
    let out = machine(2, PortModel::OnePort, slow)
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(out.stats.elapsed, 36.0);
    // Degradation multiplies the per-edge terms: 2·ts + 3·tw·4 = 44.
    let degraded = FaultPlan::new().with_degraded_link(0, 1, 2.0, 3.0);
    let out = machine(2, PortModel::OnePort, degraded)
        .run(vec![(); 2], program)
        .unwrap();
    assert_eq!(out.stats.elapsed, 44.0);
}

/// An empty fault plan is bit-for-bit identical to the fault-free
/// machine, including routed sends and batched exchanges.
#[test]
fn empty_plan_is_bit_identical_to_the_fault_free_machine() {
    let program = |mut proc: Proc, ()| async move {
        let partner = proc.id() ^ 1;
        let got = proc.exchange(partner, 5, vec![proc.id() as f64; 3]).await;
        assert_eq!(&got[..], &[partner as f64; 3]);
        // A 2-hop routed send with a disjoint tag pattern.
        let far = proc.id() ^ 0b11;
        proc.send_routed(far, 6, [proc.clock()]);
        let _ = proc.recv(far, 6).await;
        proc.clock()
    };
    let fault_free = Machine::builder(8)
        .port(PortModel::OnePort)
        .cost(COST)
        .build()
        .expect("valid machine")
        .run(vec![(); 8], program)
        .unwrap();
    let with_empty_plan = machine(8, PortModel::OnePort, FaultPlan::new())
        .run(vec![(); 8], program)
        .unwrap();
    assert_eq!(
        fault_free.stats.elapsed.to_bits(),
        with_empty_plan.stats.elapsed.to_bits()
    );
    assert_eq!(fault_free.outputs, with_empty_plan.outputs);
    assert_eq!(
        fault_free.stats.total_messages(),
        with_empty_plan.stats.total_messages()
    );
}

/// Faulty runs obey the same determinism contract as healthy ones: two
/// identical degraded runs agree bit-for-bit.
#[test]
fn degraded_runs_are_deterministic() {
    let plan = FaultPlan::new()
        .with_dead_link(0, 1)
        .with_straggler(2, 1.5)
        .with_degraded_link(4, 5, 2.0, 2.0)
        .with_drop(3, 2, 0);
    let program = |mut proc: Proc, ()| async move {
        let partner = proc.id() ^ 1;
        if proc.id() < partner {
            proc.send(partner, 9, vec![proc.id() as f64; 5]);
            if proc.id() == 2 {
                let _ = proc.recv(3, 10).await;
            }
        } else {
            let _ = proc.recv(partner, 9).await;
            if proc.id() == 3 {
                // The dropped first injection toward node 2: retry.
                let _ = proc.send_with_retry(2, 10, [9.0], RetryPolicy::default());
            }
        }
        proc.clock()
    };
    let a = machine(8, PortModel::OnePort, plan.clone())
        .run(vec![(); 8], program)
        .unwrap();
    let b = machine(8, PortModel::OnePort, plan)
        .run(vec![(); 8], program)
        .unwrap();
    assert_eq!(a.stats.elapsed.to_bits(), b.stats.elapsed.to_bits());
    assert_eq!(a.outputs, b.outputs);
}
