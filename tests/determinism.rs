//! Determinism and failure-injection tests for the simulated machine.
//!
//! The virtual clocks must not depend on OS thread scheduling: repeated
//! runs of the same configuration must agree bit-for-bit on elapsed
//! time, per-node clocks, message counts, and the product itself.

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_simnet::{CostParams, Machine, PortModel, RunError};

#[test]
fn repeated_runs_are_bit_identical() {
    let n = 32;
    let p = 64;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    for algo in [Algorithm::Cannon, Algorithm::Diag3d, Algorithm::All3d] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            let cfg = MachineConfig::new(port, CostParams::PAPER);
            let r1 = algo.multiply(&a, &b, p, &cfg).unwrap();
            let r2 = algo.multiply(&a, &b, p, &cfg).unwrap();
            assert_eq!(r1.stats.elapsed.to_bits(), r2.stats.elapsed.to_bits());
            assert_eq!(r1.stats.nodes.len(), r2.stats.nodes.len());
            for (x, y) in r1.stats.nodes.iter().zip(&r2.stats.nodes) {
                assert_eq!(x, y, "{algo} {port}: node stats diverged across runs");
            }
            assert_eq!(r1.c, r2.c, "{algo} {port}: product diverged across runs");
        }
    }
}

#[test]
fn elapsed_is_max_of_node_clocks() {
    let n = 32;
    let p = 16;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let cfg = MachineConfig::default();
    let res = Algorithm::Cannon.multiply(&a, &b, p, &cfg).unwrap();
    let max = res
        .stats
        .nodes
        .iter()
        .map(|s| s.clock)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(res.stats.elapsed, max);
}

#[test]
fn zero_cost_machine_still_computes_correctly() {
    // Degenerate cost parameters must not break anything — the virtual
    // time collapses to zero but data still moves.
    let n = 16;
    let p = 16;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let cfg = MachineConfig::new(PortModel::OnePort, CostParams { ts: 0.0, tw: 0.0 });
    let res = Algorithm::Cannon.multiply(&a, &b, p, &cfg).unwrap();
    assert_eq!(res.stats.elapsed, 0.0);
    let want = cubemm_dense::gemm::reference(&a, &b);
    assert!(res.c.max_abs_diff(&want) < 1e-9);
}

#[test]
fn mismatched_program_deadlocks_with_diagnostic() {
    // A receive with no matching send must come back as a structured
    // deadlock error rather than hanging forever. The progress ledger
    // detects this exactly — no timeout involved.
    let machine = Machine::builder(2).build().expect("valid 2-node machine");
    let err = machine
        .run(vec![(), ()], |mut proc, ()| async move {
            if proc.id() == 0 {
                let _ = proc.recv(1, 42).await; // node 1 never sends
            }
        })
        .unwrap_err();
    assert!(
        matches!(err, RunError::Deadlock { .. }),
        "expected a deadlock verdict, got {err:?}"
    );
}

#[test]
fn stats_accounting_is_conserved() {
    // Every injected message is received exactly once: word·hops of a
    // Cannon run equal the analytic total volume.
    let n = 32;
    let p = 16;
    let q = 4usize;
    let bs = n / q;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let cfg = MachineConfig::default();
    let res = Algorithm::Cannon.multiply(&a, &b, p, &cfg).unwrap();
    // Skew: each node sends its A block once per set bit of its row
    // index and B once per set bit of its column index; over the whole
    // grid that is q·(popcount sum over 0..q = 4) per matrix = 2·4·q
    // blocks; shifts: 2 blocks per node per step for q−1 steps.
    let skew_blocks: usize = 2 * q * (0..q).map(|i| i.count_ones() as usize).sum::<usize>();
    let shift_blocks = 2 * p * (q - 1);
    let expect = (skew_blocks + shift_blocks) * bs * bs;
    assert_eq!(res.stats.total_word_hops(), expect);
}
