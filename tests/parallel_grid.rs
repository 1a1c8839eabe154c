//! Determinism of the parallel grid driver: running a sweep through
//! `cubemm_harness::run_grid` at any `--jobs` value must produce results
//! bitwise identical to the serial path, and identical across repeated
//! runs.
//!
//! This is the regression gate for the simulator's central contract:
//! virtual clocks depend only on each run's own configuration (program
//! order plus `(from, tag)` FIFO matching), never on host scheduling —
//! even when whole machines execute concurrently on different worker
//! threads.

use cubemm_core::{Algorithm, MachineConfig};
use cubemm_dense::Matrix;
use cubemm_harness::run_grid;
use cubemm_simnet::{CostParams, PortModel, RunStats};

/// The sweep grid: independent simulated machines of different sizes and
/// port models, sharing nothing but the host's cores.
fn grid() -> Vec<(Algorithm, PortModel, usize)> {
    let mut tasks = Vec::new();
    for algo in [Algorithm::Cannon, Algorithm::Simple, Algorithm::All3d] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for p in [4, 16, 64] {
                if algo.check(32, p).is_ok() {
                    tasks.push((algo, port, p));
                }
            }
        }
    }
    tasks
}

fn run_sweep(jobs: usize) -> Vec<(RunStats, Matrix)> {
    let n = 32;
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    run_grid(&grid(), jobs, |&(algo, port, p)| {
        let cfg = MachineConfig::new(port, CostParams::PAPER);
        let res = algo.multiply(&a, &b, p, &cfg).unwrap();
        (res.stats, res.c)
    })
}

fn assert_identical(lhs: &[(RunStats, Matrix)], rhs: &[(RunStats, Matrix)], what: &str) {
    assert_eq!(lhs.len(), rhs.len());
    for (i, ((s1, c1), (s2, c2))) in lhs.iter().zip(rhs).enumerate() {
        assert_eq!(
            s1.elapsed.to_bits(),
            s2.elapsed.to_bits(),
            "{what}: elapsed diverged at grid point {i}"
        );
        assert_eq!(
            s1.nodes, s2.nodes,
            "{what}: node stats diverged at grid point {i}"
        );
        assert_eq!(c1, c2, "{what}: product diverged at grid point {i}");
    }
}

#[test]
fn sweep_stats_are_bitwise_identical_at_jobs_1_and_8() {
    let serial = run_sweep(1);
    let parallel = run_sweep(8);
    assert_identical(&serial, &parallel, "jobs=1 vs jobs=8");
}

#[test]
fn repeated_parallel_sweeps_agree() {
    let first = run_sweep(8);
    let second = run_sweep(8);
    assert_identical(&first, &second, "repeated jobs=8 runs");
}

#[test]
fn analyzer_verdicts_are_identical_at_jobs_1_and_8() {
    // The schedule analyzer replays captured schedules on simulated
    // machines; its verdicts and measured (a, b) coordinates must not
    // depend on how many grid points analyze concurrently.
    let mut tasks = Vec::new();
    for algo in [Algorithm::Cannon, Algorithm::Simple, Algorithm::Hje] {
        for port in [PortModel::OnePort, PortModel::MultiPort] {
            for (n, p) in cubemm_analyze::applicable_grid(algo) {
                tasks.push((algo, port, n, p));
            }
        }
    }
    let analyze = |jobs: usize| {
        run_grid(&tasks, jobs, |&(algo, port, n, p)| {
            let r = cubemm_analyze::analyze_algorithm(algo, n, p, port).unwrap();
            let cost = r.analysis.cost.map(|c| (c.a.to_bits(), c.b.to_bits()));
            (r.verdict, r.analysis.is_sound(), cost)
        })
    };
    let serial = analyze(1);
    let parallel = analyze(8);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "analyzer outcome diverged at grid point {i}");
    }
}
