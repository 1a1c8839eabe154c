//! Simulator microbenchmarks: host-time cost of the work-queue executor
//! itself (virtual times are pinned by the determinism tests; these
//! track how fast the executor reproduces them).

use cubemm_bench::criterion_group;
use cubemm_bench::criterion_main;
use cubemm_bench::microbench::{black_box, BenchmarkId, Criterion};
use cubemm_collectives::allgather;
use cubemm_simnet::{CostParams, Machine, Proc, RunOutcome};
use cubemm_topology::Subcube;

const COST: CostParams = CostParams { ts: 10.0, tw: 2.0 };

/// Boots a healthy one-port machine and runs `program`.
fn run<O, F, Fut>(p: usize, program: F) -> RunOutcome<O>
where
    F: Fn(Proc, ()) -> Fut,
    Fut: std::future::Future<Output = O>,
{
    #[allow(
        clippy::expect_used,
        reason = "fixed, valid bench machines; a failure is a bench bug"
    )]
    Machine::builder(p)
        .cost(COST)
        .build()
        .expect("valid bench machine")
        .run(vec![(); p], program)
        .expect("healthy bench run")
}

/// Machine spin-up/tear-down: `p` nodes, no communication.
fn bench_spinup(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_spinup");
    group.sample_size(10);
    for p in [8usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("spinup", p), &p, |b, &p| {
            b.iter(|| {
                let out = run(p, |proc, ()| async move { proc.id() });
                black_box(out.stats.elapsed)
            })
        });
    }
    group.finish();
}

/// Two nodes volleying a 4-word message: per-message executor latency.
fn bench_pingpong(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_pingpong");
    group.sample_size(10);
    for rounds in [64u64, 512] {
        group.bench_with_input(BenchmarkId::new("rounds", rounds), &rounds, |b, &rounds| {
            b.iter(|| {
                let out = run(2, move |mut proc, ()| async move {
                    let msg = vec![proc.id() as f64; 4];
                    for r in 0..rounds {
                        if proc.id() == 0 {
                            proc.send(1, r, msg.clone());
                            let _ = proc.recv(1, r).await;
                        } else {
                            let got = proc.recv(0, r).await;
                            proc.send(0, r, got);
                        }
                    }
                });
                black_box(out.stats.elapsed)
            })
        });
    }
    group.finish();
}

/// Full-cube all-gather: the collective start-up pattern that dominates
/// the paper's algorithms (many small messages, every node involved).
fn bench_allgather(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet_allgather");
    group.sample_size(10);
    for p in [8usize, 64, 256] {
        group.bench_with_input(BenchmarkId::new("allgather", p), &p, |b, &p| {
            let dim = p.trailing_zeros();
            b.iter(|| {
                let out = run(p, move |mut proc, ()| async move {
                    let sc = Subcube::whole(dim);
                    let mine: Vec<f64> = vec![proc.id() as f64; 64];
                    allgather(&mut proc, &sc, 0, mine.into()).await.len()
                });
                black_box(out.stats.elapsed)
            })
        });
    }
    group.finish();
}

criterion_group!(simnet, bench_spinup, bench_pingpong, bench_allgather);
criterion_main!(simnet);
