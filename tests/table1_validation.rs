//! E1 — Table 1 validation: the measured virtual cost of every
//! collective schedule equals the Johnsson–Ho closed form whenever the
//! message divides evenly across the rotated copies (and stays within
//! the slicing-granularity bound otherwise).

use cubemm_collectives as coll;
use cubemm_simnet::{CostParams, Machine, Payload, PortModel};
use cubemm_topology::Subcube;

const TS: f64 = 5.0;
const TW: f64 = 2.0;
const COST: CostParams = CostParams { ts: TS, tw: TW };

fn payload(rank: usize, m: usize) -> Payload {
    (0..m).map(|x| (rank * 1000 + x) as f64).collect()
}

/// Measures one collective's virtual time.
fn run(kind: &'static str, d: u32, m: usize, port: PortModel) -> f64 {
    let p = 1usize << d;
    let out = Machine::builder(p)
        .port(port)
        .cost(COST)
        .build()
        .expect("valid machine")
        .run(vec![(); p], move |mut proc, ()| async move {
            let sc = Subcube::whole(proc.dim());
            let v = sc.rank_of(proc.id());
            match kind {
                "bcast" => {
                    let data = (v == 0).then(|| payload(0, m));
                    let _ = coll::bcast(&mut proc, &sc, 0, 0, data, m).await;
                }
                "scatter" => {
                    let parts =
                        (v == 0).then(|| (0..sc.size()).map(|r| payload(r, m)).collect::<Vec<_>>());
                    let _ = coll::scatter(&mut proc, &sc, 0, 0, parts, m).await;
                }
                "gather" => {
                    let _ = coll::gather(&mut proc, &sc, 0, 0, payload(v, m)).await;
                }
                "allgather" => {
                    let _ = coll::allgather(&mut proc, &sc, 0, payload(v, m)).await;
                }
                "alltoall" => {
                    let parts: Vec<Payload> = (0..sc.size()).map(|r| payload(r, m)).collect();
                    let _ = coll::alltoall_personalized(&mut proc, &sc, 0, parts).await;
                }
                "reduce" => {
                    let _ = coll::reduce_sum(&mut proc, &sc, 0, 0, payload(v, m)).await;
                }
                "reduce_scatter" => {
                    let parts: Vec<Payload> = (0..sc.size()).map(|r| payload(r, m)).collect();
                    let _ = coll::reduce_scatter(&mut proc, &sc, 0, parts).await;
                }
                other => unreachable!("{other}"),
            }
        })
        .expect("healthy run");
    out.stats.elapsed
}

/// Message sizes divisible by every subcube dimension used below, so the
/// rotated multi-port schedules slice evenly and Table 1 holds exactly.
const SIZES: [usize; 2] = [12, 60];
const DIMS: [u32; 3] = [2, 3, 4];

#[test]
fn one_to_all_broadcast_matches_table1() {
    for d in DIMS {
        for m in SIZES {
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(
                run("bcast", d, m, PortModel::OnePort),
                df * (TS + TW * mf),
                "one-port d={d} m={m}"
            );
            assert_eq!(
                run("bcast", d, m, PortModel::MultiPort),
                TS * df + TW * mf,
                "multi-port d={d} m={m}"
            );
        }
    }
}

#[test]
fn personalized_and_allgather_match_table1() {
    for d in DIMS {
        for m in SIZES {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            let one = TS * df + TW * (n - 1.0) * mf;
            let multi = TS * df + TW * (n - 1.0) * mf / df;
            for kind in ["scatter", "gather", "allgather", "reduce_scatter"] {
                assert_eq!(
                    run(kind, d, m, PortModel::OnePort),
                    one,
                    "{kind} d={d} m={m}"
                );
                assert_eq!(
                    run(kind, d, m, PortModel::MultiPort),
                    multi,
                    "{kind} d={d} m={m}"
                );
            }
        }
    }
}

#[test]
fn all_to_all_personalized_matches_table1() {
    for d in DIMS {
        for m in SIZES {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(
                run("alltoall", d, m, PortModel::OnePort),
                TS * df + TW * n * mf * df / 2.0,
                "one-port d={d} m={m}"
            );
            assert_eq!(
                run("alltoall", d, m, PortModel::MultiPort),
                TS * df + TW * n * mf / 2.0,
                "multi-port d={d} m={m}"
            );
        }
    }
}

#[test]
fn reduction_is_inverse_broadcast() {
    for d in DIMS {
        for m in SIZES {
            let df = f64::from(d);
            let mf = m as f64;
            assert_eq!(run("reduce", d, m, PortModel::OnePort), df * (TS + TW * mf));
            assert_eq!(run("reduce", d, m, PortModel::MultiPort), TS * df + TW * mf);
        }
    }
}

#[test]
fn indivisible_messages_stay_within_granularity_bound() {
    // With M not divisible by log N the rotated slices are uneven; the
    // measured time exceeds the ideal by at most the one-extra-word-per-
    // round penalty.
    for d in [3u32, 4] {
        for m in [7usize, 13, 17] {
            let n = (1usize << d) as f64;
            let df = f64::from(d);
            let mf = m as f64;
            let ideal = TS * df + TW * (n - 1.0) * mf / df;
            let ceiling = TS * df + TW * (n - 1.0) * (mf / df).ceil();
            let measured = run("allgather", d, m, PortModel::MultiPort);
            assert!(
                measured >= ideal - 1e-9 && measured <= ceiling + 1e-9,
                "d={d} m={m}: {measured} not in [{ideal}, {ceiling}]"
            );
        }
    }
}
