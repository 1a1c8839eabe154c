//! Local GEMM kernel throughput: the checked-in perf trajectory.
//!
//! Measures GFLOP/s (`2·n³` flops per product) for every kernel at a
//! range of sizes and writes the results as `BENCH_kernels.json` in the
//! working directory, the file the README perf table is generated from.
//!
//! ```text
//! cargo run --release -p cubemm-bench --bin kernel_bench              # full run
//! cargo run --release -p cubemm-bench --bin kernel_bench -- --smoke   # CI smoke
//!   --sizes 128,256,512     override the size grid
//!   --threads 1,2,4         thread counts for the packed rows
//!   --assert-scaling 2.0    fail unless max-threads packed ≥ 2.0x its
//!                           1-thread row at the largest size ≥ 512
//!                           (soft-warns instead when the host has
//!                           fewer cores than the top thread count)
//! ```
//!
//! The packed kernel is benched per microkernel implementation
//! (`packed-scalar-*` forced onto the portable 4×8 tile,
//! `packed-simd-*` on the AVX2+FMA 6×8 tile when the host has it) and
//! per thread count, with a machine-readable `speedup_vs_1t` column so
//! CI can assert parallel scaling. `--smoke` runs small sizes only,
//! cross-checks every kernel against the naive product, checks at every
//! size that each build of `blocked64` (the reference) is bitwise equal
//! to `ikj`, and exits non-zero on mismatch — a cheap guard that keeps the kernel and bench
//! code from bit-rotting. The full run performs the same verification
//! before timing anything.

use std::time::Instant;

use cubemm_dense::gemm::{
    gemm_acc_with_microkernel, gemm_blocked_with, BlockedImpl, Kernel, PAR_MIN_ELEMS,
};
use cubemm_dense::microkernel::MicrokernelImpl;
use cubemm_dense::Matrix;

struct KernelSpec {
    name: String,
    kernel: Kernel,
    mk: MicrokernelImpl,
    /// Name of this spec's single-thread sibling for the speedup column
    /// (its own name for 1t and non-packed rows).
    base_1t: String,
}

fn kernels(threads: &[usize]) -> Vec<KernelSpec> {
    let scalar = MicrokernelImpl::Scalar;
    let mut v = vec![
        KernelSpec {
            name: "naive".into(),
            kernel: Kernel::Naive,
            mk: scalar,
            base_1t: "naive".into(),
        },
        KernelSpec {
            name: "ikj".into(),
            kernel: Kernel::Ikj,
            mk: scalar,
            base_1t: "ikj".into(),
        },
        KernelSpec {
            name: "blocked64".into(),
            kernel: Kernel::Blocked(64),
            mk: scalar,
            base_1t: "blocked64".into(),
        },
    ];
    let mut impls = vec![("packed-scalar", scalar)];
    if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
        impls.push(("packed-simd", MicrokernelImpl::Avx2));
    }
    for (family, mk) in impls {
        for &t in threads {
            v.push(KernelSpec {
                name: format!("{family}-{t}t"),
                kernel: Kernel::packed_mt(t),
                mk,
                base_1t: format!("{family}-1t"),
            });
        }
    }
    v
}

/// Median-of-`reps` seconds for one `n×n×n` product with `spec`.
fn time_product(n: usize, spec: &KernelSpec, reps: usize) -> f64 {
    let a = Matrix::random(n, n, 1);
    let b = Matrix::random(n, n, 2);
    let mut c = Matrix::zeros(n, n);
    // Warm-up (and pool/buffer spin-up).
    gemm_acc_with_microkernel(&mut c, &a, &b, spec.kernel, spec.mk);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let mut c = Matrix::zeros(n, n);
            let t = Instant::now();
            gemm_acc_with_microkernel(&mut c, &a, &b, spec.kernel, spec.mk);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(&c);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Checks the reference contract at size `n`: every build of
/// `blocked64` the host can run returns the bits of `ikj` (random
/// operands have no exact zeros, so `ikj`'s zero skip never fires).
fn verify_reference_bits(n: usize) -> Result<(), String> {
    let a = Matrix::random(n, n, 5);
    let b = Matrix::random(n, n, 6);
    let mut want = Matrix::zeros(n, n);
    gemm_acc_with_microkernel(&mut want, &a, &b, Kernel::Ikj, MicrokernelImpl::Scalar);
    let want: Vec<u64> = want.as_slice().iter().map(|x| x.to_bits()).collect();
    for imp in BlockedImpl::available() {
        let mut got = Matrix::zeros(n, n);
        gemm_blocked_with(&mut got, &a, &b, 64, imp);
        if !got
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .eq(want.iter().copied())
        {
            return Err(format!(
                "blocked64 ({}) is not bitwise equal to ikj at n={n}",
                imp.name()
            ));
        }
    }
    Ok(())
}

/// Verifies `spec` against the naive product at size `n`.
fn verify(n: usize, spec: &KernelSpec) -> Result<(), String> {
    let a = Matrix::random(n, n, 3);
    let b = Matrix::random(n, n, 4);
    let mut want = Matrix::zeros(n, n);
    gemm_acc_with_microkernel(&mut want, &a, &b, Kernel::Naive, MicrokernelImpl::Scalar);
    let mut got = Matrix::zeros(n, n);
    gemm_acc_with_microkernel(&mut got, &a, &b, spec.kernel, spec.mk);
    let err = got.max_abs_diff(&want);
    if err > 1e-9 * n as f64 {
        return Err(format!(
            "kernel {} mismatch at n={n}: max |Δ| = {err:.2e}",
            spec.name
        ));
    }
    Ok(())
}

fn parse_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|tok| match tok.trim().parse::<usize>() {
            Ok(v) if v > 0 => v,
            _ => {
                eprintln!("error: {flag} wants positive comma-separated integers, got {tok:?}");
                std::process::exit(2);
            }
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let flag_val = |flag: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let sizes: Vec<usize> = match flag_val("--sizes") {
        Some(raw) => parse_list(&raw, "--sizes"),
        None if smoke => vec![64, 96],
        None => vec![128, 256, 512, 768],
    };
    let threads: Vec<usize> = match flag_val("--threads") {
        Some(raw) => parse_list(&raw, "--threads"),
        None => vec![1, 2, 4],
    };
    let assert_scaling: Option<f64> = flag_val("--assert-scaling").map(|raw| {
        raw.parse().unwrap_or_else(|_| {
            eprintln!("error: --assert-scaling wants a number, got {raw:?}");
            std::process::exit(2);
        })
    });
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let specs = kernels(&threads);

    // Correctness first: a fast wrong kernel is worse than a slow one.
    // 31 exercises every ragged-edge path of both register tiles.
    let verify_sizes = if smoke { [31usize, 64] } else { [31, 128] };
    for &n in &verify_sizes {
        for spec in &specs {
            if let Err(e) = verify(n, spec) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    // The reference's bitwise contract, at every verify and timed size.
    for &n in verify_sizes.iter().chain(&sizes) {
        if let Err(e) = verify_reference_bits(n) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "all kernels verified against naive, blocked64 bitwise equal to ikj \
         (microkernel: {}, reference: {}, host cores: {host_cores})",
        MicrokernelImpl::active().name(),
        BlockedImpl::active().name()
    );

    let mut rows: Vec<String> = Vec::new();
    let mut table: Vec<(String, usize, f64)> = Vec::new();
    println!(
        "{:<16} {:>6} {:>12} {:>10} {:>8}",
        "kernel", "n", "time", "GFLOP/s", "vs-1t"
    );
    for &n in &sizes {
        let reps = if n >= 512 { 3 } else { 5 };
        for spec in &specs {
            if smoke && matches!(spec.kernel, Kernel::Naive) && n > 64 {
                continue; // keep the smoke job snappy
            }
            let secs = time_product(n, spec, reps);
            let gflops = 2.0 * (n as f64).powi(3) / secs / 1e9;
            let base = table
                .iter()
                .find(|(name, bn, _)| *name == spec.base_1t && *bn == n)
                .map_or(gflops, |&(_, _, g)| g);
            let speedup = if base > 0.0 { gflops / base } else { 0.0 };
            table.push((spec.name.clone(), n, gflops));
            let spawned = matches!(spec.kernel, Kernel::Packed { threads: t, .. }
                if t != 1 && n.pow(3) > PAR_MIN_ELEMS);
            println!(
                "{:<16} {:>6} {:>10.2}ms {:>10.2} {:>7.2}x{}",
                spec.name,
                n,
                secs * 1e3,
                gflops,
                speedup,
                if matches!(spec.kernel, Kernel::Packed { threads: t, .. } if t != 1) && !spawned {
                    "  (below parallel threshold: ran 1t)"
                } else {
                    ""
                },
            );
            let t = match spec.kernel {
                Kernel::Packed { threads, .. } => threads,
                _ => 1,
            };
            rows.push(format!(
                "    {{\"kernel\": \"{}\", \"n\": {}, \"threads\": {}, \"seconds\": {:.6}, \"gflops\": {:.3}, \"speedup_vs_1t\": {:.3}}}",
                spec.name, n, t, secs, gflops, speedup
            ));
        }
    }

    if !smoke {
        let json = format!(
            "{{\n  \"bench\": \"local_gemm_kernels\",\n  \"flops_formula\": \"2*n^3\",\n  \"microkernel\": \"{}\",\n  \"reference\": \"{}\",\n  \"host_cores\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
            MicrokernelImpl::active().name(),
            BlockedImpl::active().name(),
            host_cores,
            rows.join(",\n")
        );
        match std::fs::write("BENCH_kernels.json", &json) {
            Ok(()) => println!("wrote BENCH_kernels.json"),
            Err(e) => {
                eprintln!("error: writing BENCH_kernels.json: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(min) = assert_scaling {
        let top = threads.iter().copied().max().unwrap_or(1);
        let family = if MicrokernelImpl::active() == MicrokernelImpl::Avx2 {
            "packed-simd"
        } else {
            "packed-scalar"
        };
        let Some(&n) = sizes.iter().filter(|&&n| n >= 512).max() else {
            eprintln!("warning: --assert-scaling needs a size >= 512 in --sizes; skipping");
            return;
        };
        let find = |name: &str| {
            table
                .iter()
                .find(|(t, bn, _)| t == name && *bn == n)
                .map(|&(_, _, g)| g)
        };
        let (one, multi) = (
            find(&format!("{family}-1t")),
            find(&format!("{family}-{top}t")),
        );
        let (Some(one), Some(multi)) = (one, multi) else {
            eprintln!("warning: --assert-scaling found no {family} 1t/{top}t rows at n={n}");
            std::process::exit(1);
        };
        let ratio = multi / one;
        println!(
            "scaling: {family}-{top}t / {family}-1t = {ratio:.2}x at n={n} (want >= {min:.2}x)"
        );
        if ratio < min {
            if host_cores < top {
                println!(
                    "warning: scaling below target, but host has only {host_cores} core(s) \
                     for a {top}-thread row — soft-failing"
                );
            } else {
                eprintln!("error: parallel scaling regression: {ratio:.2}x < {min:.2}x");
                std::process::exit(1);
            }
        }
    }
}
