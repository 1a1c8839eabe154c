//! Local dense multiplication kernels.
//!
//! All distributed algorithms bottom out in `C += A·B` on local blocks.
//! The paper's comparison concerns communication only, so the kernels
//! exist (a) to actually produce correct products in the simulator,
//! (b) for the "local kernel choice is orthogonal" ablation bench, and
//! (c) — since the simulator's wall-clock really computes every block —
//! to make end-to-end runs as fast as the host allows. The fast path is
//! [`Kernel::Packed`]: a cache-blocked GEMM with panel packing
//! ([`crate::pack`]), a runtime-dispatched register-tiled microkernel
//! ([`crate::microkernel`] — AVX2+FMA `6×8` where the host has it,
//! portable `4×8` otherwise), blocking parameters resolved through the
//! tuning layer ([`crate::tune`]), and 2-D tiled parallelism over the
//! in-tree work-stealing pool ([`crate::pool`]).
//!
//! The verification path is [`reference`] ([`Kernel::Blocked`]): a
//! register-tiled `ikj` loop with separate multiplies and adds,
//! compiled three times (AVX-512F `8×16`, AVX2 `4×8`, portable `4×8`)
//! and picked at runtime by [`BlockedImpl`]. Every build returns the
//! bits of the textbook `ikj` loop.
//!
//! # Determinism contract
//!
//! The packed product is **bitwise identical across thread counts**:
//! every `C` element is accumulated by exactly one compute job, as one
//! FMA chain per `kc` block in ascending `k`, and `kc` blocks are
//! barrier-ordered — the schedule decides *who* computes a tile, never
//! *what* is computed. It is also bitwise identical across the
//! SIMD/scalar microkernels for a fixed `kc` split (both are
//! correctly-rounded FMA; see `microkernel.rs`). Changing `kc` changes
//! where the per-block accumulator is folded into `C` and therefore the
//! rounding — so reproducible deployments pin `kc` (or rely on the
//! shared untuned default). See DESIGN.md §9.

use std::sync::OnceLock;

use crate::microkernel::{scalar_forced, MicrokernelImpl};
use crate::pack::{pack_a, pack_a_panel, pack_b, pack_b_panel, packed_a_len, packed_b_len};
use crate::pool::{take_scratch, ThreadPool};
use crate::tune::{self, Blocking};
use crate::{AllocError, Matrix};

/// Untuned cache-block height of `A` for the scalar microkernel
/// (`mc` rows per packed A block). Tuned hosts override via
/// `cubemm tune-kernel` (see [`crate::tune`]).
pub const DEFAULT_MC: usize = 64;
/// Untuned shared-dimension depth (`kc` steps per packed panel pair).
/// Shared by every microkernel so untuned runs are bitwise comparable
/// across hosts (`kc` is the one blocking parameter that affects bits).
pub const DEFAULT_KC: usize = 256;
/// Untuned cache-block width of `B`/`C` for the scalar microkernel.
pub const DEFAULT_NC: usize = 512;

/// Products with at most this many `m·k·n` flops-elements run the packed
/// path single-threaded even when more threads were requested: below
/// roughly `256³` the pool's dispatch + barrier costs more than the
/// parallelism recovers (BENCH_kernels.json showed 2 threads *losing*
/// to 1 at `n = 128` under the old always-dispatch driver).
pub const PAR_MIN_ELEMS: usize = 1 << 24;

/// Which local kernel to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Textbook triple loop in `ijk` order.
    Naive,
    /// Loop-reordered `ikj`: streams rows of `B`, vectorizes well.
    Ikj,
    /// Register-tiled, cache-tiled `ikj` taking `l` in steps of the
    /// given depth. Its bits are those of the plain `ikj` loop whatever
    /// the depth (the same as [`Kernel::Ikj`], bar that kernel's skip of
    /// zero `A` entries); see [`reference`] and [`BlockedImpl`].
    Blocked(usize),
    /// Panel-packed, register-tiled GEMM (the fast path; the default).
    ///
    /// `mc`/`kc`/`nc` are the cache-block sizes (`0` resolves through
    /// the tuning layer: a host-tuned file written by
    /// `cubemm tune-kernel` when present, per-microkernel static
    /// defaults otherwise); `threads` caps the 2-D tile parallelism
    /// (`0` uses every hardware thread, `1` stays sequential; products
    /// at or below [`PAR_MIN_ELEMS`] run sequentially regardless). The
    /// product is bit-for-bit identical across `threads` values: each
    /// `C` element is accumulated by exactly one tile job in a fixed
    /// `kc`-block order.
    Packed {
        /// Rows of `A` per packed block (`0` = tuned/default).
        mc: usize,
        /// Depth of each packed panel pair (`0` = tuned/default).
        kc: usize,
        /// Columns of `B` per macro panel (`0` = tuned/default).
        nc: usize,
        /// Worker threads for the tile loop (`0` = all cores).
        threads: usize,
    },
}

impl Kernel {
    /// The packed kernel with tuned default tiles, single-threaded —
    /// the right choice inside the simulator, whose node-local products
    /// are many and small, and whose callers (parallel sweeps, serve
    /// workers) already spread whole runs across the cores.
    pub const fn packed() -> Kernel {
        Kernel::Packed {
            mc: 0,
            kc: 0,
            nc: 0,
            threads: 1,
        }
    }

    /// The packed kernel with tuned default tiles and an explicit
    /// macro-loop thread count (`0` = all cores).
    pub const fn packed_mt(threads: usize) -> Kernel {
        Kernel::Packed {
            mc: 0,
            kc: 0,
            nc: 0,
            threads,
        }
    }
}

impl Default for Kernel {
    /// The packed single-threaded kernel.
    fn default() -> Self {
        Kernel::packed()
    }
}

impl std::str::FromStr for Kernel {
    type Err = String;

    /// Parses `naive | ikj | blocked[:TILE] | packed[:THREADS]`. A bare
    /// `blocked` tiles by 64; a bare `packed` is [`Kernel::packed`], and
    /// `packed:0` uses every core. Errors name the offending spelling;
    /// callers prefix their own flag or field name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let num = |a: &str| {
            a.parse::<usize>()
                .map_err(|_| format!("kernel {s:?}: invalid number {a:?}"))
        };
        match (name, arg) {
            ("naive", None) => Ok(Kernel::Naive),
            ("ikj", None) => Ok(Kernel::Ikj),
            ("blocked", None) => Ok(Kernel::Blocked(64)),
            ("blocked", Some(a)) => match num(a)? {
                0 => Err(format!("kernel {s:?}: tile must be positive")),
                tile => Ok(Kernel::Blocked(tile)),
            },
            ("packed", None) => Ok(Kernel::packed()),
            ("packed", Some(a)) => Ok(Kernel::packed_mt(num(a)?)),
            _ => Err(format!(
                "unknown kernel {s:?} (use naive|ikj|blocked[:TILE]|packed[:THREADS])"
            )),
        }
    }
}

/// `C += A·B` with the chosen kernel.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm_acc(c: &mut Matrix, a: &Matrix, b: &Matrix, kernel: Kernel) {
    gemm_acc_with_microkernel(c, a, b, kernel, MicrokernelImpl::active());
}

/// [`gemm_acc`] with an explicit microkernel implementation for the
/// packed path (other kernels ignore it). This is how the forced-scalar
/// determinism suite and the `packed-scalar`/`packed-simd` bench rows
/// pin a specific impl; ordinary callers use [`gemm_acc`], which runs
/// the host-detected best kernel.
///
/// # Panics
/// Panics on dimension mismatch, and if an `Avx2` impl is passed on a
/// host without AVX2+FMA.
pub fn gemm_acc_with_microkernel(
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    kernel: Kernel,
    mk: MicrokernelImpl,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C row mismatch");
    assert_eq!(c.cols(), b.cols(), "C col mismatch");
    if mk == MicrokernelImpl::Avx2 {
        assert_eq!(
            MicrokernelImpl::detect(),
            MicrokernelImpl::Avx2,
            "AVX2 microkernel requested on a host without AVX2+FMA"
        );
    }
    match kernel {
        Kernel::Naive => naive(c, a, b),
        Kernel::Ikj => ikj(c, a, b),
        Kernel::Blocked(tile) => blocked(c, a, b, tile.max(1), BlockedImpl::active()),
        Kernel::Packed {
            mc,
            kc,
            nc,
            threads,
        } => packed(c, a, b, mc, kc, nc, threads, mk),
    }
}

/// `A·B` into a fresh matrix with the default kernel.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, Kernel::default());
    c
}

/// Sequential reference product used to verify every distributed run:
/// [`Kernel::Blocked`]`(64)`, whose bits are those of the textbook `ikj`
/// loop. Deliberately a *different* kernel from the packed default the
/// algorithms run with (no packing, no FMA, no per-`kc` accumulator, no
/// threads), so verification exercises two independent code paths.
pub fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_acc(&mut c, a, b, REFERENCE);
    c
}

/// [`reference`] with its product allocated fallibly, for callers that
/// must answer an oversized job instead of aborting.
pub fn try_reference(a: &Matrix, b: &Matrix) -> Result<Matrix, AllocError> {
    let mut c = Matrix::try_zeros(a.rows(), b.cols())?;
    gemm_acc(&mut c, a, b, REFERENCE);
    Ok(c)
}

/// The kernel behind [`reference`] and [`try_reference`].
const REFERENCE: Kernel = Kernel::Blocked(64);

fn naive(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[(i, l)] * b[(l, j)];
            }
            c[(i, j)] += acc;
        }
    }
}

fn ikj(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for i in 0..m {
        for l in 0..k {
            let aval = a[(i, l)];
            if aval == 0.0 {
                continue;
            }
            let brow = b.row(l);
            let crow = &mut c.as_mut_slice()[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv += aval * bv;
            }
        }
    }
}

/// Which build of the reference kernel ([`Kernel::Blocked`], the body
/// of [`reference`]) runs. Every build computes each `C` element as the
/// same sequence of separately rounded multiplies and adds in ascending
/// `l`, so all of them return the same bits; they differ only in the
/// register tile and the vector width the compiler may use. Builds are
/// ordered by the instruction sets they need, each implying the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlockedImpl {
    /// `4 × 8` tile at the target's baseline vector width (`cfg(miri)`,
    /// the `CUBEMM_FORCE_SCALAR=1` override, and hosts without AVX2).
    Portable,
    /// `4 × 8` tile compiled for AVX2 (x86_64, runtime-detected).
    Avx2,
    /// `8 × 16` tile compiled for AVX-512F (x86_64, runtime-detected).
    Avx512,
}

impl BlockedImpl {
    /// The widest build the host can run. Ignores `CUBEMM_FORCE_SCALAR`;
    /// most callers want [`BlockedImpl::active`].
    pub fn detect() -> BlockedImpl {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return BlockedImpl::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return BlockedImpl::Avx2;
            }
        }
        BlockedImpl::Portable
    }

    /// The process-wide build: [`BlockedImpl::detect`] unless
    /// `CUBEMM_FORCE_SCALAR` pins the portable one (read once, like
    /// [`MicrokernelImpl::active`]).
    pub fn active() -> BlockedImpl {
        static ACTIVE: OnceLock<BlockedImpl> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if scalar_forced() {
                BlockedImpl::Portable
            } else {
                BlockedImpl::detect()
            }
        })
    }

    /// Stable name with the register tile, for bench output.
    pub const fn name(self) -> &'static str {
        match self {
            BlockedImpl::Portable => "portable-4x8",
            BlockedImpl::Avx2 => "avx2-4x8",
            BlockedImpl::Avx512 => "avx512-8x16",
        }
    }

    /// Every build the host can run, portable first.
    pub fn available() -> Vec<BlockedImpl> {
        let widest = BlockedImpl::detect();
        [
            BlockedImpl::Portable,
            BlockedImpl::Avx2,
            BlockedImpl::Avx512,
        ]
        .into_iter()
        .filter(|&imp| imp <= widest)
        .collect()
    }
}

/// [`Kernel::Blocked`] with an explicit build: `C += A·B` with `tile`
/// the depth of each `l` step. This is how the bitwise suite and the
/// kernel bench pin one build; [`gemm_acc`] runs [`BlockedImpl::active`].
///
/// # Panics
/// Panics on dimension mismatch, and if `imp` is a build the host
/// cannot run.
pub fn gemm_blocked_with(c: &mut Matrix, a: &Matrix, b: &Matrix, tile: usize, imp: BlockedImpl) {
    assert_eq!(a.cols(), b.rows(), "inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "C row mismatch");
    assert_eq!(c.cols(), b.cols(), "C col mismatch");
    assert!(
        imp <= BlockedImpl::detect(),
        "{imp:?} reference kernel requested on a host without it"
    );
    blocked(c, a, b, tile.max(1), imp);
}

/// Columns of `C` per panel of the reference kernel: one `tile ×
/// REF_NC` block of `B` (128 KiB at the default tile of 64) stays in L2
/// while every row of `A` streams past it.
const REF_NC: usize = 256;

fn blocked(c: &mut Matrix, a: &Matrix, b: &Matrix, tile: usize, imp: BlockedImpl) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (c, a, b) = (c.as_mut_slice(), a.as_slice(), b.as_slice());
    match imp {
        BlockedImpl::Portable => blocked_body::<4, 8>(c, a, b, m, k, n, tile),
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: Avx2 is only selected (detect) or accepted
        // (gemm_blocked_with) on a host where AVX2 was detected.
        BlockedImpl::Avx2 => unsafe { blocked_avx2(c, a, b, m, k, n, tile) },
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: as above for AVX-512F.
        BlockedImpl::Avx512 => unsafe { blocked_avx512(c, a, b, m, k, n, tile) },
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        BlockedImpl::Avx2 | BlockedImpl::Avx512 => blocked_body::<4, 8>(c, a, b, m, k, n, tile),
    }
}

/// [`blocked_body`] compiled for AVX2: the `4 × 8` tile is eight `ymm`
/// accumulators.
///
/// # Safety
/// The host must support AVX2.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
unsafe fn blocked_avx2(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    tile: usize,
) {
    blocked_body::<4, 8>(c, a, b, m, k, n, tile);
}

/// [`blocked_body`] compiled for AVX-512F: the `8 × 16` tile is sixteen
/// `zmm` accumulators.
///
/// # Safety
/// The host must support AVX-512F.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn blocked_avx512(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    tile: usize,
) {
    blocked_body::<8, 16>(c, a, b, m, k, n, tile);
}

/// The reference kernel: cache-tiled, register-tiled `ikj` over
/// row-major `C (m×n) += A (m×k) · B (k×n)`.
///
/// For each `REF_NC`-column panel and each `tile`-deep `l` step, every
/// `MR × NR` tile of `C` is loaded into accumulators, takes
/// `acc += a[i][l] * b[l][j]` for ascending `l`, and is stored back.
/// The multiply and the add are separate, separately rounded
/// operations (Rust never contracts them into an FMA), so each `C`
/// element sees exactly the float sequence of the textbook `ikj` loop
/// whatever `MR`, `NR`, `tile` or the vector width — the bits depend on
/// none of them. Ragged edges take the same sequence one element at a
/// time.
#[inline(always)]
fn blocked_body<const MR: usize, const NR: usize>(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    m: usize,
    k: usize,
    n: usize,
    tile: usize,
) {
    for j0 in (0..n).step_by(REF_NC) {
        let jend = (j0 + REF_NC).min(n);
        let jfull = j0 + (jend - j0) / NR * NR;
        for l0 in (0..k).step_by(tile) {
            let lend = (l0 + tile).min(k);
            let mut i0 = 0;
            while i0 + MR <= m {
                for j in (j0..jfull).step_by(NR) {
                    register_tile::<MR, NR>(c, a, b, k, n, i0, j, l0..lend);
                }
                edge(c, a, b, k, n, i0..i0 + MR, jfull..jend, l0..lend);
                i0 += MR;
            }
            edge(c, a, b, k, n, i0..m, j0..jend, l0..lend);
        }
    }
}

/// `C[i0.., j0..][MR × NR] += A[i0.., ls] · B[ls, j0..]` in registers.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "internal kernel fan-in")]
fn register_tile<const MR: usize, const NR: usize>(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
    ls: std::ops::Range<usize>,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        let at = (i0 + r) * n + j0;
        row.copy_from_slice(&c[at..at + NR]);
    }
    for l in ls {
        let brow = &b[l * n + j0..l * n + j0 + NR];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + l];
            for (cv, &bv) in row.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let at = (i0 + r) * n + j0;
        c[at..at + NR].copy_from_slice(row);
    }
}

/// The ragged-edge rectangle of [`blocked_body`], as a plain `ikj` loop.
#[inline(always)]
#[allow(clippy::too_many_arguments, reason = "internal kernel fan-in")]
fn edge(
    c: &mut [f64],
    a: &[f64],
    b: &[f64],
    k: usize,
    n: usize,
    is: std::ops::Range<usize>,
    js: std::ops::Range<usize>,
    ls: std::ops::Range<usize>,
) {
    if js.is_empty() {
        return;
    }
    for i in is {
        for l in ls.clone() {
            let av = a[i * k + l];
            let brow = &b[l * n + js.start..l * n + js.end];
            let crow = &mut c[i * n + js.start..i * n + js.end];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Shared `*mut f64` for the tile/pack jobs. Each job's writes stay
/// inside its own disjoint region (microtiles of `C`, or panels of a
/// packing buffer), so concurrent jobs never touch the same element.
#[derive(Clone, Copy)]
struct SendPtr(*mut f64);
// SAFETY: jobs write disjoint regions (guaranteed by the drivers' tile/
// panel arithmetic); the pointer itself is plain data.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare `*mut f64` — edition-2021 disjoint
    /// capture would otherwise grab the non-`Sync` field itself.
    #[inline]
    fn get(self) -> *mut f64 {
        self.0
    }
}

/// The packed driver: BLIS-style five-loop blocking.
///
/// ```text
/// for jc in 0..n step nc        // column panels
///   for pc in 0..k step kc      //   pack B[pc.., jc..] → Bp (parallel: per NR panel)
///     (parallel: pack A[0..m, pc..] → Ap, per MR panel)
///     for (ic, jr) 2-D tile jobs // work-stolen across threads
///       for ir (register tiles)
///         microkernel: C[ic+ir·MR.., jc+jr·NR..] += Ap·Bp
/// ```
///
/// Serial (`threads <= 1` or small products) takes the classic
/// `ic`-blocked path instead, which packs each `mc × kc` block of `A`
/// just before using it. Both orders accumulate every `C` element
/// identically (see the module docs), so the choice is invisible in
/// the bits.
#[allow(clippy::too_many_arguments, reason = "internal driver fan-in")]
fn packed(
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    mc: usize,
    kc: usize,
    nc: usize,
    threads: usize,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let bl = tune::resolve(mc, kc, nc, mk);
    let threads = if threads == 0 {
        ThreadPool::global().parallelism()
    } else {
        threads
    };
    let work = m.saturating_mul(k).saturating_mul(n);
    if threads <= 1 || work <= PAR_MIN_ELEMS {
        packed_serial(c, a, b, &bl, mk);
    } else {
        packed_parallel(c, a, b, &bl, threads, mk);
    }
}

/// Single-threaded packed path: no pool dispatch, no barriers, `A`
/// blocks packed on first use so the working set is one `mc × kc` block
/// plus one `B` panel.
fn packed_serial(c: &mut Matrix, a: &Matrix, b: &Matrix, bl: &Blocking, mk: MicrokernelImpl) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    let ldc = n;
    let cp = c.as_mut_slice().as_mut_ptr();
    for jc in (0..n).step_by(bl.nc) {
        let ncw = bl.nc.min(n - jc);
        let npan = ncw.div_ceil(nr);
        for pc in (0..k).step_by(bl.kc) {
            let kcw = bl.kc.min(k - pc);
            let mut bbuf = take_scratch(packed_b_len(kcw, ncw, nr));
            pack_b(b, pc, jc, kcw, ncw, nr, bbuf.as_mut_slice());
            for ic in (0..m).step_by(bl.mc) {
                let mcw = bl.mc.min(m - ic);
                let mpan = mcw.div_ceil(mr);
                let mut abuf = take_scratch(packed_a_len(mcw, kcw, mr));
                pack_a(a, ic, pc, mcw, kcw, mr, abuf.as_mut_slice());
                for jr in 0..npan {
                    let nrw = nr.min(ncw - jr * nr);
                    let bp = &bbuf.as_slice()[jr * nr * kcw..(jr + 1) * nr * kcw];
                    for ir in 0..mpan {
                        let mrw = mr.min(mcw - ir * mr);
                        let ap = &abuf.as_slice()[ir * mr * kcw..(ir + 1) * mr * kcw];
                        // SAFETY: the tile spans rows ic+ir·mr .. +mrw
                        // and columns jc+jr·nr .. +nrw, all inside the
                        // m × ldc bounds of `C`; single-threaded, so no
                        // concurrent writers at all.
                        unsafe {
                            let tile = cp.add((ic + ir * mr) * ldc + jc + jr * nr);
                            mk.run(ap, bp, tile, ldc, mrw, nrw);
                        }
                    }
                }
            }
        }
    }
}

/// Parallel packed path. Per `(jc, pc)` macro-iteration the pool runs
/// two phases:
///
/// 1. **Pack** — every `mr`-row panel of the `A` k-slab and every
///    `nr`-column panel of the `B` block is one job writing one
///    disjoint slice of the shared packing buffers.
/// 2. **Compute** — jobs are `(mc-row-block × nr-column-panel)` 2-D
///    tiles of `C`, claimed dynamically (work stealing); consecutive
///    job indices share the same packed `A` block, so a thread's stolen
///    neighborhood stays cache-warm. Each `mr × nr` microtile has
///    exactly one writer, which is the whole determinism argument:
///    scheduling decides who computes a tile, never what is computed.
fn packed_parallel(
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    bl: &Blocking,
    threads: usize,
    mk: MicrokernelImpl,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (mr, nr) = (mk.mr(), mk.nr());
    let ldc = n;
    let pool = ThreadPool::global();
    let cp = SendPtr(c.as_mut_slice().as_mut_ptr());
    let apan = m.div_ceil(mr);
    let nblocks = m.div_ceil(bl.mc);
    for jc in (0..n).step_by(bl.nc) {
        let ncw = bl.nc.min(n - jc);
        let npan = ncw.div_ceil(nr);
        for pc in (0..k).step_by(bl.kc) {
            let kcw = bl.kc.min(k - pc);
            let mut abuf = take_scratch(apan * mr * kcw);
            let mut bbuf = take_scratch(npan * nr * kcw);
            let ap = SendPtr(abuf.as_mut_slice().as_mut_ptr());
            let bp = SendPtr(bbuf.as_mut_slice().as_mut_ptr());
            // Phase 1: pack every panel of this k-slab (A) and block
            // (B); jobs 0..apan are A panels, the rest B panels.
            pool.run(threads, apan + npan, &move |job| {
                if job < apan {
                    let row0 = job * mr;
                    let live = mr.min(m - row0);
                    // SAFETY: job < apan owns exactly the A slice
                    // [job·mr·kcw, (job+1)·mr·kcw) — in bounds of the
                    // apan·mr·kcw buffer and disjoint from every other
                    // job's slice; the buffer outlives the pool call.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(ap.get().add(job * mr * kcw), mr * kcw)
                    };
                    pack_a_panel(a, row0, pc, live, kcw, mr, dst);
                } else {
                    let p = job - apan;
                    let col0 = p * nr;
                    let live = nr.min(ncw - col0);
                    // SAFETY: as above for the B slice of panel p.
                    let dst = unsafe {
                        std::slice::from_raw_parts_mut(bp.get().add(p * nr * kcw), nr * kcw)
                    };
                    pack_b_panel(b, pc, jc + col0, live, kcw, nr, dst);
                }
            });
            // Phase 2: 2-D tile jobs over (row block, column panel).
            // pool.run's completion barrier orders every pack write
            // before any compute read.
            pool.run(threads, nblocks * npan, &move |job| {
                let ic = (job / npan) * bl.mc;
                let jr = job % npan;
                let mcw = bl.mc.min(m - ic);
                let nrw = nr.min(ncw - jr * nr);
                // SAFETY: shared re-borrow of the fully packed,
                // no-longer-written B panel jr (pack phase completed
                // under the pool barrier above).
                let bpan = unsafe {
                    std::slice::from_raw_parts(bp.get().add(jr * nr * kcw).cast_const(), nr * kcw)
                };
                for ir in 0..mcw.div_ceil(mr) {
                    // mc is a multiple of mr (tune::resolve), so block
                    // boundaries align with packed A panel boundaries.
                    let row0 = ic + ir * mr;
                    let mrw = mr.min(m - row0);
                    // SAFETY: shared re-borrow of packed A panel
                    // row0/mr, same argument as the B panel.
                    let apanel = unsafe {
                        std::slice::from_raw_parts(
                            ap.get().add((row0 / mr) * mr * kcw).cast_const(),
                            mr * kcw,
                        )
                    };
                    // SAFETY: the tile spans rows row0 .. +mrw and
                    // columns jc+jr·nr .. +nrw, inside the m × ldc
                    // bounds of `C`; this (job, ir) pair is the tile's
                    // only writer (jobs partition the (block, panel)
                    // grid and ir walks disjoint row panels).
                    unsafe {
                        let tile = cp.get().add(row0 * ldc + jc + jr * nr);
                        mk.run(apanel, bpan, tile, ldc, mrw, nrw);
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Kernel> {
        vec![
            Kernel::Naive,
            Kernel::Ikj,
            Kernel::Blocked(4),
            Kernel::Blocked(64),
            Kernel::packed(),
            Kernel::packed_mt(2),
            Kernel::Packed {
                mc: 8,
                kc: 3,
                nc: 16,
                threads: 1,
            },
        ]
    }

    fn impls() -> Vec<MicrokernelImpl> {
        let mut v = vec![MicrokernelImpl::Scalar];
        if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
            v.push(MicrokernelImpl::Avx2);
        }
        v
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::random(9, 9, 3);
        let i = Matrix::identity(9);
        for k in kernels() {
            let mut c = Matrix::zeros(9, 9);
            gemm_acc(&mut c, &a, &i, k);
            assert!(c.max_abs_diff(&a) < 1e-12, "kernel {k:?}");
        }
    }

    #[test]
    fn kernels_agree_on_rectangular_shapes() {
        let a = Matrix::random(7, 13, 1);
        let b = Matrix::random(13, 5, 2);
        let mut base = Matrix::zeros(7, 5);
        gemm_acc(&mut base, &a, &b, Kernel::Naive);
        for k in kernels() {
            for mk in impls() {
                let mut c = Matrix::zeros(7, 5);
                gemm_acc_with_microkernel(&mut c, &a, &b, k, mk);
                assert!(c.max_abs_diff(&base) < 1e-10, "kernel {k:?} impl {mk:?}");
            }
        }
    }

    #[test]
    fn gemm_accumulates_rather_than_overwrites() {
        for k in [Kernel::Ikj, Kernel::packed()] {
            let a = Matrix::identity(3);
            let b = Matrix::identity(3);
            let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
            gemm_acc(&mut c, &a, &b, k);
            assert_eq!(c[(0, 0)], 2.0, "kernel {k:?}");
            assert_eq!(c[(0, 1)], 1.0, "kernel {k:?}");
        }
    }

    #[test]
    fn known_small_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn packed_is_bitwise_stable_across_thread_counts() {
        // Small products take the single-threaded fast path whatever
        // `threads` says, so this exercises the *request* surface; the
        // parallel driver itself is pinned by the direct tests below
        // and the above-threshold suite in tests/determinism.rs.
        let a = Matrix::random(37, 23, 11);
        let b = Matrix::random(23, 61, 12);
        let mut base = Matrix::zeros(37, 61);
        gemm_acc(
            &mut base,
            &a,
            &b,
            Kernel::Packed {
                mc: 16,
                kc: 8,
                nc: 16,
                threads: 1,
            },
        );
        for threads in [2usize, 3, 4, 8] {
            let mut c = Matrix::zeros(37, 61);
            gemm_acc(
                &mut c,
                &a,
                &b,
                Kernel::Packed {
                    mc: 16,
                    kc: 8,
                    nc: 16,
                    threads,
                },
            );
            assert_eq!(c, base, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_driver_matches_serial_bitwise() {
        // Call the parallel driver directly (bypassing the small-job
        // fast path) on shapes that span several blocks and panels in
        // both dimensions, including ragged edges. Runs under miri too
        // — this is the cheapest full exercise of the SendPtr sharing.
        for mk in impls() {
            for (m, k, n) in [(37, 23, 61), (64, 16, 40), (13, 9, 90), (70, 70, 70)] {
                let a = Matrix::random(m, k, 7 + m as u64);
                let b = Matrix::random(k, n, 8 + n as u64);
                let bl = Blocking {
                    mc: 24usize.next_multiple_of(mk.mr()),
                    kc: 16,
                    nc: 32usize.next_multiple_of(mk.nr()),
                };
                let mut want = Matrix::zeros(m, n);
                packed_serial(&mut want, &a, &b, &bl, mk);
                for threads in [2usize, 4] {
                    let mut got = Matrix::zeros(m, n);
                    packed_parallel(&mut got, &a, &b, &bl, threads, mk);
                    assert_eq!(got, want, "{mk:?} {m}x{k}x{n} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn microkernel_impls_agree_bitwise_at_shared_kc() {
        // The cross-impl half of the determinism contract: same kc ⇒
        // same bits, whatever the tile shape. mc/nc deliberately differ
        // between the two runs to show they are bitwise-neutral.
        if MicrokernelImpl::detect() != MicrokernelImpl::Avx2 {
            return;
        }
        let (m, k, n) = (45, 33, 52);
        let a = Matrix::random(m, k, 91);
        let b = Matrix::random(k, n, 92);
        let mut scalar = Matrix::zeros(m, n);
        gemm_acc_with_microkernel(
            &mut scalar,
            &a,
            &b,
            Kernel::Packed {
                mc: 16,
                kc: 8,
                nc: 24,
                threads: 1,
            },
            MicrokernelImpl::Scalar,
        );
        let mut simd = Matrix::zeros(m, n);
        gemm_acc_with_microkernel(
            &mut simd,
            &a,
            &b,
            Kernel::Packed {
                mc: 30,
                kc: 8,
                nc: 40,
                threads: 2,
            },
            MicrokernelImpl::Avx2,
        );
        assert_eq!(scalar, simd);
    }

    #[test]
    fn packed_handles_degenerate_shapes() {
        for (m, k, n) in [(0, 4, 4), (4, 0, 4), (4, 4, 0), (1, 1, 1), (1, 9, 1)] {
            let a = Matrix::random(m, k, 1);
            let b = Matrix::random(k, n, 2);
            let mut want = Matrix::zeros(m, n);
            gemm_acc(&mut want, &a, &b, Kernel::Naive);
            let mut got = Matrix::zeros(m, n);
            gemm_acc(&mut got, &a, &b, Kernel::packed());
            assert!(got.max_abs_diff(&want) < 1e-12, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn default_kernel_is_packed_single_threaded() {
        assert_eq!(Kernel::default(), Kernel::packed());
        assert!(matches!(
            Kernel::default(),
            Kernel::Packed { threads: 1, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}
