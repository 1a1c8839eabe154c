//! The register-tiled inner kernels of the packed GEMM path, behind one
//! dispatch point.
//!
//! One call computes a single `mr × nr` tile of `C += A·B` from packed
//! panels (see [`crate::pack`] for the layout). Two implementations live
//! behind [`MicrokernelImpl`]:
//!
//! * **`Avx2`** (x86_64 with AVX2+FMA, runtime-detected): an explicit
//!   `f64x4` kernel over a `6 × 8` tile — twelve 256-bit accumulators,
//!   two packed-`B` loads and six `A` broadcasts feeding twelve
//!   `vfmadd231pd` per `k` step (the BLIS Haswell shape; 15 of the 16
//!   architectural `ymm` registers are live).
//! * **`Scalar`** (everything else, `cfg(miri)`, and the
//!   `CUBEMM_FORCE_SCALAR=1` override): the portable `4 × 8` tile with
//!   one `f64::mul_add` per element step.
//!
//! Pack, GEMM-driver, and ABFT code never name a lane width: they ask the
//! active impl for its `mr()`/`nr()` and call [`MicrokernelImpl::run`].
//!
//! # Bitwise contract
//!
//! Both kernels compute every `C` element as the *same* float sequence:
//! one private accumulator per element, updated by a fused multiply-add
//! (single rounding) for `k` ascending, then one plain add into `C` per
//! `kc` block. `f64::mul_add` and `vfmadd` are both correctly rounded,
//! so for a fixed `kc` split the product is **bit-for-bit identical**
//! across `Scalar`/`Avx2` and across every tile shape and thread count
//! (pinned by `tests/determinism.rs`). On targets that lack a hardware
//! FMA the scalar kernel falls back to the (slower, still correctly
//! rounded) libm `fma`, preserving the bits.

use std::sync::OnceLock;

/// Largest microkernel tile height any impl uses (panel-slice bound for
/// stack-allocated scratch in pack/microkernel internals).
pub const MAX_MR: usize = 8;
/// Largest microkernel tile width any impl uses.
pub const MAX_NR: usize = 8;

/// Tile height of the portable scalar microkernel.
pub const SCALAR_MR: usize = 4;
/// Tile width of the portable scalar microkernel.
pub const SCALAR_NR: usize = 8;

/// Tile height of the AVX2 microkernel.
pub const AVX2_MR: usize = 6;
/// Tile width of the AVX2 microkernel.
pub const AVX2_NR: usize = 8;

/// Whether `CUBEMM_FORCE_SCALAR` is set to anything but `0`/empty: the
/// one override that pins both the packed microkernel and the reference
/// kernel ([`crate::gemm::BlockedImpl`]) to their portable builds.
pub(crate) fn scalar_forced() -> bool {
    std::env::var("CUBEMM_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Which register-tiled inner kernel the packed GEMM runs.
///
/// The selection is a pure function of the host: [`MicrokernelImpl::active`]
/// caches the runtime-detected best kernel for the process. Code that
/// needs a *specific* impl (the forced-scalar determinism suite, the
/// `packed-scalar` bench rows) passes one explicitly through
/// [`crate::gemm::gemm_acc_with_microkernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicrokernelImpl {
    /// Portable `4 × 8` tile, `f64::mul_add` per element step.
    Scalar,
    /// `6 × 8` tile of `f64x4` FMA intrinsics (x86_64, AVX2+FMA).
    Avx2,
}

impl MicrokernelImpl {
    /// Detects the best implementation the host can run. Ignores the
    /// `CUBEMM_FORCE_SCALAR` override; most callers want
    /// [`MicrokernelImpl::active`].
    pub fn detect() -> MicrokernelImpl {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return MicrokernelImpl::Avx2;
            }
        }
        MicrokernelImpl::Scalar
    }

    /// The process-wide selected implementation: [`MicrokernelImpl::detect`]
    /// unless `CUBEMM_FORCE_SCALAR` is set to anything but `0`/empty
    /// (read once; the choice never changes within a process, which is
    /// what keeps repeated runs — ABFT reruns, serve fingerprints —
    /// bitwise stable).
    pub fn active() -> MicrokernelImpl {
        static ACTIVE: OnceLock<MicrokernelImpl> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            if scalar_forced() {
                MicrokernelImpl::Scalar
            } else {
                MicrokernelImpl::detect()
            }
        })
    }

    /// Tile height (rows of `C` per register tile).
    #[inline]
    pub const fn mr(self) -> usize {
        match self {
            MicrokernelImpl::Scalar => SCALAR_MR,
            MicrokernelImpl::Avx2 => AVX2_MR,
        }
    }

    /// Tile width (columns of `C` per register tile).
    #[inline]
    pub const fn nr(self) -> usize {
        match self {
            MicrokernelImpl::Scalar => SCALAR_NR,
            MicrokernelImpl::Avx2 => AVX2_NR,
        }
    }

    /// Stable name, used by the tuning file to key persisted blocking
    /// parameters to the kernel they were measured with.
    pub const fn name(self) -> &'static str {
        match self {
            MicrokernelImpl::Scalar => "scalar-4x8",
            MicrokernelImpl::Avx2 => "avx2-6x8",
        }
    }

    /// Computes `C[0..mr, 0..nr] += Ap · Bp` for one register tile.
    ///
    /// `ap` is one packed `self.mr()`-row panel and `bp` one packed
    /// `self.nr()`-column panel, both `kc` steps long
    /// (`ap.len() == kc * self.mr()`, `bp.len() == kc * self.nr()`);
    /// panels are zero-padded by the packers, so the full tile is
    /// computed and only the write-back is masked to the `mr × nr` live
    /// region.
    ///
    /// # Safety
    ///
    /// `c` must point at the tile's top-left element of a row-major
    /// matrix with row stride `ldc >= nr`, valid for reads and writes
    /// over the `mr` rows × `nr` columns footprint. Distinct tiles may
    /// be updated concurrently from several threads **only if their
    /// footprints are disjoint** (the packed driver gives every tile
    /// exactly one writer). An `Avx2` value must only be run on a host
    /// where AVX2 and FMA were detected.
    pub unsafe fn run(self, ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
        debug_assert_eq!(ap.len() % self.mr(), 0);
        debug_assert_eq!(bp.len() % self.nr(), 0);
        debug_assert_eq!(ap.len() / self.mr(), bp.len() / self.nr());
        debug_assert!(mr <= self.mr() && nr <= self.nr() && nr <= ldc);
        match self {
            MicrokernelImpl::Scalar => {
                // SAFETY: forwarded caller contract (footprint validity).
                unsafe { scalar_microkernel(ap, bp, c, ldc, mr, nr) }
            }
            MicrokernelImpl::Avx2 => {
                #[cfg(all(target_arch = "x86_64", not(miri)))]
                // SAFETY: forwarded caller contract; the caller guarantees
                // AVX2+FMA were detected before constructing this variant.
                unsafe {
                    avx2_microkernel(ap, bp, c, ldc, mr, nr)
                }
                #[cfg(not(all(target_arch = "x86_64", not(miri))))]
                // SAFETY: forwarded caller contract (footprint validity).
                unsafe {
                    scalar_microkernel(ap, bp, c, ldc, mr, nr)
                }
            }
        }
    }
}

/// The portable tile body, generic so the FMA-target wrapper below can
/// re-instantiate it with hardware fused multiply-adds.
///
/// # Safety
/// See [`MicrokernelImpl::run`].
#[inline(always)]
unsafe fn scalar_body(ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
    let mut acc = [[0.0f64; SCALAR_NR]; SCALAR_MR];
    for (av, bv) in ap.chunks_exact(SCALAR_MR).zip(bp.chunks_exact(SCALAR_NR)) {
        for i in 0..SCALAR_MR {
            let ai = av[i];
            for j in 0..SCALAR_NR {
                // One fused multiply-add per element step: the single
                // rounding is what makes this path bit-identical to the
                // AVX2 kernel's vfmadd lanes.
                acc[i][j] = ai.mul_add(bv[j], acc[i][j]);
            }
        }
    }
    for (i, row) in acc.iter().take(mr).enumerate() {
        // SAFETY: take(mr)/take(nr) clamp the walk to the mr × nr live
        // region of the caller-guaranteed footprint.
        let crow = unsafe { c.add(i * ldc) };
        for (j, &v) in row.iter().take(nr).enumerate() {
            // SAFETY: see above; j < nr <= ldc keeps the offset in row i.
            unsafe { *crow.add(j) += v };
        }
    }
}

/// Dispatches the scalar tile to the FMA-compiled instantiation when the
/// hardware has one (so `mul_add` is a single instruction, not a libm
/// call), falling back to the portable build.
///
/// # Safety
/// See [`MicrokernelImpl::run`].
unsafe fn scalar_microkernel(
    ap: &[f64],
    bp: &[f64],
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the fma feature was just detected; tile contract
            // forwarded from the caller.
            return unsafe { scalar_body_fma(ap, bp, c, ldc, mr, nr) };
        }
    }
    // SAFETY: tile contract forwarded from the caller.
    unsafe { scalar_body(ap, bp, c, ldc, mr, nr) }
}

/// The portable tile recompiled with the `fma` target feature, so every
/// `f64::mul_add` lowers to one `vfmadd` instruction (bit-identical to
/// the libm fallback — both are correctly rounded).
///
/// # Safety
/// See [`MicrokernelImpl::run`]; additionally the host must support the
/// `fma` target feature.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "fma")]
unsafe fn scalar_body_fma(ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
    // SAFETY: tile contract forwarded from the caller.
    unsafe { scalar_body(ap, bp, c, ldc, mr, nr) }
}

/// The `6 × 8` AVX2+FMA tile: twelve `f64x4` accumulators held in
/// registers across the whole `k` loop.
///
/// # Safety
/// See [`MicrokernelImpl::run`]; additionally the host must support the
/// `avx2` and `fma` target features (the dispatcher checked).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn avx2_microkernel(ap: &[f64], bp: &[f64], c: *mut f64, ldc: usize, mr: usize, nr: usize) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    let kc = bp.len() / AVX2_NR;
    // acc[i][h] covers C[i][4h .. 4h+4]; 12 ymm registers, plus two for
    // the B panel and one broadcast — LLVM keeps all of them resident.
    let mut acc = [[_mm256_setzero_pd(); 2]; AVX2_MR];
    let mut a = ap.as_ptr();
    let mut b = bp.as_ptr();
    for _ in 0..kc {
        // SAFETY: `b` walks bp in NR-sized steps for kc = bp.len()/NR
        // iterations, so both 4-lane loads stay inside the panel.
        // Packed panels are f64-aligned; loadu has no alignment demand.
        let b0 = unsafe { _mm256_loadu_pd(b) };
        // SAFETY: as above, offset 4 of the 8-wide step.
        let b1 = unsafe { _mm256_loadu_pd(b.add(4)) };
        for (i, accr) in acc.iter_mut().enumerate() {
            // SAFETY: `a` walks ap in MR-sized steps for kc =
            // ap.len()/MR iterations; i < MR keeps the lane in-step.
            let ai = unsafe { _mm256_set1_pd(*a.add(i)) };
            accr[0] = _mm256_fmadd_pd(ai, b0, accr[0]);
            accr[1] = _mm256_fmadd_pd(ai, b1, accr[1]);
        }
        // SAFETY: the loop bounds above keep both pointers inside their
        // panels until the final (unused) post-increment.
        a = unsafe { a.add(AVX2_MR) };
        // SAFETY: as above.
        b = unsafe { b.add(AVX2_NR) };
    }
    if mr == AVX2_MR && nr == AVX2_NR {
        for (i, accr) in acc.iter().enumerate() {
            // SAFETY: full tile: i < MR = mr rows inside the caller's
            // footprint; each row touches columns 0..8 = nr <= ldc.
            let crow = unsafe { c.add(i * ldc) };
            // SAFETY: see above — both halves of row i are in bounds;
            // unaligned C rows are allowed (loadu/storeu).
            unsafe {
                _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), accr[0]));
                _mm256_storeu_pd(
                    crow.add(4),
                    _mm256_add_pd(_mm256_loadu_pd(crow.add(4)), accr[1]),
                );
            }
        }
    } else {
        // Ragged edge: spill the accumulators and mask the write-back.
        let mut spill = [[0.0f64; AVX2_NR]; AVX2_MR];
        for (i, accr) in acc.iter().enumerate() {
            // SAFETY: spill rows are 8 f64s — exactly two 4-lane stores.
            unsafe {
                _mm256_storeu_pd(spill[i].as_mut_ptr(), accr[0]);
                _mm256_storeu_pd(spill[i].as_mut_ptr().add(4), accr[1]);
            }
        }
        for (i, row) in spill.iter().take(mr).enumerate() {
            // SAFETY: take(mr)/take(nr) clamp the walk to the mr × nr
            // live region of the caller-guaranteed footprint.
            let crow = unsafe { c.add(i * ldc) };
            for (j, &v) in row.iter().take(nr).enumerate() {
                // SAFETY: see above; j < nr <= ldc keeps the offset in row i.
                unsafe { *crow.add(j) += v };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
    use crate::Matrix;

    fn impls() -> Vec<MicrokernelImpl> {
        let mut v = vec![MicrokernelImpl::Scalar];
        if MicrokernelImpl::detect() == MicrokernelImpl::Avx2 {
            v.push(MicrokernelImpl::Avx2);
        }
        v
    }

    #[test]
    fn full_tile_matches_scalar_product() {
        for mk in impls() {
            let (m, k, n) = (mk.mr(), 5, mk.nr());
            let a = Matrix::random(m, k, 7);
            let b = Matrix::random(k, n, 8);
            let mut ap = vec![0.0; packed_a_len(m, k, mk.mr())];
            let mut bp = vec![0.0; packed_b_len(k, n, mk.nr())];
            pack_a(&a, 0, 0, m, k, mk.mr(), &mut ap);
            pack_b(&b, 0, 0, k, n, mk.nr(), &mut bp);
            let mut c = Matrix::zeros(m, n);
            // SAFETY: `c` is m × n row-major with ldc = n; the full tile
            // fits, and `mk` came from detection.
            unsafe { mk.run(&ap, &bp, c.as_mut_slice().as_mut_ptr(), n, m, n) };
            let mut want = Matrix::zeros(m, n);
            for i in 0..m {
                for j in 0..n {
                    for l in 0..k {
                        want[(i, j)] += a[(i, l)] * b[(l, j)];
                    }
                }
            }
            assert!(c.max_abs_diff(&want) < 1e-12, "{mk:?}");
        }
    }

    #[test]
    fn masked_edge_tile_leaves_outside_untouched() {
        for mk in impls() {
            let (mr, nr, k) = (mk.mr() - 1, mk.nr() - 3, 4);
            let a = Matrix::random(mr, k, 1);
            let b = Matrix::random(k, nr, 2);
            let mut ap = vec![0.0; packed_a_len(mr, k, mk.mr())];
            let mut bp = vec![0.0; packed_b_len(k, nr, mk.nr())];
            pack_a(&a, 0, 0, mr, k, mk.mr(), &mut ap);
            pack_b(&b, 0, 0, k, nr, mk.nr(), &mut bp);
            // Embed the tile in a larger C and check the frame stays put.
            let ldc = mk.nr() + 3;
            let mut c = Matrix::from_fn(mk.mr() + 1, ldc, |_, _| 9.0);
            // SAFETY: `c` is (MR+1) × ldc row-major; the masked mr × nr
            // tile at its top-left corner is in bounds.
            unsafe { mk.run(&ap, &bp, c.as_mut_slice().as_mut_ptr(), ldc, mr, nr) };
            for i in 0..mr {
                for j in 0..nr {
                    let mut want = 9.0;
                    for l in 0..k {
                        want += a[(i, l)] * b[(l, j)];
                    }
                    assert!((c[(i, j)] - want).abs() < 1e-12, "{mk:?} ({i},{j})");
                }
            }
            assert_eq!(c[(mr, 0)], 9.0, "{mk:?}");
            assert_eq!(c[(0, nr)], 9.0, "{mk:?}");
        }
    }

    #[test]
    fn impls_agree_bitwise_on_one_tile() {
        // The bitwise contract at its smallest scope: one full scalar
        // tile vs the same region of one AVX2 tile (when the host has
        // it). Padding rows/columns of the wider tile accumulate zeros
        // and are masked off, so the live region must match exactly.
        if MicrokernelImpl::detect() != MicrokernelImpl::Avx2 {
            return;
        }
        let (m, k, n) = (SCALAR_MR, 23, SCALAR_NR);
        let a = Matrix::random(m, k, 41);
        let b = Matrix::random(k, n, 42);
        let mut got = [Matrix::zeros(m, n), Matrix::zeros(m, n)];
        for (mi, mk) in [MicrokernelImpl::Scalar, MicrokernelImpl::Avx2]
            .into_iter()
            .enumerate()
        {
            let mut ap = vec![0.0; packed_a_len(m, k, mk.mr())];
            let mut bp = vec![0.0; packed_b_len(k, n, mk.nr())];
            pack_a(&a, 0, 0, m, k, mk.mr(), &mut ap);
            pack_b(&b, 0, 0, k, n, mk.nr(), &mut bp);
            // SAFETY: m × n row-major with ldc = n; m <= mk.mr() and
            // n <= mk.nr() masked tile; Avx2 only runs when detected.
            unsafe { mk.run(&ap, &bp, got[mi].as_mut_slice().as_mut_ptr(), n, m, n) };
        }
        assert_eq!(got[0], got[1], "scalar vs avx2 tile bits");
    }

    #[test]
    fn names_and_shapes_are_consistent() {
        assert_eq!(MicrokernelImpl::Scalar.name(), "scalar-4x8");
        assert_eq!(MicrokernelImpl::Avx2.name(), "avx2-6x8");
        assert_eq!(MicrokernelImpl::Scalar.mr(), 4);
        assert_eq!(MicrokernelImpl::Avx2.mr(), 6);
        for mk in [MicrokernelImpl::Scalar, MicrokernelImpl::Avx2] {
            assert!(mk.mr() <= MAX_MR && mk.nr() <= MAX_NR);
        }
        // active() is stable across calls within a process.
        assert_eq!(MicrokernelImpl::active(), MicrokernelImpl::active());
    }
}
