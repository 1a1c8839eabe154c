//! The reference kernel's bitwise contract.
//!
//! `gemm::reference` (and every `Kernel::Blocked(t)`) must return the
//! bits of the textbook `ikj` loop — one separately rounded multiply and
//! add per `(i, l, j)` step, `l` ascending — on every build the host can
//! run (portable, AVX2, AVX-512F), for every `l`-step depth, on ragged
//! shapes around each register tile, the `l` step and the column panel.
//! The pinned fingerprints are the products the verification path has
//! always returned; a change to any of them would change what `cubemm
//! run` and serve check against.

use cubemm_dense::gemm::{gemm_acc, gemm_blocked_with, reference, BlockedImpl, Kernel};
use cubemm_dense::Matrix;

/// `l`-step depths: degenerate, odd, smaller and larger than a register
/// tile, and the reference's own 64.
const TILES: [usize; 7] = [1, 2, 3, 5, 8, 15, 64];

/// The kernel suite's ragged shapes (tests/props.rs), then one below,
/// at and one above each register tile (`4 × 8`, `8 × 16`), the default
/// `l` step (64) and the column panel (256 columns).
const SHAPES: [(usize, usize, usize); 28] = [
    (1, 1, 1),
    (2, 3, 4),
    (5, 5, 5),
    (7, 11, 3),
    (11, 8, 11),
    (4, 8, 8),
    (6, 8, 8),
    (12, 5, 16),
    (13, 17, 9),
    (19, 23, 25),
    (1, 19, 1),
    (0, 5, 3),
    (3, 0, 0),
    (3, 6, 7),
    (4, 6, 8),
    (5, 6, 9),
    (7, 4, 15),
    (8, 4, 16),
    (9, 4, 17),
    (9, 63, 17),
    (9, 64, 17),
    (9, 65, 17),
    (17, 129, 33),
    (3, 2, 255),
    (4, 2, 256),
    (9, 2, 257),
    (8, 3, 513),
    (16, 70, 260),
];

/// The textbook `ikj` loop the reference must match bit for bit.
fn ikj_loop(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    for i in 0..a.rows() {
        for l in 0..a.cols() {
            for j in 0..b.cols() {
                c[(i, j)] += a[(i, l)] * b[(l, j)];
            }
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// The serve crate's FNV-1a product fingerprint, in its wire format.
fn fingerprint_hex(m: &Matrix) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &x in m.as_slice() {
        for byte in x.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The reference kernel is safe code, so Miri has nothing to check here
/// and the sweep would take minutes under it.
#[cfg_attr(miri, ignore = "safe code only; slow under Miri")]
#[test]
fn every_build_and_depth_matches_the_ikj_loop_bitwise() {
    for (case, &(m, k, n)) in SHAPES.iter().enumerate() {
        let seed = 9000 + 3 * case as u64;
        let a = Matrix::random(m, k, seed);
        let b = Matrix::random(k, n, seed + 1);
        let c0 = Matrix::random(m, n, seed + 2);
        let mut want = c0.clone();
        ikj_loop(&mut want, &a, &b);
        let want = bits(&want);
        for imp in BlockedImpl::available() {
            for tile in TILES {
                let mut got = c0.clone();
                gemm_blocked_with(&mut got, &a, &b, tile, imp);
                assert!(
                    bits(&got) == want,
                    "{imp:?} Blocked({tile}) drifted at {m}x{k}x{n}"
                );
            }
        }
        for tile in TILES {
            let mut got = c0.clone();
            gemm_acc(&mut got, &a, &b, Kernel::Blocked(tile));
            assert!(bits(&got) == want, "Blocked({tile}) at {m}x{k}x{n}");
        }
        let mut from_zero = Matrix::zeros(m, n);
        ikj_loop(&mut from_zero, &a, &b);
        assert!(
            bits(&reference(&a, &b)) == bits(&from_zero),
            "reference at {m}x{k}x{n}"
        );
    }
}

#[cfg(not(miri))]
#[test]
fn reference_fingerprint_is_pinned_on_every_build() {
    let a = Matrix::random(257, 131, 1);
    let b = Matrix::random(131, 389, 2);
    assert_eq!(fingerprint_hex(&reference(&a, &b)), "c7e62ec152f1c26e");
    for imp in BlockedImpl::available() {
        let mut c = Matrix::zeros(257, 389);
        gemm_blocked_with(&mut c, &a, &b, 64, imp);
        assert_eq!(fingerprint_hex(&c), "c7e62ec152f1c26e", "{imp:?}");
    }
}

/// The `cubemm run --n 1536` operand pair (seeds 1 and 2). Seconds per
/// build in release, minutes in a debug build, so debug runs skip it.
#[cfg(not(miri))]
#[cfg_attr(debug_assertions, ignore = "1536³ reference; run with --release")]
#[test]
fn large_reference_fingerprint_is_pinned_on_every_build() {
    let a = Matrix::random(1536, 1536, 1);
    let b = Matrix::random(1536, 1536, 2);
    for imp in BlockedImpl::available() {
        let mut c = Matrix::zeros(1536, 1536);
        gemm_blocked_with(&mut c, &a, &b, 64, imp);
        assert_eq!(fingerprint_hex(&c), "18599a68db1feee8", "{imp:?}");
    }
}

#[test]
fn force_scalar_env_pins_the_portable_build() {
    let forced = std::env::var("CUBEMM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if forced {
        assert_eq!(BlockedImpl::active(), BlockedImpl::Portable);
    } else {
        assert_eq!(BlockedImpl::active(), BlockedImpl::detect());
    }
    let builds = BlockedImpl::available();
    assert_eq!(builds[0], BlockedImpl::Portable);
    assert_eq!(builds.last(), Some(&BlockedImpl::detect()));
}
