//! Deterministic property sweeps for the topology crate.
//!
//! These were originally proptest strategies; they are now seeded,
//! reproducible sweeps so the workspace needs no external crates and a
//! failure is immediately reproducible from the printed case.

use cubemm_dense::splitmix64;
use cubemm_topology::bits::{deposit_bits, extract_bits, hamming};
use cubemm_topology::{gray, gray_inverse, Grid2, Grid3, Subcube};

#[test]
fn gray_is_a_bijection() {
    for i in (0..(1usize << 20)).step_by(89).chain([0, 1, (1 << 20) - 1]) {
        assert_eq!(gray_inverse(gray(i)), i, "i = {i}");
    }
}

#[test]
fn gray_is_gf2_linear() {
    // Linearity over GF(2) is what makes XOR-shifts commute with the
    // code; Cannon's hypercube form relies on it.
    let mut s = 1u64;
    for _ in 0..512 {
        let a = splitmix64(&mut s) as usize & 0xFFFF;
        let b = splitmix64(&mut s) as usize & 0xFFFF;
        assert_eq!(gray(a ^ b), gray(a) ^ gray(b), "a = {a}, b = {b}");
    }
}

#[test]
fn gray_neighbors_on_ring() {
    for bits in 1u32..12 {
        let q = 1usize << bits;
        for i in 0..q.min(512) {
            let j = (i + 1) % q;
            assert_eq!(hamming(gray(i) % q, gray(j) % q), 1, "bits {bits}, i {i}");
        }
    }
}

#[test]
fn deposit_extract_inverse() {
    let mut lcg = 7u64;
    for v in 0usize..256 {
        // Pick 8 distinct dimensions pseudo-randomly from the seed.
        let seed = splitmix64(&mut lcg);
        let mut dims: Vec<u32> = (0..32).collect();
        let mut s = seed;
        for i in (1..dims.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            dims.swap(i, j);
        }
        dims.truncate(8);
        let lab = deposit_bits(v, &dims);
        assert_eq!(extract_bits(lab, &dims), v, "v = {v}, dims = {dims:?}");
    }
}

#[test]
fn subcube_rank_member_roundtrip() {
    let mut s = 11u64;
    for dim in 1u32..10 {
        for _ in 0..16 {
            let base = splitmix64(&mut s) as usize & ((1 << 10) - 1);
            let sc = Subcube::new(base, (0..dim).collect());
            let rank = splitmix64(&mut s) as usize % sc.size();
            assert_eq!(sc.rank_of(sc.member(rank)), rank, "dim {dim}, base {base}");
        }
    }
}

#[test]
fn grid2_row_col_intersect_in_one_node() {
    for bits in 1u32..6 {
        let g = Grid2::new(1usize << (2 * bits)).unwrap();
        let q = g.q();
        for seed in (0..q * q).step_by(1 + q / 3) {
            let i = seed % q;
            let j = (seed / q) % q;
            let row = g.row(i);
            let col = g.col(j);
            let both: Vec<usize> = row.members().filter(|&n| col.contains(n)).collect();
            assert_eq!(both, vec![g.node(i, j)], "bits {bits}, i {i}, j {j}");
        }
    }
}

#[test]
fn grid3_lines_are_orthogonal() {
    for bits in 1u32..4 {
        let g = Grid3::new(1usize << (3 * bits)).unwrap();
        let q = g.q();
        for seed in (0..q * q * q).step_by(1 + q * q / 2) {
            let (i, j, k) = (seed % q, (seed / q) % q, (seed / q / q) % q);
            let x = g.x_line(j, k);
            let y = g.y_line(i, k);
            let z = g.z_line(i, j);
            let node = g.node(i, j, k);
            assert!(x.contains(node) && y.contains(node) && z.contains(node));
            // Pairwise intersections are exactly the node itself.
            for other in x.members() {
                if other != node {
                    assert!(!y.contains(other) && !z.contains(other));
                }
            }
        }
    }
}
