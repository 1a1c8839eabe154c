//! An owned, row-major dense matrix of `f64`.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// SplitMix64: advances `state` and returns the next 64 well-mixed bits.
///
/// The workspace's one seeded generator: test matrices, chaos campaigns
/// and the in-tree property tests all draw from it. It is tiny,
/// dependency-free and pure wrapping integer arithmetic, so seeded runs
/// stay bit-stable across platforms, toolchains and dependency
/// upgrades; none of its users needs cryptographic quality.
///
/// ```
/// let mut state = 0;
/// assert_eq!(cubemm_dense::splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
/// ```
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The next [`Matrix::random`] entry: 53 uniform mantissa bits mapped
/// onto `[-1, 1)`.
fn random_entry(state: &mut u64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    2.0 * u - 1.0
}

/// A matrix whose storage could not be allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    /// Rows requested.
    pub rows: usize,
    /// Columns requested.
    pub cols: usize,
    /// Bytes the storage needs; `None` when `rows · cols · 8` overflows
    /// `usize`.
    pub bytes: Option<usize>,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot allocate a {}x{} matrix ", self.rows, self.cols)?;
        match self.bytes {
            Some(bytes) => write!(f, "({bytes} bytes)"),
            None => write!(f, "(more than {} bytes)", usize::MAX),
        }
    }
}

impl std::error::Error for AllocError {}

/// An empty buffer with room for exactly `rows · cols` words, or the
/// typed error when the size overflows or the allocator refuses.
fn try_storage(rows: usize, cols: usize) -> Result<Vec<f64>, AllocError> {
    let words = rows.checked_mul(cols);
    let error = || AllocError {
        rows,
        cols,
        bytes: words.and_then(|w| w.checked_mul(std::mem::size_of::<f64>())),
    };
    let mut data = Vec::new();
    data.try_reserve_exact(words.ok_or_else(error)?)
        .map_err(|_| error())?;
    Ok(data)
}

/// Owned row-major dense matrix.
///
/// ```
/// use cubemm_dense::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.block(0, 1, 2, 2).as_slice(), &[1.0, 2.0, 4.0, 5.0]);
/// assert_eq!(m.transpose().rows(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a generator over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// [`Matrix::zeros`], allocated fallibly: an oversized request is a
    /// typed error instead of an abort.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, AllocError> {
        let mut data = try_storage(rows, cols)?;
        data.resize(rows * cols, 0.0);
        Ok(Matrix { rows, cols, data })
    }

    /// A reproducible pseudo-random matrix with entries in `[-1, 1)`.
    pub fn random(rows: usize, cols: usize, seed: u64) -> Self {
        let mut state = seed;
        let data = (0..rows * cols).map(|_| random_entry(&mut state)).collect();
        Matrix { rows, cols, data }
    }

    /// [`Matrix::random`], allocated fallibly: an oversized request is a
    /// typed error instead of an abort.
    pub fn try_random(rows: usize, cols: usize, seed: u64) -> Result<Self, AllocError> {
        let mut data = try_storage(rows, cols)?;
        let mut state = seed;
        data.extend((0..rows * cols).map(|_| random_entry(&mut state)));
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of stored words.
    #[inline]
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// Row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the rectangular block with top-left corner `(r0, c0)` and
    /// shape `br × bc` into a new matrix.
    pub fn block(&self, r0: usize, c0: usize, br: usize, bc: usize) -> Matrix {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        let mut data = Vec::with_capacity(br * bc);
        for r in r0..r0 + br {
            data.extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + bc]);
        }
        Matrix {
            rows: br,
            cols: bc,
            data,
        }
    }

    /// Copies the rectangular block with top-left corner `(r0, c0)` and
    /// shape `br × bc` into `dst`, reusing `dst`'s allocation when its
    /// capacity suffices — the zero-allocation staging counterpart of
    /// [`Matrix::block`] for per-step hot loops.
    pub fn block_into(&self, r0: usize, c0: usize, br: usize, bc: usize, dst: &mut Matrix) {
        assert!(
            r0 + br <= self.rows && c0 + bc <= self.cols,
            "block out of range"
        );
        dst.rows = br;
        dst.cols = bc;
        dst.data.clear();
        dst.data.reserve(br * bc);
        for r in r0..r0 + br {
            dst.data
                .extend_from_slice(&self.data[r * self.cols + c0..r * self.cols + c0 + bc]);
        }
    }

    /// Writes `src` into this matrix with top-left corner `(r0, c0)`.
    pub fn paste(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "paste out of range"
        );
        for r in 0..src.rows {
            let dst = (r0 + r) * self.cols + c0;
            self.data[dst..dst + src.cols].copy_from_slice(src.row(r));
        }
    }

    /// Adds `src` element-wise into the block with top-left `(r0, c0)`.
    pub fn add_into(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "add_into out of range"
        );
        for r in 0..src.rows {
            let dst = (r0 + r) * self.cols + c0;
            for (d, s) in self.data[dst..dst + src.cols].iter_mut().zip(src.row(r)) {
                *d += s;
            }
        }
    }

    /// Element-wise sum with another matrix of the same shape.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (d, s) in self.data.iter_mut().zip(&other.data) {
            *d += s;
        }
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Maximum absolute element-wise difference; the correctness metric
    /// used by every end-to-end test.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Copies the contents into a shared payload for the simulator.
    pub fn to_payload(&self) -> Arc<[f64]> {
        Arc::from(self.data.as_slice())
    }

    /// Moves the contents into a shared payload without copying.
    pub fn into_payload(self) -> Arc<[f64]> {
        Arc::from(self.data.into_boxed_slice())
    }

    /// Reconstructs a matrix from a payload (copies).
    ///
    /// # Panics
    /// Panics if the payload length is not `rows * cols`.
    pub fn from_payload(rows: usize, cols: usize, payload: &[f64]) -> Matrix {
        assert_eq!(payload.len(), rows * cols, "payload shape mismatch");
        Matrix {
            rows,
            cols,
            data: payload.to_vec(),
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for r in 0..show {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m[(2, 3)], 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn block_and_paste_roundtrip() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        let b = m.block(2, 3, 2, 3);
        assert_eq!(b[(0, 0)], 15.0);
        assert_eq!(b[(1, 2)], 23.0);
        let mut z = Matrix::zeros(6, 6);
        z.paste(2, 3, &b);
        assert_eq!(z[(3, 5)], 23.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn block_into_reuses_allocation_and_matches_block() {
        let m = Matrix::from_fn(6, 6, |r, c| (r * 6 + c) as f64);
        let mut dst = Matrix::zeros(4, 4); // capacity 16 >= 2*3
        let ptr = dst.data.as_ptr();
        m.block_into(2, 3, 2, 3, &mut dst);
        assert_eq!(dst, m.block(2, 3, 2, 3));
        assert_eq!(dst.data.as_ptr(), ptr, "staging buffer was reallocated");
    }

    #[test]
    fn add_into_accumulates() {
        let mut m = Matrix::zeros(4, 4);
        let one = Matrix::from_fn(2, 2, |_, _| 1.0);
        m.add_into(1, 1, &one);
        m.add_into(1, 1, &one);
        assert_eq!(m[(1, 1)], 2.0);
        assert_eq!(m[(2, 2)], 2.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::random(5, 7, 42);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn payload_roundtrip() {
        let m = Matrix::random(4, 3, 7);
        let p = m.to_payload();
        let back = Matrix::from_payload(4, 3, &p);
        assert_eq!(back, m);
    }

    #[test]
    fn random_is_reproducible() {
        assert_eq!(Matrix::random(8, 8, 1), Matrix::random(8, 8, 1));
        assert_ne!(Matrix::random(8, 8, 1), Matrix::random(8, 8, 2));
    }

    #[test]
    fn splitmix64_known_answers() {
        let mut state = 0;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn fallible_constructors_match_and_report_oversize() {
        assert_eq!(Matrix::try_random(5, 7, 3), Ok(Matrix::random(5, 7, 3)));
        assert_eq!(Matrix::try_zeros(4, 2), Ok(Matrix::zeros(4, 2)));
        assert_eq!(Matrix::try_random(0, 9, 1), Ok(Matrix::random(0, 9, 1)));
        // Sizes past isize::MAX bytes fail before the allocator is
        // asked at all, so these never touch memory.
        let err = Matrix::try_random(usize::MAX, 2, 1).unwrap_err();
        assert_eq!(err.bytes, None);
        assert!(err.to_string().starts_with("cannot allocate a "));
        let err = Matrix::try_zeros(1 << 30, 1 << 30).unwrap_err();
        assert_eq!(err.bytes, Some(1 << 63));
        assert_eq!(
            err.to_string(),
            "cannot allocate a 1073741824x1073741824 matrix (9223372036854775808 bytes)"
        );
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn block_bounds_checked() {
        let m = Matrix::zeros(3, 3);
        let _ = m.block(2, 2, 2, 2);
    }
}
