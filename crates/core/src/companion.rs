//! Companion-matrix view of a feedback recurrence.
//!
//! The state vector `(y[i], y[i-1], …, y[i-k+1])` advances by one step via
//! the companion matrix `C` of the feedback coefficients. This is the
//! representation Blelloch's Scan method materializes per element; here it
//! serves as an independent cross-check of the n-nacci correction factors:
//!
//! > `CorrectionTable::list(r)[i] == (C^{i+1})[0][r]`
//!
//! i.e. the factor multiplying carry `r` when correcting element `i` is an
//! entry of the `i+1`-st matrix power — which is why the Scan method's
//! matrix chains and PLR's factor lists compute the same thing, with PLR
//! hoisting the matrix powers to compile time.

use crate::element::Element;

/// A dense `k×k` matrix, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    k: usize,
    data: Vec<T>,
}

impl<T: Element> Matrix<T> {
    /// The identity matrix of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn identity(k: usize) -> Self {
        assert!(k > 0, "matrices must be at least 1×1");
        let mut data = vec![T::zero(); k * k];
        for i in 0..k {
            data[i * k + i] = T::one();
        }
        Matrix { k, data }
    }

    /// The companion matrix of `feedback`: row 0 holds the coefficients,
    /// the subdiagonal shifts the state.
    ///
    /// # Panics
    ///
    /// Panics if `feedback` is empty.
    pub fn companion(feedback: &[T]) -> Self {
        let k = feedback.len();
        assert!(k > 0, "companion matrices need at least one coefficient");
        let mut data = vec![T::zero(); k * k];
        data[..k].copy_from_slice(feedback);
        for i in 1..k {
            data[i * k + (i - 1)] = T::one();
        }
        Matrix { k, data }
    }

    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.k
    }

    /// Entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, row: usize, col: usize) -> T {
        assert!(row < self.k && col < self.k);
        self.data[row * self.k + col]
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.k, rhs.k, "dimension mismatch");
        let k = self.k;
        let mut data = vec![T::zero(); k * k];
        for i in 0..k {
            for l in 0..k {
                let a = self.data[i * k + l];
                if a.is_zero() {
                    continue;
                }
                for j in 0..k {
                    data[i * k + j] = data[i * k + j].add(a.mul(rhs.data[l * k + j]));
                }
            }
        }
        Matrix { k, data }
    }

    /// Matrix power by binary exponentiation (`n == 0` gives the identity).
    pub fn pow(&self, mut n: u64) -> Matrix<T> {
        let mut result = Matrix::identity(self.k);
        let mut base = self.clone();
        while n > 0 {
            if n & 1 == 1 {
                result = result.mul(&base);
            }
            base = base.mul(&base);
            n >>= 1;
        }
        result
    }

    /// Builds a matrix from row-major entries.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `data.len() != k·k`.
    pub fn from_parts(k: usize, data: Vec<T>) -> Self {
        assert!(k > 0, "matrices must be at least 1×1");
        assert_eq!(data.len(), k * k, "row-major data must hold k·k entries");
        Matrix { k, data }
    }

    /// Left-multiplies by the companion matrix of `feedback` in place:
    /// `self ← C(feedback) · self`.
    ///
    /// This is the incremental step that composes a chunk's per-element
    /// transition matrices in the time-varying lowering: `C` has a dense
    /// row 0 and a subdiagonal of ones, so the product is one `k`-tap
    /// combination of rows (the new row 0) followed by shifting every row
    /// down a slot — `O(k²)` instead of the dense `O(k³)` product.
    ///
    /// # Panics
    ///
    /// Panics if `feedback.len() != self.dim()`.
    pub fn companion_push(&mut self, feedback: &[T]) {
        let k = self.k;
        assert_eq!(feedback.len(), k, "dimension mismatch");
        let mut top = vec![T::zero(); k];
        for (j, slot) in top.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (r, &a) in feedback.iter().enumerate() {
                if a.is_zero() {
                    continue;
                }
                acc = acc.add(a.mul(self.data[r * k + j]));
            }
            *slot = acc;
        }
        // Shift rows 0..k-1 down by one, then install the new row 0.
        self.data.copy_within(0..k * (k - 1), k);
        self.data[..k].copy_from_slice(&top);
    }

    /// Whether every entry is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|x| x.is_zero())
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.k, "dimension mismatch");
        (0..self.k)
            .map(|i| {
                let mut acc = T::zero();
                for (j, &x) in v.iter().enumerate() {
                    acc = acc.add(self.data[i * self.k + j].mul(x));
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nacci::CorrectionTable;
    use crate::serial;

    #[test]
    fn companion_advances_the_state() {
        let fb = [2i64, -1];
        let c = Matrix::companion(&fb);
        // State (y1, y0) -> (y2, y1) with y2 = 2·y1 - y0.
        let next = c.apply(&[5, 3]);
        assert_eq!(next, vec![7, 5]);
    }

    #[test]
    fn power_by_squaring_matches_repeated_multiplication() {
        let c = Matrix::companion(&[1i64, 1]);
        let mut slow = Matrix::identity(2);
        for n in 0..12u64 {
            assert_eq!(c.pow(n), slow, "power {n}");
            slow = slow.mul(&c);
        }
    }

    #[test]
    fn correction_factors_are_companion_matrix_powers() {
        // The module-level identity, across several recurrences.
        for fb in [
            &[1i64][..],
            &[1, 1][..],
            &[2, -1][..],
            &[3, -3, 1][..],
            &[1, -2, 3, -1][..],
        ] {
            let k = fb.len();
            let m = 24;
            let table = CorrectionTable::generate(fb, m);
            let c = Matrix::companion(fb);
            for i in 0..m {
                let p = c.pow(i as u64 + 1);
                for r in 0..k {
                    assert_eq!(
                        table.list(r)[i],
                        p.get(0, r),
                        "feedback {fb:?}, entry {i}, carry {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_recurrence_matches_serial() {
        // Advancing the state vector with C reproduces the serial loop.
        let fb = [1.6f64, -0.64];
        let sig = crate::signature::Signature::new(vec![1.0], vec![1.6, -0.64]).unwrap();
        let input: Vec<f64> = (0..40).map(|i| ((i % 7) as f64) - 3.0).collect();
        let expect = serial::run(&sig, &input);
        let c = Matrix::companion(&fb);
        let mut state = vec![0.0f64; 2];
        for (i, &t) in input.iter().enumerate() {
            let mut next = c.apply(&state);
            next[0] += t;
            assert!((next[0] - expect[i]).abs() < 1e-9, "index {i}");
            state = next;
        }
    }

    #[test]
    fn fibonacci_entries() {
        let c = Matrix::companion(&[1u64 as i64, 1]);
        let p = c.pow(10);
        // C^10 [0][0] = Fib(11) with Fib(1)=1: 89.
        assert_eq!(p.get(0, 0), 89);
    }

    #[test]
    fn companion_push_matches_dense_product() {
        // Pushing a sequence of companions one at a time equals the dense
        // left-product of the same sequence, for orders 1..=4.
        for k in 1..=4usize {
            let rows: Vec<Vec<i64>> = (0..10)
                .map(|i| (0..k).map(|j| ((i * 3 + j * 5) % 7) as i64 - 3).collect())
                .collect();
            let mut incremental = Matrix::identity(k);
            let mut dense = Matrix::identity(k);
            for row in &rows {
                incremental.companion_push(row);
                dense = Matrix::companion(row).mul(&dense);
                assert_eq!(incremental, dense, "order {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_multiplication_panics() {
        let a = Matrix::companion(&[1i64]);
        let b = Matrix::companion(&[1i64, 1]);
        let _ = a.mul(&b);
    }
}
