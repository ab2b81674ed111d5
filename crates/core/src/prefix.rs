//! The prefix-sum family: its constructors, its classifier, the add-only
//! cascade kernels for its binomial members, and the paper's Table 1
//! catalog.

use crate::element::Element;
use crate::filters;
use crate::signature::Signature;
use crate::simd::{prefetch_ahead, LINE_BYTES};

/// The standard prefix sum `(1 : 1)`.
///
/// # Examples
///
/// ```
/// use plr_core::{prefix, serial};
///
/// let sig = prefix::prefix_sum::<i32>();
/// assert_eq!(serial::run(&sig, &[1, 2, 3]), vec![1, 3, 6]);
/// ```
pub fn prefix_sum<T: Element>() -> Signature<T> {
    Signature::new(vec![T::one()], vec![T::one()]).expect("(1:1) is always valid")
}

/// The `s`-tuple prefix sum `(1 : 0, …, 0, 1)` — `s` interleaved prefix
/// sums computed as a single order-`s` recurrence.
///
/// # Panics
///
/// Panics if `s == 0`.
pub fn tuple_prefix_sum<T: Element>(s: usize) -> Signature<T> {
    assert!(s >= 1, "tuple size must be at least 1");
    let mut feedback = vec![T::zero(); s];
    feedback[s - 1] = T::one();
    Signature::new(vec![T::one()], feedback).expect("tuple signature is always valid")
}

/// The `r`-th-order prefix sum (prefix sum applied `r` times): feedback
/// coefficients follow the binomial coefficients with alternating signs,
/// `b-j = (-1)^(j+1)·C(r, j)` — e.g. `(1: 2, -1)` and `(1: 3, -3, 1)`.
///
/// # Panics
///
/// Panics if `r == 0` or the binomials overflow `i64` (`r > 62`).
pub fn higher_order_prefix_sum<T: Element>(r: usize) -> Signature<T> {
    assert!(r >= 1, "order must be at least 1");
    assert!(r <= 62, "binomial coefficients overflow past order 62");
    let mut feedback = Vec::with_capacity(r);
    let mut binom: i128 = 1;
    for j in 1..=r {
        // C(r, j) computed incrementally; the product is exact in i128 and
        // every C(r, j) fits in i64 for r <= 62.
        binom = binom * (r - j + 1) as i128 / j as i128;
        let signed = if j % 2 == 1 { binom } else { -binom };
        feedback.push(T::from_f64(signed as f64));
    }
    Signature::new(vec![T::one()], feedback).expect("higher-order signature is always valid")
}

/// The prefix-sum family: the signatures the paper's CUB and SAM
/// baselines support, and whose binomial members the cascade kernel
/// solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixFamily {
    /// The standard prefix sum `(1 : 1)`.
    Standard,
    /// An `s`-tuple prefix sum `(1 : 0, …, 0, 1)` with `s >= 2`.
    Tuple(usize),
    /// An order-`r` prefix sum (binomial feedback) with `r >= 2`.
    HigherOrder(usize),
}

/// Classifies a signature into the prefix-sum family, if it belongs: a
/// pure-feedback signature whose feedback [`classify_feedback`] accepts.
///
/// # Examples
///
/// ```
/// use plr_core::prefix::{classify_prefix_family, PrefixFamily};
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i32> = "1: 0, 1".parse()?;
/// assert_eq!(classify_prefix_family(&sig), Some(PrefixFamily::Tuple(2)));
/// let filt: Signature<f32> = "0.2: 0.8".parse()?;
/// assert_eq!(classify_prefix_family(&filt), None);
/// # Ok::<(), plr_core::error::SignatureError>(())
/// ```
pub fn classify_prefix_family<T: Element>(signature: &Signature<T>) -> Option<PrefixFamily> {
    if !signature.is_pure_feedback() {
        return None;
    }
    classify_feedback(signature.feedback())
}

/// Classifies a feedback vector `b-1, …, b-k` into the prefix-sum family.
///
/// Higher orders match `b-j = (-1)^(j+1)·C(k, j)`; a binomial too large
/// for `i64` classifies as `None`.
///
/// # Examples
///
/// ```
/// use plr_core::prefix::{classify_feedback, PrefixFamily};
///
/// assert_eq!(classify_feedback(&[1i64]), Some(PrefixFamily::Standard));
/// assert_eq!(classify_feedback(&[3i64, -3, 1]), Some(PrefixFamily::HigherOrder(3)));
/// assert_eq!(classify_feedback(&[2i64, -2]), None);
/// ```
pub fn classify_feedback<T: Element>(feedback: &[T]) -> Option<PrefixFamily> {
    let k = feedback.len();
    let (&last, init) = feedback.split_last()?;
    if k == 1 && last.is_one() {
        return Some(PrefixFamily::Standard);
    }
    // Tuple: all zero except a trailing one.
    if init.iter().all(|c| c.is_zero()) && last.is_one() {
        return Some(PrefixFamily::Tuple(k));
    }
    // Higher order: C(k, j + 1) = C(k, j)·(k − j)/(j + 1), the product
    // taken in i128; a binomial past i64 ends the match.
    let mut binom: i64 = 1;
    for (j, &b) in feedback.iter().enumerate() {
        binom = i64::try_from(i128::from(binom) * (k - j) as i128 / (j + 1) as i128).ok()?;
        let expect = if j % 2 == 0 { binom } else { -binom };
        if b.to_f64() != expect as f64 {
            return None;
        }
    }
    Some(PrefixFamily::HigherOrder(k))
}

/// Highest `q` the cascade kernels serve.
pub const MAX_CASCADE_ORDER: usize = 4;

/// The add-only kernels for the binomial prefix sums `(1 − z⁻¹)^q`,
/// `q = 1..=`[`MAX_CASCADE_ORDER`]: `(1: 1)`, `(1: 2, -1)`,
/// `(1: 3, -3, 1)` and `(1: 4, -6, 4, -1)`.
///
/// Such a recurrence is `q` cascaded running sums. Level `l` keeps the
/// running sum of level `l − 1`, level `q − 1` is the output, and the
/// input feeds level 0. The solve is `q` adds per element and no
/// multiplies. With zero input, level 0 stays constant and the levels
/// above evaluate the carries' polynomial response by forward
/// differences; [`CascadeKernel::add_carry_response`] is that
/// correction.
///
/// The rewrite reorders additions, so it is an identity only where
/// addition is exact: the wrapping integers. Floats and exotic elements
/// never get a cascade kernel.
///
/// # Examples
///
/// ```
/// use plr_core::prefix::CascadeKernel;
/// use plr_core::serial;
///
/// let fb = [3i64, -3, 1];
/// let kernel = CascadeKernel::try_new(&fb).unwrap();
/// let input: Vec<i64> = (0..50).map(|i| (i % 7) - 3).collect();
/// let mut cascade = input.clone();
/// kernel.solve_in_place_with_history(&[5, -2], &mut cascade);
/// let mut scalar = input;
/// serial::recursive_in_place_with_history(&fb, &[5, -2], &mut scalar);
/// assert_eq!(cascade, scalar);
/// ```
#[derive(Debug, Clone)]
pub struct CascadeKernel<T> {
    feedback: Vec<T>,
}

impl<T: Element> CascadeKernel<T> {
    /// Builds the kernel, or `None` unless `T` adds exactly (the wrapping
    /// integers) and the feedback is `(1 − z⁻¹)^q` with
    /// `q <= `[`MAX_CASCADE_ORDER`].
    pub fn try_new(feedback: &[T]) -> Option<Self> {
        if T::IS_FLOAT || !T::BLOCKABLE {
            return None;
        }
        // The tuple sums' feedback is (1 − z⁻ˢ): stride s, not 1.
        let q = match classify_feedback(feedback)? {
            PrefixFamily::Standard => 1,
            PrefixFamily::HigherOrder(r) => r,
            PrefixFamily::Tuple(_) => return None,
        };
        (q <= MAX_CASCADE_ORDER).then(|| CascadeKernel {
            feedback: feedback.to_vec(),
        })
    }

    /// The number of cascaded running sums `q` (the recurrence order).
    pub fn order(&self) -> usize {
        self.feedback.len()
    }

    /// The feedback vector this kernel solves.
    pub fn feedback(&self) -> &[T] {
        &self.feedback
    }

    /// Solves in place with zero history, matching
    /// [`serial::recursive_in_place`](crate::serial::recursive_in_place).
    pub fn solve_in_place(&self, data: &mut [T]) {
        self.solve_in_place_with_history(&[], data);
    }

    /// Solves in place continuing from explicit history (`history[0]` is
    /// the value just before `data[0]`; missing entries are zero),
    /// matching [`serial::recursive_in_place_with_history`].
    ///
    /// [`serial::recursive_in_place_with_history`]: crate::serial::recursive_in_place_with_history
    pub fn solve_in_place_with_history(&self, history: &[T], data: &mut [T]) {
        match self.order() {
            1 => cascade_solve(levels::<T, 1>(history), data),
            2 => cascade_solve(levels::<T, 2>(history), data),
            3 => cascade_solve(levels::<T, 3>(history), data),
            4 => cascade_solve(levels::<T, 4>(history), data),
            _ => unreachable!("built only for orders 1..=MAX_CASCADE_ORDER"),
        }
    }

    /// Adds the zero-input response of `carries` to `chunk`: the
    /// correction of a chunk solved from zero history. `carries[r]` is
    /// the `r`-th last element before the chunk; missing carries are
    /// zero. Equals [`CorrectionTable::correct_chunk`] over the same
    /// feedback, without its table or multiplies.
    ///
    /// [`CorrectionTable::correct_chunk`]: crate::nacci::CorrectionTable::correct_chunk
    pub fn add_carry_response(&self, carries: &[T], chunk: &mut [T]) {
        if carries.iter().take(self.order()).all(|c| c.is_zero()) {
            return;
        }
        match self.order() {
            1 => cascade_respond(levels::<T, 1>(carries), chunk),
            2 => cascade_respond(levels::<T, 2>(carries), chunk),
            3 => cascade_respond(levels::<T, 3>(carries), chunk),
            4 => cascade_respond(levels::<T, 4>(carries), chunk),
            _ => unreachable!("built only for orders 1..=MAX_CASCADE_ORDER"),
        }
    }
}

/// The cascade's level states just before the data, from the history
/// `y[-1], …, y[-Q]` (missing entries zero): level `Q − 1 − m` holds the
/// `m`-th backward difference of `y` at `-1`.
fn levels<T: Element, const Q: usize>(history: &[T]) -> [T; Q] {
    let mut diff = [T::zero(); Q];
    for (d, &h) in diff.iter_mut().zip(history) {
        *d = h;
    }
    let mut level = [T::zero(); Q];
    for m in 0..Q {
        level[Q - 1 - m] = diff[0];
        for i in 0..Q - 1 - m {
            diff[i] = diff[i].sub(diff[i + 1]);
        }
    }
    level
}

/// Walks `data` one cache line at a time, prefetching ahead of each
/// line: the cascade streams a whole chunk from memory.
fn cascade_solve<T: Element, const Q: usize>(mut level: [T; Q], data: &mut [T]) {
    let per_line = (LINE_BYTES / std::mem::size_of::<T>()).max(1);
    for line in data.chunks_mut(per_line) {
        prefetch_ahead(line.as_ptr(), LINE_BYTES);
        for v in line {
            let mut x = *v;
            for s in level.iter_mut() {
                *s = s.add(x);
                x = *s;
            }
            *v = x;
        }
    }
}

fn cascade_respond<T: Element, const Q: usize>(mut level: [T; Q], chunk: &mut [T]) {
    for v in chunk.iter_mut() {
        for l in 1..Q {
            level[l] = level[l].add(level[l - 1]);
        }
        *v = v.add(level[Q - 1]);
    }
}

/// One named entry of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// A short identifier (used by the bench harness CLI).
    pub id: &'static str,
    /// The paper's description column.
    pub description: &'static str,
    /// The signature with exact (untruncated) coefficients.
    pub signature: Signature<f64>,
    /// `true` for the integer-evaluated recurrences (prefix sums),
    /// `false` for the floating-point digital filters.
    pub integral: bool,
}

/// The paper's Table 1: all eleven studied recurrences.
///
/// Filter coefficients are the exact cascade values (Table 1 truncates some
/// digits for readability).
pub fn catalog() -> Vec<CatalogEntry> {
    let e = |id, description, signature, integral| CatalogEntry {
        id,
        description,
        signature,
        integral,
    };
    vec![
        e("psum", "prefix sum", prefix_sum(), true),
        e("tuple2", "2-tuple prefix sum", tuple_prefix_sum(2), true),
        e("tuple3", "3-tuple prefix sum", tuple_prefix_sum(3), true),
        e(
            "order2",
            "2nd-order prefix sum",
            higher_order_prefix_sum(2),
            true,
        ),
        e(
            "order3",
            "3rd-order prefix sum",
            higher_order_prefix_sum(3),
            true,
        ),
        e(
            "lp1",
            "a 1-stage low-pass filter",
            filters::low_pass(0.8, 1),
            false,
        ),
        e(
            "lp2",
            "a 2-stage low-pass filter",
            filters::low_pass(0.8, 2),
            false,
        ),
        e(
            "lp3",
            "a 3-stage low-pass filter",
            filters::low_pass(0.8, 3),
            false,
        ),
        e(
            "hp1",
            "a 1-stage high-pass filter",
            filters::high_pass(0.8, 1),
            false,
        ),
        e(
            "hp2",
            "a 2-stage high-pass filter",
            filters::high_pass(0.8, 2),
            false,
        ),
        e(
            "hp3",
            "a 3-stage high-pass filter",
            filters::high_pass(0.8, 3),
            false,
        ),
    ]
}

/// Looks up a catalog entry by id.
pub fn catalog_entry(id: &str) -> Option<CatalogEntry> {
    catalog().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;

    #[test]
    fn tuple_prefix_sum_is_interleaved_scans() {
        let sig = tuple_prefix_sum::<i64>(3);
        assert_eq!(sig.feedback(), &[0, 0, 1]);
        let input: Vec<i64> = (1..=12).collect();
        let out = serial::run(&sig, &input);
        // Three interleaved prefix sums over lanes {1,4,7,10}, {2,5,8,11}, {3,6,9,12}.
        assert_eq!(out, vec![1, 2, 3, 5, 7, 9, 12, 15, 18, 22, 26, 30]);
    }

    #[test]
    fn higher_order_matches_iterated_prefix_sum() {
        let input: Vec<i64> = (0..40).map(|i| (i % 7) as i64 - 3).collect();
        for r in 1..=4 {
            let sig = higher_order_prefix_sum::<i64>(r);
            let direct = serial::run(&sig, &input);
            let mut iterated = input.clone();
            for _ in 0..r {
                iterated = serial::run(&prefix_sum::<i64>(), &iterated);
            }
            assert_eq!(direct, iterated, "order {r}");
        }
    }

    #[test]
    fn higher_order_signatures_match_paper() {
        assert_eq!(higher_order_prefix_sum::<i32>(2).feedback(), &[2, -1]);
        assert_eq!(higher_order_prefix_sum::<i32>(3).feedback(), &[3, -3, 1]);
        assert_eq!(
            higher_order_prefix_sum::<i32>(4).feedback(),
            &[4, -6, 4, -1]
        );
        assert_eq!(higher_order_prefix_sum::<i32>(1).feedback(), &[1]);
    }

    #[test]
    fn catalog_has_eleven_entries_matching_table_1() {
        let cat = catalog();
        assert_eq!(cat.len(), 11);
        let sig_strings: Vec<String> = cat.iter().map(|e| e.signature.to_string()).collect();
        assert_eq!(sig_strings[0], "(1: 1)");
        assert_eq!(sig_strings[1], "(1: 0, 1)");
        assert_eq!(sig_strings[2], "(1: 0, 0, 1)");
        assert_eq!(sig_strings[3], "(1: 2, -1)");
        assert_eq!(sig_strings[4], "(1: 3, -3, 1)");
        // Float entries checked numerically in filters::tests; here just the
        // integral flags.
        assert!(cat[..5].iter().all(|e| e.integral));
        assert!(cat[5..].iter().all(|e| !e.integral));
    }

    #[test]
    fn catalog_lookup() {
        assert!(catalog_entry("order3").is_some());
        assert_eq!(catalog_entry("order3").unwrap().signature.order(), 3);
        assert!(catalog_entry("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_tuple_rejected() {
        tuple_prefix_sum::<i32>(0);
    }

    #[test]
    fn classifies_standard() {
        assert_eq!(
            classify_prefix_family(&prefix_sum::<i32>()),
            Some(PrefixFamily::Standard)
        );
    }

    #[test]
    fn classifies_tuples() {
        for s in 2..=5 {
            assert_eq!(
                classify_prefix_family(&tuple_prefix_sum::<i64>(s)),
                Some(PrefixFamily::Tuple(s))
            );
        }
    }

    #[test]
    fn classifies_higher_orders() {
        for r in 2..=5 {
            assert_eq!(
                classify_prefix_family(&higher_order_prefix_sum::<i64>(r)),
                Some(PrefixFamily::HigherOrder(r))
            );
        }
        // The largest order `higher_order_prefix_sum` builds; the
        // classifier's products pass i64 on the way.
        assert_eq!(
            classify_prefix_family(&higher_order_prefix_sum::<f64>(62)),
            Some(PrefixFamily::HigherOrder(62))
        );
    }

    #[test]
    fn rejects_filters_and_general_recurrences() {
        let filt: Signature<f32> = "0.2:0.8".parse().unwrap();
        assert_eq!(classify_prefix_family(&filt), None);
        let gen: Signature<i32> = "1: 1, 2".parse().unwrap();
        assert_eq!(classify_prefix_family(&gen), None);
        let fir: Signature<i32> = "1, 1: 1".parse().unwrap();
        assert_eq!(classify_prefix_family(&fir), None);
        let neg: Signature<i32> = "1: -1".parse().unwrap();
        assert_eq!(classify_prefix_family(&neg), None);
        // Looks like order-2 but wrong second coefficient.
        let almost: Signature<i32> = "1: 2, 1".parse().unwrap();
        assert_eq!(classify_prefix_family(&almost), None);
        assert_eq!(classify_feedback::<i64>(&[]), None);
    }

    #[test]
    fn unrepresentable_binomials_classify_as_none() {
        // The exact order-70 binomial feedback, rounded to f64. C(70, 35)
        // is about 1.1e20, past i64: the classifier must decline, not
        // overflow.
        let r = 70u128;
        let mut binom = 1u128;
        let feedback: Vec<f64> = (1..=r)
            .map(|j| {
                binom = binom * (r - j + 1) / j;
                let v = binom as f64;
                if j % 2 == 1 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let sig = Signature::new(vec![1.0], feedback).unwrap();
        assert_eq!(classify_prefix_family(&sig), None);
    }

    #[test]
    fn levels_are_backward_differences() {
        // q = 2: s0 = y[-1] − y[-2], s1 = y[-1].
        assert_eq!(levels::<i64, 2>(&[7, 3]), [4, 7]);
        // q = 3 from y[-1..-3] = 10, 6, 1: ∇²y = (10 − 6) − (6 − 1) = −1.
        assert_eq!(levels::<i64, 3>(&[10, 6, 1]), [-1, 4, 10]);
        // Missing history is zero.
        assert_eq!(levels::<i64, 3>(&[5]), [5, 5, 5]);
        assert_eq!(levels::<i64, 2>(&[]), [0, 0]);
    }
}
