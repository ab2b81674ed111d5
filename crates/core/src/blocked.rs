//! Register-blocked serial kernels: level 0 of the paper's hierarchy.
//!
//! The paper's central trick — correct a chunk by multiplying its
//! predecessor's `k` carries with precomputed n-nacci factors — applies one
//! level below where the chunked executors use it: at *register-block*
//! granularity. A [`BlockedKernel`] processes the pure-feedback recurrence
//! in fixed [`BLOCK`]-element blocks:
//!
//! 1. **Local solution** — inside a block, the solution that assumes zero
//!    incoming history is a *triangular FIR* over the block's inputs,
//!    `y[i] = Σ_{j ≤ i} h[j]·t[i-j]`, where `h` is the recurrence's
//!    impulse response ([`crate::nacci::impulse_response`]). Every output
//!    is an independent dot product — no loop-carried dependency, so the
//!    compiler can keep multiple multiply-add chains in flight and
//!    autovectorize.
//! 2. **Carry application** — the incoming `k` carries are folded in with
//!    a precomputed `BLOCK×k` factor table (a length-[`BLOCK`] prefix of
//!    the same [`CorrectionTable`] the chunked executors use):
//!    `y[i] += Σ_r F_r[i]·c_r`, again dependency-free across the block.
//!
//! The per-element loop-carried dependency of the scalar loop becomes a
//! once-per-block dependency (the `k` carries read from the previous
//! block's tail), mirroring how the paper's GPU kernels break the
//! dependency at warp granularity.
//!
//! The rewrite is an identity in any commutative semiring (superposition of
//! the linear recurrence), so it is **exact** for the wrapping integers.
//! For floats it reassociates additions, giving ULP-level differences —
//! well inside the paper's 1e-3 validation bound. Element types that want
//! the scalar reference path verbatim (e.g. the max-plus semiring in
//! [`crate::tropical`]) opt out via [`Element::BLOCKABLE`].
//!
//! [`SolveKernel`] is the dispatch layer the executors embed. Under
//! [`KernelTier::Auto`] it picks the add-only cascade kernel of
//! [`crate::prefix`] for the integer binomial prefix sums, then the
//! explicit SIMD kernel of [`crate::simd`], then the blocked kernel by
//! order (`1..=`[`MAX_BLOCKED_ORDER`]), and falls back to the scalar
//! loops of [`crate::serial`] for high orders and exotic elements.
//! [`fir_in_place`] is the matching map-stage kernel: a branch-free
//! steady-state loop with unrolled specializations for small tap counts.

use crate::element::Element;
use crate::kernel::{self, KernelKind, KernelTier};
use crate::nacci::{carries_of, impulse_response, CorrectionTable};
use crate::prefix::CascadeKernel;
use crate::serial;
use crate::simd::{self, SimdKernel};

/// Elements per register block (`U` in the design notes).
///
/// Chosen so a block of `f64` spans a handful of SIMD registers: large
/// enough to amortize the once-per-block carry dependency, small enough
/// that the `O(BLOCK²/2)` local FIR stays cheap per element.
pub const BLOCK: usize = 16;

/// Highest recurrence order served by the blocked kernels.
///
/// Beyond order 4 the carry application and the factor table stop paying
/// for themselves and [`SolveKernel`] falls back to the scalar loop.
pub const MAX_BLOCKED_ORDER: usize = 4;

/// A register-blocked solver for one pure-feedback recurrence
/// `y[i] = t[i] + Σ b-j·y[i-j]` of order `1..=`[`MAX_BLOCKED_ORDER`].
///
/// Construction precomputes the truncated impulse response and the
/// intra-block carry factor table; [`BlockedKernel::solve_in_place`] then
/// does only multiply-adds.
///
/// # Examples
///
/// ```
/// use plr_core::blocked::BlockedKernel;
/// use plr_core::serial;
///
/// let fb = [2i64, -1];
/// let kernel = BlockedKernel::try_new(&fb).unwrap();
/// let input: Vec<i64> = (0..100).map(|i| (i % 7) - 3).collect();
/// let mut blocked = input.clone();
/// kernel.solve_in_place(&mut blocked);
/// let mut scalar = input;
/// serial::recursive_in_place(&fb, &mut scalar);
/// assert_eq!(blocked, scalar); // exact for integers
/// ```
#[derive(Debug, Clone)]
pub struct BlockedKernel<T> {
    feedback: Vec<T>,
    /// `h[0..BLOCK]` — impulse response of `(1 : b…)`; `h[0]` is one.
    impulse: [T; BLOCK],
    /// `factors[r][i]` — factor for carry `r` at block offset `i` (the
    /// length-[`BLOCK`] prefix of [`CorrectionTable::list`]).
    factors: Vec<[T; BLOCK]>,
}

impl<T: Element> BlockedKernel<T> {
    /// Builds the kernel, or `None` when the blocked form does not apply:
    /// order zero or above [`MAX_BLOCKED_ORDER`], or an element type that
    /// opted out via [`Element::BLOCKABLE`].
    pub fn try_new(feedback: &[T]) -> Option<Self> {
        let k = feedback.len();
        if !T::BLOCKABLE || k == 0 || k > MAX_BLOCKED_ORDER {
            return None;
        }
        let mut impulse = [T::zero(); BLOCK];
        impulse.copy_from_slice(&impulse_response(feedback, BLOCK));
        let table = CorrectionTable::generate(feedback, BLOCK);
        let factors = (0..k)
            .map(|r| {
                let mut f = [T::zero(); BLOCK];
                f.copy_from_slice(table.list(r));
                f
            })
            .collect();
        Some(BlockedKernel {
            feedback: feedback.to_vec(),
            impulse,
            factors,
        })
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.feedback.len()
    }

    /// The feedback vector this kernel solves.
    pub(crate) fn feedback(&self) -> &[T] {
        &self.feedback
    }

    /// The precomputed impulse-response prefix `h[0..BLOCK]`.
    pub(crate) fn impulse(&self) -> &[T; BLOCK] {
        &self.impulse
    }

    /// The precomputed carry-factor rows (`factors[r][i]`, `k` rows).
    pub(crate) fn factors(&self) -> &[[T; BLOCK]] {
        &self.factors
    }

    /// Solves `y[i] = t[i] + Σ b-j·y[i-j]` in place with zero history,
    /// matching [`serial::recursive_in_place`].
    pub fn solve_in_place(&self, data: &mut [T]) {
        self.solve_in_place_with_history(&[], data);
    }

    /// Solves in place continuing from explicit history (`history[0]` is
    /// the value just before `data[0]`), matching
    /// [`serial::recursive_in_place_with_history`].
    pub fn solve_in_place_with_history(&self, history: &[T], data: &mut [T]) {
        let k = self.feedback.len();
        let mut carries = [T::zero(); MAX_BLOCKED_ORDER];
        for (c, &h) in carries.iter_mut().zip(history.iter().take(k)) {
            *c = h;
        }
        let mut blocks = data.chunks_exact_mut(BLOCK);
        for block in blocks.by_ref() {
            let block: &mut [T; BLOCK] =
                block.try_into().expect("exact chunks have BLOCK elements");
            self.solve_block(block, &carries);
            for (r, c) in carries.iter_mut().enumerate().take(k) {
                *c = block[BLOCK - 1 - r];
            }
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            serial::recursive_in_place_with_history(&self.feedback, &carries[..k], tail);
        }
    }

    /// One block: triangular-FIR local solution, then carry application.
    /// Each output adds its terms smallest first, as contractive feedback
    /// orders them: the farthest impulse taps down to the nearest, then
    /// the carries, then the input itself. Adding the large input first
    /// would drop the small terms' low bits and take the forced blocked
    /// tier past the 4-ULP float bound; wrapping integers are exact in
    /// any order.
    #[inline]
    fn solve_block(&self, block: &mut [T; BLOCK], carries: &[T; MAX_BLOCKED_ORDER]) {
        let t = *block;
        let mut acc = [T::zero(); BLOCK];
        // The j ≥ 1 impulse taps, farthest first. Each j-pass is
        // dependency-free.
        for j in (1..BLOCK).rev() {
            let hj = self.impulse[j];
            for i in 0..BLOCK - j {
                acc[i + j] = acc[i + j].add(hj.mul(t[i]));
            }
        }
        // Incoming carries, once per block — the only serial dependency.
        for (f, &c) in self.factors.iter().zip(carries) {
            for (a, &fi) in acc.iter_mut().zip(f) {
                *a = a.add(fi.mul(c));
            }
        }
        // h[0] = 1: every input contributes itself, last.
        for (a, &x) in acc.iter_mut().zip(&t) {
            *a = a.add(x);
        }
        *block = acc;
    }
}

/// Elements per cancellation-poll slice of
/// [`SolveKernel::solve_in_place_sliced`]: a multiple of every kernel's
/// block size (so slicing never changes which elements share a block),
/// large enough that the per-slice poll and history hand-off are noise,
/// small enough that cancel-to-return latency stays in the tens of
/// microseconds even mid-kernel.
pub const SOLVE_SLICE: usize = 8192;

/// Outcome of a [`SolveKernel::solve_in_place_sliced`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlicedSolve {
    /// `false` when the poll callback stopped the solve early (the data
    /// is left with a solved prefix and untouched remainder).
    pub completed: bool,
    /// Slices processed (at most `⌈len / SOLVE_SLICE⌉`).
    pub slices: u64,
}

/// The solve-kernel dispatch the executors embed: cascaded running sums
/// for the integer binomial prefix sums, explicit SIMD where the CPU and
/// element type support it, register-blocked where only the blocked form
/// applies, scalar reference loop everywhere else. The effective
/// [`KernelTier`] (the `PLR_KERNEL` environment variable or its
/// programmatic override — see [`crate::kernel`]) can force a tier.
///
/// # Examples
///
/// ```
/// use plr_core::blocked::SolveKernel;
/// use plr_core::kernel::{KernelKind, KernelTier};
///
/// let fb = [1.6f64, -0.64];
/// // Auto dispatch never leaves low-order floats on the scalar loop.
/// assert!(!SolveKernel::select_with_tier(&fb, KernelTier::Auto).is_scalar());
/// // Order > 4 always falls back to the scalar loop.
/// assert!(SolveKernel::select_with_tier(&[0.1f64; 5], KernelTier::Auto).is_scalar());
/// // Forced tiers pin the choice regardless of the CPU.
/// let forced = SolveKernel::select_with_tier(&fb, KernelTier::Blocked);
/// assert_eq!(forced.kind(), KernelKind::Blocked);
/// // The integer second-order prefix sum is two running sums.
/// let psum2 = SolveKernel::select_with_tier(&[2i64, -1], KernelTier::Auto);
/// assert_eq!(psum2.kind(), KernelKind::Cascade);
/// ```
#[derive(Debug, Clone)]
pub enum SolveKernel<T> {
    /// Add-only cascaded running sums (integer binomial prefix sums
    /// `(1 − z⁻¹)^q`, `q = 1..=`[`MAX_CASCADE_ORDER`]).
    ///
    /// [`MAX_CASCADE_ORDER`]: crate::prefix::MAX_CASCADE_ORDER
    Cascade(CascadeKernel<T>),
    /// Explicit SIMD kernel (orders `1..=`[`MAX_BLOCKED_ORDER`], builtin
    /// scalar types, dispatched on the detected ISA).
    Simd(SimdKernel<T>),
    /// Register-blocked kernel (orders `1..=`[`MAX_BLOCKED_ORDER`],
    /// blockable element types).
    Blocked(BlockedKernel<T>),
    /// The scalar loops of [`crate::serial`] over this feedback vector
    /// (high orders, order zero, and elements with
    /// [`Element::BLOCKABLE`]` == false`).
    Scalar(Vec<T>),
}

impl<T: Element> SolveKernel<T> {
    /// Picks the kernel for a feedback vector under the process-wide
    /// [`kernel::tier`]. With the default [`KernelTier::Auto`]:
    ///
    /// * the `i32`/`i64` binomial prefix sums `(1: 1)`, `(1: 2, -1)`,
    ///   `(1: 3, -3, 1)` and `(1: 4, -6, 4, -1)` get the add-only cascade
    ///   kernel ([`CascadeKernel`]), exact in wrapping arithmetic and
    ///   faster than every multiply-based kernel;
    /// * other orders `1..=`[`MAX_BLOCKED_ORDER`] of the four builtin scalar
    ///   types get the explicit SIMD kernel when the CPU has the type's
    ///   one vector ISA ([`crate::simd::best_isa`]: AVX2+FMA, and for
    ///   `i64` AVX-512VL+DQ, whose `vpmullq` AVX2 lacks);
    /// * floats and integers fall back to the autovectorizable blocked
    ///   kernel otherwise;
    /// * high orders, order zero, and exotic elements keep the scalar
    ///   reference loop.
    pub fn select(feedback: &[T]) -> Self {
        Self::select_with_tier(feedback, kernel::tier())
    }

    /// [`SolveKernel::select`] with an explicit tier (differential tests
    /// and benches). Forcing `blocked` degrades gracefully to scalar.
    pub fn select_with_tier(feedback: &[T], tier: KernelTier) -> Self {
        if tier == KernelTier::Scalar {
            return SolveKernel::Scalar(feedback.to_vec());
        }
        if tier == KernelTier::Auto {
            if let Some(k) = CascadeKernel::try_new(feedback) {
                return SolveKernel::Cascade(k);
            }
            if let Some(k) = SimdKernel::try_new(feedback) {
                return SolveKernel::Simd(k);
            }
        }
        match BlockedKernel::try_new(feedback) {
            Some(k) => SolveKernel::Blocked(k),
            None => SolveKernel::Scalar(feedback.to_vec()),
        }
    }

    /// `true` when the register-blocked kernel was selected.
    pub fn is_blocked(&self) -> bool {
        matches!(self, SolveKernel::Blocked(_))
    }

    /// `true` when the scalar reference loop was selected.
    pub fn is_scalar(&self) -> bool {
        matches!(self, SolveKernel::Scalar(_))
    }

    /// Which kernel this dispatch runs, as reported in run statistics.
    pub fn kind(&self) -> KernelKind {
        match self {
            SolveKernel::Cascade(_) => KernelKind::Cascade,
            SolveKernel::Simd(k) => match k.isa() {
                simd::Isa::Avx2 => KernelKind::SimdAvx2,
                simd::Isa::Avx512 => KernelKind::SimdAvx512,
            },
            SolveKernel::Blocked(_) => KernelKind::Blocked,
            SolveKernel::Scalar(_) => KernelKind::Scalar,
        }
    }

    /// The feedback vector this kernel solves.
    pub fn feedback(&self) -> &[T] {
        match self {
            SolveKernel::Cascade(k) => k.feedback(),
            SolveKernel::Simd(k) => k.feedback(),
            SolveKernel::Blocked(k) => &k.feedback,
            SolveKernel::Scalar(fb) => fb,
        }
    }

    /// Solves the pure-feedback recurrence in place with zero history.
    pub fn solve_in_place(&self, data: &mut [T]) {
        match self {
            SolveKernel::Cascade(k) => k.solve_in_place(data),
            SolveKernel::Simd(k) => k.solve_in_place(data),
            SolveKernel::Blocked(k) => k.solve_in_place(data),
            SolveKernel::Scalar(fb) => serial::recursive_in_place(fb, data),
        }
    }

    /// Solves in place continuing from explicit history (`history[0]` is
    /// the value just before `data[0]`; missing entries are zero).
    pub fn solve_in_place_with_history(&self, history: &[T], data: &mut [T]) {
        match self {
            SolveKernel::Cascade(k) => k.solve_in_place_with_history(history, data),
            SolveKernel::Simd(k) => k.solve_in_place_with_history(history, data),
            SolveKernel::Blocked(k) => k.solve_in_place_with_history(history, data),
            SolveKernel::Scalar(fb) => serial::recursive_in_place_with_history(fb, history, data),
        }
    }

    /// Like [`SolveKernel::solve_in_place`], but in [`SOLVE_SLICE`]-sized
    /// slices with `keep_going` polled before each slice after the first,
    /// so a cancellation (or deadline) signal reaches a long single-chunk
    /// solve mid-kernel instead of after it.
    ///
    /// Slicing is exact: [`SOLVE_SLICE`] is a multiple of every kernel's
    /// block size and the inter-slice history hand-off reads the same
    /// values the unsliced kernel carries in registers, so the output is
    /// bit-identical to the unsliced solve for every tier.
    ///
    /// On an early stop the slices processed so far hold their final
    /// values and the rest of `data` is untouched.
    pub fn solve_in_place_sliced(
        &self,
        data: &mut [T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        let k = self.feedback().len();
        let n = data.len();
        // Degenerate cases run unsliced: short data, no feedback, or an
        // order so high a slice could not even hold the history hand-off.
        if n <= SOLVE_SLICE || k == 0 || k >= SOLVE_SLICE {
            self.solve_in_place(data);
            return SlicedSolve {
                completed: true,
                slices: 1,
            };
        }
        let mut slices = 0u64;
        let mut start = 0usize;
        while start < n {
            if start > 0 && !keep_going() {
                return SlicedSolve {
                    completed: false,
                    slices,
                };
            }
            let end = (start + SOLVE_SLICE).min(n);
            let (prev, rest) = data.split_at_mut(start);
            let history = carries_of(prev, k);
            self.solve_in_place_with_history(&history, &mut rest[..end - start]);
            slices += 1;
            start = end;
        }
        SlicedSolve {
            completed: true,
            slices,
        }
    }
}

/// Applies the FIR map `out[i] = Σ_j fir[j]·x[i-j]` to `chunk` in place,
/// walking right-to-left so every read of `chunk` sees original input.
///
/// `prev` holds the original inputs immediately left of the chunk, most
/// recent last (`prev[prev.len() - 1]` is `x[start - 1]`); `start` is the
/// chunk's global offset, used to zero terms that reach before the data.
///
/// The steady state (`i ≥ p - 1`, all taps inside the chunk) runs
/// branch-free, with fully unrolled specializations for 1–4 taps; only
/// the `p - 1` leading elements take the boundary-checking prologue.
pub fn fir_in_place<T: Element>(fir: &[T], prev: &[T], start: usize, chunk: &mut [T]) {
    let p = fir.len();
    if p == 0 {
        // An empty tap list maps everything to zero (no terms to sum).
        for v in chunk.iter_mut() {
            *v = T::zero();
        }
        return;
    }
    let head = (p - 1).min(chunk.len());
    // Steady state first: it reads only chunk[i - j] for j < p ≤ i + 1,
    // all untouched original inputs at this point in the backward walk.
    // The explicit-SIMD kernel takes the top of the steady region in
    // descending vector windows (same read-before-overwrite argument at
    // vector granularity); the scalar loop finishes what remains.
    let lo = chunk.len() - simd::fir_steady_in_place(fir, chunk, head);
    match p {
        1 => fir_steady_rev::<T, 1>(fir, &mut chunk[..lo], head),
        2 => fir_steady_rev::<T, 2>(fir, &mut chunk[..lo], head),
        3 => fir_steady_rev::<T, 3>(fir, &mut chunk[..lo], head),
        4 => fir_steady_rev::<T, 4>(fir, &mut chunk[..lo], head),
        _ => {
            for i in (head..lo).rev() {
                let mut acc = fir[0].mul(chunk[i]);
                for (j, &a) in fir.iter().enumerate().skip(1) {
                    acc = acc.add(a.mul(chunk[i - j]));
                }
                chunk[i] = acc;
            }
        }
    }
    // Prologue: the leading elements whose taps cross the chunk boundary
    // (into `prev`) or reach before the start of the data entirely.
    for i in (0..head).rev() {
        let mut acc = T::zero();
        for (j, &a) in fir.iter().enumerate() {
            if j > start + i {
                break;
            }
            let x = if j <= i {
                chunk[i - j]
            } else {
                let back = j - i; // reaches `back` elements before the chunk
                if back <= prev.len() {
                    prev[prev.len() - back]
                } else {
                    T::zero()
                }
            };
            acc = acc.add(a.mul(x));
        }
        chunk[i] = acc;
    }
}

/// The branch-free steady state of [`fir_in_place`] with a compile-time
/// tap count, so the inner loop fully unrolls.
fn fir_steady_rev<T: Element, const P: usize>(fir: &[T], chunk: &mut [T], head: usize) {
    let taps: [T; P] = fir.try_into().expect("dispatched on fir.len()");
    for i in (head..chunk.len()).rev() {
        let mut acc = taps[0].mul(chunk[i]);
        for j in 1..P {
            acc = acc.add(taps[j].mul(chunk[i - j]));
        }
        chunk[i] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tropical::MaxPlus;

    fn solve_ref<T: Element>(fb: &[T], history: &[T], input: &[T]) -> Vec<T> {
        let mut data = input.to_vec();
        serial::recursive_in_place_with_history(fb, history, &mut data);
        data
    }

    #[test]
    fn blocked_matches_scalar_exactly_for_ints() {
        let input: Vec<i64> = (0..200).map(|i| ((i * 37) % 23) - 11).collect();
        for fb in [
            vec![1i64],
            vec![2, -1],
            vec![1, 1],
            vec![3, -3, 1],
            vec![1, 0, 0, 1],
        ] {
            let kernel = BlockedKernel::try_new(&fb).unwrap();
            for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 200] {
                let mut got = input[..n].to_vec();
                kernel.solve_in_place(&mut got);
                assert_eq!(got, solve_ref(&fb, &[], &input[..n]), "{fb:?} n={n}");
            }
        }
    }

    #[test]
    fn blocked_history_matches_scalar() {
        let fb = [2i64, -1];
        let kernel = BlockedKernel::try_new(&fb).unwrap();
        let input: Vec<i64> = (0..100).map(|i| (i % 13) - 6).collect();
        for history in [vec![], vec![7], vec![7, -3]] {
            let mut got = input.clone();
            kernel.solve_in_place_with_history(&history, &mut got);
            assert_eq!(got, solve_ref(&fb, &history, &input), "history {history:?}");
        }
    }

    #[test]
    fn blocked_floats_stay_within_tolerance() {
        let fb = [1.6f64, -0.64];
        let kernel = BlockedKernel::try_new(&fb).unwrap();
        let input: Vec<f64> = (0..500)
            .map(|i| ((i * 7) % 23) as f64 * 0.3 - 3.0)
            .collect();
        let mut got = input.clone();
        kernel.solve_in_place(&mut got);
        let expect = solve_ref(&fb, &[], &input);
        for (a, b) in expect.iter().zip(&got) {
            assert!(a.approx_eq(*b, 1e-9), "{a} vs {b}");
        }
    }

    #[test]
    fn dispatch_by_order_and_element() {
        // Tier pinned to Auto: this test is about the *default* policy
        // and must hold even when CI forces `PLR_KERNEL` for the suite.
        let auto = |fb: &[f64]| SolveKernel::select_with_tier(fb, KernelTier::Auto);
        // Floats in range never degrade to the scalar loop: SIMD where a
        // vector ISA is detected, blocked otherwise.
        assert!(!SolveKernel::select_with_tier(&[0.8f32], KernelTier::Auto).is_scalar());
        assert!(!auto(&[1.6f64, -0.64, 0.1, -0.2]).is_scalar());
        // Order above the cap and order zero fall back.
        assert!(auto(&[0.1f64; MAX_BLOCKED_ORDER + 1]).is_scalar());
        assert!(auto(&[]).is_scalar());
        // Integers outside the binomial prefix sums ride the blocked
        // tables: with a vector ISA they go SIMD (i64 only from AVX-512,
        // where `vpmullq` exists), otherwise the blocked form.
        assert!(BlockedKernel::try_new(&[1i32, 2, 3, 4]).is_some());
        let int_kernel = SolveKernel::select_with_tier(&[1i32, 2, 3, 4], KernelTier::Auto);
        assert!(!int_kernel.is_scalar());
        assert!(matches!(
            int_kernel.kind(),
            KernelKind::Blocked | KernelKind::SimdAvx2 | KernelKind::SimdAvx512
        ));
        let i64_kernel = SolveKernel::select_with_tier(&[1i64, 1], KernelTier::Auto);
        assert!(matches!(
            i64_kernel.kind(),
            KernelKind::Blocked | KernelKind::SimdAvx512
        ));
        // The integer binomial prefix sums are cascaded running sums on
        // every CPU.
        for fb in [&[1i64][..], &[2, -1], &[3, -3, 1], &[4, -6, 4, -1]] {
            let kernel = SolveKernel::select_with_tier(fb, KernelTier::Auto);
            assert_eq!(kernel.kind(), KernelKind::Cascade, "{fb:?}");
        }
        // Exotic elements (max-plus semiring) opt out of blocking
        // entirely via `Element::BLOCKABLE` — on every tier.
        assert!(BlockedKernel::try_new(&[MaxPlus::new(1.0)]).is_none());
        for tier in [KernelTier::Auto, KernelTier::Scalar, KernelTier::Blocked] {
            assert!(SolveKernel::select_with_tier(&[MaxPlus::new(1.0)], tier).is_scalar());
        }
    }

    #[test]
    fn forced_tiers_pin_the_kernel() {
        let fb = [1.6f64, -0.64];
        assert_eq!(
            SolveKernel::select_with_tier(&fb, KernelTier::Scalar).kind(),
            KernelKind::Scalar
        );
        assert_eq!(
            SolveKernel::select_with_tier(&fb, KernelTier::Blocked).kind(),
            KernelKind::Blocked
        );
    }

    #[test]
    fn sliced_solve_is_bit_identical_and_polls() {
        for fb in [vec![1i64], vec![2, -1], vec![3, -3, 1]] {
            let kernel = SolveKernel::select(&fb);
            let n = 3 * SOLVE_SLICE + 421;
            let input: Vec<i64> = (0..n as i64).map(|i| (i * 37 % 23) - 11).collect();
            let mut whole = input.clone();
            kernel.solve_in_place(&mut whole);
            let mut sliced = input.clone();
            let mut polls = 0u64;
            let out = kernel.solve_in_place_sliced(&mut sliced, &mut || {
                polls += 1;
                true
            });
            assert!(out.completed);
            assert_eq!(out.slices, 4, "⌈n / SOLVE_SLICE⌉ slices");
            assert_eq!(polls, 3, "polled before each slice after the first");
            assert_eq!(sliced, whole, "{fb:?}");
        }
    }

    #[test]
    fn sliced_solve_floats_match_unsliced_exactly() {
        // Slices are block-multiples and the history hand-off re-reads
        // the same stored values, so even floats are bit-identical.
        let kernel = SolveKernel::select(&[1.6f64, -0.64]);
        let n = 2 * SOLVE_SLICE + 777;
        let input: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64 * 0.3 - 3.0).collect();
        let mut whole = input.clone();
        kernel.solve_in_place(&mut whole);
        let mut sliced = input.clone();
        let out = kernel.solve_in_place_sliced(&mut sliced, &mut || true);
        assert!(out.completed && out.slices == 3);
        assert_eq!(sliced, whole);
    }

    #[test]
    fn sliced_solve_stops_at_the_poll() {
        let kernel = SolveKernel::select(&[2i64, -1]);
        let n = 4 * SOLVE_SLICE;
        let input: Vec<i64> = (0..n as i64).map(|i| i % 5 - 2).collect();
        let mut data = input.clone();
        let mut budget = 2; // allow two polls, fail the third
        let out = kernel.solve_in_place_sliced(&mut data, &mut || {
            budget -= 1;
            budget >= 0
        });
        assert!(!out.completed);
        assert_eq!(out.slices, 3, "three slices done before the failed poll");
        // The solved prefix is final, the remainder untouched input.
        let mut expect = input.clone();
        kernel.solve_in_place(&mut expect);
        assert_eq!(data[..3 * SOLVE_SLICE], expect[..3 * SOLVE_SLICE]);
        assert_eq!(data[3 * SOLVE_SLICE..], input[3 * SOLVE_SLICE..]);
    }

    #[test]
    fn sliced_solve_short_data_skips_polling() {
        let kernel = SolveKernel::select(&[1i64, 1]);
        let mut data: Vec<i64> = (0..100).map(|i| i % 3).collect();
        let out = kernel.solve_in_place_sliced(&mut data, &mut || panic!("must not poll"));
        assert!(out.completed);
        assert_eq!(out.slices, 1);
    }

    #[test]
    fn scalar_fallback_solves_high_orders() {
        let fb = vec![1i64, 0, 0, 0, 0, 1]; // order 6
        let kernel = SolveKernel::select(&fb);
        let input: Vec<i64> = (0..80).map(|i| (i % 5) - 2).collect();
        let mut got = input.clone();
        kernel.solve_in_place(&mut got);
        assert_eq!(got, solve_ref(&fb, &[], &input));
        assert_eq!(kernel.feedback(), fb.as_slice());
    }

    #[test]
    fn fir_in_place_specializations_match_reference() {
        let input: Vec<i64> = (0..120).map(|i| (i % 11) - 5).collect();
        for p in 1..=6 {
            let fir: Vec<i64> = (0..p).map(|j| (j as i64) * 2 - 3).collect();
            let expect = serial::fir_map(&fir, &input);
            for m in [1usize, 7, BLOCK, 50, 120, 300] {
                let mut data = input.clone();
                let num_chunks = data.len().div_ceil(m);
                let stash: Vec<Vec<i64>> = (1..num_chunks)
                    .map(|c| data[(c * m).saturating_sub(p - 1)..c * m].to_vec())
                    .collect();
                for c in (0..num_chunks).rev() {
                    let start = c * m;
                    let end = (start + m).min(input.len());
                    let prev: &[i64] = if c == 0 { &[] } else { &stash[c - 1] };
                    fir_in_place(&fir, prev, start, &mut data[start..end]);
                }
                assert_eq!(data, expect, "p={p} m={m}");
            }
        }
    }

    #[test]
    fn fir_in_place_empty_taps_zeroes() {
        let mut data = vec![3i32, -4, 5];
        fir_in_place(&[], &[], 0, &mut data);
        assert_eq!(data, vec![0, 0, 0]);
    }
}
