//! Property tests for the register-blocked serial kernels.
//!
//! The invariant: [`SolveKernel`] — whichever kernel it dispatches to —
//! agrees with the scalar loops of [`plr_core::serial`] for arbitrary
//! feedback vectors (orders 1–8, so the high-order fallback is exercised
//! alongside the blocked path), arbitrary histories, and lengths that
//! straddle every register-block boundary: `BLOCK - 1`, `BLOCK`,
//! `BLOCK + 1`, and non-multiples. Exactly for the wrapping integers;
//! within reassociation tolerance for floats.
//!
//! The cascade kernel [`KernelTier::Auto`] picks for the integer binomial
//! prefix sums gets the same check with inputs over the full range, so
//! the wrapping arithmetic overflows, at every history length and at
//! lengths spanning several [`SOLVE_SLICE`]s.

use plr_core::blocked::{BlockedKernel, SolveKernel, BLOCK, MAX_BLOCKED_ORDER, SOLVE_SLICE};
use plr_core::serial;
use plr_core::tropical::MaxPlus;
use plr_core::{KernelKind, KernelTier};
use proptest::prelude::*;

/// Lengths exercising every block-boundary case around a random base:
/// one element short of a block edge, exactly on it, one past it, plus
/// the (typically non-multiple) base itself and the degenerate sizes.
fn boundary_lengths(base: usize) -> [usize; 7] {
    let edge = (base / BLOCK + 1) * BLOCK;
    [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, edge + 1, base]
}

/// Integer feedback of order 1..=8 (trailing coefficient nonzero).
fn int_feedback() -> impl Strategy<Value = Vec<i64>> {
    let nonzero = prop_oneof![-2i64..=-1, 1i64..=2];
    (proptest::collection::vec(-2i64..=2, 0..8), nonzero).prop_map(|(mut fb, last)| {
        fb.push(last);
        fb
    })
}

/// Stable float feedback of order 1..=8: the characteristic polynomial is
/// a product of poles in (-0.8, 0.8), so solutions never blow up and the
/// float comparison measures reassociation error, not overflow.
fn stable_float_feedback() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-0.8f64..0.8, 1..9).prop_filter_map("nonzero poles", |poles| {
        if poles.iter().any(|p| p.abs() < 1e-2) {
            return None;
        }
        let mut c = vec![1.0f64];
        for &p in &poles {
            let mut next = vec![0.0; c.len() + 1];
            for (i, &ci) in c.iter().enumerate() {
                next[i] += ci * -p;
                next[i + 1] += ci;
            }
            c = next;
        }
        c.reverse(); // highest degree first
        Some(c[1..].iter().map(|&v| -v).collect())
    })
}

fn scalar_ref<T: plr_core::element::Element>(fb: &[T], history: &[T], input: &[T]) -> Vec<T> {
    let mut out = input.to_vec();
    serial::recursive_in_place_with_history(fb, history, &mut out);
    out
}

/// Relative-to-the-run tolerance: reassociating a block's additions moves
/// each output by a few ULP of the largest value in play.
fn assert_close(expect: &[f64], got: &[f64], ulps: f64, ctx: &str) -> Result<(), TestCaseError> {
    let scale = expect.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (i, (a, b)) in expect.iter().zip(got).enumerate() {
        prop_assert!(
            (a - b).abs() <= ulps * f64::EPSILON * scale,
            "{ctx}: index {i}: {a} vs {b} (scale {scale})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dispatched_kernel_matches_scalar_exactly_for_i64(
        fb in int_feedback(),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        history in proptest::collection::vec(-9i64..9, 0..8),
    ) {
        let kernel = SolveKernel::select(&fb);
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let mut got = input[..n].to_vec();
            kernel.solve_in_place_with_history(history, &mut got);
            prop_assert_eq!(&got, &scalar_ref(&fb, history, &input[..n]),
                "{:?} history {:?} n={}", &fb, history, n);
        }
    }

    #[test]
    fn blocked_kernel_itself_is_exact_for_i64(
        fb in int_feedback(),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        history in proptest::collection::vec(-9i64..9, 0..4),
    ) {
        // Auto dispatch may pick SIMD over blocked for integers, so
        // drive the blocked kernel directly: the rewrite must be exact
        // in wrapping-integer arithmetic whenever it applies (orders
        // 1..=MAX_BLOCKED_ORDER).
        prop_assume!(fb.len() <= MAX_BLOCKED_ORDER);
        let kernel = BlockedKernel::try_new(&fb).expect("low orders are blockable");
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let mut got = input[..n].to_vec();
            kernel.solve_in_place_with_history(history, &mut got);
            prop_assert_eq!(&got, &scalar_ref(&fb, history, &input[..n]),
                "{:?} history {:?} n={}", &fb, history, n);
        }
    }

    #[test]
    fn dispatched_kernel_matches_scalar_for_f64(
        fb in stable_float_feedback(),
        input in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        history in proptest::collection::vec(-4.0f64..4.0, 0..8),
    ) {
        let kernel = SolveKernel::select(&fb);
        // Low orders leave the scalar loop under Auto (blocked or SIMD,
        // per CPU) — asserted tier-explicitly so the forced-tier CI legs
        // (`PLR_KERNEL=scalar` et al.) still run this suite unchanged.
        let auto = SolveKernel::select_with_tier(&fb, KernelTier::Auto);
        prop_assert_eq!(!auto.is_scalar(), fb.len() <= MAX_BLOCKED_ORDER);
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let mut got = input[..n].to_vec();
            kernel.solve_in_place_with_history(history, &mut got);
            let expect = scalar_ref(&fb, history, &input[..n]);
            assert_close(&expect, &got, 4096.0, &format!("{fb:?} n={n}"))?;
        }
    }

    #[test]
    fn dispatched_kernel_matches_scalar_for_f32(
        fb64 in stable_float_feedback(),
        input64 in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
    ) {
        let fb: Vec<f32> = fb64.iter().map(|&v| v as f32).collect();
        let input: Vec<f32> = input64.iter().map(|&v| v as f32).collect();
        let kernel = SolveKernel::select(&fb);
        let auto = SolveKernel::select_with_tier(&fb, KernelTier::Auto);
        prop_assert_eq!(!auto.is_scalar(), fb.len() <= MAX_BLOCKED_ORDER);
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let mut got = input[..n].to_vec();
            kernel.solve_in_place(&mut got);
            let expect = scalar_ref(&fb, &[], &input[..n]);
            let scale = expect.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (a, b) in expect.iter().zip(&got) {
                prop_assert!(
                    (a - b).abs() <= 4096.0 * f32::EPSILON * scale,
                    "{:?} n={}: {} vs {}", &fb, n, a, b
                );
            }
        }
    }

    #[test]
    fn restarting_at_any_split_matches_one_shot(
        fb in stable_float_feedback(),
        input in proptest::collection::vec(-4.0f64..4.0, (2 * BLOCK)..(5 * BLOCK)),
        split_seed in 1usize..1000,
    ) {
        // Chunked executors hand the kernel arbitrary chunk boundaries;
        // continuing through explicit history must match the unsplit run.
        prop_assume!(fb.len() <= MAX_BLOCKED_ORDER);
        let kernel = SolveKernel::select(&fb);
        let split = split_seed % (input.len() - 1) + 1;
        let mut whole = input.clone();
        kernel.solve_in_place(&mut whole);

        let (left, right) = input.split_at(split);
        let mut l = left.to_vec();
        kernel.solve_in_place(&mut l);
        let history: Vec<f64> = l.iter().rev().take(fb.len()).copied().collect();
        let mut r = right.to_vec();
        kernel.solve_in_place_with_history(&history, &mut r);
        l.extend(r);
        assert_close(&whole, &l, 8192.0, &format!("{fb:?} split={split}"))?;
    }
}

/// The binomial prefix sums `(1 − z⁻¹)^q`, `q = 1..=4`.
const BINOMIALS: [&[i64]; 4] = [&[1], &[2, -1], &[3, -3, 1], &[4, -6, 4, -1]];

/// The cascade against the scalar chain: every history length `0..=q`,
/// the shortest lengths, the whole input, and the sliced solve against
/// the unsliced one.
fn check_cascade<T: plr_core::element::Element>(
    fb: &[T],
    input: &[T],
    history: &[T],
) -> Result<(), TestCaseError> {
    let q = fb.len();
    let kernel = SolveKernel::select_with_tier(fb, KernelTier::Auto);
    prop_assert_eq!(kernel.kind(), KernelKind::Cascade, "{:?}", fb);
    for h in 0..=q {
        for n in [0, 1, q, q + 1, input.len()] {
            let n = n.min(input.len());
            let mut got = input[..n].to_vec();
            kernel.solve_in_place_with_history(&history[..h], &mut got);
            prop_assert_eq!(
                &got,
                &scalar_ref(fb, &history[..h], &input[..n]),
                "{:?} history {:?} n={}",
                fb,
                &history[..h],
                n
            );
        }
    }
    let mut whole = input.to_vec();
    kernel.solve_in_place(&mut whole);
    let mut sliced = input.to_vec();
    let out = kernel.solve_in_place_sliced(&mut sliced, &mut || true);
    prop_assert!(out.completed);
    prop_assert_eq!(
        out.slices as usize,
        input.len().div_ceil(SOLVE_SLICE).max(1)
    );
    prop_assert_eq!(sliced, whole, "{:?} sliced", fb);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cascade_is_exact_for_i64_over_the_full_range(
        q in 1usize..=4,
        input in proptest::collection::vec(i64::MIN..=i64::MAX, 0..(3 * SOLVE_SLICE + 8)),
        history in proptest::collection::vec(i64::MIN..=i64::MAX, 4..5),
    ) {
        check_cascade(BINOMIALS[q - 1], &input, &history)?;
    }

    #[test]
    fn cascade_is_exact_for_i32_over_the_full_range(
        q in 1usize..=4,
        input in proptest::collection::vec(i32::MIN..=i32::MAX, 0..(3 * SOLVE_SLICE + 8)),
        history in proptest::collection::vec(i32::MIN..=i32::MAX, 4..5),
    ) {
        let fb: Vec<i32> = BINOMIALS[q - 1].iter().map(|&b| b as i32).collect();
        check_cascade(&fb, &input, &history)?;
    }
}

/// Near misses of the binomial family, its float instances and the
/// max-plus semiring never reach the cascade; forced tiers never do.
#[test]
fn cascade_is_only_for_integer_binomials_under_auto() {
    let auto = |fb: &[i64]| SolveKernel::select_with_tier(fb, KernelTier::Auto).kind();
    for fb in [&[2i64, -2][..], &[1, 1], &[0, 1], &[5, -10, 10, -5, 1]] {
        assert_ne!(auto(fb), KernelKind::Cascade, "{fb:?}");
    }
    assert_ne!(
        SolveKernel::select_with_tier(&[2.0f32, -1.0], KernelTier::Auto).kind(),
        KernelKind::Cascade
    );
    assert_ne!(
        SolveKernel::select_with_tier(&[2.0f64, -1.0], KernelTier::Auto).kind(),
        KernelKind::Cascade
    );
    for fb in [
        &[MaxPlus::new(0.0)][..],
        &[MaxPlus::new(2.0), MaxPlus::new(-1.0)],
    ] {
        assert_ne!(
            SolveKernel::select_with_tier(fb, KernelTier::Auto).kind(),
            KernelKind::Cascade
        );
    }
    for fb in BINOMIALS {
        for tier in [KernelTier::Scalar, KernelTier::Blocked] {
            let kind = SolveKernel::select_with_tier(fb, tier).kind();
            assert_ne!(kind, KernelKind::Cascade, "{fb:?} {tier:?}");
        }
    }
}
