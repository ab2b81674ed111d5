//! Differential property tests for the explicit SIMD kernel layer.
//!
//! Every kernel tier the runtime can dispatch to — forced scalar, forced
//! blocked, and auto, which runs the explicit [`SimdKernel`] on the
//! element type's one vector ISA when the machine has it — must agree on
//! the same inputs: bit-exactly for the wrapping integers (including the
//! AVX-512 `vpmullq` i64 path, exercised here whenever the CPU has it),
//! and within reassociation tolerance for floats (the vector kernels
//! contract multiply-add chains into FMAs, so results differ from the
//! scalar loop by rounding only).
//!
//! The same treatment covers the two steady-state helpers the executors
//! lean on: the FIR map tail ([`fir_steady_ungated`]) and the correction
//! fold ([`axpy_ungated`]); the FIR map fused into the local solve
//! ([`map_solve_ungated`]), against the two passes it replaces; and the
//! 16-lane varying lane solve on AVX-512F ([`solve_lanes_ungated`]),
//! against the portable loops at 16 lanes, bit for bit, with the proof
//! its lockstep makes of the gates: one gate outside `[-1, 1]` anywhere
//! in the chunk, against the serial reference.
//!
//! These tests pick tiers through `select_with_tier` and the `*_ungated`
//! entry points rather than the process-global `PLR_KERNEL` override, so
//! they are safe under the parallel test harness.
//!
//! [`SimdKernel`]: plr_core::simd::SimdKernel

use plr_core::blocked::{fir_in_place, SolveKernel, BLOCK, MAX_BLOCKED_ORDER, SOLVE_SLICE};
use plr_core::element::Element;
use plr_core::kernel::KernelTier;
use plr_core::serial;
use plr_core::simd::{axpy_ungated, fir_steady_ungated, map_solve_ungated, MAX_FIR_TAPS};
use plr_core::varying::{reference, solve_lanes_ungated, VaryingSignature, MIN_LANE_CHUNK};
use proptest::prelude::*;

/// Lengths exercising every vector-block boundary around a random base.
fn boundary_lengths(base: usize) -> [usize; 7] {
    let edge = (base / BLOCK + 1) * BLOCK;
    [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, edge + 1, base]
}

/// Integer feedback of order 1..=MAX_BLOCKED_ORDER so every tier
/// (including the SIMD kernels, which only cover blockable orders) has a
/// fast path to disagree with.
fn int_feedback() -> impl Strategy<Value = Vec<i64>> {
    let nonzero = prop_oneof![-3i64..=-1, 1i64..=3];
    (
        proptest::collection::vec(-3i64..=3, 0..MAX_BLOCKED_ORDER),
        nonzero,
    )
        .prop_map(|(mut fb, last)| {
            fb.push(last);
            fb
        })
}

/// Stable float feedback of order 1..=MAX_BLOCKED_ORDER (poles inside
/// (-0.8, 0.8) keep outputs bounded so the ULP comparison is meaningful).
fn stable_float_feedback() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-0.8f64..0.8, 1..MAX_BLOCKED_ORDER + 1).prop_filter_map(
        "nonzero poles",
        |poles| {
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
            c.reverse();
            Some(c[1..].iter().map(|&v| -v).collect())
        },
    )
}

fn scalar_ref<T: Element>(fb: &[T], history: &[T], input: &[T]) -> Vec<T> {
    let mut out = input.to_vec();
    serial::recursive_in_place_with_history(fb, history, &mut out);
    out
}

/// Every solver the dispatcher can hand out for this feedback: the three
/// tiers (auto is the explicit SIMD kernel when the CPU has the type's
/// ISA).
fn all_solvers<T: Element>(fb: &[T]) -> Vec<(String, SolveKernel<T>)> {
    vec![
        (
            "tier=scalar".to_string(),
            SolveKernel::select_with_tier(fb, KernelTier::Scalar),
        ),
        (
            "tier=blocked".to_string(),
            SolveKernel::select_with_tier(fb, KernelTier::Blocked),
        ),
        (
            "tier=auto".to_string(),
            SolveKernel::select_with_tier(fb, KernelTier::Auto),
        ),
    ]
}

/// The two passes a fused map + solve replaces: [`fir_in_place`] (with
/// `prev_raw` as the inputs before the data), then the scalar solve from
/// `history`.
fn two_pass<T: Element>(fir: &[T], fb: &[T], prev_raw: &[T], history: &[T], input: &[T]) -> Vec<T> {
    let mut mapped = input.to_vec();
    fir_in_place(fir, prev_raw, prev_raw.len(), &mut mapped);
    scalar_ref(fb, history, &mapped)
}

/// The fused map + solve of `input`, `None` where this CPU has no kernel
/// for `T`.
fn fused<T: Element>(
    fir: &[T],
    fb: &[T],
    prev_raw: &[T],
    history: &[T],
    input: &[T],
) -> Option<Vec<T>> {
    let mut got = input.to_vec();
    map_solve_ungated(fir, fb, prev_raw, history, &mut got, &mut || true).map(|out| {
        assert!(out.completed);
        got
    })
}

/// Integer taps `1..=MAX_FIR_TAPS` long.
fn int_taps() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-3i64..=3, 1..MAX_FIR_TAPS + 1)
}

/// A deterministic input of `n` small values.
fn long_input(n: usize, seed: u64) -> Vec<i64> {
    (0..n as u64)
        .map(|i| ((i.wrapping_mul(2654435761).wrapping_add(seed) >> 7) % 19) as i64 - 9)
        .collect()
}

/// ULP-scaled closeness: reassociation and FMA contraction move each
/// output by a few ULP of the largest value in play.
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
    fn every_tier_and_isa_is_bit_exact_for_i64(
        fb in int_feedback(),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        history in proptest::collection::vec(-9i64..9, 0..MAX_BLOCKED_ORDER),
    ) {
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let expect = scalar_ref(&fb, history, &input[..n]);
            for (name, kernel) in all_solvers(&fb) {
                let mut got = input[..n].to_vec();
                kernel.solve_in_place_with_history(history, &mut got);
                prop_assert_eq!(&got, &expect,
                    "{} fb={:?} history={:?} n={}", name, &fb, history, n);
            }
        }
    }

    #[test]
    fn every_tier_and_isa_is_bit_exact_for_i32(
        fb64 in int_feedback(),
        input64 in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        history64 in proptest::collection::vec(-9i64..9, 0..MAX_BLOCKED_ORDER),
    ) {
        let fb: Vec<i32> = fb64.iter().map(|&v| v as i32).collect();
        let input: Vec<i32> = input64.iter().map(|&v| v as i32).collect();
        let history: Vec<i32> = history64.iter().map(|&v| v as i32).collect();
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let expect = scalar_ref(&fb, history, &input[..n]);
            for (name, kernel) in all_solvers(&fb) {
                let mut got = input[..n].to_vec();
                kernel.solve_in_place_with_history(history, &mut got);
                prop_assert_eq!(&got, &expect,
                    "{} fb={:?} history={:?} n={}", name, &fb, history, n);
            }
        }
    }

    #[test]
    fn every_tier_and_isa_matches_scalar_for_f64(
        fb in stable_float_feedback(),
        input in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        history in proptest::collection::vec(-4.0f64..4.0, 0..MAX_BLOCKED_ORDER),
    ) {
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let expect = scalar_ref(&fb, history, &input[..n]);
            for (name, kernel) in all_solvers(&fb) {
                let mut got = input[..n].to_vec();
                kernel.solve_in_place_with_history(history, &mut got);
                assert_close(&expect, &got, 4096.0, &format!("{name} fb={fb:?} n={n}"))?;
            }
        }
    }

    #[test]
    fn every_tier_and_isa_matches_scalar_for_f32(
        fb64 in stable_float_feedback(),
        input64 in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
    ) {
        let fb: Vec<f32> = fb64.iter().map(|&v| v as f32).collect();
        let input: Vec<f32> = input64.iter().map(|&v| v as f32).collect();
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let expect = scalar_ref(&fb, &[], &input[..n]);
            let scale = expect.iter().fold(1.0f32, |m, v| m.max(v.abs()));
            for (name, kernel) in all_solvers(&fb) {
                let mut got = input[..n].to_vec();
                kernel.solve_in_place(&mut got);
                for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 4096.0 * f32::EPSILON * scale,
                        "{} fb={:?} n={} index {}: {} vs {}", name, &fb, n, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn restart_with_history_agrees_across_isas(
        fb in int_feedback(),
        input in proptest::collection::vec(-9i64..9, (2 * BLOCK)..(5 * BLOCK)),
        split_seed in 1usize..1000,
    ) {
        // Chunked executors restart the kernel mid-stream through explicit
        // history; the split run must be bit-identical to the one-shot run
        // on every ISA.
        let split = split_seed % (input.len() - 1) + 1;
        let whole = scalar_ref(&fb, &[], &input);
        for (name, kernel) in all_solvers(&fb) {
            let (left, right) = input.split_at(split);
            let mut l = left.to_vec();
            kernel.solve_in_place(&mut l);
            let history: Vec<i64> = l.iter().rev().take(fb.len()).copied().collect();
            let mut r = right.to_vec();
            kernel.solve_in_place_with_history(&history, &mut r);
            l.extend(r);
            prop_assert_eq!(&l, &whole, "{} fb={:?} split={}", name, &fb, split);
        }
    }

    #[test]
    fn fir_steady_kernels_match_scalar(
        fir64 in proptest::collection::vec(-3i64..=3, 1..MAX_FIR_TAPS + 1),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
    ) {
        // The vector FIR takes some suffix of the chunk (whole vectors
        // only); whatever it claims must match the scalar convolution on
        // that suffix, with the prefix untouched.
        let fir: Vec<i64> = fir64;
        let head = fir.len() - 1;
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let input = &input[..n];
            let mut expect = input.to_vec();
            for i in (head..n).rev() {
                let mut acc = 0i64;
                for (j, &c) in fir.iter().enumerate() {
                    acc = acc.wrapping_add(c.wrapping_mul(input[i - j]));
                }
                expect[i] = acc;
            }
            let mut got = input.to_vec();
            let done = fir_steady_ungated(&fir, &mut got, head);
            prop_assert!(done <= n.saturating_sub(head), "did too much");
            prop_assert_eq!(&got[..n - done], &input[..n - done],
                "fir={:?} n={}: prefix touched", &fir, n);
            prop_assert_eq!(&got[n - done..], &expect[n - done..],
                "fir={:?} n={} done={}", &fir, n, done);
        }
    }

    #[test]
    fn fir_steady_kernels_match_scalar_f64(
        fir in proptest::collection::vec(-1.5f64..1.5, 1..MAX_FIR_TAPS + 1),
        input in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
    ) {
        let head = fir.len() - 1;
        for n in boundary_lengths(input.len()) {
            let n = n.min(input.len());
            let input = &input[..n];
            let mut expect = input.to_vec();
            for i in (head..n).rev() {
                let mut acc = 0.0f64;
                for (j, &c) in fir.iter().enumerate() {
                    acc += c * input[i - j];
                }
                expect[i] = acc;
            }
            let mut got = input.to_vec();
            let done = fir_steady_ungated(&fir, &mut got, head);
            prop_assert!(done <= n.saturating_sub(head), "did too much");
            assert_close(&expect[n - done..], &got[n - done..], 64.0,
                &format!("fir={fir:?} n={n} done={done}"))?;
            prop_assert_eq!(&got[..n - done], &input[..n - done],
                "fir={:?} n={}: prefix touched", &fir, n);
        }
    }

    #[test]
    fn axpy_kernels_match_scalar(
        list in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        dst in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        carry in -9i64..9,
    ) {
        let lim = list.len().min(dst.len());
        let mut expect = dst.clone();
        for (d, &f) in expect[..lim].iter_mut().zip(&list) {
            *d = d.wrapping_add(f.wrapping_mul(carry));
        }
        let mut got = dst.clone();
        if axpy_ungated(&mut got[..lim], &list, carry) {
            prop_assert_eq!(&got[..lim], &expect[..lim], "lim={}", lim);
            prop_assert_eq!(&got[lim..], &dst[lim..], "tail touched");
        }
    }

    #[test]
    fn axpy_kernels_match_scalar_f64(
        list in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        dst in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        carry in -4.0f64..4.0,
    ) {
        let lim = list.len().min(dst.len());
        let mut expect = dst.clone();
        for (d, &f) in expect[..lim].iter_mut().zip(&list) {
            *d += f * carry;
        }
        let mut got = dst.clone();
        if axpy_ungated(&mut got[..lim], &list, carry) {
            assert_close(&expect[..lim], &got[..lim], 64.0, &format!("lim={lim}"))?;
            prop_assert_eq!(&got[lim..], &dst[lim..], "tail touched");
        }
    }

    #[test]
    fn map_solve_is_bit_exact_for_i64(
        fir in int_taps(),
        fb in int_feedback(),
        input in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        prev_raw in proptest::collection::vec(-9i64..9, 0..MAX_FIR_TAPS),
        history in proptest::collection::vec(-9i64..9, 0..MAX_BLOCKED_ORDER),
    ) {
        // `prev_raw` runs from empty to `MAX_FIR_TAPS - 1` values, so it is
        // often shorter than the `p - 1` the taps reach: the head of the
        // data, where the missing inputs read zero.
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let input = &input[..n.min(input.len())];
            let expect = two_pass(&fir, &fb, &prev_raw, history, input);
            if let Some(got) = fused(&fir, &fb, &prev_raw, history, input) {
                prop_assert_eq!(&got, &expect, "fir={:?} fb={:?} prev={:?} history={:?} n={}",
                    &fir, &fb, &prev_raw, history, input.len());
            }
        }
    }

    #[test]
    fn map_solve_is_bit_exact_for_i32(
        fir64 in int_taps(),
        fb64 in int_feedback(),
        input64 in proptest::collection::vec(-9i64..9, 0..(6 * BLOCK)),
        prev64 in proptest::collection::vec(-9i64..9, 0..MAX_FIR_TAPS),
        history64 in proptest::collection::vec(-9i64..9, 0..MAX_BLOCKED_ORDER),
    ) {
        let narrow = |v: &[i64]| v.iter().map(|&x| x as i32).collect::<Vec<i32>>();
        let (fir, fb, input) = (narrow(&fir64), narrow(&fb64), narrow(&input64));
        let (prev_raw, history) = (narrow(&prev64), narrow(&history64));
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let input = &input[..n.min(input.len())];
            let expect = two_pass(&fir, &fb, &prev_raw, history, input);
            if let Some(got) = fused(&fir, &fb, &prev_raw, history, input) {
                prop_assert_eq!(&got, &expect, "fir={:?} fb={:?} prev={:?} n={}",
                    &fir, &fb, &prev_raw, input.len());
            }
        }
    }

    #[test]
    fn map_solve_matches_two_passes_for_f64(
        fir in proptest::collection::vec(-1.5f64..1.5, 1..MAX_FIR_TAPS + 1),
        fb in stable_float_feedback(),
        input in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        prev_raw in proptest::collection::vec(-4.0f64..4.0, 0..MAX_FIR_TAPS),
        history in proptest::collection::vec(-4.0f64..4.0, 0..MAX_BLOCKED_ORDER),
    ) {
        let history = &history[..history.len().min(fb.len())];
        for n in boundary_lengths(input.len()) {
            let input = &input[..n.min(input.len())];
            let expect = two_pass(&fir, &fb, &prev_raw, history, input);
            if let Some(got) = fused(&fir, &fb, &prev_raw, history, input) {
                assert_close(&expect, &got, 4096.0,
                    &format!("fir={fir:?} fb={fb:?} prev={prev_raw:?} n={}", input.len()))?;
            }
        }
    }

    #[test]
    fn map_solve_matches_two_passes_for_f32(
        fir64 in proptest::collection::vec(-1.5f64..1.5, 1..MAX_FIR_TAPS + 1),
        fb64 in stable_float_feedback(),
        input64 in proptest::collection::vec(-4.0f64..4.0, 0..(6 * BLOCK)),
        prev64 in proptest::collection::vec(-4.0f64..4.0, 0..MAX_FIR_TAPS),
    ) {
        let narrow = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        let (fir, fb, input, prev_raw) = (narrow(&fir64), narrow(&fb64), narrow(&input64), narrow(&prev64));
        for n in boundary_lengths(input.len()) {
            let input = &input[..n.min(input.len())];
            let expect = two_pass(&fir, &fb, &prev_raw, &[], input);
            if let Some(got) = fused(&fir, &fb, &prev_raw, &[], input) {
                let scale = expect.iter().fold(1.0f32, |m, v| m.max(v.abs()));
                for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 4096.0 * f32::EPSILON * scale,
                        "fir={:?} fb={:?} n={} index {}: {} vs {}", &fir, &fb, input.len(), i, a, b
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn map_solve_slices_hand_on_carries_and_raw_inputs(
        fir in int_taps(),
        fb in int_feedback(),
        prev_raw in proptest::collection::vec(-9i64..9, 0..MAX_FIR_TAPS),
        seed in 0u64..1000,
        extra in 0usize..(3 * BLOCK),
    ) {
        // Lengths across one and two slice boundaries, on and off a block
        // boundary: the slices must agree with the unsliced two passes,
        // polling once before each slice after the first.
        for n in [SOLVE_SLICE - 1, SOLVE_SLICE + extra, 2 * SOLVE_SLICE + BLOCK + extra] {
            let input = long_input(n, seed);
            let expect = two_pass(&fir, &fb, &prev_raw, &[], &input);
            let mut got = input.clone();
            let mut polls = 0u64;
            let Some(out) = map_solve_ungated(&fir, &fb, &prev_raw, &[], &mut got, &mut || {
                polls += 1;
                true
            }) else {
                return Ok(());
            };
            prop_assert!(out.completed);
            prop_assert_eq!(out.slices, n.div_ceil(SOLVE_SLICE) as u64);
            prop_assert_eq!(polls, out.slices - 1);
            prop_assert!(got == expect, "fir={:?} fb={:?} n={}", &fir, &fb, n);
            // A refused poll stops after the first slice, which is final.
            let mut stopped = input.clone();
            let out = map_solve_ungated(&fir, &fb, &prev_raw, &[], &mut stopped, &mut || false)
                .expect("the kernel exists");
            prop_assert_eq!(out.completed, n <= SOLVE_SLICE);
            prop_assert_eq!(out.slices, 1);
            let first = n.min(SOLVE_SLICE);
            prop_assert!(stopped[..first] == expect[..first], "first slice n={}", n);
            prop_assert!(stopped[first..] == input[first..], "rest untouched n={}", n);
        }
    }
}

/// Seeded values in `[lo, hi)` from a SplitMix64 stream.
fn uniform32(n: usize, seed: u64, lo: f32, hi: f32) -> Vec<f32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            lo + (hi - lo) * ((z >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect()
}

/// The first index where `a` and `b` differ in bits; two NaNs count as
/// equal, since Rust leaves NaN payloads unspecified.
fn first_mismatch(a: &[f32], b: &[f32]) -> Option<usize> {
    a.iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()))
}

/// `true` when the 16-lane AVX-512F lane solve runs here; otherwise says
/// why the test is skipped.
fn wide_lanes_run(name: &str) -> bool {
    let mut probe = vec![0.5f32; MIN_LANE_CHUNK];
    let gates = vec![0.5f32; MIN_LANE_CHUNK];
    let runs =
        solve_lanes_ungated::<f32, 16>(true, &gates, None, 0.0, &mut probe, &mut || true).is_some();
    if !runs {
        eprintln!("{name}: skipped, this CPU has no AVX-512F for the 16-lane solve");
    }
    runs
}

/// Solves `input` both ways, the AVX-512F kernel and the portable loops
/// at 16 lanes, polling with `stop_at` (stop on that poll, 0 = never),
/// and checks outputs, completion, slices and polls agree.
fn wide_against_portable(
    gates: &[f32],
    offsets: Option<&[f32]>,
    seed: f32,
    input: &[f32],
    stop_at: u64,
    ctx: &str,
) -> bool {
    let run = |avx512: bool| {
        let mut data = input.to_vec();
        let mut polls = 0u64;
        let out =
            solve_lanes_ungated::<f32, 16>(avx512, gates, offsets, seed, &mut data, &mut || {
                polls += 1;
                stop_at == 0 || polls < stop_at
            })
            .expect("the 16-lane solve runs on this input");
        (data, out.completed, out.slices, polls)
    };
    let (want, want_done, want_slices, want_polls) = run(false);
    let (got, done, slices, polls) = run(true);
    assert_eq!(
        (done, slices, polls),
        (want_done, want_slices, want_polls),
        "{ctx}: completion, slices and polls"
    );
    if let Some(i) = first_mismatch(&want, &got) {
        panic!("{ctx}: index {i}: {} vs portable {}", got[i], want[i]);
    }
    done
}

/// The 16-lane sub-block of an `n`-element `f32` lane solve: an odd
/// number of 16-element cache lines.
fn wide_block(n: usize) -> usize {
    let lines = n / 256;
    (lines - 1 + lines % 2) * 16
}

/// `input` with every odd sub-block zeroed, `+0.0` and `-0.0` by turns:
/// there a fix-up's every addition, its smallest included, shows in the
/// output bits, and so does an addition at its flush point.
fn zero_odd_blocks(input: &[f32]) -> Vec<f32> {
    let b = wide_block(input.len());
    let mut out = input.to_vec();
    for j in (1..16).step_by(2) {
        out[j * b..(j + 1) * b].fill(if j % 4 == 1 { 0.0 } else { -0.0 });
    }
    out
}

/// Lengths at and above `MIN_LANE_CHUNK`, odd tails past the 16
/// sub-blocks, and slices across `SOLVE_SLICE`; gates in `[0.5, 0.99)`,
/// whose fix-ups flush inside their sub-blocks at the longer lengths,
/// and in `[0.9, 0.995)`, whose fix-ups reach a sub-block's end at the
/// shorter ones; with and without offsets and a seed, and with zeroed
/// sub-blocks under those gates and their negations. The AVX-512F solve
/// matches the portable loops at 16 lanes bit for bit, with the same
/// slices and polls.
#[test]
fn wide_lane_solve_matches_the_portable_loops() {
    if !wide_lanes_run("wide_lane_solve_matches_the_portable_loops") {
        return;
    }
    let lengths = [
        MIN_LANE_CHUNK,
        MIN_LANE_CHUNK + 1,
        4096 + 333,
        SOLVE_SLICE + 17,
        2 * SOLVE_SLICE + 50,
        3 * SOLVE_SLICE + 421,
        1 << 16,
        (1 << 16) + 255,
    ];
    for (r, (lo, hi)) in [(0.5f32, 0.99f32), (0.9, 0.995)].into_iter().enumerate() {
        for (k, &n) in lengths.iter().enumerate() {
            let seed = 17 * r as u64 + k as u64;
            let gates = uniform32(n, 0x6a7e + seed, lo, hi);
            let input = uniform32(n, 0x1b9 + seed, -1.0, 1.0);
            let offsets = uniform32(n, 0x0ff + seed, -0.5, 0.5);
            for (d, s) in [(None, 0.0f32), (Some(&offsets[..]), 0.75), (None, -3.5)] {
                let ctx = format!("gates [{lo}, {hi}) n={n} offsets={} seed={s}", d.is_some());
                assert!(wide_against_portable(&gates, d, s, &input, 0, &ctx));
            }
            // Negated gates keep some zeros `-0.0` through the lockstep.
            let zeroed = zero_odd_blocks(&input);
            let negated: Vec<f32> = gates.iter().map(|a| -a).collect();
            for (sign, g) in [("", &gates), ("-", &negated)] {
                let ctx = format!("gates {sign}[{lo}, {hi}) n={n}, odd sub-blocks zero");
                assert!(wide_against_portable(g, None, 0.0, &zeroed, 0, &ctx));
            }
        }
    }
}

/// A poll that says stop ends both solves after the same slices, with
/// the same partial buffer.
#[test]
fn wide_lane_solve_stops_where_the_portable_loops_stop() {
    if !wide_lanes_run("wide_lane_solve_stops_where_the_portable_loops_stop") {
        return;
    }
    for n in [2 * SOLVE_SLICE + 50, 3 * SOLVE_SLICE + 421, 1 << 16] {
        let gates = uniform32(n, 0x570, 0.5, 0.99);
        let input = uniform32(n, 0x571, -1.0, 1.0);
        let offsets = uniform32(n, 0x572, -0.5, 0.5);
        let total = n.div_ceil(SOLVE_SLICE) as u64;
        for stop_at in 1..total {
            let ctx = format!("n={n} stop at poll {stop_at}");
            assert!(!wide_against_portable(
                &gates,
                Some(&offsets),
                0.25,
                &input,
                stop_at,
                &ctx
            ));
        }
    }
}

/// NaN, infinite and `-0.0` inputs and seeds, placed inside a sub-block,
/// on a sub-block's last element (which seeds the next fix-up) and past
/// the sub-blocks: a non-finite value never flushes, so its fix-ups run
/// to the end and the solve falls back to the in-order fix-ups.
#[test]
fn wide_lane_solve_matches_the_portable_loops_on_non_finite_inputs() {
    if !wide_lanes_run("wide_lane_solve_matches_the_portable_loops_on_non_finite_inputs") {
        return;
    }
    for n in [MIN_LANE_CHUNK + 77, 1 << 16] {
        let gates = uniform32(n, 0x9a7, 0.5, 0.99);
        let clean = uniform32(n, 0x9a8, -1.0, 1.0);
        let b = wide_block(n);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0] {
            for at in [3 * b + b / 2, 5 * b - 1, 16 * b - 1, n - 1] {
                let mut input = clean.clone();
                input[at] = bad;
                let ctx = format!("n={n} input[{at}] = {bad}");
                assert!(wide_against_portable(&gates, None, 0.0, &input, 0, &ctx));
            }
            let mut zeros = clean.clone();
            zeros[..b].fill(-0.0);
            let ctx = format!("n={n} seed {bad}, first sub-block -0.0");
            assert!(wide_against_portable(&gates, None, bad, &zeros, 0, &ctx));
        }
    }
}

/// Gates the lane solve's proof must catch: expansive, NaN, infinite.
const HOSTILE_GATES: [f32; 6] = [
    1.5,
    1.000_000_1,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -1.5,
];

/// Gates on or inside `[-1, 1]` that must pass it: ±1 and a denormal.
const BORDER_GATES: [f32; 3] = [1.0, -1.0, 1e-40];

/// The ordered-integer distance between two `f32`s, in ULPs.
fn ulps(a: f32, b: f32) -> i64 {
    let key = |x: f32| {
        let bits = i64::from(x.to_bits() as i32);
        if bits < 0 {
            i64::from(i32::MIN) - bits
        } else {
            bits
        }
    };
    (key(a) - key(b)).abs()
}

/// Where the proof treats one gate apart in an `n`-element 16-lane
/// solve: a sub-block's first and last steps, the first step past a
/// poll slice's boundary (where one exists inside a sub-block), and past
/// the sub-blocks, in the tail the last lane's fix-up covers.
fn placements(n: usize) -> Vec<(&'static str, usize)> {
    let b = wide_block(n);
    let mut at = vec![
        ("a sub-block's first step", 3 * b),
        ("a sub-block's last step", 6 * b - 1),
        ("the tail", 16 * b + (n - 16 * b) / 2),
    ];
    let slice = SOLVE_SLICE / 16;
    if slice < b {
        at.push(("a slice boundary", 9 * b + slice));
    }
    at
}

/// One gate of every hostile and border kind at every placement, on
/// positive inputs and the ledger's `[0.5, 0.99)` gates, at lengths
/// whose sub-blocks hold several poll slices or fewer steps than the
/// decay point, one of them not a multiple of 16. The 16-lane solve,
/// which proves its gates as a fresh plan chunk does, is non-finite
/// exactly where the serial reference is, and elsewhere within 4 ULP of
/// it. A negative gate flips the chain's sign, and where the chain then
/// crosses zero the lanes' local solve and fix-up cancel, as signed
/// inputs do, so there the bound is 4 ULP of the largest magnitude the
/// reference reaches. The AVX-512F kernel, where it runs, gives the
/// portable loops' bits.
#[test]
fn the_lane_proof_catches_a_hostile_gate_anywhere() {
    let avx512 = wide_lanes_run("the_lane_proof_catches_a_hostile_gate_anywhere");
    for (k, n) in [1 << 16, (1 << 16) + 7, 4096 + 333].into_iter().enumerate() {
        let clean = uniform32(n, 0x9a70 + k as u64, 0.5, 0.99);
        let input = uniform32(n, 0x9a71 + k as u64, 0.5, 1.5);
        for (place, at) in placements(n) {
            for gate in HOSTILE_GATES.into_iter().chain(BORDER_GATES) {
                let mut gates = clean.clone();
                gates[at] = gate;
                let ctx = format!("n={n} gate {gate:e} at {at} ({place})");
                let mut got = input.clone();
                solve_lanes_ungated::<f32, 16>(false, &gates, None, 0.0, &mut got, &mut || true)
                    .expect("the 16-lane solve runs on this input");
                let sig = VaryingSignature::first_order(gates.clone()).unwrap();
                let want = reference(&sig, &input).unwrap();
                let scale = want
                    .iter()
                    .filter(|w| w.is_finite())
                    .fold(0f32, |m, w| m.max(w.abs()));
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.is_finite(), w.is_finite(), "{ctx}: i={i}: {g} vs {w}");
                    if !w.is_finite() {
                        continue;
                    }
                    let d = ulps(g, w);
                    let cancels =
                        gate.is_sign_negative() && (g - w).abs() <= 4.0 * scale * f32::EPSILON;
                    assert!(d <= 4 || cancels, "{ctx}: i={i}: {g} vs {w} ({d} ULPs)");
                }
                if avx512 {
                    assert!(wide_against_portable(&gates, None, 0.0, &input, 0, &ctx));
                }
            }
        }
    }
}

/// The per-sub-block verdict, on the case a fix-up cut at its flush
/// point gets wrong: zero inputs over a sub-block's first 400 steps,
/// where the chain decays past the smallest normal and sticks at the
/// smallest denormal (every gate is above one half), then one `1e38`
/// gate, which regrows that denormal to about `1.4e-7` in the chain. The
/// lanes' local solve is zero there, so the output is what the fix-up
/// carries: the chain's value only when that sub-block's fix-up runs on
/// past its flush point. At 4 and 16 lanes, and on AVX-512F.
#[test]
fn a_hostile_gate_regrows_a_fix_up_past_its_flush_point() {
    let avx512 = wide_lanes_run("a_hostile_gate_regrows_a_fix_up_past_its_flush_point");
    let n = 1 << 16;
    let clean = uniform32(n, 0xad7, 0.5, 0.99);
    let positive = uniform32(n, 0xad8, 0.5, 1.5);
    for lanes in [4usize, 16] {
        let lines = n / (lanes * 16);
        let b = (lines - 1 + lines % 2) * 16;
        let at = 3 * b + 400;
        let mut gates = clean.clone();
        gates[at] = 1e38;
        let mut input = positive.clone();
        input[3 * b..=at].fill(0.0);
        let sig = VaryingSignature::first_order(gates.clone()).unwrap();
        let want = reference(&sig, &input).unwrap();
        assert!(want[at] > 1e-8, "the chain regrows: {}", want[at]);
        let mut paths = vec![false];
        if avx512 && lanes == 16 {
            paths.push(true);
        }
        for avx in paths {
            let mut got = input.clone();
            match lanes {
                4 => {
                    solve_lanes_ungated::<f32, 4>(false, &gates, None, 0.0, &mut got, &mut || true)
                }
                _ => solve_lanes_ungated::<f32, 16>(avx, &gates, None, 0.0, &mut got, &mut || true),
            }
            .expect("the lane solve runs on this input");
            assert_eq!(
                got[at].to_bits(),
                want[at].to_bits(),
                "{lanes} lanes, avx512={avx}: {} vs {}",
                got[at],
                want[at]
            );
        }
    }
}
