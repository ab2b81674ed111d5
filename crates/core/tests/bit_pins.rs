//! Bit pins for the float SIMD kernels.
//!
//! The differential suites (`simd_props`, `map_solve`) hold the float
//! kernels to a scaled-ULP bound of the scalar loop, so a reordered FMA
//! chain would pass them. These tests hash the exact output bits
//! (FNV-1a over `to_bits`) of the plain solve and the fused map + solve
//! on fixed seeded inputs, and compare each hash with a recorded digest.
//! A change that only moves memory traffic (a prefetch, a different
//! loop walk) leaves every digest as it is. A change that alters float
//! arithmetic must update the digests it moves and say so in its change
//! record.
//!
//! The inputs are about three [`SOLVE_SLICE`]s long with an odd tail, so
//! the digests cover the vector blocks, the slice hand-offs of the map +
//! solve and the scalar tail. They run where `T`'s best ISA is AVX2, the
//! one the float kernels exist for; elsewhere they print why they
//! skipped.
//!
//! The varying lane solve has pins of its own: an `f64` lane chunk, which
//! runs four scalar lanes on every host, and a ledger-shaped 64 Ki `f32`
//! chunk at 16 lanes, whose digest the portable loops must give
//! everywhere and the AVX-512F kernel wherever the CPU has it.

use plr_core::blocked::SOLVE_SLICE;
use plr_core::element::Element;
use plr_core::kernel::KernelKind;
use plr_core::simd::{best_isa, map_solve_ungated, Isa, SimdKernel};
use plr_core::varying::{solve_lanes_ungated, VaryingPlan, VaryingSignature};
use plr_core::{set_kernel_override, KernelTier};

/// Elements per case: three solve slices and an odd tail.
const LEN: usize = 3 * SOLVE_SLICE + 13;

/// Float element types whose bits the digests cover.
trait Bits: Element {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// Seeded inputs in [-1, 1) from a SplitMix64 stream.
fn input<T: Bits>(seed: u64) -> Vec<T> {
    let mut state = seed;
    (0..LEN)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            T::from_f64((z >> 11) as f64 / (1u64 << 52) as f64 - 1.0)
        })
        .collect()
}

/// FNV-1a (64-bit) over each element's bits, little-endian, at the
/// type's own width.
fn digest<T: Bits>(data: &[T]) -> u64 {
    let width = std::mem::size_of::<T>();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in data {
        for b in &v.bits().to_le_bytes()[..width] {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `true` when the AVX2 float kernels run here; otherwise says why the
/// pin is skipped.
fn runs<T: Element>(name: &str) -> bool {
    let isa = best_isa::<T>();
    if isa != Some(Isa::Avx2) {
        eprintln!("{name}: skipped, the best ISA here is {isa:?}, and the pins are for Avx2");
        return false;
    }
    true
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: output bits changed (digest {got:#018x}, pinned {want:#018x})"
    );
}

fn solve_digest<T: Bits>(feedback: &[f64], history: &[f64], seed: u64) -> u64 {
    let fb: Vec<T> = feedback.iter().map(|&v| T::from_f64(v)).collect();
    let hist: Vec<T> = history.iter().map(|&v| T::from_f64(v)).collect();
    let kernel = SimdKernel::try_new(&fb).expect("order 2 on the best ISA");
    let mut data = input::<T>(seed);
    kernel.solve_in_place_with_history(&hist, &mut data);
    digest(&data)
}

fn map_solve_digest<T: Bits>(
    fir: &[f64],
    feedback: &[f64],
    prev_raw: &[f64],
    history: &[f64],
    seed: u64,
) -> u64 {
    let conv = |v: &[f64]| v.iter().map(|&x| T::from_f64(x)).collect::<Vec<T>>();
    let mut data = input::<T>(seed);
    let mut polls = 0;
    let out = map_solve_ungated(
        &conv(fir),
        &conv(feedback),
        &conv(prev_raw),
        &conv(history),
        &mut data,
        &mut || {
            polls += 1;
            true
        },
    )
    .expect("taps and order in the fused kernel's range");
    assert!(out.completed);
    assert_eq!(out.slices, 4);
    assert_eq!(polls, 3);
    digest(&data)
}

#[test]
fn simd_solve_f32_order2_bits_are_pinned() {
    if runs::<f32>("simd_solve_f32_order2") {
        let got = solve_digest::<f32>(&[1.6, -0.64], &[0.75, -0.5], 0xF32);
        check("simd_solve_f32_order2", got, 0xc5f6_43d4_b0cd_9814);
    }
}

#[test]
fn simd_solve_f64_order2_bits_are_pinned() {
    if runs::<f64>("simd_solve_f64_order2") {
        let got = solve_digest::<f64>(&[0.9, -0.2], &[0.75, -0.5], 0xF64);
        check("simd_solve_f64_order2", got, 0xa0af_11f7_6f86_2d0a);
    }
}

#[test]
fn map_solve_f32_lowpass_bits_are_pinned() {
    if runs::<f32>("map_solve_f32_lowpass") {
        let got = map_solve_digest::<f32>(&[0.04], &[1.6, -0.64], &[0.5], &[0.25, -0.125], 0x1F32);
        check("map_solve_f32_lowpass", got, 0x1c9a_9824_a0b8_7e48);
    }
}

#[test]
fn map_solve_f64_three_taps_bits_are_pinned() {
    if runs::<f64>("map_solve_f64_three_taps") {
        let got = map_solve_digest::<f64>(
            &[0.5, 0.3, 0.2],
            &[1.2, -0.5],
            &[0.7, -0.4],
            &[0.25, -0.125],
            0x3F64,
        );
        check("map_solve_f64_three_taps", got, 0xc4a4_5605_9e15_8af2);
    }
}

/// Gates in `[0.5, 0.99)`, the selective-scan ledger's regime, from the
/// same stream as [`input`].
fn ledger_gates<T: Bits>(seed: u64, n: usize) -> Vec<T> {
    let mut gates = Vec::with_capacity(n);
    let mut k = 0;
    while gates.len() < n {
        let x = input::<T>(seed + k);
        gates.extend(x.iter().map(|&v| T::from_f64(0.745 + 0.245 * v.to_f64())));
        k += 1;
    }
    gates.truncate(n);
    gates
}

/// Chunk 1 of a two-chunk `f64` plan, solved from zero with offsets under
/// `auto`: the four-lane solve on every host. The plan is built with the
/// tier pinned, which no other test in this binary reads.
#[test]
fn lane_solve_f64_bits_are_pinned() {
    let gates = ledger_gates::<f64>(0x1A4E, 2 * LEN);
    let offsets: Vec<f64> = [input::<f64>(0x0FF5), input::<f64>(0x0FF6)].concat();
    let sig = VaryingSignature::first_order(gates)
        .unwrap()
        .with_offsets(offsets)
        .unwrap();
    set_kernel_override(Some(KernelTier::Auto));
    let plan = VaryingPlan::build(sig, LEN);
    set_kernel_override(None);
    let plan = plan.unwrap();
    let mut data = input::<f64>(0x1F64);
    let mut polls = 0;
    let out = plan.solve_chunk(1, None, &mut data, &mut || {
        polls += 1;
        true
    });
    assert!(out.completed);
    assert_eq!(out.kernel, KernelKind::Lanes);
    assert_eq!((out.slices, polls), (4, 3));
    check("lane_solve_f64", digest(&data), 0xf98c_8da4_a735_1dae);
}

/// A ledger-shaped chunk at 16 lanes: 64 Ki `f32` inputs in `[-1, 1)`,
/// gates in `[0.5, 0.99)`, from zero. The portable loops give the digest
/// on every host; the AVX-512F kernel gives it where it runs.
#[test]
fn wide_lane_solve_f32_ledger_bits_are_pinned() {
    let n = 1 << 16;
    let gates = ledger_gates::<f32>(0x55A, n);
    let x = ledger_gates::<f32>(0x55B, n)
        .iter()
        .map(|&g| (g - 0.745) / 0.245)
        .collect::<Vec<f32>>();
    for avx512 in [false, true] {
        let mut data = x.clone();
        let Some(out) =
            solve_lanes_ungated::<f32, 16>(avx512, &gates, None, 0.0, &mut data, &mut || true)
        else {
            eprintln!(
                "wide_lane_solve_f32_ledger: the AVX-512F leg skipped, this CPU lacks AVX-512F"
            );
            continue;
        };
        assert!(out.completed);
        assert_eq!(out.slices, 8);
        check(
            "wide_lane_solve_f32_ledger",
            digest(&data),
            0x4fdf_1f83_9a03_90d2,
        );
    }
}
