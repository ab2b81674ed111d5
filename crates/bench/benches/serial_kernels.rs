//! Scalar vs register-blocked vs explicit-SIMD serial solve kernels.
//!
//! The scalar feedback loop carries a per-element dependency (each output
//! feeds the next multiply-add), so its throughput is capped by the
//! multiply-add latency chain regardless of how wide the machine is. The
//! blocked kernel's local solution is dependency-free inside each
//! [`BLOCK`]-element block, leaving only a once-per-block carry
//! dependency — and the explicit SIMD kernels hand that independent work
//! to the vector unit directly, with no reliance on `target-cpu=native`
//! autovectorization. This bench quantifies what each layer buys per
//! order and size; the i64 group's explicit kernel runs on AVX-512
//! (`vpmullq`), the one ISA i64 has. The i64 group also times `auto`,
//! the kernel dispatch actually runs: for its second-order prefix sum,
//! the add-only cascade of two running sums.
//!
//! Orders 1–4 use the cascaded low-pass feedback families from the
//! paper's evaluation (stable, so values stay in range however many
//! samples run). `PLR_BENCH_QUICK=1` shrinks the sweep to one small size
//! with few samples — the CI smoke mode.
//!
//! The `serial_map_solve` groups time a signature with FIR taps two
//! ways: `two_pass`, the in-place FIR map followed by the sliced solve,
//! and `fused`, `CorrectionPlan::map_solve_sliced`, which under the
//! default `auto` tier folds the map into the SIMD solve.
//!
//! The `cascade_chunks` group is the kernel rung of one psum2 chunk:
//! a buffer well past the L3 walked in 64 Ki chunks on one thread, each
//! chunk solved from zero history and corrected with carries, as a
//! worker of the chunk pipeline does. `solve` times the solve alone,
//! `solve_then_correct` corrects each chunk in a second pass, from
//! cache, and `fused` corrects each chunk inside the next chunk's solve
//! (`CascadeKernel::solve_and_correct_sliced`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use plr_core::blocked::{fir_in_place, BlockedKernel, SolveKernel};
use plr_core::element::Element;
use plr_core::plan::{CorrectionPlan, PlanRequest};
use plr_core::prefix::CascadeKernel;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::simd::SimdKernel;
use plr_core::validate::validate;
use std::hint::black_box;

/// Stable feedback vectors: 1–4 cascaded `(1 : 0.8)` stages.
const FEEDBACKS: [(&str, &[f64]); 4] = [
    ("order1", &[0.8]),
    ("order2", &[1.6, -0.64]),
    ("order3", &[2.4, -1.92, 0.512]),
    ("order4", &[3.2, -3.84, 2.048, -0.4096]),
];

fn noise(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 997) as f64 / 499.0 - 1.0)
        .collect()
}

fn bench_solve_kernels(c: &mut Criterion) {
    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let sizes: &[usize] = if quick {
        &[1 << 16]
    } else {
        &[1 << 16, 1 << 20, 1 << 23]
    };
    for (name, feedback) in FEEDBACKS {
        let kernel = BlockedKernel::try_new(feedback).expect("orders 1-4 are blocked");

        // The comparison is only meaningful if the kernels agree.
        let check_in = noise(10_000);
        let mut scalar_out = check_in.clone();
        serial::recursive_in_place(feedback, &mut scalar_out);
        let mut blocked_out = check_in;
        kernel.solve_in_place(&mut blocked_out);
        for (a, b) in scalar_out.iter().zip(&blocked_out) {
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "{name}: blocked kernel disagrees with the scalar loop: {a} vs {b}"
            );
        }

        for &n in sizes {
            let input = noise(n);
            let mut g = c.benchmark_group(format!("serial_kernels_{}_{}k", name, n >> 10));
            g.throughput(Throughput::Elements(n as u64));
            g.sample_size(if quick { 5 } else { 20 });
            g.bench_function("scalar", |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut buf| {
                        serial::recursive_in_place(black_box(feedback), black_box(&mut buf));
                        buf
                    },
                    BatchSize::LargeInput,
                );
            });
            g.bench_function("blocked", |b| {
                b.iter_batched(
                    || input.clone(),
                    |mut buf| {
                        kernel.solve_in_place(black_box(&mut buf));
                        buf
                    },
                    BatchSize::LargeInput,
                );
            });
            if let Some(simd) = SimdKernel::try_new(feedback) {
                g.bench_function(format!("simd_{:?}", simd.isa()).to_lowercase(), |b| {
                    b.iter_batched(
                        || input.clone(),
                        |mut buf| {
                            simd.solve_in_place(black_box(&mut buf));
                            buf
                        },
                        BatchSize::LargeInput,
                    );
                });
            }
            g.finish();
        }
    }
}

fn bench_solve_kernels_int(c: &mut Criterion) {
    // One integer group: exact arithmetic, same dependency structure. The
    // second-order prefix sum is the paper's Section 2.3 workhorse.
    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let feedback: &[i64] = &[2, -1];
    let kernel = BlockedKernel::try_new(feedback).expect("order 2 is blocked");
    let n: usize = if quick { 1 << 16 } else { 1 << 20 };
    let input: Vec<i64> = (0..n)
        .map(|i| ((i as i64).wrapping_mul(31) % 17) - 8)
        .collect();

    let mut scalar_out = input.clone();
    serial::recursive_in_place(feedback, &mut scalar_out);
    let mut blocked_out = input.clone();
    kernel.solve_in_place(&mut blocked_out);
    assert_eq!(
        scalar_out, blocked_out,
        "integer kernels must agree exactly"
    );

    let mut g = c.benchmark_group(format!("serial_kernels_i64_order2_{}k", n >> 10));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick { 5 } else { 20 });
    g.bench_function("scalar", |b| {
        b.iter_batched(
            || input.clone(),
            |mut buf| {
                serial::recursive_in_place(black_box(feedback), black_box(&mut buf));
                buf
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("blocked", |b| {
        b.iter_batched(
            || input.clone(),
            |mut buf| {
                kernel.solve_in_place(black_box(&mut buf));
                buf
            },
            BatchSize::LargeInput,
        );
    });
    // What `SolveKernel::select` dispatches under the process's tier:
    // with the default `auto`, the cascade kernel.
    let auto = SolveKernel::select(feedback);
    let mut check = input.clone();
    auto.solve_in_place(&mut check);
    assert_eq!(
        scalar_out,
        check,
        "{:?} kernel must agree exactly",
        auto.kind()
    );
    g.bench_function("auto", |b| {
        b.iter_batched(
            || input.clone(),
            |mut buf| {
                auto.solve_in_place(black_box(&mut buf));
                buf
            },
            BatchSize::LargeInput,
        );
    });
    // The explicit kernel on i64's one ISA (AVX-512 `vpmullq`), where
    // present; the `_best` suffix keeps the recorded bench ID.
    if let Some(simd) = SimdKernel::try_new(feedback) {
        let isa = simd.isa();
        let mut check = input.clone();
        simd.solve_in_place(&mut check);
        assert_eq!(scalar_out, check, "{isa:?} i64 kernel must agree exactly");
        g.bench_function(format!("simd_{isa:?}_best").to_lowercase(), |b| {
            b.iter_batched(
                || input.clone(),
                |mut buf| {
                    simd.solve_in_place(black_box(&mut buf));
                    buf
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

fn bench_map_solve(c: &mut Criterion) {
    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let n: usize = if quick { 1 << 16 } else { 1 << 20 };
    map_solve_group::<f32>(c, "f32_taps1_order2", "0.04 : 1.6, -0.64", n, quick);
    map_solve_group::<f64>(
        c,
        "f64_taps3_order2",
        "0.81, -1.62, 0.81 : 1.6, -0.64",
        n,
        quick,
    );
}

/// One whole-row map + solve of `n` elements, fused against two passes.
fn map_solve_group<T: Element>(c: &mut Criterion, name: &str, text: &str, n: usize, quick: bool)
where
    Signature<T>: std::str::FromStr,
    <Signature<T> as std::str::FromStr>::Err: std::fmt::Debug,
{
    let sig: Signature<T> = text.parse().unwrap();
    let plan = CorrectionPlan::build(&sig, PlanRequest::new::<T>(0));
    let input: Vec<T> = noise(n).into_iter().map(T::from_f64).collect();
    let two_pass = |buf: &mut [T]| {
        fir_in_place(plan.fir(), &[], 0, buf);
        plan.solve().solve_in_place_sliced(buf, &mut || true)
    };
    let fused = |buf: &mut [T]| plan.map_solve_sliced(buf, &[], &mut || true);
    let (mut a, mut b) = (input.clone(), input.clone());
    two_pass(&mut a);
    fused(&mut b);
    validate(&a, &b, 1e-4).unwrap_or_else(|e| panic!("{name}: fused disagrees: {e}"));

    let mut g = c.benchmark_group(format!("serial_map_solve_{name}_{}k", n >> 10));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick { 5 } else { 20 });
    g.bench_function("two_pass", |bench| {
        bench.iter_batched(
            || input.clone(),
            |mut buf| {
                two_pass(black_box(&mut buf));
                buf
            },
            BatchSize::LargeInput,
        );
    });
    g.bench_function("fused", |bench| {
        bench.iter_batched(
            || input.clone(),
            |mut buf| {
                fused(black_box(&mut buf));
                buf
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

/// One psum2 chunk's solve and correction, apart and fused (module
/// docs): 32 Mi `i64` (256 MiB) in 64 Ki chunks, 1 Mi in quick mode.
fn bench_cascade_chunks(c: &mut Criterion) {
    let quick = std::env::var("PLR_BENCH_QUICK").is_ok();
    let n: usize = if quick { 1 << 20 } else { 1 << 25 };
    let m = 1 << 16;
    let kernel = CascadeKernel::try_new(&[2i64, -1]).expect("(1: 2, -1) is a cascade");
    let carries = [3i64, -5];
    let solve = |buf: &mut [i64]| {
        for chunk in buf.chunks_mut(m) {
            kernel.solve_in_place(chunk);
        }
    };
    let solve_then_correct = |buf: &mut [i64]| {
        for chunk in buf.chunks_mut(m) {
            kernel.solve_in_place(chunk);
            kernel.add_carry_response(&carries, chunk);
        }
    };
    let fused = |buf: &mut [i64]| {
        let mut held: Option<&mut [i64]> = None;
        for chunk in buf.chunks_mut(m) {
            match held.take() {
                Some(prev) => {
                    kernel.solve_and_correct_sliced(&carries, prev, chunk, &mut || true);
                }
                None => kernel.solve_in_place(chunk),
            }
            held = Some(chunk);
        }
        if let Some(last) = held {
            kernel.add_carry_response(&carries, last);
        }
    };
    let input: Vec<i64> = (0..n as i64)
        .map(|i| (i.wrapping_mul(31) % 17) - 8)
        .collect();
    let (mut a, mut b) = (input[..3 * m + 5].to_vec(), input[..3 * m + 5].to_vec());
    solve_then_correct(&mut a);
    fused(&mut b);
    assert_eq!(a, b, "fused must equal the two passes exactly");

    // One buffer, solved in place again each iteration: the values wrap,
    // and a copy per iteration would double the footprint.
    let mut buf = input;
    let mut g = c.benchmark_group(format!("cascade_chunks_i64_order2_{}k", n >> 10));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick { 5 } else { 20 });
    g.bench_function("solve", |bench| bench.iter(|| solve(black_box(&mut buf))));
    g.bench_function("solve_then_correct", |bench| {
        bench.iter(|| solve_then_correct(black_box(&mut buf)))
    });
    g.bench_function("fused", |bench| bench.iter(|| fused(black_box(&mut buf))));
    g.finish();
}

criterion_group!(
    benches,
    bench_solve_kernels,
    bench_solve_kernels_int,
    bench_map_solve,
    bench_cascade_chunks
);
criterion_main!(benches);
