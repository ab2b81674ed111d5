//! Criterion benchmarks for the time-varying matrix-carry lowering.
//!
//! Two workload families from the paper's "operators beyond constant
//! coefficients" frontier:
//!
//! * **order-1 selective scan** (the Mamba/SSM recurrence
//!   `y[i] = x[i] + a[i]·y[i-1]` with per-element gates) — f32, 1M
//!   elements, with fast-decay gates in `[0.1, 0.5]` and with the
//!   performance ledger's slow-decay gates in `[0.5, 0.99)`;
//! * **order-2 adaptive filter** (per-element biquad feedback) — f64;
//! * **the order-1 kernel on its own** (`varying_kernel_order1`): one
//!   f32 chunk's local solve, `VaryingPlan::solve_chunk(c, None, …)`,
//!   at chunk lengths from 2 Ki to 64 Ki, on three gate regimes: the
//!   ledger's `[0.5, 0.99)` (decay point near 280 elements), `[0.9,
//!   0.99)` (near 1.5 Ki) and `[0.99, 0.999)` (near 16 Ki). `chain`
//!   builds the plan under a forced `scalar` tier, so every chunk runs
//!   the dependent chain; `auto` is the default dispatch, which solves
//!   chunks of at least `MIN_LANE_CHUNK` elements in lanes, 4 or 16 by
//!   the plan's lane rule. `lanes4` and `lanes16` time the same chunk's
//!   lane solve at a fixed lane count (`solve_lanes_ungated`; `lanes16`
//!   on AVX-512F only), whatever the rule picks; it always proves its
//!   gates, as a fresh plan's chunk does. These rows reuse one plan, so
//!   the chunk's plan work is done in the warm-up. `fresh` (the ledger's
//!   gates, 16 Ki and 64 Ki) builds a new plan for every iteration and
//!   writes an 8 MiB buffer before it, both outside the timing, so the
//!   row times a request's chunk: plan work plus solve, with the gates
//!   and the input evicted from L2 to L3. `hostile` is the `fresh` row at
//!   64 Ki with one 1.5 gate mid-chunk, which fails the proof and leaves
//!   the chunk untruncated. This group sets `MIN_LANE_CHUNK` and the lane
//!   rule's threshold.
//! * **one selective-scan request, set-up included**
//!   (`varying_request_512k`): the `ssm_f32_512ki` ledger workload's
//!   request — 512 Ki f32 on the slow-decay gates, 64 Ki chunks — at 1
//!   and 2 workers. `fresh` builds a new signature and runner for every
//!   request and runs it, dropping the previous request's runner after
//!   the run as the ledger does; `warm` reruns one runner built outside
//!   the timing, the control. The gates and the input are copied in
//!   outside the timing.
//!
//! The baseline is the *naive* varying evaluator
//! ([`plr_core::varying::reference`]): the straightforward
//! bounds-checked tap loop anyone would write first. The parallel rows
//! measure [`VaryingRunner::run_in_place`] at 1/2/4 workers on one
//! buffer that `iter_batched` refreshes from the input outside the
//! timed region, so a row holds neither an output allocation nor the
//! first touch of its fresh pages; runner construction (its row
//! classification and kernel dedupe) happens once outside the timed
//! loop, and each chunk's plan work (its transition) runs on the
//! runner's first run, in the warm-up, mirroring the constant-coefficient
//! benches where runner construction is likewise excluded.
//! `PLR_BENCH_QUICK=1` shrinks the sample counts — the CI smoke mode.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use plr_core::element::Element;
use plr_core::varying::{reference, solve_lanes_ungated, VaryingPlan, VaryingSignature};
use plr_core::{set_kernel_override, KernelTier};
use plr_parallel::{RunnerConfig, VaryingRunner};
use std::cell::RefCell;
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("PLR_BENCH_QUICK").is_ok()
}

/// Deterministic gates in `[0.1, 0.5]` (contractive: the stable
/// selective-scan regime).
fn gates_f32(n: usize) -> Vec<f32> {
    let mut s = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            0.1 + 0.4 * ((s >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect()
}

/// Deterministic gates in `[0.5, 0.99)`, the `ssm_f32_512ki` ledger
/// workload's regime: each chunk's transition product underflows within a
/// few hundred elements, where the plan truncates the correction.
fn slow_decay_gates_f32(n: usize) -> Vec<f32> {
    gates_from_f32(n, 0.5, 0.49)
}

/// Deterministic gates in `[lo, lo + span)`.
fn gates_from_f32(n: usize, lo: f32, span: f32) -> Vec<f32> {
    let mut s = 0x853c49e6748fea9bu64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            lo + span * ((s >> 40) as f32 / (1u64 << 24) as f32)
        })
        .collect()
}

/// Deterministic order-2 coefficient rows, stable (|a1|≤0.8, |a2|≤0.15).
fn coeffs_f64_order2(n: usize) -> Vec<f64> {
    let mut s = 0x243f6a8885a308d3u64;
    (0..2 * n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64;
            if i % 2 == 0 {
                1.6 * u - 0.8
            } else {
                0.3 * u - 0.15
            }
        })
        .collect()
}

fn input_f32(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect()
}

fn input_f64(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

/// One group: the naive serial evaluator, then the matrix-carry runner
/// at 1/2/4 workers with 64 Ki-element chunks, solving a refreshed
/// buffer in place.
fn runner_group<T: Element>(c: &mut Criterion, name: &str, sig: VaryingSignature<T>, data: &[T]) {
    let buf = RefCell::new(data.to_vec());
    let mut g = c.benchmark_group(name);
    g.throughput(Throughput::Elements(data.len() as u64));
    g.sample_size(if quick() { 10 } else { 20 });
    g.bench_function("serial_naive", |b| {
        b.iter(|| reference(black_box(&sig), black_box(data)).unwrap());
    });
    for threads in [1usize, 2, 4] {
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1 << 16,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("plr", threads), |b| {
            b.iter_batched(
                || buf.borrow_mut().copy_from_slice(data),
                |()| {
                    runner
                        .run_in_place(black_box(&mut buf.borrow_mut()))
                        .unwrap()
                },
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

/// Order-1 f32 selective scan at 1M elements: naive serial evaluator vs
/// the matrix-carry runner at 1/2/4 workers. This is the acceptance
/// measurement: `plr` at ≥2 threads must beat `serial_naive`. The
/// slow-decay group runs the ledger's gates, whose unflushed transition
/// products stick at the smallest denormal instead of reaching zero.
fn bench_selective_scan(c: &mut Criterion) {
    let n = 1 << 20;
    let data = input_f32(n);
    let sig = VaryingSignature::first_order(gates_f32(n)).unwrap();
    runner_group(c, "varying_scan_order1_1M", sig, &data);
    let sig = VaryingSignature::first_order(slow_decay_gates_f32(n)).unwrap();
    runner_group(c, "varying_scan_slow_decay_order1_1M", sig, &data);
}

/// Order-2 f64 adaptive filter: the matrix-carry path where the carry is
/// a genuine 2×2 transition matrix per chunk.
fn bench_adaptive_filter(c: &mut Criterion) {
    let n = if quick() { 1 << 19 } else { 1 << 20 };
    let sig = VaryingSignature::new(2, coeffs_f64_order2(n)).unwrap();
    let name = format!("varying_filter_order2_{}k", n >> 10);
    runner_group(c, &name, sig, &input_f64(n));
}

/// The ladder's kernel rung: one f32 chunk's local solve at several
/// chunk lengths and gate regimes. Chunk 1 of a two-chunk plan is timed,
/// so the plan truncates it as it would in a run; the input is copied
/// afresh, outside the timing, for every iteration. `chain` and `auto`
/// solve through the plan; `lanes4` and `lanes16` run the lane solve on
/// the chunk's gates at a fixed lane count; `fresh` and `hostile` solve
/// through a new plan each time, from L3 ([`fresh_rows`]).
fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("varying_kernel_order1");
    g.sample_size(if quick() { 10 } else { 40 });
    let lens: &[usize] = if quick() {
        &[1 << 12, 1 << 16]
    } else {
        &[1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 16]
    };
    let regimes = [
        ("g0.5-0.99", 0.5f32, 0.49f32),
        ("g0.9-0.99", 0.9, 0.09),
        ("g0.99-0.999", 0.99, 0.009),
    ];
    for (regime, lo, span) in regimes {
        for &len in lens {
            let gates = gates_from_f32(2 * len, lo, span);
            let sig = VaryingSignature::first_order(gates.clone()).unwrap();
            let input = input_f32(len);
            let id = |name: &str| BenchmarkId::new(name, format!("{regime}/{}k", len >> 10));
            g.throughput(Throughput::Elements(len as u64));
            for (name, tier) in [("chain", KernelTier::Scalar), ("auto", KernelTier::Auto)] {
                set_kernel_override(Some(tier));
                let plan = VaryingPlan::build(sig.clone(), len).unwrap();
                set_kernel_override(None);
                g.bench_function(id(name), |b| {
                    b.iter_batched(
                        || input.clone(),
                        |mut chunk| {
                            plan.solve_chunk(1, None, &mut chunk, &mut || true);
                            chunk
                        },
                        BatchSize::LargeInput,
                    );
                });
            }
            let chunk_gates = &gates[len..];
            let lanes = |avx512: bool, chunk: &mut [f32]| {
                if avx512 {
                    solve_lanes_ungated::<f32, 16>(true, chunk_gates, None, 0.0, chunk, &mut || {
                        true
                    })
                } else {
                    solve_lanes_ungated::<f32, 4>(false, chunk_gates, None, 0.0, chunk, &mut || {
                        true
                    })
                }
            };
            for (name, avx512) in [("lanes4", false), ("lanes16", true)] {
                if lanes(avx512, &mut input.clone()).is_none() {
                    continue;
                }
                g.bench_function(id(name), |b| {
                    b.iter_batched(
                        || input.clone(),
                        |mut chunk| {
                            lanes(avx512, &mut chunk);
                            chunk
                        },
                        BatchSize::LargeInput,
                    );
                });
            }
            if regime == "g0.5-0.99" && len >= 1 << 14 {
                fresh_rows(&mut g, &gates, &input, &id);
            }
        }
    }
    g.finish();
}

/// The `fresh` row, and at 64 Ki the `hostile` row (one 1.5 gate
/// mid-chunk): chunk 1 of a new `auto` plan over `gates` per iteration,
/// its plan work done by the timed solve as in a request. Outside the
/// timing each iteration builds the plan, copies the input, and writes
/// an 8 MiB buffer, twice the host's L2, so the gates and the input are
/// read from L3.
fn fresh_rows(
    g: &mut criterion::BenchmarkGroup<'_>,
    gates: &[f32],
    input: &[f32],
    id: &dyn Fn(&str) -> BenchmarkId,
) {
    let len = input.len();
    let mut hostile = gates.to_vec();
    hostile[len + len / 2] = 1.5;
    let rows: &[(&str, &[f32])] = if len >= 1 << 16 {
        &[("fresh", gates), ("hostile", &hostile)]
    } else {
        &[("fresh", gates)]
    };
    let mut evict = vec![0u8; 8 << 20];
    set_kernel_override(Some(KernelTier::Auto));
    for &(name, gates) in rows {
        let sig = VaryingSignature::first_order(gates.to_vec()).unwrap();
        g.bench_function(id(name), |b| {
            b.iter_batched(
                || {
                    let plan = VaryingPlan::build(sig.clone(), len).unwrap();
                    let chunk = input.to_vec();
                    for (i, line) in evict.chunks_mut(64).enumerate() {
                        line[0] = i as u8;
                    }
                    (plan, chunk)
                },
                |(plan, mut chunk)| {
                    plan.solve_chunk(1, None, &mut chunk, &mut || true);
                    (plan, chunk)
                },
                BatchSize::LargeInput,
            );
        });
    }
    set_kernel_override(None);
    black_box(&evict);
}

/// The ledger's selective-scan request end to end: a fresh signature and
/// runner per request (`fresh`) against one warm runner (`warm`), at 1
/// and 2 workers. Each request solves the same refreshed buffer in place.
fn bench_request(c: &mut Criterion) {
    let n = 1 << 19;
    let mut g = c.benchmark_group("varying_request_512k");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 40 });
    let gates = slow_decay_gates_f32(n);
    let input = input_f32(n);
    let buf = RefCell::new(input.clone());
    let refresh = || buf.borrow_mut().copy_from_slice(&input);
    for threads in [1usize, 2] {
        let config = RunnerConfig {
            chunk_size: 1 << 16,
            threads,
            ..Default::default()
        };
        let mut last = None;
        g.bench_function(BenchmarkId::new("fresh", threads), |b| {
            b.iter_batched(
                || {
                    refresh();
                    gates.clone()
                },
                |gates| {
                    let sig = VaryingSignature::first_order(gates).unwrap();
                    let runner = VaryingRunner::with_config(sig, config).unwrap();
                    let stats = runner.run_in_place(&mut buf.borrow_mut()).unwrap();
                    last = Some(runner);
                    stats
                },
                BatchSize::LargeInput,
            );
        });
        drop(last);
        let sig = VaryingSignature::first_order(gates.clone()).unwrap();
        let runner = VaryingRunner::with_config(sig, config).unwrap();
        g.bench_function(BenchmarkId::new("warm", threads), |b| {
            b.iter_batched(
                refresh,
                |()| runner.run_in_place(&mut buf.borrow_mut()).unwrap(),
                BatchSize::LargeInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_selective_scan,
    bench_adaptive_filter,
    bench_kernel,
    bench_request
);
criterion_main!(benches);
