//! Criterion benchmarks for the real multithreaded runtime: wall-clock
//! speedup of the chunked decoupled-look-back algorithm over the serial
//! loop, across thread counts, recurrence types, and correction-plan
//! modes. This is the reproduction's genuine (non-modelled) parallel
//! measurement. `PLR_BENCH_QUICK=1` shrinks every group to 1M elements
//! with few samples — the CI smoke mode.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use plr_core::plan::PlanMode;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::{ParallelRunner, RunnerConfig};
use std::cell::RefCell;
use std::hint::black_box;

fn quick() -> bool {
    std::env::var("PLR_BENCH_QUICK").is_ok()
}

fn int_input(n: usize) -> Vec<i64> {
    (0..n)
        .map(|i| ((i as i64).wrapping_mul(0x9E3779B9) % 41) - 20)
        .collect()
}

fn float_input(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 17) as f32) * 0.25 - 2.0).collect()
}

fn bench_speedup_int(c: &mut Criterion) {
    let n = if quick() { 1 << 20 } else { 1 << 23 };
    let data = int_input(n);
    let mut g = c.benchmark_group(format!("parallel_order2_{}M", n >> 20));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 15 });
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    g.bench_function("serial", |b| {
        b.iter(|| serial::run(black_box(&sig), black_box(&data)));
    });
    let threads: &[usize] = if quick() { &[2] } else { &[1, 2, 4, 8] };
    for &threads in threads {
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1 << 16,
                threads,
                ..Default::default()
            },
        )
        .unwrap();
        g.bench_function(BenchmarkId::new("plr", threads), |b| {
            b.iter(|| runner.run(black_box(&data)).unwrap());
        });
    }
    g.finish();
}

/// The lowpass pipeline on its own: each `plr` row times
/// `ParallelRunner::run_in_place` on one buffer that `iter_batched`
/// refreshes from the input outside the timed region, as the ledger
/// does, so the row holds no output allocation. `serial` stays the
/// allocating reference loop.
fn bench_speedup_filter(c: &mut Criterion) {
    let n = if quick() { 1 << 20 } else { 1 << 23 };
    let data = float_input(n);
    let buf = RefCell::new(data.clone());
    let mut g = c.benchmark_group(format!("parallel_lowpass2_{}M", n >> 20));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 15 });
    let sig: Signature<f32> = "0.04:1.6,-0.64".parse().unwrap();
    g.bench_function("serial", |b| {
        b.iter(|| serial::run(black_box(&sig), black_box(&data)));
    });
    let threads: &[usize] = if quick() { &[2] } else { &[2, 8] };
    for &threads in threads {
        let runner = ParallelRunner::with_config(
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
                || buf.borrow_mut().copy_from_slice(&data),
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

fn bench_prefix_sum(c: &mut Criterion) {
    // 16M full / 1M quick: bandwidth-bound on a CPU too.
    let n = if quick() { 1 << 20 } else { 1 << 24 };
    let data = int_input(n);
    let mut g = c.benchmark_group(format!("parallel_prefix_sum_{}M", n >> 20));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 15 });
    let sig: Signature<i64> = "1:1".parse().unwrap();
    g.bench_function("serial", |b| {
        b.iter(|| serial::run(black_box(&sig), black_box(&data)));
    });
    let runner = ParallelRunner::with_config(
        sig,
        RunnerConfig {
            chunk_size: 1 << 17,
            threads: 0,
            ..Default::default()
        },
    )
    .unwrap();
    g.bench_function("plr_all_cores", |b| {
        b.iter(|| runner.run(black_box(&data)).unwrap());
    });
    g.finish();
}

fn bench_plan_modes(c: &mut Criterion) {
    // Stable IIR, the workload the correction-plan layer exists for: with
    // PlanMode::Auto the 0.8-pole factor table underflows a few hundred
    // elements in, the plan truncates to that prefix, and every carry
    // fix-up collapses to a copy; PlanMode::Dense is the same runner with
    // the full-table correction the seed shipped. The gap between the two
    // `plr` lines — on identical chunking and threads — is the plan
    // layer's whole contribution.
    let n = if quick() { 1 << 20 } else { 1 << 23 };
    let data = float_input(n);
    let mut g = c.benchmark_group(format!("plan_stable_iir_{}M", n >> 20));
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(if quick() { 10 } else { 15 });
    let sig: Signature<f32> = "0.2:0.8".parse().unwrap();
    g.bench_function("serial", |b| {
        b.iter(|| serial::run(black_box(&sig), black_box(&data)));
    });
    // Two chunk sizes: 64 Ki keeps the dense factor table L2-resident
    // (the correction pass is nearly free either way, so the gap is
    // small); n/8 pushes the dense table out of cache, where the dense
    // baseline pays a DRAM-bandwidth pass the truncated plan skips.
    for chunk in [1 << 16, n / 8] {
        for (name, mode) in [("plr_auto", PlanMode::Auto), ("plr_dense", PlanMode::Dense)] {
            let runner = ParallelRunner::with_config(
                sig.clone(),
                RunnerConfig {
                    chunk_size: chunk,
                    threads: 0,
                    plan: mode,
                    ..Default::default()
                },
            )
            .unwrap();
            g.bench_function(BenchmarkId::new(name, chunk), |b| {
                b.iter(|| runner.run(black_box(&data)).unwrap());
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_speedup_int,
    bench_speedup_filter,
    bench_prefix_sum,
    bench_plan_modes
);
criterion_main!(benches);
