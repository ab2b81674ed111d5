//! Chunk-size sweep behind `BatchRunner::run_long_rows`' dispatch formula.
//!
//! The long-rows path picks one chunk size per call from the row width and
//! the worker count; the constants in that formula were last tuned before
//! the register-blocked serial kernels landed, which made the local solve
//! ~3x faster and shifted the balance toward larger chunks (fixed per-chunk
//! costs — ticket claim, carry publication, two timing reads, the O(k²)
//! fix-up — stopped being small next to the solve). This bin regenerates
//! the sweep the current constants were chosen from; results are recorded
//! in EXPERIMENTS.md ("Long-rows chunk dispatch").
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p plr-bench --bin tune_long_rows [-- --kernel <tier>]
//! ```
//!
//! `--kernel scalar|blocked|auto` pins the serial solve kernel for the
//! whole sweep (same knob as the `PLR_KERNEL` env var), so the dispatch
//! band can be re-tuned per kernel tier: the SIMD solve `auto` runs
//! shifts the per-chunk fixed-cost balance exactly the way the blocked
//! kernels did when these constants were last revisited.

use plr_core::signature::Signature;
use plr_core::{set_kernel_override, KernelTier};
use plr_parallel::{ParallelRunner, RunnerConfig};
use std::hint::black_box;
use std::time::Instant;

/// Median-of-`reps` wall time for one in-place run over `data`.
fn time_run<T: plr_core::Element>(runner: &ParallelRunner<T>, data: &[T], reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut buf = data.to_vec();
            let start = Instant::now();
            runner.run_in_place(black_box(&mut buf)).unwrap();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn sweep<T: plr_core::Element>(label: &str, sig_text: &str, widths: &[usize], threads: &[usize])
where
    Signature<T>: std::str::FromStr,
    <Signature<T> as std::str::FromStr>::Err: std::fmt::Debug,
{
    let sig: Signature<T> = sig_text.parse().unwrap();
    println!("\n== {label} ({sig_text}) ==");
    println!(
        "{:>9} {:>7} | {:>9} {:>12} | best",
        "width", "thr", "chunk", "M elems/s"
    );
    for &width in widths {
        let data: Vec<T> = (0..width)
            .map(|i| T::from_i32(((i * 29) % 19) as i32 - 9))
            .collect();
        for &t in threads {
            let mut best = (0usize, 0.0f64);
            let mut rows = Vec::new();
            for shift in [6usize, 8, 10, 12, 14, 16] {
                let chunk = 1usize << shift;
                if chunk >= width {
                    break;
                }
                let runner = ParallelRunner::with_config(
                    sig.clone(),
                    RunnerConfig {
                        chunk_size: chunk,
                        threads: t,
                        ..Default::default()
                    },
                )
                .unwrap();
                let secs = time_run(&runner, &data, 5);
                let meps = width as f64 / secs / 1e6;
                if meps > best.1 {
                    best = (chunk, meps);
                }
                rows.push((chunk, meps));
            }
            for (chunk, meps) in &rows {
                let mark = if *chunk == best.0 { "  <-- best" } else { "" };
                println!("{width:>9} {t:>7} | {chunk:>9} {meps:>12.1} |{mark}");
            }
        }
    }
}

/// Parses `--kernel <tier>` (or `--kernel=<tier>`) from the argument
/// list; anything else is rejected with a usage message.
fn parse_kernel_arg() -> Option<KernelTier> {
    let mut args = std::env::args().skip(1);
    let mut tier = None;
    while let Some(arg) = args.next() {
        let value = if arg == "--kernel" {
            args.next().unwrap_or_else(|| usage("missing tier"))
        } else if let Some(v) = arg.strip_prefix("--kernel=") {
            v.to_string()
        } else {
            usage(&format!("unknown argument {arg:?}"));
        };
        tier = Some(match value.as_str() {
            "scalar" => KernelTier::Scalar,
            "blocked" => KernelTier::Blocked,
            "auto" => KernelTier::Auto,
            other => usage(&format!("unknown kernel tier {other:?}")),
        });
    }
    tier
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: tune_long_rows [--kernel scalar|blocked|auto]");
    std::process::exit(2);
}

fn main() {
    if let Some(tier) = parse_kernel_arg() {
        set_kernel_override(Some(tier));
        println!("(kernel tier forced: {tier:?})");
    }
    let widths = [1 << 18, 1 << 20, 1 << 22];
    let threads = [1usize, 2, 4];
    sweep::<i64>("order-2 prefix sum, i64", "1:2,-1", &widths, &threads);
    sweep::<f32>(
        "stable IIR, f32 (truncated plan)",
        "0.2:0.8",
        &widths,
        &threads,
    );
    sweep::<f64>("2-pole low-pass, f64", "0.04:1.6,-0.64", &widths, &threads);
}
