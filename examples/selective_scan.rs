//! Parallel selective scan — the gated order-1 recurrence at the heart of
//! selective state-space models (Mamba-style):
//!
//! ```text
//! h[i] = a[i]·h[i-1] + x[i]
//! ```
//!
//! where the gate `a[i]` is a *different* coefficient per element, so the
//! constant-coefficient engines cannot express it. `VaryingSignature`
//! lowers it onto the same chunk/carry machinery: every chunk's effect on
//! the hidden state collapses to one transition scalar (a k×k matrix at
//! higher orders), precomputed once at plan build, and the workers run the
//! decoupled look-back of the constant path over those matrix carries.
//!
//! The example gates a token stream the way an SSM does — a gate near 1
//! retains state across a span, a gate near 0 resets at a boundary — and
//! checks the parallel result against the naive sequential scan. The
//! gates decay within every chunk, so the plan solves each chunk in
//! lanes (independent sub-block chains, fixed up from their
//! predecessors) and the run reports the kernel as `Lanes`.
//!
//! ```text
//! cargo run --release --example selective_scan
//! ```

use plr::{RunnerConfig, VaryingRunner, VaryingSignature};
use std::time::Instant;

/// A deterministic stream of "retain" gates in [0.85, 0.95] with a hard
/// reset (gate 0) every 1000 elements — span boundaries, SSM-style.
fn gates(n: usize) -> Vec<f64> {
    let mut s = 0x00d1_5ea5_e5ca_1a7eu64;
    (0..n)
        .map(|i| {
            if i % 1000 == 0 {
                return 0.0;
            }
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            0.85 + 0.10 * ((s >> 11) as f64 / (1u64 << 53) as f64)
        })
        .collect()
}

fn sequential_scan(gates: &[f64], input: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(input.len());
    let mut h = 0.0f64;
    for (&a, &x) in gates.iter().zip(input) {
        h = a * h + x;
        out.push(h);
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 21;
    let a = gates(n);
    let x: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();

    // One coefficient per element: order 1, n gates.
    let sig = VaryingSignature::first_order(a.clone())?;
    let runner = VaryingRunner::with_config(
        sig,
        RunnerConfig {
            chunk_size: 1 << 16,
            threads: 0,
            ..Default::default()
        },
    )?;

    let start = Instant::now();
    let mut parallel = x.clone();
    let stats = runner.run_in_place(&mut parallel)?;
    let t_par = start.elapsed();

    let start = Instant::now();
    let sequential = sequential_scan(&a, &x);
    let t_seq = start.elapsed();

    let worst_rel = parallel
        .iter()
        .zip(&sequential)
        .map(|(p, s)| (p - s).abs() / s.abs().max(1.0))
        .fold(0.0f64, f64::max);
    assert!(
        worst_rel < 1e-12,
        "parallel scan drifted from the sequential reference: {worst_rel:e}"
    );

    println!("selective scan over {n} gated elements");
    println!("  sequential: {:7.1} ms", t_seq.as_secs_f64() * 1e3);
    println!(
        "  parallel:   {:7.1} ms on {} threads ({} chunks, {} fused)",
        t_par.as_secs_f64() * 1e3,
        runner.threads(),
        stats.chunks,
        stats.fused_chunks,
    );
    println!("  kernel:     {:?}", stats.kernel);
    println!("  worst relative deviation: {worst_rel:.2e}");

    // State decays across each 1000-element span and resets at the gate-0
    // boundary — the "selective" part: the recurrence forgets on command.
    println!(
        "  around a reset: h[998..=1001] = {:?}",
        &parallel[998..=1001]
    );
    Ok(())
}
