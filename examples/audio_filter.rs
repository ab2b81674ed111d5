//! Recursive audio filtering — the IIR use case that motivates the paper's
//! floating-point evaluation.
//!
//! Builds a noisy synthetic "audio" signal (a low-frequency tone plus
//! high-frequency noise plus a DC offset), then:
//!
//! * removes the noise with the paper's 2-stage low-pass filter
//!   `(0.04 : 1.6, -0.64)`, and
//! * removes the DC offset with the 1-stage high-pass `(0.9, -0.9 : 0.8)`,
//!
//! both computed in parallel with the chunked decoupled-look-back runtime
//! and validated against the serial filter.
//!
//! ```text
//! cargo run --release --example audio_filter
//! ```

use plr::core::{filters, serial, validate};
use plr::{ParallelRunner, RunnerConfig, Signature};
use std::f64::consts::TAU;
use std::time::Instant;

/// RMS of a signal after discarding the filter's warm-up transient.
fn rms(signal: &[f32]) -> f64 {
    let tail = &signal[signal.len() / 8..];
    (tail.iter().map(|&v| (v as f64).powi(2)).sum::<f64>() / tail.len() as f64).sqrt()
}

fn mean(signal: &[f32]) -> f64 {
    signal.iter().map(|&v| v as f64).sum::<f64>() / signal.len() as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 22; // ~95 seconds at 44.1 kHz
    let sample_rate = 44_100.0;

    // tone at 120 Hz + noise at ~15 kHz + a 0.5 DC offset.
    let tone_hz = 120.0;
    let noise_hz = 15_000.0;
    let signal: Vec<f32> = (0..n)
        .map(|i| {
            let t = i as f64 / sample_rate;
            let tone = (TAU * tone_hz * t).sin();
            let noise = 0.8 * (TAU * noise_hz * t).sin();
            (tone + noise + 0.5) as f32
        })
        .collect();

    println!(
        "input:  {} samples, rms {:.3}, mean {:+.3}",
        n,
        rms(&signal),
        mean(&signal)
    );

    // --- Low-pass: keep the tone, strip the noise ------------------------
    let lp: Signature<f32> = filters::low_pass(0.8, 2).cast();
    println!("\nlow-pass  {lp}");
    let runner = ParallelRunner::with_config(
        lp.clone(),
        RunnerConfig {
            chunk_size: 1 << 15,
            threads: 0,
            ..Default::default()
        },
    )?;
    let start = Instant::now();
    let smoothed = runner.run(&signal)?;
    let elapsed = start.elapsed();
    validate::validate(&serial::run(&lp, &signal), &smoothed, 1e-3)?;
    println!(
        "  parallel run: {:.1} ms ({:.1} M samples/s), validated vs serial",
        elapsed.as_secs_f64() * 1e3,
        n as f64 / elapsed.as_secs_f64() / 1e6
    );
    println!(
        "  rms {:.3} -> {:.3} (noise stripped), mean {:+.3} (DC kept)",
        rms(&signal),
        rms(&smoothed),
        mean(&smoothed)
    );

    // --- High-pass: remove the DC offset ---------------------------------
    let hp: Signature<f32> = filters::high_pass(0.8, 1).cast();
    println!("\nhigh-pass {hp}");
    let runner = ParallelRunner::with_config(
        hp.clone(),
        RunnerConfig {
            chunk_size: 1 << 15,
            threads: 0,
            ..Default::default()
        },
    )?;
    let centered = runner.run(&smoothed)?;
    validate::validate(&serial::run(&hp, &smoothed), &centered, 1e-3)?;
    println!(
        "  mean {:+.3} -> {:+.5} (DC removed)",
        mean(&smoothed),
        mean(&centered)
    );

    // --- Why the factors decay: stability analysis -----------------------
    let report = plr::core::stability::analyze(lp.feedback());
    println!(
        "\nfilter poles |z| = {:.3} (stable: {}); correction factors decay \
         below f32 precision after ~{} elements,\nwhich is the paper's most \
         effective optimization: later warps skip Phase 1 entirely",
        report.spectral_radius,
        report.is_stable(),
        report.decay_length(f32::MIN_POSITIVE as f64).unwrap()
    );
    Ok(())
}
