//! A max-plus (tropical) recurrence in parallel: the audio peak-envelope
//! follower `y[i] = max(x[i], y[i-1] - λ)` — the paper's "operators other
//! than addition" future work, running through the *same* correction-factor
//! machinery (the factors become maximal path weights `-λ, -2λ, -3λ, …`).
//!
//! ```text
//! cargo run --release --example peak_envelope
//! ```

use plr::core::tropical::MaxPlus;
use plr::core::{serial, validate};
use plr::{Element, ParallelRunner, RunnerConfig, Signature};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1 << 20;
    let decay = 0.002; // envelope decay per sample

    // A bursty "audio" signal: silence with occasional transients.
    let signal: Vec<MaxPlus> = (0..n)
        .map(|i| {
            let burst = (i % 9973 == 0) as u32 as f64 * (3.0 + (i % 7) as f64);
            MaxPlus::new(burst)
        })
        .collect();

    // y[i] = max(x[i], y[i-1] - λ)  ≡  (one : -λ) over (max, +).
    let sig: Signature<MaxPlus> = Signature::new(vec![MaxPlus::one()], vec![MaxPlus::new(-decay)])?;

    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 1 << 14,
            threads: 0,
            ..Default::default()
        },
    )?;
    let envelope = runner.run(&signal)?;
    validate::validate(&serial::run(&sig, &signal), &envelope, 1e-9)?;

    let peak = envelope
        .iter()
        .map(|v| v.value())
        .fold(f64::NEG_INFINITY, f64::max);
    let at_end = envelope.last().unwrap().value();
    println!("peak-envelope follower over {n} samples (λ = {decay}/sample)");
    println!(
        "  computed in parallel on {} threads, validated vs serial",
        runner.threads()
    );
    println!("  max envelope {peak:.2}, envelope at end {at_end:.3}");

    // The tropical correction factors for this recurrence: -λ·(i+1), the
    // best decayed path from the carry — printed for the first few lags.
    let table = plr::core::nacci::CorrectionTable::generate(&[MaxPlus::new(-decay)], 5);
    let factors: Vec<f64> = table.list(0).iter().map(|f| f.value()).collect();
    println!("  tropical correction factors: {factors:?}");
    Ok(())
}
