//! Batched audio clips as one segmented recurrence.
//!
//! A batch of independent clips is usually processed clip-by-clip; the
//! segmented machinery concatenates them into *one* buffer with the
//! filter history reset at every clip boundary, so the whole batch runs
//! through the chunked parallel pipeline in a single call. A reset is a
//! zero carry — look-back terminates at the nearest boundary instead of
//! chunk 0, and a chunk of pure silence skips its local solve outright
//! (the sparse fast path), so padding costs almost nothing.
//!
//! ```text
//! cargo run --release --example batched_clips
//! ```

use plr::core::segmented::run_serial;
use plr::{RunnerConfig, SegmentedRunner, Segments, Signature};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A one-pole smoothing filter, the workhorse of envelope detection.
    let sig: Signature<f64> = "0.2 : 0.8".parse()?;

    // 64 clips of 16384 samples each, padded into uniform slots (a
    // real batch would right-pad each clip with silence to the slot
    // size — exactly the shape the sparse skip eats for free).
    let clip_len = 16_384;
    let clips = 64;
    let n = clip_len * clips;
    let segments = Segments::uniform(clip_len, n);
    let mut batch = vec![0.0f64; n];
    for c in 0..clips {
        // Every clip is a decaying burst; half of each slot is silence.
        for i in 0..clip_len / 2 {
            batch[c * clip_len + i] =
                ((i % 127) as f64 - 63.0) * (1.0 - i as f64 / clip_len as f64);
        }
    }

    // One runner, bound to this batch shape; the boundary map and
    // correction plan are built once and reused across runs.
    let runner = SegmentedRunner::with_config(
        sig.clone(),
        segments.clone(),
        n,
        RunnerConfig {
            chunk_size: 8192,
            threads: 4,
            ..Default::default()
        },
    )?;

    let start = Instant::now();
    let mut data = batch.clone();
    let stats = runner.run_in_place(&mut data)?;
    let parallel = start.elapsed();
    println!(
        "{clips} clips x {clip_len} samples in {parallel:.1?} \
         ({} chunks: {} with resets, {} silent chunks skipped)",
        stats.chunks, stats.reset_chunks, stats.skipped_chunks
    );

    // The per-clip serial loop computes the same thing — bit-for-bit on
    // this contractive filter's zero-padded tails.
    let start = Instant::now();
    let reference = run_serial(&sig, &segments, &batch);
    println!("clip-by-clip serial loop: {:.1?}", start.elapsed());
    let worst = data
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |parallel - serial| = {worst:.2e}");

    // Because every clip shares one plan, a *batch of batches* — rows of
    // independent recordings under the same slot layout — goes through
    // the same runner's row API.
    let rows = 8;
    let mut matrix: Vec<f64> = (0..rows).flat_map(|_| batch.iter().copied()).collect();
    let stats = runner.run_rows(&mut matrix, n)?;
    println!(
        "{} rows of the same layout: {} row-chunks solved",
        stats.rows, stats.chunks
    );
    // Rows go through the per-row solve (not the chunked pipeline), so
    // they are bit-identical to each other and agree with the chunked
    // output to rounding.
    let first = &matrix[..n];
    for row in matrix.chunks(n).skip(1) {
        assert_eq!(row, first, "identical rows solve identically");
    }
    let row_worst = first
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |row path - serial| = {row_worst:.2e}");
    Ok(())
}
