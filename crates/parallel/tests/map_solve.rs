//! The FIR map runs inside each chunk's or row's local solve on every
//! executor: one fused pass where the plan runs the SIMD kernel, the
//! in-place FIR just before the solve otherwise. These tests pin the
//! executor-level edges of that: multi-tap maps reading raw inputs across
//! chunk and slice boundaries, and the segmented sparse skip, which must
//! now look at the raw inputs a chunk's map reads before it.

use plr_core::blocked::SOLVE_SLICE;
use plr_core::element::Element;
use plr_core::segmented::{run_serial, Segments};
use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::validate::validate;
use plr_parallel::{BatchRunner, ParallelRunner, RunnerConfig, SegmentedRunner};

/// Checks `got` against `expect`: exact for integers, within `1e-9`
/// (`f64`) or `1e-4` (`f32`) relative for floats, whose fused map
/// reassociates the FIR sums.
fn agree<T: Element>(expect: &[T], got: &[T], what: &str) {
    if T::IS_FLOAT {
        let tol = if T::BYTES == 4 { 1e-4 } else { 1e-9 };
        validate(expect, got, tol).unwrap_or_else(|e| panic!("{what}: {e}"));
    } else {
        assert!(expect == got, "{what}");
    }
}

/// A 3-tap signature through `ParallelRunner`, `BatchRunner::run_rows`
/// (many short rows, and few long rows on the intra-row runner) and
/// `RowStream`, at 1, 2 and 4 threads, against `serial::run`.
fn three_taps_everywhere<T: Element>(text: &str)
where
    Signature<T>: std::str::FromStr,
    <Signature<T> as std::str::FromStr>::Err: std::fmt::Debug,
{
    let sig: Signature<T> = text.parse().unwrap();
    assert_eq!(sig.feedforward().len(), 3);
    let value = |i: usize| T::from_i32(((i * 29) % 19) as i32 - 9);
    // Off block and chunk boundaries, and across slice boundaries.
    let n = 2 * SOLVE_SLICE + 1000 + 7;
    let input: Vec<T> = (0..n).map(value).collect();
    let expect = serial::run(&sig, &input);
    let (width, rows) = (333, 24);
    let batch: Vec<T> = (0..width * rows).map(value).collect();
    let batch_expect: Vec<T> = batch
        .chunks(width)
        .flat_map(|r| serial::run(&sig, r))
        .collect();
    for threads in [1, 2, 4] {
        let config = RunnerConfig {
            chunk_size: 1000,
            threads,
            ..RunnerConfig::default()
        };
        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
        agree(
            &expect,
            &runner.run(&input).unwrap(),
            &format!("runner {text} t={threads}"),
        );

        let batch_runner = BatchRunner::new(sig.clone(), threads);
        let mut short = batch.clone();
        batch_runner.run_rows(&mut short, width).unwrap();
        agree(
            &batch_expect,
            &short,
            &format!("short rows {text} t={threads}"),
        );
        let mut long = input.clone();
        batch_runner.run_rows(&mut long, n).unwrap();
        agree(&expect, &long, &format!("long row {text} t={threads}"));

        let stream = batch_runner.stream();
        let handles: Vec<_> = batch
            .chunks(width)
            .map(|r| stream.push_row(r.to_vec()))
            .collect();
        let long_handle = stream.push_row(input.clone());
        for (r, handle) in handles.into_iter().enumerate() {
            let (row, outcome) = handle.join();
            outcome.unwrap();
            let want = &batch_expect[r * width..(r + 1) * width];
            agree(want, &row, &format!("streamed row {r} {text} t={threads}"));
        }
        let (row, outcome) = long_handle.join();
        outcome.unwrap();
        agree(
            &expect,
            &row,
            &format!("streamed long row {text} t={threads}"),
        );
        stream.finish().unwrap();
    }
}

#[test]
fn three_tap_signatures_agree_on_every_executor() {
    three_taps_everywhere::<f64>("0.81, -1.62, 0.81 : 1.6, -0.64");
    three_taps_everywhere::<f32>("0.25, 0.5, 0.25 : 0.9");
    three_taps_everywhere::<i64>("2, -1, 3 : 1, 1");
    three_taps_everywhere::<i32>("1, 1, 1 : 3, -2");
}

/// An all-zero chunk whose left-boundary stash is nonzero maps to nonzero
/// first outputs, so the sparse skip must not take it; zero chunks past
/// it, with zero stashes, are skipped.
#[test]
fn segmented_zero_chunk_with_a_nonzero_stash_is_not_skipped() {
    let sig: Signature<i64> = "1, 2, 3 : 1, 1".parse().unwrap();
    let (m, n) = (64, 4 * 64);
    // One segment; only chunk 0 is nonzero, up to its last element.
    let segments = Segments::uniform(1000, n);
    let mut input = vec![0i64; n];
    for (i, v) in input.iter_mut().take(m).enumerate() {
        *v = (i % 5) as i64 + 1;
    }
    let expect = run_serial(&sig, &segments, &input);
    for threads in [1, 2, 4] {
        let runner = SegmentedRunner::with_config(
            sig.clone(),
            segments.clone(),
            n,
            RunnerConfig {
                chunk_size: m,
                threads,
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, expect, "t={threads}");
        assert_eq!(stats.skipped_chunks, 2, "chunks 2 and 3 only, t={threads}");
    }
}
