//! Differential and stress properties for the streaming submission layer.
//!
//! The contract under test: pushing rows one at a time through
//! [`RowStream`] — under any backpressure window, worker count, and
//! interleaving of `push_row` / `wait` / `wait_timeout` / `on_complete`
//! — produces results **bit-exact** with the serial reference and with
//! blocking [`BatchRunner::run_rows`] on the same data, and the handle /
//! waker machinery never deadlocks, double-wakes, or busy-polls.

use plr_core::serial;
use plr_core::signature::Signature;
use plr_core::validate::validate;
use plr_parallel::{block_on, BatchRunner, RowHandle, RunControl, RunFuture, WorkerPool};
use proptest::prelude::*;
use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

mod common;
use common::{threads, within_secs};

/// Integer signatures of order 1–4 with a 1–2 tap FIR part (same family
/// as the fault suite: wrapping-exact, so every comparison is bit-exact).
fn signature() -> impl Strategy<Value = Signature<i64>> {
    let nonzero = prop_oneof![-2i64..=-1, 1i64..=2];
    (
        proptest::collection::vec(-2i64..=2, 0..2),
        nonzero.clone(),
        proptest::collection::vec(-2i64..=2, 0..4),
        nonzero,
    )
        .prop_map(|(mut ff, ff_last, mut fb, fb_last)| {
            ff.push(ff_last);
            fb.push(fb_last);
            Signature::new(ff, fb).expect("nonzero trailing coefficients")
        })
}

fn rows_i64(rows: usize, width: usize, seed: u64) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|r| {
            (0..width)
                .map(|i| (((r as u64) * 37 + (i as u64) * 11 + seed) % 23) as i64 - 11)
                .collect()
        })
        .collect()
}

/// Drives one stream case: pushes every row with a seed-chosen
/// observation pattern (wait now / poll / register a waker / leave
/// unpolled), closes, joins in seed-chosen order, and returns the solved
/// rows by index plus the aggregate stats.
fn drive_stream(
    runner: &BatchRunner<i64>,
    inputs: &[Vec<i64>],
    window: usize,
    interleave: u64,
) -> (Vec<Vec<i64>>, plr_parallel::RunStats) {
    let stream = runner.stream_with_window(window);
    let mut handles: Vec<RowHandle<i64>> = Vec::with_capacity(inputs.len());
    for (i, row) in inputs.iter().enumerate() {
        let handle = stream.push_row(row.clone());
        match (interleave >> (2 * (i % 32))) & 3 {
            // Block for this row right away (producer/consumer lockstep).
            0 => {
                handle.wait().expect("streamed row must solve");
            }
            // Non-blocking poll (may or may not be finished — both fine).
            1 => {
                let _ = handle.wait_timeout(Duration::ZERO);
            }
            // Register a waker mid-run; replaced by the join's wait later.
            2 => handle.on_complete(|| {}),
            // Leave it entirely unobserved until the final join.
            _ => {}
        }
        handles.push(handle);
    }
    stream.close();
    // Join out of push order half the time: completion must be
    // per-handle, not positional.
    let mut order: Vec<usize> = (0..handles.len()).collect();
    if interleave & 1 == 1 {
        order.reverse();
    }
    let mut outputs: Vec<Vec<i64>> = vec![Vec::new(); handles.len()];
    let mut handles: Vec<Option<RowHandle<i64>>> = handles.into_iter().map(Some).collect();
    for idx in order {
        let handle = handles[idx].take().expect("joined once");
        let (data, result) = handle.join();
        result.expect("streamed row must solve");
        outputs[idx] = data;
    }
    let stats = stream.finish().expect("no row failed");
    (outputs, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core differential property: streamed results are bit-exact vs
    /// the serial reference AND vs blocking `run_rows` on the same data,
    /// across signatures, geometries, windows, thread counts, and
    /// push/wait interleavings.
    #[test]
    fn stream_matches_blocking_and_serial(
        sig in signature(),
        rows in 1usize..13,
        width in 1usize..200,
        window in 1usize..6,
        threads in 1usize..5,
        interleave in 0u64..u64::MAX,
    ) {
        let inputs = rows_i64(rows, width, interleave);
        let expect: Vec<Vec<i64>> = inputs.iter().map(|r| serial::run(&sig, r)).collect();

        let (blocking, streamed, stats) = {
            let sig = sig.clone();
            let inputs = inputs.clone();
            within_secs(120, move || {
                let runner = BatchRunner::new(sig, threads);
                // Blocking reference on the same runner (and pool).
                let mut blocking: Vec<i64> = inputs.concat();
                runner.run_rows(&mut blocking, width).expect("blocking run");
                let (streamed, stats) = drive_stream(&runner, &inputs, window, interleave);
                (blocking, streamed, stats)
            })
        };

        let expect_flat: Vec<i64> = expect.concat();
        prop_assert_eq!(&blocking, &expect_flat, "blocking run_rows vs serial");
        let streamed_flat: Vec<i64> = streamed.concat();
        prop_assert_eq!(&streamed_flat, &expect_flat, "streamed vs serial");
        prop_assert_eq!(&streamed_flat, &blocking, "streamed vs blocking");
        prop_assert_eq!(stats.rows, rows as u64);
        prop_assert_eq!(stats.chunks, rows as u64);
    }

    /// Floats: streamed rows are within tolerance of the serial
    /// reference, and — when `rows >= threads`, so blocking `run_rows`
    /// takes the whole-rows path built on the *same* `RowTask` kernel —
    /// bitwise identical to it (reassociation differences there would be
    /// a bug; the few-long-rows path legitimately reassociates via
    /// chunked look-back, so it is only compared within tolerance).
    #[test]
    fn stream_f64_bitwise_matches_blocking(
        rows in 1usize..10,
        width in 1usize..150,
        window in 1usize..5,
        threads in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let inputs: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                (0..width)
                    .map(|i| (((r as u64) * 31 + (i as u64) * 7 + seed) % 17) as f64 * 0.3 - 2.0)
                    .collect()
            })
            .collect();

        let (blocking, streamed) = {
            let sig = sig.clone();
            let inputs = inputs.clone();
            within_secs(120, move || {
                let runner = BatchRunner::new(sig, threads);
                let mut blocking: Vec<f64> = inputs.concat();
                runner.run_rows(&mut blocking, width).expect("blocking run");
                let stream = runner.stream_with_window(window);
                let handles: Vec<RowHandle<f64>> =
                    inputs.iter().map(|row| stream.push_row(row.clone())).collect();
                let mut streamed = Vec::new();
                for handle in handles {
                    let (data, result) = handle.join();
                    result.expect("streamed row must solve");
                    streamed.extend(data);
                }
                stream.finish().expect("no row failed");
                (blocking, streamed)
            })
        };

        let expect: Vec<f64> = inputs.iter().flat_map(|r| serial::run(&sig, r)).collect();
        validate(&expect, &streamed, 1e-9).map_err(|e| {
            TestCaseError::fail(format!("streamed vs serial out of tolerance: {e}"))
        })?;
        prop_assert_eq!(blocking.len(), streamed.len());
        if rows >= threads {
            // Whole-rows path: literally the same per-row kernel.
            for (i, (b, s)) in blocking.iter().zip(&streamed).enumerate() {
                prop_assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "bitwise divergence from blocking at {}", i
                );
            }
        } else {
            // Few-long-rows path reassociates; tolerance only.
            validate(&blocking, &streamed, 1e-9).map_err(|e| {
                TestCaseError::fail(format!("streamed vs blocking out of tolerance: {e}"))
            })?;
        }
    }
}

// ---------------------------------------------------------------------
// Waker-race stress (extends the PR 4 handle contract to rows).
// ---------------------------------------------------------------------

/// Registering `on_complete` after the row already completed fires the
/// callback immediately — once per registration, never zero, never twice.
#[test]
fn stream_on_complete_after_completion_fires_immediately() {
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let runner = BatchRunner::new(sig, 2);
    let stream = runner.stream();
    let handle = stream.push_row(vec![1; 64]);
    handle.wait().unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    for expected in 1..=3 {
        let counter = Arc::clone(&fired);
        handle.on_complete(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(fired.load(Ordering::SeqCst), expected, "immediate fire");
    }
    stream.finish().unwrap();
}

/// Racing `on_complete` registrations from many threads against the
/// row's completion: no deadlock, and no callback ever fires twice (a
/// replaced waker is dropped, a fired one is consumed).
#[test]
fn stream_waker_registration_races_never_double_wake() {
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig, 4);
    within_secs(60, move || {
        for round in 0..20 {
            let stream = runner.stream();
            // A big row so some registrations land mid-run, and with the
            // round parity sometimes a finished one, so both sides of the
            // immediate-fire race get exercised.
            let width = if round % 2 == 0 { 200_000 } else { 16 };
            let handle = Arc::new(stream.push_row(vec![1; width]));
            let fires: Vec<Arc<AtomicUsize>> =
                (0..8).map(|_| Arc::new(AtomicUsize::new(0))).collect();
            let racers: Vec<_> = fires
                .iter()
                .map(|fire| {
                    let handle = Arc::clone(&handle);
                    let fire = Arc::clone(fire);
                    std::thread::spawn(move || {
                        handle.on_complete(move || {
                            fire.fetch_add(1, Ordering::SeqCst);
                        });
                    })
                })
                .collect();
            for racer in racers {
                racer.join().unwrap();
            }
            handle.wait().unwrap();
            stream.finish().unwrap();
            let total: usize = fires.iter().map(|f| f.load(Ordering::SeqCst)).sum();
            for (i, fire) in fires.iter().enumerate() {
                assert!(
                    fire.load(Ordering::SeqCst) <= 1,
                    "registration {i} fired twice (round {round})"
                );
            }
            assert!(
                (1..=8).contains(&total),
                "at least the surviving registration must fire, got {total}"
            );
        }
    });
}

/// Dropping unpolled `RowHandle`s mid-run cancels their rows without
/// wedging the stream, the pool, or later streams.
#[test]
fn stream_dropped_unpolled_handles_quiesce() {
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), 4);
    let elapsed = within_secs(60, move || {
        let start = Instant::now();
        {
            let stream = runner.stream_with_window(4);
            for _ in 0..32 {
                // Dropped immediately: each row is either solved already
                // or cancelled by the drop; none may block the producer.
                drop(stream.push_row(vec![1; 10_000]));
            }
            // Stream dropped here with rows still in flight.
        }
        // The same runner (same pool) must stream and block cleanly after.
        let stream = runner.stream();
        let h = stream.push_row(vec![1, 1, 1]);
        let (data, result) = h.join();
        result.expect("post-drop stream must work");
        assert_eq!(data, vec![1, 2, 3]);
        stream.finish().unwrap();
        let mut block = vec![1i64; 64];
        runner
            .run_rows(&mut block, 8)
            .expect("blocking path after streams");
        start.elapsed()
    });
    assert!(
        elapsed < Duration::from_secs(30),
        "drop-cancel must quiesce promptly, took {elapsed:?}"
    );
}

/// Counts how often an inner future is polled.
struct CountPolls<F> {
    inner: F,
    polls: Arc<AtomicUsize>,
}

impl<F: Future + Unpin> Future for CountPolls<F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.polls.fetch_add(1, Ordering::SeqCst);
        Pin::new(&mut self.inner).poll(cx)
    }
}

/// The `Future` adapter resolves through the waker, not by spinning: a
/// run that takes ~150ms completes with a handful of polls, not
/// thousands.
#[test]
fn stream_run_future_does_not_busy_poll() {
    let pool = Arc::new(WorkerPool::new(2));
    let gate = Arc::new(AtomicBool::new(false));
    let handle = {
        let gate = Arc::clone(&gate);
        pool.submit(RunControl::new(), move |_, abort| {
            while !gate.load(Ordering::SeqCst) && !abort.is_aborted() {
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };
    let releaser = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let polls = Arc::new(AtomicUsize::new(0));
    let fut: RunFuture = handle.into_future();
    let start = Instant::now();
    within_secs(60, {
        let polls = Arc::clone(&polls);
        move || block_on(CountPolls { inner: fut, polls }).unwrap()
    });
    releaser.join().unwrap();
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "the future resolved before the gate opened?"
    );
    let polls = polls.load(Ordering::SeqCst);
    assert!(
        polls <= 4,
        "a waker-driven future needs ~2 polls for a 150ms run, got {polls}"
    );
}

/// Same property at the row level: awaiting a `RowHandle` polls a
/// bounded number of times regardless of how long the row takes.
#[test]
fn stream_row_future_does_not_busy_poll() {
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), 2);
    let stream = runner.stream();
    let input: Vec<i64> = (0..500_000).map(|i| (i % 7) as i64 - 3).collect();
    let handle = stream.push_row(input.clone());
    let polls = Arc::new(AtomicUsize::new(0));
    let (got, result) = within_secs(60, {
        let polls = Arc::clone(&polls);
        move || {
            block_on(CountPolls {
                inner: handle.into_future(),
                polls,
            })
        }
    });
    result.unwrap();
    assert_eq!(got, serial::run(&sig, &input));
    let polls = polls.load(Ordering::SeqCst);
    assert!(polls <= 4, "expected ~2 polls, got {polls}");
    stream.finish().unwrap();
}

/// The env-matrix leg: the differential property at the CI-pinned worker
/// count (PLR_THREADS ∈ {1,2,4}), windows 1 and 2×threads, fixed
/// geometry — a deterministic smoke companion to the proptests above.
#[test]
fn stream_env_thread_matrix_smoke() {
    let threads = threads();
    let sig: Signature<i64> = "1,1:3,-3,1".parse().unwrap();
    let inputs = rows_i64(9, 173, 42);
    let expect: Vec<i64> = inputs.iter().flat_map(|r| serial::run(&sig, r)).collect();
    within_secs(120, move || {
        let runner = BatchRunner::new(sig, threads);
        for window in [1, 2 * threads.max(1)] {
            let (outputs, stats) = drive_stream(&runner, &inputs, window, 0b10_01_00_11_01);
            assert_eq!(outputs.concat(), expect, "window {window}");
            assert_eq!(stats.rows, 9);
        }
    });
}
