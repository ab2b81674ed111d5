//! Fault-injection property tests (require `--features fault-inject`).
//!
//! Every test injects a fault into some stage of the parallel pipeline
//! and asserts the three recovery guarantees of the execution layer:
//!
//! 1. the run returns `EngineError::WorkerPanicked` — it never hangs
//!    (every faulted run is bounded by a `within_secs` timeout);
//! 2. the same pool instance survives and a fault-free rerun completes;
//! 3. the rerun's output still validates against the serial reference.
#![cfg(feature = "fault-inject")]

use plr_core::error::EngineError;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::fault::{self, FaultPlan, FaultSite};
use plr_parallel::{BatchRunner, CancelToken, ParallelRunner, RunControl, RunnerConfig};
use proptest::prelude::*;

mod common;
use common::{lock_global, quiet_injected_panics, threads, within_secs};
use std::time::{Duration, Instant};

const N: usize = 16_384;
const CHUNK: usize = 256;
const NUM_CHUNKS: usize = N / CHUNK;

fn input(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i * 29) % 19) as i64 - 9).collect()
}

/// Arms `plan`, runs the runner under `within_secs`, and asserts the
/// fault → `WorkerPanicked` → recovery → revalidation contract.
fn assert_fault_contract(
    sig: Signature<i64>,
    config: RunnerConfig,
    plan: FaultPlan,
) -> Result<(), TestCaseError> {
    let _serial = lock_global();
    quiet_injected_panics();
    let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
    let data = input(N);
    let expect = serial::run(&sig, &data);

    // Warm the pool first so the fault hits resident, parked workers —
    // the steady state a service would be in.
    let warm = runner.run(&data).unwrap();
    prop_assert_eq!(&warm, &expect, "fault-free warm-up must validate");

    fault::arm(plan.clone());
    let (runner, faulted) = within_secs(60, move || {
        let r = runner.run(&data);
        (runner, r)
    });
    let fired = !fault::is_armed();
    fault::disarm();
    prop_assert!(fired, "plan never fired: {plan:?}");
    match faulted {
        Err(EngineError::WorkerPanicked { .. }) => {}
        other => {
            return Err(TestCaseError::fail(format!(
                "expected WorkerPanicked, got {other:?} for plan {plan:?}"
            )))
        }
    }

    // The same pool instance must complete a fault-free rerun correctly.
    let data = input(N);
    let (stats, got) = within_secs(60, move || {
        let mut data2 = data;
        let stats = runner.run_in_place(&mut data2);
        (stats, data2)
    });
    let stats = stats.expect("fault-free rerun must succeed");
    prop_assert_eq!(&got, &expect, "rerun after fault must validate");
    prop_assert_eq!(
        stats.threads,
        threads() as u64,
        "pool width must be healed after the fault (recovered {})",
        stats.workers_recovered
    );
    prop_assert_eq!(stats.aborts, 0, "fault-free rerun must not abort");
    Ok(())
}

/// Integer signatures of order 1–4 with a 1–2 tap FIR part.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any (signature, site, chunk) combination obeys the
    /// fault → error → recovery contract.
    #[test]
    fn injected_faults_error_and_recover(
        sig in signature(),
        lookback_site in proptest::bool::ANY,
        position in 0usize..3,
    ) {
        let site = if lookback_site { FaultSite::Lookback } else { FaultSite::Solve };
        // First / middle / last chunk — except the look-back site, which
        // chunk 0 never consults (it has no predecessor).
        let chunk = match position {
            0 if site == FaultSite::Solve => 0,
            0 => 1,
            1 => NUM_CHUNKS / 2,
            _ => NUM_CHUNKS - 1,
        };
        let plan = FaultPlan::panic_at_chunk(site, chunk);
        let config = RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        };
        assert_fault_contract(sig, config, plan)?;
    }

    /// Call-count targeting (the K-th consultation) also errors and
    /// recovers — the "call K" axis of the plan.
    #[test]
    fn kth_call_faults_error_and_recover(
        sig in signature(),
        k in 1u64..40,
    ) {
        let config = RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        };
        assert_fault_contract(sig, config, FaultPlan::panic_at_call(FaultSite::Solve, k))?;
    }
}

/// A worker holds back each chunk's correction for its next solve. A
/// panic at the `Solve` site of worker 0's third chunk, which comes after
/// two chunks of its own and so after one past chunk 0 whose correction
/// it still owes, resolves as that panic: the run returns
/// `WorkerPanicked` and never waits on the correction it dropped. The
/// binomial prefix sums fuse that correction into the solve under the
/// `auto` tier.
#[test]
fn solve_fault_while_a_correction_is_held_is_that_panic() {
    for text in ["1:2,-1", "1:3,-3,1", "1:4,-6,4,-1"] {
        let config = RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        };
        let plan = FaultPlan {
            nth_call: Some(3),
            ..FaultPlan::panic_at_worker(FaultSite::Solve, 0)
        };
        assert_fault_contract(text.parse().unwrap(), config, plan).unwrap();
    }
}

/// Worker 0 (the calling thread) is just another worker: a fault pinned
/// to it must come back as `WorkerPanicked { worker: 0 }` on a width-1
/// pool, where the caller is provably the one consulting.
#[test]
fn worker_zero_fault_is_an_error_not_an_unwind() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = ParallelRunner::with_config(
        sig,
        RunnerConfig {
            chunk_size: CHUNK,
            threads: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let data = input(N);
    fault::arm(FaultPlan::panic_at_worker(FaultSite::Solve, 0));
    let (runner, result) = within_secs(60, move || {
        let r = runner.run(&data);
        (runner, r)
    });
    fault::disarm();
    match result {
        Err(EngineError::WorkerPanicked { worker, payload }) => {
            assert_eq!(worker, 0);
            assert!(payload.contains("injected fault"), "{payload}");
        }
        other => panic!("expected WorkerPanicked from worker 0, got {other:?}"),
    }
    assert!(runner.run(&input(100)).is_ok());
}

/// Delay injection stalls chunk 0's solve so every other worker lands in
/// the look-back spin path; the run must still complete and validate.
#[test]
fn delay_injection_covers_the_spin_path() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        },
    )
    .unwrap();
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Solve,
        0,
        Duration::from_millis(50),
    ));
    let data = input(N);
    let (stats, got) = within_secs(60, move || {
        let mut d = data;
        let stats = runner.run_in_place(&mut d).unwrap();
        (stats, d)
    });
    assert!(!fault::is_armed(), "delay plan must have fired");
    assert_eq!(got, serial::run(&sig, &input(N)));
    assert_eq!(stats.aborts, 0, "a delay is a stall, not a failure");
}

/// The batch executor's whole-rows path obeys the same contract.
#[test]
fn batch_row_fault_errors_and_recovers() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let batch = BatchRunner::new(sig.clone(), threads());
    let width = 512;
    let rows = 64;
    let data: Vec<i64> = input(width * rows);
    let reference: Vec<i64> = data
        .chunks(width)
        .flat_map(|row| serial::run(&sig, row))
        .collect();
    // Warm the pool so the fault hits resident, parked workers.
    let mut warm = data.clone();
    batch.run_rows(&mut warm, width).unwrap();
    assert_eq!(warm, reference);

    fault::arm(FaultPlan::panic_at_chunk(FaultSite::Solve, rows / 2));
    let (batch, result) = {
        let mut d = data.clone();
        within_secs(60, move || {
            let r = batch.run_rows(&mut d, width);
            (batch, r)
        })
    };
    fault::disarm();
    assert!(
        matches!(result, Err(EngineError::WorkerPanicked { .. })),
        "{result:?}"
    );

    // The same batch runner (same pool) must rerun cleanly.
    let mut d = data.clone();
    let stats = batch.run_rows(&mut d, width).unwrap();
    assert_eq!(d, reference, "batch rerun after fault must validate");
    assert_eq!(stats.threads, threads() as u64);
}

/// With the feature compiled in but no plan armed, the instrumented
/// sites are inert: results match the serial reference exactly.
#[test]
fn unarmed_harness_is_inert() {
    let _serial = lock_global();
    fault::disarm();
    let sig: Signature<i64> = "1,1:3,-3,1".parse().unwrap();
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        },
    )
    .unwrap();
    let data = input(N);
    assert_eq!(runner.run(&data).unwrap(), serial::run(&sig, &data));
}

// ---------------------------------------------------------------------
// Cancellation & deadline under injected wedges (ISSUE 4 acceptance).
// ---------------------------------------------------------------------

/// A run wedged by an injected delay is aborted through a caller-held
/// `CancelToken`: the call returns `EngineError::Cancelled` long before
/// the planned stall would end, the pool heals, and an immediate rerun
/// validates bit-exactly against the serial reference.
#[test]
fn cancel_token_cancels_a_wedged_run() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            ..Default::default()
        },
    )
    .unwrap();
    let data = input(N);
    runner.run(&data).unwrap(); // warm: resident, parked workers

    // Wedge a mid-pipeline solve for 30s — far beyond what the test
    // budget tolerates; only the token can end this run early.
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Solve,
        NUM_CHUNKS / 2,
        Duration::from_secs(30),
    ));
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let start = Instant::now();
    let (runner, result) = within_secs(60, move || {
        let r = runner.run_with_cancel(&data, &token);
        (runner, r)
    });
    canceller.join().unwrap();
    let elapsed = start.elapsed();
    fault::disarm();
    match result {
        Err(EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(20),
        "cancel must end a 30s wedge promptly, took {elapsed:?}"
    );

    // Healed pool, bit-exact rerun.
    let mut rerun = input(N);
    let stats = runner.run_in_place(&mut rerun).unwrap();
    assert_eq!(rerun, serial::run(&sig, &input(N)));
    assert_eq!(stats.threads, threads() as u64);
    assert_eq!(stats.aborts, 0);
}

/// The same wedge is bounded by `RunnerConfig::deadline` alone: the
/// stalled worker's next abort poll finds the deadline passed, the call
/// returns `EngineError::DeadlineExceeded` within the test budget, and
/// the rerun validates bit-exactly.
#[test]
fn deadline_trips_a_wedged_run() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let budget = Duration::from_secs(2);
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            deadline: Some(budget),
            ..Default::default()
        },
    )
    .unwrap();
    let data = input(N);
    runner.run(&data).unwrap(); // warm (well under the deadline)

    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Solve,
        NUM_CHUNKS / 2,
        Duration::from_secs(45),
    ));
    let start = Instant::now();
    let (runner, result) = within_secs(60, move || {
        let r = runner.run(&data);
        (runner, r)
    });
    let elapsed = start.elapsed();
    fault::disarm();
    match result {
        Err(EngineError::DeadlineExceeded { deadline }) => assert_eq!(deadline, budget),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "watchdog must fire near the 2s deadline, took {elapsed:?}"
    );

    let mut rerun = input(N);
    let stats = runner.run_in_place(&mut rerun).unwrap();
    assert_eq!(rerun, serial::run(&sig, &input(N)));
    assert_eq!(stats.threads, threads() as u64);
    assert_eq!(stats.aborts, 0);
}

/// The batch executor's *long-rows* path (cached intra-row runner) obeys
/// the fault contract at every site it crosses: the per-row dispatch
/// (`Row`), and the intra-row solve and look-back stages. A faulted row
/// surfaces `WorkerPanicked`; subsequent calls on the healed pool
/// validate against serial.
#[test]
fn long_rows_faults_error_and_recover() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    // The long-rows path requires rows < threads, which a PLR_THREADS=1
    // leg can never satisfy — pin 4 workers so every leg covers it.
    let batch_threads = 4;
    let width = 50_000;
    let rows = 2;
    let batch = BatchRunner::new(sig.clone(), batch_threads);
    let data = input(width * rows);
    let reference: Vec<i64> = data
        .chunks(width)
        .flat_map(|row| serial::run(&sig, row))
        .collect();

    let mut batch = batch;
    let plans = [
        // Caller-thread dispatch of the second row.
        FaultPlan::panic_at_chunk(FaultSite::Row, 1),
        // Inside the cached intra-row runner's pipeline.
        FaultPlan::panic_at_chunk(FaultSite::Solve, 5),
        FaultPlan::panic_at_chunk(FaultSite::Lookback, 3),
    ];
    for plan in plans {
        // Warm (also proves recovery from the previous iteration).
        let mut warm = data.clone();
        let stats = batch.run_rows(&mut warm, width).unwrap();
        assert_eq!(warm, reference, "warm-up must validate ({plan:?})");
        assert!(
            stats.lookback_hops > 0,
            "geometry must take the long-rows path"
        );

        fault::arm(plan.clone());
        let (returned, result) = {
            let b = batch;
            let mut d = data.clone();
            within_secs(60, move || {
                let r = b.run_rows(&mut d, width);
                (b, r)
            })
        };
        batch = returned;
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "plan never fired: {plan:?}");
        match result {
            Err(EngineError::WorkerPanicked { worker, .. }) => {
                if plan.site == FaultSite::Row {
                    assert_eq!(worker, 0, "row dispatch runs on the caller");
                }
            }
            other => panic!("expected WorkerPanicked for {plan:?}, got {other:?}"),
        }
    }

    // Final rerun on the same (healed) batch runner.
    let mut d = data.clone();
    batch.run_rows(&mut d, width).unwrap();
    assert_eq!(d, reference, "final rerun must validate");
}

/// Cancelling a batch between rows on the long-rows path stops promptly
/// and leaves the runner reusable.
#[test]
fn long_rows_cancel_between_rows() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let batch = BatchRunner::new(sig.clone(), 4);
    let width = 50_000;
    let data = input(width * 2);
    let token = CancelToken::new();
    token.cancel();
    let mut d = data.clone();
    match batch.run_rows_with_cancel(&mut d, width, &token) {
        Err(EngineError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let mut d = data.clone();
    batch
        .run_rows_with_cancel(&mut d, width, &CancelToken::new())
        .unwrap();
    let reference: Vec<i64> = data
        .chunks(width)
        .flat_map(|row| serial::run(&sig, row))
        .collect();
    assert_eq!(d, reference);
}

// ---------------------------------------------------------------------
// Streaming legs: the `FaultSite::Row` consult at the top of every popped
// `RowStream` row, plus per-row cancel and deadline control.
// ---------------------------------------------------------------------

/// Per-row inputs for the streaming legs: `rows` distinct rows of `width`.
fn stream_rows(rows: usize, width: usize) -> Vec<Vec<i64>> {
    (0..rows)
        .map(|r| input(width).iter().map(|&v| v + r as i64).collect())
        .collect()
}

/// A panic injected into one mid-stream row faults *only that row*: its
/// handle resolves to `WorkerPanicked`, every other streamed row stays
/// bit-exact against the serial reference, `finish` surfaces the error,
/// and the same runner's pool heals for a blocking rerun.
#[test]
fn stream_row_panic_faults_only_that_row() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(8, 512);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    fault::arm(FaultPlan::panic_at_chunk(FaultSite::Row, 3));
    let (runner, outcomes, finished) = {
        let rows = rows.clone();
        within_secs(60, move || {
            let stream = runner.stream();
            let handles: Vec<_> = rows.into_iter().map(|r| stream.push_row(r)).collect();
            stream.close();
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let finished = stream.finish();
            (runner, outcomes, finished)
        })
    };
    let fired = !fault::is_armed();
    fault::disarm();
    assert!(fired, "the Row-site plan must fire on the streamed row");
    for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
        if i == 3 {
            match result {
                Err(EngineError::WorkerPanicked { .. }) => {}
                other => panic!("faulted row must be WorkerPanicked, got {other:?}"),
            }
        } else {
            result.unwrap_or_else(|e| panic!("row {i} must survive the fault: {e:?}"));
            assert_eq!(&data, expect, "row {i} must stay bit-exact");
        }
    }
    match finished {
        Err(EngineError::WorkerPanicked { .. }) => {}
        other => panic!("finish must surface the row fault, got {other:?}"),
    }

    // The pool heals: a blocking batch on the same runner validates.
    let mut rerun: Vec<i64> = rows.concat();
    let stats = runner.run_rows(&mut rerun, 512).unwrap();
    assert_eq!(rerun, expect.concat(), "post-fault blocking rerun");
    assert_eq!(stats.threads, threads() as u64, "pool width must be healed");
}

/// A panicking completion callback on a streamed row is contained where
/// it fires: the row still resolves, every later row solves bit-exact, and
/// `finish` succeeds. Row 0 is held at its `Row` site so the callback is
/// registered before the row resolves, and so fires on the worker.
#[test]
fn stream_row_callback_panic_is_contained() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(8, 512);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        0,
        Duration::from_millis(500),
    ));
    let (outcomes, finished) = {
        let rows = rows.clone();
        within_secs(60, move || {
            let stream = runner.stream();
            let mut rows = rows.into_iter();
            let held = stream.push_row(rows.next().expect("eight rows"));
            held.on_complete(|| panic!("injected fault in a row's completion callback"));
            let mut handles = vec![held];
            handles.extend(rows.map(|r| stream.push_row(r)));
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (outcomes, stream.finish())
        })
    };
    let fired = !fault::is_armed();
    fault::disarm();
    assert!(fired, "the delay plan must hold row 0");
    for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
        result.unwrap_or_else(|e| panic!("row {i} must survive the callback panic: {e:?}"));
        assert_eq!(&data, expect, "row {i} must stay bit-exact");
    }
    let stats = finished.expect("a callback panic must not end the stream");
    assert_eq!(stats.rows, 8);
}

/// A delay injected into a mid-stream row stalls that row but corrupts
/// nothing: every handle still resolves `Ok` with bit-exact data and the
/// aggregate stats count all rows.
#[test]
fn stream_row_delay_keeps_every_row_exact() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1,1:3,-3,1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(8, 384);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        2,
        Duration::from_millis(300),
    ));
    let (outcomes, stats) = {
        let rows = rows.clone();
        within_secs(60, move || {
            let stream = runner.stream();
            let handles: Vec<_> = rows.into_iter().map(|r| stream.push_row(r)).collect();
            stream.close();
            let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            let stats = stream.finish().expect("a delayed row still succeeds");
            (outcomes, stats)
        })
    };
    let fired = !fault::is_armed();
    fault::disarm();
    assert!(fired, "the delay plan must fire on the streamed row");
    for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
        result.unwrap_or_else(|e| panic!("row {i} must succeed through the stall: {e:?}"));
        assert_eq!(&data, expect, "row {i} must stay bit-exact");
    }
    assert_eq!(stats.rows, 8);
}

/// Cancelling one streamed row through its own token ends an injected
/// 30s wedge on that row promptly; only that row reports `Cancelled`,
/// every other row is bit-exact, and the stream keeps flowing.
#[test]
fn stream_cancel_one_row_via_token() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(6, 256);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    // Wedge row 2 far beyond the test budget; only its token can end it.
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        2,
        Duration::from_secs(30),
    ));
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let start = Instant::now();
    let outcomes = {
        let rows = rows.clone();
        let token = token.clone();
        within_secs(60, move || {
            let stream = runner.stream();
            let handles: Vec<_> = rows
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == 2 {
                        stream.push_row_ctl(r, RunControl::new().with_cancel(&token))
                    } else {
                        stream.push_row(r)
                    }
                })
                .collect();
            stream.close();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        })
    };
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    fault::disarm(); // in case the cancel won the race to the consult
    assert!(
        elapsed < Duration::from_secs(20),
        "per-row cancel must end a 30s wedge promptly, took {elapsed:?}"
    );
    for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
        if i == 2 {
            match result {
                Err(EngineError::Cancelled) => {}
                other => panic!("cancelled row must report Cancelled, got {other:?}"),
            }
        } else {
            result.unwrap_or_else(|e| panic!("row {i} must survive the cancel: {e:?}"));
            assert_eq!(&data, expect, "row {i} must stay bit-exact");
        }
    }
}

/// A per-row deadline (via `push_row_ctl`) bounds an injected 30s wedge:
/// the wedged row resolves `DeadlineExceeded` with its own budget near
/// that budget's expiry, and the rest of the stream is unaffected.
#[test]
fn stream_per_row_deadline_trips_the_wedged_row() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(5, 256);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();
    let budget = Duration::from_millis(500);

    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        1,
        Duration::from_secs(30),
    ));
    let start = Instant::now();
    let outcomes = {
        let rows = rows.clone();
        within_secs(60, move || {
            let stream = runner.stream();
            let handles: Vec<_> = rows
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == 1 {
                        stream.push_row_ctl(r, RunControl::new().with_deadline(budget))
                    } else {
                        stream.push_row(r)
                    }
                })
                .collect();
            stream.close();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        })
    };
    let elapsed = start.elapsed();
    let fired = !fault::is_armed();
    fault::disarm();
    assert!(fired, "the wedge must fire on the deadlined row");
    assert!(
        elapsed < Duration::from_secs(20),
        "the per-row deadline must end a 30s wedge promptly, took {elapsed:?}"
    );
    for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
        if i == 1 {
            match result {
                Err(EngineError::DeadlineExceeded { deadline }) => {
                    assert_eq!(deadline, budget, "the row's own budget is reported")
                }
                other => panic!("wedged row must be DeadlineExceeded, got {other:?}"),
            }
        } else {
            result.unwrap_or_else(|e| panic!("row {i} must survive the deadline: {e:?}"));
            assert_eq!(&data, expect, "row {i} must stay bit-exact");
        }
    }
}

/// Dropping an unfinished stream whose row sits in an injected 30s stall
/// at the `Row` site cancels the stream's run and blocks only until its
/// workers quiesce: the wedged row resolves `Cancelled`, and the runner's
/// pool is immediately reusable for a blocking batch.
#[test]
fn stream_drop_cancels_a_wedged_row() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let row = input(256);
    let expect = serial::run(&sig, &row);

    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        0,
        Duration::from_secs(30),
    ));
    let (runner, outcome, elapsed) = within_secs(60, move || {
        let stream = runner.stream();
        let handle = stream.push_row(row);
        // The plan disarms as it fires: from then on the row is wedged.
        while fault::is_armed() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        drop(stream); // never finished: must cancel + quiesce
        let elapsed = start.elapsed();
        (runner, handle.join().1, elapsed)
    });
    fault::disarm();
    assert!(
        elapsed < Duration::from_secs(20),
        "stream drop must not ride out the 30s stall, took {elapsed:?}"
    );
    assert_eq!(outcome.map(|_| ()), Err(EngineError::Cancelled));

    let mut rerun = input(256 * 4);
    runner
        .run_rows(&mut rerun, 256)
        .expect("the pool must be reusable after a dropped stream");
    assert_eq!(&rerun[..256], &expect[..], "post-drop blocking rerun");
}

/// A stalled *observer* does not mask a streamed row's own deadline: the
/// row's worker polls it, so by the time a waiter that slept 2s calls
/// `wait()`, the row wedged at the `Row` site already reads
/// `DeadlineExceeded` with its 500ms budget.
#[test]
fn stream_waiter_stall_does_not_mask_the_row_deadline() {
    let _serial = lock_global();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig, threads());
    let budget = Duration::from_millis(500);
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Row,
        0,
        Duration::from_secs(30),
    ));
    let result = within_secs(60, move || {
        let stream = runner.stream();
        let handle = stream.push_row_ctl(input(256), RunControl::new().with_deadline(budget));
        std::thread::sleep(Duration::from_secs(2)); // the stalled waiter
        handle.wait()
    });
    let fired = !fault::is_armed();
    fault::disarm();
    assert!(fired, "the wedge must fire on the deadlined row");
    assert_eq!(
        result.map(|_| ()),
        Err(EngineError::DeadlineExceeded { deadline: budget })
    );
}
