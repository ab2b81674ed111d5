//! Fault-injection property tests (require `--features fault-inject`).
//!
//! Every test injects a fault into some stage of the parallel pipeline
//! and asserts the three recovery guarantees of the execution layer:
//!
//! 1. the run returns `EngineError::WorkerPanicked` — it never hangs
//!    (every faulted run is bounded by a watchdog timeout);
//! 2. the same pool instance survives and a fault-free rerun completes;
//! 3. the rerun's output still validates against the serial reference.
#![cfg(feature = "fault-inject")]

use plr_core::error::EngineError;
use plr_core::serial;
use plr_core::signature::Signature;
use plr_parallel::fault::{self, FaultKind, FaultPlan, FaultSite};
use plr_parallel::{
    BatchRunner, CancelToken, ParallelRunner, RunControl, RunError, RunnerConfig,
    Strategy as RunStrategy, WorkerPool,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The fault plan is process-global: tests must not interleave arming.
/// Recovering from poisoning matters here — a failed assertion under the
/// lock must not cascade into every later test.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silences the default panic-hook output for panics this suite injects
/// on purpose; everything else still prints.
fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let s = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !s.contains("injected fault") && !payload.is::<plr_parallel::pool::WorkerExit>() {
                default(info);
            }
        }));
    });
}

/// Runs `f` on a helper thread, panicking if it does not finish within
/// `secs` — the bound that turns "the pipeline hangs" into a test
/// failure instead of a stuck CI job.
fn watchdog<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(r) => {
            let _ = worker.join();
            r
        }
        Err(_) => panic!("watchdog: faulted run did not return within {secs}s (hang)"),
    }
}

const N: usize = 16_384;
const CHUNK: usize = 256;
const NUM_CHUNKS: usize = N / CHUNK;

/// Worker count for the suite: the `PLR_THREADS` CI matrix leg when set
/// (1/2/4 in the workflow), otherwise 4 — so one test body covers the
/// inline, two-worker, and oversubscribed schedules.
fn threads() -> usize {
    std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

fn input(n: usize) -> Vec<i64> {
    (0..n).map(|i| ((i * 29) % 19) as i64 - 9).collect()
}

/// Arms `plan`, runs the runner under a watchdog, and asserts the
/// fault → `WorkerPanicked` → recovery → revalidation contract.
fn assert_fault_contract(
    sig: Signature<i64>,
    config: RunnerConfig,
    plan: FaultPlan,
) -> Result<(), TestCaseError> {
    let _serial = serialize();
    quiet_injected_panics();
    let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
    let data = input(N);
    let expect = serial::run(&sig, &data);

    // Warm the pool first so the fault hits resident, parked workers —
    // the steady state a service would be in.
    let warm = runner.run(&data).unwrap();
    prop_assert_eq!(&warm, &expect, "fault-free warm-up must validate");

    fault::arm(plan.clone());
    let (runner, faulted) = watchdog(60, move || {
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
    let (stats, got) = watchdog(60, move || {
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

    /// Any (signature, strategy, site, chunk, kind) combination obeys the
    /// fault → error → recovery contract.
    #[test]
    fn injected_faults_error_and_recover(
        sig in signature(),
        two_pass in proptest::bool::ANY,
        lookback_site in proptest::bool::ANY,
        position in 0usize..3,
        exit_worker in proptest::bool::ANY,
    ) {
        let strategy = if two_pass { RunStrategy::TwoPass } else { RunStrategy::LookbackPipeline };
        let site = if lookback_site { FaultSite::Lookback } else { FaultSite::Solve };
        // First / middle / last chunk — except the look-back site, which
        // chunk 0 never consults (it has no predecessor).
        let chunk = match position {
            0 if site == FaultSite::Solve => 0,
            0 => 1,
            1 => NUM_CHUNKS / 2,
            _ => NUM_CHUNKS - 1,
        };
        let plan = if exit_worker {
            FaultPlan::exit_at_chunk(site, chunk)
        } else {
            FaultPlan::panic_at_chunk(site, chunk)
        };
        let config = RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            strategy,
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
        two_pass in proptest::bool::ANY,
    ) {
        let strategy = if two_pass { RunStrategy::TwoPass } else { RunStrategy::LookbackPipeline };
        let config = RunnerConfig {
            chunk_size: CHUNK,
            threads: threads(),
            strategy,
            ..Default::default()
        };
        assert_fault_contract(sig, config, FaultPlan::panic_at_call(FaultSite::Solve, k))?;
    }
}

/// Worker 0 (the calling thread) is just another worker: a fault pinned
/// to it must come back as `WorkerPanicked { worker: 0 }` on a width-1
/// pool, where the caller is provably the one consulting.
#[test]
fn worker_zero_fault_is_an_error_not_an_unwind() {
    let _serial = serialize();
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
    let (runner, result) = watchdog(60, move || {
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

/// A simulated thread death mid-pipeline is healed by the next
/// submission: the pool respawns the dead worker and reports it.
#[test]
fn dead_worker_is_respawned_and_reported() {
    let _serial = serialize();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:1".parse().unwrap();
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
    // Warm up, then kill whichever worker claims a middle chunk.
    runner.run(&data).unwrap();
    fault::arm(FaultPlan::exit_at_chunk(FaultSite::Solve, NUM_CHUNKS / 2));
    let (runner, result) = watchdog(60, move || {
        let r = runner.run(&data);
        (runner, r)
    });
    fault::disarm();
    assert!(
        matches!(result, Err(EngineError::WorkerPanicked { .. })),
        "{result:?}"
    );
    let mut data = input(N);
    let stats = runner.run_in_place(&mut data).unwrap();
    assert_eq!(data, serial::run(&sig, &input(N)));
    // Whether the victim was a spawned worker (now respawned) or the
    // caller (nothing to respawn), the effective width is back to full.
    assert_eq!(stats.threads, threads() as u64);
    assert!(stats.workers_recovered <= 1);
}

/// Delay injection stalls chunk 0's solve so every other worker lands in
/// the look-back spin path; the run must still complete and validate.
#[test]
fn delay_injection_covers_the_spin_path() {
    let _serial = serialize();
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
    let (stats, got) = watchdog(60, move || {
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
    let _serial = serialize();
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
    let mut batch = batch;
    for kind in [FaultKind::Panic, FaultKind::ExitWorker] {
        // Warm the pool so the fault hits resident, parked workers.
        let mut warm = data.clone();
        batch.run_rows(&mut warm, width).unwrap();
        assert_eq!(warm, reference);

        fault::arm(FaultPlan {
            site: FaultSite::Solve,
            worker: None,
            chunk: Some(rows / 2),
            nth_call: None,
            kind,
        });
        let (returned, result) = {
            let b = batch;
            let mut d = data.clone();
            watchdog(60, move || {
                let r = b.run_rows(&mut d, width);
                (b, r)
            })
        };
        batch = returned;
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
}

/// With the feature compiled in but no plan armed, the instrumented
/// sites are inert: results match the serial reference exactly.
#[test]
fn unarmed_harness_is_inert() {
    let _serial = serialize();
    fault::disarm();
    let sig: Signature<i64> = "1,1:3,-3,1".parse().unwrap();
    for strategy in [RunStrategy::LookbackPipeline, RunStrategy::TwoPass] {
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: CHUNK,
                threads: threads(),
                strategy,
                ..Default::default()
            },
        )
        .unwrap();
        let data = input(N);
        assert_eq!(
            runner.run(&data).unwrap(),
            serial::run(&sig, &data),
            "{strategy:?}"
        );
    }
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
    let _serial = serialize();
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
    let (runner, result) = watchdog(60, move || {
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
/// pool's watchdog trips the abort, the call returns
/// `EngineError::DeadlineExceeded` within the test budget, and the rerun
/// validates bit-exactly.
#[test]
fn deadline_trips_a_wedged_run() {
    let _serial = serialize();
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
    let (runner, result) = watchdog(60, move || {
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

/// Dropping a `RunHandle` without ever waiting on it — while its run is
/// wedged in an injected 30s stall — cancels the run and blocks only
/// until the workers quiesce; the pool is immediately reusable.
#[test]
fn dropped_handle_cancels_a_wedged_submission() {
    let _serial = serialize();
    quiet_injected_panics();
    let pool = Arc::new(WorkerPool::new(threads()));
    fault::arm(FaultPlan::delay_at_chunk(
        FaultSite::Solve,
        0,
        Duration::from_secs(30),
    ));
    let start = Instant::now();
    let reusable = {
        let pool = Arc::clone(&pool);
        watchdog(60, move || {
            let handle = pool.submit(RunControl::new(), |worker, abort| {
                // Worker 0 (the donated driver) hits the stall; everyone
                // else waits for the abort like a spin-wait would.
                if worker == 0 {
                    plr_parallel::fault::check(FaultSite::Solve, worker, 0, Some(abort));
                }
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
            });
            drop(handle); // never waited on: must cancel + quiesce
            pool.run(|_, _| {}).is_ok()
        })
    };
    let elapsed = start.elapsed();
    fault::disarm();
    assert!(reusable, "pool must be reusable after a dropped handle");
    assert!(
        elapsed < Duration::from_secs(20),
        "handle drop must not ride out the 30s stall, took {elapsed:?}"
    );
    assert_eq!(pool.counters().cancelled, 1);
}

/// A stalled *observer* (delay injected at the handle-wait site) does not
/// mask the run's own deadline: the watchdog lives in the pool, so by the
/// time the observer recovers, the result is already DeadlineExceeded.
#[test]
fn handle_wait_stall_does_not_mask_the_deadline() {
    let _serial = serialize();
    quiet_injected_panics();
    let pool = Arc::new(WorkerPool::new(threads()));
    let budget = Duration::from_millis(500);
    fault::arm(FaultPlan {
        site: FaultSite::HandleWait,
        worker: None,
        chunk: None,
        nth_call: None,
        kind: FaultKind::Delay(Duration::from_secs(2)),
    });
    let result = {
        let pool = Arc::clone(&pool);
        watchdog(60, move || {
            let handle = pool.submit(RunControl::new().with_deadline(budget), |_, abort| {
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
            });
            handle.wait() // stalls 2s at the injected site first
        })
    };
    fault::disarm();
    assert_eq!(result, Err(RunError::DeadlineExceeded { deadline: budget }));
    assert_eq!(pool.counters().deadline_exceeded, 1);
    assert!(pool.run(|_, _| {}).is_ok());
}

/// The batch executor's *long-rows* path (cached intra-row runner) obeys
/// the fault contract at every site it crosses: the per-row dispatch
/// (`Row`), and the intra-row solve and look-back stages. A faulted row
/// surfaces `WorkerPanicked`; subsequent calls on the healed pool
/// validate against serial.
#[test]
fn long_rows_faults_error_and_recover() {
    let _serial = serialize();
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
        // Simulated thread death on the dispatch path.
        FaultPlan::exit_at_chunk(FaultSite::Row, 0),
        // Inside the cached intra-row runner's pipeline.
        FaultPlan::panic_at_chunk(FaultSite::Solve, 5),
        FaultPlan::panic_at_chunk(FaultSite::Lookback, 3),
        FaultPlan::exit_at_chunk(FaultSite::Solve, 2),
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
            watchdog(60, move || {
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
    let _serial = serialize();
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
    let _serial = serialize();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let runner = BatchRunner::new(sig.clone(), threads());
    let rows = stream_rows(8, 512);
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    fault::arm(FaultPlan::panic_at_chunk(FaultSite::Row, 3));
    let (runner, outcomes, finished) = {
        let rows = rows.clone();
        watchdog(60, move || {
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

/// A worker thread's death on a streamed row ends the stream before any
/// later row can run on the dying drain run: the dead row resolves
/// `WorkerPanicked`, and so do a row pushed the moment its handle
/// resolves and `finish`. Rows solved before the death stay bit-exact,
/// rows still queued either ran before it or fail, and the pool heals for
/// a blocking rerun. Five rounds on one runner.
#[test]
fn stream_worker_death_fails_every_later_row() {
    let _serial = serialize();
    quiet_injected_panics();
    let sig: Signature<i64> = "1:2,-1".parse().unwrap();
    let mut runner = BatchRunner::new(sig.clone(), threads());
    let mut rows = stream_rows(9, 512);
    let late_row = rows.pop().expect("nine rows");
    let expect: Vec<Vec<i64>> = rows.iter().map(|r| serial::run(&sig, r)).collect();

    for round in 0..5 {
        fault::arm(FaultPlan::exit_at_chunk(FaultSite::Row, 3));
        let (back, outcomes, late, finished) = {
            let (rows, late_row) = (rows.clone(), late_row.clone());
            watchdog(60, move || {
                let stream = runner.stream_with_window(8);
                let handles: Vec<_> = rows.into_iter().map(|r| stream.push_row(r)).collect();
                let _ = handles[3].wait();
                let late = stream.push_row(late_row).join().1;
                let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                let finished = stream.finish();
                (runner, outcomes, late, finished)
            })
        };
        runner = back;
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "round {round}: the exit plan must fire on row 3");
        for (i, ((data, result), expect)) in outcomes.into_iter().zip(&expect).enumerate() {
            match result {
                Ok(_) if i != 3 => assert_eq!(&data, expect, "round {round}: row {i} bit-exact"),
                Err(EngineError::WorkerPanicked { .. }) if i >= 3 => {}
                other => panic!("round {round}: unexpected outcome for row {i}: {other:?}"),
            }
        }
        match late {
            Err(EngineError::WorkerPanicked { .. }) => {}
            other => panic!("round {round}: a row pushed after the death ran: {other:?}"),
        }
        match finished {
            Err(EngineError::WorkerPanicked { .. }) => {}
            other => panic!("round {round}: finish must surface the death, got {other:?}"),
        }

        let mut rerun: Vec<i64> = rows.concat();
        let stats = runner.run_rows(&mut rerun, 512).unwrap();
        assert_eq!(
            rerun,
            expect.concat(),
            "round {round}: post-fault blocking rerun"
        );
        assert_eq!(
            stats.threads,
            threads() as u64,
            "round {round}: pool healed"
        );
    }
}

/// A delay injected into a mid-stream row stalls that row but corrupts
/// nothing: every handle still resolves `Ok` with bit-exact data and the
/// aggregate stats count all rows.
#[test]
fn stream_row_delay_keeps_every_row_exact() {
    let _serial = serialize();
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
        watchdog(60, move || {
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
    let _serial = serialize();
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
        watchdog(60, move || {
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
    let _serial = serialize();
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
        watchdog(60, move || {
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
