//! Bounded-latency recurrence runs — cancellation, deadlines, and rows
//! that do not block the caller.
//!
//! A service that computes filters inline (audio effects, telemetry
//! smoothing) cannot let one wedged run hold its request thread hostage.
//! This example drives the three escape hatches the runtime provides:
//!
//! * a **deadline** in [`RunnerConfig`] that converts a run outliving its
//!   wall-clock budget into an error instead of a hang,
//! * a caller-held [`CancelToken`] that aborts an in-flight run from
//!   another thread, and
//! * a row pushed onto a [`BatchRunner::stream`], whose [`RowHandle`]
//!   the caller polls with [`RowHandle::wait_timeout`] and can give up
//!   on with [`RowHandle::cancel`].
//!
//! Timing-dependent outcomes (did the cancel land before the run
//! finished?) are printed either way — both are correct behaviour.
//!
//! ```text
//! cargo run --release --example cancel_timeout
//! ```

use plr::{BatchRunner, CancelToken, ParallelRunner, RunnerConfig, Signature};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sig: Signature<f64> = "1 : 0.999".parse()?; // a slow leaky integrator
    let input: Vec<f64> = (0..1 << 22).map(|i| ((i % 64) as f64) / 64.0).collect();
    let runner = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 1 << 14,
            threads: 0, // one worker per CPU
            // Every run on this runner gets 10 seconds of wall clock; a
            // wedged stage becomes EngineError::DeadlineExceeded, not a
            // hung request thread.
            deadline: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )?;

    // 1. A healthy run finishes well inside its deadline.
    let start = Instant::now();
    let out = runner.run(&input)?;
    println!(
        "deadline-bounded run: {} elements in {:.1?} (budget 10s), y[last] = {:.3}",
        out.len(),
        start.elapsed(),
        out.last().unwrap()
    );

    // An already-expired budget is rejected before any work is dispatched
    // — the fail-fast path a load-shedding service would hit.
    let strict = ParallelRunner::with_config(
        sig.clone(),
        RunnerConfig {
            chunk_size: 1 << 14,
            threads: 0,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        },
    )?;
    match strict.run(&input) {
        Err(e) => println!("zero budget rejected up front: {e}"),
        Ok(_) => unreachable!("a zero deadline can never be met"),
    }

    // 2. Cancelling from another thread. The token is cloneable and
    // thread-safe; whichever happens first — the run completing or the
    // cancel landing — is a valid outcome, and the runner stays usable
    // either way. The buffer is made before the clock starts: `run` and
    // `run_with_cancel` copy their input before the run's first abort
    // poll, and allocating and copying these 4 Mi elements takes longer
    // than the cancel does to land.
    let mut data = input.clone();
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let start = Instant::now();
    match runner.run_in_place_with_cancel(&mut data, &token) {
        Ok(_) => println!(
            "run beat the cancel ({:.1?}): y[last] = {:.3}",
            start.elapsed(),
            data.last().unwrap()
        ),
        Err(e) => println!("run cancelled after {:.1?}: {e}", start.elapsed()),
    }
    canceller.join().unwrap();
    let out = runner.run(&input)?; // the pool healed; reruns are exact
    println!("rerun after cancel: y[last] = {:.3}", out.last().unwrap());

    // 3. A row that does not block the caller: the stream solves it on
    // its own drain run, and the caller keeps its thread, polling the
    // row's handle with a timeout. `handle.cancel()` would give up on the
    // row instead: it resolves `Cancelled` at its next abort poll, and the
    // stream's other rows are unaffected.
    let batch = BatchRunner::new(sig, 0);
    let stream = batch.stream();
    let handle = stream.push_row(input);
    let mut polls = 0u32;
    let verdict = loop {
        polls += 1;
        match handle.wait_timeout(Duration::from_millis(2)) {
            Some(result) => break result,
            None => println!("  row still running after poll {polls}"),
        }
    };
    match verdict {
        Ok(stats) => println!(
            "streamed row finished after {polls} poll(s): {} chunk(s) in {:.1?} of solve",
            stats.chunks,
            Duration::from_nanos(stats.solve_nanos)
        ),
        Err(e) => println!("streamed row failed: {e}"),
    }
    let (out, _) = handle.join();
    println!("streamed row: y[last] = {:.3}", out.last().unwrap());
    stream.finish()?;
    Ok(())
}
