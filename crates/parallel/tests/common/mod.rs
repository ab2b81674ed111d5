//! Helpers shared by the plr-parallel test binaries; each includes this
//! file with `mod common;`.

// Every binary uses a different subset.
#![allow(dead_code)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests of one binary that flip process-global state —
/// the fault-injection plan, the kernel-tier override, the plan-cache
/// switch — against each other. Recovering from poisoning matters: a
/// failed assertion under the lock must not cascade into every later
/// test.
pub fn lock_global() -> MutexGuard<'static, ()> {
    static GLOBAL: Mutex<()> = Mutex::new(());
    GLOBAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Worker count for a suite: the `PLR_THREADS` CI matrix leg when set
/// (1/2/4 in the workflow), otherwise 4 — so one test body covers the
/// inline, two-worker, and oversubscribed schedules.
pub fn threads() -> usize {
    std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

/// Runs `f` on a helper thread, panicking if it does not finish within
/// `secs` — the bound that turns a hang into a test failure instead of a
/// stuck CI job.
pub fn within_secs<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(r) => {
            let _ = worker.join();
            r
        }
        Err(_) => panic!("test did not return within {secs}s (hang)"),
    }
}

/// Silences the default panic-hook output for panics a suite injects on
/// purpose (fault-site panics); everything else still prints.
pub fn quiet_injected_panics() {
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
            if !s.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// Deterministic xorshift stream, so every executor sees the same data
/// without an RNG dependency.
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Monotone total-order key for ULP distance; maps `-0.0` and `0.0` to
/// the same point so sign-of-zero differences count as zero ULPs.
pub fn ulps64(a: f64, b: f64) -> i64 {
    let key = |x: f64| -> i128 {
        let bits = x.to_bits() as i64;
        if bits >= 0 {
            bits as i128
        } else {
            (i64::MIN as i128) - (bits as i128)
        }
    };
    (key(a) - key(b)).unsigned_abs().min(i64::MAX as u128) as i64
}

/// [`ulps64`] for `f32`.
pub fn ulps32(a: f32, b: f32) -> i64 {
    let key = |x: f32| -> i64 {
        let bits = x.to_bits() as i32;
        if bits >= 0 {
            bits as i64
        } else {
            (i32::MIN as i64) - (bits as i64)
        }
    };
    (key(a) - key(b)).abs()
}
