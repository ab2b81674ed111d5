//! # plr-service
//!
//! A multi-tenant service core over the recurrence engine: tenants
//! register their signature once, then submit rows and get per-row
//! handles back, while the core keeps the machine healthy under overload.
//!
//! The execution fabric is a set of **shards**, each a private
//! [`plr_parallel::WorkerPool`] serving its queue with the streaming
//! layer's drain run ([`plr_parallel::Drain`]) and per-row executor
//! ([`plr_parallel::RowTask::execute`]) and handing back the streaming
//! layer's row handle — the service changes *which rows run when*, never
//! *how a row runs*.
//!
//! What sits between `submit` and a worker:
//!
//! - **Token-bucket quotas** ([`TokenBucket`]): a per-tenant
//!   rows-per-second rate with burst credit, checked first. Rejection is
//!   [`EngineError::QuotaExceeded`](plr_core::error::EngineError) with a
//!   refill hint.
//! - **Weighted fair queueing** ([`Wfq`]): each shard serves backlogged
//!   tenants in proportion to their weights (virtual-time fair queueing
//!   over row cost), so a flooding tenant cannot starve a light one —
//!   isolation by scheduling, not by partitioning.
//! - **Admission-time load shedding**: each shard tracks an EWMA of row
//!   service time; when the queue passes its cap, a tenant exceeds its
//!   weighted share of a half-full queue, or the estimated queue delay
//!   already exceeds a row's deadline budget, the row is rejected *at
//!   the door* with
//!   [`EngineError::Overloaded`](plr_core::error::EngineError) and a
//!   retry hint — shedding the cheap way (before any work) instead of
//!   the expensive way (timing out after queueing). Both rejection
//!   errors are retryable; pair them with
//!   [`plr_parallel::retry_with_backoff`].
//! - **Graceful degradation**: a shard relaunches a run that died to a
//!   worker fault, a bounded number of times between observed progress;
//!   past that bound, or when its pool cannot spawn the thread that
//!   drives the run, it falls back to executing admitted rows serially
//!   on the submitter's thread — reduced throughput, never a black hole.
//!
//! ```
//! use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec};
//! use std::time::Duration;
//!
//! let core = ServiceCore::new(ServiceConfig::default());
//! // Two tenants, different recurrences, 4:1 service weights; "free"
//! // additionally capped at 100 rows/s with burst 10.
//! let paid = core.add_tenant(TenantSpec::new("paid", "(1: 1)".parse()?).with_weight(4));
//! let free = core.add_tenant(
//!     TenantSpec::new("free", "(1: 1, 1)".parse()?)
//!         .with_weight(1)
//!         .with_quota(100.0, 10.0),
//! );
//!
//! let h = core.submit(paid, vec![1i64; 1024], SubmitOptions::default())?;
//! let fib = core.submit(free, vec![1i64; 32], SubmitOptions::deadline(Duration::from_secs(5)))?;
//! h.wait()?;
//! fib.wait()?;
//! core.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod core;
mod handle;
mod quota;
mod shard;
mod tenant;
mod wfq;

pub use crate::core::{ServiceConfig, ServiceCore, ServiceStats, SubmitOptions};
pub use handle::ServiceHandle;
pub use quota::TokenBucket;
pub use shard::ShardStats;
pub use tenant::{TenantId, TenantSpec, TenantStats};
pub use wfq::Wfq;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the service layer's invariants all tolerate a partially-updated
/// protected section (queues and counters are re-validated by readers).
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
