//! Tenant identity, configuration, and per-tenant accounting.

use crate::quota::TokenBucket;
use plr_core::element::Element;
use plr_core::signature::Signature;
use plr_parallel::RowTask;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Opaque handle to a tenant registered with a
/// [`ServiceCore`](crate::ServiceCore), returned by
/// [`add_tenant`](crate::ServiceCore::add_tenant). Only valid for the
/// core that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's dense index in registration order (also its index in
    /// [`ServiceStats::tenants`](crate::ServiceStats)).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Declarative tenant configuration: who they are, what recurrence they
/// run, how much of the service they are entitled to.
#[derive(Debug, Clone)]
pub struct TenantSpec<T> {
    /// Display name (reported back in [`crate::TenantStats`]).
    pub name: String,
    /// Fair-queueing weight: a backlogged weight-4 tenant is served 4x
    /// the work of a backlogged weight-1 tenant. Clamped to at least 1.
    pub weight: u32,
    /// Token-bucket quota as `(rows_per_second, burst)`; `None` leaves
    /// the tenant unmetered (still subject to fair queueing and
    /// shedding).
    pub quota: Option<(f64, f64)>,
    /// The tenant's recurrence. Heterogeneous signatures across tenants
    /// are the point: each tenant's rows run its own plan, served
    /// through the engine's shared plan cache.
    pub signature: Signature<T>,
}

impl<T> TenantSpec<T> {
    /// A weight-1, unmetered tenant running `signature`.
    pub fn new(name: impl Into<String>, signature: Signature<T>) -> Self {
        TenantSpec {
            name: name.into(),
            weight: 1,
            quota: None,
            signature,
        }
    }

    /// Sets the fair-queueing weight (clamped to at least 1).
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Sets the token-bucket quota: `rate` rows/second, `burst` rows of
    /// saved-up credit.
    #[must_use]
    pub fn with_quota(mut self, rate: f64, burst: f64) -> Self {
        self.quota = Some((rate, burst));
        self
    }
}

/// Lock-free per-tenant outcome counters (all monotonic).
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub shed_quota: AtomicU64,
    pub shed_overload: AtomicU64,
    /// Wall nanoseconds spent actually solving this tenant's rows
    /// (completed rows only) — the numerator of goodput.
    pub service_nanos: AtomicU64,
    /// Elements in successfully completed rows — goodput in work units,
    /// which is what the weights are defined over.
    pub completed_elems: AtomicU64,
}

impl TenantCounters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One registered tenant's live state.
pub(crate) struct TenantRuntime<T> {
    pub name: String,
    pub weight: u32,
    /// The tenant's per-row work unit — the same `RowTask` the batch and
    /// streaming layers execute, run through the same per-row executor,
    /// so a service row cannot drift from its single-tenant counterpart.
    /// It also records whether the tenant's plan was a plan-cache hit.
    pub task: RowTask<T>,
    pub bucket: Mutex<TokenBucket>,
    pub counters: TenantCounters,
}

impl<T: Element> TenantRuntime<T> {
    pub fn new(spec: TenantSpec<T>) -> Self {
        TenantRuntime {
            name: spec.name,
            weight: spec.weight.max(1),
            task: RowTask::new(&spec.signature),
            bucket: Mutex::new(match spec.quota {
                Some((rate, burst)) => TokenBucket::new(rate, burst),
                None => TokenBucket::unlimited(),
            }),
            counters: TenantCounters::default(),
        }
    }

    pub fn snapshot(&self) -> TenantStats {
        let c = &self.counters;
        TenantStats {
            name: self.name.clone(),
            weight: self.weight,
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            shed_quota: c.shed_quota.load(Ordering::Relaxed),
            shed_overload: c.shed_overload.load(Ordering::Relaxed),
            service_nanos: c.service_nanos.load(Ordering::Relaxed),
            completed_elems: c.completed_elems.load(Ordering::Relaxed),
            plan_cache_hit: self.task.cache_hit(),
        }
    }
}

/// Point-in-time snapshot of one tenant's accounting, from
/// [`ServiceCore::stats`](crate::ServiceCore::stats).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant display name.
    pub name: String,
    /// Fair-queueing weight.
    pub weight: u32,
    /// Rows offered to [`submit`](crate::ServiceCore::submit).
    pub submitted: u64,
    /// Rows that passed admission (enqueued or executed inline).
    pub admitted: u64,
    /// Admitted rows that completed successfully.
    pub completed: u64,
    /// Admitted rows that failed (panic, cancel, deadline).
    pub failed: u64,
    /// Rows rejected with `QuotaExceeded` at admission.
    pub shed_quota: u64,
    /// Rows rejected with `Overloaded` at admission.
    pub shed_overload: u64,
    /// Wall nanoseconds spent solving this tenant's completed rows.
    pub service_nanos: u64,
    /// Elements across this tenant's completed rows (goodput numerator).
    pub completed_elems: u64,
    /// Whether the tenant's plan was a shared-plan-cache hit when the
    /// tenant registered.
    pub plan_cache_hit: bool,
}
