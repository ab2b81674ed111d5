//! The multi-tenant service core: tenant registry, admission control, and
//! the sharded execution fabric behind it.

use crate::handle::ServiceHandle;
use crate::lock_recover;
use crate::shard::{Shard, ShardStats};
use crate::tenant::{TenantCounters, TenantId, TenantRuntime, TenantSpec, TenantStats};
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_parallel::{resolve_threads, CancelToken};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Sizing knobs for a [`ServiceCore`]. `0` means "pick a sane default"
/// for every field.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Number of independent shards (worker pools). Each admitted row
    /// lands on exactly one shard; more shards mean less queue contention
    /// and smaller blast radius for a degraded pool, fewer mean better
    /// packing. `0` → 2.
    pub shards: usize,
    /// Worker threads per shard (the shard's drain run claims them all).
    /// `0` → the machine's available parallelism divided across shards.
    pub threads_per_shard: usize,
    /// Hard cap on rows queued per shard — the knee of the load-shedding
    /// curve. Weighted per-tenant caps engage at half this depth. `0` →
    /// 256.
    pub max_queue: usize,
}

impl ServiceConfig {
    fn shards_or_default(&self) -> usize {
        if self.shards == 0 {
            2
        } else {
            self.shards
        }
    }

    fn width_or_default(&self, shards: usize) -> usize {
        if self.threads_per_shard == 0 {
            (resolve_threads(0) / shards).max(1)
        } else {
            self.threads_per_shard
        }
    }

    fn max_queue_or_default(&self) -> usize {
        if self.max_queue == 0 {
            256
        } else {
            self.max_queue.max(2)
        }
    }
}

/// Per-row submission options (all optional).
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Wall-clock budget for the row, measured **from admission** — queue
    /// time counts, exactly like the streaming layer. Admission refuses
    /// rows whose estimated queue delay already exceeds the budget
    /// (better to shed at the door than to admit a row that will miss).
    pub deadline: Option<Duration>,
    /// Caller-held cancel token for the row; a fresh private token is
    /// minted when absent (reachable via [`ServiceHandle::cancel`]).
    pub cancel: Option<CancelToken>,
}

impl SubmitOptions {
    /// Options with a deadline budget and nothing else.
    pub fn deadline(budget: Duration) -> Self {
        SubmitOptions {
            deadline: Some(budget),
            ..Default::default()
        }
    }
}

/// Point-in-time service accounting from [`ServiceCore::stats`]: one
/// entry per registered tenant (in [`TenantId::index`] order) and one per
/// shard.
#[derive(Debug, Clone)]
pub struct ServiceStats {
    /// Per-tenant admission/outcome counters.
    pub tenants: Vec<TenantStats>,
    /// Per-shard queue depth, service-time estimate, and health.
    pub shards: Vec<ShardStats>,
}

/// A multi-tenant front end over the recurrence engine: registered
/// tenants submit rows of *their* recurrence and get per-row handles
/// back, while the core enforces quotas, weighted fair shares, and
/// admission-time load shedding across a set of worker-pool shards.
///
/// ```
/// use plr_service::{ServiceConfig, ServiceCore, SubmitOptions, TenantSpec};
///
/// let core = ServiceCore::new(ServiceConfig::default());
/// let acme = core.add_tenant(TenantSpec::new("acme", "(1: 1)".parse()?).with_weight(4));
/// let handle = core.submit(acme, vec![1i64, 2, 3, 4], SubmitOptions::default())?;
/// let (data, result) = handle.join();
/// result?;
/// assert_eq!(data, vec![1, 3, 6, 10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ServiceCore<T: Element> {
    config: ServiceConfig,
    tenants: RwLock<Vec<Arc<TenantRuntime<T>>>>,
    shards: Vec<Shard<T>>,
    closed: AtomicBool,
}

impl<T: Element> ServiceCore<T> {
    /// Builds the core and its shards. Each shard starts its width of
    /// threads here, before any submission: its pool's `width − 1`
    /// workers plus the thread of its drain run.
    pub fn new(config: ServiceConfig) -> Self {
        let n = config.shards_or_default();
        let width = config.width_or_default(n);
        ServiceCore {
            config,
            tenants: RwLock::new(Vec::new()),
            shards: (0..n).map(|_| Shard::new(width)).collect(),
            closed: AtomicBool::new(false),
        }
    }

    /// Registers a tenant and returns its id. Plans are built (or served
    /// from the shared plan cache) here, once, not per row.
    pub fn add_tenant(&self, spec: TenantSpec<T>) -> TenantId {
        let mut tenants = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        tenants.push(Arc::new(TenantRuntime::new(spec)));
        TenantId(tenants.len() - 1)
    }

    fn runtime(&self, tenant: TenantId) -> Arc<TenantRuntime<T>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant.0)
            .cloned()
            .expect("TenantId not issued by this ServiceCore")
    }

    /// Offers one row for `tenant`. On admission the row is queued (or,
    /// on a degraded shard, executed inline) and a [`ServiceHandle`]
    /// tracks it; the handle does not need to be kept for the row to run.
    ///
    /// Rejection is immediate and cheap, in precedence order:
    ///
    /// 1. [`EngineError::Cancelled`] — the core is shut down;
    /// 2. [`EngineError::QuotaExceeded`] — the tenant's token bucket is
    ///    empty (the hint says when it refills);
    /// 3. [`EngineError::Overloaded`] — the chosen shard's queue is at
    ///    its hard cap, the tenant is past its weighted share of a
    ///    half-full queue, or the estimated queue delay already exceeds
    ///    half the row's deadline budget (the other half is reserved for
    ///    the solve itself and for estimate error).
    ///
    /// Both rejection errors are [`EngineError::is_retryable`]: sleep
    /// their [`retry_after_hint`](EngineError::retry_after_hint) and
    /// resubmit. The input buffer is consumed either way — clone it first
    /// if you intend to retry.
    ///
    /// # Panics
    ///
    /// If `tenant` was not issued by this core's
    /// [`add_tenant`](Self::add_tenant).
    pub fn submit(
        &self,
        tenant: TenantId,
        data: Vec<T>,
        opts: SubmitOptions,
    ) -> Result<ServiceHandle<T>, EngineError> {
        let runtime = self.runtime(tenant);
        TenantCounters::bump(&runtime.counters.submitted);
        if self.closed.load(Ordering::Acquire) {
            return Err(EngineError::Cancelled);
        }
        if let Err(wait) = lock_recover(&runtime.bucket).try_take(1.0, Instant::now()) {
            TenantCounters::bump(&runtime.counters.shed_quota);
            return Err(EngineError::QuotaExceeded {
                retry_after_hint: wait.max(Duration::from_micros(100)),
            });
        }
        let shard = self
            .shards
            .iter()
            .min_by_key(|s| s.est_delay_ns())
            .expect("at least one shard");
        match shard.admit(
            tenant.0,
            &runtime,
            data,
            opts,
            self.config.max_queue_or_default(),
        ) {
            Ok(row) => {
                TenantCounters::bump(&runtime.counters.admitted);
                Ok(ServiceHandle::new(row, tenant))
            }
            Err(e) => {
                TenantCounters::bump(&runtime.counters.shed_overload);
                Err(e)
            }
        }
    }

    /// Snapshot of every tenant's and every shard's accounting.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            tenants: self
                .tenants
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|t| t.snapshot())
                .collect(),
            shards: self.shards.iter().map(Shard::stats).collect(),
        }
    }

    /// Graceful shutdown: stop admitting, let every already-admitted row
    /// finish, then stop the shard runs. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.close();
        }
        for shard in &self.shards {
            shard.join();
        }
    }

    /// Hard shutdown: stop admitting and cancel everything in flight
    /// (queued and mid-solve rows resolve [`EngineError::Cancelled`]).
    pub fn abort(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.close();
            shard.abort();
        }
        for shard in &self.shards {
            shard.join();
        }
    }
}

impl<T: Element> Drop for ServiceCore<T> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<T: Element> std::fmt::Debug for ServiceCore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("config", &self.config)
            .field(
                "tenants",
                &self
                    .tenants
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .field("shards", &self.shards.len())
            .field("closed", &self.closed.load(Ordering::Relaxed))
            .finish()
    }
}
