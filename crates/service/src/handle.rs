//! Per-row completion handles for admitted service rows: a
//! [`RowHandle`] — the execution layer's one completion cell, resolved
//! by the shard worker that runs the row — that does not cancel on drop,
//! plus the row's tenant.

use crate::tenant::TenantId;
use plr_core::error::EngineError;
use plr_parallel::{RowHandle, RunStats};
use std::time::Duration;

/// Handle to one admitted row: wait on it, join it for the solved buffer,
/// or cancel it.
///
/// Unlike a streaming [`RowHandle`], dropping a `ServiceHandle` does
/// **not** cancel the row — an admitted row is the service's obligation
/// (it was charged against the tenant's quota and queue share), so
/// fire-and-forget submission is the default and cancellation is always
/// explicit.
pub struct ServiceHandle<T> {
    row: RowHandle<T>,
    tenant: TenantId,
}

impl<T> std::fmt::Debug for ServiceHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("tenant", &self.tenant)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> ServiceHandle<T> {
    /// Wraps a [`RowHandle::pending`] handle, which does not cancel its
    /// row on drop.
    pub(crate) fn new(row: RowHandle<T>, tenant: TenantId) -> Self {
        ServiceHandle { row, tenant }
    }

    /// The tenant this row was admitted for.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Whether the row has resolved (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.row.is_finished()
    }

    /// Requests cancellation of this row (idempotent). A row still queued
    /// resolves to [`EngineError::Cancelled`] without running; a row
    /// mid-solve is interrupted at its next abort poll.
    pub fn cancel(&self) {
        self.row.cancel();
    }

    /// Blocks until the row resolves and returns its outcome (stats on
    /// success, the row's error otherwise). The solved buffer stays in
    /// the handle — retrieve it with [`join`](Self::join).
    pub fn wait(&self) -> Result<RunStats, EngineError> {
        self.row.wait()
    }

    /// Like [`wait`](Self::wait) with a bound: `None` if the row is still
    /// unresolved after `budget`.
    pub fn wait_timeout(&self, budget: Duration) -> Option<Result<RunStats, EngineError>> {
        self.row.wait_timeout(budget)
    }

    /// Blocks until the row resolves, then returns the buffer (solved on
    /// success, untouched or partially solved on failure) and the
    /// outcome.
    pub fn join(self) -> (Vec<T>, Result<RunStats, EngineError>) {
        self.row.join()
    }
}
