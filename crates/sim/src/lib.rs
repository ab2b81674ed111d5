//! # plr-sim
//!
//! A hierarchical GPU-like machine model standing in for the paper's
//! GeForce GTX Titan X testbed.
//!
//! Real kernels on a real GPU are replaced by *functional execution with
//! event accounting*: the recurrence algorithms genuinely transform data
//! (so outputs are validated against the serial reference, exactly as the
//! paper validates its CUDA outputs), while every modelled hardware event —
//! global-memory traffic, L2 cache line misses, shared-memory accesses,
//! warp shuffles, arithmetic, atomics — is counted. An analytic
//! [`timing::CostModel`] turns the counts into time/throughput estimates
//! calibrated to the Titan X's published parameters, reproducing the
//! *shape* of the paper's figures; the allocation ledger and cache model
//! reproduce Tables 2 and 3 directly.
//!
//! Layers, bottom-up:
//!
//! * [`device`] — hardware parameters ([`device::DeviceConfig::titan_x`]);
//! * [`counters`] — event counts;
//! * [`cache`] — set-associative LRU L2 model;
//! * [`memory`] — allocation ledger + traffic accounting + cache feed;
//! * [`fabric`] — warp/block Phase 1 primitives with per-event accounting;
//! * [`timing`] — the analytic cost model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod counters;
pub mod device;
pub mod fabric;
pub mod memory;
pub mod report;
pub mod timing;
pub mod warp;

pub use counters::Counters;
pub use device::DeviceConfig;
pub use memory::{BufferId, GlobalMemory};
pub use report::RunReport;
pub use timing::{CostModel, TimeEstimate, Workload};
