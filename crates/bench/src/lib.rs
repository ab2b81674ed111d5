//! # plr-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation section on the machine model:
//!
//! * [`figures::figure`] — Figures 1–10 (throughput sweeps and the
//!   optimization on/off comparison);
//! * [`tables::table1`] / [`tables::table2`] / [`tables::table3`] — the
//!   signature catalog, GPU memory usage, and L2 read misses;
//! * [`render`] — plain-text and CSV output;
//! * [`plr_exec::PlrExecutor`] — PLR behind the common executor interface.
//!
//! The `reproduce` binary drives all of it:
//!
//! ```text
//! cargo run -p plr-bench --bin reproduce -- all
//! cargo run -p plr-bench --bin reproduce -- fig4 table3 --csv results/
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod claims;
pub mod figures;
pub mod plr_exec;
pub mod render;
pub mod tables;
pub mod workloads;

pub use plr_exec::PlrExecutor;
