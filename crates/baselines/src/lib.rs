//! # plr-baselines
//!
//! Reimplementations of the comparison codes from the paper's evaluation,
//! all running on the `plr-sim` machine model through one common
//! [`executor::RecurrenceExecutor`] interface:
//!
//! * [`memcpy`] — the device-to-device copy that upper-bounds throughput;
//! * [`cub::Cub`] — Merrill & Garland's single-pass decoupled-look-back
//!   scan (CUB 1.5.1 strategy): vector scans for tuples, the whole code
//!   repeated `r` times for order-`r` prefix sums;
//! * [`sam::Sam`] — the PLDI'16 higher-order/tuple prefix-sum code:
//!   single-pass for every order, interleaved scalar scans for tuples,
//!   install-time auto-tuning of the tile size;
//! * [`scan::Scan`] — Blelloch's general method: `k×k` matrix + `k`-vector
//!   elements scanned with a matrix-multiply operator (`O(nk²)` memory);
//! * [`alg3::Alg3`] — Nehab et al.'s 2D recursive filtering (reads the
//!   input twice, always filters both horizontal directions);
//! * [`rec::Rec`] — Chaurasia et al.'s Halide-generated tiled filters
//!   (serial cross-tile carries, re-reads the input).
//!
//! Each executor enforces the capability limits the paper reports (what
//! signatures it accepts and up to which input size), validates its output
//! against its own serial semantics, and exposes cost estimates for input
//! sizes too large to run functionally.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod alg3;
pub mod cub;
pub mod executor;
pub mod memcpy;
pub mod rec;
pub mod sam;
pub mod scan;
mod stream;

pub use alg3::Alg3;
pub use cub::Cub;
pub use executor::{classify_prefix_family, PrefixFamily, RecurrenceExecutor};
pub use rec::Rec;
pub use sam::Sam;
pub use scan::Scan;
