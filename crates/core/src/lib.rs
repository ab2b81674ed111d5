//! # plr-core
//!
//! Core algorithms for the automatic hierarchical parallelization of linear
//! recurrences, reproducing Maleki & Burtscher, *Automatic Hierarchical
//! Parallelization of Linear Recurrences* (ASPLOS 2018).
//!
//! A linear recurrence transforms an input sequence `x` into an output `y`:
//!
//! ```text
//! y[i] = a0·x[i] + … + a-p·x[i-p] + b-1·y[i-1] + … + b-k·y[i-k]
//! ```
//!
//! written compactly as the *signature* `(a0, …, a-p : b-1, …, b-k)`.
//! Prefix sums (`(1:1)`), tuple and higher-order prefix sums, and recursive
//! (IIR) digital filters are all instances.
//!
//! The crate provides, bottom-up:
//!
//! * [`element`] — the scalar abstraction (i32/i64 with GPU-style wrapping,
//!   f32/f64 with flush-to-zero support);
//! * [`signature`] — the signature type and its textual DSL;
//! * [`serial`] — the serial reference implementations;
//! * [`nacci`] — generalized-Fibonacci correction-factor tables, the
//!   paper's key precomputation;
//! * [`blocked`] — register-blocked serial kernels: the carry-correction
//!   trick applied at register-block granularity ("level 0" of the
//!   hierarchy), breaking the per-element dependency for orders ≤ 4;
//! * [`simd`] — explicit `core::arch` vector kernels for the blocked
//!   solve, the FIR map and the correction folds, dispatched at runtime
//!   on the detected ISA (no rebuild flags needed);
//! * [`kernel`] — the kernel-tier knob (`PLR_KERNEL` env/override)
//!   shared by every executor;
//! * [`phase1`] / [`phase2`] — hierarchical doubling merge and chunked
//!   carry propagation (sequential and decoupled-look-back forms);
//! * [`engine`] — the end-to-end two-phase executor;
//! * [`analysis`] — factor-pattern classification backing PLR's
//!   domain-specific optimizations;
//! * [`plan`] — runtime correction plans: cached per-signature strategy
//!   selection (scalar fold / conditional add / periodic / decay-truncated
//!   / polynomial / dense) consulted by every executor;
//! * [`prefix`] — the prefix-sum family: constructors, the classifier, and
//!   the add-only cascade kernels for its binomial members;
//! * [`poly`], [`filters`], [`stability`] — filter design, signature
//!   catalogs, and stability analysis;
//! * [`compose`] — z-transform combination/decomposition of recurrences
//!   (the paper's "offline" cascade step);
//! * [`response`] — frequency- and impulse-response analysis;
//! * [`companion`] — the companion-matrix view cross-validating the
//!   n-nacci factors against matrix powers;
//! * [`segmented`] — restart boundaries inside one input (segmented
//!   prefix sums generalized to any feedback);
//! * [`tropical`] — the max-plus semiring instantiation ("operators other
//!   than addition").
//!
//! ## Quickstart
//!
//! ```
//! use plr_core::{engine::Engine, signature::Signature};
//!
//! let sig: Signature<i64> = "(1: 2, -1)".parse()?; // 2nd-order prefix sum
//! let engine = Engine::new(sig)?;
//! let y = engine.run(&[1, 1, 1, 1, 1])?;
//! assert_eq!(y, vec![1, 3, 6, 10, 15]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod anticausal;
pub mod blocked;
pub mod companion;
pub mod compose;
pub mod element;
pub mod engine;
pub mod error;
pub mod filters;
pub mod kernel;
pub mod nacci;
pub mod phase1;
pub mod phase2;
pub mod plan;
pub mod poly;
pub mod prefix;
pub mod response;
pub mod segmented;
pub mod serial;
pub mod signature;
pub mod simd;
pub mod stability;
pub mod stream;
pub mod tropical;
pub mod validate;
pub mod varying;

pub use element::Element;
pub use engine::Engine;
pub use kernel::{set_kernel_override, KernelKind, KernelTier};
pub use plan::{CorrectionPlan, PlanKind, PlanMode};
pub use segmented::{SegmentedPlan, Segments};
pub use signature::Signature;
pub use varying::{AffineMap, VaryingEngine, VaryingPlan, VaryingSignature};
