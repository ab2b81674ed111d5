//! # plr-codegen
//!
//! The PLR domain-specific compiler: translates a recurrence signature into
//! (a) CUDA source code, reproducing the paper's proof-of-concept compiler,
//! and (b) an executable kernel plan interpreted on the `plr-sim` machine
//! model, which is how this reproduction runs and measures the kernels.
//!
//! Pipeline: [`lower::lower`] applies the paper's chunk-size and register
//! heuristics and precomputes the correction-factor table, producing a
//! [`plan::KernelPlan`]; [`emit`] renders it as CUDA; [`exec`] interprets
//! it on the machine model with full event accounting.
//!
//! ```
//! use plr_codegen::compiler::Plr;
//!
//! let compilation = Plr::new().compile_str::<i32>("1 : 2, -1", 1 << 20)?;
//! assert!(compilation.cuda.contains("__global__"));
//! # Ok::<(), plr_core::error::SignatureError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod compiler;
pub mod emit;
pub mod emit_c;
pub mod exec;
pub mod lint;
pub mod lower;
pub mod plan;
pub mod report;
pub mod tune;

pub use compiler::{Compilation, Plr};
pub use exec::{execute, ExecOptions, Execution};
pub use lower::{lower, LowerOptions};
pub use plan::{KernelPlan, Optimizations};
