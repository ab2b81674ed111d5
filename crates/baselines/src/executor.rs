//! The common interface every comparison code implements.

use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::signature::Signature;
use plr_sim::{DeviceConfig, RunReport};

/// The prefix-sum family CUB and SAM support, classified in plr-core.
pub use plr_core::prefix::{classify_prefix_family, PrefixFamily};

/// A recurrence executor that runs on the machine model.
///
/// Implementations mirror the paper's comparison codes: each declares which
/// signatures and input sizes it supports (`CUB`/`SAM` handle the
/// prefix-sum family, `Alg3`/`Rec` single-feed-forward filters with size
/// caps, `Scan` everything until it runs out of memory), runs functionally
/// for validation, and provides a closed-form cost estimate for input sizes
/// too large to execute.
pub trait RecurrenceExecutor<T: Element> {
    /// Short name as used in the paper's figures ("CUB", "SAM", …).
    fn name(&self) -> &'static str;

    /// Checks whether this executor supports `signature` at length `n`.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedSignature`] or
    /// [`EngineError::InputTooLarge`] describing the limitation.
    fn supports(&self, signature: &Signature<T>, n: usize) -> Result<(), EngineError>;

    /// Executes functionally on the machine model, producing validated
    /// output values and full event accounting.
    ///
    /// # Errors
    ///
    /// The same errors as [`RecurrenceExecutor::supports`].
    fn run(
        &self,
        signature: &Signature<T>,
        input: &[T],
        device: &DeviceConfig,
    ) -> Result<RunReport<T>, EngineError>;

    /// Closed-form cost estimate for an `n`-element input (no output
    /// values). Traffic and operation counts match [`RecurrenceExecutor::run`];
    /// L2 misses are the streaming approximation.
    ///
    /// # Errors
    ///
    /// The same errors as [`RecurrenceExecutor::supports`].
    fn estimate(
        &self,
        signature: &Signature<T>,
        n: usize,
        device: &DeviceConfig,
    ) -> Result<RunReport<T>, EngineError>;
}
