//! Error types for signature construction, parsing, and output validation.

use core::fmt;

/// Errors produced when constructing or parsing a [`Signature`].
///
/// [`Signature`]: crate::signature::Signature
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SignatureError {
    /// The feed-forward coefficient list was empty or all zeros.
    ///
    /// With all `a` coefficients zero the output is identically zero and
    /// independent of the input (paper, Section 1), so such signatures are
    /// rejected rather than silently computing nothing.
    ZeroFeedforward,
    /// The feedback coefficient list was empty or all zeros.
    ///
    /// With all `b` coefficients zero the recurrence degenerates to a map
    /// operation; the paper (and this library's recurrence engines) only
    /// handle `k >= 1`. Use the FIR helpers in [`crate::serial`] directly
    /// for pure map operations.
    ZeroFeedback,
    /// A token in the textual signature could not be parsed as a coefficient.
    InvalidToken {
        /// The offending token.
        token: String,
    },
    /// The textual signature did not contain exactly one `:` separator.
    MissingSeparator,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::ZeroFeedforward => {
                write!(f, "feed-forward coefficients are empty or all zero")
            }
            SignatureError::ZeroFeedback => {
                write!(
                    f,
                    "feedback coefficients are empty or all zero (use a plain map for FIR-only signatures)"
                )
            }
            SignatureError::InvalidToken { token } => {
                write!(f, "invalid coefficient token `{token}`")
            }
            SignatureError::MissingSeparator => {
                write!(
                    f,
                    "signature must contain exactly one `:` separating the coefficient lists"
                )
            }
        }
    }
}

impl std::error::Error for SignatureError {}

/// A mismatch found when validating a parallel result against the serial
/// reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationError {
    /// Index of the first mismatching element.
    pub index: usize,
    /// The serial reference value at that index (widened to `f64`).
    pub expected: f64,
    /// The value under test at that index (widened to `f64`).
    pub actual: f64,
    /// The tolerance that was applied.
    pub tolerance: f64,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output mismatch at index {}: expected {}, got {} (tolerance {})",
            self.index, self.expected, self.actual, self.tolerance
        )
    }
}

impl std::error::Error for ValidationError {}

/// Errors produced by the recurrence engines when a configuration cannot be
/// executed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The requested chunk size was zero or not a power of two where one is
    /// required by the hierarchical doubling of Phase 1.
    InvalidChunkSize {
        /// The rejected chunk size.
        chunk_size: usize,
    },
    /// The input exceeds the maximum size the configuration supports.
    ///
    /// The paper's PLR supports sequences up to 4 GB (2^30 32-bit words);
    /// executors report their own caps (e.g. Alg3 2 GB, Rec 1 GB, Scan
    /// k-dependent) through this error.
    InputTooLarge {
        /// Number of elements requested.
        len: usize,
        /// Maximum number of elements supported.
        max: usize,
    },
    /// The executor does not support this signature shape (e.g. Alg3/Rec
    /// only support a single non-recursive coefficient; paper Section 6.2.2).
    UnsupportedSignature {
        /// Human-readable reason.
        reason: String,
    },
    /// The input length does not match the length an executor is bound to.
    ///
    /// Time-varying signatures carry one coefficient row per element, so a
    /// [`VaryingSignature`](crate::varying::VaryingSignature) of length `n`
    /// can only be applied to inputs of exactly `n` elements.
    LengthMismatch {
        /// The length the executor was built for.
        expected: usize,
        /// The length of the input actually supplied.
        got: usize,
    },
    /// A worker thread (or the calling thread acting as worker 0) panicked
    /// while executing a parallel run.
    ///
    /// The decoupled look-back progress argument assumes every execution
    /// unit eventually publishes its carries; a panicking worker breaks
    /// that assumption, so the runtime aborts the run, converts the panic
    /// into this error, and leaves the pool reusable for the next call.
    WorkerPanicked {
        /// Id of the worker that panicked (`0` is the calling thread).
        worker: usize,
        /// The panic payload, stringified (`<non-string panic payload>`
        /// when the payload was not a `&str` or `String`).
        payload: String,
    },
    /// An opt-in finiteness check found a NaN or infinite carry after a
    /// chunk's local solve or correction.
    ///
    /// Unstable float signatures (spectral radius > 1) can overflow to
    /// `inf`/NaN mid-run; without this check the garbage silently
    /// propagates through every later chunk via the look-back chain.
    NonFiniteCarry {
        /// Index of the first chunk observed with a non-finite carry (under
        /// concurrent execution, not necessarily the lowest such index).
        chunk: usize,
    },
    /// The run was aborted through a caller-held cancellation token.
    ///
    /// Cancellation reuses the same cooperative bail-out paths a worker
    /// panic does: every ticket loop and carry spin-wait polls the run's
    /// abort flag and stops promptly, the output buffer is left partially
    /// processed, and the pool stays reusable for the next call.
    Cancelled,
    /// The run exceeded its configured wall-clock deadline.
    ///
    /// Every poll of the run's abort signal checks the deadline, so a run
    /// that outlives its budget — a wedged stage, an OS-starved worker, a
    /// hung spin-wait — ends in this error at its next poll instead of a
    /// hang, via the same cooperative abort plumbing cancellation uses.
    DeadlineExceeded {
        /// The wall-clock budget that was exceeded.
        deadline: core::time::Duration,
    },
    /// The service core rejected the submission *at admission* because the
    /// estimated queue delay already exceeds the row's remaining deadline
    /// budget (or the shard's backlog bound): admitting the row would only
    /// wedge the queue and miss the deadline anyway.
    ///
    /// Retryable — back off for the hint and resubmit; the hint is the
    /// service's estimate of when capacity frees up.
    Overloaded {
        /// Suggested minimum wait before resubmitting.
        retry_after_hint: core::time::Duration,
    },
    /// The submission was rejected because the tenant's token-bucket quota
    /// is exhausted.
    ///
    /// Retryable — the hint is when the bucket accrues the next token, so
    /// a well-behaved client that waits at least this long will usually be
    /// admitted (subject to load shedding).
    QuotaExceeded {
        /// Time until the tenant's bucket accrues enough budget for one
        /// more row.
        retry_after_hint: core::time::Duration,
    },
}

impl EngineError {
    /// Whether the failure is *transient by contract*: resubmitting the
    /// same work after a backoff can succeed without any change on the
    /// caller's side. True exactly for the admission-control rejections
    /// ([`Overloaded`](Self::Overloaded) and
    /// [`QuotaExceeded`](Self::QuotaExceeded)); every other variant either
    /// reports a configuration problem (same inputs will fail again) or a
    /// caller-initiated abort (retrying would override the caller's own
    /// cancel/deadline decision).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            EngineError::Overloaded { .. } | EngineError::QuotaExceeded { .. }
        )
    }

    /// The suggested minimum backoff before a retry, when the error
    /// carries one (the admission-control rejections do).
    pub fn retry_after_hint(&self) -> Option<core::time::Duration> {
        match self {
            EngineError::Overloaded { retry_after_hint }
            | EngineError::QuotaExceeded { retry_after_hint } => Some(*retry_after_hint),
            _ => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidChunkSize { chunk_size } => {
                write!(f, "invalid chunk size {chunk_size}")
            }
            EngineError::InputTooLarge { len, max } => {
                write!(
                    f,
                    "input of {len} elements exceeds supported maximum of {max}"
                )
            }
            EngineError::UnsupportedSignature { reason } => {
                write!(f, "unsupported signature: {reason}")
            }
            EngineError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "input of {got} elements does not match the bound length {expected}"
                )
            }
            EngineError::WorkerPanicked { worker, payload } => {
                write!(f, "worker {worker} panicked: {payload}")
            }
            EngineError::NonFiniteCarry { chunk } => {
                write!(f, "non-finite carry produced by chunk {chunk}")
            }
            EngineError::Cancelled => {
                write!(f, "run cancelled by the caller")
            }
            EngineError::DeadlineExceeded { deadline } => {
                write!(f, "run exceeded its deadline of {deadline:?}")
            }
            EngineError::Overloaded { retry_after_hint } => {
                write!(
                    f,
                    "service overloaded, rejected at admission (retry after {retry_after_hint:?})"
                )
            }
            EngineError::QuotaExceeded { retry_after_hint } => {
                write!(
                    f,
                    "tenant quota exhausted (retry after {retry_after_hint:?})"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msgs = [
            SignatureError::ZeroFeedforward.to_string(),
            SignatureError::ZeroFeedback.to_string(),
            SignatureError::InvalidToken { token: "q".into() }.to_string(),
            SignatureError::MissingSeparator.to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
            assert!(m.chars().next().unwrap().is_lowercase());
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError {
            index: 3,
            expected: 1.0,
            actual: 2.0,
            tolerance: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("index 3"));
        assert!(s.contains("expected 1"));
    }

    #[test]
    fn engine_error_display() {
        let e = EngineError::InputTooLarge { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        let e = EngineError::UnsupportedSignature {
            reason: "p > 0".into(),
        };
        assert!(e.to_string().contains("p > 0"));
        let e = EngineError::WorkerPanicked {
            worker: 3,
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("worker 3"));
        assert!(e.to_string().contains("boom"));
        let e = EngineError::NonFiniteCarry { chunk: 7 };
        assert!(e.to_string().contains("chunk 7"));
        let e = EngineError::LengthMismatch {
            expected: 8,
            got: 6,
        };
        assert!(e.to_string().contains('8'), "{e}");
        assert!(e.to_string().contains('6'), "{e}");
        let e = EngineError::Cancelled;
        assert!(e.to_string().contains("cancelled"));
        let e = EngineError::DeadlineExceeded {
            deadline: core::time::Duration::from_millis(250),
        };
        assert!(e.to_string().contains("deadline"), "{e}");
        assert!(e.to_string().contains("250"), "{e}");
        let e = EngineError::Overloaded {
            retry_after_hint: core::time::Duration::from_millis(7),
        };
        assert!(e.to_string().contains("overloaded"), "{e}");
        assert!(e.to_string().contains("7"), "{e}");
        let e = EngineError::QuotaExceeded {
            retry_after_hint: core::time::Duration::from_millis(9),
        };
        assert!(e.to_string().contains("quota"), "{e}");
    }

    #[test]
    fn retryability_is_exactly_the_admission_rejections() {
        let hint = core::time::Duration::from_millis(5);
        let overloaded = EngineError::Overloaded {
            retry_after_hint: hint,
        };
        let quota = EngineError::QuotaExceeded {
            retry_after_hint: hint,
        };
        assert!(overloaded.is_retryable());
        assert!(quota.is_retryable());
        assert_eq!(overloaded.retry_after_hint(), Some(hint));
        assert_eq!(quota.retry_after_hint(), Some(hint));
        for err in [
            EngineError::Cancelled,
            EngineError::InvalidChunkSize { chunk_size: 0 },
            EngineError::NonFiniteCarry { chunk: 1 },
            EngineError::WorkerPanicked {
                worker: 0,
                payload: "x".into(),
            },
            EngineError::DeadlineExceeded {
                deadline: core::time::Duration::from_secs(1),
            },
        ] {
            assert!(!err.is_retryable(), "{err}");
            assert_eq!(err.retry_after_hint(), None, "{err}");
        }
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<SignatureError>();
        check::<ValidationError>();
        check::<EngineError>();
    }
}
