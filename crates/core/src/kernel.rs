//! Kernel-tier selection: the `PLR_KERNEL` environment knob and its
//! programmatic override, mirroring the plan cache's `PLR_PLAN_CACHE`.
//!
//! Three tiers of local-solve (and map/correction) kernels coexist:
//!
//! * **scalar** — the reference loops of [`crate::serial`];
//! * **blocked** — the register-blocked, autovectorizable kernels of
//!   [`crate::blocked`];
//! * **auto** — first the add-only cascade kernel of [`crate::prefix`]
//!   for the integer binomial prefix sums `(1 − z⁻¹)^q`, `q <= 4`; then
//!   the explicit `core::arch` kernels of [`crate::simd`] on the element
//!   type's one vector ISA when the CPU has it
//!   ([`crate::simd::best_isa`]); blocked otherwise.
//!
//! [`SolveKernel::select`](crate::blocked::SolveKernel::select) consults
//! [`tier`] so every executor — `Engine`, `ParallelRunner`,
//! `BatchRunner`, `RowStream` — picks the same tier without rebuild
//! flags. The default ([`KernelTier::Auto`]) chooses the fastest sound
//! kernel for the element type and the CPU the process is running on;
//! forcing `scalar` or `blocked` is for differential testing,
//! benchmarking, and bisecting.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel tier [`SolveKernel::select`] may pick.
///
/// [`SolveKernel::select`]: crate::blocked::SolveKernel::select
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelTier {
    /// Pick the fastest sound kernel for the element type and the
    /// detected CPU features (the default).
    #[default]
    Auto,
    /// Force the scalar reference loops everywhere (including the FIR
    /// map stage and the correction-apply loops).
    Scalar,
    /// Allow the register-blocked kernels but not the explicit SIMD
    /// ones (the pre-dispatch behavior, useful for bisecting).
    Blocked,
}

/// Which kernel actually ran, reported through run statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// No solve kernel was consulted (default value in zeroed stats).
    #[default]
    Unknown,
    /// Scalar reference loop.
    Scalar,
    /// Register-blocked autovectorizable kernel.
    Blocked,
    /// Explicit SIMD layer, x86-64 AVX2(+FMA) kernels.
    SimdAvx2,
    /// Explicit SIMD layer, x86-64 AVX-512(VL+DQ) kernels.
    SimdAvx512,
    /// Add-only cascaded running sums for the integer binomial prefix
    /// sums (see [`crate::prefix::CascadeKernel`]).
    Cascade,
    /// Lane-parallel order-1 varying solve: sub-blocks advanced in
    /// lockstep as independent chains, then fixed up from their
    /// predecessors (see [`crate::varying`], "Fast paths").
    Lanes,
    /// Aggregated statistics absorbed runs with different kernels.
    Mixed,
}

/// 0 = follow the `PLR_KERNEL` environment variable; 1..=3 force a tier.
static TIER_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENV_TIER: OnceLock<KernelTier> = OnceLock::new();

fn parse_tier(value: &str) -> KernelTier {
    match value.trim().to_ascii_lowercase().as_str() {
        "scalar" => KernelTier::Scalar,
        "blocked" => KernelTier::Blocked,
        // "auto", unset, empty, and anything unrecognized: the default.
        _ => KernelTier::Auto,
    }
}

/// The kernel tier in effect: a programmatic override when one was set
/// via [`set_kernel_override`], otherwise the `PLR_KERNEL` environment
/// variable (`scalar` | `blocked` | `auto`, read once per process),
/// otherwise [`KernelTier::Auto`].
pub fn tier() -> KernelTier {
    match TIER_OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelTier::Auto,
        2 => KernelTier::Scalar,
        3 => KernelTier::Blocked,
        _ => *ENV_TIER.get_or_init(|| {
            std::env::var("PLR_KERNEL")
                .map(|v| parse_tier(&v))
                .unwrap_or_default()
        }),
    }
}

/// Programmatically force a kernel tier (`None` reverts to the
/// `PLR_KERNEL` environment default).
///
/// The override is process-global and read at *kernel selection* time
/// (plan build); plans already built keep the kernel they selected.
/// Correction plans key their cache on the effective tier, so flipping
/// the override never serves a stale kernel from the plan cache.
pub fn set_kernel_override(tier: Option<KernelTier>) {
    let v = match tier {
        None => 0,
        Some(KernelTier::Auto) => 1,
        Some(KernelTier::Scalar) => 2,
        Some(KernelTier::Blocked) => 3,
    };
    TIER_OVERRIDE.store(v, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tier_names() {
        assert_eq!(parse_tier("scalar"), KernelTier::Scalar);
        assert_eq!(parse_tier("Blocked "), KernelTier::Blocked);
        assert_eq!(parse_tier("SIMD"), KernelTier::Auto);
        assert_eq!(parse_tier("auto"), KernelTier::Auto);
        assert_eq!(parse_tier(""), KernelTier::Auto);
        assert_eq!(parse_tier("bogus"), KernelTier::Auto);
    }

    #[test]
    fn override_round_trips() {
        // Serialized with other override users by being the only test in
        // this binary that sets it; always restores the default.
        for t in [KernelTier::Scalar, KernelTier::Blocked, KernelTier::Auto] {
            set_kernel_override(Some(t));
            assert_eq!(tier(), t);
        }
        set_kernel_override(None);
    }
}
