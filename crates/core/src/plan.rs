//! Runtime correction plans: per-signature strategy selection with a
//! shared, keyed plan cache.
//!
//! The paper's Section 3.1/4 optimizations — constant-folded factor lists,
//! 0/1 lists as conditional adds, periodic lists stored once per period,
//! decay-truncated lists that let trailing chunks skip correction — were
//! previously applied only by `plr-codegen`'s CUDA emitter. This module
//! brings them to the CPU runtime: a [`CorrectionPlan`] analyses a
//! signature once ([`FactorPattern`] classification plus a conservative
//! [`StabilityReport::decay_length`] bound), derives the cheapest correction
//! strategy per factor list, and caches the result — factor tables,
//! truncation depth, kernel selection, chunk size — keyed by the exact
//! coefficient bits so every `Engine`, `ParallelRunner`, `BatchRunner` and
//! `RowStream` over the same signature shares one plan.
//!
//! # Soundness of decay truncation
//!
//! A plan only truncates its factor table when *both* of these hold:
//!
//! 1. The analytic bound says it may: root finding converged, the spectral
//!    radius is at least [`RADIUS_EPSILON`] inside the unit circle, and the
//!    multiplicity-aware [`StabilityReport::decay_length`] estimate is
//!    shorter than the chunk size.
//! 2. The generated table *proves* it: the last `k` entries of every factor
//!    list are exactly zero. Each factor entry is a linear combination of
//!    the `k` entries before it, so `k` consecutive exact zeros in every
//!    list force all later entries to be exactly zero under flush-to-zero
//!    generation. Truncation then drops only exact zeros — the planned
//!    correction is the dense correction minus additions of `0·carry`.
//!
//! If either check fails the plan falls back to the dense table. The
//! analytic estimate is therefore a *performance* hint; correctness rests
//! on the materialized zeros.
//!
//! # Polynomial corrections
//!
//! For the integer binomial prefix sums `(1 − z⁻¹)^q`, `q = 2..=4`, the
//! factor lists are polynomials of degree `q − 1` in the position, and
//! the correction is the carries' zero-input response: `q` cascaded
//! running sums with zero input. A [`PlanKind::Polynomial`] plan adds it
//! in one add-only pass by forward differences
//! ([`CascadeKernel::add_carry_response`]) instead of `q` table axpys.
//! In wrapping integer arithmetic this is the same sum in another order,
//! so its output is bit-identical to the dense table's. The table stays:
//! [`CorrectionPlan::fixup_carries`] reads its entries near each chunk's
//! end. Where the plan's solve is the cascade too, the pass need not be
//! a pass of its own: [`CorrectionPlan::correct_map_solve_sliced`]
//! applies one chunk's correction inside the next chunk's solve
//! ([`CascadeKernel::solve_and_correct_sliced`]).

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::analysis::{classify, FactorPattern};
use crate::blocked::{fir_in_place, SlicedSolve, SolveKernel};
use crate::element::Element;
use crate::kernel::{self, KernelTier};
use crate::nacci::{carries_of, CorrectionTable};
use crate::prefix::CascadeKernel;
use crate::signature::Signature;
use crate::simd::{self, MapSolveKernel};
use crate::stability::{self, StabilityReport};

/// How close to the unit circle a spectral radius may be before the plan
/// builder refuses to trust the decay estimate (satellite of the paper's
/// truncation optimization: near-critical poles decay over horizons where
/// the pole-magnitude rounding error dominates the estimate).
pub const RADIUS_EPSILON: f64 = 1e-3;

/// Soft capacity of the shared plan cache; reaching it evicts everything
/// (plans are cheap to rebuild and real workloads hold a handful).
const CACHE_CAPACITY: usize = 256;

/// Whether a plan may specialize or must reproduce the dense path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanMode {
    /// Pick the cheapest sound strategy per factor list.
    #[default]
    Auto,
    /// Force the dense correction path (full-length table, no per-list
    /// specialization). Used as the differential-testing and benchmarking
    /// baseline.
    Dense,
}

/// Summary of the correction strategy a plan selected, reported through
/// `RunStats` (one value per plan: the dominant strategy across the `k`
/// factor lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanKind {
    /// No plan was consulted (default value in zeroed stats).
    #[default]
    Unplanned,
    /// Full-table dense correction (no exploitable structure, or the plan
    /// was forced dense with [`PlanMode::Dense`]).
    Dense,
    /// Every contributing list folds to a scalar (all-constant factors).
    ScalarFold,
    /// Contributing lists are 0/1 masks: multiplications became
    /// conditional adds.
    ConditionalAdd,
    /// Contributing lists are periodic: one period is read repeatedly.
    Periodic,
    /// Every list decays to exact zeros: corrections touch only a bounded
    /// prefix of each chunk and full-size chunks reset the carry chain.
    Truncated,
    /// The lists are polynomials in the position (integer binomial prefix
    /// sums of order 2 to 4): one add-only forward-difference pass
    /// replaces the per-list folds.
    Polynomial,
    /// Lists landed on different strategies.
    Mixed,
    /// The time-varying lowering ran: carries are per-chunk transition
    /// matrices composed from per-element companions, not factor lists
    /// (see [`crate::varying`]). No correction plan — and no plan cache
    /// entry — is involved.
    MatrixCarry,
}

/// What a plan is being built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRequest {
    /// Logical chunk size the correction serves (chunks up to this length
    /// can be corrected; `0` for plans that never correct, e.g. whole-row
    /// batch dispatch that only needs the FIR + solve kernels).
    pub chunk_size: usize,
    /// Flush denormal factor values to zero during table generation.
    pub flush: bool,
    /// Require the physical factor table to span the full chunk size even
    /// when truncation would be sound (Phase 1 hierarchical doubling
    /// indexes the table at every merge width, so it needs all entries).
    pub full_table: bool,
    /// Strategy-selection mode.
    pub mode: PlanMode,
}

impl PlanRequest {
    /// A request with the given chunk size and the defaults the runtimes
    /// use: flush for floats, truncation allowed, [`PlanMode::Auto`].
    pub fn new<T: Element>(chunk_size: usize) -> Self {
        PlanRequest {
            chunk_size,
            flush: T::IS_FLOAT,
            full_table: false,
            mode: PlanMode::Auto,
        }
    }
}

/// A signature analysed once: per-list correction strategies, the (possibly
/// truncated) factor table, the FIR coefficients and the selected local
/// solve kernel, with the FIR map fused into it where the SIMD kernel
/// runs.
///
/// Plans are immutable and shared (`Arc`) through the global cache; every
/// consumer — `Engine`, `ParallelRunner`, `BatchRunner`, `RowStream` — asks
/// [`plan_for`] and receives the same instance for the same key.
#[derive(Debug, Clone)]
pub struct CorrectionPlan<T> {
    signature: Signature<T>,
    fir: Vec<T>,
    solve: SolveKernel<T>,
    /// The FIR map fused into `solve`: set when `solve` is the SIMD kernel
    /// and the signature has 1 to [`simd::MAX_FIR_TAPS`] feedforward taps
    /// other than the identity `[1]`.
    map_solve: Option<MapSolveKernel<T>>,
    table: CorrectionTable<T>,
    strategies: Vec<FactorPattern<T>>,
    /// Set for [`PlanKind::Polynomial`] plans: corrects every list at once.
    polynomial: Option<CascadeKernel<T>>,
    chunk_size: usize,
    /// Max nonzero-prefix length across lists when `tail_zero`; otherwise
    /// the chunk size.
    effective_len: usize,
    /// Every list is `AllZero` or `DecaysAfter`: all factors beyond
    /// `effective_len` are exactly zero.
    tail_zero: bool,
    /// The physical table is shorter than `chunk_size` (only with
    /// `tail_zero`, after the zero-tail proof).
    truncated: bool,
    kind: PlanKind,
    stability: Option<StabilityReport>,
}

impl<T: Element> CorrectionPlan<T> {
    /// Builds a plan without consulting the cache.
    pub fn build(signature: &Signature<T>, req: PlanRequest) -> Self {
        let (fir, recursive) = signature.split();
        let feedback: Vec<T> = recursive.feedback().to_vec();
        let solve = SolveKernel::select(&feedback);
        let map_solve = match solve {
            SolveKernel::Simd(_) if !signature.is_pure_feedback() => {
                MapSolveKernel::try_new(&fir, &feedback)
            }
            _ => None,
        };
        let k = feedback.len();
        let m = req.chunk_size;

        let stability = if T::IS_FLOAT && req.mode == PlanMode::Auto && m > 0 {
            Some(stability::analyze(&feedback))
        } else {
            None
        };
        // The analytic decay bound is only trusted when root finding
        // converged and the radius clears the epsilon guard; otherwise the
        // plan keeps the dense-length table (materialized zeros may still
        // be classified and skipped — they are exact).
        let trusted_decay = stability.as_ref().is_some_and(|s| {
            s.converged && s.is_stable() && s.spectral_radius <= 1.0 - RADIUS_EPSILON
        });

        let mut table = None;
        let mut truncated = false;
        if req.mode == PlanMode::Auto
            && !req.full_table
            && req.flush
            && trusted_decay
            && T::FLUSH_THRESHOLD > 0.0
        {
            if let Some(est) = stability
                .as_ref()
                .and_then(|s| s.decay_length(T::FLUSH_THRESHOLD))
            {
                // k extra entries carry the zero-tail proof.
                let phys = est + k;
                if phys < m {
                    let candidate = CorrectionTable::generate_with(&feedback, phys, true);
                    if tail_is_dead(&candidate, k) {
                        table = Some(candidate);
                        truncated = true;
                    }
                }
            }
        }
        let table =
            table.unwrap_or_else(|| CorrectionTable::generate_with(&feedback, m, req.flush));

        let strategies: Vec<FactorPattern<T>> = if req.mode == PlanMode::Dense {
            (0..k).map(|_| FactorPattern::Dense).collect()
        } else {
            (0..k)
                .map(|r| match classify(table.list(r)) {
                    // A decayed tail is only *acted on* (elements skipped,
                    // carries reset) when the analysis is trusted or the
                    // zeros are exact integer arithmetic; otherwise keep
                    // the dense loop over the materialized zeros.
                    FactorPattern::DecaysAfter { decay_len } if T::IS_FLOAT && !trusted_decay => {
                        debug_assert!(decay_len <= table.len());
                        FactorPattern::Dense
                    }
                    p => p,
                })
                .collect()
        };

        let tail_zero = !strategies.is_empty()
            && strategies.iter().all(|s| {
                matches!(
                    s,
                    FactorPattern::AllZero | FactorPattern::DecaysAfter { .. }
                )
            })
            && strategies
                .iter()
                .any(|s| matches!(s, FactorPattern::DecaysAfter { .. }));
        let effective_len = if tail_zero {
            strategies
                .iter()
                .map(|s| match s {
                    FactorPattern::DecaysAfter { decay_len } => *decay_len,
                    _ => 0,
                })
                .max()
                .unwrap_or(0)
        } else {
            m
        };
        // Order 1 keeps its scalar fold, already one add per element.
        let polynomial = CascadeKernel::try_new(&feedback)
            .filter(|c| req.mode == PlanMode::Auto && m > 0 && c.order() >= 2);
        let kind = if m == 0 {
            // Whole-row dispatch: the plan only carries the FIR and solve
            // kernels; no correction strategy exists to report.
            PlanKind::Unplanned
        } else if req.mode == PlanMode::Dense {
            PlanKind::Dense
        } else if polynomial.is_some() {
            PlanKind::Polynomial
        } else {
            summarize(&strategies, tail_zero)
        };
        debug_assert!(!truncated || tail_zero, "truncated table implies zero tail");

        CorrectionPlan {
            signature: signature.clone(),
            fir,
            solve,
            map_solve,
            table,
            strategies,
            polynomial,
            chunk_size: m,
            effective_len,
            tail_zero,
            truncated,
            kind,
            stability,
        }
    }

    /// The signature this plan serves.
    pub fn signature(&self) -> &Signature<T> {
        &self.signature
    }

    /// Feedforward (FIR) coefficients from the signature split.
    pub fn fir(&self) -> &[T] {
        &self.fir
    }

    /// The selected local-solve kernel (register-blocked when eligible).
    pub fn solve(&self) -> &SolveKernel<T> {
        &self.solve
    }

    /// Maps `chunk` through the FIR and solves it from zero history, in
    /// place, in [`SOLVE_SLICE`](crate::blocked::SOLVE_SLICE)-sized slices
    /// with `keep_going` polled before each slice after the first (see
    /// [`SolveKernel::solve_in_place_sliced`]). `prev_raw` holds the raw
    /// inputs just before the chunk, most recent last; a shorter one than
    /// the `p − 1` the taps reach (the head of the data) reads zeros
    /// beyond it.
    ///
    /// Where the plan selected the SIMD kernel and the signature has at
    /// most [`simd::MAX_FIR_TAPS`] taps, one fused pass reads and writes
    /// each element once (see [`simd::map_solve_ungated`]). Otherwise —
    /// the forced `scalar` and `blocked` tiers, the cascade, more taps —
    /// [`fir_in_place`] runs first and the solve second. A pure-feedback
    /// signature only solves. On an early stop the finished slices hold
    /// their final values; the rest of the chunk holds raw input when the
    /// map is fused and mapped input otherwise.
    pub fn map_solve_sliced(
        &self,
        chunk: &mut [T],
        prev_raw: &[T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        if let Some(fused) = &self.map_solve {
            return fused.map_solve_sliced(prev_raw, &[], chunk, keep_going);
        }
        if !self.signature.is_pure_feedback() {
            fir_in_place(&self.fir, prev_raw, prev_raw.len(), chunk);
        }
        self.solve.solve_in_place_sliced(chunk, keep_going)
    }

    /// Whether [`correct_map_solve_sliced`](Self::correct_map_solve_sliced)
    /// corrects inside the solve: the plan is [`PlanKind::Polynomial`]
    /// and its solve the cascade, which the forced `scalar` and `blocked`
    /// tiers never select.
    pub fn fuses_correction(&self) -> bool {
        self.polynomial.is_some() && matches!(self.solve, SolveKernel::Cascade(_))
    }

    /// Corrects `prev`, a chunk solved from zero history, with its
    /// predecessor's global `carries`, as
    /// [`correct_chunk`](Self::correct_chunk) does, then maps and solves
    /// `chunk` as [`map_solve_sliced`](Self::map_solve_sliced) does. Where
    /// the plan [fuses the correction](Self::fuses_correction), after the
    /// map (a pure-feedback signature has none) one loop solves `chunk`
    /// and corrects `prev` a line of each at a time
    /// ([`CascadeKernel::solve_and_correct_sliced`]); `prev` is then read
    /// from cache while `chunk` streams from memory. Elsewhere the
    /// correction runs first, on its own. The outputs are the two calls'
    /// either way, bit for bit; an early stop leaves `prev` partly
    /// corrected.
    ///
    /// # Panics
    ///
    /// Panics if `prev.len()` exceeds the plan's chunk size.
    pub fn correct_map_solve_sliced(
        &self,
        prev: &mut [T],
        carries: &[T],
        chunk: &mut [T],
        prev_raw: &[T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        match &self.polynomial {
            Some(cascade) if self.fuses_correction() => {
                assert!(
                    prev.len() <= self.chunk_size,
                    "chunk of {} exceeds plan chunk size {}",
                    prev.len(),
                    self.chunk_size
                );
                if !self.signature.is_pure_feedback() {
                    fir_in_place(&self.fir, prev_raw, prev_raw.len(), chunk);
                }
                cascade.solve_and_correct_sliced(carries, prev, chunk, keep_going)
            }
            _ => {
                self.correct_chunk(prev, carries);
                self.map_solve_sliced(chunk, prev_raw, keep_going)
            }
        }
    }

    /// The physical factor table (shorter than [`chunk_size`] for
    /// truncated plans).
    ///
    /// [`chunk_size`]: CorrectionPlan::chunk_size
    pub fn table(&self) -> &CorrectionTable<T> {
        &self.table
    }

    /// Per-list strategies (index 0 = distance-1 carry). A
    /// [`PlanKind::Polynomial`] plan corrects every list in one pass and
    /// does not consult them.
    pub fn strategies(&self) -> &[FactorPattern<T>] {
        &self.strategies
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.table.order()
    }

    /// Logical chunk size the plan serves.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Dominant strategy summary, as reported in run statistics.
    pub fn kind(&self) -> PlanKind {
        self.kind
    }

    /// Stability analysis, when one was performed (floats, auto mode).
    pub fn stability(&self) -> Option<&StabilityReport> {
        self.stability.as_ref()
    }

    /// `true` when all factor lists are exactly zero beyond
    /// [`effective_len`](CorrectionPlan::effective_len).
    pub fn tail_zero(&self) -> bool {
        self.tail_zero
    }

    /// `true` when the physical table was truncated below the chunk size.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Number of leading chunk elements a correction can touch (equals the
    /// chunk size for plans without a zero tail).
    pub fn effective_len(&self) -> usize {
        self.effective_len
    }

    /// Elements actually touched when correcting one full-size chunk — the
    /// per-chunk look-back work the plan buys down (reported in stats).
    pub fn correction_taps(&self) -> usize {
        self.strategies
            .iter()
            .map(|s| match s {
                FactorPattern::AllZero => 0,
                FactorPattern::DecaysAfter { decay_len } => (*decay_len).min(self.chunk_size),
                _ => self.chunk_size,
            })
            .max()
            .unwrap_or(0)
    }

    /// `true` when a chunk of `chunk_len` elements *resets* the carry
    /// chain: every factor its tail would be scaled by is exactly zero, so
    /// the chunk's global carries equal its local carries no matter what
    /// preceded it. Look-back then never walks past one chunk and the
    /// sequential fix-up chain becomes a copy.
    pub fn resets_carries(&self, chunk_len: usize) -> bool {
        self.tail_zero && chunk_len >= self.effective_len + self.order()
    }

    /// Planned equivalent of [`CorrectionTable::correct_chunk`]: adds
    /// `list(r)[i]·carries[r]` to `chunk[i]`, using each list's strategy,
    /// or for a [`PlanKind::Polynomial`] plan the carries' zero-input
    /// response by forward differences.
    ///
    /// Produces bit-identical results to the dense path for integers, and
    /// differs for floats only by skipping additions of exact-zero terms
    /// (which can flip `-0.0` to `+0.0` in the dense path).
    ///
    /// # Panics
    ///
    /// Panics if `chunk.len()` exceeds the plan's chunk size.
    pub fn correct_chunk(&self, chunk: &mut [T], carries: &[T]) {
        assert!(
            chunk.len() <= self.chunk_size,
            "chunk of {} exceeds plan chunk size {}",
            chunk.len(),
            self.chunk_size
        );
        if let Some(cascade) = &self.polynomial {
            cascade.add_carry_response(carries, chunk);
            return;
        }
        for (r, &carry) in carries.iter().enumerate().take(self.order()) {
            if carry.is_zero() {
                continue;
            }
            match &self.strategies[r] {
                FactorPattern::AllZero => {}
                FactorPattern::Constant(c) => {
                    // list[i].mul(carry) with list[i] == c for every i:
                    // fold the multiply out of the loop (same value, same
                    // rounding — one multiplication instead of n).
                    let f = c.mul(carry);
                    for v in chunk.iter_mut() {
                        *v = v.add(f);
                    }
                }
                FactorPattern::ZeroOne(mask) => {
                    debug_assert!(mask.len() >= chunk.len());
                    for (v, &one) in chunk.iter_mut().zip(mask) {
                        if one {
                            *v = v.add(carry);
                        }
                    }
                }
                FactorPattern::Periodic { period } => {
                    let pat = &self.table.list(r)[..*period];
                    for block in chunk.chunks_mut(*period) {
                        for (v, &f) in block.iter_mut().zip(pat) {
                            *v = v.add(f.mul(carry));
                        }
                    }
                }
                FactorPattern::DecaysAfter { decay_len } => {
                    let lim = (*decay_len).min(chunk.len());
                    let list = &self.table.list(r)[..lim];
                    // Truncated tail: the vector fold when the tier and
                    // CPU allow it, the scalar fold otherwise.
                    if !simd::axpy_in_place(&mut chunk[..lim], list, carry) {
                        for (v, &f) in chunk[..lim].iter_mut().zip(list) {
                            *v = v.add(f.mul(carry));
                        }
                    }
                }
                FactorPattern::Dense => {
                    let list = self.table.list(r);
                    debug_assert!(list.len() >= chunk.len());
                    if !simd::axpy_in_place(chunk, list, carry) {
                        for (v, &f) in chunk.iter_mut().zip(list) {
                            *v = v.add(f.mul(carry));
                        }
                    }
                }
            }
        }
    }

    /// Planned equivalent of [`CorrectionTable::fixup_carries`], safe for
    /// truncated physical tables: factor indices beyond the table are
    /// exactly zero and contribute nothing.
    ///
    /// # Panics
    ///
    /// Mirrors the dense fix-up: panics if `chunk_len` is zero or exceeds
    /// the plan chunk size, `local` is longer than `chunk_len`, or
    /// `global_prev` holds more carries than the order.
    pub fn fixup_carries(&self, global_prev: &[T], local: &[T], chunk_len: usize) -> Vec<T> {
        assert!(chunk_len >= 1 && chunk_len <= self.chunk_size && local.len() <= chunk_len);
        assert!(
            global_prev.len() <= self.order(),
            "{} predecessor carries exceed the recurrence order {}",
            global_prev.len(),
            self.order()
        );
        let phys = self.table.len();
        let mut out = Vec::with_capacity(local.len());
        for (s, &l) in local.iter().enumerate() {
            let i = chunk_len - 1 - s;
            let mut acc = l;
            if i < phys {
                for (r, &g) in global_prev.iter().enumerate() {
                    acc = acc.add(self.table.list(r)[i].mul(g));
                }
            }
            out.push(acc);
        }
        out
    }

    /// Planned equivalent of `phase2::propagate_sequential` over chunks of
    /// the plan's chunk size.
    ///
    /// # Panics
    ///
    /// Panics if the plan's chunk size is zero.
    pub fn propagate_sequential(&self, data: &mut [T]) {
        let m = self.chunk_size;
        assert!(m > 0, "cannot propagate with chunk size zero");
        let k = self.order();
        let n = data.len();
        let mut start = m;
        while start < n {
            let end = (start + m).min(n);
            let (prev, rest) = data.split_at_mut(start);
            let carries = carries_of(prev, k);
            self.correct_chunk(&mut rest[..end - start], &carries);
            start += m;
        }
    }

    /// Planned equivalent of `phase2::propagate_decoupled`. Returns
    /// `(hops, resets)`: fix-up hops performed and hops short-circuited
    /// because the predecessor chunk reset the carry chain.
    ///
    /// # Panics
    ///
    /// Panics if the chunk size is zero or smaller than the order.
    pub fn propagate_decoupled(&self, data: &mut [T]) -> (usize, usize) {
        let m = self.chunk_size;
        assert!(m > 0, "cannot propagate with chunk size zero");
        assert!(
            m >= self.order(),
            "decoupled look-back requires chunk size >= order"
        );
        let k = self.order();
        let n = data.len();
        if n <= m {
            return (0, 0);
        }
        let num_chunks = n.div_ceil(m);

        let local_carries: Vec<Vec<T>> = (0..num_chunks)
            .map(|c| {
                let start = c * m;
                let end = (start + m).min(n);
                carries_of(&data[start..end], k)
            })
            .collect();

        let mut hops = 0;
        let mut resets = 0;
        let mut global_carries: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
        global_carries.push(local_carries[0].clone());
        for c in 1..num_chunks {
            let chunk_len = ((c * m + m).min(n)) - c * m;
            // The carries being fixed are chunk c's; the reset predicate
            // therefore keys on chunk c's own length (its tail factors).
            if self.resets_carries(chunk_len) {
                resets += 1;
                global_carries.push(local_carries[c].clone());
            } else {
                hops += 1;
                let fixed =
                    self.fixup_carries(&global_carries[c - 1], &local_carries[c], chunk_len);
                global_carries.push(fixed);
            }
        }

        for c in 1..num_chunks {
            let start = c * m;
            let end = (start + m).min(n);
            self.correct_chunk(&mut data[start..end], &global_carries[c - 1]);
        }
        (hops, resets)
    }
}

/// `true` when the last `k` entries of every factor list are exactly zero
/// — the proof obligation for truncating the table (see module docs).
fn tail_is_dead<T: Element>(table: &CorrectionTable<T>, k: usize) -> bool {
    table.len() > k
        && (0..table.order()).all(|r| {
            let list = table.list(r);
            list[list.len() - k..].iter().all(|f| f.is_zero())
        })
}

/// Collapses per-list strategies into the reported [`PlanKind`].
fn summarize<T: Element>(strategies: &[FactorPattern<T>], tail_zero: bool) -> PlanKind {
    if tail_zero {
        return PlanKind::Truncated;
    }
    let mut kind: Option<PlanKind> = None;
    for s in strategies {
        let k = match s {
            FactorPattern::AllZero => continue,
            FactorPattern::Constant(_) => PlanKind::ScalarFold,
            FactorPattern::ZeroOne(_) => PlanKind::ConditionalAdd,
            FactorPattern::Periodic { .. } => PlanKind::Periodic,
            FactorPattern::DecaysAfter { .. } => PlanKind::Truncated,
            FactorPattern::Dense => PlanKind::Dense,
        };
        kind = match kind {
            None => Some(k),
            Some(prev) if prev == k => Some(k),
            Some(_) => return PlanKind::Mixed,
        };
    }
    kind.unwrap_or(PlanKind::Dense)
}

/// Cache key: exact coefficient bits (via [`Element::key_bits`]) plus every
/// request knob that changes the built plan. The feedforward coefficients
/// are part of the key even though they do not affect the factor table —
/// the plan carries the FIR kernel, so two signatures differing only in
/// feedforward must not share a plan. The effective kernel tier is part
/// of the key for the same reason: the plan bakes in the selected solve
/// kernel, so flipping the `PLR_KERNEL` override must never serve a
/// plan built under a different tier.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    type_id: TypeId,
    feedforward: Vec<u64>,
    feedback: Vec<u64>,
    chunk_size: usize,
    flush: bool,
    full_table: bool,
    mode: PlanMode,
    tier: KernelTier,
}

type CacheMap = HashMap<PlanKey, Arc<dyn Any + Send + Sync>>;

static CACHE: OnceLock<Mutex<CacheMap>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
/// 0 = follow the `PLR_PLAN_CACHE` environment variable, 1 = force on,
/// 2 = force off.
static CACHE_OVERRIDE: AtomicU8 = AtomicU8::new(0);
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

fn cache_enabled() -> bool {
    match CACHE_OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_ENABLED.get_or_init(|| {
            !matches!(
                std::env::var("PLR_PLAN_CACHE").as_deref(),
                Ok("0") | Ok("off") | Ok("OFF") | Ok("false")
            )
        }),
    }
}

/// Programmatically force plan-cache sharing on or off (`None` reverts to
/// the `PLR_PLAN_CACHE` environment default). With the cache off every
/// [`plan_for`] call builds a private plan and counts as a miss.
pub fn set_cache_enabled(enabled: Option<bool>) {
    let v = match enabled {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    };
    CACHE_OVERRIDE.store(v, Ordering::Relaxed);
}

/// Returns (and does not reset) the process-wide cache hit/miss counters.
pub fn cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Number of plans currently cached.
pub fn cache_len() -> usize {
    CACHE
        .get()
        .map_or(0, |m| m.lock().expect("plan cache poisoned").len())
}

/// Drops every cached plan (outstanding `Arc`s stay valid).
pub fn clear_cache() {
    if let Some(m) = CACHE.get() {
        m.lock().expect("plan cache poisoned").clear();
    }
}

/// Fetches (or builds and caches) the plan for a signature. The second
/// element reports whether the plan came from the cache.
pub fn plan_for<T: Element>(
    signature: &Signature<T>,
    req: PlanRequest,
) -> (Arc<CorrectionPlan<T>>, bool) {
    if !cache_enabled() {
        MISSES.fetch_add(1, Ordering::Relaxed);
        return (Arc::new(CorrectionPlan::build(signature, req)), false);
    }
    let key = PlanKey {
        type_id: TypeId::of::<T>(),
        feedforward: signature
            .feedforward()
            .iter()
            .map(|c| c.key_bits())
            .collect(),
        feedback: signature.feedback().iter().map(|c| c.key_bits()).collect(),
        chunk_size: req.chunk_size,
        flush: req.flush,
        full_table: req.full_table,
        mode: req.mode,
        tier: kernel::tier(),
    };
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache
        .lock()
        .expect("plan cache poisoned")
        .get(&key)
        .cloned()
    {
        if let Ok(plan) = hit.downcast::<CorrectionPlan<T>>() {
            HITS.fetch_add(1, Ordering::Relaxed);
            return (plan, true);
        }
    }
    // Build outside the lock: plans can take O(k²·chunk) to generate and a
    // racing builder producing a duplicate is harmless (last insert wins).
    let plan = Arc::new(CorrectionPlan::build(signature, req));
    let mut guard = cache.lock().expect("plan cache poisoned");
    if guard.len() >= CACHE_CAPACITY {
        guard.clear();
    }
    guard.insert(key, plan.clone());
    MISSES.fetch_add(1, Ordering::Relaxed);
    (plan, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial;

    fn sig<T: Element>(text: &str) -> Signature<T> {
        text.parse()
            .unwrap_or_else(|_| panic!("bad signature {text}"))
    }

    fn auto_plan<T: Element>(text: &str, m: usize) -> CorrectionPlan<T> {
        CorrectionPlan::build(&sig::<T>(text), PlanRequest::new::<T>(m))
    }

    #[test]
    fn prefix_sum_folds_to_scalar() {
        let p = auto_plan::<i64>("1:1", 64);
        assert_eq!(p.kind(), PlanKind::ScalarFold);
        assert_eq!(p.correction_taps(), 64);
        assert!(!p.tail_zero());
    }

    #[test]
    fn tuple_prefix_sum_is_conditional_add() {
        let p = auto_plan::<i64>("1:0,1", 64);
        assert_eq!(p.kind(), PlanKind::ConditionalAdd);
    }

    #[test]
    fn alternating_sign_is_periodic() {
        // (1: -1): factors -1, 1, -1, 1, … — periodic, not zero/one.
        let p = auto_plan::<i64>("1:-1", 64);
        assert_eq!(p.kind(), PlanKind::Periodic);
    }

    #[test]
    fn integer_higher_order_prefix_sums_are_polynomial() {
        for text in ["1:2,-1", "1:3,-3,1", "1:4,-6,4,-1"] {
            let p = auto_plan::<i64>(text, 64);
            assert_eq!(p.kind(), PlanKind::Polynomial, "{text}");
            // The table stays full length: the fix-up reads it.
            assert_eq!(p.table().len(), 64);
            assert_eq!(auto_plan::<i32>(text, 64).kind(), PlanKind::Polynomial);
        }
        // Floats, order 5 and whole-row plans keep their kinds.
        assert_eq!(auto_plan::<f64>("1:2,-1", 64).kind(), PlanKind::Dense);
        assert_eq!(
            auto_plan::<i64>("1:5,-10,10,-5,1", 64).kind(),
            PlanKind::Dense
        );
        assert_eq!(auto_plan::<i64>("1:2,-1", 0).kind(), PlanKind::Unplanned);
    }

    /// The entry that corrects one chunk and solves the next equals the
    /// two calls it replaces, for the plans that fuse them (the
    /// polynomial ones under `auto`, with and without a map) and for
    /// those that do not.
    #[test]
    fn correct_map_solve_equals_correct_then_map_solve() {
        let m = 3 * crate::blocked::SOLVE_SLICE + 77;
        for text in [
            "1:2,-1",
            "1:4,-6,4,-1",
            "2,-1:3,-3,1",
            "1:1",
            "1:0,1",
            "3:2,1",
        ] {
            let plan = auto_plan::<i64>(text, m);
            let fused = plan.kind() == PlanKind::Polynomial
                && plan.solve().kind() == kernel::KernelKind::Cascade;
            assert_eq!(plan.fuses_correction(), fused, "{text}");
            let input: Vec<i64> = (0..2 * m as i64).map(|i| (i * 7919) % 1013 - 506).collect();
            let (prev_raw, rest) = input.split_at(m);
            for (len, carries) in [
                (m, [5i64, -9, 4, 1]),
                (m / 3, [0; 4]),
                (m - 1, [-7, 0, 0, 2]),
            ] {
                let carries = &carries[..plan.order()];
                let mut solved = prev_raw.to_vec();
                plan.map_solve_sliced(&mut solved, &[], &mut || true);
                let (mut want_prev, mut want) = (solved.clone(), rest[..len].to_vec());
                plan.correct_chunk(&mut want_prev, carries);
                plan.map_solve_sliced(&mut want, &prev_raw[m - 3..], &mut || true);
                let (mut got_prev, mut got) = (solved, rest[..len].to_vec());
                let out = plan.correct_map_solve_sliced(
                    &mut got_prev,
                    carries,
                    &mut got,
                    &prev_raw[m - 3..],
                    &mut || true,
                );
                assert!(out.completed, "{text}");
                assert!(got_prev == want_prev && got == want, "{text} len={len}");
            }
        }
    }

    #[test]
    fn stable_filter_truncates_f32() {
        let p = auto_plan::<f32>("0.2:0.8", 4096);
        assert_eq!(p.kind(), PlanKind::Truncated);
        assert!(p.is_truncated(), "physical table should be short");
        assert!(p.table().len() < 4096);
        assert!(p.effective_len() < 500);
        assert!(p.correction_taps() < 500);
        assert!(p.resets_carries(4096));
        assert!(!p.resets_carries(p.effective_len()));
    }

    #[test]
    fn stable_filter_truncates_f64_at_large_chunks() {
        // 0.8ⁿ underflows f64 near n ≈ 3540 < 8192.
        let p = auto_plan::<f64>("0.2:0.8", 8192);
        assert_eq!(p.kind(), PlanKind::Truncated);
        assert!(p.is_truncated());
        assert!(p.effective_len() < 4200);
    }

    #[test]
    fn repeated_pole_truncation_is_covered() {
        // Double pole at 0.8: the naive radius-only estimate undershoots;
        // the plan's conservative bound plus zero-tail proof must hold.
        let p = auto_plan::<f32>("1:1.6,-0.64", 4096);
        assert_eq!(p.kind(), PlanKind::Truncated);
        let table = p.table();
        let k = p.order();
        for r in 0..k {
            assert!(table.list(r)[table.len() - k..].iter().all(|&f| f == 0.0));
        }
    }

    #[test]
    fn dense_mode_forces_full_table() {
        let req = PlanRequest {
            mode: PlanMode::Dense,
            ..PlanRequest::new::<f32>(4096)
        };
        let p = CorrectionPlan::build(&sig::<f32>("0.2:0.8"), req);
        assert_eq!(p.kind(), PlanKind::Dense);
        assert!(!p.is_truncated());
        assert_eq!(p.table().len(), 4096);
        assert!(!p.resets_carries(4096));
    }

    #[test]
    fn full_table_request_blocks_truncation() {
        let req = PlanRequest {
            full_table: true,
            ..PlanRequest::new::<f32>(4096)
        };
        let p = CorrectionPlan::build(&sig::<f32>("0.2:0.8"), req);
        assert_eq!(p.table().len(), 4096);
        // Still classified and skippable — just not physically truncated.
        assert_eq!(p.kind(), PlanKind::Truncated);
        assert!(p.tail_zero());
    }

    #[test]
    fn non_converged_analysis_forces_dense() {
        let mut p = auto_plan::<f32>("0.2:0.8", 4096);
        // Simulate an untrusted analysis by rebuilding with the knob the
        // builder keys on: a radius inside the epsilon guard.
        assert!(p.stability().is_some());
        p = CorrectionPlan::build(&sig::<f32>("0.2:0.999999"), PlanRequest::new::<f32>(4096));
        assert!(!p.is_truncated());
    }

    #[test]
    fn planned_corrections_match_dense_for_ints() {
        for text in [
            "1:1",
            "1:0,1",
            "1:-1",
            "1:2,-1",
            "1:0,0,1",
            "1:3,-3,1",
            "1:4,-6,4,-1",
        ] {
            let s = sig::<i64>(text);
            let m = 16;
            let plan = CorrectionPlan::build(&s, PlanRequest::new::<i64>(m));
            let input: Vec<i64> = (0..137)
                .map(|i| ((i * 2654435761u64 % 19) as i64) - 9)
                .collect();
            let expect = serial::run(&s, &input);
            let mut data = input.clone();
            for chunk in data.chunks_mut(m) {
                plan.solve().solve_in_place(chunk);
            }
            let mut seq = data.clone();
            plan.propagate_sequential(&mut seq);
            assert_eq!(seq, expect, "sequential {text}");
            let mut dec = data.clone();
            plan.propagate_decoupled(&mut dec);
            assert_eq!(dec, expect, "decoupled {text}");
        }
    }

    #[test]
    fn truncated_propagation_matches_dense_propagation() {
        let s = sig::<f32>("1:0.8");
        let m = 1024;
        let plan = CorrectionPlan::build(&s, PlanRequest::new::<f32>(m));
        assert!(plan.is_truncated());
        let dense = CorrectionPlan::build(
            &s,
            PlanRequest {
                mode: PlanMode::Dense,
                ..PlanRequest::new::<f32>(m)
            },
        );
        let input: Vec<f32> = (0..5000).map(|i| ((i % 23) as f32) * 0.5 - 5.0).collect();
        let mut a = input.clone();
        let mut b = input.clone();
        for chunk in a.chunks_mut(m) {
            plan.solve().solve_in_place(chunk);
        }
        b.copy_from_slice(&a);
        let (hops, resets) = plan.propagate_decoupled(&mut a);
        dense.propagate_sequential(&mut b);
        assert!(resets > 0, "full-size chunks must reset the carry chain");
        assert!(hops <= 1, "only the ragged tail may hop, got {hops}");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(x.approx_eq(*y, 1e-5), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn fixup_handles_truncated_tables() {
        let s = sig::<f32>("1:0.8");
        let plan = CorrectionPlan::build(&s, PlanRequest::new::<f32>(2048));
        assert!(plan.is_truncated());
        // Far past the decay: global carries equal locals.
        let fixed = plan.fixup_carries(&[123.0], &[7.5], 2048);
        assert_eq!(fixed, vec![7.5]);
        // Inside the decay the factor still applies, matching the table.
        let i = 2; // factor 0.8³ at index 2
        let fixed = plan.fixup_carries(&[1.0], &[0.0], i + 1);
        assert!(fixed[0].approx_eq(plan.table().list(0)[i], 1e-6));
    }

    #[test]
    fn cache_shares_and_keys_on_feedforward() {
        clear_cache();
        set_cache_enabled(Some(true));
        let a = sig::<f32>("1:0.8");
        let b = sig::<f32>("0.2:0.8"); // same feedback, different FIR
        let req = PlanRequest::new::<f32>(1024);
        let (p1, hit1) = plan_for(&a, req);
        let (p2, hit2) = plan_for(&a, req);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&p1, &p2));
        let (p3, hit3) = plan_for(&b, req);
        assert!(!hit3, "feedforward must be part of the cache key");
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(p3.fir(), &[0.2f32]);
        // Different chunk size → different plan.
        let (p4, hit4) = plan_for(&a, PlanRequest::new::<f32>(2048));
        assert!(!hit4);
        assert_eq!(p4.chunk_size(), 2048);
        set_cache_enabled(None);
    }

    #[test]
    fn cache_disable_builds_private_plans() {
        set_cache_enabled(Some(false));
        let s = sig::<i32>("1:1");
        let (p1, h1) = plan_for(&s, PlanRequest::new::<i32>(64));
        let (p2, h2) = plan_for(&s, PlanRequest::new::<i32>(64));
        assert!(!h1 && !h2);
        assert!(!Arc::ptr_eq(&p1, &p2));
        set_cache_enabled(None);
    }

    #[test]
    fn zero_chunk_plan_for_whole_row_dispatch() {
        let s = sig::<f64>("0.2:0.8");
        let p = CorrectionPlan::build(&s, PlanRequest::new::<f64>(0));
        assert_eq!(p.chunk_size(), 0);
        assert_eq!(p.fir(), &[0.2f64]);
        assert_eq!(p.table().len(), 0);
        assert_eq!(p.kind(), PlanKind::Unplanned);
    }
}
