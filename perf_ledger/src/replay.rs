//! Single-thread chunked replays of each runner's pipeline, built only from
//! the public per-chunk calls (`fir_in_place`, `SolveKernel`,
//! `CorrectionPlan::{correct_chunk, fixup_carries}` and their segmented and
//! time-varying counterparts). A replay does the same per-chunk work as a
//! run, in chunk order, with every carry resolved one hop back (the
//! two-pass chain), so its time is the serial cost of the pipeline and its
//! per-stage times are the kernel layer's in-situ costs.

use crate::trace::Tracer;
use plr_core::blocked::fir_in_place;
use plr_core::element::Element;
use plr_core::nacci::carries_of;
use plr_core::plan::CorrectionPlan;
use plr_core::segmented::{all_zero, SegmentedPlan};
use plr_core::varying::VaryingPlan;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Fir,
    Scan,
    Solve,
    Fixup,
    Correct,
}

impl Stage {
    fn span_name(self) -> &'static str {
        match self {
            Stage::Fir => "kernel.fir",
            Stage::Scan => "kernel.scan",
            Stage::Solve => "kernel.solve",
            Stage::Fixup => "kernel.fixup",
            Stage::Correct => "kernel.correct",
        }
    }
}

/// What one replay did: per stage, nanoseconds (zero unless timed), calls
/// and elements processed; and the data words its kernel calls read plus
/// wrote — the *computed* traffic, which ignores caches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    pub nanos: [u64; 5],
    pub calls: [u64; 5],
    pub elems: [u64; 5],
    pub words: f64,
    pub chunks: u64,
}

impl Replay {
    pub fn nanos(&self, s: Stage) -> u64 {
        self.nanos[s as usize]
    }

    pub fn calls(&self, s: Stage) -> u64 {
        self.calls[s as usize]
    }

    pub fn elems(&self, s: Stage) -> u64 {
        self.elems[s as usize]
    }
}

/// Times each stage call when `timed`, and records it as a span when a
/// tracer is attached. Untimed replays call the kernels back to back so the
/// whole-replay time carries no clock overhead.
pub struct Clock<'a> {
    timed: bool,
    tracer: Option<(&'a mut Tracer, u64, u64)>,
    pub out: Replay,
}

impl<'a> Clock<'a> {
    pub fn untimed() -> Self {
        Clock {
            timed: false,
            tracer: None,
            out: Replay::default(),
        }
    }

    pub fn timed(tracer: Option<(&'a mut Tracer, u64, u64)>) -> Self {
        Clock {
            timed: true,
            tracer,
            out: Replay::default(),
        }
    }

    /// One kernel call over `elems` elements, each moving `words` words.
    fn stage<R>(
        &mut self,
        s: Stage,
        chunk: usize,
        elems: usize,
        words: f64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.out.calls[s as usize] += 1;
        self.out.elems[s as usize] += elems as u64;
        self.out.words += words * elems as f64;
        if !self.timed {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.out.nanos[s as usize] += (end - start).as_nanos() as u64;
        if let Some((tracer, req, parent)) = self.tracer.as_mut() {
            let id = tracer.record(s.span_name(), *req, Some(*parent), start, end);
            tracer.args(id, &[("chunk", chunk as f64)]);
        }
        r
    }
}

/// Elements a planned correction of a `len`-element prefix touches.
fn correct_touch<T: Element>(plan: &CorrectionPlan<T>, len: usize) -> usize {
    if plan.tail_zero() {
        plan.effective_len().min(len)
    } else {
        len
    }
}

/// The constant-coefficient pipeline of `ParallelRunner`.
pub fn constant<T: Element>(plan: &CorrectionPlan<T>, data: &mut [T], clock: &mut Clock<'_>) {
    let m = plan.chunk_size();
    let k = plan.order();
    let n = data.len();
    let pure = plan.signature().is_pure_feedback();
    let taps = plan.fir().len();
    let mut stash: Vec<T> = Vec::new();
    let mut global: Vec<T> = Vec::new();
    for (c, chunk) in data.chunks_mut(m).enumerate() {
        let start = c * m;
        let len = chunk.len();
        if !pure {
            // The next chunk's FIR reads these originals across its left
            // boundary after this chunk has been overwritten.
            let next = chunk[len.saturating_sub(taps.saturating_sub(1))..].to_vec();
            clock.stage(Stage::Fir, c, len, 2.0, || {
                fir_in_place(plan.fir(), &stash, start, chunk)
            });
            stash = next;
        }
        clock.stage(Stage::Solve, c, len, 2.0, || {
            plan.solve().solve_in_place_sliced(chunk, &mut || true)
        });
        let local = carries_of(chunk, k);
        global = if c == 0 {
            local
        } else {
            let touched = correct_touch(plan, len);
            clock.stage(Stage::Correct, c, touched, 2.0, || {
                plan.correct_chunk(chunk, &global)
            });
            if plan.resets_carries(len) {
                local
            } else {
                clock.stage(Stage::Fixup, c, 0, 0.0, || {
                    plan.fixup_carries(&global, &local, len)
                })
            }
        };
    }
    clock.out.chunks += n.div_ceil(m) as u64;
}

/// The reset-aware, sparse-skipping pipeline of `SegmentedRunner`.
pub fn segmented<T: Element>(plan: &SegmentedPlan<T>, data: &mut [T], clock: &mut Clock<'_>) {
    let cp = plan.correction();
    let m = plan.chunk_size();
    let k = plan.order();
    let map = plan.map();
    let pure = plan.is_pure_feedback();
    let boundaries = plan.stash_boundaries(data);
    let mut global: Vec<T> = Vec::new();
    for (c, chunk) in data.chunks_mut(m).enumerate() {
        let len = chunk.len();
        if !pure {
            clock.stage(Stage::Fir, c, len, 2.0, || {
                plan.fir_chunk(chunk, c, &boundaries)
            });
        }
        let skip = plan.sparse() && clock.stage(Stage::Scan, c, len, 1.0, || all_zero(chunk));
        if !skip {
            clock.stage(Stage::Solve, c, len, 2.0, || {
                plan.solve_chunk(chunk, c, &mut || true)
            });
        }
        // Carries come from the pre-correction locals, as in the chain.
        let next = if map.has_resets(c) {
            carries_of(&chunk[map.global_tail_start(c)..], k)
        } else if c == 0 {
            carries_of(chunk, k)
        } else {
            let local = carries_of(chunk, k);
            if cp.resets_carries(len) {
                local
            } else {
                clock.stage(Stage::Fixup, c, 0, 0.0, || {
                    cp.fixup_carries(&global, &local, len)
                })
            }
        };
        let limit = map.correct_limit(c, len);
        if c > 0 && limit > 0 {
            let touched = correct_touch(cp, limit);
            clock.stage(Stage::Correct, c, touched, 2.0, || {
                cp.correct_chunk(&mut chunk[..limit], &global)
            });
        }
        global = next;
    }
    clock.out.chunks += plan.num_chunks() as u64;
}

/// The matrix-carry pipeline of `VaryingRunner` (decoupled form: every
/// chunk solves from zero state, then is corrected).
pub fn varying<T: Element>(plan: &VaryingPlan<T>, data: &mut [T], clock: &mut Clock<'_>) {
    let m = plan.chunk_size();
    // Each pass reads the data and k coefficients per element, writes data.
    let per_elem = 2.0 + plan.order() as f64;
    let mut global: Vec<T> = Vec::new();
    for (c, chunk) in data.chunks_mut(m).enumerate() {
        let len = chunk.len();
        let local = clock
            .stage(Stage::Solve, c, len, per_elem, || {
                plan.solve_chunk(c, None, chunk, &mut || true)
            })
            .state;
        global = if c == 0 {
            local
        } else {
            clock.stage(Stage::Correct, c, len, per_elem, || {
                plan.correct_chunk(c, &global, chunk)
            });
            clock.stage(Stage::Fixup, c, 0, 0.0, || {
                plan.fixup_state(c, &global, &local)
            })
        };
    }
    clock.out.chunks += plan.num_chunks() as u64;
}

/// One whole row as the service's `RowTask` runs it: FIR map (when the
/// signature has one), then the sliced local solve.
pub fn row<T: Element>(plan: &CorrectionPlan<T>, row: &mut [T], clock: &mut Clock<'_>) {
    let len = row.len();
    if !plan.signature().is_pure_feedback() {
        clock.stage(Stage::Fir, 0, len, 2.0, || {
            fir_in_place(plan.fir(), &[], 0, row)
        });
    }
    clock.stage(Stage::Solve, 0, len, 2.0, || {
        plan.solve().solve_in_place_sliced(row, &mut || true)
    });
    clock.out.chunks += 1;
}
