//! What one pass over a workload measures, and the helpers the workloads
//! share to measure it the same way.

use crate::host::process_cpu_ms;
use crate::metrics::Layers;
use crate::probes::ProbeInput;
use crate::trace::Tracer;
use smart_core::RunStats;
use std::time::{Duration, Instant};

/// Warm-up steps before timing starts: shell allocation, lazy connects.
/// They count toward set-up time.
pub const WARMUP_STEPS: usize = 5;

/// Every how many steps a `reset()` workload keeps a copy of its output for
/// the check that runs after the timed region.
pub const SAMPLE_EVERY: usize = 16;

/// Settings of one pass.
pub struct Pass<'a> {
    pub seed: u64,
    /// Length of the timed region; 0 runs set-up and warm-up only.
    pub seconds: f64,
    /// Tiny sizes, for `--smoke`.
    pub smoke: bool,
    /// `Some` on the traced pass.
    pub tracer: Option<&'a Tracer>,
}

/// Everything one pass measured.
#[derive(Default)]
pub struct Outcome {
    /// Data generation + construction + warm-up, before timing starts.
    pub setup_s: f64,
    /// Simulation-visible time of each timed step, in milliseconds.
    pub step_ms: Vec<f64>,
    /// First timed step to last result available (includes the drain of a
    /// ring or stream).
    pub wall_s: f64,
    pub elems_per_step: u64,
    /// Process user + system CPU over the timed region.
    pub cpu_ms: f64,
    /// Peak heap since the inputs were generated, minus the heap then.
    pub peak_extra_bytes: u64,
    /// Steps that returned an error or failed their check.
    pub failed: u64,
    /// Why steps failed, and invariants that did not hold.
    pub problems: Vec<String>,
    /// Per-layer values this workload can give (traced pass).
    pub layers: Layers,
    /// Bytes of the input ring.
    pub ring_bytes: u64,
    /// Size constants, for the results file.
    pub sizes: Vec<(&'static str, u64)>,
    /// What the layer probes should replay (traced pass).
    pub probe: Option<ProbeInput>,
}

impl Outcome {
    /// Bytes of one step's input.
    pub fn step_bytes(&self) -> u64 {
        self.elems_per_step * std::mem::size_of::<f64>() as u64
    }

    /// An outcome with the sizes filled in and room for the step samples, so
    /// that recording them allocates nothing after the heap baseline.
    /// `elems_per_step` doubles of input a step, `ring_bytes` in all.
    pub fn sized(elems_per_step: usize, ring_bytes: u64, sizes: &[(&'static str, usize)]) -> Self {
        Outcome {
            step_ms: Vec::with_capacity(1 << 16),
            elems_per_step: elems_per_step as u64,
            ring_bytes,
            sizes: sizes.iter().map(|&(k, v)| (k, v as u64)).collect(),
            ..Outcome::default()
        }
    }

    /// One step returned an error or failed its check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// An invariant of the workload: a violation fails the whole run.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            let steps = self.step_ms.len().max(1) as u64;
            self.failed = steps;
            self.problems.push(what());
        }
    }
}

/// Heap baseline of a pass: taken once the inputs (and the harness's own
/// buffers) exist and before any library object does, so everything the
/// analytics keep — shells, staging buffers, outputs — counts as extra.
pub struct HeapBase(usize);

impl HeapBase {
    pub fn take() -> Self {
        smart_memtrack::reset_peak();
        HeapBase(smart_memtrack::current_bytes())
    }

    pub fn peak_extra(&self) -> u64 {
        smart_memtrack::peak_bytes().saturating_sub(self.0) as u64
    }
}

/// The timed region of a pass: the clock that ends it, process CPU and the
/// allocation counters. The thread that runs the steps owns it.
pub struct Region {
    started: Instant,
    deadline: Instant,
    cpu0_ms: f64,
    alloc_calls0: usize,
    alloc_bytes0: usize,
}

impl Region {
    /// A region of `seconds`; with 0 it is closed from the start.
    pub fn begin(seconds: f64) -> Self {
        let started = Instant::now();
        Region {
            started,
            deadline: started + Duration::from_secs_f64(seconds),
            cpu0_ms: process_cpu_ms(),
            alloc_calls0: smart_memtrack::alloc_calls(),
            alloc_bytes0: smart_memtrack::total_allocated_bytes(),
        }
    }

    /// Whether another step should start.
    pub fn open(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Close the region now — after the last result became available — and
    /// fill the outcome's region-wide numbers.
    pub fn end(self, outcome: &mut Outcome) {
        outcome.wall_s = self.started.elapsed().as_secs_f64();
        outcome.cpu_ms = process_cpu_ms() - self.cpu0_ms;
        let steps = outcome.step_ms.len().max(1) as f64;
        let calls = smart_memtrack::alloc_calls() - self.alloc_calls0;
        let bytes = smart_memtrack::total_allocated_bytes() - self.alloc_bytes0;
        outcome.layers.set("mem.alloc_calls_per_step", calls as f64 / steps);
        outcome.layers.set("mem.alloc_mib_per_step", bytes as f64 / MIB / steps);
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f` as one simulation-visible step: a driver span on the traced
/// pass, a bare timer otherwise. Returns the result, the duration and the
/// span's index.
pub fn timed_step<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    lane: u32,
    step: u64,
    f: impl FnOnce() -> R,
) -> (R, Duration, Option<usize>) {
    match tracer {
        Some(tracer) => {
            let (result, dur, index) = tracer.driver_span(name, lane, step, f);
            (result, dur, Some(index))
        }
        None => {
            let started = Instant::now();
            let result = f();
            (result, started.elapsed(), None)
        }
    }
}

/// Per-layer metrics out of the phase totals the library reports, as means
/// per step. `elems` is the input elements of one step.
pub fn layers_from_stats(stats: &RunStats, steps: usize, elems: u64) -> Layers {
    let per_step = |d: Duration| ms(d) / steps.max(1) as f64;
    let count_per_step = |n: u64| n as f64 / steps.max(1) as f64;
    let split_sum: Duration = stats.split_busy.iter().sum();
    let mut layers = Layers::default();
    layers.set("stage.copy_ms", per_step(stats.stage_busy));
    layers.set("stage.bytes", count_per_step(stats.staged_bytes));
    layers.set("reduce.split_max_ms", per_step(stats.max_split_busy()));
    layers.set("reduce.split_sum_ms", per_step(split_sum));
    if !split_sum.is_zero() {
        let mean = split_sum.as_secs_f64() / stats.split_busy.len() as f64;
        layers.set("reduce.imbalance", stats.max_split_busy().as_secs_f64() / mean);
        layers.set(
            "reduce.ns_per_elem",
            split_sum.as_secs_f64() * 1e9 / (elems as f64 * steps.max(1) as f64),
        );
    }
    layers.set("combine.local_merge_ms", per_step(stats.local_merge_busy));
    layers.set("combine.global_ms", per_step(stats.global_comm_busy));
    layers.set("combine.iter_ms", per_step(stats.combine_busy));
    layers.set("combine.payload_bytes", count_per_step(stats.global_bytes));
    layers.set("combine.wire_bytes", count_per_step(stats.comm_bytes));
    layers.set("spill.runs_per_step", count_per_step(stats.spill_runs as u64));
    layers.set("spill.bytes_per_step", count_per_step(stats.spill_bytes));
    layers.set("spill.write_busy_ms", per_step(stats.spill_busy));
    layers
}

/// Keeps a copy of every [`SAMPLE_EVERY`]-th step's output in a fixed set of
/// buffers allocated up front, so the check can run after the timed region
/// without the copies showing in the heap peak.
pub struct OutputSamples<T> {
    /// `(ring slot the step read, its output)`; slot `usize::MAX` = unused.
    kept: Vec<(usize, Vec<T>)>,
    next: usize,
}

impl<T: Clone> OutputSamples<T> {
    pub fn new(buffers: usize, like: &[T]) -> Self {
        OutputSamples { kept: vec![(usize::MAX, like.to_vec()); buffers], next: 0 }
    }

    /// Offer step `step`'s output; it is kept if the step is a sampled one.
    pub fn offer(&mut self, step: usize, slot: usize, out: &[T]) {
        if step.is_multiple_of(SAMPLE_EVERY) {
            let n = self.kept.len();
            let (kept_slot, kept) = &mut self.kept[self.next % n];
            *kept_slot = slot;
            kept.clone_from_slice(out);
            self.next += 1;
        }
    }

    /// The kept samples, oldest overwritten first.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[T])> {
        self.kept.iter().filter(|(slot, _)| *slot != usize::MAX).map(|(s, o)| (*s, o.as_slice()))
    }
}
