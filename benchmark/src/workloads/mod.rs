//! The eight workloads. Each drives real public entry points of the library
//! from outside in a closed loop: the simulation thread issues step `i + 1`
//! only after step `i`'s call returned, which is how a simulation waits for
//! its output buffer. Sizes are committed constants, never adapted at run
//! time; the timed region runs for the requested seconds.

mod dist;
mod serve;
mod space;
mod time_sharing;
mod transit;

use crate::measure::{timed_step, Outcome, Pass};
use crate::probes::PROBE_KEYS;
use crate::trace::{SpanObserver, Tracer};
use smart_comm::Communicator;
use smart_core::{Analytics, Scheduler, StepSpec};
use smart_pool::SharedPool;
use std::time::Duration;

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload stresses.
    pub why: &'static str,
    /// The driver-side call that is one simulation-visible step; also the
    /// name of its span in the trace.
    pub step_call: &'static str,
    /// The driver-side call whose child spans break a step down into layers.
    /// It is the step itself except in space sharing, where the work happens
    /// on the analytics thread while the simulation waits in `feed`.
    pub breakdown_call: &'static str,
    pub run: fn(&Pass) -> Outcome,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ts_hist",
        why: "time sharing, zero-copy histogram: bound by the reduce kernel, bypasses combine, comm and disk",
        step_call: "execute",
        breakdown_call: "execute",
        run: time_sharing::ts_hist,
    },
    Workload {
        name: "ts_kmeans",
        why: "time sharing, k-means with 8 iterations a step: per-iteration fixed costs paid 8 times over a tiny map",
        step_call: "execute",
        breakdown_call: "execute",
        run: time_sharing::ts_kmeans,
    },
    Workload {
        name: "dist_mi",
        why: "2 ranks in process, 65536-cell joint histogram: bound by hashed upserts, wire encode and the sharded allreduce",
        step_call: "execute",
        breakdown_call: "execute",
        run: dist::dist_mi,
    },
    Workload {
        name: "space_window",
        why: "space sharing, moving average with early emission: multi-key churn, feed blocks on a full ring",
        step_call: "feed",
        breakdown_call: "run2_step",
        run: space::space_window,
    },
    Workload {
        name: "transit_tcp",
        why: "in transit over TCP loopback: bound by step serialisation, framing, socket copies and stager decode",
        step_call: "Producer::feed",
        breakdown_call: "Producer::feed",
        run: transit::transit_tcp,
    },
    Workload {
        name: "spill_idle",
        why: "spill budget set but never exceeded: must write no run, shows what an idle budget costs",
        step_call: "execute",
        breakdown_call: "execute",
        run: time_sharing::spill_idle,
    },
    Workload {
        name: "spill_tight",
        why: "spill budget an eighth of the map: every step writes sorted runs and merges them with the prior run",
        step_call: "execute",
        breakdown_call: "execute",
        run: time_sharing::spill_tight,
    },
    Workload {
        name: "serve_fanout",
        why: "serve tier, 4 jobs on one stream: stage-once shared scan, coalescing, per-job fixed cost",
        step_call: "ServeDriver::step",
        breakdown_call: "ServeDriver::step",
        run: serve::serve_fanout,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A scheduler the caller built, driven one `execute` at a time from the
/// simulation thread of a time-sharing rank.
struct Driver<'a, A: Analytics<In = f64>> {
    /// `Some` on the traced pass.
    tracer: Option<&'a Tracer>,
    observer: Option<SpanObserver<'a>>,
    lane: u32,
    ring: &'a [Vec<f64>],
    sched: &'a mut Scheduler<A>,
    out: &'a mut [A::Out],
    /// Clear the analytics state before every step. It is part of the step:
    /// the simulation thread pays it.
    reset: bool,
    /// `Some` makes every step combine globally across the ranks.
    comm: Option<&'a mut Communicator>,
}

impl<'a, A: Analytics<In = f64>> Driver<'a, A> {
    fn new(
        tracer: Option<&'a Tracer>,
        lane: u32,
        ring: &'a [Vec<f64>],
        sched: &'a mut Scheduler<A>,
        out: &'a mut [A::Out],
        reset: bool,
        comm: Option<&'a mut Communicator>,
    ) -> Self {
        let observer = tracer.map(SpanObserver::new);
        Driver { tracer, observer, lane, ring, sched, out, reset, comm }
    }

    /// Run step `step` on its ring slot. With stats collection off the
    /// library takes its `NoopObserver` path; the traced pass hands it a
    /// `SpanObserver` instead.
    fn step(&mut self, step: usize) -> (Duration, Result<(), String>) {
        let parts = [(0usize, self.ring[step % self.ring.len()].as_slice())];
        if let Some(obs) = self.observer.as_mut() {
            obs.begin_step(step as u64);
        }
        let Driver { sched, out, observer, comm, .. } = self;
        let reset = self.reset;
        let (result, took, span) =
            timed_step(self.tracer, "execute", self.lane, step as u64, || {
                if reset {
                    sched.reset();
                }
                let spec = StepSpec::new(&parts).with_comm(comm.as_deref_mut());
                match observer.as_mut() {
                    Some(obs) => sched.execute_with(spec, out, obs),
                    None => sched.execute(spec, out),
                }
            });
        if let (Some(obs), Some(span)) = (self.observer.as_mut(), span) {
            obs.end_step(span);
        }
        (took, result.map_err(|e| format!("step {step}: {e}")))
    }

    /// Forget the phases seen so far: warm-up is set-up and does not belong
    /// in the per-step means.
    fn forget_warmup(&mut self) {
        if let Some(obs) = self.observer.as_mut() {
            obs.stats = Default::default();
        }
    }
}

/// A pool of `threads` workers, worker `w` pinned to CPU `first_cpu + w` as
/// the paper pins its analytics threads (see [`crate::pin`]).
fn pinned_pool(threads: usize, first_cpu: usize) -> SharedPool {
    let pool = smart_pool::shared_pool(threads).expect("a pool needs one thread at least");
    crate::pin::pin_workers(&pool, first_cpu);
    pool
}

/// The histogram keys of the first [`PROBE_KEYS`] elements of `data`: the
/// key stream the workload's reduction maps see.
fn histogram_keys(app: &smart_analytics::Histogram, data: &[f64]) -> Vec<i64> {
    data.iter().take(PROBE_KEYS).map(|&v| app.bucket_of(v) as i64).collect()
}

/// `full` on a measured run, `smoke` under `--smoke`.
fn pick(pass: &Pass, full: usize, smoke: usize) -> usize {
    if pass.smoke {
        smoke
    } else {
        full
    }
}

/// How many of `total` steps, cycling a ring of `slots`, read slot `slot`.
fn uses(total: usize, slots: usize, slot: usize) -> u64 {
    (total / slots + usize::from(slot < total % slots)) as u64
}

/// Counts summed over every step: `per_slot[s]` once per step that read `s`.
fn accumulate_counts(per_slot: &[Vec<u64>], total_steps: usize) -> Vec<u64> {
    let mut sum = vec![0u64; per_slot[0].len()];
    for (slot, counts) in per_slot.iter().enumerate() {
        let times = uses(total_steps, per_slot.len(), slot);
        for (acc, &c) in sum.iter_mut().zip(counts) {
            *acc += c * times;
        }
    }
    sum
}

/// Dense counts from a canonical map's `(key, count)` entries; `None` when a
/// key falls outside `0..len`.
fn dense_counts(entries: impl Iterator<Item = (i64, u64)>, len: usize) -> Option<Vec<u64>> {
    let mut counts = vec![0u64; len];
    for (key, count) in entries {
        *counts.get_mut(usize::try_from(key).ok()?)? = count;
    }
    Some(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_slot_use_counts_add_up() {
        assert_eq!((0..4).map(|s| uses(10, 4, s)).collect::<Vec<_>>(), [3, 3, 2, 2]);
        assert_eq!(accumulate_counts(&[vec![1, 0], vec![0, 2]], 3), [2, 2]);
    }

    #[test]
    fn dense_counts_reject_keys_out_of_range() {
        assert_eq!(dense_counts([(2, 7), (0, 1)].into_iter(), 3), Some(vec![1, 0, 7]));
        assert_eq!(dense_counts([(3, 1)].into_iter(), 3), None);
        assert_eq!(dense_counts([(-1, 1)].into_iter(), 3), None);
    }

    #[test]
    fn workload_names_are_valid_and_whys_fit_one_line() {
        for w in WORKLOADS {
            assert!(crate::metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(WORKLOADS.len(), 8);
    }
}
