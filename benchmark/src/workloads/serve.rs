//! `serve_fanout`: the serve tier. One `ServeDriver` fans every step out to
//! four jobs on one stream — two coalesced histograms, moments and a grid
//! mean — over one staged copy, on a pool of two.

use super::{accumulate_counts, histogram_keys, pick, pinned_pool, uses};
use crate::gen;
use crate::measure::{
    layers_from_stats, ms, timed_step, HeapBase, Outcome, Pass, Region, MIB, SAMPLE_EVERY,
    WARMUP_STEPS,
};
use crate::pin::Pinned;
use crate::probes::ProbeInput;
use crate::reference;
use crate::trace::{Phase, SIM_LANE};
use smart_analytics::{GridAggregation, Histogram, Moments, MomentsObj};
use smart_core::{RunStats, SchedArgs};
use smart_serve::{
    CoalesceKey, JobEvent, JobHandle, JobSpec, JobStepResult, Registry, RegistryConfig,
    ServeDriver, TenantQuota,
};
use std::time::{Duration, Instant};

const THREADS: usize = 2;
const BUCKETS: usize = 256;
const RANGE: (f64, f64) = (0.0, 100.0);
const GRID_CELL: usize = 1024;
const TENANT: &str = "bench";
/// Two coalesced histograms, moments, grid mean.
const JOBS: usize = 4;

/// The subscriber side of one job: drains its events after every step, keeps
/// the latest result, and for the grid job every [`SAMPLE_EVERY`]-th output.
struct Subscriber {
    handle: JobHandle,
    last: Option<JobStepResult>,
    /// `(ring slot, wire bytes of out)` of sampled steps.
    sampled: Vec<(usize, Vec<u8>)>,
    keep_samples: bool,
}

impl Subscriber {
    fn drain(&mut self, slots: usize, errors: &mut Vec<String>) {
        while let Some(event) = self.handle.try_event() {
            match event {
                JobEvent::Step(result) => {
                    let keep = self.keep_samples
                        && result.step >= WARMUP_STEPS
                        && result.step % SAMPLE_EVERY == 0
                        && self.sampled.len() < self.sampled.capacity();
                    if keep {
                        self.sampled.push((result.step % slots, result.out.clone()));
                    }
                    self.last = Some(result);
                }
                JobEvent::Done { .. } => {}
                JobEvent::Failed(e) => errors.push(format!("job {}: {e}", self.handle.id())),
            }
        }
    }
}

pub fn serve_fanout(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    // The thread that calls `ServeDriver::step` on CPU 0, worker `w` on CPU `w`.
    let _sim_cpu = Pinned::to(0);
    let n = pick(pass, 1 << 20, 1 << 13);
    let slots = pick(pass, 64, 2);
    // Positive values: the moments' power sums then never cancel, so the
    // relative tolerance of the check means what it says.
    let ring = gen::big_ring(pass.seed, slots, 8, n, |rng, buf| {
        buf.iter_mut().for_each(|v| *v = 100.0 * rng.uniform());
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[
            ("elements", n),
            ("ring_slots", slots),
            ("jobs", JOBS),
            ("histogram_buckets", BUCKETS),
            ("grid_cell", GRID_CELL),
            ("threads", THREADS),
        ],
    );
    let heap = HeapBase::take();

    let registry: Registry<f64> = Registry::new(RegistryConfig { max_active: 8 });
    registry.add_tenant(TENANT, TenantQuota::unlimited());
    let key = CoalesceKey::new("histogram", "0:100:256");
    let histogram = || {
        JobSpec::new(Histogram::new(RANGE.0, RANGE.1, BUCKETS), SchedArgs::new(THREADS, 1), BUCKETS)
            .with_coalesce(key.clone())
    };
    let specs = [
        histogram(),
        histogram(),
        JobSpec::new(Moments, SchedArgs::new(THREADS, 1), 0),
        JobSpec::new(
            GridAggregation::new(GRID_CELL, n),
            SchedArgs::new(THREADS, 1),
            n.div_ceil(GRID_CELL),
        ),
    ];
    let mut subscribers: Vec<Subscriber> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.into_iter().enumerate() {
        match registry.submit(spec.with_tenant(TENANT)) {
            Ok(handle) => subscribers.push(Subscriber {
                handle,
                last: None,
                sampled: Vec::with_capacity(8),
                keep_samples: i == 3,
            }),
            Err(e) => {
                outcome.require(false, || format!("job {i} was not admitted: {e}"));
                return outcome;
            }
        }
    }
    let pool = pinned_pool(THREADS, 0);
    let mut driver = ServeDriver::new(registry, pool);
    driver.set_collect_stats(pass.tracer.is_some());

    let mut errors = Vec::new();
    let mut step = 0usize;
    // The driver's statistics are running totals; a step's share is what
    // they grew by: `(stage busy, job busy)` as of the previous step.
    let mut seen = (Duration::ZERO, Duration::ZERO);
    let mut serve_step = |step: usize, driver: &mut ServeDriver<f64>, errors: &mut Vec<String>| {
        let parts = [(0usize, ring[step % slots].as_slice())];
        let (result, took, span) =
            timed_step(pass.tracer, "ServeDriver::step", SIM_LANE, step as u64, || {
                driver.step(&parts, None)
            });
        if let Err(e) = result {
            errors.push(format!("step {step}: {e}"));
        }
        if let (Some(tracer), Some(span)) = (pass.tracer, span) {
            let now = (driver.stats().stage_busy, job_busy(driver.stats()));
            tracer.synthetic_children(
                span,
                step as u64,
                &[
                    Phase::after("stage", "core.stage", SIM_LANE, now.0 - seen.0),
                    // Jobs run one after another on the calling thread.
                    Phase::after("jobs", "serve", SIM_LANE, now.1 - seen.1),
                ],
            );
            seen = now;
        }
        took
    };
    for _ in 0..WARMUP_STEPS {
        serve_step(step, &mut driver, &mut errors);
        subscribers.iter_mut().for_each(|s| s.drain(slots, &mut errors));
        step += 1;
    }
    outcome.setup_s = setup_started.elapsed().as_secs_f64();

    let region = Region::begin(pass.seconds);
    while region.open() {
        let took = serve_step(step, &mut driver, &mut errors);
        outcome.step_ms.push(ms(took));
        // Results are available once the step returns; reading them is the
        // subscribers' business and not part of the step.
        subscribers.iter_mut().for_each(|s| s.drain(slots, &mut errors));
        step += 1;
    }
    region.end(&mut outcome);
    let total_steps = step;
    // Read before `finish` retires the jobs and their maps with them.
    let retained_bytes = smart_memtrack::retained_map_bytes();
    let stats = driver.finish();
    subscribers.iter_mut().for_each(|s| s.drain(slots, &mut errors));
    outcome.peak_extra_bytes = heap.peak_extra();
    for e in errors {
        outcome.fail(e);
    }

    check_results(&subscribers, &ring, total_steps, &mut outcome);

    let steps = outcome.step_ms.len();
    if pass.tracer.is_some() && steps > 0 {
        // The driver's totals cover warm-up too: means are over every step.
        let all = total_steps as f64;
        outcome.layers.extend(layers_from_stats(&stats, total_steps, (JOBS * n) as u64));
        let staged = stats.staged_bytes as f64 / all;
        let job_ms = ms(job_busy(&stats)) / all;
        let result_bytes: u64 = stats.jobs.iter().map(|lane| lane.result_bytes).sum();
        outcome.layers.set("serve.staged_bytes_per_step", staged);
        outcome.layers.set("serve.job_busy_ms", job_ms);
        outcome.layers.set("serve.result_bytes_per_step", result_bytes as f64 / all);
        let step_mean = outcome.step_ms.iter().sum::<f64>() / steps as f64;
        outcome.layers.set("serve.overhead_ms", step_mean - ms(stats.stage_busy) / all - job_ms);
        // One staged copy a step, however many jobs read it.
        let one_step = outcome.step_bytes() as f64;
        outcome.require(staged == one_step, || {
            format!("staged {staged} bytes a step with {JOBS} jobs, expected one step's {one_step}")
        });
    }
    outcome.layers.set("redmap.retained_mib", retained_bytes as f64 / MIB);
    // Four maps of three kinds: the probes replay the histograms' keys.
    let keys = histogram_keys(&Histogram::new(RANGE.0, RANGE.1, BUCKETS), &ring[0]);
    let counts: Vec<(i64, u64)> = (0..BUCKETS as i64).map(|k| (k, 1)).collect();
    outcome.probe = Some(ProbeInput::new(THREADS, &counts, keys, BUCKETS, &ring[0]));
    outcome
}

/// Busy time of every job lane together.
fn job_busy(stats: &RunStats) -> Duration {
    stats.jobs.iter().map(|lane| lane.busy).sum()
}

/// Check every job's last result, and the grid job's sampled outputs,
/// against the sequential references.
fn check_results(
    subscribers: &[Subscriber],
    ring: &[Vec<f64>],
    total_steps: usize,
    outcome: &mut Outcome,
) {
    let slots = ring.len();
    let last = |i: usize| subscribers[i].last.as_ref();
    let (Some(hist_a), Some(hist_b), Some(moments), Some(_grid)) =
        (last(0), last(1), last(2), last(3))
    else {
        return outcome.require(false, || "a job delivered no result".into());
    };

    // The histograms never reset: their output is the count over every step.
    let per_slot: Vec<Vec<u64>> =
        ring.iter().map(|s| reference::histogram(s, RANGE.0, RANGE.1, BUCKETS)).collect();
    let want = accumulate_counts(&per_slot, total_steps);
    for (name, result) in [("first", hist_a), ("second", hist_b)] {
        let got: Vec<u64> = smart_wire::from_bytes(&result.out).unwrap_or_default();
        outcome.require(got == want, || {
            format!("{name} coalesced histogram differs from the sequential reference")
        });
    }

    // Moments accumulate too: power sums over every step, in step order.
    let per_slot: Vec<([f64; 4], u64)> = ring.iter().map(|s| reference::moments(s)).collect();
    let mut want_sums = [0.0; 4];
    for step in 0..total_steps {
        for (acc, s) in want_sums.iter_mut().zip(per_slot[step % slots].0) {
            *acc += s;
        }
    }
    let want_count: u64 = (0..slots).map(|s| per_slot[s].1 * uses(total_steps, slots, s)).sum();
    let map: Vec<(i64, MomentsObj)> = smart_wire::from_bytes(&moments.map).unwrap_or_default();
    let ok = matches!(map.as_slice(), [(0, m)] if m.count == want_count
        && reference::all_close(&[m.s1, m.s2, m.s3, m.s4], &want_sums));
    outcome.require(ok, || "moments differ from the sequential reference".into());

    // The grid's cells complete within a step and are emitted early, so each
    // step's output is that step's cell means.
    for (slot, out) in &subscribers[3].sampled {
        let got: Vec<f64> = smart_wire::from_bytes(out).unwrap_or_default();
        if !reference::all_close(&got, &reference::grid_mean(&ring[*slot], GRID_CELL)) {
            outcome.fail(format!(
                "grid means of a step on ring slot {slot} differ from the reference"
            ));
        }
    }
}
