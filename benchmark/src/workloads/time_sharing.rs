//! Time sharing on one rank with two worker threads: the simulation thread
//! hands its buffer to `Scheduler::execute` and waits for the call to
//! return. `ts_hist`, `ts_kmeans`, `spill_idle` and `spill_tight`.

use super::{accumulate_counts, dense_counts, histogram_keys, pick, pinned_pool, Driver};
use crate::gen::{self, Rng};
use crate::measure::{
    layers_from_stats, ms, HeapBase, Outcome, OutputSamples, Pass, Region, MIB, WARMUP_STEPS,
};
use crate::pin::Pinned;
use crate::probes::ProbeInput;
use crate::reference;
use crate::trace::SIM_LANE;
use smart_analytics::{Histogram, KMeans};
use smart_core::{Analytics, SchedArgs, Scheduler};
use std::time::Instant;

/// Worker `w` runs on CPU `w`; the simulation thread, which waits while they
/// work, on CPU 0.
const THREADS: usize = 2;

/// Warm-up, then the timed closed loop of `driver` over its ring. Returns
/// the number of steps run in all, warm-up included.
fn drive<A: Analytics<In = f64>>(
    pass: &Pass,
    mut driver: Driver<'_, A>,
    mut samples: Option<&mut OutputSamples<A::Out>>,
    setup_started: Instant,
    outcome: &mut Outcome,
) -> usize
where
    A::Out: Clone,
{
    let mut step = 0usize;
    for _ in 0..WARMUP_STEPS {
        if let (_, Err(e)) = driver.step(step) {
            outcome.fail(e);
        }
        step += 1;
    }
    driver.forget_warmup();
    outcome.setup_s = setup_started.elapsed().as_secs_f64();

    let region = Region::begin(pass.seconds);
    while region.open() {
        let (took, result) = driver.step(step);
        if let Err(e) = result {
            outcome.fail(e);
        }
        outcome.step_ms.push(ms(took));
        if let Some(samples) = samples.as_deref_mut() {
            samples.offer(step, step % driver.ring.len(), driver.out);
        }
        step += 1;
    }
    region.end(outcome);
    if let Some(obs) = &driver.observer {
        outcome.layers.extend(layers_from_stats(
            &obs.stats,
            outcome.step_ms.len(),
            outcome.elems_per_step,
        ));
    }
    step
}

/// Check an accumulating histogram's final map against the per-slot
/// reference counts summed over every step that ran.
fn check_histogram<A>(
    sched: &Scheduler<A>,
    ring: &[Vec<f64>],
    (min, max, buckets): (f64, f64, usize),
    total_steps: usize,
    outcome: &mut Outcome,
) where
    A: Analytics<Red = smart_analytics::Bucket>,
{
    let per_slot: Vec<Vec<u64>> =
        ring.iter().map(|s| reference::histogram(s, min, max, buckets)).collect();
    let want = accumulate_counts(&per_slot, total_steps);
    let entries = match sched.canonical_entries() {
        Ok(entries) => entries,
        Err(e) => return outcome.require(false, || format!("canonical_entries: {e}")),
    };
    outcome.layers.set("combine.map_entries", entries.len() as f64);
    let counts: Vec<(i64, u64)> = entries.iter().map(|(k, b)| (*k, b.count)).collect();
    let got = dense_counts(counts.iter().copied(), buckets);
    outcome.require(got.as_ref() == Some(&want), || {
        "final histogram differs from the sequential reference".into()
    });
    let keys = histogram_keys(&Histogram::new(min, max, buckets), &ring[0]);
    outcome.probe = Some(ProbeInput::new(THREADS, &counts, keys, buckets, &ring[0]));
}

// --- ts_hist ---------------------------------------------------------------

const HIST_RANGE: (f64, f64) = (0.0, 100.0);
/// Ring slots that come from the generator; the rest derive from them.
const GENERATED_SLOTS: usize = 4;

pub fn ts_hist(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    let _sim_cpu = Pinned::to(0);
    let n = pick(pass, 1 << 21, 1 << 14);
    let slots = pick(pass, 32, 2);
    let buckets = 1024;
    let ring = gen::big_ring(pass.seed, slots, GENERATED_SLOTS, n, |rng, buf| {
        buf.iter_mut().for_each(|v| *v = 50.0 + 15.0 * rng.normal());
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[("elements", n), ("ring_slots", slots), ("buckets", buckets), ("threads", THREADS)],
    );
    let heap = HeapBase::take();

    let pool = pinned_pool(THREADS, 0);
    let app = Histogram::new(HIST_RANGE.0, HIST_RANGE.1, buckets);
    let mut sched =
        Scheduler::new(app, SchedArgs::new(THREADS, 1), pool).expect("valid scheduler arguments");
    let mut out = vec![0u64; buckets];
    let driver = Driver::new(pass.tracer, SIM_LANE, &ring, &mut sched, &mut out, false, None);
    let total = drive(pass, driver, None, setup_started, &mut outcome);
    outcome.peak_extra_bytes = heap.peak_extra();

    check_histogram(&sched, &ring, (HIST_RANGE.0, HIST_RANGE.1, buckets), total, &mut outcome);
    outcome.layers.set("redmap.retained_mib", sched.retained_map_bytes() as f64 / MIB);
    if pass.tracer.is_some() {
        // Zero-copy: the scheduler reads the simulation's buffer in place.
        let staged = outcome.layers.get("stage.bytes");
        outcome
            .require(staged == 0.0, || format!("ts_hist staged {staged} bytes a step, expected 0"));
    }
    outcome
}

// --- ts_kmeans -------------------------------------------------------------

const K: usize = 16;
const DIMS: usize = 8;
const ITERATIONS: usize = 8;

/// Cluster centres of the generated points, and — slightly off them — the
/// initial centroids every step starts from.
fn kmeans_centres(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = Rng::fork(seed, u64::MAX);
    let centres: Vec<f64> = (0..K * DIMS).map(|_| 100.0 * rng.uniform()).collect();
    let initial = centres.iter().map(|c| c + 3.0 * rng.normal()).collect();
    (centres, initial)
}

pub fn ts_kmeans(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    let _sim_cpu = Pinned::to(0);
    let n = pick(pass, 1 << 18, 1 << 12);
    let slots = pick(pass, 16, 2);
    let (centres, initial) = kmeans_centres(pass.seed);
    let ring = gen::ring(pass.seed, slots, n, |rng, buf| {
        for point in buf.chunks_exact_mut(DIMS) {
            let centre = (rng.next_u64() % K as u64) as usize;
            for (x, c) in point.iter_mut().zip(&centres[centre * DIMS..]) {
                *x = c + 6.0 * rng.normal();
            }
        }
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[
            ("elements", n),
            ("ring_slots", slots),
            ("k", K),
            ("dims", DIMS),
            ("iterations", ITERATIONS),
            ("threads", THREADS),
        ],
    );
    let mut out = vec![vec![0.0; DIMS]; K];
    let mut samples = OutputSamples::new(8, &out);
    let heap = HeapBase::take();

    let pool = pinned_pool(THREADS, 0);
    let args = SchedArgs::new(THREADS, DIMS).with_extra(initial.clone()).with_iters(ITERATIONS);
    let mut sched =
        Scheduler::new(KMeans::new(K, DIMS), args, pool).expect("valid scheduler arguments");
    let driver = Driver::new(pass.tracer, SIM_LANE, &ring, &mut sched, &mut out, true, None);
    drive(pass, driver, Some(&mut samples), setup_started, &mut outcome);
    outcome.peak_extra_bytes = heap.peak_extra();

    for (slot, centroids) in samples.iter() {
        let want = reference::kmeans(&ring[slot], DIMS, &initial, ITERATIONS, THREADS);
        let got: Vec<f64> = centroids.iter().flatten().copied().collect();
        if !reference::all_close(&got, &want) {
            outcome.fail(format!(
                "centroids of a step on ring slot {slot} differ from Lloyd's reference"
            ));
        }
    }
    outcome.layers.set("combine.map_entries", sched.combination_map().len() as f64);
    outcome.layers.set("redmap.retained_mib", sched.retained_map_bytes() as f64 / MIB);
    // The map holds clusters, not counts: the probes replay uniform keys.
    outcome.probe = Some(ProbeInput::uniform(pass.seed, THREADS, K, &ring[0]));
    outcome
}

// --- spill_idle and spill_tight ---------------------------------------------

const SPILL_BUCKETS: usize = 16_384;

/// Resident reduction + combination map bytes of this workload with no
/// budget: `peak_map_bytes()` of an unbounded run, measured once (hashed
/// shells, as under a budget) and committed so the budget never adapts.
const SPILL_UNBOUNDED_MAP_BYTES: usize = 1_572_864;

/// Same code and data for both; only the budget differs.
fn spill(pass: &Pass, budget: usize, expect_runs: bool) -> Outcome {
    let setup_started = Instant::now();
    let _sim_cpu = Pinned::to(0);
    let n = pick(pass, 1 << 16, 1 << 14);
    let slots = pick(pass, 64, 2);
    let ring = gen::ring(pass.seed, slots, n, |rng, buf| {
        buf.iter_mut().for_each(|v| *v = 100.0 * rng.uniform());
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[
            ("elements", n),
            ("ring_slots", slots),
            ("buckets", SPILL_BUCKETS),
            ("threads", THREADS),
            ("spill_budget_bytes", budget),
        ],
    );
    let heap = HeapBase::take();

    let pool = pinned_pool(THREADS, 0);
    let app = Histogram::new(HIST_RANGE.0, HIST_RANGE.1, SPILL_BUCKETS);
    let mut sched =
        Scheduler::new(app, SchedArgs::new(THREADS, 1), pool).expect("valid scheduler arguments");
    sched.set_spill_budget(Some(budget)).expect("setting a budget cannot fail");
    let mut out = vec![0u64; SPILL_BUCKETS];
    let driver = Driver::new(pass.tracer, SIM_LANE, &ring, &mut sched, &mut out, false, None);
    let total = drive(pass, driver, None, setup_started, &mut outcome);
    outcome.peak_extra_bytes = heap.peak_extra();

    check_histogram(
        &sched,
        &ring,
        (HIST_RANGE.0, HIST_RANGE.1, SPILL_BUCKETS),
        total,
        &mut outcome,
    );
    outcome.layers.set("spill.peak_resident_mib", sched.peak_map_bytes() as f64 / MIB);
    outcome.layers.set("redmap.retained_mib", sched.retained_map_bytes() as f64 / MIB);
    if pass.tracer.is_some() {
        let runs = outcome.layers.get("spill.runs_per_step");
        outcome.require((runs > 0.0) == expect_runs, || {
            format!("{runs} spill runs a step under a budget of {budget} bytes")
        });
    }
    outcome
}

pub fn spill_idle(pass: &Pass) -> Outcome {
    spill(pass, 1 << 30, false)
}

pub fn spill_tight(pass: &Pass) -> Outcome {
    spill(pass, SPILL_UNBOUNDED_MAP_BYTES / 8, true)
}
