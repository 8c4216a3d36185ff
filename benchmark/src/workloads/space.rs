//! `space_window`: space sharing. The simulation thread copies each step
//! into a ring of two through `Feeder::feed` and blocks while the ring is
//! full; one analytics thread drains it with a moving average whose windows
//! are emitted early. A saturated ring makes feed time equal analytics time.

use super::{pick, pinned_pool};
use crate::gen;
use crate::measure::{
    layers_from_stats, ms, timed_step, HeapBase, Outcome, OutputSamples, Pass, Region, MIB,
    WARMUP_STEPS,
};
use crate::pin::Pinned;
use crate::probes::ProbeInput;
use crate::reference;
use crate::stats::median;
use crate::trace::{ANALYTICS_LANE, SIM_LANE};
use smart_analytics::MovingAverage;
use smart_core::space::SpaceShared;
use smart_core::{RunStats, SchedArgs, Scheduler};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const WINDOW: usize = 25;
const RING_CAPACITY: usize = 2;

pub fn space_window(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    let n = pick(pass, 1 << 16, 1 << 12);
    let slots = pick(pass, 64, 2);
    let ring = gen::ring(pass.seed, slots, n, |rng, buf| {
        // A slow wave plus noise: what a smoothing window is for.
        for (i, v) in buf.iter_mut().enumerate() {
            *v = 50.0 + 20.0 * (i as f64 * 0.001).sin() + 5.0 * rng.normal();
        }
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[
            ("elements", n),
            ("ring_slots", slots),
            ("window", WINDOW),
            ("ring_capacity", RING_CAPACITY),
            ("analytics_threads", 1),
        ],
    );
    let mut out = vec![0.0f64; n];
    let mut samples = OutputSamples::new(8, &out);
    let heap = HeapBase::take();

    let pool = pinned_pool(1, 1);
    let sched = Scheduler::new(MovingAverage::new(WINDOW, n), SchedArgs::new(1, 1), pool)
        .expect("valid scheduler arguments");
    let mut analytics = SpaceShared::new(sched, RING_CAPACITY);
    analytics.scheduler_mut().set_collect_stats(pass.tracer.is_some());
    let feeder = analytics.feeder();
    // Steps the analytics thread has finished: the simulation thread waits
    // on it for the end of warm-up and reads it for nothing else.
    let processed = AtomicUsize::new(0);

    // Space sharing splits the cores: simulation on CPU 0, analytics on CPU 1.
    let _sim_cpu = Pinned::to(0);
    let (consumer_errors, stats, region) = std::thread::scope(|scope| {
        let consumer = scope.spawn(|| {
            let _analytics_cpu = Pinned::to(1);
            let mut errors = Vec::new();
            let mut stats = RunStats::default();
            let mut step = 0usize;
            loop {
                let (result, _, span) =
                    timed_step(pass.tracer, "run2_step", ANALYTICS_LANE, step as u64, || {
                        // Each time-step is smoothed on its own.
                        analytics.scheduler_mut().reset();
                        analytics.run2_step(&mut out)
                    });
                match result {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => errors.push(format!("step {step}: {e}")),
                }
                if let (Some(tracer), Some(span)) = (pass.tracer, span) {
                    let last = analytics.scheduler().last_stats();
                    tracer.children_from_stats(span, step as u64, last);
                    if step >= WARMUP_STEPS {
                        stats.absorb(last);
                    }
                }
                if step >= WARMUP_STEPS {
                    samples.offer(step, step % ring.len(), &out);
                }
                step += 1;
                processed.store(step, Ordering::Release);
            }
            (errors, stats)
        });

        // The simulation thread.
        let mut step = 0usize;
        let feed = |step: usize, outcome: &mut Outcome| -> Duration {
            let data = &ring[step % ring.len()];
            let (result, took, _) =
                timed_step(pass.tracer, "feed", SIM_LANE, step as u64, || feeder.feed(data));
            if let Err(e) = result {
                outcome.fail(format!("feed {step}: {e}"));
            }
            took
        };
        for _ in 0..WARMUP_STEPS {
            feed(step, &mut outcome);
            step += 1;
        }
        while processed.load(Ordering::Acquire) < WARMUP_STEPS {
            std::thread::sleep(Duration::from_micros(200));
        }
        outcome.setup_s = setup_started.elapsed().as_secs_f64();
        let region = Region::begin(pass.seconds);
        while region.open() {
            let took = feed(step, &mut outcome);
            outcome.step_ms.push(ms(took));
            step += 1;
        }
        feeder.close();
        // The last result is available when the analytics thread has
        // drained the ring.
        let (errors, stats) = consumer.join().expect("analytics thread panicked");
        (errors, stats, region)
    });
    region.end(&mut outcome);
    outcome.peak_extra_bytes = heap.peak_extra();
    for e in consumer_errors {
        outcome.fail(e);
    }

    for (slot, smoothed) in samples.iter() {
        if !reference::all_close(smoothed, &reference::moving_average(&ring[slot], WINDOW)) {
            outcome.fail(format!(
                "moving average of a step on ring slot {slot} differs from the reference"
            ));
        }
    }
    // Early emission keeps live window objects to O(window · threads); the
    // footprint must stay a small multiple of ring + output, not O(N) objects.
    let ring_and_out = ((RING_CAPACITY + 1) * n * std::mem::size_of::<f64>()) as u64;
    let peak = outcome.peak_extra_bytes;
    outcome.require(peak < 4 * ring_and_out, || {
        format!(
            "space_window peak extra heap {peak} B is not below 4 x (ring + out) = {} B",
            4 * ring_and_out
        )
    });

    let steps = outcome.step_ms.len();
    if pass.tracer.is_some() && steps > 0 {
        outcome.layers.extend(layers_from_stats(&stats, steps, n as u64));
        // The cheapest feed met a ring with room: it is the copy alone. What
        // a typical feed takes beyond that is time blocked on a full ring.
        let copy_ms = outcome.step_ms.iter().copied().fold(f64::INFINITY, f64::min);
        outcome.layers.set("space.feed_copy_ms", copy_ms);
        outcome.layers.set("space.feed_block_ms", median(&outcome.step_ms) - copy_ms);
    }
    outcome
        .layers
        .set("space.ring_peak_mib", (RING_CAPACITY * n * std::mem::size_of::<f64>()) as f64 / MIB);
    outcome.layers.set("redmap.retained_mib", smart_memtrack::retained_map_bytes() as f64 / MIB);
    // The map holds windows, and only a window's worth at a time: the probes
    // replay uniform keys over that many.
    outcome.probe = Some(ProbeInput::uniform(pass.seed, 1, 2 * WINDOW, &ring[0]));
    outcome
}
