//! `transit_tcp`: in transit. One simulation rank streams each step over TCP
//! loopback to one staging rank, which histograms it on one worker thread.
//! The simulation is blocked for the time `Producer::feed` takes: serialising
//! the step, writing it to the socket and, with two steps in flight, waiting
//! for a credit.

use super::{accumulate_counts, dense_counts, histogram_keys, pick, pinned_pool};
use crate::gen;
use crate::measure::{
    layers_from_stats, ms, timed_step, HeapBase, Outcome, Pass, Region, MIB, WARMUP_STEPS,
};
use crate::pin::Pinned;
use crate::probes::ProbeInput;
use crate::reference;
use crate::trace::{ANALYTICS_LANE, SIM_LANE};
use smart_analytics::{Bucket, Histogram};
use smart_comm::{CommConfig, TransportKind};
use smart_core::{
    run_in_transit, InTransitConfig, KeyMode, Producer, SchedArgs, Scheduler, Topology,
};
use std::time::Instant;

const BUCKETS: usize = 1024;
const RANGE: (f64, f64) = (0.0, 100.0);
const CREDIT_WINDOW: usize = 2;

/// What the simulation thread measured inside `run_in_transit`.
struct SimReport {
    setup_s: f64,
    step_ms: Vec<f64>,
    errors: Vec<String>,
    total_steps: usize,
    region: Region,
    last_feed_done: Instant,
    sent_frames: u64,
    sent_bytes: u64,
}

pub fn transit_tcp(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    let n = pick(pass, 1 << 20, 1 << 13);
    let slots = pick(pass, 64, 2);
    let ring = gen::big_ring(pass.seed, slots, 8, n, |rng, buf| {
        buf.iter_mut().for_each(|v| *v = 50.0 + 15.0 * rng.normal());
    });
    let mut outcome = Outcome::sized(
        n,
        gen::ring_bytes(&ring),
        &[
            ("elements", n),
            ("ring_slots", slots),
            ("buckets", BUCKETS),
            ("credit_window", CREDIT_WINDOW),
            ("stager_threads", 1),
        ],
    );
    // The closure below is `Fn`: the sample buffer goes in through a cell.
    let sample_buffer = std::sync::Mutex::new(Some(std::mem::take(&mut outcome.step_ms)));
    let heap = HeapBase::take();

    // Two nodes on two cores: the staging side — stager, its worker and the
    // socket reader threads, which inherit the placement of the thread that
    // builds the universe — on CPU 1, the simulation rank on CPU 0.
    let _staging_cpu = Pinned::to(1);
    let config = InTransitConfig::with_window(CREDIT_WINDOW)
        .with_comm(CommConfig { transport: Some(TransportKind::Tcp), ..CommConfig::default() });
    let (run, _, _) = timed_step(pass.tracer, "run_in_transit", ANALYTICS_LANE, 0, || {
        run_in_transit(
            Topology::new(1, 1),
            config,
            KeyMode::Single,
            |producer: &mut Producer<f64>| {
                let _sim_cpu = Pinned::to(0);
                let mut step_ms: Vec<f64> = sample_buffer
                    .lock()
                    .expect("taken once")
                    .take()
                    .expect("one producer runs this closure once");
                let mut errors = Vec::new();
                let mut step = 0usize;
                let feed = |step: usize, producer: &mut Producer<f64>, errors: &mut Vec<String>| {
                    let data = &ring[step % ring.len()];
                    let (result, took, _) =
                        timed_step(pass.tracer, "Producer::feed", SIM_LANE, step as u64, || {
                            producer.feed(0, data)
                        });
                    if let Err(e) = result {
                        errors.push(format!("feed {step}: {e}"));
                    }
                    took
                };
                for _ in 0..WARMUP_STEPS {
                    feed(step, producer, &mut errors);
                    step += 1;
                }
                let setup_s = setup_started.elapsed().as_secs_f64();
                let (frames0, bytes0) =
                    (producer.comm().sent_messages(), producer.comm().sent_bytes());
                let region = Region::begin(pass.seconds);
                while region.open() {
                    let took = feed(step, producer, &mut errors);
                    step_ms.push(ms(took));
                    step += 1;
                }
                Ok(SimReport {
                    setup_s,
                    step_ms,
                    errors,
                    total_steps: step,
                    region,
                    last_feed_done: Instant::now(),
                    sent_frames: producer.comm().sent_messages() - frames0,
                    sent_bytes: producer.comm().sent_bytes() - bytes0,
                })
            },
            |_stager| {
                let pool = pinned_pool(1, 1);
                let app = Histogram::new(RANGE.0, RANGE.1, BUCKETS);
                let sched = Scheduler::new(app, SchedArgs::new(1, 1), pool)?;
                Ok((sched, vec![0u64; BUCKETS]))
            },
        )
    });
    // `run_in_transit` returns once the stager has drained the stream: the
    // last result is available now.
    let returned = Instant::now();

    let (mut producers, mut stagers) = match run.into_result() {
        Ok(parts) => parts,
        Err(e) => {
            outcome.require(false, || format!("run_in_transit: {e}"));
            return outcome;
        }
    };
    let (producer, stager) = (producers.remove(0), stagers.remove(0));
    let sim = producer.result;
    outcome.setup_s = sim.setup_s;
    outcome.step_ms = sim.step_ms;
    sim.region.end(&mut outcome);
    outcome.peak_extra_bytes = heap.peak_extra();
    for e in sim.errors {
        outcome.fail(e);
    }

    // The stager's histogram accumulates every step fed, warm-up included.
    let per_slot: Vec<Vec<u64>> =
        ring.iter().map(|s| reference::histogram(s, RANGE.0, RANGE.1, BUCKETS)).collect();
    let want = accumulate_counts(&per_slot, sim.total_steps);
    outcome.require(stager.out == want, || {
        "stager's final histogram differs from the sequential reference".into()
    });
    let entries: Vec<(i64, Bucket)> = smart_wire::from_bytes(&stager.map_bytes).unwrap_or_default();
    let from_map = dense_counts(entries.iter().map(|(k, b)| (*k, b.count)), BUCKETS);
    outcome.require(from_map.as_ref() == Some(&want), || {
        "stager's canonical map differs from the sequential reference".into()
    });
    outcome.require(stager.steps == sim.total_steps, || {
        format!("stager processed {} steps of {} fed", stager.steps, sim.total_steps)
    });

    let steps = outcome.step_ms.len();
    if steps > 0 {
        // `run_in_transit` always collects the stager's statistics; they cover
        // warm-up too, so the per-step means divide by every step it ran.
        let all = stager.steps.max(1);
        outcome.layers.extend(layers_from_stats(&stager.stats, all, n as u64));
        let stream = &producer.stream;
        outcome.layers.set("stream.send_busy_ms", ms(stream.send_busy) / all as f64);
        outcome.layers.set("stream.credit_wait_ms", ms(stream.credit_wait) / all as f64);
        outcome.layers.set("stream.bytes_per_step", stream.bytes as f64 / all as f64);
        outcome.layers.set("stream.batches", stream.batches as f64);
        if let Some(rx) = stager.streams.first() {
            outcome.layers.set("stream.recv_busy_ms", ms(rx.recv_busy) / all as f64);
            outcome.layers.set("stream.buffered_peak_mib", rx.buffered_bytes_peak as f64 / MIB);
        }
        outcome.layers.set("transport.frames_per_step", sim.sent_frames as f64 / steps as f64);
        outcome.layers.set("transport.bytes_per_step", sim.sent_bytes as f64 / steps as f64);
        outcome.layers.set("in_transit.drain_ms", ms(returned - sim.last_feed_done));
    }
    outcome.layers.set("in_transit.stager_steps", stager.steps as f64);
    outcome.layers.set("combine.map_entries", entries.len() as f64);
    let counts: Vec<(i64, u64)> = entries.iter().map(|(k, b)| (*k, b.count)).collect();
    let keys = histogram_keys(&Histogram::new(RANGE.0, RANGE.1, BUCKETS), &ring[0]);
    outcome.probe = Some(ProbeInput::new(1, &counts, keys, BUCKETS, &ring[0]));
    outcome
}
