//! `dist_mi`: time sharing on two ranks of one process, one worker thread
//! each, joint histogram with global combination over the in-process
//! transport. A step is as slow as the slower rank.

use super::{accumulate_counts, dense_counts, pick, pinned_pool, Driver};
use crate::gen;
use crate::measure::{layers_from_stats, ms, HeapBase, Outcome, Pass, Region, MIB, WARMUP_STEPS};
use crate::pin::Pinned;
use crate::probes::{ProbeInput, PROBE_KEYS};
use crate::reference;
use crate::trace::SIM_LANE;
use smart_analytics::MutualInformation;
use smart_comm::{CommConfig, Communicator, TransportKind};
use smart_core::{CombineStrategy, RunStats, SchedArgs, Scheduler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

const RANKS: usize = 2;
const BUCKETS: usize = 256;
const RANGE: (f64, f64) = (0.0, 100.0);

/// What the rank threads share.
struct Shared {
    setup_started: Instant,
    /// Rank 0 decides before every step whether the region is still open; the
    /// barrier makes both ranks see the same answer (and start together, as a
    /// simulation's own halo exchange would make them).
    barrier: Barrier,
    go: AtomicBool,
    /// Rank 0 owns the region; it hands set-up time and the region's numbers
    /// back through here.
    region_out: Mutex<Option<(f64, Outcome)>>,
}

/// What one rank brings back.
struct RankReport {
    step_ms: Vec<f64>,
    errors: Vec<String>,
    total_steps: usize,
    /// Canonical `(cell, count)` entries of the final global map.
    entries: Vec<(i64, u64)>,
    stats: RunStats,
    retained_bytes: usize,
    sent_frames: u64,
    sent_bytes: u64,
}

pub fn dist_mi(pass: &Pass) -> Outcome {
    let setup_started = Instant::now();
    let n = pick(pass, 1 << 19, 1 << 13);
    let slots = pick(pass, 64, 2);
    // Rank r reads ring r. y follows x loosely, so the pairs spread over a
    // wide band of the 65 536 cells rather than a diagonal line.
    let rings: Vec<Vec<Vec<f64>>> = (0..RANKS)
        .map(|rank| {
            gen::big_ring(pass.seed ^ ((rank as u64 + 1) << 32), slots, 8, n, |rng, buf| {
                for pair in buf.chunks_exact_mut(2) {
                    pair[0] = 100.0 * rng.uniform();
                    pair[1] = pair[0] + 12.0 * rng.normal();
                }
            })
        })
        .collect();
    let mut outcome = Outcome::sized(
        RANKS * n,
        rings.iter().map(|r| gen::ring_bytes(r)).sum(),
        &[
            ("elements_per_rank", n),
            ("ranks", RANKS),
            ("ring_slots", slots),
            ("buckets_per_axis", BUCKETS),
            ("threads_per_rank", 1),
        ],
    );
    let mut rank_samples: Vec<Vec<f64>> = (0..RANKS).map(|_| Vec::with_capacity(1 << 16)).collect();
    let heap = HeapBase::take();

    let config = CommConfig { transport: Some(TransportKind::InProcess), ..CommConfig::default() };
    let comms = smart_comm::universe(RANKS, config);
    let shared = Shared {
        setup_started,
        barrier: Barrier::new(RANKS),
        go: AtomicBool::new(true),
        region_out: Mutex::new(None),
    };

    let reports: Vec<RankReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .zip(rank_samples.drain(..))
            .zip(&rings)
            .map(|((comm, samples), ring)| {
                let shared = &shared;
                scope.spawn(move || rank_main(pass, comm, ring, samples, shared))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    });
    outcome.peak_extra_bytes = heap.peak_extra();
    if let Some((setup_s, measured)) = shared.region_out.into_inner().expect("rank 0 did not panic")
    {
        outcome.setup_s = setup_s;
        outcome.wall_s = measured.wall_s;
        outcome.cpu_ms = measured.cpu_ms;
        outcome.layers.extend(measured.layers);
    }

    // A step is done when both ranks are: per step, the slower rank's time.
    let steps = reports[0].step_ms.len();
    outcome
        .step_ms
        .extend((0..steps).map(|i| reports.iter().map(|r| r.step_ms[i]).fold(0.0, f64::max)));
    for (rank, report) in reports.iter().enumerate() {
        for e in &report.errors {
            outcome.fail(format!("rank {rank}: {e}"));
        }
    }

    // Both ranks hold the global map: the joint histogram of every pair
    // either rank fed, over every step that ran.
    let total_steps = reports[0].total_steps;
    let mut want = vec![0u64; BUCKETS * BUCKETS];
    for ring in &rings {
        let per_slot: Vec<Vec<u64>> =
            ring.iter().map(|s| reference::joint_histogram(s, RANGE.0, RANGE.1, BUCKETS)).collect();
        for (acc, c) in want.iter_mut().zip(accumulate_counts(&per_slot, total_steps)) {
            *acc += c;
        }
    }
    for (rank, report) in reports.iter().enumerate() {
        let got = dense_counts(report.entries.iter().copied(), BUCKETS * BUCKETS);
        outcome.require(got.as_ref() == Some(&want), || {
            format!("rank {rank}: final joint histogram differs from the sequential reference")
        });
    }

    if pass.tracer.is_some() && steps > 0 {
        // The layer view is rank 0's; the step time above is the slower rank's.
        let r0 = &reports[0];
        outcome.layers.extend(layers_from_stats(&r0.stats, steps, n as u64));
        outcome.layers.set("transport.frames_per_step", r0.sent_frames as f64 / steps as f64);
        outcome.layers.set("transport.bytes_per_step", r0.sent_bytes as f64 / steps as f64);
    }
    outcome.layers.set("combine.map_entries", reports[0].entries.len() as f64);
    let app = MutualInformation::new((RANGE.0, RANGE.1, BUCKETS), (RANGE.0, RANGE.1, BUCKETS));
    let keys = rings[0][0]
        .chunks_exact(2)
        .take(PROBE_KEYS)
        .map(|pair| app.cell_of(pair[0], pair[1]) as i64)
        .collect();
    // 65 536 cells is the largest bound a dense map accepts.
    outcome.probe =
        Some(ProbeInput::new(1, &reports[0].entries, keys, BUCKETS * BUCKETS, &rings[0][0]));
    outcome.layers.set(
        "redmap.retained_mib",
        reports.iter().map(|r| r.retained_bytes).sum::<usize>() as f64 / MIB,
    );
    outcome
}

fn rank_main(
    pass: &Pass,
    mut comm: Communicator,
    ring: &[Vec<f64>],
    mut step_ms: Vec<f64>,
    shared: &Shared,
) -> RankReport {
    let Shared { setup_started, barrier, go, region_out } = shared;
    let rank = comm.rank();
    // Rank r, its worker and its share of the combination all on CPU r: two
    // single-core nodes.
    let _rank_cpu = Pinned::to(rank);
    let pool = pinned_pool(1, rank);
    let app = MutualInformation::new((RANGE.0, RANGE.1, BUCKETS), (RANGE.0, RANGE.1, BUCKETS));
    let mut sched =
        Scheduler::new(app, SchedArgs::new(1, 2), pool).expect("valid scheduler arguments");
    sched.set_combine_strategy(CombineStrategy::Sharded);
    // Only rank 0 traces: its layers are the ones reported.
    let tracer = pass.tracer.filter(|_| rank == 0);
    let lane = SIM_LANE + 2 + rank as u32;
    let mut driver = Driver::new(tracer, lane, ring, &mut sched, &mut [], false, Some(&mut comm));
    let mut errors = Vec::new();
    let mut step = 0usize;

    for _ in 0..WARMUP_STEPS {
        errors.extend(driver.step(step).1.err());
        step += 1;
    }
    driver.forget_warmup();
    barrier.wait();
    let setup_s = setup_started.elapsed().as_secs_f64();
    let sent = |driver: &Driver<'_, MutualInformation>| {
        let comm = driver.comm.as_deref().expect("built with a communicator");
        (comm.sent_messages(), comm.sent_bytes())
    };
    let (frames0, bytes0) = sent(&driver);

    // Every rank keeps a region for the code's sake; only rank 0's counts.
    let region = Region::begin(pass.seconds);
    loop {
        if rank == 0 {
            go.store(region.open(), Ordering::SeqCst);
        }
        barrier.wait();
        let proceed = go.load(Ordering::SeqCst);
        // The second wait keeps rank 0's next store from racing this load.
        barrier.wait();
        if !proceed {
            break;
        }
        let (took, result) = driver.step(step);
        errors.extend(result.err());
        step_ms.push(ms(took));
        step += 1;
    }
    let (frames1, bytes1) = sent(&driver);
    let stats = driver.observer.take().map(|o| o.stats).unwrap_or_default();
    if rank == 0 {
        let mut measured = Outcome { step_ms, ..Outcome::default() };
        region.end(&mut measured);
        step_ms = std::mem::take(&mut measured.step_ms);
        *region_out.lock().expect("only rank 0 locks") = Some((setup_s, measured));
    }

    let entries = match sched.canonical_entries() {
        Ok(entries) => entries.into_iter().map(|(k, cell)| (k, cell.count)).collect(),
        Err(e) => {
            errors.push(format!("canonical_entries: {e}"));
            Vec::new()
        }
    };
    RankReport {
        step_ms,
        errors,
        total_steps: step,
        entries,
        stats,
        retained_bytes: sched.retained_map_bytes(),
        sent_frames: frames1 - frames0,
        sent_bytes: bytes1 - bytes0,
    }
}
