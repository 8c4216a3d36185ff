//! PR 8 acceptance: the transport backend is invisible to results. Every
//! deployment that moves bytes between ranks — distributed time sharing,
//! the in-transit pipeline, the multi-tenant service tier, and self-healing
//! fault recovery — must produce **bit-identical** canonical map bytes on
//! the in-process channel mesh, TCP loopback, and Unix domain sockets.
//! Integer-valued inputs keep every f64 merge exact, so the comparisons
//! really are byte equality.

use smart_insitu::analytics::{Histogram, HyperLogLog, KMeans, Moments};
use smart_insitu::comm::{run_cluster_with, CommConfig, StreamConfig, TransportKind};
use smart_insitu::core::in_transit::{run_in_transit, InTransitConfig, Producer, Topology};
use smart_insitu::core::space::SpaceShared;
use smart_insitu::core::{Analytics, KeyMode, SchedArgs, Scheduler};
use smart_insitu::ft::{run_in_transit_healing, FaultPlan, FtProducer};
use smart_insitu::pool::shared_pool;
use smart_insitu::serve::{
    run_in_transit_serve, CoalesceKey, JobSpec, JobStepResult, Registry, RegistryConfig,
    ServeDriver, TenantQuota,
};

const BACKENDS: [(&str, TransportKind); 3] = [
    ("inproc", TransportKind::InProcess),
    ("tcp", TransportKind::Tcp),
    ("uds", TransportKind::Uds),
];

const PRODUCERS: usize = 4;
const STAGERS: usize = 2;
const PART: usize = 16;
const STEPS: usize = 3;
const BUCKETS: usize = 24;

/// Tight enough that even the 24-bucket shells cross their share and
/// drain to sorted on-disk runs (PR 10's spilling shuffle).
const SPILL_BUDGET: usize = 256;

fn comm_cfg(kind: TransportKind) -> CommConfig {
    CommConfig { transport: Some(kind), ..CommConfig::default() }
}

fn transit_cfg(kind: TransportKind) -> InTransitConfig {
    InTransitConfig::with_window(2).with_comm(comm_cfg(kind))
}

fn element(t: usize, p: usize, i: usize) -> f64 {
    ((t * 31 + p * 7 + i) % 10) as f64
}

fn partition(t: usize, p: usize) -> Vec<f64> {
    (0..PART).map(|i| element(t, p, i)).collect()
}

fn hist_sched(threads: usize) -> Scheduler<Histogram> {
    let pool = shared_pool(threads).unwrap();
    Scheduler::new(Histogram::new(0.0, 10.0, BUCKETS), SchedArgs::new(threads, 1), pool).unwrap()
}

fn map_bytes<A: Analytics>(s: &Scheduler<A>) -> Vec<u8> {
    smart_insitu::wire::to_bytes(&s.combination_map().to_sorted_entries()).unwrap()
}

/// Distributed time sharing of `make()`'s analytics, one rank per producer,
/// on `kind`.
fn time_sharing_map<A, F>(make: F, out_len: usize, kind: TransportKind) -> Vec<u8>
where
    A: Analytics<In = f64>,
    A::Out: Default,
    F: Fn() -> Scheduler<A> + Sync,
{
    let per_rank = run_cluster_with(PRODUCERS, comm_cfg(kind), |mut comm| {
        let mut s = make();
        let mut out: Vec<A::Out> = (0..out_len).map(|_| A::Out::default()).collect();
        for t in 0..STEPS {
            let data = partition(t, comm.rank());
            s.run_dist(&mut comm, &data, &mut out).unwrap();
        }
        map_bytes(&s)
    });
    for rank in 1..per_rank.len() {
        assert_eq!(per_rank[rank], per_rank[0], "time-sharing rank {rank} diverged");
    }
    per_rank.into_iter().next().unwrap()
}

/// The same analytics in transit, with the given stream shape on `kind`.
fn in_transit_map<A, F>(
    make: F,
    out_len: usize,
    kind: TransportKind,
    stream: StreamConfig,
) -> Vec<u8>
where
    A: Analytics<In = f64>,
    A::Out: Default,
    F: Fn() -> Scheduler<A> + Sync,
{
    let outcome = run_in_transit(
        Topology::new(PRODUCERS, STAGERS),
        transit_cfg(kind).with_stream(stream),
        KeyMode::Single,
        |prod: &mut Producer<f64>| {
            for t in 0..STEPS {
                prod.feed(prod.index() * PART, &partition(t, prod.index()))?;
            }
            Ok(())
        },
        |_s| Ok((make(), (0..out_len).map(|_| A::Out::default()).collect())),
    );
    let (producers, stagers) = outcome.into_result().unwrap();
    for prod in &producers {
        assert_eq!(prod.stream.steps, STEPS as u64);
    }
    for s in 1..stagers.len() {
        assert_eq!(stagers[s].map_bytes, stagers[0].map_bytes, "stager {s} diverged");
    }
    stagers.into_iter().next().unwrap().map_bytes
}

/// Distributed time sharing, in-transit staging, and (comm-free control)
/// space sharing of the same histogram, on one backend.
fn placements_on(kind: TransportKind) -> [Vec<u8>; 3] {
    // Distributed time sharing: one rank per producer.
    let time = time_sharing_map(|| hist_sched(2), BUCKETS, kind);

    // Space sharing moves no inter-rank bytes — it anchors the comparison.
    let space = {
        let mut shared = SpaceShared::new(hist_sched(2), 2);
        let feeder = shared.feeder();
        let producer = std::thread::spawn(move || {
            for t in 0..STEPS {
                let step: Vec<f64> = (0..PRODUCERS).flat_map(|p| partition(t, p)).collect();
                feeder.feed(&step).unwrap();
            }
            feeder.close();
        });
        let mut out = vec![0u64; BUCKETS];
        while shared.run_step(&mut out).unwrap() {}
        producer.join().unwrap();
        map_bytes(shared.scheduler())
    };

    // In transit: producers stream partitions to staging ranks over `kind`.
    let transit = in_transit_map(|| hist_sched(1), BUCKETS, kind, StreamConfig::with_window(2));

    [time, space, transit]
}

#[test]
fn three_placements_are_bit_identical_across_backends() {
    let reference = placements_on(TransportKind::InProcess);
    assert_eq!(reference[0], reference[1], "time vs space sharing");
    assert_eq!(reference[0], reference[2], "time sharing vs in transit");
    for &(name, kind) in &BACKENDS[1..] {
        let got = placements_on(kind);
        assert_eq!(got, reference, "backend {name} diverged from inproc");
    }
}

/// Every shape of the stream's data plane — one chunk or two per frame, with
/// and without the replay buffer's copy of each departing chunk, on every
/// backend — delivers exactly the bytes time sharing reduces.
fn every_stream_shape_matches_time_sharing<A, F>(what: &str, make: F, out_len: usize)
where
    A: Analytics<In = f64>,
    A::Out: Default,
    F: Fn() -> Scheduler<A> + Sync,
{
    let reference = time_sharing_map(&make, out_len, TransportKind::InProcess);
    for &(name, kind) in &BACKENDS {
        for batch_steps in [1, 2] {
            for retain in [false, true] {
                let stream = StreamConfig::with_window(2)
                    .with_batch(batch_steps, 1 << 20)
                    .with_retain_unacked(retain);
                assert_eq!(
                    in_transit_map(&make, out_len, kind, stream),
                    reference,
                    "{what} over {name}, batch_steps {batch_steps}, retain_unacked {retain}"
                );
            }
        }
    }
}

#[test]
fn in_transit_histogram_matches_time_sharing_for_every_stream_shape() {
    every_stream_shape_matches_time_sharing("histogram", || hist_sched(2), BUCKETS);
}

#[test]
fn in_transit_kmeans_matches_time_sharing_for_every_stream_shape() {
    let (k, dims, iters) = (3usize, 4usize, 4usize);
    let init: Vec<f64> = (0..k * dims).map(|i| (i * 5 % 11) as f64).collect();
    every_stream_shape_matches_time_sharing(
        "k-means",
        || {
            let args = SchedArgs::new(2, dims).with_extra(init.clone()).with_iters(iters);
            Scheduler::new(KMeans::new(k, dims), args, shared_pool(2).unwrap()).unwrap()
        },
        k,
    );
}

/// A histogram scheduler whose reduction spills: shells drain to sorted
/// runs and the combination map lives on disk between steps.
fn spilled_hist_sched(threads: usize) -> Scheduler<Histogram> {
    let mut s = hist_sched(threads);
    s.set_spill_budget(Some(SPILL_BUDGET)).unwrap();
    s
}

/// The same three placements with the spilling shuffle engaged on every
/// rank/stager; canonical bytes come off the on-disk combination runs.
fn spilled_placements_on(kind: TransportKind) -> [Vec<u8>; 3] {
    let time = {
        let per_rank = run_cluster_with(PRODUCERS, comm_cfg(kind), |mut comm| {
            let mut s = spilled_hist_sched(2);
            let mut out = vec![0u64; BUCKETS];
            for t in 0..STEPS {
                let data = partition(t, comm.rank());
                s.run_dist(&mut comm, &data, &mut out).unwrap();
            }
            // The persistent map must really be out of core.
            assert!(s.combination_map().is_empty(), "spilled map must not be resident");
            s.canonical_map_bytes().unwrap()
        });
        for rank in 1..per_rank.len() {
            assert_eq!(per_rank[rank], per_rank[0], "spilled time-sharing rank {rank} diverged");
        }
        per_rank.into_iter().next().unwrap()
    };

    let space = {
        let mut shared = SpaceShared::new(spilled_hist_sched(2), 2);
        let feeder = shared.feeder();
        let producer = std::thread::spawn(move || {
            for t in 0..STEPS {
                let step: Vec<f64> = (0..PRODUCERS).flat_map(|p| partition(t, p)).collect();
                feeder.feed(&step).unwrap();
            }
            feeder.close();
        });
        let mut out = vec![0u64; BUCKETS];
        while shared.run_step(&mut out).unwrap() {}
        producer.join().unwrap();
        shared.scheduler().canonical_map_bytes().unwrap()
    };

    let transit = {
        let outcome = run_in_transit(
            Topology::new(PRODUCERS, STAGERS),
            transit_cfg(kind),
            KeyMode::Single,
            |prod: &mut Producer<f64>| {
                for t in 0..STEPS {
                    prod.feed(prod.index() * PART, &partition(t, prod.index()))?;
                }
                Ok(())
            },
            |_s| Ok((spilled_hist_sched(1), vec![0u64; BUCKETS])),
        );
        let (_producers, stagers) = outcome.into_result().unwrap();
        for s in 1..stagers.len() {
            assert_eq!(stagers[s].map_bytes, stagers[0].map_bytes, "spilled stager {s} diverged");
        }
        stagers.into_iter().next().unwrap().map_bytes
    };

    [time, space, transit]
}

#[test]
fn spilled_placements_are_bit_identical_to_the_resident_reference() {
    let resident = placements_on(TransportKind::InProcess);
    for &(name, kind) in &BACKENDS[..2] {
        let spilled = spilled_placements_on(kind);
        for (placement, bytes) in ["time", "space", "transit"].iter().zip(&spilled) {
            assert_eq!(
                bytes, &resident[0],
                "spilled {placement} sharing on {name} diverged from the resident run"
            );
        }
    }
}

/// The service tier over one backend: per-job, per-step `(out, map)` bytes.
fn serve_on(kind: TransportKind) -> Vec<Vec<JobStepResult>> {
    let topo = Topology::new(PRODUCERS, STAGERS);
    let hist_key = CoalesceKey::new("histogram", "0:10:24");
    type Made =
        smart_insitu::serve::SmartResult<(ServeDriver<f64>, Vec<smart_insitu::serve::JobHandle>)>;
    let make_serve = |_s: usize| -> Made {
        let registry: Registry<f64> = Registry::new(RegistryConfig::default());
        registry.add_tenant("ops", TenantQuota::unlimited());
        registry.add_tenant("science", TenantQuota::unlimited());
        let h1 = registry.submit(
            JobSpec::new(Histogram::new(0.0, 10.0, BUCKETS), SchedArgs::new(1, 1), BUCKETS)
                .with_tenant("ops")
                .with_coalesce(hist_key.clone()),
        )?;
        let mo = registry
            .submit(JobSpec::new(Moments, SchedArgs::new(1, 1), 0).with_tenant("science"))?;
        // The same histogram under the spilling shuffle: its per-step
        // results must be byte-identical to the resident job's.
        let h2 = registry.submit(
            JobSpec::new(Histogram::new(0.0, 10.0, BUCKETS), SchedArgs::new(1, 1), BUCKETS)
                .with_tenant("ops")
                .with_spill_budget(SPILL_BUDGET),
        )?;
        // A mergeable-summary app as an ordinary tenant job, also spilled.
        let hll = registry.submit(
            JobSpec::new(HyperLogLog::new(10), SchedArgs::new(1, 1), 1)
                .with_tenant("science")
                .with_spill_budget(SPILL_BUDGET),
        )?;
        let driver = ServeDriver::new(registry, shared_pool(1).unwrap());
        Ok((driver, vec![h1, mo, h2, hll]))
    };

    let outcome = run_in_transit_serve(
        topo,
        transit_cfg(kind).with_stream(StreamConfig::with_window(2)),
        |prod: &mut Producer<f64>| {
            for t in 0..STEPS {
                prod.feed(prod.index() * PART, &partition(t, prod.index()))?;
            }
            Ok(())
        },
        make_serve,
    );
    let (_producers, stagers) = outcome.into_result().unwrap();
    let mut per_stager: Vec<Vec<Vec<JobStepResult>>> = stagers
        .into_iter()
        .map(|stager| stager.handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>())
        .collect();
    for s in 1..per_stager.len() {
        for (job, (got, want)) in per_stager[s].iter().zip(&per_stager[0]).enumerate() {
            assert_eq!(got.len(), want.len(), "stager {s} job {job} step count");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.out, w.out, "stager {s} job {job} out bytes");
                assert_eq!(g.map, w.map, "stager {s} job {job} map bytes");
            }
        }
    }
    // Job 2 is job 0 with the spilling shuffle engaged — the budget must
    // not change a single byte of any step's output or map.
    let rows = &per_stager[0];
    assert_eq!(rows[2].len(), rows[0].len(), "spilled histogram step count");
    for (step, (spilled, resident)) in rows[2].iter().zip(&rows[0]).enumerate() {
        assert_eq!(spilled.out, resident.out, "spilled histogram out diverged at step {step}");
        assert_eq!(spilled.map, resident.map, "spilled histogram map diverged at step {step}");
    }
    per_stager.swap_remove(0)
}

#[test]
fn serve_tier_is_bit_identical_across_backends() {
    let reference = serve_on(TransportKind::InProcess);
    for &(name, kind) in &BACKENDS[1..] {
        let got = serve_on(kind);
        assert_eq!(got.len(), reference.len(), "backend {name} job count");
        for (job, (g_steps, r_steps)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g_steps.len(), r_steps.len(), "backend {name} job {job} steps");
            for (g, r) in g_steps.iter().zip(r_steps) {
                assert_eq!(g.out, r.out, "backend {name} job {job} out bytes");
                assert_eq!(g.map, r.map, "backend {name} job {job} map bytes");
            }
        }
    }
}

/// Kill stager 1 mid-run and let the topology heal; return the survivor's
/// healed map bytes plus the uninterrupted reference bytes, both on `kind`.
/// With `spill` set, every stager runs under the spilling shuffle, so
/// rollback and replay happen with the combination map on disk.
fn healed_on_with(kind: TransportKind, spill: Option<usize>) -> (Vec<u8>, Vec<u8>) {
    let topo = Topology::new(PRODUCERS, STAGERS);
    let steps = 6usize;
    let run = |plan: FaultPlan| {
        run_in_transit_healing(
            topo,
            transit_cfg(kind),
            KeyMode::Single,
            plan,
            |prod: &mut FtProducer<f64>| {
                let offset = prod.index() * PART;
                for t in 0..steps {
                    prod.feed(offset, &partition(t, prod.index()))?;
                }
                Ok(prod.index())
            },
            move |_s| {
                let mut sched = hist_sched(2);
                sched.set_spill_budget(spill)?;
                Ok((sched, vec![0u64; BUCKETS]))
            },
        )
    };

    let reference = run(FaultPlan::none());
    let ref_stagers: Vec<_> = reference.stagers.into_iter().map(|s| s.unwrap()).collect();
    assert_eq!(ref_stagers[0].map_bytes, ref_stagers[1].map_bytes);

    let outcome = run(FaultPlan::kill_stager(topo, 1, 2));
    assert!(outcome.stagers[1].is_err(), "stager 1 must die of its injected fault");
    let survivor = outcome.stagers[0].as_ref().expect("stager 0 survives and heals");
    assert!(survivor.heals >= 1, "the death must cost at least one heal retry");
    assert_eq!(
        survivor.map_bytes, ref_stagers[0].map_bytes,
        "healed map must equal the uninterrupted run's"
    );
    (survivor.map_bytes.clone(), ref_stagers.into_iter().next().unwrap().map_bytes)
}

#[test]
fn ft_recovery_is_bit_identical_across_backends() {
    let (healed_ref, clean_ref) = healed_on_with(TransportKind::InProcess, None);
    assert_eq!(healed_ref, clean_ref);
    for &(name, kind) in &BACKENDS[1..] {
        let (healed, clean) = healed_on_with(kind, None);
        assert_eq!(clean, clean_ref, "backend {name} clean run diverged");
        assert_eq!(healed, healed_ref, "backend {name} healed run diverged");
    }
}

/// Self-healing with the spilling shuffle engaged: the stager dies, the
/// survivor rolls back to a snapshot streamed off its on-disk combination
/// run, replays, and still lands on the byte-exact resident result.
#[test]
fn ft_recovery_with_runs_on_disk_is_bit_identical() {
    let (_, resident_clean) = healed_on_with(TransportKind::InProcess, None);
    for (name, kind) in [("inproc", TransportKind::InProcess), ("tcp", TransportKind::Tcp)] {
        let (healed, clean) = healed_on_with(kind, Some(SPILL_BUDGET));
        assert_eq!(clean, resident_clean, "{name}: spilled clean run diverged from resident");
        assert_eq!(healed, clean, "{name}: spilled healed run diverged from its clean run");
    }
}
