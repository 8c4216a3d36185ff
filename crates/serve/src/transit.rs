//! The in-transit service tier: producers stream once, stagers serve many
//! jobs per step.
//!
//! Mirrors [`smart_core::run_in_transit`]'s thread-per-rank structure and
//! transport exactly — producers use the unchanged [`Producer`] handle, so
//! the simulation side cannot tell whether one analytics job or a whole
//! registry of them consumes its stream. Each staging rank runs a
//! [`ServeDriver`] instead of a single `Scheduler`, fanning every arriving
//! time-step out to all admitted jobs over one staging pass.

use crate::driver::ServeDriver;
use crate::jobs::JobHandle;
use serde::de::DeserializeOwned;
use serde::Serialize;
use smart_comm::{Communicator, StreamReceiver, StreamRecvStats};
use smart_core::{
    InTransitConfig, Producer, ProducerOutcome, RunStats, SmartError, SmartResult, Topology,
};

/// What one serving staging rank produced.
#[derive(Debug)]
pub struct ServeStagerOutcome {
    /// Handles for the jobs this stager's `make_serve` submitted, in
    /// submission order. Per-step results were delivered to them live;
    /// they are returned here so the caller can drain them after the run.
    pub handles: Vec<JobHandle>,
    /// Time-steps this stager processed (rounds with at least one active
    /// producer anywhere in the staging group).
    pub steps: usize,
    /// Driver stats over all steps and jobs, with the `transit_*`
    /// counters filled in.
    pub stats: RunStats,
    /// Per-producer stream counters, indexed like
    /// [`Topology::producers_of`].
    pub streams: Vec<StreamRecvStats>,
}

/// Per-rank results of an in-transit serve run. Errors stay per-rank,
/// exactly like [`smart_core::InTransitOutcome`].
#[derive(Debug)]
pub struct ServeOutcome<R> {
    /// Producer results, indexed by producer world rank.
    pub producers: Vec<SmartResult<ProducerOutcome<R>>>,
    /// Stager results, indexed by staging index.
    pub stagers: Vec<SmartResult<ServeStagerOutcome>>,
}

impl<R> ServeOutcome<R> {
    /// All-or-nothing view: the per-rank outcomes, or the first error.
    pub fn into_result(self) -> SmartResult<(Vec<ProducerOutcome<R>>, Vec<ServeStagerOutcome>)> {
        let mut producers = Vec::with_capacity(self.producers.len());
        for p in self.producers {
            producers.push(p?);
        }
        let mut stagers = Vec::with_capacity(self.stagers.len());
        for s in self.stagers {
            stagers.push(s?);
        }
        Ok((producers, stagers))
    }
}

/// Run the multi-tenant service tier in-transit: `topo.producers`
/// simulation ranks stream each time-step **once** to `topo.stagers`
/// staging ranks, each of which serves every job its registry admitted.
///
/// `producer` runs once per simulation rank with the unchanged
/// [`Producer`] handle. `make_serve` runs once per staging rank and
/// returns that rank's [`ServeDriver`] (stats collection is switched on by
/// this runner) plus the job handles its submissions produced — **every
/// staging rank must submit an identical job sequence**, because each
/// distributed step runs one global combination per job in the driver's
/// deterministic order.
///
/// Failures stay per-rank; admission rejections happen inside
/// `make_serve` (where `Registry::submit` returns its typed error) and
/// never stall the stream.
pub fn run_in_transit_serve<In, R, FP, FS>(
    topo: Topology,
    config: InTransitConfig,
    producer: FP,
    make_serve: FS,
) -> ServeOutcome<R>
where
    In: Serialize + DeserializeOwned + Clone + Send + Sync + 'static,
    R: Send,
    FP: Fn(&mut Producer<In>) -> SmartResult<R> + Sync,
    FS: Fn(usize) -> SmartResult<(ServeDriver<In>, Vec<JobHandle>)> + Sync,
{
    let world = smart_comm::universe(topo.world_size(), config.comm.clone());
    let staging = smart_comm::universe(topo.stagers, config.comm.clone());
    let stream_cfg = &config.stream;
    let producer = &producer;
    let make_serve = &make_serve;

    let mut world = world.into_iter();
    let producer_comms: Vec<Communicator> = world.by_ref().take(topo.producers).collect();
    let stager_comms: Vec<(Communicator, Communicator)> = world.zip(staging).collect();

    smart_sync::thread::scope(|scope| {
        let producer_handles: Vec<_> = producer_comms
            .into_iter()
            .enumerate()
            .map(|(p, comm)| {
                let cfg = stream_cfg.clone();
                scope.spawn(move || -> SmartResult<ProducerOutcome<R>> {
                    let mut handle = Producer::attach(comm, topo, p, cfg);
                    let result = producer(&mut handle)?;
                    let stream = handle.finish_stream()?;
                    Ok(ProducerOutcome { result, stream })
                })
            })
            .collect();

        let stager_handles: Vec<_> = stager_comms
            .into_iter()
            .enumerate()
            .map(|(s, (mut comm, mut staging_comm))| {
                scope.spawn(move || -> SmartResult<ServeStagerOutcome> {
                    let (mut driver, handles) = make_serve(s)?;
                    driver.set_collect_stats(true);
                    let mut rxs: Vec<StreamReceiver<In>> =
                        topo.producers_of(s).map(StreamReceiver::new).collect();
                    let mut steps = 0usize;
                    loop {
                        // One chunk per still-active producer this round.
                        let me = topo.stager_world_rank(s);
                        let mut owned: Vec<(usize, Vec<In>)> = Vec::with_capacity(rxs.len());
                        for rx in rxs.iter_mut().filter(|rx| !rx.is_finished()) {
                            if let Some((_step, offset, data)) =
                                rx.recv(&mut comm).map_err(|e| SmartError::Comm(e).at(me, steps))?
                            {
                                owned.push((offset, data));
                            }
                        }
                        // Ragged termination, exactly as in the core
                        // runner: the staging group keeps stepping until
                        // every stream is dry, so each job's per-step
                        // global combination always has all stagers
                        // participating.
                        let active = u64::from(!owned.is_empty());
                        let any = staging_comm
                            .allreduce(active, |a, b| a.max(b))
                            .map_err(|e| SmartError::Comm(e).at(me, steps))?;
                        if any == 0 {
                            break;
                        }
                        let parts: Vec<(usize, &[In])> =
                            owned.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                        driver.step(&parts, Some(&mut staging_comm))?;
                        steps += 1;
                    }
                    let mut stats = driver.finish();
                    for rx in &rxs {
                        stats.absorb_stream_recv(rx.stats());
                    }
                    Ok(ServeStagerOutcome {
                        handles,
                        steps,
                        stats,
                        streams: rxs.into_iter().map(|rx| rx.stats().clone()).collect(),
                    })
                })
            })
            .collect();

        let producers: Vec<SmartResult<ProducerOutcome<R>>> = producer_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        let mut stagers: Vec<SmartResult<ServeStagerOutcome>> = stager_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();

        // Fold the simulation-side send time into each staging group's
        // stats once the producer threads have joined (mirrors the core
        // runner's accounting).
        for (s, stager) in stagers.iter_mut().enumerate() {
            if let Ok(stager) = stager {
                for p in topo.producers_of(s) {
                    // PANIC-FREE: producers_of yields world ranks < topo.producers = producers.len().
                    if let Ok(prod) = &producers[p] {
                        stager.stats.absorb_stream_send(&prod.stream);
                    }
                }
            }
        }

        ServeOutcome { producers, stagers }
    })
}
