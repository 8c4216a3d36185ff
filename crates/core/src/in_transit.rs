//! In-transit analytics: the third placement, on dedicated staging ranks.
//!
//! The paper's two in-situ modes (§3.2) co-locate analytics with the
//! simulation — time-sharing interleaves them on the same cores,
//! space-sharing splits the cores of each node. The in-situ literature's
//! third placement, *in-transit*, moves analytics off the simulation nodes
//! entirely: a small set of **staging ranks** receives wire-serialized
//! time-step partitions over the interconnect and runs the full Smart
//! pipeline (reduction map → local combination → global combination *among
//! staging ranks only*), while the simulation ranks run unblocked except
//! for streaming backpressure.
//!
//! The moving parts:
//!
//! * [`Topology`] partitions a `producers + staging_ranks` world: producer
//!   world ranks `0..P` each stream to one stager (block mapping, so halo
//!   neighbourhoods stay contiguous), stager world ranks `P..P+S` each
//!   serve a contiguous producer group.
//! * Transport is `smart_comm`'s credit-based stream
//!   ([`smart_comm::StreamSender`]/[`smart_comm::StreamReceiver`]): the
//!   producer's only blocking point is the credit window, so a slow stager
//!   throttles its producers to bounded lookahead instead of OOMing.
//! * Each stager drives one [`Scheduler`] over *all* its producers'
//!   partitions per time-step via
//!   [`Scheduler::run_parts_dist`]/[`Scheduler::run2_parts_dist`], so a
//!   step costs one local + one global combination regardless of the
//!   producer-to-stager fan-in — and the resulting combination map is
//!   identical to what the in-situ placements compute (the equivalence
//!   suite checks this bit-for-bit).
//! * Stagers share a second, staging-only communicator universe for global
//!   combination and for agreeing on termination when streams end raggedly
//!   (an idle stager keeps calling the collectives with an empty partition
//!   set until every stream is dry).
//!
//! [`run_in_transit`] wires it all together on threads, one per world rank,
//! and reports per-rank results plus the stats surface shared with the
//! in-situ modes ([`RunStats`] including the `transit_*` counters).

use crate::api::Analytics;
use crate::error::{SmartError, SmartResult};
use crate::observer::RunStats;
use crate::scheduler::Scheduler;
use crate::step::{KeyMode, StepSpec};
use serde::de::DeserializeOwned;
use serde::Serialize;
use smart_comm::{
    CommConfig, Communicator, StreamConfig, StreamReceiver, StreamRecvStats, StreamSendStats,
    StreamSender,
};

/// Where analytics runs relative to the simulation — the placement axis the
/// benchmark harness sweeps. The two in-situ variants are the paper's §3.2
/// modes; `InTransit` is the dedicated-staging-rank placement this module
/// adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Analytics borrows the simulation's cores and output buffer between
    /// time-steps ([`Scheduler::run_dist`]).
    TimeSharing,
    /// Analytics drains a bounded in-memory buffer on its own core group
    /// ([`crate::space::SpaceShared`]).
    SpaceSharing {
        /// Capacity (in time-steps) of the circular buffer between the
        /// simulation and analytics tasks.
        buffer_capacity: usize,
    },
    /// Analytics runs on dedicated staging ranks fed over the interconnect
    /// ([`run_in_transit`]).
    InTransit {
        /// Number of staging ranks.
        staging_ranks: usize,
        /// Credit window per producer stream (see [`StreamConfig::window`]).
        window: usize,
    },
}

impl Placement {
    /// Short label for tables and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Placement::TimeSharing => "time-sharing",
            Placement::SpaceSharing { .. } => "space-sharing",
            Placement::InTransit { .. } => "in-transit",
        }
    }
}

/// Configuration for one in-transit run.
#[derive(Debug, Clone, Default)]
pub struct InTransitConfig {
    /// Flow-control and coalescing knobs for every producer→stager stream.
    pub stream: StreamConfig,
    /// Communicator configuration for both universes (cost model, lock
    /// mode).
    pub comm: CommConfig,
}

impl InTransitConfig {
    /// Default transport with the given credit window.
    pub fn with_window(window: usize) -> Self {
        InTransitConfig { stream: StreamConfig::with_window(window), ..Default::default() }
    }

    /// Replace the stream configuration.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Replace the communicator configuration.
    pub fn with_comm(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }
}

/// The producer↔stager partition of a `producers + stagers` world.
///
/// Producers take world ranks `0..producers` (so a simulation written
/// against rank/size halo exchange runs unmodified among them); stagers
/// take world ranks `producers..producers+stagers`. The block mapping
/// assigns each stager a contiguous run of producers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Simulation (producer) rank count.
    pub producers: usize,
    /// Staging (analytics) rank count.
    pub stagers: usize,
}

impl Topology {
    /// A topology of `producers` simulation ranks and `stagers` staging
    /// ranks.
    ///
    /// # Panics
    /// Panics unless `0 < stagers <= producers`.
    pub fn new(producers: usize, stagers: usize) -> Self {
        assert!(stagers > 0, "in-transit needs at least one staging rank");
        assert!(
            stagers <= producers,
            "more stagers ({stagers}) than producers ({producers}) leaves idle stagers"
        );
        Topology { producers, stagers }
    }

    /// Total world size (producers + stagers).
    pub fn world_size(&self) -> usize {
        self.producers + self.stagers
    }

    /// The staging index (`0..stagers`) serving producer `p`.
    pub fn stager_of(&self, p: usize) -> usize {
        debug_assert!(p < self.producers);
        p * self.stagers / self.producers
    }

    /// The world rank of staging index `s`.
    pub fn stager_world_rank(&self, s: usize) -> usize {
        debug_assert!(s < self.stagers);
        self.producers + s
    }

    /// The contiguous producer world ranks served by staging index `s`.
    pub fn producers_of(&self, s: usize) -> std::ops::Range<usize> {
        debug_assert!(s < self.stagers);
        let lo = (s * self.producers).div_ceil(self.stagers);
        let hi = ((s + 1) * self.producers).div_ceil(self.stagers);
        lo..hi
    }

    /// The staging index that serves producer `p` under failures: the first
    /// stager for which `alive` holds, scanning upward (wrapping) from the
    /// block assignment [`stager_of`](Self::stager_of). With every stager
    /// alive this is exactly `stager_of(p)`; after deaths, each orphaned
    /// producer block lands on its clockwise-next surviving stager —
    /// deterministic, so producers and surviving stagers agree on the
    /// healed topology from the alive mask alone, with no coordinator.
    /// Returns `None` when no stager is alive.
    pub fn rebalanced_stager_of(&self, p: usize, alive: impl Fn(usize) -> bool) -> Option<usize> {
        debug_assert!(p < self.producers);
        let start = self.stager_of(p);
        (0..self.stagers).map(|d| (start + d) % self.stagers).find(|&s| alive(s))
    }

    /// The producers a *surviving* stager serves under the
    /// [`rebalanced_stager_of`](Self::rebalanced_stager_of) rule: its own
    /// block plus any orphaned blocks that wrapped onto it.
    pub fn rebalanced_producers_of(&self, s: usize, alive: impl Fn(usize) -> bool) -> Vec<usize> {
        debug_assert!(s < self.stagers);
        (0..self.producers).filter(|&p| self.rebalanced_stager_of(p, &alive) == Some(s)).collect()
    }
}

/// The simulation side's handle inside [`run_in_transit`]: a world
/// communicator (for halo exchange among producers) plus the stream to this
/// producer's stager.
pub struct Producer<In> {
    comm: Communicator,
    tx: Option<StreamSender<In>>,
    index: usize,
    topo: Topology,
    steps_fed: usize,
}

impl<In: Serialize> Producer<In> {
    /// Build a producer handle outside [`run_in_transit`]: `comm` is this
    /// rank's world communicator (world rank `index`), and the stream to
    /// the block-assigned stager is opened with `cfg`. For drivers that
    /// spawn their own rank threads (the service tier's in-transit driver)
    /// but must reuse the exact producer-side transport — same stream,
    /// same error contexts — so the simulation side stays unchanged no
    /// matter how many jobs the stagers serve.
    pub fn attach(comm: Communicator, topo: Topology, index: usize, cfg: StreamConfig) -> Self {
        debug_assert!(index < topo.producers);
        let stager = topo.stager_world_rank(topo.stager_of(index));
        Producer { comm, tx: Some(StreamSender::new(stager, cfg)), index, topo, steps_fed: 0 }
    }

    /// Flush the stream, mark end-of-stream to the stager, and return the
    /// send-side counters. Companion to [`attach`](Self::attach) for
    /// drivers that own the producer lifecycle themselves.
    pub fn finish_stream(self) -> SmartResult<StreamSendStats> {
        self.finish()
    }

    /// This producer's index (also its world rank): `0..producers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Producer count — the `size` a rank/size-partitioned simulation
    /// should use.
    pub fn producers(&self) -> usize {
        self.topo.producers
    }

    /// The world communicator, for producer↔producer traffic (halo
    /// exchanges). Producers occupy world ranks `0..producers`, so
    /// simulations built on rank/size partitioning run unmodified.
    pub fn comm(&mut self) -> &mut Communicator {
        &mut self.comm
    }

    /// Stream one time-step partition to this producer's stager; `offset`
    /// is the partition's first global element index. Returns as soon as
    /// the data is serialized and handed to the transport — blocks only on
    /// the credit window. A dead stager surfaces as
    /// [`SmartError::Context`] naming this producer's world rank and the
    /// time-step being fed, wrapping the transport's `PeerGone`.
    pub fn feed(&mut self, offset: usize, step: &[In]) -> SmartResult<()> {
        // PANIC-FREE: only finish() clears tx, and finish() consumes self, so no later call can observe None.
        let tx = self.tx.as_mut().expect("stream already finished");
        let (rank, at) = (self.index, self.steps_fed);
        tx.feed(&mut self.comm, offset, step).map_err(|e| SmartError::Comm(e).at(rank, at))?;
        self.steps_fed += 1;
        Ok(())
    }

    fn finish(mut self) -> SmartResult<StreamSendStats> {
        // PANIC-FREE: finish() consumes self and is the only place that clears tx, so tx is still Some here.
        let tx = self.tx.take().expect("stream already finished");
        let (rank, at) = (self.index, self.steps_fed);
        tx.finish(&mut self.comm).map_err(|e| SmartError::Comm(e).at(rank, at))
    }
}

/// What one producer rank produced: the simulation closure's return value
/// plus the stream-side counters.
#[derive(Debug)]
pub struct ProducerOutcome<R> {
    /// The producer closure's return value.
    pub result: R,
    /// Producer-side stream counters (send busy time, credit waits, bytes).
    pub stream: StreamSendStats,
}

/// What one staging rank produced.
#[derive(Debug)]
pub struct StagerOutcome<Out> {
    /// The output buffer after the final time-step's conversion.
    pub out: Vec<Out>,
    /// The final combination map in canonical form: `smart_wire` bytes of
    /// the key-sorted entries. Every stager holds the same global map, and
    /// it is byte-comparable against an in-situ run's map.
    pub map_bytes: Vec<u8>,
    /// Time-steps this stager processed (rounds with at least one active
    /// producer anywhere in the staging group).
    pub steps: usize,
    /// Scheduler stats accumulated over all steps, with the `transit_*`
    /// counters filled in ([`RunStats::transit_recv_busy`],
    /// [`RunStats::transit_decode_busy`], [`RunStats::transit_bytes`];
    /// [`RunStats::transit_send_busy`] and
    /// [`RunStats::transit_encode_busy`] aggregate this stager's
    /// producers).
    pub stats: RunStats,
    /// Per-producer stream counters, indexed like
    /// [`Topology::producers_of`].
    pub streams: Vec<StreamRecvStats>,
}

/// Per-rank results of an in-transit run. Errors stay per-rank: a stager
/// failure surfaces as `Err(Comm(PeerGone))` in every affected producer
/// slot rather than poisoning the whole run.
#[derive(Debug)]
pub struct InTransitOutcome<R, Out> {
    /// Producer results, indexed by producer world rank.
    pub producers: Vec<SmartResult<ProducerOutcome<R>>>,
    /// Stager results, indexed by staging index.
    pub stagers: Vec<SmartResult<StagerOutcome<Out>>>,
}

/// The `(producers, stagers)` outcomes of a fully successful in-transit run.
pub type InTransitOk<R, Out> = (Vec<ProducerOutcome<R>>, Vec<StagerOutcome<Out>>);

impl<R, Out> InTransitOutcome<R, Out> {
    /// All-or-nothing view: the per-rank outcomes, or the first error.
    pub fn into_result(self) -> SmartResult<InTransitOk<R, Out>> {
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

/// Run an in-transit analytics job: `topo.producers` simulation ranks
/// streaming to `topo.stagers` staging ranks.
///
/// `producer` runs once per simulation rank with a [`Producer`] handle — it
/// drives its simulation partition, calls [`Producer::feed`] once per
/// time-step, and may use [`Producer::comm`] for halo exchange; the stream
/// is flushed and end-of-stream marked when it returns. `make_stager` runs
/// once per staging rank and builds that rank's [`Scheduler`] and output
/// buffer; the driver then consumes one chunk per producer per round and
/// feeds them as one multi-partition step
/// ([`Scheduler::run_parts_dist`]/[`Scheduler::run2_parts_dist`] per
/// `key_mode`), with global combination over the staging-only universe.
///
/// All ranks run as threads of this call; it returns when every rank is
/// done. Failures stay per-rank in the [`InTransitOutcome`] — a dead stager
/// surfaces as `PeerGone` to exactly its producers, never a hang.
pub fn run_in_transit<A, R, FP, FS>(
    topo: Topology,
    config: InTransitConfig,
    key_mode: KeyMode,
    producer: FP,
    make_stager: FS,
) -> InTransitOutcome<R, A::Out>
where
    A: Analytics,
    A::In: Serialize + DeserializeOwned + Clone,
    R: Send,
    FP: Fn(&mut Producer<A::In>) -> SmartResult<R> + Sync,
    FS: Fn(usize) -> SmartResult<(Scheduler<A>, Vec<A::Out>)> + Sync,
{
    let world = smart_comm::universe(topo.world_size(), config.comm.clone());
    let staging = smart_comm::universe(topo.stagers, config.comm.clone());
    let stream_cfg = &config.stream;
    let producer = &producer;
    let make_stager = &make_stager;

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
                    let stream = handle.finish()?;
                    Ok(ProducerOutcome { result, stream })
                })
            })
            .collect();

        let stager_handles: Vec<_> = stager_comms
            .into_iter()
            .enumerate()
            .map(|(s, (mut comm, mut staging_comm))| {
                scope.spawn(move || -> SmartResult<StagerOutcome<A::Out>> {
                    let (mut sched, mut out) = make_stager(s)?;
                    sched.set_collect_stats(true);
                    let mut rxs: Vec<StreamReceiver<A::In>> =
                        topo.producers_of(s).map(StreamReceiver::new).collect();
                    let mut stats = RunStats::default();
                    let mut steps = 0usize;
                    loop {
                        // One chunk per still-active producer this round.
                        let me = topo.stager_world_rank(s);
                        let mut owned: Vec<(usize, Vec<A::In>)> = Vec::with_capacity(rxs.len());
                        for rx in rxs.iter_mut().filter(|rx| !rx.is_finished()) {
                            if let Some((_step, offset, data)) =
                                rx.recv(&mut comm).map_err(|e| SmartError::Comm(e).at(me, steps))?
                            {
                                owned.push((offset, data));
                            }
                        }
                        // Ragged termination: the staging group keeps
                        // stepping (with empty partition sets where
                        // necessary) until *every* stream is dry, so the
                        // per-step global combination always has all
                        // stagers participating.
                        let active = u64::from(!owned.is_empty());
                        let any = staging_comm
                            .allreduce(active, |a, b| a.max(b))
                            .map_err(|e| SmartError::Comm(e).at(me, steps))?;
                        if any == 0 {
                            break;
                        }
                        let parts: Vec<(usize, &[A::In])> =
                            owned.iter().map(|(o, d)| (*o, d.as_slice())).collect();
                        sched.execute(
                            StepSpec::new(&parts)
                                .with_key_mode(key_mode)
                                .with_comm(Some(&mut staging_comm)),
                            &mut out,
                        )?;
                        stats.absorb(sched.last_stats());
                        steps += 1;
                    }
                    for rx in &rxs {
                        stats.absorb_stream_recv(rx.stats());
                    }
                    let map_bytes = sched.canonical_map_bytes()?;
                    Ok(StagerOutcome {
                        out,
                        map_bytes,
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
        let mut stagers: Vec<SmartResult<StagerOutcome<A::Out>>> = stager_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();

        // The simulation-side send time is known only after the producer
        // threads join; fold each staging group's aggregate into its
        // stager's stats so the mode reports one coherent surface.
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

        InTransitOutcome { producers, stagers }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Chunk, ComMap, Key, RedObj};
    use crate::args::SchedArgs;
    use serde::Deserialize;
    use smart_pool::shared_pool;

    #[test]
    fn topology_block_mapping_is_contiguous_and_total() {
        for (producers, stagers) in [(4, 2), (5, 2), (7, 3), (3, 3), (8, 1)] {
            let topo = Topology::new(producers, stagers);
            let mut seen = Vec::new();
            for s in 0..stagers {
                for p in topo.producers_of(s) {
                    assert_eq!(topo.stager_of(p), s, "P={producers} S={stagers} p={p}");
                    seen.push(p);
                }
            }
            assert_eq!(seen, (0..producers).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "more stagers")]
    fn topology_rejects_more_stagers_than_producers() {
        Topology::new(2, 3);
    }

    /// With every stager alive the rebalanced mapping is the block mapping;
    /// with deaths, every producer lands on a surviving stager and the
    /// per-stager view agrees with the per-producer view (total, no
    /// coordinator needed).
    #[test]
    fn rebalanced_topology_is_total_and_consistent() {
        for (producers, stagers) in [(4, 2), (7, 3), (8, 4), (5, 5)] {
            let topo = Topology::new(producers, stagers);
            for p in 0..producers {
                assert_eq!(topo.rebalanced_stager_of(p, |_| true), Some(topo.stager_of(p)));
            }
            // Kill each stager in turn, then each pair.
            for dead_mask in 1u32..(1 << stagers) {
                let alive = |s: usize| dead_mask & (1 << s) == 0;
                let any_alive = (0..stagers).any(alive);
                let mut seen = Vec::new();
                for s in (0..stagers).filter(|&s| alive(s)) {
                    for p in topo.rebalanced_producers_of(s, alive) {
                        assert_eq!(topo.rebalanced_stager_of(p, alive), Some(s));
                        seen.push(p);
                    }
                }
                seen.sort_unstable();
                if any_alive {
                    assert_eq!(seen, (0..producers).collect::<Vec<_>>(), "mask {dead_mask:b}");
                } else {
                    assert!(seen.is_empty());
                    assert_eq!(topo.rebalanced_stager_of(0, alive), None);
                }
            }
        }
    }

    /// Orphaned producers move clockwise: when stager 1 of 3 dies, its
    /// block lands on stager 2, not stager 0.
    #[test]
    fn rebalance_scans_clockwise_from_the_home_stager() {
        let topo = Topology::new(6, 3);
        let alive = |s: usize| s != 1;
        for p in topo.producers_of(1) {
            assert_eq!(topo.rebalanced_stager_of(p, alive), Some(2));
        }
        // The last stager's orphans wrap around to the first.
        let alive = |s: usize| s != 2;
        for p in topo.producers_of(2) {
            assert_eq!(topo.rebalanced_stager_of(p, alive), Some(0));
        }
    }

    #[derive(Clone, Serialize, Deserialize, Default, Debug)]
    struct Acc {
        sum: f64,
        n: u64,
    }
    impl RedObj for Acc {}

    struct SumPerProducerBlock;
    impl Analytics for SumPerProducerBlock {
        type In = f64;
        type Red = Acc;
        type Out = f64;
        type Extra = ();
        fn gen_key(&self, chunk: &Chunk, _d: &[f64], _com: &ComMap<Acc>) -> Key {
            (chunk.global_start / 8) as Key
        }
        fn accumulate(&self, c: &Chunk, d: &[f64], _k: Key, obj: &mut Option<Acc>) {
            let a = obj.get_or_insert_with(Acc::default);
            a.sum += d[c.local_start];
            a.n += 1;
        }
        fn merge(&self, red: &Acc, com: &mut Acc) {
            com.sum += red.sum;
            com.n += red.n;
        }
        fn convert(&self, obj: &Acc, out: &mut f64) {
            *out = obj.sum;
        }
    }

    /// 4 producers × 3 steps of an 8-element partition, 2 stagers: keys are
    /// producer blocks, so the global map must hold every producer's sums
    /// on every stager.
    #[test]
    fn producers_stream_and_stagers_agree_on_the_global_map() {
        let topo = Topology::new(4, 2);
        let steps = 3usize;
        let outcome = run_in_transit(
            topo,
            InTransitConfig::with_window(2),
            KeyMode::Single,
            |prod: &mut Producer<f64>| {
                let offset = prod.index() * 8;
                for t in 0..steps {
                    let data: Vec<f64> =
                        (0..8).map(|i| ((t * 31 + prod.index() * 7 + i) % 13) as f64).collect();
                    prod.feed(offset, &data)?;
                }
                Ok(prod.index())
            },
            |_s| {
                let pool = shared_pool(2)?;
                let sched = Scheduler::new(SumPerProducerBlock, SchedArgs::new(2, 1), pool)?;
                Ok((sched, vec![0.0f64; 4]))
            },
        );
        let (producers, stagers) = outcome.into_result().unwrap();
        assert_eq!(producers.len(), 4);
        for (p, prod) in producers.iter().enumerate() {
            assert_eq!(prod.result, p);
            assert_eq!(prod.stream.steps, steps as u64);
        }
        assert_eq!(stagers.len(), 2);
        // Global combination: both stagers end with the same map and the
        // same converted output.
        assert_eq!(stagers[0].map_bytes, stagers[1].map_bytes);
        assert_eq!(stagers[0].out, stagers[1].out);
        for stager in &stagers {
            assert_eq!(stager.steps, steps);
            assert!(stager.stats.transit_bytes > 0);
            assert_eq!(stager.stats.iters, steps);
            // Expected per-producer sums, computed serially.
            for p in 0..4 {
                let expected: f64 = (0..steps)
                    .flat_map(|t| (0..8).map(move |i| ((t * 31 + p * 7 + i) % 13) as f64))
                    .sum();
                assert_eq!(stager.out[p], expected, "producer {p}");
            }
        }
    }

    /// Producers with different step counts: the staging group must drain
    /// the longer streams without deadlocking on the global combination.
    #[test]
    fn ragged_stream_lengths_terminate_cleanly() {
        let topo = Topology::new(3, 2);
        let outcome = run_in_transit(
            topo,
            InTransitConfig::with_window(1),
            KeyMode::Single,
            |prod: &mut Producer<f64>| {
                let steps = 2 + prod.index() * 2; // 2, 4, 6 steps
                for _ in 0..steps {
                    prod.feed(prod.index() * 8, &[1.0; 8])?;
                }
                Ok(steps)
            },
            |_s| {
                let pool = shared_pool(1)?;
                let sched = Scheduler::new(SumPerProducerBlock, SchedArgs::new(1, 1), pool)?;
                Ok((sched, Vec::new()))
            },
        );
        let (producers, stagers) = outcome.into_result().unwrap();
        let total_steps: usize = producers.iter().map(|p| p.result).sum();
        assert_eq!(total_steps, 2 + 4 + 6);
        // Every stager runs max-stream-length rounds.
        assert_eq!(stagers[0].steps, 6);
        assert_eq!(stagers[1].steps, 6);
        assert_eq!(stagers[0].map_bytes, stagers[1].map_bytes);
        let delivered: u64 = stagers.iter().flat_map(|s| s.streams.iter().map(|st| st.steps)).sum();
        assert_eq!(delivered, 12);
    }

    /// A stager that dies at startup must surface as *contextual* errors:
    /// its producer reports its own rank and the step it was feeding, the
    /// surviving stager reports its world rank and round — never a bare
    /// `PeerGone`.
    #[test]
    fn stager_death_surfaces_with_rank_and_step_context() {
        let topo = Topology::new(2, 2);
        let outcome = run_in_transit(
            topo,
            InTransitConfig::with_window(1),
            KeyMode::Single,
            |prod: &mut Producer<f64>| {
                for _ in 0..50 {
                    prod.feed(prod.index() * 8, &[1.0; 8])?;
                }
                Ok(())
            },
            |s| {
                if s == 1 {
                    return Err(SmartError::BadArgs("stager 1 refused to start".into()));
                }
                let pool = shared_pool(1)?;
                let sched = Scheduler::new(SumPerProducerBlock, SchedArgs::new(1, 1), pool)?;
                Ok((sched, Vec::new()))
            },
        );
        // Producer 1 fed the dead stager: its error names producer rank 1.
        let err = outcome.producers[1].as_ref().expect_err("producer 1 lost its stager");
        match err {
            SmartError::Context { rank: 1, source, .. } => {
                assert!(matches!(**source, SmartError::Comm(_)), "{source}");
            }
            other => panic!("expected contextual error, got {other}"),
        }
        assert!(err.to_string().contains("rank 1"), "{err}");
        // Stager 0's staging-group collective lost its peer: its error
        // carries location context too (rank + step are in the message).
        let err = outcome.stagers[0].as_ref().expect_err("stager 0 lost its staging peer");
        assert!(matches!(err, SmartError::Context { .. }), "{err}");
        assert!(err.to_string().contains("step"), "{err}");
    }
}
