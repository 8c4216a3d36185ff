//! Self-healing in-transit drive: stager death mid-run reroutes the
//! orphaned producer streams to surviving stagers without losing or
//! double-counting a single chunk.
//!
//! # Protocol
//!
//! The drive layers three mechanisms over the plain in-transit mode
//! (`smart_core::run_in_transit`):
//!
//! **Replay-buffer failover (producer side).** Streams run with
//! `retain_unacked` forced on: every sent chunk stays buffered until the
//! stager acknowledges it. When a send or ack-wait surfaces `PeerGone`, the
//! producer consults [`Topology::rebalanced_stager_of`] over the alive set
//! its own communicator observed and calls `StreamSender::failover`, which
//! re-queues the unacknowledged suffix for the replacement stager. The
//! alive scan is deterministic from the alive mask, so the producer and the
//! adopting stager converge on the same reroute with no coordinator.
//!
//! **Deferred crediting as a commit protocol (stager side).** Stagers pull
//! chunks with `recv_deferred` and withhold the acknowledgement until the
//! round that consumed the chunk has *globally committed*. An acknowledged
//! chunk is therefore durably merged into every survivor's combination map
//! and must never be replayed; an unacknowledged one is replayed to the
//! adopter and either consumed (its round never committed) or skip-acked
//! (its round committed — the replay is a duplicate).
//!
//! **Heal rounds (staging group).** Each round runs
//! sync → adopt → activity vote → execute → commit over control exchanges
//! on the staging communicator. Deaths are fail-stop at round boundaries
//! (see [`FaultPlan`]), so every survivor observes a death in the *same*
//! exchange: the group agrees on the dead set, deterministically adopts the
//! orphaned streams, rolls the scheduler back to its pre-round snapshot if
//! the round had started, and retries the round over the surviving
//! topology. Global combination uses [`CombineStrategy::Gossip`] — the one
//! strategy whose collective survives a shrinking rank set.

use crate::inject::FaultPlan;
use serde::de::DeserializeOwned;
use serde::Serialize;
use smart_comm::{
    CommError, Communicator, StreamReceiver, StreamRecvStats, StreamSendStats, StreamSender, Tag,
};
use smart_core::{
    Analytics, CombineStrategy, InTransitConfig, KeyMode, ProducerOutcome, RunStats, Scheduler,
    SmartError, SmartResult, StepSpec, Topology,
};

/// Base tag for the heal drive's control exchanges on the staging
/// communicator — the `FT_CTL` namespace claimed in `smart_comm::tags`,
/// disjoint from user tags, `FT_TAG_BASE` heartbeats, and the streaming
/// transport's `STREAM_BASE`.
pub const FT_CTL_BASE: Tag = smart_comm::tags::FT_CTL_BASE;

const OP_SYNC: u64 = 1;
const OP_ACTIVE: u64 = 2;
const OP_COMMIT: u64 = 3;

/// The simulation side's handle inside [`run_in_transit_healing`]: like
/// `smart_core::Producer`, but [`feed`](Self::feed) survives stager death
/// by rerouting the stream (replaying its unacknowledged suffix) to the
/// clockwise-next surviving stager.
pub struct FtProducer<In> {
    comm: Communicator,
    tx: Option<StreamSender<In>>,
    index: usize,
    topo: Topology,
    steps_fed: usize,
    plan: FaultPlan,
}

impl<In: Serialize> FtProducer<In> {
    /// This producer's index (also its world rank): `0..producers`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Producer count — the `size` a rank/size-partitioned simulation
    /// should use.
    pub fn producers(&self) -> usize {
        self.topo.producers
    }

    /// The world communicator, for producer↔producer traffic.
    pub fn comm(&mut self) -> &mut Communicator {
        &mut self.comm
    }

    /// World rank of the stager currently receiving this stream (changes
    /// after a reroute).
    pub fn stager(&self) -> usize {
        // PANIC-FREE: only finish() clears tx, and finish() consumes self, so no later call can observe None.
        self.tx.as_ref().expect("stream already finished").peer()
    }

    /// Stream one time-step partition, rerouting on stager death.
    ///
    /// `StreamSender::feed` queues the chunk *before* flushing, so when the
    /// flush surfaces `PeerGone` the chunk already sits in the replay
    /// buffer — the reroute must not (and does not) feed it again; the next
    /// flush delivers the whole unacknowledged suffix to the replacement.
    pub fn feed(&mut self, offset: usize, step: &[In]) -> SmartResult<()> {
        self.plan.check(self.index, self.steps_fed)?;
        // PANIC-FREE: only finish() clears tx, and finish() consumes self, so no later call can observe None.
        let tx = self.tx.as_mut().expect("stream already finished");
        if let Err(e) = tx.feed(&mut self.comm, offset, step) {
            match e {
                CommError::PeerGone { peer } => {
                    reroute(&mut self.comm, tx, self.topo, self.index, self.steps_fed, peer)?;
                }
                other => return Err(SmartError::Comm(other).at(self.index, self.steps_fed)),
            }
        }
        self.steps_fed += 1;
        Ok(())
    }

    /// Flush end-of-stream and wait until every chunk is acknowledged —
    /// i.e. globally committed — rerouting as often as stagers die under
    /// it.
    fn finish(mut self) -> SmartResult<StreamSendStats> {
        // PANIC-FREE: finish() consumes self and is the only place that clears tx, so tx is still Some here.
        let mut tx = self.tx.take().expect("stream already finished");
        loop {
            match tx.finish_wait_acked(&mut self.comm) {
                Ok(()) => return Ok(tx.stats().clone()),
                Err(CommError::PeerGone { peer }) => {
                    reroute(&mut self.comm, &mut tx, self.topo, self.index, self.steps_fed, peer)?;
                }
                Err(e) => return Err(SmartError::Comm(e).at(self.index, self.steps_fed)),
            }
        }
    }
}

/// Point the stream at the clockwise-next surviving stager. Fails (with
/// rank/step context) only when every stager is dead.
fn reroute<In: Serialize>(
    comm: &mut Communicator,
    tx: &mut StreamSender<In>,
    topo: Topology,
    rank: usize,
    at: usize,
    dead: usize,
) -> SmartResult<()> {
    comm.mark_dead(dead);
    let next = topo
        .rebalanced_stager_of(rank, |s| comm.is_alive(topo.stager_world_rank(s)))
        .ok_or_else(|| SmartError::Comm(CommError::PeerGone { peer: dead }).at(rank, at))?;
    tx.failover(topo.stager_world_rank(next));
    Ok(())
}

/// What one surviving stager produced.
#[derive(Debug)]
pub struct HealedStagerOutcome<Out> {
    /// The output buffer after the final round's conversion.
    pub out: Vec<Out>,
    /// The final combination map in canonical form (`smart_wire` bytes of
    /// the key-sorted entries) — byte-comparable against an uninterrupted
    /// run's map.
    pub map_bytes: Vec<u8>,
    /// Rounds this stager committed.
    pub rounds: usize,
    /// Heal events absorbed: deaths observed during control exchanges plus
    /// round attempts discarded and re-run. At least 1 whenever a peer
    /// stager died.
    pub heals: u64,
    /// Orphaned producer streams this stager adopted from dead stagers.
    pub adopted: usize,
    /// Scheduler stats over all committed rounds (discarded attempts are
    /// rolled back and not counted), with the `transit_*` counters filled
    /// in.
    pub stats: RunStats,
    /// Per-stream receive counters, own streams first, adopted after.
    pub streams: Vec<StreamRecvStats>,
}

/// Per-rank results of a healing in-transit run. Ranks killed by the fault
/// plan report `Err(SmartError::Injected { .. })`; survivors report their
/// outcomes, healed around the deaths.
#[derive(Debug)]
pub struct HealOutcome<R, Out> {
    /// One entry per producer, in world-rank order.
    pub producers: Vec<SmartResult<ProducerOutcome<R>>>,
    /// One entry per stager, in staging-index order.
    pub stagers: Vec<SmartResult<HealedStagerOutcome<Out>>>,
}

/// One producer stream at a stager: the receiver plus at most one chunk
/// held back for the current (uncommitted) round.
struct Slot<In> {
    rx: StreamReceiver<In>,
    held: Option<(usize, Vec<In>)>,
    done: bool,
}

impl<In: DeserializeOwned> Slot<In> {
    fn new(producer: usize) -> Self {
        Slot { rx: StreamReceiver::new(producer), held: None, done: false }
    }

    /// Pull until one chunk of round `committed` is held or the stream
    /// ends. Replayed chunks from rounds that already committed are
    /// duplicates: acknowledge them immediately (returning the credit) and
    /// keep pulling. A dead producer truncates its stream — everything it
    /// managed to send is still delivered first, then `PeerGone` marks the
    /// end.
    fn fill(&mut self, comm: &mut Communicator, committed: usize) -> SmartResult<()> {
        while self.held.is_none() && !self.done {
            match self.rx.recv_deferred(comm) {
                Ok(Some((step, offset, data))) => {
                    if (step as usize) < committed {
                        self.rx.ack(comm, 1).map_err(SmartError::Comm)?;
                    } else {
                        debug_assert_eq!(step as usize, committed, "stream rounds are consecutive");
                        self.held = Some((offset, data));
                    }
                }
                Ok(None) => self.done = true,
                Err(CommError::PeerGone { .. }) => self.done = true,
                Err(e) => return Err(SmartError::Comm(e)),
            }
        }
        Ok(())
    }
}

/// Result of one control exchange over the staging group.
enum Exchange<T> {
    /// Everybody answered: the `(rank, value)` pairs, ascending by rank,
    /// including the caller's own.
    Clean(Vec<(usize, T)>),
    /// A death was observed (and recorded in the communicator's alive
    /// set). Deaths are fail-stop at round boundaries, so every survivor
    /// reports `Healed` for the same sequence number.
    Healed,
}

/// Sequenced all-to-all control exchanges among the surviving stagers.
struct Ctl {
    seq: u64,
}

impl Ctl {
    fn tag(&self, op: u64) -> Tag {
        debug_assert!(self.seq < 1 << 25, "control sequence exhausted its tag space");
        FT_CTL_BASE | (self.seq << 8) | op
    }

    fn exchange<T>(
        &mut self,
        comm: &mut Communicator,
        op: u64,
        value: &T,
    ) -> SmartResult<Exchange<T>>
    where
        T: Serialize + DeserializeOwned + Clone,
    {
        let tag = self.tag(op);
        self.seq += 1;
        let me = comm.rank();
        let peers: Vec<usize> = (0..comm.size()).filter(|&r| r != me && comm.is_alive(r)).collect();
        let mut died = false;
        for &r in &peers {
            match comm.send(r, tag, value) {
                Ok(()) => {}
                Err(CommError::PeerGone { .. }) => {
                    comm.mark_dead(r);
                    died = true;
                }
                Err(e) => return Err(SmartError::Comm(e)),
            }
        }
        let mut vals = vec![(me, value.clone())];
        for &r in &peers {
            if !comm.is_alive(r) {
                continue;
            }
            match comm.recv::<T>(r, tag) {
                Ok(v) => vals.push((r, v)),
                Err(CommError::PeerGone { .. }) => {
                    comm.mark_dead(r);
                    died = true;
                }
                Err(e) => return Err(SmartError::Comm(e)),
            }
        }
        if died {
            return Ok(Exchange::Healed);
        }
        vals.sort_unstable_by_key(|&(r, _)| r);
        Ok(Exchange::Clean(vals))
    }

    /// Exchange dead-set masks until every survivor holds the same one;
    /// returns how many deaths-in-progress (`Healed` exchanges) were
    /// absorbed along the way. Converges because the dead set only grows
    /// and is bounded; the agreement predicate ("all reported masks
    /// identical") is computed from the same multiset of masks on every
    /// rank, so the group decides uniformly.
    fn sync_agree(&mut self, comm: &mut Communicator) -> SmartResult<u64> {
        assert!(comm.size() <= 64, "dead-set agreement uses a u64 mask");
        let mut healed = 0;
        loop {
            let mine = dead_mask(comm);
            match self.exchange(comm, OP_SYNC, &mine)? {
                Exchange::Healed => healed += 1,
                Exchange::Clean(masks) => {
                    if masks.iter().all(|&(_, m)| m == mine) {
                        return Ok(healed);
                    }
                    let union = masks.iter().fold(0u64, |acc, &(_, m)| acc | m);
                    for s in 0..comm.size() {
                        if union & (1 << s) != 0 {
                            comm.mark_dead(s);
                        }
                    }
                }
            }
        }
    }
}

fn dead_mask(comm: &Communicator) -> u64 {
    (0..comm.size()).filter(|&r| !comm.is_alive(r)).fold(0u64, |m, r| m | (1 << r))
}

/// `true` when `e` is (or wraps) the transport's `PeerGone` — the one
/// failure the heal loop retries; everything else propagates.
fn is_peer_gone(e: &SmartError) -> bool {
    match e {
        SmartError::Comm(CommError::PeerGone { .. }) => true,
        SmartError::Context { source, .. } => is_peer_gone(source),
        _ => false,
    }
}

enum Round {
    Commit,
    Eos,
}

/// In-transit execution with self-healing placement: like
/// `smart_core::run_in_transit`, plus a [`FaultPlan`] naming at most one
/// rank to kill, stream failover on the producer side, and heal rounds on
/// the staging side. The stream config is forced to `retain_unacked` and
/// the stagers to [`CombineStrategy::Gossip`] — failover and a shrinking
/// collective are what the protocol is made of.
///
/// A killed rank's entry in the returned [`HealOutcome`] is
/// `Err(SmartError::Injected { .. })`; the survivors' combination maps are
/// bit-identical to an uninterrupted run's.
pub fn run_in_transit_healing<A, R, FP, FS>(
    topo: Topology,
    config: InTransitConfig,
    key_mode: KeyMode,
    plan: FaultPlan,
    producer: FP,
    make_stager: FS,
) -> HealOutcome<R, A::Out>
where
    A: Analytics,
    A::In: Serialize + DeserializeOwned + Clone,
    R: Send,
    FP: Fn(&mut FtProducer<A::In>) -> SmartResult<R> + Sync,
    FS: Fn(usize) -> SmartResult<(Scheduler<A>, Vec<A::Out>)> + Sync,
{
    let mut config = config;
    config.stream.retain_unacked = true;
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
                    let stager = topo.stager_world_rank(topo.stager_of(p));
                    let mut handle = FtProducer {
                        comm,
                        tx: Some(StreamSender::new(stager, cfg)),
                        index: p,
                        topo,
                        steps_fed: 0,
                        plan,
                    };
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
                scope.spawn(move || -> SmartResult<HealedStagerOutcome<A::Out>> {
                    let me = topo.stager_world_rank(s);
                    let (mut sched, mut out) = make_stager(s)?;
                    sched.set_collect_stats(true);
                    sched.set_combine_strategy(CombineStrategy::Gossip);
                    let mut slots: Vec<Slot<A::In>> = topo.producers_of(s).map(Slot::new).collect();
                    let mut ctl = Ctl { seq: 0 };
                    let mut stats = RunStats::default();
                    let mut committed = 0usize;
                    let mut heals = 0u64;
                    let mut adopted = 0usize;
                    loop {
                        // Fail-stop boundary: the previous round is fully
                        // committed and acknowledged; nothing of the next
                        // one has been sent.
                        plan.check(me, committed)?;
                        let outcome = loop {
                            heals += ctl
                                .sync_agree(&mut staging_comm)
                                .map_err(|e| e.at(me, committed))?;
                            // Adopt orphans of the agreed dead set. The
                            // assignment is deterministic from the mask, so
                            // it matches the producers' own reroute scans.
                            let alive: Vec<bool> =
                                (0..topo.stagers).map(|i| staging_comm.is_alive(i)).collect();
                            // PANIC-FREE: rebalanced_producers_of probes stager indices < topo.stagers = alive.len().
                            for p in topo.rebalanced_producers_of(s, |i| alive[i]) {
                                if !slots.iter().any(|slot| slot.rx.peer() == p) {
                                    slots.push(Slot::new(p));
                                    adopted += 1;
                                }
                            }
                            for slot in slots.iter_mut() {
                                slot.fill(&mut comm, committed).map_err(|e| e.at(me, committed))?;
                            }
                            let active = slots.iter().any(|slot| slot.held.is_some());
                            // Ragged termination vote, doubling as a death
                            // detector right before the collective.
                            match ctl.exchange(&mut staging_comm, OP_ACTIVE, &u8::from(active)) {
                                Ok(Exchange::Healed) => {
                                    heals += 1;
                                    continue;
                                }
                                Ok(Exchange::Clean(votes)) => {
                                    if votes.iter().all(|&(_, v)| v == 0) {
                                        break Round::Eos;
                                    }
                                }
                                Err(e) => return Err(e.at(me, committed)),
                            }
                            // Run the round against a snapshot: a death
                            // inside the collective (defense in depth — the
                            // vote above catches boundary deaths) rolls the
                            // scheduler back and retries over the
                            // survivors.
                            let (snap, cursor) =
                                sched.snapshot().map_err(|e| e.at(me, committed))?;
                            let parts: Vec<(usize, &[A::In])> = slots
                                .iter()
                                .filter_map(|slot| {
                                    slot.held.as_ref().map(|(o, d)| (*o, d.as_slice()))
                                })
                                .collect();
                            let spec = StepSpec::new(&parts)
                                .with_key_mode(key_mode)
                                .with_comm(Some(&mut staging_comm));
                            match sched.execute(spec, &mut out) {
                                Ok(()) => {}
                                Err(e) if is_peer_gone(&e) => {
                                    sched.restore(snap, cursor);
                                    heals += 1;
                                    continue;
                                }
                                Err(e) => return Err(e),
                            }
                            // Commit barrier: after it, every survivor has
                            // merged this round. A death here discards the
                            // round on every survivor (all see Healed for
                            // this sequence number), keeping the group
                            // uniform.
                            match ctl.exchange(&mut staging_comm, OP_COMMIT, &1u8) {
                                Ok(Exchange::Clean(_)) => break Round::Commit,
                                Ok(Exchange::Healed) => {
                                    sched.restore(snap, cursor);
                                    heals += 1;
                                }
                                Err(e) => return Err(e.at(me, committed)),
                            }
                        };
                        match outcome {
                            Round::Eos => break,
                            Round::Commit => {
                                stats.absorb(sched.last_stats());
                                // Only now are the held chunks durable:
                                // releasing the deferred credits is the
                                // commit acknowledgement that retires them
                                // from the producers' replay buffers.
                                for slot in slots.iter_mut() {
                                    if slot.held.take().is_some() {
                                        slot.rx
                                            .ack(&mut comm, 1)
                                            .map_err(|e| SmartError::Comm(e).at(me, committed))?;
                                    }
                                }
                                committed += 1;
                            }
                        }
                    }
                    for slot in &slots {
                        stats.absorb_stream_recv(slot.rx.stats());
                    }
                    let map_bytes = sched.canonical_map_bytes().map_err(|e| e.at(me, committed))?;
                    Ok(HealedStagerOutcome {
                        out,
                        map_bytes,
                        rounds: committed,
                        heals,
                        adopted,
                        stats,
                        streams: slots.iter().map(|slot| slot.rx.stats().clone()).collect(),
                    })
                })
            })
            .collect();

        let producers: Vec<SmartResult<ProducerOutcome<R>>> = producer_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        let mut stagers: Vec<SmartResult<HealedStagerOutcome<A::Out>>> = stager_handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();

        // Fold each staging group's producer send time into its home
        // stager's stats (mirrors run_in_transit; streams that rerouted
        // still report through their home block).
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

        HealOutcome { producers, stagers }
    })
}
