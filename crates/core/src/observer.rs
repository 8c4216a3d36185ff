//! The measurement seam of the execution core.
//!
//! Every phase of [`crate::Scheduler::execute`] reports through a
//! [`PhaseObserver`] instead of mutating a stats struct inline. Two sinks
//! ship with the runtime — [`RunStats`] (what
//! [`crate::Scheduler::last_stats`] returns when stats collection is on)
//! and [`NoopObserver`] (stats off) — and a future tracing/metrics layer
//! plugs in through [`crate::Scheduler::execute_with`] without touching
//! the hot path.
//!
//! **Gating invariant:** when [`PhaseObserver::enabled`] returns `false`
//! the core skips *every* measurement — no `Instant::now()` calls, no
//! serialized-size computation, no transport-byte counter reads — not just
//! the reporting. [`Stopwatch`] encodes that rule for timers.

use smart_comm::{StreamRecvStats, StreamSendStats};
use std::time::{Duration, Instant};

/// Sink for per-phase measurements from one [`crate::Scheduler::execute`]
/// call.
///
/// Callbacks arrive on the driver thread, in phase order, once per
/// iteration of the step: every worker's [`split_done`](Self::split_done),
/// then [`local_merge_done`](Self::local_merge_done), then (distributed
/// steps only) [`global_combine_done`](Self::global_combine_done), then
/// [`iter_done`](Self::iter_done).
pub trait PhaseObserver {
    /// Whether the core should measure at all. When `false`, the scheduler
    /// makes no timing or byte-count measurements and the remaining
    /// callbacks are never invoked (see the module-level gating invariant).
    fn enabled(&self) -> bool {
        true
    }

    /// Worker `tid` finished its reduction split after `busy` time.
    fn split_done(&mut self, tid: usize, busy: Duration);

    /// The per-thread partial maps were merged into the step's delta map
    /// (layer 1 of the combination pipeline).
    fn local_merge_done(&mut self, busy: Duration);

    /// Global combination finished. `payload_bytes` is the serialized size
    /// of this rank's delta entries (the paper-facing quantity);
    /// `wire_bytes` is what the transport actually moved.
    fn global_combine_done(&mut self, payload_bytes: u64, wire_bytes: u64, busy: Duration);

    /// One iteration completed; `combine_busy` spans local merge through
    /// `post_combine`.
    fn iter_done(&mut self, combine_busy: Duration);

    /// A checkpoint of the combined reduction object was written (`bytes`
    /// on disk, `busy` spent serializing + writing). Reported by the
    /// fault-tolerance layer's recovery driver, not by `execute` itself —
    /// hence the default no-op, so observers that predate checkpointing
    /// keep compiling.
    fn checkpoint_done(&mut self, bytes: u64, busy: Duration) {
        let _ = (bytes, busy);
    }

    /// One staging pass copied `bytes` of simulation output into the
    /// staging buffer after `busy` time. Reported once per step in copy
    /// mode — by `execute` itself, or by the service driver's shared scan
    /// (which stages once no matter how many jobs consume the step, the
    /// basis of the shared-scan byte assertion). Zero-copy steps never
    /// report. Default no-op for pre-service observers.
    fn staged_done(&mut self, bytes: u64, busy: Duration) {
        let _ = (bytes, busy);
    }

    /// The service driver finished running submitted job `job` against one
    /// time-step: `result_bytes` of wire-serialized output were delivered
    /// to the job's subscriber, after `busy` execution time. Reported by
    /// `smart-serve`, never by `execute` itself. Default no-op.
    fn job_step_done(&mut self, job: u64, result_bytes: u64, busy: Duration) {
        let _ = (job, result_bytes, busy);
    }

    /// The spilling shuffle drained reduction maps to disk: `runs` sorted
    /// runs holding `bytes` on disk were written after `busy` time spent
    /// serializing, framing, and committing (merge time is part of the
    /// combine phase, not this lane). Reported once per iteration that
    /// spilled; resident iterations never report. Default no-op for
    /// pre-spill observers.
    fn spill_done(&mut self, runs: usize, bytes: u64, busy: Duration) {
        let _ = (runs, bytes, busy);
    }
}

/// The stats-off sink: reports nothing, and — because
/// [`enabled`](PhaseObserver::enabled) is `false` — suppresses every
/// measurement in the core.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl PhaseObserver for NoopObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn split_done(&mut self, _tid: usize, _busy: Duration) {}

    fn local_merge_done(&mut self, _busy: Duration) {}

    fn global_combine_done(&mut self, _payload_bytes: u64, _wire_bytes: u64, _busy: Duration) {}

    fn iter_done(&mut self, _combine_busy: Duration) {}
}

/// A timer that honours the observer gating invariant: constructed
/// disabled, it never reads the clock and reports [`Duration::ZERO`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start a timer, or a zero-cost dummy when `enabled` is false.
    pub(crate) fn new(enabled: bool) -> Self {
        Stopwatch(enabled.then(Instant::now))
    }

    /// Elapsed time since construction (`ZERO` when disabled).
    pub(crate) fn elapsed(&self) -> Duration {
        self.0.map(|started| started.elapsed()).unwrap_or_default()
    }
}

/// Per-job accounting lane inside [`RunStats`]: what one submitted job
/// consumed across every time-step the service driver ran it against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobLane {
    /// The job id assigned by the service registry.
    pub job: u64,
    /// Time-steps this job executed against.
    pub steps: usize,
    /// Wire-serialized result bytes delivered to the job's subscriber.
    pub result_bytes: u64,
    /// Busy time spent executing this job's reductions.
    pub busy: Duration,
}

/// Phase timings and volumes from the most recent `run*`/`execute` call —
/// the default [`PhaseObserver`] sink.
///
/// Every duration is *busy* time measured inside the phase, so the numbers
/// compose on any host: modeled parallel step time =
/// `max(split_busy) + combine_busy` plus a communication model applied to
/// `global_bytes` (this is how the benchmark harness reproduces the paper's
/// scaling figures on hosts with fewer cores than the experiment needs —
/// see DESIGN.md substitutions).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-worker reduction busy time, summed over iterations.
    pub split_busy: Vec<Duration>,
    /// Local + global combination busy time (merge work), all iterations.
    pub combine_busy: Duration,
    /// Portion of [`combine_busy`](Self::combine_busy) spent merging the
    /// per-thread partial maps (layer 1 of the combination pipeline), all
    /// iterations.
    pub local_merge_busy: Duration,
    /// Portion of [`combine_busy`](Self::combine_busy) spent in the global
    /// combination collective (layer 2), all iterations. Zero for
    /// single-rank runs.
    pub global_comm_busy: Duration,
    /// Bytes of serialized combination-map entries shipped per rank during
    /// global combination, all iterations.
    pub global_bytes: u64,
    /// Actual transport bytes this rank sent during global combination, all
    /// iterations (from the communicator's sent-byte counter). For
    /// [`crate::CombineStrategy::Sharded`] this stays ≤ ~2× the serialized
    /// global map; for the tree allreduce it grows with log(ranks).
    pub comm_bytes: u64,
    /// Iterations executed.
    pub iters: usize,
    /// In-transit mode only: producer-side busy time inside streaming sends
    /// (serialization + credit waits). Zero for in-situ placements.
    pub transit_send_busy: Duration,
    /// In-transit mode only: stager-side busy time receiving and decoding
    /// streamed chunks. Zero for in-situ placements.
    pub transit_recv_busy: Duration,
    /// In-transit mode only: wire bytes streamed from producers to this
    /// stager. Zero for in-situ placements.
    pub transit_bytes: u64,
    /// In-transit mode only: the part of
    /// [`transit_send_busy`](Self::transit_send_busy) spent encoding
    /// time-steps into stream frames; the rest is credit waits and the
    /// transport write.
    pub transit_encode_busy: Duration,
    /// In-transit mode only: stager-side busy time decoding consumed chunks
    /// out of their received frames (not part of
    /// [`transit_recv_busy`](Self::transit_recv_busy), which is the wait
    /// for data).
    pub transit_decode_busy: Duration,
    /// Checkpointing only: busy time spent serializing and writing
    /// reduction-object snapshots. Zero when checkpointing is off.
    pub ckpt_busy: Duration,
    /// Checkpointing only: bytes written to the checkpoint store.
    pub ckpt_bytes: u64,
    /// Checkpointing only: snapshots written.
    pub ckpts: usize,
    /// Bytes copied into the staging buffer, all steps (copy mode and the
    /// service tier's shared scan only; zero-copy steps contribute nothing).
    pub staged_bytes: u64,
    /// Busy time spent inside the staging copy, all steps.
    pub stage_busy: Duration,
    /// Service tier only: per-job accounting lanes, sorted by job id. Empty
    /// for plain `execute` runs.
    pub jobs: Vec<JobLane>,
    /// Spilling shuffle only: sorted runs written to disk. Zero when the
    /// whole run stayed resident.
    pub spill_runs: usize,
    /// Spilling shuffle only: bytes of committed runs on disk.
    pub spill_bytes: u64,
    /// Spilling shuffle only: busy time serializing and committing runs
    /// (stream-merge time counts toward the combine phase instead).
    pub spill_busy: Duration,
}

impl RunStats {
    /// The slowest worker's reduction busy time.
    pub fn max_split_busy(&self) -> Duration {
        self.split_busy.iter().copied().max().unwrap_or_default()
    }

    /// Total busy time across all workers and phases.
    pub fn total_busy(&self) -> Duration {
        self.split_busy.iter().sum::<Duration>() + self.combine_busy
    }

    /// Accumulate another run's stats into this one (element-wise for the
    /// per-worker vector). The in-transit stager calls the scheduler once
    /// per time-step and absorbs each step's stats into a whole-run total.
    pub fn absorb(&mut self, other: &RunStats) {
        if self.split_busy.len() < other.split_busy.len() {
            self.split_busy.resize(other.split_busy.len(), Duration::ZERO);
        }
        for (acc, &busy) in self.split_busy.iter_mut().zip(&other.split_busy) {
            *acc += busy;
        }
        self.combine_busy += other.combine_busy;
        self.local_merge_busy += other.local_merge_busy;
        self.global_comm_busy += other.global_comm_busy;
        self.global_bytes += other.global_bytes;
        self.comm_bytes += other.comm_bytes;
        self.iters += other.iters;
        self.transit_send_busy += other.transit_send_busy;
        self.transit_recv_busy += other.transit_recv_busy;
        self.transit_bytes += other.transit_bytes;
        self.transit_encode_busy += other.transit_encode_busy;
        self.transit_decode_busy += other.transit_decode_busy;
        self.ckpt_busy += other.ckpt_busy;
        self.ckpt_bytes += other.ckpt_bytes;
        self.ckpts += other.ckpts;
        self.staged_bytes += other.staged_bytes;
        self.stage_busy += other.stage_busy;
        self.spill_runs += other.spill_runs;
        self.spill_bytes += other.spill_bytes;
        self.spill_busy += other.spill_busy;
        for lane in &other.jobs {
            self.lane_mut(lane.job).merge(lane);
        }
    }

    /// Fold one producer stream's send-side counters into the `transit_*`
    /// fields (the stager a producer streams to reports them).
    pub fn absorb_stream_send(&mut self, stream: &StreamSendStats) {
        self.transit_send_busy += stream.send_busy;
        self.transit_encode_busy += stream.encode_busy;
    }

    /// Fold one stream's receive-side counters into the `transit_*` fields.
    pub fn absorb_stream_recv(&mut self, stream: &StreamRecvStats) {
        self.transit_recv_busy += stream.recv_busy;
        self.transit_decode_busy += stream.decode_busy;
        self.transit_bytes += stream.bytes;
    }

    /// The accounting lane for `job`, created (sorted by id) on first use.
    fn lane_mut(&mut self, job: u64) -> &mut JobLane {
        let at = match self.jobs.binary_search_by_key(&job, |l| l.job) {
            Ok(at) => at,
            Err(at) => {
                self.jobs.insert(at, JobLane { job, ..JobLane::default() });
                at
            }
        };
        // PANIC-FREE: binary_search returned an occupied index, or insert just made `at` occupied.
        &mut self.jobs[at]
    }
}

impl JobLane {
    fn merge(&mut self, other: &JobLane) {
        self.steps += other.steps;
        self.result_bytes += other.result_bytes;
        self.busy += other.busy;
    }
}

impl PhaseObserver for RunStats {
    fn split_done(&mut self, tid: usize, busy: Duration) {
        if self.split_busy.len() <= tid {
            self.split_busy.resize(tid + 1, Duration::ZERO);
        }
        // PANIC-FREE: the resize above guarantees tid < split_busy.len().
        self.split_busy[tid] += busy;
    }

    fn local_merge_done(&mut self, busy: Duration) {
        self.local_merge_busy += busy;
    }

    fn global_combine_done(&mut self, payload_bytes: u64, wire_bytes: u64, busy: Duration) {
        self.global_bytes += payload_bytes;
        self.comm_bytes += wire_bytes;
        self.global_comm_busy += busy;
    }

    fn iter_done(&mut self, combine_busy: Duration) {
        self.combine_busy += combine_busy;
        self.iters += 1;
    }

    fn checkpoint_done(&mut self, bytes: u64, busy: Duration) {
        self.ckpt_busy += busy;
        self.ckpt_bytes += bytes;
        self.ckpts += 1;
    }

    fn staged_done(&mut self, bytes: u64, busy: Duration) {
        self.staged_bytes += bytes;
        self.stage_busy += busy;
    }

    fn job_step_done(&mut self, job: u64, result_bytes: u64, busy: Duration) {
        let lane = self.lane_mut(job);
        lane.steps += 1;
        lane.result_bytes += result_bytes;
        lane.busy += busy;
    }

    fn spill_done(&mut self, runs: usize, bytes: u64, busy: Duration) {
        self.spill_runs += runs;
        self.spill_bytes += bytes;
        self.spill_busy += busy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_sink_accumulates_phases() {
        let mut stats = RunStats::default();
        assert!(stats.enabled());
        stats.split_done(1, Duration::from_millis(5));
        stats.split_done(0, Duration::from_millis(3));
        stats.split_done(1, Duration::from_millis(2));
        assert_eq!(stats.split_busy.len(), 2);
        assert_eq!(stats.max_split_busy(), Duration::from_millis(7));
        stats.local_merge_done(Duration::from_millis(1));
        stats.global_combine_done(100, 250, Duration::from_millis(4));
        stats.iter_done(Duration::from_millis(6));
        assert_eq!(stats.local_merge_busy, Duration::from_millis(1));
        assert_eq!((stats.global_bytes, stats.comm_bytes), (100, 250));
        assert_eq!(stats.global_comm_busy, Duration::from_millis(4));
        assert_eq!(stats.combine_busy, Duration::from_millis(6));
        assert_eq!(stats.iters, 1);
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopObserver.enabled());
    }

    #[test]
    fn disabled_stopwatch_reports_zero() {
        let sw = Stopwatch::new(false);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(sw.elapsed(), Duration::ZERO);
        let sw = Stopwatch::new(true);
        assert!(sw.elapsed() <= Duration::from_secs(1));
    }

    #[test]
    fn absorb_accumulates_elementwise() {
        let mut total = RunStats::default();
        let mut step = RunStats::default();
        step.split_done(0, Duration::from_millis(1));
        step.iter_done(Duration::from_millis(2));
        total.absorb(&step);
        total.absorb(&step);
        assert_eq!(total.split_busy[0], Duration::from_millis(2));
        assert_eq!(total.iters, 2);
        assert_eq!(total.combine_busy, Duration::from_millis(4));
    }

    #[test]
    fn staging_and_job_lanes_accumulate() {
        let mut stats = RunStats::default();
        stats.staged_done(1024, Duration::from_millis(2));
        stats.staged_done(1024, Duration::from_millis(3));
        assert_eq!(stats.staged_bytes, 2048);
        assert_eq!(stats.stage_busy, Duration::from_millis(5));
        // Out-of-order job ids land in sorted lanes.
        stats.job_step_done(7, 100, Duration::from_millis(1));
        stats.job_step_done(2, 50, Duration::from_millis(4));
        stats.job_step_done(7, 100, Duration::from_millis(1));
        assert_eq!(stats.jobs.len(), 2);
        assert_eq!(
            stats.jobs[0],
            JobLane { job: 2, steps: 1, result_bytes: 50, busy: Duration::from_millis(4) }
        );
        assert_eq!(
            stats.jobs[1],
            JobLane { job: 7, steps: 2, result_bytes: 200, busy: Duration::from_millis(2) }
        );
        // The noop sink accepts both callbacks silently (default bodies).
        NoopObserver.staged_done(1, Duration::ZERO);
        NoopObserver.job_step_done(1, 1, Duration::ZERO);
    }

    #[test]
    fn absorb_merges_job_lanes_by_id() {
        let mut step = RunStats::default();
        step.staged_done(512, Duration::from_millis(1));
        step.job_step_done(3, 10, Duration::from_millis(2));
        step.job_step_done(5, 20, Duration::from_millis(3));
        let mut total = RunStats::default();
        total.job_step_done(5, 1, Duration::from_millis(1));
        total.absorb(&step);
        total.absorb(&step);
        assert_eq!(total.staged_bytes, 1024);
        assert_eq!(total.jobs.len(), 2);
        assert_eq!(
            (total.jobs[0].job, total.jobs[0].steps, total.jobs[0].result_bytes),
            (3, 2, 20)
        );
        assert_eq!(
            (total.jobs[1].job, total.jobs[1].steps, total.jobs[1].result_bytes),
            (5, 3, 41)
        );
    }

    #[test]
    fn spill_measurements_accumulate_and_absorb() {
        let mut stats = RunStats::default();
        stats.spill_done(2, 4096, Duration::from_millis(5));
        stats.spill_done(1, 1024, Duration::from_millis(2));
        assert_eq!(stats.spill_runs, 3);
        assert_eq!(stats.spill_bytes, 5120);
        assert_eq!(stats.spill_busy, Duration::from_millis(7));
        let mut total = RunStats::default();
        total.absorb(&stats);
        total.absorb(&stats);
        assert_eq!((total.spill_runs, total.spill_bytes), (6, 10240));
        // The noop sink accepts the callback silently (default body).
        NoopObserver.spill_done(1, 1, Duration::ZERO);
    }

    #[test]
    fn checkpoint_measurements_accumulate_and_absorb() {
        let mut stats = RunStats::default();
        stats.checkpoint_done(64, Duration::from_millis(3));
        stats.checkpoint_done(32, Duration::from_millis(1));
        assert_eq!(stats.ckpts, 2);
        assert_eq!(stats.ckpt_bytes, 96);
        assert_eq!(stats.ckpt_busy, Duration::from_millis(4));
        let mut total = RunStats::default();
        total.absorb(&stats);
        assert_eq!((total.ckpts, total.ckpt_bytes), (2, 96));
        // The noop sink accepts the callback silently (default body).
        NoopObserver.checkpoint_done(1, Duration::ZERO);
    }
}
