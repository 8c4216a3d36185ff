//! Tracing for the traced run: spans recorded from the benchmark's own
//! files around each call into a layer, kept in memory and written as Chrome
//! trace JSON when the run ends. A layer's self time is its span minus the
//! part of it its child spans cover.

use crate::json::{object, Value};
use smart_core::{PhaseObserver, RunStats};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Lanes (`tid` in the Chrome trace). Pool worker `w` is `WORKER_LANE + w`.
pub const SIM_LANE: u32 = 0;
pub const ANALYTICS_LANE: u32 = 1;
pub const WORKER_LANE: u32 = 10;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The module the time belongs to (`driver` for the benchmark's calls).
    pub layer: &'static str,
    pub lane: u32,
    /// Spans of one time-step share its index.
    pub step: u64,
    pub start_us: f64,
    pub dur_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Built from a busy-time total the library reported after the fact, so
    /// the duration is measured but the position inside the parent is not.
    pub synthetic: bool,
}

/// One phase of a call, known only by its busy time.
pub struct Phase {
    pub name: &'static str,
    pub layer: &'static str,
    pub lane: u32,
    pub busy: Duration,
    /// Starts together with the phase before it (a parallel worker) instead
    /// of after it.
    pub beside_previous: bool,
}

impl Phase {
    /// A phase that starts when the one before it has ended.
    pub fn after(name: &'static str, layer: &'static str, lane: u32, busy: Duration) -> Self {
        Phase { name, layer, lane, busy, beside_previous: false }
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::with_capacity(1 << 16)) }
    }

    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("no span is pushed while panicking");
        spans.push(span);
        spans.len() - 1
    }

    /// Run `f` as a driver-side span on `lane`; returns its result, its
    /// duration and the span's index. The index exists only afterwards, so
    /// children recorded during `f` are attached with [`Tracer::adopt`].
    pub fn driver_span<R>(
        &self,
        name: &'static str,
        lane: u32,
        step: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration, usize) {
        let start_us = self.now_us();
        let started = Instant::now();
        let result = f();
        let dur = started.elapsed();
        let index = self.push(Span {
            name,
            layer: "driver",
            lane,
            step,
            start_us,
            dur_us: dur.as_secs_f64() * 1e6,
            parent: None,
            synthetic: false,
        });
        (result, dur, index)
    }

    /// Attach `children` (recorded while the parent was open, so before its
    /// own index existed) to span `parent`.
    pub fn adopt(&self, parent: usize, children: &[usize]) {
        let mut spans = self.spans.lock().expect("no span is pushed while panicking");
        for &child in children {
            spans[child].parent = Some(parent);
        }
    }

    /// Record `phases` — busy times the library measured inside one call and
    /// reported after the fact — as synthetic children of `parent`, laid out
    /// from the parent's start in the order given.
    pub fn synthetic_children(&self, parent: usize, step: u64, phases: &[Phase]) {
        let mut spans = self.spans.lock().expect("no span is pushed while panicking");
        // `start` is where the current group of side-by-side phases begins,
        // `end` where the longest of them ends.
        let mut start = spans[parent].start_us;
        let mut end = start;
        for phase in phases {
            if !phase.beside_previous {
                start = end;
            }
            let dur_us = phase.busy.as_secs_f64() * 1e6;
            end = end.max(start + dur_us);
            if !phase.busy.is_zero() {
                spans.push(Span {
                    name: phase.name,
                    layer: phase.layer,
                    lane: phase.lane,
                    step,
                    start_us: start,
                    dur_us,
                    parent: Some(parent),
                    synthetic: true,
                });
            }
        }
    }

    /// The phases of one `execute` out of its `RunStats`: stage, the worker
    /// splits side by side, then combination.
    pub fn children_from_stats(&self, parent: usize, step: u64, stats: &RunStats) {
        let mut phases =
            vec![Phase::after("stage", "core.stage", ANALYTICS_LANE, stats.stage_busy)];
        for (tid, &busy) in stats.split_busy.iter().enumerate() {
            let mut split = Phase::after("split", "core.reduce", WORKER_LANE + tid as u32, busy);
            split.beside_previous = tid > 0;
            phases.push(split);
        }
        phases.push(Phase::after("combine", "core.combine", ANALYTICS_LANE, stats.combine_busy));
        self.synthetic_children(parent, step, &phases);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span is pushed while panicking")
    }
}

/// A `PhaseObserver` that turns each callback into a child span ending at
/// the callback's arrival and lasting its `busy` time, and keeps the totals
/// in a `RunStats` like the library's own sink.
pub struct SpanObserver<'a> {
    tracer: &'a Tracer,
    step: u64,
    /// Spans recorded since the last [`SpanObserver::begin_step`].
    children: Vec<usize>,
    pub stats: RunStats,
}

impl<'a> SpanObserver<'a> {
    pub fn new(tracer: &'a Tracer) -> Self {
        SpanObserver { tracer, step: 0, children: Vec::new(), stats: RunStats::default() }
    }

    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
        self.children.clear();
    }

    /// Make the spans of this step children of `parent`.
    pub fn end_step(&mut self, parent: usize) {
        self.tracer.adopt(parent, &self.children);
    }

    fn arrived(&mut self, name: &'static str, layer: &'static str, lane: u32, busy: Duration) {
        let dur_us = busy.as_secs_f64() * 1e6;
        let start_us = self.tracer.now_us() - dur_us;
        let span = Span {
            name,
            layer,
            lane,
            step: self.step,
            start_us,
            dur_us,
            parent: None,
            synthetic: false,
        };
        self.children.push(self.tracer.push(span));
    }
}

impl PhaseObserver for SpanObserver<'_> {
    fn split_done(&mut self, tid: usize, busy: Duration) {
        self.stats.split_done(tid, busy);
        self.arrived("split", "core.reduce", WORKER_LANE + tid as u32, busy);
    }
    fn local_merge_done(&mut self, busy: Duration) {
        self.stats.local_merge_done(busy);
        self.arrived("local_merge", "core.combine", SIM_LANE, busy);
    }
    fn global_combine_done(&mut self, payload_bytes: u64, wire_bytes: u64, busy: Duration) {
        self.stats.global_combine_done(payload_bytes, wire_bytes, busy);
        self.arrived("global_combine", "core.combine", SIM_LANE, busy);
    }
    fn iter_done(&mut self, combine_busy: Duration) {
        self.stats.iter_done(combine_busy);
        self.arrived("combine_iter", "core.combine", SIM_LANE, combine_busy);
    }
    fn staged_done(&mut self, bytes: u64, busy: Duration) {
        self.stats.staged_done(bytes, busy);
        self.arrived("stage", "core.stage", SIM_LANE, busy);
    }
    fn spill_done(&mut self, runs: usize, bytes: u64, busy: Duration) {
        self.stats.spill_done(runs, bytes, busy);
        // Spill writes happen inside the worker splits; the span is a total
        // across workers, drawn on its own lane.
        self.arrived("spill_write", "spill", WORKER_LANE - 1, busy);
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of every span in microseconds: its duration minus the part its
/// direct children cover (children on parallel lanes overlap; the union
/// counts once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_us, span.start_us + span.dur_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.dur_us - covered(kids, span.start_us, span.start_us + span.dur_us))
        .collect()
}

/// Chrome trace JSON (`chrome://tracing`, Perfetto): one complete event per
/// span; `args` carry the step, the span's index and its parent.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(index, span)| {
            let parent = match span.parent {
                Some(p) => Value::from(format!("{}#{p}", spans[p].name)),
                None => Value::Null,
            };
            object([
                ("name", Value::from(span.name)),
                ("cat", span.layer.into()),
                ("ph", "X".into()),
                ("ts", span.start_us.into()),
                ("dur", span.dur_us.into()),
                ("pid", 1u64.into()),
                ("tid", u64::from(span.lane).into()),
                (
                    "args",
                    object([
                        ("step", Value::from(span.step)),
                        ("id", (index as u64).into()),
                        ("parent", parent),
                        ("synthetic", span.synthetic.into()),
                    ]),
                ),
            ])
        })
        .collect();
    object([("traceEvents", Value::Arr(events)), ("displayTimeUnit", "ms".into())])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, dur_us: f64, parent: Option<usize>) -> Span {
        Span { name: "s", layer: "l", lane: 0, step: 0, start_us, dur_us, parent, synthetic: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)), // 10..40
            span(20.0, 40.0, Some(0)), // 20..60 overlaps the first: union 10..60
            span(90.0, 50.0, Some(0)), // 90..140 clipped to the parent: 90..100
            span(25.0, 5.0, Some(2)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own[0], 100.0 - 50.0 - 10.0);
        assert_eq!(own[1], 30.0);
        assert_eq!(own[2], 35.0);
    }

    #[test]
    fn observer_spans_end_at_arrival_and_join_their_parent() {
        let tracer = Tracer::new();
        let mut obs = SpanObserver::new(&tracer);
        obs.begin_step(3);
        let ((), _, parent) = tracer.driver_span("execute_with", SIM_LANE, 3, || {
            std::thread::sleep(Duration::from_millis(2));
            obs.split_done(1, Duration::from_millis(1));
            obs.iter_done(Duration::from_micros(200));
        });
        obs.end_step(parent);
        assert_eq!(obs.stats.iters, 1);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].lane, WORKER_LANE + 1);
        assert_eq!(spans[0].parent, Some(2));
        assert_eq!(spans[1].step, 3);
        assert!(spans[0].start_us >= spans[2].start_us, "child starts inside the parent");
        let unattributed = self_times_us(&spans)[2];
        assert!(unattributed > 0.0 && unattributed < spans[2].dur_us);
    }

    #[test]
    fn chrome_trace_is_loadable_json_naming_parents() {
        let spans = [span(0.0, 10.0, None), span(1.0, 2.0, Some(0))];
        let text = chrome_trace(&spans).to_string();
        let parsed = crate::json::parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").and_then(Value::as_array).expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")).and_then(Value::as_str),
            Some("s#0")
        );
    }
}
