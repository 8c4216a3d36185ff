//! Running workloads and reporting: the untraced run that gives the
//! end-to-end metrics, the traced run that gives the per-layer ones, and the
//! lines and files they are printed to.

use crate::host;
use crate::json::{object, Value};
use crate::measure::{Outcome, Pass, MIB, WARMUP_STEPS};
use crate::metrics::{metrics_json, END_TO_END};
use crate::probes;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{chrome_trace, self_times_us, Tracer};
use crate::workloads::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

pub struct Options {
    /// `None` runs every workload.
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
    /// Where the run set is written as JSON.
    pub out: Option<PathBuf>,
    /// Runs of every workload, on seeds `seed`, `seed + 1`, ...
    pub repeat: usize,
}

/// One run of one workload: the record printed and stored.
struct Record {
    workload: &'static str,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    metrics: Value,
    problems: Vec<String>,
    sizes: Value,
}

impl Record {
    /// The record of a run of `attempted` steps, `failed` of which the
    /// workload counted as failed. A problem that is no step's own — a broken
    /// invariant, a probe that could not run — still fails the run.
    fn new(
        workload: &'static Workload,
        seed: u64,
        trace: bool,
        (attempted, failed): (usize, u64),
        metrics: Value,
        problems: Vec<String>,
        sizes: Value,
    ) -> Record {
        let attempted = attempted as u64;
        let failed = failed.max(u64::from(!problems.is_empty())).min(attempted.max(1));
        Record { workload: workload.name, seed, trace, attempted, failed, metrics, problems, sizes }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result object the driver reads: exactly these four keys.
    fn result_line(&self) -> Value {
        object([
            ("correct", Value::from(self.correct())),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics.clone()),
        ])
    }

    /// The record of a run-set file: the result, and what it is a result of.
    fn to_json(&self) -> Value {
        let problems = self.problems.iter().map(|p| Value::from(p.as_str())).collect();
        object([
            ("workload", Value::from(self.workload)),
            ("seed", self.seed.into()),
            ("trace", u64::from(self.trace).into()),
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("error_ratio", (self.failed as f64 / self.attempted.max(1) as f64).into()),
            ("metrics", self.metrics.clone()),
            ("sizes", self.sizes.clone()),
            ("problems", Value::Arr(problems)),
        ])
    }
}

fn sizes_json(outcome: &Outcome) -> Value {
    let mut members: Vec<(String, Value)> =
        outcome.sizes.iter().map(|&(k, v)| (k.to_owned(), Value::from(v))).collect();
    members.push(("ring_bytes".to_owned(), outcome.ring_bytes.into()));
    members.push(("step_bytes".to_owned(), outcome.step_bytes().into()));
    members.push(("warmup_steps".to_owned(), (WARMUP_STEPS as u64).into()));
    Value::Obj(members)
}

/// The untraced run: statistics collection off, end-to-end metrics only.
fn run_untraced(workload: &'static Workload, opts: &Options, seed: u64) -> Record {
    let pass = |seconds| Pass { seed, seconds, smoke: opts.smoke, tracer: None };
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut problems = Vec::new();
    // Set-up alone, repeated, so that its median is steady; smoke runs skip it.
    for _ in 1..if opts.smoke { 1 } else { SETUP_REPEATS } {
        let only_setup = (workload.run)(&pass(0.0));
        setups.push(only_setup.setup_s);
        problems.extend(only_setup.problems);
    }
    let outcome = (workload.run)(&pass(opts.seconds));
    setups.push(outcome.setup_s);

    let steps = outcome.step_ms.len() as f64;
    let values = [
        median(&setups),
        median(&outcome.step_ms),
        outcome.elems_per_step as f64 * steps / outcome.wall_s / 1e6,
        outcome.cpu_ms / steps,
        outcome.peak_extra_bytes as f64 / MIB,
    ];
    let sizes = sizes_json(&outcome);
    problems.extend(outcome.problems);
    // Interference from the host's other tenants shows as eighths of the run
    // that disagree.
    let by_eighth: Vec<String> = outcome
        .step_ms
        .chunks(outcome.step_ms.len().div_ceil(8).max(1))
        .map(|eighth| format!("{:.3}", median(eighth)))
        .collect();
    eprintln!(
        "{}: {} steps of `{}` in {:.2} s, step p50 {:.3} ms, by eighth of the run: {}; set-ups {:.3?} s; \
         ring {:.1} MiB, LLC {:.1} MiB",
        workload.name,
        outcome.step_ms.len(),
        workload.step_call,
        outcome.wall_s,
        values[1],
        by_eighth.join(" "),
        setups,
        outcome.ring_bytes as f64 / MIB,
        host::llc_bytes() as f64 / MIB,
    );
    let metrics = metrics_json(END_TO_END.iter().zip(values).map(|(m, v)| (m.name, v, m.unit)));
    let counts = (outcome.step_ms.len(), outcome.failed);
    Record::new(workload, seed, false, counts, metrics, problems, sizes)
}

/// The traced run: half the time untraced for the overhead baseline, half
/// traced for spans and phase totals, then the layer probes.
fn run_traced(workload: &'static Workload, opts: &Options, seed: u64, scratch: &Path) -> Record {
    let seconds = opts.seconds / 2.0;
    let baseline = (workload.run)(&Pass { seed, seconds, smoke: opts.smoke, tracer: None });
    let tracer = Tracer::new();
    let mut traced =
        (workload.run)(&Pass { seed, seconds, smoke: opts.smoke, tracer: Some(&tracer) });
    let spans = tracer.into_spans();

    let mut layers = std::mem::take(&mut traced.layers);
    let step_ms = &traced.step_ms;
    layers.set("driver.steps", step_ms.len() as f64);
    layers.set("driver.step_ms_p95", percentile(step_ms, 95.0));
    layers.set("driver.step_ms_max", step_ms.iter().copied().fold(0.0, f64::max));
    let (p50_traced, p50_plain) = (median(step_ms), median(&baseline.step_ms));
    layers.set("driver.trace_overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain);
    // What the spans below a step's own span do not account for.
    let unattributed: Vec<f64> = self_times_us(&spans)
        .into_iter()
        .zip(&spans)
        .filter(|(_, s)| {
            s.layer == "driver"
                && s.name == workload.breakdown_call
                && s.step >= WARMUP_STEPS as u64
        })
        .map(|(own_us, _)| own_us / 1e3)
        .collect();
    layers.set("driver.unattributed_ms", median(&unattributed));

    let mut problems = baseline.problems;
    problems.append(&mut traced.problems);
    if unattributed.is_empty() {
        problems.push(format!("the trace holds no `{}` span", workload.breakdown_call));
    }
    // A workload that gave up early has nothing for the probes to replay.
    if let Some(input) = &traced.probe {
        match probes::run_all(input, scratch, opts.smoke) {
            Ok(probed) => layers.extend(probed),
            Err(e) => problems.push(e),
        }
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, chrome_trace(&spans).to_string()) {
            problems.push(format!("cannot write {}: {e}", path.display()));
        }
    }

    let tail = highest_supported_percentile(step_ms.len());
    eprintln!(
        "{}: {} traced steps, p50 {:.3} ms, p{tail} {:.3} ms (highest percentile with 10 samples beyond it), \
         unattributed {:.1} % of p50, tracing overhead {:.1} %",
        workload.name,
        step_ms.len(),
        p50_traced,
        percentile(step_ms, tail),
        100.0 * layers.get("driver.unattributed_ms") / p50_traced,
        layers.get("driver.trace_overhead_pct"),
    );
    let counts = (step_ms.len(), traced.failed);
    Record::new(workload, seed, true, counts, layers.to_json(), problems, sizes_json(&traced))
}

/// Run what `opts` asks for and print it. Returns whether every run was
/// correct.
pub fn run(opts: &Options) -> Result<bool, String> {
    host::check_environment()?;
    let scratch = host::scratch_dir()?;
    // Spill runs of the schedulers under test go to the scratch directory,
    // inside the checkout. Set before any thread exists.
    std::env::set_var("SMART_SPILL_DIR", &scratch);
    let host = host::descriptor(&scratch);
    eprintln!("host: {host}");

    let selected: Vec<&'static Workload> = match opts.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut records: Vec<Record> = Vec::new();
    let mut keep = |record: Record| {
        for problem in &record.problems {
            eprintln!("{}: PROBLEM: {problem}", record.workload);
        }
        if opts.workload.is_none() {
            println!("{}", record.to_json());
        }
        records.push(record);
    };
    for round in 0..opts.repeat as u64 {
        for &workload in &selected {
            let seed = opts.seed + round;
            // A smoke run does both, for the invariants only the traced pass sees.
            if !opts.trace || opts.smoke {
                keep(run_untraced(workload, opts, seed));
            }
            if opts.trace || opts.smoke {
                keep(run_traced(workload, opts, seed, &scratch));
            }
        }
    }
    // The scratch directory holds nothing once the schedulers are gone.
    let _ = std::fs::remove_dir(&scratch);

    let all_correct = records.iter().all(Record::correct);
    let set = object([
        ("host", host),
        ("seconds", Value::from(opts.seconds)),
        ("smoke", opts.smoke.into()),
        ("runs", Value::Arr(records.iter().map(Record::to_json).collect())),
        // This benchmark defines the gate; it measures no change.
        ("claim", Value::Null),
    ]);
    if let Some(path) = &opts.out {
        std::fs::write(path, format!("{set}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    match (opts.workload, records.last()) {
        // One workload: the last line is the result the driver reads.
        (Some(_), Some(last)) => println!("{}", last.result_line()),
        _ => println!("{set}"),
    }
    // A run the driver asked for has printed its result, `correct` included,
    // and exits 0; a smoke run or a whole run set fails loudly instead.
    Ok(all_correct || (opts.workload.is_some() && !opts.smoke))
}
