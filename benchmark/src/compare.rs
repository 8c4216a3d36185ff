//! `compare <a.json> <b.json>`: are two run sets of the benchmark the same
//! within the bounds `BENCHMARK.json` fixes?

use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Ok,
    /// The second set's median is worse than the first's by more than the bound.
    Worse,
    /// A set's own run-to-run spread exceeds the bound: no verdict either way.
    Unresolved,
}

/// `workload -> metric -> values`, from the untraced runs of a run set.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples(set: &Value) -> Result<Samples, String> {
    let runs = set.get("runs").and_then(Value::as_array).ok_or("run set has no `runs` array")?;
    let mut out = Samples::new();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload =
            run.get("workload").and_then(Value::as_str).ok_or("run without `workload`")?;
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("{workload}: run without `metrics`"));
        };
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload}.{name}: no numeric `value`"))?;
            out.entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload. `better` is `lower` or
/// `higher`. With `judge_spread` off a set's own spread is not held against
/// it — the driver's rule for `setup_s`, whose first measurement in a process
/// pays for growing the heap.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64, judge_spread: bool) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    // Positive when the second set is worse.
    let change = if better == "higher" { (ma - mb) / ma } else { (mb - ma) / ma };
    let noisy = |values: &[f64]| judge_spread && spread(values).is_some_and(|s| s > bound);
    let verdict = if noisy(a) || noisy(b) {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (verdict, change)
}

/// Print one row per workload and end-to-end metric; returns whether no row
/// is `worse`.
pub fn compare(a_text: &str, b_text: &str, benchmark_text: &str) -> Result<bool, String> {
    let (a, b) = (samples(&json::parse(a_text)?)?, samples(&json::parse(b_text)?)?);
    let benchmark = json::parse(benchmark_text)?;
    let gate = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` array")?;

    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload", "metric", "median a", "median b", "change", "bound", "spread a", "spread b"
    );
    let mut none_worse = true;
    for (workload, metrics_a) in &a {
        for metric in gate {
            let field = |key: &str| metric.get(key).and_then(Value::as_str);
            let (Some(name), Some(better), Some(bound)) =
                (field("name"), field("better"), metric.get("bound").and_then(Value::as_f64))
            else {
                return Err(
                    "BENCHMARK.json: an end_to_end metric lacks name, better or bound".into()
                );
            };
            let (Some(va), Some(vb)) =
                (metrics_a.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                return Err(format!("{workload}.{name} is missing from a run set"));
            };
            let (verdict, change) = judge(va, vb, better, bound, name != "setup_s");
            none_worse &= verdict != Verdict::Worse;
            let pct = |x: Option<f64>| x.map_or("-".to_owned(), |x| format!("{:.1}%", 100.0 * x));
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>8} {:>7} {:>9} {:>9}  {}",
                workload,
                name,
                median(va),
                median(vb),
                pct(Some(change)),
                pct(Some(bound)),
                pct(spread(va)),
                pct(spread(vb)),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9];
        assert_eq!(judge(&steady, &[10.5, 10.6, 10.4], "lower", 0.10, true).0, Verdict::Ok);
        assert_eq!(judge(&steady, &[11.5, 11.6, 11.4], "lower", 0.10, true).0, Verdict::Worse);
        // Higher is better: dropping from 10 to 8.5 is worse, rising is fine.
        assert_eq!(judge(&steady, &[8.5, 8.6, 8.4], "higher", 0.10, true).0, Verdict::Worse);
        assert_eq!(judge(&steady, &[12.0, 12.1, 11.9], "higher", 0.10, true).0, Verdict::Ok);
        // A set that disagrees with itself by more than the bound settles
        // nothing — unless its spread is not judged, as for set-up time.
        let wide = [8.0, 10.0, 12.0];
        assert_eq!(judge(&wide, &steady, "lower", 0.10, true).0, Verdict::Unresolved);
        assert_eq!(judge(&wide, &steady, "lower", 0.10, false).0, Verdict::Ok);
    }

    #[test]
    fn samples_group_untraced_runs_by_workload_and_metric() {
        let set = json::parse(
            r#"{"runs": [
                {"workload": "w", "trace": 0, "metrics": {"m": {"value": 1.5, "unit": "ms"}}},
                {"workload": "w", "trace": 1, "metrics": {"layer": {"value": 9, "unit": "ms"}}},
                {"workload": "w", "trace": 0, "metrics": {"m": {"value": 2.5, "unit": "ms"}}}
            ]}"#,
        )
        .unwrap();
        let got = samples(&set).unwrap();
        assert_eq!(got["w"]["m"], [1.5, 2.5]);
        assert!(!got["w"].contains_key("layer"));
    }
}
