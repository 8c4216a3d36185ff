//! The names the benchmark reports: what `list` prints and what
//! `BENCHMARK.json` must list (a unit test holds the two together).

use crate::json::{object, Value};
use std::collections::BTreeMap;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, per workload. `error_ratio` is reported
/// through the result's `failed` and `attempted` instead: it is 0 on a
/// correct run, and a gate metric must never be 0.
///
/// The three timing metrics share the largest bound the driver allows. Ten
/// runs on ten seeds on the reference host spread (quartile to quartile, as
/// a share of the median) by 3 % to 14 % depending on the workload and on
/// what the host's other tenants were doing that quarter of an hour, so a
/// tighter bound would reject the benchmark itself. Heap is deterministic.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "step_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "throughput_melem_s", unit: "Melem/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cpu_ms_per_step", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_extra_mib", unit: "MiB", better: "lower", bound: 0.05 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Metrics of single layers, from the traced run only. A metric whose layer
/// a workload does not use reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    layer("driver.step_ms_p95", "ms", "lower"),
    layer("driver.step_ms_max", "ms", "lower"),
    layer("driver.steps", "count", "higher"),
    layer("driver.unattributed_ms", "ms", "lower"),
    layer("driver.trace_overhead_pct", "%", "lower"),
    layer("pool.forkjoin_us", "us", "lower"),
    layer("stage.copy_ms", "ms", "lower"),
    layer("stage.bytes", "B", "lower"),
    layer("reduce.split_max_ms", "ms", "lower"),
    layer("reduce.split_sum_ms", "ms", "lower"),
    layer("reduce.imbalance", "ratio", "lower"),
    layer("reduce.ns_per_elem", "ns", "lower"),
    layer("combine.local_merge_ms", "ms", "lower"),
    layer("combine.global_ms", "ms", "lower"),
    layer("combine.iter_ms", "ms", "lower"),
    layer("combine.payload_bytes", "B", "lower"),
    layer("combine.wire_bytes", "B", "lower"),
    layer("combine.map_entries", "count", "lower"),
    layer("redmap.hash_upsert_ns", "ns", "lower"),
    layer("redmap.dense_upsert_ns", "ns", "lower"),
    layer("redmap.retained_mib", "MiB", "lower"),
    layer("wire.encode_ns_per_entry", "ns", "lower"),
    layer("wire.decode_ns_per_entry", "ns", "lower"),
    layer("wire.view_ns_per_entry", "ns", "lower"),
    layer("wire.bytes_per_entry", "B", "lower"),
    layer("wire.raw_encode_mib_s", "MiB/s", "higher"),
    layer("wire.raw_decode_mib_s", "MiB/s", "higher"),
    layer("transport.inproc.rtt_us", "us", "lower"),
    layer("transport.uds.rtt_us", "us", "lower"),
    layer("transport.tcp.rtt_us", "us", "lower"),
    layer("transport.inproc.mib_s", "MiB/s", "higher"),
    layer("transport.uds.mib_s", "MiB/s", "higher"),
    layer("transport.tcp.mib_s", "MiB/s", "higher"),
    layer("transport.frames_per_step", "count", "lower"),
    layer("transport.bytes_per_step", "B", "lower"),
    layer("collective.barrier_us", "us", "lower"),
    layer("collective.allreduce_u64_us", "us", "lower"),
    layer("stream.send_busy_ms", "ms", "lower"),
    layer("stream.credit_wait_ms", "ms", "lower"),
    layer("stream.recv_busy_ms", "ms", "lower"),
    layer("stream.bytes_per_step", "B", "lower"),
    layer("stream.batches", "count", "lower"),
    layer("stream.buffered_peak_mib", "MiB", "lower"),
    layer("space.feed_copy_ms", "ms", "lower"),
    layer("space.feed_block_ms", "ms", "lower"),
    layer("space.ring_peak_mib", "MiB", "lower"),
    layer("in_transit.stager_steps", "count", "higher"),
    layer("in_transit.drain_ms", "ms", "lower"),
    layer("spill.runs_per_step", "count", "lower"),
    layer("spill.bytes_per_step", "B", "lower"),
    layer("spill.write_busy_ms", "ms", "lower"),
    layer("spill.peak_resident_mib", "MiB", "lower"),
    layer("spill.run_write_mib_s", "MiB/s", "higher"),
    layer("spill.run_read_mib_s", "MiB/s", "higher"),
    layer("spill.commit_us", "us", "lower"),
    layer("spill.merge_ns_per_record", "ns", "lower"),
    layer("serve.job_busy_ms", "ms", "lower"),
    layer("serve.result_bytes_per_step", "B", "lower"),
    layer("serve.staged_bytes_per_step", "B", "lower"),
    layer("serve.overhead_ms", "ms", "lower"),
    layer("mem.alloc_calls_per_step", "count", "lower"),
    layer("mem.alloc_mib_per_step", "MiB", "lower"),
];

/// Per-layer values of one traced run, by metric name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Record `value` under `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: Layers) {
        self.0.extend(other.0);
    }

    /// Every per-layer metric in [`PER_LAYER`] order, 0 where nothing set it.
    pub fn to_json(&self) -> Value {
        metrics_json(PER_LAYER.iter().map(|m| (m.name, self.get(m.name), m.unit)))
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` — the shape the driver reads.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Value {
    object(metrics.map(|(name, value, unit)| {
        (name, object([("value", Value::from(value)), ("unit", Value::from(unit))]))
    }))
}

#[cfg(test)]
/// A metric or workload name the driver accepts: starts with a letter or a
/// digit, then up to 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert_eq!(PER_LAYER.len(), 62);
    }

    #[test]
    fn name_charset_is_enforced() {
        for good in ["a", "step_ms_p50", "transport.tcp.rtt_us", "9lives", "a-b"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_a", ".a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn layers_print_every_metric_with_unset_ones_at_zero() {
        let mut layers = Layers::default();
        layers.set("pool.forkjoin_us", 3.5);
        let json = layers.to_json();
        let Value::Obj(members) = &json else { panic!("object") };
        assert_eq!(members.len(), PER_LAYER.len());
        assert_eq!(
            json.get("pool.forkjoin_us").and_then(|m| m.get("value")),
            Some(&Value::Num(3.5))
        );
        assert_eq!(
            json.get("serve.overhead_ms").and_then(|m| m.get("value")),
            Some(&Value::Num(0.0))
        );
    }
}
