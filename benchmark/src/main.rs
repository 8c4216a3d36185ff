//! The measured gate of this repository: see `benchmark/README.md`.

mod alloc;
mod compare;
mod gen;
mod host;
mod json;
mod measure;
mod metrics;
mod pin;
mod probes;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use json::{object, Value};
use std::path::PathBuf;
use std::process::ExitCode;

/// Every allocation of the process goes through the counting allocator: it
/// is how `peak_extra_mib` and the `mem.*` layer metrics are measured.
#[global_allocator]
static ALLOC: smart_memtrack::TrackingAlloc = smart_memtrack::TrackingAlloc::new();

const USAGE: &str = "usage:
  smart-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--trace-out FILE] [--repeat N] [--out FILE] [--smoke]
  smart-benchmark list
  smart-benchmark compare A.json B.json [--bounds BENCHMARK.json]";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Flags in `switches` take no value.
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args { words: Vec::new(), flags: Vec::new() };
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) if switches.contains(&flag) => {
                    parsed.flags.push((flag.to_owned(), None))
                }
                Some(flag) => {
                    let value = args.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.push((flag.to_owned(), Some(value)));
                }
                None => parsed.words.push(arg),
            }
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            Some(text) => text.parse().map_err(|_| format!("--{flag}: `{text}` is not a number")),
            None => Ok(default),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((flag, _)) => Err(format!("unknown option --{flag}\n{USAGE}")),
            None => Ok(()),
        }
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "trace-out",
        "repeat",
        "out",
        "smoke",
    ])?;
    let workload = match args.value("workload") {
        Some(name) => Some(workloads::find(name).ok_or_else(|| {
            let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}`; one of {}", names.join(", "))
        })?),
        None => None,
    };
    let smoke = args.has("smoke");
    let seconds: f64 = args.number("seconds", if smoke { 0.1 } else { 8.0 })?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let opts = run::Options {
        workload,
        seed: args.number("seed", 1)?,
        seconds,
        trace: args.number::<u8>("trace", 0)? != 0,
        trace_out: args.value("trace-out").map(PathBuf::from),
        smoke,
        out: args.value("out").map(PathBuf::from),
        repeat: args.number("repeat", 1)?,
    };
    run::run(&opts)
}

/// What the benchmark reports, in the shape of `BENCHMARK.json`.
fn list() -> Value {
    let named = |name: &str, unit: &str, better: &str| {
        vec![("name", Value::from(name)), ("unit", unit.into()), ("better", better.into())]
    };
    object([
        (
            "workloads",
            Value::Arr(
                workloads::WORKLOADS
                    .iter()
                    .map(|w| object([("name", Value::from(w.name)), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|m| {
                        let mut members = named(m.name, m.unit, m.better);
                        members.push(("bound", m.bound.into()));
                        object(members)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|m| object(named(m.name, m.unit, m.better)))
                    .collect(),
            ),
        ),
    ])
}

fn compare_command(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["bounds"])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err(format!("compare takes two run sets\n{USAGE}"));
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = args.value("bounds").unwrap_or("BENCHMARK.json");
    compare::compare(&read(a)?, &read(b)?, &read(bounds)?)
}

fn main() -> ExitCode {
    alloc::keep_freed_memory();
    let outcome = Args::parse(std::env::args().skip(1), &["smoke"]).and_then(|args| {
        match args.words.first().map(String::as_str) {
            Some("run") => run_command(&args),
            Some("list") => {
                println!("{}", list());
                Ok(true)
            }
            Some("compare") => compare_command(&args),
            _ => Err(USAGE.to_owned()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned), &["smoke"])
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("run --workload ts_hist --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.words, ["run"]);
        assert_eq!(a.value("workload"), Some("ts_hist"));
        assert_eq!(a.number("seed", 1u64), Ok(7));
        assert_eq!(a.number("trace", 0u8), Ok(1));
        assert_eq!(a.number("repeat", 1usize), Ok(1));
        assert!(!a.has("smoke"));
        assert!(args("run --smoke --seed").is_err(), "a flag without its value");
        assert!(args("run --seed x").unwrap().number("seed", 1u64).is_err());
        assert!(args("run --bogus 1").unwrap().reject_unknown(&["seed"]).is_err());
    }

    /// The stand-in `serde` and `serde_derive` carry every value type they
    /// claim through `smart-wire` and back, in serde's wire order.
    #[test]
    fn stand_in_serde_round_trips_a_derived_struct() {
        #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
        struct Everything {
            flag: bool,
            label: Option<String>,
            none: Option<u8>,
            triple: (u8, i32, f64),
            entries: Vec<(i64, u64)>,
            unit: (),
        }
        let value = Everything {
            flag: true,
            label: Some("λ".to_owned()),
            none: None,
            triple: (7, -3, 0.5),
            entries: vec![(-1, 2), (3, 4)],
            unit: (),
        };
        let bytes = smart_wire::to_bytes(&value).expect("encodes");
        // bool, tag + length + 2 UTF-8 bytes, tag, 1 + 4 + 8, length + 2 * 16, nothing.
        assert_eq!(bytes.len(), 1 + (1 + 8 + 2) + 1 + 13 + (8 + 32));
        assert_eq!(&bytes[..2], [1, 1], "fields in declaration order, little-endian tags");
        assert_eq!(smart_wire::from_bytes::<Everything>(&bytes), Ok(value));
        assert!(smart_wire::from_bytes::<Everything>(&bytes[..bytes.len() - 1]).is_err());
    }

    /// `list` and `BENCHMARK.json` name exactly the same workloads and
    /// metrics, with the same units, directions, bounds and reasons.
    #[test]
    fn list_and_benchmark_json_agree() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = list();
        for key in ["workloads", "end_to_end", "per_layer"] {
            assert_eq!(committed.get(key), listed.get(key), "`{key}` differs");
        }
        let Value::Obj(members) = &committed else { panic!("BENCHMARK.json is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
