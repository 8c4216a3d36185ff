//! The environment a run happens in: refusal of ambient `SMART_*` knobs,
//! the host descriptor recorded with every result, process CPU time, and
//! the benchmark's scratch directory.

use crate::json::{object, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// Environment variables the library reads to switch code paths. Any of them
/// set from outside would make two runs of the same commit measure different
/// programs, so the benchmark refuses to start.
const KNOBS: &[&str] = &[
    "SMART_TRANSPORT",
    "SMART_SPILL_BUDGET",
    "SMART_MEM_BUDGET",
    "SMART_NO_SIMD",
    "SMART_WIRE_VIEW",
    "SMART_SPILL_DIR",
];

/// The ambient knobs that are set, among [`KNOBS`] and every `SMART_CKPT_*`.
pub fn ambient_knobs(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut found: Vec<String> = vars
        .filter(|name| KNOBS.contains(&name.as_str()) || name.starts_with("SMART_CKPT_"))
        .collect();
    found.sort();
    found
}

/// Fail with a message naming every ambient knob.
pub fn check_environment() -> Result<(), String> {
    let found = ambient_knobs(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()));
    if found.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set in the environment; these switch code paths inside the \
             library, so unset them and run again",
            found.join(", ")
        ))
    }
}

/// Where spill runs and traces go: inside the checkout, next to the build
/// output when the driver names one, else `benchmark/scratch`. The directory
/// is created here; the caller removes what it wrote.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(target) => PathBuf::from(target).join("smart-benchmark-scratch"),
        None => PathBuf::from("benchmark/scratch"),
    };
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// User + system CPU time of the whole process so far, in milliseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s on Linux).
pub fn process_cpu_ms() -> f64 {
    const TICK_MS: f64 = 10.0;
    fs::read_to_string("/proc/self/stat").ok().and_then(|stat| parse_cpu_ticks(&stat)).unwrap_or(0)
        as f64
        * TICK_MS
}

/// `utime + stime` out of a `/proc/<pid>/stat` line. The command name (field
/// 2) may hold spaces and parentheses, so fields are counted after the last
/// `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// File-system type of the mount holding `path`, from `/proc/mounts` (the
/// longest mount point that is a prefix of the canonical path).
pub fn fs_type(path: &Path) -> String {
    let canonical = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_ascii_whitespace();
            let (_dev, mount, kind) = (parts.next()?, parts.next()?, parts.next()?);
            canonical.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, kind)| kind.to_owned())
}

/// Size in bytes of the last-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |name: &str| fs::read_to_string(format!("{dir}/{name}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) * 1024,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) * 1024 * 1024,
                None => size.parse().unwrap_or(0),
            },
        };
        if level >= best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line a command prints, or `unknown` when it cannot run — a driver's
/// checkout is not a git repository.
fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host a result was measured on.
pub fn descriptor(scratch: &Path) -> Value {
    let nproc = crate::pin::host_cpus();
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    object([
        ("nproc", Value::from(nproc as u64)),
        ("cpu_model", cpu_model().into()),
        ("llc_bytes", llc_bytes().into()),
        ("avx2", avx2.into()),
        ("scratch_dir", scratch.display().to_string().into()),
        ("scratch_fs", fs_type(scratch).into()),
        ("git_rev", first_line_of("git", &["rev-parse", "--short", "HEAD"]).into()),
        ("rustc", first_line_of("rustc", &["--version"]).into()),
        (
            "stand_in_crates",
            "serde, serde_derive, crossbeam, parking_lot, bytes (benchmark/vendor)".into(),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_knobs_are_found_and_others_ignored() {
        let vars = ["PATH", "SMART_NO_SIMD", "SMART_CKPT_EVERY", "SMARTISH", "SMART_TRANSPORT"];
        let found = ambient_knobs(vars.iter().map(|s| s.to_string()));
        assert_eq!(found, ["SMART_CKPT_EVERY", "SMART_NO_SIMD", "SMART_TRANSPORT"]);
        assert!(ambient_knobs(["HOME".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn cpu_ticks_survive_a_command_name_with_spaces_and_parentheses() {
        let stat = "42 (odd) name)) S 1 42 42 0 -1 4194560 100 0 0 0 37 5 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_ms();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= before + 20.0, "60 ms of spinning shows as CPU time");
    }
}
