//! CPU placement of the threads of a workload, from outside the library.
//!
//! The paper pins each analytics thread to a core (§3.1); the library's
//! `affinity` module only records the request, because the call needs libc.
//! Left to the kernel, the two workers of a pool are often woken on the CPU
//! of the thread that woke them and spread only milliseconds later, so a
//! 5 ms step reads as 5 ms or 10 ms from one run to the next. The benchmark
//! therefore places threads itself, as a deployment would with `taskset` or
//! its MPI launcher: the simulation on CPU 0, dedicated analytics threads on
//! CPU 1, pool worker `w` on CPU `w`. It issues the call through the C
//! library every Rust program on Linux already links.

use smart_pool::ThreadPool;
use std::sync::OnceLock;

extern "C" {
    /// `sched_setaffinity(2)`: `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Best effort: a refusal by the kernel leaves the thread where it was.
fn set_mask(mask: u64) {
    // SAFETY: `mask` is a live `u64` and its size is passed as the size of
    // the set, so the kernel reads exactly those eight bytes; the call has
    // no other effect on memory.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// CPUs the host has online, from sysfs (`0-1`, `0-3,8-11`, ...). Not
/// `available_parallelism`: that counts the CPUs the calling thread may run
/// on, which is one as soon as the thread, or the thread that spawned it, is
/// pinned.
pub fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| {
        let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
        count_cpu_list(online.trim()).max(1)
    })
}

fn count_cpu_list(list: &str) -> usize {
    list.split(',')
        .filter_map(|range| {
            let (first, last) = range.split_once('-').unwrap_or((range, range));
            Some(last.parse::<usize>().ok()?.checked_sub(first.parse::<usize>().ok()?)? + 1)
        })
        .sum()
}

/// Keeps the calling thread on one CPU until dropped, then lets it run
/// anywhere again. Threads spawned meanwhile inherit the placement.
pub struct Pinned(());

impl Pinned {
    /// Pin the calling thread to `cpu` (modulo the CPUs the host has).
    pub fn to(cpu: usize) -> Pinned {
        set_mask(1 << (cpu % host_cpus().min(64)));
        Pinned(())
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_mask(u64::MAX);
    }
}

/// Pin worker `w` of `pool` to CPU `first_cpu + w`, for the life of the pool.
pub fn pin_workers(pool: &ThreadPool, first_cpu: usize) {
    pool.run_on_workers(pool.size(), |worker| std::mem::forget(Pinned::to(first_cpu + worker)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_are_counted() {
        assert_eq!(count_cpu_list("0"), 1);
        assert_eq!(count_cpu_list("0-1"), 2);
        assert_eq!(count_cpu_list("0-3,8-11,15"), 9);
        assert_eq!(count_cpu_list(""), 0);
    }

    #[test]
    fn a_pinned_thread_still_sees_every_host_cpu() {
        let before = host_cpus();
        let _pin = Pinned::to(0);
        assert_eq!(host_cpus(), before);
    }
}
