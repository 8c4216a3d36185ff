//! Settings of the C library's allocator for the benchmark process.
//!
//! Several workloads allocate and free buffers of megabytes every step (the
//! in-transit stream about 120 MiB a step). With glibc's defaults such
//! buffers come from `mmap` or from a heap that is trimmed when they are
//! freed, so every step pays for fresh zeroed pages and for giving them
//! back. That cost belongs to the kernel, not to this repository, and on the
//! reference host it moves a step by a third from one run to the next. The
//! benchmark therefore tells malloc to keep what it has: one arena, grown in
//! large increments, never trimmed. Freed buffers are then reused and the
//! run-to-run spread of the in-transit step falls from 19 % to 3 %.
//!
//! What is still measured: every allocation call and every byte copied. What
//! is not: the kernel's page-fault and unmap work for short-lived buffers,
//! so a change that removes such buffers gains less here than on a default
//! allocator; `mem.alloc_mib_per_step` shows it as a count.

extern "C" {
    /// `mallopt(3)`.
    fn mallopt(param: i32, value: i32) -> i32;
}

const M_TRIM_THRESHOLD: i32 = -1;
const M_TOP_PAD: i32 = -2;
const M_ARENA_MAX: i32 = -8;

/// Call once, first thing in `main`, before any other thread exists.
pub fn keep_freed_memory() {
    // SAFETY: `mallopt` only stores the values in malloc's own parameters; it
    // is called before the process starts a second thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 256 << 20);
    }
}
