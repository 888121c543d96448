//! Process and CPU readings from `/proc`.

use std::fs;

/// Resets the peak-RSS mark (`VmHWM`) to the current resident set, so a
/// later [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    match r2t_obs::peak_rss_bytes() {
        0 => Err("no VmHWM reading in /proc/self/status".to_string()),
        bytes => Ok(bytes as f64 / (1024.0 * 1024.0)),
    }
}

/// The CPU this thread last ran on (field 39 of `/proc/self/stat`).
pub fn current_cpu() -> Result<usize, String> {
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name (field 2) may hold spaces; count fields after it.
    let after_comm = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    after_comm
        .split_whitespace()
        .nth(39 - 3)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| "no processor field in /proc/self/stat".to_string())
}

/// Jiffies the hypervisor stole from `cpu` since boot (the eighth counter
/// of its `/proc/stat` line).
pub fn steal_jiffies(cpu: usize) -> Result<u64, String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let label = format!("cpu{cpu}");
    stat.lines()
        .find_map(|l| {
            let mut fields = l.split_whitespace();
            (fields.next() == Some(label.as_str())).then(|| fields.nth(7))?
        })
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("no steal counter for {label} in /proc/stat"))
}

/// CPU time this thread has run, in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The client is one thread pinned to one CPU, and everything it calls
/// runs inline on it, so this is the request's wall time minus the time the
/// hypervisor stole from the vCPU. Steal on a shared 2-vCPU host measured
/// 1–16% of the CPU in 3-second windows; timing on this clock keeps it out
/// of the figures.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call, and `clock_gettime` writes only
    // into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A stopwatch on [`thread_cpu_ns`].
#[derive(Clone, Copy)]
pub struct CpuTimer(u64);

impl CpuTimer {
    pub fn start() -> Self {
        CpuTimer(thread_cpu_ns())
    }

    pub fn elapsed_s(self) -> f64 {
        (thread_cpu_ns() - self.0) as f64 / 1e9
    }
}

/// Returns the allocator's free memory to the kernel (glibc `malloc_trim`),
/// so that input generation leaves no freed pages in the baseline of a
/// peak-RSS reset.
pub fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own state under its own lock, and is safe to call at any
    // point between allocations.
    unsafe {
        malloc_trim(0);
    }
}
