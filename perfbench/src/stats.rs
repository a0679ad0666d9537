//! Order statistics, process CPU time and peak memory.

use std::time::Instant;

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by the nearest-rank rule.
/// Sorts `xs` in place. Returns 0 for an empty slice.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Throughput in MB/s (10^6 bytes) of fixed-size windows of consecutive
/// ops, reported as the median over windows. `lat_ns` holds each op's
/// wall time in issue order, every op moving `op_bytes`. A scheduler
/// stall lands in one window and moves the median by at most one rank,
/// which a whole-phase bytes/elapsed figure does not survive.
pub fn window_mbps(lat_ns: &[u64], op_bytes: u64, window: usize) -> f64 {
    let mut rates: Vec<f64> = lat_ns
        .chunks_exact(window)
        .map(|w| (window as u64 * op_bytes) as f64 * 1e3 / w.iter().sum::<u64>() as f64)
        .collect();
    median(&mut rates)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Bytes in a Linux `cpu_set_t`.
const CPU_SET_BYTES: usize = 128;

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the lowest-numbered CPU it may run on. Returns that CPU, or `None` if
/// the affinity calls fail (the run then proceeds unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // which is the size of the kernel's `cpu_set_t`; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..CPU_SET_BYTES * 8).find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) that
    // outlives the call; the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Return the heap's free memory to the kernel (glibc `malloc_trim`),
/// in every arena, so the next allocations fault in fresh pages.
pub fn release_free_memory() {
    // SAFETY: `malloc_trim` takes a plain padding size and only touches
    // the allocator's own free lists.
    unsafe { malloc_trim(0) };
}

/// Reset this process's peak resident set size (`VmHWM`) to its
/// current size.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set size of this process (`VmHWM`), MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
