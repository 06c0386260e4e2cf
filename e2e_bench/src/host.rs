//! What the host did during a run: CPU time, peak RSS, steal time, and
//! a description of the processor. Everything is read from `/proc` and
//! `/sys`, so a run on a disturbed host is visible next to its numbers.

use std::fs;

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`,
/// fixed at 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds the hypervisor ran other guests while this host's vCPUs
/// were ready (`steal` column of the aggregate `cpu` line of
/// `/proc/stat`). `None` where the kernel does not report it.
pub fn steal_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / USER_HZ)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds of the whole process, every thread
/// included (the core-seconds an allocation is billed).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) and the clock id is a constant
    // the kernel always supports; the call writes only through `tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Reset the peak-RSS mark (`VmHWM`) to the current RSS by writing `5`
/// to `/proc/self/clear_refs`. Free heap memory the allocator still
/// holds is returned to the kernel first, so the mark starts from the
/// live data rather than from whatever earlier solves left cached in
/// the allocator's arenas. Returns `false` where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    // SAFETY: glibc's `malloc_trim` takes a plain padding size, touches
    // only allocator-owned free memory, and is thread-safe.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since start or the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}

/// CPU model and cache sizes, one line, for the run record.
pub fn describe() -> String {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let mut caches = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        caches.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
    }
    format!("{model}; {} logical CPUs; caches: {}", nproc(), caches.join(", "))
}
