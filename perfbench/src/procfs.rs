//! Process-level observation through `/proc`: CPU time per thread, peak
//! resident memory, write I/O and host steal time. Nothing here touches
//! the engine; every number is read from outside it.

use std::collections::BTreeMap;
use std::fs;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc` tick counters (`USER_HZ`, fixed
/// at 100 on Linux for every architecture this runs on).
const TICK_NS: u64 = 10_000_000;

/// Fields after the parenthesised `comm` of a `/proc/.../stat` line, so
/// field 3 of the man page is index 0 here.
fn stat_fields(text: &str) -> Option<Vec<&str>> {
    let close = text.rfind(')')?;
    Some(text[close + 1..].split_whitespace().collect())
}

/// User + system CPU of a `stat` file, in nanoseconds (tick resolution).
fn stat_cpu_ns(path: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let fields = stat_fields(&text)?;
    // utime and stime are man-page fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// CPU the process's threads used between two [`threads`] samples, in
/// nanoseconds: the sum of per-thread deltas, where a thread born after
/// `before` counts in full. Threads that ended in between are missed, so
/// use it across an interval in which no thread exits.
pub fn cpu_between(
    before: &BTreeMap<u32, ThreadSample>,
    after: &BTreeMap<u32, ThreadSample>,
) -> u64 {
    after
        .iter()
        .map(|(tid, s)| {
            s.cpu_ns
                .saturating_sub(before.get(tid).map_or(0, |b| b.cpu_ns))
        })
        .sum()
}

/// CPU time of one thread in nanoseconds: `schedstat`'s on-CPU time when
/// the kernel exposes it, `stat` ticks otherwise.
fn thread_cpu_ns(tid: u32) -> Option<u64> {
    let schedstat = format!("/proc/self/task/{tid}/schedstat");
    if let Ok(text) = fs::read_to_string(schedstat) {
        if let Some(ns) = text.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    stat_cpu_ns(&format!("/proc/self/task/{tid}/stat"))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far, to the nanosecond. The
/// `schedstat` file of a running thread only advances at scheduler ticks
/// (4 ms here), too coarse for a set-up of a few milliseconds; the thread
/// CPU clock brings the running thread's account up to date first.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock exists on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One live thread at the moment of sampling.
#[derive(Debug, Clone)]
pub struct ThreadSample {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// CPU time consumed so far, in nanoseconds.
    pub cpu_ns: u64,
}

/// Every live thread of this process, by thread id.
pub fn threads() -> BTreeMap<u32, ThreadSample> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let name = fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
            .map(|s| s.trim_end().to_string())
            .unwrap_or_default();
        if let Some(cpu_ns) = thread_cpu_ns(tid) {
            out.insert(tid, ThreadSample { name, cpu_ns });
        }
    }
    out
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM:").unwrap_or(0)
}

fn status_field(name: &str) -> Option<u64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(name))?;
    line[name.len()..].split_whitespace().next()?.parse().ok()
}

/// Write-side I/O counters from `/proc/self/io`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteIo {
    /// Bytes handed to `write`-family system calls (`wchar`).
    pub bytes: u64,
    /// `write`-family system calls made (`syscw`).
    pub syscalls: u64,
}

impl WriteIo {
    /// Read the current counters (zero where `/proc/self/io` is absent).
    pub fn now() -> WriteIo {
        let text = fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        WriteIo {
            bytes: field("wchar:"),
            syscalls: field("syscw:"),
        }
    }

    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &WriteIo) -> WriteIo {
        WriteIo {
            bytes: self.bytes.saturating_sub(earlier.bytes),
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
        }
    }
}

/// Host-wide steal time so far, in nanoseconds (the `steal` column of the
/// aggregate `cpu` line of `/proc/stat`): time this machine's virtual CPUs
/// were runnable but the hypervisor ran someone else.
pub fn steal_ns() -> u64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * TICK_NS)
}

/// CPUs this process may run on.
pub fn cpus_visible() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_skips_a_comm_with_spaces() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 7 3 0 0";
        let fields = stat_fields(line).expect("parsable");
        assert_eq!(fields[0], "R");
        assert_eq!(fields[11], "7");
        assert_eq!(fields[12], "3");
    }

    #[test]
    fn own_thread_is_visible() {
        let tid = current_tid().expect("thread-self link");
        assert!(threads().contains_key(&tid));
        let before = thread_cpu();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu() > before, "a busy loop uses CPU ({x})");
        assert!(peak_rss_kb() > 0);
        assert!(cpus_visible() >= 1);
    }
}
