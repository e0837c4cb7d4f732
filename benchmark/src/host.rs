//! Facts about the host and this process, read from `/proc`.

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pin the calling thread, and with it every thread it spawns from now on,
/// to one of the CPUs it may run on (the highest-numbered: interrupts tend
/// to land on CPU 0). Returns that CPU, or `None` where pinning is not
/// possible — the run then goes ahead unpinned.
///
/// Why: on a shared host the hypervisor runs a guest's two vCPUs side by
/// side in one minute and one after the other in the next. A two-thread job
/// was measured 1.4 × faster in the first kind of minute and a two-thread
/// yardstick 1.8 × — so every wall-clock ratio of a two-thread job had two
/// values, and which one a run reported was the host's choice. On one CPU
/// there is one value: the job's work and its handoffs, never its overlap —
/// which this host cannot show reliably in any case (README, "Noise").
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    // The two glibc calls, declared here because the workspace has no
    // `libc` crate (no registry access).
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is a 1024-bit mask.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes,
    // which is what the call is told; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes, only read by the call.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Make glibc's allocator serve every thread from one arena. By default
/// each thread that allocates gets an arena of its own (up to 8 per CPU),
/// and which freed memory sits idle in which arena depends on how threads
/// happened to interleave: `served-mix` peaked anywhere from 20.6 to
/// 25.4 MiB over six runs of the same build, against 18.3 to 18.9 MiB with
/// one arena — so with the default, `peak_rss_mb` measured the allocator's
/// luck, not the program's memory. On the one CPU the process is pinned to,
/// threads never allocate at the same instant, so one arena costs no
/// contention. Returns whether the cap was applied (glibc only).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` of glibc's `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` takes two plain integers and only sets a tunable;
    // called before any other thread exists.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() -> bool {
    false
}

/// Peak resident set (`VmHWM`) of this process in MiB; `0.0` where
/// `/proc` does not say.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Share of the last ten seconds in which some task waited for a CPU
/// (`/proc/pressure/cpu`, `some avg10`), in percent; `0.0` where the
/// kernel does not report it. A noisy neighbour shows here.
pub fn cpu_pressure_avg10() -> f64 {
    std::fs::read_to_string("/proc/pressure/cpu")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("some"))?
                .split_whitespace()
                .find_map(|f| f.strip_prefix("avg10="))?
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_cpu_and_some_memory() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_pressure_avg10() >= 0.0);
    }
}
