//! Process-level readings from the kernel: CPU time, peak RSS, core count.
//!
//! Every reader returns `Option`: a reading the kernel does not expose is
//! an *uncomputable* metric, and the caller fails the run instead of
//! printing a zero.

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` (`<time.h>`, Linux).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) this process has consumed, all threads,
/// including threads that already exited — the same quantity as
/// `utime + stime` in `/proc/self/stat`, read through `clock_gettime`
/// because `/proc` reports it in 10 ms ticks and the benchmark times
/// 10 ms chunks.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std already links it);
    // `ts` is a live, writable, correctly laid out `timespec` for the
    // duration of the call, and the call keeps no pointer afterwards.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// No per-process CPU clock is wired up off 64-bit Linux: the metric is
/// uncomputable there and the run fails closed.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_seconds() -> Option<f64> {
    None
}

/// `utime + stime` of a `/proc/<pid>/stat` line, seconds — the coarse
/// (10 ms tick) cross-check for [`process_cpu_seconds`]. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
#[cfg(test)]
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    // Linux reports these times in USER_HZ, 100 on every architecture.
    const USER_HZ: f64 = 100.0;
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // After the command: state(3) ppid(4) ... utime(14) stime(15).
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_kb(
        &std::fs::read_to_string("/proc/self/status").ok()?,
        "VmHWM:",
    )
    .map(|kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPUs the runtime may use.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "42 (a b) c)) R 1 42 42 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 2 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(3.0));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM:"), Some(2048));
        assert_eq!(parse_status_kb(status, "VmSwap:"), None);
    }

    #[test]
    fn live_readings_exist_on_linux() {
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            // Burn a little CPU, then the fine clock and the /proc ticks
            // must agree to within two ticks.
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            let fine = process_cpu_seconds().unwrap();
            let coarse =
                parse_stat_cpu(&std::fs::read_to_string("/proc/self/stat").unwrap()).unwrap();
            assert!(
                fine > 0.0 && (fine - coarse).abs() < 0.05,
                "{fine} vs {coarse}"
            );
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
        assert!(host_cpus() >= 1);
    }
}
