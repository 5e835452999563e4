//! What the operating system knows about this process — CPU time, peak
//! resident memory, bytes handed to `write` — read from `/proc/self`, plus
//! the provenance every result carries.

use std::process::Command;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, fixed at 100 for
/// user space on every architecture.
const TICKS_PER_S: f64 = 100.0;

/// Sums `utime + stime` out of one `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn cpu_seconds_from_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// CPU seconds (user + system, all threads, dead ones included) this
/// process has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_seconds_from_stat(&s))
        .unwrap_or(0.0)
}

fn status_kib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) in MiB since process start or the last
/// successful [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// Resets `VmHWM` to the current resident set. Returns whether the kernel
/// accepted it; where it does not, peaks are since process start.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes this process has passed to `write`-family system calls.
pub fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load-generating threads: `clamp(nproc, 2, 4)`.
pub fn load_threads() -> usize {
    nproc().clamp(2, 4)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `git rev-parse HEAD` of the directory the benchmark runs in, or
/// `"unknown"` outside a repository.
pub fn git_revision() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// `rustc -V`.
pub fn rustc_version() -> String {
    command_line("rustc", &["-V"])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_parses_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(cpu_seconds_from_stat(stat), Some(3.0));
        assert_eq!(cpu_seconds_from_stat("garbage"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 120 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() > before, "120 ms of spinning is >= 1 tick");
    }
}
