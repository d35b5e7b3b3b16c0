//! The three `/proc` readings the benchmark takes of itself: CPU time,
//! peak resident memory and loopback traffic. Parsers are pure functions
//! of the file text so they can be tested without a `/proc`.

use std::fs;

/// Kernel `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`.
/// Fixed at 100 on every Linux ABI this repo builds for (`getconf
/// CLK_TCK`), and there is no libc crate offline to ask `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` of the whole process (all threads, including ones
/// that already exited) in clock ticks, from the text of
/// `/proc/<pid>/stat`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    // Field 2 is `(comm)` and may itself contain spaces and parentheses;
    // everything after the *last* `)` is space-separated, starting at
    // field 3 (state). utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Received bytes of interface `iface` from the text of `/proc/net/dev`.
/// On loopback every byte sent is a byte received, so this is the
/// traffic in both directions.
pub fn parse_net_dev_rx_bytes(net_dev: &str, iface: &str) -> Option<u64> {
    net_dev.lines().find_map(|line| {
        let (name, counters) = line.split_once(':')?;
        if name.trim() != iface {
            return None;
        }
        counters.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU seconds this process has consumed so far.
pub fn self_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let ticks = parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat");
    ticks as f64 / TICKS_PER_SECOND
}

/// Restarts the kernel's peak-RSS watermark of this process at its
/// current RSS (`clear_refs` value 5), so the next [`self_peak_rss_mb`]
/// is the peak since now. Where the kernel or sandbox refuses, the
/// watermark just keeps its process-lifetime meaning.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MB, since the last
/// [`reset_peak_rss`].
pub fn self_peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Bytes that have crossed the loopback interface since boot.
pub fn loopback_bytes() -> u64 {
    let dev = fs::read_to_string("/proc/net/dev").expect("read /proc/net/dev");
    parse_net_dev_rx_bytes(&dev, "lo").expect("lo in /proc/net/dev")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_survive_hostile_comm() {
        let stat = "4242 (a b) c) R 1 4242 1 0 -1 4194304 85 0 0 0 \
                    1234 56 7 8 20 0 16 0 200726 2568192 338";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   61796 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(61796));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
    }

    #[test]
    fn net_dev_picks_the_named_interface() {
        let dev = "Inter-|   Receive                |  Transmit\n \
                   face |bytes    packets errs|bytes    packets\n    \
                   lo: 15383119525  614542    0    0    0     0  0  0 15383119525  614542\n  \
                   eth0:   45930     609    0    0    0     0  0  0    36593     624\n";
        assert_eq!(parse_net_dev_rx_bytes(dev, "lo"), Some(15_383_119_525));
        assert_eq!(parse_net_dev_rx_bytes(dev, "eth0"), Some(45_930));
        assert_eq!(parse_net_dev_rx_bytes(dev, "wlan0"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        reset_peak_rss();
        assert!(self_peak_rss_mb() > 0.0);
        assert!(self_cpu_seconds() >= 0.0);
        let before = loopback_bytes();
        assert!(loopback_bytes() >= before);
    }
}
