//! Process memory read from `/proc/self/status`.

/// The value of a `kB` field (`VmHWM`, `VmRSS`, …) of a
/// `/proc/<pid>/status` text, in bytes.
pub fn status_bytes(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut words = rest.split_whitespace();
        let kb: u64 = words.next()?.parse().ok()?;
        match words.next() {
            Some("kB") => Some(kb * 1024),
            _ => None,
        }
    })
}

/// `field` of this process's status, in bytes (0 where `/proc` is
/// unavailable).
pub fn self_bytes(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_bytes(&s, field))
        .unwrap_or(0)
}

/// Peak resident set size of this process, in bytes.
pub fn peak_rss() -> u64 {
    self_bytes("VmHWM")
}

/// Current resident set size of this process, in bytes.
pub fn rss() -> u64 {
    self_bytes("VmRSS")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  812340 kB\nVmHWM:\t  402116 kB\n\
                          VmRSS:\t  398000 kB\nThreads:\t3\n";

    #[test]
    fn parses_kb_fields_to_bytes() {
        assert_eq!(status_bytes(STATUS, "VmHWM"), Some(402_116 * 1024));
        assert_eq!(status_bytes(STATUS, "VmRSS"), Some(398_000 * 1024));
    }

    #[test]
    fn rejects_missing_prefixed_and_unitless_fields() {
        assert_eq!(status_bytes(STATUS, "VmSwap"), None);
        // `VmRS` is a prefix of `VmRSS`, not a field of its own.
        assert_eq!(status_bytes(STATUS, "VmRS"), None);
        assert_eq!(status_bytes(STATUS, "Threads"), None);
        assert_eq!(status_bytes("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn reads_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            // The high-water mark read later covers the RSS read first.
            let now = rss();
            assert!(now > 0 && peak_rss() >= now);
        }
    }
}
