//! Trace-size formatting for the "trace size" column of the paper's
//! Table II.

/// Format a byte count the way the paper's tables do (`2.6M`, `1.3G`, ...).
pub fn human_bytes(bytes: u64) -> String {
    const K: f64 = 1024.0;
    let b = bytes as f64;
    if b >= K * K * K {
        format!("{:.1}G", b / (K * K * K))
    } else if b >= K * K {
        format!("{:.1}M", b / (K * K))
    } else if b >= K {
        format!("{:.1}K", b / K)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_sizes() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.0K");
        assert_eq!(human_bytes(54 * 1024 * 1024), "54.0M");
        assert_eq!(human_bytes(3 * 1024 * 1024 * 1024 + 1024), "3.0G");
    }
}
