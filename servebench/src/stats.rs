//! Small measurement helpers: order statistics, a seeded mixer, and the
//! `/proc` readers behind `cpu_ms_per_req` and `peak_rss_mb`.

use std::time::Duration;

/// Linux reports `utime`/`stime` in clock ticks of this length (USER_HZ,
/// fixed at 100 on every mainstream architecture).
const TICK_NS: u64 = 10_000_000;

/// SplitMix64 finalizer: the seeded mixer behind every generator choice.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `mix(seed, index)`.
pub fn unit(seed: u64, index: u64) -> f64 {
    (mix(seed, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// A plan seed for request `index`: distinct per index and below the
/// 2^53 ceiling that `ServeRequest` accepts.
pub fn plan_seed(seed: u64, index: u64) -> u64 {
    mix(seed ^ 0x5EED, index) >> 12
}

/// Nearest-rank quantile `q` of `values` (0 when empty). Sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Ratio `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time (user + system) consumed so far by process `pid`, every
/// thread included; `None` when the process is gone.
pub fn cpu_time(pid: &str) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_nanos((utime + stime) * TICK_NS))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn plan_seeds_fit_in_a_double() {
        for i in 0..1000 {
            assert!(plan_seed(u64::MAX, i) < 1 << 53);
        }
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(cpu_time("self").is_some());
        assert!(peak_rss_mb() > 0.0);
    }
}
