//! Order statistics and process counters read from `/proc`.

use std::fs;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]` (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(v, n=4)`, the rule the steadiness gate
/// is stated in.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// CPU time (user + system) this process has used, in seconds, including
/// threads that have already exited. Linux reports it in clock ticks of
/// 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th and stime the 13th.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks / 100.0
}

/// Peak resident set size (VmHWM) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]), (1.5, 3.0, 4.5));
    }

    #[test]
    fn percentiles_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn proc_counters_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
