//! Metric arithmetic shared by the gated and the traced runs.

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Relative error of `engine` against the `reference`, in percent:
/// `|engine − reference| / reference × 100`. `None` when the reference
/// is 0, where the error is undefined (never reported as 0).
pub fn err_pct(engine: u64, reference: u64) -> Option<f64> {
    if reference == 0 {
        return None;
    }
    Some(engine.abs_diff(reference) as f64 / reference as f64 * 100.0)
}

/// Share of injected flows that did not complete, in percent.
pub fn incomplete_pct(injected: u64, completed: u64) -> f64 {
    if injected == 0 {
        return 0.0;
    }
    injected.saturating_sub(completed) as f64 / injected as f64 * 100.0
}

/// Share of `wall_nanos` that `ops` operations at `ns_per_op` account
/// for, clamped to `[0, 1]` (a replayed layer cannot take more than the
/// whole run).
pub fn share(ops: u64, ns_per_op: f64, wall_nanos: f64) -> f64 {
    if wall_nanos <= 0.0 {
        return 0.0;
    }
    (ops as f64 * ns_per_op / wall_nanos).clamp(0.0, 1.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB. `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn err_pct_is_symmetric_in_sign_and_undefined_on_zero() {
        assert_eq!(err_pct(150, 100), Some(50.0));
        assert_eq!(err_pct(50, 100), Some(50.0));
        assert_eq!(err_pct(100, 100), Some(0.0));
        assert_eq!(err_pct(5, 0), None);
    }

    #[test]
    fn incomplete_pct_counts_the_missing_share() {
        assert_eq!(incomplete_pct(200, 150), 25.0);
        assert_eq!(incomplete_pct(200, 200), 0.0);
        assert_eq!(incomplete_pct(0, 0), 0.0);
    }

    #[test]
    fn share_scales_and_clamps() {
        assert!((share(1_000, 50.0, 100_000.0) - 0.5).abs() < 1e-12);
        assert_eq!(share(1_000, 500.0, 100_000.0), 1.0);
        assert_eq!(share(0, 50.0, 100_000.0), 0.0);
        assert_eq!(share(10, 50.0, 0.0), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_where_proc_exists() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().expect("VmHWM line") > 0.0);
        }
    }
}
