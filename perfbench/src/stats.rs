//! Order statistics with the benchmark's reporting rule: a percentile is
//! reported only when at least [`MIN_BEYOND`] samples lie beyond it.
//!
//! Percentiles use the Harrell-Davis estimator: a Beta-weighted average
//! of all order statistics, centred on the target rank. A workload mixes
//! request types whose latencies form separate clusters, and a
//! percentile that falls near the edge of a cluster would, taken as a
//! single order statistic, jump between clusters from run to run; the
//! weighted average moves smoothly instead.

/// Samples that must lie strictly above a percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Harrell-Davis percentile `q` (0 < q < 1) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples rank above the nearest-rank
/// position `ceil(q * n)`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile {q} out of (0, 1)");
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (q * (n as f64 + 1.0), (1.0 - q) * (n as f64 + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = inc_beta(a, b, (i + 1) as f64 / n as f64);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    Some(sum)
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        d = if d.abs() < TINY { TINY } else { d };
        c = 1.0 + aa / c;
        c = if c.abs() < TINY { TINY } else { c };
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        d = if d.abs() < TINY { TINY } else { d };
        c = 1.0 + aa / c;
        c = if c.abs() < TINY { TINY } else { c };
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection keeps the approximation in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let mut s = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        s += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + s.ln()
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean summed in slice order (so equal inputs give
/// bit-equal means); `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Option<f64>, b: f64, tol: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() <= tol)
    }

    #[test]
    fn p90_reported_and_p99_withheld_at_150_samples() {
        let xs: Vec<f64> = (1..=150).map(f64::from).collect();
        assert!(
            close(percentile(&xs, 0.90), 135.9, 0.5),
            "{:?}",
            percentile(&xs, 0.90)
        );
        assert_eq!(percentile(&xs, 0.99), None);
        assert!(
            close(percentile(&xs, 0.50), 75.5, 1e-6),
            "{:?}",
            percentile(&xs, 0.50)
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(percentile(&xs, 0.90).is_some());
        assert!(percentile(&xs[..99], 0.90).is_none());
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(close(percentile(&many, 0.99), 989.0, 1.0));
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn weights_sum_to_one() {
        let ones = vec![1.0; 2000];
        for q in [0.5, 0.9, 0.99] {
            assert!(close(percentile(&ones, q), 1.0, 1e-9), "q={q}");
        }
    }

    #[test]
    fn a_percentile_between_two_clusters_moves_smoothly() {
        // Half the samples near 1, half near 4: the median lies between
        // the clusters, and moving one sample across barely moves it.
        let mut xs: Vec<f64> = (0..60).map(|i| 1.0 + i as f64 * 1e-3).collect();
        xs.extend((0..60).map(|i| 4.0 + i as f64 * 1e-3));
        let before = percentile(&xs, 0.5).unwrap();
        xs[59] = 4.5;
        let after = percentile(&xs, 0.5).unwrap();
        assert!(before > 1.5 && before < 3.5, "{before}");
        assert!((after - before).abs() < 0.5, "{before} -> {after}");
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
