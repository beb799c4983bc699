//! Growth-rate fitting for scaling experiments: least-squares slope on
//! log-log data, i.e. the exponent `b` of the best fit `y = a·x^b`.

/// Least-squares slope of `ln y` against `ln x`.
///
/// # Panics
///
/// Panics if fewer than two points are supplied or any value is
/// non-positive.
pub fn log_log_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "paired data required");
    assert!(xs.len() >= 2, "need at least two points");
    let lx: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "x must be positive");
            x.ln()
        })
        .collect();
    let ly: Vec<f64> = ys
        .iter()
        .map(|&y| {
            assert!(y > 0.0, "y must be positive");
            y.ln()
        })
        .collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_power_laws() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        for b in [0.5f64, 1.0, 2.0] {
            let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(b)).collect();
            let slope = log_log_slope(&xs, &ys);
            assert!((slope - b).abs() < 1e-9, "b={b} got {slope}");
        }
    }

    #[test]
    fn tolerates_noise() {
        let xs: Vec<f64> = (1..=8).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x.powf(1.5) * if i % 2 == 0 { 1.1 } else { 0.9 })
            .collect();
        let slope = log_log_slope(&xs, &ys);
        assert!((slope - 1.5).abs() < 0.1, "got {slope}");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_point_panics() {
        let _ = log_log_slope(&[1.0], &[1.0]);
    }
}
