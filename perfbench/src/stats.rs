//! Order statistics for reported timings.

/// Samples a reported percentile must leave above it: a tail value
/// read off fewer samples than this is noise, not a percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile, refused unless at least
/// [`MIN_SAMPLES_BEYOND`] samples lie above the chosen rank.
///
/// # Errors
///
/// When the sample is too small for `p` to have that many samples
/// beyond it (or `p` is outside `(0, 100]`).
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} outside (0, 100]"));
    }
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it; need {MIN_SAMPLES_BEYOND}",
            n.saturating_sub(rank)
        ));
    }
    Ok(v[rank - 1])
}

/// Samples needed before [`percentile`] accepts `p`.
pub fn samples_needed(p: f64) -> usize {
    let mut n = MIN_SAMPLES_BEYOND + 1;
    while n - (((p / 100.0) * n as f64).ceil() as usize) < MIN_SAMPLES_BEYOND {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&few, 99.0).is_err(), "999 samples leave 9 beyond p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 99.0), Ok(989.0));
        let beyond = enough.iter().filter(|&&x| x > 989.0).count();
        assert_eq!(beyond, MIN_SAMPLES_BEYOND);
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn p50_is_accepted_on_small_samples() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(11.0));
        assert!(percentile(&v[..15], 50.0).is_err(), "15 samples leave 7 beyond p50");
        assert!(percentile(&v, 0.0).is_err());
    }
}
