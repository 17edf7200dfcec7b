//! Summary statistics the benchmark reports: nearest-rank percentiles,
//! the least-squares fit of wave cost against wave size, and the answer
//! digest printed so two builds can be compared answer for answer.

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank p50) of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Arithmetic mean of `xs`; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Ordinary least-squares line `y = a + b·x` through `points`, returned
/// as `(a, b)`. With no spread in `x` the slope is undefined: the fit is
/// then the flat line through the mean of `y`.
pub fn fit_line(points: &[(f64, f64)]) -> (f64, f64) {
    if points.is_empty() {
        return (0.0, 0.0);
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    if sxx == 0.0 {
        return (my, 0.0);
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let b = sxy / sxx;
    (my - b * mx, b)
}

/// 64-bit FNV-1a: a stable digest of answers and schedules, independent
/// of the standard library's randomly keyed hasher.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a little-endian `u64` into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn wave_cost_fit_recovers_a_known_line() {
        // Wave time = 40 µs fixed + 12.5 µs per query, exactly.
        let pts: Vec<(f64, f64)> = (1..=30)
            .map(|n| (f64::from(n), 40.0 + 12.5 * f64::from(n)))
            .collect();
        let (a, b) = fit_line(&pts);
        assert!((a - 40.0).abs() < 1e-9, "intercept {a}");
        assert!((b - 12.5).abs() < 1e-9, "slope {b}");

        // Symmetric noise around the line leaves the fit on it.
        let noisy: Vec<(f64, f64)> = (1..=20)
            .flat_map(|n| {
                let x = f64::from(n);
                [(x, 10.0 + 3.0 * x + 1.0), (x, 10.0 + 3.0 * x - 1.0)]
            })
            .collect();
        let (a, b) = fit_line(&noisy);
        assert!((a - 10.0).abs() < 1e-9 && (b - 3.0).abs() < 1e-9);

        // No spread in wave size: flat line through the mean.
        assert_eq!(fit_line(&[(4.0, 10.0), (4.0, 20.0)]), (15.0, 0.0));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
