//! Order statistics, rank correlation and the seeded generator the
//! workloads draw their inputs and schedules from.

/// Deterministic splitmix64 stream: the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent seed for sub-stream `k` of `seed`.
pub fn derive(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place); NaN when `values` is empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 99th percentile, reported only when at least ten samples lie
/// beyond it (at least 1000 samples).
pub fn p99(values: &mut [f64]) -> Option<f64> {
    (values.len() >= 1000).then(|| quantile(values, 0.99))
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Ranks with ties sharing their average rank.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman rank correlation of two paired samples: the Pearson
/// correlation of their tie-averaged ranks. `None` when either side has
/// no spread (every value tied), where the coefficient is undefined.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "spearman needs paired samples");
    let (ra, rb) = (ranks(a), ranks(b));
    let (ma, mb) = (mean(&ra), mean(&rb));
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    (va > 0.0 && vb > 0.0).then(|| cov / (va * vb).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spearman_handles_ties_and_monotone_maps() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 30.0, 40.0]), Some(1.0));
        assert_eq!(spearman(&a, &[4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(spearman(&a, &[1.0, 1.0, 1.0, 1.0]), None);
        let tied = spearman(&a, &[1.0, 1.0, 2.0, 3.0]).unwrap();
        assert!(tied > 0.9 && tied < 1.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert!(p99(&mut v).is_none());
    }
}
