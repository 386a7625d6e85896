//! Order statistics and the seeded generators behind every input.

/// The value at quantile `q` of `samples` (nearest rank on the sorted
/// samples; 0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly beyond quantile `q` of `n` samples. A percentile is
/// only reported as a tail when at least ten samples lie beyond it.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - ((n - 1) as f64 * q).round() as usize
}

/// The highest of p75, p90, p95, p99 and p99.9 that keeps at least ten
/// of `n` samples beyond it, if any does.
pub fn tail_q(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75].into_iter().find(|&q| n > 0 && beyond(n, q) >= 10)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` separating independent uses
    /// of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Arrival times of a Poisson process of `rate` events per second
    /// over `[0, window)`, conditioned on its expected count: given the
    /// count, Poisson arrivals are independent uniform draws. Fixing the
    /// count keeps the offered load equal across seeds.
    pub fn arrivals(&mut self, rate: f64, window: f64) -> Vec<f64> {
        let n = (rate * window).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| self.unit() * window).collect();
        times.sort_by(f64::total_cmp);
        times
    }
}

/// Inverse-CDF zipf(s = 1.0) sampler over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks, rank 0 the most popular.
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.unit() * total;
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tail_counts() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(beyond(101, 0.5), 50);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(tail_q(1000), Some(0.99));
        assert_eq!(tail_q(45), Some(0.75));
        assert_eq!(tail_q(30), None);
        assert_eq!(tail_q(15), None);
    }

    #[test]
    fn generators_repeat_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
    }
}
