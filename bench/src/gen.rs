//! Seeded input generators. The program under test only ever sees the rows
//! and requests these produce; the ground truth stays on the benchmark side.
//!
//! Every row is a pure function of `(seed, row index)`, so a consumer can
//! regenerate any row's ground truth in O(1) memory (the streamed sink does
//! exactly that) and the same seed always yields the same inputs.

use scis_tensor::{Matrix, Rng64};

/// Latent factors behind every generated table.
const LATENT: usize = 3;
/// Seed of the column loadings: fixed, so the table's structure is the same
/// for every workload seed and only the sampled rows change. That keeps the
/// amount of work (SSE's n*, Sinkhorn iterations) steady across seeds.
const LOADING_SEED: u64 = 0x5c15_b3c4;

/// SplitMix64 finaliser: decorrelates `(seed, stream, index)` triples.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A correlated table of `d` columns in `[0, 1]` with MCAR missingness.
#[derive(Debug, Clone)]
pub struct Table {
    d: usize,
    missing_rate: f64,
    seed: u64,
    loadings: Vec<[f64; LATENT]>,
}

impl Table {
    /// Table of `d` columns, each cell missing with probability
    /// `missing_rate`, rows drawn from `seed`.
    pub fn new(d: usize, missing_rate: f64, seed: u64) -> Self {
        let mut rng = Rng64::seed_from_u64(LOADING_SEED ^ d as u64);
        let loadings = (0..d)
            .map(|_| {
                let mut w = [0.0; LATENT];
                for v in w.iter_mut() {
                    *v = rng.normal_with(0.0, 1.2);
                }
                w
            })
            .collect();
        Self {
            d,
            missing_rate,
            seed,
            loadings,
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.d
    }

    /// Writes row `i` into `truth` (complete) and `observed` (NaN where the
    /// cell is missing). Both slices have length `cols()`.
    pub fn row(&self, i: u64, truth: &mut [f64], observed: &mut [f64]) {
        let mut rng = Rng64::seed_from_u64(mix(self.seed, 1, i));
        let mut z = [0.0; LATENT];
        for v in z.iter_mut() {
            *v = rng.normal();
        }
        for j in 0..self.d {
            let w = &self.loadings[j];
            let a = w[0] * z[0] + w[1] * z[1] + w[2] * z[2] + rng.normal_with(0.0, 0.1);
            // alternate the marginal shape so columns are not all alike
            let v = match j % 3 {
                0 => 1.0 / (1.0 + (-a).exp()),
                1 => 0.5 + 0.5 * (0.7 * a).tanh(),
                _ => (0.5 + 0.15 * a).clamp(0.0, 1.0),
            };
            truth[j] = v;
            observed[j] = if rng.bernoulli(self.missing_rate) {
                f64::NAN
            } else {
                v
            };
        }
    }

    /// Rows `0..n` as `(complete, observed)` matrices.
    pub fn matrices(&self, n: usize) -> (Matrix, Matrix) {
        let mut truth = Matrix::zeros(n, self.d);
        let mut observed = Matrix::zeros(n, self.d);
        let mut t = vec![0.0; self.d];
        let mut o = vec![0.0; self.d];
        for i in 0..n {
            self.row(i as u64, &mut t, &mut o);
            truth.row_mut(i).copy_from_slice(&t);
            observed.row_mut(i).copy_from_slice(&o);
        }
        (truth, observed)
    }
}

/// Open-loop arrival schedule: request due times (seconds from the start of
/// a step) of a Poisson process at `rate` per second over `secs` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(mix(seed, 2, rate.to_bits()));
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * secs * 1.1) as usize + 16);
    loop {
        // inverse-CDF exponential gap; 1 - u lies in (0, 1]
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= secs {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_a_pure_function_of_seed_and_index() {
        let table = Table::new(9, 0.25, 7);
        let (mut t1, mut o1) = (vec![0.0; 9], vec![0.0; 9]);
        let (mut t2, mut o2) = (vec![0.0; 9], vec![0.0; 9]);
        table.row(41, &mut t1, &mut o1);
        table.row(40, &mut t2, &mut o2);
        table.row(41, &mut t2, &mut o2);
        assert_eq!(t1, t2);
        assert!(o1.iter().zip(&o2).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(t1.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn missing_rate_is_close_to_the_target() {
        let (_, observed) = Table::new(8, 0.25, 3).matrices(4000);
        let missing = observed.as_slice().iter().filter(|v| v.is_nan()).count();
        let rate = missing as f64 / observed.len() as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed_and_rate() {
        let a = poisson_schedule(5, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(5, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(6, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(5, 1500.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 2000 expected arrivals; a Poisson count stays within 5 sigma
        assert!((a.len() as f64 - 2000.0).abs() < 5.0 * 2000f64.sqrt());
    }
}
