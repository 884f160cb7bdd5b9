//! Seeded input generation. Every input the benchmark feeds the program
//! — request pools, tenant choices, learn-stream labels, rate ladders —
//! is a pure function of the workload seed.

/// SplitMix64: small, fast, and good enough for load shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derives an independent stream seed for one named use of the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// `len` request-pool entries: row indices in `0..rows` drawn with
/// replacement.
pub fn request_pool(seed: u64, rows: usize, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 1));
    (0..len).map(|_| rng.below(rows)).collect()
}

/// Tenant popularity order (most popular first): a seeded permutation in
/// which rank `r` always holds a tenant of class `r % classes` (tenant
/// `t` is of class `t % classes`), so the mix of tenant kinds down the
/// ranks is the same for every seed.
pub fn zipf_ranking(seed: u64, n: usize, classes: usize) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 2));
    let mut by_class: Vec<Vec<usize>> = (0..classes)
        .map(|c| (c..n).step_by(classes).collect())
        .collect();
    for group in &mut by_class {
        rng.shuffle(group);
    }
    (0..n).map(|r| by_class[r % classes][r / classes]).collect()
}

/// `len` draws from a Zipf(`s`) law over the tenants of `ranked`.
pub fn zipf_draws(seed: u64, ranked: &[usize], s: f64, len: usize) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 6));
    let n = ranked.len();
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let u = rng.unit();
            ranked[cdf.partition_point(|&c| c < u).min(n - 1)]
        })
        .collect()
}

/// Class of each of `len` learn samples: uniform priors for the first
/// half, then every draw from `shifted` (the classes the priors move to).
pub fn label_shift_schedule(
    seed: u64,
    n_classes: usize,
    shifted: &[usize],
    len: usize,
) -> Vec<usize> {
    let mut rng = Rng::new(sub_seed(seed, 3));
    (0..len)
        .map(|i| {
            if i < len / 2 {
                rng.below(n_classes)
            } else {
                shifted[rng.below(shifted.len())]
            }
        })
        .collect()
}

/// A geometric rate ladder `base · ratio^(k + u)` for `k = 0..steps`,
/// where `u ∈ [0, 1)` is a seeded offset. The offset dithers the ladder
/// across seeds so the highest passing rate is not stuck to one grid.
pub fn rate_ladder(seed: u64, base: f64, ratio: f64, steps: usize) -> Vec<f64> {
    let u = Rng::new(sub_seed(seed, 4)).unit();
    (0..steps)
        .map(|k| base * ratio.powf(k as f64 + u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        for (a, b) in [(7u64, 7u64), (7, 8)] {
            let same = a == b;
            assert_eq!(request_pool(a, 100, 300) == request_pool(b, 100, 300), same);
            assert_eq!(zipf_ranking(a, 48, 2) == zipf_ranking(b, 48, 2), same);
            let ranked = zipf_ranking(1, 48, 2);
            assert_eq!(
                zipf_draws(a, &ranked, 1.0, 500) == zipf_draws(b, &ranked, 1.0, 500),
                same
            );
            assert_eq!(
                label_shift_schedule(a, 13, &[2, 5], 400)
                    == label_shift_schedule(b, 13, &[2, 5], 400),
                same
            );
            assert_eq!(
                rate_ladder(a, 1000.0, 1.1, 8) == rate_ladder(b, 1000.0, 1.1, 8),
                same
            );
        }
    }

    #[test]
    fn pool_draws_every_row_in_range() {
        let pool = request_pool(3, 10, 1000);
        assert!(pool.iter().all(|&r| r < 10));
        assert!((0..10).all(|r| pool.contains(&r)));
    }

    #[test]
    fn ranking_alternates_tenant_classes() {
        let ranked = zipf_ranking(4, 48, 2);
        let mut sorted = ranked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
        assert!(ranked.iter().enumerate().all(|(r, &t)| t % 2 == r % 2));
    }

    #[test]
    fn zipf_favours_the_top_rank() {
        let ranked = zipf_ranking(11, 48, 2);
        let draws = zipf_draws(11, &ranked, 1.0, 20_000);
        let top = draws.iter().filter(|&&t| t == ranked[0]).count();
        let last = draws.iter().filter(|&&t| t == ranked[47]).count();
        assert!(top > 10 * last.max(1), "top {top}, last {last}");
        assert!(draws.iter().all(|&t| t < 48));
    }

    #[test]
    fn label_shift_moves_the_second_half() {
        let labels = label_shift_schedule(5, 13, &[3, 9], 1000);
        assert!(labels[500..].iter().all(|&c| c == 3 || c == 9));
        assert!(labels[..500].iter().any(|&c| c != 3 && c != 9));
    }

    #[test]
    fn ladder_is_geometric_within_one_dithered_step() {
        let ladder = rate_ladder(9, 1000.0, 1.1, 5);
        assert!(ladder[0] >= 1000.0 && ladder[0] < 1100.0);
        for pair in ladder.windows(2) {
            assert!((pair[1] / pair[0] - 1.1).abs() < 1e-9);
        }
    }
}
