//! Order statistics, interval arithmetic and digests shared by the
//! workloads.

/// Nearest-rank percentile of an unsorted sample, in whole percent; 0 for an
/// empty sample. Same rank rule as `msd_serve::percentile`
/// (`⌈pct·n/100⌉`), which the tests use as the oracle.
pub fn percentile(values: &[u64], pct: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (pct * sorted.len() as u64)
        .div_ceil(100)
        .clamp(1, sorted.len() as u64);
    sorted[rank as usize - 1]
}

/// Median of a float sample (mean of the middle pair for even sizes); 0
/// for an empty sample.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Length of the union of half-open intervals `[start, end)`, clipped to
/// `[lo, hi)`. Overlapping intervals count once.
pub fn union_len(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of a span `[start, end)`: its duration minus the part of it
/// that its children cover, each instant counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    end.saturating_sub(start) - union_len(start, end, children)
}

/// 64-bit FNV-1a, the digest for score logs and for matching packed input
/// rows back to the requests that carried them.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the bit patterns of `values`.
pub fn digest_f32(values: &[f32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Whether two float slices are equal bit for bit.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64: the benchmark's own generator for arrival schedules and
/// inputs, so a change to the program's RNG cannot change the load.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        let (u, v) = (self.unit(), self.unit());
        ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_agree_with_the_serve_oracle() {
        let mut rng = SplitMix::new(5);
        for n in [1usize, 2, 3, 4, 7, 20, 100, 1001] {
            let sample: Vec<u64> = (0..n).map(|_| rng.next_u64() % 10_000).collect();
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            for pct in [1, 25, 50, 55, 90, 95, 99, 100] {
                assert_eq!(
                    percentile(&sample, pct),
                    msd_serve::percentile(&sorted, pct),
                    "n={n} p{pct}"
                );
            }
        }
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,40) and [30,60) overlap on [30,40): covered 50, not 60.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 60)]), 50);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Disjoint children add up; identical ones count once.
        assert_eq!(self_time(0, 100, &[(0, 10), (20, 30), (20, 30)]), 80);
        assert_eq!(self_time(0, 100, &[]), 100);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
