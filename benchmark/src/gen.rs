//! Seeded input generation: SplitMix64, uniform and normal (Box–Muller)
//! doubles, and the ring of distinct step buffers every workload cycles
//! through. The same seed gives the same inputs; the program under test sees
//! only the generated buffers.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state, passes BigCrush,
/// and every seed — zero included — gives a full-period stream.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
    /// The second normal deviate of the last Box–Muller pair.
    spare: Option<f64>,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { state: seed, spare: None }
    }

    /// An independent stream for `lane` of the same seed, so each ring slot
    /// and each rank can be generated on its own.
    pub fn fork(seed: u64, lane: u64) -> Self {
        let mut parent = Rng::new(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng::new(parent.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal by the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // 1 - u is in (0, 1], which keeps the logarithm finite.
        let radius = (-2.0 * (1.0 - self.uniform()).ln()).sqrt();
        let angle = std::f64::consts::TAU * self.uniform();
        self.spare = Some(radius * angle.sin());
        radius * angle.cos()
    }
}

/// `slots` distinct step buffers of `len` doubles each; slot `i` is filled by
/// `fill(rng_i, buffer)` from its own stream of `seed`.
pub fn ring(
    seed: u64,
    slots: usize,
    len: usize,
    fill: impl Fn(&mut Rng, &mut [f64]),
) -> Vec<Vec<f64>> {
    (0..slots)
        .map(|slot| {
            let mut buf = vec![0.0; len];
            fill(&mut Rng::fork(seed, slot as u64), &mut buf);
            buf
        })
        .collect()
}

/// A ring larger than the last-level cache, cheaply: the first `generated`
/// slots come from the generator as in [`ring`], and slot `j` beyond them is
/// slot `j % generated` with every value raised by `0.37 * (j / generated)`
/// — a copy's worth of work, yet distinct data with distinct results. A
/// workload that streams its input needs this: with a ring the cache can
/// hold, a step costs 3.4 ms or 5.9 ms depending on what the other tenants
/// of the host left in the cache.
pub fn big_ring(
    seed: u64,
    slots: usize,
    generated: usize,
    len: usize,
    fill: impl Fn(&mut Rng, &mut [f64]),
) -> Vec<Vec<f64>> {
    let mut ring = ring(seed, generated.min(slots), len, fill);
    for slot in ring.len()..slots {
        let shift = 0.37 * (slot / generated) as f64;
        ring.push(ring[slot % generated].iter().map(|v| v + shift).collect());
    }
    ring
}

/// Total bytes of a ring.
pub fn ring_bytes(ring: &[Vec<f64>]) -> u64 {
    ring.iter().map(|s| (s.len() * std::mem::size_of::<f64>()) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference C implementation for seed 0.
        let mut rng = Rng::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_ring_other_seed_other_ring() {
        let fill = |rng: &mut Rng, buf: &mut [f64]| buf.iter_mut().for_each(|v| *v = rng.normal());
        let a = ring(7, 3, 64, fill);
        assert_eq!(a, ring(7, 3, 64, fill));
        assert_ne!(a, ring(8, 3, 64, fill));
        assert_ne!(a[0], a[1], "slots are distinct");
        assert_eq!(ring_bytes(&a), 3 * 64 * 8);
    }

    #[test]
    fn big_ring_derives_distinct_slots_from_the_generated_ones() {
        let fill = |rng: &mut Rng, buf: &mut [f64]| buf.iter_mut().for_each(|v| *v = rng.uniform());
        let big = big_ring(3, 5, 2, 16, fill);
        assert_eq!(big[..2], ring(3, 2, 16, fill)[..]);
        assert_eq!(big[2], big[0].iter().map(|v| v + 0.37).collect::<Vec<_>>());
        assert_eq!(big[3], big[1].iter().map(|v| v + 0.37).collect::<Vec<_>>());
        assert_eq!(big[4], big[0].iter().map(|v| v + 0.74).collect::<Vec<_>>());
        assert_eq!(big_ring(3, 1, 2, 16, fill).len(), 1);
    }

    #[test]
    fn uniform_stays_in_range_and_normal_has_unit_moments() {
        let mut rng = Rng::new(42);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
            let z = rng.normal();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }
}
