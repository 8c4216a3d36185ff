//! Independent reference results: plain sequential folds that share no code
//! with the library, against which every workload's outputs are checked.
//! Counts must match exactly; floating-point outputs within [`REL_TOL`].

/// Relative tolerance for floating-point outputs. The library may sum a
/// thread's share before adding shares together, which moves the last bits.
pub const REL_TOL: f64 = 1e-9;

/// `|got - want| <= REL_TOL * max(|want|, 1)`: relative for large values,
/// absolute near zero where a relative test would demand exactness.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs().max(1.0)
}

pub fn all_close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| close(g, w))
}

/// Bucket of `v` in an equi-width histogram over `[min, max)`: values below
/// `min`, `-inf` and NaN go to the first bucket; values at or above `max`
/// and `+inf` to the last (the policy `Histogram`'s documentation states).
fn bucket(v: f64, min: f64, max: f64, buckets: usize) -> usize {
    if v.is_nan() || v < min {
        return 0;
    }
    let width = (max - min) / buckets as f64;
    (((v - min) / width) as usize).min(buckets - 1)
}

/// Counts per bucket.
pub fn histogram(data: &[f64], min: f64, max: f64, buckets: usize) -> Vec<u64> {
    let mut counts = vec![0u64; buckets];
    for &v in data {
        counts[bucket(v, min, max, buckets)] += 1;
    }
    counts
}

/// Counts per cell of the joint histogram of consecutive `(x, y)` pairs,
/// cell index `x_bucket * buckets + y_bucket`; both axes span `[min, max)`.
/// Non-finite values go to bucket 0 on their axis.
pub fn joint_histogram(pairs: &[f64], min: f64, max: f64, buckets: usize) -> Vec<u64> {
    let axis = |v: f64| if v.is_finite() { bucket(v, min, max, buckets) } else { 0 };
    let mut counts = vec![0u64; buckets * buckets];
    for pair in pairs.chunks_exact(2) {
        counts[axis(pair[0]) * buckets + axis(pair[1])] += 1;
    }
    counts
}

/// `iterations` rounds of Lloyd's algorithm over flat `dims`-dimensional
/// `points`, starting from flat `centroids`; returns the final centroids.
///
/// Assignment is discontinuous — one flipped point moves a centroid by far
/// more than rounding does — so the sums follow the scheduler's order: the
/// points are cut into `shares` contiguous equal shares (the first
/// `points % shares` get one more), each summed in order, and the shares'
/// sums added in order. A point goes to the first nearest centroid; an
/// empty cluster keeps its centroid.
pub fn kmeans(
    points: &[f64],
    dims: usize,
    centroids: &[f64],
    iterations: usize,
    shares: usize,
) -> Vec<f64> {
    let k = centroids.len() / dims;
    let n = points.len() / dims;
    let mut centroids = centroids.to_vec();
    for _ in 0..iterations {
        let mut sum = vec![0.0; k * dims];
        let mut size = vec![0u64; k];
        let mut start = 0;
        for share in 0..shares {
            let len = n / shares + usize::from(share < n % shares);
            let mut share_sum = vec![0.0; k * dims];
            for point in points[start * dims..(start + len) * dims].chunks_exact(dims) {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (j, c) in centroids.chunks_exact(dims).enumerate() {
                    let mut d = 0.0;
                    for (x, y) in point.iter().zip(c) {
                        d += (x - y) * (x - y);
                    }
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
                for (s, x) in share_sum[best * dims..(best + 1) * dims].iter_mut().zip(point) {
                    *s += x;
                }
                size[best] += 1;
            }
            for (total, part) in sum.iter_mut().zip(&share_sum) {
                *total += part;
            }
            start += len;
        }
        for j in 0..k {
            if size[j] > 0 {
                for d in 0..dims {
                    centroids[j * dims + d] = sum[j * dims + d] / size[j] as f64;
                }
            }
        }
    }
    centroids
}

/// Centred moving average with an odd `window`: `out[i]` is the mean of the
/// elements within `window / 2` of `i`, the window truncated at both ends.
pub fn moving_average(data: &[f64], window: usize) -> Vec<f64> {
    let half = window / 2;
    (0..data.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half).min(data.len() - 1);
            data[lo..=hi].iter().sum::<f64>() / (hi - lo + 1) as f64
        })
        .collect()
}

/// Power sums `[Σx, Σx², Σx³, Σx⁴]` and the element count.
pub fn moments(data: &[f64]) -> ([f64; 4], u64) {
    let mut sums = [0.0; 4];
    for &v in data {
        let v2 = v * v;
        sums[0] += v;
        sums[1] += v2;
        sums[2] += v2 * v;
        sums[3] += v2 * v2;
    }
    (sums, data.len() as u64)
}

/// Mean of every `cell` consecutive elements (the last cell may be short).
pub fn grid_mean(data: &[f64], cell: usize) -> Vec<f64> {
    data.chunks(cell).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_routes_edges_and_non_finite_values() {
        let data =
            [0.0, 0.24, 0.25, 0.99, 1.0, 7.0, -3.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        assert_eq!(histogram(&data, 0.0, 1.0, 4), [5, 1, 0, 4]);
    }

    #[test]
    fn joint_histogram_flattens_row_major() {
        // (0.1, 0.9) -> cell 0*2+1; (0.6, 0.2) -> 1*2+0; (0.7, 0.8) twice -> 3.
        let pairs = [0.1, 0.9, 0.6, 0.2, 0.7, 0.8, 0.7, 0.8];
        assert_eq!(joint_histogram(&pairs, 0.0, 1.0, 2), [0, 1, 1, 2]);
    }

    #[test]
    fn kmeans_one_round_on_a_line() {
        // Points 0, 1, 10, 11 with centroids 0 and 10: the means are 0.5 and 10.5.
        let points = [0.0, 1.0, 10.0, 11.0];
        assert_eq!(kmeans(&points, 1, &[0.0, 10.0], 1, 1), [0.5, 10.5]);
        assert_eq!(kmeans(&points, 1, &[0.0, 10.0], 3, 2), [0.5, 10.5]);
        // A centroid no point is nearest to stays where it was.
        assert_eq!(kmeans(&points, 1, &[5.0, 100.0], 1, 1), [5.5, 100.0]);
    }

    #[test]
    fn moving_average_truncates_at_the_ends() {
        let out = moving_average(&[1.0, 2.0, 3.0, 4.0, 5.0], 3);
        assert_eq!(out, [1.5, 2.0, 3.0, 4.0, 4.5]);
    }

    #[test]
    fn moments_are_raw_power_sums() {
        assert_eq!(moments(&[1.0, 2.0, 3.0]), ([6.0, 14.0, 36.0, 98.0], 3));
    }

    #[test]
    fn grid_mean_handles_a_short_last_cell() {
        assert_eq!(grid_mean(&[1.0, 3.0, 5.0, 7.0, 9.0], 2), [2.0, 6.0, 9.0]);
    }

    #[test]
    fn closeness_is_relative_for_large_and_absolute_near_zero() {
        assert!(close(1e12 + 100.0, 1e12));
        assert!(!close(1e12 + 1e5, 1e12));
        assert!(close(1e-12, 0.0));
        assert!(!close(1e-6, 0.0));
        assert!(!all_close(&[1.0], &[1.0, 2.0]));
    }
}
