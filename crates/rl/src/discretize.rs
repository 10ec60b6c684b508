//! Discretization of continuous observations into RL state categories.
//!
//! The paper discretizes the LSTM predictor's inter-arrival-time output
//! into `n` predefined categories that become part of the power manager's
//! RL state (Section VI-A).

use serde::{Deserialize, Serialize};

/// Maps a continuous value to one of `n` bins via sorted bin edges.
///
/// With edges `[e0, e1, ..., e_{k-1}]` there are `k + 1` bins: bin 0 is
/// `(-inf, e0)`, bin `i` is `[e_{i-1}, e_i)`, and bin `k` is `[e_{k-1}, inf)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Discretizer {
    edges: Vec<f64>,
}

impl Discretizer {
    /// Creates a discretizer from sorted, finite bin edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, unsorted, or contains non-finite values.
    pub fn new(edges: Vec<f64>) -> Self {
        assert!(!edges.is_empty(), "need at least one bin edge");
        assert!(
            edges.iter().all(|e| e.is_finite()),
            "bin edges must be finite"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "bin edges must be strictly increasing"
        );
        Self { edges }
    }

    /// Geometrically spaced edges over `[lo, hi]` producing `bins` bins —
    /// suited to inter-arrival times spanning orders of magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `bins < 2` or bounds are not positive and increasing.
    pub fn log_spaced(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins >= 2, "need at least two bins");
        assert!(lo > 0.0 && lo < hi, "need 0 < lo < hi");
        let k = bins - 1;
        let (ll, lh) = (lo.ln(), hi.ln());
        let edges = (1..=k)
            .map(|i| (ll + (lh - ll) * i as f64 / bins as f64).exp())
            .collect();
        Self::new(edges)
    }

    /// Number of bins (`edges + 1`).
    pub fn num_bins(&self) -> usize {
        self.edges.len() + 1
    }

    /// The bin edges.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// The bin index of `x`.
    pub fn bin(&self, x: f64) -> usize {
        // Binary search over the edge array.
        self.edges.partition_point(|&e| e <= x)
    }

    /// A representative value for a bin: the midpoint of interior bins,
    /// the edge itself for the two unbounded outer bins.
    ///
    /// # Panics
    ///
    /// Panics if `bin >= num_bins()`.
    pub fn representative(&self, bin: usize) -> f64 {
        assert!(bin < self.num_bins(), "bin {bin} out of range");
        if bin == 0 {
            self.edges[0]
        } else if bin == self.edges.len() {
            self.edges[self.edges.len() - 1]
        } else {
            0.5 * (self.edges[bin - 1] + self.edges[bin])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_boundaries_are_half_open() {
        let d = Discretizer::new(vec![10.0, 20.0]);
        assert_eq!(d.num_bins(), 3);
        assert_eq!(d.bin(5.0), 0);
        assert_eq!(d.bin(10.0), 1); // inclusive lower edge
        assert_eq!(d.bin(19.99), 1);
        assert_eq!(d.bin(20.0), 2);
        assert_eq!(d.bin(1e9), 2);
    }

    #[test]
    fn log_spaced_edges_grow_geometrically() {
        let d = Discretizer::log_spaced(1.0, 1000.0, 4);
        let e = d.edges();
        assert_eq!(e.len(), 3);
        // Ratios between consecutive edges are equal.
        let r1 = e[1] / e[0];
        let r2 = e[2] / e[1];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn representative_is_within_bin() {
        let d = Discretizer::new(vec![10.0, 20.0, 40.0]);
        assert_eq!(d.representative(0), 10.0);
        assert_eq!(d.representative(1), 15.0);
        assert_eq!(d.representative(2), 30.0);
        assert_eq!(d.representative(3), 40.0);
    }

    #[test]
    fn negative_values_fall_in_first_bin() {
        let d = Discretizer::new(vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(d.bin(-3.0), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_edges_rejected() {
        let _ = Discretizer::new(vec![5.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "bin 9 out of range")]
    fn representative_out_of_range_panics() {
        let d = Discretizer::new(vec![0.5]);
        let _ = d.representative(9);
    }

    #[test]
    fn serde_round_trip() {
        let d = Discretizer::log_spaced(1.0, 100.0, 6);
        let json = serde_json::to_string(&d).unwrap();
        let back: Discretizer = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
