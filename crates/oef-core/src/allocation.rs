//! The allocation matrix `X` produced by an allocation policy.

use crate::error::OefError;
use crate::{ClusterSpec, Result, SpeedupMatrix};
use serde::{Deserialize, Serialize};

/// Tolerance used for feasibility and adjacency checks.
const TOL: f64 = 1e-6;

/// An `n x k` allocation matrix: `x[l][j]` is the (possibly fractional) number of GPU
/// devices of type `j` assigned to tenant `l`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Allocation {
    rows: Vec<Vec<f64>>,
}

impl Allocation {
    /// Creates an allocation from explicit rows.
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidAllocation`] if the matrix is empty, ragged, or has
    /// negative / non-finite entries.
    pub fn new(rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(OefError::InvalidAllocation {
                reason: "empty allocation matrix".into(),
            });
        }
        let k = rows[0].len();
        for (l, row) in rows.iter().enumerate() {
            if row.len() != k {
                return Err(OefError::InvalidAllocation {
                    reason: format!("row {l} has {} entries, expected {k}", row.len()),
                });
            }
            for (j, v) in row.iter().enumerate() {
                if !v.is_finite() || *v < -TOL {
                    return Err(OefError::InvalidAllocation {
                        reason: format!("entry ({l}, {j}) is {v}"),
                    });
                }
            }
        }
        // Clamp tiny numerical negatives to zero so downstream arithmetic stays clean.
        let rows = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|v| if v < 0.0 { 0.0 } else { v })
                    .collect()
            })
            .collect();
        Ok(Self { rows })
    }

    /// An all-zero allocation for `num_users` tenants over `num_gpu_types` types.
    pub fn zeros(num_users: usize, num_gpu_types: usize) -> Self {
        Self {
            rows: vec![vec![0.0; num_gpu_types]; num_users],
        }
    }

    /// Consumes the allocation, returning its rows.  Lets round-based callers
    /// move each tenant's shares into its record instead of copying them.
    pub fn into_rows(self) -> Vec<Vec<f64>> {
        self.rows
    }

    /// Number of tenants.
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Number of GPU types.
    pub fn num_gpu_types(&self) -> usize {
        self.rows.first().map_or(0, Vec::len)
    }

    /// Allocation row of tenant `l`.
    pub fn user_row(&self, l: usize) -> &[f64] {
        &self.rows[l]
    }

    /// Mutable access to tenant `l`'s row (used by the placer when rounding).
    pub fn user_row_mut(&mut self, l: usize) -> &mut Vec<f64> {
        &mut self.rows[l]
    }

    /// Share of GPU type `j` given to tenant `l`.
    pub fn share(&self, l: usize, j: usize) -> f64 {
        self.rows[l][j]
    }

    /// Iterates over tenant rows.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<f64>> {
        self.rows.iter()
    }

    /// Total amount of GPU type `j` handed out across all tenants.
    pub fn total_of_type(&self, j: usize) -> f64 {
        self.rows.iter().map(|r| r[j]).sum()
    }

    /// Normalised training throughput (the paper's "efficiency") of tenant `l` given
    /// its speedup vector: `W_l · x_l`.
    pub fn user_efficiency(&self, l: usize, speedups: &SpeedupMatrix) -> f64 {
        speedups.user(l).dot(&self.rows[l])
    }

    /// Efficiencies of every tenant.
    pub fn user_efficiencies(&self, speedups: &SpeedupMatrix) -> Vec<f64> {
        (0..self.num_users())
            .map(|l| self.user_efficiency(l, speedups))
            .collect()
    }

    /// Overall cluster efficiency `Σ_l W_l · x_l` — the objective the OEF programs
    /// maximise.
    pub fn total_efficiency(&self, speedups: &SpeedupMatrix) -> f64 {
        self.user_efficiencies(speedups).iter().sum()
    }

    /// Throughput tenant `l` would obtain if it were handed tenant `i`'s allocation,
    /// evaluated with `l`'s own speedups.  Used by the envy-freeness checker and the
    /// Fig. 6 experiment.
    pub fn cross_efficiency(&self, l: usize, i: usize, speedups: &SpeedupMatrix) -> f64 {
        speedups.user(l).dot(&self.rows[i])
    }

    /// Whether the allocation respects the per-type capacities of `cluster`.
    pub fn is_feasible(&self, cluster: &ClusterSpec) -> bool {
        if self.num_gpu_types() != cluster.num_gpu_types() {
            return false;
        }
        (0..self.num_gpu_types()).all(|j| self.total_of_type(j) <= cluster.capacity(j) + TOL)
    }

    /// Whether every tenant's nonzero entries form a contiguous block of GPU types.
    ///
    /// Theorem 5.2 of the paper proves OEF allocations only use *adjacent* GPU types per
    /// tenant; this predicate lets tests and the straggler analysis verify that.
    pub fn uses_adjacent_types_only(&self) -> bool {
        self.rows.iter().all(|row| {
            let first = row.iter().position(|v| *v > TOL);
            let last = row.iter().rposition(|v| *v > TOL);
            match (first, last) {
                (Some(first), Some(last)) => row[first..=last].iter().all(|v| *v > TOL),
                _ => true, // all-zero rows are trivially adjacent
            }
        })
    }

    /// Number of strictly positive entries in the matrix.  The extreme-point argument in
    /// §4.4 bounds this by `n + m − 1` for OEF allocations.
    pub fn nonzero_entries(&self) -> usize {
        self.rows.iter().flatten().filter(|v| **v > TOL).count()
    }

    /// Number of distinct GPU types a tenant received (straggler-effect exposure).
    pub fn gpu_types_used_by(&self, l: usize) -> usize {
        self.rows[l].iter().filter(|v| **v > TOL).count()
    }

    /// Scales every entry by `factor` (used when converting between share units).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            rows: self
                .rows
                .iter()
                .map(|row| row.iter().map(|v| v * factor).collect())
                .collect(),
        }
    }
}

impl std::ops::Index<usize> for Allocation {
    type Output = Vec<f64>;

    fn index(&self, index: usize) -> &Self::Output {
        &self.rows[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speedups() -> SpeedupMatrix {
        SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 4.0]]).unwrap()
    }

    #[test]
    fn rejects_malformed_matrices() {
        assert!(Allocation::new(vec![]).is_err());
        assert!(Allocation::new(vec![vec![]]).is_err());
        assert!(Allocation::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Allocation::new(vec![vec![-1.0]]).is_err());
        assert!(Allocation::new(vec![vec![f64::NAN]]).is_err());
    }

    #[test]
    fn tiny_negatives_are_clamped() {
        let a = Allocation::new(vec![vec![-1e-9, 1.0]]).unwrap();
        assert_eq!(a.share(0, 0), 0.0);
    }

    #[test]
    fn efficiencies_match_paper_example() {
        // Expression (2) of the paper: X* = [1 0; 0 0.5; 0 0.5] with W = [1 2;1 3;1 4]
        // gives efficiencies (1, 1.5, 2).
        let w =
            SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![1.0, 4.0]]).unwrap();
        let x = Allocation::new(vec![vec![1.0, 0.0], vec![0.0, 0.5], vec![0.0, 0.5]]).unwrap();
        let eff = x.user_efficiencies(&w);
        assert!((eff[0] - 1.0).abs() < 1e-12);
        assert!((eff[1] - 1.5).abs() < 1e-12);
        assert!((eff[2] - 2.0).abs() < 1e-12);
        assert!((x.total_efficiency(&w) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn cross_efficiency_is_other_users_share_with_own_speedup() {
        let w = speedups();
        let x = Allocation::new(vec![vec![1.0, 0.25], vec![0.0, 0.75]]).unwrap();
        // User 0 evaluating user 1's share with its own speedup (1,2): 0 + 2*0.75 = 1.5.
        assert!((x.cross_efficiency(0, 1, &w) - 1.5).abs() < 1e-12);
        // User 1 evaluating its own share: 4*0.75 = 3.
        assert!((x.cross_efficiency(1, 1, &w) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn feasibility_checks_capacities() {
        let cluster = ClusterSpec::homogeneous_counts(&["slow", "fast"], &[1.0, 1.0]).unwrap();
        let ok = Allocation::new(vec![vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let over = Allocation::new(vec![vec![0.9, 0.5], vec![0.5, 0.5]]).unwrap();
        assert!(ok.is_feasible(&cluster));
        assert!(!over.is_feasible(&cluster));
        let wrong_width = Allocation::new(vec![vec![1.0]]).unwrap();
        assert!(!wrong_width.is_feasible(&cluster));
    }

    #[test]
    fn adjacency_detection() {
        let adjacent = Allocation::new(vec![vec![1.0, 0.5, 0.0], vec![0.0, 0.5, 1.0]]).unwrap();
        assert!(adjacent.uses_adjacent_types_only());
        let gap = Allocation::new(vec![vec![1.0, 0.0, 0.5]]).unwrap();
        assert!(!gap.uses_adjacent_types_only());
        let zeros = Allocation::zeros(2, 3);
        assert!(zeros.uses_adjacent_types_only());
    }

    #[test]
    fn counting_helpers() {
        let a = Allocation::new(vec![vec![1.0, 0.5, 0.0], vec![0.0, 0.0, 1.0]]).unwrap();
        assert_eq!(a.nonzero_entries(), 3);
        assert_eq!(a.gpu_types_used_by(0), 2);
        assert_eq!(a.gpu_types_used_by(1), 1);
        assert_eq!(a.total_of_type(1), 0.5);
    }

    #[test]
    fn scaling_and_indexing() {
        let a = Allocation::new(vec![vec![1.0, 2.0]]).unwrap();
        let b = a.scaled(0.5);
        assert_eq!(b[0], vec![0.5, 1.0]);
        assert_eq!(a.iter().count(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let a = Allocation::new(vec![vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        let json = serde_json::to_string(&a).unwrap();
        let back: Allocation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
