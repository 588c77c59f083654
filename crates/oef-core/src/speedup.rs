//! Speedup vectors and matrices (§2.3 of the paper).
//!
//! A **speedup vector** `W_l = <w_l^1 .. w_l^k>` describes a tenant's training
//! throughput on each of the `k` GPU types, normalised by the throughput on the slowest
//! type, so `w_l^1 = 1` always holds.  GPU types are indexed slowest-first, which is
//! consistent within a cluster because hardware generations dominate each other for DL
//! training (footnote 1 of the paper).

use crate::error::OefError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Relative tolerance used when validating that the first entry equals 1.
const NORMALISATION_TOL: f64 = 1e-9;

/// A tenant's normalised training-throughput profile across GPU types (slowest first).
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedupVector {
    values: Vec<f64>,
}

impl Clone for SpeedupVector {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(),
        }
    }

    /// Reuses the receiver's buffer (the derive would not), so a caller that
    /// re-reads every tenant's profile every round copies without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.values.clone_from(&source.values);
    }
}

impl SpeedupVector {
    /// Creates a speedup vector from already-normalised values (`values[0]` must be 1).
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidSpeedup`] if the vector is empty, contains
    /// non-positive or non-finite entries, or is not normalised.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(OefError::InvalidSpeedup {
                reason: "empty speedup vector".into(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            if !v.is_finite() || *v <= 0.0 {
                return Err(OefError::InvalidSpeedup {
                    reason: format!("entry {i} is {v}, expected a positive finite value"),
                });
            }
        }
        if (values[0] - 1.0).abs() > NORMALISATION_TOL {
            return Err(OefError::InvalidSpeedup {
                reason: format!(
                    "first entry is {} but must be 1 (slowest GPU type)",
                    values[0]
                ),
            });
        }
        Ok(Self { values })
    }

    /// Normalises raw absolute throughputs (e.g. samples/second per GPU type) into a
    /// speedup vector by dividing by the first (slowest-type) entry.
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidSpeedup`] if any throughput is non-positive or
    /// non-finite.
    pub fn from_raw_throughputs(raw: &[f64]) -> Result<Self> {
        if raw.is_empty() {
            return Err(OefError::InvalidSpeedup {
                reason: "empty throughput vector".into(),
            });
        }
        let base = raw[0];
        if !base.is_finite() || base <= 0.0 {
            return Err(OefError::InvalidSpeedup {
                reason: format!("throughput on the slowest GPU type is {base}"),
            });
        }
        Self::new(raw.iter().map(|v| v / base).collect())
    }

    /// Number of GPU types covered by this vector.
    pub fn num_gpu_types(&self) -> usize {
        self.values.len()
    }

    /// Speedup on GPU type `j`.
    pub fn speedup(&self, j: usize) -> f64 {
        self.values[j]
    }

    /// All speedups, slowest type first.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Dot product with an allocation row: the tenant's achieved normalised throughput.
    pub fn dot(&self, allocation_row: &[f64]) -> f64 {
        self.values
            .iter()
            .zip(allocation_row.iter())
            .map(|(w, x)| w * x)
            .sum()
    }

    /// Returns a copy where each entry is multiplied by `factors` element-wise (used to
    /// model cheating tenants inflating their reported speedups).  The first entry stays
    /// 1 by construction because reported vectors are re-normalised.
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidSpeedup`] if the inflated vector is invalid.
    pub fn inflate(&self, factors: &[f64]) -> Result<Self> {
        let raw: Vec<f64> = self
            .values
            .iter()
            .zip(factors.iter())
            .map(|(v, f)| v * f)
            .collect();
        Self::from_raw_throughputs(&raw)
    }

    /// Whether every entry is at least the corresponding entry of `other` (the paper's
    /// `≽` relation between speedup vectors).
    pub fn dominates(&self, other: &SpeedupVector) -> bool {
        self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(other.values.iter())
                .all(|(a, b)| *a >= *b - 1e-12)
    }
}

/// The speedup matrix `W` collecting all tenants' speedup vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupMatrix {
    rows: Vec<SpeedupVector>,
}

impl SpeedupMatrix {
    /// Builds a matrix from one speedup vector per tenant.
    ///
    /// # Errors
    ///
    /// Returns [`OefError::NoUsers`] for an empty list and
    /// [`OefError::InvalidSpeedup`] if rows disagree on the number of GPU types.
    pub fn new(rows: Vec<SpeedupVector>) -> Result<Self> {
        if rows.is_empty() {
            return Err(OefError::NoUsers);
        }
        let k = rows[0].num_gpu_types();
        for (i, r) in rows.iter().enumerate() {
            if r.num_gpu_types() != k {
                return Err(OefError::InvalidSpeedup {
                    reason: format!("row {i} has {} GPU types, expected {k}", r.num_gpu_types()),
                });
            }
        }
        Ok(Self { rows })
    }

    /// Builds a matrix from plain `Vec<Vec<f64>>` rows (each row must be normalised).
    ///
    /// # Errors
    ///
    /// Same as [`SpeedupMatrix::new`] plus per-row validation errors.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let rows: Result<Vec<SpeedupVector>> = rows.into_iter().map(SpeedupVector::new).collect();
        Self::new(rows?)
    }

    /// Consumes the matrix, returning its rows.  Lets round-based callers
    /// reclaim the row buffer instead of reallocating it every round.
    pub fn into_rows(self) -> Vec<SpeedupVector> {
        self.rows
    }

    /// Number of tenants (rows).
    pub fn num_users(&self) -> usize {
        self.rows.len()
    }

    /// Number of GPU types (columns).
    pub fn num_gpu_types(&self) -> usize {
        self.rows[0].num_gpu_types()
    }

    /// Speedup vector of tenant `l`.
    pub fn user(&self, l: usize) -> &SpeedupVector {
        &self.rows[l]
    }

    /// Iterates over the tenants' speedup vectors.
    pub fn iter(&self) -> impl Iterator<Item = &SpeedupVector> {
        self.rows.iter()
    }

    /// Speedup of tenant `l` on GPU type `j`.
    pub fn speedup(&self, l: usize, j: usize) -> f64 {
        self.rows[l].speedup(j)
    }

    /// Returns a copy of the matrix with tenant `l`'s row replaced (used for
    /// strategy-proofness probes where a tenant reports a fake profile).
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidSpeedup`] if the replacement has the wrong number of
    /// GPU types.
    pub fn with_replaced_row(&self, l: usize, row: SpeedupVector) -> Result<Self> {
        if row.num_gpu_types() != self.num_gpu_types() {
            return Err(OefError::InvalidSpeedup {
                reason: format!(
                    "replacement row has {} GPU types, expected {}",
                    row.num_gpu_types(),
                    self.num_gpu_types()
                ),
            });
        }
        let mut rows = self.rows.clone();
        rows[l] = row;
        Ok(Self { rows })
    }

    /// Returns a copy with additional rows appended (used by the virtual-user
    /// expansion of weighted OEF).
    ///
    /// # Errors
    ///
    /// Returns [`OefError::InvalidSpeedup`] on a GPU-type count mismatch.
    pub fn with_appended_rows(&self, extra: Vec<SpeedupVector>) -> Result<Self> {
        let mut rows = self.rows.clone();
        rows.extend(extra);
        Self::new(rows)
    }
}

impl std::ops::Index<usize> for SpeedupMatrix {
    type Output = SpeedupVector;

    fn index(&self, index: usize) -> &Self::Output {
        &self.rows[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unnormalised_vector() {
        assert!(matches!(
            SpeedupVector::new(vec![2.0, 3.0]),
            Err(OefError::InvalidSpeedup { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_nonpositive() {
        assert!(SpeedupVector::new(vec![]).is_err());
        assert!(SpeedupVector::new(vec![1.0, 0.0]).is_err());
        assert!(SpeedupVector::new(vec![1.0, -2.0]).is_err());
        assert!(SpeedupVector::new(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn from_raw_normalises() {
        let v = SpeedupVector::from_raw_throughputs(&[50.0, 107.5]).unwrap();
        assert!((v.speedup(0) - 1.0).abs() < 1e-12);
        assert!((v.speedup(1) - 2.15).abs() < 1e-12);
        assert_eq!(v.num_gpu_types(), 2);
    }

    #[test]
    fn dot_product_matches_manual_computation() {
        let v = SpeedupVector::new(vec![1.0, 2.0, 4.0]).unwrap();
        assert!((v.dot(&[1.0, 0.5, 0.25]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn inflate_renormalises_and_dominates() {
        let v = SpeedupVector::new(vec![1.0, 2.0]).unwrap();
        let inflated = v.inflate(&[1.0, 1.4]).unwrap();
        assert!((inflated.speedup(1) - 2.8).abs() < 1e-12);
        assert!(inflated.dominates(&v));
        assert!(!v.dominates(&inflated));
    }

    #[test]
    fn matrix_rejects_ragged_rows() {
        let rows = vec![
            SpeedupVector::new(vec![1.0, 2.0]).unwrap(),
            SpeedupVector::new(vec![1.0, 2.0, 3.0]).unwrap(),
        ];
        assert!(matches!(
            SpeedupMatrix::new(rows),
            Err(OefError::InvalidSpeedup { .. })
        ));
    }

    #[test]
    fn matrix_rejects_empty() {
        assert!(matches!(SpeedupMatrix::new(vec![]), Err(OefError::NoUsers)));
    }

    #[test]
    fn matrix_accessors() {
        let m = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0]]).unwrap();
        assert_eq!(m.num_users(), 2);
        assert_eq!(m.num_gpu_types(), 2);
        assert_eq!(m.speedup(1, 1), 3.0);
        assert_eq!(m[0].speedup(1), 2.0);
        assert_eq!(m.iter().count(), 2);
    }

    #[test]
    fn replace_row_checks_dimensions() {
        let m = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0]]).unwrap();
        let bad = SpeedupVector::new(vec![1.0, 2.0, 3.0]).unwrap();
        assert!(m.with_replaced_row(0, bad).is_err());
        let good = SpeedupVector::new(vec![1.0, 2.5]).unwrap();
        let m2 = m.with_replaced_row(0, good).unwrap();
        assert_eq!(m2.speedup(0, 1), 2.5);
        assert_eq!(m.speedup(0, 1), 2.0, "original must be untouched");
    }

    #[test]
    fn append_rows_grows_matrix() {
        let m = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0]]).unwrap();
        let extra = vec![SpeedupVector::new(vec![1.0, 5.0]).unwrap()];
        let m2 = m.with_appended_rows(extra).unwrap();
        assert_eq!(m2.num_users(), 2);
        assert_eq!(m2.speedup(1, 1), 5.0);
    }

    #[test]
    fn serde_round_trip() {
        let m = SpeedupMatrix::from_rows(vec![vec![1.0, 2.0], vec![1.0, 3.0]]).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        let back: SpeedupMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
