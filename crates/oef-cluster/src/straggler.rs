//! Straggler-effect model (§4.4).
//!
//! In synchronous data-parallel training, a job whose workers sit on GPUs of different
//! types advances at the pace of its slowest worker: the fast GPUs idle at every
//! gradient synchronisation.  OEF's adjacency property (Theorem 5.2) keeps each tenant
//! on a narrow band of GPU types, which this model rewards; the §6.3.3 ablation counts
//! how many workers are affected under each scheduler.

use crate::gpu::GpuType;
use oef_core::SpeedupVector;
use serde::{Deserialize, Serialize};

/// Model of cross-GPU-type synchronisation penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerModel {
    /// When `true`, a job spanning multiple GPU types runs every worker at the speed of
    /// the slowest assigned type (the paper's behaviour).  When `false`, workers run at
    /// their native speed (ablation baseline).
    pub synchronous: bool,
}

impl Default for StragglerModel {
    fn default() -> Self {
        Self { synchronous: true }
    }
}

/// Counters describing straggler exposure over a simulation (§6.3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StragglerStats {
    /// Number of (job, round) placements that spanned more than one GPU type.
    pub cross_type_placements: u64,
    /// Number of workers that idled behind a slower GPU type, accumulated over rounds.
    pub affected_workers: u64,
}

impl StragglerStats {
    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &StragglerStats) {
        self.cross_type_placements += other.cross_type_placements;
        self.affected_workers += other.affected_workers;
    }
}

impl StragglerModel {
    /// Creates the synchronous (paper) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// A model without the straggler effect, for ablations.
    pub fn disabled() -> Self {
        Self { synchronous: false }
    }

    /// Effective work rate (in slow-GPU work units per second) of a job whose workers
    /// run on the listed GPU types, together with the number of workers held back by a
    /// slower peer.
    ///
    /// With the synchronous model every worker advances at the slowest assigned type's
    /// speed; without it each worker contributes its native speed.
    pub fn effective_rate(
        &self,
        speedup: &SpeedupVector,
        assigned_types: &[GpuType],
    ) -> (f64, usize) {
        if assigned_types.is_empty() {
            return (0.0, 0);
        }
        // Walked, not collected: this runs once per placed job per round.
        let speeds = assigned_types.iter().map(|t| speedup.speedup(t.index()));
        if !self.synchronous {
            return (speeds.sum(), 0);
        }
        let min_speed = speeds.clone().fold(f64::INFINITY, f64::min);
        let affected = speeds.filter(|s| *s > min_speed + 1e-12).count();
        (min_speed * assigned_types.len() as f64, affected)
    }

    /// Whether a placement spans more than one GPU type.
    pub fn is_cross_type(assigned_types: &[GpuType]) -> bool {
        assigned_types.windows(2).any(|w| w[0] != w[1])
            && !assigned_types.is_empty()
            && assigned_types.iter().any(|t| *t != assigned_types[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(values: Vec<f64>) -> SpeedupVector {
        SpeedupVector::new(values).unwrap()
    }

    #[test]
    fn single_type_runs_at_native_speed() {
        let m = StragglerModel::new();
        let (rate, affected) = m.effective_rate(&sv(vec![1.0, 2.0]), &[GpuType(1), GpuType(1)]);
        assert!((rate - 4.0).abs() < 1e-12);
        assert_eq!(affected, 0);
    }

    #[test]
    fn cross_type_runs_at_slowest_speed() {
        let m = StragglerModel::new();
        let (rate, affected) =
            m.effective_rate(&sv(vec![1.0, 2.0]), &[GpuType(0), GpuType(1), GpuType(1)]);
        // Three workers, all at speed 1 (the slowest type).
        assert!((rate - 3.0).abs() < 1e-12);
        assert_eq!(affected, 2, "the two fast workers idle behind the slow one");
    }

    #[test]
    fn disabled_model_sums_native_speeds() {
        let m = StragglerModel::disabled();
        let (rate, affected) = m.effective_rate(&sv(vec![1.0, 2.0]), &[GpuType(0), GpuType(1)]);
        assert!((rate - 3.0).abs() < 1e-12);
        assert_eq!(affected, 0);
    }

    #[test]
    fn cross_type_detection() {
        assert!(!StragglerModel::is_cross_type(&[]));
        assert!(!StragglerModel::is_cross_type(&[GpuType(1)]));
        assert!(!StragglerModel::is_cross_type(&[GpuType(1), GpuType(1)]));
        assert!(StragglerModel::is_cross_type(&[GpuType(0), GpuType(1)]));
    }

    #[test]
    fn empty_assignment_has_zero_rate() {
        let m = StragglerModel::new();
        assert_eq!(m.effective_rate(&sv(vec![1.0, 2.0]), &[]), (0.0, 0));
    }

    #[test]
    fn stats_merge() {
        let mut a = StragglerStats {
            cross_type_placements: 2,
            affected_workers: 5,
        };
        let b = StragglerStats {
            cross_type_placements: 1,
            affected_workers: 3,
        };
        a.merge(&b);
        assert_eq!(a.cross_type_placements, 3);
        assert_eq!(a.affected_workers, 8);
    }
}
