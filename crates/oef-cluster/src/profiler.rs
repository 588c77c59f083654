//! The profiling agent (§4.1).
//!
//! Tenants submit one representative task per job type; the agent runs a few
//! mini-batches on each GPU type and reports the measured speedup vector to the
//! scheduler.  Profiling is cheap but noisy, so the agent is parameterised by a
//! relative error bound; Fig. 10(b) of the paper studies the scheduler's sensitivity to
//! this error.

use oef_core::{Result, SpeedupVector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A profiling agent with a configurable relative measurement error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Profiler {
    /// Maximum relative error applied to each non-slowest GPU type's measurement,
    /// e.g. `0.2` means measurements are off by up to ±20%.
    pub error_rate: f64,
    seed: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Self {
            error_rate: 0.0,
            seed: 7,
        }
    }
}

impl Profiler {
    /// Creates a profiler with the given maximum relative error and RNG seed.
    pub fn new(error_rate: f64, seed: u64) -> Self {
        Self {
            error_rate: error_rate.abs(),
            seed,
        }
    }

    /// An exact profiler (no measurement error).
    pub fn exact() -> Self {
        Self::default()
    }

    /// Profiles a job with the given true speedup profile, returning the (noisy)
    /// measured profile that would be reported to the scheduler.  The measurement is
    /// deterministic for a given `(seed, job_key)` pair so simulation runs are
    /// reproducible.
    ///
    /// # Errors
    ///
    /// Returns an error only if the perturbed vector fails validation, which cannot
    /// happen for error rates below 100%.
    pub fn profile(&self, true_speedup: &SpeedupVector, job_key: u64) -> Result<SpeedupVector> {
        if self.error_rate == 0.0 {
            return Ok(true_speedup.clone());
        }
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ job_key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let k = true_speedup.num_gpu_types();
        let mut factors = vec![1.0; k];
        for f in factors.iter_mut().skip(1) {
            let err: f64 = rng.gen_range(-self.error_rate..=self.error_rate);
            *f = (1.0 + err).max(0.01);
        }
        true_speedup.inflate(&factors)
    }

    /// [`Self::profile`] into an existing vector: an exact profiler copies into
    /// `measured`'s buffer and allocates nothing.
    ///
    /// # Errors
    ///
    /// Same as [`Self::profile`].
    pub fn profile_into(
        &self,
        true_speedup: &SpeedupVector,
        job_key: u64,
        measured: &mut SpeedupVector,
    ) -> Result<()> {
        if self.error_rate == 0.0 {
            measured.clone_from(true_speedup);
        } else {
            *measured = self.profile(true_speedup, job_key)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(values: Vec<f64>) -> SpeedupVector {
        SpeedupVector::new(values).unwrap()
    }

    #[test]
    fn exact_profiler_is_identity() {
        let p = Profiler::exact();
        let s = sv(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.profile(&s, 42).unwrap(), s);
    }

    #[test]
    fn noisy_profiler_stays_within_error_bound() {
        let p = Profiler::new(0.2, 123);
        let s = sv(vec![1.0, 2.0, 3.0]);
        for key in 0..50 {
            let measured = p.profile(&s, key).unwrap();
            assert_eq!(measured.speedup(0), 1.0, "slowest type stays normalised");
            for j in 1..3 {
                let rel = (measured.speedup(j) - s.speedup(j)).abs() / s.speedup(j);
                assert!(rel <= 0.2 + 1e-9, "relative error {rel} exceeds bound");
            }
        }
    }

    #[test]
    fn profiling_is_deterministic_per_key() {
        let p = Profiler::new(0.1, 5);
        let s = sv(vec![1.0, 1.8]);
        let a = p.profile(&s, 9).unwrap();
        let b = p.profile(&s, 9).unwrap();
        assert_eq!(a, b);
        let c = p.profile(&s, 10).unwrap();
        // Different keys almost surely give different noise.
        assert_ne!(a, c);
    }
}
