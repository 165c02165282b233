//! A [`CoolingModel`] wrapper that times every steady solve, so the
//! thermal layer's share of Algorithm 1 is measured from outside the
//! program.

use oftec_thermal::{
    CoolingModel, OperatingPoint, PackageConfig, ThermalError, ThermalSolution, TransientOptions,
    TransientTrace,
};
use std::sync::{Mutex, PoisonError};

/// Delegates to `inner` and records the wall time of each steady solve.
pub struct TimedModel<M> {
    inner: M,
    evals_ns: Mutex<Vec<u64>>,
}

impl<M: CoolingModel> TimedModel<M> {
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            evals_ns: Mutex::new(Vec::new()),
        }
    }

    /// Takes the recorded solve durations (ns), leaving the record empty.
    pub fn take_evals(&self) -> Vec<u64> {
        std::mem::take(&mut *self.record())
    }

    /// The record; a push is the only update, so a guard poisoned by a
    /// panicking solve still holds a valid list.
    fn record(&self) -> std::sync::MutexGuard<'_, Vec<u64>> {
        self.evals_ns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = crate::now();
        let r = f();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.record().push(ns);
        r
    }
}

impl<M: CoolingModel> CoolingModel for TimedModel<M> {
    fn config(&self) -> &PackageConfig {
        self.inner.config()
    }

    fn has_tec(&self) -> bool {
        self.inner.has_tec()
    }

    fn validate_operating_point(&self, op: OperatingPoint) -> Result<(), ThermalError> {
        self.inner.validate_operating_point(op)
    }

    fn solve(&self, op: OperatingPoint) -> Result<ThermalSolution, ThermalError> {
        self.timed(|| self.inner.solve(op))
    }

    fn solve_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
    ) -> Result<ThermalSolution, ThermalError> {
        self.timed(|| self.inner.solve_from(op, initial))
    }

    fn simulate_transient_from(
        &self,
        op: OperatingPoint,
        initial: Option<&[f64]>,
        steps: usize,
        opts: &TransientOptions,
    ) -> Result<TransientTrace, ThermalError> {
        self.inner.simulate_transient_from(op, initial, steps, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec::{CoolingSystem, Oftec, OftecOutcome};
    use oftec_power::Benchmark;

    fn optimum(outcome: &OftecOutcome) -> [u64; 4] {
        let sol = outcome.optimized().expect("coarse benchmark is coolable");
        [
            sol.operating_point.tec_current.amperes().to_bits(),
            sol.operating_point.fan_speed.rpm().to_bits(),
            sol.cooling_power.watts().to_bits(),
            sol.max_temperature.celsius().to_bits(),
        ]
    }

    #[test]
    fn wrapper_returns_bit_identical_optima() {
        for benchmark in [Benchmark::Basicmath, Benchmark::BitCount] {
            let system =
                CoolingSystem::for_benchmark_with_config(benchmark, &PackageConfig::dac14_coarse());
            let reduced = system.reduced_tec_model();
            let plain = Oftec::default()
                .run_on_model(&reduced, system.t_max())
                .unwrap();
            let timed = TimedModel::new(system.reduced_tec_model());
            let wrapped = Oftec::default()
                .run_on_model(&timed, system.t_max())
                .unwrap();
            assert_eq!(optimum(&plain), optimum(&wrapped), "{benchmark:?}");
            assert!(!timed.take_evals().is_empty());
            assert!(
                timed.take_evals().is_empty(),
                "take leaves the record empty"
            );
        }
    }
}
