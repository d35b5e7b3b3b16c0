//! The paper's step-decay learning-rate schedule (the trainer's optimizer
//! itself is `byz_kernel::sgd_momentum_step` over flat vectors).

/// The `(x, y, z)` learning-rate schedule of the paper's Appendix A.6:
/// start at rate `x` and multiply by `y` every `z` iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDecaySchedule {
    /// Initial rate `x`.
    pub initial: f64,
    /// Multiplicative decay `y`.
    pub decay: f64,
    /// Decay period `z` in iterations.
    pub period: usize,
}

impl StepDecaySchedule {
    /// Creates the schedule. `period == 0` is treated as "never decay".
    pub fn new(initial: f64, decay: f64, period: usize) -> Self {
        StepDecaySchedule {
            initial,
            decay,
            period,
        }
    }

    /// Constant learning rate.
    pub fn constant(rate: f64) -> Self {
        StepDecaySchedule::new(rate, 1.0, 0)
    }

    /// The learning rate at iteration `t` (0-based).
    pub fn rate_at(&self, t: usize) -> f64 {
        if self.period == 0 {
            return self.initial;
        }
        self.initial * self.decay.powi((t / self.period) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_rates() {
        let s = StepDecaySchedule::new(0.1, 0.5, 10);
        assert_eq!(s.rate_at(0), 0.1);
        assert_eq!(s.rate_at(9), 0.1);
        assert_eq!(s.rate_at(10), 0.05);
        assert_eq!(s.rate_at(25), 0.025);
        let c = StepDecaySchedule::constant(0.2);
        assert_eq!(c.rate_at(1_000_000), 0.2);
    }
}
