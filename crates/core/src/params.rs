//! Protocol parameters.
//!
//! The paper's algorithms are parameterized by constants that exist but are
//! astronomically large when derived from the worst-case lemmas (κ, ρ of
//! Lemmas 5–6, selector-length constants, the `χ(5, 1−ε)` iteration counts).
//! [`ProtocolParams`] exposes all of them. [`ProtocolParams::practical`]
//! gives laptop-scale values under which the test-suite *checks* every
//! invariant on concrete deployments; [`ProtocolParams::theory`] gives the
//! faithful lengths for small-instance validation.

/// Tunable constants for the whole protocol stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolParams {
    /// Lemma 5/6 constant κ: size of the "close neighborhood" whose silence
    /// guarantees close-pair reception; also the wss/wcss set-size
    /// parameter and the proximity-graph degree cap.
    pub kappa: usize,
    /// Lemma 6 constant ρ: number of conflicting clusters a wcss round must
    /// be free of.
    pub rho: usize,
    /// Lemma 4 constant `k_γ`: the ssf parameter of the Sparse Network
    /// Schedule (max nodes in the interference-relevant ball `B(v, x)`).
    pub sns_k: usize,
    /// Degree bound used by the LOCAL MIS color reduction on SNS-induced
    /// graphs (constant-density sets ⇒ constant degree).
    pub mis_degree: usize,
    /// Multiplier on the theory-recommended selector lengths (`1.0` =
    /// faithful; experiments use ≪ 1 and validate outcomes).
    pub len_factor: f64,
    /// Hard floor on any selector schedule length.
    pub min_sched_len: u64,
    /// Master seed — a *protocol constant*: every node derives identical
    /// selector families from it.
    pub seed: u64,
    /// Run loops adaptively (stop when the loop's goal is met) instead of
    /// the paper's worst-case iteration counts. Worst-case counts remain as
    /// caps either way.
    pub adaptive: bool,
    /// Safety multiplier on the paper's worst-case iteration counts when
    /// `adaptive` (caps runaway loops without changing semantics).
    pub cap_factor: f64,
}

impl ProtocolParams {
    /// Laptop-scale defaults: small κ/ρ, aggressively shortened selector
    /// schedules. All correctness invariants are checked by the test-suite
    /// under exactly these values.
    pub fn practical() -> Self {
        Self {
            kappa: 5,
            rho: 4,
            sns_k: 10,
            mis_degree: 10,
            len_factor: 0.02,
            min_sched_len: 96,
            seed: 0xDC1A_57E2,
            adaptive: true,
            cap_factor: 2.0,
        }
    }

    /// Theory-faithful lengths (`len_factor = 1`) and non-adaptive loops —
    /// use only on very small instances.
    pub fn theory() -> Self {
        Self {
            kappa: 5,
            rho: 4,
            sns_k: 10,
            mis_degree: 10,
            len_factor: 1.0,
            min_sched_len: 1,
            seed: 0xDC1A_57E2,
            adaptive: false,
            cap_factor: 1.0,
        }
    }

    /// Applies the length knobs to a theory-recommended length.
    pub fn sched_len(&self, recommended: u64) -> u64 {
        ((recommended as f64 * self.len_factor).ceil() as u64).max(self.min_sched_len)
    }

    /// Applies the cap knob to a worst-case iteration count.
    pub fn cap(&self, worst_case: usize) -> usize {
        ((worst_case as f64 * self.cap_factor).ceil() as usize).max(1)
    }
}

impl Default for ProtocolParams {
    fn default() -> Self {
        Self::practical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn practical_shrinks_schedules_theory_does_not() {
        let p = ProtocolParams::practical();
        let t = ProtocolParams::theory();
        assert!(p.sched_len(100_000) < 100_000);
        assert_eq!(t.sched_len(100_000), 100_000);
    }

    #[test]
    fn sched_len_respects_floor() {
        let p = ProtocolParams::practical();
        assert_eq!(p.sched_len(10), p.min_sched_len);
    }

    #[test]
    fn cap_never_returns_zero() {
        let p = ProtocolParams::practical();
        assert_eq!(p.cap(0), 1);
        assert!(p.cap(5) >= 5);
    }

    #[test]
    fn default_is_practical() {
        assert_eq!(ProtocolParams::default(), ProtocolParams::practical());
    }
}
