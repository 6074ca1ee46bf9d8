//! Churn: deterministic Poisson-like sleep/wake event streams.
//!
//! Per epoch, every awake node crashes/sleeps with probability `p_sleep`
//! and every asleep node wakes with probability `p_wake`, decided by
//! [`hash_chance`] over `(seed, epoch, node)` — geometric (memoryless)
//! on/off dwell times, i.e. the discrete analogue of a Poisson on/off
//! process, yet fully deterministic and replayable. The stream composes
//! with the paper's wake-up machinery (Theorem 4): woken nodes are exactly
//! the "spontaneously activated" set a wake-up window starts from, and the
//! cluster-maintenance driver re-runs clustering over the awake set each
//! epoch.
//!
//! Node 0 is an **anchor**: it never sleeps. The wake-up problem requires
//! at least one active node, and every maintenance scenario needs a
//! nonempty participant set; pinning one node (rather than resampling) is
//! the determinism-preserving way to get both.

use crate::{DynamicsModel, World, WorldUpdate};
use dcluster_sim::rng::hash_chance;

/// Deterministic sleep/wake churn (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    seed: u64,
    p_sleep: f64,
    p_wake: f64,
}

impl Churn {
    /// Creates the schedule: per epoch, awake nodes sleep w.p. `p_sleep`,
    /// asleep nodes wake w.p. `p_wake`.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities lie in `[0, 1]`.
    pub fn new(seed: u64, p_sleep: f64, p_wake: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_sleep) && (0.0..=1.0).contains(&p_wake),
            "churn probabilities must lie in [0, 1]"
        );
        Self {
            seed,
            p_sleep,
            p_wake,
        }
    }

    /// The event (if any) this schedule fires for node `v` at `epoch` given
    /// its awake state — exposed so tests and analyzers can reconstruct
    /// the stream without a [`World`].
    pub fn event(&self, epoch: u64, v: usize, awake: bool) -> Option<WorldUpdate> {
        if awake {
            (v != 0 && hash_chance(self.seed, &[epoch, v as u64, 0], self.p_sleep))
                .then_some(WorldUpdate::Sleep { node: v })
        } else {
            hash_chance(self.seed, &[epoch, v as u64, 1], self.p_wake)
                .then_some(WorldUpdate::Wake { node: v })
        }
    }
}

impl DynamicsModel for Churn {
    fn advance(&mut self, world: &World, out: &mut Vec<WorldUpdate>) {
        let epoch = world.epoch();
        for v in 0..world.network().len() {
            if let Some(u) = self.event(epoch, v, world.is_awake(v)) {
                out.push(u);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::rng::Rng64;
    use dcluster_sim::{deploy, Network};

    fn test_world(n: usize) -> World {
        let mut rng = Rng64::new(8);
        World::new(
            Network::builder(deploy::uniform_square(n, 3.0, &mut rng))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn anchor_node_never_sleeps() {
        let mut w = test_world(50);
        let mut models: Vec<Box<dyn DynamicsModel>> = vec![Box::new(Churn::new(3, 0.9, 0.1))];
        for _ in 0..40 {
            w.step(&mut models);
            assert!(w.is_awake(0), "anchor must stay awake");
        }
        assert!(
            w.stats().sleeps > 0 && w.stats().wakes > 0,
            "heavy churn produces both event kinds"
        );
    }

    #[test]
    fn churn_rates_are_roughly_honoured() {
        let c = Churn::new(77, 0.2, 0.0);
        let fired = (0..10_000u64)
            .filter(|&e| c.event(e, 5, true).is_some())
            .count();
        let rate = fired as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "sleep rate {rate} far from 0.2");
        assert!(c.event(1, 5, false).is_none(), "p_wake = 0 never wakes");
    }

    #[test]
    fn stream_is_replayable() {
        let c = Churn::new(9, 0.3, 0.3);
        for e in 0..100 {
            for v in 0..20 {
                assert_eq!(c.event(e, v, true), c.event(e, v, true));
                assert_eq!(c.event(e, v, false), c.event(e, v, false));
            }
        }
    }
}
