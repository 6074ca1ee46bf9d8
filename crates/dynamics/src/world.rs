//! The mutable world: a network plus awake flags. Updates that move a
//! node or change a power replace the network with a fresh build.

use crate::{build_like, DynamicsModel};
use dcluster_sim::{Network, Point};

/// One atomic change to the world, produced by a [`DynamicsModel`] and
/// applied by [`World::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorldUpdate {
    /// Node relocates to `to`.
    Move {
        /// Node index.
        node: usize,
        /// New position.
        to: Point,
    },
    /// Node changes transmit power.
    SetPower {
        /// Node index.
        node: usize,
        /// New power (strictly positive, finite).
        power: f64,
    },
    /// Node goes silent (crash or sleep): it stops participating in
    /// protocols but remains physically deployed — mirroring the wake-up
    /// problem's inactive nodes, which can still be woken by radio.
    Sleep {
        /// Node index.
        node: usize,
    },
    /// Node (re-)activates — a spontaneous wake-up or a join.
    Wake {
        /// Node index.
        node: usize,
    },
}

/// Cumulative counts of applied updates (transition-counting: redundant
/// sleeps/wakes are not counted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Applied `Move` updates.
    pub moves: u64,
    /// Applied `SetPower` updates.
    pub power_changes: u64,
    /// Awake → asleep transitions.
    pub sleeps: u64,
    /// Asleep → awake transitions.
    pub wakes: u64,
}

/// A network evolving under dynamics: positions, powers and awake flags.
/// [`World::apply`] rebuilds the network whenever an update moves a node
/// or changes a power.
#[derive(Debug, Clone)]
pub struct World {
    net: Network,
    awake: Vec<bool>,
    epoch: u64,
    stats: WorldStats,
}

impl World {
    /// Wraps a deployed network; every node starts awake.
    pub fn new(net: Network) -> Self {
        let n = net.len();
        Self {
            net,
            awake: vec![true; n],
            epoch: 0,
            stats: WorldStats::default(),
        }
    }

    /// The current network, built over the positions and powers of every
    /// applied update.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Epochs stepped so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative update counts.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// True iff node `v` is awake (participating in protocols).
    #[inline]
    pub fn is_awake(&self, v: usize) -> bool {
        self.awake[v]
    }

    /// Awake flags, indexable by node index.
    pub fn awake(&self) -> &[bool] {
        &self.awake
    }

    /// Indices of the awake nodes, ascending.
    pub fn awake_nodes(&self) -> Vec<usize> {
        (0..self.net.len()).filter(|&v| self.awake[v]).collect()
    }

    /// Applies an update stream in order. Moves and power changes are
    /// written into copies of the position and power vectors; if any
    /// arrived, the network is rebuilt once over them.
    ///
    /// # Panics
    ///
    /// Panics if a node index is out of range, a `SetPower` carries a
    /// power that is not strictly positive and finite, or a `Move` target
    /// is not finite.
    pub fn apply(&mut self, updates: &[WorldUpdate]) {
        let mut points = self.net.points().to_vec();
        let mut powers = self.net.powers().to_vec();
        let mut moved = false;
        for &u in updates {
            match u {
                WorldUpdate::Move { node, to } => {
                    points[node] = to;
                    moved = true;
                    self.stats.moves += 1;
                }
                WorldUpdate::SetPower { node, power } => {
                    assert!(
                        power > 0.0 && power.is_finite(),
                        "node {node} power must be positive, got {power}"
                    );
                    powers[node] = power;
                    moved = true;
                    self.stats.power_changes += 1;
                }
                WorldUpdate::Sleep { node } => {
                    if std::mem::replace(&mut self.awake[node], false) {
                        self.stats.sleeps += 1;
                    }
                }
                WorldUpdate::Wake { node } => {
                    if !std::mem::replace(&mut self.awake[node], true) {
                        self.stats.wakes += 1;
                    }
                }
            }
        }
        if moved {
            self.net = build_like(&self.net, points, powers)
                // lint:allow(P1, reason = "rebuilds a valid network with checked powers; a non-finite Move is the documented panic")
                .expect("a valid network's ids with checked powers and finite positions");
        }
    }

    /// One scenario epoch: every model appends its updates (all seeing the
    /// pre-epoch world), the concatenated stream is applied, and the epoch
    /// counter advances. Returns the number of updates applied.
    pub fn step(&mut self, models: &mut [Box<dyn DynamicsModel>]) -> usize {
        let mut updates = Vec::new();
        for m in models.iter_mut() {
            m.advance(self, &mut updates);
        }
        self.apply(&updates);
        self.epoch += 1;
        updates.len()
    }

    /// A fresh build of the network over its current positions, powers,
    /// ids and parameters — the reference [`World::audit_incremental`]
    /// compares against.
    pub fn rebuilt_network(&self) -> Network {
        build_like(
            &self.net,
            self.net.points().to_vec(),
            self.net.powers().to_vec(),
        )
        // lint:allow(P1, reason = "rebuilds the world's own, already valid network")
        .expect("the world's network is valid")
    }

    /// Audits that the world's network equals a fresh build of its
    /// positions, powers and ids: same spatial grid (cell contents *and*
    /// per-cell member order, which pins every downstream floating-point
    /// summation order), same communication graph, same ranges. `Err`
    /// describes the first divergence. The name dates from when the world
    /// patched its network in place; `perfbench` still times this call.
    pub fn audit_incremental(&self) -> Result<(), String> {
        let fresh = self.rebuilt_network();
        if self.net.grid() != fresh.grid() {
            return Err(format!(
                "grid diverged after {} epochs ({} vs {} occupied cells)",
                self.epoch,
                self.net.grid().occupied_cells(),
                fresh.grid().occupied_cells()
            ));
        }
        if self.net.comm_graph() != fresh.comm_graph() {
            return Err(format!(
                "comm graph diverged after {} epochs ({} vs {} edges)",
                self.epoch,
                self.net.comm_graph().edge_count(),
                fresh.comm_graph().edge_count()
            ));
        }
        for v in 0..self.net.len() {
            if self.net.range_of(v) != fresh.range_of(v) {
                return Err(format!(
                    "range cache of node {v} diverged: {} vs {}",
                    self.net.range_of(v),
                    fresh.range_of(v)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::deploy;
    use dcluster_sim::rng::Rng64;

    fn world(n: usize, seed: u64) -> World {
        let mut rng = Rng64::new(seed);
        let net = Network::builder(deploy::uniform_square(n, 3.0, &mut rng))
            .build()
            .unwrap();
        World::new(net)
    }

    #[test]
    fn apply_moves_and_audits_clean() {
        let mut w = world(80, 1);
        let mut rng = Rng64::new(2);
        let mut expected = w.network().points().to_vec();
        for _ in 0..10 {
            let updates: Vec<WorldUpdate> = (0..8)
                .map(|_| WorldUpdate::Move {
                    node: rng.range_usize(80),
                    to: Point::new(rng.range_f64(0.0, 3.0), rng.range_f64(0.0, 3.0)),
                })
                .collect();
            for u in &updates {
                if let WorldUpdate::Move { node, to } = *u {
                    expected[node] = to;
                }
            }
            w.apply(&updates);
        }
        assert_eq!(w.stats().moves, 80);
        assert_eq!(w.network().points(), &expected[..]);
        w.audit_incremental().expect("network == rebuild");
    }

    #[test]
    fn sleep_wake_transitions_are_counted_once() {
        let mut w = world(5, 3);
        let stamp = w.network().stamp();
        w.apply(&[
            WorldUpdate::Sleep { node: 2 },
            WorldUpdate::Sleep { node: 2 }, // redundant
            WorldUpdate::Wake { node: 2 },
            WorldUpdate::Wake { node: 0 }, // already awake
        ]);
        assert_eq!(w.stats().sleeps, 1);
        assert_eq!(w.stats().wakes, 1);
        assert_eq!(w.awake_nodes().len(), 5);
        w.apply(&[WorldUpdate::Sleep { node: 4 }]);
        assert_eq!(w.awake_nodes(), vec![0, 1, 2, 3]);
        assert!(!w.is_awake(4));
        assert_eq!(w.network().stamp(), stamp, "no move, no rebuild");
    }

    #[test]
    fn set_power_keeps_audit_clean() {
        let mut w = world(40, 4);
        let base = w.network().params().power;
        w.apply(&[
            WorldUpdate::SetPower {
                node: 3,
                power: 4.0 * base,
            },
            WorldUpdate::SetPower {
                node: 17,
                power: 0.5 * base,
            },
        ]);
        assert!(!w.network().has_uniform_power());
        assert_eq!(w.stats().power_changes, 2);
        let net = w.network();
        assert_eq!(net.powers()[..4], [base, base, base, 4.0 * base]);
        assert_eq!(net.powers()[16..18], [base, 0.5 * base]);
        assert!(net.range_of(3) > net.range_of(0));
        w.audit_incremental().expect("network == rebuild");
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn apply_rejects_a_non_positive_power() {
        world(5, 6).apply(&[WorldUpdate::SetPower {
            node: 1,
            power: -1.0,
        }]);
    }

    #[test]
    fn rebuilt_network_preserves_identity() {
        let w = world(30, 5);
        let fresh = w.rebuilt_network();
        assert_eq!(fresh.ids(), w.network().ids());
        assert_eq!(fresh.max_id(), w.network().max_id());
        assert_eq!(fresh.len(), 30);
    }
}
