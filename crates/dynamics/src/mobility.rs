//! Mobility models: random waypoint, bounded random walk, group drift.
//!
//! Each model owns a deterministic RNG and a fixed **mobile subset** of
//! the nodes (chosen by hashing at construction): real deployments mix
//! static sensors with mobile units. Asleep nodes do not move (a crashed
//! sensor stays put); they resume from wherever they stopped when woken.

use crate::{DynamicsModel, World, WorldUpdate};
use dcluster_sim::rng::{hash_chance, Rng64};
use dcluster_sim::Point;

/// Which mobility model a scenario uses (CLI-facing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MobilityKind {
    /// No mobility.
    None,
    /// [`RandomWaypoint`].
    Waypoint,
    /// [`RandomWalk`].
    Walk,
    /// [`GroupDrift`].
    Group,
}

impl MobilityKind {
    /// Stable lower-case name (CLI flags, JSON).
    pub fn name(self) -> &'static str {
        match self {
            MobilityKind::None => "none",
            MobilityKind::Waypoint => "waypoint",
            MobilityKind::Walk => "walk",
            MobilityKind::Group => "group",
        }
    }

    /// Instantiates the model for an `n`-node world on `[0, w]×[0, h]`
    /// with default speeds scaled to the transmission range (= 1), or
    /// `None` for [`MobilityKind::None`]. `mobile_frac` is the fraction of
    /// nodes that move at all.
    pub fn build(
        self,
        n: usize,
        bounds: (f64, f64),
        mobile_frac: f64,
        seed: u64,
    ) -> Option<Box<dyn DynamicsModel>> {
        match self {
            MobilityKind::None => None,
            MobilityKind::Waypoint => Some(Box::new(RandomWaypoint::new(
                n,
                bounds,
                0.25,
                mobile_frac,
                seed,
            ))),
            MobilityKind::Walk => {
                Some(Box::new(RandomWalk::new(n, bounds, 0.2, mobile_frac, seed)))
            }
            MobilityKind::Group => Some(Box::new(GroupDrift::new(
                n,
                bounds,
                0.2,
                mobile_frac,
                4,
                seed,
            ))),
        }
    }
}

impl std::fmt::Display for MobilityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MobilityKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "off" => Ok(MobilityKind::None),
            "waypoint" | "rwp" => Ok(MobilityKind::Waypoint),
            "walk" | "rw" => Ok(MobilityKind::Walk),
            "group" | "hotspot" => Ok(MobilityKind::Group),
            other => Err(format!(
                "unknown mobility '{other}' (expected none|waypoint|walk|group)"
            )),
        }
    }
}

/// The deterministic mobile subset: node `v` is mobile iff
/// `hash(seed, v) < frac` — stable under churn and replay.
fn mobile_subset(n: usize, frac: f64, seed: u64) -> Vec<usize> {
    (0..n)
        .filter(|&v| hash_chance(seed ^ 0x6d6f_6269, &[v as u64], frac))
        .collect()
}

fn clamp(p: Point, bounds: (f64, f64)) -> Point {
    Point::new(p.x.clamp(0.0, bounds.0), p.y.clamp(0.0, bounds.1))
}

/// Random waypoint: each mobile node walks in a straight line toward a
/// uniformly drawn target at a fixed speed, then draws the next target —
/// the classic MANET mobility benchmark.
#[derive(Debug)]
pub struct RandomWaypoint {
    bounds: (f64, f64),
    speed: f64,
    mobile: Vec<usize>,
    targets: Vec<Point>,
    rng: Rng64,
}

impl RandomWaypoint {
    /// Creates the model: `mobile_frac` of the `n` nodes move at `speed`
    /// distance units per epoch inside `[0, bounds.0]×[0, bounds.1]`.
    pub fn new(n: usize, bounds: (f64, f64), speed: f64, mobile_frac: f64, seed: u64) -> Self {
        let mobile = mobile_subset(n, mobile_frac, seed);
        let mut rng = Rng64::new(seed);
        let targets = mobile
            .iter()
            .map(|_| Point::new(rng.range_f64(0.0, bounds.0), rng.range_f64(0.0, bounds.1)))
            .collect();
        Self {
            bounds,
            speed,
            mobile,
            targets,
            rng,
        }
    }
}

impl DynamicsModel for RandomWaypoint {
    fn name(&self) -> &'static str {
        "waypoint"
    }

    fn advance(&mut self, world: &World, out: &mut Vec<WorldUpdate>) {
        for (i, &v) in self.mobile.iter().enumerate() {
            if !world.is_awake(v) {
                continue;
            }
            let cur = world.network().pos(v);
            let tgt = self.targets[i];
            let d = cur.dist(tgt);
            let to = if d <= self.speed {
                self.targets[i] = Point::new(
                    self.rng.range_f64(0.0, self.bounds.0),
                    self.rng.range_f64(0.0, self.bounds.1),
                );
                tgt
            } else {
                Point::new(
                    cur.x + (tgt.x - cur.x) / d * self.speed,
                    cur.y + (tgt.y - cur.y) / d * self.speed,
                )
            };
            out.push(WorldUpdate::Move { node: v, to });
        }
    }
}

/// Bounded random walk: each mobile node takes an independent uniformly
/// oriented step per epoch, clamped to the deployment rectangle.
#[derive(Debug)]
pub struct RandomWalk {
    bounds: (f64, f64),
    step: f64,
    mobile: Vec<usize>,
    rng: Rng64,
}

impl RandomWalk {
    /// Creates the model (`step` distance units per epoch).
    pub fn new(n: usize, bounds: (f64, f64), step: f64, mobile_frac: f64, seed: u64) -> Self {
        Self {
            bounds,
            step,
            mobile: mobile_subset(n, mobile_frac, seed),
            rng: Rng64::new(seed ^ 0x77a1),
        }
    }
}

impl DynamicsModel for RandomWalk {
    fn name(&self) -> &'static str {
        "walk"
    }

    fn advance(&mut self, world: &World, out: &mut Vec<WorldUpdate>) {
        for &v in &self.mobile {
            if !world.is_awake(v) {
                continue;
            }
            let a = self.rng.range_f64(0.0, std::f64::consts::TAU);
            let cur = world.network().pos(v);
            let to = clamp(
                Point::new(cur.x + self.step * a.cos(), cur.y + self.step * a.sin()),
                self.bounds,
            );
            out.push(WorldUpdate::Move { node: v, to });
        }
    }
}

/// Group / hotspot drift: mobile nodes belong to a few groups whose
/// virtual centers drift across the field; members track their group's
/// drift with individual jitter. Models vehicle convoys or rescue teams —
/// dense moving hotspots, the introduction's worry case.
#[derive(Debug)]
pub struct GroupDrift {
    bounds: (f64, f64),
    speed: f64,
    mobile: Vec<usize>,
    group_of: Vec<usize>,
    velocities: Vec<(f64, f64)>,
    rng: Rng64,
}

impl GroupDrift {
    /// Creates the model with `groups` drifting groups.
    pub fn new(
        n: usize,
        bounds: (f64, f64),
        speed: f64,
        mobile_frac: f64,
        groups: usize,
        seed: u64,
    ) -> Self {
        let mobile = mobile_subset(n, mobile_frac, seed);
        let groups = groups.max(1);
        let group_of = (0..mobile.len()).map(|i| i % groups).collect();
        let mut rng = Rng64::new(seed ^ 0x6772_6f75);
        let velocities = (0..groups)
            .map(|_| {
                let a = rng.range_f64(0.0, std::f64::consts::TAU);
                (speed * a.cos(), speed * a.sin())
            })
            .collect();
        Self {
            bounds,
            speed,
            mobile,
            group_of,
            velocities,
            rng,
        }
    }
}

impl DynamicsModel for GroupDrift {
    fn name(&self) -> &'static str {
        "group"
    }

    fn advance(&mut self, world: &World, out: &mut Vec<WorldUpdate>) {
        // Reflect group velocities off the walls using the group's first
        // awake member as the probe (groups stay coherent: members share
        // the drift, so any member works).
        let mut probed = vec![false; self.velocities.len()];
        for (i, &v) in self.mobile.iter().enumerate() {
            let g = self.group_of[i];
            if probed[g] || !world.is_awake(v) {
                continue;
            }
            probed[g] = true;
            let p = world.network().pos(v);
            let (vx, vy) = self.velocities[g];
            if p.x + vx < 0.0 || p.x + vx > self.bounds.0 {
                self.velocities[g].0 = -vx;
            }
            if p.y + vy < 0.0 || p.y + vy > self.bounds.1 {
                self.velocities[g].1 = -vy;
            }
        }
        let jitter = self.speed * 0.25;
        for (i, &v) in self.mobile.iter().enumerate() {
            if !world.is_awake(v) {
                continue;
            }
            let (vx, vy) = self.velocities[self.group_of[i]];
            let cur = world.network().pos(v);
            let to = clamp(
                Point::new(
                    cur.x + vx + self.rng.range_f64(-jitter, jitter),
                    cur.y + vy + self.rng.range_f64(-jitter, jitter),
                ),
                self.bounds,
            );
            out.push(WorldUpdate::Move { node: v, to });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::{deploy, Network};

    fn test_world(n: usize) -> World {
        let mut rng = Rng64::new(1);
        World::new(
            Network::builder(deploy::uniform_square(n, 4.0, &mut rng))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn kinds_parse_and_print() {
        for kind in [
            MobilityKind::None,
            MobilityKind::Waypoint,
            MobilityKind::Walk,
            MobilityKind::Group,
        ] {
            assert_eq!(kind.name().parse::<MobilityKind>().unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert!("teleport".parse::<MobilityKind>().is_err());
        assert!(MobilityKind::None.build(10, (1.0, 1.0), 0.5, 1).is_none());
        assert!(MobilityKind::Waypoint
            .build(10, (1.0, 1.0), 0.5, 1)
            .is_some());
    }

    #[test]
    fn waypoint_moves_only_the_mobile_subset_and_stays_in_bounds() {
        let mut w = test_world(100);
        let mut m = RandomWaypoint::new(100, (4.0, 4.0), 0.3, 0.2, 5);
        let mobile: std::collections::HashSet<usize> = m.mobile.iter().copied().collect();
        assert!(
            !mobile.is_empty() && mobile.len() < 60,
            "a strict subset moves"
        );
        for _ in 0..30 {
            let mut ups = Vec::new();
            m.advance(&w, &mut ups);
            for u in &ups {
                let WorldUpdate::Move { node, to } = u else {
                    panic!("waypoint only emits moves");
                };
                assert!(mobile.contains(node));
                assert!((0.0..=4.0).contains(&to.x) && (0.0..=4.0).contains(&to.y));
            }
            w.apply(&ups);
        }
        w.audit_incremental().unwrap();
    }

    #[test]
    fn waypoint_converges_toward_its_target() {
        let mut w = test_world(50);
        let mut m = RandomWaypoint::new(50, (4.0, 4.0), 0.5, 1.0, 9);
        let v = m.mobile[0];
        let tgt = m.targets[0];
        let before = w.network().pos(v).dist(tgt);
        let mut ups = Vec::new();
        m.advance(&w, &mut ups);
        w.apply(&ups);
        let after = w.network().pos(v).dist(tgt);
        assert!(
            after < before || before <= 0.5,
            "one step must close the distance ({before} -> {after})"
        );
    }

    #[test]
    fn asleep_nodes_do_not_move() {
        let mut w = test_world(40);
        let mut m = RandomWalk::new(40, (4.0, 4.0), 0.2, 1.0, 3);
        w.apply(&[WorldUpdate::Sleep { node: 7 }]);
        let mut ups = Vec::new();
        m.advance(&w, &mut ups);
        assert!(
            ups.iter()
                .all(|u| !matches!(u, WorldUpdate::Move { node: 7, .. })),
            "sleeping node 7 must stay put"
        );
        assert!(!ups.is_empty());
    }

    #[test]
    fn group_drift_keeps_groups_coherent() {
        let mut w = test_world(60);
        let mut m = GroupDrift::new(60, (4.0, 4.0), 0.15, 0.5, 3, 11);
        for _ in 0..20 {
            let mut ups = Vec::new();
            m.advance(&w, &mut ups);
            w.apply(&ups);
        }
        w.audit_incremental().unwrap();
        // Same-group members moved with the same drift (up to jitter):
        // their pairwise spread should not have exploded beyond the field.
        for u in 0..60 {
            let p = w.network().pos(u);
            assert!((0.0..=4.0).contains(&p.x) && (0.0..=4.0).contains(&p.y));
        }
    }

    #[test]
    fn models_replay_identically_from_the_same_seed() {
        let run = |seed: u64| {
            let mut w = test_world(70);
            let mut m: Vec<Box<dyn DynamicsModel>> = vec![
                Box::new(RandomWaypoint::new(70, (4.0, 4.0), 0.25, 0.3, seed)),
                Box::new(Churn::new(seed ^ 9, 0.1, 0.4)),
            ];
            for _ in 0..12 {
                w.step(&mut m);
            }
            (w.network().points().to_vec(), w.awake().to_vec(), w.stats())
        };
        use crate::Churn;
        assert_eq!(run(5), run(5), "same seed, same world history");
        assert_ne!(run(5).0, run(6).0, "different seed, different history");
    }
}
