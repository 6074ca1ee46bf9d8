//! Delivery bookkeeping shared by the baselines.

use dcluster_sim::network::Network;
use std::collections::HashSet;

/// Tracks which `(sender → neighbor)` deliveries are still missing for a
/// complete local broadcast; O(1) completeness queries.
#[derive(Debug, Clone)]
pub struct DeliveryTracker {
    heard_by: Vec<HashSet<usize>>, // lint:allow(D1, reason = "delivery-witness set; membership queries only")
    missing_of: Vec<usize>,
    missing_total: usize,
}

impl DeliveryTracker {
    /// Initializes from the network's communication graph.
    pub fn new(net: &Network) -> Self {
        let g = net.comm_graph();
        let missing_of: Vec<usize> = (0..net.len()).map(|v| g.degree(v)).collect();
        let missing_total = missing_of.iter().sum();
        Self {
            heard_by: vec![HashSet::new(); net.len()], // lint:allow(D1, reason = "delivery-witness set; membership queries only")
            missing_of,
            missing_total,
        }
    }

    /// Records that `receiver` heard `sender`'s message.
    pub fn record(&mut self, net: &Network, sender: usize, receiver: usize) {
        if self.heard_by[sender].insert(receiver) && net.comm_graph().has_edge(sender, receiver) {
            self.missing_of[sender] -= 1;
            self.missing_total -= 1;
        }
    }

    /// True iff every node reached all its neighbors.
    pub fn complete(&self) -> bool {
        self.missing_total == 0
    }

    /// True iff `v` reached all of its neighbors (the *feedback* oracle of
    /// the \[19\]/\[4\] model rows).
    pub fn node_done(&self, v: usize) -> bool {
        self.missing_of[v] == 0
    }

    /// Delivery sets, for reporting.
    // lint:allow(D1, reason = "delivery-witness set; membership queries only")
    pub fn into_heard_by(self) -> Vec<std::collections::HashSet<usize>> {
        self.heard_by
    }

    /// Remaining `(sender, neighbor)` deliveries.
    pub fn missing_total(&self) -> usize {
        self.missing_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcluster_sim::Point;

    #[test]
    fn tracker_counts_down_to_complete() {
        let net = dcluster_sim::Network::builder(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(5.0, 0.0),
        ])
        .build()
        .unwrap();
        let mut t = DeliveryTracker::new(&net);
        assert!(!t.complete());
        assert_eq!(t.missing_total(), 2); // the 0–1 edge, both directions
        t.record(&net, 0, 1);
        assert!(t.node_done(0));
        assert!(!t.complete());
        t.record(&net, 1, 0);
        assert!(t.complete());
        // Duplicate and non-neighbor records are no-ops.
        t.record(&net, 1, 0);
        t.record(&net, 0, 2);
        assert!(t.complete());
    }
}
