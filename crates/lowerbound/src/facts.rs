//! Machine-checked versions of Fact 2 and Fact 3.

use crate::gadget::Gadget;
use crate::nu;
use dcluster_sim::radio::{AggregatedResolver, SinrResolver};
use dcluster_sim::{Network, SinrParams};

/// Builds the gadget as a network with sequential IDs.
fn gadget_net(g: &Gadget, params: &SinrParams) -> Network {
    Network::builder(g.points().to_vec())
        .params(*params)
        .build()
        .expect("valid gadget")
}

/// **Fact 2.1**: if `v_i` and `v_j` (`i < j`) transmit, then none of
/// `v_{j+1}, …, v_{∆+1}` receives anything. Returns the violating triple
/// `(i, j, receiver)` if any exists (checked exhaustively over all pairs).
pub fn check_fact_2_1(g: &Gadget, params: &SinrParams) -> Option<(usize, usize, usize)> {
    let net = gadget_net(g, params);
    let delta = g.delta();
    let mut radio = AggregatedResolver::new();
    for i in 0..=delta {
        for j in (i + 1)..=(delta + 1) {
            let tx = vec![g.core(i), g.core(j)];
            for r in radio.resolve(&net, &tx) {
                for m in (j + 1)..=(delta + 1) {
                    if r.receiver == g.core(m) {
                        return Some((i, j, m));
                    }
                }
            }
        }
    }
    None
}

/// **Fact 2.2**: `t` receives only if `v_{∆+1}` is the sole core
/// transmitter. Checked over all transmitter pairs including `v_{∆+1}`,
/// plus the positive case (alone ⇒ received).
pub fn check_fact_2_2(g: &Gadget, params: &SinrParams) -> bool {
    let net = gadget_net(g, params);
    let delta = g.delta();
    let last = g.core(delta + 1);
    let mut radio = AggregatedResolver::new();
    // Positive: alone, v_{∆+1} reaches t.
    let alone = radio.resolve(&net, &[last]);
    if !alone
        .iter()
        .any(|r| r.receiver == g.target() && r.sender == last)
    {
        return false;
    }
    // Negative: any companion transmitter silences t.
    for i in 0..=delta {
        let tx = vec![g.core(i), last];
        if radio
            .resolve(&net, &tx)
            .iter()
            .any(|r| r.receiver == g.target())
        {
            return false;
        }
    }
    // Also: s transmitting together with v_{∆+1} silences t.
    let tx = vec![g.source(), last];
    !radio
        .resolve(&net, &tx)
        .iter()
        .any(|r| r.receiver == g.target())
}

/// **Fact 3**: in a Figure 7 chain, the interference any core node of any
/// gadget suffers from *outside* that gadget is below `ν`, even with every
/// outside node transmitting at once (the worst case). Returns the maximal
/// outside interference observed, for comparison against [`nu`].
pub fn worst_outside_interference(
    chain_points: &[dcluster_sim::Point],
    gadget_member: &[bool],
    core_positions: &[usize],
    params: &SinrParams,
) -> f64 {
    let mut worst: f64 = 0.0;
    for &c in core_positions {
        let mut inter = 0.0;
        for (i, p) in chain_points.iter().enumerate() {
            if !gadget_member[i] {
                inter += params.signal(p.dist(chain_points[c]));
            }
        }
        worst = worst.max(inter);
    }
    worst
}

/// Convenience: check Fact 3 for a freshly built chain (every non-member
/// of each gadget transmitting).
pub fn check_fact_3(chain: &crate::chain::Chain, params: &SinrParams) -> bool {
    let bound = nu(params);
    for gi in 0..chain.gadget_count() {
        let members = chain.gadget_mask(gi);
        let core: Vec<usize> = chain.core_indices(gi);
        let w = worst_outside_interference(chain.points(), &members, &core, params);
        if w > bound {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::build_chain;
    use crate::lower_bound_params;

    #[test]
    fn fact_2_1_holds_exhaustively() {
        let p = lower_bound_params();
        for delta in [4usize, 8, 16, 24] {
            let g = Gadget::new(delta, &p, 0.0);
            assert_eq!(
                check_fact_2_1(&g, &p),
                None,
                "Fact 2.1 violated for ∆ = {delta}"
            );
        }
    }

    #[test]
    fn fact_2_2_holds() {
        let p = lower_bound_params();
        for delta in [4usize, 12, 20] {
            let g = Gadget::new(delta, &p, 0.0);
            assert!(check_fact_2_2(&g, &p), "Fact 2.2 violated for ∆ = {delta}");
        }
    }

    #[test]
    fn fact_2_1_fails_in_the_default_regime() {
        // Demonstrates why the lower-bound regime needs β > 2^α: with the
        // default (α=3, β=2) two adjacent transmitters do NOT block the
        // next node.
        let p = SinrParams::default();
        let g = Gadget::new(12, &p, 0.0);
        assert!(
            check_fact_2_1(&g, &p).is_some(),
            "default β ≤ 2^α should break the blocking argument"
        );
    }

    #[test]
    fn fact_3_holds_on_chains() {
        let p = lower_bound_params();
        let chain = build_chain(3, 8, &p);
        assert!(check_fact_3(&chain, &p), "outside interference exceeds ν");
    }
}
