//! Simple undirected graph utilities (communication graphs, proximity
//! graphs): BFS, diameter, degree statistics, independence checks.

use std::collections::VecDeque;

/// An undirected graph on vertices `0..n` stored as sorted adjacency lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Builds a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
        }
    }

    /// Wraps pre-computed adjacency lists (each list must be sorted and
    /// symmetric; callers in this workspace guarantee it).
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> Self {
        Self { adj }
    }

    /// Adds the undirected edge `{u, v}` (idempotent; self-loops ignored).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v {
            return;
        }
        if let Err(pos) = self.adj[u].binary_search(&(v as u32)) {
            self.adj[u].insert(pos, v as u32);
        }
        if let Err(pos) = self.adj[v].binary_search(&(u as u32)) {
            self.adj[v].insert(pos, u as u32);
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True iff the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Neighbors of `v` (sorted).
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree ∆ (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|l| l.len()).max().unwrap_or(0)
    }

    /// True iff `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].binary_search(&(v as u32)).is_ok()
    }

    /// BFS hop distances from `src` over the whole graph (`u32::MAX` =
    /// unreachable).
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        self.bfs_restricted(src, None)
    }

    /// BFS restricted to vertices where `mask[v]` is true (if provided);
    /// `src` must be in the mask.
    pub fn bfs_restricted(&self, src: usize, mask: Option<&[bool]>) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.len()];
        if let Some(m) = mask {
            debug_assert!(m[src], "BFS source outside mask");
        }
        dist[src] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(v) = q.pop_front() {
            for &u in &self.adj[v] {
                let u = u as usize;
                if dist[u] == u32::MAX && mask.is_none_or(|m| m[u]) {
                    dist[u] = dist[v] + 1;
                    q.push_back(u);
                }
            }
        }
        dist
    }

    /// True iff the graph is connected (trivially true for ≤ 1 vertices).
    pub fn is_connected(&self) -> bool {
        if self.len() <= 1 {
            return true;
        }
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }

    /// Connected components as vertex lists.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.len()];
        let mut out = Vec::new();
        for s in 0..self.len() {
            if seen[s] {
                continue;
            }
            let d = self.bfs(s);
            let comp: Vec<usize> = (0..self.len())
                .filter(|&v| d[v] != u32::MAX && !seen[v])
                .collect();
            for &v in &comp {
                seen[v] = true;
            }
            out.push(comp);
        }
        out
    }

    /// Exact diameter via all-pairs BFS. `None` if disconnected or empty.
    ///
    /// O(n·m); intended for the network sizes used in experiments.
    pub fn diameter(&self) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let mut diam = 0;
        for v in 0..self.len() {
            let d = self.bfs(v);
            let ecc = *d.iter().max().unwrap(); // lint:allow(P1, reason = "bfs returns one distance per node; nonempty")
            if ecc == u32::MAX {
                return None;
            }
            diam = diam.max(ecc);
        }
        Some(diam)
    }

    /// Fast diameter *lower bound* by double-sweep BFS (exact on trees,
    /// very tight in practice). `None` if disconnected.
    pub fn diameter_estimate(&self) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let d0 = self.bfs(0);
        if d0.contains(&u32::MAX) {
            return None;
        }
        let far = (0..self.len()).max_by_key(|&v| d0[v]).unwrap(); // lint:allow(P1, reason = "guarded: len checked nonzero above")
        let d1 = self.bfs(far);
        Some(*d1.iter().max().unwrap()) // lint:allow(P1, reason = "bfs output nonempty")
    }

    /// True iff `set` (characteristic vector) is independent.
    pub fn is_independent(&self, set: &[bool]) -> bool {
        (0..self.len()).all(|v| !set[v] || self.adj[v].iter().all(|&u| !set[u as usize]))
    }

    /// True iff `set` is a *maximal* independent set of the subgraph induced
    /// by `mask` (all vertices when `mask` is `None`).
    pub fn is_mis(&self, set: &[bool], mask: Option<&[bool]>) -> bool {
        let in_mask = |v: usize| mask.is_none_or(|m| m[v]);
        if !self.is_independent(set) {
            return false;
        }
        if (0..self.len()).any(|v| set[v] && !in_mask(v)) {
            return false;
        }
        // Maximality: every in-mask vertex is in the set or dominated.
        (0..self.len()).all(|v| {
            !in_mask(v)
                || set[v]
                || self.adj[v]
                    .iter()
                    .any(|&u| set[u as usize] && in_mask(u as usize))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_edges(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    fn path(n: usize) -> Graph {
        from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    #[test]
    fn path_metrics() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(g.diameter_estimate(), Some(4));
        assert_eq!(g.bfs(0)[4], 4);
    }

    #[test]
    fn add_edge_is_idempotent_and_ignores_loops() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(1, 0));
    }

    #[test]
    fn disconnected_graph_reports_none_diameter() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.diameter(), None);
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn independence_and_mis_checks() {
        let g = path(4); // 0-1-2-3
        let indep = [true, false, true, false];
        assert!(g.is_independent(&indep));
        assert!(g.is_mis(&indep, None));
        let not_max = [true, false, false, false];
        assert!(g.is_independent(&not_max));
        assert!(!g.is_mis(&not_max, None));
        let not_indep = [true, true, false, false];
        assert!(!g.is_independent(&not_indep));
    }

    #[test]
    fn restricted_bfs_respects_mask() {
        let g = path(5);
        let mask = [true, true, false, true, true];
        let d = g.bfs_restricted(0, Some(&mask));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], u32::MAX);
        assert_eq!(d[3], u32::MAX, "mask breaks the path");
    }

    #[test]
    fn mis_respects_mask() {
        let g = path(3);
        let mask = [true, false, true];
        // With vertex 1 masked out, {0, 2} is a MIS of the induced subgraph.
        assert!(g.is_mis(&[true, false, true], Some(&mask)));
        // {0} alone is not maximal: 2 is in-mask and undominated.
        assert!(!g.is_mis(&[true, false, false], Some(&mask)));
    }
}
