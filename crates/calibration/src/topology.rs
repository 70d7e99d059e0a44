//! Physical device topologies (coupling maps).
//!
//! A [`Topology`] lists the qubit pairs on which a native two-qubit gate
//! (CNOT) can be executed. The paper evaluates on `ibm_belem` (5 qubits,
//! T-shaped) and `ibm-jakarta` (7 qubits, H-shaped); both are provided as
//! constructors, along with generic line/ring/fully-connected generators
//! used by tests and ablations.

use std::collections::VecDeque;

/// An undirected coupling map over `n_qubits` physical qubits.
///
/// Edges are stored with the smaller endpoint first and deduplicated; edge
/// order is stable and used as the canonical index for per-edge calibration
/// data.
///
/// # Examples
///
/// ```
/// use calibration::topology::Topology;
///
/// let belem = Topology::ibm_belem();
/// assert_eq!(belem.n_qubits(), 5);
/// assert!(belem.is_edge(1, 3));
/// assert_eq!(belem.distance(0, 4), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    n_qubits: usize,
    edges: Vec<(usize, usize)>,
    /// All-pairs shortest-path distances (BFS hops), row-major.
    dist: Vec<usize>,
}

impl Topology {
    /// Builds a topology from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0`, any edge endpoint is out of range, an edge
    /// is a self-loop, or the coupling graph is disconnected.
    pub fn new(name: impl Into<String>, n_qubits: usize, edges: &[(usize, usize)]) -> Self {
        assert!(n_qubits > 0, "topology needs at least one qubit");
        let mut canon: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in edges {
            assert!(a < n_qubits && b < n_qubits, "edge ({a},{b}) out of range");
            assert_ne!(a, b, "self-loop edge ({a},{b})");
            let e = (a.min(b), a.max(b));
            if !canon.contains(&e) {
                canon.push(e);
            }
        }
        let dist = all_pairs_bfs(n_qubits, &canon);
        if n_qubits > 1 {
            assert!(
                dist.iter().all(|&d| d != usize::MAX),
                "coupling graph must be connected"
            );
        }
        Topology {
            name: name.into(),
            n_qubits,
            edges: canon,
            dist,
        }
    }

    /// The 5-qubit `ibm_belem` T-shaped map: `0−1−2`, `1−3−4`.
    pub fn ibm_belem() -> Self {
        Topology::new("ibm_belem", 5, &[(0, 1), (1, 2), (1, 3), (3, 4)])
    }

    /// The 7-qubit `ibm_jakarta` H-shaped map:
    /// `0−1−2`, `1−3`, `3−5`, `4−5−6`.
    pub fn ibm_jakarta() -> Self {
        Topology::new(
            "ibm_jakarta",
            7,
            &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)],
        )
    }

    /// The 16-qubit `ibm_guadalupe` heavy-hexagon map (Falcon r4P).
    ///
    /// Well beyond the dense density-matrix engine's reach
    /// (`quasim::density::MAX_DENSITY_QUBITS = 12`) — circuits routed here
    /// are the flagship workload of the Monte-Carlo trajectory backend.
    pub fn ibm_guadalupe() -> Self {
        Topology::new(
            "ibm_guadalupe",
            16,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
            ],
        )
    }

    /// A linear chain `0−1−…−(n−1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn line(n: usize) -> Self {
        assert!(n > 0, "line topology needs at least one qubit");
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Topology::new(format!("line{n}"), n, &edges)
    }

    /// A ring `0−1−…−(n−1)−0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "ring needs at least 3 qubits");
        let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Topology::new(format!("ring{n}"), n, &edges)
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Canonical edge list (smaller endpoint first).
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of coupling edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether `(a, b)` is directly coupled (order-insensitive).
    pub fn is_edge(&self, a: usize, b: usize) -> bool {
        let e = (a.min(b), a.max(b));
        self.edges.contains(&e)
    }

    /// Canonical index of edge `(a, b)`, if coupled.
    pub fn edge_index(&self, a: usize, b: usize) -> Option<usize> {
        let e = (a.min(b), a.max(b));
        self.edges.iter().position(|&x| x == e)
    }

    /// Shortest-path hop distance between two qubits.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        self.dist[a * self.n_qubits + b]
    }

    /// Direct neighbours of qubit `q`.
    pub fn neighbors(&self, q: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == q {
                    Some(b)
                } else if b == q {
                    Some(a)
                } else {
                    None
                }
            })
            .collect()
    }
}

fn all_pairs_bfs(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    let mut dist = vec![usize::MAX; n * n];
    for s in 0..n {
        dist[s * n + s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            let du = dist[s * n + u];
            for &v in &adj[u] {
                if dist[s * n + v] == usize::MAX {
                    dist[s * n + v] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn belem_shape() {
        let t = Topology::ibm_belem();
        assert_eq!(t.n_edges(), 4);
        assert!(t.is_edge(0, 1));
        assert!(t.is_edge(1, 0));
        assert!(!t.is_edge(0, 2));
        assert_eq!(t.distance(2, 4), 3);
        assert_eq!(t.neighbors(1), vec![0, 2, 3]);
    }

    #[test]
    fn jakarta_shape() {
        let t = Topology::ibm_jakarta();
        assert_eq!(t.n_qubits(), 7);
        assert_eq!(t.n_edges(), 6);
        assert_eq!(t.distance(0, 6), 4);
        assert_eq!(t.distance(2, 4), 4);
    }

    #[test]
    fn guadalupe_shape() {
        let t = Topology::ibm_guadalupe();
        assert_eq!(t.n_qubits(), 16);
        assert_eq!(t.n_edges(), 16);
        // Heavy-hex: degree ≤ 3 everywhere, and the map is connected with
        // the expected diameter corners.
        for q in 0..16 {
            assert!(
                (1..=3).contains(&t.neighbors(q).len()),
                "degree out of range at qubit {q}"
            );
        }
        assert_eq!(t.distance(0, 15), 6);
        assert_eq!(t.distance(6, 9), 8);
    }

    #[test]
    fn edge_index_is_order_insensitive() {
        let t = Topology::ibm_belem();
        assert_eq!(t.edge_index(3, 1), t.edge_index(1, 3));
        assert_eq!(t.edge_index(0, 4), None);
    }

    #[test]
    fn line_and_ring_distances() {
        let l = Topology::line(5);
        assert_eq!(l.distance(0, 4), 4);
        let r = Topology::ring(6);
        assert_eq!(r.distance(0, 3), 3);
        assert_eq!(r.distance(0, 5), 1);
    }

    #[test]
    fn duplicate_edges_are_canonicalised() {
        let t = Topology::new("t", 3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.n_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one qubit")]
    fn empty_line_rejected() {
        let _ = Topology::line(0);
    }

    #[test]
    fn single_qubit_line_is_edgeless() {
        let l = Topology::line(1);
        assert_eq!(l.n_qubits(), 1);
        assert_eq!(l.n_edges(), 0);
        assert_eq!(l.distance(0, 0), 0);
        assert!(l.neighbors(0).is_empty());
    }

    #[test]
    fn smallest_ring_wraps_around() {
        let r = Topology::ring(3);
        assert_eq!(r.n_edges(), 3);
        assert!(r.is_edge(2, 0));
        assert_eq!(r.distance(0, 2), 1);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        let _ = Topology::new("bad", 4, &[(0, 1), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Topology::new("bad", 2, &[(1, 1)]);
    }
}
