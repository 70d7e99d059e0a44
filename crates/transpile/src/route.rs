//! Logical→physical routing on a restricted topology.
//!
//! The paper's noise-aware compression operates on "the quantum circuit
//! after routing on restricted topology" so that every gate has a fixed
//! physical-qubit association `A(g_i)` (Sec. III-B). [`route`] performs a
//! deterministic greedy SWAP-insertion pass: two-qubit gates on uncoupled
//! pairs get SWAPs along a BFS shortest path until the operands are
//! adjacent.

use crate::circuit::{Circuit, Op};
use calibration::topology::Topology;
use quasim::gate::GateKind;

/// A routed circuit whose ops address *physical* qubits and whose two-qubit
/// gates all sit on coupling-map edges.
///
/// # Examples
///
/// ```
/// use transpile::circuit::{Circuit, Param};
/// use transpile::route::route;
/// use calibration::topology::Topology;
///
/// let mut c = Circuit::new(4);
/// c.cry(3, 0, Param::Idx(0)); // not coupled on belem → SWAP inserted
/// let phys = route(&c, &Topology::ibm_belem(), None);
/// assert!(phys.swap_count() >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalCircuit {
    n_physical: usize,
    ops: Vec<Op>,
    n_params: usize,
    initial_layout: Vec<usize>,
    final_layout: Vec<usize>,
}

impl PhysicalCircuit {
    /// Number of physical qubits on the device.
    pub fn n_physical(&self) -> usize {
        self.n_physical
    }

    /// Routed ops (physical qubit operands), including inserted SWAPs.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of trainable parameters (same as the logical circuit).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// Initial layout: `initial_layout[logical] = physical`.
    pub fn initial_layout(&self) -> &[usize] {
        &self.initial_layout
    }

    /// Final layout after all SWAPs: `final_layout[logical] = physical`.
    pub fn final_layout(&self) -> &[usize] {
        &self.final_layout
    }

    /// Physical qubit to measure to read out `logical` at circuit end.
    ///
    /// # Panics
    ///
    /// Panics if `logical` exceeds the logical register size.
    pub fn measured_physical(&self, logical: usize) -> usize {
        assert!(
            logical < self.final_layout.len(),
            "logical qubit out of range"
        );
        self.final_layout[logical]
    }

    /// Number of inserted SWAP gates.
    pub fn swap_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| op.kind == GateKind::Swap)
            .count()
    }

    /// Physical-qubit association of every op referencing trainable
    /// parameter `i` — the paper's `A(g_i)` for the mask's priority table.
    pub fn assoc_for_param(&self, i: usize) -> Vec<Vec<usize>> {
        self.ops
            .iter()
            .filter(|op| op.param.and_then(|p| p.idx()) == Some(i))
            .map(|op| op.qubits.clone())
            .collect()
    }

    /// Checks that every two-qubit op sits on a coupling edge of `topology`.
    pub fn respects_topology(&self, topology: &Topology) -> bool {
        self.ops.iter().all(|op| match op.qubits.as_slice() {
            [_] => true,
            [a, b] => topology.is_edge(*a, *b),
            _ => false,
        })
    }
}

/// Routes a logical circuit onto `topology`.
///
/// `initial_layout`, when provided, maps logical qubit `i` to physical qubit
/// `initial_layout[i]`; the default is the identity embedding. The router is
/// deterministic: given the same inputs it always emits the same SWAPs, which
/// keeps the parameter→physical-qubit association `A(g_i)` stable across a
/// training run (a prerequisite for noise-aware compression).
///
/// # Panics
///
/// Panics if the device has fewer qubits than the circuit, the layout is not
/// injective / sized to the logical register, or a gate references a qubit
/// outside the layout.
pub fn route(
    circuit: &Circuit,
    topology: &Topology,
    initial_layout: Option<&[usize]>,
) -> PhysicalCircuit {
    let nl = circuit.n_qubits();
    let np = topology.n_qubits();
    assert!(np >= nl, "device has {np} qubits, circuit needs {nl}");

    let layout0: Vec<usize> = match initial_layout {
        Some(l) => {
            assert_eq!(l.len(), nl, "layout must cover every logical qubit");
            let mut seen = vec![false; np];
            for &p in l {
                assert!(p < np, "layout target {p} out of range");
                assert!(!seen[p], "layout must be injective");
                seen[p] = true;
            }
            l.to_vec()
        }
        None => (0..nl).collect(),
    };

    // phys_at[p] = logical qubit currently at physical p (usize::MAX = none).
    let mut phys_at = vec![usize::MAX; np];
    let mut layout = layout0.clone();
    for (l, &p) in layout.iter().enumerate() {
        phys_at[p] = l;
    }

    let mut ops: Vec<Op> = Vec::with_capacity(circuit.len());
    for op in circuit.ops() {
        match op.qubits.as_slice() {
            [q] => {
                ops.push(Op {
                    kind: op.kind,
                    qubits: vec![layout[*q]],
                    param: op.param,
                });
            }
            [a, b] => {
                let mut pa = layout[*a];
                let pb = layout[*b];
                while !topology.is_edge(pa, pb) {
                    // Move `a` one hop along a shortest path toward `b`.
                    let next = topology
                        .neighbors(pa)
                        .into_iter()
                        .min_by_key(|&n| (topology.distance(n, pb), n))
                        .expect("connected topology always has a neighbor");
                    ops.push(Op {
                        kind: GateKind::Swap,
                        qubits: vec![pa, next],
                        param: None,
                    });
                    // Update the layout: logical occupants of pa/next swap.
                    let la = phys_at[pa];
                    let ln = phys_at[next];
                    phys_at[pa] = ln;
                    phys_at[next] = la;
                    if la != usize::MAX {
                        layout[la] = next;
                    }
                    if ln != usize::MAX {
                        layout[ln] = pa;
                    }
                    pa = next;
                }
                ops.push(Op {
                    kind: op.kind,
                    qubits: vec![pa, pb],
                    param: op.param,
                });
            }
            _ => unreachable!("ops always have 1 or 2 qubits"),
        }
    }

    PhysicalCircuit {
        n_physical: np,
        ops,
        n_params: circuit.n_params(),
        initial_layout: layout0,
        final_layout: layout,
    }
}

/// Convenience: routes with the identity layout and asserts validity.
///
/// # Panics
///
/// As [`route`]; additionally asserts the result respects the topology.
pub fn route_identity(circuit: &Circuit, topology: &Topology) -> PhysicalCircuit {
    let phys = route(circuit, topology, None);
    debug_assert!(phys.respects_topology(topology));
    phys
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Param;

    #[test]
    fn adjacent_gates_route_without_swaps() {
        let mut c = Circuit::new(3);
        c.cx(0, 1).cx(1, 2);
        let phys = route_identity(&c, &Topology::ibm_belem());
        assert_eq!(phys.swap_count(), 0);
        assert_eq!(phys.ops().len(), 2);
        assert_eq!(phys.final_layout(), &[0, 1, 2]);
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let mut c = Circuit::new(5);
        c.cx(0, 4); // belem distance 3 → 2 swaps
        let phys = route_identity(&c, &Topology::ibm_belem());
        assert_eq!(phys.swap_count(), 2);
        assert!(phys.respects_topology(&Topology::ibm_belem()));
    }

    #[test]
    fn layout_tracking_after_swap() {
        let mut c = Circuit::new(4);
        c.cry(3, 0, Param::Idx(0));
        let topo = Topology::ibm_belem();
        let phys = route_identity(&c, &topo);
        assert!(phys.respects_topology(&topo));
        // Logical 3 moved; measuring it must follow the final layout.
        let p3 = phys.measured_physical(3);
        assert_ne!(p3, 3);
    }

    #[test]
    fn single_qubit_ops_follow_layout() {
        let mut c = Circuit::new(4);
        c.cry(3, 0, Param::Idx(0)); // moves logical 3
        c.ry(3, Param::Idx(1)); // must land on 3's new physical home
        let phys = route_identity(&c, &Topology::ibm_belem());
        let last = phys.ops().last().unwrap();
        assert_eq!(last.qubits[0], phys.measured_physical(3));
    }

    #[test]
    fn assoc_for_param_reports_physical_qubits() {
        let topo = Topology::ibm_belem();
        let mut c = Circuit::new(3);
        c.cry(0, 1, Param::Idx(0)).ry(2, Param::Idx(1));
        let phys = route_identity(&c, &topo);
        assert_eq!(phys.assoc_for_param(0), vec![vec![0, 1]]);
        assert_eq!(phys.assoc_for_param(1), vec![vec![2]]);
    }

    #[test]
    fn custom_layout_respected() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let phys = route(&c, &Topology::ibm_belem(), Some(&[3, 4]));
        assert_eq!(phys.ops()[0].qubits, vec![3, 4]);
    }

    #[test]
    fn routing_is_deterministic() {
        let mut c = Circuit::new(5);
        c.cx(0, 4).cx(2, 4).cry(4, 0, Param::Idx(0));
        let topo = Topology::ibm_belem();
        let a = route_identity(&c, &topo);
        let b = route_identity(&c, &topo);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn duplicate_layout_rejected() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let _ = route(&c, &Topology::ibm_belem(), Some(&[1, 1]));
    }

    #[test]
    #[should_panic(expected = "device has")]
    fn too_small_device_rejected() {
        let c = Circuit::new(6);
        let _ = route(&c, &Topology::ibm_belem(), None);
    }
}
