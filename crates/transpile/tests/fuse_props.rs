//! Property tests of the fusion pass: fused execution must be
//! **byte-identical** to op-by-op density-matrix execution for arbitrary
//! gate/noise streams — probabilities, per-qubit marginals, and the full
//! state, across random circuits, angles, noise strengths, and supports.

use proptest::prelude::*;
use quasim::config::KernelMode;
use quasim::density::{DensityMatrix, SimWorkspace};
use quasim::gate::{BoundGate, GateKind};
use transpile::fuse::{fuse_ops, SimOp};

const N_QUBITS: usize = 4;

#[derive(Debug, Clone)]
enum OpSpec {
    Gate1(u8, usize, f64),
    Gate2(u8, usize, usize, f64),
    Noise1(usize, f64),
    Noise2(usize, usize, f64),
}

fn arb_op(n: usize) -> impl Strategy<Value = OpSpec> {
    (
        0usize..4,
        0u8..8,
        0usize..n,
        0usize..n,
        -7.0f64..7.0,
        0.0f64..0.4,
    )
        .prop_filter_map(
            "distinct qubits for two-qubit ops",
            move |(class, kind, a, b, theta, lambda)| match class {
                0 => Some(OpSpec::Gate1(kind, a, theta)),
                1 if a != b => Some(OpSpec::Gate2(kind, a, b, theta)),
                2 => Some(OpSpec::Noise1(a, lambda)),
                3 if a != b => Some(OpSpec::Noise2(a, b, lambda)),
                _ => None,
            },
        )
}

fn build_ops(specs: &[OpSpec]) -> Vec<SimOp> {
    let g1 = [
        GateKind::H,
        GateKind::X,
        GateKind::Ry,
        GateKind::Rx,
        GateKind::Rz,
        GateKind::S,
        GateKind::Sx,
        GateKind::Phase,
    ];
    let g2 = [
        GateKind::Cx,
        GateKind::Cz,
        GateKind::Cry,
        GateKind::Crx,
        GateKind::Crz,
        GateKind::Swap,
        GateKind::Cx,
        GateKind::Cry,
    ];
    specs
        .iter()
        .map(|s| match *s {
            OpSpec::Gate1(k, q, theta) => SimOp::Gate(BoundGate::one(g1[k as usize], q, theta)),
            OpSpec::Gate2(k, a, b, theta) => {
                SimOp::Gate(BoundGate::two(g2[k as usize], a, b, theta))
            }
            OpSpec::Noise1(q, lambda) => SimOp::Depolarize1 { q, lambda },
            OpSpec::Noise2(a, b, lambda) => SimOp::Depolarize2 { a, b, lambda },
        })
        .collect()
}

/// Op-by-op reference through the public DensityMatrix API.
fn run_unfused(n_qubits: usize, ops: &[SimOp]) -> DensityMatrix {
    let mut rho = DensityMatrix::zero_state(n_qubits);
    for op in ops {
        match op {
            SimOp::Gate(g) => rho.apply_gate(g),
            SimOp::Depolarize1 { q, lambda } => rho.apply_depolarizing_1q(*lambda, *q),
            SimOp::Depolarize2 { a, b, lambda } => rho.apply_depolarizing_2q(*lambda, *a, *b),
        }
    }
    rho
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fused execution is byte-identical to unfused execution: every entry
    /// of ρ, every probability, every ⟨Z⟩ marginal.
    #[test]
    fn fused_execution_is_byte_identical(
        specs in proptest::collection::vec(arb_op(N_QUBITS), 1..40),
    ) {
        let ops = build_ops(&specs);
        let reference = run_unfused(N_QUBITS, &ops);

        let program = fuse_ops(N_QUBITS, &ops);
        let mut ws = SimWorkspace::new();
        ws.reset_zero(N_QUBITS);
        ws.run(&program);

        // Full state, bitwise.
        let fused = ws.to_density_matrix();
        for i in 0..reference.dim() {
            for j in 0..reference.dim() {
                let (x, y) = (fused.get(i, j), reference.get(i, j));
                prop_assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "ρ[{},{}] differs: {} vs {}", i, j, x, y
                );
            }
        }
        // Probabilities, bitwise.
        for (p, q) in ws.probabilities().iter().zip(reference.probabilities().iter()) {
            prop_assert!(p.to_bits() == q.to_bits(), "probability differs: {} vs {}", p, q);
        }
        // Marginals, bitwise.
        for q in 0..N_QUBITS {
            prop_assert!(
                ws.prob_one(q).to_bits() == reference.prob_one(q).to_bits(),
                "prob_one({}) differs", q
            );
        }
    }

    /// The workspace can be reused across runs without residue: a second
    /// run of the same program on a dirty workspace reproduces the first
    /// bit-for-bit, as does a fresh workspace.
    #[test]
    fn workspace_reuse_leaves_no_residue(
        specs_a in proptest::collection::vec(arb_op(N_QUBITS), 1..20),
        specs_b in proptest::collection::vec(arb_op(N_QUBITS), 1..20),
    ) {
        let prog_a = fuse_ops(N_QUBITS, &build_ops(&specs_a));
        let prog_b = fuse_ops(N_QUBITS, &build_ops(&specs_b));

        let mut fresh = SimWorkspace::new();
        fresh.reset_zero(N_QUBITS);
        fresh.run(&prog_a);
        let expected = fresh.probabilities();

        let mut reused = SimWorkspace::new();
        reused.reset_zero(N_QUBITS);
        reused.run(&prog_b); // dirty the buffer with an unrelated program
        reused.reset_zero(N_QUBITS);
        reused.run(&prog_a);
        for (p, q) in reused.probabilities().iter().zip(expected.iter()) {
            prop_assert!(p.to_bits() == q.to_bits(), "residue after reuse: {} vs {}", p, q);
        }
    }

    /// Fusion preserves physical invariants on top of byte-identity:
    /// trace 1 and Hermitian symmetry (off-block-diagonal entries are
    /// exact mirrors by construction; within diagonal blocks symmetry
    /// holds to rounding).
    #[test]
    fn fused_state_is_physical(
        specs in proptest::collection::vec(arb_op(N_QUBITS), 1..40),
    ) {
        let ops = build_ops(&specs);
        let program = fuse_ops(N_QUBITS, &ops);
        let mut ws = SimWorkspace::new();
        ws.reset_zero(N_QUBITS);
        ws.run(&program);
        let rho = ws.to_density_matrix();
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9, "trace {}", rho.trace());
        prop_assert!(rho.hermiticity_error() < 1e-12, "hermiticity {}", rho.hermiticity_error());
    }
}

/// Every atom class the lane runner distinguishes, on fixed supports, so
/// each random lane program exercises all of them: the three 2×2
/// `MatClass`es (real `H`/`Ry`, diagonal `Rz`, general `Rx`), both CX
/// controls, 4×4 atoms in segment order and `swapped`, and both channels
/// (one of them swapped).
fn coverage_prefix() -> Vec<OpSpec> {
    vec![
        OpSpec::Gate1(0, 0, 0.0),    // H: Real
        OpSpec::Gate1(2, 0, 0.3),    // Ry: Real
        OpSpec::Gate1(4, 0, 0.7),    // Rz: Diagonal
        OpSpec::Gate1(3, 0, 1.1),    // Rx: General
        OpSpec::Noise1(0, 0.05),     // Depol1
        OpSpec::Gate2(0, 1, 2, 0.0), // CX, control on wire A
        OpSpec::Gate2(0, 2, 1, 0.0), // CX, control on wire B
        OpSpec::Gate2(2, 1, 2, 0.4), // Cry in segment order
        OpSpec::Gate2(4, 2, 1, 0.9), // Crz swapped
        OpSpec::Noise2(2, 1, 0.03),  // Depol2 swapped
    ]
}

/// Lane `k`'s copy of `specs`: every angle and λ redrawn from `seed`,
/// everything else (kinds, qubits, order) kept — so the fused programs
/// share one shape. λ stays in `(0, 0.4)`, since a zero λ is dropped and
/// would change the shape.
fn lane_variant(specs: &[OpSpec], seed: u64) -> Vec<OpSpec> {
    let mut state = seed;
    let mut draw = || {
        // SplitMix64, mapped onto [0, 1).
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    specs
        .iter()
        .map(|s| match *s {
            OpSpec::Gate1(k, q, _) => OpSpec::Gate1(k, q, 14.0 * draw() - 7.0),
            OpSpec::Gate2(k, a, b, _) => OpSpec::Gate2(k, a, b, 14.0 * draw() - 7.0),
            OpSpec::Noise1(q, _) => OpSpec::Noise1(q, 0.001 + 0.39 * draw()),
            OpSpec::Noise2(a, b, _) => OpSpec::Noise2(a, b, 0.001 + 0.39 * draw()),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same-shape programs with per-lane angles and λ, run as lanes at
    /// widths 1, 2 and 4 under both kernel compilations: every lane's
    /// full state equals the op-by-op `DensityMatrix` oracle of its own
    /// program, bit for bit.
    #[test]
    fn lanes_match_op_by_op_oracle(
        tail in proptest::collection::vec(arb_op(N_QUBITS), 0..30),
        seed in any::<u64>(),
    ) {
        let mut specs = coverage_prefix();
        specs.extend(tail);
        let lanes: Vec<Vec<SimOp>> = (0..4u64)
            .map(|k| build_ops(&lane_variant(&specs, seed ^ k.wrapping_mul(0x51_7CC1))))
            .collect();
        let programs: Vec<_> = lanes.iter().map(|ops| fuse_ops(N_QUBITS, ops)).collect();
        // A redrawn angle can only change a matrix's class on a measure-zero
        // set (e.g. an exactly real Rx); skip such draws.
        prop_assume!(programs.iter().all(|p| p.same_shape(&programs[0])));
        let oracles: Vec<DensityMatrix> =
            lanes.iter().map(|ops| run_unfused(N_QUBITS, ops)).collect();

        let mut modes = vec![KernelMode::Scalar];
        if KernelMode::avx2_supported() {
            modes.push(KernelMode::Avx2);
        }
        for mode in modes {
            let mut ws = SimWorkspace::new();
            ws.set_kernel_mode(mode);
            for width in [1usize, 2, 4] {
                let refs: Vec<_> = programs[..width].iter().collect();
                ws.run_lanes(&refs);
                for (lane, oracle) in oracles[..width].iter().enumerate() {
                    let got = ws.lane_density_matrix(lane);
                    for i in 0..oracle.dim() {
                        for j in 0..oracle.dim() {
                            let (x, y) = (got.get(i, j), oracle.get(i, j));
                            prop_assert!(
                                x.re.to_bits() == y.re.to_bits()
                                    && x.im.to_bits() == y.im.to_bits(),
                                "{:?} width {} lane {} ρ[{},{}]: {} vs {}",
                                mode, width, lane, i, j, x, y
                            );
                        }
                    }
                    for q in 0..N_QUBITS {
                        prop_assert_eq!(
                            ws.prob_one_lane(lane, q).to_bits(),
                            oracle.prob_one(q).to_bits()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn coverage_prefix_hits_every_atom_class() {
    use quasim::fused::{FusedAtom, MatClass, Wire};
    let program = fuse_ops(N_QUBITS, &build_ops(&coverage_prefix()));
    let atoms = program.atoms();
    for class in [MatClass::Real, MatClass::Diagonal, MatClass::General] {
        assert!(atoms
            .iter()
            .any(|a| matches!(a, FusedAtom::Unitary1 { class: c, .. } if *c == class)));
    }
    for control in [Wire::A, Wire::B] {
        assert!(atoms.contains(&FusedAtom::Cx { control }));
    }
    for swapped in [false, true] {
        assert!(atoms
            .iter()
            .any(|a| matches!(a, FusedAtom::Unitary2 { swapped: s, .. } if *s == swapped)));
    }
    assert!(atoms
        .iter()
        .any(|a| matches!(a, FusedAtom::Depol2 { swapped: true, .. })));
    assert!(atoms.iter().any(|a| matches!(a, FusedAtom::Depol1 { .. })));
}

/// A parameterised gate of a random template circuit; gate `i` reads
/// parameter `i`.
#[derive(Debug, Clone, Copy)]
enum TemplateGate {
    Rot(u8, usize),
    Ctrl(u8, usize, usize),
    H(usize),
    Cx(usize, usize),
}

impl TemplateGate {
    /// The circuit kind whose identity angles drop the gate, if it reads
    /// its parameter.
    fn param_kind(self) -> Option<GateKind> {
        match self {
            TemplateGate::Rot(k, _) => Some([GateKind::Ry, GateKind::Rz, GateKind::Rx][k as usize]),
            TemplateGate::Ctrl(k, _, _) => {
                Some([GateKind::Cry, GateKind::Crz, GateKind::Crx][k as usize])
            }
            TemplateGate::H(_) | TemplateGate::Cx(..) => None,
        }
    }
}

fn arb_template_gate(n: usize) -> impl Strategy<Value = TemplateGate> {
    (0usize..4, 0u8..3, 0usize..n, 0usize..n).prop_filter_map(
        "distinct qubits for two-qubit gates",
        |(class, kind, a, b)| match class {
            0 => Some(TemplateGate::Rot(kind, a)),
            1 if a != b => Some(TemplateGate::Ctrl(kind, a, b)),
            2 => Some(TemplateGate::H(a)),
            3 if a != b => Some(TemplateGate::Cx(a, b)),
            _ => None,
        },
    )
}

fn template_circuit(gates: &[TemplateGate]) -> transpile::circuit::Circuit {
    use transpile::circuit::{Circuit, Param};
    let mut c = Circuit::new(N_QUBITS);
    for (i, gate) in gates.iter().enumerate() {
        let p = Param::Idx(i);
        match *gate {
            TemplateGate::Rot(0, q) => c.ry(q, p),
            TemplateGate::Rot(1, q) => c.rz(q, p),
            TemplateGate::Rot(_, q) => c.rx(q, p),
            TemplateGate::Ctrl(0, a, b) => c.cry(a, b, p),
            TemplateGate::Ctrl(1, a, b) => c.crz(a, b, p),
            TemplateGate::Ctrl(_, a, b) => c.crx(a, b, p),
            TemplateGate::H(q) => c.h(q),
            TemplateGate::Cx(a, b) => c.cx(a, b),
        };
    }
    c
}

/// Angles on every class the pipeline treats apart: signed zeros (the
/// gate drops), quarter and half turns (one pulse), 2π/4π wraps, and
/// generic values (two pulses).
fn arb_template_angle() -> impl Strategy<Value = f64> {
    use std::f64::consts::{FRAC_PI_2, PI, TAU};
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(FRAC_PI_2),
        Just(-FRAC_PI_2),
        Just(PI),
        Just(-PI),
        Just(3.0 * FRAC_PI_2),
        Just(TAU),
        Just(2.0 * TAU),
        -7.0f64..7.0,
    ]
}

/// One day's error rates: per qubit, then per coupling edge. Zeros drop
/// channels; 0.7 makes a two-pulse channel clamp to λ = 1.
fn arb_rates(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![Just(0.0), Just(0.7), 1e-4f64..0.05, 1e-4f64..0.05],
        n,
    )
}

/// Every field of two programs, bit for bit (`-0.0` and `0.0` differ).
fn programs_bitwise_eq(a: &quasim::fused::FusedProgram, b: &quasim::fused::FusedProgram) -> bool {
    use quasim::fused::FusedAtom;
    let word = |atom: &FusedAtom| match *atom {
        FusedAtom::Unitary1 { m2, class } => (1, u64::from(m2), class as u64),
        FusedAtom::Depol1 { lambda } => (2, lambda.to_bits(), 0),
        FusedAtom::Cx { control } => (3, control as u64, 0),
        FusedAtom::Unitary2 { m4, swapped } => (4, u64::from(m4), u64::from(swapped)),
        FusedAtom::Depol2 { lambda, swapped } => (5, lambda.to_bits(), u64::from(swapped)),
    };
    let bits = |m: &[quasim::math::Complex64]| -> Vec<(u64, u64)> {
        m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    a.n_qubits() == b.n_qubits()
        && a.segments() == b.segments()
        && a.atoms().iter().map(word).eq(b.atoms().iter().map(word))
        && a.n_m2s() == b.n_m2s()
        && a.n_m4s() == b.n_m4s()
        && (0..a.n_m2s() as u32).all(|i| bits(a.m2(i)) == bits(b.m2(i)))
        && (0..a.n_m4s() as u32).all(|i| bits(a.m4(i)) == bits(b.m4(i)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A density template patched at a second vector of its structure,
    /// under a second day's error rates, writes exactly the program
    /// `fuse_native_compacted` builds from scratch, field by field — and
    /// reports a mismatch exactly when that program has another shape.
    #[test]
    fn patched_template_equals_from_scratch_fuse(
        gates in proptest::collection::vec(arb_template_gate(N_QUBITS), 1..16),
        first in proptest::collection::vec(arb_template_angle(), 16),
        second in proptest::collection::vec(arb_template_angle(), 16),
        signs in proptest::collection::vec(any::<bool>(), 16),
        days in proptest::collection::vec(arb_rates(9), 2),
        lane in 0usize..4,
    ) {
        use calibration::topology::Topology;
        use quasim::fused::LaneTables;
        use transpile::circuit::angle_is_identity;
        use transpile::expand::{NativeOp, ANGLE_TOL};
        use transpile::fuse::{fuse_native_compacted, DensityTemplate, QubitCompaction};
        use transpile::template::{structure_key, CircuitTemplate};

        let circuit = template_circuit(&gates);
        let topo = Topology::ibm_belem();
        // The second vector keeps the first one's dropped gates dropped
        // (a signed zero) and its kept gates kept, so both share a key.
        let mut second = second;
        for (i, gate) in gates.iter().enumerate() {
            let Some(kind) = gate.param_kind() else { continue };
            let dropped = angle_is_identity(kind, first[i], ANGLE_TOL);
            if dropped {
                second[i] = if signs[i] { 0.0 } else { -0.0 };
            } else if angle_is_identity(kind, second[i], ANGLE_TOL) {
                second[i] = first[i];
            }
        }
        let template = CircuitTemplate::compile(&circuit, &topo, &first, ANGLE_TOL);
        prop_assert_eq!(structure_key(&circuit, &second, ANGLE_TOL), template.key().clone());

        let native = template.bind(&first);
        let keep: Vec<usize> = native.final_layout().to_vec();
        let compaction = QubitCompaction::for_native(&native, &keep);
        let noise = |rates: &[f64]| {
            let topo = &topo;
            let rates = rates.to_vec();
            move |op: &NativeOp| {
                let q = op.gate.qubits();
                if op.is_entangler() {
                    Some(rates[5 + topo.edge_index(q[0], q[1]).expect("routed onto an edge")])
                } else if op.pulses > 0 {
                    Some(f64::from(op.pulses) * rates[q[0]])
                } else {
                    None
                }
            }
        };
        let density = DensityTemplate::build(
            template.physical(),
            &first,
            &compaction,
            noise(&days[0]),
        );
        let shape = density.program();
        prop_assert!(programs_bitwise_eq(
            shape,
            &fuse_native_compacted(&native, &compaction, noise(&days[0])),
        ));

        let scratch = fuse_native_compacted(&template.bind(&second), &compaction, noise(&days[1]));
        let mut tables = LaneTables::new();
        tables.reset(shape, 4);
        let patched = density.patch(&second, noise(&days[1]), &mut tables, lane);
        prop_assert_eq!(patched, scratch.same_shape(shape));
        if patched {
            prop_assert!(
                programs_bitwise_eq(&tables.lane_program(shape, lane), &scratch),
                "patched lane {} differs from the from-scratch fuse", lane
            );
        }
    }
}
