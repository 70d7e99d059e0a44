//! Property tests of the batched trajectory panel: for arbitrary fused
//! programs, seeds, budgets, and panel widths, [`TrajectoryPanel`]
//! execution must be **bit-identical** to the per-trajectory engine —
//! estimate means and standard errors, and every individual column's
//! amplitudes.

use proptest::prelude::*;
use quasim::config::KernelMode;
use quasim::fused::{FusedProgram, ProgramBuilder};
use quasim::gate::GateKind;
use quasim::trajectory::{
    estimate_prob_one, estimate_prob_one_panel, supergroup_plan, TrajectoryPanel,
    TrajectoryWorkspace,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_QUBITS: usize = 4;

#[derive(Debug, Clone)]
enum AtomSpec {
    Gate1(u8, usize, f64),
    Gate2(u8, usize, usize, f64),
    Cx(usize, usize),
    Noise1(usize, f64),
    Noise2(usize, usize, f64),
}

fn arb_atom(n: usize) -> impl Strategy<Value = AtomSpec> {
    (
        0usize..5,
        0u8..6,
        0usize..n,
        0usize..n,
        -7.0f64..7.0,
        0.0f64..0.6,
    )
        .prop_filter_map(
            "distinct qubits for two-qubit atoms",
            move |(class, kind, a, b, theta, lambda)| match class {
                0 => Some(AtomSpec::Gate1(kind, a, theta)),
                1 if a != b => Some(AtomSpec::Gate2(kind, a, b, theta)),
                2 if a != b => Some(AtomSpec::Cx(a, b)),
                3 => Some(AtomSpec::Noise1(a, lambda)),
                4 if a != b => Some(AtomSpec::Noise2(a, b, lambda)),
                _ => None,
            },
        )
}

fn build_program(specs: &[AtomSpec]) -> FusedProgram {
    let g1 = [
        GateKind::H,
        GateKind::X,
        GateKind::Ry,
        GateKind::Rx,
        GateKind::Rz,
        GateKind::Phase,
    ];
    let g2 = [
        GateKind::Cry,
        GateKind::Crx,
        GateKind::Crz,
        GateKind::Cz,
        GateKind::Swap,
        GateKind::Cry,
    ];
    let mut b = ProgramBuilder::new(N_QUBITS);
    for spec in specs {
        match *spec {
            AtomSpec::Gate1(k, q, theta) => {
                let kind = g1[k as usize % g1.len()];
                b.unitary_1q(q, kind.entries_1q(theta).expect("1q entries"));
            }
            AtomSpec::Gate2(k, x, y, theta) => {
                let kind = g2[k as usize % g2.len()];
                b.unitary_2q(x, y, kind.entries_2q(theta).expect("2q entries"));
            }
            AtomSpec::Cx(c, t) => b.cx(c, t),
            AtomSpec::Noise1(q, lambda) => b.depolarize_1q(q, lambda),
            AtomSpec::Noise2(x, y, lambda) => b.depolarize_2q(lambda, x, y),
        }
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The panel estimate equals the per-trajectory estimate bit for bit
    /// at every width, including widths that split the budget into uneven
    /// chunks and widths larger than the budget.
    #[test]
    fn panel_estimate_bit_identical_at_every_width(
        specs in proptest::collection::vec(arb_atom(N_QUBITS), 1..30),
        seed in any::<u64>(),
        n_traj in 1u32..40,
        width in 1usize..48,
    ) {
        let program = build_program(&specs);
        let qubits: Vec<usize> = (0..N_QUBITS).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, n_traj, seed);
        let mut panel = TrajectoryPanel::new();
        let got = estimate_prob_one_panel(&mut panel, &program, &qubits, n_traj, seed, width);
        prop_assert_eq!(got.n_trajectories, reference.n_trajectories);
        for q in 0..N_QUBITS {
            prop_assert!(
                got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                "width {} qubit {} p_one: {} vs {}",
                width, q, got.p_one[q], reference.p_one[q]
            );
            prop_assert!(
                got.std_err[q].to_bits() == reference.std_err[q].to_bits(),
                "width {} qubit {} std_err: {} vs {}",
                width, q, got.std_err[q], reference.std_err[q]
            );
        }
    }

    /// Every panel column's final amplitudes equal the per-trajectory
    /// engine replaying the same draw sequence — the panel really is B
    /// independent trajectories, not an approximation of them. The drawn
    /// program runs as built and precomposed, as production runs it, so
    /// dense 4×4s (products of several factors) are covered too.
    #[test]
    fn panel_columns_bit_identical_to_sequential_runs(
        specs in proptest::collection::vec(arb_atom(N_QUBITS), 1..25),
        seed in any::<u64>(),
        batch in 1usize..12,
    ) {
        let built = build_program(&specs);
        for program in [built.precompose(), built] {
            let n_stoch = program.n_stochastic_atoms();
            let mut rng = StdRng::seed_from_u64(seed);
            let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();

            let mut panel = TrajectoryPanel::new();
            panel.reset_zero(N_QUBITS, batch);
            panel.run_stochastic(&program, &uniforms);

            let mut replay = StdRng::seed_from_u64(seed);
            let mut ws = TrajectoryWorkspace::new();
            for c in 0..batch {
                ws.reset_zero(N_QUBITS);
                ws.run_stochastic(&program, &mut replay);
                let col = panel.column(c);
                for (i, (a, b)) in col.iter().zip(ws.amplitudes().iter()).enumerate() {
                    prop_assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "column {} amplitude {}: {} vs {}", c, i, a, b
                    );
                }
            }
        }
    }

    /// Wide registers exercise the wide-tile sweep regimes (`pair ≥ tile`
    /// / `ms ≥ tile`) that 4-qubit programs never reach: on a 12-qubit
    /// register every qubit from 6 up runs the tiled wide path (pair runs
    /// of `2^q · b ≥ 512` elements), so this pins the panel's bit-identity
    /// on the code paths the 16-qubit guadalupe workload uses.
    #[test]
    fn wide_register_panel_bit_identical(
        seed in any::<u64>(),
        width in prop_oneof![Just(1usize), Just(3), Just(8)],
    ) {
        const N: usize = 12;
        let mut b = ProgramBuilder::new(N);
        for q in 0..N {
            b.unitary_1q(q, GateKind::Ry.entries_1q(0.2 + 0.1 * q as f64).unwrap());
            b.depolarize_1q(q, 0.05);
        }
        for q in [0usize, 5, 10] {
            b.cx(q, q + 1);
            b.depolarize_2q(0.08, q, q + 1);
            b.unitary_1q(q + 1, GateKind::Rz.entries_1q(-0.3).unwrap());
        }
        b.unitary_2q(11, 2, GateKind::Cry.entries_2q(0.9).unwrap());
        let program = b.finish();
        let qubits: Vec<usize> = (0..N).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, 8, seed);
        let mut panel = TrajectoryPanel::new();
        let got = estimate_prob_one_panel(&mut panel, &program, &qubits, 8, seed, width);
        for q in 0..N {
            prop_assert!(
                got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                "width {} qubit {}: {} vs {}",
                width, q, got.p_one[q], reference.p_one[q]
            );
        }
    }

    /// Low-wire windows of every supergroup width: on a 12-qubit register,
    /// three-wire supergroups whose lowest wire is 0, 1 or 2 and whose
    /// other wires are 6 or above have a lowest stride shorter than a
    /// tile, so each pass dispatches its chain once per window of many
    /// sub-blocks. CNOTs in both orientations (reference swaps that do
    /// and do not cancel), two-qubit depolarising jumps, RY and one-qubit
    /// jumps on every wire of each group must still give the
    /// per-trajectory estimate bit for bit. Back-to-back two-qubit
    /// segments on disjoint pairs then form two-wire groups on low and
    /// wide wires, the program ends in a one-wire tail group, and a
    /// 1-qubit register runs one-wire groups alone — all at every width
    /// and under both kernel modes.
    #[test]
    fn low_wire_octet_windows_bit_identical(
        seed in any::<u64>(),
        width in prop_oneof![Just(1usize), Just(3), Just(8), Just(16)],
    ) {
        const N: usize = 12;
        const GROUPS: [(usize, usize, usize); 3] = [(0, 6, 9), (1, 7, 10), (2, 8, 11)];
        // Disjoint pairs, each its own two-wire group (low, wide, mixed)
        // until the last, which wire 3 fills to three wires.
        const PAIRS: [(usize, usize); 4] = [(0, 1), (10, 6), (2, 7), (11, 5)];
        let ry = |b: &mut ProgramBuilder, q: usize, theta: f64| {
            b.unitary_1q(q, GateKind::Ry.entries_1q(theta).unwrap());
        };
        let mut b = ProgramBuilder::new(N);
        for q in 0..N {
            ry(&mut b, q, 0.3 + 0.2 * q as f64);
        }
        for (lo, h1, h2) in GROUPS {
            b.cx(lo, h1);
            b.depolarize_2q(0.2, lo, h1);
            ry(&mut b, lo, 0.7);
            b.depolarize_1q(lo, 0.15);
            b.cx(h2, lo);
            b.depolarize_2q(0.2, h2, lo);
            ry(&mut b, h1, -0.4);
            b.depolarize_1q(h1, 0.15);
            b.cx(h1, h2);
            b.depolarize_2q(0.2, h1, h2);
            ry(&mut b, h2, 1.1);
            b.depolarize_1q(h2, 0.15);
            b.cx(lo, h1);
            b.unitary_2q(h2, lo, GateKind::Cry.entries_2q(0.8).unwrap());
        }
        for (x, y) in PAIRS {
            b.cx(x, y);
            b.depolarize_2q(0.2, x, y);
            ry(&mut b, y, 0.9);
            b.depolarize_1q(y, 0.15);
            b.unitary_2q(y, x, GateKind::Crx.entries_2q(-0.6).unwrap());
            b.depolarize_2q(0.2, y, x);
            b.cx(y, x);
            ry(&mut b, x, -0.5);
        }
        // Wire 3 fills the last pair's group to three wires, so the
        // closing segments on wire 9 open a one-wire tail group.
        ry(&mut b, 3, 0.4);
        ry(&mut b, 9, 1.3);
        b.depolarize_1q(9, 0.3);
        b.unitary_1q(9, GateKind::Rz.entries_1q(0.6).unwrap());
        let program = b.finish();
        let plan = supergroup_plan(&program);
        for (lo, h1, h2) in GROUPS {
            let mut want = [lo, h1, h2];
            want.sort_unstable();
            prop_assert!(
                plan.iter().any(|g| {
                    let mut wires = [Some(g.u), g.v, g.w].map(|q| q.unwrap_or(usize::MAX));
                    wires.sort_unstable();
                    wires == want
                }),
                "no octet supergroup on wires {:?}", want
            );
        }
        for (i, (x, y)) in PAIRS.into_iter().enumerate() {
            let third = if i + 1 == PAIRS.len() { Some(3) } else { None };
            prop_assert!(
                plan.iter().any(|g| g.u == x && g.v == Some(y) && g.w == third),
                "no supergroup on wires ({}, {}, {:?})", x, y, third
            );
        }
        let tail = plan.last().expect("non-empty plan");
        prop_assert!(
            (tail.u, tail.v) == (9, None),
            "no one-wire tail group: {:?}", tail
        );

        // A 1-qubit register: every group is one wire wide.
        let mut one = ProgramBuilder::new(1);
        for theta in [0.3, -1.2, 2.1] {
            ry(&mut one, 0, theta);
            one.depolarize_1q(0, 0.25);
            one.unitary_1q(0, GateKind::Rx.entries_1q(theta).unwrap());
        }
        let one = one.finish();
        prop_assert!(supergroup_plan(&one).iter().all(|g| g.v.is_none()));

        let mut modes = vec![KernelMode::Scalar];
        if KernelMode::avx2_supported() {
            modes.push(KernelMode::Avx2);
        }
        for (program, n) in [(&program, N), (&one, 1)] {
            let qubits: Vec<usize> = (0..n).collect();
            let mut ws = TrajectoryWorkspace::new();
            let reference = estimate_prob_one(&mut ws, program, &qubits, 8, seed);
            for &mode in &modes {
                let mut panel = TrajectoryPanel::new();
                panel.set_kernel_mode(mode);
                let got = estimate_prob_one_panel(&mut panel, program, &qubits, 8, seed, width);
                for q in 0..n {
                    prop_assert!(
                        got.p_one[q].to_bits() == reference.p_one[q].to_bits()
                            && got.std_err[q].to_bits() == reference.std_err[q].to_bits(),
                        "{:?} width {} {}-qubit register, qubit {}: {} vs {}",
                        mode, width, n, q, got.p_one[q], reference.p_one[q]
                    );
                }
            }
        }
    }

    /// The AVX2 compilation is a bit-exact drop-in for the scalar oracle:
    /// on hosts with AVX2, running the same program over the same draw
    /// sequence under both kernel modes yields bitwise-equal panels at
    /// every width, ragged 4-lane remainders included (the kernels use
    /// only mul/add/sub, so vectorising them keeps each element's
    /// operations). The drawn program runs as built and precomposed, so
    /// both swapped quartets and dense 4×4s are covered.
    #[test]
    fn scalar_and_avx2_panels_bit_identical(
        specs in proptest::collection::vec(arb_atom(N_QUBITS), 1..25),
        seed in any::<u64>(),
        batch in 1usize..12,
    ) {
        if KernelMode::avx2_supported() {
            let built = build_program(&specs);
            for program in [built.precompose(), built] {
                let n_stoch = program.n_stochastic_atoms();
                let mut rng = StdRng::seed_from_u64(seed);
                let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();
                let [scalar, avx2] = [KernelMode::Scalar, KernelMode::Avx2].map(|mode| {
                    let mut panel = TrajectoryPanel::new();
                    panel.set_kernel_mode(mode);
                    panel.reset_zero(N_QUBITS, batch);
                    panel.run_stochastic(&program, &uniforms);
                    panel
                });
                for c in 0..batch {
                    let (s, v) = (scalar.column(c), avx2.column(c));
                    for (i, (a, b)) in s.iter().zip(v.iter()).enumerate() {
                        prop_assert!(
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                            "column {} amplitude {}: scalar {} vs avx2 {}", c, i, a, b
                        );
                    }
                }
            }
        }
    }

    /// Ragged final chunks: the widths the audit singled out — 1 (fully
    /// sequential), 3 (never divides a power-of-two budget), 16 (the auto
    /// cap), and `n_traj + 1` (one chunk wider than the budget) — all
    /// reproduce the per-trajectory estimate bit for bit, including the
    /// short remainder chunk's draw-stream alignment.
    #[test]
    fn ragged_final_chunks_bit_identical(
        specs in proptest::collection::vec(arb_atom(N_QUBITS), 1..25),
        seed in any::<u64>(),
        n_traj in 1u32..40,
    ) {
        let program = build_program(&specs);
        let qubits: Vec<usize> = (0..N_QUBITS).collect();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &qubits, n_traj, seed);
        for width in [1usize, 3, 16, n_traj as usize + 1] {
            let mut panel = TrajectoryPanel::new();
            let got = estimate_prob_one_panel(&mut panel, &program, &qubits, n_traj, seed, width);
            prop_assert_eq!(got.n_trajectories, reference.n_trajectories);
            for q in 0..N_QUBITS {
                prop_assert!(
                    got.p_one[q].to_bits() == reference.p_one[q].to_bits(),
                    "width {} qubit {} p_one: {} vs {}",
                    width, q, got.p_one[q], reference.p_one[q]
                );
                prop_assert!(
                    got.std_err[q].to_bits() == reference.std_err[q].to_bits(),
                    "width {} qubit {} std_err: {} vs {}",
                    width, q, got.std_err[q], reference.std_err[q]
                );
            }
        }
    }

    /// The single-sweep all-qubit marginal accumulator matches the
    /// per-qubit walk bit for bit on arbitrary reachable states.
    #[test]
    fn probs_one_all_matches_prob_one(
        specs in proptest::collection::vec(arb_atom(N_QUBITS), 1..25),
        seed in any::<u64>(),
    ) {
        let program = build_program(&specs);
        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(seed);
        ws.reset_zero(N_QUBITS);
        ws.run_stochastic(&program, &mut rng);
        let all = ws.probs_one_all();
        for (q, p) in all.iter().enumerate() {
            prop_assert!(p.to_bits() == ws.prob_one(q).to_bits());
        }
    }
}
