//! Solver-session integration tests: the factor-once serving layer must
//! agree with every one-shot engine, survive fault injection, and reject
//! pattern-mismatched re-factorizations with a typed error.
//!
//! * [`session_batch_matches_every_engine_per_rhs`] cross-checks one
//!   `Session::solve_batch` panel against per-RHS solutions from all five
//!   engines on the shared runtime — fan-out (`SymPack`), right-looking,
//!   fan-in, fan-both, and the triangular-solve engine driven both in panel
//!   mode (by the session) and vector mode (by every one-shot driver) — at
//!   P ∈ {1, 2, 4}.
//! * [`chaos_refactorize_then_solve_completes_under_faults`] runs the
//!   `tests/chaos.rs` sweep shape (seeded fault plans, deterministic
//!   lockstep) through a refactorize-then-solve session lifecycle: delay and
//!   duplication plans must never change the numerical result.
//! * [`refactorize_rejections_are_typed_errors`] pins the
//!   `SolverError::PatternMismatch` contract: wrong-length values and
//!   structure-mismatched matrices are rejected with expected/actual nnz,
//!   and the session keeps serving from its previous factor.
//! * [`entry_points_agree_on_every_solve`] runs the one-shot driver, a
//!   `Session` and a one-shard `Fleet` under the same `SolverOptions` —
//!   dense, and BLR with iterative refinement — and requires the same
//!   answer class from all three, and the same bits for single-RHS solves.

use sympack::{BlrConfig, SolverError, SolverOptions, SymPack};
use sympack_baseline::{
    try_baseline_factor_and_solve, try_fanboth_factor_and_solve, try_fanin_factor_and_solve,
    BaselineOptions,
};
use sympack_fleet::{Fleet, FleetConfig};
use sympack_pgas::FaultPlan;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen;
use sympack_sparse::vecops::max_abs_diff;
use sympack_sparse::SparseSym;

const RESIDUAL_TOL: f64 = 1e-8;

fn rhs_columns(n: usize, nrhs: usize) -> Vec<Vec<f64>> {
    (0..nrhs)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 1) as f64 * 0.17 + k as f64 * 0.9).sin())
                .collect()
        })
        .collect()
}

/// Lower-triangle values of `a` scaled by `s`, in the session's
/// `refactorize` layout.
fn scaled_values(a: &SparseSym, s: f64) -> Vec<f64> {
    let mut v = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        v.extend(a.col_values(c).iter().map(|x| x * s));
    }
    v
}

/// The same matrix with its values scaled by `s` (structure unchanged).
fn scaled_matrix(a: &SparseSym, s: f64) -> SparseSym {
    let mut row_idx = Vec::with_capacity(a.nnz());
    for c in 0..a.n() {
        row_idx.extend_from_slice(a.col_rows(c));
    }
    SparseSym::from_parts(a.n(), a.col_ptr().to_vec(), row_idx, scaled_values(a, s))
}

#[test]
fn session_batch_matches_every_engine_per_rhs() {
    let a = gen::laplacian_2d(7, 6);
    let n = a.n();
    let bs = rhs_columns(n, 4);
    for p in [1usize, 2, 4] {
        let opts = SolverOptions {
            n_nodes: 1,
            ranks_per_node: p,
            ..Default::default()
        };
        let session = Session::new(&a, &opts).unwrap_or_else(|e| panic!("P={p}: session: {e}"));
        let batch = session
            .solve_batch(&[RhsPanel::from_columns(&bs)])
            .unwrap_or_else(|e| panic!("P={p}: solve_batch: {e}"));
        assert_eq!(batch.nrhs, bs.len());
        let bl_opts = BaselineOptions {
            n_nodes: 1,
            ranks_per_node: p,
            ..Default::default()
        };
        for (k, b) in bs.iter().enumerate() {
            let x = batch.panels[0].column(k);
            let res = a.relative_residual(x, b);
            assert!(res < RESIDUAL_TOL, "P={p} rhs {k}: panel residual {res}");
            let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            // Fan-out engine (one-shot driver, vector solve path).
            let sp = SymPack::try_factor_and_solve(&a, b, &opts)
                .unwrap_or_else(|e| panic!("P={p} rhs {k}: fanout: {e}"));
            assert!(sp.relative_residual < RESIDUAL_TOL);
            assert!(
                max_abs_diff(x, &sp.x) / scale < 1e-9,
                "P={p} rhs {k}: session panel vs fanout per-RHS solution"
            );
            // The three baseline factorization engines.
            for (name, run) in [
                (
                    "rightlooking",
                    try_baseline_factor_and_solve as fn(_, _, _) -> _,
                ),
                ("fanin", try_fanin_factor_and_solve),
                ("fanboth", try_fanboth_factor_and_solve),
            ] {
                let bl =
                    run(&a, b, &bl_opts).unwrap_or_else(|e| panic!("P={p} rhs {k}: {name}: {e}"));
                assert!(bl.relative_residual < RESIDUAL_TOL);
                assert!(
                    max_abs_diff(x, &bl.x) / scale < 1e-9,
                    "P={p} rhs {k}: session panel vs {name} per-RHS solution"
                );
            }
        }
    }
}

#[test]
fn chaos_refactorize_then_solve_completes_under_faults() {
    // The chaos.rs contract, applied to the session lifecycle: under delay
    // and duplication plans in deterministic lockstep, create → refactorize
    // (rescaled values) → batched solve must complete with the correct
    // result for every seed. Both the factorization runs and the panel
    // solve execute under the fault plan.
    let a = gen::laplacian_2d(6, 6);
    let scale = 3.0;
    let a_scaled = scaled_matrix(&a, scale);
    let bs = rhs_columns(a.n(), 3);
    for plan in ["delays", "dup"] {
        for seed in 0..3u64 {
            let faults = match plan {
                "delays" => FaultPlan::delays_only(seed),
                "dup" => FaultPlan::duplication(seed),
                other => unreachable!("{other}"),
            };
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: 4,
                faults: Some(faults),
                deterministic: true,
                ..Default::default()
            };
            let mut session = Session::new(&a, &opts)
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: session: {e}"));
            session
                .refactorize(&scaled_values(&a, scale))
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: refactorize: {e}"));
            let batch = session
                .solve_batch(&[RhsPanel::from_columns(&bs)])
                .unwrap_or_else(|e| panic!("{plan}/seed={seed}: solve_batch: {e}"));
            for (k, b) in bs.iter().enumerate() {
                let res = a_scaled.relative_residual(batch.panels[0].column(k), b);
                assert!(
                    res < RESIDUAL_TOL,
                    "{plan}/seed={seed} rhs {k}: residual {res} after \
                     refactorize-then-solve under faults"
                );
            }
        }
    }
}

#[test]
fn deterministic_sessions_are_bit_reproducible() {
    let a = gen::laplacian_2d(6, 6);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 4,
        deterministic: true,
        ..Default::default()
    };
    let bs = rhs_columns(a.n(), 2);
    let run = || {
        let s = Session::new(&a, &opts).expect("SPD");
        let batch = s
            .solve_batch(&[RhsPanel::from_columns(&bs)])
            .expect("solve");
        (s.factor_time(), batch.solve_time)
    };
    let (f1, s1) = run();
    let (f2, s2) = run();
    assert_eq!(
        f1.to_bits(),
        f2.to_bits(),
        "factor makespan not reproducible"
    );
    assert_eq!(
        s1.to_bits(),
        s2.to_bits(),
        "solve makespan not reproducible"
    );
}

#[test]
fn refactorize_rejections_are_typed_errors() {
    let a = gen::laplacian_2d(6, 5);
    let opts = SolverOptions {
        n_nodes: 1,
        ranks_per_node: 2,
        ..Default::default()
    };
    let mut session = Session::new(&a, &opts).expect("SPD");
    let expected = session.pattern_nnz();

    // Wrong-length value array: typed rejection with both counts.
    match session.refactorize(&vec![1.0; expected - 1]) {
        Err(SolverError::PatternMismatch {
            expected_nnz,
            actual_nnz,
            ..
        }) => {
            assert_eq!(expected_nnz, expected);
            assert_eq!(actual_nnz, expected - 1);
        }
        other => panic!("short values: expected PatternMismatch, got {other:?}"),
    }

    // Structure mismatch (same order, different sparsity): typed rejection.
    let different = gen::random_spd(a.n(), 3, 11);
    match session.refactorize_matrix(&different) {
        Err(SolverError::PatternMismatch { expected_nnz, .. }) => {
            assert_eq!(expected_nnz, expected);
        }
        other => panic!("wrong structure: expected PatternMismatch, got {other:?}"),
    }

    // The error message names both counts for operators.
    let msg = session
        .refactorize(&vec![0.0; expected + 7])
        .unwrap_err()
        .to_string();
    assert!(msg.contains(&expected.to_string()) && msg.contains(&(expected + 7).to_string()));

    // After every rejection the original factor still serves solves.
    let b = rhs_columns(a.n(), 1).remove(0);
    let x = session.solve(&b).expect("previous factor intact");
    assert!(a.relative_residual(&x, &b) < RESIDUAL_TOL);
}

#[test]
fn entry_points_agree_on_every_solve() {
    let a = gen::bone_like(12, 12, 12);
    let bs = rhs_columns(a.n(), 2);
    let blr = BlrConfig {
        tol: 1e-4,
        ..BlrConfig::default()
    };
    for (mode, blr, refine_steps) in [("dense", BlrConfig::default(), 0), ("blr", blr, 3)] {
        for p in [1usize, 2, 4] {
            let ctx = format!("{mode} P={p}");
            let opts = SolverOptions {
                n_nodes: 1,
                ranks_per_node: p,
                deterministic: true,
                blr,
                refine_steps,
                ..Default::default()
            };
            // Driver: one factorization, every rhs solved and refined alone.
            let driver = SymPack::try_factor_and_solve_multi(&a, &bs, &opts)
                .unwrap_or_else(|e| panic!("{ctx}: driver: {e}"));
            // Session: a single-rhs solve, then both rhs as one panel.
            let session = Session::new(&a, &opts).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let single = session
                .solve_batch(&[RhsPanel::from_vector(&bs[0])])
                .unwrap_or_else(|e| panic!("{ctx}: session solve: {e}"));
            let panel = session
                .solve_batch(&[RhsPanel::from_columns(&bs)])
                .unwrap_or_else(|e| panic!("{ctx}: session panel: {e}"));
            // One-shard fleet: one job alone, then two coalesced.
            let config = FleetConfig {
                shards: 1,
                max_batch: 2,
                quantum: 2.0,
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(&opts, config);
            let t = fleet.admit("solo", &a, 1.0).expect("admit");
            fleet.submit_at(t, bs[0].clone(), 0.0).expect("submit");
            let alone = fleet
                .drain()
                .unwrap_or_else(|e| panic!("{ctx}: fleet: {e}"));
            let fleet_time = fleet.tenant_metrics(t).solve_virtual_total;
            for b in &bs {
                fleet
                    .submit_at(t, b.clone(), fleet.makespan())
                    .expect("submit");
            }
            let pair = fleet
                .drain()
                .unwrap_or_else(|e| panic!("{ctx}: fleet: {e}"));
            assert_eq!(fleet.tenant_metrics(t).batches, 2, "{ctx}: pair coalesced");

            let mut answers: Vec<(&str, &[f64], &[f64])> = vec![
                ("session", single.panels[0].column(0), &bs[0]),
                ("fleet", &alone[0].x, &bs[0]),
            ];
            for (k, b) in bs.iter().enumerate() {
                answers.push(("driver", &driver.xs[k], b));
                answers.push(("session panel", panel.panels[0].column(k), b));
                answers.push(("fleet pair", &pair[k].x, b));
            }
            for (path, x, b) in answers {
                let r = a.relative_residual(x, b);
                assert!(r < 1e-6, "{ctx}: {path} residual {r:.3e}");
            }
            // Single-rhs solves: one pipeline, so the same solution bits
            // everywhere, and the same solve-time bits from the session and
            // the fleet. The driver solves on clocks that already carry the
            // factorization in the same run, so its solve time is the same
            // sum of charges rounded at a different magnitude.
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&driver.xs[0]),
                bits(single.panels[0].column(0)),
                "{ctx}"
            );
            assert_eq!(bits(&driver.xs[0]), bits(&alone[0].x), "{ctx}");
            assert_eq!(single.solve_time.to_bits(), fleet_time.to_bits(), "{ctx}");
            let drift = (driver.solve_times[0] - single.solve_time).abs() / single.solve_time;
            assert!(
                drift < 1e-9,
                "{ctx}: driver solve time drifts by {drift:.3e}"
            );
        }
    }
}
