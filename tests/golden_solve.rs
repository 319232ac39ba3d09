//! Golden-bits regression test for the distributed triangular solve.
//!
//! Every other determinism test compares two runs of the same build, so a
//! change that shifts the modeled solve schedule (task order, message
//! order, virtual-clock charges) or the solve arithmetic passes them as
//! long as it shifts both runs alike. This test pins the *absolute* bits:
//! under deterministic lockstep, for P ∈ {1, 2, 4}, nrhs ∈ {1, 3}, dense
//! and BLR (`tol > 0`), it checks
//!
//! * `solve_time.to_bits()` of one `Session::solve_batch` panel solve,
//! * an FNV-1a digest of the bits of that solve's solution panel,
//! * the driver's virtual solve time and solution digest,
//!
//! against constants recorded from the solver before the plan-once solve
//! schedule was introduced. It also checks that the session and the
//! one-shot driver (`SymPack::try_factor_and_solve_multi`) return the same
//! solution bits for every right-hand side.

use sympack::{BlrConfig, SolverOptions, SymPack};
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen;
use sympack_sparse::SparseSym;

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(xs: &[f64]) -> u64 {
    fnv(xs.iter().map(|x| x.to_bits()))
}

fn rhs_columns(n: usize, nrhs: usize) -> Vec<Vec<f64>> {
    (0..nrhs)
        .map(|k| {
            (0..n)
                .map(|i| ((i + 1) as f64 * 0.37 + k as f64 * 1.3).sin())
                .collect()
        })
        .collect()
}

fn options(p: usize, blr: bool) -> SolverOptions {
    SolverOptions {
        n_nodes: if p == 4 { 2 } else { 1 },
        ranks_per_node: if p == 4 { 2 } else { p },
        gpu: false,
        deterministic: true,
        blr: if blr {
            BlrConfig {
                tol: 1e-6,
                min_block: 8,
                max_rank: usize::MAX,
            }
        } else {
            BlrConfig::default()
        },
        ..Default::default()
    }
}

/// One case's observed bits: session solve time, session solution digest,
/// driver solve times (one per rhs, folded), driver solution digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bits {
    session_time: u64,
    session_x: u64,
    driver_time: u64,
    driver_x: u64,
}

fn observe(a: &SparseSym, p: usize, nrhs: usize, blr: bool) -> Bits {
    let opts = options(p, blr);
    let cols = rhs_columns(a.n(), nrhs);
    let session = Session::new(a, &opts).expect("session factors");
    let batch = session
        .solve_batch(&[RhsPanel::from_columns(&cols)])
        .expect("session solves");
    let panel = batch.panels[0].as_slice();
    let multi = SymPack::try_factor_and_solve_multi(a, &cols, &opts).expect("driver solves");
    if blr {
        let compressed: u64 = multi.blr_counts.iter().map(|c| c.compressed).sum();
        assert!(compressed > 0, "P={p}: the BLR case never compressed");
    }
    for (k, x) in multi.xs.iter().enumerate() {
        let s = batch.panels[0].column(k);
        assert!(
            x.iter().zip(s).all(|(u, v)| u.to_bits() == v.to_bits()),
            "P={p} nrhs={nrhs} blr={blr}: session and driver disagree on rhs {k}"
        );
        // tol = 1e-6 without refinement leaves a ~1e-5 backward error.
        let limit = if blr { 1e-4 } else { 1e-12 };
        assert!(a.relative_residual(x, &cols[k]) < limit, "P={p} rhs {k}");
    }
    Bits {
        session_time: batch.solve_time.to_bits(),
        session_x: digest(panel),
        driver_time: fnv(multi.solve_times.iter().map(|t| t.to_bits())),
        driver_x: digest(&multi.xs.concat()),
    }
}

/// `(p, nrhs, blr, bits)`, recorded before the plan-once solve schedule.
const GOLDEN: [(usize, usize, bool, Bits); 12] = [
    (
        1,
        1,
        false,
        Bits {
            session_time: 4551376691293223490,
            session_x: 18168341703731999410,
            driver_time: 10268016585005290689,
            driver_x: 18168341703731999410,
        },
    ),
    (
        1,
        3,
        false,
        Bits {
            session_time: 4552540097927161904,
            session_x: 13620785605321678457,
            driver_time: 8500961793760338639,
            driver_x: 13620785605321678457,
        },
    ),
    (
        2,
        1,
        false,
        Bits {
            session_time: 4553044614163968540,
            session_x: 7953377140076833323,
            driver_time: 6221370915731682559,
            driver_x: 7953377140076833323,
        },
    ),
    (
        2,
        3,
        false,
        Bits {
            session_time: 4553632428979483066,
            session_x: 12872624008078229518,
            driver_time: 15702385206973439175,
            driver_x: 12872624008078229518,
        },
    ),
    (
        4,
        1,
        false,
        Bits {
            session_time: 4554747946069253640,
            session_x: 16160038540580141029,
            driver_time: 6642309984138867371,
            driver_x: 16160038540580141029,
        },
    ),
    (
        4,
        3,
        false,
        Bits {
            session_time: 4555252827711999388,
            session_x: 6344050729108489120,
            driver_time: 13293131233603164683,
            driver_x: 6344050729108489120,
        },
    ),
    (
        1,
        1,
        true,
        Bits {
            session_time: 4551292020737925166,
            session_x: 15061491025341106023,
            driver_time: 8508559365642805547,
            driver_x: 15061491025341106023,
        },
    ),
    (
        1,
        3,
        true,
        Bits {
            session_time: 4552286086261266922,
            session_x: 181842073895924645,
            driver_time: 15644322454353385658,
            driver_x: 181842073895924645,
        },
    ),
    (
        2,
        1,
        true,
        Bits {
            session_time: 4552970762624069444,
            session_x: 3787015376561303096,
            driver_time: 10710944349444599978,
            driver_x: 3787015376561303096,
        },
    ),
    (
        2,
        3,
        true,
        Bits {
            session_time: 4553521651669634423,
            session_x: 12384064296933407522,
            driver_time: 12701667605027628694,
            driver_x: 12384064296933407522,
        },
    ),
    (
        4,
        1,
        true,
        Bits {
            session_time: 4554720123767504469,
            session_x: 4123886986474262083,
            driver_time: 5892785458931640627,
            driver_x: 4123886986474262083,
        },
    ),
    (
        4,
        3,
        true,
        Bits {
            session_time: 4555158278925249590,
            session_x: 4604163320708464384,
            driver_time: 4584799734076338211,
            driver_x: 4604163320708464384,
        },
    ),
];

#[test]
fn solve_bits_match_the_recorded_schedule() {
    let a = gen::bone_like(6, 6, 5);
    let mut wrong = Vec::new();
    for (p, nrhs, blr, want) in GOLDEN {
        let got = observe(&a, p, nrhs, blr);
        if got != want {
            wrong.push(format!("({p}, {nrhs}, {blr}, {got:?})"));
        }
    }
    assert!(
        wrong.is_empty(),
        "solve bits drifted:\n{}",
        wrong.join("\n")
    );
}
