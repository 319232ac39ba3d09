//! `serve_thermal`: one `Session` on a fixed thermal-like matrix, built
//! during set-up, then single-RHS `Session::solve` requests with every 8th
//! request a 16-column `Session::solve_batch` panel.

use std::time::Instant;

use sympack::plan::solve_panel_distributed;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::gen::thermal_like;
use sympack_sparse::SparseSym;

use crate::probe::{self, Extras, PANEL};
use crate::spans::{Tracer, NO_REQUEST};
use crate::{
    median, min_request_coverage, panel_ok, quantile, repeat_setup, request_loop, solver_options,
    Counts, Rng, RunConfig, Scale, WorkloadRun,
};

/// Every how many requests one is a panel request.
const PANEL_EVERY: u64 = 8;

/// Exact counts of a session's plan.
pub fn session_counts(s: &Session) -> Counts {
    let mut c = Counts::symbolic(s.plan().sf());
    c.tasks = s.plan().symbolic.tasks.iter().map(|t| t.total as u64).sum();
    c
}

/// `solve_panel_distributed` on the session's plan and factor for `cols`,
/// outside any request span.
fn bare_solve(
    tr: &mut Tracer,
    s: &Session,
    a: &SparseSym,
    cols: &[Vec<f64>],
) -> Result<(), String> {
    let plan = s.plan();
    let stores = s.factor_stores().ok_or("session factor is not resident")?;
    let bp: Vec<f64> = cols
        .iter()
        .flat_map(|c| plan.sf().perm.apply_vec(c))
        .collect();
    let name = if cols.len() == 1 {
        "solve_panel_distributed"
    } else {
        "solve_panel_distributed/16"
    };
    let ps = tr
        .span(name, NO_REQUEST, |_| {
            solve_panel_distributed(plan, stores, &bp, cols.len())
        })
        .map_err(|e| format!("{name}: {e:?}"))?;
    let x: Vec<f64> = ps
        .xp
        .chunks(a.n())
        .flat_map(|c| plan.sf().perm.unapply_vec(c))
        .collect();
    if panel_ok(a, &x, &cols.concat()) {
        Ok(())
    } else {
        Err(format!("{name} residual too large"))
    }
}

pub fn run(cfg: &RunConfig) -> Result<WorkloadRun, String> {
    let opts = solver_options(2);
    let side = match cfg.scale {
        Scale::Full => 110,
        Scale::Tiny => 24,
    };
    let mut gen_ms = Vec::new();
    let ((a, session), setup_s) = repeat_setup(cfg.scale, || {
        let t0 = Instant::now();
        let a = thermal_like(side, side, 0.35, 20230);
        gen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let s = Session::new(&a, &opts).map_err(|e| format!("Session::new: {e:?}"))?;
        Ok((a, s))
    })?;
    let counts = session_counts(&session);
    let mut rng = Rng::new(cfg.seed, 2);
    let mut problems = Vec::new();

    let mut tr = Tracer::new(cfg.trace);
    let (untraced, traced) = request_loop(cfg, &mut tr, |i, tr, ledger| {
        // Count within the ledger, so untraced and traced requests each
        // get every 8th as a panel when they alternate.
        let nrhs = if ledger.attempted % PANEL_EVERY == PANEL_EVERY - 1 {
            PANEL
        } else {
            1
        };
        let cols: Vec<Vec<f64>> = (0..nrhs).map(|_| rng.rhs(a.n())).collect();
        // Traced requests are paired with the same input through the
        // distributed solve alone, on the session's own plan and factor: the
        // service layer's share. The bare solve runs before the request on
        // every other pair and after it otherwise, so neither side always
        // finds warm caches.
        let bare_first = ledger.attempted % 2 == 1;
        if tr.enabled() && bare_first {
            problems.extend(bare_solve(tr, &session, &a, &cols).err());
        }
        let t0 = Instant::now();
        let res = if nrhs == 1 {
            tr.span("request", i, |tr| {
                tr.span("Session::solve", i, |_| session.solve(&cols[0]))
            })
        } else {
            let panel = [RhsPanel::from_columns(&cols)];
            tr.span("request", i, |tr| {
                tr.span("Session::solve_batch", i, |_| session.solve_batch(&panel))
            })
            .map(|out| out.panels[0].as_slice().to_vec())
        };
        let dt = t0.elapsed();
        ledger.busy += dt;
        if tr.enabled() && !bare_first {
            problems.extend(bare_solve(tr, &session, &a, &cols).err());
        }
        let ok = match res {
            Ok(x) => panel_ok(&a, &x, &cols.concat()),
            Err(e) => {
                problems.push(format!("request {i}: {e:?}"));
                false
            }
        };
        ledger.record(dt, nrhs, ok);
    });
    let mut run = WorkloadRun {
        setup_s,
        untraced,
        traced,
        ..WorkloadRun::default()
    };
    if cfg.trace {
        let mut layers = probe::layers(
            &mut tr,
            &mut rng,
            &a,
            &opts,
            Some(&session),
            cfg.probe_reps(),
            &mut problems,
        )?;
        // The traced loop paired every request with a bare solve: use all
        // of those samples for the solve and service layers.
        layers.trisolve_ms = median(&tr.durations_ms("solve_panel_distributed"));
        layers.panel16_ms = median(&tr.durations_ms("solve_panel_distributed/16"));
        layers.batch1_ms = median(&tr.durations_ms("Session::solve"));
        if !counts.agrees(&layers.counts) {
            problems.push(format!(
                "exact counts differ between the session {counts:?} and the layer calls {:?}",
                layers.counts
            ));
        }
        let fleet = probe::one_tenant_fleet(&mut tr, &mut rng, &a, &opts, 8, &mut problems)?;
        let extras = Extras {
            gen_ms: median(&gen_ms),
            run_us: probe::runtime_run_us(&mut tr, &opts),
            peak_gflops: probe::peak_gflops(&mut tr),
            fleet,
            untraced_p50_ms: quantile(&run.untraced.lat_ms, 0.5),
            traced_p50_ms: quantile(&run.traced.lat_ms, 0.5),
            child_cover_min: min_request_coverage(&tr, |i, _, s| s.parent == Some(i)),
        };
        run.layers = probe::metrics(&layers, &extras);
        run.tracer = Some(tr);
    }
    run.problems = problems;
    Ok(run)
}
