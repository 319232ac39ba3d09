//! `cold_bone`: every request is one `SymPack::try_factor_and_solve` call —
//! ordering, symbolic analysis, task slicing, numeric factor and solve —
//! on a fixed elasticity-like matrix with a fresh seeded right-hand side.

use std::time::Instant;

use sympack::{SolveReport, SymPack};
use sympack_sparse::gen::bone_like;

use crate::probe::{self, Extras};
use crate::spans::Tracer;
use crate::{
    median, min_request_coverage, panel_ok, quantile, repeat_setup, request_loop, solver_options,
    Counts, DenseCalls, Rng, RunConfig, Scale, WorkloadRun,
};

/// Exact counts a one-shot solve reports.
fn report_counts(r: &SolveReport, n: usize) -> Counts {
    let tasks = r
        .task_counts
        .iter()
        .filter(|(kind, _)| matches!(kind.as_str(), "diag" | "panel" | "update"))
        .map(|(_, c)| c)
        .sum();
    Counts {
        supernodes: r.n_supernodes as u64,
        columns: n as u64,
        l_nnz: r.l_nnz as u64,
        flops: r.flops,
        tasks,
        dense: Some(DenseCalls::from_ops(&r.op_counts)),
    }
}

pub fn run(cfg: &RunConfig) -> Result<WorkloadRun, String> {
    let opts = solver_options(2);
    let side = match cfg.scale {
        Scale::Full => 16,
        Scale::Tiny => 5,
    };
    let mut gen_ms = Vec::new();
    let (a, setup_s) = repeat_setup(cfg.scale, || {
        let t0 = Instant::now();
        let a = bone_like(side, side, side);
        gen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        Ok(a)
    })?;
    let mut rng = Rng::new(cfg.seed, 1);
    let mut problems = Vec::new();
    let mut counts: Option<Counts> = None;

    let mut tr = Tracer::new(cfg.trace);
    let (untraced, traced) = request_loop(cfg, &mut tr, |i, tr, ledger| {
        let b = rng.rhs(a.n());
        let t0 = Instant::now();
        let res = tr.span("request", i, |tr| {
            tr.span("SymPack::try_factor_and_solve", i, |_| {
                SymPack::try_factor_and_solve(&a, &b, &opts)
            })
        });
        let dt = t0.elapsed();
        ledger.busy += dt;
        let ok = match res {
            Ok(r) => {
                let c = report_counts(&r, a.n());
                match counts {
                    Some(prev) if prev != c => problems.push(format!(
                        "exact counts changed between requests: {prev:?} vs {c:?}"
                    )),
                    _ => counts = Some(c),
                }
                panel_ok(&a, &r.x, &b)
            }
            Err(e) => {
                problems.push(format!("request {i}: {e:?}"));
                false
            }
        };
        ledger.record(dt, 1, ok);
    });
    let mut run = WorkloadRun {
        setup_s,
        untraced,
        traced,
        ..WorkloadRun::default()
    };
    if cfg.trace {
        let layers = probe::layers(
            &mut tr,
            &mut rng,
            &a,
            &opts,
            None,
            cfg.probe_reps(),
            &mut problems,
        )?;
        if let Some(c) = counts {
            if !c.agrees(&layers.counts) {
                problems.push(format!(
                    "exact counts differ between the end-to-end path {c:?} and the layer calls {:?}",
                    layers.counts
                ));
            }
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
