//! Layer probes of the traced run: each public call into one layer, timed
//! standalone in a span on the workload's own matrix, plus the reference
//! rows (sequential multifrontal factor, sequential solve on a gathered
//! factor, packed GEMM peak).

use std::sync::Arc;

use sympack::condest::solve_with_factor;
use sympack::map2d::ProcGrid;
use sympack::plan::{factor_numeric, solve_panel_distributed};
use sympack::taskgraph::LocalTasks;
use sympack::{SolvePlan, SolverOptions, SymPack, SymbolicPlan};
use sympack_dense::gemm::gemm_nt_packed_raw;
use sympack_dense::KernelConfig;
use sympack_fleet::{Fleet, FleetConfig};
use sympack_multifrontal::{multifrontal_factor, MfOptions};
use sympack_ordering::compute_ordering;
use sympack_pgas::Runtime;
use sympack_service::{RhsPanel, Session};
use sympack_sparse::SparseSym;
use sympack_symbolic::analyze;

use crate::spans::{Tracer, NO_REQUEST};
use crate::{err, median, panel_ok, Counts, DenseCalls, Metric, Rng};

/// Right-hand sides of the panel probe (and of a served panel request).
pub const PANEL: usize = 16;

/// Paired one-column solves per probe repetition.
const PAIRS: usize = 4;

/// Median wall times (ms) and counts of one probed problem. Summing two
/// values gives the figures of "one of each" problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub ordering_ms: f64,
    pub symbolic_ms: f64,
    pub taskgraph_ms: f64,
    pub plan_ms: f64,
    pub factor_ms: f64,
    pub factor_model_ms: f64,
    pub trisolve_ms: f64,
    pub trisolve_model_ms: f64,
    pub panel16_ms: f64,
    pub batch1_ms: f64,
    pub driver_ms: f64,
    pub mf_factor_ms: f64,
    pub seq_solve_ms: f64,
    pub rgets: u64,
    pub rpcs: u64,
    pub bytes: u64,
    pub counts: Counts,
}

impl std::ops::Add for Layers {
    type Output = Layers;

    fn add(self, o: Layers) -> Layers {
        Layers {
            ordering_ms: self.ordering_ms + o.ordering_ms,
            symbolic_ms: self.symbolic_ms + o.symbolic_ms,
            taskgraph_ms: self.taskgraph_ms + o.taskgraph_ms,
            plan_ms: self.plan_ms + o.plan_ms,
            factor_ms: self.factor_ms + o.factor_ms,
            factor_model_ms: self.factor_model_ms + o.factor_model_ms,
            trisolve_ms: self.trisolve_ms + o.trisolve_ms,
            trisolve_model_ms: self.trisolve_model_ms + o.trisolve_model_ms,
            panel16_ms: self.panel16_ms + o.panel16_ms,
            batch1_ms: self.batch1_ms + o.batch1_ms,
            driver_ms: self.driver_ms + o.driver_ms,
            mf_factor_ms: self.mf_factor_ms + o.mf_factor_ms,
            seq_solve_ms: self.seq_solve_ms + o.seq_solve_ms,
            rgets: self.rgets + o.rgets,
            rpcs: self.rpcs + o.rpcs,
            bytes: self.bytes + o.bytes,
            counts: self.counts + o.counts,
        }
    }
}

/// Fleet-layer figures: from the workload's own fleet on `fleet_mix`, from
/// a one-tenant probe fleet elsewhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetLayer {
    pub step_ms: f64,
    pub plan_hits: u64,
    pub admissions: u64,
    pub evictions: u64,
    pub rematerializations: u64,
    pub served: u64,
}

/// Everything besides [`Layers`] that the per-layer metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct Extras {
    pub gen_ms: f64,
    pub run_us: f64,
    pub peak_gflops: f64,
    pub fleet: FleetLayer,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    /// Smallest share of a request span covered by its child spans.
    pub child_cover_min: f64,
}

fn ms(t: &Tracer, from: usize, name: &str) -> f64 {
    let v: Vec<f64> = t.spans()[from..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() * 1e3)
        .collect();
    median(&v)
}

/// Probe every layer of `a` under `opts` `reps` times. `session` serves the
/// `Session::solve_batch` probe; without one, a session is built on the
/// probe's plan. Failed residual checks and counts that change between
/// repetitions are pushed onto `problems`.
pub fn layers(
    tr: &mut Tracer,
    rng: &mut Rng,
    a: &SparseSym,
    opts: &SolverOptions,
    session: Option<&Session>,
    reps: usize,
    problems: &mut Vec<String>,
) -> Result<Layers, String> {
    let p = opts.n_nodes * opts.ranks_per_node;
    let from = tr.spans().len();
    let mut counts: Option<Counts> = None;
    let mut out = Layers::default();
    let mut own_session = None;
    let mut model = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (c, fm, sm) = tr.span(
            "probe",
            NO_REQUEST,
            |tr| -> Result<(Counts, f64, f64), String> {
                let ord = tr.span("compute_ordering", NO_REQUEST, |_| {
                    compute_ordering(a, opts.ordering)
                });
                let sf = tr.span("analyze", NO_REQUEST, |_| analyze(a, &ord, &opts.analyze));
                let grid = opts.grid.unwrap_or_else(|| ProcGrid::squarest(p));
                let tasks: usize = tr.span("LocalTasks::build", NO_REQUEST, |_| {
                    (0..p).map(|r| LocalTasks::build(&sf, &grid, r).total).sum()
                });
                let symbolic = tr.span("SymbolicPlan::build", NO_REQUEST, |_| {
                    SymbolicPlan::build(a, opts)
                });
                let plan = SolvePlan::from_symbolic(Arc::new(symbolic), opts);
                let planned: usize = plan.symbolic.tasks.iter().map(|t| t.total).sum();
                if planned != tasks || plan.sf().flops != sf.flops {
                    problems.push("plan counts differ from the standalone layer calls".to_string());
                }
                let ap = Arc::new(tr.span("SolvePlan::permute", NO_REQUEST, |_| plan.permute(a)));
                let nf = tr
                    .span("factor_numeric", NO_REQUEST, |_| factor_numeric(&plan, &ap))
                    .map_err(err)?;
                let mut c = Counts::symbolic(&sf);
                c.tasks = tasks as u64;
                c.dense = Some(DenseCalls::from_ops(&nf.op_counts));
                out.rgets = nf.stats.rgets;
                out.rpcs = nf.stats.rpcs;
                out.bytes = nf.stats.net_bytes + nf.stats.intra_bytes;

                if session.is_none() && own_session.is_none() {
                    let s = tr
                        .span("Session::with_plan", NO_REQUEST, |_| {
                            Session::with_plan(a, Arc::clone(&plan.symbolic), opts)
                        })
                        .map_err(err)?;
                    own_session = Some(s);
                }
                let s = session
                    .or(own_session.as_ref())
                    .expect("session built above");
                // Paired one-column solves, with and without the service layer.
                let mut b = Vec::new();
                let mut solve_model = 0.0;
                for _ in 0..PAIRS {
                    b = rng.rhs(a.n());
                    let bp = plan.sf().perm.apply_vec(&b);
                    let ps = tr
                        .span("solve_panel_distributed", NO_REQUEST, |_| {
                            solve_panel_distributed(&plan, &nf.stores, &bp, 1)
                        })
                        .map_err(err)?;
                    solve_model = ps.solve_time * 1e3;
                    let panel = [RhsPanel::from_vector(&b)];
                    let batch = tr
                        .span("Session::solve_batch", NO_REQUEST, |_| {
                            s.solve_batch(&panel)
                        })
                        .map_err(err)?;
                    if !panel_ok(a, &plan.sf().perm.unapply_vec(&ps.xp), &b)
                        || !panel_ok(a, batch.panels[0].as_slice(), &b)
                    {
                        problems.push("probe one-column solve residual too large".to_string());
                    }
                }
                let cols: Vec<Vec<f64>> = (0..PANEL).map(|_| rng.rhs(a.n())).collect();
                let bp16: Vec<f64> = cols
                    .iter()
                    .flat_map(|c| plan.sf().perm.apply_vec(c))
                    .collect();
                let ps16 = tr
                    .span("solve_panel_distributed/16", NO_REQUEST, |_| {
                        solve_panel_distributed(&plan, &nf.stores, &bp16, PANEL)
                    })
                    .map_err(err)?;
                let x16: Vec<f64> = ps16
                    .xp
                    .chunks(a.n())
                    .flat_map(|c| plan.sf().perm.unapply_vec(c))
                    .collect();
                if !panel_ok(a, &x16, &cols.concat()) {
                    problems.push("probe panel solve residual too large".to_string());
                }

                let report = tr
                    .span("SymPack::try_factor_and_solve", NO_REQUEST, |_| {
                        SymPack::try_factor_and_solve(a, &b, opts)
                    })
                    .map_err(err)?;
                if !panel_ok(a, &report.x, &b) {
                    problems.push("probe try_factor_and_solve residual too large".to_string());
                }
                Ok((c, nf.factor_time * 1e3, solve_model))
            },
        )?;
        model.0.push(fm);
        model.1.push(sm);
        match counts {
            Some(prev) if prev != c => problems.push(format!(
                "exact counts changed between probe repetitions: {prev:?} vs {c:?}"
            )),
            _ => counts = Some(c),
        }
    }
    out.counts = counts.unwrap_or_default();
    out.factor_model_ms = median(&model.0);
    out.trisolve_model_ms = median(&model.1);
    out.ordering_ms = ms(tr, from, "compute_ordering");
    out.symbolic_ms = ms(tr, from, "analyze");
    out.taskgraph_ms = ms(tr, from, "LocalTasks::build");
    out.plan_ms = ms(tr, from, "SymbolicPlan::build");
    out.factor_ms = ms(tr, from, "factor_numeric");
    out.trisolve_ms = ms(tr, from, "solve_panel_distributed");
    out.panel16_ms = ms(tr, from, "solve_panel_distributed/16");
    out.batch1_ms = ms(tr, from, "Session::solve_batch");
    out.driver_ms = ms(tr, from, "SymPack::try_factor_and_solve");
    references(tr, rng, a, opts, reps, &mut out, problems)?;
    Ok(out)
}

/// The single-threaded reference rows of one problem.
fn references(
    tr: &mut Tracer,
    rng: &mut Rng,
    a: &SparseSym,
    opts: &SolverOptions,
    reps: usize,
    out: &mut Layers,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let from = tr.spans().len();
    let mf_opts = MfOptions {
        ordering: opts.ordering,
        analyze: opts.analyze.clone(),
    };
    for _ in 0..reps {
        tr.span("multifrontal_factor", NO_REQUEST, |_| {
            multifrontal_factor(a, &mf_opts)
        })
        .map_err(err)?;
    }
    let g = SymPack::factor_gather(a, opts).map_err(err)?;
    for _ in 0..reps.max(5) {
        let b = rng.rhs(a.n());
        let x = tr.span("solve_with_factor", NO_REQUEST, |_| {
            solve_with_factor(&g, &b)
        });
        if !panel_ok(a, &x, &b) {
            problems.push("reference solve residual too large".to_string());
        }
    }
    out.mf_factor_ms = ms(tr, from, "multifrontal_factor");
    out.seq_solve_ms = ms(tr, from, "solve_with_factor");
    Ok(())
}

/// Median wall microseconds of a `Runtime::run` with an empty body at `opts`'
/// rank count: the fork-join cost every distributed phase pays.
pub fn runtime_run_us(tr: &mut Tracer, opts: &SolverOptions) -> f64 {
    let from = tr.spans().len();
    for _ in 0..50 {
        let mut config = sympack_pgas::PgasConfig::multi_node(opts.n_nodes, opts.ranks_per_node);
        config.deterministic = opts.deterministic;
        tr.span("Runtime::run", NO_REQUEST, |_| Runtime::run(config, |_| ()));
    }
    ms(tr, from, "Runtime::run") * 1e3
}

/// Packed GEMM rate at 256³ in GF/s (median of repeated calls).
pub fn peak_gflops(tr: &mut Tracer) -> f64 {
    const N: usize = 256;
    let mut rng = Rng::new(1, 0x9e);
    let a = rng.rhs(N * N);
    let b = rng.rhs(N * N);
    let mut c = vec![0.0; N * N];
    let cfg = KernelConfig::default();
    let from = tr.spans().len();
    for _ in 0..30 {
        tr.span("gemm_nt_packed_raw/256", NO_REQUEST, |_| {
            gemm_nt_packed_raw(&cfg, &mut c, N, N, N, &a, N, &b, N, N);
        });
    }
    std::hint::black_box(&c);
    let flops = 2.0 * (N * N * N) as f64;
    flops / (ms(tr, from, "gemm_nt_packed_raw/256") * 1e-3) / 1e9
}

/// A one-tenant fleet on `a`, serving one burst of `burst` requests: the
/// fleet layer on a workload that does not run a fleet itself.
pub fn one_tenant_fleet(
    tr: &mut Tracer,
    rng: &mut Rng,
    a: &SparseSym,
    opts: &SolverOptions,
    burst: usize,
    problems: &mut Vec<String>,
) -> Result<FleetLayer, String> {
    let config = FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(opts, config);
    let t = tr
        .span("Fleet::admit", NO_REQUEST, |_| fleet.admit("probe", a, 1.0))
        .map_err(err)?;
    let bs: Vec<Vec<f64>> = (0..burst).map(|_| rng.rhs(a.n())).collect();
    for b in &bs {
        let at = fleet.makespan();
        fleet.submit_at(t, b.clone(), at).map_err(err)?;
    }
    let from = tr.spans().len();
    let mut served = 0;
    while served < burst {
        let done = tr
            .span("Fleet::step", NO_REQUEST, |_| fleet.step())
            .map_err(err)?;
        for d in &done {
            if !panel_ok(a, &d.x, &bs[d.id as usize]) {
                problems.push("probe fleet residual too large".to_string());
            }
        }
        served += done.len();
    }
    let cm = fleet.cache_metrics();
    Ok(FleetLayer {
        step_ms: ms(tr, from, "Fleet::step"),
        plan_hits: cm.plan_hits,
        admissions: cm.plan_hits + cm.plan_misses,
        evictions: cm.factor_evictions,
        rematerializations: cm.rematerializations,
        served: served as u64,
    })
}

/// The per-layer metrics of a traced run, in the order `BENCHMARK.json`
/// lists them.
pub fn metrics(l: &Layers, x: &Extras) -> Vec<Metric> {
    let c = &l.counts;
    let d = c.dense.unwrap_or_default();
    let factor_gflops = c.flops as f64 / (l.factor_ms * 1e-3) / 1e9;
    let m = |name, value, unit| Metric { name, value, unit };
    let ratio = |num: f64, den: u64| num / den.max(1) as f64;
    vec![
        m("sparse.gen_ms", x.gen_ms, "ms"),
        m("ordering.wall_ms", l.ordering_ms, "ms"),
        m("symbolic.wall_ms", l.symbolic_ms, "ms"),
        m("symbolic.supernodes", c.supernodes as f64, "count"),
        m("symbolic.l_nnz", c.l_nnz as f64, "count"),
        m("symbolic.flops", c.flops as f64, "flop"),
        m(
            "symbolic.avg_sn_width",
            ratio(c.columns as f64, c.supernodes),
            "columns",
        ),
        m("taskgraph.slice_ms", l.taskgraph_ms, "ms"),
        m("taskgraph.tasks", c.tasks as f64, "count"),
        m("plan.wall_ms", l.plan_ms, "ms"),
        m(
            "plan.self_ms",
            l.plan_ms - l.ordering_ms - l.symbolic_ms - l.taskgraph_ms,
            "ms",
        ),
        m("factor.wall_ms", l.factor_ms, "ms"),
        m("factor.model_ms", l.factor_model_ms, "ms"),
        m(
            "factor.model_ratio",
            l.factor_ms / l.factor_model_ms,
            "ratio",
        ),
        m("factor.gflops", factor_gflops, "GF/s"),
        m(
            "factor.roofline_frac",
            factor_gflops / x.peak_gflops,
            "ratio",
        ),
        m("dense.gemm_calls", d.gemm as f64, "count"),
        m("dense.syrk_calls", d.syrk as f64, "count"),
        m("dense.trsm_calls", d.trsm as f64, "count"),
        m("dense.potrf_calls", d.potrf as f64, "count"),
        m("dense.peak_gflops", x.peak_gflops, "GF/s"),
        m("pgas.rgets", l.rgets as f64, "count"),
        m("pgas.rpcs", l.rpcs as f64, "count"),
        m("pgas.bytes", l.bytes as f64, "B"),
        m("pgas.run_us", x.run_us, "us"),
        m("trisolve.wall_ms", l.trisolve_ms, "ms"),
        m("trisolve.panel16_ms", l.panel16_ms, "ms"),
        m("trisolve.model_ms", l.trisolve_model_ms, "ms"),
        m(
            "trisolve.model_ratio",
            l.trisolve_ms / l.trisolve_model_ms,
            "ratio",
        ),
        m("trisolve.vs_seq", l.trisolve_ms / l.seq_solve_ms, "ratio"),
        m("service.self_ms", l.batch1_ms - l.trisolve_ms, "ms"),
        m("fleet.step_ms", x.fleet.step_ms, "ms"),
        m(
            "fleet.plan_hit_ratio",
            ratio(x.fleet.plan_hits as f64, x.fleet.admissions),
            "ratio",
        ),
        m("fleet.evictions", x.fleet.evictions as f64, "count"),
        m(
            "fleet.rematerializations",
            x.fleet.rematerializations as f64,
            "count",
        ),
        m(
            "fleet.remat_ratio",
            ratio(x.fleet.rematerializations as f64, x.fleet.served),
            "ratio",
        ),
        m(
            "driver.self_ms",
            l.driver_ms - (l.plan_ms + l.factor_ms + l.trisolve_ms),
            "ms",
        ),
        m("ref.mf_factor_ms", l.mf_factor_ms, "ms"),
        m("ref.seq_solve_ms", l.seq_solve_ms, "ms"),
        m(
            "trace.overhead_pct",
            (x.traced_p50_ms / x.untraced_p50_ms - 1.0) * 100.0,
            "%",
        ),
        m("trace.child_cover_min", x.child_cover_min, "ratio"),
    ]
}
