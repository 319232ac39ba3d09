//! `fleet_mix`: a two-shard `Fleet` (one rank per shard) hosting eight
//! tenants on three sparsity patterns, under a factor budget of 60% of the
//! summed factor demand. The client submits bursts of eight requests, dealt
//! from a seeded shuffle of a Zipf-proportioned deck, and calls
//! `Fleet::step` until the burst drains.

use std::time::Instant;

use sympack_fleet::{Fleet, FleetConfig, TenantId};
use sympack_service::Session;
use sympack_sparse::gen::{bone_like, flan_like, thermal_like};
use sympack_sparse::SparseSym;

use crate::probe::{self, Extras, FleetLayer, Layers};
use crate::serve::session_counts;
use crate::spans::Tracer;
use crate::{
    err, median, min_request_coverage, panel_ok, quantile, repeat_setup, request_loop,
    solver_options, Counts, Rng, RunConfig, Scale, WorkloadRun,
};

const TENANTS: usize = 8;
const BURST: usize = 8;
/// Pattern of each tenant; tenant `k` of pattern `p` is `PATTERN_OF[k] == p`.
const PATTERN_OF: [usize; TENANTS] = [0, 1, 2, 0, 1, 2, 0, 1];
/// Share of the summed factor demand the fleet may keep resident.
const BUDGET_SHARE: f64 = 0.6;

fn patterns(scale: Scale) -> [SparseSym; 3] {
    match scale {
        Scale::Full => [
            bone_like(10, 10, 10),
            flan_like(14, 14, 14),
            thermal_like(80, 80, 0.35, 20230),
        ],
        Scale::Tiny => [
            bone_like(4, 4, 4),
            flan_like(6, 6, 6),
            thermal_like(20, 20, 0.35, 20230),
        ],
    }
}

/// `a` with every value multiplied by `s` (same pattern, still SPD).
fn scaled(a: &SparseSym, s: f64) -> SparseSym {
    let n = a.n();
    let mut rows = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for c in 0..n {
        rows.extend_from_slice(a.col_rows(c));
        vals.extend(a.col_values(c).iter().map(|v| v * s));
    }
    SparseSym::from_parts(n, a.col_ptr().to_vec(), rows, vals)
}

/// Requests per tenant in one deck of eight bursts: Zipf (s = 1) shares of
/// 64 requests, tenant `k` the `k+1`-th most popular. Each pattern's share
/// of the load is therefore fixed; the seed shuffles the deck, which sets
/// the burst order and what each burst holds.
const DECK: [usize; TENANTS] = [24, 12, 8, 6, 5, 4, 3, 2];

/// The tenant of every request in one shuffled deck.
fn shuffled_deck(rng: &mut Rng) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..TENANTS)
        .flat_map(|k| std::iter::repeat_n(k, DECK[k]))
        .collect();
    for i in (1..deck.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        deck.swap(i, j);
    }
    deck
}

pub fn run(cfg: &RunConfig) -> Result<WorkloadRun, String> {
    let opts = solver_options(1);
    let mut rng = Rng::new(cfg.seed, 3);
    // Fixed value scales: tenants of one pattern share its structure, not
    // its values. The seed does not touch the matrices.
    let scales: Vec<f64> = (0..TENANTS)
        .map(|k| 1.0 + k as f64 / TENANTS as f64)
        .collect();

    // The budget is benchmark configuration: the summed factor bytes of
    // the eight tenants, measured once before the timed set-up.
    let demand: u64 = {
        let bytes: Vec<u64> = patterns(cfg.scale)
            .iter()
            .map(|a| Session::new(a, &opts).map(|s| s.factor_bytes()))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        PATTERN_OF.iter().map(|&p| bytes[p]).sum()
    };
    let config = FleetConfig {
        shards: 2,
        factor_budget_bytes: (demand as f64 * BUDGET_SHARE) as u64,
        ..FleetConfig::default()
    };

    let mut gen_ms = Vec::new();
    let ((mats, mut fleet, tenants), setup_s) = repeat_setup(cfg.scale, || {
        let t0 = Instant::now();
        let base = patterns(cfg.scale);
        gen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let mats: Vec<SparseSym> = (0..TENANTS)
            .map(|k| scaled(&base[PATTERN_OF[k]], scales[k]))
            .collect();
        let mut fleet = Fleet::new(&opts, config);
        let tenants: Vec<TenantId> = mats
            .iter()
            .enumerate()
            .map(|(k, a)| fleet.admit(&format!("tenant-{k}"), a, 1.0))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        Ok((mats, fleet, tenants))
    })?;
    let (plan_hits, admissions) = {
        let cm = fleet.cache_metrics();
        (cm.plan_hits, cm.plan_hits + cm.plan_misses)
    };
    // One tenant per pattern carries the pattern's plan.
    let owners: Vec<usize> = (0..3)
        .map(|p| {
            PATTERN_OF
                .iter()
                .position(|&q| q == p)
                .expect("every pattern has a tenant")
        })
        .collect();
    let counts = owners
        .iter()
        .map(|&k| session_counts(fleet.session(tenants[k])))
        .fold(Counts::default(), |acc, c| acc + c);
    let mut problems = Vec::new();

    // One burst: submit BURST requests, step until all complete. Every
    // request's latency runs from the burst's submission to the return of
    // the step that completed it.
    let mut deck = Vec::new();
    let mut tr = Tracer::new(cfg.trace);
    let (untraced, traced) = request_loop(cfg, &mut tr, |i, tr, ledger| {
        if deck.is_empty() {
            deck = shuffled_deck(&mut rng);
        }
        let jobs: Vec<(usize, Vec<f64>)> = deck
            .split_off(deck.len() - BURST)
            .into_iter()
            .map(|k| (k, rng.rhs(mats[k].n())))
            .collect();
        let t0 = Instant::now();
        let res = tr.span(
            "burst",
            i,
            |tr| -> Result<Vec<(usize, Vec<f64>, Instant)>, String> {
                let mut ids = Vec::with_capacity(BURST);
                for (k, b) in &jobs {
                    let at = fleet.makespan();
                    let id = tr
                        .span("Fleet::submit_at", i, |_| {
                            fleet.submit_at(tenants[*k], b.clone(), at)
                        })
                        .map_err(err)?;
                    ids.push((*k, id));
                }
                let mut done = Vec::with_capacity(BURST);
                while done.len() < BURST {
                    let out = tr.span("Fleet::step", i, |_| fleet.step()).map_err(err)?;
                    let end = Instant::now();
                    if out.is_empty() {
                        return Err("Fleet::step made no progress".to_string());
                    }
                    for c in out {
                        let j = ids
                            .iter()
                            .position(|&(k, id)| tenants[k] == c.tenant && id == c.id)
                            .ok_or("completion of an unknown request")?;
                        tr.record("request", i, t0, end);
                        done.push((j, c.x, end));
                    }
                }
                Ok(done)
            },
        );
        ledger.busy += t0.elapsed();
        match res {
            Ok(done) => {
                for (j, x, end) in done {
                    let (k, b) = &jobs[j];
                    ledger.record(end - t0, 1, panel_ok(&mats[*k], &x, b));
                }
            }
            Err(e) => {
                problems.push(format!("burst {i}: {e}"));
                for _ in 0..BURST {
                    ledger.record(t0.elapsed(), 1, false);
                }
            }
        }
    });
    let mut run = WorkloadRun {
        setup_s,
        untraced,
        traced,
        ..WorkloadRun::default()
    };
    if cfg.trace {
        let served = run.untraced.attempted + run.traced.attempted;
        let cm = fleet.cache_metrics();
        let fleet_layer = FleetLayer {
            step_ms: median(&tr.durations_ms("Fleet::step")),
            plan_hits,
            admissions,
            evictions: cm.factor_evictions,
            rematerializations: cm.rematerializations,
            served,
        };
        let child_cover_min =
            min_request_coverage(&tr, |_, r, s| s.parent == r.parent && s.name != "request");
        // Layer probes: one of each pattern.
        let mut layers: Option<Layers> = None;
        for &k in &owners {
            let l = probe::layers(
                &mut tr,
                &mut rng,
                &mats[k],
                &opts,
                None,
                cfg.probe_reps(),
                &mut problems,
            )?;
            layers = Some(layers.map_or(l, |acc| acc + l));
        }
        let layers = layers.expect("three patterns were probed");
        if !counts.agrees(&layers.counts) {
            problems.push(format!(
                "exact counts differ between the fleet sessions {counts:?} and the layer calls {:?}",
                layers.counts
            ));
        }
        let extras = Extras {
            gen_ms: median(&gen_ms),
            run_us: probe::runtime_run_us(&mut tr, &opts),
            peak_gflops: probe::peak_gflops(&mut tr),
            fleet: fleet_layer,
            untraced_p50_ms: quantile(&run.untraced.lat_ms, 0.5),
            traced_p50_ms: quantile(&run.traced.lat_ms, 0.5),
            child_cover_min,
        };
        run.layers = probe::metrics(&layers, &extras);
        run.tracer = Some(tr);
    }
    run.problems = problems;
    Ok(run)
}
