//! Wall-clock benchmark of symPACK-rs through the entry points users call:
//! `SymPack::try_factor_and_solve` (workload `cold_bone`), `Session`
//! (`serve_thermal`) and `Fleet` (`fleet_mix`).
//!
//! One run drives one workload as a closed loop with a single client for a
//! fixed measured time. With tracing off it reports the end-to-end metrics.
//! With tracing on its requests alternate between untraced and traced (the
//! difference is the tracing overhead), then it times every layer by
//! wrapping the benchmark's own calls into that layer's public functions in
//! spans ([`spans::Tracer`]). Nothing inside the solver crates is
//! instrumented. See `README.md` for the workload and metric tables.

pub mod cold;
pub mod fleet;
pub mod probe;
pub mod serve;
pub mod spans;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use sympack::SolverOptions;
use sympack_sparse::SparseSym;

use crate::spans::Tracer;

/// Relative residual above which a solution counts as failed. Dense mode
/// reaches about 1e-16, so any failure is a solver bug.
pub const RESIDUAL_LIMIT: f64 = 1e-10;

/// Smallest share of a traced request span its child spans must cover.
pub const MIN_CHILD_COVER: f64 = 0.9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdBone,
    ServeThermal,
    FleetMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdBone,
        Workload::ServeThermal,
        Workload::FleetMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdBone => "cold_bone",
            Workload::ServeThermal => "serve_thermal",
            Workload::FleetMix => "fleet_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Matrix sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the request loop (shared by alternating untraced
    /// and traced requests when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl RunConfig {
    /// Layer-probe repetitions after the traced loop.
    pub fn probe_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 5,
            Scale::Tiny => 2,
        }
    }

    /// Fewest requests of an end-to-end run: with 100, at least ten
    /// latencies lie beyond `req_p90_ms`.
    pub fn min_requests(&self) -> u64 {
        match self.scale {
            Scale::Full => 100,
            Scale::Tiny => 1,
        }
    }
}

/// Solver options of every run: CPU kernels (the benchmark host has no
/// accelerator), no intra-rank threading, free-running ranks.
pub fn solver_options(ranks: usize) -> SolverOptions {
    SolverOptions {
        n_nodes: 1,
        ranks_per_node: ranks,
        gpu: false,
        intra_parallel: false,
        deterministic: false,
        ..SolverOptions::default()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the solver's generators do.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A right-hand side with entries uniform in `[-1, 1)`.
    pub fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| 2.0 * self.next_f64() - 1.0).collect()
    }
}

/// `‖A·x − b‖₂ / ‖b‖₂`, computed here from the stored lower triangle so the
/// correctness gate does not rely on the code it checks.
pub fn relative_residual(a: &SparseSym, x: &[f64], b: &[f64]) -> f64 {
    let n = a.n();
    let mut r: Vec<f64> = b.iter().map(|v| -v).collect();
    for c in 0..n {
        for (&row, &v) in a.col_rows(c).iter().zip(a.col_values(c)) {
            r[row] += v * x[c];
            if row != c {
                r[c] += v * x[row];
            }
        }
    }
    let norm = |v: &[f64]| v.iter().map(|e| e * e).sum::<f64>().sqrt();
    norm(&r) / norm(b).max(f64::MIN_POSITIVE)
}

/// Whether every column of the `n × k` panel `x` solves the matching
/// column of `b`.
pub fn panel_ok(a: &SparseSym, x: &[f64], b: &[f64]) -> bool {
    let n = a.n();
    x.len() == b.len()
        && x.chunks(n)
            .zip(b.chunks(n))
            .all(|(xc, bc)| relative_residual(a, xc, bc) <= RESIDUAL_LIMIT)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Counts that must repeat exactly for one seed: symbolic structure, task
/// graph size and, where the path exposes them, dense kernel calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub supernodes: u64,
    pub columns: u64,
    pub l_nnz: u64,
    pub flops: u64,
    pub tasks: u64,
    pub dense: Option<DenseCalls>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DenseCalls {
    pub gemm: u64,
    pub syrk: u64,
    pub trsm: u64,
    pub potrf: u64,
}

impl DenseCalls {
    pub fn from_ops(ops: &[sympack_gpu::OpCounts]) -> DenseCalls {
        let mut d = DenseCalls::default();
        for o in ops {
            d.gemm += o.gemm_cpu + o.gemm_gpu;
            d.syrk += o.syrk_cpu + o.syrk_gpu;
            d.trsm += o.trsm_cpu + o.trsm_gpu;
            d.potrf += o.potrf_cpu + o.potrf_gpu;
        }
        d
    }

    fn plus(self, o: DenseCalls) -> DenseCalls {
        DenseCalls {
            gemm: self.gemm + o.gemm,
            syrk: self.syrk + o.syrk,
            trsm: self.trsm + o.trsm,
            potrf: self.potrf + o.potrf,
        }
    }
}

impl Counts {
    /// Symbolic counts of one analysis.
    pub fn symbolic(sf: &sympack_symbolic::SymbolicFactor) -> Counts {
        Counts {
            supernodes: sf.n_supernodes() as u64,
            columns: sf.n() as u64,
            l_nnz: sf.l_nnz as u64,
            flops: sf.flops,
            ..Counts::default()
        }
    }

    /// Whether `other` agrees on every count both sides carry.
    pub fn agrees(&self, other: &Counts) -> bool {
        let sym = |c: &Counts| (c.supernodes, c.columns, c.l_nnz, c.flops, c.tasks);
        sym(self) == sym(other)
            && match (self.dense, other.dense) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// Sum over several problems (fleet patterns); dense calls only when every
/// part has them.
impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, o: Counts) -> Counts {
        Counts {
            supernodes: self.supernodes + o.supernodes,
            columns: self.columns + o.columns,
            l_nnz: self.l_nnz + o.l_nnz,
            flops: self.flops + o.flops,
            tasks: self.tasks + o.tasks,
            dense: match (self.dense, o.dense) {
                (Some(a), Some(b)) => Some(a.plus(b)),
                _ => None,
            },
        }
    }
}

/// Latencies and outcomes of one request loop.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Right-hand sides whose solution passed the residual check.
    pub rhs_ok: u64,
    /// Summed wall time of the timed intervals (residual checks excluded).
    pub busy: Duration,
}

impl Ledger {
    pub fn record(&mut self, latency: Duration, nrhs: usize, ok: bool) {
        self.lat_ms.push(latency.as_secs_f64() * 1e3);
        self.attempted += 1;
        if ok {
            self.rhs_ok += nrhs as u64;
        } else {
            self.failed += 1;
        }
    }

    pub fn rhs_per_s(&self) -> f64 {
        self.rhs_ok as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

/// The request loop of one run: a closed loop with one client, issuing
/// request `i` and waiting for it, until the timed intervals the requests
/// record add up to `cfg.seconds` and an end-to-end run holds
/// [`RunConfig::min_requests`]. With tracing on, requests alternate
/// between untraced and traced, so both kinds see the same machine
/// conditions; traced requests record their spans into `tracer`. Returns the
/// untraced and the traced ledger; each holds at least one request.
pub fn request_loop(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    mut request: impl FnMut(u64, &mut Tracer, &mut Ledger),
) -> (Ledger, Ledger) {
    let mut off = Tracer::new(false);
    let (mut untraced, mut traced) = (Ledger::default(), Ledger::default());
    let min_requests = if cfg.trace { 2 } else { cfg.min_requests() };
    let mut i = 0;
    while i < min_requests || (untraced.busy + traced.busy).as_secs_f64() < cfg.seconds {
        if cfg.trace && i % 2 == 1 {
            request(i, tracer, &mut traced);
        } else {
            request(i, &mut off, &mut untraced);
        }
        i += 1;
    }
    (untraced, traced)
}

/// Smallest child coverage over the spans named `request`.
pub fn min_request_coverage(
    tr: &Tracer,
    covers: impl Fn(usize, &spans::Span, &spans::Span) -> bool,
) -> f64 {
    let spans = tr.spans();
    (0..spans.len())
        .filter(|&i| spans[i].name == "request")
        .map(|i| tr.coverage(i, |_, s| covers(i, &spans[i], s)))
        .fold(1.0, f64::min)
}

/// Run `setup` repeatedly — at least three times and at least two seconds
/// in total (capped at 50) — and return the last result with every
/// repetition's wall seconds.
pub fn repeat_setup<T>(
    scale: Scale,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let (min_reps, min_total) = match scale {
        Scale::Full => (3, 2.0),
        Scale::Tiny => (2, 0.0),
    };
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if (times.len() >= min_reps && times.iter().sum::<f64>() >= min_total) || times.len() >= 50
        {
            return Ok((out, times));
        }
    }
}

/// Peak resident set of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A `Debug`-formatted error as this crate's error string.
pub(crate) fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// What a workload hands back to [`finish`].
#[derive(Debug, Default)]
pub struct WorkloadRun {
    pub setup_s: Vec<f64>,
    /// The end-to-end (untraced) loop.
    pub untraced: Ledger,
    /// The traced loop (empty without tracing).
    pub traced: Ledger,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    pub problems: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

/// Assemble the printed outcome of a run.
pub fn finish(cfg: &RunConfig, run: WorkloadRun) -> Outcome {
    let attempted = run.untraced.attempted + run.traced.attempted;
    let failed = run.untraced.failed + run.traced.failed;
    let mut problems = run.problems;
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} requests failed"));
    }
    let metrics = if cfg.trace {
        let mut m = run.layers;
        m.push(Metric {
            name: "failed_frac",
            value: failed as f64 / attempted.max(1) as f64,
            unit: "ratio",
        });
        m
    } else {
        let l = &run.untraced;
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            problems.push(e);
            0.0
        });
        vec![
            Metric {
                name: "setup_s",
                value: median(&run.setup_s),
                unit: "s",
            },
            Metric {
                name: "req_p50_ms",
                value: quantile(&l.lat_ms, 0.5),
                unit: "ms",
            },
            Metric {
                name: "req_p90_ms",
                value: quantile(&l.lat_ms, 0.9),
                unit: "ms",
            },
            Metric {
                name: "rhs_per_s",
                value: l.rhs_per_s(),
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: rss,
                unit: "MiB",
            },
        ]
    };
    let cover = metrics.iter().find(|m| m.name == "trace.child_cover_min");
    if let Some(c) = cover.filter(|c| c.value < MIN_CHILD_COVER) {
        problems.push(format!(
            "child spans cover only {:.3} of a request span (at least {MIN_CHILD_COVER} required)",
            c.value
        ));
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        problems.push(format!("metric {} is not finite", bad.name));
    }
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    }
}

/// Entry point shared by the binary and the self-test: the outcome, plus
/// the spans of a traced run.
pub fn run(cfg: &RunConfig) -> Result<(Outcome, Option<Tracer>), String> {
    let mut run = match cfg.workload {
        Workload::ColdBone => cold::run(cfg)?,
        Workload::ServeThermal => serve::run(cfg)?,
        Workload::FleetMix => fleet::run(cfg)?,
    };
    let tracer = run.tracer.take();
    Ok((finish(cfg, run), tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_run(cover: f64) -> Outcome {
        let cfg = RunConfig {
            workload: Workload::ServeThermal,
            seed: 1,
            seconds: 1.0,
            trace: true,
            scale: Scale::Tiny,
        };
        let mut untraced = Ledger::default();
        untraced.record(Duration::from_millis(1), 1, true);
        let run = WorkloadRun {
            untraced,
            layers: vec![Metric {
                name: "trace.child_cover_min",
                value: cover,
                unit: "ratio",
            }],
            ..WorkloadRun::default()
        };
        finish(&cfg, run)
    }

    #[test]
    fn low_child_coverage_fails_the_run() {
        assert!(traced_run(0.95).correct);
        let low = traced_run(0.5);
        assert!(!low.correct);
        assert!(low.problems[0].contains("cover"), "{:?}", low.problems);
    }
}
