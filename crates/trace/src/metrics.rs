//! Serving-layer metrics: counters, virtual-time latency distributions and
//! amortization figures for a solver session, exportable as JSON (same
//! hand-rolled, zero-dependency style as the Chrome-trace exporter).
//!
//! The `sympack-fleet` fleet records one [`ServiceMetrics`] per tenant:
//! jobs admitted/rejected/served, how many jobs each panel solve coalesced,
//! per-job virtual-time latency (p50/p99), and the amortized cost per job —
//! the session's one factorization plus all panel solves divided by jobs
//! served, against the one-shot cost a fresh factor-and-solve would pay per
//! job.

/// A sample distribution with exact quantiles (samples are kept; serving
/// sessions record thousands of jobs, not millions).
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// New empty distribution.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Exact quantile `q ∈ [0, 1]` by nearest-rank on the sorted samples
    /// (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round()) as usize;
        sorted[idx]
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// JSON object with count/mean/p50/p99/max.
    pub fn to_json(&self) -> String {
        crate::json::Obj::new()
            .u64("count", self.count() as u64)
            .f64("mean", self.mean())
            .f64("p50", self.p50())
            .f64("p99", self.p99())
            .f64("max", self.max())
            .finish()
    }
}

/// Per-session serving metrics. All times are virtual seconds from the
/// solver's cost model; wall-clock milliseconds appear only in the
/// explicitly named `*_wall_ms` fields.
#[derive(Debug, Default, Clone)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs rejected by admission control (queue full).
    pub jobs_rejected: u64,
    /// Jobs completed by a panel solve.
    pub jobs_served: u64,
    /// Panel solves executed.
    pub batches: u64,
    /// Jobs that shared a panel solve with at least one other job
    /// (Σ max(batch − 1, 0) over batches) — nonzero means batching coalesced.
    pub coalesced_jobs: u64,
    /// Numeric re-factorizations performed on the session.
    pub refactorizations: u64,
    /// Jobs per batch.
    pub batch_sizes: Histogram,
    /// Per-job virtual-time latency: completion − arrival.
    pub latency: Histogram,
    /// Virtual seconds spent in panel solves (summed).
    pub solve_virtual_total: f64,
    /// Virtual seconds of the session's factorization(s), including
    /// re-factorizations.
    pub factor_virtual_total: f64,
    /// Virtual cost of one fresh factorization (the session's first) — the
    /// per-job factor cost an unbatched one-shot driver would pay.
    pub one_shot_factor_cost: f64,
    /// Wall-clock milliseconds of ordering + symbolic analysis (paid once).
    pub analyze_wall_ms: f64,
}

impl ServiceMetrics {
    /// New zeroed metrics.
    pub fn new() -> Self {
        ServiceMetrics::default()
    }

    /// Record one executed batch: `size` jobs served by one panel solve of
    /// virtual makespan `solve_time`.
    pub fn record_batch(&mut self, size: usize, solve_time: f64) {
        self.batches += 1;
        self.jobs_served += size as u64;
        self.coalesced_jobs += (size as u64).saturating_sub(1);
        self.batch_sizes.record(size as f64);
        self.solve_virtual_total += solve_time;
    }

    /// Amortized virtual cost per served job: all factorizations plus all
    /// panel solves, divided by jobs served (0 when no jobs ran).
    pub fn amortized_cost_per_job(&self) -> f64 {
        if self.jobs_served == 0 {
            0.0
        } else {
            (self.factor_virtual_total + self.solve_virtual_total) / self.jobs_served as f64
        }
    }

    /// Virtual cost per job of the one-shot alternative: a fresh
    /// factorization plus a mean solve for every job.
    pub fn one_shot_cost_per_job(&self) -> f64 {
        let mean_solve = if self.batches == 0 {
            0.0
        } else {
            self.solve_virtual_total / self.batches as f64
        };
        self.one_shot_factor_cost + mean_solve
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        crate::json::Obj::new()
            .u64("jobs_submitted", self.jobs_submitted)
            .u64("jobs_rejected", self.jobs_rejected)
            .u64("jobs_served", self.jobs_served)
            .u64("batches", self.batches)
            .u64("coalesced_jobs", self.coalesced_jobs)
            .u64("refactorizations", self.refactorizations)
            .raw("batch_sizes", &self.batch_sizes.to_json())
            .raw("latency_virtual_secs", &self.latency.to_json())
            .f64("solve_virtual_total", self.solve_virtual_total)
            .f64("factor_virtual_total", self.factor_virtual_total)
            .f64("amortized_cost_per_job", self.amortized_cost_per_job())
            .f64("one_shot_cost_per_job", self.one_shot_cost_per_job())
            .f64("analyze_wall_ms", self.analyze_wall_ms)
            .finish()
    }
}

/// Fleet-level cache counters: the symbolic plan cache (a hit skips
/// ordering + analysis + mapping for a pattern already seen) and the LRU
/// numeric-factor cache that evicts cold tenants' factors under a byte
/// budget. Byte figures are steady-state (sampled after budget
/// enforcement), so `resident_high_water_bytes ≤ factor_budget_bytes`
/// whenever every single factor fits the budget on its own.
#[derive(Debug, Default, Clone)]
pub struct FleetCacheMetrics {
    /// Tenant admissions whose pattern (under identical analysis/layout
    /// options) was already in the plan cache — no analysis ran.
    pub plan_hits: u64,
    /// Tenant admissions that had to run ordering + analysis + mapping.
    pub plan_misses: u64,
    /// Numeric factors dropped by the LRU under budget pressure.
    pub factor_evictions: u64,
    /// Evicted factors rebuilt on demand before a solve.
    pub rematerializations: u64,
    /// Configured byte budget for resident numeric factors (0 = unlimited).
    pub factor_budget_bytes: u64,
    /// Bytes of currently resident numeric factors.
    pub resident_bytes: u64,
    /// Largest steady-state resident total observed.
    pub resident_high_water_bytes: u64,
}

impl FleetCacheMetrics {
    /// Plan-cache hit rate over all admissions (0 when none).
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            0.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        crate::json::Obj::new()
            .u64("plan_hits", self.plan_hits)
            .u64("plan_misses", self.plan_misses)
            .f64("plan_hit_rate", self.plan_hit_rate())
            .u64("factor_evictions", self.factor_evictions)
            .u64("rematerializations", self.rematerializations)
            .u64("factor_budget_bytes", self.factor_budget_bytes)
            .u64("resident_bytes", self.resident_bytes)
            .u64("resident_high_water_bytes", self.resident_high_water_bytes)
            .finish()
    }
}

/// One wall-clock measurement of a dense kernel at one problem shape, as
/// recorded by the `kernel_roofline` benchmark.
#[derive(Debug, Clone)]
pub struct KernelSample {
    /// Kernel name (`gemm_nt`, `potrf`, `trsm`, `syrk`, ...).
    pub kernel: String,
    /// Code-path variant (`unpacked`, `packed`, `par`, ...).
    pub variant: String,
    /// Problem shape; unused dimensions are 0.
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Median wall-clock seconds per call.
    pub secs: f64,
    /// Exact flop count of one call.
    pub flops: u64,
    /// Bytes of matrix data touched at least once (operand + result
    /// footprints, not cache-aware traffic).
    pub bytes: u64,
}

impl KernelSample {
    /// Achieved rate in Gflop/s.
    pub fn gflops(&self) -> f64 {
        if self.secs > 0.0 {
            self.flops as f64 / self.secs / 1e9
        } else {
            0.0
        }
    }

    /// Arithmetic intensity in flops per byte of footprint — the x-axis of a
    /// roofline plot.
    pub fn arithmetic_intensity(&self) -> f64 {
        if self.bytes > 0 {
            self.flops as f64 / self.bytes as f64
        } else {
            0.0
        }
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        crate::json::Obj::new()
            .str("kernel", &self.kernel)
            .str("variant", &self.variant)
            .u64("m", self.m as u64)
            .u64("n", self.n as u64)
            .u64("k", self.k as u64)
            .f64("secs", self.secs)
            .u64("flops", self.flops)
            .u64("bytes", self.bytes)
            .f64("gflops", self.gflops())
            .f64("ai", self.arithmetic_intensity())
            .finish()
    }
}

/// A full roofline benchmark run: machine context plus every sample.
/// Serialized to `BENCH_kernels.json` by the `kernel_roofline` binary.
#[derive(Debug, Clone, Default)]
pub struct RooflineReport {
    /// Worker budget of the parallel kernel variants during the run.
    pub threads: usize,
    /// Instruction set the microkernel dispatched to (`avx2+fma`, ...).
    pub isa: String,
    /// All recorded samples, in measurement order.
    pub samples: Vec<KernelSample>,
}

impl RooflineReport {
    /// New empty report.
    pub fn new(threads: usize, isa: &str) -> Self {
        RooflineReport {
            threads,
            isa: isa.to_string(),
            samples: Vec::new(),
        }
    }

    /// Record one sample.
    pub fn push(&mut self, s: KernelSample) {
        self.samples.push(s);
    }

    /// The sample for `(kernel, variant)` at shape `(m, n, k)`, if recorded.
    pub fn find(
        &self,
        kernel: &str,
        variant: &str,
        m: usize,
        n: usize,
        k: usize,
    ) -> Option<&KernelSample> {
        self.samples.iter().find(|s| {
            s.kernel == kernel && s.variant == variant && s.m == m && s.n == n && s.k == k
        })
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut samples = crate::json::Arr::new();
        for s in &self.samples {
            samples.push(s.to_json());
        }
        crate::json::Obj::new()
            .u64("threads", self.threads as u64)
            .str("isa", &self.isa)
            .raw("samples", &samples.finish())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_on_known_samples() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.mean(), 50.5);
        assert_eq!(h.max(), 100.0);
        assert_eq!(h.p50(), 51.0); // nearest rank on 0-based index 49.5 → 50
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn batch_recording_accumulates_coalescing() {
        let mut m = ServiceMetrics::new();
        m.record_batch(1, 0.5);
        m.record_batch(4, 1.0);
        m.record_batch(3, 0.5);
        assert_eq!(m.batches, 3);
        assert_eq!(m.jobs_served, 8);
        assert_eq!(m.coalesced_jobs, 5); // (1-1) + (4-1) + (3-1)
        assert_eq!(m.solve_virtual_total, 2.0);
    }

    #[test]
    fn amortization_beats_one_shot_once_jobs_accumulate() {
        let mut m = ServiceMetrics::new();
        m.factor_virtual_total = 10.0;
        m.one_shot_factor_cost = 10.0;
        for _ in 0..8 {
            m.record_batch(4, 1.0);
        }
        // Amortized: (10 + 8) / 32 ≈ 0.56 ≪ one-shot 10 + 1 = 11.
        assert!(m.amortized_cost_per_job() < 1.0);
        assert!(m.one_shot_cost_per_job() > 10.0);
    }

    #[test]
    fn kernel_sample_rates_and_json() {
        let s = KernelSample {
            kernel: "gemm_nt".into(),
            variant: "packed".into(),
            m: 256,
            n: 256,
            k: 256,
            secs: 0.001,
            flops: 2 * 256 * 256 * 256,
            bytes: 8 * 3 * 256 * 256 + 8 * 256 * 256,
        };
        assert!((s.gflops() - 33.554432).abs() < 1e-9);
        assert!(s.arithmetic_intensity() > 10.0);
        let json = s.to_json();
        assert!(json.contains("\"kernel\":\"gemm_nt\""));
        assert!(json.contains("\"variant\":\"packed\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn roofline_report_find_and_json_balance() {
        let mut r = RooflineReport::new(4, "avx2+fma");
        r.push(KernelSample {
            kernel: "potrf".into(),
            variant: "blocked".into(),
            m: 0,
            n: 128,
            k: 0,
            secs: 0.5,
            flops: 1000,
            bytes: 800,
        });
        r.push(KernelSample {
            kernel: "potrf".into(),
            variant: "blocked".into(),
            m: 0,
            n: 256,
            k: 0,
            secs: 0.25,
            flops: 2000,
            bytes: 1600,
        });
        assert!(r.find("potrf", "blocked", 0, 256, 0).is_some());
        assert!(r.find("potrf", "naive", 0, 256, 0).is_none());
        let json = r.to_json();
        assert!(json.contains("\"threads\":4"));
        assert!(json.contains("\"isa\":\"avx2+fma\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn zero_time_and_zero_bytes_are_guarded() {
        let s = KernelSample {
            kernel: "x".into(),
            variant: "y".into(),
            m: 0,
            n: 0,
            k: 0,
            secs: 0.0,
            flops: 10,
            bytes: 0,
        };
        assert_eq!(s.gflops(), 0.0);
        assert_eq!(s.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn fleet_cache_metrics_rates_and_json() {
        let mut c = FleetCacheMetrics::default();
        assert_eq!(c.plan_hit_rate(), 0.0);
        c.plan_hits = 3;
        c.plan_misses = 1;
        c.factor_evictions = 5;
        c.resident_bytes = 1024;
        c.resident_high_water_bytes = 2048;
        assert_eq!(c.plan_hit_rate(), 0.75);
        let json = c.to_json();
        assert!(json.contains("\"plan_hits\":3"));
        assert!(json.contains("\"factor_evictions\":5"));
        assert!(json.contains("\"resident_high_water_bytes\":2048"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_export_is_balanced_and_contains_fields() {
        let mut m = ServiceMetrics::new();
        m.jobs_submitted = 7;
        m.jobs_rejected = 2;
        m.record_batch(5, 0.25);
        m.latency.record(1.5);
        let json = m.to_json();
        assert!(json.contains("\"jobs_submitted\":7"));
        assert!(json.contains("\"coalesced_jobs\":4"));
        assert!(json.contains("\"latency_virtual_secs\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
