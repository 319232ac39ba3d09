//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! (name, start, end, parent span, request id). Spans stay in memory and
//! are written out once, after the run. A disabled recorder only runs the
//! wrapped closure, so the end-to-end run pays nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// Request id of spans that belong to no request (layer probes, set-up).
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Record a span whose interval was measured by the caller (a fleet
    /// request completes inside a `step` call, not around one). Its parent
    /// is the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start: at(start),
            end: at(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() * 1e3)
            .collect()
    }

    /// Share of span `idx` covered by the union of the spans `covers`
    /// selects, each clipped to `idx`'s interval.
    pub fn coverage(&self, idx: usize, covers: impl Fn(usize, &Span) -> bool) -> f64 {
        let r = &self.spans[idx];
        let mut iv: Vec<(f64, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|&(j, s)| j != idx && covers(j, s))
            .map(|(_, s)| (s.start.max(r.start), s.end.min(r.end)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        if r.dur() > 0.0 {
            covered / r.dur()
        } else {
            1.0
        }
    }

    /// Every span as one JSON document (Chrome-trace-like field names).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = if s.req == NO_REQUEST {
                "null".to_string()
            } else {
                s.req.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":{req},\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3}}}{sep}",
                s.name,
                s.start * 1e6,
                s.dur() * 1e6
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_and_cover() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(t.coverage(0, |_, s| s.parent == Some(0)) > 0.5);
        assert_eq!(t.durations_ms("inner").len(), 1);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
