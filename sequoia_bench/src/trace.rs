//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls the benchmark makes into the engine's
//! public API (parse, plan, execute, flush, load, index build, commit),
//! never inside the engine. They stay in memory and are written once, at
//! the end of a traced run, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Counter deltas attached to a span (registry name → change).
pub type Deltas = BTreeMap<String, i64>;

/// One recorded span.
pub struct Span {
    pub id: usize,
    /// Index of the enclosing span, `None` for an op's root span.
    pub parent: Option<usize>,
    /// The op (statement execution or Q1 load) the span belongs to.
    pub op: u64,
    /// Layer the span is charged to for self-time accounting.
    pub layer: &'static str,
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub counters: Deltas,
}

/// In-memory span store. When disabled every call is a no-op, so the
/// same op code runs in traced and untraced passes.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, enabled: false, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Records a finished span and returns its id (for children).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        parent: Option<usize>,
        op: u64,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        counters: Deltas,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name: name.into(),
            start: start.duration_since(self.epoch),
            end: end.duration_since(self.epoch),
            counters,
        });
        Some(id)
    }

    /// Opens a root span whose end is filled in by [`Tracer::close`];
    /// children recorded in between point at it.
    pub fn open(&mut self, op: u64, name: impl Into<String>, start: Instant) -> Option<usize> {
        self.record(None, op, "bench", name, start, start, Deltas::new())
    }

    pub fn close(&mut self, id: Option<usize>, end: Instant, counters: Deltas) {
        if let Some(id) = id {
            let span = &mut self.spans[id];
            span.end = end.duration_since(self.epoch);
            span.counters = counters;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer: each span's duration minus the part of it its
    /// children cover (children of one span never overlap: the benchmark
    /// has one client thread).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for s in &self.spans {
            let own = s.end.saturating_sub(s.start).saturating_sub(covered[s.id]);
            *out.entry(s.layer).or_default() += own;
        }
        out
    }

    /// Number of distinct ops with at least one span.
    pub fn traced_ops(&self) -> usize {
        self.spans.iter().map(|s| s.op).collect::<std::collections::BTreeSet<_>>().len()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"op\":{}",
                json_str(&s.name),
                json_str(s.layer),
                s.start.as_secs_f64() * 1e6,
                s.end.saturating_sub(s.start).as_secs_f64() * 1e6,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ",{}:{v}", json_str(k));
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Change of every registry counter between two snapshots (zero changes
/// are left out).
pub fn deltas(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) -> Deltas {
    after
        .iter()
        .filter_map(|(k, &v)| {
            let d = v as i64 - before.get(k).copied().unwrap_or(0) as i64;
            (d != 0).then(|| (k.clone(), d))
        })
        .collect()
}

/// Sum of the registry entries named `name`, alone or per node
/// (`node<i>.<name>`).
pub fn sum_named<V: Copy + Into<i128>>(counters: &BTreeMap<String, V>, name: &str) -> i128 {
    counters
        .iter()
        .filter(|(k, _)| k.strip_suffix(name).is_some_and(|p| p.is_empty() || p.ends_with('.')))
        .map(|(_, &v)| v.into())
        .sum()
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(t0);
        t.set_enabled(true);
        let root = t.open(1, "op", at(0));
        t.record(root, 1, "exec", "execute", at(2), at(7), Deltas::new());
        t.close(root, at(10), Deltas::new());
        let by = t.self_time_by_layer();
        assert_eq!(by["bench"], Duration::from_millis(5));
        assert_eq!(by["exec"], Duration::from_millis(5));
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn sum_named_adds_per_node_counters_only() {
        let c: BTreeMap<String, u64> =
            [("node0.wal.bytes", 3), ("node1.wal.bytes", 4), ("xwal.bytes", 9)]
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
        assert_eq!(sum_named(&c, "wal.bytes"), 7);
        assert_eq!(sum_named(&c, "xwal.bytes"), 9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        assert!(t.open(1, "op", t0).is_none());
        assert!(t.spans().is_empty());
    }
}
