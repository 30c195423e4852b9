//! Client-side spans for the traced run: kept in memory per thread,
//! merged at the end, written as Chrome-trace JSON, and folded into a
//! per-name table of total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub name: String,
    pub tid: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_us: f64,
    pub dur_us: f64,
}

/// One thread's span buffer. A disabled recorder records nothing and
/// costs one branch per call.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    tid: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant, tid: u64) -> Recorder {
        Recorder { enabled, origin, tid, next: 0, spans: Vec::new() }
    }

    /// Records a span from `start` to `end` and returns its id (0 when
    /// disabled) for children to point at.
    pub fn span(&mut self, name: &str, start: Instant, end: Instant, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        let start_us = start.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.push(name, start_us, end_us - start_us, parent)
    }

    /// Records a span at an explicit offset (µs since the origin), for
    /// server-reported durations laid out under a client span.
    pub fn push(&mut self, name: &str, start_us: f64, dur_us: f64, parent: Option<u64>) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        let id = (self.tid << 40) | self.next;
        self.spans.push(Span {
            name: name.to_string(),
            tid: self.tid,
            id,
            parent,
            start_us,
            dur_us: dur_us.max(0.0),
        });
        id
    }

    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    pub fn tid(&self) -> u64 {
        self.tid
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// The spans as a Chrome Trace Event document (`chrome://tracing`,
/// Perfetto): one complete event per span, parent ids in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            s.tid,
            s.start_us,
            s.dur_us,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("]}");
    out
}

/// Per span name: (count, total µs, self µs). Self time is the span's
/// duration minus the part of its interval its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.start_us + s.dur_us));
        }
    }
    let mut table: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let end = s.start_us + s.dur_us;
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let row = table.entry(s.name.clone()).or_default();
        row.0 += 1;
        row.1 += s.dur_us;
        row.2 += (s.dur_us - covered).max(0.0);
    }
    table
}
