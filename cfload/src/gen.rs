//! The load generator: two threads, each holding at most one
//! connection, driving `POST /jobs` + long-poll `GET /jobs/<id>`
//! exchanges in an open loop (seeded Poisson arrivals, latency from the
//! intended send time) or a closed loop (back to back).
//!
//! One exception to "latency from the intended send time": when a free
//! thread's sleep overshoots the due time (a host-scheduling wake-up
//! delay — on a small VM this reaches ~10 ms at p99 even when idle), the
//! job is timed from the wake-up, and the overshoot is reported as the
//! generator's lateness instead.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cf_runtime::fault::fnv1a;
use cf_runtime::serve::verify_record_json;
use cf_runtime::trace::{Attribution, ATTRIBUTION_HEADER};

use crate::http::{exchange, Reply};
use crate::procs::stop_requested;
use crate::spans::{Recorder, Span};
use crate::specs::{body, JobList, Rng};

/// Load-generating threads (and so concurrent connections).
pub const THREADS: usize = 2;

/// How long one job may take, submit to verified record, before it
/// counts as a timeout.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// Per-exchange socket timeout; a long-poll asks the server for at most
/// [`POLL_S`] seconds, well inside it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
const POLL_S: u64 = 5;

/// Where the load goes.
pub struct Target<'a> {
    pub addr: String,
    pub list: &'a JobList,
    bodies: Vec<String>,
    /// Scrape `GET /metrics` once per this interval (fleet only).
    pub scrape_every: Option<Duration>,
}

impl<'a> Target<'a> {
    pub fn new(addr: &str, list: &'a JobList, scrape_every: Option<Duration>) -> Target<'a> {
        let bodies = list.lines.iter().map(|l| body(l)).collect();
        Target { addr: addr.to_string(), list, bodies, scrape_every }
    }
}

/// One job as the client saw it.
pub struct JobOutcome {
    /// Index into the job list's spec table.
    pub spec: usize,
    pub id: Option<u64>,
    /// The record as served (compared with the reference afterwards).
    pub record: Option<String>,
    /// `Err` for non-2xx, shed, timeout, transport or digest failure.
    pub result: Result<(), String>,
    /// Intended send → verified record (open loop); send → record
    /// (closed loop).
    pub latency_us: f64,
    /// Actual send → verified record.
    pub sent_latency_us: f64,
    /// `POST /jobs` → `202`.
    pub submit_us: f64,
    /// When the record was in hand (or the job failed).
    pub done: Instant,
    pub attribution: Option<Attribution>,
}

/// Everything one phase produced.
pub struct Phase {
    pub jobs: Vec<JobOutcome>,
    /// `(duration µs, ok)` per `/metrics` scrape.
    pub scrapes: Vec<(f64, bool)>,
    /// How late a free generator thread woke for a scheduled send, µs.
    pub late_us: Vec<f64>,
    pub start: Instant,
    pub wall: Duration,
    pub spans: Vec<Span>,
}

impl Phase {
    fn new(start: Instant) -> Phase {
        Phase {
            jobs: Vec::new(),
            scrapes: Vec::new(),
            late_us: Vec::new(),
            start,
            wall: Duration::ZERO,
            spans: Vec::new(),
        }
    }
}

enum Event {
    Job(usize),
    Scrape,
}

fn digest_ok(reply: &Reply) -> bool {
    reply.header("X-CF-Digest") == Some(format!("{:016x}", fnv1a(reply.body.as_bytes())).as_str())
}

/// Submit, long-poll, verify. Never panics; every failure is recorded.
pub fn run_job(t: &Target, pos: usize, intended: Instant, rec: &mut Recorder) -> JobOutcome {
    let spec = t.list.jobs[pos];
    let sent = Instant::now();
    let mut out = JobOutcome {
        spec,
        id: None,
        record: None,
        result: Ok(()),
        latency_us: 0.0,
        sent_latency_us: 0.0,
        submit_us: 0.0,
        done: sent,
        attribution: None,
    };
    let mut exchanges: Vec<(&str, Instant, Instant)> = Vec::new();
    let result = (|| -> Result<(), String> {
        let reply = exchange(&t.addr, "POST", "/jobs", Some(&t.bodies[spec]), IO_TIMEOUT)?;
        let acked = Instant::now();
        exchanges.push(("http.submit", sent, acked));
        out.submit_us = (acked - sent).as_secs_f64() * 1e6;
        if reply.status != 202 {
            return Err(format!("submit answered {}: {}", reply.status, reply.body));
        }
        if !digest_ok(&reply) {
            return Err("submit reply failed its X-CF-Digest".to_string());
        }
        let id = serde_json::from_str(&reply.body)
            .ok()
            .and_then(|v| v.get("id")?.as_u64())
            .ok_or_else(|| format!("submit reply without an id: {}", reply.body))?;
        out.id = Some(id);
        let path = format!("/jobs/{id}?timeout_s={POLL_S}");
        loop {
            if sent.elapsed() > JOB_DEADLINE || stop_requested() {
                return Err(format!("job {id} timed out"));
            }
            let start = Instant::now();
            let reply = exchange(&t.addr, "GET", &path, None, IO_TIMEOUT)?;
            exchanges.push(("http.poll", start, Instant::now()));
            match reply.status {
                200 => {
                    if !digest_ok(&reply) {
                        return Err(format!("job {id}: record failed its X-CF-Digest"));
                    }
                    if !verify_record_json(&reply.body, Some(id)) {
                        return Err(format!("job {id}: record failed its digest field"));
                    }
                    out.attribution = reply.header(ATTRIBUTION_HEADER).and_then(Attribution::parse);
                    out.record = Some(reply.body);
                    return Ok(());
                }
                202 => continue,
                s => return Err(format!("job {id}: poll answered {s}: {}", reply.body)),
            }
        }
    })();
    let done = Instant::now();
    out.done = done;
    out.result = result;
    out.latency_us = done.saturating_duration_since(intended).as_secs_f64() * 1e6;
    out.sent_latency_us = (done - sent).as_secs_f64() * 1e6;
    if rec.enabled() {
        let job = rec.span("job", intended, done, None);
        if sent > intended {
            rec.span("gen.wait", intended, sent, Some(job));
        }
        for (name, a, b) in exchanges {
            rec.span(name, a, b, Some(job));
        }
        // The server's attribution carries durations, not timestamps:
        // lay the components end to end from the send, under the job.
        if let Some(attr) = &out.attribution {
            let mut at = rec.offset_us(sent);
            for (key, us) in attr.iter() {
                if key.ends_with("_us") && key != "total_us" {
                    rec.push(
                        &format!("attr.{}", key.trim_end_matches("_us")),
                        at,
                        us as f64,
                        Some(job),
                    );
                    at += us as f64;
                }
            }
        }
    }
    out
}

fn scrape(t: &Target, rec: &mut Recorder) -> (f64, bool) {
    let start = Instant::now();
    let ok = exchange(&t.addr, "GET", "/metrics", None, IO_TIMEOUT)
        .is_ok_and(|r| r.status == 200 && digest_ok(&r));
    let end = Instant::now();
    rec.span("http.scrape", start, end, None);
    ((end - start).as_secs_f64() * 1e6, ok)
}

/// Seeded Poisson arrivals at `rate`/s for the jobs at positions
/// `jobs`, plus a `/metrics` scrape at every whole `scrape_every`.
fn schedule(
    rng: &mut Rng,
    rate: f64,
    jobs: std::ops::Range<usize>,
    scrape_every: Option<Duration>,
) -> Vec<(Duration, Event)> {
    let mut events = Vec::new();
    let mut at = 0.0f64;
    for pos in jobs {
        at += -(1.0 - rng.unit()).ln() / rate;
        events.push((Duration::from_secs_f64(at), Event::Job(pos)));
    }
    if let Some(every) = scrape_every {
        let mut s = every;
        while s.as_secs_f64() < at {
            events.push((s, Event::Scrape));
            s += every;
        }
    }
    events.sort_by_key(|(d, _)| *d);
    events
}

/// Open loop: the jobs at `jobs` arrive as a seeded Poisson process at
/// `rate`/s. A job whose time comes while both threads are busy waits,
/// and that wait counts toward its latency.
pub fn open_loop(
    t: &Target,
    rng: &mut Rng,
    rate: f64,
    jobs: std::ops::Range<usize>,
    traced: bool,
    monitor: &mut dyn FnMut(),
) -> Phase {
    let events = schedule(rng, rate, jobs, t.scrape_every);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(20);
    drive(traced, t0, monitor, |rec, phase| loop {
        if stop_requested() {
            break;
        }
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some((due, event)) = events.get(i) else { break };
        let due_at = t0 + *due;
        let now = Instant::now();
        // A thread that was busy at the due time sends late because the
        // system under test held it: that wait counts toward latency. A
        // free thread that wakes late from its own sleep is generator
        // (or host scheduling) lateness: reported, not charged.
        let mut intended = due_at;
        if now < due_at {
            std::thread::sleep(due_at - now);
            let woke = Instant::now();
            phase.late_us.push(woke.saturating_duration_since(due_at).as_secs_f64() * 1e6);
            intended = woke;
        }
        match event {
            Event::Job(pos) => phase.jobs.push(run_job(t, *pos, intended, rec)),
            Event::Scrape => phase.scrapes.push(scrape(t, rec)),
        }
    })
}

/// Closed loop: both threads send the jobs at `jobs` back to back
/// until `seconds` pass or the range runs out; thread 0 also scrapes.
pub fn closed_loop(
    t: &Target,
    jobs: std::ops::Range<usize>,
    seconds: f64,
    traced: bool,
    monitor: &mut dyn FnMut(),
) -> Phase {
    let next = AtomicUsize::new(jobs.start);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    drive(traced, t0, monitor, |rec, phase| {
        let mut last_scrape = t0;
        while Instant::now() < end && !stop_requested() {
            if let (Some(every), 0) = (t.scrape_every, rec.tid()) {
                if last_scrape.elapsed() >= every {
                    last_scrape = Instant::now();
                    phase.scrapes.push(scrape(t, rec));
                }
            }
            let pos = next.fetch_add(1, Ordering::SeqCst);
            if pos >= jobs.end {
                break;
            }
            phase.jobs.push(run_job(t, pos, Instant::now(), rec));
        }
    })
}

/// Runs `body` on [`THREADS`] scoped threads and merges their results;
/// meanwhile the calling thread runs `monitor` every 50 ms (it samples
/// `/proc` and opens no connection).
fn drive<F>(traced: bool, t0: Instant, monitor: &mut dyn FnMut(), body: F) -> Phase
where
    F: Fn(&mut Recorder, &mut Phase) + Sync,
{
    let start = Instant::now();
    let parts: Vec<(Recorder, Phase)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let body = &body;
                s.spawn(move || {
                    let mut rec = Recorder::new(traced, t0, tid as u64);
                    let mut phase = Phase::new(t0);
                    body(&mut rec, &mut phase);
                    (rec, phase)
                })
            })
            .collect();
        while !handles.iter().all(|h| h.is_finished()) {
            monitor();
            std::thread::sleep(Duration::from_millis(50));
        }
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut merged = Phase { wall: start.elapsed(), ..Phase::new(start) };
    for (rec, phase) in parts {
        merged.jobs.extend(phase.jobs);
        merged.scrapes.extend(phase.scrapes);
        merged.late_us.extend(phase.late_us);
        merged.spans.extend(rec.spans);
    }
    merged
}
