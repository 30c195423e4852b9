//! The three workloads: `api-hot` and `fleet-mixed` over HTTP, and the
//! one-shot batch `sweep-cold`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;

use cf_runtime::api::routing_fingerprint;

use crate::gen::{self, JobOutcome, Phase, Target};
use crate::http::exchange;
use crate::layers;
use crate::procs::{self, stop_requested, Server};
use crate::report::{pct, Metrics};
use crate::spans::{self, Recorder, Span};
use crate::specs::{self, FleetMix, JobList, Rng, HOT};

pub struct Ctx {
    pub bin_dir: PathBuf,
    pub run_dir: PathBuf,
    pub out_dir: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Set when the run cannot be trusted (the generator fell behind).
    pub invalid: Option<String>,
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Open-phase jobs per untraced run, so at least ten lie beyond p99.
const MIN_OPEN_JOBS: usize = 1000;
/// Share of the run given to the open phase (the rest is closed loop).
const OPEN_SHARE: f64 = 0.75;
/// Closed-loop jobs generated per second of closed phase (a ceiling on
/// measurable throughput; the phase ends early if the list runs out).
const CLOSED_JOBS_PER_S: f64 = 1500.0;
/// A generator whose wake-up lateness (p99) exceeds this share of the
/// latency limit is itself a bottleneck, and the run is invalid.
const MAX_LATE_SHARE: f64 = 0.5;
const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(30);
const IO: Duration = Duration::from_secs(10);

pub struct HttpWorkload {
    pub name: &'static str,
    /// Open-phase arrivals per second.
    pub rate: f64,
    /// Latency limit for `slo_attain`.
    pub limit_ms: f64,
    pub fleet: bool,
}

pub const API_HOT: HttpWorkload =
    HttpWorkload { name: "api-hot", rate: 50.0, limit_ms: 50.0, fleet: false };
pub const FLEET_MIXED: HttpWorkload =
    HttpWorkload { name: "fleet-mixed", rate: 40.0, limit_ms: 200.0, fleet: true };

/// The running processes of one set-up.
struct Deployment {
    servers: Vec<Server>,
    /// Where clients send (`cfserve` or `cfrouter`).
    front: String,
    backends: Vec<String>,
    /// Each backend's API journal file.
    journals: Vec<PathBuf>,
}

impl Deployment {
    fn router(&self) -> Option<&Server> {
        self.servers.get(self.backends.len())
    }
}

fn deploy(ctx: &Ctx, fleet: bool, rep: usize) -> Result<Deployment, String> {
    let cfserve = ctx.bin_dir.join("cfserve");
    let (n, workers) = if fleet { (2, "1") } else { (1, "2") };
    let mut servers = Vec::new();
    let mut journals = Vec::new();
    for b in 0..n {
        let journal = ctx.run_dir.join(format!("setup{rep}-backend{b}.wal"));
        let args: Vec<String> = ["-", "--status-port", "0", "--workers", workers, "--journal"]
            .iter()
            .map(|s| s.to_string())
            .chain([journal.display().to_string()])
            .collect();
        servers.push(Server::spawn(
            &cfserve,
            &args,
            &ctx.run_dir,
            &format!("setup{rep}-cfserve{b}"),
        )?);
        journals.push(PathBuf::from(format!("{}.api", journal.display())));
    }
    let mut backends = Vec::new();
    for s in &mut servers {
        backends.push(s.wait_announce("cfserve: status on ", ANNOUNCE_TIMEOUT)?);
    }
    let front = if fleet {
        let mut args = Vec::new();
        for b in &backends {
            args.extend(["--backend".to_string(), b.clone()]);
        }
        let mut router = Server::spawn(
            &ctx.bin_dir.join("cfrouter"),
            &args,
            &ctx.run_dir,
            &format!("setup{rep}-cfrouter"),
        )?;
        let addr = router.wait_announce("cfrouter: routing ", ANNOUNCE_TIMEOUT)?;
        servers.push(router);
        addr
    } else {
        backends[0].clone()
    };
    Ok(Deployment { servers, front, backends, journals })
}

/// Submits each hot spec once and checks its record against the
/// reference: after this every hot key is in the plan cache.
fn warm(front: &str, hot: &JobList, tails: &[String]) -> Result<(), String> {
    let target = Target::new(front, hot, None);
    let mut rec = Recorder::new(false, Instant::now(), 0);
    for pos in 0..hot.jobs.len() {
        let out = gen::run_job(&target, pos, Instant::now(), &mut rec);
        out.result.map_err(|e| format!("warm-up: {e}"))?;
        let (Some(id), Some(record)) = (out.id, out.record) else {
            return Err("warm-up job without a record".to_string());
        };
        if record != specs::with_id(id, &tails[hot.jobs[pos]]) {
            return Err(format!("warm-up record differs from the reference: {record}"));
        }
    }
    Ok(())
}

fn get_json(addr: &str, path: &str) -> Result<Value, String> {
    let reply = exchange(addr, "GET", path, None, IO)?;
    if reply.status != 200 {
        return Err(format!("GET {path} answered {}", reply.status));
    }
    serde_json::from_str(&reply.body).map_err(|e| format!("GET {path}: {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn busy_s(v: &Value) -> f64 {
    v.get("workers")
        .and_then(Value::as_array)
        .map_or(0.0, |ws| ws.iter().map(|w| num(w, "busy_s")).sum())
}

fn worker_count(v: &Value) -> usize {
    v.get("workers").and_then(Value::as_array).map_or(0, <[Value]>::len)
}

/// `/stats` of every backend plus the router's, at one instant.
struct Snapshot {
    backends: Vec<Value>,
    router: Option<Value>,
    cpu_s: f64,
}

fn snapshot(dep: &Deployment) -> Result<Snapshot, String> {
    let backends =
        dep.backends.iter().map(|b| get_json(b, "/stats")).collect::<Result<Vec<_>, _>>()?;
    let router = match dep.router() {
        Some(_) => Some(get_json(&dep.front, "/stats")?),
        None => None,
    };
    let cpu_s = dep.servers.iter().filter_map(Server::cpu_s).sum();
    Ok(Snapshot { backends, router, cpu_s })
}

impl Snapshot {
    /// Σ over backends of `key`.
    fn sum(&self, key: &str) -> f64 {
        self.backends.iter().map(|v| num(v, key)).sum()
    }
}

/// One measured stretch: an open phase then a closed phase.
struct Segment {
    open: Phase,
    closed: Phase,
    before: Snapshot,
    after: Snapshot,
    router_cpu_s: f64,
    traced: bool,
}

impl Segment {
    fn jobs(&self) -> impl Iterator<Item = &JobOutcome> {
        self.open.jobs.iter().chain(&self.closed.jobs)
    }

    fn jobs_mut(&mut self) -> impl Iterator<Item = &mut JobOutcome> {
        self.open.jobs.iter_mut().chain(self.closed.jobs.iter_mut())
    }

    fn wall_s(&self) -> f64 {
        (self.open.wall + self.closed.wall).as_secs_f64()
    }

    fn scrapes(&self) -> impl Iterator<Item = &(f64, bool)> {
        self.open.scrapes.iter().chain(&self.closed.scrapes)
    }
}

/// The plan of one segment: open-phase positions, closed-phase start
/// and length in the job list.
struct Plan {
    open: std::ops::Range<usize>,
    closed: std::ops::Range<usize>,
    closed_s: f64,
    traced: bool,
}

/// Peak thread counts — per server, and of this process — updated by
/// the load loops' monitor.
struct Peaks {
    servers: Vec<u64>,
    harness: u64,
}

impl Peaks {
    fn sample(&mut self, dep: &Deployment) {
        for (peak, s) in self.servers.iter_mut().zip(&dep.servers) {
            if let Some((_, threads)) = s.mem_threads() {
                *peak = (*peak).max(threads);
            }
        }
        self.harness = self.harness.max(procs::own_threads());
    }
}

/// The measured stretches of a run as (seconds, traced): the untraced
/// measurement, plus with `--trace 1` a traced one of half its length.
fn segments_of(ctx: &Ctx) -> Vec<(f64, bool)> {
    let mut segments = vec![(ctx.seconds, false)];
    if ctx.trace {
        segments.push((ctx.seconds / 2.0, true));
    }
    segments
}

/// Metrics whose layer exists only behind `cfrouter`: the traced run of
/// `api-hot` takes them from a traced `fleet-mixed` segment.
const FLEET_LAYERS: [&str; 3] = ["router.", "ops.", "metrics."];

/// Length of that fleet segment, as a share of `--seconds`.
const FLEET_SHARE: f64 = 1.0 / 3.0;

pub fn http(ctx: &Ctx, w: &HttpWorkload) -> Result<Outcome, String> {
    let mut out = run_http(ctx, w, &segments_of(ctx))?;
    if ctx.trace && !w.fleet {
        let fleet = run_http(ctx, &FLEET_MIXED, &[(ctx.seconds * FLEET_SHARE, true)])?;
        out.attempted += fleet.attempted;
        out.failed += fleet.failed;
        out.invalid = out.invalid.take().or(fleet.invalid);
        out.notes.push("fleet-mixed segment (router, exec and merged /metrics layers):".into());
        out.notes.extend(fleet.notes);
        for m in out.metrics.0.iter_mut() {
            if FLEET_LAYERS.iter().any(|p| m.name.starts_with(p)) {
                if let Some(f) = fleet.metrics.0.iter().find(|f| f.name == m.name) {
                    *m = f.clone();
                }
            }
        }
    }
    Ok(out)
}

/// Deploys `w`, runs `segments` (seconds, traced) against it and
/// verifies every record.
fn run_http(ctx: &Ctx, w: &HttpWorkload, segment_s: &[(f64, bool)]) -> Result<Outcome, String> {
    // Inputs, all from the seed: the job sequence of every segment, then
    // the arrival times (drawn when each open phase starts).
    let mut rng = Rng::new(ctx.seed, 1);
    let mut list = JobList::default();
    let mut mix = FleetMix::new();
    let mut plans = Vec::new();
    for &(secs, traced) in segment_s {
        let mut open_n = (w.rate * OPEN_SHARE * secs).round() as usize;
        if !traced {
            open_n = open_n.max(MIN_OPEN_JOBS);
        }
        let closed_s = (secs - open_n as f64 / w.rate).max(3.0);
        let closed_n = (CLOSED_JOBS_PER_S * closed_s) as usize;
        let start = list.jobs.len();
        for _ in 0..open_n + closed_n {
            if w.fleet {
                mix.push(&mut rng, &mut list);
            } else {
                specs::hot_job(&mut rng, &mut list);
            }
        }
        let closed = start + open_n..list.jobs.len();
        plans.push(Plan { open: start..start + open_n, closed, closed_s, traced });
    }
    let mut notes = vec![format!(
        "inputs: {} jobs over {} distinct specs, spec-list hash {:016x}",
        list.jobs.len(),
        list.lines.len(),
        list.hash()
    )];

    let mut hot = JobList::default();
    for line in HOT {
        hot.push(line);
    }
    let hot_tails = specs::reference_tails(&hot.lines)?;

    // Set-up, several times: spawn → announce → warm; keep the last.
    let mut setups = Vec::new();
    let mut dep: Option<Deployment> = None;
    for rep in 0..SETUP_REPS {
        drop(dep.take());
        let t0 = Instant::now();
        let d = deploy(ctx, w.fleet, rep)?;
        warm(&d.front, &hot, &hot_tails)?;
        setups.push(t0.elapsed().as_secs_f64());
        dep = Some(d);
    }
    let dep = dep.ok_or("no deployment")?;
    let setup_s = pct(&setups, 0.5);

    let scrape_every = w.fleet.then_some(Duration::from_secs(1));
    let target = Target::new(&dep.front, &list, scrape_every);
    let mut peaks = Peaks { servers: vec![0; dep.servers.len()], harness: 0 };
    let steal0 = procs::steal_ms();
    let mut segments = Vec::new();
    for plan in &plans {
        let before = snapshot(&dep)?;
        let router_cpu0 = dep.router().and_then(Server::cpu_s).unwrap_or(0.0);
        let mut monitor = || peaks.sample(&dep);
        let open =
            gen::open_loop(&target, &mut rng, w.rate, plan.open.clone(), plan.traced, &mut monitor);
        let closed = gen::closed_loop(
            &target,
            plan.closed.clone(),
            plan.closed_s,
            plan.traced,
            &mut monitor,
        );
        let router_cpu_s = dep.router().and_then(Server::cpu_s).unwrap_or(0.0) - router_cpu0;
        let after = snapshot(&dep)?;
        segments.push(Segment { open, closed, before, after, router_cpu_s, traced: plan.traced });
        if stop_requested() {
            return Err("interrupted".to_string());
        }
    }
    let steal_ms = procs::steal_ms() - steal0;
    let rss_kb: u64 = dep.servers.iter().filter_map(|s| s.mem_threads()).map(|(hwm, _)| hwm).sum();

    // No-work round trips and scrapes, outside the timed phases.
    let mut healthz = Vec::new();
    let mut scrapes = Vec::new();
    if ctx.trace {
        for _ in 0..20 {
            let t0 = Instant::now();
            let r = exchange(&dep.front, "GET", "/healthz", None, IO)?;
            if r.status != 200 {
                return Err(format!("/healthz answered {}", r.status));
            }
            healthz.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        for _ in 0..5 {
            let t0 = Instant::now();
            let r = exchange(&dep.front, "GET", "/metrics", None, IO)?;
            if r.status != 200 {
                return Err(format!("/metrics answered {}", r.status));
            }
            scrapes.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let journal_bytes: u64 =
        dep.journals.iter().filter_map(|p| fs::metadata(p).ok()).map(|m| m.len()).sum();
    let ring_names = dep.backends.clone();
    drop(dep);

    // Every record must equal the in-process rendering of its spec.
    let used: BTreeSet<usize> = segments.iter().flat_map(|s| s.jobs().map(|j| j.spec)).collect();
    let used_lines: Vec<String> = used.iter().map(|&i| list.lines[i].clone()).collect();
    let tails: BTreeMap<usize, String> =
        used.iter().copied().zip(specs::reference_tails(&used_lines)?).collect();
    for seg in &mut segments {
        for job in seg.jobs_mut() {
            if let (Ok(()), Some(id), Some(record)) = (&job.result, job.id, &job.record) {
                if *record != specs::with_id(id, &tails[&job.spec]) {
                    job.result =
                        Err(format!("job {id}: record differs from the in-process reference"));
                }
            }
        }
    }

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for seg in &segments {
        for job in seg.jobs() {
            attempted += 1;
            if let Err(e) = &job.result {
                failed += 1;
                if failed <= 5 {
                    notes.push(format!("failed: {e}"));
                }
            }
        }
        for &(_, ok) in seg.scrapes() {
            attempted += 1;
            failed += u64::from(!ok);
        }
    }

    let mut late: Vec<f64> = Vec::new();
    for seg in &segments {
        late.extend(&seg.open.late_us);
    }
    let late_p99_ms = pct(&late, 0.99) / 1e3;
    let invalid = if late_p99_ms > MAX_LATE_SHARE * w.limit_ms {
        Some(format!(
            "generator behind schedule: gen_late_ms p99 {late_p99_ms:.2} > {:.2}",
            MAX_LATE_SHARE * w.limit_ms
        ))
    } else if peaks.harness > gen::THREADS as u64 + 1 {
        Some(format!(
            "{} harness threads (load threads + main: {})",
            peaks.harness,
            gen::THREADS + 1
        ))
    } else {
        None
    };
    notes.push(format!(
        "generator: {} load threads (harness peak {} threads), peak {} concurrent connection(s), gen_late_ms p99 {late_p99_ms:.3} over {} sends",
        gen::THREADS,
        peaks.harness,
        crate::http::peak_connections(),
        late.len()
    ));
    notes.push(format!(
        "host: {steal_ms:.0} ms of CPU stolen by the hypervisor during the measured phases"
    ));

    let untraced = segments.iter().find(|s| !s.traced);
    let p99 = untraced.map(|u| pct(&open_latencies(u), 0.99));
    if let (Some(u), Some(p99)) = (untraced, p99) {
        notes.push(format!(
            "job_p99_ms {p99:.3} over {} open-phase jobs (reported, not bounded: see job_p99_ms in METRICS.md)",
            u.open.jobs.len()
        ));
    }
    let metrics = if ctx.trace {
        let traced = segments.iter().find(|s| s.traced).ok_or("no traced segment")?;
        let mut m = Metrics::default();
        // Every job the router accepted over its life: warm-up + segments.
        let fingerprints: Vec<u64> = hot
            .lines
            .iter()
            .map(String::as_str)
            .chain(segments.iter().flat_map(|s| {
                s.jobs().filter(|j| j.id.is_some()).map(|j| list.lines[j.spec].as_str())
            }))
            .map(|l| routing_fingerprint(&specs::body(l)))
            .collect();
        let affinity_ratio =
            traced.after.router.as_ref().map_or(0.0, |r| affinity(r, &ring_names, &fingerprints));
        m.add("job_p99_ms", p99.unwrap_or(0.0), "ms");
        http_layers(traced, &healthz, &scrapes, journal_bytes, affinity_ratio, &peaks, &mut m);
        m.add("gen.late_ms.p99", late_p99_ms, "ms");
        if let Some(u) = untraced {
            overhead(
                &http_e2e(setup_s, u, w, rss_kb),
                &http_e2e(setup_s, traced, w, rss_kb),
                &mut m,
            );
        }
        let mut rec = Recorder::new(true, Instant::now(), 9);
        layers::measure(&used_lines, &ring_names, &ctx.run_dir, &mut rec, &mut m)?;
        let mut all: Vec<Span> = traced.open.spans.clone();
        all.extend(traced.closed.spans.iter().cloned());
        all.extend(rec.spans);
        write_trace(ctx, w.name, &all, &mut notes)?;
        m
    } else {
        http_e2e(setup_s, &segments[0], w, rss_kb)
    };
    Ok(Outcome { attempted, failed, metrics, notes, invalid })
}

/// Open-phase latencies (ms) of the verified jobs.
fn open_latencies(seg: &Segment) -> Vec<f64> {
    seg.open.jobs.iter().filter(|j| j.result.is_ok()).map(|j| j.latency_us / 1e3).collect()
}

fn http_e2e(setup_s: f64, seg: &Segment, w: &HttpWorkload, rss_kb: u64) -> Metrics {
    let ok = |j: &&JobOutcome| j.result.is_ok();
    let open_lat = open_latencies(seg);
    let submits: Vec<f64> = seg.open.jobs.iter().filter(ok).map(|j| j.submit_us / 1e3).collect();
    let within =
        seg.open.jobs.iter().filter(ok).filter(|j| j.latency_us / 1e3 <= w.limit_ms).count();
    let closed_ok = seg.closed.jobs.iter().filter(ok).count();
    let jobs = seg.jobs().count().max(1);
    let verified = seg.jobs().filter(ok).count();
    let mut m = Metrics::default();
    m.add("setup_s", setup_s, "s");
    m.add("jobs_per_s", window_rate(&seg.closed, closed_ok), "jobs/s");
    m.add("job_p50_ms", pct(&open_lat, 0.5), "ms");
    m.add("submit_p50_ms", pct(&submits, 0.5), "ms");
    m.add("slo_attain", within as f64 / seg.open.jobs.len().max(1) as f64, "ratio");
    m.add("cpu_ms_per_job", (seg.after.cpu_s - seg.before.cpu_s) * 1e3 / jobs as f64, "ms");
    m.add("peak_rss_mb", rss_kb as f64 / 1024.0, "MiB");
    m.add("verified_rate", verified as f64 / jobs as f64, "ratio");
    m
}

/// Closed-phase throughput: the interquartile mean over whole one-second
/// windows of verified completions, so a window hit by a host stall does
/// not set the figure; with fewer than three windows, `ok ÷ wall`.
fn window_rate(phase: &Phase, ok: usize) -> f64 {
    let windows = phase.wall.as_secs() as usize;
    if windows < 3 {
        return ok as f64 / phase.wall.as_secs_f64();
    }
    let mut counts = vec![0.0; windows];
    for job in phase.jobs.iter().filter(|j| j.result.is_ok()) {
        let w = job.done.saturating_duration_since(phase.start).as_secs() as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1.0;
        }
    }
    counts.sort_by(f64::total_cmp);
    let mid = &counts[windows / 4..windows - windows / 4];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Traced minus untraced, for the end-to-end metrics tracing can move.
fn overhead(untraced: &Metrics, traced: &Metrics, m: &mut Metrics) {
    for (name, unit) in [("job_p50_ms", "ms"), ("jobs_per_s", "jobs/s"), ("cpu_ms_per_job", "ms")] {
        let d = traced.get(name).unwrap_or(0.0) - untraced.get(name).unwrap_or(0.0);
        m.add(&format!("trace.overhead.{name}"), d, unit);
    }
}

fn attr_values(seg: &Segment, key: &str) -> Vec<f64> {
    seg.jobs()
        .filter(|j| j.result.is_ok())
        .filter_map(|j| j.attribution.as_ref()?.get(key))
        .map(|v| v as f64)
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn http_layers(
    seg: &Segment,
    healthz_us: &[f64],
    scrape_ms: &[f64],
    journal_bytes: u64,
    affinity_ratio: f64,
    peaks: &Peaks,
    m: &mut Metrics,
) {
    let (a, b) = (&seg.after, &seg.before);
    let d = |key: &str| a.sum(key) - b.sum(key);
    let ok_jobs = seg.jobs().filter(|j| j.result.is_ok()).count().max(1) as f64;

    m.add("status.healthz_rtt_us", pct(healthz_us, 0.5), "us");
    let dark: Vec<f64> = seg
        .jobs()
        .filter(|j| j.result.is_ok())
        .filter_map(|j| {
            let at = j.attribution.as_ref()?;
            let attributed = at.total_us()
                + at.get("net_submit_us").unwrap_or(0)
                + at.get("net_poll_us").unwrap_or(0)
                + at.get("backoff_us").unwrap_or(0);
            Some(j.sent_latency_us - attributed as f64)
        })
        .collect();
    m.add("status.unattributed_us", pct(&dark, 0.5), "us");

    m.add("api.admission_us", pct(&attr_values(seg, "admission_us"), 0.5), "us");
    let other = attr_values(seg, "other_us");
    let total = attr_values(seg, "total_us");
    m.add("api.other_us", pct(&other, 0.5), "us");
    m.add(
        "api.other_share",
        other.iter().sum::<f64>() / total.iter().sum::<f64>().max(1.0),
        "ratio",
    );
    m.add("api.coalesced_ratio", d("api_coalesced") / d("api_accepted").max(1.0), "ratio");
    m.add("api.shed", d("api_shed"), "count");

    m.add("journal.bytes_per_job", journal_bytes as f64 / a.sum("api_accepted").max(1.0), "B");

    let queue = attr_values(seg, "queue_us");
    m.add("scheduler.queue_us.p50", pct(&queue, 0.5), "us");
    m.add("scheduler.queue_us.p99", pct(&queue, 0.99), "us");
    m.add("scheduler.run_us", mean(&attr_values(seg, "run_us")), "us");
    let workers: usize = a.backends.iter().map(worker_count).sum();
    let busy: f64 =
        a.backends.iter().map(busy_s).sum::<f64>() - b.backends.iter().map(busy_s).sum::<f64>();
    m.add("scheduler.worker_busy_share", busy / (workers.max(1) as f64 * seg.wall_s()), "ratio");

    let (hits, misses) = (d("cache_hits"), d("cache_misses"));
    m.add("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.add("cache.corruptions", d("cache_corruptions"), "count");

    let (mh, mm) = (a.sum("cold_memo_hits"), a.sum("cold_memo_misses"));
    m.add("core.memo_hit_ratio", mh / (mh + mm).max(1.0), "ratio");
    let arena = a.backends.iter().map(|v| num(v, "cold_arena_bytes")).fold(0.0, f64::max);
    m.add("core.arena_peak_mb", arena / (1 << 20) as f64, "MiB");
    m.add(
        "core.parallel_tasks_per_job",
        a.sum("cold_parallel_tasks") / a.sum("cache_misses").max(1.0),
        "tasks",
    );

    match (&a.router, &b.router) {
        (Some(ra), Some(rb)) => {
            let rd = |key: &str| num(ra, key) - num(rb, key);
            m.add("router.net_submit_us", pct(&attr_values(seg, "net_submit_us"), 0.5), "us");
            m.add("router.net_poll_us", pct(&attr_values(seg, "net_poll_us"), 0.5), "us");
            m.add("router.backoff_us", mean(&attr_values(seg, "backoff_us")), "us");
            let routed = rd("routed").max(1.0);
            m.add(
                "router.attempts_per_job",
                (routed + rd("failovers") + rd("hedges")) / routed,
                "attempts",
            );
            m.add("router.hedge_win_ratio", rd("hedge_wins") / rd("hedges").max(1.0), "ratio");
            m.add("router.affinity_hit_ratio", affinity_ratio, "ratio");
            m.add("router.cpu_ms_per_job", seg.router_cpu_s * 1e3 / ok_jobs, "ms");
            m.add(
                "router.threads_peak",
                peaks.servers.last().copied().unwrap_or(0) as f64,
                "threads",
            );
        }
        _ => no_router(m),
    }

    let scrapes: Vec<f64> =
        seg.scrapes().map(|&(us, _)| us / 1e3).chain(scrape_ms.iter().copied()).collect();
    m.add("metrics.scrape_ms", pct(&scrapes, 0.5), "ms");
    m.add("obs.spans_dropped", a.sum("spans_dropped"), "count");
}

/// The router's per-layer metrics, absent on a workload without one.
fn no_router(m: &mut Metrics) {
    for (name, unit) in [
        ("router.net_submit_us", "us"),
        ("router.net_poll_us", "us"),
        ("router.backoff_us", "us"),
        ("router.attempts_per_job", "attempts"),
        ("router.hedge_win_ratio", "ratio"),
        ("router.affinity_hit_ratio", "ratio"),
        ("router.cpu_ms_per_job", "ms"),
        ("router.threads_peak", "threads"),
    ] {
        m.na(name, unit, "no cfrouter in this workload");
    }
}

/// Share of the router's jobs that sit on the backend the ring names as
/// primary for their spec. The router exports per-backend job counts,
/// not per-job placement, so this is Σ min(predicted, actual) over
/// backends ÷ jobs, with `fingerprints` every job the router accepted.
fn affinity(router_stats: &Value, ring_names: &[String], fingerprints: &[u64]) -> f64 {
    let actual: Vec<f64> = router_stats
        .get("backends")
        .and_then(Value::as_array)
        .map(|bs| bs.iter().map(|b| num(b, "jobs")).collect())
        .unwrap_or_default();
    let ring = cf_runtime::router::Ring::new(ring_names, 64);
    let mut predicted = vec![0.0f64; ring_names.len()];
    for &fp in fingerprints {
        if let Some(p) = ring.primary(fp).and_then(|b| predicted.get_mut(b)) {
            *p += 1.0;
        }
    }
    let agree: f64 = predicted.iter().zip(&actual).map(|(p, a)| p.min(*a)).sum();
    agree / actual.iter().sum::<f64>().max(1.0)
}

fn write_trace(
    ctx: &Ctx,
    workload: &str,
    spans: &[Span],
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let path = ctx.out_dir.join(format!("trace-{workload}-seed{}.json", ctx.seed));
    fs::write(&path, spans::chrome_json(spans)).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!("trace: {} spans written to {}", spans.len(), path.display()));
    notes.push(format!(
        "  {:<36} {:>8} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "self_us/n"
    ));
    for (name, (n, total, own)) in spans::self_times(spans) {
        notes.push(format!(
            "  {name:<36} {n:>8} {:>12.2} {:>12.2} {:>10.1}",
            total / 1e3,
            own / 1e3,
            own / n as f64
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// sweep-cold
// ---------------------------------------------------------------------------

/// A sweep job meets its limit when its record is durable this soon
/// after the batch started.
const SWEEP_LIMIT_MS: f64 = 10_000.0;
const BATCH_TIMEOUT: Duration = Duration::from_secs(120);
const MIN_BATCHES: usize = 3;

/// One one-shot `cfserve` run over the whole manifest.
struct Batch {
    wall_s: f64,
    /// Spawn → run-identity header durable in the journal.
    header_ms: f64,
    /// Spawn → each job record durable, in manifest order.
    record_ms: Vec<f64>,
    cpu_s: f64,
    hwm_kb: u64,
    /// Per manifest line: stdout equals the reference.
    line_ok: Vec<bool>,
    stats: Value,
    journal_bytes: u64,
}

fn run_batch(
    ctx: &Ctx,
    k: usize,
    manifest: &Path,
    expected: &[String],
    rec: &mut Recorder,
) -> Result<Batch, String> {
    let journal = ctx.run_dir.join(format!("sweep{k}.wal"));
    let stats = ctx.run_dir.join(format!("sweep{k}.stats.json"));
    let args: Vec<String> = vec![
        manifest.display().to_string(),
        "--workers".into(),
        "2".into(),
        "--journal".into(),
        journal.display().to_string(),
        "--stats-json".into(),
        stats.display().to_string(),
    ];
    let t0 = Instant::now();
    let mut srv =
        Server::spawn(&ctx.bin_dir.join("cfserve"), &args, &ctx.run_dir, &format!("sweep{k}"))?;
    let mut file: Option<fs::File> = None;
    let mut stamps: Vec<Instant> = Vec::new();
    let mut chunk = Vec::new();
    let mut hwm_kb = 0;
    let mut last_sample = t0;
    let mut tail = |file: &mut Option<fs::File>, stamps: &mut Vec<Instant>| {
        if file.is_none() {
            *file = fs::File::open(&journal).ok();
        }
        if let Some(f) = file.as_mut() {
            chunk.clear();
            if f.read_to_end(&mut chunk).is_ok() {
                let now = Instant::now();
                stamps.extend(chunk.iter().filter(|&&b| b == b'\n').map(|_| now));
            }
        }
    };
    let cpu_s = loop {
        tail(&mut file, &mut stamps);
        if last_sample.elapsed() >= Duration::from_millis(10) {
            last_sample = Instant::now();
            if let Some((hwm, _)) = srv.mem_threads() {
                hwm_kb = hwm_kb.max(hwm);
            }
        }
        match srv.state() {
            Some(('Z', cpu)) => break cpu,
            None => break 0.0,
            _ => {}
        }
        if t0.elapsed() > BATCH_TIMEOUT || stop_requested() {
            srv.kill();
            return Err(format!("sweep batch {k} did not finish within {BATCH_TIMEOUT:?}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    tail(&mut file, &mut stamps);
    let status = srv.wait();
    let end = Instant::now();
    if !status.is_some_and(|s| s.success()) {
        return Err(format!("sweep batch {k} exited {status:?}: {}", srv.stderr_tail()));
    }
    let out = srv.stdout();
    let got: Vec<&str> = out.lines().collect();
    let line_ok: Vec<bool> =
        expected.iter().enumerate().map(|(i, e)| got.get(i) == Some(&e.as_str())).collect();
    let ms = |at: &Instant| at.saturating_duration_since(t0).as_secs_f64() * 1e3;
    let header_ms = stamps.first().map(ms).unwrap_or(0.0);
    let record_ms: Vec<f64> = stamps.iter().skip(1).map(ms).collect();
    if record_ms.len() != expected.len() || got.len() != expected.len() {
        return Err(format!(
            "sweep batch {k}: {} journal records, {} stdout lines, {} expected",
            record_ms.len(),
            got.len(),
            expected.len()
        ));
    }
    if rec.enabled() {
        let batch = rec.span("sweep.batch", t0, end, None);
        let header_at = stamps[0];
        let last = *stamps.last().unwrap_or(&header_at);
        rec.span("sweep.startup", t0, header_at, Some(batch));
        let run = rec.span("sweep.run", header_at, last, Some(batch));
        for pair in stamps.windows(2) {
            rec.span("sweep.record", pair[0], pair[1], Some(run));
        }
        rec.span("sweep.emit", last, end, Some(batch));
    }
    let stats = fs::read_to_string(&stats).map_err(|e| format!("{}: {e}", stats.display()))?;
    let stats = serde_json::from_str(&stats).map_err(|e| format!("stats json: {e}"))?;
    let journal_bytes = fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    Ok(Batch {
        wall_s: (end - t0).as_secs_f64(),
        header_ms,
        record_ms,
        cpu_s,
        hwm_kb,
        line_ok,
        stats,
        journal_bytes,
    })
}

/// Sweep figures are medians over batches (each batch is the same
/// manifest on a fresh process), so one batch hit by a host stall does
/// not set them.
fn sweep_e2e(batches: &[Batch]) -> Metrics {
    let median = |f: &dyn Fn(&Batch) -> f64| pct(&batches.iter().map(f).collect::<Vec<_>>(), 0.5);
    let ok = |b: &Batch| b.line_ok.iter().filter(|&&o| o).count() as f64;
    let jobs: f64 = batches.iter().map(|b| b.line_ok.len() as f64).sum::<f64>().max(1.0);
    let verified: f64 = batches.iter().map(ok).sum();
    let within: usize = batches
        .iter()
        .map(|b| {
            b.line_ok.iter().zip(&b.record_ms).filter(|&(&o, &t)| o && t <= SWEEP_LIMIT_MS).count()
        })
        .sum();
    let cpu: f64 = batches.iter().map(|b| b.cpu_s).sum();
    let mut m = Metrics::default();
    // A batch is set up once it produces its first durable result, and
    // acknowledged once its run-identity header is durable.
    m.add("setup_s", median(&|b| b.record_ms.first().copied().unwrap_or(0.0) / 1e3), "s");
    m.add("jobs_per_s", median(&|b| ok(b) / b.wall_s), "jobs/s");
    m.add("job_p50_ms", median(&|b| pct(&b.record_ms, 0.5)), "ms");
    m.add("submit_p50_ms", median(&|b| b.header_ms), "ms");
    m.add("slo_attain", within as f64 / jobs, "ratio");
    m.add("cpu_ms_per_job", cpu * 1e3 / jobs, "ms");
    m.add("peak_rss_mb", median(&|b| b.hwm_kb as f64 / 1024.0), "MiB");
    m.add("verified_rate", verified / jobs, "ratio");
    m
}

fn sweep_p99(batches: &[Batch]) -> f64 {
    pct(&batches.iter().map(|b| pct(&b.record_ms, 0.99)).collect::<Vec<_>>(), 0.5)
}

fn sweep_layers(batches: &[Batch], m: &mut Metrics) {
    let sum = |key: &str| batches.iter().map(|b| num(&b.stats, key)).sum::<f64>();
    let jobs: f64 = batches.iter().map(|b| b.line_ok.len() as f64).sum::<f64>().max(1.0);
    const NO_HTTP: &str = "one-shot batch: no HTTP path";
    m.na("status.healthz_rtt_us", "us", NO_HTTP);
    m.na("status.unattributed_us", "us", NO_HTTP);
    for (name, unit) in [
        ("api.admission_us", "us"),
        ("api.other_us", "us"),
        ("api.other_share", "ratio"),
        ("api.coalesced_ratio", "ratio"),
    ] {
        m.na(name, unit, NO_HTTP);
    }
    m.add("api.shed", sum("shed_jobs"), "count");
    let journal: f64 = batches.iter().map(|b| b.journal_bytes as f64).sum();
    m.add("journal.bytes_per_job", journal / jobs, "B");
    const NO_ATTR: &str = "one-shot mode exports no per-job attribution";
    m.na("scheduler.queue_us.p50", "us", NO_ATTR);
    m.na("scheduler.queue_us.p99", "us", NO_ATTR);
    let busy: f64 = batches.iter().map(|b| busy_s(&b.stats)).sum();
    m.add("scheduler.run_us", busy * 1e6 / jobs, "us");
    let capacity: f64 = batches.iter().map(|b| worker_count(&b.stats) as f64 * b.wall_s).sum();
    m.add("scheduler.worker_busy_share", busy / capacity.max(1e-9), "ratio");
    let (hits, misses) = (sum("cache_hits"), sum("cache_misses"));
    m.add("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    m.add("cache.corruptions", sum("cache_corruptions"), "count");
    let (mh, mm) = (sum("cold_memo_hits"), sum("cold_memo_misses"));
    m.add("core.memo_hit_ratio", mh / (mh + mm).max(1.0), "ratio");
    let arena = batches.iter().map(|b| num(&b.stats, "cold_arena_bytes")).fold(0.0, f64::max);
    m.add("core.arena_peak_mb", arena / (1 << 20) as f64, "MiB");
    m.add("core.parallel_tasks_per_job", sum("cold_parallel_tasks") / misses.max(1.0), "tasks");
    no_router(m);
    m.na("metrics.scrape_ms", "ms", NO_HTTP);
    m.add("obs.spans_dropped", sum("spans_dropped"), "count");
    m.na("gen.late_ms.p99", "ms", "no open-loop generator in a batch");
}

pub fn sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed, 3);
    let lines = specs::sweep_manifest(&mut rng);
    let text = lines.join("\n") + "\n";
    let manifest = ctx.run_dir.join("sweep.jobs");
    fs::write(&manifest, &text).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let mut notes = vec![format!(
        "inputs: {} distinct keys per batch, manifest hash {:016x}",
        lines.len(),
        cf_runtime::fault::fnv1a(text.as_bytes())
    )];
    let expected: Vec<String> = specs::reference_tails(&lines)?
        .iter()
        .enumerate()
        .map(|(i, tail)| specs::with_id(i as u64, tail))
        .collect();

    let mut segments: Vec<(Vec<Batch>, bool)> = Vec::new();
    let mut rec = Recorder::new(ctx.trace, Instant::now(), 0);
    let steal0 = procs::steal_ms();
    let mut k = 0;
    for (secs, traced) in segments_of(ctx) {
        let start = Instant::now();
        let mut batches = Vec::new();
        let mut off = Recorder::new(false, Instant::now(), 0);
        while batches.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < secs {
            let r = if traced { &mut rec } else { &mut off };
            batches.push(run_batch(ctx, k, &manifest, &expected, r)?);
            k += 1;
        }
        segments.push((batches, traced));
    }
    let attempted: u64 = segments.iter().flat_map(|(b, _)| b).map(|b| b.line_ok.len() as u64).sum();
    let failed: u64 = segments
        .iter()
        .flat_map(|(b, _)| b)
        .map(|b| b.line_ok.iter().filter(|&&o| !o).count() as u64)
        .sum();
    if failed > 0 {
        notes.push(format!("failed: {failed} stdout line(s) differ from the in-process reference"));
    }
    let batches_run: usize = segments.iter().map(|(b, _)| b.len()).sum();
    notes.push(format!("{batches_run} batch(es) of {} jobs", lines.len()));
    notes.push(format!(
        "host: {:.0} ms of CPU stolen by the hypervisor during the batches",
        procs::steal_ms() - steal0
    ));

    let p99 = sweep_p99(&segments[0].0);
    notes.push(format!(
        "job_p99_ms {p99:.3} (median over batches; reported, not bounded: see job_p99_ms in METRICS.md)"
    ));
    let metrics = if ctx.trace {
        let untraced = sweep_e2e(&segments[0].0);
        let traced =
            segments.iter().find(|(_, t)| *t).map(|(b, _)| b).ok_or("no traced segment")?;
        let with_trace = sweep_e2e(traced);
        let mut m = Metrics::default();
        m.add("job_p99_ms", p99, "ms");
        sweep_layers(traced, &mut m);
        overhead(&untraced, &with_trace, &mut m);
        let names = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        layers::measure(&lines, &names, &ctx.run_dir, &mut rec, &mut m)?;
        write_trace(ctx, "sweep-cold", &rec.spans, &mut notes)?;
        m
    } else {
        sweep_e2e(&segments[0].0)
    };
    Ok(Outcome { attempted, failed, metrics, notes, invalid: None })
}
