//! In-process layer timings: the benchmark calls each module's public
//! functions on the workload's own generated inputs and times the calls
//! from outside (nothing inside the program is instrumented).

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cf_core::Machine;
use cf_isa::Program;
use cf_runtime::api::{parse_request, routing_fingerprint, DEFAULT_MAX_BODY_BYTES};
use cf_runtime::cache::{CacheKey, PlanCache};
use cf_runtime::journal::{AcceptedEntry, Journal, RunHeader, JOURNAL_VERSION};
use cf_runtime::manifest::{machine_by_name, parse_manifest, resolve_program, JobKind};
use cf_runtime::router::Ring;
use cf_tensor::gen::DataGen;
use cf_tensor::{Memory, Shape};

use crate::report::{pct, Metrics};
use crate::spans::Recorder;
use crate::specs::body;

/// Wall-clock budget for each simulator loop.
const SIM_BUDGET: Duration = Duration::from_secs(3);
/// The plan cache's default capacity in `cfserve`.
const CACHE_CAPACITY: usize = 256;

struct Resolved {
    line: String,
    machine: cf_core::MachineConfig,
    program: Arc<Program>,
    exec_seed: Option<u64>,
}

fn resolve(lines: &[String]) -> Result<Vec<Resolved>, String> {
    lines
        .iter()
        .map(|line| {
            let spec = parse_manifest(line).map_err(|e| e.to_string())?.remove(0);
            let program = resolve_program(&spec.source).map_err(|e| e.to_string())?;
            let machine = machine_by_name(&spec.machine).ok_or("unknown machine")?;
            let exec_seed = match spec.kind {
                JobKind::Exec { seed } => Some(seed),
                JobKind::Simulate => None,
            };
            Ok(Resolved { line: line.clone(), machine, program: Arc::new(program), exec_seed })
        })
        .collect()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times the layers on `lines` (the workload's distinct spec lines);
/// `backends` names the ring members (`host:port`).
pub fn measure(
    lines: &[String],
    backends: &[String],
    dir: &Path,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> Result<(), String> {
    let specs = resolve(lines)?;
    let (sims, execs): (Vec<&Resolved>, Vec<&Resolved>) =
        specs.iter().partition(|s| s.exec_seed.is_none());

    // status: the request parser on each spec's exact POST bytes.
    let raws: Vec<String> = lines
        .iter()
        .map(|l| {
            let b = body(l);
            format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{b}", b.len())
        })
        .collect();
    let mut t = Vec::new();
    for i in 0..2000 {
        let raw = raws[i % raws.len()].as_bytes();
        let s = Instant::now();
        let parsed = parse_request(black_box(raw), DEFAULT_MAX_BODY_BYTES);
        let e = Instant::now();
        if !matches!(parsed, Ok(Some(_))) {
            return Err(format!("parse_request rejected {:?}", raws[i % raws.len()]));
        }
        rec.span("layer.status.parse_request", s, e, None);
        t.push(us(e - s));
    }
    out.add("status.parse_us", pct(&t, 0.5), "us");

    // journal: durable accept (append + fsync) on a scratch file.
    let path = dir.join("layer-journal.wal");
    let header = RunHeader {
        version: JOURNAL_VERSION,
        manifest: 0,
        machines: 0,
        fault_seed: None,
        fault_spec: 0,
        jobs: 0,
    };
    let mut journal = Journal::create(&path, &header).map_err(|e| e.to_string())?;
    let mut t = Vec::new();
    for i in 0..200u64 {
        let accept = AcceptedEntry { index: i, spec: specs[i as usize % specs.len()].line.clone() };
        let s = Instant::now();
        journal.append_accept(&accept).map_err(|e| e.to_string())?;
        journal.sync().map_err(|e| e.to_string())?;
        let e = Instant::now();
        rec.span("layer.journal.append_sync", s, e, None);
        t.push(us(e - s));
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    out.add("journal.append_sync_us.p50", pct(&t, 0.5), "us");
    out.add("journal.append_sync_us.p99", pct(&t, 0.99), "us");

    // core: cold simulate (a fresh simulator per call), sequential and
    // with the two-thread parallel warm-up `cfserve --workers 2` uses.
    let mut seq = Vec::new();
    let mut insts = 0u64;
    let mut reports = Vec::new();
    let start = Instant::now();
    for s in sims.iter().cycle().take(sims.len().max(16)) {
        if start.elapsed() > SIM_BUDGET && seq.len() >= sims.len().min(16) {
            break;
        }
        let m = Machine::new(s.machine.clone());
        let t0 = Instant::now();
        let report = m.simulate(black_box(&s.program)).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        rec.span("layer.core.simulate", t0, t1, None);
        seq.push((t1 - t0).as_secs_f64() * 1e3);
        insts += report.stats.levels.iter().map(|l| l.insts).sum::<u64>();
        if reports.len() < sims.len() {
            reports.push(Arc::new(report));
        }
    }
    let mut par = Vec::new();
    let start = Instant::now();
    for s in sims.iter().cycle().take(sims.len().max(16)) {
        if start.elapsed() > SIM_BUDGET && par.len() >= sims.len().min(16) {
            break;
        }
        let m = Machine::new(s.machine.clone());
        let t0 = Instant::now();
        black_box(m.simulate_parallel(&s.program, 2).map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        rec.span("layer.core.simulate_parallel", t0, t1, None);
        par.push((t1 - t0).as_secs_f64() * 1e3);
    }
    out.add("core.simulate_ms.p50", pct(&seq, 0.5), "ms");
    out.add("core.simulate_ms.p99", pct(&seq, 0.99), "ms");
    out.add("core.simulate_parallel_ms.p50", pct(&par, 0.5), "ms");
    out.add("core.insts_per_ms", insts as f64 / seq.iter().sum::<f64>().max(1e-9), "insts/ms");

    // cache: verified lookups of resident keys, and inserts into a full
    // cache (each evicts). Keys are the workload's own; workloads with
    // fewer distinct keys than the capacity are padded with matmul keys.
    let mut keys: Vec<CacheKey> =
        sims.iter().map(|s| CacheKey::new(&s.machine, &s.program)).collect();
    let f1 = machine_by_name("f1").ok_or("no f1 machine")?;
    let mut order = 96;
    while keys.len() < CACHE_CAPACITY + 64 {
        let line = format!("workload=matmul order={order}");
        let spec = parse_manifest(&line).map_err(|e| e.to_string())?.remove(0);
        let program = resolve_program(&spec.source).map_err(|e| e.to_string())?;
        keys.push(CacheKey::new(&f1, &program));
        order += 1;
    }
    let value = reports.first().cloned().ok_or("workload has no simulate specs")?;
    let cache = PlanCache::new(CACHE_CAPACITY);
    let resident = sims.len().clamp(1, CACHE_CAPACITY);
    for key in &keys[..resident] {
        cache.insert(*key, Arc::clone(&value));
    }
    let mut t = Vec::new();
    for i in 0..5000 {
        let key = &keys[i % resident];
        let s = Instant::now();
        black_box(cache.get_verified(black_box(key)));
        let e = Instant::now();
        rec.span("layer.cache.get_verified", s, e, None);
        t.push(us(e - s));
    }
    out.add("cache.lookup_us", pct(&t, 0.5), "us");
    let cache = PlanCache::new(CACHE_CAPACITY);
    for key in &keys[..CACHE_CAPACITY] {
        cache.insert(*key, Arc::clone(&value));
    }
    let mut t = Vec::new();
    for i in 0..2000 {
        let key = &keys[(CACHE_CAPACITY + i) % keys.len()];
        let s = Instant::now();
        cache.insert(*key, Arc::clone(&value));
        let e = Instant::now();
        rec.span("layer.cache.insert", s, e, None);
        t.push(us(e - s));
    }
    out.add("cache.insert_us", pct(&t, 0.5), "us");

    // ops: functional execution, seeded exactly as the runtime seeds it.
    if execs.is_empty() {
        out.na("ops.exec_ms.p50", "ms", "the workload sends no mode=exec jobs");
    } else {
        let mut t = Vec::new();
        for s in &execs {
            let elems = s.program.extern_elems() as usize;
            let t0 = Instant::now();
            let mut mem = Memory::new(elems);
            let data =
                DataGen::new(s.exec_seed.unwrap_or(0)).uniform(Shape::new(vec![elems]), -1.0, 1.0);
            mem.as_mut_slice().copy_from_slice(data.data());
            Machine::new(s.machine.clone()).run(&s.program, &mut mem).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            rec.span("layer.ops.exec", t0, t1, None);
            t.push((t1 - t0).as_secs_f64() * 1e3);
        }
        out.add("ops.exec_ms.p50", pct(&t, 0.5), "ms");
    }

    // router: ring lookups of each spec's routing fingerprint, timed in
    // batches of 1000 (one lookup is tens of nanoseconds).
    let ring = Ring::new(backends, 64);
    let fps: Vec<u64> = lines.iter().map(|l| routing_fingerprint(&body(l))).collect();
    let mut t = Vec::new();
    for _ in 0..50 {
        let s = Instant::now();
        for i in 0..1000 {
            black_box(ring.primary(black_box(fps[i % fps.len()])));
        }
        let e = Instant::now();
        rec.span("layer.router.ring_primary_x1000", s, e, None);
        t.push((e - s).as_secs_f64() * 1e9 / 1000.0);
    }
    out.add("router.ring_primary_ns", pct(&t, 0.5), "ns");
    Ok(())
}
