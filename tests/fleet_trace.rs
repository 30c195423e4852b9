//! Fleet distributed-tracing end-to-end tests: a real `cfrouter` over
//! three real `cfserve` backends under seeded wire faults, with every
//! job traced from `POST /jobs` to its streamed record. Under test:
//!
//! * every accepted job gets an `X-CF-Trace` context, and the record
//!   that finally streams back carries the **same trace id** — even
//!   when the wire tore mid-body and the job failed over;
//! * `GET /trace/<trace-id>` merges the router's dispatch/attempt
//!   spans with the backends' spans into one Chrome-trace JSON
//!   document with strictly nested parent/child intervals;
//! * the `X-CF-Attribution` latency breakdown sums to the
//!   client-measured end-to-end latency within 5%;
//! * with `--slo-ms` set, the merged `/metrics` carries the `cf_slo_*`
//!   burn-rate families and classifies every streamed record.

mod common;

use std::time::Instant;

use cambricon_f::runtime::trace::{Attribution, TraceContext};
use common::{chaos_specs, get, job_id, post, spawn_backend, spawn_router, stat, temp_dir, Proc};

/// Submits one spec, returning the fleet-wide id and the minted trace
/// context echoed on `X-CF-Trace`.
fn submit_traced(addr: &str, spec: &str) -> (u64, TraceContext) {
    let r = post(addr, "/jobs", spec);
    assert_eq!(r.status, 202, "{}", r.text());
    let trace = r.header("X-CF-Trace").unwrap_or_else(|| panic!("no X-CF-Trace on accept: {r:?}"));
    let ctx = TraceContext::parse(trace).expect("parseable trace header");
    (job_id(&r), ctx)
}

/// Long-polls one record, returning (body, trace header, attribution).
fn stream_traced(addr: &str, id: u64) -> (String, TraceContext, Attribution) {
    let r = get(addr, &format!("/jobs/{id}?timeout_s=120"));
    assert_eq!(r.status, 200, "job {id}: {}", r.text());
    let trace = r
        .header("X-CF-Trace")
        .unwrap_or_else(|| panic!("job {id}: no X-CF-Trace on record: {r:?}"));
    let ctx = TraceContext::parse(trace).expect("parseable trace header");
    let attr = r
        .header("X-CF-Attribution")
        .and_then(Attribution::parse)
        .unwrap_or_else(|| panic!("job {id}: no parseable X-CF-Attribution: {r:?}"));
    (r.text().into_owned(), ctx, attr)
}

/// One Prometheus sample value by exact series name.
fn sample(metrics: &str, name: &str) -> f64 {
    let line = metrics
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("no {name} sample in metrics"));
    line.split_whitespace().nth(1).expect("sample").parse().expect("f64 sample")
}

/// The `(ts, dur)` of a Chrome-trace `X` event.
fn interval(e: &serde_json::Value) -> (f64, f64) {
    (
        e.get("ts").and_then(|t| t.as_f64()).expect("ts"),
        e.get("dur").and_then(|d| d.as_f64()).unwrap_or(0.0),
    )
}

/// Validates one merged `GET /trace/<id>` document: parses as JSON,
/// carries the requested trace id, has at least one router dispatch
/// and one attempt span, and every child interval nests strictly
/// inside its parent — backend events inside their attempt's window,
/// attempt spans inside the dispatch span. Returns the parsed doc.
fn validate_merged_trace(router: &str, ctx: TraceContext) -> serde_json::Value {
    let r = get(router, &format!("/trace/{:032x}", ctx.trace_id));
    let body = r.text();
    assert_eq!(r.status, 200, "{body}");
    let doc = serde_json::from_str(&body).expect("merged trace parses as JSON");
    assert_eq!(
        doc.get("trace").and_then(|t| t.as_str()),
        Some(format!("{:032x}", ctx.trace_id).as_str()),
        "{body}"
    );
    let evs = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents array");
    let xs: Vec<&serde_json::Value> =
        evs.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X")).collect();
    let name_of =
        |e: &serde_json::Value| e.get("name").and_then(|n| n.as_str()).unwrap_or("").to_string();
    let pid_of = |e: &serde_json::Value| e.get("pid").and_then(|p| p.as_u64()).unwrap_or(0);
    let tid_of = |e: &serde_json::Value| e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0);

    // Router spans: one dispatch, ≥ 1 attempt, attempts nested inside
    // the dispatch interval.
    let dispatch: Vec<&&serde_json::Value> =
        xs.iter().filter(|e| pid_of(e) == 0 && name_of(e).starts_with("dispatch")).collect();
    assert_eq!(dispatch.len(), 1, "exactly one dispatch span: {body}");
    let (d_ts, d_dur) = interval(dispatch[0]);
    let attempts: Vec<&&serde_json::Value> =
        xs.iter().filter(|e| pid_of(e) == 0 && name_of(e).starts_with("attempt")).collect();
    assert!(!attempts.is_empty(), "at least one attempt span: {body}");
    for a in &attempts {
        let (ts, dur) = interval(a);
        assert!(
            ts >= d_ts && ts + dur <= d_ts + d_dur,
            "attempt [{ts}, {}] escapes dispatch [{d_ts}, {}]: {body}",
            ts + dur,
            d_ts + d_dur,
        );
    }

    // Backend lanes: each lane's attempt box strictly contains every
    // other event in the lane.
    let mut backend_events = 0usize;
    let lanes: std::collections::BTreeSet<(u64, u64)> =
        xs.iter().filter(|e| pid_of(e) > 0).map(|e| (pid_of(e), tid_of(e))).collect();
    for (pid, tid) in lanes {
        let lane: Vec<&&serde_json::Value> =
            xs.iter().filter(|e| pid_of(e) == pid && tid_of(e) == tid).collect();
        let Some(parent) = lane.iter().find(|e| name_of(e).starts_with("attempt (")) else {
            continue;
        };
        let (p_ts, p_dur) = interval(parent);
        for e in &lane {
            if name_of(e).starts_with("attempt (") {
                continue;
            }
            backend_events += 1;
            let (ts, dur) = interval(e);
            assert!(
                ts > p_ts && ts + dur < p_ts + p_dur,
                "backend event [{ts}, {}] not strictly inside attempt [{p_ts}, {}]: {body}",
                ts + dur,
                p_ts + p_dur,
            );
        }
    }
    assert!(backend_events > 0, "merged trace carries backend spans: {body}");
    doc
}

/// The tentpole end-to-end: 19 jobs through a 3-backend fleet under a
/// (byte-safe) seeded netfault, every job traced, every record's
/// attribution summing to the measured end-to-end latency within 5%,
/// the merged trace strictly nested, and the `cf_slo_*` families live
/// in the fleet `/metrics`.
#[test]
fn traced_fleet_run_attributes_latency_and_burns_no_budget() {
    let dir = temp_dir("trace-e2e");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    let router = spawn_router(
        &addrs,
        &[
            // Byte-safe chaos: dials stall but nothing tears or lies,
            // so no failovers perturb the attribution windows.
            "--netfault-seed",
            "21",
            "--netfault-spec",
            "connect_latency=0.15,latency_ms=20",
            "--eject-after",
            "5",
            // A generous latency target: every job should be good, so
            // the burn rate stays 0 and the budget stays whole.
            "--slo-ms",
            "60000",
            "--slo-objective",
            "0.9",
            "--failover-retries",
            "5",
        ],
    );

    let mut submitted: Vec<(u64, TraceContext, Instant)> = Vec::new();
    for (i, spec) in chaos_specs().iter().enumerate() {
        let t0 = Instant::now();
        let (id, ctx) = submit_traced(&router.addr, spec);
        assert_eq!(id, i as u64, "fleet ids are sequential");
        // Every submission minted a fresh root: no parent, distinct
        // trace ids.
        assert_eq!(ctx.parent, None, "router roots the trace");
        assert!(
            submitted.iter().all(|&(_, c, _)| c.trace_id != ctx.trace_id),
            "trace ids are unique per job"
        );
        submitted.push((id, ctx, t0));
    }

    for &(id, ctx, t0) in &submitted {
        let (record, record_ctx, attr) = stream_traced(&router.addr, id);
        let measured = t0.elapsed();
        assert!(record.starts_with(&format!("{{\"job\":{id},")), "{record}");
        // The trace id survives from accept to record — same trace.
        assert_eq!(record_ctx.trace_id, ctx.trace_id, "job {id}: trace id changed");

        // The attribution carries the router-side components and sums
        // to the client-measured end-to-end latency within 5% (plus a
        // small absolute floor for loopback scheduling noise).
        for key in ["total_us", "net_submit_us", "net_poll_us", "backoff_us"] {
            assert!(attr.get(key).is_some(), "job {id}: no {key} in {}", attr.encode());
        }
        let full_sum = attr.total_us()
            + attr.get("net_submit_us").unwrap_or(0)
            + attr.get("net_poll_us").unwrap_or(0)
            + attr.get("backoff_us").unwrap_or(0);
        let measured_us = measured.as_micros() as u64;
        let diff = measured_us.abs_diff(full_sum);
        let slack = (measured_us / 20).max(30_000);
        assert!(
            diff <= slack,
            "job {id}: attribution sum {full_sum}µs vs measured {measured_us}µs (diff {diff}µs > {slack}µs): {}",
            attr.encode(),
        );
        // The backend's execution components account for its total
        // exactly (the backend guarantees the partition).
        assert_eq!(
            attr.execution_sum_us(),
            attr.total_us(),
            "job {id}: execution components must partition total_us: {}",
            attr.encode(),
        );
    }

    // Satellite: per-backend hedge outcome detail is in /stats (zero
    // here — hedging is disabled — but the fields must render).
    let r = get(&router.addr, "/stats");
    let stats = r.text();
    assert_eq!(r.status, 200, "{stats}");
    assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
    assert!(stats.contains("\"hedges_won\":"), "{stats}");
    assert!(stats.contains("\"hedges_cancelled\":"), "{stats}");
    // The /stats attribution aggregate booked all 19 records.
    assert!(stats.contains("\"attribution\":"), "{stats}");
    let attr_at = stats.find("\"attribution\":").expect("attribution object");
    assert_eq!(stat(&stats[attr_at..], "records"), 19, "{stats}");

    // SLO series: every record classified, all good under the generous
    // target, budget untouched, burn rate zero.
    let metrics = get(&router.addr, "/metrics").text().into_owned();
    assert!(sample(&metrics, "cf_slo_good_total") as u64 >= 19, "{metrics}");
    assert_eq!(sample(&metrics, "cf_slo_bad_total") as u64, 0, "bad jobs under a 60s target");
    assert!((sample(&metrics, "cf_slo_error_budget_remaining") - 1.0).abs() < 1e-9);
    assert!((sample(&metrics, "cf_slo_burn_rate_5m")).abs() < 1e-9);
    assert!(metrics.contains("# TYPE cf_slo_burn_rate_1h gauge"), "{metrics}");
    assert!((sample(&metrics, "cf_slo_objective") - 0.9).abs() < 1e-9);
    // The backends' own tracer counters merge in too.
    assert!(metrics.contains("cf_trace_attached_total"), "{metrics}");

    // The merged trace for the first and last job: parses, nests
    // strictly, carries backend spans.
    validate_merged_trace(&router.addr, submitted[0].1);
    validate_merged_trace(&router.addr, submitted[18].1);

    drop((router, backends));
    std::fs::remove_dir_all(&dir).ok();
}

/// Mid-body tears force failovers (submit-time retries and poll-time
/// resubmissions); the trace id still survives from accept to record,
/// and at least one merged trace shows **both** attempts — the failed
/// or superseded one and the one that recovered.
#[test]
fn trace_id_survives_tear_failover_and_shows_both_attempts() {
    let dir = temp_dir("trace-tear");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    // Seed 14 tear=0.2 is the fleet_chaos scenario known to force at
    // least one failover while the merged output stays byte-identical.
    let router = spawn_router(
        &addrs,
        &[
            "--netfault-seed",
            "14",
            "--netfault-spec",
            "tear=0.2",
            "--eject-after",
            "5",
            "--breaker-failures",
            "99",
            "--failover-retries",
            "5",
        ],
    );

    let mut submitted: Vec<(u64, TraceContext)> = Vec::new();
    for (i, spec) in chaos_specs().iter().enumerate() {
        let (id, ctx) = submit_traced(&router.addr, spec);
        assert_eq!(id, i as u64);
        submitted.push((id, ctx));
    }
    for &(id, ctx) in &submitted {
        let (_, record_ctx, _) = stream_traced(&router.addr, id);
        assert_eq!(
            record_ctx.trace_id, ctx.trace_id,
            "job {id}: trace id must survive tears and failovers"
        );
    }
    let stats = get(&router.addr, "/stats").text().into_owned();
    assert!(stat(&stats, "failovers") >= 1, "torn replies must fail over: {stats}");

    // Some trace carries more than one attempt span — the torn attempt
    // and its recovery — and a non-ok outcome is visible on one of
    // them.
    let mut multi_attempt = 0usize;
    let mut non_ok = 0usize;
    for &(_, ctx) in &submitted {
        let r = get(&router.addr, &format!("/trace/{:032x}", ctx.trace_id));
        assert_eq!(r.status, 200, "{}", r.text());
        let doc: serde_json::Value = serde_json::from_str(&r.text()).expect("trace parses");
        let evs = doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents");
        let attempts: Vec<&serde_json::Value> = evs
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(0)
                    && e.get("name").and_then(|n| n.as_str()).unwrap_or("").starts_with("attempt")
            })
            .collect();
        if attempts.len() >= 2 {
            multi_attempt += 1;
        }
        non_ok += attempts
            .iter()
            .filter(|a| {
                let outcome = a
                    .get("args")
                    .and_then(|args| args.get("outcome"))
                    .and_then(|o| o.as_str())
                    .unwrap_or("ok");
                outcome != "ok"
            })
            .count();
    }
    assert!(
        multi_attempt >= 1,
        "at least one trace must show both the torn attempt and its recovery: {stats}"
    );
    assert!(non_ok >= 1, "the torn attempt's failed span must be visible");

    drop((router, backends));
    std::fs::remove_dir_all(&dir).ok();
}
