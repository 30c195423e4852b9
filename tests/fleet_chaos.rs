//! Fleet chaos end-to-end tests: a real `cfrouter` over three real
//! `cfserve` backends with the seeded wire-fault layer
//! (`cf_runtime::netfault`) turned on — connect refusals, connect
//! latency, slow-loris trickle, mid-body tears, garbage status lines,
//! single-byte body corruption, and a mixed plan of all six. The
//! ISSUE-level guarantee under test: for every fault family the merged,
//! id-ordered fleet output is **byte-identical** to a fault-free
//! single-instance run, every streamed record passes its end-to-end
//! digest client-side (corruption never reaches a client), and the
//! damage is visible only in `cf_router_corrupt_responses` /
//! quarantine counters. One scenario drives the standalone
//! `cfrouter --fault-proxy` byte-mangler in front of a single backend
//! to prove repeated corruption moves it into the `quarantined` state
//! (distinct from `ejected`) in `/stats` and `/ring`.

mod common;

use std::time::{Duration, Instant};

use cambricon_f::runtime::serve::verify_record_json;
use common::{
    baseline, chaos_specs, get, spawn_backend, spawn_router, stat, stream_record, submit, temp_dir,
    Proc,
};

/// Spawns `cfrouter --fault-proxy` — the standalone byte-level fault
/// proxy — in front of `upstream` with the given seeded spec.
fn spawn_fault_proxy(upstream: &str, seed: u64, spec: &str) -> Proc {
    let seed = seed.to_string();
    let args = ["--fault-proxy", upstream, "--netfault-seed", &seed, "--netfault-spec", spec];
    Proc::spawn(env!("CARGO_BIN_EXE_cfrouter"), &args, "cfrouter: fault proxy for ")
}

/// Submits the 19 chaos jobs through the router (asserting sequential
/// fleet-wide ids), streams them all back **verifying every record's
/// end-to-end digest client-side** — no corrupt record may ever reach
/// a client — and returns the merged id-ordered output.
fn run_chaos_verified(router: &str) -> String {
    for (i, spec) in chaos_specs().iter().enumerate() {
        assert_eq!(submit(router, spec), i as u64, "fleet ids are sequential");
    }
    let mut merged = String::new();
    for id in 0..19u64 {
        let record = stream_record(router, id);
        assert!(
            verify_record_json(record.trim_end_matches('\n'), Some(id)),
            "record {id} reached the client with a bad digest: {record}"
        );
        merged.push_str(&record);
        merged.push('\n');
    }
    merged
}

/// One full chaos scenario: three backends, a router with the given
/// seeded wire-fault spec on its dialer, the 19-job manifest run
/// through it with per-record digest verification, and the merged
/// output asserted byte-identical to the fault-free baseline. Returns
/// the router's final `/stats` and `/metrics` bodies for
/// family-specific assertions.
fn chaos_scenario(tag: &str, seed: u64, spec: &str) -> (String, String) {
    let expected = baseline();
    let dir = temp_dir(&format!("chaos-{tag}"));
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    let router = spawn_router(
        &addrs,
        &[
            "--netfault-seed",
            &seed.to_string(),
            "--netfault-spec",
            spec,
            // Probes flow through the fault connector too; a generous
            // ejection threshold keeps unlucky probe streaks from
            // perturbing routing mid-scenario.
            "--eject-after",
            "5",
            "--breaker-failures",
            "99",
            // A generous failover budget: chaos heals through retries.
            "--failover-retries",
            "5",
        ],
    );

    let merged = run_chaos_verified(&router.addr);
    assert_eq!(merged, expected, "[{tag}] merged fleet output must match the fault-free run");

    let r = get(&router.addr, "/stats");
    let stats = r.text().into_owned();
    assert_eq!(r.status, 200, "[{tag}] {stats}");
    assert_eq!(stat(&stats, "records_streamed"), 19, "[{tag}] {stats}");
    let r = get(&router.addr, "/metrics");
    let metrics = r.text().into_owned();
    assert_eq!(r.status, 200, "[{tag}] {metrics}");
    assert!(metrics.contains("cf_router_corrupt_responses"), "[{tag}] {metrics}");

    drop((router, backends));
    std::fs::remove_dir_all(&dir).ok();
    (stats, metrics)
}

/// Connect refusals: the dialer's refused attempts fail over to ring
/// replicas and the retried exchanges (fresh attempt numbers) heal.
#[test]
fn refusal_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("refuse", 11, "refuse=0.2");
    assert!(stat(&stats, "failovers") >= 1, "refusals must fail over: {stats}");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "refusal is not corruption: {stats}");
}

/// Connect latency: stalled dials slow exchanges down but change no
/// bytes — the run is merely slower, never wrong.
#[test]
fn connect_latency_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("latency", 12, "connect_latency=0.25,latency_ms=40");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "latency is not corruption: {stats}");
}

/// Slow-loris trickle: responses dribble back in small chunks well
/// inside the read timeout — again slower, never wrong.
#[test]
fn trickle_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("trickle", 13, "trickle=0.25,trickle_ms=40");
    assert_eq!(stat(&stats, "corrupt_responses"), 0, "trickle is not corruption: {stats}");
}

/// Mid-body connection tears: the reply dies short of its declared
/// Content-Length; the router detects the torn frame and fails over.
#[test]
fn tear_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("tear", 14, "tear=0.2");
    assert!(stat(&stats, "failovers") >= 1, "torn replies must fail over: {stats}");
}

/// Garbage status lines: the reply no longer starts with `HTTP/`; the
/// router rejects the frame and fails over.
#[test]
fn garbage_chaos_keeps_output_byte_identical() {
    let (stats, _) = chaos_scenario("garbage", 15, "garbage=0.2");
    assert!(stat(&stats, "failovers") >= 1, "garbage replies must fail over: {stats}");
}

/// Single-byte body corruption: the frame is well-formed but the
/// payload lies — only the end-to-end digest catches it. The router
/// must count every corrupt response and never let one through.
#[test]
fn corruption_chaos_keeps_output_byte_identical() {
    let (stats, metrics) = chaos_scenario("corrupt", 16, "corrupt=0.2");
    let corrupt = stat(&stats, "corrupt_responses");
    assert!(corrupt >= 1, "corruption must be caught and counted: {stats}");
    // The counter is also on the Prometheus exposition.
    let line = metrics
        .lines()
        .find(|l| l.starts_with("cf_router_corrupt_responses "))
        .unwrap_or_else(|| panic!("no cf_router_corrupt_responses sample: {metrics}"));
    let sample: u64 = line.split_whitespace().nth(1).expect("sample").parse().expect("u64");
    assert!(sample >= corrupt, "metrics sample lags /stats: {line} vs {corrupt}");
}

/// The mixed seeded plan: all six fault families at once, still
/// byte-identical output and zero corrupt records delivered.
#[test]
fn mixed_chaos_plan_keeps_output_byte_identical() {
    let spec = "refuse=0.06,connect_latency=0.08,latency_ms=25,trickle=0.08,trickle_ms=25,\
                tear=0.06,garbage=0.06,corrupt=0.06";
    chaos_scenario("mixed", 17, spec);
}

/// The standalone fault proxy corrupting **every** byte stream from one
/// of three backends: the router's digest verification catches each
/// corrupt response, moves the backend into `quarantined` (distinct
/// from `ejected` — its `/healthz` still answers 200 through the
/// proxy), and serves the full manifest byte-identically from the two
/// trustworthy replicas.
#[test]
fn always_corrupting_proxy_gets_quarantined_and_output_stays_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("chaos-quarantine");
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    // Backend 0 is reachable only through an always-corrupting proxy.
    let proxy = spawn_fault_proxy(&backends[0].addr, 99, "corrupt=1.0");
    let router = spawn_router(
        &[&proxy.addr, &backends[1].addr, &backends[2].addr],
        &["--quarantine-after", "2", "--quarantine-ms", "60000", "--failover-retries", "5"],
    );

    // Two fleet /metrics scrapes exchange with every backend; both
    // answers through the proxy fail their digest — two consecutive
    // corruptions, which is the quarantine threshold.
    for _ in 0..2 {
        assert_eq!(get(&router.addr, "/metrics").status, 200);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = get(&router.addr, "/stats").text().into_owned();
        if stat(&stats, "quarantines") >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "proxy-fronted backend never quarantined: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(stat(&stats, "corrupt_responses") >= 2, "{stats}");
    assert!(stats.contains("\"health\":\"quarantined\""), "{stats}");
    assert!(!stats.contains("\"health\":\"ejected\""), "quarantine, not ejection: {stats}");
    let ring = get(&router.addr, "/ring").text().into_owned();
    assert!(ring.contains("\"health\":\"quarantined\""), "{ring}");

    // The fleet still serves the whole manifest — from the two
    // trustworthy replicas — byte-identically, and no corrupt record
    // ever reaches the client.
    let merged = run_chaos_verified(&router.addr);
    assert_eq!(merged, expected, "merged fleet output must match the fault-free run");

    // The quarantined backend took no jobs, and the damage is on the
    // Prometheus exposition too.
    let stats = get(&router.addr, "/stats").text().into_owned();
    assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
    assert!(stats.contains("\"health\":\"quarantined\""), "still quarantined: {stats}");
    let metrics = get(&router.addr, "/metrics").text().into_owned();
    let line = metrics
        .lines()
        .find(|l| l.starts_with("cf_router_quarantines_total "))
        .unwrap_or_else(|| panic!("no cf_router_quarantines_total sample: {metrics}"));
    let sample: u64 = line.split_whitespace().nth(1).expect("sample").parse().expect("u64");
    assert!(sample >= 1, "{line}");

    drop((router, proxy, backends));
    std::fs::remove_dir_all(&dir).ok();
}
