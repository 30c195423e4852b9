//! Fleet end-to-end tests: a real `cfrouter` over three real `cfserve`
//! backends serving the 19-job chaos manifest (`assets/serve.jobs`)
//! through `POST /jobs`. The ISSUE-level guarantee under test: killing
//! one backend mid-run (SIGKILL) — and, separately, draining one
//! gracefully (SIGTERM) — leaves the merged, id-ordered output
//! byte-identical to a fault-free single-instance run of the same
//! manifest; the loss is visible only in the router's `/stats`
//! counters. Plus the drain protocol on a lone `cfserve`: `POST /drain`
//! stops admissions, flips `/healthz` to draining, and the process
//! exits 0 once in-flight work settles.

mod common;

use std::time::{Duration, Instant};

use common::{
    baseline, chaos_specs, get, post, spawn_backend, spawn_router, stat, stream_record, submit,
    temp_dir, Proc,
};

/// Per-backend routed-job counts from the `"backends":[...]` table, in
/// spawn order.
fn backend_job_counts(stats: &str) -> Vec<u64> {
    let table = stats.split("\"backends\":[").nth(1).expect("backends table");
    table
        .split("\"jobs\":")
        .skip(1)
        .map(|rest| {
            rest.chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .expect("jobs")
        })
        .collect()
}

/// Submits the 19 chaos jobs through the router (asserting sequential
/// fleet-wide ids), then streams them all back and returns the merged
/// id-ordered output.
fn run_chaos<F: FnOnce(&str)>(router: &str, mid_run: F) -> String {
    for (i, spec) in chaos_specs().iter().enumerate() {
        assert_eq!(submit(router, spec), i as u64, "fleet ids are sequential");
    }
    mid_run(router);
    let mut merged = String::new();
    for id in 0..19u64 {
        merged.push_str(&stream_record(router, id));
        merged.push('\n');
    }
    merged
}

/// Three backends and a router over them.
fn fleet(dir: &std::path::Path) -> (Vec<Proc>, Proc) {
    let backends: Vec<Proc> =
        (0..3).map(|i| spawn_backend(&dir.join(format!("b{i}.wal")))).collect();
    let addrs: Vec<&str> = backends.iter().map(|b| b.addr.as_str()).collect();
    let router = spawn_router(&addrs, &[]);
    (backends, router)
}

/// The index of the backend that owns the most jobs, per the router's
/// `/stats` — maximum damage.
fn busiest(router: &str) -> usize {
    let r = get(router, "/stats");
    assert_eq!(r.status, 200, "{}", r.text());
    let counts = backend_job_counts(&r.text());
    assert_eq!(counts.len(), 3, "{}", r.text());
    assert_eq!(counts.iter().sum::<u64>(), 19, "{}", r.text());
    let busiest = (0..3).max_by_key(|&i| counts[i]).unwrap();
    assert!(counts[busiest] > 0, "{}", r.text());
    busiest
}

/// SIGKILL one of three backends after every job is accepted: the
/// router fails lost jobs over to the surviving replicas (re-running
/// them deterministically), the prober ejects the corpse, and the
/// merged output is byte-identical to the fault-free single-instance
/// run — the loss shows up only in `/stats`.
#[test]
fn killing_one_of_three_backends_keeps_output_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("fleet-kill");
    let (mut backends, router) = fleet(&dir);

    let merged = run_chaos(&router.addr, |addr| {
        backends.remove(busiest(addr)).kill();
    });
    assert_eq!(merged, expected, "merged fleet output must match the single-instance run");

    // The damage is visible in the router's counters: lost jobs failed
    // over, and the prober ejected the dead backend.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = get(&router.addr, "/stats").text().into_owned();
        if stat(&stats, "failovers") >= 1 && stat(&stats, "ejections") >= 1 {
            assert_eq!(stat(&stats, "records_streamed"), 19, "{stats}");
            break;
        }
        assert!(Instant::now() < deadline, "no failover/ejection recorded: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    }
    let r = get(&router.addr, "/healthz");
    assert_eq!(r.status, 200, "router stays healthy on two survivors: {}", r.text());
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM one of three backends after every job is accepted: the
/// backend drains — stops admitting, finishes in-flight work, fsyncs
/// its journal — and exits 0; the router re-runs whatever it can no
/// longer answer, and the merged output is still byte-identical.
#[cfg(unix)]
#[test]
fn draining_one_of_three_backends_keeps_output_byte_identical() {
    let expected = baseline();
    let dir = temp_dir("fleet-drain");
    let (mut backends, router) = fleet(&dir);

    let mut drained: Option<Proc> = None;
    let merged = run_chaos(&router.addr, |addr| {
        let victim = backends.remove(busiest(addr));
        victim.sigterm();
        drained = Some(victim);
    });
    assert_eq!(merged, expected, "merged fleet output must match the single-instance run");

    // A planned removal is a *clean* exit: in-flight work settled, the
    // journal synced, exit code 0.
    let mut victim = drained.expect("drained backend");
    assert!(victim.wait_clean(Duration::from_secs(60)), "drained backend must exit 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// The drain protocol on a lone `cfserve`: `POST /drain` answers with
/// the pending count, `/healthz` flips to a 503 `"draining"` (distinct
/// from overload), new submissions bounce with 503, `GET /drain` is a
/// 405 — in-flight work finishes and stays pollable while draining, and
/// once it settles the process exits 0.
#[test]
fn post_drain_stops_admissions_and_exits_cleanly() {
    let dir = temp_dir("fleet-lone");
    let mut backend = spawn_backend(&dir.join("b.wal"));
    let addr = backend.addr.clone();

    // One answered job proves the instance was live and admitting.
    let id = submit(&addr, r#"{"workload":"matmul","order":256,"machine":"tiny","label":"w"}"#);
    assert_eq!(id, 0);
    let record = stream_record(&addr, 0);
    assert!(record.starts_with("{\"job\":0,"), "{record}");

    // GET /drain is not a drain.
    assert_eq!(get(&addr, "/drain").status, 405);
    assert_eq!(get(&addr, "/healthz").status, 200, "still healthy after GET /drain");

    // A cold job that runs for about a second: the drain must wait for
    // it, which keeps the instance up while the drain is probed.
    let slow = submit(&addr, r#"{"workload":"matmul","order":8192,"machine":"f1","label":"slow"}"#);

    // POST /drain flips the instance into draining.
    let r = post(&addr, "/drain", "");
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"status\":\"draining\""), "{}", r.text());
    assert!(r.text().contains("\"pending\":1"), "the slow job is in flight: {}", r.text());

    // Draining is distinct from overload, and the front door is closed.
    let r = get(&addr, "/healthz");
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("\"status\":\"draining\""), "{}", r.text());
    assert!(!r.text().contains("overloaded"), "{}", r.text());
    let r = post(
        &addr,
        "/jobs",
        r#"{"workload":"matmul","order":256,"machine":"tiny","label":"late"}"#,
    );
    assert_eq!(r.status, 503, "{}", r.text());
    assert!(r.text().contains("draining"), "{}", r.text());

    // In-flight work finishes, and its record is still served while the
    // instance drains.
    let record = stream_record(&addr, slow);
    assert!(record.starts_with("{\"job\":1,\"label\":\"slow\""), "{record}");
    assert!(record.contains("\"ok\":true"), "{record}");

    // Nothing pending any more: the process settles and exits 0.
    assert!(backend.wait_clean(Duration::from_secs(30)), "drained cfserve must exit 0");
    std::fs::remove_dir_all(&dir).ok();
}
