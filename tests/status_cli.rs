//! End-to-end test of `cfserve --status-port`: spawn the real binary on
//! a slow manifest, scrape the announced ephemeral port off stderr, and
//! probe `/healthz`, `/stats` and `/trace` over plain TCP while the run
//! is live.

mod common;

use std::time::{Duration, Instant};

use common::{get, Proc};

#[test]
fn cfserve_status_port_serves_health_stats_and_trace() {
    // One worker grinding big uncached matmuls keeps the run alive for
    // seconds — long enough to probe every endpoint mid-flight.
    let manifest = std::env::temp_dir().join(format!("cf-status-cli-{}.jobs", std::process::id()));
    std::fs::write(&manifest, "workload=matmul order=2048 repeat=40\n").unwrap();

    let manifest_arg = manifest.display().to_string();
    let args = [manifest_arg.as_str(), "--status-port", "0", "--no-cache", "--workers", "1"];
    // The binary announces the bound port on stderr before serving.
    let serve = Proc::spawn(env!("CARGO_BIN_EXE_cfserve"), &args, "cfserve: status on http://");
    let addr = serve.addr.as_str();

    // /healthz answers while jobs are in flight.
    let t0 = Instant::now();
    let r = loop {
        let r = get(addr, "/healthz");
        if r.status == 200 || t0.elapsed() > Duration::from_secs(20) {
            break r;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"status\""), "{}", r.text());

    // /stats shows the live run's counters.
    let r = get(addr, "/stats");
    assert!(r.status == 200 || r.status == 503, "{}", r.text());
    if r.status == 200 {
        assert!(r.text().contains("\"submitted\""), "{}", r.text());
    }

    // /trace serves the span ring.
    let r = get(addr, "/trace");
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"events\""), "{}", r.text());

    // Done probing: the run itself can finish or be cut short.
    drop(serve);
    std::fs::remove_file(&manifest).ok();
}
