//! The shared end-to-end harness: a drop-guarded child process that
//! announces its listen address, the fleet fixtures (`cfserve`
//! backends, `cfrouter`, the 19-job chaos manifest and its fault-free
//! baseline), and HTTP exchanges through the crate's own client
//! (`cf_runtime::http`).

#![allow(dead_code)] // every test binary uses its own subset

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cambricon_f::runtime::http::{parse_reply, Connector, Reply, TcpConnector};

/// A spawned binary with its announced listen address and a stderr
/// drain thread (so the child never blocks on a full pipe). Dropping it
/// kills and reaps the child, so a failing assertion leaves no process
/// behind.
pub struct Proc {
    child: Child,
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin` and scrapes the first stderr line starting with
    /// `announce` for the `http://<addr>` it carries.
    pub fn spawn(bin: &str, args: &[impl AsRef<OsStr>], announce: &str) -> Proc {
        let mut child = Command::new(bin)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let stderr = child.stderr.take().expect("stderr piped");
        let mut lines = BufReader::new(stderr).lines();
        // Guard the child before scraping, so a child that dies without
        // announcing is still reaped.
        let mut proc = Proc { child, addr: String::new(), drain: None };
        proc.addr = loop {
            let line = lines
                .next()
                .unwrap_or_else(|| panic!("{bin} exited before announcing"))
                .expect("read stderr");
            if line.starts_with(announce) {
                let rest = line.split("http://").nth(1).expect("http:// in announce");
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address")
                    .trim_end_matches('/')
                    .split(['(', ','])
                    .next()
                    .expect("address")
                    .to_string();
            }
        };
        proc.drain = Some(std::thread::spawn(move || for _ in lines.by_ref() {}));
        proc
    }

    /// Sends SIGTERM (a graceful drain for `cfserve`).
    pub fn sigterm(&self) {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill").args(["-TERM", &pid]).status().expect("run kill");
        assert!(ok.success(), "kill -TERM {pid}");
    }

    /// Waits up to `limit` for the child to exit, returning whether it
    /// exited cleanly (code 0).
    pub fn wait_clean(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => return status.success(),
                None if Instant::now() > deadline => return false,
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// SIGKILLs and reaps the child now (dropping it does the work).
    pub fn kill(self) {}
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
        if let Some(drain) = self.drain.take() {
            drain.join().ok();
        }
    }
}

/// A `cfserve` backend in API-only mode on an ephemeral port.
pub fn spawn_backend(journal: &Path) -> Proc {
    let journal = journal.display().to_string();
    let args = ["-", "--status-port", "0", "--journal", &journal, "--workers", "2"];
    Proc::spawn(env!("CARGO_BIN_EXE_cfserve"), &args, "cfserve: status on http://")
}

/// `cfrouter` over the given backend addresses with a fast prober,
/// hedging disabled (determinism: exactly one backend runs each job
/// unless the router fails over), and any extra flags appended.
pub fn spawn_router(backends: &[&str], extra: &[&str]) -> Proc {
    let mut args: Vec<&str> = Vec::new();
    for addr in backends {
        args.extend(["--backend", addr]);
    }
    args.extend(["--probe-interval-ms", "100", "--hedge-after-ms", "0"]);
    args.extend(extra);
    Proc::spawn(env!("CARGO_BIN_EXE_cfrouter"), &args, "cfrouter: routing ")
}

/// The chaos manifest (`assets/serve.jobs`) expanded client-side: one
/// JSON spec per job, `repeat=N` flattened to N identical submissions,
/// in manifest order — so router id K corresponds to baseline record
/// `"job":K`.
pub fn chaos_specs() -> Vec<String> {
    let lines: [(&str, usize); 7] = [
        (r#"{"workload":"vgg16","batch":1,"machine":"f1"}"#, 4),
        (r#"{"workload":"resnet152","batch":1,"machine":"f1"}"#, 4),
        (r#"{"workload":"matmul","order":1024,"machine":"f100"}"#, 4),
        (r#"{"workload":"mlp3","batch":4,"machine":"embedded"}"#, 2),
        (r#"{"workload":"knn","size":"small","machine":"f1"}"#, 2),
        (r#"{"program":"assets/demo.cfasm","machine":"tiny","label":"demo"}"#, 2),
        (r#"{"workload":"kmeans","size":"small","mode":"exec","seed":42,"machine":"tiny"}"#, 1),
    ];
    let mut specs = Vec::new();
    for (spec, repeat) in lines {
        for _ in 0..repeat {
            specs.push(spec.to_string());
        }
    }
    assert_eq!(specs.len(), 19, "the chaos manifest is 19 jobs");
    specs
}

/// The fault-free ground truth, computed once per test binary: one
/// `cfserve` run over the manifest itself, stdout captured as the
/// byte-exact expected output.
pub fn baseline() -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let out = Command::new(env!("CARGO_BIN_EXE_cfserve"))
            .args(["assets/serve.jobs", "--workers", "2"])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .expect("run cfserve on the chaos manifest");
        assert!(out.status.success(), "baseline run failed");
        let text = String::from_utf8(out.stdout).expect("utf-8 records");
        assert_eq!(text.lines().count(), 19, "baseline:\n{text}");
        text
    })
}

/// One HTTP exchange against `addr`. Long-polls can hold the line for a
/// while, hence the generous timeout.
pub fn http(addr: &str, raw: &str) -> Reply {
    let t = Duration::from_secs(150);
    let bytes = TcpConnector
        .exchange(addr, raw.as_bytes(), t, t, None)
        .unwrap_or_else(|e| panic!("{addr}: {e}"));
    parse_reply(&bytes).unwrap_or_else(|e| panic!("{addr}: {e}"))
}

pub fn get(addr: &str, path: &str) -> Reply {
    http(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

pub fn post(addr: &str, path: &str, body: &str) -> Reply {
    http(
        addr,
        &format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len()),
    )
}

/// The job id of an accept body (`{"id":N}`).
pub fn job_id(reply: &Reply) -> u64 {
    let digits: String = reply.text().chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().expect("job id")
}

/// Submits one spec, asserting acceptance, and returns its id.
pub fn submit(addr: &str, spec: &str) -> u64 {
    let r = post(addr, "/jobs", spec);
    assert_eq!(r.status, 202, "{}", r.text());
    job_id(&r)
}

/// Long-polls one job until its record streams back.
pub fn stream_record(addr: &str, id: u64) -> String {
    let r = get(addr, &format!("/jobs/{id}?timeout_s=120"));
    assert_eq!(r.status, 200, "job {id}: {}", r.text());
    r.text().into_owned()
}

/// Scrapes one top-level counter off a `/stats` JSON body.
pub fn stat(body: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    let at = body.find(&needle).unwrap_or_else(|| panic!("no {name} in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter value")
}

/// A fresh scratch directory unique to this test process and `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cf-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
