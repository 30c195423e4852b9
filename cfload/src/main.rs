//! `cfload` — the layered end-to-end benchmark.
//!
//! ```text
//! cfload --workload api-hot|sweep-cold|fleet-mixed --seed N --seconds S --trace 0|1
//!        --bin-dir DIR --bench-dir DIR
//! ```
//!
//! Spawns the release `cfserve`/`cfrouter` binaries from `--bin-dir`,
//! drives one seeded workload through them over loopback sockets,
//! checks every record against an in-process rendering of the same
//! spec, and prints, as its last stdout line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` splits the run into an untraced
//! and a traced half, times each layer's public functions on the
//! workload's inputs, writes the client-side spans as Chrome-trace JSON
//! under `<bench-dir>/out/`, and reports the per-layer metrics plus the
//! tracing overhead. `run.sh` builds everything and supplies the two
//! directory flags.
//!
//! Exit codes: 0 success; 1 a record failed verification or the run
//! failed; 2 bad arguments or missing binaries; 3 the run is invalid
//! (the load generator itself fell behind its schedule).

mod gen;
mod http;
mod layers;
mod procs;
mod report;
mod spans;
mod specs;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use workloads::{Ctx, Outcome, API_HOT, FLEET_MIXED};

const USAGE: &str = "usage: cfload --workload api-hot|sweep-cold|fleet-mixed --seed N --seconds S --trace 0|1 --bin-dir DIR --bench-dir DIR";

/// Removes the run's scratch directory (journals, child output) on
/// every exit path.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The whole run, set-up included, must end within 180 s; in-flight
/// exchanges time out within 10 s of this deadline.
const RUN_BUDGET: Duration = Duration::from_secs(150);

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin_dir = None;
    let mut bench_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--bench-dir" => bench_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["api-hot", "sweep-cold", "fleet-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".to_string());
    }
    let out_dir = bench_dir.ok_or("--bench-dir is required")?.join("out");
    Ok(Ctx {
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        run_dir: out_dir.join(format!("run-{}", std::process::id())),
        out_dir,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.as_str() {
        "api-hot" => workloads::http(ctx, &API_HOT),
        "fleet-mixed" => workloads::http(ctx, &FLEET_MIXED),
        _ => workloads::sweep(ctx),
    }
}

fn main() -> ExitCode {
    procs::arm_deadline(RUN_BUDGET);
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("cfload: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for bin in ["cfserve", "cfrouter"] {
        if !ctx.bin_dir.join(bin).is_file() {
            eprintln!(
                "cfload: {} not found; build the release binaries first",
                ctx.bin_dir.join(bin).display()
            );
            return ExitCode::from(2);
        }
    }
    procs::install_signal_handlers();
    if let Err(e) = std::fs::create_dir_all(&ctx.run_dir) {
        eprintln!("cfload: {}: {e}", ctx.run_dir.display());
        return ExitCode::from(1);
    }
    let run_dir = RunDir(ctx.run_dir.clone());
    let result = run(&ctx);
    drop(run_dir);

    // Every child was owned by a guard that is gone by now.
    let leftovers = procs::leftover_children();
    if !leftovers.is_empty() {
        eprintln!("cfload: children still running after the run: {}", leftovers.join(", "));
        return ExitCode::from(1);
    }
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("cfload: {}: {e}", ctx.workload);
            return ExitCode::from(1);
        }
    };
    let peak = http::peak_connections();
    println!(
        "cfload: workload {} seed {} seconds {} trace {} | {} available CPU(s)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", outcome.metrics.table());
    if peak > gen::THREADS {
        eprintln!("cfload: run invalid: {peak} concurrent connections (limit {})", gen::THREADS);
        return ExitCode::from(3);
    }
    if let Some(why) = &outcome.invalid {
        eprintln!("cfload: run invalid: {why}");
        return ExitCode::from(3);
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
