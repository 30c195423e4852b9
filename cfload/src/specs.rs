//! Seeded workload inputs and their in-process reference records.
//!
//! The binaries only ever see the generated spec lines (as `POST /jobs`
//! bodies or as a manifest file); the same lines are rendered in
//! process through `cf_runtime::serve` to get the bytes every record
//! must equal.

use std::collections::{HashMap, HashSet};

use cf_runtime::fault::fnv1a;
use cf_runtime::manifest::parse_manifest;
use cf_runtime::serve::{render_record_json, serve_specs, ServeOptions};

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed only.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The eight simulate specs of `api-hot` (also 85% of `fleet-mixed`):
/// warmed in set-up, so every measured job is a plan-cache hit.
pub const HOT: [&str; 8] = [
    "workload=vgg16 batch=1 machine=f1",
    "workload=resnet152 batch=1 machine=f1",
    "workload=alexnet batch=4 machine=f100",
    "workload=mlp3 batch=4 machine=embedded",
    "workload=matmul order=1024 machine=f100",
    "workload=matmul order=512 machine=f1",
    "workload=vgg16 batch=8 machine=embedded",
    "workload=resnet152 batch=2 machine=f100",
];

const NETS: [&str; 4] = ["vgg16", "resnet152", "alexnet", "mlp3"];
const MACHINES: [&str; 3] = ["f1", "f100", "embedded"];
const MATMUL_ORDERS: (u64, u64) = (128, 2048);

/// A deduplicated table of spec lines plus the job sequence over it.
#[derive(Default)]
pub struct JobList {
    pub lines: Vec<String>,
    pub jobs: Vec<usize>,
    index: HashMap<String, usize>,
}

impl JobList {
    pub fn push(&mut self, line: &str) {
        let next = self.lines.len();
        let id = *self.index.entry(line.to_string()).or_insert(next);
        if id == next {
            self.lines.push(line.to_string());
        }
        self.jobs.push(id);
    }

    /// FNV-1a over the job sequence's spec lines: equal hashes mean two
    /// runs sent identical inputs in identical order.
    pub fn hash(&self) -> u64 {
        let mut text = String::new();
        for &j in &self.jobs {
            text.push_str(&self.lines[j]);
            text.push('\n');
        }
        fnv1a(text.as_bytes())
    }
}

/// `api-hot`: one job drawn uniformly from [`HOT`].
pub fn hot_job(rng: &mut Rng, list: &mut JobList) {
    list.push(HOT[rng.below(HOT.len() as u64) as usize]);
}

/// `fleet-mixed`: per job 85% [`HOT`], 10% a never-seen matmul key,
/// 5% a functional `mode=exec` matmul on `tiny`.
pub struct FleetMix {
    used: HashSet<(u64, usize)>,
}

impl FleetMix {
    pub fn new() -> FleetMix {
        FleetMix { used: HashSet::new() }
    }

    pub fn push(&mut self, rng: &mut Rng, list: &mut JobList) {
        let u = rng.unit();
        if u < 0.85 {
            hot_job(rng, list);
        } else if u < 0.95 {
            loop {
                let order = MATMUL_ORDERS.0 + rng.below(MATMUL_ORDERS.1 - MATMUL_ORDERS.0 + 1);
                let m = rng.below(MACHINES.len() as u64) as usize;
                let line = format!("workload=matmul order={order} machine={}", MACHINES[m]);
                if !HOT.contains(&line.as_str()) && self.used.insert((order, m)) {
                    list.push(&line);
                    break;
                }
            }
        } else {
            let order = 32 + rng.below(65);
            let seed = rng.below(1_000_000);
            list.push(&format!("workload=matmul order={order} mode=exec seed={seed} machine=tiny"));
        }
    }
}

/// `sweep-cold`: every net × batch 1–16 × machine (192 keys) plus 128
/// matmul keys, one drawn from each of 128 equal bins of orders
/// 128–2048 — 320 distinct keys, more than the 256-entry plan cache
/// holds. The seed draws the matmul orders; the order of lines is fixed
/// (nets batch by batch, two matmul keys after every third net line), so
/// seeds differ in keys, not in where the heavy jobs sit. Each line
/// carries a unique label, as one manifest requires.
pub fn sweep_manifest(rng: &mut Rng) -> Vec<String> {
    let mut nets = Vec::new();
    for batch in 1..=16 {
        for net in NETS {
            for machine in MACHINES {
                nets.push(format!(
                    "workload={net} batch={batch} machine={machine} label={net}-b{batch}-{machine}"
                ));
            }
        }
    }
    let bins = 128u64;
    let width = (MATMUL_ORDERS.1 - MATMUL_ORDERS.0 + 1) / bins;
    let mut matmuls = (0..bins).map(|bin| {
        let order = MATMUL_ORDERS.0 + bin * width + rng.below(width);
        let machine = MACHINES[(bin % MACHINES.len() as u64) as usize];
        format!("workload=matmul order={order} machine={machine} label=matmul-{order}-{machine}")
    });
    let mut lines = Vec::new();
    for (i, net) in nets.into_iter().enumerate() {
        lines.push(net);
        if i % 3 == 2 {
            lines.extend(matmuls.by_ref().take(2));
        }
    }
    lines.extend(matmuls);
    lines
}

/// A manifest line as a `POST /jobs` JSON body.
pub fn body(line: &str) -> String {
    let fields: Vec<String> = line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| {
            if v.bytes().all(|b| b.is_ascii_digit()) {
                format!("\"{k}\":{v}")
            } else {
                format!("\"{k}\":\"{v}\"")
            }
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders each line in process through the serve engine and returns
/// the record with its `{"job":N,` prefix stripped (the id is the only
/// part that differs between a reference and a served record). Lines
/// are parsed one by one: separate HTTP submissions may share a label,
/// which one manifest may not.
pub fn reference_tails(lines: &[String]) -> Result<Vec<String>, String> {
    let mut specs = Vec::with_capacity(lines.len());
    for line in lines {
        specs.extend(parse_manifest(line).map_err(|e| format!("reference spec: {e}"))?);
    }
    let report = serve_specs(&specs, &ServeOptions { workers: 2, ..Default::default() })
        .map_err(|e| format!("reference run: {e}"))?;
    report
        .records
        .iter()
        .map(|r| {
            let json = render_record_json(r);
            let prefix = format!("{{\"job\":{},", r.index);
            json.strip_prefix(&prefix)
                .map(str::to_string)
                .ok_or_else(|| format!("reference record without id prefix: {json}"))
        })
        .collect()
}

/// The full expected record for a served job id.
pub fn with_id(id: u64, tail: &str) -> String {
    format!("{{\"job\":{id},{tail}")
}
