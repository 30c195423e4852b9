//! Property tests for the network-chaos layer (`cf_runtime::netfault`)
//! and the end-to-end record digest (`cf_runtime::serve`):
//!
//! * the seeded wire-fault schedule is a pure function of
//!   `(seed, site, backend, fingerprint, attempt)` — so any
//!   interleaving of the same request multiset draws the same
//!   per-request fault decisions, which is what makes a chaos run
//!   reproducible at any concurrency;
//! * requests that differ only in their per-attempt `X-CF-Trace` header
//!   draw the same decision sequence, so tracing does not reshuffle a
//!   seeded schedule;
//! * the record digest catches **every** single-byte flip in a rendered
//!   record's core, and survives the router's id rewrite.

use std::collections::HashMap;
use std::time::Duration;

use cf_runtime::fault::fnv1a;
use cf_runtime::netfault::{fault_key, NetFaultPlan, NetFaultSite, NetFaultSpec};
use cf_runtime::serve::{render_record_json, verify_record_json, JobOutput, JobRecord};
use cf_runtime::{CancelSlot, Connector, FaultConnector, JobError, TraceContext};
use proptest::prelude::*;
use std::sync::Arc;

/// An upstream that always answers the same accept.
#[derive(Debug)]
struct Accepting;

impl Connector for Accepting {
    fn exchange(
        &self,
        _addr: &str,
        _raw: &[u8],
        _connect_timeout: Duration,
        _read_timeout: Duration,
        _cancel: Option<&CancelSlot>,
    ) -> std::io::Result<Vec<u8>> {
        Ok(b"HTTP/1.1 202 Accepted\r\nContent-Length: 8\r\n\r\n{\"id\":0}".to_vec())
    }
}

/// A router submit as it goes on the wire, with or without a trace.
fn submit_bytes(body: &str, trace: Option<TraceContext>) -> Vec<u8> {
    let trace = trace.map(|t| format!("X-CF-Trace: {}\r\n", t.encode())).unwrap_or_default();
    format!(
        "POST /jobs HTTP/1.1\r\nHost: cfrouter\r\n{trace}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// What each exchange of `requests` came back as through a fresh fault
/// connector over `plan`.
fn outcomes(plan: &NetFaultPlan, requests: &[Vec<u8>]) -> Vec<Result<Vec<u8>, std::io::ErrorKind>> {
    let connector = FaultConnector::new(Arc::new(Accepting), plan.clone());
    let t = Duration::from_secs(1);
    requests
        .iter()
        .map(|raw| connector.exchange("127.0.0.1:9", raw, t, t, None).map_err(|e| e.kind()))
        .collect()
}

fn spec(rate: f64) -> NetFaultSpec {
    let mut spec = NetFaultSpec::none();
    spec.refuse_rate = rate;
    spec.tear_rate = rate;
    spec.garbage_rate = rate;
    spec.corrupt_rate = rate;
    spec.connect_latency_rate = rate;
    spec.trickle_rate = rate;
    spec
}

/// Replays a sequence of `(backend, fingerprint)` exchanges the way the
/// fault connector does — the n-th exchange of a pair draws decision n
/// — and records every decision made.
fn schedule(
    plan: &NetFaultPlan,
    exchanges: &[(u64, u64)],
) -> HashMap<(u64, u64, u32), Option<&'static str>> {
    let mut attempts: HashMap<(u64, u64), u32> = HashMap::new();
    let mut out = HashMap::new();
    for &(backend, fp) in exchanges {
        let slot = attempts.entry((backend, fp)).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        let decision = plan.decide(backend, fp, attempt).map(|f| {
            // Stable site label, so shrunk failures read well.
            match f {
                cf_runtime::NetFault::Refuse => "refuse",
                cf_runtime::NetFault::ConnectLatency(_) => "connect_latency",
                cf_runtime::NetFault::Trickle(_) => "trickle",
                cf_runtime::NetFault::Tear => "tear",
                cf_runtime::NetFault::Garbage => "garbage",
                cf_runtime::NetFault::Corrupt => "corrupt",
            }
        });
        out.insert((backend, fp, attempt), decision);
    }
    out
}

proptest! {
    /// Same seed ⇒ identical fault schedule regardless of request
    /// interleaving: shuffling the exchange order arbitrarily maps every
    /// `(backend, fingerprint, attempt)` point to the same decision.
    #[test]
    fn schedule_is_interleaving_independent(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        pairs in proptest::collection::vec((0u64..4, 0u64..16), 1..64),
        shuffle_seed in any::<u64>(),
    ) {
        let plan = NetFaultPlan::new(seed, spec(rate));
        // A second interleaving: deterministic Fisher-Yates over the
        // same multiset of exchanges.
        let mut shuffled = pairs.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(schedule(&plan, &pairs), schedule(&plan, &shuffled));
    }

    /// Two plans with the same seed and spec agree on every decision
    /// point; a different seed diverges somewhere on a dense grid.
    #[test]
    fn same_seed_same_decisions(seed in any::<u64>(), rate in 0.05f64..0.95) {
        let a = NetFaultPlan::new(seed, spec(rate));
        let b = NetFaultPlan::new(seed, spec(rate));
        let c = NetFaultPlan::new(seed ^ 0x9E37_79B9, spec(rate));
        let mut diverged = false;
        for backend in 0..4u64 {
            for fp in 0..32u64 {
                for attempt in 0..2u32 {
                    for site in NetFaultSite::ALL {
                        let d = a.fires(site, backend, fp, attempt);
                        prop_assert_eq!(d, b.fires(site, backend, fp, attempt));
                        diverged |= d != c.fires(site, backend, fp, attempt);
                    }
                }
            }
        }
        prop_assert!(diverged, "seed change never altered any of 1536 decisions");
    }

    /// Submits that differ only in their `X-CF-Trace` span ids draw the
    /// same fault decisions, exchange by exchange, as each other and as
    /// the same submits sent untraced.
    #[test]
    fn trace_headers_do_not_move_the_schedule(
        seed in any::<u64>(),
        rate in 0.05f64..0.5,
        body_ids in proptest::collection::vec(0u32..3, 1..24),
        ids in proptest::collection::vec((1u64..u64::MAX, 1u64..u64::MAX), 24..25),
    ) {
        // Timing faults sleep for their duration; zero keeps the
        // property fast without changing which fault fires.
        let mut spec = spec(rate);
        spec.latency = Duration::ZERO;
        spec.trickle = Duration::ZERO;
        let plan = NetFaultPlan::new(seed, spec);
        let body = |b: u32| format!("{{\"workload\":\"matmul\",\"order\":{}}}", 32 << b);
        let traced = |pick: fn(&(u64, u64)) -> u64| -> Vec<Vec<u8>> {
            body_ids
                .iter()
                .zip(&ids)
                .map(|(&b, id)| {
                    let ctx = TraceContext { trace_id: 7, span_id: pick(id), parent: Some(3) };
                    submit_bytes(&body(b), Some(ctx))
                })
                .collect()
        };
        let (a, b) = (traced(|id| id.0), traced(|id| id.1));
        let plain: Vec<Vec<u8>> = body_ids.iter().map(|&b| submit_bytes(&body(b), None)).collect();
        for (traced, plain) in a.iter().zip(&plain) {
            prop_assert_eq!(fault_key(traced), fnv1a(plain));
        }
        let expected = outcomes(&plan, &plain);
        prop_assert_eq!(&outcomes(&plan, &a), &expected);
        prop_assert_eq!(&outcomes(&plan, &b), &expected);
    }

    /// The rendered record round-trips through its digest, survives the
    /// router's id rewrite, and any single-byte flip in the core fails
    /// verification.
    #[test]
    fn record_digest_detects_every_single_byte_flip(
        index in 0usize..100_000,
        label_idx in prop::collection::vec(0usize..64, 0..24),
        ok in any::<bool>(),
        elems in 0usize..1_000_000,
        hash in any::<u64>(),
        new_id in 0u64..1_000_000,
    ) {
        // Labels drawn from an alphabet that includes JSON-hostile
        // characters, so the digest marker scan is exercised against
        // escaped quotes and backslashes inside values.
        const ALPHABET: &[u8; 64] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123_ \"\\-.:,";
        let label: String =
            label_idx.iter().map(|&i| ALPHABET[i] as char).collect();
        let record = JobRecord {
            index,
            label,
            machine: "f1".to_string(),
            mode: "exec",
            outcome: if ok {
                Ok(JobOutput::Exec { elems, memory_hash: hash })
            } else {
                Err(JobError::Panicked(format!("worker died ({hash:x})")))
            },
        };
        let line = render_record_json(&record);
        prop_assert!(verify_record_json(&line, Some(index as u64)), "{}", line);
        prop_assert!(!verify_record_json(&line, Some(index as u64 + 1)), "{}", line);
        // The router's edge rewrite keeps the digest valid.
        let rewritten = line.replacen(
            &format!("{{\"job\":{index},"),
            &format!("{{\"job\":{new_id},"),
            1,
        );
        prop_assert_eq!(verify_record_json(&rewritten, Some(new_id)), true);
        // Every single-byte flip of the core is caught.
        let core_start = line.find(',').unwrap_or(0) + 1;
        let core_end = line.rfind(",\"digest\":\"").unwrap_or(line.len());
        let bytes = line.as_bytes();
        for at in core_start..core_end {
            let mut mutated = bytes.to_vec();
            mutated[at] ^= 0x20;
            if mutated == bytes {
                continue;
            }
            let mutated = String::from_utf8_lossy(&mutated).to_string();
            prop_assert!(
                !verify_record_json(&mutated, Some(index as u64)),
                "flip at {} undetected: {}", at, mutated
            );
        }
    }
}
