//! `mixed_kb6`: a 6-document KB with one registered poll subscription.
//! One closed-loop writer posts sentences as `ingest_kb300` does, while one
//! open-loop reader sends at a fixed rate, timing each request from when it
//! was due, and rotates `/relations` pages, thresholded `/marginals`, and
//! cursor polls of the subscription. Inference is a few milliseconds here,
//! so the accept loop, group-commit linger, fsync, HTTP parsing and
//! rendering, snapshot loads and subscription frames dominate.
//!
//! The writer cycles through a small pool of sentences: after the first
//! pass every post re-delivers a known sentence (same ids), which bumps
//! row counts but adds no variables, so the KB stays small for the whole
//! run instead of growing with the run's length.

use crate::batch::{spouse_config, BASE_SEED};
use crate::client;
use crate::serve;
use crate::stats::{median, percentile, Replica};
use crate::trace::Trace;
use crate::{metric, Ctx, Outcome};
use deepdive_core::apps::SpouseApp;
use deepdive_storage::BaseChange;
use serde_json::{json, Value as Json};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};

const DOCS: usize = 6;
const SENTENCE_SEED_BASE: u64 = 0x31_0000;
/// Distinct sentences the writer cycles through.
const POOL: usize = 8;
const SETUPS: usize = 15;
/// Upper bound of the writer's think time between posts. Without it the
/// writer, which would send the moment an ack arrives, locks into step
/// with the daemon's 5 ms accept poll, and its ack latencies jump between
/// a few fixed values from run to run.
const THINK_MAX: Duration = Duration::from_millis(5);
/// The reader's fixed send rate.
const READS_PER_S: f64 = 100.0;
const PAGE: usize = 10;
const RELATION: &str = "MarriedCandidate";
const MARGINALS: &str = "MarriedMentions";
const MIN_P: f64 = 0.5;
const REPLAY_BATCHES: usize = 200;
const REPLAY_RECORDS: usize = 20;
/// In-process repetitions when timing page and marginal reads.
const LOCAL_READS: usize = 500;

#[derive(Clone, Copy, PartialEq)]
enum Read {
    Relations,
    Marginals,
    Poll,
}

struct Sample {
    kind: Read,
    /// Due time → response (ms).
    latency: f64,
    /// Send → response (ms).
    service: f64,
    /// Send time − due time (ms).
    lateness: f64,
    ok: bool,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let config = spouse_config(DOCS, BASE_SEED + 2000 + ctx.seed % 1000);
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut spans = Trace::new(ctx.trace, Instant::now());
    let (primary, startups) =
        serve::start_primary_repeated(&config, &corpus, &ctx.work, SETUPS, &mut spans)?;
    let addr = primary.addr;

    let mut reference = SpouseApp::build_with_corpus(config.clone(), corpus.clone())
        .map_err(|e| format!("reference build: {e}"))?;
    reference.run().map_err(|e| format!("reference run: {e}"))?;
    let pool: Vec<Vec<BaseChange>> =
        serve::sentences(&config, SENTENCE_SEED_BASE + ctx.seed, 4 * POOL)
            .iter()
            .map(|t| reference.document_changes(t))
            .filter(|c| serve::names_two_people(c))
            .take(POOL)
            .collect();
    let bodies: Vec<String> = pool.iter().map(|c| serve::body_for(c)).collect();

    let sub = client::request(
        addr,
        "POST",
        "/subscriptions",
        &json!({"relation": json!({"name": RELATION}), "mode": "poll"}).to_string(),
    )?;
    if sub.status != 201 {
        return Err(format!("subscribe: {} {}", sub.status, sub.body));
    }
    let sub = sub.json();
    let sub_id = sub
        .get("id")
        .and_then(Json::as_str)
        .ok_or("subscription id")?
        .to_string();
    let mut replica = Replica::default();
    replica.apply(sub.get("snapshot").ok_or("subscription snapshot")?)?;
    let first_epoch = replica.epoch;

    let origin = Instant::now();
    let end = origin + Duration::from_secs_f64(ctx.seconds);
    let plan = serve::Writers {
        addr,
        bodies: &bodies,
        limit: usize::MAX,
        go: &|_| Instant::now() < end,
        think_max: THINK_MAX,
        seed: ctx.seed,
        rounds: None,
        origin,
        next: AtomicUsize::new(0),
        acked: AtomicUsize::new(0),
    };
    let (acks, reads, polls, unsent) = std::thread::scope(|s| {
        let mut w_spans = spans.fork();
        let writer = s.spawn(|| (plan.run(&mut w_spans), w_spans));
        let mut r_spans = spans.fork();
        let reader =
            s.spawn(|| reader(addr, &sub_id, first_epoch, end, &mut r_spans).map(|r| (r, r_spans)));
        let (acks, w_spans) = writer.join().expect("writer thread");
        let ((reads, polls, unsent), r_spans) = reader.join().expect("reader thread")?;
        spans.absorb(w_spans);
        spans.absorb(r_spans);
        Ok::<_, String>((acks, reads, polls, unsent))
    })?;

    // Drain the subscription to the final epoch and rebuild the relation.
    let (final_epoch, _) = serve::health(addr)?;
    let mut polls = polls;
    let mut cursor = polls.last().map_or(first_epoch, |p| p.0);
    while cursor < final_epoch {
        let (through, frames) = poll(addr, &sub_id, cursor)?;
        cursor = through;
        polls.push((through, frames));
    }
    let mut frame_bytes = Vec::new();
    let mut delta_frames = 0usize;
    let replayed = polls.iter().flat_map(|(_, f)| f).try_for_each(|f| {
        if f.get("type").and_then(Json::as_str) == Some("delta") {
            delta_frames += 1;
            frame_bytes.push(f.to_string().len() as f64);
        }
        replica.apply(f)
    });

    let ok_acks: Vec<&serve::Ack> = acks.iter().filter(|a| a.status == 200).collect();
    let failed_reads = reads.iter().filter(|r| !r.ok).count();
    let mut o = Outcome {
        attempted: (acks.len() + reads.len()) as u64,
        failed: (acks.len() - ok_acks.len() + failed_reads) as u64,
        ..Default::default()
    };
    let write_wall = serve::write_wall(&acks);
    let ack_ms: Vec<f64> = ok_acks.iter().map(|a| a.ms).collect();
    let read_ms: Vec<f64> = reads.iter().map(|r| r.latency).collect();
    let p50 = percentile(&ack_ms, 0.5).ok_or("no acks")?;
    let p90 = percentile(&ack_ms, 0.9).ok_or("no acks")?;
    let r50 = percentile(&read_ms, 0.5).ok_or("no reads")?;
    let r90 = percentile(&read_ms, 0.9).ok_or("no reads")?;
    let r99 = percentile(&read_ms, 0.99).ok_or("no reads")?;
    let setup: Vec<f64> = startups.iter().map(|s| s.setup_s).collect();
    o.note("setup_samples_s", json!(setup));
    o.end_to_end
        .push(metric("setup_s", median(&setup).unwrap_or(0.0), "s"));
    o.end_to_end.push(metric(
        "docs_per_s",
        ok_acks.len() as f64 / write_wall.max(1e-9),
        "docs/s",
    ));
    o.end_to_end.push(metric("op_p50_ms", r50.value, "ms"));
    o.end_to_end.push(metric("op_p90_ms", r90.value, "ms"));
    o.end_to_end
        .push(metric("ingest_ack_p50_ms", p50.value, "ms"));
    o.end_to_end
        .push(metric("ingest_ack_p90_ms", p90.value, "ms"));
    // Measured and printed, but not in `BENCHMARK.json`: on a shared
    // 2-vCPU host its run-to-run spread exceeds any bound a metric may have.
    o.end_to_end.push(metric("read_p99_ms", r99.value, "ms"));

    o.check(
        "every ack is 200",
        match acks.iter().find(|a| a.status != 200) {
            None => Ok(()),
            Some(a) => Err(format!("post {} answered {}", a.doc, a.status)),
        },
    );
    o.check(
        "every read is 200",
        if failed_reads == 0 {
            Ok(())
        } else {
            Err(format!("{failed_reads} of {} reads failed", reads.len()))
        },
    );
    let rebuilt = serve::batches(&ok_acks);
    o.check(
        "batches rebuild from ack epochs",
        rebuilt.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let batches = rebuilt.unwrap_or_default();

    let cols = serve::columns(&reference.dd, RELATION)?;
    let served_now = serve::served_rows(addr, RELATION, &cols, final_epoch)?;
    o.check(
        "subscription frames rebuild /relations",
        replayed.and_then(|()| {
            if replica.epoch != final_epoch {
                return Err(format!(
                    "replica at epoch {}, served {final_epoch}",
                    replica.epoch
                ));
            }
            serve::diff_rows("replayed frames", &replica.rows, &served_now)
        }),
    );

    let mut stage_sum = 0.0;
    if ctx.trace {
        let replayed = serve::replay(
            &mut reference.dd,
            &batches,
            &|d| pool[d % pool.len()].clone(),
            &ctx.dir("replay"),
            &mut spans,
            (REPLAY_BATCHES, REPLAY_RECORDS),
        )?;
        stage_sum = replayed.stage_sum_ms;
        o.per_layer.extend(replayed.metrics);
    } else {
        let all: Vec<BaseChange> = ok_acks
            .iter()
            .flat_map(|a| pool[a.doc % pool.len()].clone())
            .collect();
        reference
            .dd
            .apply_base_changes(all)
            .map_err(|e| format!("reference apply: {e}"))?;
    }
    o.check(
        "served rows equal an in-process DeepDive's",
        spans
            .time("check.rows", None, 0, || {
                serve::check_rows(addr, final_epoch, &reference.dd, "primary")
            })
            .0,
    );
    let gauges = serve::daemon_gauges(addr)?;

    // In-process cost of the reads, on the snapshot the daemon serves.
    let snap = primary.handle.state().current();
    let rel = snap.db.relation(RELATION).ok_or("served relation")?;
    let mut page_ms = Vec::with_capacity(LOCAL_READS);
    let mut marg_ms = Vec::with_capacity(LOCAL_READS);
    for i in 0..LOCAL_READS {
        let offset = (i * PAGE) % rel.len().max(1);
        let t = Instant::now();
        std::hint::black_box(rel.page(offset, PAGE));
        let t1 = Instant::now();
        std::hint::black_box(
            snap.marginal_rows(MARGINALS)
                .iter()
                .filter(|(_, p)| *p >= MIN_P)
                .count(),
        );
        let t2 = Instant::now();
        page_ms.push(t1.duration_since(t).as_secs_f64() * 1e3);
        marg_ms.push(t2.duration_since(t1).as_secs_f64() * 1e3);
    }
    drop(snap);
    primary.handle.shutdown();

    let lateness: Vec<f64> = reads.iter().map(|r| r.lateness).collect();
    let late99 = percentile(&lateness, 0.99).map_or(0.0, |p| p.value);
    let late_max = lateness.iter().copied().fold(0.0, f64::max);
    let due = reads.len() + unsent;
    let behind = unsent as f64 > 0.01 * due as f64;
    o.note(
        "reader",
        json!({
            "rate_per_s": READS_PER_S,
            "due": due,
            "sent": reads.len(),
            "lateness_p99_ms": late99,
            "lateness_max_ms": late_max,
            "generator_behind": behind,
        }),
    );
    o.note(
        "percentile_samples",
        json!({
            "ingest_ack_p50_ms": json!({"samples": p50.samples, "beyond": p50.beyond}),
            "ingest_ack_p90_ms": json!({"samples": p90.samples, "beyond": p90.beyond, "trusted": p90.trusted()}),
            "op_p50_ms": json!({"samples": r50.samples, "beyond": r50.beyond}),
            "op_p90_ms": json!({"samples": r90.samples, "beyond": r90.beyond, "trusted": r90.trusted()}),
            "read_p99_ms": json!({"samples": r99.samples, "beyond": r99.beyond, "trusted": r99.trusted()}),
        }),
    );
    let base = startups.last().expect("a start-up");
    o.note("threads", json!(base.threads));
    o.note("client_threads", json!({"writers": 1, "readers": 1}));
    o.note("kb_docs", json!(DOCS));
    o.note("corpus_seed", json!(config.corpus.seed));
    o.note("acked_docs", json!(ok_acks.len()));
    o.note("final_epoch", json!(final_epoch));

    if ctx.trace {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        let kind_ms = |k: Read| -> Vec<f64> {
            reads
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.service)
                .collect()
        };
        let (page, marg) = (med(&page_ms), med(&marg_ms));
        let unaccounted: Vec<f64> = reads
            .iter()
            .filter_map(|r| match r.kind {
                Read::Relations => Some(r.service - page),
                Read::Marginals => Some(r.service - marg),
                Read::Poll => None,
            })
            .collect();
        let epochs = final_epoch.saturating_sub(first_epoch).max(1);
        o.per_layer.extend(serve::daemon_layers(
            &startups,
            gauges,
            (p50.value, stage_sum),
            &spans,
            origin,
        ));
        o.per_layer.extend([
            metric("http.relations_ms", med(&kind_ms(Read::Relations)), "ms"),
            metric("http.marginals_ms", med(&kind_ms(Read::Marginals)), "ms"),
            metric("http.sub_poll_ms", med(&kind_ms(Read::Poll)), "ms"),
            metric("storage.page_ms", page, "ms"),
            metric("serve.marginal_rows_ms", marg, "ms"),
            metric("http.unaccounted_ms", med(&unaccounted), "ms"),
            metric(
                "subscriptions.frames",
                delta_frames as f64 / epochs as f64,
                "count",
            ),
            metric("subscriptions.frame_bytes", med(&frame_bytes), "count"),
        ]);
        o.spans = Some(spans);
    }
    Ok(o)
}

type Polls = Vec<(u64, Vec<Json>)>;

/// The open-loop reader: request `k` is due at `k / READS_PER_S` after the
/// start, whatever happened to earlier ones; its latency counts from then.
/// Returns the samples, every poll's `(through, frames)`, and how many
/// requests came due before `end` but were never sent.
fn reader(
    addr: std::net::SocketAddr,
    sub_id: &str,
    first_epoch: u64,
    end: Instant,
    spans: &mut Trace,
) -> Result<(Vec<Sample>, Polls, usize), String> {
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / READS_PER_S);
    let mut samples = Vec::new();
    let mut polls: Polls = Vec::new();
    let mut cursor = first_epoch;
    let mut total_rows = 1usize;
    let mut k = 0u32;
    loop {
        let due = start + period * k;
        if due >= end {
            return Ok((samples, polls, 0));
        }
        let now = Instant::now();
        if now >= end {
            let due_total = ((end - start).as_secs_f64() * READS_PER_S) as usize;
            let unsent = due_total.saturating_sub(samples.len());
            return Ok((samples, polls, unsent));
        }
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let kind = [Read::Relations, Read::Marginals, Read::Poll][k as usize % 3];
        let (name, path) = match kind {
            Read::Relations => {
                let offset = (k as usize / 3 * PAGE) % total_rows.max(1);
                (
                    "http.relations",
                    format!("/relations/{RELATION}?offset={offset}&limit={PAGE}"),
                )
            }
            Read::Marginals => (
                "http.marginals",
                format!("/marginals/{MARGINALS}?min_p={MIN_P}"),
            ),
            Read::Poll => (
                "http.sub_poll",
                format!("/subscriptions/{sub_id}?from={cursor}&wait_ms=0"),
            ),
        };
        let reply = client::get(addr, &path);
        let done = Instant::now();
        spans.record(name, sent, done, None, u64::from(k));
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        let ok = matches!(&reply, Ok(r) if r.status == 200);
        if let (true, Ok(r)) = (ok, &reply) {
            let v = r.json();
            match kind {
                Read::Relations => {
                    total_rows = v.get("total").and_then(Json::as_u64).unwrap_or(1) as usize;
                }
                Read::Poll => {
                    let through = v.get("through").and_then(Json::as_u64).unwrap_or(cursor);
                    let frames = v
                        .get("frames")
                        .and_then(Json::as_array)
                        .cloned()
                        .unwrap_or_default();
                    cursor = through;
                    polls.push((through, frames));
                }
                Read::Marginals => {}
            }
        }
        samples.push(Sample {
            kind,
            latency: ms(due, done),
            service: ms(sent, done),
            lateness: ms(due, sent),
            ok,
        });
        k += 1;
    }
}

/// One non-blocking cursor poll: `(through, frames)`.
fn poll(addr: std::net::SocketAddr, sub_id: &str, from: u64) -> Result<(u64, Vec<Json>), String> {
    let v = client::get_ok(
        addr,
        &format!("/subscriptions/{sub_id}?from={from}&wait_ms=0"),
    )?;
    let through = v
        .get("through")
        .and_then(Json::as_u64)
        .ok_or("poll without through")?;
    let frames = v
        .get("frames")
        .and_then(Json::as_array)
        .cloned()
        .unwrap_or_default();
    Ok((through, frames))
}
