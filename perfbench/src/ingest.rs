//! `ingest_kb300`: a 300-document spouse KB served as a primary with its
//! WAL on disk, default group commit, and a checkpoint directory so the
//! background flusher runs. `nproc` closed-loop writer connections each
//! post one new sentence and wait for the ack; then a follower built from
//! the same base tails the primary's WAL until its epoch matches. Each
//! ingest does O(KB) Gibbs, compile and fingerprint work, so this is where
//! O(delta) epochs, the write path and thread changes show.

use crate::batch::{spouse_config, BASE_SEED};
use crate::serve;
use crate::stats::{median, percentile};
use crate::trace::Trace;
use crate::{metric, Ctx, Outcome};
use deepdive_core::apps::SpouseApp;
use deepdive_storage::BaseChange;
use serde_json::json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const DOCS: usize = 300;
/// Distinct from every batch and serve corpus seed.
const SENTENCE_SEED_BASE: u64 = 0x5E17_0000;
/// Ingest sentences generated per run; more than a run can post.
const POOL: usize = 1200;
/// Primary start-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The writers keep going until at least this many acks, so that the ack
/// p90 (`op_p90_ms`) has ten samples beyond it.
const MIN_ACKS: usize = 110;
/// Share of `--seconds` the writers get; the follower's catch-up follows.
const WRITE_SHARE: f64 = 0.45;
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(150);
const REPLAY_BATCHES: usize = 30;
const REPLAY_RECORDS: usize = 20;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let config = spouse_config(DOCS, BASE_SEED + 1000 + ctx.seed % 1000);
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);

    let mut spans = Trace::new(ctx.trace, Instant::now());
    let (primary, startups) =
        serve::start_primary_repeated(&config, &corpus, &ctx.work, SETUPS, &mut spans)?;
    let follower = serve::build_follower(&config, &corpus, &ctx.dir("follower"), primary.addr)?;
    // The reference applies what the primary acked; it also numbers the
    // new sentences' ids past the base KB's.
    let mut reference = SpouseApp::build_with_corpus(config.clone(), corpus.clone())
        .map_err(|e| format!("reference build: {e}"))?;
    reference.run().map_err(|e| format!("reference run: {e}"))?;
    let texts = serve::sentences(&config, SENTENCE_SEED_BASE + ctx.seed, POOL);
    let changes: Vec<Vec<BaseChange>> = texts
        .iter()
        .map(|t| reference.document_changes(t))
        .filter(|c| serve::names_two_people(c))
        .collect();
    let bodies: Vec<String> = changes.iter().map(|c| serve::body_for(c)).collect();

    // Writers: a closed loop per connection, `nproc` connections, posting
    // in lock-step rounds. Free-running writers settle into either always
    // sharing a group commit or always alternating, and a run's throughput
    // would depend on which; rounds keep every run sharing.
    let writers = ctx.host_cpus.max(1);
    let origin = Instant::now();
    let window = Duration::from_secs_f64(ctx.seconds * WRITE_SHARE);
    let plan = serve::Writers {
        addr: primary.addr,
        bodies: &bodies,
        limit: bodies.len(),
        go: &|n| origin.elapsed() < window || n < MIN_ACKS,
        think_max: Duration::ZERO,
        seed: ctx.seed,
        rounds: Some(serve::Rounds::new(writers)),
        origin,
        next: AtomicUsize::new(0),
        acked: AtomicUsize::new(0),
    };
    let mut acks = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..writers)
            .map(|_| {
                let mut local = spans.fork();
                let plan = &plan;
                s.spawn(move || (plan.run(&mut local), local))
            })
            .collect();
        for h in handles {
            let (a, local) = h.join().expect("writer thread");
            acks.extend(a);
            spans.absorb(local);
        }
    });
    let write_wall = serve::write_wall(&acks);
    let ack_ms: Vec<f64> = acks
        .iter()
        .filter(|a| a.status == 200)
        .map(|a| a.ms)
        .collect();
    // One more post on its own: a batch of one record. Every ingested
    // sentence has the same delta, so its ack's sweep count is what a
    // follower, which applies one record per epoch, spends on each.
    let solo = plan.next.fetch_add(1, Ordering::SeqCst);
    if solo >= bodies.len() {
        return Err("the sentence pool ran out".into());
    }
    acks.push(plan.post(solo, &mut spans));
    let ok: Vec<&serve::Ack> = acks.iter().filter(|a| a.status == 200).collect();
    let (primary_epoch, primary_fp) = serve::health(primary.addr)?;

    // Follower catch-up: records ÷ (start → epoch equals the primary's).
    let f_start = Instant::now();
    let follower = follower
        .start()
        .map_err(|e| format!("follower start: {e}"))?;
    let f_addr = follower.addr();
    let (mut f_epoch, mut f_fp) = (0, String::new());
    while f_start.elapsed() < CATCHUP_TIMEOUT {
        if let Ok((e, fp)) = serve::health(f_addr) {
            (f_epoch, f_fp) = (e, fp);
            if e >= primary_epoch {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let catchup_s = f_start.elapsed().as_secs_f64();
    spans.record("replication.catchup", f_start, Instant::now(), None, 0);
    let gauges = serve::daemon_gauges(primary.addr)?;

    let mut o = Outcome {
        attempted: acks.len() as u64,
        failed: (acks.len() - ok.len()) as u64,
        ..Default::default()
    };
    let p50 = percentile(&ack_ms, 0.5).ok_or("no acks")?;
    let p90 = percentile(&ack_ms, 0.9).ok_or("no acks")?;
    let setup: Vec<f64> = startups.iter().map(|s| s.setup_s).collect();
    o.note("setup_samples_s", json!(setup));
    o.end_to_end
        .push(metric("setup_s", median(&setup).unwrap_or(0.0), "s"));
    o.end_to_end.push(metric(
        "docs_per_s",
        ack_ms.len() as f64 / write_wall.max(1e-9),
        "docs/s",
    ));
    o.end_to_end.push(metric("op_p50_ms", p50.value, "ms"));
    o.end_to_end.push(metric("op_p90_ms", p90.value, "ms"));
    o.end_to_end.push(metric(
        "follower_catchup_docs_per_s",
        f_epoch as f64 / catchup_s.max(1e-9),
        "docs/s",
    ));

    // Correctness.
    o.check(
        "every ack is 200",
        match acks.iter().find(|a| a.status != 200) {
            None => Ok(()),
            Some(a) => Err(format!("doc {} answered {}", a.doc, a.status)),
        },
    );
    o.check(
        "follower caught up",
        if f_epoch == primary_epoch {
            Ok(())
        } else {
            Err(format!(
                "follower epoch {f_epoch}, primary {primary_epoch} after {catchup_s:.1}s"
            ))
        },
    );
    let rebuilt = serve::batches(&ok);
    o.check(
        "batches rebuild from ack epochs",
        rebuilt.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    let batches = rebuilt.unwrap_or_default();

    // Traced run: replay the recorded batches in-process; either way the
    // reference ends up holding every acked document.
    let mut stage_sum = 0.0;
    if ctx.trace {
        let replayed = serve::replay(
            &mut reference.dd,
            &batches,
            &|d| changes[d].clone(),
            &ctx.dir("replay"),
            &mut spans,
            (REPLAY_BATCHES, REPLAY_RECORDS),
        )?;
        stage_sum = replayed.stage_sum_ms;
        o.per_layer.extend(replayed.metrics);
    } else {
        let all: Vec<BaseChange> = ok.iter().flat_map(|a| changes[a.doc].clone()).collect();
        reference
            .dd
            .apply_base_changes(all)
            .map_err(|e| format!("reference apply: {e}"))?;
    }
    o.check(
        "primary rows equal an in-process DeepDive's",
        spans
            .time("check.rows", None, 0, || {
                serve::check_rows(primary.addr, primary_epoch, &reference.dd, "primary")
            })
            .0,
    );
    o.check(
        "follower rows equal the primary's",
        spans
            .time("check.rows", None, 1, || {
                serve::check_rows(f_addr, f_epoch, &reference.dd, "follower")
            })
            .0,
    );

    // The primary/follower marginal mismatch under concurrent ingest is
    // reported as found, neither gated nor hidden.
    let cols = serve::columns(&reference.dd, "MarriedMentions")?;
    let pm = serve::served_marginals(primary.addr, "MarriedMentions", &cols)?;
    let fm = serve::served_marginals(f_addr, "MarriedMentions", &cols)?;
    let differing = pm.iter().filter(|(k, p)| fm.get(*k) != Some(p)).count();
    let max_dp = pm
        .iter()
        .filter_map(|(k, p)| fm.get(k).map(|q| (p - q).abs()))
        .fold(0.0, f64::max);
    o.note(
        "replica_mismatch",
        json!({
            "fingerprint_equal": primary_fp == f_fp,
            "primary_fingerprint": primary_fp,
            "follower_fingerprint": f_fp,
            "marginals_differing": differing,
            "marginals_total": pm.len(),
            "max_abs_dp": max_dp,
        }),
    );

    follower.shutdown();
    primary.handle.shutdown();

    let base = startups.last().expect("a start-up");
    o.note("threads", json!(base.threads));
    o.note("writer_connections", json!(writers));
    o.note("kb_docs", json!(DOCS));
    o.note("corpus_seed", json!(config.corpus.seed));
    o.note("acked_docs", json!(ok.len()));
    o.note("batches", json!(batches.len()));
    o.note("primary_epoch", json!(primary_epoch));
    o.note("catchup_s", json!(catchup_s));
    o.note(
        "percentile_samples",
        json!({
            "op_p50_ms": json!({"samples": p50.samples, "beyond": p50.beyond}),
            "op_p90_ms": json!({"samples": p90.samples, "beyond": p90.beyond, "trusted": p90.trusted()}),
        }),
    );

    if ctx.trace {
        o.per_layer.extend(serve::daemon_layers(
            &startups,
            gauges,
            (p50.value, stage_sum),
            &spans,
            origin,
        ));
        o.spans = Some(spans);
    }
    Ok(o)
}
