//! Pieces both serve workloads share: starting a daemon over a freshly
//! built spouse KB, generating ingest bodies, the closed-loop writer,
//! reading whole relations back over HTTP, and replaying recorded ingest
//! batches through the in-process layers for the traced run.

use crate::batch::{pipeline_layers, Stages};
use crate::client;
use crate::stats::{batches_from_acks, median};
use crate::trace::{span_cost_ns, Trace};
use crate::{metric, Metric};
use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::{Checkpoint, CheckpointTracker, DeepDive, FaultInjector};
use deepdive_corpus::SpouseCorpus;
use deepdive_sampler::{parallel_marginals, GibbsOptions};
use deepdive_serve::{ServeConfig, ServeSnapshot, Server, ServerHandle, Wal};
use deepdive_storage::{BaseChange, Value};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant, SystemTime};

/// The daemon's background flush cadence (`ServeConfig::flush_interval`'s
/// default), which the replay's checkpoint saves follow.
const FLUSH_EVERY_S: f64 = 5.0;
/// Full-rewrite cadence of incremental checkpoints (the daemon default).
const FULL_EVERY: u64 = 16;
const READY_TIMEOUT: Duration = Duration::from_secs(120);

pub fn cell(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => json!(*b),
        Value::Int(i) => json!(*i),
        Value::Float(f) => json!(*f),
        Value::Text(t) => json!(t.as_ref()),
        Value::Id(id) => json!(*id),
    }
}

/// The `POST /documents` body for one document's base rows.
pub fn body_for(changes: &[BaseChange]) -> String {
    let mut by_relation: BTreeMap<&str, Vec<Json>> = BTreeMap::new();
    for ch in changes {
        by_relation
            .entry(ch.relation.as_str())
            .or_default()
            .push(Json::Array(ch.row.iter().map(cell).collect()));
    }
    let rows: serde_json::Map = by_relation
        .into_iter()
        .map(|(r, rows)| (r.to_string(), Json::Array(rows)))
        .collect();
    json!({ "rows": Json::Object(rows) }).to_string()
}

/// Single sentences for ingest, from a corpus generated with a seed of
/// their own so they are new to the served KB.
pub fn sentences(config: &SpouseAppConfig, corpus_seed: u64, count: usize) -> Vec<String> {
    let mut c = config.corpus.clone();
    c.seed = corpus_seed;
    c.num_docs = count;
    c.sentences_per_doc = 1;
    deepdive_corpus::spouse::generate(&c)
        .documents
        .into_iter()
        .map(|d| d.text)
        .filter(|t| !t.trim().is_empty())
        .collect()
}

/// Whether a sentence's rows name exactly two people: one marriage
/// candidate. Ingesting only such sentences gives every post the same size
/// of grounding delta, so the refresh sweeps the daemon grants, and with
/// them the cost of an ingest, do not swing with the mix of sentences a
/// run happens to draw.
pub fn names_two_people(changes: &[BaseChange]) -> bool {
    changes.iter().filter(|c| c.relation == "Mention").count() == 2
}

/// A running daemon.
pub struct Node {
    pub handle: ServerHandle,
    pub addr: SocketAddr,
}

/// Timings of one primary start-up.
pub struct Startup {
    /// Base KB build + `Server::new` + start until `/readyz` answers 200.
    pub setup_s: f64,
    /// The base KB's pipeline stages.
    pub stages: Stages,
    pub variables: usize,
    pub factors: usize,
    pub threads: usize,
}

fn primary_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal_dir: Some(dir.join("wal")),
        checkpoint_dir: Some(dir.join("ckpt")),
        ..Default::default()
    }
}

/// Build the base KB and serve it as a primary with its WAL and checkpoint
/// under `dir`; each step is a span under one `setup` span with id `id`.
pub fn start_primary(
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    dir: &Path,
    spans: &mut Trace,
    id: u64,
) -> Result<(Node, Startup), String> {
    let corpus = corpus.clone();
    let t0 = Instant::now();
    let first = spans.len();
    let (app, build_ms) = spans.time("setup.build", None, id, || {
        SpouseApp::build_with_corpus(config.clone(), corpus)
    });
    let mut app = app.map_err(|e| format!("build_with_corpus: {e}"))?;
    let (result, _) = spans.time("setup.run", None, id, || app.run());
    let result = result.map_err(|e| format!("base run: {e}"))?;
    let threads = app.dd.config.threads;
    let (handle, _) = spans.time("setup.serve", None, id, || {
        Server::new(app.dd, &primary_config(dir)).and_then(Server::start)
    });
    let handle = handle.map_err(|e| format!("Server::new/start: {e}"))?;
    let addr = handle.addr();
    spans.time("setup.ready", None, id, || wait_ready(addr)).0?;
    let t1 = Instant::now();
    let parent = spans.record("setup", t0, t1, None, id);
    spans.adopt(first, parent);
    Ok((
        Node { handle, addr },
        Startup {
            setup_s: t1.duration_since(t0).as_secs_f64(),
            stages: Stages::new(build_ms, &result.timings),
            variables: result.num_variables,
            factors: result.num_factors,
            threads,
        },
    ))
}

/// Start the primary `repeats` times (each from scratch) and keep the last
/// one; `setup_s` is the median start-up.
pub fn start_primary_repeated(
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    work: &Path,
    repeats: usize,
    spans: &mut Trace,
) -> Result<(Node, Vec<Startup>), String> {
    let mut startups = Vec::with_capacity(repeats);
    for i in 0..repeats {
        let dir = work.join(format!("primary-{i}"));
        let (node, startup) = start_primary(config, corpus, &dir, spans, i as u64)?;
        startups.push(startup);
        if i + 1 == repeats {
            return Ok((node, startups));
        }
        node.handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Err("no start-up requested".into())
}

/// A follower over the same base KB, constructed but not yet started.
pub fn build_follower(
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    dir: &Path,
    primary: SocketAddr,
) -> Result<Server, String> {
    let mut app = SpouseApp::build_with_corpus(config.clone(), corpus.clone())
        .map_err(|e| format!("follower build: {e}"))?;
    app.run().map_err(|e| format!("follower base run: {e}"))?;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        wal_dir: Some(dir.join("wal")),
        checkpoint_dir: Some(dir.join("ckpt")),
        follow: Some(format!("http://{primary}")),
        ..Default::default()
    };
    Server::new(app.dd, &cfg).map_err(|e| format!("follower Server::new: {e}"))
}

pub fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(r) = client::get(addr, "/readyz") {
            if r.status == 200 {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("{addr} never became ready"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The served epoch and fingerprint (`/healthz`).
pub fn health(addr: SocketAddr) -> Result<(u64, String), String> {
    let v = client::get_ok(addr, "/healthz")?;
    let epoch = v
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or("healthz without epoch")?;
    let fp = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    Ok((epoch, fp))
}

/// One `POST /documents` as the writer saw it.
#[derive(Debug, Clone)]
pub struct Ack {
    pub doc: usize,
    /// HTTP status; 0 when the request failed before a status arrived.
    pub status: u16,
    /// Seconds since the run's origin when the request was sent.
    pub sent_s: f64,
    pub ms: f64,
    pub epoch: Option<u64>,
    pub sweeps: Option<u64>,
}

/// Closed-loop writers sharing one document sequence: each connection takes
/// the next document index `k`, pauses for its think time, posts body
/// `k % bodies.len()`, waits for the ack, and repeats while `go(acked so
/// far)` holds and fewer than `limit` documents were taken.
pub struct Writers<'a> {
    pub addr: SocketAddr,
    pub bodies: &'a [String],
    pub limit: usize,
    pub go: &'a (dyn Fn(usize) -> bool + Sync),
    /// Think time before each post is uniform in `[0, think_max)`, drawn
    /// from `seed` and the document index.
    pub think_max: Duration,
    pub seed: u64,
    /// With `Some`, the connections post in lock-step rounds: each sends
    /// one document, and the next round starts once every ack is in.
    pub rounds: Option<Rounds>,
    pub origin: Instant,
    pub next: AtomicUsize,
    pub acked: AtomicUsize,
}

/// Lock-step state shared by the writers of [`Writers::rounds`].
pub struct Rounds {
    barrier: Barrier,
    parties: usize,
    stop: AtomicBool,
}

impl Rounds {
    pub fn new(parties: usize) -> Rounds {
        Rounds {
            barrier: Barrier::new(parties),
            parties,
            stop: AtomicBool::new(false),
        }
    }
}

impl Writers<'_> {
    /// Whether this connection posts again. In lock-step mode one writer
    /// decides for the round, so every connection stops on the same round.
    fn another(&self) -> bool {
        let taken = self.next.load(Ordering::SeqCst);
        let Some(r) = &self.rounds else {
            return taken < self.limit && (self.go)(self.acked.load(Ordering::SeqCst));
        };
        if r.barrier.wait().is_leader() {
            let go =
                taken + r.parties <= self.limit && (self.go)(self.acked.load(Ordering::SeqCst));
            r.stop.store(!go, Ordering::SeqCst);
        }
        r.barrier.wait();
        !r.stop.load(Ordering::SeqCst)
    }

    /// One connection's loop.
    pub fn run(&self, spans: &mut Trace) -> Vec<Ack> {
        let mut out = Vec::new();
        while self.another() {
            let k = self.next.fetch_add(1, Ordering::SeqCst);
            if k >= self.limit {
                break;
            }
            std::thread::sleep(self.think_max.mul_f64(unit_random(self.seed, k as u64)));
            out.push(self.post(k, spans));
        }
        out
    }

    /// Post document `k` and wait for its ack.
    pub fn post(&self, k: usize, spans: &mut Trace) -> Ack {
        let sent = Instant::now();
        let body = &self.bodies[k % self.bodies.len()];
        let reply = client::request(self.addr, "POST", "/documents", body);
        let done = Instant::now();
        spans.record("http.post", sent, done, None, k as u64);
        let (status, v) = match reply {
            Ok(r) => (r.status, r.json()),
            Err(_) => (0, Json::Null),
        };
        if status == 200 {
            self.acked.fetch_add(1, Ordering::SeqCst);
        }
        Ack {
            doc: k,
            status,
            sent_s: sent.duration_since(self.origin).as_secs_f64(),
            ms: done.duration_since(sent).as_secs_f64() * 1e3,
            epoch: v.get("epoch").and_then(Json::as_u64),
            sweeps: v.get("refresh_samples").and_then(Json::as_u64),
        }
    }
}

/// A number in `[0, 1)` drawn from `(seed, k)` (splitmix64).
pub fn unit_random(seed: u64, k: u64) -> f64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Seconds from the origin to the last ack: the writers' wall time.
pub fn write_wall(acks: &[Ack]) -> f64 {
    acks.iter()
        .map(|a| a.sent_s + a.ms / 1e3)
        .fold(0.0, f64::max)
}

/// Rebuild the batches behind a run's successful acks (see
/// [`batches_from_acks`]), each with the sweep count its acks report and
/// when its first request was sent.
pub fn batches(acks: &[&Ack]) -> Result<Vec<Batch>, String> {
    let pairs: Vec<(usize, u64)> = acks.iter().map(|a| (a.doc, a.epoch.unwrap_or(0))).collect();
    let by_doc: BTreeMap<usize, &Ack> = acks.iter().map(|a| (a.doc, *a)).collect();
    Ok(batches_from_acks(&pairs, 0)?
        .into_iter()
        .map(|docs| Batch {
            sweeps: by_doc[&docs[0]].sweeps.unwrap_or(0),
            sent_s: docs
                .iter()
                .map(|d| by_doc[d].sent_s)
                .fold(f64::MAX, f64::min),
            docs,
        })
        .collect())
}

/// Column names of a relation, in schema order.
pub fn columns(dd: &DeepDive, relation: &str) -> Result<Vec<String>, String> {
    let schema = dd
        .db
        .schema(relation)
        .map_err(|e| format!("schema {relation}: {e}"))?;
    Ok(schema.columns.iter().map(|c| c.name.clone()).collect())
}

/// Every row of `relation` as served at `epoch` (paging through
/// `/relations`), keyed by its canonical JSON array, with its count.
pub fn served_rows(
    addr: SocketAddr,
    relation: &str,
    cols: &[String],
    epoch: u64,
) -> Result<BTreeMap<String, i64>, String> {
    let mut out = BTreeMap::new();
    let mut offset = 0usize;
    loop {
        let path = format!("/relations/{relation}?epoch={epoch}&offset={offset}");
        let v = client::get_ok(addr, &path)?;
        let rows = v.get("rows").and_then(Json::as_array).ok_or("no rows")?;
        let total = v.get("total").and_then(Json::as_u64).unwrap_or(0) as usize;
        for r in rows {
            let arr: Vec<Json> = cols
                .iter()
                .map(|c| r.get(c).cloned().unwrap_or(Json::Null))
                .collect();
            let count = r.get("count").and_then(Json::as_i64).unwrap_or(0);
            out.insert(Json::Array(arr).to_string(), count);
        }
        offset += rows.len();
        if rows.is_empty() || offset >= total {
            return Ok(out);
        }
    }
}

/// The same view of an in-process [`DeepDive`].
pub fn local_rows(dd: &DeepDive, relation: &str) -> BTreeMap<String, i64> {
    let snap = dd.db.snapshot();
    snap.relation(relation)
        .map(|rel| {
            rel.rows()
                .iter()
                .map(|(row, count)| {
                    (
                        Json::Array(row.iter().map(cell).collect()).to_string(),
                        *count,
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Names of every relation `dd` holds.
pub fn relation_names(dd: &DeepDive) -> Vec<String> {
    dd.db
        .snapshot()
        .relation_names()
        .map(str::to_string)
        .collect()
}

/// First difference between two row maps, if any.
pub fn diff_rows(
    what: &str,
    got: &BTreeMap<String, i64>,
    want: &BTreeMap<String, i64>,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let keys: BTreeSet<&String> = got.keys().chain(want.keys()).collect();
    for k in keys {
        if got.get(k) != want.get(k) {
            return Err(format!(
                "{what}: row {k} has count {:?}, expected {:?} ({} vs {} rows)",
                got.get(k),
                want.get(k),
                got.len(),
                want.len()
            ));
        }
    }
    unreachable!("maps differ, so some key differs")
}

/// Served marginals of `relation`: canonical row → probability.
pub fn served_marginals(
    addr: SocketAddr,
    relation: &str,
    cols: &[String],
) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    let mut offset = 0usize;
    loop {
        let v = client::get_ok(addr, &format!("/marginals/{relation}?offset={offset}"))?;
        let rows = v.get("rows").and_then(Json::as_array).ok_or("no rows")?;
        let total = v.get("total").and_then(Json::as_u64).unwrap_or(0) as usize;
        for r in rows {
            let arr: Vec<Json> = cols
                .iter()
                .map(|c| r.get(c).cloned().unwrap_or(Json::Null))
                .collect();
            let p = r
                .get("probability")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            out.insert(Json::Array(arr).to_string(), p);
        }
        offset += rows.len();
        if rows.is_empty() || offset >= total {
            return Ok(out);
        }
    }
}

/// Compare every relation a node serves at `epoch` with `dd`'s.
pub fn check_rows(addr: SocketAddr, epoch: u64, dd: &DeepDive, what: &str) -> Result<(), String> {
    for name in relation_names(dd) {
        let cols = columns(dd, &name)?;
        let served = served_rows(addr, &name, &cols, epoch)?;
        diff_rows(&format!("{what} {name}"), &served, &local_rows(dd, &name))?;
    }
    Ok(())
}

/// `GET /metrics` gauges the serve workloads report.
pub fn daemon_gauges(addr: SocketAddr) -> Result<(f64, f64), String> {
    let m = client::get_ok(addr, "/metrics")?;
    let avg_batch = m
        .get("wal")
        .and_then(|w| w.get("group_commit"))
        .and_then(|g| g.get("avg_batch"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let shed = m
        .get("admission")
        .and_then(|a| a.get("shed_total"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    Ok((avg_batch, shed))
}

/// Per-layer numbers both serve workloads report beside the replay's: the
/// base KB's pipeline over every start-up and the served graph's size
/// (the metrics every workload reports), the daemon's group-commit and
/// shedding gauges, the share of the median ack (`ack_p50` ms) that the
/// median stage sum (`stage_sum` ms) leaves untimed, and the tracing
/// overhead of the run so far.
pub fn daemon_layers(
    startups: &[Startup],
    (avg_batch, shed): (f64, f64),
    (ack_p50, stage_sum): (f64, f64),
    spans: &Trace,
    origin: Instant,
) -> Vec<Metric> {
    let base = startups.last().expect("a start-up");
    let traced_s = spans.len() as f64 * span_cost_ns() * 1e-9;
    let mut layers = pipeline_layers(
        &startups.iter().map(|s| s.stages).collect::<Vec<_>>(),
        (base.variables, base.factors),
    );
    layers.extend([
        metric("wal.group_commit.avg_batch", avg_batch, "count"),
        metric("admission.shed", shed, "count"),
        metric(
            "ack.untimed_share",
            ((ack_p50 - stage_sum) / ack_p50).max(0.0),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            traced_s / origin.elapsed().as_secs_f64(),
            "ratio",
        ),
    ]);
    layers
}

/// One recorded ingest batch, rebuilt from ack epochs.
pub struct Batch {
    pub docs: Vec<usize>,
    /// Sweeps the ack reported for the batch's refresh.
    pub sweeps: u64,
    /// When the batch's first request was sent (s since origin).
    pub sent_s: f64,
}

/// Sampling options for a refresh of `sweeps` sweeps: the daemon's refresh
/// burns in a tenth of its sweeps (at least 10).
fn refresh_options(dd: &DeepDive, sweeps: u64) -> GibbsOptions {
    let samples = sweeps as usize;
    GibbsOptions {
        samples,
        burn_in: (samples / 10).max(10),
        ..dd.config.inference.clone()
    }
}

/// Per-layer numbers from replaying ingest batches in-process.
pub struct ReplayOut {
    pub metrics: Vec<Metric>,
    /// Median per-batch sum of the timed stages an ack waits for: WAL
    /// append, DRed/IVM apply, snapshot capture (compile + Gibbs inside).
    pub stage_sum_ms: f64,
}

/// Replay recorded batches through the public functions the daemon's
/// write path calls — `Wal::append_batch`, `apply_base_changes_traced`,
/// `GroundingState::compile`, `parallel_marginals`, `ServeSnapshot::capture`
/// and `save_checkpoint_incremental` — timing each in its own span. Up to
/// `max_batches` batches replay that way; then up to `max_records` records
/// replay one per epoch, as a follower applies them. `dd` must hold the base
/// KB; on return it holds every replayed document.
pub fn replay(
    dd: &mut DeepDive,
    batches: &[Batch],
    changes: &dyn Fn(usize) -> Vec<BaseChange>,
    dir: &Path,
    spans: &mut Trace,
    (max_batches, max_records): (usize, usize),
) -> Result<ReplayOut, String> {
    let (mut wal, _) = Wal::open(&dir.join("wal"), Arc::new(FaultInjector::new()))
        .map_err(|e| format!("replay WAL: {e}"))?;
    let ckpt = Checkpoint::new(dir.join("ckpt")).map_err(|e| format!("replay checkpoint: {e}"))?;
    let mut tracker = CheckpointTracker::default();
    // The daemon's first flush is a full rewrite; do it up front so timed
    // saves measure the steady incremental cadence.
    dd.save_checkpoint_incremental(&ckpt, &mut tracker, FULL_EVERY)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let threads = dd.config.threads;
    let mut epoch = 0u64;
    let (mut delta_vars, mut delta_factors, mut var_sweeps, mut capture_self, mut stage_sum) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut body_bytes, mut wal_bytes) = (0u64, 0u64);
    let mut ckpt_bytes = vec![];
    let mut next_flush = batches.first().map_or(0.0, |b| b.sent_s) + FLUSH_EVERY_S;
    let timed = batches.len().min(max_batches);

    for (b, batch) in batches[..timed].iter().enumerate() {
        let id = b as u64;
        let start = Instant::now();
        let payloads: Vec<String> = batch.docs.iter().map(|&d| body_for(&changes(d))).collect();
        let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_bytes()).collect();
        let before = wal.bytes();
        let first = spans.len();
        let (appended, wal_ms) = spans.time("wal.append", None, id, || wal.append_batch(&refs));
        appended.map_err(|e| format!("WAL append: {e}"))?;
        wal_bytes += wal.bytes().saturating_sub(before);
        body_bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();

        let (mut dv, mut df) = (0usize, 0usize);
        let mut apply_ms = 0.0;
        for &d in &batch.docs {
            let (res, ms) = spans.time("core.apply", None, id, || {
                dd.apply_base_changes_traced(changes(d))
            });
            let (delta, _) = res.map_err(|e| format!("apply: {e}"))?;
            dv += delta.added_variables + delta.removed_variables;
            df += delta.added_factors + delta.removed_factors;
            apply_ms += ms;
        }
        delta_vars.push(dv as f64);
        delta_factors.push(df as f64);
        epoch += batch.docs.len() as u64;

        let opts = refresh_options(dd, batch.sweeps);
        let ((graph, _), compile_ms) = spans.time("factorgraph.compile", None, id, || {
            dd.grounder.state.compile()
        });
        let weights = dd.grounder.state.graph.weights.values();
        let (marginals, gibbs_ms) = spans.time("sampler.gibbs", None, id, || {
            parallel_marginals(&graph, &weights, &opts, threads)
        });
        std::hint::black_box(&marginals);
        var_sweeps.push((graph.num_variables * (opts.samples + opts.burn_in)) as f64);
        let (snapshot, capture_ms) = spans.time("serve.capture", None, id, || {
            ServeSnapshot::capture(dd, epoch, &opts)
        });
        std::hint::black_box(snapshot.fingerprint);
        capture_self.push(capture_ms - compile_ms - gibbs_ms);
        stage_sum.push(wal_ms + apply_ms + capture_ms);

        let last = b + 1 == timed;
        if batch.sent_s >= next_flush || (last && ckpt_bytes.is_empty()) {
            next_flush += FLUSH_EVERY_S;
            let before = file_stamps(ckpt.dir());
            let (saved, _) = spans.time("checkpoint.save", None, id, || {
                dd.save_checkpoint_incremental(&ckpt, &mut tracker, FULL_EVERY)
            });
            saved.map_err(|e| format!("checkpoint: {e}"))?;
            ckpt_bytes.push(written_bytes(&before, &file_stamps(ckpt.dir())) as f64);
        }
        let parent = spans.record("replay.batch", start, Instant::now(), None, id);
        spans.adopt(first, parent);
    }

    // Follower-style replay: one record per epoch, each refreshed at the
    // sweep count the daemon gave single-record batches.
    let sweeps_per_record = median(
        &batches
            .iter()
            .filter(|b| b.docs.len() == 1)
            .map(|b| b.sweeps as f64)
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0) as u64;
    let rest: Vec<usize> = batches[timed..]
        .iter()
        .flat_map(|b| b.docs.clone())
        .collect();
    let per_record = rest.len().min(max_records);
    for (i, &d) in rest[..per_record].iter().enumerate() {
        dd.apply_base_changes_traced(changes(d))
            .map_err(|e| format!("apply: {e}"))?;
        epoch += 1;
        let opts = refresh_options(dd, sweeps_per_record);
        let (snapshot, _) = spans.time("replication.capture", None, i as u64, || {
            ServeSnapshot::capture(dd, epoch, &opts)
        });
        std::hint::black_box(snapshot.fingerprint);
    }
    let remaining: Vec<BaseChange> = rest[per_record..]
        .iter()
        .flat_map(|&d| changes(d))
        .collect();
    if !remaining.is_empty() {
        dd.apply_base_changes(remaining)
            .map_err(|e| format!("apply: {e}"))?;
    }

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let metrics = vec![
        metric("wal.append_ms", spans.median_ms("wal.append"), "ms"),
        metric(
            "wal.bytes_per_body_byte",
            wal_bytes as f64 / body_bytes.max(1) as f64,
            "count",
        ),
        metric(
            "core.apply_ms",
            med(&spans
                .per_id_sum("core.apply")
                .into_values()
                .collect::<Vec<_>>()),
            "ms",
        ),
        metric("grounding.delta_vars", med(&delta_vars), "count"),
        metric("grounding.delta_factors", med(&delta_factors), "count"),
        metric(
            "factorgraph.compile_ms",
            spans.median_ms("factorgraph.compile"),
            "ms",
        ),
        metric("sampler.gibbs_ms", spans.median_ms("sampler.gibbs"), "ms"),
        metric("sampler.var_sweeps", med(&var_sweeps), "count"),
        metric("serve.capture_ms", spans.median_ms("serve.capture"), "ms"),
        metric("serve.capture_self_ms", med(&capture_self), "ms"),
        metric(
            "checkpoint.save_ms",
            spans.median_ms("checkpoint.save"),
            "ms",
        ),
        metric("checkpoint.bytes", med(&ckpt_bytes), "count"),
        metric(
            "replication.sweeps_per_record",
            sweeps_per_record as f64,
            "count",
        ),
        metric(
            "replication.capture_ms_per_record",
            spans.median_ms("replication.capture"),
            "ms",
        ),
        metric(
            "replay.batch_self_ms",
            med(&spans.self_times("replay.batch")),
            "ms",
        ),
    ];
    Ok(ReplayOut {
        metrics,
        stage_sum_ms: med(&stage_sum),
    })
}

type Stamps = BTreeMap<PathBuf, (u64, Option<SystemTime>)>;

fn file_stamps(dir: &Path) -> Stamps {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let m = e.metadata().ok()?;
            m.is_file()
                .then(|| (e.path(), (m.len(), m.modified().ok())))
        })
        .collect()
}

/// Bytes of the files a save created or rewrote.
fn written_bytes(before: &Stamps, after: &Stamps) -> u64 {
    after
        .iter()
        .filter(|(p, stamp)| before.get(*p) != Some(stamp))
        .map(|(_, (len, _))| len)
        .sum()
}
