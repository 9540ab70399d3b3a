//! Failover-grade chaos tests for WAL-shipping replication: a follower
//! tails a primary to bit-identical marginals, survives `kill -9` of
//! either node mid-stream, refuses divergent histories, and fails
//! `/readyz` while its lag exceeds the bound.
//!
//! Crashes are simulated in-process with [`ServerHandle::abort`] — no
//! drain, no checkpoint flush, no WAL truncation, exactly the disk state
//! `kill -9` leaves. The CI replication-smoke job runs a primary/follower
//! pair against the real binary with real signals.

use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, FaultInjector, RunConfig};
use deepdive_corpus::spouse::SpouseCorpus;
use deepdive_corpus::SpouseConfig;
use deepdive_sampler::{GibbsOptions, LearnOptions};
use deepdive_serve::{ServeConfig, Server, ServerHandle, Wal};
use deepdive_storage::{BaseChange, Value};
use serde_json::{json, Value as Json};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn app_config() -> SpouseAppConfig {
    SpouseAppConfig {
        corpus: SpouseConfig {
            num_docs: 16,
            num_people: 12,
            num_married_pairs: 4,
            num_sibling_pairs: 4,
            ..Default::default()
        },
        run: RunConfig {
            learn: LearnOptions {
                epochs: 30,
                ..Default::default()
            },
            inference: GibbsOptions {
                burn_in: 20,
                samples: 200,
                clamp_evidence: true,
                ..Default::default()
            },
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A smaller pipeline for tests that need a served pair, not batch parity.
fn tiny_config() -> SpouseAppConfig {
    let mut config = app_config();
    config.corpus.num_docs = 8;
    config.corpus.num_people = 8;
    config
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dd-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmpdir");
    d
}

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
    let (status, payload) = http_raw(addr, method, path, body);
    (status, serde_json::from_str(&payload).unwrap_or(Json::Null))
}

/// One request; the status and the response body exactly as sent.
fn http_raw(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    let body_text = body
        .map(|b| serde_json::to_string(b).expect("serializable body"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
        body_text.len(),
        body_text
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let payload = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    (status, payload.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    http(addr, "GET", path, None)
}

/// Poll `/readyz` until it answers 200. For a follower this also waits
/// out WAL replay, the primary handshake, and the lag bound.
fn wait_ready(addr: SocketAddr) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _) = get(addr, "/readyz");
        if status == 200 {
            return;
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Poll `/healthz` until the served epoch reaches `epoch`.
fn wait_epoch(addr: SocketAddr, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, v) = get(addr, "/healthz");
        assert_eq!(status, 200, "healthz while waiting for epoch: {v}");
        if v.get("epoch").and_then(Json::as_u64) >= Some(epoch) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "never reached epoch {epoch}: {v}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `"replication"` section of a node's `/metrics`.
fn replication_metrics(addr: SocketAddr) -> Json {
    let (status, v) = get(addr, "/metrics");
    assert_eq!(status, 200, "GET /metrics: {v}");
    v.get("replication").cloned().expect("replication section")
}

fn value_to_cell(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => json!(*b),
        Value::Int(i) => json!(*i),
        Value::Float(f) => json!(*f),
        Value::Text(t) => json!(t.as_ref()),
        Value::Id(id) => json!(*id),
    }
}

fn ingest_body(changes: &[BaseChange]) -> Json {
    let mut by_relation: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for ch in changes {
        let cells: Vec<Json> = ch.row.iter().map(value_to_cell).collect();
        by_relation
            .entry(ch.relation.clone())
            .or_default()
            .push(Json::Array(cells));
    }
    let mut rows = serde_json::Map::new();
    for (relation, rel_rows) in by_relation {
        rows.insert(relation, Json::Array(rel_rows));
    }
    json!({ "rows": Json::Object(rows) })
}

/// Canonical form of a relation as served: the set of JSON row renderings.
fn served_relation(addr: SocketAddr, name: &str) -> BTreeSet<String> {
    let (status, v) = get(addr, &format!("/relations/{name}?limit=100000"));
    assert_eq!(status, 200, "GET /relations/{name}: {v}");
    v.get("rows")
        .and_then(Json::as_array)
        .expect("rows array")
        .iter()
        .map(|row| serde_json::to_string(row).unwrap())
        .collect()
}

fn read_report(wal_dir: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(wal_dir.join("report.json")).expect("report.json exists");
    serde_json::from_str(&text).expect("report.json parses")
}

/// Reserve a port the OS considers free so a "restarted" primary can come
/// back at the same address its follower holds.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("probe port")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// A primary/follower pair over the same base state: two identical
/// deterministic pipeline runs, each with its own WAL and checkpoint
/// directory, the follower tailing the primary.
struct Pair {
    primary: ServerHandle,
    follower: ServerHandle,
    primary_cfg: ServeConfig,
    follower_cfg: ServeConfig,
    p_wal: PathBuf,
    f_wal: PathBuf,
    p_ckpt: PathBuf,
    f_ckpt: PathBuf,
    /// Ingest bodies for the held-out documents, in order.
    held_out: Vec<Json>,
    /// The corpus both nodes ran over — restarts rebuild from this.
    partial: SpouseCorpus,
}

/// Build the pair. `hold_out` documents are removed from the served corpus
/// and returned as ingest bodies; both nodes run the pipeline over the
/// same partial corpus so they start from identical state at WAL seq 0.
fn spawn_pair(
    tag: &str,
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    hold_out: usize,
    max_lag_epochs: u64,
    primary_faults: Arc<FaultInjector>,
    follower_faults: Arc<FaultInjector>,
) -> Pair {
    let primary = ServeConfig {
        faults: primary_faults,
        ..Default::default()
    };
    let follower = ServeConfig {
        max_lag_epochs,
        faults: follower_faults,
        ..Default::default()
    };
    spawn_pair_with(tag, config, corpus, hold_out, primary, follower)
}

/// [`spawn_pair`] over caller-tuned configs; the address, directories and
/// `follow` target are filled in here.
fn spawn_pair_with(
    tag: &str,
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    hold_out: usize,
    primary_base: ServeConfig,
    follower_base: ServeConfig,
) -> Pair {
    let mut partial = corpus.clone();
    let mut held_docs = Vec::new();
    while held_docs.len() < hold_out {
        let doc = partial.documents.pop().expect("enough documents");
        // The generator can emit empty documents; they contribute no rows
        // to any run, so dropping them entirely changes nothing.
        if doc.text.trim().is_empty() {
            continue;
        }
        held_docs.push(doc);
    }
    held_docs.reverse(); // restore corpus order

    let mut primary_app =
        SpouseApp::build_with_corpus(config.clone(), partial.clone()).expect("primary app");
    primary_app.run().expect("primary base run");
    let held_out: Vec<Json> = held_docs
        .iter()
        .map(|doc| {
            let changes = primary_app.document_changes(&doc.text);
            assert!(!changes.is_empty(), "held-out document produced no rows");
            ingest_body(&changes)
        })
        .collect();

    let mut follower_app =
        SpouseApp::build_with_corpus(config.clone(), partial.clone()).expect("follower app");
    follower_app.run().expect("follower base run");

    let p_wal = tmpdir(&format!("{tag}-p-wal"));
    let f_wal = tmpdir(&format!("{tag}-f-wal"));
    let p_ckpt = tmpdir(&format!("{tag}-p-ckpt"));
    let f_ckpt = tmpdir(&format!("{tag}-f-ckpt"));
    primary_app
        .dd
        .save_checkpoint(&Checkpoint::new(p_ckpt.clone()).expect("primary checkpoint"))
        .expect("save primary checkpoint");
    follower_app
        .dd
        .save_checkpoint(&Checkpoint::new(f_ckpt.clone()).expect("follower checkpoint"))
        .expect("save follower checkpoint");

    let primary_cfg = ServeConfig {
        addr: format!("127.0.0.1:{}", free_port()),
        page_limit: 100_000,
        wal_dir: Some(p_wal.clone()),
        checkpoint_dir: Some(p_ckpt.clone()),
        ..primary_base
    };
    let primary = Server::new(primary_app.dd, &primary_cfg)
        .expect("bind primary")
        .start()
        .expect("start primary");
    let p_addr = primary.addr();
    wait_ready(p_addr);

    let follower_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(f_wal.clone()),
        checkpoint_dir: Some(f_ckpt.clone()),
        follow: Some(format!("http://{p_addr}")),
        ..follower_base
    };
    let follower = Server::new(follower_app.dd, &follower_cfg)
        .expect("bind follower")
        .start()
        .expect("start follower");

    Pair {
        primary,
        follower,
        primary_cfg,
        follower_cfg,
        p_wal,
        f_wal,
        p_ckpt,
        f_ckpt,
        held_out,
        partial,
    }
}

/// The happy tentpole path: a follower tails the primary live and, once
/// caught up, serves the *same bits* — equal epoch, equal content
/// fingerprint, byte-identical `/marginals` — because one WAL record is
/// one epoch and both sides refresh with identical budgets.
#[test]
fn follower_tails_primary_to_bit_identical_marginals() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair(
        "tail",
        &config,
        &corpus,
        2,
        16,
        Arc::new(FaultInjector::new()),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Writes land on the primary only; the follower is read-only.
    let (status, v) = http(f_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 405, "follower must reject writes: {v}");
    assert!(
        v["error"].as_str().unwrap_or("").contains("replica"),
        "405 names the replica role: {v}"
    );

    for body in &pair.held_out {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST /documents on primary: {v}");
        assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
    }
    let epochs = pair.held_out.len() as u64;
    wait_epoch(f_addr, epochs);

    // Bit-identical once caught up: same epoch, same fingerprint, same
    // marginals response byte for byte.
    let (_, p_health) = get(p_addr, "/healthz");
    let (_, f_health) = get(f_addr, "/healthz");
    assert_eq!(p_health.get("epoch"), f_health.get("epoch"), "epoch parity");
    assert_eq!(
        p_health.get("fingerprint"),
        f_health.get("fingerprint"),
        "content fingerprint parity: primary {p_health}, follower {f_health}"
    );
    let (p_status, p_marginals) = get(p_addr, "/marginals/MarriedMentions?limit=100000");
    let (f_status, f_marginals) = get(f_addr, "/marginals/MarriedMentions?limit=100000");
    assert_eq!(
        (p_status, f_status),
        (200, 200),
        "marginals served: {p_marginals}"
    );
    assert_eq!(p_marginals, f_marginals, "marginals are bit-identical");

    // The replication books are served from /metrics on both sides.
    let f_repl = replication_metrics(f_addr);
    assert_eq!(f_repl["role"], json!("follower"));
    assert_eq!(f_repl["lag_epochs"].as_u64(), Some(0));
    assert_eq!(f_repl["wal_offset"].as_u64(), Some(epochs));
    assert_eq!(f_repl["records_applied"].as_u64(), Some(epochs));
    assert_eq!(f_repl["handshook"], json!(true));
    assert_eq!(f_repl["diverged"], json!(false));
    let p_repl = replication_metrics(p_addr);
    assert_eq!(p_repl["role"], json!("primary"));
    assert!(p_repl["streams_served"].as_u64().unwrap_or(0) >= 1);
    assert!(p_repl["frames_shipped"].as_u64().unwrap_or(0) >= epochs);

    // /readyz carries the replication verdict for load balancers.
    let (status, v) = get(f_addr, "/readyz");
    assert_eq!(status, 200);
    assert_eq!(v["replication"]["lag_epochs"].as_u64(), Some(0));

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
    let report = read_report(&pair.f_wal);
    assert_eq!(report["replication"]["role"], json!("follower"));
    assert_eq!(
        report["replication"]["records_applied"].as_u64(),
        Some(epochs)
    );
    let p_report = read_report(&pair.p_wal);
    assert_eq!(p_report["replication"]["role"], json!("primary"));
    assert!(
        p_report["replication"]["streams_served"]
            .as_u64()
            .unwrap_or(0)
            >= 1
    );
}

/// `kill -9` the primary mid-stream — with a fault that tears the stream
/// mid-frame first — restart it from its own checkpoint + WAL, and the
/// follower must reconnect on its own and converge to parity with a clean
/// single-node batch run over the full corpus.
#[test]
fn primary_crash_mid_stream_follower_reconnects_to_batch_parity() {
    let config = app_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);

    // Parity reference: every document, one clean batch run.
    let mut batch_app =
        SpouseApp::build_with_corpus(config.clone(), corpus.clone()).expect("batch app");
    batch_app.run().expect("batch run");

    let primary_faults = Arc::new(FaultInjector::new());
    // First shipped batch: send half the bytes, then hang up mid-frame.
    primary_faults.arm(points::REPL_STREAM_CUT, 1);
    let pair = spawn_pair(
        "pcrash",
        &config,
        &corpus,
        2,
        16,
        Arc::clone(&primary_faults),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A's frame is torn on the wire; the follower's decoder must
    // refuse the partial frame, reconnect, and fetch it whole.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    assert_eq!(primary_faults.tripped(), 1, "the stream-cut fault fired");
    let f_repl = replication_metrics(f_addr);
    assert!(
        f_repl["reconnects"].as_u64().unwrap_or(0) >= 1,
        "follower reconnected after the cut: {f_repl}"
    );

    // kill -9 the primary: no drain, no checkpoint flush, no truncation.
    pair.primary.abort();

    // Restart it from its checkpoint + WAL replay, same address.
    let mut app2 = SpouseApp::build_with_corpus(config, pair.partial.clone()).expect("restart app");
    app2.dd
        .load_checkpoint(&Checkpoint::new(pair.p_ckpt.clone()).expect("checkpoint"))
        .expect("restore primary checkpoint");
    let server2 = Server::new(app2.dd, &pair.primary_cfg).expect("rebind primary");
    assert_eq!(server2.pending_replay(), 1, "doc A's record is pending");
    let handle2 = server2.start().expect("restart primary");
    assert_eq!(handle2.addr(), p_addr, "primary came back at its address");
    wait_ready(p_addr);

    // The follower finds the restarted primary by itself (backoff +
    // jitter), resumes from its durable offset, and applies doc B.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "POST doc B after restart: {v}");
    wait_epoch(f_addr, 2);

    // Derived relations on the follower equal the clean batch run.
    for relation in ["MarriedCandidate", "MarriedMentions_Ev"] {
        let served = served_relation(f_addr, relation);
        let batch: BTreeSet<String> = batch_app
            .dd
            .db
            .rows_counted(relation)
            .expect("batch relation")
            .iter()
            .map(|(row, count)| {
                let mut obj = serde_json::Map::new();
                let schema = batch_app.dd.db.schema(relation).unwrap();
                for (i, v) in row.iter().enumerate() {
                    obj.insert(schema.columns[i].name.clone(), value_to_cell(v));
                }
                obj.insert("count".into(), json!(*count));
                serde_json::to_string(&Json::Object(obj)).unwrap()
            })
            .collect();
        assert_eq!(
            served, batch,
            "follower relation {relation} diverged from the clean batch run"
        );
    }
    // Bit parity with the restarted primary: served state is a function
    // of checkpoint + log, however each side grouped the records.
    assert_eq!(
        epoch_and_fingerprint(f_addr),
        epoch_and_fingerprint(p_addr),
        "follower and restarted primary diverged"
    );

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = handle2.graceful_shutdown().expect("drain primary");
}

/// `kill -9` the follower mid-apply (an armed stall widens the window),
/// restart it over its own WAL copy, and it must replay to its durable
/// offset locally — no re-fetch, no duplicate application — then resume
/// tailing where it left off.
#[test]
fn follower_crash_mid_apply_resumes_from_durable_offset() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let follower_faults = Arc::new(FaultInjector::new());
    follower_faults.arm(points::REPL_APPLY_STALL, 1000);
    let pair = spawn_pair(
        "fcrash",
        &config,
        &corpus,
        3,
        16,
        Arc::new(FaultInjector::new()),
        follower_faults,
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    let follower_state = pair.follower.state();
    wait_ready(f_addr);

    // Docs A and B land on the primary; wait until both are *durable* on
    // the follower (appended before applied), then kill it — the armed
    // stall makes the abort land mid-apply.
    for body in &pair.held_out[..2] {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST on primary: {v}");
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    while follower_state.wal_gauges().0 < 2 {
        assert!(Instant::now() < deadline, "records never reached follower");
        std::thread::sleep(Duration::from_millis(5));
    }
    pair.follower.abort();

    // Restart the follower from its checkpoint + its own WAL copy. Both
    // records are pending locally: the restart needs no primary history.
    let mut app2 = SpouseApp::build_with_corpus(config.clone(), pair.partial.clone())
        .expect("follower restart app");
    app2.dd
        .load_checkpoint(&Checkpoint::new(pair.f_ckpt.clone()).expect("checkpoint"))
        .expect("restore follower checkpoint");
    let server2 = Server::new(app2.dd, &pair.follower_cfg).expect("rebind follower");
    assert_eq!(
        server2.pending_replay(),
        2,
        "both durable records replay locally, not over the wire"
    );
    let handle2 = server2.start().expect("restart follower");
    let f_addr2 = handle2.addr();
    wait_ready(f_addr2);

    // The replay set the durable offset; nothing was re-fetched.
    let f_repl = replication_metrics(f_addr2);
    assert_eq!(
        f_repl["wal_offset"].as_u64(),
        Some(2),
        "resumed at seq 2: {f_repl}"
    );
    assert_eq!(
        f_repl["records_applied"].as_u64(),
        Some(0),
        "local replay is not wire application: {f_repl}"
    );

    // Doc C streams in on top; no record is applied twice (duplicates
    // would double the served row counts).
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[2]));
    assert_eq!(status, 200, "POST doc C: {v}");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let repl = replication_metrics(f_addr2);
        if repl["wal_offset"].as_u64() == Some(3) {
            assert_eq!(
                repl["records_applied"].as_u64(),
                Some(1),
                "only doc C: {repl}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "doc C never applied: {repl}");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        served_relation(f_addr2, "MarriedCandidate"),
        served_relation(p_addr, "MarriedCandidate"),
        "post-resume row parity (duplicate application would double counts)"
    );

    let _ = handle2.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// A follower whose WAL belongs to a different history is refused at the
/// handshake (409), marks itself permanently diverged, keeps serving
/// reads, and fails `/readyz` with status "diverged".
#[test]
fn divergent_follower_is_refused_and_reports_fatal() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let f_wal = tmpdir("diverge-foreign-wal");
    {
        // Mint a foreign stream id in the follower's WAL before it starts:
        // a replica seeded from some *other* primary's history.
        let (_wal, _) = Wal::open(&f_wal, Arc::new(FaultInjector::new())).expect("pre-mint wal");
    }

    let pair = spawn_pair(
        "diverge",
        &config,
        &corpus,
        1,
        16,
        Arc::new(FaultInjector::new()),
        Arc::new(FaultInjector::new()),
    );
    let (p_addr, _f_addr) = (pair.primary.addr(), pair.follower.addr());
    // The pair's own follower is healthy; the divergent one is a third
    // node pointing at the same primary but carrying the foreign WAL.
    let mut foreign_app =
        SpouseApp::build_with_corpus(config, pair.partial.clone()).expect("divergent follower app");
    foreign_app.run().expect("divergent follower run");
    let foreign_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(f_wal),
        checkpoint_dir: None,
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    let foreign = Server::new(foreign_app.dd, &foreign_cfg)
        .expect("bind divergent follower")
        .start()
        .expect("start divergent follower");
    let state = foreign.state();

    let deadline = Instant::now() + Duration::from_secs(60);
    let fatal = loop {
        if let Some(fatal) = state.replication().fatal_error() {
            break fatal;
        }
        assert!(Instant::now() < deadline, "divergence never became fatal");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        fatal.contains("divergent"),
        "fatal error names divergence: {fatal}"
    );

    // Still alive for reads, but never ready, and says why.
    let (status, v) = get(foreign.addr(), "/healthz");
    assert_eq!(status, 200, "divergent follower keeps serving reads: {v}");
    let (status, v) = get(foreign.addr(), "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("diverged"), "readyz verdict: {v}");
    assert_eq!(v["replication"]["diverged"], json!(true));

    foreign.abort();
    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// With `--max-lag-epochs 0` and a stalled apply path, a follower that is
/// behind fails `/readyz` with status "lagging" — and clears it once
/// caught up. Lag, unlike divergence, is a transient verdict.
#[test]
fn lagging_follower_fails_readyz_until_caught_up() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let follower_faults = Arc::new(FaultInjector::new());
    follower_faults.arm(points::REPL_APPLY_STALL, 1000);
    let pair = spawn_pair(
        "lag",
        &config,
        &corpus,
        1,
        0, // any lag at all fails readiness
        Arc::new(FaultInjector::new()),
        follower_faults,
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Re-posting the same body is a legitimate new record each time (row
    // counts increment), so one held-out doc yields as many epochs as we
    // need to hold the apply path busy.
    let writes = 4u64;
    for _ in 0..writes {
        let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
        assert_eq!(status, 200, "POST on primary: {v}");
    }

    // While the stalled follower works through the backlog, /readyz must
    // report "lagging"; once caught up it must report ready again.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_lagging = false;
    loop {
        let (status, v) = get(f_addr, "/readyz");
        if status == 503 && v["status"] == json!("lagging") {
            assert!(
                v["replication"]["lag_epochs"].as_u64().unwrap_or(0) >= 1,
                "lagging verdict carries the lag: {v}"
            );
            saw_lagging = true;
        }
        let (_, health) = get(f_addr, "/healthz");
        if health.get("epoch").and_then(Json::as_u64) >= Some(writes) {
            break;
        }
        assert!(Instant::now() < deadline, "follower never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(saw_lagging, "readyz never reported the lag");
    wait_ready(f_addr); // caught up: lag verdict clears
    let f_repl = replication_metrics(f_addr);
    assert_eq!(
        f_repl["lag_epochs"].as_u64(),
        Some(0),
        "caught up: {f_repl}"
    );

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// A node's `/healthz` `(epoch, fingerprint)`.
fn epoch_and_fingerprint(addr: SocketAddr) -> (u64, String) {
    let (status, v) = get(addr, "/healthz");
    assert_eq!(status, 200, "GET /healthz: {v}");
    (
        v["epoch"].as_u64().expect("epoch"),
        v["fingerprint"].as_str().expect("fingerprint").to_string(),
    )
}

/// The pending records of a live node's WAL, in log order — read from a
/// copy, because opening a log may repair it.
fn logged_records(wal_dir: &std::path::Path, tag: &str) -> Vec<Json> {
    let copy = tmpdir(tag);
    for entry in std::fs::read_dir(wal_dir).expect("list wal dir") {
        let entry = entry.expect("wal dir entry");
        std::fs::copy(entry.path(), copy.join(entry.file_name())).expect("copy wal file");
    }
    let (_, recovery) = Wal::open(&copy, Arc::new(FaultInjector::new())).expect("open wal copy");
    recovery
        .records
        .iter()
        .map(|r| serde_json::from_str(std::str::from_utf8(r).expect("UTF-8")).expect("JSON"))
        .collect()
}

/// A node's pipeline state over `partial`, built and run from scratch.
fn base_app(config: &SpouseAppConfig, partial: &SpouseCorpus) -> SpouseApp {
    let mut app = SpouseApp::build_with_corpus(config.clone(), partial.clone()).expect("app");
    app.run().expect("base run");
    app
}

/// Served state is a function of the applied log, not of how its records
/// were grouped into epochs. A primary that group-commits six concurrent
/// ingests into one epoch and the follower tailing it serve the same bits,
/// and the follower's scrubber finds nothing to flag. The same six records
/// delivered one at a time, fetched as one chunk by a late follower, or
/// replayed from the WAL onto a freshly built base after a crash reach the
/// same fingerprint — and so does a restart from the primary's flushed
/// checkpoint at the same WAL offset.
#[test]
fn served_state_is_independent_of_batching_replay_and_restore() {
    const DOCS: usize = 6;
    const MARGINALS: &str = "/marginals/MarriedMentions?limit=100000";
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair_with(
        "batched",
        &config,
        &corpus,
        DOCS,
        ServeConfig {
            // Every concurrent POST parks on the committer at once, and the
            // linger window is wide enough to gather all of them.
            workers: 2 * DOCS,
            linger: Duration::from_millis(100),
            // Keep every record pending in the WAL until the test flushes.
            flush_interval: Duration::ZERO,
            ..Default::default()
        },
        ServeConfig {
            scrub_interval: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    let barrier = Arc::new(Barrier::new(DOCS));
    let clients: Vec<_> = pair
        .held_out
        .iter()
        .cloned()
        .map(|body| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let (status, v) = http(p_addr, "POST", "/documents", Some(&body));
                assert_eq!(status, 200, "concurrent POST on primary: {v}");
                v["epoch"].as_u64().expect("ack epoch")
            })
        })
        .collect();
    let ack_epochs: BTreeSet<u64> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let epoch = DOCS as u64;
    assert_eq!(
        ack_epochs,
        BTreeSet::from([epoch]),
        "all six acks share one epoch: one group-committed batch"
    );

    // The follower: same epoch, same fingerprint, byte-identical marginals,
    // and scrub passes that ran after it caught up found no divergence.
    wait_epoch(f_addr, epoch);
    let scrub_runs = || {
        get(f_addr, "/metrics").1["scrub"]["runs"]
            .as_u64()
            .unwrap_or(0)
    };
    let target = scrub_runs() + 2;
    let deadline = Instant::now() + Duration::from_secs(120);
    while scrub_runs() < target {
        assert!(Instant::now() < deadline, "scrubber never ran");
        std::thread::sleep(Duration::from_millis(20));
    }
    let batched = epoch_and_fingerprint(p_addr);
    assert_eq!(batched.0, epoch);
    assert_eq!(
        epoch_and_fingerprint(f_addr),
        batched,
        "follower epoch + fingerprint parity"
    );
    let (p_status, p_marginals) = http_raw(p_addr, "GET", MARGINALS, None);
    let (f_status, f_marginals) = http_raw(f_addr, "GET", MARGINALS, None);
    assert_eq!((p_status, f_status), (200, 200), "marginals served");
    assert_eq!(p_marginals, f_marginals, "marginals are byte-identical");
    let (_, f_metrics) = get(f_addr, "/metrics");
    assert_eq!(
        f_metrics["scrub"]["corrupt_found"].as_u64(),
        Some(0),
        "{f_metrics}"
    );
    assert_eq!(f_metrics["replication"]["diverged"], json!(false));

    // A late follower fetches all six records as one chunk.
    let late_ckpt = tmpdir("batched-late-ckpt");
    let late_app = base_app(&config, &pair.partial);
    late_app
        .dd
        .save_checkpoint(&Checkpoint::new(late_ckpt.clone()).expect("checkpoint"))
        .expect("save late follower checkpoint");
    let late = Server::new(
        late_app.dd,
        &ServeConfig {
            wal_dir: Some(tmpdir("batched-late-wal")),
            checkpoint_dir: Some(late_ckpt),
            ..pair.follower_cfg.clone()
        },
    )
    .expect("bind late follower")
    .start()
    .expect("start late follower");
    wait_epoch(late.addr(), epoch);
    assert_eq!(
        epoch_and_fingerprint(late.addr()),
        batched,
        "one-chunk catch-up"
    );

    // One record at a time on a fresh primary — in the order the batch
    // logged them, which is the order that defines the state — then a crash
    // and a replay of its WAL onto a freshly built base.
    let log = logged_records(&pair.p_wal, "batched-log");
    assert_eq!(log.len(), DOCS, "the batch logged every record");
    let seq_cfg = ServeConfig {
        wal_dir: Some(tmpdir("batched-seq-wal")),
        flush_interval: Duration::ZERO,
        ..Default::default()
    };
    let sequential = Server::new(base_app(&config, &pair.partial).dd, &seq_cfg)
        .expect("bind sequential primary")
        .start()
        .expect("start sequential primary");
    for (i, body) in log.iter().enumerate() {
        let (status, v) = http(sequential.addr(), "POST", "/documents", Some(body));
        assert_eq!(status, 200, "sequential POST: {v}");
        assert_eq!(
            v["epoch"].as_u64(),
            Some(i as u64 + 1),
            "one record per epoch"
        );
    }
    assert_eq!(
        epoch_and_fingerprint(sequential.addr()),
        batched,
        "sequential ingest"
    );
    sequential.abort();
    let server = Server::new(base_app(&config, &pair.partial).dd, &seq_cfg).expect("rebind");
    assert_eq!(server.pending_replay(), DOCS, "every record replays");
    let replayed = server.start().expect("restart");
    wait_ready(replayed.addr());
    assert_eq!(
        epoch_and_fingerprint(replayed.addr()),
        batched,
        "WAL replay onto a fresh base"
    );
    replayed.abort();

    // Restore: flush the primary's checkpoint, restart from it, and compare
    // at the same WAL offset.
    late.abort();
    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let summary = pair.primary.graceful_shutdown().expect("drain primary");
    assert!(summary.checkpoint_flushed, "final checkpoint flushed");
    let mut app =
        SpouseApp::build_with_corpus(config.clone(), pair.partial.clone()).expect("restore app");
    app.dd
        .load_checkpoint(&Checkpoint::new(pair.p_ckpt.clone()).expect("checkpoint"))
        .expect("restore primary checkpoint");
    let restored = Server::new(
        app.dd,
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..pair.primary_cfg.clone()
        },
    )
    .expect("bind restored primary")
    .start()
    .expect("start restored primary");
    let (_, health) = get(restored.addr(), "/healthz");
    assert_eq!(
        health["wal_offset"],
        json!(epoch),
        "same WAL offset: {health}"
    );
    assert_eq!(
        health["fingerprint"].as_str(),
        Some(batched.1.as_str()),
        "checkpoint restore"
    );
    restored.abort();
}
