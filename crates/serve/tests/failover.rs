//! Failover, fencing, and self-healing storage: promote a caught-up
//! follower to primary under a new term, fence the deposed primary,
//! resync a follower the primary compacted past, scrub-and-repair
//! corrupted WAL/checkpoint artifacts, and surface dead-disk faults as a
//! distinct degraded state.
//!
//! Crashes are simulated in-process with [`ServerHandle::abort`] — no
//! drain, no checkpoint flush, no WAL truncation, exactly the disk state
//! `kill -9` leaves. The CI failover-smoke job replays the promote story
//! against the real binary with real signals.

use deepdive_core::apps::{SpouseApp, SpouseAppConfig};
use deepdive_core::faults::points;
use deepdive_core::{Checkpoint, FaultInjector, RunConfig};
use deepdive_corpus::spouse::SpouseCorpus;
use deepdive_corpus::SpouseConfig;
use deepdive_sampler::{GibbsOptions, LearnOptions};
use deepdive_serve::{ServeConfig, Server, ServerHandle};
use deepdive_storage::{BaseChange, Value};
use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn tiny_config() -> SpouseAppConfig {
    SpouseAppConfig {
        corpus: SpouseConfig {
            num_docs: 8,
            num_people: 8,
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

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dd-fo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create tmpdir");
    d
}

fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&Json>) -> (u16, Json) {
    let (status, raw) = http_raw(addr, method, path, body);
    let payload = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    (status, serde_json::from_str(payload).unwrap_or(Json::Null))
}

/// Like [`http`] but returns the whole raw response, for endpoints whose
/// bodies are not JSON (or whose error text matters).
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
    (status, raw)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Json) {
    http(addr, "GET", path, None)
}

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

/// Poll until `probe` returns true, with a generous deadline.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

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

/// Assert two nodes serve the same state: equal `/healthz` fingerprints,
/// which cover every relation row and every marginal's bits. Epochs are
/// not compared — a restart or a resync re-bases the epoch counter.
fn assert_state_parity(a: SocketAddr, b: SocketAddr, context: &str) {
    let (_, a_health) = get(a, "/healthz");
    let (_, b_health) = get(b, "/healthz");
    assert_eq!(
        a_health["fingerprint"], b_health["fingerprint"],
        "{context}: served state diverged ({a_health} vs {b_health})"
    );
}

/// A primary/follower pair over the same base state (two identical
/// deterministic pipeline runs), with per-node config tweaks for the
/// compaction- and scrub-shaped scenarios.
struct Pair {
    primary: ServerHandle,
    follower: ServerHandle,
    primary_cfg: ServeConfig,
    follower_cfg: ServeConfig,
    p_ckpt: PathBuf,
    f_ckpt: PathBuf,
    held_out: Vec<Json>,
    partial: SpouseCorpus,
}

fn spawn_pair(
    tag: &str,
    config: &SpouseAppConfig,
    corpus: &SpouseCorpus,
    hold_out: usize,
    tweak_primary: impl FnOnce(&mut ServeConfig),
    tweak_follower: impl FnOnce(&mut ServeConfig),
) -> Pair {
    let mut partial = corpus.clone();
    let mut held_docs = Vec::new();
    while held_docs.len() < hold_out {
        let doc = partial.documents.pop().expect("enough documents");
        if doc.text.trim().is_empty() {
            continue;
        }
        held_docs.push(doc);
    }
    held_docs.reverse();

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

    let mut primary_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(p_wal),
        checkpoint_dir: Some(p_ckpt.clone()),
        ..Default::default()
    };
    tweak_primary(&mut primary_cfg);
    let primary = Server::new(primary_app.dd, &primary_cfg)
        .expect("bind primary")
        .start()
        .expect("start primary");
    let p_addr = primary.addr();
    wait_ready(p_addr);

    let mut follower_cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(f_wal),
        checkpoint_dir: Some(f_ckpt.clone()),
        follow: Some(format!("http://{p_addr}")),
        ..Default::default()
    };
    tweak_follower(&mut follower_cfg);
    let follower = Server::new(follower_app.dd, &follower_cfg)
        .expect("bind follower")
        .start()
        .expect("start follower");

    Pair {
        primary,
        follower,
        primary_cfg,
        follower_cfg,
        p_ckpt,
        f_ckpt,
        held_out,
        partial,
    }
}

/// A standalone primary (WAL + checkpoint, no replication) for the scrub
/// and disk-fault scenarios.
fn spawn_single(tag: &str, faults: Arc<FaultInjector>) -> (ServerHandle, PathBuf, PathBuf, Json) {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let mut partial = corpus.clone();
    let doc = loop {
        let doc = partial.documents.pop().expect("enough documents");
        if !doc.text.trim().is_empty() {
            break doc;
        }
    };
    let mut app = SpouseApp::build_with_corpus(config, partial).expect("app");
    app.run().expect("base run");
    let body = ingest_body(&app.document_changes(&doc.text));
    let wal = tmpdir(&format!("{tag}-wal"));
    let ckpt = tmpdir(&format!("{tag}-ckpt"));
    app.dd
        .save_checkpoint(&Checkpoint::new(ckpt.clone()).expect("checkpoint"))
        .expect("save checkpoint");
    let cfg = ServeConfig {
        page_limit: 100_000,
        wal_dir: Some(wal.clone()),
        checkpoint_dir: Some(ckpt.clone()),
        faults,
        ..Default::default()
    };
    let handle = Server::new(app.dd, &cfg)
        .expect("bind")
        .start()
        .expect("start");
    wait_ready(handle.addr());
    (handle, wal, ckpt, body)
}

/// The tentpole chaos story: `kill -9` the primary, promote the caught-up
/// follower under a bumped term, keep writing, then bring the old primary
/// back as a follower of the new one — it adopts the higher term and the
/// two nodes converge to bit-identical state.
#[test]
fn promote_after_primary_crash_and_rejoin_converges_bit_identical() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("promote", &config, &corpus, 2, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A lands on the primary and replicates; then the primary dies
    // hard, mid-service, with no drain and no checkpoint flush.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    pair.primary.abort();

    // Promote the follower. It was caught up, so no force is needed; the
    // term moves 0 -> 1 and the node starts answering as a primary.
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");
    assert_eq!(v["promoted"], json!(true), "promoted: {v}");
    assert_eq!(v["term"].as_u64(), Some(1), "term bumped: {v}");
    assert_eq!(v["role"], json!("primary"));
    let (_, health) = get(f_addr, "/healthz");
    assert_eq!(health["role"], json!("primary"), "healthz role: {health}");
    assert_eq!(health["term"].as_u64(), Some(1), "healthz term: {health}");
    let (status, ready) = get(f_addr, "/readyz");
    assert_eq!(status, 200, "promoted node is ready: {ready}");
    assert_eq!(ready["role"], json!("primary"));

    // Writes now land on the promoted node.
    let (status, v) = http(f_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "POST doc B on the new primary: {v}");
    assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));

    // The old primary rejoins as a follower of the new one: it replays
    // doc A from its own WAL, sees term 2 in the stream handshake, adopts
    // it, and fetches doc B.
    let mut app2 = SpouseApp::build_with_corpus(config, pair.partial.clone()).expect("rejoin app");
    app2.dd
        .load_checkpoint(&Checkpoint::new(pair.p_ckpt.clone()).expect("checkpoint"))
        .expect("restore old primary checkpoint");
    let mut rejoin_cfg = pair.primary_cfg.clone();
    rejoin_cfg.addr = "127.0.0.1:0".into();
    rejoin_cfg.follow = Some(format!("http://{f_addr}"));
    let server2 = Server::new(app2.dd, &rejoin_cfg).expect("rebind old primary");
    assert_eq!(server2.pending_replay(), 1, "doc A replays locally");
    let handle2 = server2.start().expect("start rejoined node");
    let r_addr = handle2.addr();
    wait_ready(r_addr);
    wait_epoch(r_addr, 2);

    // Convergence: same epoch, same offset, same fingerprint — and the
    // rejoined node adopted the new primary's term.
    let (_, new_health) = get(f_addr, "/healthz");
    let (_, old_health) = get(r_addr, "/healthz");
    assert_eq!(new_health["epoch"], old_health["epoch"], "epoch parity");
    assert_eq!(
        new_health["wal_offset"], old_health["wal_offset"],
        "offset parity"
    );
    assert_eq!(
        old_health["term"].as_u64(),
        Some(1),
        "rejoined node adopted term 1: {old_health}"
    );
    assert_eq!(old_health["role"], json!("follower"));
    assert_state_parity(f_addr, r_addr, "after rejoin");

    let _ = handle2.graceful_shutdown().expect("drain rejoined node");
    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain new primary");
}

/// A promoted follower takes writes through the same group committer as
/// any primary: concurrent posts after `POST /promote` share WAL fsyncs.
#[test]
fn promoted_follower_group_commits_concurrent_writes() {
    const POSTS: usize = 4;
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair(
        "promote-gc",
        &config,
        &corpus,
        POSTS,
        |_| {},
        |cfg| {
            cfg.workers = 2 * POSTS;
            cfg.linger = Duration::from_millis(100);
        },
    );
    let f_addr = pair.follower.addr();
    wait_ready(f_addr);
    pair.primary.abort();
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");

    let barrier = Arc::new(Barrier::new(POSTS));
    let clients: Vec<_> = pair
        .held_out
        .iter()
        .cloned()
        .map(|body| {
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let (status, v) = http(f_addr, "POST", "/documents", Some(&body));
                assert_eq!(status, 200, "POST on the promoted node: {v}");
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    let (_, m) = get(f_addr, "/metrics");
    let gc = &m["wal"]["group_commit"];
    assert!(
        gc["batches"].as_u64().unwrap_or(0) > 0,
        "group commit ran: {gc}"
    );
    assert!(
        gc["avg_batch"].as_f64().unwrap_or(0.0) > 1.0,
        "concurrent posts shared fsyncs: {gc}"
    );

    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain promoted node");
}

/// Fencing: after a promotion the deposed primary is still alive and still
/// thinks it leads. The first peer that talks to it with the newer term
/// fences it — it stops taking writes and says so on `/readyz`.
#[test]
fn stale_primary_is_fenced_by_a_newer_term() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("fence", &config, &corpus, 2, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);

    // Promote the follower while the old primary is still running.
    let (status, v) = http(f_addr, "POST", "/promote", None);
    assert_eq!(status, 200, "POST /promote: {v}");
    assert_eq!(v["term"].as_u64(), Some(1));

    // The old primary still accepts writes — nobody has told it yet.
    let (status, _) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 200, "unfenced stale primary still acks writes");

    // A peer carrying term 1 shows up on its replication endpoint: the
    // stale primary (still at term 0) must refuse the stream AND fence
    // itself.
    let (status, raw) = http_raw(p_addr, "GET", "/wal?from=0&term=1", None);
    assert_eq!(status, 409, "stale-term stream refused: {raw}");
    assert!(
        raw.contains("stale term"),
        "409 names the stale term: {raw}"
    );
    assert!(
        raw.contains("X-DD-Term: 1"),
        "409 carries the newer term: {raw}"
    );

    // Fenced: writes are refused with the fencing story, /readyz routes
    // traffic away, /healthz stays alive for diagnosis.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[1]));
    assert_eq!(status, 503, "fenced primary refuses writes: {v}");
    assert!(
        v["error"].as_str().unwrap_or("").contains("fenced"),
        "503 explains the fence: {v}"
    );
    let (status, v) = get(p_addr, "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("fenced"), "readyz verdict: {v}");
    assert!(
        v["detail"].as_str().unwrap_or("").contains("--follow"),
        "readyz tells the operator how to rejoin: {v}"
    );
    let (status, _) = get(p_addr, "/healthz");
    assert_eq!(status, 200, "fenced node is still alive for reads");

    pair.primary.abort();
    let _ = pair
        .follower
        .graceful_shutdown()
        .expect("drain new primary");
}

/// Checkpoint resync: a follower that comes back after the primary
/// compacted its resume point away gets `410 Gone` — and instead of dying
/// it fetches the primary's checkpoint bundle over `GET /checkpoint`,
/// installs it (hash-verified), and resumes tailing from the bundle's
/// recorded offset.
#[test]
fn follower_resyncs_from_checkpoint_bundle_after_410() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    // Aggressive compaction on the primary: every checkpointed record is
    // trimmed (retain 0), segments seal after every record, the flusher
    // runs constantly.
    let pair = spawn_pair(
        "resync",
        &config,
        &corpus,
        3,
        |cfg| {
            cfg.wal_retain = 0;
            cfg.wal_segment_bytes = 1;
            cfg.flush_interval = Duration::from_millis(50);
        },
        |_| {},
    );
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);

    // Doc A replicates; then the follower dies hard at offset 1.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);
    pair.follower.abort();

    // Docs B and C land on the primary; wait until compaction has trimmed
    // the log past the dead follower's resume point (base_seq > 1).
    for body in &pair.held_out[1..] {
        let (status, v) = http(p_addr, "POST", "/documents", Some(body));
        assert_eq!(status, 200, "POST on primary: {v}");
    }
    wait_for("primary compaction past seq 1", || {
        let (_, m) = get(p_addr, "/metrics");
        m["wal"]["stream"]["base_seq"].as_u64().unwrap_or(0) > 1
    });

    // Restart the follower over its stale WAL. Its tailer asks for seq 1,
    // gets 410, and must resync from the primary's checkpoint bundle
    // rather than report a fatal error.
    let mut app2 =
        SpouseApp::build_with_corpus(config, pair.partial.clone()).expect("follower restart app");
    app2.dd
        .load_checkpoint(&Checkpoint::new(pair.f_ckpt.clone()).expect("checkpoint"))
        .expect("restore follower checkpoint");
    let handle2 = Server::new(app2.dd, &pair.follower_cfg)
        .expect("rebind follower")
        .start()
        .expect("restart follower");
    let f_addr2 = handle2.addr();
    wait_for("checkpoint resync", || {
        replication_metrics(f_addr2)["resyncs"]
            .as_u64()
            .unwrap_or(0)
            >= 1
    });
    wait_ready(f_addr2);

    // The resynced follower holds the primary's exact state: equal offset
    // and an equal fingerprint (epochs differ — the resync re-based its
    // epoch counter).
    let p_off = replication_metrics(p_addr);
    wait_for("offset parity after resync", || {
        replication_metrics(f_addr2)["wal_offset"] == p_off["wal_offset"]
    });
    assert_state_parity(p_addr, f_addr2, "after resync");
    assert!(
        replication_metrics(f_addr2)["diverged"] == json!(false),
        "a resync is not a divergence"
    );

    // Replication still works on top of the resynced state.
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc D: {v}");
    wait_for("doc D replicated", || {
        replication_metrics(f_addr2)["wal_offset"].as_u64()
            == replication_metrics(p_addr)["wal_offset"].as_u64()
    });
    assert_state_parity(p_addr, f_addr2, "after doc D");

    let _ = handle2.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// Anti-entropy scrub on a primary: a corrupted checkpoint artifact is
/// found by re-hashing, quarantined, and repaired by a full rewrite from
/// the live state; a corrupted WAL frame is found by re-reading every
/// segment and repaired by checkpointing the applied state and rewriting
/// the log clean. The scrub books appear in `/metrics` and `report.json`.
#[test]
fn scrub_quarantines_and_repairs_corrupt_artifacts() {
    let (handle, wal_dir, ckpt_dir, body) = spawn_single("scrub", Arc::new(FaultInjector::new()));
    let addr = handle.addr();
    let state = handle.state();

    // A clean pass finds nothing.
    state.scrub_now();
    let (_, m) = get(addr, "/metrics");
    assert_eq!(m["scrub"]["runs"].as_u64(), Some(1), "scrub ran: {m}");
    assert_eq!(m["scrub"]["corrupt_found"].as_u64(), Some(0));

    // Rot a checkpoint artifact on disk. The scrub must catch the hash
    // mismatch, quarantine the artifact, and rewrite the chain.
    let victim = ckpt_dir.join("db.ckpt");
    let mut rotted = std::fs::read(&victim).expect("read db.ckpt");
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x01;
    std::fs::write(&victim, &rotted).expect("rot db.ckpt");
    state.scrub_now();
    assert!(
        ckpt_dir.join("db.ckpt.quarantine").exists(),
        "rotted artifact was quarantined"
    );
    Checkpoint::new(ckpt_dir.clone())
        .and_then(|c| c.verify().map(|_| ()))
        .expect("checkpoint verifies clean after repair");

    // Rot one byte of a WAL frame. First make sure a record is on the log.
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200, "POST doc: {v}");
    let seg = std::fs::read_dir(&wal_dir)
        .expect("read wal dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "wal"))
        .expect("a WAL segment exists");
    let mut bytes = std::fs::read(&seg).expect("read segment");
    assert!(bytes.len() > 64, "segment holds a frame");
    let last = bytes.len() - 8;
    bytes[last] ^= 0x01;
    std::fs::write(&seg, &bytes).expect("rot segment");
    state.scrub_now();

    let (_, m) = get(addr, "/metrics");
    assert_eq!(m["scrub"]["runs"].as_u64(), Some(3), "three passes: {m}");
    assert_eq!(
        m["scrub"]["corrupt_found"].as_u64(),
        Some(2),
        "both corruptions found: {m}"
    );
    assert_eq!(
        m["scrub"]["repaired"].as_u64(),
        Some(2),
        "both corruptions repaired: {m}"
    );

    // Repaired means *usable*: the node is still ready, still accepts
    // writes, and a fresh scrub pass is clean.
    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 200, "repaired node is ready: {v}");
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 200, "repaired node accepts writes: {v}");
    state.scrub_now();
    let (_, m) = get(addr, "/metrics");
    assert_eq!(
        m["scrub"]["corrupt_found"].as_u64(),
        Some(2),
        "the post-repair pass found nothing new: {m}"
    );

    let _ = handle.graceful_shutdown().expect("drain");
    let report: Json = serde_json::from_str(
        &std::fs::read_to_string(wal_dir.join("report.json")).expect("report.json"),
    )
    .expect("report parses");
    assert_eq!(report["scrub"]["corrupt_found"].as_u64(), Some(2));
    assert_eq!(report["scrub"]["repaired"].as_u64(), Some(2));
}

/// A follower whose checkpoint rots repairs itself from its *peer*: the
/// scrub quarantines the artifact and resyncs from the primary's bundle.
#[test]
fn follower_scrub_repairs_from_the_primary() {
    let config = tiny_config();
    let corpus = deepdive_corpus::spouse::generate(&config.corpus);
    let pair = spawn_pair("fscrub", &config, &corpus, 1, |_| {}, |_| {});
    let (p_addr, f_addr) = (pair.primary.addr(), pair.follower.addr());
    wait_ready(f_addr);
    let (status, v) = http(p_addr, "POST", "/documents", Some(&pair.held_out[0]));
    assert_eq!(status, 200, "POST doc A: {v}");
    wait_epoch(f_addr, 1);

    let victim = pair.f_ckpt.join("weights.ckpt");
    let mut rotted = std::fs::read(&victim).expect("read weights.ckpt");
    let mid = rotted.len() / 2;
    rotted[mid] ^= 0x01;
    std::fs::write(&victim, &rotted).expect("rot weights.ckpt");

    pair.follower.state().scrub_now();
    let (_, m) = get(f_addr, "/metrics");
    assert_eq!(m["scrub"]["corrupt_found"].as_u64(), Some(1), "found: {m}");
    assert_eq!(m["scrub"]["repaired"].as_u64(), Some(1), "repaired: {m}");
    assert!(
        pair.f_ckpt.join("weights.ckpt.quarantine").exists(),
        "rotted artifact was quarantined"
    );
    assert_eq!(
        m["replication"]["resyncs"].as_u64(),
        Some(1),
        "peer repair is a checkpoint resync: {m}"
    );
    Checkpoint::new(pair.f_ckpt.clone())
        .and_then(|c| c.verify().map(|_| ()))
        .expect("follower checkpoint verifies clean after peer repair");
    wait_ready(f_addr);
    assert_state_parity(p_addr, f_addr, "after peer repair");

    let _ = pair.follower.graceful_shutdown().expect("drain follower");
    let _ = pair.primary.graceful_shutdown().expect("drain primary");
}

/// Dead disk: an `ENOSPC` during a WAL append refuses the ingest with the
/// failing path in the message, latches the node into the `storage_failed`
/// degraded state (reads fine, writes 503), and stops the serve loop so
/// the CLI can exit 8.
#[test]
fn enospc_during_wal_append_degrades_to_storage_failed() {
    let faults = Arc::new(FaultInjector::new());
    let (handle, _wal_dir, _ckpt_dir, body) = spawn_single("enospc", Arc::clone(&faults));
    let addr = handle.addr();
    let state = handle.state();

    faults.arm(points::DISK_ENOSPC, 1);
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 500, "ENOSPC refuses the ingest: {v}");
    let err = v["error"].as_str().unwrap_or("");
    assert!(err.contains("os error 28"), "names the errno: {v}");
    assert!(err.contains("seg-"), "names the failing segment path: {v}");

    // The failure latches: this node no longer trusts its disk.
    let fatal = state
        .storage_fatal_error()
        .expect("storage failure latched");
    assert!(
        fatal.contains("WAL"),
        "latched error names the write: {fatal}"
    );
    let (status, v) = get(addr, "/readyz");
    assert_eq!(status, 503);
    assert_eq!(v["status"], json!("storage_failed"), "readyz verdict: {v}");
    assert!(
        v["detail"].as_str().unwrap_or("").contains("os error 28"),
        "readyz carries the detail: {v}"
    );
    let (status, v) = http(addr, "POST", "/documents", Some(&body));
    assert_eq!(status, 503, "subsequent writes refused: {v}");
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200, "reads survive a dead disk");

    handle.abort();
}
