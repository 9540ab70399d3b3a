//! The daemon: a thread-pooled TCP accept loop routing requests against the
//! current [`ServeSnapshot`], plus the single-writer ingest path.
//!
//! Ownership layout:
//!
//! * Readers (`GET /relations`, `/marginals`, `/healthz`, `/readyz`,
//!   `/metrics`) touch only the snapshot cell and atomics — they never take
//!   the writer lock, so queries stay fast while an ingest is re-grounding.
//! * There is one write path, [`ServeState::apply_batch`], under
//!   `Mutex<DeepDive>`. Client ingests (batched by the committer thread),
//!   records shipped from a primary, and records replayed from the local
//!   WAL all go through it: validate, append to the write-ahead log
//!   (fsync'd — the ack promises durability), route the new rows through
//!   incremental view maintenance and DRed (§4.1) so only the touched
//!   region re-grounds, then publish the next epoch with one pointer swap
//!   after a fixed-budget Gibbs refresh (§4.2). A concurrent reader sees
//!   epoch N or N+1, never a mixture.
//!
//! Robustness posture (crash + overload):
//!
//! * **Durability.** Startup restores the checkpoint, then replays the WAL
//!   through the same write path; `/readyz` reports 503 until the replayed
//!   epoch swaps in. A successful checkpoint flush (startup replay or
//!   graceful drain) truncates the WAL.
//! * **Admission control.** At most `max_inflight` connections are queued
//!   or being served; beyond that the accept loop sheds with
//!   `503 + Retry-After` instead of queuing unboundedly. `POST /documents`
//!   additionally passes a token-bucket rate limit (429). Per-connection
//!   read/write timeouts plus an overall request deadline cut slowloris and
//!   stalled-mid-body peers with 408.
//! * **Lifecycle.** `graceful_shutdown` stops accepting, drains in-flight
//!   requests up to the drain budget, flushes a final checkpoint, and
//!   marks the WAL checkpointed; `abort` drops everything on the floor
//!   (the chaos tests' in-process `kill -9`).
//! * **Replication.** A primary streams its WAL over `GET /wal`; a node
//!   started with [`ServeConfig::follow`] tails that stream, persists each
//!   record to its own WAL, applies it through the same write path, and
//!   serves reads at observable epoch lag while answering `POST /documents`
//!   with 405. See [`crate::replication`] for the protocol.

use crate::http::{ParseError, ParseLimits, Request, Response};
use crate::metrics::ServeMetrics;
use crate::replication::{self, jittered_retry_secs, ReplicationStats};
use crate::snapshot::{serving_options, ServeSnapshot, SnapshotCell, REFRESH_SAMPLES};
use crate::subscriptions::{
    render_snapshot_frame, value_to_json, EpochDelta, IvmTrace, RowFilter, Subscriber,
    SubscriptionRegistry, SubscriptionSpec, RESERVED_QUERY_KEYS,
};
use crate::wal::{Wal, WalOptions, WalRecovery, DEFAULT_RETAIN_RECORDS, DEFAULT_SEGMENT_BYTES};
use deepdive_core::faults::{is_durable_storage_error, points, FaultInjector};
use deepdive_core::{Checkpoint, CheckpointTracker, DeepDive};
use deepdive_grounding::GroundingDelta;
use deepdive_storage::{
    value_from_tsv, BaseChange, ExecutionContext, MemoryBudget, Row, Schema, Value as DbValue,
    ValueType,
};
use parking_lot::Mutex;
use serde_json::{json, Map, Value as Json};
use std::collections::HashSet;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads answering requests (the accept loop is separate).
    pub workers: usize,
    /// Default (and maximum) rows per page on list endpoints.
    pub page_limit: usize,
    /// Where the ingest write-ahead log lives. `None` disables durability:
    /// ingests are acknowledged from memory only (the pre-WAL behavior,
    /// still right for exploratory serving over a scratch checkpoint).
    pub wal_dir: Option<PathBuf>,
    /// Where the final checkpoint is flushed on graceful shutdown (and
    /// after startup replay). Normally the `--resume` run directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Admission bound: connections queued or in-flight beyond this are
    /// shed with `503 + Retry-After`.
    pub max_inflight: usize,
    /// Token-bucket rate limit on `POST /documents`, in requests/second
    /// (burst = one second's worth). `None` = unlimited.
    pub ingest_rate: Option<f64>,
    /// How long a graceful shutdown waits for in-flight requests.
    pub drain: Duration,
    /// Per-syscall socket read timeout (each blocking read).
    pub read_timeout: Duration,
    /// Per-syscall socket write timeout (a peer not reading its response).
    pub write_timeout: Duration,
    /// Overall budget for reading one request (header + body); a peer
    /// dribbling bytes slower than this is cut with 408.
    pub request_deadline: Duration,
    /// Fault injection for chaos tests (fsync failures, torn WAL writes,
    /// replay stalls); defaults to a never-tripping injector.
    pub faults: Arc<FaultInjector>,
    /// Follow this primary (`http://host:port`) as a read-only replica:
    /// tail its WAL stream, apply every record locally, answer
    /// `POST /documents` with 405. Requires [`ServeConfig::wal_dir`] — the
    /// follower persists its own WAL copy so a crash resumes from the last
    /// durable offset without re-fetching history.
    pub follow: Option<String>,
    /// A follower whose epoch lag exceeds this fails `/readyz` (503) until
    /// it catches back up; load balancers route around stale replicas.
    pub max_lag_epochs: u64,
    /// Largest batch of WAL frame bytes shipped per chunk on `GET /wal`.
    pub stream_window: usize,
    /// Checkpointed records kept in the WAL for followers to fetch before
    /// compaction trims them (compacted-away offsets answer 410).
    pub wal_retain: u64,
    /// Group-commit linger window: how long the committer thread collects
    /// concurrent `POST /documents` bodies before fsyncing them as one WAL
    /// batch. `Duration::ZERO` commits every request as a batch of one
    /// (one fsync each — the bench baseline).
    pub linger: Duration,
    /// WAL segment rotation threshold: a segment that reaches this many
    /// payload bytes is sealed and a new one started. Compaction later
    /// unlinks whole checkpointed segments past the retention horizon.
    pub wal_segment_bytes: u64,
    /// Full-rewrite cadence for incremental checkpoints: once this many
    /// database deltas are chained onto the base, the next flush rewrites
    /// the base and resets the chain. 0 = never (the first flush is always
    /// a full rewrite regardless).
    pub checkpoint_full_every: u64,
    /// How often the background flusher checkpoints pending WAL records and
    /// compacts checkpointed segments. Not a CLI flag; tests shrink it.
    pub flush_interval: Duration,
    /// Most live subscriptions registered at once; registration beyond this
    /// answers 429.
    pub max_subscriptions: usize,
    /// Byte budget for each subscriber's pending-frame queue. A consumer
    /// that falls further behind than this is shed (queue cleared, `lagged`
    /// frame, snapshot re-base) rather than allowed to block ingest.
    pub sub_queue_bytes: usize,
    /// Anti-entropy scrub cadence: how often the background scrubber
    /// re-verifies every WAL frame checksum and the whole checkpoint chain,
    /// quarantining and repairing what fails. `Duration::ZERO` (the
    /// default) disables the scrubber.
    pub scrub_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            page_limit: 100,
            wal_dir: None,
            checkpoint_dir: None,
            max_inflight: 64,
            ingest_rate: None,
            drain: Duration::from_secs(5),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            request_deadline: Duration::from_secs(15),
            faults: Arc::new(FaultInjector::new()),
            follow: None,
            max_lag_epochs: 16,
            stream_window: 1 << 20,
            wal_retain: DEFAULT_RETAIN_RECORDS,
            linger: Duration::from_millis(2),
            wal_segment_bytes: DEFAULT_SEGMENT_BYTES,
            checkpoint_full_every: 16,
            flush_interval: Duration::from_secs(5),
            max_subscriptions: 64,
            sub_queue_bytes: 1 << 20,
            scrub_interval: Duration::ZERO,
        }
    }
}

/// Where the daemon is in its life: replaying the WAL (serving the
/// pre-replay epoch, not ready), ready, or draining for shutdown.
/// `/healthz` stays 200 throughout — liveness and readiness are distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    Replaying,
    Ready,
    Draining,
}

impl Lifecycle {
    pub fn as_str(&self) -> &'static str {
        match self {
            Lifecycle::Replaying => "replaying",
            Lifecycle::Ready => "ready",
            Lifecycle::Draining => "draining",
        }
    }

    fn from_u8(v: u8) -> Lifecycle {
        match v {
            0 => Lifecycle::Replaying,
            2 => Lifecycle::Draining,
            _ => Lifecycle::Ready,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Lifecycle::Replaying => 0,
            Lifecycle::Ready => 1,
            Lifecycle::Draining => 2,
        }
    }
}

/// Classic token bucket: `rate` tokens/second refill, burst of one
/// second's worth (at least 1). `try_take` either spends a token or says
/// how long until one is available.
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: f64) -> TokenBucket {
        let burst = rate.max(1.0);
        TokenBucket {
            rate: rate.max(f64::MIN_POSITIVE),
            burst,
            tokens: burst,
            last: Instant::now(),
        }
    }

    fn try_take(&mut self) -> Result<(), u64> {
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            Err(((1.0 - self.tokens) / self.rate).ceil().max(1.0) as u64)
        }
    }
}

/// WAL bookkeeping surfaced in `/metrics` and the replay report.
#[derive(Debug, Default, Clone)]
struct WalStats {
    torn_tail_recovered: bool,
    torn_bytes: u64,
    replayed_records: u64,
    replay_skipped: u64,
}

/// Group-commit counters (monotonic; `/metrics` derives `avg_batch` and
/// `fsyncs_saved` from them).
#[derive(Debug, Default)]
struct GroupCommitStats {
    /// WAL batches durably committed (one fsync each).
    batches: AtomicU64,
    /// Records across those batches.
    records: AtomicU64,
}

/// Incremental-checkpoint bookkeeping surfaced in `/metrics` and
/// `report.json` (cumulative except `chain_len`, which is the current
/// chain depth).
#[derive(Debug, Default, Clone)]
struct CheckpointStats {
    flushes: u64,
    full_rewrites: u64,
    artifacts_written: u64,
    artifacts_skipped: u64,
    chain_len: u64,
}

/// One ingest handed to the committer thread: the raw body plus the
/// channel its worker is parked on awaiting the batch's fate.
struct CommitRequest {
    body: Vec<u8>,
    reply: mpsc::Sender<Response>,
}

/// Where a batch handed to [`ServeState::apply_batch`] comes from. It
/// decides only how the records reach the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Origin {
    /// Client `POST /documents` bodies, batched by the committer. Invalid
    /// bodies never touch the log, and a refused record is cut back off it.
    Client,
    /// Records shipped from the primary, logged verbatim before apply.
    Replicated,
    /// Records recovered from the local WAL: already durable.
    Replay,
}

/// What became of one record handed to [`ServeState::apply_batch`].
pub(crate) enum Outcome {
    /// Applied: rows inserted and the grounding delta they caused.
    Applied {
        inserted: usize,
        delta: GroundingDelta,
    },
    /// Failed validation; carries the 400 a client gets.
    Invalid(Response),
    /// DRed/IVM refused it.
    Refused(String),
    /// The WAL could not hold it, so it is not acknowledged (applied or
    /// not); carries the 500 message.
    NotDurable(String),
}

/// Per-record outcomes of one batch, in input order, plus the epoch and
/// fingerprint served once the batch is done.
pub(crate) struct BatchOutcome {
    pub(crate) records: Vec<Outcome>,
    pub(crate) epoch: u64,
    pub(crate) fingerprint: u64,
}

/// Everything a request handler can reach, shared across workers.
pub struct ServeState {
    snapshot: SnapshotCell,
    /// The single writer. Only `POST /documents`, WAL replay, and the final
    /// checkpoint flush lock it.
    writer: Mutex<DeepDive>,
    pub metrics: ServeMetrics,
    budget: Arc<MemoryBudget>,
    ctx: Arc<ExecutionContext>,
    /// Relations derived by rules — not ingestible.
    derived: HashSet<String>,
    page_limit: usize,
    started: Instant,
    lifecycle: AtomicU8,
    /// Connections admitted (queued or being served) right now.
    inflight: AtomicUsize,
    max_inflight: usize,
    ingest_bucket: Option<Mutex<TokenBucket>>,
    wal: Option<Mutex<Wal>>,
    wal_stats: Mutex<WalStats>,
    wal_dir: Option<PathBuf>,
    checkpoint_dir: Option<PathBuf>,
    /// Group-commit ingress: workers send [`CommitRequest`]s here and park
    /// on the reply. `None` until the committer thread spawns, and again
    /// once shutdown tears it down (a POST then answers 503).
    committer: Mutex<Option<mpsc::Sender<CommitRequest>>>,
    /// Group-commit linger window (the committer's batching horizon).
    linger: Duration,
    group_commit: GroupCommitStats,
    /// Dirty-tracking state threaded between incremental checkpoint
    /// flushes; lives beside the writer because a flush holds the writer
    /// lock anyway.
    ckpt_tracker: Mutex<CheckpointTracker>,
    ckpt_stats: Mutex<CheckpointStats>,
    checkpoint_full_every: u64,
    faults: Arc<FaultInjector>,
    read_timeout: Duration,
    write_timeout: Duration,
    request_deadline: Duration,
    /// The primary this node follows (`None` = it started as a primary).
    /// The *current* role is [`ServeState::is_follower`] — `POST /promote`
    /// flips a follower to primary at runtime.
    follow: Option<String>,
    max_lag_epochs: u64,
    stream_window: usize,
    /// Set by shutdown/abort; unblocks `GET /wal` streamers and the
    /// follower's tailer, which otherwise run forever.
    stopping: AtomicBool,
    replication: ReplicationStats,
    /// Live subscriptions and the delta router that feeds them.
    subs: SubscriptionRegistry,
    /// This node's fencing term — the election counter persisted in the
    /// WAL v3 header. Mirrors `Wal::term` so handlers read it lock-free.
    term: AtomicU64,
    /// Dynamic role. Starts as `follow.is_some()`; a successful
    /// `POST /promote` flips it to false.
    follower: AtomicBool,
    /// Pauses just the follower's tailer (promotion in flight). Cleared
    /// again if the promotion aborts; permanent once promoted.
    repl_paused: AtomicBool,
    /// Set when a peer's higher term revealed this node is a deposed
    /// primary: writes are refused, `GET /wal` streams end, `/readyz`
    /// answers "fenced".
    fenced: Mutex<Option<String>>,
    /// Set when the WAL or checkpoint hit a durable-storage failure
    /// (ENOSPC/EIO): writes are refused and the CLI exits 8.
    storage_fatal: Mutex<Option<String>>,
    /// Set when the scrubber found corruption it could not repair: the
    /// node degrades to read-only and `/readyz` answers "corrupt".
    corrupt: Mutex<Option<String>>,
    /// Anti-entropy scrubber books (`/metrics`, report.json).
    scrub: ScrubStats,
}

/// Scrub counters: passes run, corruptions found (WAL frames, checkpoint
/// artifacts, cross-node fingerprint mismatches), and repairs completed.
#[derive(Debug, Default)]
pub struct ScrubStats {
    pub runs: AtomicU64,
    pub corrupt_found: AtomicU64,
    pub repaired: AtomicU64,
}

impl ServeState {
    /// The currently served snapshot (for tests and the CLI banner).
    pub fn current(&self) -> Arc<ServeSnapshot> {
        self.snapshot.load()
    }

    pub fn lifecycle(&self) -> Lifecycle {
        Lifecycle::from_u8(self.lifecycle.load(Ordering::SeqCst))
    }

    fn set_lifecycle(&self, l: Lifecycle) {
        self.lifecycle.store(l.as_u8(), Ordering::SeqCst);
    }

    /// Atomically transition `from` → `to`; false when the state had
    /// already moved on. Replay uses this for Replaying → Ready so it can
    /// never clobber a `Draining` set by a concurrent graceful shutdown
    /// (which would reopen `/readyz` and the ingest gate mid-drain).
    fn lifecycle_cas(&self, from: Lifecycle, to: Lifecycle) -> bool {
        self.lifecycle
            .compare_exchange(from.as_u8(), to.as_u8(), Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Current admission queue depth (queued + in-flight connections).
    pub fn queue_depth(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// `(records, bytes)` currently in the WAL; zeros when disabled.
    /// `records` counts *pending* records (appended since the last
    /// checkpoint mark) — checkpointed records retained for replication
    /// show up in `physical_records` under `/metrics` instead.
    pub fn wal_gauges(&self) -> (u64, u64) {
        match &self.wal {
            Some(wal) => {
                let wal = wal.lock();
                (wal.records(), wal.bytes())
            }
            None => (0, 0),
        }
    }

    /// True when this node tails a primary instead of taking writes.
    /// Dynamic: a follower stops being one the moment `POST /promote`
    /// succeeds.
    pub fn is_follower(&self) -> bool {
        self.follower.load(Ordering::SeqCst)
    }

    /// The node's current fencing term (0 = no WAL / never elected).
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    /// `"primary"` or `"follower"`, for status bodies.
    pub fn role_str(&self) -> &'static str {
        if self.is_follower() {
            "follower"
        } else {
            "primary"
        }
    }

    /// Adopt a term learned from a peer (never lowers). Persists it in the
    /// WAL manifest so a restart still refuses stale-term primaries.
    pub(crate) fn adopt_term(&self, term: u64) -> io::Result<()> {
        if let Some(wal) = &self.wal {
            wal.lock().set_term(term)?;
        }
        self.term.fetch_max(term, Ordering::SeqCst);
        Ok(())
    }

    /// A peer proved a newer term exists: this node is a deposed primary.
    /// Refuse writes from here on — acking them would split the brain.
    pub(crate) fn fence(&self, peer_term: u64) {
        let mut slot = self.fenced.lock();
        if slot.is_none() {
            let msg = format!(
                "fenced: a peer has seen term {peer_term}, newer than ours ({}); this \
                 deposed primary refuses writes — restart it with --follow pointing \
                 at the new primary",
                self.term()
            );
            eprintln!("deepdive serve: {msg}");
            *slot = Some(msg);
        }
    }

    pub(crate) fn fenced(&self) -> bool {
        self.fenced.lock().is_some()
    }

    pub fn fenced_reason(&self) -> Option<String> {
        self.fenced.lock().clone()
    }

    /// True while the tailer must stay off the stream (promote in flight,
    /// or this node was promoted).
    pub(crate) fn replication_paused(&self) -> bool {
        self.repl_paused.load(Ordering::SeqCst)
    }

    /// The durable-storage failure (ENOSPC/EIO) that stopped writes, when
    /// one happened. The CLI maps this to exit 8.
    pub fn storage_fatal_error(&self) -> Option<String> {
        self.storage_fatal.lock().clone()
    }

    /// Classify an I/O error from the WAL or checkpoint path: a
    /// durable-storage failure (disk full, I/O error) latches the node
    /// into refusing writes, and the CLI exits 8.
    fn note_storage_error(&self, e: &io::Error, what: &str) {
        if !is_durable_storage_error(e) {
            return;
        }
        let mut slot = self.storage_fatal.lock();
        if slot.is_none() {
            let msg = format!("durable storage failure during {what}: {e}");
            eprintln!("deepdive serve: FATAL: {msg}");
            *slot = Some(msg);
        }
    }

    /// The unrepairable corruption that degraded this node to read-only,
    /// when the scrubber found one.
    pub fn corrupt_reason(&self) -> Option<String> {
        self.corrupt.lock().clone()
    }

    fn set_corrupt(&self, why: String) {
        let mut slot = self.corrupt.lock();
        if slot.is_none() {
            eprintln!(
                "deepdive serve: scrub: degrading to read-only: {why} \
                 (reads keep serving the last good epoch)"
            );
            *slot = Some(why);
        }
    }

    /// Why writes are currently refused, if they are (fencing, unrepaired
    /// corruption, or a durable-storage failure).
    fn write_block_reason(&self) -> Option<String> {
        self.fenced_reason()
            .or_else(|| self.corrupt_reason())
            .or_else(|| self.storage_fatal_error())
    }

    pub(crate) fn checkpoint_dir(&self) -> Option<&std::path::Path> {
        self.checkpoint_dir.as_deref()
    }

    /// The scrub counters as the JSON gauge object `/metrics` and
    /// `report.json` share.
    fn scrub_json(&self) -> Json {
        json!({
            "runs": self.scrub.runs.load(Ordering::SeqCst),
            "corrupt_found": self.scrub.corrupt_found.load(Ordering::SeqCst),
            "repaired": self.scrub.repaired.load(Ordering::SeqCst),
        })
    }

    /// Run one scrub pass right now (tests; the scrubber thread calls the
    /// same path on its interval).
    pub fn scrub_now(&self) {
        scrub_once(self);
    }

    /// Re-seed this node's entire state from the primary's live checkpoint:
    /// fetch the bundle (hash-verified, tmp+rename installed), verify the
    /// chain, load it over the served state, publish the restored epoch,
    /// and rewrite the local WAL to resume at the checkpoint's position.
    /// Returns the seq the tail resumes from.
    ///
    /// This is the 410 (compacted-history) recovery path and the
    /// follower's scrub-repair path.
    pub(crate) fn resync_from_primary(&self, primary: &str) -> io::Result<u64> {
        let dir = self.checkpoint_dir.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint resync requires a checkpoint dir (nowhere to \
                 install the primary's checkpoint); re-seed this follower manually",
            )
        })?;
        let files = replication::fetch_checkpoint_bundle(primary, dir)?;
        let ckpt = Checkpoint::new(dir.clone()).map_err(io::Error::other)?;
        ckpt.verify().map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fetched checkpoint failed verification: {e}"),
            )
        })?;
        let (stream_id, seq, term) = read_wal_position(Some(dir)).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "fetched checkpoint carries no wal_position.json; the primary \
                 must flush at least one checkpoint with a WAL attached",
            )
        })?;
        {
            let mut dd = self.writer.lock();
            dd.load_checkpoint(&ckpt).map_err(io::Error::other)?;
            *self.ckpt_tracker.lock() = CheckpointTracker::default();
            self.publish_epoch(&dd, 1, IvmTrace::default());
            let new_term = term.max(self.term());
            if let Some(wal) = &self.wal {
                wal.lock().reset_stream(stream_id, seq, new_term)?;
            }
            self.term.fetch_max(new_term, Ordering::SeqCst);
            self.replication.applied_seq.store(seq, Ordering::SeqCst);
            self.replication.observe_watermark(seq);
        }
        eprintln!(
            "deepdive serve: installed {files} checkpoint file(s) from the primary; \
             local WAL reset to stream {stream_id:016x} seq {seq}"
        );
        Ok(seq)
    }

    /// The `group_commit` gauge object shared by `/metrics` and
    /// `report.json`: committed batches, mean records per batch, and the
    /// fsyncs batching avoided versus one-fsync-per-request.
    fn group_commit_json(&self) -> Json {
        let batches = self.group_commit.batches.load(Ordering::Relaxed);
        let records = self.group_commit.records.load(Ordering::Relaxed);
        json!({
            "batches": batches,
            "avg_batch": if batches > 0 {
                records as f64 / batches as f64
            } else {
                0.0
            },
            "fsyncs_saved": records.saturating_sub(batches),
        })
    }

    /// Replication books (`/metrics`, `/readyz`, the CLI's divergence exit).
    pub fn replication(&self) -> &ReplicationStats {
        &self.replication
    }

    /// The live-subscription registry (tests and `/metrics`).
    pub fn subscriptions(&self) -> &SubscriptionRegistry {
        &self.subs
    }

    /// Capture and publish the next snapshot — the single epoch swap the
    /// write path and checkpoint resync funnel through, always at
    /// [`serving_options`] — and fan the exact delta out to live
    /// subscribers. The diff against the outgoing snapshot is computed only
    /// while subscribers exist, and routing happens strictly *after* the
    /// swap: a consumer that re-bases on `snapshot.load()` is therefore
    /// always at-or-ahead of any frame it may have missed while shed.
    ///
    /// Callers hold the writer lock, which orders concurrent publications
    /// (and thus frame epochs) totally. Returns `(epoch, fingerprint)`.
    fn publish_epoch(&self, dd: &DeepDive, advance: u64, trace: IvmTrace) -> (u64, u64) {
        let prev = self.snapshot.load();
        let epoch = prev.epoch + advance;
        let snapshot = ServeSnapshot::capture(dd, epoch, &serving_options(&dd.config.inference));
        let fingerprint = snapshot.fingerprint;
        let delta = self
            .subs
            .is_active()
            .then(|| EpochDelta::diff(&prev, &snapshot, trace));
        self.snapshot.store(snapshot);
        if let Some(delta) = delta {
            self.subs.route(&delta);
        }
        (epoch, fingerprint)
    }

    pub(crate) fn wal_handle(&self) -> Option<&Mutex<Wal>> {
        self.wal.as_ref()
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    pub(crate) fn faults_ref(&self) -> &FaultInjector {
        &self.faults
    }

    pub(crate) fn stream_window(&self) -> usize {
        self.stream_window
    }

    pub(crate) fn max_lag_epochs(&self) -> u64 {
        self.max_lag_epochs
    }

    /// The one write path. Client ingests, records shipped from a primary,
    /// and records replayed from the local WAL all come through here:
    /// validate every record, make the batch durable with one WAL append
    /// (replayed records already are), apply each record on its own through
    /// DRed/IVM, and publish one epoch advanced by the applied count.
    /// Returns what became of each record, in input order; callers decide
    /// only what a failure means to them.
    ///
    /// Lock order: writer, then wal — the same order as `flush_checkpoint`,
    /// so the two can interleave but never deadlock.
    pub(crate) fn apply_batch(&self, origin: Origin, records: &[&[u8]]) -> BatchOutcome {
        let mut dd = self.writer.lock();
        let parsed: Vec<Result<Vec<BaseChange>, Response>> = records
            .iter()
            .map(|body| parse_ingest_body(&dd, &self.derived, body))
            .collect();

        // Durability first, one fsync for the whole batch. A failed append
        // is a failed batch: nothing was applied yet. Client bodies that
        // failed validation never touch the log; replicated records are
        // logged verbatim, so the local log stays seq-aligned with the
        // primary's whatever happens at apply.
        let mut appended = None;
        if let Some(wal) = self.wal.as_ref().filter(|_| origin != Origin::Replay) {
            let logged: Vec<&[u8]> = records
                .iter()
                .zip(&parsed)
                .filter(|(_, p)| origin == Origin::Replicated || p.is_ok())
                .map(|(body, _)| *body)
                .collect();
            let mark = wal.lock().mark();
            if let Err(e) = wal.lock().append_batch(&logged) {
                self.note_storage_error(&e, "WAL batch append");
                let msg = format!("ingest not applied: WAL append failed: {e}");
                return self.unpublished(
                    parsed
                        .into_iter()
                        .map(|p| match p {
                            Ok(_) => Outcome::NotDurable(msg.clone()),
                            Err(resp) => Outcome::Invalid(resp),
                        })
                        .collect(),
                );
            }
            if origin == Origin::Client && !logged.is_empty() {
                self.group_commit.batches.fetch_add(1, Ordering::Relaxed);
                self.group_commit
                    .records
                    .fetch_add(logged.len() as u64, Ordering::Relaxed);
            }
            appended = Some((wal, mark));
        }

        // Apply each record on its own: one bad batch-mate must not fail
        // its neighbors.
        let mut trace = IvmTrace::default();
        let mut outcomes = Vec::with_capacity(records.len());
        for changes in parsed {
            outcomes.push(match changes {
                Err(resp) => Outcome::Invalid(resp),
                Ok(changes) => {
                    let inserted = changes.len();
                    match dd.apply_base_changes_traced(changes) {
                        Ok((delta, result)) => {
                            trace.absorb(&result);
                            Outcome::Applied { inserted, delta }
                        }
                        Err(e) => Outcome::Refused(e.to_string()),
                    }
                }
            });
        }

        let refused = outcomes.iter().any(|o| matches!(o, Outcome::Refused(_)));
        if let Some((wal, mark)) = appended.filter(|_| origin == Origin::Client && refused) {
            // A refused client record's 500 promises "no durable trace": cut
            // the whole batch off the log and re-append only the applied
            // records, so a restart can never replay a record whose client
            // was told it failed. The writer lock is still held, so nothing
            // appended after the batch.
            let rewrite = {
                let mut wal = wal.lock();
                wal.rollback_to(&mark).and_then(|()| {
                    let keep: Vec<&[u8]> = records
                        .iter()
                        .zip(&outcomes)
                        .filter(|(_, o)| matches!(o, Outcome::Applied { .. }))
                        .map(|(body, _)| *body)
                        .collect();
                    wal.append_batch(&keep).map(|_| ())
                })
            };
            if let Err(re) = rewrite {
                // The log no longer matches what was applied and is
                // poisoned until the next checkpoint flush repairs it.
                // Nobody gets an ack: the durability half of the promise is
                // gone for the applied records too. (Their in-memory effects
                // surface in a later epoch — see DESIGN §13.)
                eprintln!(
                    "deepdive serve: WARNING: could not roll failed ingests off the WAL \
                     ({re}); log poisoned until the next checkpoint flush"
                );
                let msg = "ingest not applied: WAL rewrite failed after a batch-mate's apply \
                           failure; log poisoned until the next checkpoint flush";
                for o in &mut outcomes {
                    if matches!(o, Outcome::Applied { .. }) {
                        *o = Outcome::NotDurable(msg.into());
                    }
                }
                return self.unpublished(outcomes);
            }
        }

        // One refresh, one snapshot swap, one epoch per applied record
        // (epoch stays in lockstep with the WAL seq). Subscribers see the
        // whole batch as one delta set.
        let applied = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Applied { .. }))
            .count() as u64;
        let published = (applied > 0).then(|| self.publish_epoch(&dd, applied, trace));
        // Advance the applied offset while still holding the writer lock so
        // a concurrent checkpoint flush can never mark past what the
        // checkpoint it just saved actually contains. Every record handed
        // in is consumed (applied or failed): the served state covers the
        // whole local log.
        if let Some(wal) = &self.wal {
            let next = wal.lock().next_seq();
            self.replication.applied_seq.store(next, Ordering::SeqCst);
            self.replication.observe_watermark(next);
        }
        if origin == Origin::Replicated {
            self.replication
                .records_applied
                .fetch_add(applied, Ordering::SeqCst);
        }
        match published {
            Some((epoch, fingerprint)) => BatchOutcome {
                records: outcomes,
                epoch,
                fingerprint,
            },
            None => self.unpublished(outcomes),
        }
    }

    /// A batch that published nothing: the served epoch is unchanged.
    fn unpublished(&self, records: Vec<Outcome>) -> BatchOutcome {
        let snap = self.snapshot.load();
        BatchOutcome {
            records,
            epoch: snap.epoch,
            fingerprint: snap.fingerprint,
        }
    }

    /// Flush a checkpoint capturing every applied ingest, then mark the WAL
    /// checkpointed through what the checkpoint holds — those records are
    /// now owned by the checkpoint (and retained only for followers still
    /// fetching them). Requires the writer lock to be free (callers must
    /// not hold it). The writer lock is held across both the save and the
    /// mark (writer → wal, the same order `apply_batch` takes) so no
    /// ingest can append between them — an interleaved append would be
    /// applied and acked, then silently skipped by the mark without being
    /// in the checkpoint.
    ///
    /// On a primary every appended record is applied under the writer lock,
    /// so the mark covers the whole log (`next_seq`). A follower marks only
    /// through `applied_seq`: a record it holds but has not applied must
    /// stay pending, or a crash before applying would lose it.
    ///
    /// The checkpoint directory also gets `wal_position.json` (stream id +
    /// seq + term), so copying the directory to seed a new follower carries
    /// the exact offset it should resume the stream from.
    fn flush_checkpoint(&self) -> io::Result<()> {
        let flushed = self.flush_checkpoint_inner();
        if let Err(e) = &flushed {
            // ENOSPC/EIO here means acked durability can no longer be
            // honored; latch the failure so writes stop and the CLI exits 8.
            self.note_storage_error(e, "checkpoint flush");
        }
        flushed
    }

    fn flush_checkpoint_inner(&self) -> io::Result<()> {
        let Some(dir) = &self.checkpoint_dir else {
            return Ok(());
        };
        let dd = self.writer.lock();
        let mut ckpt = Checkpoint::new(dir.clone()).map_err(io::Error::other)?;
        ckpt.set_faults(self.faults.clone());
        let report = {
            let mut tracker = self.ckpt_tracker.lock();
            dd.save_checkpoint_incremental(&ckpt, &mut tracker, self.checkpoint_full_every)
                .map_err(io::Error::other)?
        };
        {
            let mut stats = self.ckpt_stats.lock();
            stats.flushes += 1;
            if report.full {
                stats.full_rewrites += 1;
            }
            stats.artifacts_written += report.artifacts_written;
            stats.artifacts_skipped += report.artifacts_skipped;
            stats.chain_len = report.chain_len;
        }
        if let Some(wal) = &self.wal {
            let mut wal = wal.lock();
            let through = if self.is_follower() {
                self.replication.applied_seq.load(Ordering::SeqCst)
            } else {
                wal.next_seq()
            };
            wal.mark_checkpointed(through)?;
            let position = json!({
                "stream_id": format!("{:016x}", wal.stream_id()),
                "seq": through,
                "term": wal.term(),
            });
            std::fs::write(
                dir.join("wal_position.json"),
                serde_json::to_string_pretty(&position).expect("a Value renders"),
            )?;
        }
        Ok(())
    }

    /// Write the replay report (`report.json` in the WAL dir): what the
    /// recovery scan found and what replay did — including `wal_torn_tail`,
    /// the flag operators alert on.
    fn write_wal_report(&self) {
        let Some(dir) = &self.wal_dir else { return };
        let stats = self.wal_stats.lock().clone();
        let (records, bytes) = self.wal_gauges();
        let (segments, segment_bytes, compactions) = match &self.wal {
            Some(wal) => {
                let wal = wal.lock();
                (
                    wal.segments() as u64,
                    wal.segment_target(),
                    wal.compactions(),
                )
            }
            None => (0, 0, 0),
        };
        let ck = self.ckpt_stats.lock().clone();
        let report = json!({
            "wal": json!({
                "wal_torn_tail": stats.torn_tail_recovered,
                "torn_bytes_dropped": stats.torn_bytes,
                "records_replayed": stats.replayed_records,
                "records_skipped": stats.replay_skipped,
                "records_pending": records,
                "bytes": bytes,
                "segments": segments,
                "segment_bytes": segment_bytes,
                "compactions": compactions,
                "group_commit": self.group_commit_json(),
            }),
            "checkpoint": json!({
                "enabled": self.checkpoint_dir.is_some(),
                "flushes": ck.flushes,
                "full_rewrites": ck.full_rewrites,
                "incremental": json!({
                    "artifacts_written": ck.artifacts_written,
                    "artifacts_skipped": ck.artifacts_skipped,
                    "chain_len": ck.chain_len,
                }),
            }),
            "replication": self.replication.to_json(self.is_follower()),
            "term": self.term(),
            "scrub": self.scrub_json(),
        });
        let text = serde_json::to_string_pretty(&report).expect("report renders");
        if let Err(e) = std::fs::write(dir.join("report.json"), text) {
            eprintln!("deepdive serve: cannot write WAL replay report: {e}");
        }
    }
}

/// A bound, not-yet-started server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    workers: usize,
    drain: Duration,
    flush_interval: Duration,
    scrub_interval: Duration,
    /// Intact WAL records recovered at open, pending replay on `start`.
    pending_replay: Vec<Vec<u8>>,
}

impl Server {
    /// Materialize the initial snapshot from `dd`'s current state (normally
    /// restored from a checkpoint), open the write-ahead log (recovering
    /// any records a crash left behind), and bind the listener. The initial
    /// marginals come from the same fixed-budget capture every later epoch
    /// uses.
    ///
    /// If the WAL holds records, the daemon starts in `Replaying` state:
    /// it serves the pre-replay epoch, answers `/readyz` with 503, and
    /// refuses ingests until [`Server::start`]'s replay thread swaps the
    /// replayed epoch in.
    pub fn new(dd: DeepDive, config: &ServeConfig) -> io::Result<Server> {
        if config.follow.is_some() && config.wal_dir.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "follower mode requires a WAL (--wal-dir): the local copy is \
                 what lets a crashed follower resume without re-fetching history",
            ));
        }
        let snapshot = ServeSnapshot::capture(&dd, 0, &serving_options(&dd.config.inference));
        let derived = dd.grounder.engine().program().derived_relations();
        let budget = dd.db.memory_budget().clone();
        let ctx = dd.execution_context().clone();
        let listener = TcpListener::bind(&config.addr)?;

        let mut pending_replay = Vec::new();
        let mut wal_stats = WalStats::default();
        let replication = ReplicationStats::default();
        let mut initial_term = 0u64;
        let wal = match &config.wal_dir {
            Some(dir) => {
                let options = WalOptions {
                    retain_records: config.wal_retain,
                    // A follower's log carries the *primary's* stream id; a
                    // fresh one stays unadopted (0) until the handshake.
                    fresh_stream: config.follow.is_none(),
                    segment_bytes: config.wal_segment_bytes,
                };
                let (mut wal, mut recovery): (Wal, WalRecovery) =
                    Wal::open_with(dir, config.faults.clone(), options)?;
                if recovery.torn_tail {
                    eprintln!(
                        "deepdive serve: WARNING: dropped a torn WAL tail ({} bytes after {} \
                         intact records) — a crash interrupted an unacknowledged append",
                        recovery.torn_bytes,
                        recovery.records.len()
                    );
                }
                if config.follow.is_some() && wal.stream_id() == 0 {
                    // A checkpoint copied from the primary carries the
                    // stream position it was cut at; adopt it so the tail
                    // starts exactly where the seed state ends.
                    if let Some((stream_id, seq, term)) =
                        read_wal_position(config.checkpoint_dir.as_deref())
                    {
                        wal.adopt_stream(stream_id, seq)?;
                        if term > wal.term() {
                            wal.set_term(term)?;
                        }
                        eprintln!(
                            "deepdive serve: follower adopted stream {stream_id:016x} at seq \
                             {seq} (term {term}) from the seed checkpoint"
                        );
                    }
                }
                if recovery.manifest_rebuilt {
                    // The manifest was rebuilt from segment headers, so its
                    // checkpoint mark can be *behind* the truth (the segment
                    // snapshot only moves on rotation). `wal_position.json`
                    // records what the checkpoint actually holds — skip
                    // those records instead of double-applying them, and
                    // restore the persisted term if the headers lost it.
                    eprintln!(
                        "deepdive serve: WARNING: WAL manifest was missing or corrupt; \
                         rebuilt it from segment headers"
                    );
                    if let Some((stream_id, seq, term)) =
                        read_wal_position(config.checkpoint_dir.as_deref())
                    {
                        if stream_id == wal.stream_id() {
                            if term > wal.term() {
                                wal.set_term(term)?;
                            }
                            let through = seq.min(wal.next_seq());
                            if through > recovery.first_pending_seq {
                                let skip = ((through - recovery.first_pending_seq) as usize)
                                    .min(recovery.records.len());
                                recovery.records.drain(..skip);
                                recovery.first_pending_seq = through;
                                wal.mark_checkpointed(through)?;
                                eprintln!(
                                    "deepdive serve: skipped {skip} record(s) already held by \
                                     the checkpoint (wal_position.json says seq {seq})"
                                );
                            }
                        }
                    }
                }
                wal_stats.torn_tail_recovered = recovery.torn_tail;
                wal_stats.torn_bytes = recovery.torn_bytes;
                pending_replay = recovery.records;
                // Until replay finishes, the served state holds exactly the
                // checkpoint: applied = first pending seq.
                replication
                    .applied_seq
                    .store(recovery.first_pending_seq, Ordering::SeqCst);
                replication.observe_watermark(wal.next_seq());
                initial_term = wal.term();
                Some(Mutex::new(wal))
            }
            None => None,
        };

        let lifecycle = if pending_replay.is_empty() {
            Lifecycle::Ready
        } else {
            Lifecycle::Replaying
        };

        Ok(Server {
            listener,
            state: Arc::new(ServeState {
                snapshot: SnapshotCell::new(snapshot),
                writer: Mutex::new(dd),
                metrics: ServeMetrics::default(),
                budget,
                ctx,
                derived,
                page_limit: config.page_limit.max(1),
                started: Instant::now(),
                lifecycle: AtomicU8::new(lifecycle.as_u8()),
                inflight: AtomicUsize::new(0),
                max_inflight: config.max_inflight.max(1),
                ingest_bucket: config
                    .ingest_rate
                    .filter(|r| *r > 0.0)
                    .map(|r| Mutex::new(TokenBucket::new(r))),
                wal,
                wal_stats: Mutex::new(wal_stats),
                wal_dir: config.wal_dir.clone(),
                checkpoint_dir: config.checkpoint_dir.clone(),
                committer: Mutex::new(None),
                linger: config.linger,
                group_commit: GroupCommitStats::default(),
                ckpt_tracker: Mutex::new(CheckpointTracker::default()),
                ckpt_stats: Mutex::new(CheckpointStats::default()),
                checkpoint_full_every: config.checkpoint_full_every,
                faults: config.faults.clone(),
                read_timeout: config.read_timeout,
                write_timeout: config.write_timeout,
                request_deadline: config.request_deadline,
                follow: config.follow.clone(),
                max_lag_epochs: config.max_lag_epochs,
                stream_window: config.stream_window.max(1),
                stopping: AtomicBool::new(false),
                replication,
                subs: SubscriptionRegistry::new(config.max_subscriptions, config.sub_queue_bytes),
                term: AtomicU64::new(initial_term),
                follower: AtomicBool::new(config.follow.is_some()),
                repl_paused: AtomicBool::new(false),
                fenced: Mutex::new(None),
                storage_fatal: Mutex::new(None),
                corrupt: Mutex::new(None),
                scrub: ScrubStats::default(),
            }),
            workers: config.workers.max(1),
            drain: config.drain,
            flush_interval: config.flush_interval,
            scrub_interval: config.scrub_interval,
            pending_replay,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// WAL records recovered at open and pending replay (for the banner).
    pub fn pending_replay(&self) -> usize {
        self.pending_replay.len()
    }

    /// Spawn the accept loop, worker pool, and (when the WAL recovered
    /// records) the replay thread; returns the handle used to reach and
    /// stop them. Readers are served immediately — from the pre-replay
    /// epoch until replay publishes its single swap.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(std::sync::Mutex::new(rx));

        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = rx.clone();
            let state = self.state.clone();
            workers.push(std::thread::spawn(move || loop {
                // Hold the receiver lock only for the dequeue.
                let stream = rx.lock().unwrap_or_else(|p| p.into_inner()).recv();
                match stream {
                    Ok(stream) => {
                        handle_connection(stream, &state);
                        state.inflight.fetch_sub(1, Ordering::SeqCst);
                    }
                    Err(_) => break, // accept loop dropped the sender
                }
            }));
        }

        let accept_shutdown = shutdown.clone();
        let accept_state = self.state.clone();
        let listener = self.listener;
        listener.set_nonblocking(true)?;
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &tx, &accept_state, &accept_shutdown);
            // Dropping `tx` (with `listener`) drains the workers.
        });

        let replay = if self.pending_replay.is_empty() {
            self.state.write_wal_report();
            None
        } else {
            let state = self.state.clone();
            let records = self.pending_replay;
            Some(std::thread::spawn(move || replay_wal(&state, records)))
        };

        // The follower's tailer: waits out local replay itself, then tails
        // the primary until shutdown or a fatal replication error.
        let tailer = self.state.follow.clone().map(|primary| {
            let state = self.state.clone();
            std::thread::spawn(move || replication::run_follower(state, primary))
        });

        // Group committer: the single consumer of `POST /documents`, turning
        // concurrent requests into one WAL fsync per linger window. Every
        // node runs one — a follower's idles until `POST /promote` makes it
        // a primary.
        let (commit_tx, commit_rx) = mpsc::channel::<CommitRequest>();
        *self.state.committer.lock() = Some(commit_tx);
        let state = self.state.clone();
        let committer = Some(std::thread::spawn(move || {
            committer_loop(&state, &commit_rx)
        }));

        // Background flusher: periodic incremental checkpoint + WAL
        // compaction, off the committer thread so neither ever holds up an
        // in-flight ack (and compaction never blocks reads at all — it only
        // takes the wal lock, briefly). Followers flush too: their local
        // checkpoint is what a crash restarts from, what `GET /checkpoint`
        // serves after a promotion, and what bounds their own WAL growth.
        let flusher = (self.state.wal.is_some()
            && self.state.checkpoint_dir.is_some()
            && self.flush_interval > Duration::ZERO)
            .then(|| {
                let state = self.state.clone();
                let interval = self.flush_interval;
                std::thread::spawn(move || flusher_loop(&state, interval))
            });

        // Anti-entropy scrubber: re-verify WAL frame checksums and the
        // checkpoint chain on interval, quarantine + repair what fails.
        let scrubber = (self.scrub_interval > Duration::ZERO).then(|| {
            let state = self.state.clone();
            let interval = self.scrub_interval;
            std::thread::spawn(move || scrubber_loop(&state, interval))
        });

        Ok(ServerHandle {
            addr,
            state: self.state,
            shutdown,
            workers,
            accept: Some(accept),
            replay,
            tailer,
            committer,
            flusher,
            scrubber,
            drain: self.drain,
        })
    }
}

/// Largest batch one group commit will take — past this the committer
/// commits immediately rather than lingering (bounds both ack latency under
/// saturation and the size of a rollback should a batch-mate fail to apply).
const MAX_COMMIT_BATCH: usize = 256;

/// The committer thread: park on the channel, gather one linger window's
/// worth of requests, commit them as a unit. Exits when every sender is
/// gone (shutdown drops the one in `ServeState` after the workers drain);
/// a blocking `recv` still yields all queued requests first, so nothing
/// enqueued is ever abandoned.
fn committer_loop(state: &ServeState, rx: &mpsc::Receiver<CommitRequest>) {
    loop {
        let first = match rx.recv() {
            Ok(req) => req,
            Err(_) => break,
        };
        let mut batch = vec![first];
        let deadline = Instant::now() + state.linger;
        while batch.len() < MAX_COMMIT_BATCH {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(req) => batch.push(req),
                Err(_) => break,
            }
        }
        commit_batch(state, batch);
    }
}

/// Commit one batch through [`ServeState::apply_batch`] and answer every
/// request — 200 only after both its batch's fsync and its own apply
/// succeeded, exactly the per-request ack semantics, amortized.
fn commit_batch(state: &ServeState, batch: Vec<CommitRequest>) {
    let bodies: Vec<&[u8]> = batch.iter().map(|req| req.body.as_slice()).collect();
    let outcome = state.apply_batch(Origin::Client, &bodies);
    let (wal_records, wal_bytes) = state.wal_gauges();
    for (req, record) in batch.iter().zip(outcome.records) {
        let resp = match record {
            Outcome::Applied { inserted, delta } => Response::json(
                200,
                &json!({
                    "epoch": outcome.epoch,
                    "fingerprint": format!("{:016x}", outcome.fingerprint),
                    "inserted": inserted,
                    "durable": state.wal.is_some(),
                    "wal_records": wal_records,
                    "wal_bytes": wal_bytes,
                    "delta": json!({
                        "added_variables": delta.added_variables,
                        "removed_variables": delta.removed_variables,
                        "added_factors": delta.added_factors,
                        "removed_factors": delta.removed_factors,
                        "evidence_changes": delta.evidence_changes,
                        "total": delta.total(),
                    }),
                    "refresh_samples": REFRESH_SAMPLES,
                }),
            ),
            Outcome::Invalid(resp) => resp,
            Outcome::Refused(e) => Response::error(500, &format!("ingest not applied: {e}")),
            Outcome::NotDurable(msg) => Response::error(500, &msg),
        };
        let _ = req.reply.send(resp);
    }
}

/// The background flusher: every `interval`, checkpoint pending WAL records
/// incrementally and compact checkpointed segments past the retention
/// horizon. Runs on its own thread — an in-flight flush or compaction never
/// sits between a request and its ack, and `/readyz` never leaves `Ready`
/// for either.
fn flusher_loop(state: &ServeState, interval: Duration) {
    let mut last = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if state.stop_requested() {
            break;
        }
        if last.elapsed() < interval || state.lifecycle() != Lifecycle::Ready {
            continue;
        }
        last = Instant::now();
        if state.faults.trips(points::WAL_COMPACT_STALL) {
            // Deterministically widen the in-flight window so tests can
            // watch `/readyz` hold steady across a slow flush cycle.
            std::thread::sleep(Duration::from_millis(200));
        }
        if state.wal_gauges().0 > 0 {
            if let Err(e) = state.flush_checkpoint() {
                eprintln!(
                    "deepdive serve: WARNING: periodic checkpoint flush failed ({e}); \
                     keeping the WAL for the next attempt"
                );
                continue;
            }
        }
        if let Some(wal) = &state.wal {
            if let Err(e) = wal.lock().compact() {
                eprintln!("deepdive serve: WARNING: WAL compaction failed: {e}");
            }
        }
    }
}

/// The anti-entropy scrubber thread: every `interval`, run one scrub pass
/// (WAL frame checksums, checkpoint chain hashes, cross-node fingerprint).
fn scrubber_loop(state: &ServeState, interval: Duration) {
    let mut last = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(25));
        if state.stop_requested() {
            break;
        }
        if last.elapsed() < interval || state.lifecycle() != Lifecycle::Ready {
            continue;
        }
        last = Instant::now();
        scrub_once(state);
    }
}

/// One scrub pass: re-verify every WAL frame checksum (fresh reads, not
/// cached state), re-verify the whole checkpoint chain, repair what fails
/// (from the primary for a follower, from a fresh flush for a primary),
/// and — on a caught-up follower — compare served fingerprints with the
/// primary to catch silent divergence no checksum can see.
fn scrub_once(state: &ServeState) {
    state.scrub.runs.fetch_add(1, Ordering::SeqCst);
    if state.corrupt_reason().is_some() {
        // Already degraded; nothing more a scrub can do.
        return;
    }

    // 1. WAL: every frame, every segment, read back from disk.
    if let Some(wal) = state.wal_handle() {
        let verified = wal.lock().verify();
        if let Err(e) = verified {
            state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
            eprintln!("deepdive serve: scrub: WAL corruption: {e}");
            repair_wal(state, &e);
        }
    }

    // 2. Checkpoint chain: every artifact against its manifest hash, every
    // delta against the chain.
    if let Some(dir) = state.checkpoint_dir() {
        if dir.join("MANIFEST.tsv").exists() {
            let verified =
                Checkpoint::new(dir.to_path_buf()).and_then(|ckpt| ckpt.verify().map(|_| ()));
            if let Err(e) = verified {
                state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
                eprintln!("deepdive serve: scrub: checkpoint corruption: {e}");
                let file = match &e {
                    deepdive_core::CheckpointError::Corrupt { file, .. } => Some(file.clone()),
                    _ => None,
                };
                repair_checkpoint(state, file.as_deref(), &e.to_string());
            }
        }
    }

    // 3. Cross-node anti-entropy: a caught-up follower compares its served
    // (epoch, fingerprint) with the primary's. Checksums catch bit-rot;
    // this catches state divergence with intact checksums. A node that has
    // ever resynced from a checkpoint bundle is excluded: the resync
    // re-based its epoch counter, so an epoch collision with the primary
    // no longer implies comparable histories.
    if state.is_follower() && !state.replication.diverged.load(Ordering::SeqCst) {
        if let Some(primary) = &state.follow {
            if state.replication.connected.load(Ordering::SeqCst)
                && state.replication.lag_epochs() == 0
                && state.replication.resyncs.load(Ordering::SeqCst) == 0
            {
                scrub_fingerprint(state, primary);
            }
        }
    }
}

/// Compare this follower's `(epoch, fingerprint)` with the primary's; a
/// different fingerprint at the *same* epoch is divergence — mark it fatal
/// exactly as a refused record would be.
fn scrub_fingerprint(state: &ServeState, primary: &str) {
    let Ok((200, body)) = replication::http_request_json("GET", primary, "/healthz") else {
        return; // primary unreachable or unhealthy: the tailer's problem
    };
    let snap = state.snapshot.load();
    let (Some(p_epoch), Some(p_fp)) = (
        body.get("epoch").and_then(Json::as_u64),
        body.get("fingerprint").and_then(Json::as_str),
    ) else {
        return;
    };
    let ours = format!("{:016x}", snap.fingerprint);
    // Only a stable comparison counts: same epoch before *and* after, so a
    // concurrent ingest cannot fake a mismatch.
    if p_epoch == snap.epoch && p_fp != ours && state.snapshot.load().epoch == snap.epoch {
        state.scrub.corrupt_found.fetch_add(1, Ordering::SeqCst);
        state.replication.set_fatal(
            true,
            format!(
                "scrub: fingerprint mismatch at epoch {p_epoch} (ours {ours}, \
                 primary {p_fp}): silent divergence — re-seed this follower"
            ),
        );
    }
}

/// Repair a corrupt WAL. A follower re-seeds from the primary's checkpoint
/// (peer repair); a primary's applied state is intact in memory, so it
/// flushes a fresh checkpoint and rewrites the log empty at the same
/// stream and term (followers that still needed the dropped records get
/// 410 → resync). When neither works the node degrades to read-only.
fn repair_wal(state: &ServeState, err: &io::Error) {
    if state.is_follower() {
        if let Some(primary) = state.follow.clone() {
            match state.resync_from_primary(&primary) {
                Ok(_) => {
                    state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
                    state.replication.resyncs.fetch_add(1, Ordering::SeqCst);
                    eprintln!("deepdive serve: scrub: WAL repaired from the primary");
                    return;
                }
                Err(re) => {
                    eprintln!("deepdive serve: scrub: peer repair failed: {re}")
                }
            }
        }
        state.set_corrupt(format!("WAL corrupt and peer repair failed: {err}"));
        return;
    }
    let repaired = state.flush_checkpoint().and_then(|()| {
        let wal = state.wal_handle().expect("repair runs only with a WAL");
        let mut w = wal.lock();
        let (stream, next, term) = (w.stream_id(), w.next_seq(), w.term());
        w.reset_stream(stream, next, term)
    });
    match repaired {
        Ok(()) => {
            state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "deepdive serve: scrub: WAL repaired — state checkpointed and the \
                 log rewritten clean"
            );
        }
        Err(re) => state.set_corrupt(format!("WAL corrupt ({err}) and local repair failed: {re}")),
    }
}

/// Repair a corrupt checkpoint: quarantine the named artifact (rename to
/// `<file>.quarantine` so nothing ever loads it again), then rebuild — a
/// follower fetches the primary's bundle, a primary rewrites the full
/// checkpoint from its live state.
fn repair_checkpoint(state: &ServeState, file: Option<&str>, reason: &str) {
    if let (Some(dir), Some(file)) = (state.checkpoint_dir(), file) {
        let bad = dir.join(file);
        if bad.exists() {
            match std::fs::rename(&bad, dir.join(format!("{file}.quarantine"))) {
                Ok(()) => eprintln!("deepdive serve: scrub: quarantined {file}"),
                Err(e) => eprintln!("deepdive serve: scrub: could not quarantine {file}: {e}"),
            }
        }
    }
    if state.is_follower() {
        if let Some(primary) = state.follow.clone() {
            match state.resync_from_primary(&primary) {
                Ok(_) => {
                    state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
                    state.replication.resyncs.fetch_add(1, Ordering::SeqCst);
                    eprintln!("deepdive serve: scrub: checkpoint repaired from the primary");
                    return;
                }
                Err(re) => eprintln!("deepdive serve: scrub: peer repair failed: {re}"),
            }
        }
        state.set_corrupt(format!(
            "checkpoint corrupt and peer repair failed: {reason}"
        ));
        return;
    }
    // Primary: the served state is the source of truth; force the next
    // flush to be a full rewrite and take it now.
    *state.ckpt_tracker.lock() = CheckpointTracker::default();
    match state.flush_checkpoint() {
        Ok(()) => {
            state.scrub.repaired.fetch_add(1, Ordering::SeqCst);
            eprintln!("deepdive serve: scrub: checkpoint repaired by a full rewrite");
        }
        Err(re) => state.set_corrupt(format!(
            "checkpoint corrupt ({reason}) and rewrite failed: {re}"
        )),
    }
}

/// Read the `wal_position.json` a checkpoint flush leaves beside the
/// checkpoint: `(stream_id, seq, term)`. Absent or unreadable simply means
/// "no recorded position" (e.g. a pre-replication checkpoint); a position
/// written before terms existed reads as term 0.
fn read_wal_position(dir: Option<&std::path::Path>) -> Option<(u64, u64, u64)> {
    let text = std::fs::read_to_string(dir?.join("wal_position.json")).ok()?;
    let v: Json = serde_json::from_str(&text).ok()?;
    let stream_id = u64::from_str_radix(v.get("stream_id")?.as_str()?, 16).ok()?;
    let seq = v.get("seq")?.as_u64()?;
    let term = v.get("term").and_then(Json::as_u64).unwrap_or(0);
    (stream_id != 0).then_some((stream_id, seq, term))
}

/// Nonblocking accept + admission control: beyond `max_inflight` admitted
/// connections (or during drain) the connection is answered `503` with
/// `Retry-After` and closed — bounded queueing with explicit load-shedding
/// instead of an unbounded backlog that falls over.
fn accept_loop(
    listener: &TcpListener,
    tx: &mpsc::Sender<TcpStream>,
    state: &ServeState,
    shutdown: &AtomicBool,
) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if state.lifecycle() == Lifecycle::Draining {
                    shed(stream, state, "draining for shutdown");
                    continue;
                }
                // Admit up front so the gauge covers queued + in-flight.
                let admitted = state.inflight.fetch_add(1, Ordering::SeqCst);
                if admitted >= state.max_inflight {
                    state.inflight.fetch_sub(1, Ordering::SeqCst);
                    shed(stream, state, "admission queue full");
                    continue;
                }
                if tx.send(stream).is_err() {
                    state.inflight.fetch_sub(1, Ordering::SeqCst);
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Answer a shed connection `503 + Retry-After` without parsing anything;
/// the write is bounded by a short timeout so a dead peer cannot stall the
/// accept loop.
fn shed(mut stream: TcpStream, state: &ServeState, why: &str) {
    state.metrics.record_shed();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = Response::error(503, why)
        .with_retry_after(jittered_retry_secs(1))
        .write_to(&mut stream);
}

/// Replay recovered WAL records as one batch through the write path a live
/// `POST /documents` takes, publishing one snapshot swap. Readers keep the
/// pre-replay epoch until that swap; `/readyz` flips to 200 after it. A
/// successful checkpoint flush then truncates the WAL.
fn replay_wal(state: &ServeState, records: Vec<Vec<u8>>) {
    if state.faults.trips(points::WAL_REPLAY_STALL) {
        // Deterministically widen the not-ready window so tests can observe
        // readers during replay.
        std::thread::sleep(Duration::from_millis(50) * records.len() as u32);
    }
    let bodies: Vec<&[u8]> = records.iter().map(Vec::as_slice).collect();
    let outcome = state.apply_batch(Origin::Replay, &bodies);
    let mut skipped = 0u64;
    for (i, record) in outcome.records.iter().enumerate() {
        let why = match record {
            Outcome::Applied { .. } => continue,
            Outcome::Invalid(resp) => format!("failed validation and was skipped: {}", resp.body),
            Outcome::Refused(e) | Outcome::NotDurable(e) => {
                format!("failed to apply and was skipped: {e}")
            }
        };
        eprintln!("deepdive serve: WARNING: WAL record {} {why}", i + 1);
        skipped += 1;
    }
    let replayed = records.len() as u64 - skipped;
    {
        let mut stats = state.wal_stats.lock();
        stats.replayed_records = replayed;
        stats.replay_skipped = skipped;
    }
    if skipped > 0 && state.is_follower() {
        // A primary may carry operator-injected bad records; a follower's
        // log holds only records the primary applied, so one that cannot
        // apply here is a fork, not noise.
        state.replication.set_fatal(
            true,
            format!("{skipped} locally-durable replicated record(s) failed to re-apply"),
        );
    }
    // The replayed state is as durable as the checkpoint we can flush; only
    // a successful flush may truncate the log.
    if let Err(e) = state.flush_checkpoint() {
        eprintln!(
            "deepdive serve: WARNING: post-replay checkpoint flush failed ({e}); \
             keeping the WAL for the next restart"
        );
    }
    if !state.lifecycle_cas(Lifecycle::Replaying, Lifecycle::Ready) {
        eprintln!("deepdive serve: WAL replay finished during shutdown; staying not-ready");
    }
    state.write_wal_report();
    eprintln!("deepdive serve: WAL replay complete: {replayed} records applied, {skipped} skipped");
}

/// Handle to a running server: address, shared state, clean shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
    replay: Option<JoinHandle<()>>,
    tailer: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    flusher: Option<JoinHandle<()>>,
    scrubber: Option<JoinHandle<()>>,
    drain: Duration,
}

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone, Copy)]
pub struct DrainSummary {
    /// In-flight requests left when the drain budget expired (0 = clean).
    pub stragglers: usize,
    /// Whether the final checkpoint (and WAL truncation) succeeded.
    pub checkpoint_flushed: bool,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> Arc<ServeState> {
        self.state.clone()
    }

    /// Graceful shutdown: stop accepting (new connections are shed with
    /// 503 while the listener lives, refused once it closes), drain
    /// in-flight requests up to the drain budget, flush a final checkpoint,
    /// truncate the WAL, and join every thread that finished in time.
    pub fn graceful_shutdown(mut self) -> io::Result<DrainSummary> {
        self.state.set_lifecycle(Lifecycle::Draining);
        // Stop replication first: `GET /wal` streamers end their chunked
        // bodies cleanly, and the follower's tailer (which would otherwise
        // reconnect forever) winds down. Subscription streamers end their
        // bodies the same way once the registry closes and wakes them.
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.subs.close_all();
        if let Some(tailer) = self.tailer.take() {
            let _ = tailer.join();
        }
        // Let the replay finish first — it holds the writer lock and is
        // finite; the final checkpoint needs its result anyway.
        if let Some(replay) = self.replay.take() {
            let _ = replay.join();
        }
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }

        // Drain: wait for admitted connections to finish, bounded by the
        // drain budget (socket deadlines bound each one individually).
        let deadline = Instant::now() + self.drain;
        while self.state.queue_depth() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stragglers = self.state.queue_depth();
        if stragglers == 0 {
            // The accept loop dropped the sender; workers drain the queue
            // and exit.
            for t in self.workers.drain(..) {
                let _ = t.join();
            }
        } else {
            eprintln!(
                "deepdive serve: drain budget expired with {stragglers} request(s) still \
                 in flight; detaching workers"
            );
            self.workers.clear();
        }

        // The committer outlives the workers — an in-flight POST may be
        // parked on its reply channel. Once they are gone, dropping the
        // stored sender disconnects the channel and the committer exits
        // after draining anything still queued. A detached straggler may
        // hold a sender clone, so only join when the drain was clean.
        *self.state.committer.lock() = None;
        if let Some(committer) = self.committer.take() {
            if stragglers == 0 {
                let _ = committer.join();
            }
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        if let Some(scrubber) = self.scrubber.take() {
            let _ = scrubber.join();
        }

        let checkpoint_flushed = match self.state.flush_checkpoint() {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "deepdive serve: WARNING: final checkpoint flush failed ({e}); \
                     keeping the WAL"
                );
                false
            }
        };
        self.state.write_wal_report();
        Ok(DrainSummary {
            stragglers,
            checkpoint_flushed,
        })
    }

    /// Stop accepting, drain in-flight requests, flush the final
    /// checkpoint, join every thread. (The graceful path; chaos tests use
    /// [`ServerHandle::abort`] for the crash path.)
    pub fn shutdown(self) {
        let _ = self.graceful_shutdown();
    }

    /// Simulated `kill -9`: tear the server down with *no* drain, *no*
    /// final checkpoint, and *no* WAL truncation — exactly the state a
    /// crash leaves on disk. Chaos tests restart from the checkpoint + WAL
    /// this leaves behind and assert replay recovers every acknowledged
    /// ingest.
    pub fn abort(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.state.stopping.store(true, Ordering::SeqCst);
        self.state.subs.close_all();
        if let Some(tailer) = self.tailer.take() {
            let _ = tailer.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(replay) = self.replay.take() {
            let _ = replay.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        *self.state.committer.lock() = None;
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        if let Some(scrubber) = self.scrubber.take() {
            let _ = scrubber.join();
        }
    }

    /// Serve until `stop` flips true (the CLI sets it from SIGTERM/SIGINT),
    /// replication fails permanently, or durable storage fails (the CLI
    /// inspects [`ReplicationStats::fatal_error`] /
    /// [`ServeState::storage_fatal_error`] afterwards and exits nonzero),
    /// then drain gracefully.
    pub fn run_until(self, stop: &AtomicBool) -> io::Result<DrainSummary> {
        while !stop.load(Ordering::SeqCst) {
            if self.state.replication.fatal_error().is_some()
                || self.state.storage_fatal_error().is_some()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        self.graceful_shutdown()
    }

    /// Block until every serving thread exits (a daemon that runs forever).
    pub fn join(mut self) {
        if let Some(replay) = self.replay.take() {
            let _ = replay.join();
        }
        if let Some(tailer) = self.tailer.take() {
            let _ = tailer.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        *self.state.committer.lock() = None;
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        if let Some(flusher) = self.flusher.take() {
            let _ = flusher.join();
        }
        if let Some(scrubber) = self.scrubber.take() {
            let _ = scrubber.join();
        }
    }
}

fn handle_connection(stream: TcpStream, state: &ServeState) {
    // A silent peer must not pin a worker: every read and write syscall is
    // bounded, and the whole request must arrive within the deadline.
    let _ = stream.set_read_timeout(Some(state.read_timeout));
    let _ = stream.set_write_timeout(Some(state.write_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut write_half = stream;
    let limits = ParseLimits {
        max_body: crate::http::MAX_BODY_BYTES,
        deadline: Some(Instant::now() + state.request_deadline),
    };
    match Request::parse_with(&mut reader, &limits) {
        Ok(req) => {
            let start = Instant::now();
            // A handler panic must cost one connection, not one worker: the
            // dispatch below runs under `catch_unwind`, and an unwound
            // request is answered 500 (best-effort — a stream that already
            // wrote its header just drops) and counted in `/metrics`.
            // `GET /wal` and `POST /subscriptions` own the socket: they
            // write unbounded chunked streams, which the Response type (one
            // buffered body) cannot express.
            if req.method == "GET" && req.path == "/wal" {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    replication::serve_wal_stream(&req, &mut write_half, state)
                }));
                let ok = outcome.unwrap_or_else(|_| {
                    state.metrics.record_panic();
                    false
                });
                state.metrics.record("wal", start.elapsed(), ok);
                return;
            }
            if req.method == "POST" && req.path == "/subscriptions" {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    post_subscriptions(&req, &mut write_half, state)
                }));
                let ok = outcome.unwrap_or_else(|_| {
                    state.metrics.record_panic();
                    let _ = Response::error(500, "handler panicked; the worker survived")
                        .write_to(&mut write_half);
                    false
                });
                state.metrics.record("subscriptions", start.elapsed(), ok);
                return;
            }
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&req, state)));
            let (endpoint, response) = match outcome {
                Ok(routed) => routed,
                Err(_) => {
                    state.metrics.record_panic();
                    (
                        "other",
                        Response::error(500, "handler panicked; the worker survived"),
                    )
                }
            };
            state
                .metrics
                .record(endpoint, start.elapsed(), response.status < 400);
            let _ = response.write_to(&mut write_half);
        }
        Err(ParseError::Bad { status, message }) => {
            if status == 408 {
                state.metrics.record_timeout();
            }
            let _ = Response::error(status, &message).write_to(&mut write_half);
        }
        Err(ParseError::Io(_)) => {}
    }
}

fn route(req: &Request, state: &ServeState) -> (&'static str, Response) {
    if state.faults.trips(points::SERVE_HANDLER_PANIC) {
        // The regression stand-in for any latent handler bug: prove the
        // worker catches the unwind, answers 500, and keeps serving.
        panic!("armed serve_handler_panic fault point");
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => ("healthz", healthz(state)),
        ("GET", "/readyz") => ("readyz", readyz(state)),
        ("GET", "/metrics") => ("metrics", metrics(state)),
        ("POST", "/documents") if state.is_follower() => (
            "documents",
            // RFC 7231 §6.5.5: a 405 names the methods that *are* allowed;
            // the forwarding hint tells the client where writes do land.
            Response::error(
                405,
                "this node is a read-only replica; POST /documents to the primary",
            )
            .with_header("Allow", "GET, HEAD")
            .with_header("X-DD-Primary", state.follow.clone().unwrap_or_default()),
        ),
        ("POST", "/documents") => ("documents", post_documents(req, state)),
        ("POST", "/promote") => ("promote", post_promote(req, state)),
        (_, "/promote") => (
            "other",
            Response::error(405, "use POST").with_header("Allow", "POST"),
        ),
        ("GET", "/checkpoint") => ("checkpoint", get_checkpoint_bundle(state)),
        (_, "/checkpoint") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        (_, "/healthz" | "/readyz" | "/metrics") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        (_, "/documents") => (
            "other",
            Response::error(405, "use POST").with_header("Allow", "POST"),
        ),
        // `GET /wal` is intercepted in `handle_connection` (it streams);
        // any other method on it lands here.
        (_, "/wal") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        // `POST /subscriptions` is likewise intercepted (stream mode owns
        // the socket); the cursor/list/cancel forms are plain responses.
        ("GET", "/subscriptions") => (
            "subscriptions",
            Response::json(200, &state.subs.list_json()),
        ),
        (_, "/subscriptions") => (
            "other",
            Response::error(405, "use POST to subscribe, GET to list")
                .with_header("Allow", "GET, POST"),
        ),
        ("GET", path) => {
            if let Some(name) = path.strip_prefix("/relations/") {
                ("relations", get_relation(req, name, state))
            } else if let Some(name) = path.strip_prefix("/marginals/") {
                ("marginals", get_marginals(req, name, state))
            } else if let Some(id) = path.strip_prefix("/subscriptions/") {
                ("subscriptions", poll_subscription(req, id, state))
            } else {
                ("other", Response::error(404, "no such route"))
            }
        }
        ("DELETE", path) => {
            if let Some(id) = path.strip_prefix("/subscriptions/") {
                (
                    "subscriptions",
                    if state.subs.remove(id) {
                        Response::json(200, &json!({ "removed": id }))
                    } else {
                        Response::error(404, &format!("no subscription `{id}`"))
                    },
                )
            } else {
                ("other", Response::error(404, "no such route"))
            }
        }
        (_, path) if path.starts_with("/subscriptions/") => (
            "other",
            Response::error(405, "use GET to poll, DELETE to cancel")
                .with_header("Allow", "GET, DELETE"),
        ),
        (_, path) if path.starts_with("/relations/") || path.starts_with("/marginals/") => (
            "other",
            Response::error(405, "use GET").with_header("Allow", "GET"),
        ),
        _ => ("other", Response::error(404, "no such route")),
    }
}

/// `POST /promote`: atomically flip this caught-up follower to primary
/// under a new, strictly higher term. Idempotent on a node that is already
/// primary. Refuses (409) a diverged follower, or one that still trails
/// the last known primary head — unless `?force=1` accepts losing the
/// unfetched records.
///
/// The flip is fencing-safe: the new term is persisted in the WAL manifest
/// *before* the role flips, so the deposed primary — should it come back —
/// sees the higher term in the very first handshake and fences itself.
fn post_promote(req: &Request, state: &ServeState) -> Response {
    let force = matches!(req.query_param("force"), Some("1") | Some("true"));
    if !state.is_follower() {
        return Response::json(
            200,
            &json!({
                "promoted": false,
                "role": "primary",
                "term": state.term(),
                "note": "already primary",
            }),
        );
    }
    if state.lifecycle() != Lifecycle::Ready {
        return Response::error(503, "cannot promote: node is not ready")
            .with_retry_after(jittered_retry_secs(1));
    }
    let repl = state.replication();
    if repl.diverged.load(Ordering::SeqCst) || repl.fatal_error().is_some() {
        return Response::error(
            409,
            "cannot promote a diverged follower; re-seed it from a fresh checkpoint first",
        );
    }
    let Some(wal) = &state.wal else {
        return Response::error(400, "promote requires a WAL (--wal-dir)");
    };

    // Park the tailer and wait for it to let go of the stream; records it
    // already fetched are applied before it pauses, so `applied_seq` is
    // final once `connected` drops.
    state.repl_paused.store(true, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_secs(10);
    while repl.connected.load(Ordering::SeqCst) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    if repl.connected.load(Ordering::SeqCst) {
        state.repl_paused.store(false, Ordering::SeqCst);
        return Response::error(
            503,
            "cannot promote: the tailer did not release the stream in time",
        )
        .with_retry_after(jittered_retry_secs(1));
    }

    let new_term;
    {
        // The writer lock orders the flip against any in-flight apply.
        let _dd = state.writer.lock();
        let lag = repl.lag_epochs();
        if lag > 0 && !force {
            state.repl_paused.store(false, Ordering::SeqCst);
            return Response::error(
                409,
                &format!(
                    "cannot promote: this follower trails the last known primary head \
                     by {lag} record(s); let it catch up, or pass ?force=1 to accept \
                     losing them"
                ),
            );
        }
        let mut w = wal.lock();
        new_term = w.term() + 1;
        if let Err(e) = w.set_term(new_term) {
            state.repl_paused.store(false, Ordering::SeqCst);
            return Response::error(
                500,
                &format!("cannot promote: persisting term {new_term} failed: {e}"),
            );
        }
        state.term.store(new_term, Ordering::SeqCst);
        state.follower.store(false, Ordering::SeqCst);
        // A forced promotion abandons the unfetched records; the books
        // must not report them as lag forever.
        let applied = repl.applied_seq.load(Ordering::SeqCst);
        repl.watermark_seq.store(applied, Ordering::SeqCst);
    }
    eprintln!("deepdive serve: promoted to primary at term {new_term}");
    // Record the new term in wal_position.json (best effort — the term is
    // already durable in the WAL manifest).
    if let Err(e) = state.flush_checkpoint() {
        eprintln!("deepdive serve: WARNING: post-promote checkpoint flush failed ({e})");
    }
    let snap = state.snapshot.load();
    Response::json(
        200,
        &json!({
            "promoted": true,
            "role": "primary",
            "term": new_term,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "wal_offset": state.replication().applied_seq.load(Ordering::SeqCst),
        }),
    )
}

/// `GET /checkpoint`: the node's current checkpoint directory as a
/// hash-framed bundle (see [`replication::fetch_checkpoint_bundle`] for
/// the frame format). Flushes first so the bundle is current through every
/// applied record. This is what a 410'd follower resyncs from.
fn get_checkpoint_bundle(state: &ServeState) -> Response {
    let Some(dir) = state.checkpoint_dir().map(|d| d.to_path_buf()) else {
        return Response::error(404, "this node keeps no checkpoint (no checkpoint dir)");
    };
    if state.lifecycle() != Lifecycle::Ready {
        return Response::error(503, "not ready").with_retry_after(jittered_retry_secs(1));
    }
    if let Some(why) = state.write_block_reason() {
        // A fenced or corrupt node must not seed peers from suspect state.
        return Response::error(503, &format!("refusing to serve a checkpoint: {why}"));
    }
    if let Err(e) = state.flush_checkpoint() {
        return Response::error(500, &format!("checkpoint flush failed: {e}"));
    }
    // Hold the writer lock while reading: a flush holds it too, so no
    // half-written chain can be bundled.
    let _dd = state.writer.lock();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => return Response::error(500, &format!("cannot read checkpoint dir: {e}")),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| !n.starts_with('.') && !n.ends_with(".tmp") && !n.ends_with(".quarantine"))
        .collect();
    names.sort();
    let mut body = String::new();
    for name in &names {
        let content = match std::fs::read_to_string(dir.join(name)) {
            Ok(c) => c,
            Err(e) => {
                return Response::error(500, &format!("cannot read checkpoint file {name}: {e}"))
            }
        };
        let hash = deepdive_core::checkpoint::fnv1a64(content.as_bytes());
        body.push_str(&format!("FILE {name} {} {hash:016x}\n", content.len()));
        body.push_str(&content);
        body.push('\n');
    }
    body.push_str("END\n");
    Response::octet(200, body)
        .with_header("X-DD-Term", state.term().to_string())
        .with_header("X-DD-Files", names.len().to_string())
}

fn healthz(state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    Response::json(
        200,
        &json!({
            "status": "ok",
            "lifecycle": state.lifecycle().as_str(),
            "role": state.role_str(),
            "term": state.term(),
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "wal_offset": state.replication().applied_seq.load(Ordering::SeqCst),
            "uptime_secs": state.started.elapsed().as_secs_f64(),
            "relations": snap.db.len(),
            "total_rows": snap.db.total_rows(),
            "marginal_rows": snap.total_marginals(),
        }),
    )
}

/// Readiness, distinct from liveness: 503 while the WAL is replaying
/// (readers would see the pre-replay epoch) and while draining (new work
/// belongs elsewhere). Load balancers route on this; `/healthz` answers
/// "is the process alive" and stays 200 throughout.
///
/// A follower additionally gates on replication: 503 while it has never
/// completed a handshake ("syncing"), when its history diverged from the
/// primary ("diverged" — permanent until re-seeded), or while its epoch
/// lag exceeds `--max-lag-epochs` ("lagging" — clears when it catches up).
fn readyz(state: &ServeState) -> Response {
    let lifecycle = state.lifecycle();
    let snap = state.snapshot.load();
    let mut not_ready: Option<&str> = match lifecycle {
        Lifecycle::Ready => None,
        Lifecycle::Replaying | Lifecycle::Draining => Some(lifecycle.as_str()),
    };
    let repl = state.replication();
    let replication = state.is_follower().then(|| {
        json!({
            "lag_epochs": repl.lag_epochs(),
            "max_lag_epochs": state.max_lag_epochs(),
            "connected": repl.connected.load(Ordering::SeqCst),
            "handshook": repl.handshook.load(Ordering::SeqCst),
            "diverged": repl.diverged.load(Ordering::SeqCst),
        })
    });
    // Self-healing storage gates, in severity order: unrepaired corruption
    // beats fencing beats a dead disk — all three make this node a bad
    // routing target for anything but last-resort reads.
    let mut detail: Option<String> = None;
    if not_ready.is_none() {
        if let Some(why) = state.corrupt_reason() {
            not_ready = Some("corrupt");
            detail = Some(why);
        } else if let Some(why) = state.fenced_reason() {
            not_ready = Some("fenced");
            detail = Some(why);
        } else if let Some(why) = state.storage_fatal_error() {
            not_ready = Some("storage_failed");
            detail = Some(why);
        }
    }
    if not_ready.is_none() && state.is_follower() {
        not_ready = if repl.fatal_error().is_some() {
            Some("diverged")
        } else if !repl.handshook.load(Ordering::SeqCst) {
            Some("syncing")
        } else if repl.lag_epochs() > state.max_lag_epochs() {
            Some("lagging")
        } else {
            None
        };
    }
    let mut body = Map::new();
    body.insert("status".into(), json!(not_ready.unwrap_or("ready")));
    body.insert("role".into(), json!(state.role_str()));
    body.insert("term".into(), json!(state.term()));
    body.insert("epoch".into(), json!(snap.epoch));
    body.insert(
        "wal_offset".into(),
        json!(repl.applied_seq.load(Ordering::SeqCst)),
    );
    if let Some(detail) = detail {
        body.insert("detail".into(), json!(detail));
    }
    if let Some(replication) = replication {
        body.insert("replication".into(), replication);
    }
    let body = Json::Object(body);
    match not_ready {
        None => Response::json(200, &body),
        Some(_) => Response::json(503, &body).with_retry_after(jittered_retry_secs(1)),
    }
}

fn metrics(state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    let mut phases = Map::new();
    for (phase, s) in state.ctx.metrics.snapshot() {
        phases.insert(
            phase,
            json!({
                "wall_secs": s.wall.as_secs_f64(),
                "items": s.items,
                "items_per_sec": s.throughput(),
            }),
        );
    }
    let (wal_records, wal_bytes) = state.wal_gauges();
    let wal_stats = state.wal_stats.lock().clone();
    // Stream geometry for operators watching replication: where the log
    // starts (compaction floor), ends, and is checkpointed through — plus
    // the segment layout compaction works in.
    let (wal_stream, wal_segments, wal_segment_bytes, wal_compactions) = match &state.wal {
        Some(wal) => {
            let wal = wal.lock();
            (
                Some(json!({
                    "stream_id": format!("{:016x}", wal.stream_id()),
                    "base_seq": wal.base_seq(),
                    "next_seq": wal.next_seq(),
                    "checkpoint_seq": wal.checkpoint_seq(),
                    "physical_records": wal.physical_records(),
                })),
                wal.segments() as u64,
                wal.segment_target(),
                wal.compactions(),
            )
        }
        None => (None, 0, 0, 0),
    };
    let ck = state.ckpt_stats.lock().clone();
    Response::json(
        200,
        &json!({
            "epoch": snap.epoch,
            "lifecycle": state.lifecycle().as_str(),
            "requests": state.metrics.to_json(),
            "admission": json!({
                "queue_depth": state.queue_depth(),
                "max_inflight": state.max_inflight,
                "shed_total": state.metrics.shed_total(),
                "rate_limited_total": state.metrics.rate_limited_total(),
                "timeout_total": state.metrics.timeout_total(),
                "panic_total": state.metrics.panic_total(),
            }),
            "subscriptions": {
                let g = state.subs.gauges();
                json!({
                    "active": g.active,
                    "max": g.max,
                    "frames_routed": g.frames_routed,
                    "sheds": g.sheds,
                })
            },
            "wal": json!({
                "enabled": state.wal.is_some(),
                "records": wal_records,
                "bytes": wal_bytes,
                "torn_tail_recovered": wal_stats.torn_tail_recovered,
                "replayed_records": wal_stats.replayed_records,
                "replay_skipped": wal_stats.replay_skipped,
                "stream": wal_stream,
                "segments": wal_segments,
                "segment_bytes": wal_segment_bytes,
                "compactions": wal_compactions,
                "group_commit": state.group_commit_json(),
            }),
            "checkpoint": json!({
                "enabled": state.checkpoint_dir.is_some(),
                "flushes": ck.flushes,
                "full_rewrites": ck.full_rewrites,
                "incremental": json!({
                    "artifacts_written": ck.artifacts_written,
                    "artifacts_skipped": ck.artifacts_skipped,
                    "chain_len": ck.chain_len,
                }),
            }),
            "replication": state.replication().to_json(state.is_follower()),
            "term": state.term(),
            "scrub": state.scrub_json(),
            "storage": json!({
                "resident_bytes": state.budget.resident(),
                "peak_resident_bytes": state.budget.peak_resident(),
                "memory_budget_bytes": state.budget.limit(),
            }),
            "execution": json!({
                "threads": state.ctx.threads(),
                "partitions": state.ctx.partitions(),
                "phases": Json::Object(phases),
            }),
        }),
    )
}

fn row_to_json(schema: Option<&Schema>, row: &Row) -> Json {
    let mut obj = Map::new();
    for (i, v) in row.iter().enumerate() {
        let name = schema
            .and_then(|s| s.columns.get(i))
            .map(|c| c.name.clone())
            .unwrap_or_else(|| format!("c{i}"));
        obj.insert(name, value_to_json(v));
    }
    Json::Object(obj)
}

/// Parse `offset`/`limit` query params, clamping `limit` to the configured
/// page cap.
fn paging(req: &Request, page_limit: usize) -> Result<(usize, usize), Response> {
    let parse = |key: &str, default: usize| -> Result<usize, Response> {
        match req.query_param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| Response::error(400, &format!("{key}: `{raw}` is not an integer"))),
        }
    };
    let offset = parse("offset", 0)?;
    let limit = parse("limit", page_limit)?.min(page_limit);
    Ok((offset, limit))
}

fn get_relation(req: &Request, name: &str, state: &ServeState) -> Response {
    // Pagination is positional within one epoch's snapshot, so a cursor
    // must stay pinned to the epoch it started on: page 1 reports the
    // epoch, later pages pass `?epoch=` back and keep reading the *same*
    // frozen snapshot even while ingest swaps new ones in. A pinned epoch
    // that has fallen out of the retention ring answers `410 Gone` with the
    // current epoch so the client restarts its scan coherently — strictly
    // better than silently skipping or double-seeing rows across a swap.
    let snap = match req.query_param("epoch") {
        None => state.snapshot.load(),
        Some(raw) => {
            let Ok(epoch) = raw.parse::<u64>() else {
                return Response::error(400, &format!("epoch: `{raw}` is not an integer"));
            };
            match state.snapshot.at_epoch(epoch) {
                Some(snap) => snap,
                None => {
                    let current = state.snapshot.load().epoch;
                    return Response::json(
                        410,
                        &json!({
                            "error": format!(
                                "epoch {epoch} is no longer retained; restart from the \
                                 current epoch"
                            ),
                            "current_epoch": current,
                        }),
                    );
                }
            }
        }
    };
    let Some(rel) = snap.db.relation(name) else {
        return Response::error(404, &format!("no relation `{name}`"));
    };
    let (offset, limit) = match paging(req, state.page_limit) {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    // Any query key naming a column filters on that column (`?m1=7`,
    // `?mtext=Barack+Obama`). Each raw value is parsed ONCE against the
    // column's declared type into a typed predicate (see
    // [`crate::subscriptions::RowFilter`], shared with subscriptions), so
    // matching compares `Value`s directly instead of re-rendering every
    // cell to TSV.
    let pairs = req
        .query
        .iter()
        .filter(|(k, _)| !RESERVED_QUERY_KEYS.contains(&k.as_str()))
        .map(|(k, v)| (k.as_str(), v.as_str()));
    let filter = match RowFilter::parse(rel.schema(), pairs) {
        Ok(f) => f,
        Err(e) => return Response::error(400, &e),
    };

    // Snapshot rows are sorted ascending by full row, so an equality filter
    // on the leading column selects one contiguous range — binary-search it
    // instead of scanning the whole relation.
    let all = rel.rows();
    let scan: &[(Row, i64)] = if filter.unsatisfiable {
        &[]
    } else if let Some(v) = filter.leading_eq() {
        let lo = all.partition_point(|(r, _)| r[0] < *v);
        let hi = all[lo..].partition_point(|(r, _)| r[0] == *v) + lo;
        &all[lo..hi]
    } else {
        all
    };

    let mut total = 0usize;
    let mut rows = Vec::new();
    for (row, count) in scan.iter().filter(|(row, _)| filter.matches(row)) {
        if total >= offset && rows.len() < limit {
            let mut obj = match row_to_json(Some(rel.schema()), row) {
                Json::Object(o) => o,
                _ => unreachable!("row_to_json returns an object"),
            };
            obj.insert("count".into(), json!(*count));
            rows.push(Json::Object(obj));
        }
        total += 1;
    }

    Response::json(
        200,
        &json!({
            "relation": name,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "offset": offset,
            "limit": limit,
            "total": total,
            "rows": rows,
        }),
    )
}

fn get_marginals(req: &Request, name: &str, state: &ServeState) -> Response {
    let snap = state.snapshot.load();
    if !snap.marginals.contains_key(name) {
        return Response::error(
            404,
            &format!("no marginals for `{name}` (not a query relation)"),
        );
    }
    let (offset, limit) = match paging(req, state.page_limit) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let parse_p = |key: &str, default: f64| -> Result<f64, Response> {
        match req.query_param(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| Response::error(400, &format!("{key}: `{raw}` is not a number"))),
        }
    };
    let min_p = match parse_p("min_p", 0.0) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    let max_p = match parse_p("max_p", 1.0) {
        Ok(p) => p,
        Err(resp) => return resp,
    };

    let schema = snap.db.relation(name).map(|r| r.schema());
    let mut total = 0usize;
    let mut rows = Vec::new();
    for (row, p) in snap
        .marginal_rows(name)
        .iter()
        .filter(|(_, p)| *p >= min_p && *p <= max_p)
    {
        if total >= offset && rows.len() < limit {
            let mut obj = match row_to_json(schema, row) {
                Json::Object(o) => o,
                _ => unreachable!("row_to_json returns an object"),
            };
            obj.insert("probability".into(), json!(*p));
            rows.push(Json::Object(obj));
        }
        total += 1;
    }

    Response::json(
        200,
        &json!({
            "relation": name,
            "epoch": snap.epoch,
            "fingerprint": format!("{:016x}", snap.fingerprint),
            "min_p": min_p,
            "max_p": max_p,
            "offset": offset,
            "limit": limit,
            "total": total,
            "rows": rows,
        }),
    )
}

/// Convert one JSON cell to a typed storage value.
fn json_to_value(cell: &Json, ty: ValueType) -> Result<DbValue, String> {
    match cell {
        Json::Null => Ok(DbValue::Null),
        Json::Bool(b) => match ty {
            ValueType::Bool | ValueType::Any => Ok(DbValue::Bool(*b)),
            other => Err(format!("boolean cell for {other} column")),
        },
        Json::Number(n) => match ty {
            ValueType::Int => n
                .as_i64()
                .map(DbValue::Int)
                .ok_or_else(|| "not an i64".into()),
            ValueType::Id => n
                .as_u64()
                .map(DbValue::Id)
                .ok_or_else(|| "not a u64 id".into()),
            ValueType::Float => n
                .as_f64()
                .map(DbValue::Float)
                .ok_or_else(|| "not a float".into()),
            ValueType::Any => Ok(n
                .as_i64()
                .map(DbValue::Int)
                .or_else(|| n.as_f64().map(DbValue::Float))
                .unwrap_or(DbValue::Null)),
            other => Err(format!("numeric cell for {other} column")),
        },
        // Strings parse through the TSV cell grammar, so `"7"` works for an
        // id column and `"\\N"` for NULL — same rules as `deepdive run`.
        Json::String(s) => value_from_tsv(s, ty),
        Json::Array(_) | Json::Object(_) => Err("cell must be a scalar".into()),
    }
}

/// Validate one ingest body (`{"rows": {"Relation": [[cell, ...], ...]}}`)
/// against the live schemas and convert it to base changes. Every record
/// the write path takes passes through here — by construction, replay and
/// followers revalidate exactly what an ack validated.
fn parse_ingest_body(
    dd: &DeepDive,
    derived: &HashSet<String>,
    body: &[u8],
) -> Result<Vec<BaseChange>, Response> {
    let Ok(text) = std::str::from_utf8(body) else {
        return Err(Response::error(400, "body is not UTF-8"));
    };
    let body: Json = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Err(Response::error(400, &format!("bad JSON: {e}"))),
    };
    let Some(rows) = body.get("rows").and_then(Json::as_object) else {
        return Err(Response::error(
            400,
            "body must be {\"rows\": {relation: [[cell, ...], ...]}}",
        ));
    };

    let mut changes: Vec<BaseChange> = Vec::new();
    for (relation, rel_rows) in rows.iter() {
        if derived.contains(relation) {
            return Err(Response::error(
                400,
                &format!("`{relation}` is derived by rules; ingest base relations only"),
            ));
        }
        let schema = match dd.db.schema(relation) {
            Ok(s) => s,
            Err(_) => {
                return Err(Response::error(
                    400,
                    &format!("unknown relation `{relation}`"),
                ))
            }
        };
        let Some(rel_rows) = rel_rows.as_array() else {
            return Err(Response::error(
                400,
                &format!("`{relation}` must map to an array of rows"),
            ));
        };
        for (i, row_json) in rel_rows.iter().enumerate() {
            let Some(cells) = row_json.as_array() else {
                return Err(Response::error(
                    400,
                    &format!("{relation}[{i}]: row must be an array"),
                ));
            };
            if cells.len() != schema.columns.len() {
                return Err(Response::error(
                    400,
                    &format!(
                        "{relation}[{i}]: {} cells for {} columns",
                        cells.len(),
                        schema.columns.len()
                    ),
                ));
            }
            let mut row = Vec::with_capacity(cells.len());
            for (cell, col) in cells.iter().zip(&schema.columns) {
                match json_to_value(cell, col.ty) {
                    Ok(v) => row.push(v),
                    Err(e) => {
                        return Err(Response::error(
                            400,
                            &format!("{relation}[{i}].{}: {e}", col.name),
                        ))
                    }
                }
            }
            changes.push(BaseChange::insert(relation.clone(), row.into_boxed_slice()));
        }
    }
    if changes.is_empty() {
        return Err(Response::error(400, "no rows to ingest"));
    }
    Ok(changes)
}

/// `POST /documents` body: `{"rows": {"Relation": [[cell, ...], ...]}}`.
///
/// Ack semantics: a 200 means the body is fsync'd in the WAL *and* applied
/// to the served state — it survives `kill -9` from that point on. Any
/// non-200 means the ingest left no durable trace.
fn post_documents(req: &Request, state: &ServeState) -> Response {
    match state.lifecycle() {
        Lifecycle::Ready => {}
        Lifecycle::Replaying => {
            return Response::error(503, "not ready: WAL replay in progress")
                .with_retry_after(jittered_retry_secs(1));
        }
        Lifecycle::Draining => {
            return Response::error(503, "draining for shutdown")
                .with_retry_after(jittered_retry_secs(1));
        }
    }
    if let Some(why) = state.write_block_reason() {
        // Fenced (a newer primary exists), corrupt (scrub found rot it
        // could not repair), or dead disk: acking a write here would break
        // the durability promise or split the brain.
        return Response::error(503, &why).with_retry_after(jittered_retry_secs(2));
    }
    if let Some(bucket) = &state.ingest_bucket {
        if let Err(retry_secs) = bucket.lock().try_take() {
            state.metrics.record_rate_limited();
            return Response::error(429, "ingest rate limit exceeded")
                .with_retry_after(jittered_retry_secs(retry_secs));
        }
    }

    // Hand the body to the committer and park until its batch is durable
    // and applied. The channel is gone only once shutdown has drained the
    // workers.
    let (reply_tx, reply_rx) = mpsc::channel();
    let request = CommitRequest {
        body: req.body.clone(),
        reply: reply_tx,
    };
    let committer = state.committer.lock().clone();
    if committer.is_none_or(|tx| tx.send(request).is_err()) {
        return Response::error(503, "draining for shutdown")
            .with_retry_after(jittered_retry_secs(1));
    }
    reply_rx
        .recv()
        .unwrap_or_else(|_| Response::error(500, "ingest not applied: committer exited mid-batch"))
}

/// Subscription stream cadence: a heartbeat frame goes out after this much
/// silence (the `GET /wal` discipline), and the frame-wait wakes at least
/// this often to notice shutdown.
const SUB_HEARTBEAT_EVERY: Duration = Duration::from_secs(1);
const SUB_WAIT_TICK: Duration = Duration::from_millis(100);
/// Longest long-poll wait a client may request (`?wait_ms=`).
const SUB_MAX_WAIT: Duration = Duration::from_secs(30);

/// `POST /subscriptions`: register a subscriber and either stream delta
/// frames on this connection (chunked, heartbeats, `mode: "stream"` — the
/// default) or return its id for cursor polling (`mode: "poll"`).
///
/// Body: `{"relation": {"name": R, "where": {col: val}},
///         "marginals": {"name": Q, "min_p": .., "max_p": ..},
///         "mode": "stream"|"poll", "id": optional, "snapshot": bool}`.
///
/// Owns the socket (like `GET /wal`) because stream mode writes an
/// unbounded chunked body. Returns the `ok` bit for the metrics book.
fn post_subscriptions(req: &Request, w: &mut TcpStream, state: &ServeState) -> bool {
    let respond = |w: &mut TcpStream, resp: Response| -> bool {
        let ok = resp.status < 400;
        let _ = resp.write_to(w);
        ok
    };
    match state.lifecycle() {
        Lifecycle::Ready => {}
        Lifecycle::Replaying => {
            return respond(
                w,
                Response::error(503, "not ready: WAL replay in progress")
                    .with_retry_after(jittered_retry_secs(1)),
            );
        }
        Lifecycle::Draining => {
            return respond(
                w,
                Response::error(503, "draining for shutdown")
                    .with_retry_after(jittered_retry_secs(1)),
            );
        }
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return respond(w, Response::error(400, "body is not UTF-8"));
    };
    let body: Json = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return respond(w, Response::error(400, &format!("bad JSON: {e}"))),
    };
    let mode = body.get("mode").and_then(Json::as_str).unwrap_or("stream");
    if !matches!(mode, "stream" | "poll") {
        return respond(w, Response::error(400, "mode must be `stream` or `poll`"));
    }
    let snap0 = state.snapshot.load();
    let spec = match SubscriptionSpec::parse(&body, &snap0) {
        Ok(spec) => spec,
        Err((status, msg)) => return respond(w, Response::error(status, &msg)),
    };
    let id = body.get("id").and_then(Json::as_str).map(|s| s.to_string());
    let sub = match state.subs.create(spec, id, snap0.epoch) {
        Ok(sub) => sub,
        Err((status, msg)) => {
            let resp = Response::error(status, &msg);
            let resp = if status == 429 || status == 503 {
                resp.with_retry_after(jittered_retry_secs(1))
            } else {
                resp
            };
            return respond(w, resp);
        }
    };

    // Registration-then-load closes the race with a concurrent publish:
    // any delta routed before the subscriber existed is covered by this
    // snapshot, and any frame at-or-below its epoch is dropped as already
    // incorporated.
    let snap = state.snapshot.load();
    sub.ack_through(snap.epoch);

    if mode == "poll" {
        let mut resp = Map::new();
        resp.insert("id".into(), json!(sub.id));
        resp.insert("epoch".into(), json!(snap.epoch));
        if sub.spec.initial_snapshot {
            let frame: Json = serde_json::from_str(&render_snapshot_frame(&sub.spec, &snap))
                .expect("frames render as valid JSON");
            resp.insert("snapshot".into(), frame);
        }
        return respond(w, Response::json(201, &Json::Object(resp)));
    }

    let ok = stream_subscription(w, state, &sub, &snap);
    // A stream-mode subscription lives exactly as long as its connection.
    state.subs.remove(&sub.id);
    ok
}

/// Write one ndjson frame as an HTTP chunk.
fn write_frame(w: &mut TcpStream, frame: &str) -> io::Result<()> {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    replication::write_chunk(w, line.as_bytes())
}

/// The streaming half of a subscription: initial snapshot frame, then one
/// delta frame per epoch, 1 s heartbeats through silence, shed/re-base on
/// lag — until the client hangs up or the daemon drains.
fn stream_subscription(
    w: &mut TcpStream,
    state: &ServeState,
    sub: &Arc<Subscriber>,
    first: &Arc<ServeSnapshot>,
) -> bool {
    let header = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
         Transfer-Encoding: chunked\r\nConnection: close\r\n\
         X-DD-Sub: {}\r\nX-DD-Epoch: {}\r\n\r\n",
        sub.id, first.epoch
    );
    if w.write_all(header.as_bytes()).is_err() {
        return false;
    }
    if sub.spec.initial_snapshot
        && write_frame(w, &render_snapshot_frame(&sub.spec, first)).is_err()
    {
        return false;
    }
    // Everything at or below the cursor is already reflected in the
    // client's base state; frames there would be (idempotent) duplicates.
    let mut cursor = first.epoch;
    let mut last_write = Instant::now();
    loop {
        if state.stop_requested() || state.lifecycle() == Lifecycle::Draining {
            break;
        }
        enum Action {
            Frames(Vec<(u64, String)>),
            Lagged(u64),
            Closed,
            Idle,
        }
        let action = {
            let mut q = sub.q.lock();
            if q.closed {
                Action::Closed
            } else if let Some(at) = q.lagged.take() {
                q.frames.clear();
                q.bytes = 0;
                Action::Lagged(at)
            } else if q.frames.is_empty() {
                drop(sub.wait_on(q, SUB_WAIT_TICK));
                Action::Idle
            } else {
                let frames: Vec<(u64, String)> =
                    q.frames.drain(..).map(|f| (f.epoch, f.body)).collect();
                q.bytes = 0;
                let through = frames.last().expect("nonempty").0;
                q.acked_through = q.acked_through.max(through);
                Action::Frames(frames)
            }
        };
        match action {
            Action::Closed => break,
            Action::Frames(frames) => {
                for (epoch, body) in frames {
                    if epoch <= cursor {
                        continue;
                    }
                    if write_frame(w, &body).is_err() {
                        return false;
                    }
                    cursor = epoch;
                }
                last_write = Instant::now();
            }
            Action::Lagged(shed_at) => {
                // The queue overflowed and was cleared: tell the client
                // exactly where continuity broke, then re-base it on the
                // current snapshot. Because routing happens after the swap,
                // this snapshot covers every frame dropped while lagged.
                let snap = state.snapshot.load();
                sub.ack_through(snap.epoch);
                let lag = json!({
                    "type": "lagged",
                    "shed_at": shed_at,
                    "resume_epoch": snap.epoch,
                })
                .to_string();
                if write_frame(w, &lag).is_err()
                    || write_frame(w, &render_snapshot_frame(&sub.spec, &snap)).is_err()
                {
                    return false;
                }
                cursor = snap.epoch;
                last_write = Instant::now();
            }
            Action::Idle => {
                if last_write.elapsed() >= SUB_HEARTBEAT_EVERY {
                    let hb = json!({ "type": "heartbeat", "epoch": cursor }).to_string();
                    if write_frame(w, &hb).is_err() {
                        return false;
                    }
                    last_write = Instant::now();
                }
            }
        }
    }
    let _ = w.write_all(b"0\r\n\r\n");
    let _ = w.flush();
    true
}

/// `GET /subscriptions/<id>?from=<epoch>&wait_ms=<ms>`: the long-poll
/// cursor mode. Frames strictly above `from` are returned *without* being
/// consumed — the next poll's `from` acknowledges them, so a lost response
/// is re-fetched, not lost. A cursor the queue can no longer serve
/// contiguously (shed while away, `from` before the acked floor, or ahead
/// of the server after a restart) gets `reset: true` with a full snapshot
/// frame at the current epoch instead of a silent gap.
fn poll_subscription(req: &Request, id: &str, state: &ServeState) -> Response {
    let current = state.snapshot.load();
    let Some(sub) = state.subs.get(id) else {
        return Response::json(
            404,
            &json!({
                "error": format!("no subscription `{id}` (re-subscribe and re-base)"),
                "current_epoch": current.epoch,
            }),
        );
    };
    let from = match req.query_param("from") {
        None => sub.q.lock().acked_through,
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => return Response::error(400, &format!("from: `{raw}` is not an integer")),
        },
    };
    let wait = match req.query_param("wait_ms") {
        None => Duration::ZERO,
        Some(raw) => match raw.parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(SUB_MAX_WAIT),
            Err(_) => return Response::error(400, &format!("wait_ms: `{raw}` is not an integer")),
        },
    };

    let needs_reset = {
        let q = sub.q.lock();
        // A queued frame whose `from_epoch` is above the cursor means the
        // chain between them is gone (frames route contiguously, so this
        // only happens across a shed/restart) — deltas alone can't bridge it.
        let gap = q
            .frames
            .iter()
            .find(|f| f.epoch > from)
            .map(|f| f.from_epoch > from)
            .unwrap_or(false);
        q.lagged.is_some() || from < q.acked_through || from > current.epoch || gap
    };
    if needs_reset {
        {
            let mut q = sub.q.lock();
            q.lagged = None;
        }
        // `ack_through` (not clear): frames beyond the re-base epoch stay
        // queued, so continuity holds from the snapshot forward.
        sub.ack_through(current.epoch);
        let frame: Json = serde_json::from_str(&render_snapshot_frame(&sub.spec, &current))
            .expect("frames render as valid JSON");
        return Response::json(
            200,
            &json!({
                "id": sub.id,
                "reset": true,
                "from": current.epoch,
                "through": current.epoch,
                "frames": [frame],
            }),
        );
    }
    sub.ack_through(from);

    if wait > Duration::ZERO {
        let deadline = Instant::now() + wait;
        while !sub.wait_actionable(SUB_WAIT_TICK.min(wait)) {
            if Instant::now() >= deadline || state.stop_requested() {
                break;
            }
        }
    }

    let (frames, through, lagged_now) = {
        let q = sub.q.lock();
        let mut frames = Vec::new();
        let mut through = from;
        for f in q.frames.iter().filter(|f| f.epoch > from) {
            frames.push(serde_json::from_str(&f.body).expect("frames render as valid JSON"));
            through = f.epoch;
        }
        (frames, through, q.lagged.is_some())
    };
    if lagged_now {
        // Shed while we were waiting: surface it now rather than making the
        // client discover the gap next poll.
        let lag = json!({ "type": "lagged", "resume_epoch": current.epoch });
        return Response::json(
            200,
            &json!({
                "id": sub.id,
                "from": from,
                "through": from,
                "frames": [lag],
                "lagged": true,
            }),
        );
    }
    Response::json(
        200,
        &json!({
            "id": sub.id,
            "from": from,
            "through": through,
            "frames": frames,
        }),
    )
}
