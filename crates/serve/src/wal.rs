//! The ingest write-ahead log: crash durability for `POST /documents` and
//! the shipping unit for primary → follower replication.
//!
//! The daemon's checkpoint only captures state as of the last flush; every
//! ingest acknowledged since would be lost to a crash. So each accepted
//! ingest body is appended here — and fsync'd — *before* the 200 goes out.
//! On startup the daemon restores the checkpoint, then replays the pending
//! suffix of the log through the same DRed/IVM path a live `POST` takes.
//!
//! ## On-disk layout: manifest + segments
//!
//! The log is a directory of size-rotated segment files plus a tiny
//! manifest:
//!
//! ```text
//! wal.manifest              # "#deepdive-wal-manifest-v1" + stream id +
//!                           # checkpoint seq + term + checksum
//! seg-00000000000000000000.wal
//! seg-00000000000000000417.wal   # first seq of each segment in the name
//! ```
//!
//! New segments start with a 44-byte v3 header; v2's 36-byte header is
//! still read (term = 0), so a log written by an older build opens in
//! place:
//!
//! ```text
//! [8B magic "DDWAL3\n\0"][u32 LE format version = 3]
//! [u64 LE stream id][u64 LE first seq][u64 LE checkpoint seq snapshot]
//! [u64 LE term snapshot]                       # v3 only
//! ```
//!
//! followed by versioned, length-prefixed, checksummed frames:
//!
//! ```text
//! [u8 record version = 1][u32 LE payload length][u64 LE FNV-1a64(payload)][payload]
//! ```
//!
//! The manifest is authoritative for the mutable header fields (stream id,
//! checkpoint seq); segment headers carry a snapshot for debuggability and
//! pin the segment's first seq.
//!
//! * **stream id** names the WAL's history. A primary mints a random
//!   nonzero id when it creates a fresh log; a follower's log starts at the
//!   `0` sentinel ("unadopted") and adopts the primary's id on first
//!   contact. Replication refuses to mix records across stream ids.
//! * **seqs are logical and monotonic.** The oldest frame on disk is
//!   `base seq` (the first segment's first seq); a checkpoint flush does
//!   not delete anything — it advances `checkpoint seq` in the manifest
//!   (records at lower seqs are owned by the checkpoint) and
//!   [`Wal::compact`] later unlinks *whole segments* that fall entirely
//!   below the follower-retention horizon. Deleting oldest-first keeps the
//!   remaining set contiguous across any crash, so compaction needs no
//!   prefix rewrite and never copies a byte. `records()` reports the
//!   *pending* count (`next seq − checkpoint seq`), which is what replay
//!   and drain care about.
//! * **group commit batches share one fsync.** [`Wal::append_batch`]
//!   writes every frame of a batch (rotating segments as the size
//!   threshold crosses) and syncs once; the batch acks together or rolls
//!   back together.
//! * **version bytes fail loud.** Opening a future *format* or *manifest*
//!   version, or meeting a checksum-valid frame with an unknown *record*
//!   version, produces a clear "newer than supported" error instead of a
//!   checksum/torn-tail misdiagnosis.
//!
//! A crash mid-append leaves a torn tail — necessarily in the *final*
//! segment, the only one ever written to. [`Wal::open`] detects it, and —
//! only when the tear sits in the *pending* region, whose records were by
//! construction never acknowledged — drops it and truncates back to the
//! last intact frame. Corruption in a sealed (non-final) segment or inside
//! the checkpointed region is a hard error: those records were acked and
//! shipped, so silently dropping them would fork history under a follower.

use deepdive_core::checkpoint::fnv1a64;
use deepdive_core::faults::{disk_eio_error, disk_full_error, points, FaultInjector};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic for format v3 (segment files carrying a term snapshot).
const MAGIC_V3: &[u8; 8] = b"DDWAL3\n\0";
/// File magic for format v2 (read-compatible; term taken as 0).
const MAGIC_V2: &[u8; 8] = b"DDWAL2\n\0";
/// The file format version this build writes.
const FORMAT_VERSION: u32 = 3;
/// The newest format version this build still reads in place.
const COMPAT_FORMAT_VERSION: u32 = 2;
/// The frame (record) version this build writes and reads.
pub const RECORD_VERSION: u8 = 1;
/// v3 segment header: magic + format version + stream id + first seq +
/// checkpoint seq snapshot + term snapshot.
const HEADER_LEN: u64 = 44;
/// v2 segment header (no term snapshot).
const HEADER_LEN_V2: u64 = 36;
/// Per-frame framing overhead: version byte + u32 length + u64 checksum.
const FRAME_HEADER_BYTES: u64 = 13;
/// Sanity cap on a single record's payload; anything larger means the
/// length prefix itself is corrupt (ingest bodies are capped well below
/// this by the HTTP layer).
const MAX_RECORD_BYTES: u32 = 64 * 1024 * 1024;
/// Default number of checkpointed records retained for followers before
/// compaction unlinks whole segments.
pub const DEFAULT_RETAIN_RECORDS: u64 = 1024;
/// Default segment rotation threshold (frame bytes per segment).
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;
/// The manifest file name inside the WAL directory.
const MANIFEST_FILE: &str = "wal.manifest";
/// First line of the manifest.
const MANIFEST_HEADER: &str = "#deepdive-wal-manifest-v1";

/// Wire/disk framing shared by the WAL segments and the replication
/// stream.
///
/// The streaming endpoint ships frames byte-for-byte as they sit in the
/// segment files; the follower runs them through [`frame::FrameDecoder`],
/// which re-verifies every checksum on arrival, tolerates arbitrary chunk
/// boundaries, and skips the single-byte heartbeats the primary interleaves
/// to keep an idle connection alive. Segment boundaries do not exist on
/// the wire: frames from consecutive segments concatenate seamlessly.
pub mod frame {
    use super::{fnv1a64, FRAME_HEADER_BYTES, MAX_RECORD_BYTES, RECORD_VERSION};

    /// A single heartbeat byte, interleaved between frames on the wire
    /// (never written to disk). `0` is not a valid record version, so a
    /// decoder positioned at a frame boundary can always tell the two
    /// apart.
    pub const HEARTBEAT: u8 = 0;

    /// Encode one payload as a wire/disk frame.
    pub fn encode(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
        buf.push(RECORD_VERSION);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Why a decoder refused the stream.
    #[derive(Debug, PartialEq, Eq)]
    pub enum FrameError {
        /// Checksum mismatch, impossible length — the bytes are not a
        /// well-formed frame. The follower drops the connection and
        /// resumes from its last durable seq.
        Corrupt(&'static str),
        /// A checksum-*valid* frame carrying an unknown record version:
        /// written by a newer deepdive. Refused loudly rather than
        /// misapplied or misreported as corruption.
        FutureVersion(u8),
    }

    impl std::fmt::Display for FrameError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                FrameError::Corrupt(why) => write!(f, "corrupt WAL frame: {why}"),
                FrameError::FutureVersion(v) => write!(
                    f,
                    "WAL record version {v} is newer than supported ({RECORD_VERSION})"
                ),
            }
        }
    }

    /// Incremental frame decoder: feed arbitrary byte slices (chunk
    /// boundaries land anywhere), pull complete verified payloads.
    #[derive(Debug, Default)]
    pub struct FrameDecoder {
        buf: Vec<u8>,
        pos: usize,
    }

    impl FrameDecoder {
        pub fn new() -> Self {
            FrameDecoder::default()
        }

        pub fn feed(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        /// Bytes buffered but not yet consumed by a decoded frame.
        pub fn buffered(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Next complete payload: `Ok(None)` when more bytes are needed,
        /// `Err` when the stream is not trustworthy from here on (the
        /// caller must discard the connection — a partial prefix of a
        /// corrupt frame is never applied).
        #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
        pub fn next(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
            // Heartbeats are single bytes between frames.
            while self.pos < self.buf.len() && self.buf[self.pos] == HEARTBEAT {
                self.pos += 1;
            }
            let avail = &self.buf[self.pos..];
            if (avail.len() as u64) < FRAME_HEADER_BYTES {
                self.compact();
                return Ok(None);
            }
            let version = avail[0];
            let len = u32::from_le_bytes(avail[1..5].try_into().expect("4 bytes"));
            let checksum = u64::from_le_bytes(avail[5..13].try_into().expect("8 bytes"));
            if len > MAX_RECORD_BYTES {
                return Err(FrameError::Corrupt("frame length over the 64 MiB cap"));
            }
            let total = FRAME_HEADER_BYTES as usize + len as usize;
            if avail.len() < total {
                self.compact();
                return Ok(None);
            }
            let payload = &avail[FRAME_HEADER_BYTES as usize..total];
            let checksum_ok = fnv1a64(payload) == checksum;
            if version != RECORD_VERSION {
                // A valid checksum under an unknown version byte means
                // a newer writer, not line noise.
                return Err(if checksum_ok {
                    FrameError::FutureVersion(version)
                } else {
                    FrameError::Corrupt("bad record version byte")
                });
            }
            if !checksum_ok {
                return Err(FrameError::Corrupt("frame checksum mismatch"));
            }
            let out = payload.to_vec();
            self.pos += total;
            self.compact();
            Ok(Some(out))
        }

        fn compact(&mut self) {
            if self.pos > 4096 {
                self.buf.drain(..self.pos);
                self.pos = 0;
            }
        }
    }
}

/// Tunables for [`Wal::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct WalOptions {
    /// Checkpointed records kept for followers before compaction unlinks
    /// whole segments below the horizon.
    pub retain_records: u64,
    /// When creating a brand-new log: mint a random nonzero stream id
    /// (primary) vs. the `0` "unadopted" sentinel (follower, which adopts
    /// the primary's id on first contact).
    pub fresh_stream: bool,
    /// Frame bytes per segment before the active segment rotates.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            retain_records: DEFAULT_RETAIN_RECORDS,
            fresh_stream: true,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Intact *pending* record payloads (seq ≥ checkpoint seq), in append
    /// order, awaiting replay.
    pub records: Vec<Vec<u8>>,
    /// Seq of the first pending record (== the recovered checkpoint seq).
    pub first_pending_seq: u64,
    /// True when a torn/corrupt tail was detected and dropped.
    pub torn_tail: bool,
    /// Bytes of intact log retained across all segments.
    pub good_bytes: u64,
    /// Bytes of torn tail discarded.
    pub torn_bytes: u64,
    /// Checkpoint-owned records still retained for followers.
    pub retained: u64,
    /// True when `wal.manifest` was missing or corrupt and was rebuilt by
    /// scanning the segment headers (see [`Wal::open_with`]).
    pub manifest_rebuilt: bool,
}

/// A rollback point captured before a speculative append (see
/// [`Wal::rollback_to`]).
#[derive(Debug, Clone, Copy)]
pub struct WalMark {
    /// Segment count at the mark (later segments are deleted whole).
    segments: usize,
    /// Byte length of the then-active segment.
    bytes: u64,
    next_seq: u64,
}

/// One on-disk segment file and its frame index.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// Seq of this segment's first frame (also encoded in the file name).
    first_seq: u64,
    /// Intact bytes (header + frames).
    bytes: u64,
    /// Byte offset of each frame; `index[i]` is seq `first_seq + i`.
    index: Vec<u64>,
}

impl Segment {
    fn end_seq(&self) -> u64 {
        self.first_seq + self.index.len() as u64
    }
}

/// An open, appendable, segmented write-ahead log.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    /// Ordered, seq-contiguous segments; the last one is active.
    segments: Vec<Segment>,
    /// Append handle on the active segment, cursor parked at its end.
    file: File,
    stream_id: u64,
    next_seq: u64,
    checkpoint_seq: u64,
    /// Fencing term (monotonic, bumped by promotion). Persisted in the
    /// manifest and snapshotted into every new segment header.
    term: u64,
    retain: u64,
    segment_target: u64,
    /// Set when an append failed in a way that leaves the on-disk tail
    /// unknown (torn write, failed rollback): further appends are refused
    /// until a checkpoint flush repairs the tail.
    poisoned: bool,
    /// Compaction runs that unlinked at least one segment.
    compactions: u64,
    faults: Arc<FaultInjector>,
}

impl Wal {
    /// Open (creating if needed) the segmented log in `dir` with default
    /// options.
    pub fn open(dir: &Path, faults: Arc<FaultInjector>) -> io::Result<(Wal, WalRecovery)> {
        Wal::open_with(dir, faults, WalOptions::default())
    }

    /// Open (creating if needed) the segmented log in `dir`: scan every
    /// segment for intact frames, drop a torn *pending* tail in the final
    /// segment, refuse corruption anywhere else, and position the write
    /// cursor after the last intact frame.
    pub fn open_with(
        dir: &Path,
        faults: Arc<FaultInjector>,
        options: WalOptions,
    ) -> io::Result<(Wal, WalRecovery)> {
        std::fs::create_dir_all(dir)?;
        let manifest_path = dir.join(MANIFEST_FILE);

        if !manifest_path.exists() {
            // If segments already exist, the manifest was lost (crash
            // mid-resync, operator damage): leave it absent and let the
            // rebuild path below reconstruct it from the segment headers.
            // Otherwise mint a new log.
            let has_segments = std::fs::read_dir(dir)?.any(|e| {
                e.ok()
                    .map(|e| parse_segment_name(&e.file_name().to_string_lossy()).is_some())
                    .unwrap_or(false)
            });
            if !has_segments {
                let stream_id = if options.fresh_stream {
                    random_stream_id()
                } else {
                    0
                };
                write_manifest(dir, stream_id, 0, 0)?;
            }
        }

        // A missing or corrupt manifest is rebuilt from the segment
        // headers — never a refusal to start. Only a well-formed future
        // manifest version stays fatal.
        let (stream_id, checkpoint_seq, term, manifest_rebuilt) =
            match read_manifest(&manifest_path) {
                Ok((s, c, t)) => (s, c, t, false),
                Err(e)
                    if (e.kind() == io::ErrorKind::NotFound
                        || e.kind() == io::ErrorKind::InvalidData)
                        && !e.to_string().contains("newer than supported") =>
                {
                    let (s, c, t) = rebuild_manifest(dir, &options)?;
                    write_manifest(dir, s, c, t)?;
                    (s, c, t, true)
                }
                Err(e) => return Err(e),
            };

        // Enumerate segments by the first seq in their file names.
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(first_seq) = parse_segment_name(&name.to_string_lossy()) {
                seg_files.push((first_seq, entry.path()));
            }
        }
        seg_files.sort();
        if seg_files.is_empty() {
            // Fresh log (or a crash between manifest creation and the
            // first segment): start an empty segment at the checkpoint
            // seq.
            let path = dir.join(segment_name(checkpoint_seq));
            write_fresh_segment(&path, stream_id, checkpoint_seq, term)?;
            seg_files.push((checkpoint_seq, path));
        }

        // Scan every segment. A tear is survivable only in the final
        // segment's pending region; anything else is fatal — acked
        // history must not silently shrink.
        let mut recovery = WalRecovery {
            records: Vec::new(),
            first_pending_seq: checkpoint_seq,
            torn_tail: false,
            good_bytes: 0,
            torn_bytes: 0,
            retained: 0,
            manifest_rebuilt,
        };
        let base_seq = seg_files[0].0;
        if checkpoint_seq < base_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: checkpoint seq below base seq", dir.display()),
            ));
        }
        let mut segments: Vec<Segment> = Vec::with_capacity(seg_files.len());
        let mut seq = base_seq;
        let last_i = seg_files.len() - 1;
        for (i, (first_seq, path)) in seg_files.into_iter().enumerate() {
            if first_seq != seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: segment starts at seq {first_seq} but the \
                         previous segment ends at seq {seq}",
                        path.display()
                    ),
                ));
            }
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .truncate(false)
                .open(&path)?;
            let total = file.metadata()?.len();
            let header = parse_header(&mut file, &path)?;
            if header.stream_id != stream_id {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: segment stream id {:016x} does not \
                         match the manifest's {stream_id:016x}",
                        path.display(),
                        header.stream_id
                    ),
                ));
            }
            if header.first_seq != first_seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: segment header claims first seq {} \
                         but the file is named for seq {first_seq}",
                        path.display(),
                        header.first_seq
                    ),
                ));
            }
            let mut index = Vec::new();
            let mut offset = header.len;
            loop {
                match read_disk_frame(&mut file) {
                    Ok(Some(payload)) => {
                        index.push(offset);
                        offset += FRAME_HEADER_BYTES + payload.len() as u64;
                        if seq >= checkpoint_seq {
                            recovery.records.push(payload);
                        }
                        seq += 1;
                    }
                    Ok(None) => break, // clean EOF
                    Err(e) => {
                        let future_version = e.kind() == io::ErrorKind::InvalidData
                            && e.to_string().contains("newer than supported");
                        if i < last_i || seq < checkpoint_seq || future_version {
                            // A sealed segment, checkpointed history, or a
                            // newer writer's record: all refuse-loudly,
                            // not truncate-silently.
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("{}: {e} at seq {seq}", path.display()),
                            ));
                        }
                        recovery.torn_tail = true;
                        break;
                    }
                }
            }
            recovery.good_bytes += offset;
            recovery.torn_bytes += total.saturating_sub(offset);
            if total > offset {
                file.set_len(offset)?;
                file.sync_data()?;
            }
            segments.push(Segment {
                path,
                first_seq,
                bytes: offset,
                index,
            });
        }
        if seq < checkpoint_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: log ends at seq {seq} but the manifest claims seqs \
                     through {checkpoint_seq} were checkpointed",
                    dir.display()
                ),
            ));
        }

        let active = segments.last().expect("at least one segment");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&active.path)?;
        file.seek(SeekFrom::Start(active.bytes))?;

        let mut wal = Wal {
            dir: dir.to_path_buf(),
            segments,
            file,
            stream_id,
            next_seq: seq,
            checkpoint_seq,
            term,
            retain: options.retain_records,
            segment_target: options.segment_bytes.max(1),
            poisoned: false,
            compactions: 0,
            faults,
        };
        // Segments stranded below a shrunk retention window (e.g. the
        // knob changed between runs, or a compaction was cut short by a
        // crash) unlink on open — compaction is idempotent.
        wal.compact()?;
        recovery.retained = wal.checkpoint_seq - wal.base_seq();
        Ok((wal, recovery))
    }

    /// Append one record, fsync it, and return its seq. Returns only after
    /// the bytes are durable — the caller may acknowledge the ingest iff
    /// this returns `Ok`. On failure the append is rolled back so the log
    /// stays parseable; if even the rollback fails the log is poisoned and
    /// refuses further appends.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.append_batch(&[payload])
    }

    /// Append a batch of records under a single fsync and return the seq
    /// of the first. The active segment rotates mid-batch when it crosses
    /// the size threshold (each sealed segment is synced before the
    /// rotation). The batch is atomic: either every record is durable when
    /// this returns `Ok`, or none survives — a failure rolls the log back
    /// to its pre-batch state (poisoning it if even that fails).
    pub fn append_batch(&mut self, payloads: &[&[u8]]) -> io::Result<u64> {
        if self.poisoned {
            return Err(io::Error::other(
                "WAL is poisoned by an earlier failed append; \
                 a checkpoint flush is required to repair it",
            ));
        }
        for p in payloads {
            if p.len() as u64 > MAX_RECORD_BYTES as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "WAL record over the 64 MiB cap",
                ));
            }
        }
        let first = self.next_seq;
        if payloads.is_empty() {
            return Ok(first);
        }
        let mark = self.mark();
        match self.write_batch(payloads) {
            Ok(()) => Ok(first),
            Err(e) => {
                // Cut the partial batch back off so the log stays intact
                // and no negatively-acked record can replay. A torn write
                // already poisoned the log (the on-disk tail is unknown);
                // the best-effort cleanup below still runs at repair time.
                if !self.poisoned && self.rollback_to(&mark).is_err() {
                    // rollback_to poisoned the log.
                }
                Err(e)
            }
        }
    }

    /// Write + fsync the batch frames, updating in-memory state eagerly
    /// (the caller rolls back on error).
    fn write_batch(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        for payload in payloads {
            let active = self.segments.last().expect("at least one segment");
            if !active.index.is_empty()
                && active.bytes.saturating_sub(HEADER_LEN) >= self.segment_target
            {
                self.rotate()?;
            }
            // Fault point: a crash mid-write leaves a torn prefix on disk
            // and the client never hears an ack.
            if self.faults.trips(points::WAL_TORN_WRITE) {
                let buf = frame::encode(payload);
                let half = buf.len() / 2;
                let _ = self.file.write_all(&buf[..half]);
                let _ = self.file.flush();
                self.poisoned = true;
                return Err(io::Error::other("injected torn WAL write"));
            }
            // Fault points: the disk itself fails the append. The error
            // carries the real errno so the serve layer can classify it as
            // a durable-storage failure (CLI exit code 8).
            if self.faults.trips(points::DISK_ENOSPC) {
                let active = self.segments.last().expect("at least one segment");
                return Err(disk_full_error(&active.path));
            }
            if self.faults.trips(points::DISK_EIO) {
                let active = self.segments.last().expect("at least one segment");
                return Err(disk_eio_error(&active.path));
            }
            let mut buf = frame::encode(payload);
            // Fault point: silent media corruption — the write "succeeds"
            // but a bit on disk flips. Nothing notices until the scrubber
            // (or a follower) re-verifies the frame checksum.
            if self.faults.trips(points::DISK_BITFLIP) {
                let last = buf.len() - 1;
                buf[last] ^= 0x01;
            }
            self.file.write_all(&buf)?;
            let active = self.segments.last_mut().expect("at least one segment");
            active.index.push(active.bytes);
            active.bytes += buf.len() as u64;
            self.next_seq += 1;
        }
        if self.faults.trips(points::WAL_FSYNC) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.file.sync_data()
    }

    /// Seal the active segment (sync it) and start a fresh one at the
    /// current head seq.
    fn rotate(&mut self) -> io::Result<()> {
        if self.faults.trips(points::WAL_ROTATE_FAIL) {
            return Err(io::Error::other("injected segment rotation failure"));
        }
        self.file.sync_data()?;
        let first_seq = self.segments.last().expect("active segment").end_seq();
        let path = self.dir.join(segment_name(first_seq));
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        f.write_all(&header_bytes(
            self.stream_id,
            first_seq,
            self.checkpoint_seq,
            self.term,
        ))?;
        f.sync_data()?;
        sync_dir(&self.dir)?;
        self.segments.push(Segment {
            path,
            first_seq,
            bytes: HEADER_LEN,
            index: Vec::new(),
        });
        self.file = f;
        Ok(())
    }

    /// Capture the current append position for a later [`Wal::rollback_to`].
    pub fn mark(&self) -> WalMark {
        WalMark {
            segments: self.segments.len(),
            bytes: self.segments.last().expect("active segment").bytes,
            next_seq: self.next_seq,
        }
    }

    /// Cut the log back to a previously captured mark, discarding every
    /// record appended since — the negative-ack path: a record whose apply
    /// failed is answered 5xx, so it must not linger in the log and
    /// materialize on replay. Segments created since the mark are deleted
    /// whole (newest first, so a crash mid-rollback leaves a contiguous
    /// set); the then-active segment is truncated back. Never cuts below
    /// the checkpoint seq. If the cut itself fails the on-disk state is
    /// unknown and the log is poisoned.
    pub fn rollback_to(&mut self, mark: &WalMark) -> io::Result<()> {
        debug_assert!(mark.segments <= self.segments.len() && mark.next_seq <= self.next_seq);
        debug_assert!(
            mark.next_seq >= self.checkpoint_seq,
            "cannot roll back checkpointed records"
        );
        let result = (|| -> io::Result<()> {
            let deleted = self.segments.len() > mark.segments;
            while self.segments.len() > mark.segments {
                let seg = self.segments.last().expect("non-empty");
                std::fs::remove_file(&seg.path)?;
                self.segments.pop();
            }
            if deleted {
                sync_dir(&self.dir)?;
                let active = self.segments.last().expect("mark'd segment");
                self.file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .truncate(false)
                    .open(&active.path)?;
            }
            self.file.set_len(mark.bytes)?;
            self.file.seek(SeekFrom::Start(mark.bytes))?;
            self.file.sync_data()
        })();
        match result {
            Ok(()) => {
                let active = self.segments.last_mut().expect("active segment");
                active.bytes = mark.bytes;
                active
                    .index
                    .truncate((mark.next_seq - active.first_seq) as usize);
                self.next_seq = mark.next_seq;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// A checkpoint now owns every record below `through_seq`: advance the
    /// durable checkpoint seq in the manifest and repair a poisoned tail
    /// (the unknown bytes were never acked and the checkpoint supersedes
    /// the log anyway). The records themselves stay on disk and fetchable
    /// by followers until [`Wal::compact`] unlinks their segments — the
    /// serve layer runs compaction off the ingest path.
    pub fn mark_checkpointed(&mut self, through_seq: u64) -> io::Result<()> {
        let through = through_seq.clamp(self.checkpoint_seq, self.next_seq);
        if self.poisoned {
            // Everything acked sits at or below the active segment's
            // intact length; anything beyond it — stray bytes or whole
            // stray segments from a torn batch — is an unacknowledged
            // unknown. Cut it.
            let active_first = self.segments.last().expect("active segment").first_seq;
            for entry in std::fs::read_dir(&self.dir)? {
                let entry = entry?;
                if let Some(first_seq) = parse_segment_name(&entry.file_name().to_string_lossy()) {
                    if first_seq > active_first {
                        std::fs::remove_file(entry.path())?;
                    }
                }
            }
            let active = self.segments.last().expect("active segment");
            self.file = OpenOptions::new()
                .read(true)
                .write(true)
                .truncate(false)
                .open(&active.path)?;
            self.file.set_len(active.bytes)?;
            self.file.seek(SeekFrom::Start(active.bytes))?;
            self.file.sync_data()?;
            sync_dir(&self.dir)?;
            self.poisoned = false;
        }
        if through != self.checkpoint_seq {
            write_manifest(&self.dir, self.stream_id, through, self.term)?;
            self.checkpoint_seq = through;
        }
        Ok(())
    }

    /// Unlink whole segments that fall entirely below the retention
    /// horizon (`checkpoint_seq − retain`), oldest first. The active
    /// segment rotates out first when even it is fully below the horizon,
    /// so a long-quiet log still frees its disk. Returns the number of
    /// segments removed. Idempotent and crash-safe: a partial run leaves a
    /// contiguous suffix that the next run (or open) finishes.
    pub fn compact(&mut self) -> io::Result<usize> {
        if self.poisoned {
            return Ok(0); // the on-disk tail is unknown; don't touch it
        }
        let horizon = self.checkpoint_seq.saturating_sub(self.retain);
        if horizon >= self.next_seq
            && !self
                .segments
                .last()
                .expect("active segment")
                .index
                .is_empty()
        {
            self.rotate()?;
        }
        let mut removed = 0usize;
        while self.segments.len() > 1 {
            if self.segments[0].end_seq() > horizon {
                break;
            }
            if removed > 0 && self.faults.trips(points::WAL_COMPACT_CRASH) {
                sync_dir(&self.dir)?;
                self.compactions += 1;
                return Err(io::Error::other("injected compaction crash"));
            }
            std::fs::remove_file(&self.segments[0].path)?;
            self.segments.remove(0);
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
            self.compactions += 1;
        }
        Ok(removed)
    }

    /// Adopt a replication stream: legal only while the log holds no
    /// frames (a fresh follower, or one re-seeded from a copied
    /// checkpoint). Rewrites the manifest and re-seeds the single empty
    /// segment at `start_seq`.
    pub fn adopt_stream(&mut self, stream_id: u64, start_seq: u64) -> io::Result<()> {
        if self.next_seq != self.base_seq() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot adopt a stream over a WAL that already holds records",
            ));
        }
        // Drop the empty placeholder segment first (nothing is lost), then
        // persist the manifest, then seed the new segment: every crash
        // window in between re-opens as an adoptable (or freshly adopted)
        // log.
        let old = self.segments.pop().expect("placeholder segment");
        std::fs::remove_file(&old.path)?;
        write_manifest(&self.dir, stream_id, start_seq, self.term)?;
        let path = self.dir.join(segment_name(start_seq));
        write_fresh_segment(&path, stream_id, start_seq, self.term)?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.segments.push(Segment {
            path,
            first_seq: start_seq,
            bytes: HEADER_LEN,
            index: Vec::new(),
        });
        self.stream_id = stream_id;
        self.next_seq = start_seq;
        self.checkpoint_seq = start_seq;
        Ok(())
    }

    /// Raise the fencing term (promotion, or a follower learning a higher
    /// term from its primary's handshake). Persists the manifest; future
    /// segment headers snapshot the new value. Terms never move backwards.
    pub fn set_term(&mut self, term: u64) -> io::Result<()> {
        if term <= self.term {
            if term < self.term {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("term cannot move backwards ({} -> {term})", self.term),
                ));
            }
            return Ok(());
        }
        write_manifest(&self.dir, self.stream_id, self.checkpoint_seq, term)?;
        self.term = term;
        Ok(())
    }

    /// Re-seed the log for a checkpoint resync: discard *everything* on
    /// disk and restart as an empty log on `stream_id` at `start_seq`
    /// (records below it are owned by the just-installed checkpoint),
    /// under `term`. Unlike [`Wal::adopt_stream`] this is legal over a log
    /// that holds records — the caller has already replaced that history
    /// with a verified checkpoint fetched from the primary.
    ///
    /// Crash-safe without a journal: the manifest is unlinked first, then
    /// segments newest-first, then the new manifest + segment are written.
    /// Every intermediate state either rebuilds the old log from its
    /// segment headers (and re-triggers the resync) or opens as the fresh
    /// post-resync log.
    pub fn reset_stream(&mut self, stream_id: u64, start_seq: u64, term: u64) -> io::Result<()> {
        let manifest = self.dir.join(MANIFEST_FILE);
        if manifest.exists() {
            std::fs::remove_file(&manifest)?;
        }
        sync_dir(&self.dir)?;
        while let Some(seg) = self.segments.pop() {
            std::fs::remove_file(&seg.path)?;
        }
        sync_dir(&self.dir)?;
        write_manifest(&self.dir, stream_id, start_seq, term)?;
        let path = self.dir.join(segment_name(start_seq));
        write_fresh_segment(&path, stream_id, start_seq, term)?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.segments.push(Segment {
            path,
            first_seq: start_seq,
            bytes: HEADER_LEN,
            index: Vec::new(),
        });
        self.stream_id = stream_id;
        self.next_seq = start_seq;
        self.checkpoint_seq = start_seq;
        self.term = term;
        self.poisoned = false;
        Ok(())
    }

    /// Anti-entropy scrub: re-read every segment from disk and re-verify
    /// headers and frame checksums against the in-memory index. Returns
    /// the number of frames verified; the error names the first corrupt
    /// file and seq. Detects silent bit-rot that the append path (which
    /// never re-reads) cannot see. Takes `&mut self` so it runs under the
    /// same lock as appends — the on-disk bytes it reads are quiescent.
    pub fn verify(&mut self) -> io::Result<u64> {
        let mut frames = 0u64;
        for seg in &self.segments {
            let mut file = File::open(&seg.path)?;
            let header = parse_header(&mut file, &seg.path)?;
            if header.stream_id != self.stream_id || header.first_seq != seg.first_seq {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: segment header does not match the log",
                        seg.path.display()
                    ),
                ));
            }
            let mut seq = seg.first_seq;
            let mut offset = header.len;
            while offset < seg.bytes {
                match read_disk_frame(&mut file) {
                    Ok(Some(payload)) => {
                        offset += FRAME_HEADER_BYTES + payload.len() as u64;
                        frames += 1;
                        seq += 1;
                    }
                    Ok(None) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!(
                                "{}: segment ends at seq {seq} but the index \
                                 expects frames through seq {}",
                                seg.path.display(),
                                seg.end_seq()
                            ),
                        ));
                    }
                    Err(e) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("{}: {e} at seq {seq}", seg.path.display()),
                        ));
                    }
                }
            }
            if seq != seg.end_seq() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: {} intact frames on disk but the index holds {}",
                        seg.path.display(),
                        seq - seg.first_seq,
                        seg.index.len()
                    ),
                ));
            }
        }
        Ok(frames)
    }

    /// Read frames `[from_seq, …)` as raw wire bytes, stopping at
    /// `max_bytes` (always includes at least one frame when any exists so
    /// a single large record cannot stall the stream). Segment boundaries
    /// are invisible to the caller: frames concatenate across them exactly
    /// as a single file would lay them out. Returns the bytes and the seq
    /// one past the last frame included. `from_seq` must lie in
    /// `[base_seq, next_seq]`.
    pub fn read_frames(&mut self, from_seq: u64, max_bytes: usize) -> io::Result<(Vec<u8>, u64)> {
        if from_seq < self.base_seq() || from_seq > self.next_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "seq {from_seq} outside the log's [{}, {}] window",
                    self.base_seq(),
                    self.next_seq
                ),
            ));
        }
        let mut out = Vec::new();
        let mut seq = from_seq;
        let mut reader: Option<(usize, File)> = None;
        while seq < self.next_seq {
            let si = self
                .segments
                .partition_point(|s| s.first_seq <= seq)
                .saturating_sub(1);
            let seg = &self.segments[si];
            let li = (seq - seg.first_seq) as usize;
            let off = seg.index[li];
            let end = seg.index.get(li + 1).copied().unwrap_or(seg.bytes);
            let frame_len = (end - off) as usize;
            if seq > from_seq && out.len() + frame_len > max_bytes {
                break;
            }
            if reader.as_ref().map(|(i, _)| *i) != Some(si) {
                reader = Some((si, File::open(&seg.path)?));
            }
            let (_, f) = reader.as_mut().expect("reader just set");
            f.seek(SeekFrom::Start(off))?;
            let at = out.len();
            out.resize(at + frame_len, 0);
            f.read_exact(&mut out[at..])?;
            seq += 1;
            if out.len() >= max_bytes {
                break;
            }
        }
        Ok((out, seq))
    }

    /// *Pending* records: appended (or recovered) but not yet owned by a
    /// checkpoint. This is what replay processes and drain flushes.
    pub fn records(&self) -> u64 {
        self.next_seq - self.checkpoint_seq
    }

    /// All frames physically on disk, retained + pending.
    pub fn physical_records(&self) -> u64 {
        self.next_seq - self.base_seq()
    }

    /// Intact bytes on disk across all segments (including headers).
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// The replication stream this log belongs to (`0` = not yet adopted).
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Seq of the oldest frame still on disk.
    pub fn base_seq(&self) -> u64 {
        self.segments
            .first()
            .expect("at least one segment")
            .first_seq
    }

    /// Seq the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Seqs below this are owned by a checkpoint.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// The fencing term this log last heard (see [`Wal::set_term`]).
    pub fn term(&self) -> u64 {
        self.term
    }

    /// True when a failed append left the on-disk tail unknown.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Number of segment files currently on disk.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The configured rotation threshold (frame bytes per segment).
    pub fn segment_target(&self) -> u64 {
        self.segment_target
    }

    /// Compaction runs (this process) that unlinked at least one segment.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The log's directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

/// `seg-<first_seq:020>.wal`.
fn segment_name(first_seq: u64) -> String {
    format!("seg-{first_seq:020}.wal")
}

/// Parse a segment file name back to its first seq.
fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn header_bytes(
    stream_id: u64,
    first_seq: u64,
    checkpoint_seq: u64,
    term: u64,
) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[0..8].copy_from_slice(MAGIC_V3);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..20].copy_from_slice(&stream_id.to_le_bytes());
    h[20..28].copy_from_slice(&first_seq.to_le_bytes());
    h[28..36].copy_from_slice(&checkpoint_seq.to_le_bytes());
    h[36..44].copy_from_slice(&term.to_le_bytes());
    h
}

/// What a segment header says about itself.
#[derive(Debug, Clone, Copy)]
struct SegmentHeader {
    stream_id: u64,
    first_seq: u64,
    /// Checkpoint seq at the moment the segment was created (lags the
    /// live manifest value; never ahead of the log).
    checkpoint_seq: u64,
    /// Term at the moment the segment was created (v2 headers carry 0).
    term: u64,
    /// Bytes the header occupies (36 for v2, 44 for v3).
    len: u64,
}

/// Parse + validate a v2 or v3 header from an open file positioned at 0;
/// leaves the cursor after the header.
fn parse_header(file: &mut File, path: &Path) -> io::Result<SegmentHeader> {
    let mut header = [0u8; HEADER_LEN as usize];
    let got = read_fully(file, &mut header)?;
    if got < HEADER_LEN_V2 as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: truncated WAL header", path.display()),
        ));
    }
    let len = match &header[0..8] {
        m if m == MAGIC_V3 => HEADER_LEN,
        m if m == MAGIC_V2 => HEADER_LEN_V2,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a deepdive WAL (bad magic)", path.display()),
            ));
        }
    };
    if len == HEADER_LEN && got < HEADER_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: truncated WAL header", path.display()),
        ));
    }
    let format = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    let expected = if len == HEADER_LEN {
        FORMAT_VERSION
    } else {
        COMPAT_FORMAT_VERSION
    };
    if format != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: WAL format version {format} is newer than supported \
                 ({FORMAT_VERSION}); refusing to guess at its layout",
                path.display()
            ),
        ));
    }
    let term = if len == HEADER_LEN {
        u64::from_le_bytes(header[36..44].try_into().expect("8 bytes"))
    } else {
        // A v2 header: position the cursor right after the 36 bytes.
        file.seek(SeekFrom::Start(HEADER_LEN_V2))?;
        0
    };
    Ok(SegmentHeader {
        stream_id: u64::from_le_bytes(header[12..20].try_into().expect("8 bytes")),
        first_seq: u64::from_le_bytes(header[20..28].try_into().expect("8 bytes")),
        checkpoint_seq: u64::from_le_bytes(header[28..36].try_into().expect("8 bytes")),
        term,
        len,
    })
}

/// Read just the header of a closed file.
fn read_header(path: &Path) -> io::Result<SegmentHeader> {
    let mut f = File::open(path)?;
    parse_header(&mut f, path)
}

/// Atomically (re)write the manifest: temp + fsync + rename + dir fsync.
/// The trailing `check` line is an fnv1a64 over everything before it, so
/// truncation or bit-rot anywhere in the file is detectable (and triggers
/// the rebuild-from-segments path rather than a refusal to start).
fn write_manifest(dir: &Path, stream_id: u64, checkpoint_seq: u64, term: u64) -> io::Result<()> {
    let path = dir.join(MANIFEST_FILE);
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    let body = format!(
        "{MANIFEST_HEADER}\nstream_id\t{stream_id}\ncheckpoint_seq\t{checkpoint_seq}\nterm\t{term}\n"
    );
    let text = format!("{body}check\t{:016x}\n", fnv1a64(body.as_bytes()));
    {
        let mut out = File::create(&tmp)?;
        out.write_all(text.as_bytes())?;
        out.sync_data()?;
    }
    std::fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(())
}

/// Parse the manifest: (stream id, checkpoint seq, term).
///
/// Anything malformed — bad key, bad value, missing key, checksum
/// mismatch — comes back as `InvalidData`, which [`Wal::open_with`] treats
/// as "rebuild from the segment headers", not a hard failure. Only a
/// *future manifest version* stays fatal ("newer than supported"), since
/// that is a healthy file this build must not reinterpret.
fn read_manifest(path: &Path) -> io::Result<(u64, u64, u64)> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_HEADER) => {}
        // A *well-formed* future version header stays fatal; a mangled one
        // (random corruption that happens to keep the prefix) is treated
        // as corruption like any other.
        Some(l)
            if l.strip_prefix("#deepdive-wal-manifest-v")
                .is_some_and(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit())) =>
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: WAL manifest version {l:?} is newer than supported \
                     ({MANIFEST_HEADER})",
                    path.display()
                ),
            ));
        }
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a deepdive WAL manifest", path.display()),
            ));
        }
    }
    let mut stream_id = None;
    let mut checkpoint_seq = None;
    let mut term = 0u64; // absent in pre-term manifests
    let mut checked = false;
    let mut consumed = MANIFEST_HEADER.len() + 1;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let corrupt = |why: &str| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {why}: {line:?}", path.display()),
            )
        };
        let (key, value) = line
            .split_once('\t')
            .ok_or_else(|| corrupt("manifest line is not key<TAB>value"))?;
        if key == "check" {
            let want = u64::from_str_radix(value, 16)
                .map_err(|_| corrupt("manifest checksum is not hex"))?;
            if fnv1a64(&text.as_bytes()[..consumed]) != want {
                return Err(corrupt("manifest checksum mismatch"));
            }
            checked = true;
            continue;
        }
        consumed += line.len() + 1;
        let value: u64 = value
            .parse()
            .map_err(|_| corrupt("manifest value is not a u64"))?;
        match key {
            "stream_id" => stream_id = Some(value),
            "checkpoint_seq" => checkpoint_seq = Some(value),
            "term" => term = value,
            _ => return Err(corrupt("unrecognized manifest key")),
        }
    }
    if !checked {
        // Without a verified checksum the values cannot be trusted over
        // the segment headers — this also migrates pre-checksum manifests
        // through the rebuild path exactly once.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: manifest is missing its checksum line", path.display()),
        ));
    }
    match (stream_id, checkpoint_seq) {
        (Some(s), Some(c)) => Ok((s, c, term)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: manifest is missing a required key", path.display()),
        )),
    }
}

/// Reconstruct manifest state by scanning `seg-*.wal` headers: stream id
/// from the (unanimous) headers, checkpoint seq and term from the maximum
/// snapshots, checkpoint clamped up to the base seq (records below the
/// base were compacted away, which only happens once checkpointed). With
/// no segments at all there is no history to protect, so a fresh identity
/// is minted. The caller re-persists the result.
fn rebuild_manifest(dir: &Path, options: &WalOptions) -> io::Result<(u64, u64, u64)> {
    let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_seq) = parse_segment_name(&entry.file_name().to_string_lossy()) {
            seg_files.push((first_seq, entry.path()));
        }
    }
    seg_files.sort();
    if seg_files.is_empty() {
        let stream_id = if options.fresh_stream {
            random_stream_id()
        } else {
            0
        };
        return Ok((stream_id, 0, 0));
    }
    let base_seq = seg_files[0].0;
    let mut stream_id = None;
    let mut checkpoint_seq = 0u64;
    let mut term = 0u64;
    for (first_seq, path) in &seg_files {
        let header = read_header(path)?;
        if header.first_seq != *first_seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: segment header claims first seq {} but the file is \
                     named for seq {first_seq}",
                    path.display(),
                    header.first_seq
                ),
            ));
        }
        match stream_id {
            None => stream_id = Some(header.stream_id),
            Some(prev) if prev != header.stream_id => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{}: segment stream id {:016x} disagrees with a \
                         sibling's {prev:016x}; cannot rebuild the manifest",
                        path.display(),
                        header.stream_id
                    ),
                ));
            }
            Some(_) => {}
        }
        checkpoint_seq = checkpoint_seq.max(header.checkpoint_seq);
        term = term.max(header.term);
    }
    Ok((
        stream_id.expect("at least one segment"),
        checkpoint_seq.max(base_seq),
        term,
    ))
}

/// Write an empty segment (atomically, via temp + rename) whose first seq
/// is also its checkpoint seq.
fn write_fresh_segment(path: &Path, stream_id: u64, seq: u64, term: u64) -> io::Result<()> {
    let tmp = path.with_extension("wal.tmp");
    {
        let mut out = File::create(&tmp)?;
        out.write_all(&header_bytes(stream_id, seq, seq, term))?;
        out.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir)?;
    }
    Ok(())
}

/// fsync a directory so renames/creations/unlinks inside it are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// A random nonzero stream id, seeded from the OS (`RandomState` is
/// randomly keyed per process) — no RNG dependency needed.
fn random_stream_id() -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    loop {
        let mut h = RandomState::new().build_hasher();
        h.write_u64(std::process::id() as u64);
        let v = h.finish();
        if v != 0 {
            return v;
        }
    }
}

/// Read as many bytes as available into `buf`; returns how many were read
/// (short only at EOF).
fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Read one v2 frame from disk. `Ok(None)` at clean EOF; `Err` on a torn
/// or corrupt frame (`UnexpectedEof` for a short read, `InvalidData` for
/// checksum/length/version trouble — a checksum-valid unknown version says
/// "newer than supported" so callers can fail loud instead of truncating).
fn read_disk_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    let got = read_fully(r, &mut header)?;
    if got == 0 {
        return Ok(None);
    }
    if got < header.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "torn frame header",
        ));
    }
    let version = header[0];
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
    let checksum = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt frame length",
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_fully(r, &mut payload)?;
    if got < payload.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "torn frame payload",
        ));
    }
    let checksum_ok = fnv1a64(&payload) == checksum;
    if version != RECORD_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            if checksum_ok {
                format!("WAL record version {version} is newer than supported ({RECORD_VERSION})")
            } else {
                "corrupt record version byte".to_string()
            },
        ));
    }
    if !checksum_ok {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dd-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn injector() -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new())
    }

    /// Hand-write a 36-byte v2 header, as an older build would have.
    fn header_bytes_v2(stream_id: u64, first_seq: u64, checkpoint_seq: u64) -> [u8; 36] {
        let mut h = [0u8; 36];
        h[0..8].copy_from_slice(MAGIC_V2);
        h[8..12].copy_from_slice(&COMPAT_FORMAT_VERSION.to_le_bytes());
        h[12..20].copy_from_slice(&stream_id.to_le_bytes());
        h[20..28].copy_from_slice(&first_seq.to_le_bytes());
        h[28..36].copy_from_slice(&checkpoint_seq.to_le_bytes());
        h
    }

    /// The on-disk path of the newest (active) segment.
    fn active_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(&p.file_name().unwrap().to_string_lossy()).is_some())
            .collect();
        segs.sort();
        segs.pop().expect("at least one segment")
    }

    fn segment_count(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                parse_segment_name(&e.as_ref().unwrap().file_name().to_string_lossy()).is_some()
            })
            .count()
    }

    /// Options that rotate after every record (any frame crosses 1 byte).
    fn tiny_segments(retain: u64) -> WalOptions {
        WalOptions {
            retain_records: retain,
            fresh_stream: true,
            segment_bytes: 1,
        }
    }

    #[test]
    fn append_and_recover_round_trips() {
        let dir = tmpdir("roundtrip");
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"{\"rows\":{}}", &[0xFF, 0x00, 0x7F]];
        let stream;
        {
            let (mut wal, rec) = Wal::open(&dir, injector()).unwrap();
            assert!(rec.records.is_empty());
            assert!(!rec.torn_tail);
            stream = wal.stream_id();
            assert_ne!(stream, 0, "primary WAL mints a nonzero stream id");
            for (i, p) in payloads.iter().enumerate() {
                assert_eq!(
                    wal.append(p).unwrap(),
                    i as u64,
                    "seqs are assigned in order"
                );
            }
            assert_eq!(wal.records(), payloads.len() as u64);
        }
        let (wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.records, payloads);
        assert_eq!(rec.first_pending_seq, 0);
        assert_eq!(wal.records(), payloads.len() as u64);
        assert_eq!(wal.bytes(), rec.good_bytes);
        assert_eq!(wal.stream_id(), stream, "stream id survives reopen");
    }

    #[test]
    fn append_batch_is_one_durable_unit() {
        let dir = tmpdir("batch");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        let first = wal
            .append_batch(&[b"one".as_slice(), b"two", b"three"])
            .unwrap();
        assert_eq!(first, 0);
        assert_eq!(wal.next_seq(), 3, "seqs are contiguous across the batch");
        assert_eq!(wal.append_batch(&[]).unwrap(), 3, "empty batch is a no-op");
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(
            rec.records,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn batch_fsync_failure_rolls_back_the_whole_batch() {
        let dir = tmpdir("batch-fsync");
        let faults = injector();
        let (mut wal, _) = Wal::open(&dir, faults.clone()).unwrap();
        wal.append(b"durable").unwrap();

        faults.arm(points::WAL_FSYNC, 1);
        let err = wal
            .append_batch(&[b"a".as_slice(), b"b", b"c"])
            .unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        assert_eq!(wal.records(), 1, "no batch record was counted");
        assert!(!wal.poisoned(), "rollback succeeded");

        wal.append(b"after the failure").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.records,
            vec![b"durable".to_vec(), b"after the failure".to_vec()]
        );
    }

    #[test]
    fn rotation_splits_segments_and_reads_span_them() {
        let dir = tmpdir("rotate");
        let (mut wal, _) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        for i in 0..5u32 {
            wal.append(format!("record {i}").as_bytes()).unwrap();
        }
        assert_eq!(wal.segments(), 5, "one record per segment at threshold 1");

        // One read_frames call crosses every segment boundary.
        let (frames, next) = wal.read_frames(0, usize::MAX).unwrap();
        assert_eq!(next, 5);
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&frames);
        for i in 0..5u32 {
            assert_eq!(
                dec.next().unwrap().unwrap(),
                format!("record {i}").as_bytes()
            );
        }
        assert_eq!(dec.next().unwrap(), None);

        // max_bytes still honored mid-stream.
        let (_, next) = wal.read_frames(1, 1).unwrap();
        assert_eq!(next, 2, "at least one frame ships");

        drop(wal);
        let (wal, rec) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        assert_eq!(rec.records.len(), 5, "recovery scans all segments");
        assert_eq!(wal.next_seq(), 5);
    }

    #[test]
    fn batch_rotation_keeps_the_batch_atomic() {
        let dir = tmpdir("batch-rotate");
        let (mut wal, _) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        wal.append_batch(&[b"a".as_slice(), b"b", b"c", b"d"])
            .unwrap();
        assert!(wal.segments() >= 4, "the batch rotated mid-write");
        drop(wal);
        let (_, rec) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        assert_eq!(rec.records.len(), 4);
    }

    #[test]
    fn rollback_across_a_rotation_deletes_the_new_segments() {
        let dir = tmpdir("rollback-rotate");
        let (mut wal, _) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        wal.append(b"keep me").unwrap();
        let mark = wal.mark();
        let segs_before = wal.segments();
        wal.append_batch(&[b"x".as_slice(), b"y"]).unwrap();
        assert!(wal.segments() > segs_before);
        wal.rollback_to(&mark).unwrap();
        assert_eq!(wal.segments(), segs_before, "new segments unlinked");
        assert_eq!(wal.next_seq(), 1);
        assert_eq!(segment_count(&dir), segs_before, "on disk too");

        assert_eq!(wal.append(b"after the rollback").unwrap(), 1);
        drop(wal);
        let (_, rec) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
        assert_eq!(
            rec.records,
            vec![b"keep me".to_vec(), b"after the rollback".to_vec()]
        );
    }

    #[test]
    fn truncated_final_record_is_dropped_not_fatal() {
        let dir = tmpdir("torn");
        let good_bytes;
        {
            let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
            wal.append(b"first record").unwrap();
            wal.append(b"second record").unwrap();
            good_bytes = wal.bytes();
            wal.append(b"third record, about to be torn").unwrap();
        }
        // Simulate a crash mid-append: cut the active segment inside the
        // third record's payload.
        let path = active_segment(&dir);
        let full = std::fs::metadata(&path).unwrap().len();
        let cut = good_bytes + FRAME_HEADER_BYTES + 4;
        assert!(cut < full);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (mut wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(rec.torn_tail, "tear must be detected");
        assert_eq!(rec.records.len(), 2, "intact records survive");
        assert_eq!(rec.records[0], b"first record");
        assert_eq!(rec.records[1], b"second record");
        assert_eq!(rec.good_bytes, good_bytes);
        assert_eq!(rec.torn_bytes, cut - good_bytes);

        // The segment was truncated back to the last intact record, so new
        // appends land cleanly after it — and reuse the torn record's seq.
        assert_eq!(wal.append(b"post-recovery record").unwrap(), 2);
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2], b"post-recovery record");
    }

    #[test]
    fn corrupted_checksum_drops_the_pending_tail() {
        let dir = tmpdir("cksum");
        {
            let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
            wal.append(b"keep me").unwrap();
            wal.append(b"flip a bit in me").unwrap();
        }
        let path = active_segment(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.records, vec![b"keep me".to_vec()]);
    }

    #[test]
    fn corruption_in_checkpointed_region_is_fatal() {
        let dir = tmpdir("ckpt-corrupt");
        {
            let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
            wal.append(b"checkpointed and shipped").unwrap();
            wal.append(b"pending").unwrap();
            wal.mark_checkpointed(1).unwrap();
        }
        let path = active_segment(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte of the first (checkpoint-owned) record.
        let idx = HEADER_LEN as usize + FRAME_HEADER_BYTES as usize;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = Wal::open(&dir, injector()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("seq 0"),
            "the error names the damaged seq: {err}"
        );
    }

    #[test]
    fn corruption_in_a_sealed_segment_is_fatal() {
        let dir = tmpdir("sealed-corrupt");
        {
            let (mut wal, _) = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap();
            wal.append(b"sealed by rotation").unwrap();
            wal.append(b"also sealed").unwrap();
            wal.append(b"active").unwrap();
        }
        // Corrupt the middle (sealed, still pending) segment: even a
        // pending record must not silently vanish from the middle of the
        // log.
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(&p.file_name().unwrap().to_string_lossy()).is_some())
            .collect();
        segs.sort();
        let mid = &segs[1];
        let mut bytes = std::fs::read(mid).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(mid, &bytes).unwrap();

        let err = Wal::open_with(&dir, injector(), tiny_segments(1024)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("seq 1"),
            "the error names the damaged seq: {err}"
        );
    }

    #[test]
    fn checkpoint_keeps_records_fetchable_and_zeroes_pending() {
        let dir = tmpdir("ckpt");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.mark_checkpointed(2).unwrap();
        assert_eq!(wal.records(), 0, "nothing pending after the flush");
        assert_eq!(wal.physical_records(), 2, "frames stay for followers");

        let (frames, next) = wal.read_frames(0, usize::MAX).unwrap();
        assert_eq!(next, 2);
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&frames);
        assert_eq!(dec.next().unwrap().unwrap(), b"one");
        assert_eq!(dec.next().unwrap().unwrap(), b"two");
        assert_eq!(dec.next().unwrap(), None);

        drop(wal);
        let (wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(rec.records.is_empty(), "checkpointed records do not replay");
        assert_eq!(rec.first_pending_seq, 2);
        assert_eq!(rec.retained, 2);
        assert_eq!(wal.next_seq(), 2, "seqs keep counting after a flush");
    }

    #[test]
    fn compaction_unlinks_whole_checkpointed_segments() {
        let dir = tmpdir("retain");
        let opts = tiny_segments(2);
        let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
        for i in 0..5u32 {
            wal.append(format!("record {i}").as_bytes()).unwrap();
        }
        assert_eq!(wal.segments(), 5);
        wal.mark_checkpointed(5).unwrap();
        assert_eq!(wal.base_seq(), 0, "the flush itself deletes nothing");
        let removed = wal.compact().unwrap();
        assert_eq!(removed, 3, "segments below the horizon unlink whole");
        assert_eq!(wal.base_seq(), 3, "only the last 2 checkpointed remain");
        assert_eq!(wal.next_seq(), 5);
        assert_eq!(wal.compactions(), 1);
        assert_eq!(segment_count(&dir), 2, "the files are gone");

        let (frames, next) = wal.read_frames(3, usize::MAX).unwrap();
        assert_eq!(next, 5);
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&frames);
        assert_eq!(dec.next().unwrap().unwrap(), b"record 3");
        assert_eq!(dec.next().unwrap().unwrap(), b"record 4");

        assert!(
            wal.read_frames(2, usize::MAX).is_err(),
            "seqs below base are gone"
        );

        // Appends continue after compaction, and reopening agrees.
        assert_eq!(wal.append(b"record 5").unwrap(), 5);
        drop(wal);
        let (wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert_eq!(rec.records, vec![b"record 5".to_vec()]);
        assert_eq!(wal.base_seq(), 3);
        assert_eq!(wal.next_seq(), 6);
    }

    #[test]
    fn compaction_rotates_out_a_fully_checkpointed_active_segment() {
        let dir = tmpdir("compact-active");
        let opts = WalOptions {
            retain_records: 0,
            fresh_stream: true,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        };
        let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.mark_checkpointed(2).unwrap();
        let removed = wal.compact().unwrap();
        assert_eq!(removed, 1, "the sealed-then-stale segment is unlinked");
        assert_eq!(wal.base_seq(), 2);
        assert_eq!(wal.physical_records(), 0);
        wal.append(b"three").unwrap();
        drop(wal);
        let (_, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert_eq!(rec.records, vec![b"three".to_vec()]);
    }

    #[test]
    fn crash_mid_compaction_recovers_the_contiguous_suffix() {
        let dir = tmpdir("compact-crash");
        let faults = injector();
        let opts = tiny_segments(0);
        let (mut wal, _) = Wal::open_with(&dir, faults.clone(), opts).unwrap();
        for i in 0..4u32 {
            wal.append(format!("record {i}").as_bytes()).unwrap();
        }
        wal.mark_checkpointed(4).unwrap();
        faults.arm(points::WAL_COMPACT_CRASH, 1);
        let err = wal.compact().unwrap_err();
        assert!(err.to_string().contains("injected compaction crash"));
        // Only a prefix of the stale segments was unlinked; the remainder
        // is contiguous, so a reopen (restart) completes the compaction.
        drop(wal);
        let (wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(wal.base_seq(), 4, "open finished the compaction");
        assert_eq!(wal.next_seq(), 4);
    }

    #[test]
    fn crash_mid_rotation_with_empty_tail_segment_recovers() {
        let dir = tmpdir("rotate-crash");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        wal.append(b"sealed").unwrap();
        drop(wal);
        // Simulate a crash right after rotation created the new segment
        // but before anything was appended to it: an empty header-only
        // tail segment.
        let (stream_id, _, _) = read_manifest(&dir.join(MANIFEST_FILE)).unwrap();
        let path = dir.join(segment_name(1));
        std::fs::write(&path, header_bytes(stream_id, 1, 0, 0)).unwrap();

        let (mut wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(rec.records, vec![b"sealed".to_vec()]);
        assert!(!rec.torn_tail);
        assert_eq!(wal.segments(), 2);
        assert_eq!(wal.append(b"lands in the empty tail").unwrap(), 1);
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(rec.records.len(), 2);
    }

    #[test]
    fn read_frames_honors_max_bytes_but_returns_at_least_one() {
        let dir = tmpdir("window");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        let big = vec![0xABu8; 4096];
        for _ in 0..4 {
            wal.append(&big).unwrap();
        }
        // A window smaller than one frame still ships one frame.
        let (frames, next) = wal.read_frames(0, 16).unwrap();
        assert_eq!(next, 1);
        assert_eq!(frames.len(), FRAME_HEADER_BYTES as usize + big.len());
        // A window of ~2.5 frames ships 2.
        let (_, next) = wal.read_frames(0, 2 * 4200).unwrap();
        assert_eq!(next, 2);
        // From the end: empty.
        let (frames, next) = wal.read_frames(4, 1024).unwrap();
        assert!(frames.is_empty());
        assert_eq!(next, 4);
    }

    #[test]
    fn future_format_version_fails_with_a_clear_error() {
        let dir = tmpdir("future-format");
        std::fs::create_dir_all(&dir).unwrap();
        let mut header = header_bytes_v2(42, 0, 0);
        header[8..12].copy_from_slice(&4u32.to_le_bytes());
        std::fs::write(dir.join(segment_name(0)), header).unwrap();

        let err = Wal::open(&dir, injector()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("format version 4"),
            "names the version: {err}"
        );
        assert!(err.to_string().contains("newer than supported"));
    }

    #[test]
    fn future_manifest_version_fails_with_a_clear_error() {
        let dir = tmpdir("future-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "#deepdive-wal-manifest-v9\nstream_id\t1\ncheckpoint_seq\t0\n",
        )
        .unwrap();
        let err = Wal::open(&dir, injector()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("newer than supported"),
            "names the problem: {err}"
        );
    }

    #[test]
    fn future_record_version_fails_loud_not_torn() {
        let dir = tmpdir("future-record");
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = header_bytes_v2(42, 0, 0).to_vec();
        let payload = b"from the future";
        bytes.push(2); // unknown record version
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(dir.join(segment_name(0)), &bytes).unwrap();

        let err = Wal::open(&dir, injector()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("record version 2"),
            "names the record version: {err}"
        );
    }

    #[test]
    fn fsync_fault_rolls_back_and_log_stays_intact() {
        let dir = tmpdir("fsync");
        let faults = injector();
        let (mut wal, _) = Wal::open(&dir, faults.clone()).unwrap();
        wal.append(b"durable").unwrap();

        faults.arm(points::WAL_FSYNC, 1);
        let err = wal.append(b"never acked").unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"));
        assert_eq!(wal.records(), 1, "failed append not counted");
        assert!(!wal.poisoned(), "rollback succeeded");

        // The log is still appendable and the failed record left no trace.
        wal.append(b"after the failure").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.records,
            vec![b"durable".to_vec(), b"after the failure".to_vec()]
        );
    }

    #[test]
    fn torn_write_fault_poisons_until_checkpoint_repair() {
        let dir = tmpdir("tornwrite");
        let faults = injector();
        let (mut wal, _) = Wal::open(&dir, faults.clone()).unwrap();
        wal.append(b"acked").unwrap();

        faults.arm(points::WAL_TORN_WRITE, 1);
        assert!(wal.append(b"torn mid-write").is_err());
        assert!(wal.poisoned());
        assert!(
            wal.append(b"refused").is_err(),
            "poisoned log refuses appends"
        );

        // A checkpoint flush repairs the unknown tail and resumes service.
        wal.mark_checkpointed(wal.next_seq()).unwrap();
        assert!(!wal.poisoned());
        assert_eq!(wal.records(), 0);
        wal.append(b"after repair").unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(rec.records, vec![b"after repair".to_vec()]);
    }

    #[test]
    fn torn_write_poison_recovers_across_restart() {
        let dir = tmpdir("tornwrite-restart");
        let faults = injector();
        {
            let (mut wal, _) = Wal::open(&dir, faults.clone()).unwrap();
            wal.append(b"acked").unwrap();
            faults.arm(points::WAL_TORN_WRITE, 1);
            assert!(wal.append(b"torn mid-write").is_err());
        }
        // Reopening (a restart) recovers the acked prefix; the torn,
        // never-acknowledged record does not materialize.
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(rec.torn_tail);
        assert_eq!(rec.records, vec![b"acked".to_vec()]);
    }

    #[test]
    fn rollback_to_discards_records_appended_since() {
        let dir = tmpdir("rollback");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        wal.append(b"keep me").unwrap();
        let mark = wal.mark();
        wal.append(b"negatively acked").unwrap();
        wal.rollback_to(&mark).unwrap();
        assert_eq!(wal.records(), 1);
        assert!(!wal.poisoned());

        // The seq is reused and replay never sees the rolled-back record.
        assert_eq!(wal.append(b"after the rollback").unwrap(), 1);
        drop(wal);
        let (_, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.torn_tail);
        assert_eq!(
            rec.records,
            vec![b"keep me".to_vec(), b"after the rollback".to_vec()]
        );
    }

    #[test]
    fn adopt_stream_only_on_an_empty_log() {
        let dir = tmpdir("adopt");
        let opts = WalOptions {
            fresh_stream: false,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert_eq!(wal.stream_id(), 0, "follower WAL starts unadopted");
        wal.adopt_stream(0xDEADBEEF, 7).unwrap();
        assert_eq!(wal.stream_id(), 0xDEADBEEF);
        assert_eq!(wal.next_seq(), 7);
        assert_eq!(wal.append(b"first replicated").unwrap(), 7);
        assert!(
            wal.adopt_stream(0xBEEF, 0).is_err(),
            "cannot re-adopt over records"
        );
        drop(wal);
        let (wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert_eq!(wal.stream_id(), 0xDEADBEEF, "adoption is durable");
        assert_eq!(rec.first_pending_seq, 7);
        assert_eq!(rec.records, vec![b"first replicated".to_vec()]);
    }

    #[test]
    fn decoder_handles_splits_heartbeats_and_corruption() {
        let mut wire = Vec::new();
        wire.push(frame::HEARTBEAT);
        wire.extend_from_slice(&frame::encode(b"hello"));
        wire.push(frame::HEARTBEAT);
        wire.push(frame::HEARTBEAT);
        wire.extend_from_slice(&frame::encode(b""));
        wire.extend_from_slice(&frame::encode(&[0u8, 1, 2, 3]));

        // Feed one byte at a time: every frame still decodes exactly once.
        let mut dec = frame::FrameDecoder::new();
        let mut out = Vec::new();
        for b in &wire {
            dec.feed(&[*b]);
            while let Some(p) = dec.next().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, vec![b"hello".to_vec(), Vec::new(), vec![0u8, 1, 2, 3]]);

        // A flipped payload bit is Corrupt, not a wrong record.
        let mut bad = frame::encode(b"payload");
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&bad);
        assert!(matches!(dec.next(), Err(frame::FrameError::Corrupt(_))));

        // A checksum-valid frame under an unknown version is FutureVersion.
        let mut future = frame::encode(b"payload");
        future[0] = 9;
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&future);
        assert_eq!(dec.next(), Err(frame::FrameError::FutureVersion(9)));
    }

    #[test]
    fn non_wal_file_is_refused() {
        let dir = tmpdir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(segment_name(0)), b"definitely not a WAL file").unwrap();
        assert!(Wal::open(&dir, injector()).is_err());

        // A junk manifest is *not* refused: with no segments to contradict
        // it, the log rebuilds as fresh (see the corruption tests below).
        let dir = tmpdir("manifest-junk");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), b"not a manifest").unwrap();
        let (wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(rec.manifest_rebuilt);
        assert_ne!(wal.stream_id(), 0);
    }

    #[test]
    fn terms_persist_and_stamp_new_segments() {
        let dir = tmpdir("terms");
        let (mut wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(wal.term(), 0);
        assert!(!rec.manifest_rebuilt);
        wal.append(b"one").unwrap();
        wal.set_term(3).unwrap();
        assert!(wal.set_term(2).is_err(), "terms never move backwards");
        wal.set_term(3).unwrap(); // idempotent
        drop(wal);

        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(wal.term(), 3, "term survives reopen via the manifest");
        // A checkpoint mark keeps the term.
        wal.mark_checkpointed(1).unwrap();
        drop(wal);
        let (wal, _) = Wal::open(&dir, injector()).unwrap();
        assert_eq!(wal.term(), 3);
        assert_eq!(wal.checkpoint_seq(), 1);
    }

    #[test]
    fn corrupt_manifest_rebuilds_from_segment_headers() {
        let dir = tmpdir("manifest-rebuild");
        let opts = WalOptions {
            segment_bytes: 1, // rotate every record
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
        let stream = wal.stream_id();
        for p in [b"a".as_slice(), b"b", b"c", b"d"] {
            wal.append(p).unwrap();
        }
        wal.set_term(2).unwrap();
        wal.mark_checkpointed(2).unwrap();
        // Force new segments *after* the checkpoint mark so at least one
        // header snapshots checkpoint_seq = 2 and term = 2.
        wal.append(b"e").unwrap();
        wal.append(b"f").unwrap();
        drop(wal);

        for junk in [
            &b"#deepdive-wal-manifest-v1\nstream_id\tnope\n"[..],
            b"#deepdive-wal-manifest-v1\nstream_id\t1\ncheckpoint_seq\t1\nterm\t1\ncheck\t0000000000000000\n",
            b"\xff\xfe garbage",
            b"",
        ] {
            std::fs::write(dir.join(MANIFEST_FILE), junk).unwrap();
            let (wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
            assert!(rec.manifest_rebuilt, "rebuilt for {junk:?}");
            assert_eq!(wal.stream_id(), stream, "stream id from the headers");
            assert_eq!(wal.term(), 2, "term from the newest header snapshot");
            assert_eq!(wal.next_seq(), 6);
            assert!(
                wal.checkpoint_seq() <= 2,
                "rebuilt checkpoint never overshoots the true mark"
            );
            drop(wal);
            // The rebuilt manifest is durable: the next open is clean.
            let (_, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
            assert!(!rec.manifest_rebuilt);
        }

        // A *missing* manifest rebuilds too (crash mid-resync).
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let (wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
        assert!(rec.manifest_rebuilt);
        assert_eq!(wal.stream_id(), stream);
        assert_eq!(wal.next_seq(), 6);
    }

    #[test]
    fn reset_stream_reseeds_over_existing_records() {
        let dir = tmpdir("reset-stream");
        let (mut wal, _) = Wal::open(&dir, injector()).unwrap();
        for p in [b"a".as_slice(), b"b", b"c"] {
            wal.append(p).unwrap();
        }
        // Resync: a verified checkpoint now owns everything through seq
        // 41; the log restarts empty on the primary's stream and term.
        wal.reset_stream(0xC0FFEE, 42, 5).unwrap();
        assert_eq!(wal.stream_id(), 0xC0FFEE);
        assert_eq!(wal.next_seq(), 42);
        assert_eq!(wal.checkpoint_seq(), 42);
        assert_eq!(wal.term(), 5);
        assert_eq!(wal.records(), 0);
        assert_eq!(wal.append(b"post-resync").unwrap(), 42);
        drop(wal);
        let (wal, rec) = Wal::open(&dir, injector()).unwrap();
        assert!(!rec.manifest_rebuilt);
        assert_eq!(wal.stream_id(), 0xC0FFEE);
        assert_eq!(wal.term(), 5);
        assert_eq!(rec.records, vec![b"post-resync".to_vec()]);
    }

    #[test]
    fn verify_passes_clean_and_catches_bitrot() {
        let dir = tmpdir("scrub");
        let opts = WalOptions {
            segment_bytes: 32,
            ..WalOptions::default()
        };
        let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
        for i in 0..8u8 {
            wal.append(&[i; 24]).unwrap();
        }
        assert_eq!(wal.verify().unwrap(), 8);

        // Flip one payload bit in the *first* (sealed) segment, behind the
        // append path's back.
        let path = dir.join(segment_name(0));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = wal.verify().unwrap_err();
        assert!(
            err.to_string().contains("checksum mismatch"),
            "names the corruption: {err}"
        );
        assert!(err.to_string().contains("seg-"), "names the file: {err}");
    }

    #[test]
    fn injected_disk_faults_fail_appends_with_real_errnos() {
        let dir = tmpdir("disk-faults");
        let faults = injector();
        let (mut wal, _) = Wal::open(&dir, faults.clone()).unwrap();
        wal.append(b"fine").unwrap();

        faults.arm(points::DISK_ENOSPC, 1);
        let err = wal.append(b"no space").unwrap_err();
        assert!(deepdive_core::faults::is_durable_storage_error(&err));
        assert!(err.to_string().contains("seg-"), "names the path: {err}");
        assert!(!wal.poisoned(), "a refused write rolls back clean");

        faults.arm(points::DISK_EIO, 1);
        let err = wal.append(b"io error").unwrap_err();
        assert!(deepdive_core::faults::is_durable_storage_error(&err));

        // The log still works, and a bit-flip is silent until verify.
        wal.append(b"healthy again").unwrap();
        faults.arm(points::DISK_BITFLIP, 1);
        wal.append(b"silently corrupted").unwrap();
        let err = wal.verify().unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary manifest corruption — truncation, bit flips, garbage
        /// splices — never panics and never loses log records: open always
        /// succeeds and recovers every appended payload (give or take
        /// where the rebuilt checkpoint mark lands, never *above* the true
        /// one).
        #[test]
        fn arbitrary_manifest_corruption_recovers(
            flips in proptest::collection::vec((0usize..256, 0u8..=255), 1..8),
            truncate_to in prop_oneof![Just(None), (0usize..128).prop_map(Some)],
            ckpt_pick in 0u64..6,
        ) {
            let dir = tmpdir("prop-manifest");
            let opts = WalOptions {
                segment_bytes: 16,
                ..WalOptions::default()
            };
            let payloads: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 12]).collect();
            {
                let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
                for p in &payloads {
                    wal.append(p).unwrap();
                }
                wal.mark_checkpointed(ckpt_pick.min(5)).unwrap();
            }
            let path = dir.join(MANIFEST_FILE);
            let mut bytes = std::fs::read(&path).unwrap();
            if let Some(t) = truncate_to {
                bytes.truncate(t);
            }
            for (pos, val) in flips {
                if !bytes.is_empty() {
                    let i = pos % bytes.len();
                    bytes[i] ^= val;
                }
            }
            std::fs::write(&path, &bytes).unwrap();

            let opened = Wal::open_with(&dir, injector(), opts);
            // The only legal refusal is a *well-formed* future manifest
            // version (corruption can craft one by flipping the digit).
            let (mut wal, rec) = match opened {
                Ok(ok) => ok,
                Err(e) => {
                    prop_assert!(
                        e.to_string().contains("newer than supported"),
                        "only future versions may be refused, got: {e}"
                    );
                    return Ok(());
                }
            };
            prop_assert_eq!(wal.next_seq(), 5);
            prop_assert!(wal.checkpoint_seq() <= ckpt_pick.min(5));
            // Every payload is still intact on disk.
            let (bytes, through) = wal.read_frames(wal.base_seq(), usize::MAX).unwrap();
            prop_assert_eq!(through, 5);
            let mut dec = frame::FrameDecoder::new();
            dec.feed(&bytes);
            let mut streamed = Vec::new();
            while let Some(p) = dec.next().unwrap() {
                streamed.push(p);
            }
            prop_assert_eq!(&streamed[..], &payloads[..]);
            let _ = rec;
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Replay parity is invariant to where segment boundaries fall:
        /// whatever the segment size, a checkpoint position, and a
        /// compaction pass, reopening recovers exactly the pending suffix
        /// and `read_frames` serves every retained record to a follower.
        #[test]
        fn replay_parity_across_arbitrary_segment_boundaries(
            lens in proptest::collection::vec(0usize..96, 1..20),
            segment_bytes in 1u64..400,
            ckpt_pick in 0u64..1000,
            compact_before_reopen in any::<bool>(),
        ) {
            let dir = tmpdir("prop-seg");
            let opts = WalOptions {
                retain_records: 0,
                fresh_stream: true,
                segment_bytes,
            };
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    (0..n).map(|j| (i * 31 + j) as u8).collect()
                })
                .collect();
            let n = payloads.len() as u64;
            let through = ckpt_pick % (n + 1);
            {
                let (mut wal, _) = Wal::open_with(&dir, injector(), opts).unwrap();
                for p in &payloads {
                    wal.append(p).unwrap();
                }
                wal.mark_checkpointed(through).unwrap();
                if compact_before_reopen {
                    wal.compact().unwrap();
                }
            }
            let (mut wal, rec) = Wal::open_with(&dir, injector(), opts).unwrap();
            prop_assert!(!rec.torn_tail);
            prop_assert_eq!(&rec.records, &payloads[through as usize..]);
            prop_assert_eq!(rec.first_pending_seq, through);
            prop_assert_eq!(wal.next_seq(), n);
            // Every record still on disk streams back byte-identically,
            // wherever the segment boundaries landed.
            let from = wal.base_seq();
            let (bytes, served_through) = wal.read_frames(from, usize::MAX).unwrap();
            prop_assert_eq!(served_through, n);
            let mut dec = frame::FrameDecoder::new();
            dec.feed(&bytes);
            let mut streamed = Vec::new();
            while let Some(p) = dec.next().unwrap() {
                streamed.push(p);
            }
            prop_assert_eq!(&streamed[..], &payloads[from as usize..]);
        }
    }
}
