//! Immutable serving snapshots and the epoch-swap cell readers load them
//! through.
//!
//! The consistency model is the paper's §4.2 materialization stance applied
//! to serving: readers never see the database mid-update. Every query is
//! answered from one [`ServeSnapshot`] — an immutable view of relations plus
//! marginals captured together — and the single writer publishes a new
//! snapshot atomically by swapping an `Arc` pointer. A reader that loaded
//! epoch N keeps answering from epoch N even while epoch N+1 is being built;
//! there is no torn state in between.

use deepdive_core::DeepDive;
use deepdive_sampler::GibbsOptions;
use deepdive_storage::{value_to_tsv, DatabaseSnapshot, Row};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// FNV-1a over the snapshot's logical content; two snapshots with the same
/// relations and marginals fingerprint identically, and any visible
/// difference (a row, a count, a probability) changes it. Tests use this to
/// prove reads are never torn: every observed epoch must map to exactly one
/// fingerprint.
fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Gibbs sweeps collected by every served capture.
pub const REFRESH_SAMPLES: usize = 200;
/// Burn-in sweeps discarded before [`REFRESH_SAMPLES`] are collected.
pub const REFRESH_BURN_IN: usize = 20;

/// The sampling options every served capture uses: the run's seed and
/// evidence clamping at one fixed sweep budget. Each capture reruns Gibbs
/// from the seed over the whole compiled graph, so with one budget the
/// served marginals are a function of the graph alone — not of how the
/// records that built it were grouped into epochs, replayed, or shipped.
pub fn serving_options(inference: &GibbsOptions) -> GibbsOptions {
    GibbsOptions {
        samples: REFRESH_SAMPLES,
        burn_in: REFRESH_BURN_IN,
        ..inference.clone()
    }
}

/// One immutable, internally consistent view the daemon serves from.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// Monotonic generation; bumped by every applied ingest.
    pub epoch: u64,
    /// All relations, frozen at capture time.
    pub db: DatabaseSnapshot,
    /// Query-relation marginals from the same state: relation → sorted
    /// `(row, probability)`.
    pub marginals: BTreeMap<String, Vec<(Row, f64)>>,
    /// Content hash over relations and marginals (see [`fingerprint`]).
    pub fingerprint: u64,
}

fn fingerprint(db: &DatabaseSnapshot, marginals: &BTreeMap<String, Vec<(Row, f64)>>) -> u64 {
    let mut h = FNV_OFFSET;
    for name in db.relation_names() {
        let rel = db.relation(name).expect("name came from the snapshot");
        h = fnv1a64(name.as_bytes(), h);
        for (row, count) in rel.rows() {
            for v in row.iter() {
                h = fnv1a64(value_to_tsv(v).as_bytes(), h);
            }
            h = fnv1a64(&count.to_le_bytes(), h);
        }
    }
    for (name, rows) in marginals {
        h = fnv1a64(name.as_bytes(), h);
        for (row, p) in rows {
            for v in row.iter() {
                h = fnv1a64(value_to_tsv(v).as_bytes(), h);
            }
            h = fnv1a64(&p.to_bits().to_le_bytes(), h);
        }
    }
    h
}

impl ServeSnapshot {
    /// Capture relations + marginals from the writer's state. The caller
    /// holds the writer lock, so nothing mutates `dd` mid-capture.
    pub fn capture(dd: &DeepDive, epoch: u64, opts: &GibbsOptions) -> ServeSnapshot {
        let db = dd.db.snapshot();
        let mut marginals: BTreeMap<String, Vec<(Row, f64)>> = BTreeMap::new();
        for ((relation, row), p) in dd.snapshot_marginals(opts) {
            marginals.entry(relation).or_default().push((row, p));
        }
        for rows in marginals.values_mut() {
            rows.sort_by(|a, b| a.0.cmp(&b.0));
        }
        let fingerprint = fingerprint(&db, &marginals);
        ServeSnapshot {
            epoch,
            db,
            marginals,
            fingerprint,
        }
    }

    /// Marginal rows for one query relation (empty slice when unknown).
    pub fn marginal_rows(&self, relation: &str) -> &[(Row, f64)] {
        self.marginals
            .get(relation)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total marginal rows across all query relations.
    pub fn total_marginals(&self) -> usize {
        self.marginals.values().map(Vec::len).sum()
    }
}

/// How many retired snapshots [`SnapshotCell`] keeps reachable by epoch.
/// Pinned-epoch pagination (`/relations?epoch=N`) works within this window;
/// older epochs answer `410 Gone`. Snapshots are `Arc`s over mostly-shared
/// column storage, so the ring holds references, not copies.
pub const RETAINED_EPOCHS: usize = 8;

/// The epoch-swap cell: readers `load` an `Arc` under a briefly held read
/// lock; the writer `store`s the next snapshot under the write lock. Readers
/// hold the lock only for the pointer clone, never for request handling, so
/// a slow response cannot block publication (and vice versa).
///
/// A short history ring of retired snapshots backs pinned-epoch pagination:
/// a client that captured epoch N on page 1 can keep paging epoch N across
/// swaps until it falls out of the ring.
#[derive(Debug)]
pub struct SnapshotCell {
    current: RwLock<Arc<ServeSnapshot>>,
    retired: Mutex<VecDeque<Arc<ServeSnapshot>>>,
}

impl SnapshotCell {
    pub fn new(snapshot: ServeSnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(snapshot)),
            retired: Mutex::new(VecDeque::with_capacity(RETAINED_EPOCHS)),
        }
    }

    /// The current snapshot; the returned `Arc` stays valid (and immutable)
    /// across any number of subsequent swaps.
    pub fn load(&self) -> Arc<ServeSnapshot> {
        self.current.read().clone()
    }

    /// Publish a new snapshot. All loads strictly after this return it; the
    /// outgoing snapshot is retired into the history ring.
    pub fn store(&self, snapshot: ServeSnapshot) {
        let next = Arc::new(snapshot);
        let prev = {
            let mut cur = self.current.write();
            std::mem::replace(&mut *cur, next)
        };
        let mut ring = self.retired.lock();
        if ring.len() >= RETAINED_EPOCHS {
            ring.pop_front();
        }
        ring.push_back(prev);
    }

    /// The snapshot at `epoch`, if it is the current one or still retained.
    pub fn at_epoch(&self, epoch: u64) -> Option<Arc<ServeSnapshot>> {
        let cur = self.load();
        if cur.epoch == epoch {
            return Some(cur);
        }
        self.retired
            .lock()
            .iter()
            .rev()
            .find(|s| s.epoch == epoch)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepdive_storage::{row, Database, Schema, ValueType};

    fn snapshot_of(db: &Database, epoch: u64) -> ServeSnapshot {
        let db = db.snapshot();
        let fingerprint = fingerprint(&db, &BTreeMap::new());
        ServeSnapshot {
            epoch,
            db,
            marginals: BTreeMap::new(),
            fingerprint,
        }
    }

    #[test]
    fn fingerprint_tracks_visible_content() {
        let db = Database::new();
        db.create_relation(
            Schema::build("R")
                .col("x", ValueType::Int)
                .col("t", ValueType::Text)
                .finish(),
        )
        .unwrap();
        db.insert("R", row![1i64, "a"]).unwrap();
        let s1 = snapshot_of(&db, 0);
        let s1_again = snapshot_of(&db, 0);
        assert_eq!(s1.fingerprint, s1_again.fingerprint, "deterministic");

        db.insert("R", row![2i64, "b"]).unwrap();
        let s2 = snapshot_of(&db, 1);
        assert_ne!(s1.fingerprint, s2.fingerprint, "a new row changes it");
    }

    #[test]
    fn cell_swap_preserves_loaded_snapshots() {
        let db = Database::new();
        db.create_relation(Schema::build("R").col("x", ValueType::Int).finish())
            .unwrap();
        db.insert("R", row![1i64]).unwrap();
        let cell = SnapshotCell::new(snapshot_of(&db, 0));

        let before = cell.load();
        db.insert("R", row![2i64]).unwrap();
        cell.store(snapshot_of(&db, 1));
        let after = cell.load();

        assert_eq!(before.epoch, 0);
        assert_eq!(after.epoch, 1);
        // The pre-swap Arc still reads the old, complete state.
        assert_eq!(before.db.relation("R").unwrap().len(), 1);
        assert_eq!(after.db.relation("R").unwrap().len(), 2);
        assert_ne!(before.fingerprint, after.fingerprint);
    }

    #[test]
    fn retired_epochs_stay_reachable_within_the_ring() {
        let db = Database::new();
        db.create_relation(Schema::build("R").col("x", ValueType::Int).finish())
            .unwrap();
        let cell = SnapshotCell::new(snapshot_of(&db, 0));
        for e in 1..=(RETAINED_EPOCHS as u64 + 3) {
            db.insert("R", row![e as i64]).unwrap();
            cell.store(snapshot_of(&db, e));
        }
        let newest = RETAINED_EPOCHS as u64 + 3;
        assert_eq!(cell.at_epoch(newest).unwrap().epoch, newest, "current");
        // The oldest retained epoch is newest - RETAINED_EPOCHS.
        let oldest_kept = newest - RETAINED_EPOCHS as u64;
        assert!(cell.at_epoch(oldest_kept).is_some(), "inside the ring");
        assert!(cell.at_epoch(oldest_kept - 1).is_none(), "retired for good");
        // A retained epoch serves its own frozen row count.
        assert_eq!(
            cell.at_epoch(oldest_kept)
                .unwrap()
                .db
                .relation("R")
                .unwrap()
                .len(),
            oldest_kept as usize
        );
    }
}
