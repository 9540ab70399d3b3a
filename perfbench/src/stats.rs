//! Pure arithmetic behind the reported numbers: percentiles and how many
//! samples back them, span self time, ingest batch boundaries rebuilt from
//! ack epochs, and subscription frame replay. Kept free of I/O so the unit
//! tests at the bottom pin every rule.

use serde_json::Value as Json;
use std::collections::BTreeMap;

/// A percentile by the nearest-rank rule, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    /// A tail percentile is trusted only with at least ten samples past it.
    pub fn trusted(&self) -> bool {
        self.beyond >= 10
    }
}

/// Nearest-rank percentile of `values` (`p` in 0..=1); `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    // The epsilon keeps 0.9 * 100 from ceiling to 91 through rounding.
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median (nearest-rank p50); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5).map(|p| p.value)
}

/// A closed time interval, in any consistent unit.
pub type Interval = (f64, f64);

/// Self time of a span: its duration minus the part of it that its
/// children cover. Overlapping children count once; a child that pokes
/// outside its parent only counts where it overlaps.
pub fn self_time(span: Interval, children: &[Interval]) -> f64 {
    let (start, end) = span;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

/// Rebuild group-commit batches from acks. Every ack of one batch carries
/// the batch's final epoch, and a batch of `k` records advances the epoch
/// by `k`, so grouping acks by epoch and checking each group against the
/// epoch step recovers the batches exactly. `acks` holds `(doc, epoch)`;
/// the result lists each batch's docs (ascending) in epoch order.
pub fn batches_from_acks(
    acks: &[(usize, u64)],
    base_epoch: u64,
) -> Result<Vec<Vec<usize>>, String> {
    let mut by_epoch: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for &(doc, epoch) in acks {
        by_epoch.entry(epoch).or_default().push(doc);
    }
    let mut prev = base_epoch;
    let mut out = Vec::with_capacity(by_epoch.len());
    for (epoch, mut docs) in by_epoch {
        let step = epoch.saturating_sub(prev);
        if step != docs.len() as u64 {
            return Err(format!(
                "epoch {epoch} acks {} doc(s) but the epoch advanced by {step} from {prev}",
                docs.len()
            ));
        }
        docs.sort_unstable();
        out.push(docs);
        prev = epoch;
    }
    Ok(out)
}

/// A client-side copy of one subscribed relation: canonical row JSON →
/// multiplicity, at `epoch`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replica {
    pub epoch: u64,
    pub rows: BTreeMap<String, i64>,
}

impl Replica {
    /// Apply one subscription frame (`snapshot`, `delta`, `lagged` or
    /// `heartbeat`). A delta must start at the replica's epoch; a gap is an
    /// error, since deltas alone cannot bridge it.
    pub fn apply(&mut self, frame: &Json) -> Result<(), String> {
        let kind = frame.get("type").and_then(Json::as_str).unwrap_or("");
        let rel = frame.get("relation");
        match kind {
            "snapshot" => {
                self.rows.clear();
                let rows = rel
                    .and_then(|r| r.get("rows"))
                    .and_then(Json::as_array)
                    .ok_or("snapshot frame without relation rows")?;
                for r in rows {
                    let (row, count) = row_and_count(r)?;
                    self.rows.insert(row, count);
                }
                self.epoch = epoch_of(frame, "epoch")?;
            }
            "delta" => {
                let from = epoch_of(frame, "from")?;
                if from != self.epoch {
                    return Err(format!(
                        "delta frame from epoch {from} applied at epoch {}",
                        self.epoch
                    ));
                }
                let rel = rel.ok_or("delta frame without a relation section")?;
                for d in rel
                    .get("deletes")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten()
                {
                    self.rows.remove(&d.to_string());
                }
                for u in rel
                    .get("upserts")
                    .and_then(Json::as_array)
                    .into_iter()
                    .flatten()
                {
                    let (row, count) = row_and_count(u)?;
                    self.rows.insert(row, count);
                }
                self.epoch = epoch_of(frame, "epoch")?;
            }
            // A lagged frame is followed by a reset snapshot; heartbeats
            // carry no state.
            "lagged" | "heartbeat" => {}
            other => return Err(format!("unknown frame type `{other}`")),
        }
        Ok(())
    }
}

fn epoch_of(frame: &Json, key: &str) -> Result<u64, String> {
    frame
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("frame without `{key}`"))
}

fn row_and_count(entry: &Json) -> Result<(String, i64), String> {
    let row = entry.get("row").ok_or("frame row without `row`")?;
    let count = entry
        .get("count")
        .and_then(Json::as_i64)
        .ok_or("frame row without `count`")?;
    Ok((row.to_string(), count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_their_support() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.samples, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&v, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert!(p90.trusted());
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.trusted(), "one sample past p99 is not enough");
        assert_eq!(percentile(&[7.0], 0.99).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
        // Order of the input does not matter.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children are counted once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // A child outside the parent only counts where it overlaps.
        assert_eq!(self_time((0.0, 10.0), &[(-5.0, 2.0), (9.0, 20.0)]), 7.0);
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 10.0)]), 0.0);
        assert_eq!(self_time((0.0, 10.0), &[(11.0, 12.0)]), 10.0);
    }

    #[test]
    fn batches_come_back_from_ack_epochs() {
        // Docs 0 and 1 shared a batch (epoch 0 → 2), doc 2 went alone
        // (→ 3), docs 3..=5 shared one (→ 6). Ack order is arbitrary.
        let acks = [(3, 6), (1, 2), (2, 3), (0, 2), (5, 6), (4, 6)];
        let batches = batches_from_acks(&acks, 0).unwrap();
        assert_eq!(batches, vec![vec![0, 1], vec![2], vec![3, 4, 5]]);
        // A base epoch other than zero shifts the first step.
        assert_eq!(batches_from_acks(&[(0, 11)], 10).unwrap(), vec![vec![0]]);
        // A missing ack shows as an epoch step the group cannot explain.
        let err = batches_from_acks(&[(0, 2), (2, 3)], 0).unwrap_err();
        assert!(err.contains("epoch 2"), "{err}");
        assert!(batches_from_acks(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn frame_replay_rebuilds_the_relation() {
        let frame = |text: &str| -> Json { serde_json::from_str(text).expect("test frame") };
        let mut r = Replica::default();
        r.apply(&frame(
            r#"{"type": "snapshot", "epoch": 4, "relation": {"name": "R",
                "rows": [{"row": [1, 2], "count": 1}, {"row": [3, 4], "count": 2}]}}"#,
        ))
        .unwrap();
        r.apply(&frame(
            r#"{"type": "delta", "from": 4, "epoch": 5, "relation": {"name": "R",
                "upserts": [{"row": [1, 2], "count": 3}, {"row": [5, 6], "count": 1}],
                "deletes": [[3, 4]]}}"#,
        ))
        .unwrap();
        r.apply(&frame(r#"{"type": "heartbeat", "epoch": 5}"#))
            .unwrap();
        r.apply(&frame(
            r#"{"type": "delta", "from": 5, "epoch": 7,
                "relation": {"name": "R", "upserts": [], "deletes": []}}"#,
        ))
        .unwrap();
        let want: BTreeMap<String, i64> =
            [("[1,2]".to_string(), 3), ("[5,6]".to_string(), 1)].into();
        assert_eq!(r.epoch, 7);
        assert_eq!(r.rows, want);

        // A gap between frames is refused, not papered over.
        let err = r
            .apply(&frame(
                r#"{"type": "delta", "from": 9, "epoch": 10,
                    "relation": {"name": "R", "upserts": [], "deletes": []}}"#,
            ))
            .unwrap_err();
        assert!(err.contains("from epoch 9"), "{err}");

        // A lagged frame followed by a reset snapshot re-bases the replica.
        r.apply(&frame(r#"{"type": "lagged", "resume_epoch": 12}"#))
            .unwrap();
        r.apply(&frame(
            r#"{"type": "snapshot", "epoch": 12, "relation": {"name": "R",
                "rows": [{"row": [9, 9], "count": 1}]}}"#,
        ))
        .unwrap();
        assert_eq!(r.epoch, 12);
        assert_eq!(r.rows.len(), 1);
        assert!(r.apply(&frame(r#"{"type": "bogus"}"#)).is_err());
    }
}
