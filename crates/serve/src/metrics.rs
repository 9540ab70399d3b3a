//! Per-endpoint serving metrics: request counts, error counts, and a fixed
//! latency histogram, all lock-free atomics so `/metrics` never contends
//! with the single writer applying an ingest.

use serde_json::{json, Map, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Histogram bucket upper bounds, in microseconds (the last bucket is
/// `+Inf`). Chosen around the expected shape: reads are sub-millisecond,
/// ingests pay a fixed-budget Gibbs refresh.
const BUCKET_BOUNDS_MICROS: [u64; 6] = [1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000];
const NUM_BUCKETS: usize = BUCKET_BOUNDS_MICROS.len() + 1;

/// The endpoints we keep separate books for.
pub const ENDPOINTS: [&str; 11] = [
    "healthz",
    "readyz",
    "metrics",
    "relations",
    "marginals",
    "documents",
    "wal",
    "subscriptions",
    "promote",
    "checkpoint",
    "other",
];

#[derive(Debug, Default)]
struct EndpointMetrics {
    requests: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; NUM_BUCKETS],
}

impl EndpointMetrics {
    fn record(&self, latency: Duration, ok: bool) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        let idx = BUCKET_BOUNDS_MICROS
            .iter()
            .position(|&bound| micros <= bound)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn to_json(&self) -> Value {
        let requests = self.requests.load(Ordering::Relaxed);
        let total = self.total_micros.load(Ordering::Relaxed);
        let mut hist = Map::new();
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS_MICROS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            hist.insert(format!("le_{}us", bound), json!(cumulative));
        }
        cumulative += self.buckets[NUM_BUCKETS - 1].load(Ordering::Relaxed);
        hist.insert("le_inf".into(), json!(cumulative));
        json!({
            "requests": requests,
            "errors": self.errors.load(Ordering::Relaxed),
            "latency_micros_total": total,
            "latency_micros_mean": total.checked_div(requests).unwrap_or(0),
            "latency_histogram": Value::Object(hist),
        })
    }
}

/// All endpoint books; one instance per server, shared by every worker.
/// The admission counters sit beside them: connections shed at the
/// admission queue (503), ingests refused by the rate limiter (429), and
/// requests cut by a read deadline (408) never reach an endpoint handler,
/// so they are counted here rather than in a latency book.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    endpoints: [EndpointMetrics; ENDPOINTS.len()],
    /// Connections refused with 503 because the admission queue was full.
    pub shed_total: AtomicU64,
    /// Ingests refused with 429 by the token-bucket rate limiter.
    pub rate_limited_total: AtomicU64,
    /// Requests answered 408 after a header/body read stalled.
    pub timeout_total: AtomicU64,
    /// Handler panics caught at the connection boundary (answered 500
    /// instead of killing the worker).
    pub panic_total: AtomicU64,
}

impl ServeMetrics {
    /// Record one finished request against an endpoint name (unknown names
    /// land in `other`).
    pub fn record(&self, endpoint: &str, latency: Duration, ok: bool) {
        let idx = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        self.endpoints[idx].record(latency, ok);
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|e| e.requests.load(Ordering::Relaxed))
            .sum()
    }

    pub fn record_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_rate_limited(&self) {
        self.rate_limited_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_timeout(&self) {
        self.timeout_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn shed_total(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    pub fn rate_limited_total(&self) -> u64 {
        self.rate_limited_total.load(Ordering::Relaxed)
    }

    pub fn timeout_total(&self) -> u64 {
        self.timeout_total.load(Ordering::Relaxed)
    }

    pub fn record_panic(&self) {
        self.panic_total.fetch_add(1, Ordering::Relaxed);
    }

    pub fn panic_total(&self) -> u64 {
        self.panic_total.load(Ordering::Relaxed)
    }

    pub fn to_json(&self) -> Value {
        let mut out = Map::new();
        for (name, m) in ENDPOINTS.iter().zip(&self.endpoints) {
            out.insert((*name).to_string(), m.to_json());
        }
        Value::Object(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_counts_errors_and_buckets() {
        let m = ServeMetrics::default();
        m.record("relations", Duration::from_micros(500), true);
        m.record("relations", Duration::from_micros(30_000), false);
        m.record("nonsense", Duration::from_millis(1), true);
        assert_eq!(m.total_requests(), 3);

        let v = m.to_json();
        let rel = v.get("relations").unwrap();
        assert_eq!(rel.get("requests").and_then(Value::as_u64), Some(2));
        assert_eq!(rel.get("errors").and_then(Value::as_u64), Some(1));
        let hist = rel.get("latency_histogram").unwrap();
        // 500us fits the first bucket; 30ms only from the 100ms bound up.
        assert_eq!(hist.get("le_1000us").and_then(Value::as_u64), Some(1));
        assert_eq!(hist.get("le_25000us").and_then(Value::as_u64), Some(1));
        assert_eq!(hist.get("le_100000us").and_then(Value::as_u64), Some(2));
        assert_eq!(hist.get("le_inf").and_then(Value::as_u64), Some(2));
        // Unknown endpoint lands in `other`.
        assert_eq!(
            v.get("other")
                .and_then(|o| o.get("requests"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
