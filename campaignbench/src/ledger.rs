//! In-memory span totals for the per-layer ledger.
//!
//! A span is one timed call into a layer's public function. The ledger
//! keeps, per span name, the summed wall time and the number of calls;
//! nothing is written until the benchmark reports.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Summed wall time and call count of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    pub total: Duration,
    pub count: u64,
}

/// Span totals keyed by span name.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    spans: BTreeMap<&'static str, SpanTotal>,
}

impl Ledger {
    /// Run `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.add(name, start.elapsed());
        value
    }

    /// Record one call of `name` that took `elapsed`.
    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        let span = self.spans.entry(name).or_default();
        span.total += elapsed;
        span.count += 1;
    }

    pub fn total(&self, name: &str) -> Duration {
        self.spans.get(name).map_or(Duration::ZERO, |s| s.total)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.count)
    }

    /// Summed time of `name` in milliseconds, divided by `per`.
    pub fn ms_per(&self, name: &str, per: f64) -> f64 {
        self.total(name).as_secs_f64() * 1e3 / per.max(1.0)
    }

    /// Summed time of `name` in microseconds, divided by `per`.
    pub fn us_per(&self, name: &str, per: f64) -> f64 {
        self.total(name).as_secs_f64() * 1e6 / per.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_time_and_calls() {
        let mut ledger = Ledger::default();
        let out = ledger.time("a", || 7);
        ledger.add("a", Duration::from_millis(2));
        assert_eq!(out, 7);
        assert_eq!(ledger.count("a"), 2);
        assert!(ledger.total("a") >= Duration::from_millis(2));
        assert_eq!(ledger.total("missing"), Duration::ZERO);
        assert!((ledger.ms_per("a", 2.0) - ledger.total("a").as_secs_f64() * 500.0).abs() < 1e-9);
    }
}
