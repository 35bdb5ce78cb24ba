//! Named concurrency-limit pools.
//!
//! "Prefect workers execute flows in isolated containers with carefully
//! tuned limits: tuned concurrency for scan detection tasks, but lower
//! concurrency for HPC job submission to prevent queue conflicts."
//! A pool is a counting semaphore identified by a tag; tasks acquire a
//! slot before running and release it after.

use std::collections::BTreeMap;

/// A set of named counting semaphores.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ConcurrencyLimits {
    pools: BTreeMap<String, Pool>,
}

#[derive(Debug, Clone, PartialEq)]
struct Pool {
    limit: usize,
    in_use: usize,
    /// High-water mark, for observability.
    peak: usize,
    /// Total acquisitions that had to be refused.
    rejections: u64,
}

impl ConcurrencyLimits {
    pub fn new() -> Self {
        Self::default()
    }

    /// The production configuration from §4.2.2.
    pub fn production() -> Self {
        let mut l = Self::new();
        l.set_limit("scan-detect", 8);
        l.set_limit("hpc-submit", 2);
        l.set_limit("globus-transfer", 4);
        l.set_limit("prune", 1);
        l
    }

    /// Create or resize a pool.
    pub fn set_limit(&mut self, tag: &str, limit: usize) {
        let pool = self.pools.entry(tag.to_string()).or_insert(Pool {
            limit,
            in_use: 0,
            peak: 0,
            rejections: 0,
        });
        pool.limit = limit;
    }

    /// Try to take a slot. Unknown tags are unlimited (Prefect semantics:
    /// no limit configured means no constraint).
    pub fn try_acquire(&mut self, tag: &str) -> bool {
        match self.pools.get_mut(tag) {
            None => true,
            Some(pool) => {
                if pool.in_use < pool.limit {
                    pool.in_use += 1;
                    pool.peak = pool.peak.max(pool.in_use);
                    true
                } else {
                    pool.rejections += 1;
                    false
                }
            }
        }
    }

    /// Would [`ConcurrencyLimits::try_acquire`] succeed right now?
    /// Read-only: no slot is taken and no rejection is counted. The
    /// durable orchestrator peeks the outcome, journals it, and lets the
    /// journal apply perform the actual mutation.
    pub fn would_admit(&self, tag: &str) -> bool {
        self.pools.get(tag).is_none_or(|p| p.in_use < p.limit)
    }

    /// Count a rejection without re-evaluating admission — the journal
    /// replay path for `LimitRejected`. The original refusal may have
    /// been decided against fleet-level occupancy, so replay must record
    /// the tally rather than re-run the (shard-local) admission test.
    pub fn note_rejection(&mut self, tag: &str) {
        if let Some(pool) = self.pools.get_mut(tag) {
            pool.rejections += 1;
        }
    }

    /// Release a previously acquired slot.
    pub fn release(&mut self, tag: &str) {
        if let Some(pool) = self.pools.get_mut(tag) {
            assert!(pool.in_use > 0, "release without acquire on '{tag}'");
            pool.in_use -= 1;
        }
    }

    pub fn in_use(&self, tag: &str) -> usize {
        self.pools.get(tag).map_or(0, |p| p.in_use)
    }

    pub fn limit(&self, tag: &str) -> Option<usize> {
        self.pools.get(tag).map(|p| p.limit)
    }

    pub fn peak(&self, tag: &str) -> usize {
        self.pools.get(tag).map_or(0, |p| p.peak)
    }

    pub fn rejections(&self, tag: &str) -> u64 {
        self.pools.get(tag).map_or(0, |p| p.rejections)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_up_to_limit_then_refuse() {
        let mut l = ConcurrencyLimits::new();
        l.set_limit("hpc-submit", 2);
        assert!(l.try_acquire("hpc-submit"));
        assert!(l.try_acquire("hpc-submit"));
        assert!(!l.try_acquire("hpc-submit"));
        assert_eq!(l.rejections("hpc-submit"), 1);
        l.release("hpc-submit");
        assert!(l.try_acquire("hpc-submit"));
        assert_eq!(l.peak("hpc-submit"), 2);
    }

    #[test]
    fn unknown_tags_are_unlimited() {
        let mut l = ConcurrencyLimits::new();
        for _ in 0..1000 {
            assert!(l.try_acquire("anything"));
        }
    }

    #[test]
    fn production_pools_match_paper_intent() {
        let mut l = ConcurrencyLimits::production();
        // scan detection is wider than HPC submission
        assert!(l.limit("scan-detect").unwrap() > l.limit("hpc-submit").unwrap());
        // prune is serialized (the §5.3 incident involved a burst of
        // concurrent prune requests)
        assert_eq!(l.limit("prune"), Some(1));
        assert!(l.try_acquire("prune"));
        assert!(!l.try_acquire("prune"));
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn unbalanced_release_panics() {
        let mut l = ConcurrencyLimits::new();
        l.set_limit("x", 1);
        l.release("x");
    }

    #[test]
    fn resizing_keeps_in_use() {
        let mut l = ConcurrencyLimits::new();
        l.set_limit("x", 1);
        assert!(l.try_acquire("x"));
        l.set_limit("x", 3);
        assert!(l.try_acquire("x"));
        assert_eq!(l.in_use("x"), 2);
    }
}
