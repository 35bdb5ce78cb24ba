//! Prefect-worker pools (§4.2.2).
//!
//! "Prefect workers execute flows in isolated containers with carefully
//! tuned limits." A [`WorkerPool`] binds a container image (version-pinned
//! through the registry's beamtime freeze) to a concurrency budget and
//! tracks which flow runs each worker slot is executing, so staff can see
//! at a glance what the pool is doing.

use crate::engine::FlowRunId;
use als_simcore::SimInstant;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a worker slot within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WorkerId(pub u32);

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Every worker slot is busy.
    Saturated,
    /// The flow run is not currently executing in this pool.
    NotRunningHere(FlowRunId),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Saturated => write!(f, "worker pool saturated"),
            PoolError::NotRunningHere(r) => write!(f, "flow run {r:?} not in this pool"),
        }
    }
}

impl std::error::Error for PoolError {}

/// What one busy worker slot is doing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    pub run: FlowRunId,
    pub since: SimInstant,
}

/// A pool of identical workers executing flows in containers.
#[derive(Debug)]
pub struct WorkerPool {
    name: String,
    /// The pinned container image (`name:version`) the workers run.
    image: String,
    slots: BTreeMap<WorkerId, Option<Assignment>>,
    /// Total flow executions completed, for dashboards.
    completed: u64,
}

impl WorkerPool {
    /// Create a pool of `concurrency` workers running `image`.
    pub fn new(name: &str, image: &str, concurrency: usize) -> Self {
        assert!(concurrency > 0, "a pool needs at least one worker");
        WorkerPool {
            name: name.to_string(),
            image: image.to_string(),
            slots: (0..concurrency as u32)
                .map(|i| (WorkerId(i), None))
                .collect(),
            completed: 0,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn image(&self) -> &str {
        &self.image
    }

    pub fn concurrency(&self) -> usize {
        self.slots.len()
    }

    pub fn busy_count(&self) -> usize {
        self.slots.values().filter(|s| s.is_some()).count()
    }

    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Assign a flow run to the lowest-numbered idle worker.
    pub fn assign(&mut self, run: FlowRunId, now: SimInstant) -> Result<WorkerId, PoolError> {
        let idle = self
            .slots
            .iter()
            .find(|(_, s)| s.is_none())
            .map(|(&id, _)| id)
            .ok_or(PoolError::Saturated)?;
        self.slots
            .insert(idle, Some(Assignment { run, since: now }));
        Ok(idle)
    }

    /// Release the worker executing `run` (the flow finished).
    pub fn release(&mut self, run: FlowRunId) -> Result<WorkerId, PoolError> {
        let slot = self
            .slots
            .iter()
            .find(|(_, s)| s.as_ref().is_some_and(|a| a.run == run))
            .map(|(&id, _)| id)
            .ok_or(PoolError::NotRunningHere(run))?;
        self.slots.insert(slot, None);
        self.completed += 1;
        Ok(slot)
    }

    /// The staff dashboard view: what every worker is doing.
    pub fn status(&self) -> Vec<(WorkerId, Option<&Assignment>)> {
        self.slots.iter().map(|(&id, a)| (id, a.as_ref())).collect()
    }

    /// Roll the pool to a new image version. Refused while any worker is
    /// busy (production pools drain before redeploys).
    pub fn set_image(&mut self, image: &str) -> Result<(), PoolError> {
        if self.busy_count() > 0 {
            return Err(PoolError::Saturated);
        }
        self.image = image.to_string();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_simcore::SimDuration;

    fn t(s: u64) -> SimInstant {
        SimInstant::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn assign_fills_slots_in_order() {
        let mut pool = WorkerPool::new("hpc-submit", "splash-flows:2.3.0", 2);
        let a = pool.assign(FlowRunId(1), t(0)).unwrap();
        let b = pool.assign(FlowRunId(2), t(1)).unwrap();
        assert_eq!((a, b), (WorkerId(0), WorkerId(1)));
        assert_eq!(pool.busy_count(), 2);
        assert_eq!(pool.assign(FlowRunId(3), t(2)), Err(PoolError::Saturated));
    }

    #[test]
    fn release_frees_the_right_slot() {
        let mut pool = WorkerPool::new("p", "img:1", 2);
        pool.assign(FlowRunId(1), t(0)).unwrap();
        pool.assign(FlowRunId(2), t(0)).unwrap();
        let freed = pool.release(FlowRunId(1)).unwrap();
        assert_eq!(freed, WorkerId(0));
        assert_eq!(pool.busy_count(), 1);
        assert_eq!(pool.completed_count(), 1);
        // the freed slot is reused first
        assert_eq!(pool.assign(FlowRunId(3), t(1)).unwrap(), WorkerId(0));
        assert_eq!(
            pool.release(FlowRunId(99)),
            Err(PoolError::NotRunningHere(FlowRunId(99)))
        );
    }

    #[test]
    fn status_shows_assignments() {
        let mut pool = WorkerPool::new("p", "img:1", 2);
        pool.assign(FlowRunId(7), t(5)).unwrap();
        let status = pool.status();
        assert_eq!(status.len(), 2);
        assert_eq!(status[0].1.unwrap().run, FlowRunId(7));
        assert!(status[1].1.is_none());
    }

    #[test]
    fn image_roll_requires_drained_pool() {
        let mut pool = WorkerPool::new("p", "img:1", 1);
        pool.assign(FlowRunId(1), t(0)).unwrap();
        assert!(pool.set_image("img:2").is_err());
        pool.release(FlowRunId(1)).unwrap();
        pool.set_image("img:2").unwrap();
        assert_eq!(pool.image(), "img:2");
    }
}
