//! Concrete facility backends: NERSC (SFAPI/Slurm, realtime-friendly),
//! OLCF (batch Slurm with long queue holds), ALCF (Globus Compute).

use crate::{
    Facility, FacilityController, FacilityError, FacilityFault, FacilityStatus, OpEvent,
    Submission, SubmitSpec, RECON_PREFIX,
};
use als_globus::compute::AcquisitionMode;
use als_globus::{ComputeEndpoint, ComputeEvent, ComputeTaskId, ComputeTaskState};
use als_hpc::{JobEvent, JobId, JobRequest, JobState, Qos, SfApiClient, SfApiServer};
use als_orchestrator::{compute_fate, job_fate, ExternalKind, OpFate};
use als_simcore::{SimDuration, SimInstant};
use std::collections::BTreeSet;

/// Grace added to a Slurm walltime before the orchestrator declares the
/// op stranded and remote-cancels it.
const SLURM_DEADLINE_SLACK: SimDuration = SimDuration::from_secs(600);

/// OLCF batch-queue hold: Frontier's batch partition sits jobs in the
/// queue for on the order of fifteen minutes before dispatch even when
/// nodes are free (no realtime QOS across the fence).
pub const OLCF_BATCH_HOLD: SimDuration = SimDuration::from_secs(900);

/// Shared Slurm-over-SFAPI machinery for the two batch facilities.
#[derive(Debug)]
struct SlurmBackend {
    server: SfApiServer,
    client: SfApiClient,
    fac: Facility,
}

impl SlurmBackend {
    fn new(fac: Facility, nodes: usize, account: &str) -> Self {
        SlurmBackend {
            server: SfApiServer::new(nodes),
            client: SfApiClient::new(account),
            fac,
        }
    }

    fn submit(&mut self, req: JobRequest, now: SimInstant) -> Result<Submission, FacilityError> {
        let deadline = now + req.walltime_limit + SLURM_DEADLINE_SLACK;
        match self.client.submit(&mut self.server, req, now) {
            Ok((id, _events)) => Ok(Submission {
                op: self.fac.encode_op(id.0),
                deadline,
            }),
            Err(e) => Err(FacilityError::Rejected(format!("{e:?}"))),
        }
    }

    fn cancel(&mut self, op: u64, now: SimInstant) -> bool {
        let Some((fac, raw)) = Facility::decode_op(op) else {
            return false;
        };
        if fac != self.fac {
            return false;
        }
        self.client
            .cancel(&mut self.server, JobId(raw), now)
            .is_ok()
    }

    fn health(&self, base_wait_s: f64, per_pending_s: f64) -> FacilityStatus {
        let sched = self.server.scheduler();
        FacilityStatus {
            accepting: self.server.auth_available() && sched.offline_nodes() < sched.total_nodes(),
            queue_depth: sched.pending_count(),
            running: sched.running_count(),
            free_nodes: sched.free_nodes(),
            est_wait_s: base_wait_s + per_pending_s * sched.pending_count() as f64,
        }
    }

    fn poll(&mut self, now: SimInstant) -> Vec<OpEvent> {
        self.server
            .scheduler_mut()
            .advance_to(now)
            .into_iter()
            .filter_map(|e| match e {
                JobEvent::Finished { id, at, state } => Some(OpEvent {
                    op: self.fac.encode_op(id.0),
                    at,
                    ok: state == JobState::Completed,
                }),
                JobEvent::Started { .. } => None,
            })
            .collect()
    }

    fn op_fate(&self, op: u64) -> OpFate {
        match Facility::decode_op(op) {
            Some((fac, raw)) if fac == self.fac => job_fate(self.server.scheduler(), JobId(raw)),
            _ => OpFate::Lost,
        }
    }

    fn labeled_ops(&self) -> Vec<(u64, String)> {
        self.server
            .scheduler()
            .jobs_with_prefix(RECON_PREFIX)
            .into_iter()
            .map(|(id, name)| (self.fac.encode_op(id.0), name.to_string()))
            .collect()
    }

    fn cancel_orphans(&mut self, known: &BTreeSet<u64>, now: SimInstant) -> usize {
        let raw_known: BTreeSet<u64> = known
            .iter()
            .filter_map(|&op| Facility::decode_op(op))
            .filter(|(fac, _)| *fac == self.fac)
            .map(|(_, raw)| raw)
            .collect();
        als_orchestrator::cancel_orphan_jobs(
            self.server.scheduler_mut(),
            &raw_known,
            RECON_PREFIX,
            now,
        )
        .len()
    }

    fn inject(&mut self, fault: FacilityFault, now: SimInstant) -> Vec<OpEvent> {
        match fault {
            FacilityFault::OutageStart => {
                let total = self.server.scheduler().total_nodes();
                // drain the partition (running jobs keep nodes but the
                // outage kills reconstruction work below)
                let _ = self.server.scheduler_mut().set_offline(total, now);
                let doomed: Vec<JobId> = self
                    .server
                    .scheduler()
                    .live_jobs()
                    .into_iter()
                    .filter(|&id| {
                        self.server.scheduler().state(id) == Some(JobState::Running)
                            && self
                                .server
                                .scheduler()
                                .job_name(id)
                                .is_some_and(|n| n.starts_with(RECON_PREFIX))
                    })
                    .collect();
                let mut out = Vec::new();
                for id in doomed {
                    for e in self.server.scheduler_mut().fail(id, now) {
                        if let JobEvent::Finished { id, at, state } = e {
                            out.push(OpEvent {
                                op: self.fac.encode_op(id.0),
                                at,
                                ok: state == JobState::Completed,
                            });
                        }
                    }
                }
                out
            }
            FacilityFault::OutageEnd => {
                let _ = self.server.scheduler_mut().set_offline(0, now);
                Vec::new()
            }
            FacilityFault::AuthExpire => {
                self.server.set_auth_available(false);
                self.server.revoke_all_tokens();
                Vec::new()
            }
            FacilityFault::AuthRestore => {
                self.server.set_auth_available(true);
                Vec::new()
            }
        }
    }
}

/// NERSC Perlmutter behind the Superfacility API. Realtime QOS passes
/// through untouched; this is the fast, interactive home facility.
#[derive(Debug)]
pub struct NerscController {
    slurm: SlurmBackend,
}

impl NerscController {
    pub fn new(nodes: usize) -> Self {
        NerscController {
            slurm: SlurmBackend::new(Facility::Nersc, nodes, "als"),
        }
    }
}

impl FacilityController for NerscController {
    fn facility(&self) -> Facility {
        Facility::Nersc
    }

    fn external_kind(&self) -> ExternalKind {
        ExternalKind::Job
    }

    fn exec_task_name(&self) -> &'static str {
        "sfapi_slurm_job"
    }

    fn submit(&mut self, spec: &SubmitSpec, now: SimInstant) -> Result<Submission, FacilityError> {
        self.slurm.submit(
            JobRequest {
                name: spec.name.clone(),
                qos: spec.qos,
                nodes: spec.nodes,
                runtime: spec.runtime,
                walltime_limit: spec.walltime,
            },
            now,
        )
    }

    fn cancel(&mut self, op: u64, now: SimInstant) -> bool {
        self.slurm.cancel(op, now)
    }

    fn health(&self, _now: SimInstant) -> FacilityStatus {
        // realtime QOS: short dispatch, modest per-job queue penalty
        self.slurm.health(60.0, 60.0)
    }

    fn poll(&mut self, now: SimInstant) -> Vec<OpEvent> {
        self.slurm.poll(now)
    }

    fn next_event_time(&self) -> Option<SimInstant> {
        self.slurm.server.scheduler().next_event_time()
    }

    fn op_fate(&self, op: u64) -> OpFate {
        self.slurm.op_fate(op)
    }

    fn labeled_ops(&self) -> Vec<(u64, String)> {
        self.slurm.labeled_ops()
    }

    fn cancel_orphans(&mut self, known: &BTreeSet<u64>, now: SimInstant) -> usize {
        self.slurm.cancel_orphans(known, now)
    }

    fn inject(&mut self, fault: FacilityFault, now: SimInstant) -> Vec<OpEvent> {
        self.slurm.inject(fault, now)
    }

    fn submit_background(&mut self, runtime: SimDuration, nodes: usize, now: SimInstant) {
        let req = JobRequest {
            name: "background".into(),
            qos: Qos::Regular,
            nodes,
            runtime,
            walltime_limit: runtime * 2.0,
        };
        let _ = self.slurm.server.scheduler_mut().submit(req, now);
    }
}

/// OLCF Frontier: a big batch partition with no realtime QOS. Capacity
/// is plentiful; what you pay is the queue hold. Every submission is
/// downgraded to batch QOS and carries [`OLCF_BATCH_HOLD`] of extra
/// latency before the payload runs.
#[derive(Debug)]
pub struct OlcfController {
    slurm: SlurmBackend,
}

impl OlcfController {
    pub fn new(nodes: usize) -> Self {
        OlcfController {
            slurm: SlurmBackend::new(Facility::Olcf, nodes, "als"),
        }
    }
}

impl FacilityController for OlcfController {
    fn facility(&self) -> Facility {
        Facility::Olcf
    }

    fn external_kind(&self) -> ExternalKind {
        ExternalKind::Job
    }

    fn exec_task_name(&self) -> &'static str {
        "olcf_batch_job"
    }

    fn submit(&mut self, spec: &SubmitSpec, now: SimInstant) -> Result<Submission, FacilityError> {
        // batch personality: QOS downgrade plus the queue hold folded
        // into service time (and covered by the walltime)
        self.slurm.submit(
            JobRequest {
                name: spec.name.clone(),
                qos: Qos::Regular,
                nodes: spec.nodes,
                runtime: spec.runtime + OLCF_BATCH_HOLD,
                walltime_limit: spec.walltime + OLCF_BATCH_HOLD,
            },
            now,
        )
    }

    fn cancel(&mut self, op: u64, now: SimInstant) -> bool {
        self.slurm.cancel(op, now)
    }

    fn health(&self, _now: SimInstant) -> FacilityStatus {
        // batch bias: the hold dominates, and each queued job is another
        // long wait in front of you
        self.slurm.health(OLCF_BATCH_HOLD.as_secs_f64(), 120.0)
    }

    fn poll(&mut self, now: SimInstant) -> Vec<OpEvent> {
        self.slurm.poll(now)
    }

    fn next_event_time(&self) -> Option<SimInstant> {
        self.slurm.server.scheduler().next_event_time()
    }

    fn op_fate(&self, op: u64) -> OpFate {
        self.slurm.op_fate(op)
    }

    fn labeled_ops(&self) -> Vec<(u64, String)> {
        self.slurm.labeled_ops()
    }

    fn cancel_orphans(&mut self, known: &BTreeSet<u64>, now: SimInstant) -> usize {
        self.slurm.cancel_orphans(known, now)
    }

    fn inject(&mut self, fault: FacilityFault, now: SimInstant) -> Vec<OpEvent> {
        self.slurm.inject(fault, now)
    }
}

/// ALCF Polaris behind Globus Compute: serverless invocations on warm
/// pilot nodes with a demand queue — no batch hold, but a small pool.
#[derive(Debug)]
pub struct AlcfController {
    ep: ComputeEndpoint,
    max_nodes: usize,
}

impl AlcfController {
    pub fn new(mode: AcquisitionMode, max_nodes: usize) -> Self {
        AlcfController {
            ep: ComputeEndpoint::new(mode, max_nodes),
            max_nodes,
        }
    }

    fn pending_count(&self) -> usize {
        self.ep
            .live_tasks()
            .iter()
            .filter(|&&id| self.ep.state(id) == Some(ComputeTaskState::Pending))
            .count()
    }
}

impl FacilityController for AlcfController {
    fn facility(&self) -> Facility {
        Facility::Alcf
    }

    fn external_kind(&self) -> ExternalKind {
        ExternalKind::Compute
    }

    fn exec_task_name(&self) -> &'static str {
        "globus_compute_recon"
    }

    fn submit(&mut self, spec: &SubmitSpec, now: SimInstant) -> Result<Submission, FacilityError> {
        let id = self
            .ep
            .invoke_labeled(spec.runtime, now, Some(spec.name.clone()));
        if self.ep.state(id) == Some(ComputeTaskState::Failed) {
            return Err(FacilityError::Rejected("endpoint is down".into()));
        }
        // no walltime on serverless invocations: strand detection allows
        // double the service time plus an hour of node-acquisition slack
        Ok(Submission {
            op: Facility::Alcf.encode_op(id.0),
            deadline: now + spec.runtime * 2 + SimDuration::from_secs(3600),
        })
    }

    fn cancel(&mut self, op: u64, now: SimInstant) -> bool {
        match Facility::decode_op(op) {
            Some((Facility::Alcf, raw)) => {
                self.ep.cancel(ComputeTaskId(raw), now);
                true
            }
            _ => false,
        }
    }

    fn health(&self, _now: SimInstant) -> FacilityStatus {
        let pending = self.pending_count();
        let running = self.ep.live_tasks().len() - pending;
        FacilityStatus {
            accepting: !self.ep.is_down(),
            queue_depth: pending,
            running,
            free_nodes: self.max_nodes.saturating_sub(running),
            // demand queue: ~a minute to a node, light per-task penalty
            est_wait_s: self.ep.mode().acquisition_latency().as_secs_f64() + 15.0 * pending as f64,
        }
    }

    fn poll(&mut self, now: SimInstant) -> Vec<OpEvent> {
        self.ep
            .advance_to(now)
            .into_iter()
            .filter_map(|e| match e {
                // only successful completions resolve here; failures are
                // surfaced by outage injection or strand deadlines (the
                // historical Globus Compute adapter behaviour)
                ComputeEvent::Finished { task, at } => Some(OpEvent {
                    op: Facility::Alcf.encode_op(task.0),
                    at,
                    ok: true,
                }),
                ComputeEvent::Started { .. } | ComputeEvent::Failed { .. } => None,
            })
            .collect()
    }

    fn next_event_time(&self) -> Option<SimInstant> {
        self.ep.next_event_time()
    }

    fn op_fate(&self, op: u64) -> OpFate {
        match Facility::decode_op(op) {
            Some((Facility::Alcf, raw)) => compute_fate(&self.ep, ComputeTaskId(raw)),
            _ => OpFate::Lost,
        }
    }

    fn labeled_ops(&self) -> Vec<(u64, String)> {
        self.ep
            .tasks_labeled()
            .into_iter()
            .filter(|(_, label, state)| {
                label.starts_with(RECON_PREFIX)
                    && matches!(state, ComputeTaskState::Pending | ComputeTaskState::Running)
            })
            .map(|(id, label, _)| (Facility::Alcf.encode_op(id.0), label.to_string()))
            .collect()
    }

    fn cancel_orphans(&mut self, known: &BTreeSet<u64>, now: SimInstant) -> usize {
        let orphans: Vec<ComputeTaskId> = self
            .ep
            .tasks_labeled()
            .into_iter()
            .filter(|(id, label, state)| {
                label.starts_with(RECON_PREFIX)
                    && matches!(state, ComputeTaskState::Pending | ComputeTaskState::Running)
                    && !known.contains(&Facility::Alcf.encode_op(id.0))
            })
            .map(|(id, _, _)| id)
            .collect();
        let n = orphans.len();
        for id in orphans {
            self.ep.cancel(id, now);
        }
        n
    }

    fn inject(&mut self, fault: FacilityFault, now: SimInstant) -> Vec<OpEvent> {
        match fault {
            FacilityFault::OutageStart => self
                .ep
                .set_down(true, now)
                .into_iter()
                .filter_map(|e| match e {
                    ComputeEvent::Failed { task, at } => Some(OpEvent {
                        op: Facility::Alcf.encode_op(task.0),
                        at,
                        ok: false,
                    }),
                    _ => None,
                })
                .collect(),
            FacilityFault::OutageEnd => {
                let _ = self.ep.set_down(false, now);
                Vec::new()
            }
            // Globus Compute has no token-expiry control plane here
            FacilityFault::AuthExpire | FacilityFault::AuthRestore => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FacilityTask;

    fn spec(name: &str, secs: u64) -> SubmitSpec {
        SubmitSpec {
            name: name.into(),
            task: FacilityTask::Reconstruct,
            runtime: SimDuration::from_secs(secs),
            walltime: SimDuration::from_secs(secs * 2 + 900),
            qos: Qos::Realtime,
            nodes: 2,
        }
    }

    #[test]
    fn nersc_submits_and_completes_through_the_trait() {
        let mut fac = NerscController::new(8);
        let now = SimInstant::ZERO;
        let sub = fac.reconstruct(&spec("recon_1|x", 100), now).unwrap();
        let (f, _) = Facility::decode_op(sub.op).unwrap();
        assert_eq!(f, Facility::Nersc);
        assert_eq!(fac.op_fate(sub.op), OpFate::Live);
        let evs = fac.poll(SimInstant::ZERO + SimDuration::from_secs(200));
        assert_eq!(evs.len(), 1);
        assert!(evs[0].ok);
        assert_eq!(evs[0].op, sub.op);
        assert_eq!(fac.op_fate(sub.op), OpFate::Completed);
    }

    #[test]
    fn olcf_personality_adds_batch_hold_and_downgrades_qos() {
        let mut nersc = NerscController::new(8);
        let mut olcf = OlcfController::new(8);
        let now = SimInstant::ZERO;
        let s = spec("recon_2|x", 100);
        let n = nersc.reconstruct(&s, now).unwrap();
        let o = olcf.reconstruct(&s, now).unwrap();
        // same work takes the batch hold longer at OLCF
        let n_done = {
            let evs = nersc.poll(now + SimDuration::from_secs(20_000));
            evs[0].at
        };
        let o_done = {
            let evs = olcf.poll(now + SimDuration::from_secs(20_000));
            evs[0].at
        };
        let delta = o_done.duration_since(n_done);
        assert_eq!(delta, OLCF_BATCH_HOLD);
        assert!(o.deadline > n.deadline);
        // and the advertised wait is batch-biased even when idle
        let idle_olcf = OlcfController::new(8);
        let idle_nersc = NerscController::new(8);
        assert!(idle_olcf.health(now).est_wait_s > idle_nersc.health(now).est_wait_s + 600.0);
    }

    #[test]
    fn outage_injection_kills_running_recon_but_not_probes() {
        let mut fac = OlcfController::new(8);
        let now = SimInstant::ZERO;
        let r = fac.reconstruct(&spec("recon_3|x", 5000), now).unwrap();
        let probe = fac
            .submit(
                &SubmitSpec {
                    name: "probe_olcf_1".into(),
                    task: FacilityTask::Probe,
                    runtime: SimDuration::from_secs(60),
                    walltime: SimDuration::from_secs(600),
                    qos: Qos::Debug,
                    nodes: 1,
                },
                now,
            )
            .unwrap();
        let t1 = now + SimDuration::from_secs(100);
        let _ = fac.poll(t1);
        let evs = fac.inject(FacilityFault::OutageStart, t1);
        assert_eq!(evs.len(), 1, "only the recon job dies");
        assert_eq!(evs[0].op, r.op);
        assert!(!evs[0].ok);
        // probe survives the injection sweep (it is already running and
        // keeps its node through the drain)
        assert_eq!(fac.op_fate(probe.op), OpFate::Live);
        assert!(!fac.health(t1).accepting);
        let _ = fac.inject(FacilityFault::OutageEnd, t1 + SimDuration::from_secs(60));
        assert!(fac.health(t1).accepting);
    }

    #[test]
    fn alcf_rejects_while_down_and_orphan_cancel_spares_known_ops() {
        let mut fac = AlcfController::new(AcquisitionMode::DemandQueue, 4);
        let now = SimInstant::ZERO;
        let a = fac.reconstruct(&spec("recon_4|x", 300), now).unwrap();
        let b = fac.reconstruct(&spec("recon_5|x", 300), now).unwrap();
        let known: BTreeSet<u64> = [a.op].into_iter().collect();
        assert_eq!(fac.cancel_orphans(&known, now), 1);
        assert_eq!(fac.op_fate(a.op), OpFate::Live);
        assert_eq!(fac.op_fate(b.op), OpFate::Failed);
        let _ = fac.inject(FacilityFault::OutageStart, now + SimDuration::from_secs(10));
        let err = fac.reconstruct(&spec("recon_6|x", 300), now + SimDuration::from_secs(20));
        assert!(err.is_err());
    }
}
