//! The retry/backoff stage: device submission behind the fault gate.
//!
//! Devices reject I/O through the deterministic fault hooks installed from
//! [`nvhsm_fault::FaultPlan`]; this stage turns those rejections into
//! resubmissions with exponential backoff. Two budgets exist: the workload
//! budget (`NodeSim::submit_with_retry`, bounded by `MAX_RETRIES`) whose
//! exhaustion surfaces through the pipeline as
//! [`super::IoOutcome::Failed`], and the generous budget
//! (`NodeSim::submit_generous`) used by abort/rollback traffic where
//! giving up means losing a block.

use super::NodeSim;
use nvhsm_device::{IoCompletion, IoError, IoRequest};
use nvhsm_obs::{emit, TraceEvent};
use nvhsm_sim::SimDuration;

/// Resubmissions allowed for a transiently failed workload request.
pub(super) const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry; doubles each further attempt.
const RETRY_BACKOFF: SimDuration = SimDuration::from_us(200);

impl NodeSim {
    /// Submits `req` with retry-and-backoff for transient errors. Offline
    /// errors (and transients past the retry budget) surface to the caller.
    pub(crate) fn submit_with_retry(
        &mut self,
        ds: usize,
        req: &IoRequest,
    ) -> Result<IoCompletion, IoError> {
        let mut req = *req;
        let mut attempt = 0u32;
        loop {
            match self.datastores[ds].device_mut().try_submit(&req) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    self.io_errors += 1;
                    self.with_metrics(ds, |m, dev, node| m.counter_inc("io_errors", dev, node));
                    if !e.is_retryable() || attempt >= MAX_RETRIES {
                        return Err(e);
                    }
                    self.retries += 1;
                    let backoff = RETRY_BACKOFF * (1u64 << attempt.min(16));
                    req.arrival = e.at() + backoff;
                    attempt += 1;
                    emit(&self.trace, || TraceEvent::Retry {
                        t: e.at().as_ns(),
                        vmdk: req.stream,
                        attempt,
                        backoff_ns: backoff.as_ns(),
                    });
                    self.with_metrics(ds, |m, dev, node| m.counter_inc("retries", dev, node));
                }
            }
        }
    }

    /// Submits with a generous retry budget (abort/rollback traffic, where
    /// giving up means losing a block). Offline windows are skipped over
    /// using the schedule's known recovery time.
    pub(crate) fn submit_generous(
        &mut self,
        ds: usize,
        mut req: IoRequest,
    ) -> Option<IoCompletion> {
        for attempt in 0..16u32 {
            match self.datastores[ds].device_mut().try_submit(&req) {
                Ok(c) => return Some(c),
                Err(e) => {
                    self.io_errors += 1;
                    self.with_metrics(ds, |m, dev, node| m.counter_inc("io_errors", dev, node));
                    let mut next = e.at() + RETRY_BACKOFF * (1u64 << attempt.min(8));
                    if !e.is_retryable() {
                        if let Some(until) = self
                            .effective_faults
                            .as_ref()
                            .and_then(|p| p.device(ds).offline_until(e.at()))
                        {
                            next = next.max(until);
                        }
                    }
                    req.arrival = next;
                }
            }
        }
        None
    }
}
