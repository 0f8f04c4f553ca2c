//! Request coalescing: many concurrent clients, one generator.
//!
//! Clients submit jobs into a *bounded* queue ([`std::sync::mpsc::sync_channel`]);
//! a single batcher thread drains it greedily: it blocks for the first job,
//! takes whatever else is already queued, up to `max_batch_rows`, and runs
//! one policy-aware generator forward pass over the lot. There is no flush
//! timer, so a lone request never waits for company, and batches still grow
//! under load because arrivals queue while a forward pass runs.
//!
//! Backpressure is the queue bound: when it is full, [`Batcher::submit`]
//! fails immediately with [`SubmitError::QueueFull`] and the HTTP layer
//! answers `503` + `Retry-After` instead of queueing unboundedly. If the
//! batcher thread is gone (panic, shutdown), submissions fail with
//! [`SubmitError::Unavailable`] and the server drops to the column-mean
//! ladder.

use crate::service::{ImputeResult, ImputeRow, ImputeService};
use scis_telemetry::{Counter, Hist, Telemetry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Bound on queued jobs (requests, not rows). Full queue → 503.
    pub queue_cap: usize,
    /// Stop taking queued jobs into a batch once it holds this many rows.
    pub max_batch_rows: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            queue_cap: 128,
            max_batch_rows: 256,
        }
    }
}

struct Job {
    rows: Vec<ImputeRow>,
    enqueued: Instant,
    /// Per-request trace id, carried through the batcher so the reply can
    /// attribute the coalesced batch back to the originating request.
    trace_id: Arc<str>,
    reply: SyncSender<BatchedReply>,
}

/// What the batcher sends back per job: the job's slice of the coalesced
/// result, the trace id the job carried (round-tripped so the HTTP layer
/// echoes an id that demonstrably survived the queue), and the size of the
/// generator batch this request rode in — the coalescing fact the access
/// log records per request.
#[derive(Debug)]
pub struct BatchedReply {
    /// This job's rows, sliced back out of the coalesced forward pass.
    pub result: ImputeResult,
    /// The trace id submitted with the job.
    pub trace_id: Arc<str>,
    /// Total rows in the coalesced batch the job was served from.
    pub batch_rows: u64,
}

/// Why a submission was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — back off and retry.
    QueueFull,
    /// The batcher thread is no longer running.
    Unavailable,
}

/// Handle to the batcher thread.
pub struct Batcher {
    tx: SyncSender<Job>,
    alive: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Spawns the batcher thread owning `service`.
    pub fn spawn(service: ImputeService, cfg: BatchConfig, telemetry: Telemetry) -> Batcher {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
        let alive = Arc::new(AtomicBool::new(true));
        let alive_thread = alive.clone();
        let join = std::thread::Builder::new()
            .name("scis-serve-batcher".into())
            .spawn(move || {
                run_loop(service, cfg, telemetry, rx);
                alive_thread.store(false, Ordering::SeqCst);
            })
            .expect("spawn batcher thread");
        Batcher {
            tx,
            alive,
            join: Some(join),
        }
    }

    /// True while the batcher thread is draining the queue.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Submits validated rows under a trace id; returns the channel the
    /// result arrives on.
    pub fn submit(
        &self,
        rows: Vec<ImputeRow>,
        trace_id: Arc<str>,
    ) -> Result<Receiver<BatchedReply>, SubmitError> {
        if !self.is_alive() {
            return Err(SubmitError::Unavailable);
        }
        // a one-slot reply channel: the batcher sends exactly one reply per
        // job, so its send never blocks, whether or not anyone is waiting
        let (reply, result_rx) = std::sync::mpsc::sync_channel(1);
        let job = Job {
            rows,
            enqueued: Instant::now(),
            trace_id,
            reply,
        };
        match self.tx.try_send(job) {
            Ok(()) => Ok(result_rx),
            Err(TrySendError::Full(_)) => Err(SubmitError::QueueFull),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Unavailable),
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        // the recv loop ends when every sender is gone; self.tx outlives
        // drop's body, so swap in a disconnected stand-in first, then join
        // so queued jobs are answered before the process moves on
        if let Some(join) = self.join.take() {
            let (dead, _) = std::sync::mpsc::sync_channel(1);
            self.tx = dead;
            let _ = join.join();
        }
    }
}

fn run_loop(mut service: ImputeService, cfg: BatchConfig, telemetry: Telemetry, rx: Receiver<Job>) {
    // block for the first job of the batch; the loop ends when every
    // sender is gone
    while let Ok(first) = rx.recv() {
        let mut n_rows = first.rows.len();
        let mut jobs = vec![first];
        // take whatever is already queued, without waiting for more
        while n_rows < cfg.max_batch_rows {
            let Ok(job) = rx.try_recv() else { break };
            n_rows += job.rows.len();
            jobs.push(job);
        }

        // one forward pass over every coalesced row
        let all_rows: Vec<ImputeRow> = jobs.iter().flat_map(|j| j.rows.iter().cloned()).collect();
        let result = service.impute_rows(&all_rows);
        telemetry.incr(Counter::ServeBatches);
        telemetry.record_hist(Hist::ServeBatchRows, all_rows.len() as u64);

        // split the batch result back per job, preserving order
        let mut offset = 0;
        for job in jobs {
            let take = job.rows.len();
            let slice = ImputeResult {
                rows: result.rows[offset..offset + take].to_vec(),
                degraded: result.degraded,
            };
            offset += take;
            telemetry.record_hist_duration(Hist::ServeRequestNanos, job.enqueued.elapsed());
            // a vanished client (timed out, disconnected) is not an error
            let _ = job.reply.send(BatchedReply {
                result: slice,
                trace_id: job.trace_id,
                batch_rows: all_rows.len() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{ColumnMeta, ModelBundle};
    use scis_core::dim::AccelConfig;
    use scis_data::dataset::ColumnKind;
    use scis_data::normalize::MinMaxScaler;
    use scis_imputers::{AdversarialImputer, GainImputer, TrainConfig};
    use scis_tensor::{ExecPolicy, Matrix, Rng64};

    fn bundle(d: usize) -> ModelBundle {
        let mut rng = Rng64::seed_from_u64(21);
        let mut gain = GainImputer::new(TrainConfig::fast_test());
        gain.init_networks(d, &mut rng);
        let spec = gain.generator_spec();
        let generator = gain.generator_mut().clone();
        let values = Matrix::from_fn(30, d, |i, j| i as f64 * 0.1 + j as f64);
        let scaler = MinMaxScaler::fit(&values);
        let columns = (0..d)
            .map(|j| ColumnMeta {
                name: format!("c{}", j),
                kind: ColumnKind::Continuous,
                mean: j as f64,
            })
            .collect();
        ModelBundle::new(generator, spec, scaler, columns, AccelConfig::default()).unwrap()
    }

    fn service(d: usize) -> crate::service::ImputeService {
        crate::service::ImputeService::new(
            bundle(d),
            ExecPolicy::Serial,
            scis_telemetry::Telemetry::off(),
        )
    }

    #[test]
    fn coalesced_results_match_direct_service_bitwise() {
        let d = 3;
        let mut direct = service(d);
        let tel = scis_telemetry::Telemetry::collecting();
        let batcher = Batcher::spawn(service(d), BatchConfig::default(), tel.clone());
        let rows: Vec<ImputeRow> = (0..10)
            .map(|i| vec![Some(i as f64), None, Some(0.25)])
            .collect();
        let expected = direct.impute_rows(&rows);
        let handles: Vec<_> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let trace: Arc<str> = format!("trace-{}", i).into();
                (
                    trace.clone(),
                    batcher.submit(vec![r.clone()], trace).unwrap(),
                )
            })
            .collect();
        for (i, (trace, rx)) in handles.into_iter().enumerate() {
            let got = rx.recv().unwrap();
            // the trace id round-trips through the queue with its job
            assert_eq!(got.trace_id, trace);
            assert!(got.batch_rows >= 1);
            for j in 0..d {
                assert_eq!(
                    got.result.rows[0][j].to_bits(),
                    expected.rows[i][j].to_bits(),
                    "row {} col {}",
                    i,
                    j
                );
            }
        }
        assert!(tel.counter(Counter::ServeBatches) >= 1);
        drop(batcher);
    }

    #[test]
    fn full_queue_reports_backpressure() {
        // a 1-slot queue: submitting without awaiting replies outpaces the
        // batcher's forward passes, so a submission must bounce
        let cfg = BatchConfig {
            queue_cap: 1,
            ..BatchConfig::default()
        };
        let batcher = Batcher::spawn(service(2), cfg, scis_telemetry::Telemetry::off());
        let trace: Arc<str> = "t".into();
        let rows: Vec<ImputeRow> = vec![vec![Some(1.0), None]; 16];
        let mut accepted = Vec::new();
        let mut saw_full = false;
        for _ in 0..10_000 {
            match batcher.submit(rows.clone(), trace.clone()) {
                Ok(rx) => accepted.push(rx),
                Err(SubmitError::QueueFull) => {
                    saw_full = true;
                    break;
                }
                Err(e) => panic!("unexpected {:?}", e),
            }
        }
        assert!(saw_full, "bounded queue never reported backpressure");
        // every accepted job is still answered
        for rx in accepted {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("an accepted job must be answered");
            assert_eq!(reply.result.rows.len(), rows.len());
        }
        drop(batcher);
    }

    #[test]
    fn shutdown_answers_queued_jobs() {
        let batcher = Batcher::spawn(
            service(2),
            BatchConfig::default(),
            scis_telemetry::Telemetry::off(),
        );
        let rx = batcher
            .submit(vec![vec![None, Some(2.0)]], "t".into())
            .unwrap();
        drop(batcher); // joins the thread
        let out = rx.recv().expect("queued job must still be answered");
        assert_eq!(out.result.rows[0][1], 2.0);
    }
}
