//! Multi-query serving: admission control and fair scheduling over shared
//! arenas.
//!
//! [`QueryServer`] wraps one [`Proteus`] engine behind a session API: queries
//! are submitted with a [`Priority`], **admitted** against per-node staging
//! byte budgets, and executed concurrently over a shared worker pool. The
//! pieces:
//!
//! * **Admission tokens.** The server owns a [`BlockManagerSet`] sized at
//!   [`ServeConfig::effective_admission_bytes`] per memory node; the existing
//!   [`BlockLease`] machinery *is* the admission token. A query starts only
//!   when its estimated peak staging footprint
//!   ([`EngineConfig::est_serve_footprint_bytes`]) fits on every node; the
//!   leases are held for the query's whole run and released when it finishes,
//!   waking the queue. Admission order is strict priority with FIFO inside
//!   each class and **no bypass** — a class-mate behind a too-big head waits
//!   with it, which keeps admission deterministic and starvation-free.
//! * **Shared calibration.** One server-lifetime [`SlowdownObserver`] is
//!   threaded through every execution, so straggler EWMAs learned by one
//!   query inform the routing of the next.
//! * **Fair timeline.** Rows are computed functionally (and are exactly the
//!   single-query rows — each query runs on private simulated clocks), while
//!   the *served* latencies come from the deterministic fluid replay of
//!   [`hetex_core::FairTimeline`]: each finished query contributes a
//!   [`ServeSession`] (measured isolated demand, per-kind busy time,
//!   priority, footprint), and [`QueryServer::shutdown`] resolves the batch
//!   into per-query admission/finish instants, the makespan, and the
//!   admission peaks — bit-reproducible regardless of how the worker threads
//!   interleaved on the wall clock.

use crate::engine::{Proteus, QueryOutcome};
use crate::session::QuerySession;
use hetex_common::{EngineConfig, HetError, MemoryNodeId, Priority, Result, ServeConfig};
use hetex_core::{CostModel, FeedbackCache, RelNode, ServeSession, SlowdownObserver};
use hetex_storage::{BlockLease, BlockManagerSet, ExhaustionPolicy};
use hetex_topology::{DeviceKind, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A handle to one submitted query; resolves to its [`QueryOutcome`].
pub struct QueryTicket {
    /// Submission index (the order [`ServeReport::sessions`] reports in).
    seq: usize,
    slot: Arc<TicketSlot>,
}

struct TicketSlot {
    result: Mutex<Option<Result<QueryOutcome>>>,
    done: Condvar,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTicket").field("seq", &self.seq).finish_non_exhaustive()
    }
}

impl QueryTicket {
    /// The query's submission index.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Block until the query finishes and take its outcome.
    pub fn wait(self) -> Result<QueryOutcome> {
        let mut result = self.slot.result.lock().expect("ticket lock poisoned");
        loop {
            if let Some(outcome) = result.take() {
                return outcome;
            }
            result = self.slot.done.wait(result).expect("ticket lock poisoned");
        }
    }
}

/// One query waiting for admission.
struct Pending {
    seq: usize,
    priority: Priority,
    plan: RelNode,
    config: EngineConfig,
    footprint: u64,
    slot: Arc<TicketSlot>,
    /// Session-level overrides of the server-lifetime shared state; `None`
    /// means "use the server's".
    observer: Option<Arc<SlowdownObserver>>,
    feedback: Option<Arc<FeedbackCache>>,
}

/// Queue state behind the server's mutex.
struct Queue {
    /// Waiting queries, kept sorted by (priority rank, submission seq):
    /// strict priority, FIFO within a class, head-only admission.
    waiting: VecDeque<Pending>,
    /// Completed session specs, indexed by submission seq (`None` until the
    /// query finishes, and permanently `None` for failed queries).
    sessions: Vec<Option<ServeSession>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Woken on submit, on lease release, and on shutdown.
    admit: Condvar,
}

/// One served query's resolved place on the fair timeline.
#[derive(Debug, Clone, Copy)]
pub struct ServedQuery {
    /// Submission index.
    pub seq: usize,
    /// Priority class the query was served under.
    pub priority: Priority,
    /// Measured isolated simulated time (the query's demand).
    pub isolated: SimTime,
    /// Virtual time the admission token was granted.
    pub admitted_at: SimTime,
    /// Virtual time the query completed.
    pub finished_at: SimTime,
}

impl ServedQuery {
    /// Served latency: submission (virtual time zero) to finish.
    pub fn latency(&self) -> SimTime {
        self.finished_at
    }
}

/// What a serving run resolved to, returned by [`QueryServer::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Every *successful* query's schedule, in submission order.
    pub sessions: Vec<ServedQuery>,
    /// Virtual completion time of the whole batch.
    pub makespan: SimTime,
    /// Sum of the isolated times — the serial back-to-back baseline.
    pub serial: SimTime,
    /// Peak admission bytes ever held, per node (from the real lease
    /// arenas, not the replay — the two must agree on the budget bound).
    pub admission_peaks: Vec<(MemoryNodeId, u64)>,
    /// The per-node admission budget the peaks are bounded by.
    pub admission_budget: u64,
}

impl ServeReport {
    /// Aggregate speedup of serving over running the batch serially.
    pub fn speedup(&self) -> f64 {
        if self.makespan == SimTime::ZERO {
            return 1.0;
        }
        self.serial.as_secs_f64() / self.makespan.as_secs_f64()
    }

    /// The `q`-quantile (0..=1) of the served latencies, by nearest rank.
    pub fn latency_quantile(&self, q: f64) -> SimTime {
        let mut latencies: Vec<SimTime> = self.sessions.iter().map(|s| s.latency()).collect();
        if latencies.is_empty() {
            return SimTime::ZERO;
        }
        latencies.sort();
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    }
}

/// The multi-query session layer over one engine.
pub struct QueryServer {
    engine: Arc<Proteus>,
    serve: ServeConfig,
    /// Server-lifetime straggler observer, shared by every query.
    observer: Arc<SlowdownObserver>,
    /// Server-lifetime plan-feedback cache: measurements one served query
    /// records re-optimize the same plan's next submission, across the whole
    /// worker pool.
    feedback: Arc<FeedbackCache>,
    /// Admission arenas: one per memory node, each sized at the budget.
    admission: Arc<BlockManagerSet>,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    submitted: usize,
}

impl std::fmt::Debug for QueryServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryServer")
            .field("serve", &self.serve)
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl QueryServer {
    /// Start a server over `engine` with `serve` as the admission/fairness
    /// policy. Fails on an empty worker pool or a zero admission budget.
    pub fn new(engine: Arc<Proteus>, serve: ServeConfig) -> Result<Self> {
        if serve.workers == 0 {
            return Err(HetError::Config("serving requires at least one worker".into()));
        }
        if serve.admission_bytes == Some(0) {
            return Err(HetError::Config("serving admission budget must be positive".into()));
        }
        let nodes: Vec<MemoryNodeId> =
            engine.topology().memory_nodes().iter().map(|m| m.id).collect();
        let admission = Arc::new(BlockManagerSet::new(&nodes, serve.effective_admission_bytes()));
        let observer = Arc::new(SlowdownObserver::new(engine.topology().devices().len()));
        let feedback = Arc::new(FeedbackCache::new());
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                waiting: VecDeque::new(),
                sessions: Vec::new(),
                shutdown: false,
            }),
            admit: Condvar::new(),
        });
        let workers = (0..serve.workers)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let observer = Arc::clone(&observer);
                let feedback = Arc::clone(&feedback);
                let admission = Arc::clone(&admission);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    worker_loop(&engine, &observer, &feedback, &admission, &shared)
                })
            })
            .collect();
        Ok(Self { engine, serve, observer, feedback, admission, shared, workers, submitted: 0 })
    }

    /// The server-lifetime slowdown observer every query shares.
    pub fn observer(&self) -> &Arc<SlowdownObserver> {
        &self.observer
    }

    /// The server-lifetime plan-feedback cache every query shares.
    pub fn feedback_cache(&self) -> &Arc<FeedbackCache> {
        &self.feedback
    }

    /// The engine this server serves over.
    pub fn engine(&self) -> &Proteus {
        &self.engine
    }

    /// Open a [`QuerySession`] bound to this server: `.submit(..)` queues for
    /// admission, `.execute(..)` runs inline but still shares the server's
    /// observer and feedback cache.
    pub fn session(&mut self) -> QuerySession<'_> {
        QuerySession::on_server(self)
    }

    /// Submit a query for admission at `priority`, with optional
    /// session-level overrides of the shared observer and feedback cache.
    /// Returns a ticket the caller can [`QueryTicket::wait`] on; the query
    /// runs as soon as its staging footprint fits the per-node admission
    /// budget and a worker is free.
    pub(crate) fn submit_session(
        &mut self,
        plan: RelNode,
        config: EngineConfig,
        priority: Priority,
        observer: Option<Arc<SlowdownObserver>>,
        feedback: Option<Arc<FeedbackCache>>,
    ) -> Result<QueryTicket> {
        config.validate()?;
        let footprint = config.est_serve_footprint_bytes();
        let budget = self.serve.effective_admission_bytes();
        if footprint > budget {
            return Err(HetError::Config(format!(
                "query footprint ({footprint} bytes) exceeds the per-node admission \
                 budget ({budget} bytes): it can never be admitted"
            )));
        }
        let seq = self.submitted;
        self.submitted += 1;
        let slot = Arc::new(TicketSlot { result: Mutex::new(None), done: Condvar::new() });
        let pending = Pending {
            seq,
            priority,
            plan,
            config,
            footprint,
            slot: Arc::clone(&slot),
            observer,
            feedback,
        };
        {
            let mut queue = self.shared.queue.lock().expect("server queue poisoned");
            if queue.shutdown {
                return Err(HetError::Config("QueryServer is shut down".into()));
            }
            queue.sessions.push(None);
            // Strict priority, FIFO within a class: insert before the first
            // strictly-lower-priority entry. Seqs are monotone, so equal
            // ranks stay in submission order.
            let pos = queue
                .waiting
                .iter()
                .position(|p| p.priority.rank() > priority.rank())
                .unwrap_or(queue.waiting.len());
            queue.waiting.insert(pos, pending);
        }
        self.shared.admit.notify_all();
        Ok(QueryTicket { seq, slot })
    }

    /// Drain the queue, stop the workers, and resolve the batch's fair
    /// timeline. Every submitted query runs to completion first (tickets
    /// already handed out stay valid — `wait` them before or after).
    pub fn shutdown(mut self) -> Result<ServeReport> {
        {
            let mut queue = self.shared.queue.lock().expect("server queue poisoned");
            queue.shutdown = true;
        }
        self.shared.admit.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("serving worker panicked");
        }
        let queue = self.shared.queue.lock().expect("server queue poisoned");
        debug_assert!(queue.waiting.is_empty(), "shutdown drains the queue");
        debug_assert_eq!(
            self.admission.leased_bytes_total(),
            0,
            "every admission token is released at query end"
        );

        // Replay only the successful sessions, in submission order.
        let ordered: Vec<(usize, ServeSession)> = queue
            .sessions
            .iter()
            .enumerate()
            .filter_map(|(seq, s)| s.clone().map(|s| (seq, s)))
            .collect();
        let specs: Vec<ServeSession> = ordered.iter().map(|(_, s)| s.clone()).collect();
        let topology = self.engine.topology();
        let capacities = vec![topology.cpu_cores().len() as f64, topology.gpus().len() as f64];
        let budget = self.serve.effective_admission_bytes();
        let timeline = hetex_core::FairTimeline::new(
            capacities,
            budget,
            self.serve.workers,
            CostModel::default(),
        );
        let schedule = timeline.replay(&specs)?;
        assert!(
            schedule.peak_admitted_bytes <= budget,
            "fair-timeline admission exceeded the budget"
        );
        let admission_peaks = self.admission.peaks();
        for (node, peak) in &admission_peaks {
            assert!(*peak <= budget, "admission peak on {node} exceeded the budget");
        }
        let sessions: Vec<ServedQuery> = ordered
            .iter()
            .zip(&schedule.sessions)
            .map(|((seq, spec), slot)| ServedQuery {
                seq: *seq,
                priority: spec.priority,
                isolated: spec.isolated,
                admitted_at: slot.admitted_at,
                finished_at: slot.finished_at,
            })
            .collect();
        let serial =
            specs.iter().fold(SimTime::ZERO, |acc, s| acc.add_nanos(s.isolated.as_nanos()));
        Ok(ServeReport {
            sessions,
            makespan: schedule.makespan,
            serial,
            admission_peaks,
            admission_budget: budget,
        })
    }
}

/// Per-kind busy nanoseconds in the fair timeline's slot order
/// (`[CpuCore, Gpu]` — the capacities `shutdown` builds).
fn busy_by_kind(outcome: &QueryOutcome) -> Vec<u64> {
    [DeviceKind::CpuCore, DeviceKind::Gpu]
        .iter()
        .map(|kind| outcome.stats.per_kind.get(kind).map_or(0, |s| s.busy_ns))
        .collect()
}

/// One serving worker: admit from the head, execute, record, release.
fn worker_loop(
    engine: &Proteus,
    observer: &Arc<SlowdownObserver>,
    feedback: &Arc<FeedbackCache>,
    admission: &BlockManagerSet,
    shared: &Shared,
) {
    loop {
        let (job, leases) = {
            let mut queue = shared.queue.lock().expect("server queue poisoned");
            loop {
                if let Some(head) = queue.waiting.front() {
                    // Head-only admission: all acquisitions against the
                    // admission arenas happen here, under the queue lock, so
                    // an available-bytes check on every node is race-free.
                    let fits = engine.topology().memory_nodes().iter().all(|m| {
                        admission
                            .manager(m.id)
                            .is_ok_and(|mgr| mgr.available_bytes() >= head.footprint)
                    });
                    if fits {
                        let job = queue.waiting.pop_front().expect("head exists");
                        let label = format!("serve:q{}", job.seq);
                        let leases: Vec<BlockLease> = engine
                            .topology()
                            .memory_nodes()
                            .iter()
                            .map(|m| {
                                admission
                                    .manager(m.id)
                                    .expect("admission arena per node")
                                    .acquire_local_labeled(
                                        job.footprint,
                                        ExhaustionPolicy::Error,
                                        label.clone(),
                                    )
                                    .expect("checked available bytes under the queue lock")
                            })
                            .collect();
                        break (job, leases);
                    }
                } else if queue.shutdown {
                    return;
                }
                queue = shared.admit.wait(queue).expect("server queue poisoned");
            }
        };

        let job_observer = job.observer.clone().unwrap_or_else(|| Arc::clone(observer));
        let job_feedback = job.feedback.clone().unwrap_or_else(|| Arc::clone(feedback));
        let result =
            engine.execute_with(&job.plan, &job.config, Some(job_observer), Some(job_feedback));
        {
            let mut queue = shared.queue.lock().expect("server queue poisoned");
            if let Ok(outcome) = &result {
                queue.sessions[job.seq] = Some(ServeSession {
                    isolated: outcome.sim_time,
                    busy_ns: busy_by_kind(outcome),
                    priority: job.priority,
                    footprint_bytes: job.footprint,
                });
            }
        }
        *job.slot.result.lock().expect("ticket lock poisoned") = Some(result);
        job.slot.done.notify_all();
        // Release the admission tokens and wake waiters for the freed bytes.
        drop(leases);
        shared.admit.notify_all();
    }
}
