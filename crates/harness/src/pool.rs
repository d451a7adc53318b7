//! The worker pool: job model, outcomes, and the deterministic
//! collector.

use crate::sink::{Event, Sink};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Stable identity of a job: its index in the vector handed to
/// [`run`]. Results are ordered by this, never by completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

/// One unit of work: a labelled fallible closure.
///
/// The closure's `Err` is for *expected* failures (a workload that
/// traps, a case that fails to compile); panics and watchdog expiries
/// are mapped to their own [`JobOutcome`] variants by the pool.
pub struct Job<T> {
    label: String,
    work: Box<dyn FnOnce() -> Result<T, String> + Send + 'static>,
}

impl<T> Job<T> {
    /// Wraps a fallible closure.
    pub fn new(
        label: impl Into<String>,
        work: impl FnOnce() -> Result<T, String> + Send + 'static,
    ) -> Self {
        Job {
            label: label.into(),
            work: Box::new(work),
        }
    }

    /// Wraps a closure that only fails by panicking.
    pub fn infallible(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'static) -> Self {
        Job::new(label, move || Ok(work()))
    }

    /// The job's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// The failure taxonomy: how a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The closure returned `Ok`.
    Ok(T),
    /// The closure returned `Err` (an expected, structured failure).
    Failed(String),
    /// The closure panicked; the payload message is captured.
    Panicked(String),
    /// The watchdog expired before the closure finished.
    TimedOut(Duration),
}

impl<T> JobOutcome<T> {
    /// The outcome's kind, without the payload.
    pub fn kind(&self) -> OutcomeKind {
        match self {
            JobOutcome::Ok(_) => OutcomeKind::Ok,
            JobOutcome::Failed(_) => OutcomeKind::Failed,
            JobOutcome::Panicked(_) => OutcomeKind::Panicked,
            JobOutcome::TimedOut(_) => OutcomeKind::TimedOut,
        }
    }

    /// The success value, if any.
    pub fn ok(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Collapses the taxonomy into a `Result` with a prefixed error
    /// message (`failed:` / `panicked:` / `timed out after ...`).
    pub fn into_result(self) -> Result<T, String> {
        match self {
            JobOutcome::Ok(v) => Ok(v),
            JobOutcome::Failed(e) => Err(format!("failed: {e}")),
            JobOutcome::Panicked(m) => Err(format!("panicked: {m}")),
            JobOutcome::TimedOut(d) => Err(format!("timed out after {:.1}s", d.as_secs_f64())),
        }
    }
}

/// [`JobOutcome`] without the payload — for progress display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Completed successfully.
    Ok,
    /// Returned a structured error.
    Failed,
    /// Panicked.
    Panicked,
    /// Hit the watchdog.
    TimedOut,
}

impl OutcomeKind {
    /// Short stable name (used in progress lines and JSON).
    pub const fn name(self) -> &'static str {
        match self {
            OutcomeKind::Ok => "ok",
            OutcomeKind::Failed => "failed",
            OutcomeKind::Panicked => "panicked",
            OutcomeKind::TimedOut => "timed-out",
        }
    }
}

/// One job's result. `wall` is measurement, not identity: two runs of
/// the same job vector agree on everything *except* `wall`.
#[derive(Debug, Clone)]
pub struct JobResult<T> {
    /// The job's stable identity.
    pub id: JobId,
    /// The job's label, copied from the submitted [`Job`].
    pub label: String,
    /// How it ended.
    pub outcome: JobOutcome<T>,
    /// Wall-clock duration of the closure (nondeterministic).
    pub wall: Duration,
}

/// A non-`Ok` job, flattened for reporting (see [`collect_ok`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// The job's stable identity.
    pub id: JobId,
    /// The job's label.
    pub label: String,
    /// Prefixed error message (see [`JobOutcome::into_result`]).
    pub error: String,
}

/// Pool sizing and watchdog policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1 and at most the job
    /// count).
    pub workers: usize,
    /// Per-job wall-clock limit. `None` runs jobs inline on the
    /// worker; `Some` runs each job on its own thread so an expired
    /// job can be abandoned (std threads cannot be cancelled — a
    /// timed-out job keeps running detached until process exit, which
    /// is the documented cost of the watchdog).
    pub timeout: Option<Duration>,
}

impl PoolConfig {
    /// One worker, no watchdog — the reference serial execution.
    pub fn serial() -> Self {
        PoolConfig {
            workers: 1,
            timeout: None,
        }
    }

    /// `workers` workers, no watchdog.
    pub fn parallel(workers: usize) -> Self {
        PoolConfig {
            workers: workers.max(1),
            timeout: None,
        }
    }

    /// Sized from the environment: `HWST_JOBS` if set and positive,
    /// else [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        PoolConfig::parallel(default_workers())
    }

    /// Adds a per-job watchdog.
    pub fn with_timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }
}

/// The `HWST_JOBS`-or-hardware default worker count.
pub(crate) fn default_workers() -> usize {
    std::env::var("HWST_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

enum Msg<T> {
    Started { id: JobId },
    Done(JobResult<T>),
}

/// Runs every job on the pool and returns the results **ordered by
/// [`JobId`]** — independent of worker count and completion order.
///
/// Progress events are delivered to `sink` on the calling thread.
/// Jobs are claimed from a shared cursor (work stealing by
/// construction: a free worker takes the next unclaimed job), so a
/// slow job never blocks the rest of the table.
pub fn run<T: Send + 'static>(
    jobs: Vec<Job<T>>,
    cfg: &PoolConfig,
    sink: &mut dyn Sink,
) -> Vec<JobResult<T>> {
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let labels: Vec<String> = jobs.iter().map(|j| j.label.clone()).collect();
    let slots: Vec<Mutex<Option<Job<T>>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(0);
    let workers = cfg.workers.clamp(1, total);
    let timeout = cfg.timeout;
    let (tx, rx) = mpsc::channel::<Msg<T>>();
    let mut results: Vec<Option<JobResult<T>>> = Vec::with_capacity(total);
    results.resize_with(total, || None);
    thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let slots = &slots;
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let job = match slots[i].lock() {
                    Ok(mut slot) => slot.take(),
                    Err(_) => break,
                };
                let Some(job) = job else { continue };
                let id = JobId(i);
                if tx.send(Msg::Started { id }).is_err() {
                    break;
                }
                let start = Instant::now();
                let outcome = execute(job.work, timeout);
                let done = JobResult {
                    id,
                    label: job.label,
                    outcome,
                    wall: start.elapsed(),
                };
                if tx.send(Msg::Done(done)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut done = 0usize;
        for msg in rx {
            match msg {
                Msg::Started { id } => sink.event(Event::Started {
                    id,
                    label: &labels[id.0],
                    done,
                    total,
                }),
                Msg::Done(r) => {
                    done += 1;
                    let idx = r.id.0;
                    sink.event(Event::Finished {
                        id: r.id,
                        label: &r.label,
                        kind: r.outcome.kind(),
                        wall: r.wall,
                        done,
                        total,
                    });
                    results[idx] = Some(r);
                }
            }
        }
    });
    let out: Vec<JobResult<T>> = results.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), total, "every job must produce a result");
    out
}

/// Splits results into the `Ok` values (in [`JobId`] order) and the
/// flattened failures.
pub fn collect_ok<T>(results: Vec<JobResult<T>>) -> (Vec<T>, Vec<FailedJob>) {
    let mut ok = Vec::new();
    let mut failed = Vec::new();
    for r in results {
        match r.outcome.into_result() {
            Ok(v) => ok.push(v),
            Err(error) => failed.push(FailedJob {
                id: r.id,
                label: r.label,
                error,
            }),
        }
    }
    (ok, failed)
}

type WorkFn<T> = Box<dyn FnOnce() -> Result<T, String> + Send + 'static>;

fn execute<T: Send + 'static>(work: WorkFn<T>, timeout: Option<Duration>) -> JobOutcome<T> {
    let Some(limit) = timeout else {
        return classify(catch_unwind(AssertUnwindSafe(work)));
    };
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name("hwst-harness-job".into())
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(work)));
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return JobOutcome::Failed(format!("could not spawn job thread: {e}")),
    };
    match rx.recv_timeout(limit) {
        Ok(r) => {
            let _ = handle.join();
            classify(r)
        }
        // The job thread is abandoned (no cancellation in std); its
        // eventual result is discarded because the channel is closed.
        Err(RecvTimeoutError::Timeout) => JobOutcome::TimedOut(limit),
        Err(RecvTimeoutError::Disconnected) => {
            JobOutcome::Failed("job thread exited without a result".into())
        }
    }
}

fn classify<T>(caught: Result<Result<T, String>, Box<dyn Any + Send>>) -> JobOutcome<T> {
    match caught {
        Ok(Ok(v)) => JobOutcome::Ok(v),
        Ok(Err(e)) => JobOutcome::Failed(e),
        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
