//! The service core: admission, scheduling, execution, reporting.
//!
//! A [`Serve`] instance accepts [`Submission`]s (shedding hostile or
//! over-quota ones at admission with a typed [`ServeError`]), then
//! [`Serve::drain`]s the queue in deterministic *drain rounds*: each
//! round dispatches up to a bounded batch of due jobs (by submission id)
//! onto the `hwst-harness` worker pool, folds the results back in id
//! order, schedules retries with deterministic backoff, and advances
//! the logical [`TickClock`] by one. Because every scheduling decision
//! reads only the tick clock and id-ordered results — never wall time —
//! the [`Decision`] log is byte-identical for any worker count.

use crate::backoff::BackoffPolicy;
use crate::cache::{cache_key, CacheKey, CachedRun, ImageCache};
use crate::clock::TickClock;
use crate::error::ServeError;
use crate::quota::{TenantQuota, TenantState};
use hwst128::compiler::ir::Module;
use hwst128::compiler::{compile_with_options, CompileOptions, OptLevel, Scheme};
use hwst128::exec::{run_fast, BlockCache};
use hwst128::metadata::CompressionConfig;
use hwst128::sim::{Machine, SafetyConfig, Snapshot, Trap};
use hwst128::telemetry::{chrome_trace, Profiler};
use hwst128::workloads::{Scale, Workload};
use hwst_harness::{run, Job, JobOutcome, Json, OutcomeKind, PoolConfig, Sink};
use std::collections::BTreeMap;
use std::time::Duration;

/// Ring capacity of the span recorder when a submission asks for a
/// Chrome trace.
const TRACE_RING: usize = 4096;

/// What a tenant submits for execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A named workload from the `hwst-workloads` catalogue.
    Workload {
        /// The workload name (see [`hwst128::workloads::all`]).
        name: String,
        /// The problem size.
        scale: Scale,
    },
    /// A raw RV64+HWST128 image of little-endian instruction words.
    Image {
        /// Load address of the first word.
        base: u64,
        /// The image bytes.
        bytes: Vec<u8>,
    },
    /// An IR module compiled server-side with the submission's scheme.
    Module(Box<Module>),
    /// A chaos probe: the run attempt panics while `attempt <=
    /// fail_attempts`, then succeeds — exercising panic isolation and
    /// retry-after-backoff deterministically.
    ChaosPanic {
        /// Attempts that panic before the probe succeeds.
        fail_attempts: u32,
    },
}

impl Payload {
    /// A short display label for reports and decisions.
    pub fn label(&self) -> String {
        match self {
            Payload::Workload { name, .. } => name.clone(),
            Payload::Image { bytes, .. } => format!("image[{}B]", bytes.len()),
            Payload::Module(m) => format!("module[{}i]", m.inst_count()),
            Payload::ChaosPanic { fail_attempts } => format!("chaos[{fail_attempts}]"),
        }
    }

    /// Canonical content bytes for the cache key, when the payload is
    /// cacheable (chaos probes are not).
    fn canonical_bytes(&self) -> Option<Vec<u8>> {
        match self {
            Payload::Workload { name, scale } => {
                let mut v = b"wl:".to_vec();
                v.extend_from_slice(name.as_bytes());
                v.push(b'@');
                v.extend_from_slice(&scale.factor().to_le_bytes());
                Some(v)
            }
            Payload::Image { base, bytes } => {
                let mut v = b"img:".to_vec();
                v.extend_from_slice(&base.to_le_bytes());
                v.extend_from_slice(bytes);
                Some(v)
            }
            Payload::Module(m) => {
                let mut v = b"mod:".to_vec();
                v.extend_from_slice(m.to_string().as_bytes());
                Some(v)
            }
            Payload::ChaosPanic { .. } => None,
        }
    }
}

/// One request to the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    /// The submitting tenant.
    pub tenant: String,
    /// What to run.
    pub payload: Payload,
    /// Instrumentation scheme, by label (`"baseline"`, `"SBCETS"`,
    /// `"HWST128"`, `"HWST128_tchk"`, `"SHORE"`; case-insensitive).
    pub scheme: String,
    /// Optional compression-config CSR override; `None` keeps the
    /// scheme's default.
    pub compcfg_csr: Option<u64>,
    /// Optional instruction budget; clamped to the tenant fuel quota.
    pub fuel: Option<u64>,
    /// Whether to attach a Chrome trace to the report.
    pub trace: bool,
}

impl Submission {
    /// A plain submission with scheme defaults and no trace.
    pub fn new(tenant: impl Into<String>, payload: Payload, scheme: impl Into<String>) -> Self {
        Submission {
            tenant: tenant.into(),
            payload,
            scheme: scheme.into(),
            compcfg_csr: None,
            fuel: None,
            trace: false,
        }
    }
}

/// Looks an instrumentation scheme up by its paper label,
/// case-insensitively.
pub fn scheme_by_name(name: &str) -> Option<Scheme> {
    [
        Scheme::None,
        Scheme::Sbcets,
        Scheme::Hwst128,
        Scheme::Hwst128Tchk,
        Scheme::Shore,
    ]
    .into_iter()
    .find(|s| s.label().eq_ignore_ascii_case(name))
}

/// How an admitted job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The program ran to `exit`.
    Completed {
        /// The exit code.
        exit_code: u64,
        /// Total pipeline cycles.
        cycles: u64,
        /// Instructions retired.
        instret: u64,
    },
    /// A memory-safety violation was detected — the service's *success*
    /// case for hostile programs.
    Violation {
        /// `"spatial"` or `"temporal"`.
        kind: &'static str,
        /// The trap, rendered.
        detail: String,
    },
    /// The program faulted on a non-safety trap (bad fetch, misaligned
    /// access, ...).
    Faulted {
        /// The trap, rendered.
        detail: String,
    },
    /// The submission was rejected with a typed error (at admission or
    /// during execution).
    Rejected(ServeError),
}

impl Verdict {
    /// A stable slug for logs and JSON.
    pub fn slug(&self) -> String {
        match self {
            Verdict::Completed { .. } => "completed".to_string(),
            Verdict::Violation { kind, .. } => format!("violation-{kind}"),
            Verdict::Faulted { .. } => "faulted".to_string(),
            Verdict::Rejected(e) => format!("rejected-{}", e.code()),
        }
    }

    /// Whether this is a typed rejection.
    pub fn is_rejection(&self) -> bool {
        matches!(self, Verdict::Rejected(_))
    }
}

/// The final record of one submission (every submission gets exactly
/// one, rejected-at-admission ones included).
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Submission id (dense, in submission order).
    pub id: u64,
    /// The tenant.
    pub tenant: String,
    /// The payload label.
    pub label: String,
    /// Run attempts made (0 when shed at admission).
    pub attempts: u32,
    /// Whether any attempt warm-started from the image cache.
    pub cache_hit: bool,
    /// Total ticks spent waiting on retry backoff.
    pub backoff_ticks: u64,
    /// How it ended.
    pub verdict: Verdict,
    /// Program output (`putchar`/`print_u64`), when it completed.
    pub output: String,
    /// The Chrome trace, when requested and the run completed.
    pub trace: Option<Json>,
}

/// One line of the deterministic decision log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The tick the decision was taken at.
    pub tick: u64,
    /// The submission it concerns.
    pub job: u64,
    /// The tenant.
    pub tenant: String,
    /// What was decided.
    pub action: String,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t{:04} job{:04} {}: {}",
            self.tick, self.job, self.tenant, self.action
        )
    }
}

/// Service-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Submissions received (admitted or not).
    pub submitted: u64,
    /// Submissions shed at admission.
    pub shed_at_submit: u64,
    /// Submissions admitted to the queue.
    pub admitted: u64,
    /// Admitted jobs shed later because their tenant's circuit opened.
    pub shed_suspended: u64,
    /// Jobs that ran to `exit`.
    pub completed: u64,
    /// Jobs stopped by a safety violation.
    pub violations: u64,
    /// Jobs stopped by a non-safety trap.
    pub faulted: u64,
    /// Jobs finalized with a typed rejection (admission sheds included).
    pub rejected: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Jobs that succeeded on attempt > 1.
    pub retry_successes: u64,
    /// Image-cache hits.
    pub cache_hits: u64,
    /// Image-cache misses.
    pub cache_misses: u64,
    /// Decoded blocks inherited by warm starts instead of re-decoded.
    pub decode_skips: u64,
    /// Worker panics isolated by the pool.
    pub panics_isolated: u64,
    /// Quota trips (fuel exhaustion or watchdog expiry).
    pub quota_trips: u64,
    /// Times a tenant circuit opened.
    pub circuit_opens: u64,
    /// Drain rounds executed.
    pub ticks: u64,
}

/// Service sizing and policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded queue capacity; admissions beyond it are shed with
    /// [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads per drain round.
    pub workers: usize,
    /// Per-attempt wall-clock watchdog (see
    /// [`hwst_harness::PoolConfig`]).
    pub timeout: Option<Duration>,
    /// Jobs dispatched per drain round (bounds tail latency and lets
    /// later duplicates hit the cache entries earlier rounds filled).
    pub batch: usize,
    /// Fuel when the submission names none (still clamped to the
    /// tenant quota).
    pub default_fuel: u64,
    /// The per-tenant limits.
    pub quota: TenantQuota,
    /// The retry policy.
    pub backoff: BackoffPolicy,
    /// Image-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Back-end optimization level for server-side compilation of
    /// workload and module payloads. Part of the image-cache key, so
    /// tiers never share cache entries.
    pub opt: OptLevel,
    /// Hard bound on drain rounds — the service's own watchdog; jobs
    /// still pending at this tick are finalized as
    /// [`ServeError::WorkerLost`].
    pub max_ticks: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            workers: 1,
            timeout: None,
            batch: 8,
            default_fuel: 2_000_000,
            quota: TenantQuota::default(),
            backoff: BackoffPolicy::default(),
            cache_capacity: 64,
            opt: OptLevel::O0,
            max_ticks: 10_000,
        }
    }
}

/// A queued, admitted job.
#[derive(Debug, Clone)]
struct QueuedJob {
    id: u64,
    tenant: String,
    label: String,
    payload: Payload,
    scheme: Scheme,
    compression: Option<CompressionConfig>,
    fuel: u64,
    trace: bool,
    attempt: u32,
    due: u64,
    backoff_ticks: u64,
    cache_hit: bool,
    key: Option<CacheKey>,
}

/// What one run attempt produced (the worker closure's return value).
#[derive(Debug, Clone)]
struct RunArtifact {
    /// The post-load snapshot and the decoded-block cache the run
    /// populated, present on cache misses of cacheable payloads so the
    /// coordinator can fill the image cache.
    cache_entry: Option<(Snapshot, BlockCache)>,
    /// Decoded blocks this attempt inherited from a warm cache entry
    /// instead of decoding itself (0 on cold starts).
    decode_skips: u64,
    /// The Chrome trace, when requested.
    trace: Option<Json>,
    /// The run result: a machine outcome or a typed rejection.
    result: Result<RunOutcome, ServeError>,
}

#[derive(Debug, Clone)]
enum RunOutcome {
    /// Ran to `exit`.
    Exit(hwst128::sim::ExitStatus),
    /// Stopped on a trap.
    Trapped(Trap),
    /// A chaos probe that reached its succeeding attempt.
    Probe,
}

/// Everything a worker needs to run one attempt, owned.
struct AttemptSpec {
    payload: Payload,
    scheme: Scheme,
    compression: Option<CompressionConfig>,
    fuel: u64,
    trace: bool,
    attempt: u32,
    opt: OptLevel,
    cached: Option<(Snapshot, BlockCache)>,
    want_cache_entry: bool,
}

/// Runs one attempt. Panics only when the payload is a chaos probe in
/// its failing window — everything else maps to a typed result.
fn run_attempt(spec: AttemptSpec) -> RunArtifact {
    let no_artifact = |e: ServeError| RunArtifact {
        cache_entry: None,
        decode_skips: 0,
        trace: None,
        result: Err(e),
    };
    if let Payload::ChaosPanic { fail_attempts } = spec.payload {
        if spec.attempt <= fail_attempts {
            panic!(
                "chaos probe: induced failure on attempt {} of {}",
                spec.attempt,
                fail_attempts + 1
            );
        }
        return RunArtifact {
            cache_entry: None,
            decode_skips: 0,
            trace: None,
            result: Ok(RunOutcome::Probe),
        };
    }
    let mut cfg = hwst128::config_for(spec.scheme);
    if let Some(c) = spec.compression {
        cfg.compression = c;
    }
    let (mut machine, mut blocks) = match spec.cached {
        Some((ref snap, ref warm)) => (snap.restore(), warm.clone()),
        None => match build_machine(&spec.payload, spec.scheme, spec.opt, cfg) {
            Ok(m) => (m, BlockCache::new()),
            Err(e) => return no_artifact(e),
        },
    };
    // Every block already decoded in the warm cache is decode work
    // this attempt inherits instead of repeating.
    let decode_skips = blocks.decodes();
    let snapshot = if spec.want_cache_entry && spec.cached.is_none() {
        Some(machine.snapshot())
    } else {
        None
    };
    let (run_result, trace) = if spec.trace {
        let mut prof = Profiler::with_recorder(TRACE_RING);
        let r = machine.run_profiled(spec.fuel, &mut prof);
        let events: Vec<_> = prof
            .recorder
            .as_ref()
            .map(|r| r.to_vec())
            .unwrap_or_default();
        (r, Some(chrome_trace(&events)))
    } else {
        (run_fast(&mut machine, spec.fuel, &mut blocks), None)
    };
    RunArtifact {
        // The block cache travels with the snapshot so warm starts
        // resume with every block the cold run decoded.
        cache_entry: snapshot.map(|snap| (snap, blocks)),
        decode_skips,
        trace,
        result: Ok(match run_result {
            Ok(exit) => RunOutcome::Exit(exit),
            Err(trap) => RunOutcome::Trapped(trap),
        }),
    }
}

/// Builds the machine for a cold start, mapping every failure to a
/// typed error.
fn build_machine(
    payload: &Payload,
    scheme: Scheme,
    opt: OptLevel,
    cfg: SafetyConfig,
) -> Result<Machine, ServeError> {
    let opts = CompileOptions::new(scheme).with_opt(opt);
    match payload {
        Payload::Workload { name, scale } => {
            let wl = Workload::by_name(name)
                .ok_or_else(|| ServeError::UnknownWorkload { name: name.clone() })?;
            let module = wl.module(*scale);
            let prog = compile_with_options(&module, opts)
                .map_err(|e| ServeError::CompileRejected { why: e.to_string() })?
                .program;
            Ok(Machine::new(prog, cfg))
        }
        Payload::Image { base, bytes } => Machine::from_image(*base, bytes, cfg)
            .map_err(|e| ServeError::BadImage { why: e.to_string() }),
        Payload::Module(m) => {
            let prog = compile_with_options(m, opts)
                .map_err(|e| ServeError::CompileRejected { why: e.to_string() })?
                .program;
            Ok(Machine::new(prog, cfg))
        }
        Payload::ChaosPanic { .. } => Err(ServeError::WorkerLost {
            why: "chaos probe reached the machine builder".to_string(),
        }),
    }
}

/// The service.
#[derive(Debug)]
pub struct Serve {
    cfg: ServeConfig,
    clock: TickClock,
    queue: Vec<QueuedJob>,
    tenants: BTreeMap<String, TenantState>,
    cache: ImageCache,
    next_id: u64,
    decisions: Vec<Decision>,
    stats: ServeStats,
    finished: Vec<JobReport>,
}

impl Serve {
    /// A fresh service with the given configuration.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = ImageCache::new(cfg.cache_capacity);
        Serve {
            cfg,
            clock: TickClock::new(),
            queue: Vec::new(),
            tenants: BTreeMap::new(),
            cache,
            next_id: 0,
            decisions: Vec::new(),
            stats: ServeStats::default(),
            finished: Vec::new(),
        }
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    fn decide(&mut self, job: u64, tenant: &str, action: String) {
        self.decisions.push(Decision {
            tick: self.clock.now(),
            job,
            tenant: tenant.to_string(),
            action,
        });
    }

    /// Validates `sub` and either queues it (returning its id) or sheds
    /// it with a typed error. Never blocks, never panics: a full queue
    /// or over-quota tenant is an immediate typed rejection. Every
    /// submission — shed ones included — gets an id and a final
    /// [`JobReport`].
    pub fn submit(&mut self, sub: Submission) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;
        let label = sub.payload.label();
        match self.admit(&sub) {
            Ok((scheme, compression, fuel)) => {
                let tenant = self.tenants.entry(sub.tenant.clone()).or_default();
                tenant.admitted += 1;
                tenant.in_flight += 1;
                self.stats.admitted += 1;
                let key = sub.payload.canonical_bytes().map(|payload_bytes| {
                    cache_key(&[
                        &payload_bytes,
                        scheme.label().as_bytes(),
                        self.cfg.opt.label().as_bytes(),
                        &compression
                            .unwrap_or(hwst128::config_for(scheme).compression)
                            .to_csr()
                            .to_le_bytes(),
                    ])
                });
                self.decide(
                    id,
                    &sub.tenant,
                    format!("admit {label} scheme={}", scheme.label()),
                );
                self.queue.push(QueuedJob {
                    id,
                    tenant: sub.tenant,
                    label,
                    payload: sub.payload,
                    scheme,
                    compression,
                    fuel,
                    trace: sub.trace,
                    attempt: 1,
                    due: self.clock.now(),
                    backoff_ticks: 0,
                    cache_hit: false,
                    key,
                });
                Ok(id)
            }
            Err(e) => {
                self.stats.shed_at_submit += 1;
                self.stats.rejected += 1;
                // Bad tenant names get no per-tenant state (they would
                // pollute the tenant table with attacker-chosen keys).
                if !matches!(e, ServeError::BadTenant { .. }) {
                    self.tenants.entry(sub.tenant.clone()).or_default().shed += 1;
                }
                let tenant_label = if matches!(e, ServeError::BadTenant { .. }) {
                    "<invalid>".to_string()
                } else {
                    sub.tenant.clone()
                };
                self.decide(id, &tenant_label, format!("shed {}", e.code()));
                self.finished.push(JobReport {
                    id,
                    tenant: tenant_label,
                    label,
                    attempts: 0,
                    cache_hit: false,
                    backoff_ticks: 0,
                    verdict: Verdict::Rejected(e.clone()),
                    output: String::new(),
                    trace: None,
                });
                Err(e)
            }
        }
    }

    /// The admission checks, in a fixed order (structural before
    /// capacity, so the decision log is stable).
    fn admit(
        &self,
        sub: &Submission,
    ) -> Result<(Scheme, Option<CompressionConfig>, u64), ServeError> {
        if sub.tenant.is_empty() {
            return Err(ServeError::BadTenant { why: "empty name" });
        }
        if sub.tenant.len() > 64 {
            return Err(ServeError::BadTenant {
                why: "name longer than 64 bytes",
            });
        }
        if sub.tenant.chars().any(|c| c.is_control()) {
            return Err(ServeError::BadTenant {
                why: "name contains control characters",
            });
        }
        match &sub.payload {
            Payload::Image { bytes, .. } => {
                if bytes.is_empty() {
                    return Err(ServeError::EmptyImage);
                }
                if bytes.len() % 4 != 0 {
                    return Err(ServeError::BadImage {
                        why: format!("image length {} is not a multiple of 4", bytes.len()),
                    });
                }
                if bytes.len() > self.cfg.quota.max_image_bytes {
                    return Err(ServeError::OversizedImage {
                        len: bytes.len(),
                        limit: self.cfg.quota.max_image_bytes,
                    });
                }
            }
            Payload::Module(m) => {
                if m.inst_count() > self.cfg.quota.max_module_insts {
                    return Err(ServeError::OversizedModule {
                        insts: m.inst_count(),
                        limit: self.cfg.quota.max_module_insts,
                    });
                }
            }
            Payload::Workload { name, .. } => {
                if Workload::by_name(name).is_none() {
                    return Err(ServeError::UnknownWorkload { name: name.clone() });
                }
            }
            Payload::ChaosPanic { .. } => {}
        }
        let scheme = scheme_by_name(&sub.scheme).ok_or_else(|| ServeError::UnknownScheme {
            name: sub.scheme.clone(),
        })?;
        let compression =
            match sub.compcfg_csr {
                None => None,
                Some(csr) => Some(CompressionConfig::from_csr(csr).map_err(|e| {
                    ServeError::InvalidCompCfg {
                        csr,
                        why: e.to_string(),
                    }
                })?),
            };
        if let Some(t) = self.tenants.get(&sub.tenant) {
            if t.in_flight >= self.cfg.quota.max_in_flight {
                return Err(ServeError::QuotaExceeded {
                    tenant: sub.tenant.clone(),
                    quota: "in-flight",
                    limit: self.cfg.quota.max_in_flight as u64,
                });
            }
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(ServeError::QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        let fuel = sub
            .fuel
            .unwrap_or(self.cfg.default_fuel)
            .min(self.cfg.quota.max_fuel);
        Ok((scheme, compression, fuel))
    }

    /// Finalizes one job: report, tenant in-flight decrement, decision.
    fn finalize(&mut self, job: QueuedJob, verdict: Verdict, output: String, trace: Option<Json>) {
        if let Some(t) = self.tenants.get_mut(&job.tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
        match &verdict {
            Verdict::Completed { .. } => self.stats.completed += 1,
            Verdict::Violation { .. } => self.stats.violations += 1,
            Verdict::Faulted { .. } => self.stats.faulted += 1,
            Verdict::Rejected(_) => self.stats.rejected += 1,
        }
        if !verdict.is_rejection() && job.attempt > 1 {
            self.stats.retry_successes += 1;
        }
        self.decide(job.id, &job.tenant, format!("done {}", verdict.slug()));
        self.finished.push(JobReport {
            id: job.id,
            tenant: job.tenant,
            label: job.label,
            attempts: job.attempt,
            cache_hit: job.cache_hit,
            backoff_ticks: job.backoff_ticks,
            verdict,
            output,
            trace,
        });
    }

    /// Records a quota trip for `job`'s tenant; emits the circuit-open
    /// decision when the breaker trips.
    fn trip(&mut self, job: &QueuedJob) {
        self.stats.quota_trips += 1;
        let now = self.clock.now();
        let quota = self.cfg.quota;
        let opened = self
            .tenants
            .entry(job.tenant.clone())
            .or_default()
            .record_trip(&quota, now);
        if let Some(until) = opened {
            self.stats.circuit_opens += 1;
            self.decide(
                job.id,
                &job.tenant,
                format!("circuit open until t{until:04}"),
            );
        }
    }

    /// Either schedules a retry for `job` (if the backoff budget
    /// allows) or finalizes it as retries-exhausted. `kind` names the
    /// retryable failure.
    fn retry_or_exhaust(&mut self, mut job: QueuedJob, kind: OutcomeKind) {
        if job.attempt < self.cfg.backoff.max_attempts.max(1) {
            let delay = self.cfg.backoff.delay_ticks(job.attempt, job.id);
            let next = job.attempt + 1;
            self.decide(
                job.id,
                &job.tenant,
                format!("retry {next} in {delay} ticks after {}", kind.name()),
            );
            self.stats.retries += 1;
            job.attempt = next;
            job.due = self.clock.now() + delay;
            job.backoff_ticks += delay;
            self.queue.push(job);
        } else {
            let attempts = job.attempt;
            self.finalize(
                job,
                Verdict::Rejected(ServeError::RetriesExhausted {
                    attempts,
                    last: kind.name().to_string(),
                }),
                String::new(),
                None,
            );
        }
    }

    /// Runs drain rounds until the queue is empty (or the tick budget
    /// expires). Progress events stream to `sink`.
    pub fn drain(&mut self, sink: &mut dyn Sink) {
        while !self.queue.is_empty() {
            if self.clock.now() >= self.cfg.max_ticks {
                for job in std::mem::take(&mut self.queue) {
                    self.finalize(
                        job,
                        Verdict::Rejected(ServeError::WorkerLost {
                            why: format!("tick budget ({}) exhausted", self.cfg.max_ticks),
                        }),
                        String::new(),
                        None,
                    );
                }
                break;
            }
            self.round(sink);
            self.clock.advance();
            self.stats.ticks = self.clock.now();
        }
    }

    /// One drain round: select, shed-or-dispatch, fold results.
    fn round(&mut self, sink: &mut dyn Sink) {
        let now = self.clock.now();
        // Select up to `batch` due jobs, lowest id first.
        self.queue.sort_by_key(|j| j.id);
        let mut selected = Vec::new();
        let mut rest = Vec::with_capacity(self.queue.len());
        for job in std::mem::take(&mut self.queue) {
            if job.due <= now && selected.len() < self.cfg.batch.max(1) {
                selected.push(job);
            } else {
                rest.push(job);
            }
        }
        self.queue = rest;
        if selected.is_empty() {
            return;
        }
        // Circuit check and cache lookup, in id order on the
        // coordinator (the cache is not shared with workers).
        let mut wave: Vec<QueuedJob> = Vec::with_capacity(selected.len());
        let mut jobs: Vec<Job<RunArtifact>> = Vec::with_capacity(selected.len());
        for mut job in selected {
            let open = self
                .tenants
                .get(&job.tenant)
                .and_then(|t| t.circuit_open(now));
            if let Some(until) = open {
                self.stats.shed_suspended += 1;
                if let Some(t) = self.tenants.get_mut(&job.tenant) {
                    t.shed += 1;
                }
                self.decide(
                    job.id,
                    &job.tenant,
                    format!("shed tenant-suspended until t{until:04}"),
                );
                let tenant = job.tenant.clone();
                self.finalize(
                    job,
                    Verdict::Rejected(ServeError::TenantSuspended {
                        tenant,
                        until_tick: until,
                    }),
                    String::new(),
                    None,
                );
                continue;
            }
            let cached = job.key.and_then(|k| {
                self.cache
                    .lookup(k)
                    .map(|c| (c.snapshot.clone(), c.blocks.clone()))
            });
            let warm = cached.is_some();
            if warm {
                job.cache_hit = true;
            }
            self.decide(
                job.id,
                &job.tenant,
                format!(
                    "dispatch attempt {}{}",
                    job.attempt,
                    if warm { " (warm)" } else { "" }
                ),
            );
            let spec = AttemptSpec {
                payload: job.payload.clone(),
                scheme: job.scheme,
                compression: job.compression,
                fuel: job.fuel,
                trace: job.trace,
                attempt: job.attempt,
                opt: self.cfg.opt,
                cached,
                want_cache_entry: job.key.is_some(),
            };
            jobs.push(Job::new(
                format!("job{:04}:{}", job.id, job.label),
                move || Ok(run_attempt(spec)),
            ));
            wave.push(job);
        }
        if jobs.is_empty() {
            return;
        }
        let pool = PoolConfig {
            workers: self.cfg.workers,
            timeout: self.cfg.timeout,
        };
        let results = run(jobs, &pool, sink);
        // Results are in JobId order, which is `wave` order; fold them
        // back in that (submission-id) order.
        for (job, res) in wave.into_iter().zip(results) {
            match res.outcome {
                JobOutcome::Ok(artifact) => {
                    self.stats.decode_skips += artifact.decode_skips;
                    if let (Some(key), Some((snap, blocks))) = (job.key, artifact.cache_entry) {
                        self.cache.insert(
                            key,
                            CachedRun {
                                snapshot: snap,
                                blocks,
                            },
                        );
                    }
                    match artifact.result {
                        Err(e) => self.finalize(job, Verdict::Rejected(e), String::new(), None),
                        Ok(RunOutcome::Probe) => {
                            if let Some(t) = self.tenants.get_mut(&job.tenant) {
                                t.record_success();
                            }
                            self.finalize(
                                job,
                                Verdict::Completed {
                                    exit_code: 0,
                                    cycles: 0,
                                    instret: 0,
                                },
                                String::new(),
                                None,
                            );
                        }
                        Ok(RunOutcome::Exit(exit)) => {
                            if let Some(t) = self.tenants.get_mut(&job.tenant) {
                                t.record_success();
                            }
                            let output = exit.output_string();
                            let verdict = Verdict::Completed {
                                exit_code: exit.code,
                                cycles: exit.stats.total_cycles(),
                                instret: exit.stats.instret,
                            };
                            self.finalize(job, verdict, output, artifact.trace);
                        }
                        Ok(RunOutcome::Trapped(trap)) => match trap {
                            Trap::OutOfFuel { .. } => {
                                self.trip(&job);
                                let tenant = job.tenant.clone();
                                let limit = job.fuel;
                                self.finalize(
                                    job,
                                    Verdict::Rejected(ServeError::QuotaExceeded {
                                        tenant,
                                        quota: "fuel",
                                        limit,
                                    }),
                                    String::new(),
                                    None,
                                );
                            }
                            t if t.is_violation() => {
                                if let Some(state) = self.tenants.get_mut(&job.tenant) {
                                    state.record_success();
                                }
                                let kind = match t {
                                    Trap::TemporalViolation { .. } => "temporal",
                                    _ => "spatial",
                                };
                                self.finalize(
                                    job,
                                    Verdict::Violation {
                                        kind,
                                        detail: t.to_string(),
                                    },
                                    String::new(),
                                    artifact.trace,
                                );
                            }
                            t => {
                                if let Some(state) = self.tenants.get_mut(&job.tenant) {
                                    state.record_success();
                                }
                                self.finalize(
                                    job,
                                    Verdict::Faulted {
                                        detail: t.to_string(),
                                    },
                                    String::new(),
                                    artifact.trace,
                                );
                            }
                        },
                    }
                }
                JobOutcome::Panicked(_) => {
                    self.stats.panics_isolated += 1;
                    self.retry_or_exhaust(job, OutcomeKind::Panicked);
                }
                JobOutcome::TimedOut(_) => {
                    self.trip(&job);
                    self.retry_or_exhaust(job, OutcomeKind::TimedOut);
                }
                JobOutcome::Failed(why) => {
                    self.finalize(
                        job,
                        Verdict::Rejected(ServeError::WorkerLost { why }),
                        String::new(),
                        None,
                    );
                }
                JobOutcome::Cancelled => {
                    self.finalize(
                        job,
                        Verdict::Rejected(ServeError::WorkerLost {
                            why: "cancelled".to_string(),
                        }),
                        String::new(),
                        None,
                    );
                }
            }
        }
    }

    /// Consumes the service into its final report. Call after
    /// [`Serve::drain`]; any still-queued jobs are finalized as
    /// worker-lost so reports always align 1:1 with submissions.
    pub fn into_report(mut self) -> ServeReport {
        for job in std::mem::take(&mut self.queue) {
            self.finalize(
                job,
                Verdict::Rejected(ServeError::WorkerLost {
                    why: "service shut down before the job ran".to_string(),
                }),
                String::new(),
                None,
            );
        }
        self.stats.cache_hits = self.cache.hits;
        self.stats.cache_misses = self.cache.misses;
        let mut reports = self.finished;
        reports.sort_by_key(|r| r.id);
        ServeReport {
            reports,
            decisions: self.decisions,
            stats: self.stats,
            tenants: self.tenants,
        }
    }
}

/// The full outcome of one service run.
#[derive(Debug)]
pub struct ServeReport {
    /// One report per submission, in submission order.
    pub reports: Vec<JobReport>,
    /// The deterministic decision log, in decision order.
    pub decisions: Vec<Decision>,
    /// Service-wide counters.
    pub stats: ServeStats,
    /// Per-tenant bookkeeping at shutdown.
    pub tenants: BTreeMap<String, TenantState>,
}

impl ServeReport {
    /// The decision log as one newline-joined string — the value the
    /// determinism gates compare byte-for-byte across worker counts.
    pub fn decision_log(&self) -> String {
        let mut s = String::new();
        for d in &self.decisions {
            s.push_str(&d.to_string());
            s.push('\n');
        }
        s
    }

    /// The report as a BENCH-style JSON document (the
    /// `BENCH_serve.json` schema in EXPERIMENTS.md).
    pub fn json(&self) -> Json {
        let stats = self.stats;
        let stats_json = Json::obj()
            .set("submitted", stats.submitted)
            .set("shed_at_submit", stats.shed_at_submit)
            .set("admitted", stats.admitted)
            .set("shed_suspended", stats.shed_suspended)
            .set("completed", stats.completed)
            .set("violations", stats.violations)
            .set("faulted", stats.faulted)
            .set("rejected", stats.rejected)
            .set("retries", stats.retries)
            .set("retry_successes", stats.retry_successes)
            .set("cache_hits", stats.cache_hits)
            .set("cache_misses", stats.cache_misses)
            .set("decode_skips", stats.decode_skips)
            .set("panics_isolated", stats.panics_isolated)
            .set("quota_trips", stats.quota_trips)
            .set("circuit_opens", stats.circuit_opens)
            .set("ticks", stats.ticks);
        let tenants = Json::Arr(
            self.tenants
                .iter()
                .map(|(name, t)| {
                    Json::obj()
                        .set("tenant", name.as_str())
                        .set("admitted", t.admitted)
                        .set("shed", t.shed)
                        .set("quota_trips", t.quota_trips)
                        .set("completed", t.completed)
                        .set("suspensions", t.suspensions)
                })
                .collect(),
        );
        let jobs = Json::Arr(
            self.reports
                .iter()
                .map(|r| {
                    let mut j = Json::obj()
                        .set("id", r.id)
                        .set("tenant", r.tenant.as_str())
                        .set("label", r.label.as_str())
                        .set("attempts", r.attempts)
                        .set("cache_hit", r.cache_hit)
                        .set("backoff_ticks", r.backoff_ticks)
                        .set("verdict", r.verdict.slug().as_str());
                    if let Verdict::Rejected(e) = &r.verdict {
                        j = j.set("error", e.to_string().as_str());
                    }
                    if let Verdict::Completed {
                        exit_code,
                        cycles,
                        instret,
                    } = r.verdict
                    {
                        j = j
                            .set("exit_code", exit_code)
                            .set("cycles", cycles)
                            .set("instret", instret);
                    }
                    j
                })
                .collect(),
        );
        Json::obj()
            .set("suite", "serve")
            .set("stats", stats_json)
            .set("tenants", tenants)
            .set("jobs", jobs)
            .set("decisions", self.decisions.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwst_harness::NullSink;

    fn benign(tenant: &str) -> Submission {
        Submission::new(
            tenant,
            Payload::Workload {
                name: "string".to_string(),
                scale: Scale::Test,
            },
            "HWST128",
        )
    }

    #[test]
    fn benign_workload_completes() {
        let mut s = Serve::new(ServeConfig::default());
        let id = s.submit(benign("alice")).unwrap();
        s.drain(&mut NullSink);
        let report = s.into_report();
        assert_eq!(report.reports.len(), 1);
        let r = &report.reports[0];
        assert_eq!(r.id, id);
        assert!(
            matches!(r.verdict, Verdict::Completed { .. }),
            "got {:?}",
            r.verdict
        );
        assert_eq!(report.stats.completed, 1);
    }

    #[test]
    fn duplicate_submissions_hit_the_cache() {
        // batch of one per round, so round 2 sees round 1's entry
        let cfg = ServeConfig {
            batch: 1,
            ..ServeConfig::default()
        };
        let mut s = Serve::new(cfg);
        s.submit(benign("alice")).unwrap();
        s.submit(benign("bob")).unwrap();
        s.drain(&mut NullSink);
        let report = s.into_report();
        assert_eq!(report.stats.cache_hits, 1, "{}", report.decision_log());
        assert!(report.reports[1].cache_hit);
        assert!(!report.reports[0].cache_hit);
    }

    #[test]
    fn chaos_probe_recovers_after_backoff() {
        let mut s = Serve::new(ServeConfig::default());
        s.submit(Submission::new(
            "carol",
            Payload::ChaosPanic { fail_attempts: 1 },
            "baseline",
        ))
        .unwrap();
        s.drain(&mut NullSink);
        let report = s.into_report();
        let r = &report.reports[0];
        assert_eq!(r.attempts, 2);
        assert!(r.backoff_ticks >= 1);
        assert!(matches!(r.verdict, Verdict::Completed { .. }));
        assert_eq!(report.stats.panics_isolated, 1);
        assert_eq!(report.stats.retry_successes, 1);
    }

    #[test]
    fn queue_full_sheds_without_blocking() {
        let cfg = ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let mut s = Serve::new(cfg);
        assert!(s.submit(benign("alice")).is_ok());
        let err = s.submit(benign("bob")).unwrap_err();
        assert_eq!(err.code(), "queue-full");
        s.drain(&mut NullSink);
        let report = s.into_report();
        assert_eq!(report.reports.len(), 2, "shed submission still reported");
        assert!(report.reports[1].verdict.is_rejection());
    }
}
