//! The generic campaign engine — one driver for every campaign type,
//! injection policy and thread count.
//!
//! The paper's harness couples fault-free, faulty and hardened model
//! instances behind a single scenario-driven loop (§III). This module
//! is that loop, extracted once: a campaign implements [`CampaignTask`]
//! (how to resolve injectable targets, stream fault scopes, process one
//! scope into rows and finalize a result) and the [`Engine`] owns
//! everything the campaigns used to duplicate:
//!
//! - epoch/batch/slot iteration for all three
//!   [`InjectionPolicy`] variants (via [`SlotCursor`]),
//! - replay validation of a pre-generated [`FaultMatrix`],
//! - hardened-model injectable-layer cross-checking,
//! - [`Recorder`] meta / span / outcome / event wiring,
//! - the [`alfi_pool`] fan-out with ordered merge and
//!   [`CoreError::WorkerPanic`] propagation,
//! - `save_dir` persistence: the replay set ([`Artifacts`]) plus a
//!   streaming row sink ([`ArtifactSink`]) fed one row at a time at
//!   scope boundaries, in CSV or columnar binary format
//!   ([`ArtifactFormat`]).
//!
//! The driver works in *rounds*. It pulls scopes from the task's
//! stream, arms each one with its fault slot, and once a round is full
//! runs it — inline on the calling thread at `threads` ≤ 1, on the
//! shared pool otherwise — then merges the round in slot order and
//! drops it. The merge is the single place where results become
//! visible: metrics, the row sink, the stop policy and the recorder's
//! outcome tallies and injection events all see rows in the same order
//! at every thread count. At most one round of scopes (input tensors
//! included) is alive at a time, so memory stays bounded at any
//! campaign size.
//!
//! Every persisted row carries a deterministic
//! [`RowKey`] `(epoch, batch, fault_id)`: `fault_id` is the fault
//! matrix slot that was armed while the row's scope ran, `batch` the
//! ordinal of its loader batch within the epoch. Keys are assigned at
//! arm time, before any work runs, so row artifacts are byte-identical
//! at every thread count — and the columnar store's fault-id index
//! answers "what did fault *n* do?" without a full scan.

use crate::artifact::{ArtifactSink, Artifacts};
use crate::campaign::config::RunConfig;
use crate::campaign::stop::{ScopeDecision, StopReport, StopState};
use crate::error::CoreError;
use crate::fault::{AppliedFault, FaultRecord};
use crate::injector::{arm_faults, injection_event};
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::persist::{save_events, save_fault_matrix, save_metrics, RunTrace, TraceEntry};
use alfi_metrics::{names, Class, Counter, HealthSink, Histogram, Registry, Watchdog};
use alfi_scenario::{ArtifactFormat, InjectionPolicy, Scenario, StopPolicy};
use alfi_store::RowKey;
use alfi_tensor::gemm::{self, KernelPath};
use alfi_trace::{EffectClass, Phase, Recorder, RunMeta};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Read-only context handed to scope processing: the scenario, the
/// resolved injectable-layer targets (primary and hardened) and the
/// fault set armed for the current scope.
#[derive(Debug, Clone, Copy)]
pub struct ScopeCtx<'r> {
    /// The scenario driving the run.
    pub scenario: &'r Scenario,
    /// Injectable-layer targets of the primary model.
    pub targets: &'r [LayerTarget],
    /// Aligned targets of the hardened model, when one was attached.
    pub resil_targets: Option<&'r [LayerTarget]>,
    /// Faults to arm while processing this scope.
    pub faults: &'r [FaultRecord],
}

/// Streaming sink for [`CampaignTask::stream_scopes`]. Called once per
/// scope with `(first_in_batch, scope)`; returns `Break` when the
/// engine wants the stream to stop (exhausted fault matrix).
pub type ScopeSink<'a, S> = dyn FnMut(bool, S) -> Result<ControlFlow<()>, CoreError> + 'a;

/// Per-run model instances for a [`CampaignTask::Worker`]: one per
/// scope that can run at once, built once per run. A scope takes a free
/// instance, arms its faults on it in place and disarms them before
/// [`with`](Self::with) puts it back, so no scope clones a model and
/// every instance is pristine between scopes.
pub struct Instances<T> {
    free: Mutex<Vec<T>>,
}

impl<T> Instances<T> {
    /// Builds one instance with `make` per scope that runs at once when
    /// the engine runs `threads` scopes on the global pool: `threads`
    /// as the pool clamps it, at least 1 and at most `max(threads, 1)`.
    ///
    /// # Errors
    ///
    /// Returns the first error `make` returns.
    pub fn build(
        threads: usize,
        make: impl FnMut() -> Result<T, CoreError>,
    ) -> Result<Self, CoreError> {
        let count = alfi_pool::global().effective_threads(threads);
        let free = std::iter::repeat_with(make).take(count).collect::<Result<_, _>>()?;
        Ok(Instances { free: Mutex::new(free) })
    }

    /// Runs `f` on a free instance and puts the instance back. `f` must
    /// leave it as it found it, on its error paths too. An instance
    /// whose scope panics is not put back: it may still be armed, and
    /// the run ends with [`CoreError::WorkerPanic`] anyway.
    ///
    /// # Panics
    ///
    /// Panics if more scopes run at once than instances were built.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut instance = lock(&self.free).pop().expect("one instance per running scope");
        let out = f(&mut instance);
        lock(&self.free).push(instance);
        out
    }
}

/// Locks a mutex, recovering the guard if a panicking scope poisoned
/// it. What the engine and the adapters guard this way (instance
/// stacks, borrowed detectors) is valid at every step.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arms the scope's faults in place on the networks `nets` reaches in
/// `model`, runs `pass` on it and disarms them bit-exactly again, on
/// the pass's error path too, so that `model` comes back as it was.
/// Returns the pass's output and the faults applied during it.
pub(crate) fn armed_pass<M: ?Sized, R, E>(
    model: &mut M,
    nets: fn(&mut M) -> Vec<&mut alfi_nn::Network>,
    targets: &[LayerTarget],
    ctx: &ScopeCtx<'_>,
    rec: &Recorder,
    pass: impl FnOnce(&M) -> Result<R, E>,
) -> Result<(R, Vec<AppliedFault>), CoreError>
where
    CoreError: From<E>,
{
    let worker = alfi_pool::worker_index();
    let armed = {
        let _span = rec.span_on(Phase::Inject, worker);
        arm_faults(&mut nets(model), targets, ctx.faults, ctx.scenario.injection_target)?
    };
    let out = {
        let _span = rec.span_on(Phase::Forward, worker);
        pass(model)
    };
    let applied = armed.collect_applied();
    armed.disarm(&mut nets(model));
    Ok((out?, applied))
}

/// A campaign workload the [`Engine`] can drive.
///
/// Implementations own the *what* (model forwards, fault arming, row
/// shapes); the engine owns the *how* (policy iteration, slot
/// assignment, replay validation, tracing, pooling, persistence).
/// [`ImgClassCampaign`](crate::campaign::ImgClassCampaign),
/// [`VitCampaign`](crate::campaign::VitCampaign) and
/// [`ObjDetCampaign`](crate::campaign::ObjDetCampaign) are the in-tree
/// implementations. Pooled runs share the task across workers, hence
/// the [`Sync`] bound.
pub trait CampaignTask: Sync {
    /// Unit of work armed with one fault set — a single image or a
    /// whole batch, at the task's discretion.
    type Scope: Send + Sync;
    /// Per-image output row.
    type Row: Send;
    /// Finalized campaign output.
    type Result;
    /// Per-run state that concurrently running scopes need besides the
    /// task itself: typically the model [`Instances`] each running
    /// scope arms in place. Built once per run by
    /// [`worker`](Self::worker).
    type Worker: Sync;

    /// Campaign kind recorded in the trace header (`"classification"`,
    /// `"detection"`).
    fn kind(&self) -> &'static str;

    /// Model name recorded in the trace header.
    fn model_name(&self) -> String;

    /// The scenario driving the run.
    fn scenario(&self) -> &Scenario;

    /// Noun used in the hardened-model cross-check error message
    /// (`"model"` or `"detector"`).
    fn hardened_noun(&self) -> &'static str {
        "model"
    }

    /// A replayed fault matrix, when one was attached. The engine
    /// validates it against the scenario before use.
    fn replay_matrix(&self) -> Option<&FaultMatrix>;

    /// Resolves injectable-layer targets for the primary model and,
    /// when a hardened model is attached, aligned targets for it. The
    /// engine cross-checks that both lists have the same length.
    #[allow(clippy::type_complexity)]
    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError>;

    /// Streams the fault scopes of `epoch` into `sink` in dataset
    /// order, one batch materialized at a time. `first_in_batch` must
    /// be `true` exactly for each batch's first scope (it drives
    /// `per_batch` slot advancement). Returns `Break` when the sink
    /// stopped the stream.
    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, Self::Scope>,
    ) -> Result<ControlFlow<()>, CoreError>;

    /// Builds the worker state for a run in which up to `threads`
    /// scopes execute at once (`1`: inline on the driver thread).
    /// Called once, before the first scope.
    fn worker(&self, threads: usize) -> Result<Self::Worker, CoreError>;

    /// Runs the fault-free / faulty (/ hardened) passes for one scope
    /// and returns one row per contained image plus the applied-fault
    /// trace entries. Called inline or from pool tasks; the engine
    /// merges the results in slot order.
    #[allow(clippy::type_complexity)]
    fn process(
        &self,
        worker: &Self::Worker,
        ctx: &ScopeCtx<'_>,
        scope: &Self::Scope,
        rec: &Recorder,
    ) -> Result<(Vec<Self::Row>, Vec<TraceEntry>), CoreError>;

    /// Trace-level fault-effect classification of one row
    /// (masked / SDC / DUE), recorded as an outcome tally at the merge.
    fn classify(row: &Self::Row) -> EffectClass;

    /// NaN / Inf element counts observed in a row's corrupted output,
    /// feeding the live `alfi_campaign_nonfinite_total` counters (the
    /// watchdog's NaN-storm signal). The default reports none.
    fn row_nonfinite(_row: &Self::Row) -> (u64, u64) {
        (0, 0)
    }

    /// Assembles the campaign result from the collected rows, the
    /// fault matrix that drove the run and the applied-fault trace.
    fn finalize(&self, rows: Vec<Self::Row>, matrix: FaultMatrix, trace: RunTrace) -> Self::Result;

    /// Builds the streaming row sink for `save_dir` persistence in the
    /// given format, or `None` when this campaign has no per-row
    /// artifact under `format` (detection keeps its JSON writers in
    /// `alfi-eval` for the CSV format). Called once before the driver
    /// starts; the engine appends every produced row in deterministic
    /// order with its [`RowKey`] and finalizes the sink under the
    /// `persist` trace phase. The replay set (scenario, fault matrix,
    /// trace, events, metrics) is written by the engine itself.
    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<Self::Row>>>, CoreError>;
}

/// Fault-slot bookkeeping for the driver: decides, per
/// scope, whether to advance to a fresh matrix slot or reuse the last
/// armed one, for all three [`InjectionPolicy`] variants.
///
/// The run stops (`arm` returns `None`) as soon as the matrix has no
/// slot left to hand out — checked before *every* scope, so even a
/// non-advancing `per_batch`/`per_epoch` scope ends the run once the
/// matrix is exhausted (reuse requires a live matrix). This matches
/// the paper's semantics of a pre-sized fault matrix bounding the run.
#[derive(Debug)]
pub struct SlotCursor<'m> {
    matrix: &'m FaultMatrix,
    policy: InjectionPolicy,
    slot: usize,
    epoch_armed: bool,
}

impl<'m> SlotCursor<'m> {
    /// Creates a cursor at slot 0.
    pub fn new(matrix: &'m FaultMatrix, policy: InjectionPolicy) -> Self {
        SlotCursor { matrix, policy, slot: 0, epoch_armed: false }
    }

    /// Marks the start of a new epoch (`per_epoch` re-arms once per
    /// epoch).
    pub fn begin_epoch(&mut self) {
        self.epoch_armed = false;
    }

    /// Returns the fault set for the next scope, or `None` when the
    /// matrix is exhausted and the run should end gracefully.
    ///
    /// Advancement: `per_image` takes a fresh slot for every scope,
    /// `per_batch` for each batch's first scope, `per_epoch` once per
    /// epoch; non-advancing scopes reuse the last armed slot.
    pub fn arm(&mut self, first_in_batch: bool) -> Option<&'m [FaultRecord]> {
        if self.slot >= self.matrix.num_slots() {
            return None;
        }
        let advance = match self.policy {
            InjectionPolicy::PerImage => true,
            InjectionPolicy::PerBatch => first_in_batch,
            InjectionPolicy::PerEpoch => !self.epoch_armed,
        };
        // The first scope of a run always advances (nothing is armed
        // yet), whatever the policy flags claim.
        if advance || self.slot == 0 {
            self.epoch_armed = true;
            self.slot += 1;
        }
        Some(self.matrix.faults_for_slot(self.slot - 1))
    }

    /// The next fresh slot index (also the number of slots consumed).
    pub fn position(&self) -> usize {
        self.slot
    }
}

/// Collected raw output of the driver, before task finalization.
struct Parts<T: CampaignTask + ?Sized> {
    rows: Vec<T::Row>,
    matrix: FaultMatrix,
    trace: RunTrace,
    /// Early-stop decisions and achieved precision, when a
    /// [`StopPolicy`] governed the run.
    stop: Option<StopReport>,
}

/// Pre-resolved counter handles for the engine's live instrumentation.
///
/// Registered once per run; the driver bumps these as it merges each
/// finished scope, so a metrics endpoint or health watchdog sees throughput, injection
/// and outcome data *while* the campaign runs instead of after it. All
/// counters are [`Class::Deterministic`] — their final values depend
/// only on the scenario, never on thread count or timing — except the
/// scope-latency histogram, which is wall-clock and stays out of
/// deterministic renders by construction (histograms are always
/// runtime-class).
pub(crate) struct EngineMetrics {
    registry: Registry,
    scopes: Counter,
    items: Counter,
    injections: Counter,
    masked: Counter,
    sdc: Counter,
    due: Counter,
    nan: Counter,
    inf: Counter,
    scope_seconds: Histogram,
    /// Lazily-registered per-layer injection counters, keyed by
    /// injectable-layer index.
    layers: Mutex<BTreeMap<usize, Counter>>,
}

impl EngineMetrics {
    fn new(registry: Registry) -> Self {
        let outcome = |value: &str| {
            registry.counter_with(
                names::CAMPAIGN_OUTCOMES,
                "Classified fault effects by outcome class",
                Class::Deterministic,
                "outcome",
                value,
            )
        };
        let nonfinite = |value: &str| {
            registry.counter_with(
                names::CAMPAIGN_NONFINITE,
                "Non-finite elements observed in corrupted outputs",
                Class::Deterministic,
                "kind",
                value,
            )
        };
        EngineMetrics {
            scopes: registry.counter(
                names::ENGINE_SCOPES,
                "Fault scopes processed by the campaign engine",
                Class::Deterministic,
            ),
            items: registry.counter(
                names::ENGINE_ITEMS,
                "Per-image result rows produced by the campaign engine",
                Class::Deterministic,
            ),
            injections: registry.counter(
                names::CAMPAIGN_INJECTIONS,
                "Faults applied across the campaign",
                Class::Deterministic,
            ),
            masked: outcome("masked"),
            sdc: outcome("sdc"),
            due: outcome("due"),
            nan: nonfinite("nan"),
            inf: nonfinite("inf"),
            scope_seconds: registry
                .histogram(names::ENGINE_SCOPE_SECONDS, "Wall-clock latency of one fault scope"),
            layers: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// Records one finished scope: its rows (classified live), the
    /// applied-fault trace entries it produced and how long it ran.
    fn scope_done<T: CampaignTask + ?Sized>(
        &self,
        rows: &[T::Row],
        entries: &[TraceEntry],
        elapsed: Duration,
    ) {
        self.scopes.inc();
        self.items.add(rows.len() as u64);
        self.scope_seconds.observe(elapsed.as_secs_f64());
        for row in rows {
            match T::classify(row) {
                EffectClass::Masked => self.masked.inc(),
                EffectClass::Sdc => self.sdc.inc(),
                EffectClass::Due => self.due.inc(),
            }
            let (nan, inf) = T::row_nonfinite(row);
            if nan > 0 {
                self.nan.add(nan);
            }
            if inf > 0 {
                self.inf.add(inf);
            }
        }
        for entry in entries {
            self.injections.inc();
            self.layer_counter(entry.applied.record.layer).inc();
        }
    }

    /// Publishes a run's stop decisions into the registry. Registered
    /// lazily — runs without a stop policy (or with one that never
    /// fired) leave no zero-valued series behind, so deterministic
    /// renders of policy-free runs are unchanged.
    fn stop_report(&self, report: &StopReport) {
        for event in &report.events {
            self.registry
                .counter_with(
                    names::CAMPAIGN_STOP_DECISIONS,
                    "Statistical stop decisions by verdict",
                    Class::Deterministic,
                    "verdict",
                    event.verdict.name(),
                )
                .inc();
        }
        if report.outcome.skipped_scopes > 0 {
            self.registry
                .counter(
                    names::ENGINE_SCOPES_SKIPPED,
                    "Fault scopes skipped after stratum retirement",
                    Class::Deterministic,
                )
                .add(report.outcome.skipped_scopes);
        }
    }

    fn layer_counter(&self, layer: usize) -> Counter {
        let mut layers = lock(&self.layers);
        layers
            .entry(layer)
            .or_insert_with(|| {
                self.registry.counter_with(
                    names::CAMPAIGN_LAYER_INJECTIONS,
                    "Faults applied per injectable-layer index",
                    Class::Deterministic,
                    "layer",
                    &layer.to_string(),
                )
            })
            .clone()
    }
}

/// Scoped process-wide kernel-path override: installs the
/// [`RunConfig::kernel`] selection for the duration of a campaign run
/// and restores whatever was in effect before (another override or the
/// `ALFI_KERNEL` environment default) when the run ends — including on
/// error paths, via `Drop`. The override is process-global so pool
/// workers resolve the same path as the driver thread.
struct KernelGuard {
    prev: Option<KernelPath>,
}

impl KernelGuard {
    fn install(path: KernelPath) -> Self {
        let prev = gemm::kernel_override();
        gemm::set_kernel_override(Some(path));
        KernelGuard { prev }
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        gemm::set_kernel_override(self.prev);
    }
}

/// The one campaign driver: runs any [`CampaignTask`] under a
/// [`RunConfig`], inline or fanned out on the shared [`alfi_pool`]
/// pool, with identical outputs either way.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'c> {
    cfg: &'c RunConfig,
}

impl<'c> Engine<'c> {
    /// Creates an engine over a run configuration.
    pub fn new(cfg: &'c RunConfig) -> Self {
        Engine { cfg }
    }

    /// Runs the task end to end: trace header + item count, the
    /// round-based driver (inline at `threads` ≤ 1, otherwise pooled),
    /// task finalization and optional `save_dir` persistence.
    ///
    /// # Errors
    ///
    /// Returns resolution/injection errors; an exhausted fault matrix
    /// ends the run gracefully instead. With `threads > 1` a
    /// non-`per_image` policy is rejected (those fault scopes are
    /// inherently sequential) and a panicking worker surfaces as
    /// [`CoreError::WorkerPanic`].
    pub fn run<T: CampaignTask>(&self, task: &T) -> Result<T::Result, CoreError> {
        let cfg = self.cfg;
        let _kernel = cfg.kernel.map(KernelGuard::install);
        let rec = cfg.recorder.clone();
        let scenario = task.scenario();
        if rec.is_enabled() {
            rec.set_meta(RunMeta {
                campaign: task.kind().into(),
                model: task.model_name(),
                scenario_hash: alfi_trace::hash_hex(scenario.to_yaml_string().as_bytes()),
                seed: scenario.seed,
                threads: cfg.threads,
            });
            rec.begin_items((scenario.dataset_size * scenario.num_runs) as u64);
        }
        let registry = cfg.resolve_metrics();
        if registry.is_some() {
            // Light up the background pool/tensor instrumentation too —
            // those publish into the process-global registry.
            alfi_metrics::set_global_enabled(true);
        }
        if let (Some(addr), Some(reg)) = (&cfg.metrics_addr, &registry) {
            alfi_metrics::serve_once(addr, reg)
                .map_err(|e| CoreError::Io(format!("binding metrics endpoint on {addr}: {e}")))?;
        }
        let metrics = registry.clone().map(EngineMetrics::new);
        let watchdog = match (&cfg.health, &registry) {
            (Some(policy), Some(reg)) => {
                let sink: Option<HealthSink> = rec.is_enabled().then(|| {
                    let rec = rec.clone();
                    Arc::new(move |e: &alfi_metrics::HealthEvent| rec.record_health(e.to_string()))
                        as HealthSink
                });
                Some(Watchdog::spawn(policy.clone(), reg.clone(), sink))
            }
            _ => None,
        };
        let per_image = scenario.injection_policy == InjectionPolicy::PerImage;
        let stop_policy = cfg.resolve_stop(scenario);
        let artifacts = cfg.save_dir.as_ref().map(Artifacts::new);
        let mut sink = match &artifacts {
            Some(a) => {
                std::fs::create_dir_all(a.dir())?;
                task.make_row_sink(cfg.resolve_format(scenario), a)?
            }
            None => None,
        };
        let threads = cfg.resolve_threads(per_image);
        let parts = drive(task, threads, &rec, metrics.as_ref(), stop_policy, &mut sink);
        if let Some(watchdog) = watchdog {
            // Final registry sample happens inside stop(), so an
            // end-of-run threshold breach is still raised (and already
            // delivered to the recorder via the sink).
            watchdog.stop();
        }
        let parts = parts?;
        if let Some(report) = &parts.stop {
            if rec.is_enabled() {
                // Decisions in decision order — deterministic, so the
                // event log stays byte-reproducible across thread
                // counts even for stopped runs.
                for event in &report.events {
                    rec.record_stop(*event);
                }
                rec.set_stop_outcome(report.outcome);
            }
            if let Some(m) = metrics.as_ref() {
                m.stop_report(report);
            }
        }
        if let Some(a) = &artifacts {
            let _span = rec.span(Phase::Persist);
            scenario.save(a.scenario()).map_err(|e| CoreError::Io(e.to_string()))?;
            save_fault_matrix(&parts.matrix, a.faults())?;
            parts.trace.save(a.trace())?;
            if let Some(s) = sink.as_mut() {
                let stats = s.finalize()?;
                if let Some(reg) = &registry {
                    reg.counter(
                        names::STORE_ROWS_WRITTEN,
                        "Result rows persisted by the artifact sink",
                        Class::Deterministic,
                    )
                    .add(stats.rows);
                    reg.counter(
                        names::STORE_BYTES_WRITTEN,
                        "Bytes persisted by the artifact sink",
                        Class::Deterministic,
                    )
                    .add(stats.bytes);
                }
            }
            save_events(&rec, a.dir())?;
            save_metrics(registry.as_ref(), a.dir())?;
            if cfg.resolve_report(scenario) {
                // Last, so the hook sees the complete artifact set.
                super::report::run_report_hook(a.dir())
                    .map_err(|e| CoreError::Io(format!("report generation: {e}")))?;
            }
        }
        Ok(task.finalize(parts.rows, parts.matrix, parts.trace))
    }
}

/// Resolves targets and cross-checks the hardened model's list: a
/// mitigation wrapper must expose the same injectable layers as the
/// model it hardens, or slot-aligned fault replay would be meaningless.
#[allow(clippy::type_complexity)]
fn resolve_checked<T: CampaignTask + ?Sized>(
    task: &T,
) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
    let (targets, resil_targets) = task.resolve_targets()?;
    if let Some(rt) = &resil_targets {
        if rt.len() != targets.len() {
            return Err(CoreError::FaultOutOfBounds {
                detail: format!(
                    "hardened {} exposes {} injectable layers, original {}",
                    task.hardened_noun(),
                    rt.len(),
                    targets.len()
                ),
            });
        }
    }
    Ok((targets, resil_targets))
}

/// Resolves the fault matrix: a replayed one (validated against the
/// scenario) or a freshly generated one.
fn take_or_generate<T: CampaignTask + ?Sized>(
    task: &T,
    targets: &[LayerTarget],
) -> Result<FaultMatrix, CoreError> {
    match task.replay_matrix() {
        Some(m) => {
            m.validate_replay(task.scenario())?;
            Ok(m.clone())
        }
        None => FaultMatrix::generate(task.scenario(), targets),
    }
}

/// Scopes per round and thread when neither `threads` ≤ 1 nor a stop
/// policy fixes the round length: enough to keep every worker busy
/// past the end-of-round barrier, few enough that a round's input
/// tensors stay a bounded, small allocation.
const SCOPES_PER_THREAD: usize = 32;

/// Armed scopes per round. One at `threads` ≤ 1 (inline, so the
/// kernels keep their own pool parallelism); `check_every` under a stop
/// policy, so every round ends on a decision boundary; otherwise
/// [`SCOPES_PER_THREAD`] per thread.
fn round_len(threads: usize, stop: Option<&StopPolicy>) -> usize {
    match stop {
        _ if threads <= 1 => 1,
        Some(policy) => policy.check_every,
        None => SCOPES_PER_THREAD * threads,
    }
}

/// One armed scope waiting in the current round.
struct Armed<'m, S> {
    scope: S,
    faults: &'m [FaultRecord],
    key: RowKey,
}

/// The streaming driver's state: the round being filled and
/// everything the ordered merge folds into.
struct Driver<'r, T: CampaignTask> {
    task: &'r T,
    worker: T::Worker,
    /// The scope context minus the armed faults.
    base: ScopeCtx<'r>,
    threads: usize,
    round_len: usize,
    cursor: SlotCursor<'r>,
    /// Loader-batch ordinal within the epoch; −1 until the first scope
    /// so a stream that never flags `first_in_batch` still lands in
    /// batch 0.
    batch_no: i64,
    round: Vec<Armed<'r, T::Scope>>,
    /// Scopes armed into the current round, skipped ones included.
    armed: usize,
    stop: Option<StopState>,
    rec: &'r Recorder,
    metrics: Option<&'r EngineMetrics>,
    sink: &'r mut Option<Box<dyn ArtifactSink<T::Row>>>,
    rows: Vec<T::Row>,
    trace: RunTrace,
}

impl<T: CampaignTask> Driver<'_, T> {
    /// Arms one streamed scope into the current round (or skips it when
    /// its stratum is retired) and runs the round once it is full.
    /// Breaks the stream when the matrix is exhausted or a stop
    /// decision fired.
    fn push(
        &mut self,
        epoch: u64,
        first_in_batch: bool,
        scope: T::Scope,
    ) -> Result<ControlFlow<()>, CoreError> {
        if first_in_batch || self.batch_no < 0 {
            self.batch_no += 1;
        }
        let Some(faults) = self.cursor.arm(first_in_batch) else {
            return Ok(ControlFlow::Break(()));
        };
        self.armed += 1;
        let execute =
            self.stop.as_mut().is_none_or(|s| s.begin_scope(faults) == ScopeDecision::Execute);
        if execute {
            let slot = (self.cursor.position() - 1) as u64;
            let key = RowKey::new(epoch as u32, self.batch_no as u32, slot);
            self.round.push(Armed { scope, faults, key });
        }
        if self.armed == self.round_len {
            self.run_round()?;
            if self.stop.as_ref().is_some_and(StopState::stopped) {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    /// Runs the current round — inline at `threads` ≤ 1, on the pool
    /// otherwise — merges it in slot order, evaluates the stop boundary
    /// and drops the round's scopes.
    fn run_round(&mut self) -> Result<(), CoreError> {
        let (task, worker, base, rec) = (self.task, &self.worker, self.base, self.rec);
        let round = &self.round;
        let process = |i: usize| {
            let armed = &round[i];
            let ctx = ScopeCtx { faults: armed.faults, ..base };
            let started = Instant::now();
            let out = task.process(worker, &ctx, &armed.scope, rec);
            (out, started.elapsed())
        };
        let outcomes: Vec<_> = if self.threads <= 1 {
            (0..round.len()).map(process).collect()
        } else {
            alfi_pool::global()
                .try_run_indexed(self.threads, round.len(), process)
                .map_err(|p| CoreError::WorkerPanic { message: p.message() })?
        };
        for (armed, (out, elapsed)) in std::mem::take(&mut self.round).into_iter().zip(outcomes) {
            let (rows, entries) = out?;
            self.merge(&armed, rows, entries, elapsed)?;
        }
        self.armed = 0;
        if let Some(state) = self.stop.as_mut() {
            state.boundary_check();
        }
        Ok(())
    }

    /// Folds one finished scope into the run, in slot order: metrics,
    /// the row sink, the stop tallies and the recorder's live outcome
    /// tallies and injection events.
    fn merge(
        &mut self,
        armed: &Armed<'_, T::Scope>,
        rows: Vec<T::Row>,
        entries: Vec<TraceEntry>,
        elapsed: Duration,
    ) -> Result<(), CoreError> {
        if let Some(m) = self.metrics {
            m.scope_done::<T>(&rows, &entries, elapsed);
        }
        let (mut sdc, mut due) = (0u64, 0u64);
        for row in &rows {
            if let Some(s) = self.sink.as_mut() {
                s.append(armed.key, row)?;
            }
            let class = T::classify(row);
            match class {
                EffectClass::Sdc => sdc += 1,
                EffectClass::Due => due += 1,
                EffectClass::Masked => {}
            }
            self.rec.record_outcome(class);
            self.rec.item_finished();
        }
        for entry in &entries {
            self.rec.record_injection(injection_event(entry.image_id, &entry.applied));
        }
        if let Some(state) = self.stop.as_mut() {
            state.observe(armed.faults, rows.len() as u64, sdc, due);
        }
        self.rows.extend(rows);
        self.trace.entries.extend(entries);
        Ok(())
    }
}

/// The streaming driver: pulls scopes epoch by epoch, arms each through
/// a [`SlotCursor`] (all three policies) and runs them in rounds of
/// [`round_len`] armed scopes, so at most one round is alive at a time.
/// Threads > 1 require `per_image` — the other policies couple scopes
/// through shared slots.
fn drive<T: CampaignTask>(
    task: &T,
    threads: usize,
    rec: &Recorder,
    metrics: Option<&EngineMetrics>,
    policy: Option<StopPolicy>,
    sink: &mut Option<Box<dyn ArtifactSink<T::Row>>>,
) -> Result<Parts<T>, CoreError> {
    let scenario = task.scenario();
    if threads > 1 && scenario.injection_policy != InjectionPolicy::PerImage {
        return Err(CoreError::Scenario(alfi_scenario::ScenarioError::InvalidField {
            field: "injection_policy",
            reason: "threads > 1 requires per_image".into(),
        }));
    }
    let (targets, resil_targets) = resolve_checked(task)?;
    let matrix = take_or_generate(task, &targets)?;
    let mut driver = Driver {
        task,
        worker: task.worker(threads)?,
        base: ScopeCtx {
            scenario,
            targets: &targets,
            resil_targets: resil_targets.as_deref(),
            faults: &[],
        },
        threads,
        round_len: round_len(threads, policy.as_ref()),
        cursor: SlotCursor::new(&matrix, scenario.injection_policy),
        batch_no: -1,
        round: Vec::new(),
        armed: 0,
        stop: policy.map(|p| StopState::new(p, &matrix)),
        rec,
        metrics,
        sink,
        rows: Vec::new(),
        trace: RunTrace::default(),
    };
    for epoch in 0..scenario.num_runs as u64 {
        driver.cursor.begin_epoch();
        driver.batch_no = -1;
        let flow = task.stream_scopes(epoch, &mut |first_in_batch, scope| {
            driver.push(epoch, first_in_batch, scope)
        })?;
        if flow.is_break() {
            break;
        }
    }
    if driver.armed > 0 {
        driver.run_round()?;
    }
    let Driver { rows, trace, stop, .. } = driver;
    Ok(Parts { rows, matrix, trace, stop: stop.map(StopState::finish) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultValue;
    use alfi_scenario::InjectionTarget;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

    /// A matrix with `slots` single-fault slots; slot `i`'s record has
    /// `layer == i`, so tests can read back which slot armed a scope.
    fn matrix(slots: usize) -> FaultMatrix {
        let records = (0..slots)
            .map(|i| FaultRecord {
                batch: 0,
                layer: i,
                channel: 0,
                channel_in: 0,
                depth: None,
                height: 0,
                width: 0,
                value: FaultValue::BitFlip(0),
            })
            .collect();
        FaultMatrix { records, target: InjectionTarget::Weights, faults_per_image: 1 }
    }

    /// Drives `epochs × batches × images` scopes through a cursor and
    /// returns the armed slot (its `layer`) per scope, `None` marking
    /// where the run ended.
    fn drive(
        cursor: &mut SlotCursor<'_>,
        epochs: usize,
        batches: usize,
        images: usize,
    ) -> Vec<Option<usize>> {
        let mut armed = Vec::new();
        'run: for _ in 0..epochs {
            cursor.begin_epoch();
            for _ in 0..batches {
                for i in 0..images {
                    match cursor.arm(i == 0) {
                        Some(f) => armed.push(Some(f[0].layer)),
                        None => {
                            armed.push(None);
                            break 'run;
                        }
                    }
                }
            }
        }
        armed
    }

    #[test]
    fn per_image_advances_every_scope() {
        let m = matrix(12);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        let armed = drive(&mut c, 2, 2, 3);
        let want: Vec<Option<usize>> = (0..12).map(Some).collect();
        assert_eq!(armed, want);
        assert_eq!(c.position(), 12);
    }

    #[test]
    fn per_batch_advances_on_batch_starts_only() {
        let m = matrix(5);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        // 2 epochs × 2 batches × 3 images: one slot per batch.
        let armed = drive(&mut c, 2, 2, 3);
        assert_eq!(
            armed,
            vec![
                Some(0), Some(0), Some(0),
                Some(1), Some(1), Some(1),
                Some(2), Some(2), Some(2),
                Some(3), Some(3), Some(3),
            ]
        );
        assert_eq!(c.position(), 4);
    }

    #[test]
    fn per_epoch_advances_once_per_epoch() {
        let m = matrix(4);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerEpoch);
        let armed = drive(&mut c, 3, 2, 2);
        assert_eq!(
            armed,
            vec![
                Some(0), Some(0), Some(0), Some(0),
                Some(1), Some(1), Some(1), Some(1),
                Some(2), Some(2), Some(2), Some(2),
            ]
        );
    }

    #[test]
    fn truncated_matrix_ends_per_image_run_mid_batch() {
        let m = matrix(4);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        let armed = drive(&mut c, 1, 2, 3);
        assert_eq!(armed, vec![Some(0), Some(1), Some(2), Some(3), None]);
    }

    #[test]
    fn truncated_matrix_stops_non_advancing_scopes_too() {
        // Reuse requires a live matrix: once the slots are gone, even a
        // per_batch scope that would only reuse slot 0 ends the run —
        // the pre-sized matrix bounds the campaign.
        let m = matrix(1);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        let armed = drive(&mut c, 1, 2, 3);
        assert_eq!(armed, vec![Some(0), None]);
    }

    #[test]
    fn per_epoch_truncated_matrix_stops_at_epoch_boundary() {
        // The last slot arms the final epoch's first scope; the next
        // scope finds the matrix exhausted and ends the run (matching
        // the drivers' historical break-on-exhausted-slot check).
        let m = matrix(2);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerEpoch);
        let armed = drive(&mut c, 3, 1, 2);
        assert_eq!(armed, vec![Some(0), Some(0), Some(1), None]);
    }

    #[test]
    fn empty_matrix_arms_nothing() {
        let m = matrix(0);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerImage);
        assert!(c.arm(true).is_none());
        assert_eq!(c.position(), 0);
    }

    #[test]
    fn first_scope_always_arms_a_fresh_slot() {
        // Defensive: even if a task's stream never flags a batch start,
        // the first scope arms slot 0 instead of underflowing.
        let m = matrix(2);
        let mut c = SlotCursor::new(&m, InjectionPolicy::PerBatch);
        assert_eq!(c.arm(false).unwrap()[0].layer, 0);
        assert_eq!(c.arm(false).unwrap()[0].layer, 0);
        assert_eq!(c.position(), 1);
    }

    /// Live [`Probe`] scopes, and the most ever alive at once.
    #[derive(Default)]
    struct Liveness {
        live: AtomicUsize,
        peak: AtomicUsize,
    }

    /// A scope that counts itself alive until dropped.
    struct Probe(Arc<Liveness>);

    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.live.fetch_sub(1, SeqCst);
        }
    }

    /// One-image scopes, one per matrix slot, whose rows record the
    /// recorder's outcome total as their scope saw it.
    struct ProbeTask {
        scenario: Scenario,
        matrix: FaultMatrix,
        liveness: Arc<Liveness>,
    }

    fn probe_task(scopes: usize) -> ProbeTask {
        let mut scenario = Scenario::default();
        scenario.dataset_size = scopes;
        scenario.injection_target = InjectionTarget::Weights;
        ProbeTask { scenario, matrix: matrix(scopes), liveness: Arc::default() }
    }

    impl CampaignTask for ProbeTask {
        type Scope = Probe;
        type Row = u64;
        type Result = Vec<u64>;
        type Worker = ();

        fn kind(&self) -> &'static str {
            "probe"
        }

        fn model_name(&self) -> String {
            "probe".into()
        }

        fn scenario(&self) -> &Scenario {
            &self.scenario
        }

        fn replay_matrix(&self) -> Option<&FaultMatrix> {
            Some(&self.matrix)
        }

        fn resolve_targets(
            &self,
        ) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
            Ok((Vec::new(), None))
        }

        fn stream_scopes(
            &self,
            _epoch: u64,
            sink: &mut ScopeSink<'_, Probe>,
        ) -> Result<ControlFlow<()>, CoreError> {
            for i in 0..self.matrix.num_slots() {
                let live = self.liveness.live.fetch_add(1, SeqCst) + 1;
                self.liveness.peak.fetch_max(live, SeqCst);
                if sink(i == 0, Probe(Arc::clone(&self.liveness)))?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
            Ok(ControlFlow::Continue(()))
        }

        fn worker(&self, _threads: usize) -> Result<(), CoreError> {
            Ok(())
        }

        fn process(
            &self,
            _worker: &(),
            _ctx: &ScopeCtx<'_>,
            _scope: &Probe,
            rec: &Recorder,
        ) -> Result<(Vec<u64>, Vec<TraceEntry>), CoreError> {
            Ok((vec![rec.summary().outcomes.total()], Vec::new()))
        }

        fn classify(_row: &u64) -> EffectClass {
            EffectClass::Masked
        }

        fn finalize(&self, rows: Vec<u64>, _matrix: FaultMatrix, _trace: RunTrace) -> Vec<u64> {
            rows
        }

        fn make_row_sink(
            &self,
            _format: ArtifactFormat,
            _artifacts: &Artifacts,
        ) -> Result<Option<Box<dyn ArtifactSink<u64>>>, CoreError> {
            Ok(None)
        }
    }

    #[test]
    fn at_most_one_round_of_scopes_is_alive() {
        for threads in [1, 4] {
            let round = round_len(threads, None);
            let task = probe_task(10 * round + 3);
            let rows = Engine::new(&RunConfig::new().threads(threads)).run(&task).unwrap();
            assert_eq!(rows.len(), 10 * round + 3);
            assert_eq!(task.liveness.live.load(SeqCst), 0, "every scope was dropped");
            let peak = task.liveness.peak.load(SeqCst);
            assert!(peak <= round, "{peak} scopes alive at once, round is {round} ({threads} threads)");
        }
    }

    #[test]
    fn later_rounds_see_earlier_outcomes_counted() {
        for threads in [1, 4] {
            let round = round_len(threads, None);
            let task = probe_task(3 * round + 1);
            let rec = Recorder::new();
            let cfg = RunConfig::new().threads(threads).recorder(rec.clone());
            let rows = Engine::new(&cfg).run(&task).unwrap();
            for (i, &seen) in rows.iter().enumerate() {
                let merged = (i - i % round) as u64;
                assert_eq!(seen, merged, "scope {i} at {threads} threads");
            }
            assert_eq!(rec.summary().outcomes.total(), rows.len() as u64);
        }
    }
}
