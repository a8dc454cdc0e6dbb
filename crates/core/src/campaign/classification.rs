//! High-level image-classification campaign — the
//! `test_error_models_imgclass.py` equivalent.
//!
//! Runs fault-free, faulty and (optionally) hardened model instances in
//! lock-step over a dataset, producing per-image top-5 rows, the applied
//! fault trace and CSV/YAML/binary output files (§V-B, §V-F-1).
//!
//! The campaign is a thin [`CampaignTask`] adapter: policy iteration,
//! fault-slot assignment, replay validation, tracing, pool fan-out and
//! persistence all live in the shared campaign [`Engine`].
//!
//! Each scope evaluates only what its faults change. The fault-free
//! pass keeps its node activations. The faulty pass runs on a clone
//! built once per run ([`Instances`]), armed and disarmed in place, and
//! resumes from those activations at the first faulted node
//! ([`Network::forward_resume`]); the NaN/Inf counts of the skipped
//! nodes come from the golden activations. The hardened pass runs its
//! whole graph, since its prefix is not the golden one.

use crate::artifact::{ArtifactSink, Artifacts, ColumnarSink, SinkStats};
use crate::campaign::config::RunConfig;
use crate::campaign::engine::{armed_pass, CampaignTask, Engine, Instances, ScopeCtx, ScopeSink};
use crate::error::CoreError;
use crate::fault::AppliedFault;
use crate::matrix::{FaultMatrix, LayerTarget};
use crate::monitor::{attach_monitor, NanInfMonitor};
use crate::persist::{save_fault_matrix, RunTrace, TraceEntry};
use alfi_datasets::loader::ClassificationLoader;
use alfi_nn::{Network, NodeId};
use alfi_scenario::{ArtifactFormat, InjectionPolicy, Scenario};
use alfi_store::{ColumnSpec, ColumnType, Encoding, RowKey, Schema, Value};
use alfi_tensor::Tensor;
use alfi_trace::{EffectClass, Phase, Recorder};
use std::fs::File;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Top-K classes with probabilities for one model output.
pub type TopK = Vec<(usize, f32)>;

/// Per-image campaign result row.
#[derive(Debug, Clone)]
pub struct ClassificationRow {
    /// Dataset image id.
    pub image_id: u64,
    /// Virtual file path from the dataset record.
    pub file_name: String,
    /// Ground-truth label.
    pub label: usize,
    /// Fault-free model top-5 `(class, probability)`.
    pub orig_top5: TopK,
    /// Fault-injected model top-5.
    pub corr_top5: TopK,
    /// Hardened (mitigation) model top-5, when a resil model was given.
    pub resil_top5: Option<TopK>,
    /// Faults applied while this image was processed.
    pub faults: Vec<AppliedFault>,
    /// NaN elements observed anywhere in the corrupted model.
    pub corr_nan: usize,
    /// Infinite elements observed anywhere in the corrupted model.
    pub corr_inf: usize,
}

/// Full campaign output: rows plus everything needed for exact replay.
#[derive(Debug, Clone)]
pub struct ClassificationCampaignResult {
    /// One row per processed image.
    pub rows: Vec<ClassificationRow>,
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The pre-generated fault matrix (reusable across experiments).
    pub fault_matrix: FaultMatrix,
    /// Applied-fault trace with per-inference NaN/Inf counts.
    pub trace: RunTrace,
}

impl ClassificationCampaignResult {
    /// Writes the paper's three output sets into `dir`:
    /// `scenario.yml` (meta), `faults.bin` + `trace.bin` (binary fault
    /// files), `results_orig.csv` / `results_corr.csv`
    /// (/`results_resil.csv`) (model outputs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save_outputs(&self, dir: impl AsRef<Path>) -> Result<(), CoreError> {
        let a = Artifacts::new(dir);
        std::fs::create_dir_all(a.dir())?;
        self.scenario.save(a.scenario()).map_err(|e| CoreError::Io(e.to_string()))?;
        save_fault_matrix(&self.fault_matrix, a.faults())?;
        self.trace.save(a.trace())?;
        std::fs::write(a.rows_orig(), self.to_csv(CsvVariant::Original))?;
        std::fs::write(a.rows_corr(), self.to_csv(CsvVariant::Corrupted))?;
        if self.rows.iter().any(|r| r.resil_top5.is_some()) {
            std::fs::write(a.rows_resil(), self.to_csv(CsvVariant::Resilient))?;
        }
        Ok(())
    }

    /// Renders one of the CSV result files. Columns: image identity,
    /// label, top-5 classes and probabilities, fault positions (layer,
    /// channel, depth, height, width, bit) and NaN/Inf counts.
    pub fn to_csv(&self, variant: CsvVariant) -> String {
        let mut out = String::from(CSV_HEADER);
        for row in &self.rows {
            let topk: &TopK = match variant {
                CsvVariant::Original => &row.orig_top5,
                CsvVariant::Corrupted => &row.corr_top5,
                CsvVariant::Resilient => match &row.resil_top5 {
                    Some(t) => t,
                    None => continue,
                },
            };
            out.push_str(&csv_line(
                row.image_id,
                &row.file_name,
                row.label as u64,
                &padded_topk(topk),
                &fault_columns(&row.faults),
                row.corr_nan as u64,
                row.corr_inf as u64,
            ));
        }
        out
    }
}

/// Header line shared by [`ClassificationCampaignResult::to_csv`],
/// the streaming CSV sink and the store→CSV converter.
pub(crate) const CSV_HEADER: &str = "image_id,file_name,label,\
     top1,top1_p,top2,top2_p,top3,top3_p,top4,top4_p,top5,top5_p,\
     fault_layers,fault_channels,fault_depths,fault_heights,fault_widths,fault_bits,\
     nan_count,inf_count\n";

/// Sentinel class marking an absent top-k entry in the fixed-width
/// representation; renders as the empty CSV cells.
pub(crate) const TOPK_PAD_CLASS: u32 = u32::MAX;

/// Pads a top-k list to exactly five `(class, probability)` pairs.
pub(crate) fn padded_topk(topk: &TopK) -> [(u32, f32); 5] {
    let mut out = [(TOPK_PAD_CLASS, 0.0f32); 5];
    for (slot, &(c, p)) in out.iter_mut().zip(topk.iter()) {
        *slot = (c as u32, p);
    }
    out
}

/// The six `;`-joined fault-position columns (layer, channel, depth,
/// height, width, bit), shared by every row renderer.
pub(crate) fn fault_columns(faults: &[AppliedFault]) -> [String; 6] {
    let join =
        |f: &dyn Fn(&AppliedFault) -> String| faults.iter().map(f).collect::<Vec<_>>().join(";");
    [
        join(&|a| a.record.layer.to_string()),
        join(&|a| a.record.channel.to_string()),
        join(&|a| a.record.depth.map_or("-".into(), |d| d.to_string())),
        join(&|a| a.record.height.to_string()),
        join(&|a| a.record.width.to_string()),
        join(&|a| match a.record.value {
            crate::fault::FaultValue::BitFlip(p) => p.to_string(),
            crate::fault::FaultValue::StuckAt { pos, .. } => format!("s{pos}"),
            crate::fault::FaultValue::Replace(_) => "v".into(),
            crate::fault::FaultValue::QuantStep { bit, .. } => format!("q{bit}"),
        }),
    ]
}

/// Renders one CSV data line from plain cells — the single formatting
/// point shared by the batch writer, the streaming sink and the
/// store→CSV converter, so all three produce identical bytes by
/// construction.
pub(crate) fn csv_line(
    image_id: u64,
    file_name: &str,
    label: u64,
    topk: &[(u32, f32); 5],
    faults: &[String; 6],
    nan: u64,
    inf: u64,
) -> String {
    let mut out = format!("{image_id},{file_name},{label}");
    for &(c, p) in topk {
        if c == TOPK_PAD_CLASS {
            out.push_str(",,");
        } else {
            out.push_str(&format!(",{c},{p}"));
        }
    }
    out.push_str(&format!(
        ",{},{},{},{},{},{}",
        faults[0], faults[1], faults[2], faults[3], faults[4], faults[5]
    ));
    out.push_str(&format!(",{nan},{inf}\n"));
    out
}

/// Which of the three synchronized model instances a CSV file reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvVariant {
    /// The fault-free model.
    Original,
    /// The fault-injected model.
    Corrupted,
    /// The hardened (mitigation) model under the same faults.
    Resilient,
}

/// One classification fault scope: a stacked `[n, c, h, w]` image
/// tensor with the matching dataset records and labels — a single
/// image under `per_image`, a whole batch under
/// `per_batch`/`per_epoch`.
#[derive(Debug)]
pub struct ClassificationScope {
    images: Tensor,
    records: Vec<alfi_datasets::ImageRecord>,
    labels: Vec<usize>,
}

/// The high-level classification campaign runner.
#[derive(Debug)]
pub struct ImgClassCampaign {
    model: Network,
    resil_model: Option<Network>,
    scenario: Scenario,
    loader: ClassificationLoader,
    fault_matrix: Option<FaultMatrix>,
}

impl ImgClassCampaign {
    /// Creates a campaign over `model` with the given scenario and data.
    pub fn new(model: Network, scenario: Scenario, loader: ClassificationLoader) -> Self {
        ImgClassCampaign { model, resil_model: None, scenario, loader, fault_matrix: None }
    }

    /// Replays a previously persisted fault matrix instead of generating
    /// a new one — the paper's `fault_file` parameter, letting "the
    /// identical set of faults be utilized across various experiments".
    pub fn with_fault_matrix(mut self, matrix: FaultMatrix) -> Self {
        self.fault_matrix = Some(matrix);
        self
    }

    /// Adds a hardened model to run in lock-step under the *same* faults
    /// — the paper's "tight integration of fault-free, faulty, and
    /// enhanced models". It must expose the same injectable-layer list.
    pub fn with_resil_model(mut self, resil: Network) -> Self {
        self.resil_model = Some(resil);
        self
    }

    /// Whether a hardened model is attached (drives the store schema's
    /// column arity).
    pub(crate) fn has_resil(&self) -> bool {
        self.resil_model.is_some()
    }

    /// Runs the campaign with the given [`RunConfig`] — the single
    /// entry point for every driver and thread count, delegating to the
    /// shared campaign [`Engine`] (see its docs for dispatch, tracing
    /// and persistence semantics). Outputs are byte-identical at every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns resolution/injection errors; an exhausted fault matrix
    /// ends the run gracefully instead. With `threads > 1` a
    /// non-`per_image` policy is rejected and a panicking worker
    /// surfaces as [`CoreError::WorkerPanic`].
    pub fn run_with(&mut self, cfg: &RunConfig) -> Result<ClassificationCampaignResult, CoreError> {
        Engine::new(cfg).run(&*self)
    }
}

/// A faulty-model instance and, with a hardened model attached, its
/// hardened counterpart: the clones one running scope arms in place.
pub type ModelPair = (Network, Option<Network>);

impl ImgClassCampaign {
    /// The first node the scope's faults can change: the faulty pass
    /// starts there and reads every earlier value from the golden
    /// activations. It is 0, the whole graph, when the golden model
    /// carries hooks (its clones do not, so its activations are not
    /// theirs) or when a fault names an unknown layer (arming reports
    /// that). Weight and neuron faults alike change only their own node
    /// and what follows it.
    fn resume_node(&self, ctx: &ScopeCtx<'_>) -> NodeId {
        if self.model.num_hooks() > 0 {
            return 0;
        }
        ctx.faults
            .iter()
            .try_fold(NodeId::MAX, |from, f| ctx.targets.get(f.layer).map(|t| from.min(t.node_id)))
            .unwrap_or(0)
    }
}

impl CampaignTask for ImgClassCampaign {
    type Scope = ClassificationScope;
    type Row = ClassificationRow;
    type Result = ClassificationCampaignResult;
    /// One `(model, hardened)` clone pair per concurrently running
    /// scope, armed and disarmed in place.
    type Worker = Instances<ModelPair>;

    fn kind(&self) -> &'static str {
        "classification"
    }

    fn model_name(&self) -> String {
        self.model.name().to_string()
    }

    fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    fn replay_matrix(&self) -> Option<&FaultMatrix> {
        self.fault_matrix.as_ref()
    }

    fn resolve_targets(&self) -> Result<(Vec<LayerTarget>, Option<Vec<LayerTarget>>), CoreError> {
        let input_dims = {
            let ds = self.loader.dataset();
            vec![1, ds.channels(), ds.image_hw(), ds.image_hw()]
        };
        let targets =
            crate::matrix::resolve_targets(&[&self.model], &self.scenario, &[Some(input_dims.clone())])?;
        let resil_targets = match &self.resil_model {
            Some(r) => {
                Some(crate::matrix::resolve_targets(&[r], &self.scenario, &[Some(input_dims)])?)
            }
            None => None,
        };
        Ok((targets, resil_targets))
    }

    fn stream_scopes(
        &self,
        epoch: u64,
        sink: &mut ScopeSink<'_, ClassificationScope>,
    ) -> Result<ControlFlow<()>, CoreError> {
        let per_image = self.scenario.injection_policy == InjectionPolicy::PerImage;
        for batch in self.loader.iter_epoch(epoch) {
            if per_image {
                // One single-image scope per image: fault batch
                // coordinates are always 0.
                for i in 0..batch.labels.len() {
                    let image = batch.images.batch_item(i).map_err(alfi_nn::NnError::from)?;
                    let images = Tensor::stack(&[image]).map_err(alfi_nn::NnError::from)?;
                    let scope = ClassificationScope {
                        images,
                        records: vec![batch.records[i].clone()],
                        labels: vec![batch.labels[i]],
                    };
                    if sink(i == 0, scope)?.is_break() {
                        return Ok(ControlFlow::Break(()));
                    }
                }
            } else {
                // One whole-batch scope per batch: a single forward
                // pass, so neuron faults may target any batch
                // coordinate, exactly as in the paper.
                let scope = ClassificationScope {
                    images: batch.images,
                    records: batch.records,
                    labels: batch.labels,
                };
                if sink(true, scope)?.is_break() {
                    return Ok(ControlFlow::Break(()));
                }
            }
        }
        Ok(ControlFlow::Continue(()))
    }

    fn worker(&self, threads: usize) -> Result<Instances<ModelPair>, CoreError> {
        Instances::build(threads, || Ok((self.model.clone(), self.resil_model.clone())))
    }

    /// Runs the fault-free / faulty / hardened triple for one fault
    /// scope (a single image or a whole batch): one row per contained
    /// image. The faulty pass resumes from the golden activations at
    /// the first faulted node; the hardened pass, whose prefix differs
    /// from the golden one, runs the whole graph. Trace entries
    /// attribute each applied fault to the image its batch coordinate
    /// addressed (weight faults and out-of-range coordinates attribute
    /// to the scope's first image).
    fn process(
        &self,
        instances: &Instances<ModelPair>,
        ctx: &ScopeCtx<'_>,
        scope: &ClassificationScope,
        rec: &Recorder,
    ) -> Result<(Vec<ClassificationRow>, Vec<TraceEntry>), CoreError> {
        let worker = alfi_pool::worker_index();
        let images = &scope.images;
        let n = scope.records.len();
        let mut golden = {
            let _span = rec.span_on(Phase::Forward, worker);
            self.model.forward_activations(images, rec)?
        };
        let from = self.resume_node(ctx);
        // Keep only what the faulty pass reads: the scope then holds
        // about as many activations as a full faulty forward would.
        golden.retain_prefix(from);

        let (orig_logits, corr_logits, applied, totals, resil_logits) =
            instances.with(|(corrupted, hardened)| -> Result<_, CoreError> {
                let monitor = Arc::new(NanInfMonitor::new());
                let handles =
                    attach_monitor(corrupted, Arc::<NanInfMonitor>::clone(&monitor) as _)?;
                let faulty = armed_pass(corrupted, one_network, ctx.targets, ctx, rec, |net| {
                    net.forward_resume(images, &golden, from, rec)
                });
                for h in handles {
                    corrupted.remove_hook(h);
                }
                let (corr_logits, applied) = faulty?;
                let mut totals = monitor.totals();
                // The skipped prefix computed exactly the golden values:
                // count its non-finite elements there.
                for act in (0..from).map_while(|id| golden.node(id)) {
                    totals.nan += act.count_nan();
                    totals.inf += act.count_inf();
                }
                let orig_logits = golden.into_output();
                let resil_logits = match (hardened.as_mut(), ctx.resil_targets) {
                    (Some(h), Some(rt)) => {
                        let full = |net: &Network| net.forward_traced(images, rec);
                        Some(armed_pass(h, one_network, rt, ctx, rec, full)?.0)
                    }
                    _ => None,
                };
                Ok((orig_logits, corr_logits, applied, totals, resil_logits))
            })?;
        rec.record_nonfinite(totals.nan as u64, totals.inf as u64);

        let _eval = rec.span_on(Phase::Eval, worker);
        let mut entries = Vec::with_capacity(applied.len());
        for a in &applied {
            let img_idx = match self.scenario.injection_target {
                alfi_scenario::InjectionTarget::Neurons => a.record.batch.min(n - 1),
                _ => 0,
            };
            entries.push(TraceEntry {
                image_id: scope.records[img_idx].image_id,
                applied: *a,
                output_nan_count: totals.nan as u32,
                output_inf_count: totals.inf as u32,
            });
        }
        let orig_top5 = softmax_topk_rows(&orig_logits, n, 5)?;
        let corr_top5 = softmax_topk_rows(&corr_logits, n, 5)?;
        let resil_top5 = resil_logits.as_ref().map(|l| softmax_topk_rows(l, n, 5)).transpose()?;
        let rows = (0..n)
            .map(|i| ClassificationRow {
                image_id: scope.records[i].image_id,
                file_name: scope.records[i].file_name.clone(),
                label: scope.labels[i],
                orig_top5: orig_top5[i].clone(),
                corr_top5: corr_top5[i].clone(),
                resil_top5: resil_top5.as_ref().map(|r| r[i].clone()),
                // Faults are listed on every row of the scope; per-image
                // attribution lives in the trace entries above.
                faults: applied.clone(),
                corr_nan: totals.nan,
                corr_inf: totals.inf,
            })
            .collect();
        Ok((rows, entries))
    }

    fn classify(row: &ClassificationRow) -> EffectClass {
        classify_row(row)
    }

    fn row_nonfinite(row: &ClassificationRow) -> (u64, u64) {
        (row.corr_nan as u64, row.corr_inf as u64)
    }

    fn finalize(
        &self,
        rows: Vec<ClassificationRow>,
        matrix: FaultMatrix,
        trace: RunTrace,
    ) -> ClassificationCampaignResult {
        ClassificationCampaignResult {
            rows,
            scenario: self.scenario.clone(),
            fault_matrix: matrix,
            trace,
        }
    }

    fn make_row_sink(
        &self,
        format: ArtifactFormat,
        artifacts: &Artifacts,
    ) -> Result<Option<Box<dyn ArtifactSink<ClassificationRow>>>, CoreError> {
        match format {
            ArtifactFormat::Csv => Ok(Some(Box::new(ClassificationCsvSink::create(artifacts)?))),
            ArtifactFormat::Binary => {
                let resil = self.resil_model.is_some();
                let schema = with_layer_override_meta(store_schema(resil), &self.scenario);
                Ok(Some(Box::new(ColumnarSink::create(
                    artifacts.rows_store(),
                    schema,
                    move |row: &ClassificationRow| store_values(row, resil),
                )?)))
            }
        }
    }
}

/// Streaming CSV sink: the historical `results_orig.csv` /
/// `results_corr.csv` (/`results_resil.csv`) files written row by row
/// as the engine produces them. The resil file is created lazily on
/// the first hardened row, so runs without a resil model keep the
/// two-file layout. Shared with the ViT campaign, whose rows use the
/// identical CSV shape.
pub(crate) struct ClassificationCsvSink {
    orig: io::BufWriter<File>,
    corr: io::BufWriter<File>,
    resil: Option<io::BufWriter<File>>,
    resil_path: PathBuf,
    rows: u64,
    bytes: u64,
}

impl ClassificationCsvSink {
    pub(crate) fn create(artifacts: &Artifacts) -> Result<Self, CoreError> {
        let mut bytes = 0u64;
        let mut open = |path: PathBuf| -> Result<io::BufWriter<File>, CoreError> {
            let mut w = io::BufWriter::new(File::create(path)?);
            w.write_all(CSV_HEADER.as_bytes())?;
            bytes += CSV_HEADER.len() as u64;
            Ok(w)
        };
        let orig = open(artifacts.rows_orig())?;
        let corr = open(artifacts.rows_corr())?;
        Ok(ClassificationCsvSink {
            orig,
            corr,
            resil: None,
            resil_path: artifacts.rows_resil(),
            rows: 0,
            bytes,
        })
    }
}

impl ArtifactSink<ClassificationRow> for ClassificationCsvSink {
    fn append(&mut self, _key: RowKey, row: &ClassificationRow) -> Result<(), CoreError> {
        let faults = fault_columns(&row.faults);
        let line = |topk: &TopK| {
            csv_line(
                row.image_id,
                &row.file_name,
                row.label as u64,
                &padded_topk(topk),
                &faults,
                row.corr_nan as u64,
                row.corr_inf as u64,
            )
        };
        let orig_line = line(&row.orig_top5);
        self.orig.write_all(orig_line.as_bytes())?;
        self.bytes += orig_line.len() as u64;
        let corr_line = line(&row.corr_top5);
        self.corr.write_all(corr_line.as_bytes())?;
        self.bytes += corr_line.len() as u64;
        if let Some(topk) = &row.resil_top5 {
            if self.resil.is_none() {
                let mut w = io::BufWriter::new(File::create(&self.resil_path)?);
                w.write_all(CSV_HEADER.as_bytes())?;
                self.bytes += CSV_HEADER.len() as u64;
                self.resil = Some(w);
            }
            if let Some(w) = self.resil.as_mut() {
                let resil_line = line(topk);
                w.write_all(resil_line.as_bytes())?;
                self.bytes += resil_line.len() as u64;
            }
        }
        self.rows += 1;
        Ok(())
    }

    fn finalize(&mut self) -> Result<SinkStats, CoreError> {
        self.orig.flush()?;
        self.corr.flush()?;
        if let Some(w) = self.resil.as_mut() {
            w.flush()?;
        }
        Ok(SinkStats { rows: self.rows, bytes: self.bytes })
    }
}

/// Columnar store schema for classification rows: the fixed
/// `image_id, file_name, label` prefix, five `(class, p)` pairs per
/// model variant, the six fault columns and the NaN/Inf counts.
/// Probabilities are stored as raw f32 bits, so re-rendering them
/// reproduces the CSV text exactly.
pub(crate) fn store_schema(resil: bool) -> Schema {
    let mut cols = vec![
        ColumnSpec::new("image_id", ColumnType::U64, Encoding::Delta),
        ColumnSpec::new("file_name", ColumnType::Str, Encoding::Prefix),
        ColumnSpec::new("label", ColumnType::U32, Encoding::Plain),
    ];
    let variants: &[&str] = if resil { &["orig", "corr", "resil"] } else { &["orig", "corr"] };
    for v in variants {
        for k in 1..=5 {
            cols.push(ColumnSpec::new(format!("{v}_class{k}"), ColumnType::U32, Encoding::Plain));
            cols.push(ColumnSpec::new(format!("{v}_p{k}"), ColumnType::F32, Encoding::Plain));
        }
    }
    for name in
        ["fault_layers", "fault_channels", "fault_depths", "fault_heights", "fault_widths", "fault_bits"]
    {
        cols.push(ColumnSpec::new(name, ColumnType::Str, Encoding::Plain));
    }
    cols.push(ColumnSpec::new("nan_count", ColumnType::U32, Encoding::Plain));
    cols.push(ColumnSpec::new("inf_count", ColumnType::U32, Encoding::Plain));
    Schema::new(cols)
        .with_meta("kind", "classification")
        .with_meta("resil", if resil { "1" } else { "0" })
}

/// Appends one `layer.<pattern>` meta key per scenario `layers:`
/// override, making binary stores self-describing about the
/// multi-resolution fault model that produced their rows (`alfi store
/// info` prints them as a dedicated section). Scenarios without
/// overrides add nothing, so historical store bytes are unchanged.
pub(crate) fn with_layer_override_meta(mut schema: Schema, scenario: &Scenario) -> Schema {
    for (pattern, o) in &scenario.layer_overrides {
        let mut parts = Vec::new();
        if let Some(r) = o.rate {
            parts.push(format!("rate={r}"));
        }
        if let Some(m) = &o.mode {
            let name = match m {
                alfi_scenario::FaultMode::BitFlip { .. } => "bit_flip",
                alfi_scenario::FaultMode::StuckAt { .. } => "stuck_at",
                alfi_scenario::FaultMode::RandomValue { .. } => "random_value",
                alfi_scenario::FaultMode::QuantStep { .. } => "quant_step",
            };
            parts.push(format!("mode={name}"));
        }
        if let Some((lo, hi)) = o.channel_range {
            parts.push(format!("channels={lo}-{hi}"));
        }
        schema = schema.with_meta(format!("layer.{pattern}"), parts.join(","));
    }
    schema
}

/// Projects one row onto the [`store_schema`] column order.
pub(crate) fn store_values(row: &ClassificationRow, resil: bool) -> Vec<Value> {
    let mut values = vec![
        Value::U64(row.image_id),
        Value::Str(row.file_name.clone()),
        Value::U32(row.label as u32),
    ];
    fn push_topk(values: &mut Vec<Value>, topk: &TopK) {
        for (c, p) in padded_topk(topk) {
            values.push(Value::U32(c));
            values.push(Value::F32(p));
        }
    }
    push_topk(&mut values, &row.orig_top5);
    push_topk(&mut values, &row.corr_top5);
    if resil {
        // Schema arity is fixed per store; a campaign with a resil
        // model produces a resil top-5 for every row, so the empty
        // fallback only pads degenerate rows.
        let empty = TopK::new();
        push_topk(&mut values, row.resil_top5.as_ref().unwrap_or(&empty));
    }
    for col in fault_columns(&row.faults) {
        values.push(Value::Str(col));
    }
    values.push(Value::U32(row.corr_nan as u32));
    values.push(Value::U32(row.corr_inf as u32));
    values
}

/// Rebuilds the CSV artifact set from decoded store rows —
/// byte-identical to what a CSV-format run writes, because it renders
/// through the same [`csv_line`] as the live sinks.
pub(crate) fn store_rows_to_csvs(
    rows: &[alfi_store::Row],
    resil: bool,
) -> Result<Vec<(String, String)>, CoreError> {
    use crate::artifact::{cell_f32, cell_str, cell_u64};
    let mut orig = String::from(CSV_HEADER);
    let mut corr = String::from(CSV_HEADER);
    let mut resil_csv = String::from(CSV_HEADER);
    for (_, values) in rows {
        let image_id = cell_u64(values, 0)?;
        let file_name = cell_str(values, 1)?;
        let label = cell_u64(values, 2)?;
        let topk_at = |base: usize| -> Result<[(u32, f32); 5], CoreError> {
            let mut out = [(TOPK_PAD_CLASS, 0.0f32); 5];
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = (
                    cell_u64(values, base + 2 * k)? as u32,
                    cell_f32(values, base + 2 * k + 1)?,
                );
            }
            Ok(out)
        };
        let variants = if resil { 3 } else { 2 };
        let tail = 3 + variants * 10;
        let mut faults: [String; 6] = Default::default();
        for (i, f) in faults.iter_mut().enumerate() {
            *f = cell_str(values, tail + i)?.to_string();
        }
        let nan = cell_u64(values, tail + 6)?;
        let inf = cell_u64(values, tail + 7)?;
        orig.push_str(&csv_line(image_id, file_name, label, &topk_at(3)?, &faults, nan, inf));
        corr.push_str(&csv_line(image_id, file_name, label, &topk_at(13)?, &faults, nan, inf));
        if resil {
            resil_csv
                .push_str(&csv_line(image_id, file_name, label, &topk_at(23)?, &faults, nan, inf));
        }
    }
    let mut out = vec![
        (Artifacts::ROWS_ORIG.to_string(), orig),
        (Artifacts::ROWS_CORR.to_string(), corr),
    ];
    if resil && !rows.is_empty() {
        out.push((Artifacts::ROWS_RESIL.to_string(), resil_csv));
    }
    Ok(out)
}

/// Trace-level fault-effect classification of one row, mirroring the
/// KPI rules in `alfi-eval`: DUE when non-finite values surfaced, SDC
/// when the top-1 prediction silently changed, masked otherwise.
pub(crate) fn classify_row(row: &ClassificationRow) -> EffectClass {
    let corr_top1 = row.corr_top5.first();
    if row.corr_nan + row.corr_inf > 0 || corr_top1.is_some_and(|&(_, p)| !p.is_finite()) {
        EffectClass::Due
    } else if row.orig_top5.first().map(|t| t.0) != corr_top1.map(|t| t.0) {
        EffectClass::Sdc
    } else {
        EffectClass::Masked
    }
}

/// The one network a classification model instance arms: the
/// [`armed_pass`] accessor for a bare [`Network`].
fn one_network(net: &mut Network) -> Vec<&mut Network> {
    vec![net]
}

/// Top-k `(class, probability)` of the first `n` rows of batch logits
/// `[n, classes]`, from one softmax over the whole tensor.
fn softmax_topk_rows(logits: &Tensor, n: usize, k: usize) -> Result<Vec<TopK>, CoreError> {
    let probs = logits.softmax_lastdim().map_err(alfi_nn::NnError::from)?;
    (0..n).map(|i| Ok(probs.batch_item(i).map_err(alfi_nn::NnError::from)?.topk(k))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::arm_faults;
    use alfi_datasets::classification::ClassificationDataset;
    use alfi_nn::models::{alexnet, ModelConfig};
    use alfi_scenario::{FaultCount, FaultMode, InjectionTarget};

    fn campaign(scenario: Scenario) -> ImgClassCampaign {
        let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, ..ModelConfig::default() };
        let model = alexnet(&mcfg);
        let ds = ClassificationDataset::new(scenario.dataset_size, mcfg.num_classes, 3, 16, 5);
        let loader = ClassificationLoader::new(ds, scenario.batch_size);
        ImgClassCampaign::new(model, scenario, loader)
    }

    #[test]
    fn per_image_campaign_produces_one_row_per_image() {
        let mut s = Scenario::default();
        s.dataset_size = 6;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 6);
        for row in &result.rows {
            assert_eq!(row.orig_top5.len(), 5);
            assert_eq!(row.corr_top5.len(), 5);
            assert_eq!(row.faults.len(), 1);
            assert!(row.resil_top5.is_none());
        }
        assert_eq!(result.trace.entries.len(), 6);
    }

    #[test]
    fn per_epoch_policy_reuses_one_slot() {
        let mut s = Scenario::default();
        s.dataset_size = 5;
        s.injection_policy = InjectionPolicy::PerEpoch;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 5);
        // every image saw the identical fault record
        let first = result.rows[0].faults[0].record;
        for row in &result.rows {
            assert_eq!(row.faults[0].record, first);
        }
    }

    #[test]
    fn per_batch_policy_advances_per_batch() {
        let mut s = Scenario::default();
        s.dataset_size = 6;
        s.batch_size = 3;
        s.injection_policy = InjectionPolicy::PerBatch;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        let r = &result.rows;
        assert_eq!(r[0].faults[0].record, r[1].faults[0].record);
        assert_eq!(r[0].faults[0].record, r[2].faults[0].record);
        assert_ne!(r[2].faults[0].record, r[3].faults[0].record);
    }

    #[test]
    fn neuron_campaign_logs_applications() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Neurons;
        s.faults_per_image = FaultCount::Fixed(2);
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        for row in &result.rows {
            assert_eq!(row.faults.len(), 2, "both neuron faults applied");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        let csv = result.to_csv(CsvVariant::Corrupted);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("image_id,file_name,label,top1"));
        assert!(lines[1].contains("synthetic/class/"));
    }

    #[test]
    fn outputs_are_saved_and_replayable() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        let dir = std::env::temp_dir().join("alfi_campaign_out");
        let _ = std::fs::remove_dir_all(&dir);
        result.save_outputs(&dir).unwrap();
        for f in ["scenario.yml", "faults.bin", "trace.bin", "results_orig.csv", "results_corr.csv"] {
            assert!(dir.join(f).exists(), "{f} missing");
        }
        // fault file round-trips
        let m = crate::persist::load_fault_matrix(dir.join("faults.bin")).unwrap();
        assert_eq!(m, result.fault_matrix);
        let t = RunTrace::load(dir.join("trace.bin")).unwrap();
        assert_eq!(t, result.trace);
        // scenario replays
        let s2 = Scenario::load(dir.join("scenario.yml")).unwrap();
        assert_eq!(s2, result.scenario);
    }

    #[test]
    fn per_batch_neuron_faults_can_hit_any_batch_coordinate() {
        // With batch_size 4 and per-batch policy the whole batch goes
        // through one forward pass, so neuron faults targeting batch
        // index > 0 land instead of being skipped.
        let mut s = Scenario::default();
        s.dataset_size = 8;
        s.batch_size = 4;
        s.injection_policy = InjectionPolicy::PerBatch;
        s.injection_target = InjectionTarget::Neurons;
        s.fault_mode = FaultMode::RandomValue { min: 7.0, max: 7.1 };
        s.seed = 3; // seed chosen so at least one fault has batch > 0
        let result = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(result.rows.len(), 8);
        let applied: Vec<_> = result.trace.entries.iter().map(|e| e.applied).collect();
        assert_eq!(applied.len(), 2, "one neuron fault per batch, two batches");
        assert!(
            applied.iter().any(|a| a.record.batch > 0),
            "expected a fault with batch > 0 to be applied: {applied:?}"
        );
        // trace attribution points at the image the coordinate addressed
        for e in &result.trace.entries {
            let expect_row = e.applied.record.batch;
            let batch_start = result
                .rows
                .iter()
                .position(|r| r.image_id == e.image_id)
                .unwrap();
            assert_eq!(batch_start % 4, expect_row);
        }
    }

    #[test]
    fn replayed_fault_matrix_reproduces_identical_rows() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        let first = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let replay = campaign(s)
            .with_fault_matrix(first.fault_matrix.clone())
            .run_with(&RunConfig::default())
            .unwrap();
        assert_eq!(first.trace, replay.trace);
        for (a, b) in first.rows.iter().zip(replay.rows.iter()) {
            assert_eq!(a.corr_top5, b.corr_top5);
        }
    }

    #[test]
    fn replayed_matrix_with_wrong_target_is_rejected() {
        let mut s = Scenario::default();
        s.dataset_size = 2;
        s.injection_target = InjectionTarget::Weights;
        let first = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        s.injection_target = InjectionTarget::Neurons;
        let err = campaign(s).with_fault_matrix(first.fault_matrix).run_with(&RunConfig::default()).unwrap_err();
        assert!(matches!(err, crate::CoreError::CorruptFile { .. }));
    }

    #[test]
    fn parallel_run_matches_sequential_bit_exactly() {
        let mut s = Scenario::default();
        s.dataset_size = 8;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let sequential = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let parallel = campaign(s).run_with(&RunConfig::new().threads(4)).unwrap();
        assert_eq!(sequential.rows.len(), parallel.rows.len());
        for (a, b) in sequential.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!(a.image_id, b.image_id);
            assert_eq!(a.orig_top5, b.orig_top5);
            assert_eq!(a.corr_top5, b.corr_top5);
            assert_eq!(a.faults, b.faults);
        }
        assert_eq!(sequential.trace, parallel.trace);
        assert_eq!(sequential.fault_matrix, parallel.fault_matrix);
    }

    #[test]
    fn parallel_run_rejects_non_per_image_policy() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_policy = InjectionPolicy::PerEpoch;
        assert!(campaign(s).run_with(&RunConfig::new().threads(2)).is_err());
    }

    #[test]
    fn parallel_run_surfaces_worker_panic_as_error() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        let mut c = campaign(s);
        // A monitor that blows up mid-forward inside a pool task: the
        // pool must contain the panic and the campaign must report it as
        // an error instead of unwinding through (or poisoning) campaign
        // state. The `in_parallel_task` guard keeps the caller-side
        // shape-inference forward in `resolve_targets` alive.
        let bomb: std::sync::Arc<dyn alfi_nn::graph::ForwardHook> =
            std::sync::Arc::new(|_: &alfi_nn::graph::LayerCtx, _: &mut Tensor| {
                if alfi_pool::in_parallel_task() {
                    panic!("monitor exploded");
                }
            });
        attach_monitor(&mut c.model, bomb).unwrap();
        for threads in [2, 3] {
            let err = c.run_with(&RunConfig::new().threads(threads)).unwrap_err();
            match err {
                CoreError::WorkerPanic { message } => {
                    assert!(message.contains("monitor exploded"), "message: {message}")
                }
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        }
    }

    #[test]
    fn recorder_collects_counters_and_identical_outputs() {
        let mut s = Scenario::default();
        s.dataset_size = 4;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        let plain = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let rec = alfi_trace::Recorder::new();
        let traced = campaign(s)
            .run_with(&RunConfig::new().recorder(rec.clone()))
            .unwrap();
        for (a, b) in plain.rows.iter().zip(traced.rows.iter()) {
            assert_eq!(a.corr_top5, b.corr_top5, "tracing must not change results");
        }
        let summary = rec.summary();
        assert_eq!(summary.items, 4);
        assert_eq!(summary.injections, 4);
        assert_eq!(summary.outcomes.total(), 4);
        assert_eq!(summary.meta.as_ref().unwrap().campaign, "classification");
        assert!(summary.phases.contains_key("forward"));
        assert!(!summary.layer_forward.is_empty(), "per-layer forward timings recorded");
    }

    /// `[1, 3, 2, 2]` images through flatten and three linear layers
    /// whose weight magnitudes, all in `[1, 2)`, are drawn from `seed`:
    /// an exponent flip of bit 30 turns any of them into Inf or NaN.
    /// Every third weight is negative, except that `fc1_scale` other
    /// than 1 makes fc1's weights all positive and scales them.
    fn dense_net(seed: u64, fc1_scale: f32) -> Network {
        let mut rng = alfi_rng::Rng::from_seed(seed);
        let mut weights = |dims: &[usize], scale: f32| {
            let n = dims.iter().product();
            let data = (0..n)
                .map(|i| {
                    let w: f32 = rng.gen_range(1.0f32..2.0);
                    if i % 3 == 0 && scale == 1.0 { -w } else { w * scale }
                })
                .collect();
            Tensor::from_vec(data, dims).unwrap()
        };
        let mut net = Network::new("dense");
        let linear = |w: Tensor| alfi_nn::Layer::Linear(alfi_nn::Linear { weight: w, bias: None });
        net.push_seq("flatten", alfi_nn::Layer::Flatten).unwrap();
        net.push_seq("fc1", linear(weights(&[4, 12], fc1_scale))).unwrap();
        net.push_seq("fc2", linear(weights(&[4, 4], 1.0))).unwrap();
        let out = net.push_seq("fc3", linear(weights(&[10, 4], 1.0))).unwrap();
        net.set_output(out).unwrap();
        net
    }

    fn dense_dataset(n: usize) -> ClassificationDataset {
        ClassificationDataset::new(n, 10, 3, 2, 21)
    }

    fn topk_bits(topk: &TopK) -> Vec<(usize, u32)> {
        topk.iter().map(|&(c, p)| (c, p.to_bits())).collect()
    }

    /// Recomputes every row's faulty pass the slow way — a fresh,
    /// hook-free clone of `model` with the row's faults armed, a NaN/Inf
    /// monitor on every node and a forward over the whole graph — and
    /// checks the campaign's row against it.
    fn assert_rows_match_full_forward(
        model: &Network,
        scenario: &Scenario,
        ds: &ClassificationDataset,
        rows: &[ClassificationRow],
    ) {
        let dims = vec![1, ds.channels(), ds.image_hw(), ds.image_hw()];
        let targets = crate::matrix::resolve_targets(&[model], scenario, &[Some(dims)]).unwrap();
        for row in rows {
            let mut clone = model.clone();
            let monitor = Arc::new(NanInfMonitor::new());
            attach_monitor(&mut clone, Arc::<NanInfMonitor>::clone(&monitor) as _).unwrap();
            let records: Vec<_> = row.faults.iter().map(|a| a.record).collect();
            let target = scenario.injection_target;
            let _armed = arm_faults(&mut [&mut clone], &targets, &records, target).unwrap();
            let image = Tensor::stack(&[ds.get(row.image_id as usize).image]).unwrap();
            let expect = softmax_topk_rows(&clone.forward(&image).unwrap(), 1, 5).unwrap();
            let t = monitor.totals();
            assert_eq!(topk_bits(&row.corr_top5), topk_bits(&expect[0]), "image {}", row.image_id);
            assert_eq!((row.corr_nan, row.corr_inf), (t.nan, t.inf), "image {}", row.image_id);
        }
    }

    #[test]
    fn non_finite_counts_include_the_golden_prefix_before_the_faulted_node() {
        // fc1's weights are ~1e38, so its output overflows to ±Inf and
        // fc2 mixes them into NaN on every image, before any fault: the
        // faults land on fc2 or fc3 only, so the faulty pass resumes
        // past fc1 and must count its golden non-finite values.
        let mut s = Scenario::default();
        s.dataset_size = 12;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::exponent_bit_flip();
        s.layer_range = Some((1, 2));
        let model = dense_net(5, 1.0e38);
        let golden = model.forward_all(&Tensor::stack(&[dense_dataset(1).get(0).image]).unwrap());
        let fc1 = &golden.unwrap()[1];
        assert!(fc1.count_inf() > 0, "the golden prefix overflows");
        let loader = ClassificationLoader::new(dense_dataset(12), 1);
        let result = ImgClassCampaign::new(model.clone(), s.clone(), loader)
            .run_with(&RunConfig::new().threads(2))
            .unwrap();
        assert_eq!(result.rows.len(), 12);
        assert!(result.rows.iter().all(|r| r.corr_inf > 0 && r.corr_nan > 0));
        assert_rows_match_full_forward(&model, &s, &dense_dataset(12), &result.rows);
    }

    #[test]
    fn golden_model_with_a_mutating_hook_runs_the_whole_faulty_graph() {
        // The hook changes the golden model's first activation; its
        // clones do not carry it, so resuming from the golden
        // activations would hand them values they never compute.
        let mut s = Scenario::default();
        s.dataset_size = 8;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::BitFlip { bit_range: (24, 30) };
        s.layer_range = Some((1, 2));
        let mut model = dense_net(9, 1.0);
        let loader = ClassificationLoader::new(dense_dataset(8), 1);
        let mut c = ImgClassCampaign::new(model.clone(), s.clone(), loader);
        let hook = |_: &alfi_nn::LayerCtx, t: &mut Tensor| t.map_inplace(|v| v * -3.0 + 1.0);
        c.model.register_hook(1, Arc::new(hook)).unwrap();
        let result = c.run_with(&RunConfig::default()).unwrap();
        assert_rows_match_full_forward(&model, &s, &dense_dataset(8), &result.rows);
        // The hooked golden model reports different clean outputs, so
        // the comparison above is not vacuous.
        model.clear_hooks();
        let image = Tensor::stack(&[dense_dataset(1).get(0).image]).unwrap();
        let clean = softmax_topk_rows(&model.forward(&image).unwrap(), 1, 5).unwrap();
        assert_ne!(topk_bits(&clean[0]), topk_bits(&result.rows[0].orig_top5));
    }

    #[test]
    fn worker_instances_are_pristine_after_hundreds_of_scopes() {
        // 300 scopes of two bit-30 flips on weights in [1, 2): each
        // flip turns a weight into Inf or NaN. Run on two pooled
        // instances (plus hardened copies), then every instance must
        // hold the golden weights bit for bit.
        let mut s = Scenario::default();
        s.dataset_size = 300;
        s.injection_target = InjectionTarget::Weights;
        s.fault_mode = FaultMode::BitFlip { bit_range: (30, 30) };
        s.faults_per_image = FaultCount::Fixed(2);
        let model = dense_net(13, 1.0);
        let loader = ClassificationLoader::new(dense_dataset(300), 1);
        let c = ImgClassCampaign::new(model.clone(), s.clone(), loader)
            .with_resil_model(model.clone());
        let (targets, resil_targets) = c.resolve_targets().unwrap();
        let matrix = FaultMatrix::generate(&s, &targets).unwrap();
        let mut scopes = Vec::new();
        let flow = c
            .stream_scopes(0, &mut |_, scope| {
                scopes.push(scope);
                Ok(ControlFlow::Continue(()))
            })
            .unwrap();
        assert!(flow.is_continue());
        assert_eq!(scopes.len(), 300);
        let instances = c.worker(2).unwrap();
        let rec = Recorder::disabled();
        let outs = alfi_pool::global()
            .try_run_indexed(2, scopes.len(), |i| {
                let ctx = ScopeCtx {
                    scenario: &s,
                    targets: &targets,
                    resil_targets: resil_targets.as_deref(),
                    faults: matrix.faults_for_slot(i),
                };
                c.process(&instances, &ctx, &scopes[i], &rec).unwrap()
            })
            .unwrap();
        let applied: Vec<AppliedFault> =
            outs.into_iter().flat_map(|(rows, _)| rows[0].faults.clone()).collect();
        assert_eq!(applied.len(), 600);
        assert!(applied.iter().any(|a| a.corrupted.is_nan()), "some flips produce NaN");
        let weight_bits = |net: &Network| -> Vec<Vec<u32>> {
            net.nodes()
                .iter()
                .filter_map(|n| n.layer.weight())
                .map(|w| w.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let check = |(faulty, hardened): &mut ModelPair| {
            assert_eq!(weight_bits(faulty), weight_bits(&model));
            assert_eq!(weight_bits(hardened.as_ref().unwrap()), weight_bits(&model));
            assert_eq!(faulty.num_hooks(), 0, "monitor hooks are removed");
        };
        // One instance per scope the pool runs at once; nested, so the
        // calls take every one of them.
        match alfi_pool::global().effective_threads(2) {
            1 => instances.with(check),
            _ => instances.with(|a| instances.with(|b| [a, b].into_iter().for_each(check))),
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let mut s = Scenario::default();
        s.dataset_size = 3;
        s.injection_target = InjectionTarget::Weights;
        let a = campaign(s.clone()).run_with(&RunConfig::default()).unwrap();
        let b = campaign(s).run_with(&RunConfig::default()).unwrap();
        assert_eq!(a.rows.len(), b.rows.len());
        for (ra, rb) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(ra.corr_top5, rb.corr_top5);
            assert_eq!(ra.faults, rb.faults);
        }
    }
}
