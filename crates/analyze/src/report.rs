//! Cross-campaign vulnerability reports over a finished run directory.
//!
//! [`analyze_dir`] streams the row artifacts (the columnar store when
//! present, the CSV pair otherwise — both normalize to identical
//! facts), folds in the deterministic records of `events.jsonl` and the
//! saved `scenario.yml`, and produces a [`CampaignReport`] rendered as
//! `report.json` ([`CampaignReport::to_json`]) and `report.md`
//! ([`CampaignReport::to_markdown`]).
//!
//! # Section ordering
//!
//! Reports are golden-pinned, so section ordering is part of the
//! format: layer sections are sorted by resolved injectable-target
//! index (ascending), bit positions ascending with non-bit-addressed
//! faults (`-`) first, fault modes lexicographically, and the full
//! layer × bit × mode cell table by that composite key. The ordering
//! audit test in this module locks the contract.

use crate::rows::{
    csv_is_classification, store_is_classification, stream_csv_rows, stream_store_rows, FaultKey,
    RowFacts,
};
use crate::AnalyzeError;
use alfi_core::stats::{clopper_pearson_interval, wilson_interval, z_for_confidence, BinomialCi};
use alfi_scenario::{CiMethod, Scenario};
use alfi_serde::Json;
use alfi_trace::{EffectClass, EventLog, StopVerdict};
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the JSON report written next to the run artifacts.
pub const REPORT_JSON: &str = "report.json";

/// File name of the Markdown report written next to the run artifacts.
pub const REPORT_MD: &str = "report.md";

/// Format version stamped into `report.json`.
pub const REPORT_FORMAT_VERSION: u32 = 1;

/// Confidence level used when the run has no stop policy to inherit
/// one from.
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// A rate with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCi {
    /// Point estimate `hits / samples` (`0` when there are no samples).
    pub rate: f64,
    /// Interval lower bound.
    pub low: f64,
    /// Interval upper bound.
    pub high: f64,
}

impl RateCi {
    fn new(hits: u64, total: u64, z: f64) -> RateCi {
        let ci = wilson_interval(hits as usize, total as usize, z);
        let rate = if total == 0 { 0.0 } else { hits as f64 / total as f64 };
        RateCi { rate, low: ci.low, high: ci.high }
    }

    /// Half the interval width.
    pub fn half_width(&self) -> f64 {
        (self.high - self.low) / 2.0
    }

    /// Whether this interval and `other` are disjoint — the
    /// significance test run diffing uses.
    pub fn separated_from(&self, other: &RateCi) -> bool {
        self.high < other.low || other.high < self.low
    }
}

/// Outcome tallies and rates of one sample population (the whole
/// campaign, one layer, one bit position, one fault mode, or one
/// layer × bit × mode cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateBlock {
    /// Classified inferences in this population.
    pub samples: u64,
    /// Rows whose prediction was unchanged.
    pub masked: u64,
    /// Rows whose prediction silently changed.
    pub sdc: u64,
    /// Rows that surfaced NaN/Inf.
    pub due: u64,
    /// Masked fraction (no interval; it is `1 - sdc - due`).
    pub masked_rate: f64,
    /// SDC rate with its Wilson interval.
    pub sdc_ci: RateCi,
    /// DUE rate with its Wilson interval.
    pub due_ci: RateCi,
}

impl RateBlock {
    fn from_tally(t: &Tally, z: f64) -> RateBlock {
        let samples = t.masked + t.sdc + t.due;
        RateBlock {
            samples,
            masked: t.masked,
            sdc: t.sdc,
            due: t.due,
            masked_rate: if samples == 0 { 0.0 } else { t.masked as f64 / samples as f64 },
            sdc_ci: RateCi::new(t.sdc, samples, z),
            due_ci: RateCi::new(t.due, samples, z),
        }
    }

    /// The all-zero population (used by run diffing for a layer one
    /// side never injected). Its intervals are the vacuous `[0, 1]`,
    /// so it can never be part of a significant delta.
    pub fn empty() -> RateBlock {
        RateBlock::from_tally(&Tally::default(), z_for_confidence(DEFAULT_CONFIDENCE))
    }

    pub(crate) fn to_json_fields(self) -> Vec<(String, Json)> {
        vec![
            ("samples".into(), Json::Int(self.samples as i128)),
            ("masked".into(), Json::Int(self.masked as i128)),
            ("sdc".into(), Json::Int(self.sdc as i128)),
            ("due".into(), Json::Int(self.due as i128)),
            ("masked_rate".into(), Json::Float(self.masked_rate)),
            ("sdc_rate".into(), Json::Float(self.sdc_ci.rate)),
            ("sdc_ci".into(), Json::Arr(vec![Json::Float(self.sdc_ci.low), Json::Float(self.sdc_ci.high)])),
            ("due_rate".into(), Json::Float(self.due_ci.rate)),
            ("due_ci".into(), Json::Arr(vec![Json::Float(self.due_ci.low), Json::Float(self.due_ci.high)])),
        ]
    }
}

/// Raw outcome tallies of one population.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub masked: u64,
    pub sdc: u64,
    pub due: u64,
}

impl Tally {
    fn add(&mut self, outcome: EffectClass) {
        match outcome {
            EffectClass::Masked => self.masked += 1,
            EffectClass::Sdc => self.sdc += 1,
            EffectClass::Due => self.due += 1,
        }
    }
}

/// Achieved-vs-requested precision of a (possibly early-stopped)
/// campaign, reconstructed from `scenario.yml` and the stop records of
/// `events.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct StopReport {
    /// The policy's target CI half-width.
    pub requested_half_width: f64,
    /// The policy's confidence level.
    pub confidence: f64,
    /// Interval construction the policy used (`wilson` /
    /// `clopper-pearson`).
    pub method: String,
    /// Campaign-level SDC half-width achieved over all classified rows,
    /// computed with the policy's method and confidence.
    pub achieved_sdc_half_width: f64,
    /// Campaign-level DUE half-width achieved.
    pub achieved_due_half_width: f64,
    /// Stop decisions recorded in the event log.
    pub decisions: u64,
    /// Layer strata retired before exhaustion, in retirement order.
    pub retired_strata: Vec<usize>,
    /// Whether a whole-campaign stop verdict fired.
    pub stopped_early: bool,
}

/// The deterministic cross-campaign vulnerability report.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Confidence level of every interval in the report.
    pub confidence: f64,
    /// Replay identity from the event-log header (`campaign`, `model`,
    /// `scenario_hash`, `seed`) — deliberately excluding the header's
    /// `threads` field, the one field allowed to differ between
    /// otherwise-identical runs. Empty when the run kept no event log.
    pub run: Vec<(String, String)>,
    /// Scenario fingerprint (FNV-1a of the saved YAML) and headline
    /// scenario numbers, when `scenario.yml` was present.
    pub scenario: Option<(String, u64, u64)>,
    /// Result rows scanned.
    pub rows: u64,
    /// Whole-campaign rates.
    pub overall: RateBlock,
    /// Per-layer rates, sorted by resolved injectable-target index.
    pub layers: Vec<(usize, RateBlock)>,
    /// Per-bit-position rates, ascending; `-1` (rendered `-`) collects
    /// faults that are not bit-addressed.
    pub bits: Vec<(i64, RateBlock)>,
    /// Per-fault-mode rates, modes sorted lexicographically.
    pub modes: Vec<(String, RateBlock)>,
    /// The full layer × bit × mode breakdown, sorted by that composite
    /// key. Only populated cells appear.
    pub cells: Vec<(FaultKey, RateBlock)>,
    /// Deterministic event-log roll-up (items, injections, NaN/Inf
    /// elements), when the run kept an event log.
    pub events: Option<(u64, u64, u64, u64)>,
    /// Early-stop precision summary, when the run had a stop policy.
    pub stop: Option<StopReport>,
}

/// Streaming aggregate state: one tally per population, bounded by the
/// number of distinct keys (never by row count).
#[derive(Default)]
struct Acc {
    rows: u64,
    overall: Tally,
    layers: BTreeMap<usize, Tally>,
    bits: BTreeMap<i64, Tally>,
    modes: BTreeMap<&'static str, Tally>,
    cells: BTreeMap<FaultKey, Tally>,
}

impl Acc {
    fn add(&mut self, facts: RowFacts) {
        self.rows += 1;
        self.overall.add(facts.outcome);
        for key in facts.faults {
            self.layers.entry(key.layer).or_default().add(facts.outcome);
            self.bits.entry(key.bit).or_default().add(facts.outcome);
            self.modes.entry(key.mode).or_default().add(facts.outcome);
            self.cells.entry(key).or_default().add(facts.outcome);
        }
    }
}

fn interval_for(method: CiMethod, hits: u64, total: u64, confidence: f64) -> BinomialCi {
    match method {
        CiMethod::Wilson => wilson_interval(hits as usize, total as usize, z_for_confidence(confidence)),
        CiMethod::ClopperPearson => clopper_pearson_interval(hits as usize, total as usize, confidence),
    }
}

fn stop_report(
    scenario: Option<&Scenario>,
    log: Option<&EventLog>,
    overall: &Tally,
) -> Option<StopReport> {
    let policy = scenario.and_then(|s| s.stop_policy.as_ref())?;
    let samples = overall.masked + overall.sdc + overall.due;
    let sdc = interval_for(policy.method, overall.sdc, samples, policy.confidence);
    let due = interval_for(policy.method, overall.due, samples, policy.confidence);
    let stops = log.map(|l| l.stops.as_slice()).unwrap_or(&[]);
    Some(StopReport {
        requested_half_width: policy.half_width,
        confidence: policy.confidence,
        method: policy.method.to_string(),
        achieved_sdc_half_width: (sdc.high - sdc.low) / 2.0,
        achieved_due_half_width: (due.high - due.low) / 2.0,
        decisions: stops.len() as u64,
        retired_strata: stops
            .iter()
            .filter(|e| e.verdict == StopVerdict::RetireStratum)
            .filter_map(|e| e.stratum)
            .collect(),
        stopped_early: stops.iter().any(|e| e.verdict == StopVerdict::StopCampaign),
    })
}

/// Analyzes a finished run directory into a [`CampaignReport`].
///
/// Row facts come from `rows.alfic` when present (streamed
/// block-by-block), otherwise from the `results_orig.csv` /
/// `results_corr.csv` pair (streamed line-by-line); both sources
/// produce bit-identical reports by construction. `events.jsonl` and
/// `scenario.yml` contribute their deterministic records when present.
/// Directories with an event log but no classification-shaped row
/// artifacts (a pinned trace golden, a detection run) still produce a
/// report with empty rate sections.
///
/// # Errors
///
/// [`AnalyzeError::Missing`] when the directory holds neither row
/// artifacts nor an event log, [`AnalyzeError::Parse`] on malformed
/// artifacts.
pub fn analyze_dir(dir: impl AsRef<Path>) -> Result<CampaignReport, AnalyzeError> {
    let dir = dir.as_ref();
    let store = dir.join("rows.alfic");
    let orig = dir.join("results_orig.csv");
    let corr = dir.join("results_corr.csv");
    let events_path = dir.join(alfi_trace::EVENTS_FILE);
    let scenario_path = dir.join("scenario.yml");

    let mut acc = Acc::default();
    if store.is_file() && store_is_classification(&store)? {
        stream_store_rows(&store, |facts| acc.add(facts))?;
    } else if orig.is_file() && corr.is_file() && csv_is_classification(&orig)? {
        stream_csv_rows(&orig, &corr, |facts| acc.add(facts))?;
    } else if !events_path.is_file() {
        return Err(AnalyzeError::Missing(format!(
            "{}: no classification row artifacts or events.jsonl",
            dir.display()
        )));
    }

    let log = if events_path.is_file() { Some(EventLog::load(&events_path)?) } else { None };
    let scenario = if scenario_path.is_file() {
        let yaml = std::fs::read_to_string(&scenario_path)?;
        let parsed = Scenario::from_yaml_str(&yaml)
            .map_err(|e| AnalyzeError::Parse(format!("scenario.yml: {e}")))?;
        Some((parsed, alfi_trace::hash_hex(yaml.as_bytes())))
    } else {
        None
    };

    let confidence = scenario
        .as_ref()
        .and_then(|(s, _)| s.stop_policy.as_ref())
        .map_or(DEFAULT_CONFIDENCE, |p| p.confidence);
    let z = z_for_confidence(confidence);

    let mut run = Vec::new();
    if let Some(meta) = log.as_ref().and_then(|l| l.header.meta.as_ref()) {
        run.push(("campaign".to_string(), meta.campaign.clone()));
        run.push(("model".to_string(), meta.model.clone()));
        run.push(("scenario_hash".to_string(), meta.scenario_hash.clone()));
        run.push(("seed".to_string(), meta.seed.to_string()));
    }

    let stop = stop_report(scenario.as_ref().map(|(s, _)| s), log.as_ref(), &acc.overall);
    let events = log.as_ref().and_then(|l| l.summary.as_ref()).map(|s| {
        (s.items, s.injections, s.nan, s.inf)
    });

    Ok(CampaignReport {
        confidence,
        run,
        scenario: scenario
            .map(|(s, hash)| (hash, s.seed, s.dataset_size as u64)),
        rows: acc.rows,
        overall: RateBlock::from_tally(&acc.overall, z),
        layers: acc.layers.iter().map(|(k, t)| (*k, RateBlock::from_tally(t, z))).collect(),
        bits: acc.bits.iter().map(|(k, t)| (*k, RateBlock::from_tally(t, z))).collect(),
        modes: acc
            .modes
            .iter()
            .map(|(k, t)| (k.to_string(), RateBlock::from_tally(t, z)))
            .collect(),
        cells: acc.cells.iter().map(|(k, t)| (k.clone(), RateBlock::from_tally(t, z))).collect(),
        events,
        stop,
    })
}

fn bit_label(bit: i64) -> String {
    if bit < 0 {
        "-".to_string()
    } else {
        bit.to_string()
    }
}

impl CampaignReport {
    /// Renders the report as a JSON document with a stable key and
    /// section order.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("alfi_report_version".into(), Json::Int(REPORT_FORMAT_VERSION as i128)),
            ("confidence".into(), Json::Float(self.confidence)),
        ];
        if !self.run.is_empty() {
            obj.push((
                "run".into(),
                Json::Obj(self.run.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
            ));
        }
        if let Some((hash, seed, dataset_size)) = &self.scenario {
            obj.push((
                "scenario".into(),
                Json::Obj(vec![
                    ("hash".into(), Json::Str(hash.clone())),
                    ("seed".into(), Json::Int(*seed as i128)),
                    ("dataset_size".into(), Json::Int(*dataset_size as i128)),
                ]),
            ));
        }
        obj.push(("rows".into(), Json::Int(self.rows as i128)));
        obj.push(("overall".into(), Json::Obj(self.overall.to_json_fields())));
        obj.push((
            "layers".into(),
            Json::Arr(
                self.layers
                    .iter()
                    .map(|(layer, b)| {
                        let mut fields = vec![("layer".into(), Json::Int(*layer as i128))];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "bits".into(),
            Json::Arr(
                self.bits
                    .iter()
                    .map(|(bit, b)| {
                        let bit_json =
                            if *bit < 0 { Json::Null } else { Json::Int(*bit as i128) };
                        let mut fields = vec![("bit".into(), bit_json)];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "modes".into(),
            Json::Arr(
                self.modes
                    .iter()
                    .map(|(mode, b)| {
                        let mut fields = vec![("mode".into(), Json::Str(mode.clone()))];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        obj.push((
            "cells".into(),
            Json::Arr(
                self.cells
                    .iter()
                    .map(|(key, b)| {
                        let bit_json =
                            if key.bit < 0 { Json::Null } else { Json::Int(key.bit as i128) };
                        let mut fields = vec![
                            ("layer".into(), Json::Int(key.layer as i128)),
                            ("bit".into(), bit_json),
                            ("mode".into(), Json::Str(key.mode.to_string())),
                        ];
                        fields.extend(b.to_json_fields());
                        Json::Obj(fields)
                    })
                    .collect(),
            ),
        ));
        if let Some((items, injections, nan, inf)) = self.events {
            obj.push((
                "events".into(),
                Json::Obj(vec![
                    ("items".into(), Json::Int(items as i128)),
                    ("injections".into(), Json::Int(injections as i128)),
                    ("nan".into(), Json::Int(nan as i128)),
                    ("inf".into(), Json::Int(inf as i128)),
                ]),
            ));
        }
        if let Some(stop) = &self.stop {
            obj.push((
                "stop".into(),
                Json::Obj(vec![
                    ("requested_half_width".into(), Json::Float(stop.requested_half_width)),
                    ("confidence".into(), Json::Float(stop.confidence)),
                    ("method".into(), Json::Str(stop.method.clone())),
                    (
                        "achieved_sdc_half_width".into(),
                        Json::Float(stop.achieved_sdc_half_width),
                    ),
                    (
                        "achieved_due_half_width".into(),
                        Json::Float(stop.achieved_due_half_width),
                    ),
                    ("decisions".into(), Json::Int(stop.decisions as i128)),
                    (
                        "retired_strata".into(),
                        Json::Arr(
                            stop.retired_strata.iter().map(|s| Json::Int(*s as i128)).collect(),
                        ),
                    ),
                    ("stopped_early".into(), Json::Bool(stop.stopped_early)),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Renders the JSON report as the exact `report.json` file bytes.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().pretty();
        s.push('\n');
        s
    }

    /// Renders the report as a human-readable Markdown document with
    /// the same deterministic section ordering as the JSON view.
    pub fn to_markdown(&self) -> String {
        let pct = |r: f64| format!("{:.2}%", r * 100.0);
        let ci = |c: &RateCi| format!("{} [{}, {}]", pct(c.rate), pct(c.low), pct(c.high));
        let mut out = String::from("# ALFI campaign report\n\n");
        for (k, v) in &self.run {
            out.push_str(&format!("- {k}: `{v}`\n"));
        }
        if let Some((hash, seed, dataset_size)) = &self.scenario {
            out.push_str(&format!(
                "- scenario: `{hash}` (seed {seed}, dataset_size {dataset_size})\n"
            ));
        }
        out.push_str(&format!(
            "- rows: {} | confidence: {:.0}%\n\n",
            self.rows,
            self.confidence * 100.0
        ));

        let row_line = |label: &str, b: &RateBlock| {
            format!(
                "| {label} | {} | {} | {} | {} |\n",
                b.samples,
                pct(b.masked_rate),
                ci(&b.sdc_ci),
                ci(&b.due_ci)
            )
        };
        let table_header = "| | samples | masked | sdc [ci] | due [ci] |\n|---|---|---|---|---|\n";

        out.push_str("## Overall\n\n");
        out.push_str(table_header);
        out.push_str(&row_line("campaign", &self.overall));

        if !self.layers.is_empty() {
            out.push_str("\n## Per layer\n\n");
            out.push_str(table_header);
            for (layer, b) in &self.layers {
                out.push_str(&row_line(&format!("layer {layer}"), b));
            }
        }
        if !self.bits.is_empty() {
            out.push_str("\n## Per bit position\n\n");
            out.push_str(table_header);
            for (bit, b) in &self.bits {
                out.push_str(&row_line(&format!("bit {}", bit_label(*bit)), b));
            }
        }
        if !self.modes.is_empty() {
            out.push_str("\n## Per fault mode\n\n");
            out.push_str(table_header);
            for (mode, b) in &self.modes {
                out.push_str(&row_line(mode, b));
            }
        }
        if !self.cells.is_empty() {
            out.push_str("\n## Layer × bit × mode\n\n");
            out.push_str(table_header);
            for (key, b) in &self.cells {
                out.push_str(&row_line(
                    &format!("layer {} bit {} {}", key.layer, bit_label(key.bit), key.mode),
                    b,
                ));
            }
        }
        if let Some((items, injections, nan, inf)) = self.events {
            out.push_str("\n## Event log\n\n");
            out.push_str(&format!(
                "- items: {items} | injections: {injections} | nan: {nan} | inf: {inf}\n"
            ));
        }
        if let Some(stop) = &self.stop {
            out.push_str("\n## Early-stop precision\n\n");
            out.push_str(&format!(
                "- requested ±{:.4} @{:.0}% ({})\n- achieved sdc ±{:.4} due ±{:.4}\n- decisions: {} | retired strata: {:?} | {}\n",
                stop.requested_half_width,
                stop.confidence * 100.0,
                stop.method,
                stop.achieved_sdc_half_width,
                stop.achieved_due_half_width,
                stop.decisions,
                stop.retired_strata,
                if stop.stopped_early { "stopped early" } else { "ran to completion" }
            ));
        }
        out
    }
}

/// Writes `report.json` and `report.md` into `dir`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_report_files(report: &CampaignReport, dir: impl AsRef<Path>) -> Result<(), AnalyzeError> {
    let dir = dir.as_ref();
    std::fs::write(dir.join(REPORT_JSON), report.to_json_string())?;
    std::fs::write(dir.join(REPORT_MD), report.to_markdown())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::RowFacts;

    fn facts(outcome: EffectClass, layer: usize, bit: i64, mode: &'static str) -> RowFacts {
        RowFacts { outcome, faults: vec![FaultKey { layer, bit, mode }] }
    }

    fn sample_report() -> CampaignReport {
        let mut acc = Acc::default();
        // Deliberately out-of-order arrivals: the report must sort.
        acc.add(facts(EffectClass::Sdc, 6, 30, "bitflip"));
        acc.add(facts(EffectClass::Masked, 3, -1, "replace"));
        acc.add(facts(EffectClass::Due, 6, 2, "stuck_at"));
        acc.add(facts(EffectClass::Masked, 3, 30, "bitflip"));
        acc.add(facts(EffectClass::Masked, 0, 5, "quant"));
        let z = z_for_confidence(DEFAULT_CONFIDENCE);
        CampaignReport {
            confidence: DEFAULT_CONFIDENCE,
            run: Vec::new(),
            scenario: None,
            rows: acc.rows,
            overall: RateBlock::from_tally(&acc.overall, z),
            layers: acc.layers.iter().map(|(k, t)| (*k, RateBlock::from_tally(t, z))).collect(),
            bits: acc.bits.iter().map(|(k, t)| (*k, RateBlock::from_tally(t, z))).collect(),
            modes: acc
                .modes
                .iter()
                .map(|(k, t)| (k.to_string(), RateBlock::from_tally(t, z)))
                .collect(),
            cells: acc
                .cells
                .iter()
                .map(|(k, t)| (k.clone(), RateBlock::from_tally(t, z)))
                .collect(),
            events: None,
            stop: None,
        }
    }

    /// An exponent flip that overflows to NaN or ±Inf is recorded in
    /// the event log as a string; the report and the trace export both
    /// read such a log.
    #[test]
    fn event_logs_with_non_finite_values_are_analyzed() {
        use alfi_trace::{InjectionEvent, Recorder, RunMeta};
        let dir = std::env::temp_dir()
            .join(format!("alfi_analyze_nonfinite_events_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let rec = Recorder::new();
        rec.set_meta(RunMeta {
            campaign: "classification".into(),
            model: "vit".into(),
            scenario_hash: alfi_trace::hash_hex(b"nonfinite"),
            seed: 1,
            threads: 2,
        });
        for (i, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY].into_iter().enumerate() {
            rec.record_injection(InjectionEvent {
                image_id: i as u64,
                layer: 0,
                bit: Some(30),
                original: 0.5,
                corrupted: v,
            });
            rec.record_outcome(EffectClass::Due);
            rec.item_finished();
        }
        rec.write_events(dir.join(alfi_trace::EVENTS_FILE)).unwrap();
        let report = analyze_dir(&dir).unwrap();
        assert_eq!(report.events, Some((3, 3, 0, 0)));
        let (trace, _) = crate::trace_export::export_dir(&dir).unwrap();
        for name in ["NaN", "Infinity", "-Infinity"] {
            assert!(trace.contains(&format!("\"{name}\"")), "{name} missing from the export");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ordering audit: layers ascending by resolved target index, bit
    /// positions ascending with unaddressed faults first, modes
    /// lexicographic, cells by the composite key — independent of
    /// arrival order, so goldens never churn.
    #[test]
    fn report_sections_are_deterministically_ordered() {
        let r = sample_report();
        let layer_order: Vec<usize> = r.layers.iter().map(|(l, _)| *l).collect();
        assert_eq!(layer_order, vec![0, 3, 6]);
        let bit_order: Vec<i64> = r.bits.iter().map(|(b, _)| *b).collect();
        assert_eq!(bit_order, vec![-1, 2, 5, 30]);
        let mode_order: Vec<&str> = r.modes.iter().map(|(m, _)| m.as_str()).collect();
        assert_eq!(mode_order, vec!["bitflip", "quant", "replace", "stuck_at"]);
        let mut sorted_cells = r.cells.clone();
        sorted_cells.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(r.cells, sorted_cells, "cell table must arrive pre-sorted");
        // And the rendered views list them in the same order.
        let md = r.to_markdown();
        let l0 = md.find("layer 0").unwrap();
        let l3 = md.find("layer 3").unwrap();
        let l6 = md.find("layer 6").unwrap();
        assert!(l0 < l3 && l3 < l6, "{md}");
    }

    #[test]
    fn json_and_markdown_are_pure_functions_of_the_report() {
        let r = sample_report();
        assert_eq!(r.to_json_string(), r.to_json_string());
        assert_eq!(r.to_markdown(), r.to_markdown());
        let parsed = Json::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed.get("rows").and_then(Json::as_int), Some(5));
        assert_eq!(
            parsed.get("overall").and_then(|o| o.get("sdc")).and_then(Json::as_int),
            Some(1)
        );
    }

    #[test]
    fn rate_blocks_use_wilson_bounds() {
        let b = RateBlock::from_tally(&Tally { masked: 90, sdc: 10, due: 0 }, z_for_confidence(0.95));
        assert_eq!(b.samples, 100);
        assert!((b.sdc_ci.rate - 0.10).abs() < 1e-12);
        assert!((b.sdc_ci.low - 0.0552).abs() < 0.002);
        assert!((b.sdc_ci.high - 0.1744).abs() < 0.002);
        assert_eq!(b.due_ci.low, 0.0);
        let empty = RateBlock::empty();
        assert_eq!(empty.samples, 0);
        assert_eq!((empty.sdc_ci.low, empty.sdc_ci.high), (0.0, 1.0));
    }

    #[test]
    fn interval_separation_is_the_significance_test() {
        let a = RateCi { rate: 0.1, low: 0.05, high: 0.15 };
        let b = RateCi { rate: 0.4, low: 0.3, high: 0.5 };
        let c = RateCi { rate: 0.12, low: 0.08, high: 0.2 };
        assert!(a.separated_from(&b) && b.separated_from(&a));
        assert!(!a.separated_from(&c) && !c.separated_from(&a));
    }
}
