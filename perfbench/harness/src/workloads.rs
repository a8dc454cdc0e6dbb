//! The three fixed-work workloads: scenario, model and data for a seed,
//! the set-up calls, the campaign call and the read-back calls, all
//! through the program's public API.

use crate::measure::Spans;
use alfi::core::campaign::{ImgClassCampaign, ObjDetCampaign, RunConfig, VitCampaign};
use alfi::core::{resolve_targets, store_to_texts, text_to_store, FaultMatrix};
use alfi::datasets::{
    ClassificationDataset, ClassificationLoader, CocoGroundTruth, DetectionDataset, DetectionLoader,
};
use alfi::eval::{classification_kpis, write_detection_outputs, SdeCriterion};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::detection::{Detector, DetectorConfig, YoloGrid};
use alfi::nn::models::{vgg16, vit_tiny, ModelConfig, VIT_TINY_DEPTH, VIT_TINY_HEADS};
use alfi::nn::Network;
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionPolicy, InjectionTarget, Scenario};
use alfi::tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Weight seed of every model under test.
const MODEL_SEED: u64 = 0;
/// Calibration images for the hardening profile.
const CALIB_IMAGES: usize = 4;
/// Single-image forwards timed for `nn.golden_forward_us`.
const GOLDEN_FORWARDS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Vgg16Coupled,
    VitScale,
    YoloDetect,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Vgg16Coupled,
        Workload::VitScale,
        Workload::YoloDetect,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Vgg16Coupled => "vgg16-coupled",
            Workload::VitScale => "vit-scale",
            Workload::YoloDetect => "yolo-detect",
        }
    }

    /// Faults (= result rows) of one campaign: the fixed unit of work.
    pub fn planned_rows(self) -> usize {
        match self {
            Workload::Vgg16Coupled => 800,
            Workload::VitScale => 20_000,
            Workload::YoloDetect => 2_000,
        }
    }

    /// Seconds one unit (set-up, campaign, read-back) takes on the
    /// reference 2-core machine. It fixes how many units a run of a
    /// given `--seconds` performs; it is never measured at run time, so
    /// the work of a run depends on its arguments only.
    pub fn unit_seconds(self) -> f64 {
        match self {
            Workload::Vgg16Coupled => 4.3,
            Workload::VitScale => 6.0,
            Workload::YoloDetect => 4.0,
        }
    }

    /// Set-ups timed back to back as one `setup_s` sample: about 150 ms
    /// of set-up on the reference machine, so no sample is a short
    /// interval.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::Vgg16Coupled => 10,
            Workload::VitScale => 160,
            Workload::YoloDetect => 44,
        }
    }

    /// The golden-model layers behind `nn.layer_ns.slot1..8`: the eight
    /// costliest at the commit that added the benchmark, costliest
    /// first. They are fixed so that each metric always measures the
    /// same layer, whatever a later change does to the ranking.
    pub fn pinned_layers(self) -> [&'static str; 8] {
        match self {
            Workload::Vgg16Coupled => [
                "classifier.fc2",
                "features.conv2",
                "classifier.fc1",
                "features.conv4",
                "features.conv6",
                "features.conv7",
                "features.conv10",
                "features.conv1",
            ],
            Workload::VitScale => [
                "blocks.0.mlp.gelu",
                "blocks.1.mlp.gelu",
                "patch_embed.proj",
                "blocks.1.attn.out",
                "blocks.0.attn.out",
                "blocks.1.mlp.fc1",
                "blocks.0.mlp.fc1",
                "blocks.0.mlp.fc2",
            ],
            Workload::YoloDetect => [
                "backbone.conv2",
                "backbone.conv3",
                "backbone.down1",
                "head.conv",
                "backbone.conv1",
                "backbone.down2",
                "backbone.down3",
                "head.pred",
            ],
        }
    }

    /// Campaign threads: every core for the `per_image` workloads, the
    /// sequential driver for the `per_batch` detector.
    pub fn threads(self) -> usize {
        match self {
            Workload::YoloDetect => 1,
            _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Row-artifact format. The detector's row store exists so that its
    /// rows can be looked up; its JSON outputs are written as well.
    pub fn format(self) -> ArtifactFormat {
        match self {
            Workload::Vgg16Coupled => ArtifactFormat::Csv,
            _ => ArtifactFormat::Binary,
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        let mut s = Scenario {
            dataset_size: self.planned_rows(),
            seed,
            ..Scenario::default()
        };
        match self {
            Workload::Vgg16Coupled => {
                s.injection_target = InjectionTarget::Weights;
                s.fault_mode = FaultMode::exponent_bit_flip();
            }
            Workload::VitScale => s.injection_target = InjectionTarget::Neurons,
            Workload::YoloDetect => {
                s.injection_target = InjectionTarget::Neurons;
                s.injection_policy = InjectionPolicy::PerBatch;
                s.batch_size = 4;
            }
        }
        s
    }

    /// The model under test is fixed, as in a real campaign: the seed
    /// draws the images and the fault matrix, not the weights.
    fn model_config() -> ModelConfig {
        ModelConfig {
            input_hw: 32,
            width_mult: 0.125,
            seed: MODEL_SEED,
            ..ModelConfig::default()
        }
    }

    fn detector_config() -> DetectorConfig {
        DetectorConfig {
            input_hw: 32,
            width_mult: 0.25,
            seed: MODEL_SEED,
            ..DetectorConfig::default()
        }
    }

    /// Seeded lookups per unit: a run makes at least ten batches of
    /// `LOOKUP_BATCH`.
    pub fn lookups(self) -> usize {
        match self {
            Workload::VitScale => 2_400,
            _ => 1_500,
        }
    }

    /// Report passes per unit: about 40,000 rows read back in all.
    pub fn report_passes(self) -> usize {
        (40_000 / self.planned_rows()).max(3)
    }
}

/// A campaign ready to run: everything set-up produced.
pub enum Prepared {
    Class(Box<ImgClassCampaign>),
    Vit(Box<VitCampaign>),
    Det(Box<DetSetup>),
}

/// The detection campaign borrows its detector, so set-up keeps the
/// parts and `run` assembles the campaign from them.
pub struct DetSetup {
    detector: YoloGrid,
    parts: Option<(Scenario, DetectionLoader, FaultMatrix)>,
    ground_truth: CocoGroundTruth,
    num_classes: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn class_images(ds: &ClassificationDataset, n: usize) -> Result<Vec<Tensor>, String> {
    (0..n.min(ds.len()))
        .map(|i| Tensor::stack(&[ds.get(i).image]).map_err(err))
        .collect()
}

/// The golden classification model: vgg16 or `vit_tiny`.
fn class_model(w: Workload) -> Network {
    let mcfg = Workload::model_config();
    match w {
        Workload::Vgg16Coupled => vgg16(&mcfg),
        _ => vit_tiny(&mcfg),
    }
}

fn class_dataset(scenario: &Scenario) -> ClassificationDataset {
    let mcfg = Workload::model_config();
    ClassificationDataset::new(
        scenario.dataset_size,
        mcfg.num_classes,
        mcfg.in_channels,
        mcfg.input_hw,
        scenario.seed,
    )
}

fn det_dataset(scenario: &Scenario) -> DetectionDataset {
    let dcfg = Workload::detector_config();
    DetectionDataset::new(
        scenario.dataset_size,
        dcfg.num_classes,
        dcfg.in_channels,
        dcfg.input_hw,
        scenario.seed,
    )
}

/// Set-up: model build, hardening profile, target resolution and the
/// pre-generated fault matrix, each under its own span.
pub fn setup(w: Workload, seed: u64, spans: &mut Spans) -> Result<Prepared, String> {
    let scenario = w.scenario(seed);
    match w {
        Workload::Vgg16Coupled | Workload::VitScale => {
            let mcfg = Workload::model_config();
            let (model, _) = spans.time("nn.build", |_| class_model(w));
            let ds = class_dataset(&scenario);
            let hardened = if w == Workload::Vgg16Coupled {
                let calib = class_images(&ds, CALIB_IMAGES)?;
                let (bounds, _) = spans.time("mitigation.profile_bounds", |_| {
                    profile_bounds(&model, calib.iter())
                });
                let bounds = bounds.map_err(err)?;
                let (h, _) = spans.time("mitigation.harden", |_| {
                    harden(&model, &bounds, Protection::Ranger, 0.1)
                });
                Some(h.map_err(err)?)
            } else {
                None
            };
            let (matrix, _) = spans.time("matrix.generate", |_| {
                let targets = resolve_targets(&[&model], &scenario, &[Some(mcfg.input_dims(1))])?;
                FaultMatrix::generate(&scenario, &targets)
            });
            let matrix = matrix.map_err(err)?;
            let loader = ClassificationLoader::new(ds, scenario.batch_size);
            Ok(match hardened {
                Some(h) => Prepared::Class(Box::new(
                    ImgClassCampaign::new(model, scenario, loader)
                        .with_resil_model(h)
                        .with_fault_matrix(matrix),
                )),
                None => Prepared::Vit(Box::new(
                    VitCampaign::new(model, VIT_TINY_DEPTH, VIT_TINY_HEADS, scenario, loader)
                        .with_fault_matrix(matrix),
                )),
            })
        }
        Workload::YoloDetect => {
            let dcfg = Workload::detector_config();
            let (detector, _) = spans.time("nn.build", |_| YoloGrid::new(&dcfg));
            let ds = det_dataset(&scenario);
            let (ground_truth, _) = spans.time("datasets.ground_truth", |_| ds.coco_ground_truth());
            let (matrix, _) = spans.time("matrix.generate", |_| {
                let nets = detector.networks();
                let mut dims: Vec<Option<Vec<usize>>> = vec![None; nets.len()];
                dims[0] = Some(vec![1, dcfg.in_channels, dcfg.input_hw, dcfg.input_hw]);
                let targets = resolve_targets(&nets, &scenario, &dims)?;
                FaultMatrix::generate(&scenario, &targets)
            });
            let matrix = matrix.map_err(err)?;
            let loader = DetectionLoader::new(ds, scenario.batch_size);
            Ok(Prepared::Det(Box::new(DetSetup {
                detector,
                parts: Some((scenario, loader, matrix)),
                ground_truth,
                num_classes: dcfg.num_classes,
            })))
        }
    }
}

/// What one campaign call produced.
pub struct Ran {
    pub rows: usize,
    /// `run_with` wall time.
    pub run_ns: u64,
    /// KPI (and, for the detector, result-writer) wall time.
    pub kpi_ns: u64,
}

/// Runs the campaign, then its KPIs, timing both.
pub fn run(prepared: &mut Prepared, cfg: &RunConfig, dir: &Path) -> Result<Ran, String> {
    let t0 = Instant::now();
    let result = match prepared {
        Prepared::Class(c) => c.run_with(cfg),
        Prepared::Vit(c) => c.run_with(cfg),
        Prepared::Det(d) => return run_detection(d, cfg, dir, t0),
    }
    .map_err(err)?;
    let run_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    std::hint::black_box(classification_kpis(
        &result.rows,
        SdeCriterion::Top1Mismatch,
    ));
    Ok(Ran {
        rows: result.rows.len(),
        run_ns,
        kpi_ns: t1.elapsed().as_nanos() as u64,
    })
}

fn run_detection(
    d: &mut DetSetup,
    cfg: &RunConfig,
    dir: &Path,
    t0: Instant,
) -> Result<Ran, String> {
    let (scenario, loader, matrix) = d.parts.take().ok_or("campaign already ran")?;
    let result = ObjDetCampaign::new(&mut d.detector, scenario, loader)
        .with_fault_matrix(matrix)
        .run_with(cfg)
        .map_err(err)?;
    let run_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    write_detection_outputs(&result, &d.ground_truth, d.num_classes, 0.5, dir).map_err(err)?;
    Ok(Ran {
        rows: result.rows.len(),
        run_ns,
        kpi_ns: t1.elapsed().as_nanos() as u64,
    })
}

/// One report pass over a finished run directory: `analyze_dir` for
/// the classification runs; for the detection run, which `analyze_dir`
/// reports as events-only, the conversion of its row store back into
/// `rows.jsonl`. Returns the rows the pass covered, the rows its totals
/// account for, and a fingerprint of the whole report.
pub fn report_pass(w: Workload, dir: &Path) -> Result<(u64, u64, String), String> {
    match w {
        Workload::YoloDetect => {
            let texts = store_to_texts(&dir.join("rows.alfic")).map_err(err)?;
            let lines: u64 = texts.iter().map(|(_, t)| t.lines().count() as u64).sum();
            let mut all = Vec::new();
            for (name, text) in &texts {
                all.extend_from_slice(name.as_bytes());
                all.extend_from_slice(text.as_bytes());
            }
            Ok((lines, lines, alfi::trace::hash_hex(&all)))
        }
        _ => {
            let report = alfi::analyze::report::analyze_dir(dir).map_err(err)?;
            let o = &report.overall;
            Ok((report.rows, o.masked + o.sdc + o.due, format!("{report:?}")))
        }
    }
}

/// The row store lookups run against. The CSV run's corrupted-result
/// file is converted first, as `alfi store convert` does; its keys are
/// row numbers.
pub fn lookup_store(w: Workload, dir: &Path, scratch: &Path) -> Result<PathBuf, String> {
    match w.format() {
        ArtifactFormat::Binary => Ok(dir.join("rows.alfic")),
        ArtifactFormat::Csv => {
            let text = std::fs::read_to_string(dir.join("results_corr.csv")).map_err(err)?;
            let out = scratch.join("results_corr.alfic");
            text_to_store(&text, "results_corr.csv", &out).map_err(err)?;
            Ok(out)
        }
    }
}

/// Timings of the benchmark's own calls into single layers, taken in
/// the traced run only.
pub struct Probes {
    pub golden_forward_us: f64,
    /// Self time of each layer over the traced golden forwards, in ns
    /// per forward, costliest first.
    pub layer_ns: Vec<(String, f64)>,
    pub dataset_ns_per_image: f64,
    pub profile_ms: f64,
}

/// Times single-image golden forwards, one loader epoch alone and the
/// hardening profile, each under its own span.
pub fn probes(w: Workload, seed: u64, spans: &mut Spans) -> Result<Probes, String> {
    let scenario = w.scenario(seed);
    let (golden, images, epoch_ns): (Network, Vec<Tensor>, u64) = match w {
        Workload::YoloDetect => {
            let net = YoloGrid::new(&Workload::detector_config()).networks()[0].clone();
            let ds = det_dataset(&scenario);
            let images = (0..GOLDEN_FORWARDS)
                .map(|i| Tensor::stack(&[ds.get(i).image]).map_err(err))
                .collect::<Result<_, _>>()?;
            let loader = DetectionLoader::new(ds, scenario.batch_size);
            let (n, ns) = spans.time("datasets.iter_epoch", |_| {
                loader
                    .iter_epoch(0)
                    .map(|b| std::hint::black_box(b).records.len())
                    .sum::<usize>()
            });
            (net, images, ns / n.max(1) as u64)
        }
        _ => {
            let ds = class_dataset(&scenario);
            let images = class_images(&ds, GOLDEN_FORWARDS)?;
            let loader = ClassificationLoader::new(ds, scenario.batch_size);
            let (n, ns) = spans.time("datasets.iter_epoch", |_| {
                loader
                    .iter_epoch(0)
                    .map(|b| std::hint::black_box(b).labels.len())
                    .sum::<usize>()
            });
            (class_model(w), images, ns / n.max(1) as u64)
        }
    };
    let mut forward_us = Vec::with_capacity(images.len());
    let id = spans.begin("nn.golden_forward");
    for x in &images {
        let t = Instant::now();
        std::hint::black_box(golden.forward(x).map_err(err)?);
        forward_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    spans.end(id);
    // The same forwards again with a recorder attached, for the
    // per-layer split; kept apart so the timings above stay untraced.
    let recorder = alfi::trace::Recorder::new();
    let id = spans.begin("nn.golden_forward_traced");
    for x in &images {
        std::hint::black_box(golden.forward_traced(x, &recorder).map_err(err)?);
    }
    spans.end(id);
    let mut layer_ns: Vec<(String, f64)> = recorder
        .summary()
        .layer_forward
        .into_iter()
        .map(|(name, t)| (name, t.total_ns as f64 / images.len() as f64))
        .collect();
    layer_ns.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let (bounds, profile_ns) = spans.time("mitigation.profile_bounds", |_| {
        profile_bounds(&golden, images[..CALIB_IMAGES].iter())
    });
    std::hint::black_box(bounds.map_err(err)?);
    Ok(Probes {
        golden_forward_us: crate::measure::median(&forward_us),
        layer_ns,
        dataset_ns_per_image: epoch_ns as f64,
        profile_ms: profile_ns as f64 / 1e6,
    })
}
