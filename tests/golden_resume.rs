//! Golden-file lockdown of the campaign shapes the faulty-forward
//! shortcuts must not change.
//!
//! The other goldens pin alexnet and ViT *weight* faults. This file
//! pins four more campaigns under `tests/golden/resume/<name>/`:
//!
//! - `resnet_neurons`: resnet50 neuron faults (residual `Add` edges)
//!   with a Ranger-hardened model running in lock-step;
//! - `vit_neurons`: ViT-Tiny neuron faults (token tensors, residual
//!   adds inside every block);
//! - `vgg16_weights_x2`: vgg16 weight faults, two per scope;
//! - `alexnet_per_batch`: alexnet neuron faults under `per_batch` with
//!   a batch of 4, so one scope yields four rows from one logits
//!   tensor.
//!
//! Each campaign writes its CSV rows, its columnar `rows.alfic` store
//! and its `events.jsonl` trace log, and every thread count must
//! reproduce the same bytes. `per_batch` runs inline whatever the
//! thread count (the engine rejects `threads > 1` for it), so that
//! campaign runs at one driver thread only; its kernels still use the
//! shared pool at whatever width `ALFI_POOL_THREADS` sets.
//!
//! To bless new goldens after an intentional output change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_resume
//! ```

use alfi::core::campaign::{ImgClassCampaign, RunConfig, VitCampaign};
use alfi::core::Artifacts;
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::mitigation::{harden, profile_bounds, Protection};
use alfi::nn::models::{alexnet, resnet50, vgg16, ModelConfig};
use alfi::scenario::{
    ArtifactFormat, FaultCount, FaultMode, InjectionPolicy, InjectionTarget, Scenario,
};
use alfi::tensor::Tensor;
use alfi::trace::Recorder;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir(campaign: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("resume")
        .join(campaign)
}

fn regen() -> bool {
    std::env::var_os("ALFI_REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the pinned golden file. Under
/// `ALFI_REGEN_GOLDEN` the 1-thread run blesses the golden (`bless`);
/// every other thread count must then reproduce those bytes.
fn assert_golden(campaign: &str, name: &str, actual: &[u8], context: &str, bless: bool) {
    let path = golden_dir(campaign).join(name);
    if regen() && bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_resume",
            path.display()
        )
    });
    if expected != actual {
        if name.ends_with(".alfic") {
            panic!(
                "golden mismatch for resume/{campaign}/{name} ({context}): {} golden vs {} actual bytes",
                expected.len(),
                actual.len()
            );
        }
        let exp = String::from_utf8_lossy(&expected);
        let act = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for resume/{campaign}/{name} ({context})\n--- golden ---\n{exp}\n--- actual ---\n{act}"
        );
    }
}

/// Replaces the header's recorded `threads` value with `1`: the only
/// part of the event log that legitimately differs between thread
/// counts.
fn normalize_threads(log: &[u8]) -> Vec<u8> {
    let log = String::from_utf8(log.to_vec()).unwrap();
    let (header, rest) = log.split_once('\n').expect("header line");
    let start = header
        .find("\"threads\":")
        .expect("header records the thread count")
        + 10;
    let end = header[start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(header.len(), |e| start + e);
    format!("{}1{}\n{rest}", &header[..start], &header[end..]).into_bytes()
}

fn mcfg() -> ModelConfig {
    ModelConfig {
        input_hw: 16,
        width_mult: 0.0625,
        seed: 7,
        ..ModelConfig::default()
    }
}

/// vgg16 pools five times, so it needs 32-pixel inputs.
fn vgg_cfg() -> ModelConfig {
    ModelConfig {
        input_hw: 32,
        ..mcfg()
    }
}

fn dataset(n: usize, cfg: &ModelConfig) -> ClassificationDataset {
    ClassificationDataset::new(n, cfg.num_classes, 3, cfg.input_hw, 13)
}

/// Faults large enough that some scopes overflow to Inf/NaN (DUE) and
/// some flip the top-1 class (SDC): the top exponent bits of weights,
/// or neuron values replaced by anything up to ±3e38.
fn scenario(n: usize, target: InjectionTarget, seed: u64) -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = n;
    s.injection_target = target;
    s.fault_mode = match target {
        InjectionTarget::Weights => FaultMode::BitFlip {
            bit_range: (29, 30),
        },
        _ => FaultMode::RandomValue {
            min: -3.0e38,
            max: 3.0e38,
        },
    };
    s.seed = seed;
    s
}

/// A runnable campaign of either adapter.
enum Campaign {
    Class(ImgClassCampaign),
    Vit(VitCampaign),
}

impl Campaign {
    fn run(self, cfg: &RunConfig) {
        match self {
            Campaign::Class(mut c) => c.run_with(cfg).map(drop),
            Campaign::Vit(mut c) => c.run_with(cfg).map(drop),
        }
        .unwrap();
    }
}

fn resnet_neurons() -> Campaign {
    let model = resnet50(&mcfg());
    let ds = dataset(8, &mcfg());
    let calib: Vec<Tensor> = (0..3)
        .map(|i| Tensor::stack(&[ds.get(i).image]).unwrap())
        .collect();
    let bounds = profile_bounds(&model, calib.iter()).unwrap();
    let hardened = harden(&model, &bounds, Protection::Ranger, 0.1).unwrap();
    let mut s = scenario(8, InjectionTarget::Neurons, 0x4E5);
    s.faults_per_image = FaultCount::Fixed(2);
    // Two ±3e38 faults per scope overflow every resnet scope; ±1e38
    // leaves a mix of masked, SDC and DUE rows.
    s.fault_mode = FaultMode::RandomValue {
        min: -1.0e38,
        max: 1.0e38,
    };
    let loader = ClassificationLoader::new(ds, 2);
    Campaign::Class(ImgClassCampaign::new(model, s, loader).with_resil_model(hardened))
}

fn vit_neurons() -> Campaign {
    let loader = ClassificationLoader::new(dataset(8, &mcfg()), 2);
    Campaign::Vit(VitCampaign::tiny(
        &mcfg(),
        scenario(8, InjectionTarget::Neurons, 0x717E),
        loader,
    ))
}

fn vgg16_weights_x2() -> Campaign {
    let mut s = scenario(8, InjectionTarget::Weights, 0x1662);
    s.faults_per_image = FaultCount::Fixed(2);
    let loader = ClassificationLoader::new(dataset(8, &vgg_cfg()), 2);
    Campaign::Class(ImgClassCampaign::new(vgg16(&vgg_cfg()), s, loader))
}

fn alexnet_per_batch() -> Campaign {
    let mut s = scenario(8, InjectionTarget::Neurons, 0xBA7C);
    s.injection_policy = InjectionPolicy::PerBatch;
    s.batch_size = 4;
    let loader = ClassificationLoader::new(dataset(8, &mcfg()), 4);
    Campaign::Class(ImgClassCampaign::new(alexnet(&mcfg()), s, loader))
}

/// Runs a fresh campaign traced into a temp dir and returns its row
/// artifacts and event log as `name -> bytes`.
fn run(
    make: fn() -> Campaign,
    format: ArtifactFormat,
    threads: usize,
    tag: &str,
) -> BTreeMap<String, Vec<u8>> {
    let dir = std::env::temp_dir().join(format!("alfi_it_golden_resume_{tag}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = Recorder::new();
    make().run(
        &RunConfig::new()
            .threads(threads)
            .save_dir(&dir)
            .format(format)
            .recorder(rec),
    );
    let a = Artifacts::new(&dir);
    let mut out = BTreeMap::new();
    for path in [
        a.rows_orig(),
        a.rows_corr(),
        a.rows_resil(),
        a.rows_store(),
        dir.join("events.jsonl"),
    ] {
        if path.is_file() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).unwrap());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Pins every artifact of `make` at each thread count, in both row
/// formats. The CSV and binary runs share one event log.
fn check(name: &str, make: fn() -> Campaign, threads: &[usize], expect_resil: bool) {
    for &t in threads {
        let context = format!("{t}-thread run");
        let csv = run(make, ArtifactFormat::Csv, t, &format!("{name}_csv"));
        assert_eq!(
            csv.contains_key("results_resil.csv"),
            expect_resil,
            "{name}: {:?}",
            csv.keys()
        );
        for (file, bytes) in &csv {
            let bytes = if file == "events.jsonl" {
                normalize_threads(bytes)
            } else {
                bytes.clone()
            };
            assert_golden(name, file, &bytes, &context, t == threads[0]);
        }
        let bin = run(make, ArtifactFormat::Binary, t, &format!("{name}_bin"));
        assert_golden(
            name,
            "rows.alfic",
            &bin["rows.alfic"],
            &context,
            t == threads[0],
        );
        assert_eq!(
            normalize_threads(&bin["events.jsonl"]),
            normalize_threads(&csv["events.jsonl"]),
            "{name}: the row format must not change the event log ({context})"
        );
    }
}

#[test]
fn resnet_neuron_campaign_with_hardened_model_matches_goldens() {
    check("resnet_neurons", resnet_neurons, &[1, 2, 7], true);
}

#[test]
fn vit_neuron_campaign_matches_goldens() {
    check("vit_neurons", vit_neurons, &[1, 2, 7], false);
}

#[test]
fn vgg16_two_weight_faults_per_scope_match_goldens() {
    check("vgg16_weights_x2", vgg16_weights_x2, &[1, 2, 7], false);
}

#[test]
fn per_batch_neuron_campaign_matches_goldens() {
    check("alexnet_per_batch", alexnet_per_batch, &[1], false);
}
