//! Golden-file lockdown of the ViT campaign artifacts.
//!
//! Pins the transformer campaign's row artifacts — CSV *and* the
//! columnar binary store — under `tests/golden/vit/`, and checks that
//! the engine's one driver reproduces them byte-for-byte inline and on
//! the pool at 1, 2, 4 and 7 threads. The scenario is
//! multi-resolution (a rate glob over the first block's attention
//! linears plus a quantized-int override on the head), so this also
//! locks the per-layer plan resolution and the `layer.*` store meta.
//!
//! To bless new goldens after an intentional format change:
//!
//! ```text
//! ALFI_REGEN_GOLDEN=1 cargo test --test golden_vit
//! ```

use alfi::core::campaign::{RunConfig, VitCampaign};
use alfi::core::{store_to_texts, Artifacts};
use alfi::datasets::{ClassificationDataset, ClassificationLoader};
use alfi::nn::models::ModelConfig;
use alfi::scenario::{ArtifactFormat, FaultMode, InjectionTarget, LayerOverride, Scenario};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join("vit")
}

fn regen() -> bool {
    std::env::var_os("ALFI_REGEN_GOLDEN").is_some()
}

/// Compares `actual` against the pinned golden file. Under
/// `ALFI_REGEN_GOLDEN` the 1-thread run blesses the golden (`bless`);
/// every other thread count and the store conversions must then
/// reproduce those exact bytes within the same test run.
fn assert_golden(name: &str, actual: &[u8], context: &str, bless: bool) {
    let path = golden_dir().join(name);
    if regen() && bless {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("[golden] regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run ALFI_REGEN_GOLDEN=1 cargo test --test golden_vit",
            path.display()
        )
    });
    if expected != actual {
        if name.ends_with(".alfic") {
            panic!(
                "golden mismatch for vit/{name} ({context}): {} golden vs {} actual bytes",
                expected.len(),
                actual.len()
            );
        }
        let exp = String::from_utf8_lossy(&expected);
        let act = String::from_utf8_lossy(actual);
        panic!(
            "golden mismatch for vit/{name} ({context})\n--- golden ---\n{exp}\n--- actual ---\n{act}"
        );
    }
}

/// Mirrors `scenarios/vit.yml` at golden-test scale: half the fault
/// budget on the first block's attention projections, quantized-int
/// faults on the head, exponent flips elsewhere.
fn vit_scenario() -> Scenario {
    let mut s = Scenario::default();
    s.dataset_size = 4;
    s.injection_target = InjectionTarget::Weights;
    s.fault_mode = FaultMode::exponent_bit_flip();
    s.seed = 0x717;
    s.layer_overrides = BTreeMap::from([
        (
            "blocks.0.attn*".to_string(),
            LayerOverride { rate: Some(0.125), ..Default::default() },
        ),
        (
            "head".to_string(),
            LayerOverride {
                mode: Some(FaultMode::QuantStep { bits: 8, amax: 4.0, bit_range: (0, 7) }),
                ..Default::default()
            },
        ),
    ]);
    s
}

fn campaign() -> VitCampaign {
    let mcfg = ModelConfig { input_hw: 16, width_mult: 0.0625, seed: 7, ..ModelConfig::default() };
    let ds = ClassificationDataset::new(4, mcfg.num_classes, 3, 16, 13);
    let loader = ClassificationLoader::new(ds, 2);
    VitCampaign::tiny(&mcfg, vit_scenario(), loader)
}

/// Runs the ViT campaign into a fresh temp dir and returns the row
/// artifacts as `name -> bytes`.
fn run(format: ArtifactFormat, threads: usize, tag: &str) -> BTreeMap<String, Vec<u8>> {
    let dir = std::env::temp_dir().join(format!("alfi_it_golden_vit_{tag}_{threads}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = RunConfig::new().threads(threads).save_dir(&dir).format(format);
    campaign().run_with(&cfg).unwrap();
    let a = Artifacts::new(&dir);
    let mut out = BTreeMap::new();
    for path in [a.rows_orig(), a.rows_corr(), a.rows_store()] {
        if path.is_file() {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.insert(name, std::fs::read(&path).unwrap());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn vit_csv_artifacts_match_goldens_at_all_thread_counts() {
    for threads in [1usize, 2, 4, 7] {
        let csv = run(ArtifactFormat::Csv, threads, "csv");
        let context = format!("{threads}-thread run");
        assert_golden("results_orig.csv", &csv["results_orig.csv"], &context, threads == 1);
        assert_golden("results_corr.csv", &csv["results_corr.csv"], &context, threads == 1);
    }
}

#[test]
fn vit_binary_store_matches_golden_and_inverts_to_csv_goldens() {
    for threads in [1usize, 2, 4, 7] {
        let bin = run(ArtifactFormat::Binary, threads, "bin");
        assert_eq!(bin.len(), 1, "binary format should write only rows.alfic, got {bin:?}");
        let context = format!("{threads}-thread run");
        assert_golden("rows.alfic", &bin["rows.alfic"], &context, threads == 1);

        // The store must convert back to the same bytes the CSV
        // goldens pin, so both formats stay one artifact family.
        let tmp = std::env::temp_dir().join(format!("alfi_it_golden_vit_conv_{threads}.alfic"));
        std::fs::write(&tmp, &bin["rows.alfic"]).unwrap();
        let texts = store_to_texts(&tmp).unwrap();
        let _ = std::fs::remove_file(&tmp);
        assert_eq!(texts.len(), 2, "vit store without resil converts to two CSVs");
        for (name, text) in &texts {
            assert_golden(name, text.as_bytes(), &format!("store conversion, {context}"), threads == 1);
        }
    }
}
