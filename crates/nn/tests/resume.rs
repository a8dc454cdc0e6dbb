//! Resuming a forward pass from kept golden activations must be
//! indistinguishable from running the whole graph, on chain, residual
//! and transformer topologies alike.

use alfi_nn::models::{alexnet, resnet50, vgg16, vit_tiny, ModelConfig};
use alfi_nn::{LayerCtx, Network, NnError};
use alfi_tensor::Tensor;
use alfi_trace::Recorder;
use std::sync::Arc;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn cfg(input_hw: usize) -> ModelConfig {
    ModelConfig {
        input_hw,
        width_mult: 0.0625,
        seed: 3,
        ..ModelConfig::default()
    }
}

fn input(cfg: &ModelConfig) -> Tensor {
    let dims = cfg.input_dims(1);
    let n: usize = dims.iter().product();
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) / 25.0)
            .collect(),
        &dims,
    )
    .unwrap()
}

/// For every resume point of `net`: resuming equals the full forward,
/// both on the network itself and on a clone whose node `from` carries
/// a hook that rewrites part of its output (a neuron fault).
fn assert_resume_is_exact(net: &Network, x: &Tensor) {
    let off = Recorder::disabled();
    let golden = net.forward_activations(x, &off).unwrap();
    let full = net.forward(x).unwrap();
    assert_eq!(
        bits(golden.output()),
        bits(&full),
        "{}: kept output",
        net.name()
    );
    let out = net.output_node().unwrap();
    for from in 0..=out {
        let resumed = net.forward_resume(x, &golden, from, &off).unwrap();
        assert_eq!(
            bits(&resumed),
            bits(&full),
            "{}: resume from node {from}",
            net.name()
        );

        // Releasing what a resume from `from` does not read changes
        // nothing, and the output survives the release.
        let mut kept = golden.clone();
        kept.retain_prefix(from);
        assert_eq!(kept.node(from).is_some(), from == out);
        let resumed = net.forward_resume(x, &kept, from, &off).unwrap();
        assert_eq!(
            bits(&resumed),
            bits(&full),
            "{}: resume from node {from} after the release",
            net.name()
        );
        assert_eq!(bits(&kept.into_output()), bits(&full));

        let mut faulty = net.clone();
        let hook = |_: &LayerCtx, t: &mut Tensor| {
            for v in t.data_mut().iter_mut().step_by(3) {
                *v = *v * -4.0 + 1.5;
            }
        };
        faulty.register_hook(from, Arc::new(hook)).unwrap();
        let expect = faulty.forward(x).unwrap();
        let resumed = faulty.forward_resume(x, &golden, from, &off).unwrap();
        assert_eq!(
            bits(&resumed),
            bits(&expect),
            "{}: resume from hooked node {from} ({})",
            net.name(),
            net.nodes()[from].name
        );
    }
}

#[test]
fn resume_matches_forward_on_vgg16_at_every_node() {
    let c = cfg(32);
    assert_resume_is_exact(&vgg16(&c), &input(&c));
}

#[test]
fn resume_matches_forward_on_resnet50_at_every_node() {
    let c = cfg(16);
    let net = resnet50(&c);
    assert!(
        net.nodes().iter().any(|n| n.inputs.len() == 2),
        "resnet50 has residual adds"
    );
    assert_resume_is_exact(&net, &input(&c));
}

#[test]
fn resume_matches_forward_on_vit_tiny_at_every_node() {
    let c = cfg(16);
    assert_resume_is_exact(&vit_tiny(&c), &input(&c));
}

#[test]
fn resume_past_the_output_node_returns_the_golden_output() {
    let c = cfg(16);
    let net = alexnet(&c);
    let x = input(&c);
    let off = Recorder::disabled();
    let golden = net.forward_activations(&x, &off).unwrap();
    let out = net.output_node().unwrap();
    for from in [out + 1, usize::MAX] {
        let resumed = net.forward_resume(&x, &golden, from, &off).unwrap();
        assert_eq!(bits(&resumed), bits(golden.output()));
    }
    assert!(golden.node(out + 1).is_none());
}

#[test]
fn resume_rejects_activations_of_another_graph() {
    let c = cfg(32);
    let x = input(&c);
    let off = Recorder::disabled();
    let golden = vgg16(&c).forward_activations(&x, &off).unwrap();
    let other = alexnet(&c);
    assert_ne!(other.num_nodes(), vgg16(&c).num_nodes());
    for from in [0, 1, usize::MAX] {
        let err = other.forward_resume(&x, &golden, from, &off).unwrap_err();
        assert!(matches!(err, NnError::InvalidGraph(_)), "{err:?}");
    }
}

#[test]
fn traced_resume_times_only_the_evaluated_nodes() {
    let c = cfg(16);
    let net = alexnet(&c);
    let x = input(&c);
    let golden = net.forward_activations(&x, &Recorder::disabled()).unwrap();
    let out = net.output_node().unwrap();
    let rec = Recorder::new();
    net.forward_resume(&x, &golden, out, &rec).unwrap();
    let timed: Vec<String> = rec.summary().layer_forward.keys().cloned().collect();
    assert_eq!(timed, vec![net.nodes()[out].name.clone()]);
}
