//! Network graphs with PyTorch-style forward hooks.
//!
//! A [`Network`] is a topologically-ordered DAG of [`Layer`] nodes. After
//! every node's forward computation the registered [`ForwardHook`]s run
//! and may mutate the output tensor *in place* — the exact mechanism
//! PyTorchFI uses for neuron fault injection ("the output values are
//! modified in place", §II). Weight faults bypass hooks and mutate layer
//! parameters directly via [`Network::layer_mut`].
//!
//! A fault changes nothing upstream of the node it hits, so a faulty
//! pass need not start at node 0: [`Network::forward_activations`]
//! keeps the golden pass's node outputs, and
//! [`Network::forward_resume`] evaluates a faulty clone from the first
//! faulted node onwards, reading every earlier value from them.

use crate::error::NnError;
use crate::layer::{Layer, LayerKind};
use alfi_tensor::{gemm, Shape, Tensor};
use std::sync::Arc;

/// Identifier of a node within a [`Network`] (its topological position).
pub type NodeId = usize;

/// A named node in the network graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// Human-readable unique name, e.g. `features.conv1`.
    pub name: String,
    /// The operation this node performs.
    pub layer: Layer,
    /// Ids of the producer nodes feeding this node. Empty means the node
    /// consumes the network input.
    pub inputs: Vec<NodeId>,
}

/// Context handed to forward hooks.
#[derive(Debug, Clone)]
pub struct LayerCtx {
    /// Graph node id.
    pub node_id: NodeId,
    /// Node name.
    pub name: String,
    /// Kind of the layer that produced the output.
    pub kind: LayerKind,
}

/// A callback invoked after a node's forward computation.
///
/// Hooks may mutate the output in place (fault injection) or merely
/// observe it (NaN/Inf monitoring, activation-range profiling). Hooks
/// needing to accumulate state use interior mutability.
pub trait ForwardHook: Send + Sync {
    /// Called with the node context and its freshly computed output.
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor);
}

impl<F> ForwardHook for F
where
    F: Fn(&LayerCtx, &mut Tensor) + Send + Sync,
{
    fn on_output(&self, ctx: &LayerCtx, output: &mut Tensor) {
        self(ctx, output)
    }
}

/// Handle returned by [`Network::register_hook`], used to remove the hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookHandle {
    node: NodeId,
    slot: u64,
}

/// Per-node operations fused into the layer's compute kernel epilogue
/// instead of running as separate passes over the output tensor.
///
/// For `Conv2d` and `Linear` nodes these execute inside the GEMM
/// epilogue ([`alfi_tensor::gemm::FusedEpilogue`]) while the output
/// tile is still cache-hot; for every other layer kind they apply as
/// equivalent separate passes right after the forward computation.
/// Either way the per-element operation order is **inject → clamp**,
/// and fused execution is bit-identical to the separate-pass sequence.
///
/// Fused ops run *before* any registered [`ForwardHook`]s (a spliced
/// `RangeRestrict` node would instead run after the producing node's
/// hooks), and unlike hooks they survive [`Network::clone`] — they are
/// part of the model, like spliced protection layers.
#[derive(Debug, Clone, Default)]
pub struct FusedOps {
    /// Per-element fault injections keyed by flat output index.
    pub inject: Option<Arc<gemm::InjectMap>>,
    /// Range-supervision clamp (Ranger/Clipper as an epilogue op).
    pub clamp: Option<gemm::Clamp>,
}

impl FusedOps {
    /// Whether these ops are a guaranteed no-op.
    pub fn is_identity(&self) -> bool {
        self.inject.as_deref().is_none_or(gemm::InjectMap::is_empty) && self.clamp.is_none()
    }
}

/// Description of a layer eligible for fault injection.
#[derive(Debug, Clone)]
pub struct InjectableLayer {
    /// Graph node id of the layer.
    pub node_id: NodeId,
    /// Node name.
    pub name: String,
    /// Layer kind (conv2d / conv3d / linear).
    pub kind: LayerKind,
    /// Shape of the weight tensor.
    pub weight_shape: Shape,
    /// Shape of the layer output for the reference input shape, if shape
    /// inference has been run (batch dimension included).
    pub output_shape: Option<Shape>,
}

/// Node outputs kept by [`Network::forward_activations`]: every node up
/// to the output node (later nodes are never evaluated). A faulty clone
/// of the network resumes from them with [`Network::forward_resume`].
#[derive(Debug, Clone)]
pub struct Activations {
    nodes: Vec<Option<Tensor>>,
    output: NodeId,
}

impl Activations {
    /// The output node's activation: the network's result.
    pub fn output(&self) -> &Tensor {
        self.nodes[self.output].as_ref().expect("the output node is always evaluated")
    }

    /// The activation of node `id`; `None` after the output node or
    /// once [released](Self::retain_prefix).
    pub fn node(&self, id: NodeId) -> Option<&Tensor> {
        self.nodes.get(id).and_then(Option::as_ref)
    }

    /// Releases the activations of nodes `from..` except the output's:
    /// a [resume](Network::forward_resume) from `from` reads none of
    /// them.
    pub fn retain_prefix(&mut self, from: NodeId) {
        for (id, act) in self.nodes.iter_mut().enumerate().skip(from) {
            if id != self.output {
                *act = None;
            }
        }
    }

    /// The output node's activation, releasing every other one.
    pub fn into_output(mut self) -> Tensor {
        self.nodes.swap_remove(self.output).expect("the output node is always evaluated")
    }
}

/// A feed-forward network: a topologically ordered DAG of layers with a
/// single input and a designated output node, plus a hook registry.
///
/// # Example
///
/// ```
/// use alfi_nn::{Network, Layer};
/// use alfi_tensor::Tensor;
///
/// let mut net = Network::new("toy");
/// let a = net.push("relu", Layer::Relu, &[]).unwrap();
/// net.set_output(a).unwrap();
/// let y = net.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap()).unwrap();
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// ```
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    output: Option<NodeId>,
    hooks: Vec<Vec<(u64, Arc<dyn ForwardHook>)>>,
    next_hook_slot: u64,
    fused: Vec<Option<FusedOps>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("output", &self.output)
            .finish()
    }
}

impl Clone for Network {
    /// Cloning copies all parameters but **not** the registered hooks:
    /// a clone is a fresh, unobserved model. This is what lets the fault
    /// iterator hand out independent faulty instances while the original
    /// model stays pristine.
    fn clone(&self) -> Self {
        Network {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            output: self.output,
            hooks: vec![Vec::new(); self.nodes.len()],
            next_hook_slot: 0,
            fused: self.fused.clone(),
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            output: None,
            hooks: Vec::new(),
            next_hook_slot: 0,
            fused: Vec::new(),
        }
    }

    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes in the graph.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Appends a node. `inputs` must reference earlier nodes; an empty
    /// slice wires the node to the network input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if an input id is not an earlier
    /// node, if the input count does not match the layer arity, or if the
    /// name duplicates an existing node.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: Layer,
        inputs: &[NodeId],
    ) -> Result<NodeId, NnError> {
        let name = name.into();
        let id = self.nodes.len();
        for &i in inputs {
            if i >= id {
                return Err(NnError::InvalidGraph(format!(
                    "node `{name}` references non-earlier input {i}"
                )));
            }
        }
        if !inputs.is_empty() && inputs.len() != layer.arity() {
            return Err(NnError::InvalidGraph(format!(
                "node `{name}` has {} inputs but layer arity is {}",
                inputs.len(),
                layer.arity()
            )));
        }
        if inputs.is_empty() && layer.arity() != 1 {
            return Err(NnError::InvalidGraph(format!(
                "binary node `{name}` cannot consume the raw network input twice"
            )));
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(NnError::InvalidGraph(format!("duplicate node name `{name}`")));
        }
        self.nodes.push(Node { name, layer, inputs: inputs.to_vec() });
        self.hooks.push(Vec::new());
        self.fused.push(None);
        Ok(id)
    }

    /// Convenience: appends a node fed by the previous node (or the
    /// network input if this is the first node).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::push`].
    pub fn push_seq(&mut self, name: impl Into<String>, layer: Layer) -> Result<NodeId, NnError> {
        let prev = self.nodes.len().checked_sub(1);
        match prev {
            Some(p) => self.push(name, layer, &[p]),
            None => self.push(name, layer, &[]),
        }
    }

    /// Designates the graph output node.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn set_output(&mut self, id: NodeId) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.output = Some(id);
        Ok(())
    }

    /// The designated output node.
    pub fn output_node(&self) -> Option<NodeId> {
        self.output
    }

    /// Looks up a node id by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Immutable access to a node's layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn layer(&self, id: NodeId) -> Result<&Layer, NnError> {
        self.nodes.get(id).map(|n| &n.layer).ok_or(NnError::NoSuchNode(id))
    }

    /// Mutable access to a node's layer — used by weight fault injection
    /// and by mitigation wrappers that splice in protection layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn layer_mut(&mut self, id: NodeId) -> Result<&mut Layer, NnError> {
        self.nodes.get_mut(id).map(|n| &mut n.layer).ok_or(NnError::NoSuchNode(id))
    }

    /// Registers a forward hook on node `id`. Hooks run in registration
    /// order after the node computes its output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn register_hook(
        &mut self,
        id: NodeId,
        hook: Arc<dyn ForwardHook>,
    ) -> Result<HookHandle, NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        let slot = self.next_hook_slot;
        self.next_hook_slot += 1;
        self.hooks[id].push((slot, hook));
        Ok(HookHandle { node: id, slot })
    }

    /// Removes a previously registered hook. Removing twice is a no-op.
    pub fn remove_hook(&mut self, handle: HookHandle) {
        if let Some(hooks) = self.hooks.get_mut(handle.node) {
            hooks.retain(|(slot, _)| *slot != handle.slot);
        }
    }

    /// Removes all hooks from all nodes.
    pub fn clear_hooks(&mut self) {
        for h in &mut self.hooks {
            h.clear();
        }
    }

    /// Total number of registered hooks.
    pub fn num_hooks(&self) -> usize {
        self.hooks.iter().map(Vec::len).sum()
    }

    /// Sets (or replaces) the fused range-supervision clamp on node
    /// `id`. See [`FusedOps`] for the execution contract — fused ops
    /// run before the node's hooks and survive cloning.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn set_fused_clamp(&mut self, id: NodeId, clamp: gemm::Clamp) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.fused[id].get_or_insert_with(FusedOps::default).clamp = Some(clamp);
        Ok(())
    }

    /// Sets (or replaces) the fused per-element injection map on node
    /// `id` — the epilogue-fused equivalent of a mutating forward hook.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn set_fused_inject(
        &mut self,
        id: NodeId,
        inject: Arc<gemm::InjectMap>,
    ) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.fused[id].get_or_insert_with(FusedOps::default).inject = Some(inject);
        Ok(())
    }

    /// Removes the fused injection map from node `id` (disarming a
    /// fault), keeping any fused clamp in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn clear_fused_inject(&mut self, id: NodeId) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        if let Some(f) = &mut self.fused[id] {
            f.inject = None;
            if f.is_identity() {
                self.fused[id] = None;
            }
        }
        Ok(())
    }

    /// Removes all fused ops from node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id.
    pub fn clear_fused(&mut self, id: NodeId) -> Result<(), NnError> {
        if id >= self.nodes.len() {
            return Err(NnError::NoSuchNode(id));
        }
        self.fused[id] = None;
        Ok(())
    }

    /// The fused ops registered on node `id`, if any.
    pub fn fused_ops(&self, id: NodeId) -> Option<&FusedOps> {
        self.fused.get(id).and_then(Option::as_ref)
    }

    /// Total number of nodes carrying fused ops.
    pub fn num_fused(&self) -> usize {
        self.fused.iter().filter(|f| f.is_some()).count()
    }

    /// Evaluates one node, routing through the fused conv/linear kernel
    /// when the node carries [`FusedOps`]; other layer kinds fall back
    /// to forward + equivalent separate passes (same per-element order,
    /// bit-identical result).
    fn eval_node(&self, id: NodeId, inputs: &[&Tensor]) -> Result<Tensor, NnError> {
        let node = &self.nodes[id];
        let Some(f) = self.fused.get(id).and_then(Option::as_ref).filter(|f| !f.is_identity())
        else {
            return node.layer.forward(inputs);
        };
        let inject = f.inject.as_deref();
        match &node.layer {
            Layer::Conv2d(c) => Ok(alfi_tensor::conv::conv2d_fused(
                inputs[0],
                &c.weight,
                c.bias.as_ref(),
                c.cfg,
                inject,
                f.clamp,
            )?),
            Layer::Linear(l) => crate::layer::linear_fused(inputs[0], l, inject, f.clamp),
            other => {
                let mut t = other.forward(inputs)?;
                apply_fused_passes(&mut t, f);
                Ok(t)
            }
        }
    }

    /// Runs a forward pass, returning the output of the designated output
    /// node. Hooks run after each node and may mutate its output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if no output node is set, or any
    /// layer error encountered during evaluation.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        self.forward_inner(input, None)
    }

    /// Runs a forward pass like [`Network::forward`] while attributing
    /// each node's evaluation time to its layer name on the given
    /// recorder. With a disabled recorder this takes the exact
    /// [`Network::forward`] path — no clocks are read per node.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn forward_traced(
        &self,
        input: &Tensor,
        recorder: &alfi_trace::Recorder,
    ) -> Result<Tensor, NnError> {
        self.forward_inner(input, recorder.is_enabled().then_some(recorder))
    }

    fn forward_inner(
        &self,
        input: &Tensor,
        recorder: Option<&alfi_trace::Recorder>,
    ) -> Result<Tensor, NnError> {
        let out = self.output_id()?;
        take_last(self.eval_range(input, &[], out, recorder)?)
    }

    /// The designated output node, or an error naming the network.
    fn output_id(&self) -> Result<NodeId, NnError> {
        self.output.ok_or_else(|| {
            NnError::InvalidGraph(format!("network `{}` has no output node", self.name))
        })
    }

    /// Evaluates nodes `prefix.len()..=last` in topological order and
    /// returns their outputs, indexed by `id - prefix.len()`. Inputs of
    /// nodes before `prefix.len()` are read from `prefix`, so a pass can
    /// start mid-graph from activations kept by an earlier one. Hooks
    /// run after each node and may mutate its output.
    fn eval_range(
        &self,
        input: &Tensor,
        prefix: &[Option<Tensor>],
        last: NodeId,
        recorder: Option<&alfi_trace::Recorder>,
    ) -> Result<Vec<Option<Tensor>>, NnError> {
        let from = prefix.len();
        let mut acts: Vec<Option<Tensor>> = vec![None; (last + 1).saturating_sub(from)];
        for (id, node) in self.nodes.iter().enumerate().take(last + 1).skip(from) {
            let inputs: Vec<&Tensor> = if node.inputs.is_empty() {
                vec![input]
            } else {
                node.inputs
                    .iter()
                    .map(|&i| {
                        let act = if i < from { &prefix[i] } else { &acts[i - from] };
                        act.as_ref().ok_or_else(|| {
                            NnError::InvalidGraph(format!("node {i} evaluated out of order"))
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            let started = recorder.map(|_| std::time::Instant::now());
            let mut out_t = self.eval_node(id, &inputs)?;
            if let (Some(rec), Some(t0)) = (recorder, started) {
                rec.record_layer_ns(&node.name, t0.elapsed().as_nanos() as u64);
            }
            if !self.hooks[id].is_empty() {
                let ctx =
                    LayerCtx { node_id: id, name: node.name.clone(), kind: node.layer.kind() };
                for (_, hook) in &self.hooks[id] {
                    hook.on_output(&ctx, &mut out_t);
                }
            }
            acts[id - from] = Some(out_t);
        }
        Ok(acts)
    }

    /// Runs a forward pass like [`Network::forward_traced`] and keeps
    /// the output of every node up to the output node, so that a faulty
    /// copy of this network can [resume](Network::forward_resume) from
    /// them. A plain forward holds the same tensors until it returns.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn forward_activations(
        &self,
        input: &Tensor,
        recorder: &alfi_trace::Recorder,
    ) -> Result<Activations, NnError> {
        let output = self.output_id()?;
        let rec = recorder.is_enabled().then_some(recorder);
        let mut nodes = self.eval_range(input, &[], output, rec)?;
        nodes.resize(self.nodes.len(), None);
        Ok(Activations { nodes, output })
    }

    /// Runs a forward pass that evaluates only the nodes
    /// `from..=output`. Every input produced by a node before `from`
    /// is read from `golden`, so residual edges that reach back past
    /// `from` see the golden values. Hooks fire only on the evaluated
    /// nodes; a `from` past the output node returns the golden output.
    ///
    /// The result equals [`Network::forward`] bit for bit whenever this
    /// network computes the golden values at every node before `from`:
    /// same weights and fused ops there, and no hook that changes them.
    /// A fault campaign gets that by arming faults only at or after
    /// `from` on a clone of the model that produced `golden`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidGraph`] if `golden` was kept from a
    /// graph with a different node count or output node, and any layer
    /// error met during evaluation.
    pub fn forward_resume(
        &self,
        input: &Tensor,
        golden: &Activations,
        from: NodeId,
        recorder: &alfi_trace::Recorder,
    ) -> Result<Tensor, NnError> {
        let output = self.output_id()?;
        if golden.nodes.len() != self.nodes.len() || golden.output != output {
            return Err(NnError::InvalidGraph(format!(
                "activations of a {}-node graph with output {} cannot resume `{}` \
                 ({} nodes, output {output})",
                golden.nodes.len(),
                golden.output,
                self.name,
                self.nodes.len()
            )));
        }
        if from > output {
            return Ok(golden.output().clone());
        }
        let rec = recorder.is_enabled().then_some(recorder);
        take_last(self.eval_range(input, &golden.nodes[..from], output, rec)?)
    }

    /// Runs a forward pass and returns the activations of **all** nodes.
    /// Used by shape inference, activation-range profiling and monitors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn forward_all(&self, input: &Tensor) -> Result<Vec<Tensor>, NnError> {
        let Some(last) = self.nodes.len().checked_sub(1) else { return Ok(Vec::new()) };
        Ok(self
            .eval_range(input, &[], last, None)?
            .into_iter()
            .map(|t| t.expect("all nodes evaluated"))
            .collect())
    }

    /// Infers the output shape of every node for the given input shape by
    /// evaluating the graph on a zero tensor — PyTorchALFI's "dummy run"
    /// strategy for bounding neuron fault coordinates.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn infer_shapes(&self, input_dims: &[usize]) -> Result<Vec<Shape>, NnError> {
        let zero = Tensor::zeros(input_dims);
        Ok(self.forward_all(&zero)?.into_iter().map(|t| t.shape().clone()).collect())
    }

    /// Enumerates the layers eligible for fault injection, optionally
    /// restricted to specific kinds. If `input_dims` is given, each entry
    /// also carries the layer's inferred output shape (needed to bound
    /// neuron fault coordinates).
    ///
    /// # Errors
    ///
    /// Propagates shape-inference errors when `input_dims` is provided.
    pub fn injectable_layers(
        &self,
        kinds: Option<&[LayerKind]>,
        input_dims: Option<&[usize]>,
    ) -> Result<Vec<InjectableLayer>, NnError> {
        let shapes = match input_dims {
            Some(d) => Some(self.infer_shapes(d)?),
            None => None,
        };
        let mut out = Vec::new();
        for (id, node) in self.nodes.iter().enumerate() {
            let kind = node.layer.kind();
            if !kind.is_injectable() {
                continue;
            }
            if let Some(ks) = kinds {
                if !ks.contains(&kind) {
                    continue;
                }
            }
            let weight_shape =
                node.layer.weight().map(|w| w.shape().clone()).expect("injectable layers have weights");
            out.push(InjectableLayer {
                node_id: id,
                name: node.name.clone(),
                kind,
                weight_shape,
                output_shape: shapes.as_ref().map(|s| s[id].clone()),
            });
        }
        Ok(out)
    }

    /// Inserts a new unary node directly after `after`, rewiring every
    /// consumer of `after` (and the output designation, if it pointed at
    /// `after`) to the new node. Node ids of later nodes shift by one;
    /// hooks stay attached to the nodes they were registered on.
    ///
    /// This is how mitigation wrappers splice protection layers into an
    /// existing model without rebuilding it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoSuchNode`] for an unknown id,
    /// [`NnError::InvalidGraph`] for duplicate names or non-unary layers.
    pub fn insert_after(
        &mut self,
        after: NodeId,
        name: impl Into<String>,
        layer: Layer,
    ) -> Result<NodeId, NnError> {
        let name = name.into();
        if after >= self.nodes.len() {
            return Err(NnError::NoSuchNode(after));
        }
        if layer.arity() != 1 {
            return Err(NnError::InvalidGraph(format!(
                "inserted node `{name}` must be unary"
            )));
        }
        if self.nodes.iter().any(|n| n.name == name) {
            return Err(NnError::InvalidGraph(format!("duplicate node name `{name}`")));
        }
        let new_id = after + 1;
        // Shift references >= new_id, then rewire consumers of `after`.
        for node in &mut self.nodes {
            for input in &mut node.inputs {
                if *input >= new_id {
                    *input += 1;
                } else if *input == after {
                    *input = new_id;
                }
            }
        }
        self.nodes.insert(new_id, Node { name, layer, inputs: vec![after] });
        self.hooks.insert(new_id, Vec::new());
        self.fused.insert(new_id, None);
        if let Some(out) = self.output {
            if out == after {
                self.output = Some(new_id);
            } else if out >= new_id {
                self.output = Some(out + 1);
            }
        }
        Ok(new_id)
    }

    /// Total number of weight elements across all injectable layers.
    pub fn num_weights(&self) -> usize {
        self.nodes
            .iter()
            .filter_map(|n| n.layer.weight())
            .map(|w| w.num_elements())
            .sum()
    }
}

/// The output node's tensor: the last entry [`Network::eval_range`]
/// produced.
fn take_last(mut acts: Vec<Option<Tensor>>) -> Result<Tensor, NnError> {
    acts.pop()
        .flatten()
        .ok_or_else(|| NnError::InvalidGraph("output node was not evaluated".into()))
}

/// Separate-pass application of [`FusedOps`] for layer kinds without a
/// fused kernel: injection entries first (in sorted order, so repeated
/// indices apply in insertion order), then the clamp over every
/// element — the identical per-element sequence the GEMM epilogue
/// performs.
fn apply_fused_passes(t: &mut Tensor, f: &FusedOps) {
    let data = t.data_mut();
    if let Some(map) = f.inject.as_deref() {
        for &(flat, op) in map.entries() {
            if let Some(v) = data.get_mut(flat) {
                *v = op.apply(*v);
            }
        }
    }
    if let Some(clamp) = f.clamp {
        for v in data.iter_mut() {
            *v = clamp.apply(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Linear};
    use alfi_tensor::conv::ConvConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy_net() -> Network {
        let mut net = Network::new("toy");
        let conv = Layer::Conv2d(Conv2d {
            weight: Tensor::ones(&[1, 1, 1, 1]),
            bias: None,
            cfg: ConvConfig::default(),
        });
        let c = net.push("conv", conv, &[]).unwrap();
        let r = net.push("relu", Layer::Relu, &[c]).unwrap();
        let f = net.push("flatten", Layer::Flatten, &[r]).unwrap();
        let lin = Layer::Linear(Linear { weight: Tensor::ones(&[2, 4]), bias: None });
        let l = net.push("fc", lin, &[f]).unwrap();
        net.set_output(l).unwrap();
        net
    }

    #[test]
    fn sequential_forward_computes() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[4.0, 4.0]);
    }

    #[test]
    fn forward_traced_matches_forward_and_times_each_layer() {
        let net = toy_net();
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let rec = alfi_trace::Recorder::new();
        let y = net.forward_traced(&x, &rec).unwrap();
        assert_eq!(y.data(), net.forward(&x).unwrap().data());
        let summary = rec.summary();
        for name in ["conv", "relu", "flatten", "fc"] {
            let t = summary.layer_forward.get(name).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(t.count, 1);
        }
        // a disabled recorder collects nothing
        let off = alfi_trace::Recorder::disabled();
        net.forward_traced(&x, &off).unwrap();
        assert!(off.summary().layer_forward.is_empty());
    }

    #[test]
    fn forward_without_output_node_errors() {
        let mut net = Network::new("n");
        net.push("relu", Layer::Relu, &[]).unwrap();
        assert!(net.forward(&Tensor::zeros(&[1, 1])).is_err());
    }

    #[test]
    fn push_validates_graph_structure() {
        let mut net = Network::new("n");
        assert!(net.push("a", Layer::Relu, &[0]).is_err()); // self/future ref
        let a = net.push("a", Layer::Relu, &[]).unwrap();
        assert!(net.push("a", Layer::Relu, &[a]).is_err()); // duplicate name
        assert!(net.push("add", Layer::Add, &[a]).is_err()); // arity mismatch
        assert!(net.push("add", Layer::Add, &[]).is_err()); // binary from input
        let b = net.push("b", Layer::Relu, &[a]).unwrap();
        assert!(net.push("add", Layer::Add, &[a, b]).is_ok());
    }

    #[test]
    fn residual_add_graph_evaluates() {
        let mut net = Network::new("res");
        let a = net.push("id", Layer::Identity, &[]).unwrap();
        let b = net.push("relu", Layer::Relu, &[a]).unwrap();
        let s = net.push("add", Layer::Add, &[a, b]).unwrap();
        net.set_output(s).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        let y = net.forward(&x).unwrap();
        // -1 + relu(-1) = -1; 2 + relu(2) = 4
        assert_eq!(y.data(), &[-1.0, 4.0]);
    }

    #[test]
    fn hooks_run_and_can_mutate_output() {
        let mut net = toy_net();
        let conv_id = net.node_by_name("conv").unwrap();
        let calls = Arc::new(AtomicUsize::new(0));
        let calls2 = Arc::clone(&calls);
        let hook = move |_ctx: &LayerCtx, out: &mut Tensor| {
            calls2.fetch_add(1, Ordering::SeqCst);
            out.map_inplace(|v| v * 2.0);
        };
        net.register_hook(conv_id, Arc::new(hook)).unwrap();
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(y.data(), &[8.0, 8.0]); // doubled conv output
    }

    #[test]
    fn hooks_receive_correct_context() {
        let mut net = toy_net();
        let conv_id = net.node_by_name("conv").unwrap();
        let seen = Arc::new(std::sync::Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        net.register_hook(
            conv_id,
            Arc::new(move |ctx: &LayerCtx, _out: &mut Tensor| {
                *seen2.lock().unwrap() = Some((ctx.node_id, ctx.name.clone(), ctx.kind));
            }),
        )
        .unwrap();
        net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let got = seen.lock().unwrap().clone().unwrap();
        assert_eq!(got, (conv_id, "conv".to_string(), LayerKind::Conv2d));
    }

    #[test]
    fn remove_hook_stops_invocation() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        let handle = net
            .register_hook(id, Arc::new(|_: &LayerCtx, out: &mut Tensor| out.map_inplace(|_| 0.0)))
            .unwrap();
        assert_eq!(net.num_hooks(), 1);
        net.remove_hook(handle);
        assert_eq!(net.num_hooks(), 0);
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(y.data(), &[4.0, 4.0]);
        // removing twice is a no-op
        net.remove_hook(handle);
    }

    #[test]
    fn clone_drops_hooks_but_keeps_weights() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        net.register_hook(id, Arc::new(|_: &LayerCtx, _: &mut Tensor| {})).unwrap();
        let cloned = net.clone();
        assert_eq!(cloned.num_hooks(), 0);
        assert_eq!(net.num_hooks(), 1);
        assert_eq!(
            cloned.layer(id).unwrap().weight().unwrap().data(),
            net.layer(id).unwrap().weight().unwrap().data()
        );
    }

    #[test]
    fn infer_shapes_reports_every_node() {
        let net = toy_net();
        let shapes = net.infer_shapes(&[1, 1, 2, 2]).unwrap();
        assert_eq!(shapes.len(), 4);
        assert_eq!(shapes[0].dims(), &[1, 1, 2, 2]);
        assert_eq!(shapes[2].dims(), &[1, 4]);
        assert_eq!(shapes[3].dims(), &[1, 2]);
    }

    #[test]
    fn injectable_layers_filters_by_kind() {
        let net = toy_net();
        let all = net.injectable_layers(None, Some(&[1, 1, 2, 2])).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].kind, LayerKind::Conv2d);
        assert_eq!(all[1].kind, LayerKind::Linear);
        assert!(all[0].output_shape.is_some());
        let convs = net.injectable_layers(Some(&[LayerKind::Conv2d]), None).unwrap();
        assert_eq!(convs.len(), 1);
        assert!(convs[0].output_shape.is_none());
    }

    #[test]
    fn num_weights_sums_parameters() {
        let net = toy_net();
        assert_eq!(net.num_weights(), 1 + 8);
    }

    #[test]
    fn weight_mutation_via_layer_mut_changes_output() {
        let mut net = toy_net();
        let id = net.node_by_name("conv").unwrap();
        net.layer_mut(id).unwrap().weight_mut().unwrap().set(&[0, 0, 0, 0], 3.0);
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert_eq!(y.data(), &[12.0, 12.0]);
    }

    #[test]
    fn push_seq_chains_nodes() {
        let mut net = Network::new("seq");
        net.push_seq("a", Layer::Relu).unwrap();
        let b = net.push_seq("b", Layer::Relu).unwrap();
        net.set_output(b).unwrap();
        assert_eq!(net.nodes()[1].inputs, vec![0]);
    }

    #[test]
    fn insert_after_rewires_consumers_and_output() {
        let mut net = toy_net();
        let conv = net.node_by_name("conv").unwrap();
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[1, 1, 2, 2]).unwrap();
        let before = net.forward(&x).unwrap();
        // Insert a scaling identity (RangeRestrict wide open) after conv:
        // output must be unchanged.
        let new_id = net
            .insert_after(
                conv,
                "protect",
                Layer::RangeRestrict {
                    lo: f32::NEG_INFINITY,
                    hi: f32::INFINITY,
                    mode: crate::layer::RestrictMode::Clip,
                },
            )
            .unwrap();
        assert_eq!(new_id, conv + 1);
        assert_eq!(net.nodes()[new_id].inputs, vec![conv]);
        // the old consumer of conv (relu) now consumes the new node
        let relu = net.node_by_name("relu").unwrap();
        assert_eq!(net.nodes()[relu].inputs, vec![new_id]);
        let after = net.forward(&x).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn insert_after_tail_updates_output_designation() {
        let mut net = toy_net();
        let fc = net.node_by_name("fc").unwrap();
        assert_eq!(net.output_node(), Some(fc));
        let new_id = net
            .insert_after(
                fc,
                "clip",
                Layer::RangeRestrict { lo: -1.0, hi: 1.0, mode: crate::layer::RestrictMode::Clip },
            )
            .unwrap();
        assert_eq!(net.output_node(), Some(new_id));
        let y = net.forward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert!(y.data().iter().all(|&v| v <= 1.0));
    }

    #[test]
    fn insert_after_inside_residual_branch() {
        let mut net = Network::new("res");
        let a = net.push("id", Layer::Identity, &[]).unwrap();
        let b = net.push("relu", Layer::Relu, &[a]).unwrap();
        let s = net.push("add", Layer::Add, &[a, b]).unwrap();
        net.set_output(s).unwrap();
        // insert after `a`: BOTH consumers (relu and add) must rewire.
        net.insert_after(a, "probe", Layer::Identity).unwrap();
        let add = net.node_by_name("add").unwrap();
        let probe = net.node_by_name("probe").unwrap();
        let relu = net.node_by_name("relu").unwrap();
        assert_eq!(net.nodes()[relu].inputs, vec![probe]);
        assert_eq!(net.nodes()[add].inputs, vec![probe, relu]);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]).unwrap();
        assert_eq!(net.forward(&x).unwrap().data(), &[-1.0, 4.0]);
    }

    #[test]
    fn insert_after_validates_arguments() {
        let mut net = toy_net();
        assert!(net.insert_after(99, "x", Layer::Relu).is_err());
        assert!(net.insert_after(0, "conv", Layer::Relu).is_err()); // dup name
        assert!(net.insert_after(0, "bin", Layer::Add).is_err()); // not unary
    }

    #[test]
    fn insert_after_preserves_injectable_layer_list() {
        let mut net = toy_net();
        let before: Vec<String> = net
            .injectable_layers(None, None)
            .unwrap()
            .into_iter()
            .map(|l| l.name)
            .collect();
        let conv = net.node_by_name("conv").unwrap();
        net.insert_after(
            conv,
            "protect",
            Layer::RangeRestrict { lo: 0.0, hi: 1.0, mode: crate::layer::RestrictMode::Clip },
        )
        .unwrap();
        let after: Vec<String> = net
            .injectable_layers(None, None)
            .unwrap()
            .into_iter()
            .map(|l| l.name)
            .collect();
        assert_eq!(before, after);
    }
}
