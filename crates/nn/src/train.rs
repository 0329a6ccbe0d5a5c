//! Supervised training: feed-forward back-propagation with momentum.

#![allow(clippy::needless_range_loop)] // parallel-array indexing reads clearer here

use crate::mlp::{Mlp, Scratch};
use ifet_obs as obs;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for back-propagation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainParams {
    /// Step size for gradient descent.
    pub learning_rate: f32,
    /// Classical momentum coefficient in `[0, 1)`.
    pub momentum: f32,
    /// Seed for the per-epoch sample shuffle.
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            learning_rate: 0.25,
            momentum: 0.9,
            seed: 0x5EED,
        }
    }
}

/// A supervised training set of `(input, target)` rows.
///
/// In the paper these are "a small number of corresponding inputs and
/// outputs ... provided by the user through an interactive visualization
/// interface" — key-frame transfer-function entries for the IATF, painted
/// voxels for data-space extraction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainingSet {
    inputs: Vec<Vec<f32>>,
    targets: Vec<Vec<f32>>,
}

impl TrainingSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample. All inputs must share a length, as must all targets.
    pub fn add(&mut self, input: Vec<f32>, target: Vec<f32>) {
        if let Some(first) = self.inputs.first() {
            assert_eq!(input.len(), first.len(), "input length mismatch");
        }
        if let Some(first) = self.targets.first() {
            assert_eq!(target.len(), first.len(), "target length mismatch");
        }
        self.inputs.push(input);
        self.targets.push(target);
    }

    /// Convenience for scalar targets.
    pub fn add1(&mut self, input: Vec<f32>, target: f32) {
        self.add(input, vec![target]);
    }

    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    pub fn inputs(&self) -> &[Vec<f32>] {
        &self.inputs
    }

    pub fn targets(&self) -> &[Vec<f32>] {
        &self.targets
    }

    pub fn sample(&self, i: usize) -> (&[f32], &[f32]) {
        (&self.inputs[i], &self.targets[i])
    }

    /// Merge another set into this one.
    pub fn extend_from(&mut self, other: &TrainingSet) {
        for i in 0..other.len() {
            let (x, t) = other.sample(i);
            self.add(x.to_vec(), t.to_vec());
        }
    }
}

/// Per-layer momentum buffers matching a network's weight/bias shapes.
#[derive(Debug, Clone)]
struct Velocity {
    weights: Vec<Vec<f32>>,
    biases: Vec<Vec<f32>>,
}

impl Velocity {
    fn for_net(net: &Mlp) -> Self {
        Self {
            weights: net
                .layers()
                .iter()
                .map(|l| vec![0.0; l.weights.len()])
                .collect(),
            biases: net
                .layers()
                .iter()
                .map(|l| vec![0.0; l.biases.len()])
                .collect(),
        }
    }

    fn matches(&self, net: &Mlp) -> bool {
        self.weights.len() == net.layers().len()
            && self
                .weights
                .iter()
                .zip(net.layers())
                .all(|(v, l)| v.len() == l.weights.len())
    }
}

/// Back-propagation trainer holding momentum state.
#[derive(Debug, Clone)]
pub struct Trainer {
    params: TrainParams,
    velocity: Option<Velocity>,
    scratch: Scratch,
    deltas: Vec<Vec<f32>>,
    rng: SmallRng,
}

impl Trainer {
    pub fn new(params: TrainParams) -> Self {
        let rng = SmallRng::seed_from_u64(params.seed);
        Self {
            params,
            velocity: None,
            scratch: Scratch::default(),
            deltas: Vec::new(),
            rng,
        }
    }

    pub fn params(&self) -> TrainParams {
        self.params
    }

    fn ensure_buffers(&mut self, net: &Mlp) {
        if self.velocity.as_ref().map_or(true, |v| !v.matches(net)) {
            self.velocity = Some(Velocity::for_net(net));
        }
        if self.deltas.len() != net.layers().len()
            || self
                .deltas
                .iter()
                .zip(net.layers())
                .any(|(d, l)| d.len() != l.n_out)
        {
            self.deltas = net.layers().iter().map(|l| vec![0.0; l.n_out]).collect();
        }
    }

    /// One online (per-sample) gradient step. Returns the sample's MSE
    /// *before* the update.
    pub fn train_sample(&mut self, net: &mut Mlp, input: &[f32], target: &[f32]) -> f32 {
        assert_eq!(target.len(), net.output_size(), "target length mismatch");
        self.ensure_buffers(net);

        // Forward pass, caching every layer's activations.
        net.forward_scratch(input, &mut self.scratch);
        let n_layers = net.layers().len();

        // Output-layer deltas: dE/dnet = (y - t) * f'(y) for MSE.
        let mut mse = 0.0f32;
        {
            let acts: Vec<f32> = self.scratch_activations(n_layers - 1).to_vec();
            let layer = &net.layers()[n_layers - 1];
            for o in 0..layer.n_out {
                let y = acts[o];
                let err = y - target[o];
                mse += err * err;
                self.deltas[n_layers - 1][o] = err * layer.activation.derivative_from_output(y);
            }
            mse /= layer.n_out as f32;
        }

        // Hidden-layer deltas, back to front.
        for l in (0..n_layers - 1).rev() {
            let next = &net.layers()[l + 1];
            let layer = &net.layers()[l];
            let acts_l: Vec<f32> = self.scratch_activations(l).to_vec();
            for h in 0..layer.n_out {
                let mut acc = 0.0f32;
                for o in 0..next.n_out {
                    acc += next.weights[o * next.n_in + h] * self.deltas[l + 1][o];
                }
                self.deltas[l][h] = acc * layer.activation.derivative_from_output(acts_l[h]);
            }
        }

        // Weight updates with momentum: v = m*v - lr*grad; w += v.
        let lr = self.params.learning_rate;
        let mom = self.params.momentum;
        let vel = self.velocity.as_mut().unwrap();
        for l in 0..n_layers {
            // Input to layer l is the previous layer's activations (or the raw input).
            let layer_input: Vec<f32> = if l == 0 {
                input.to_vec()
            } else {
                self.scratch.activations()[l - 1].clone()
            };
            let layer = &mut net.layers_mut()[l];
            let n_in = layer.n_in;
            for o in 0..layer.n_out {
                let delta = self.deltas[l][o];
                for i in 0..n_in {
                    let g = delta * layer_input[i];
                    let vi = &mut vel.weights[l][o * n_in + i];
                    *vi = mom * *vi - lr * g;
                    layer.weights[o * n_in + i] += *vi;
                }
                let vb = &mut vel.biases[l][o];
                *vb = mom * *vb - lr * delta;
                layer.biases[o] += *vb;
            }
        }

        mse
    }

    fn scratch_activations(&self, l: usize) -> &[f32] {
        &self.scratch.activations()[l]
    }

    /// One epoch of online training over a shuffled ordering of the set.
    /// Returns the mean per-sample MSE observed during the epoch.
    pub fn train_epoch(&mut self, net: &mut Mlp, set: &TrainingSet) -> f32 {
        assert!(!set.is_empty(), "cannot train on an empty set");
        let _span = obs::span("nn.epoch");
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.shuffle(&mut self.rng);
        let mut total = 0.0f64;
        for &i in &order {
            let (x, t) = set.sample(i);
            total += self.train_sample(net, x, t) as f64;
        }
        let loss = (total / set.len() as f64) as f32;
        // Training is serial and seeded, so the loss is deterministic and can
        // ride in a stable trace (fixed-point micro-units; counters are u64).
        obs::counter("samples", set.len() as u64);
        obs::counter("loss_micro", obs::micros_f32(loss));
        loss
    }

    /// Train for `epochs` epochs; returns the per-epoch mean MSE trace.
    pub fn train(&mut self, net: &mut Mlp, set: &TrainingSet, epochs: usize) -> Vec<f32> {
        let _span = obs::span("nn.train");
        obs::counter("epochs", epochs as u64);
        (0..epochs).map(|_| self.train_epoch(net, set)).collect()
    }

    /// Mean MSE of the network over a set, without updating weights.
    pub fn evaluate(&mut self, net: &Mlp, set: &TrainingSet) -> f32 {
        if set.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f64;
        for i in 0..set.len() {
            let (x, t) = set.sample(i);
            let y = net.forward_scratch(x, &mut self.scratch);
            let mse: f32 =
                y.iter().zip(t).map(|(a, b)| (a - b) * (a - b)).sum::<f32>() / t.len() as f32;
            total += mse as f64;
        }
        (total / set.len() as f64) as f32
    }
}

/// The paper's interactive training loop: "training is performed iteratively
/// in the system's idle loop ... the user can visualize the current rendered
/// result ... and continue to interact with the system by specifying new key
/// frames as training progresses."
///
/// `IncrementalTrainer` owns the network and training set; the caller
/// alternates [`IncrementalTrainer::add_set`] (new user input) with
/// [`IncrementalTrainer::step`] (a burst of idle-loop training) and may read
/// the current network at any time via [`IncrementalTrainer::network`].
#[derive(Debug, Clone)]
pub struct IncrementalTrainer {
    net: Mlp,
    trainer: Trainer,
    set: TrainingSet,
    epochs_done: usize,
    loss_history: Vec<f32>,
}

impl IncrementalTrainer {
    pub fn new(net: Mlp, params: TrainParams) -> Self {
        Self {
            net,
            trainer: Trainer::new(params),
            set: TrainingSet::new(),
            epochs_done: 0,
            loss_history: Vec::new(),
        }
    }

    /// Bulk-add samples.
    pub fn add_set(&mut self, set: &TrainingSet) {
        self.set.extend_from(set);
    }

    /// Run `epochs` idle-loop training epochs; returns the final epoch loss
    /// (`None` if no samples have been provided yet).
    pub fn step(&mut self, epochs: usize) -> Option<f32> {
        if self.set.is_empty() || epochs == 0 {
            return None;
        }
        let _span = obs::span("nn.train");
        obs::counter("epochs", epochs as u64);
        let mut last = None;
        for _ in 0..epochs {
            let loss = self.trainer.train_epoch(&mut self.net, &self.set);
            self.loss_history.push(loss);
            self.epochs_done += 1;
            last = Some(loss);
        }
        last
    }

    /// The current network (usable for immediate visual feedback mid-training).
    pub fn network(&self) -> &Mlp {
        &self.net
    }

    /// Take ownership of the trained network.
    pub fn into_network(self) -> Mlp {
        self.net
    }

    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    pub fn loss_history(&self) -> &[f32] {
        &self.loss_history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn xor_set() -> TrainingSet {
        let mut s = TrainingSet::new();
        s.add1(vec![0.0, 0.0], 0.0);
        s.add1(vec![0.0, 1.0], 1.0);
        s.add1(vec![1.0, 0.0], 1.0);
        s.add1(vec![1.0, 1.0], 0.0);
        s
    }

    #[test]
    fn training_set_accounting() {
        let s = xor_set();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        let (x, t) = s.sample(1);
        assert_eq!(x, &[0.0, 1.0]);
        assert_eq!(t, &[1.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_inputs_panic() {
        let mut s = TrainingSet::new();
        s.add1(vec![0.0, 0.0], 0.0);
        s.add1(vec![0.0], 0.0);
    }

    #[test]
    fn learns_xor() {
        // The canonical non-linearly-separable task: a three-layer perceptron
        // with enough hidden units must drive the loss near zero.
        let mut net = Mlp::three_layer(2, 8, 1);
        let mut tr = Trainer::new(TrainParams {
            learning_rate: 0.5,
            momentum: 0.9,
            seed: 42,
        });
        let set = xor_set();
        let losses = tr.train(&mut net, &set, 2000);
        let final_loss = *losses.last().unwrap();
        assert!(final_loss < 0.01, "final loss {final_loss}");
        let mut s = Scratch::for_net(&net);
        assert!(net.predict1(&[0.0, 0.0], &mut s) < 0.2);
        assert!(net.predict1(&[1.0, 0.0], &mut s) > 0.8);
        assert!(net.predict1(&[0.0, 1.0], &mut s) > 0.8);
        assert!(net.predict1(&[1.0, 1.0], &mut s) < 0.2);
    }

    #[test]
    fn learns_linear_regression() {
        // Identity output layer can fit y = 0.5 x0 - 0.25 x1 + 0.1.
        let mut net = Mlp::new(&[2, 6, 1], Activation::Tanh, Activation::Identity, 5).unwrap();
        let mut tr = Trainer::new(TrainParams {
            learning_rate: 0.05,
            momentum: 0.8,
            seed: 1,
        });
        let mut set = TrainingSet::new();
        for i in 0..50 {
            let x0 = (i % 10) as f32 / 10.0;
            let x1 = (i / 10) as f32 / 5.0;
            set.add1(vec![x0, x1], 0.5 * x0 - 0.25 * x1 + 0.1);
        }
        let losses = tr.train(&mut net, &set, 500);
        assert!(*losses.last().unwrap() < 1e-3);
    }

    #[test]
    fn loss_decreases_on_average() {
        let mut net = Mlp::three_layer(2, 8, 1);
        let mut tr = Trainer::new(TrainParams::default());
        let set = xor_set();
        let losses = tr.train(&mut net, &set, 600);
        let early: f32 = losses[..50].iter().sum::<f32>() / 50.0;
        let late: f32 = losses[losses.len() - 50..].iter().sum::<f32>() / 50.0;
        assert!(late < early, "late {late} !< early {early}");
    }

    #[test]
    fn evaluate_does_not_mutate() {
        let mut net = Mlp::three_layer(2, 4, 3);
        let snapshot = net.clone();
        let mut tr = Trainer::new(TrainParams::default());
        let set = xor_set();
        let _ = tr.evaluate(&net, &set);
        assert_eq!(net, snapshot);
        // And training does mutate.
        tr.train_epoch(&mut net, &set);
        assert_ne!(net, snapshot);
    }

    #[test]
    fn deterministic_training() {
        let run = || {
            let mut net = Mlp::three_layer(2, 6, 9);
            let mut tr = Trainer::new(TrainParams::default());
            tr.train(&mut net, &xor_set(), 50);
            net
        };
        assert_eq!(run(), run());
    }

    /// FNV-1a over the f32 bits of every weight and bias, layer by layer.
    fn digest(net: &Mlp) -> u64 {
        net.layers()
            .iter()
            .flat_map(|l| l.weights.iter().chain(&l.biases))
            .fold(0xcbf2_9ce4_8422_2325, |h, v| {
                v.to_bits()
                    .to_le_bytes()
                    .iter()
                    .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
            })
    }

    #[test]
    fn training_matches_its_pinned_digest() {
        // `deterministic_training` only compares two runs of one build; this
        // pins the trained bits, so a reordered delta sum or momentum update
        // shows up even when the network still learns. Three outputs (XOR,
        // AND, OR) give each hidden delta a sum of more than one term.
        let params = TrainParams {
            learning_rate: 0.3,
            momentum: 0.8,
            seed: 7,
        };
        let fresh = || Mlp::new(&[2, 6, 3], Activation::Sigmoid, Activation::Sigmoid, 11).unwrap();
        let (mut first, mut rest) = (TrainingSet::new(), TrainingSet::new());
        for (i, (a, b)) in [(0u8, 0u8), (0, 1), (1, 0), (1, 1)].into_iter().enumerate() {
            let half = if i < 2 { &mut first } else { &mut rest };
            let t = [a ^ b, a & b, a | b].map(f32::from).to_vec();
            half.add(vec![a.into(), b.into()], t);
        }
        let mut set = first.clone();
        set.extend_from(&rest);

        let mut net = fresh();
        Trainer::new(params).train(&mut net, &set, 20);
        let got = digest(&net);
        assert_eq!(got, 0xdedb_ac59_f724_2d1b, "Trainer::train: {got:#018x}");

        // The idle loop: half the samples, a burst, the rest, another burst.
        let mut inc = IncrementalTrainer::new(fresh(), params);
        inc.add_set(&first);
        inc.step(10);
        inc.add_set(&rest);
        inc.step(10);
        let got = digest(inc.network());
        assert_eq!(
            got, 0xbdd3_dac7_6948_0854,
            "IncrementalTrainer::step: {got:#018x}"
        );
    }

    #[test]
    #[should_panic]
    fn empty_epoch_panics() {
        let mut net = Mlp::three_layer(2, 3, 0);
        let mut tr = Trainer::new(TrainParams::default());
        tr.train_epoch(&mut net, &TrainingSet::new());
    }

    #[test]
    fn incremental_idle_loop_workflow() {
        let net = Mlp::three_layer(2, 8, 1);
        let mut inc = IncrementalTrainer::new(
            net,
            TrainParams {
                learning_rate: 0.5,
                momentum: 0.9,
                seed: 3,
            },
        );
        // No samples yet: stepping is a no-op.
        assert!(inc.step(10).is_none());
        assert_eq!(inc.epochs_done(), 0);

        // User paints two samples; idle loop trains a little.
        let (mut first, mut rest) = (TrainingSet::new(), TrainingSet::new());
        first.add1(vec![0.0, 0.0], 0.0);
        first.add1(vec![1.0, 1.0], 0.0);
        inc.add_set(&first);
        inc.step(50).unwrap();
        assert_eq!(inc.epochs_done(), 50);

        // User adds the rest; training continues from current weights.
        rest.add1(vec![0.0, 1.0], 1.0);
        rest.add1(vec![1.0, 0.0], 1.0);
        inc.add_set(&rest);
        let final_loss = inc.step(4000).unwrap();
        assert!(final_loss < 0.01, "loss {final_loss}");
        assert_eq!(inc.epochs_done(), 4050);
        assert_eq!(inc.loss_history().len(), inc.epochs_done());
    }

    #[test]
    fn extend_from_merges() {
        let mut a = xor_set();
        let b = xor_set();
        a.extend_from(&b);
        assert_eq!(a.len(), 8);
    }
}
