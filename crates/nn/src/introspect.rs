//! Opening the black box: network introspection and input pruning.
//!
//! The paper's interface lets the user "remove data properties in an input
//! vector if they are considered unimportant" (Section 6, citing the
//! authors' companion work on data-driven visualization of neural networks
//! \[26\]); "the input data for the previous network would be transferred to
//! the new network". This module provides:
//!
//! - [`rank_inputs`] — input features ordered by a first-order measure of
//!   how much each drives the output (connection-weight products,
//!   Garson-style),
//! - [`drop_input`] — build a smaller network
//!   with one input removed, *transferring* all surviving weights so
//!   training resumes instead of restarting.

#![allow(clippy::needless_range_loop)] // parallel-array indexing reads clearer here

use crate::mlp::Mlp;

/// Connection-weight importance of each input feature: for input `i`, the
/// sum over hidden units `h` of `|w_ih| * |v_h|` where `v_h` aggregates the
/// hidden unit's outgoing magnitude. Normalized to sum to 1.
fn input_importance(net: &Mlp) -> Vec<f64> {
    let layers = net.layers_ref();
    assert!(!layers.is_empty());
    let first = &layers[0];

    // Aggregate each first-layer hidden unit's downstream magnitude by
    // propagating absolute weights back from the output.
    let mut downstream = vec![1.0f64; layers.last().unwrap().n_out()];
    for layer in layers.iter().skip(1).rev() {
        let mut prev = vec![0.0f64; layer.n_in()];
        for o in 0..layer.n_out() {
            for i in 0..layer.n_in() {
                prev[i] += layer.weight(o, i).abs() as f64 * downstream[o];
            }
        }
        downstream = prev;
    }

    let mut importance = vec![0.0f64; first.n_in()];
    for h in 0..first.n_out() {
        for i in 0..first.n_in() {
            importance[i] += first.weight(h, i).abs() as f64 * downstream[h];
        }
    }
    let total: f64 = importance.iter().sum();
    if total > 0.0 {
        for v in &mut importance {
            *v /= total;
        }
    }
    importance
}

/// Build a network with input feature `k` removed, transferring every other
/// weight unchanged. The new network computes exactly what the old one would
/// with input `k` fixed at 0.
pub fn drop_input(net: &Mlp, k: usize) -> Mlp {
    let n_in = net.input_size();
    assert!(k < n_in, "input {k} out of range ({n_in} inputs)");
    assert!(n_in > 1, "cannot drop the only input");
    let layers = net.layers_ref();

    let mut sizes: Vec<usize> = vec![n_in - 1];
    sizes.extend(layers.iter().map(|l| l.n_out()));
    // Activations: assume homogeneous hidden activation (true for all
    // networks this workspace builds).
    let hidden_act = layers[0].activation_kind();
    let out_act = layers.last().unwrap().activation_kind();
    let mut new = Mlp::new(&sizes, hidden_act, out_act, 0)
        .expect("sizes derived from a valid network are valid");

    for (li, layer) in layers.iter().enumerate() {
        for o in 0..layer.n_out() {
            let mut new_i = 0;
            for i in 0..layer.n_in() {
                if li == 0 && i == k {
                    continue;
                }
                new.set_weight(li, o, new_i, layer.weight(o, i));
                new_i += 1;
            }
            new.set_bias(li, o, layer.bias(o));
        }
    }
    new
}

/// Ranked `(input index, importance)` pairs, most important first.
pub fn rank_inputs(net: &Mlp) -> Vec<(usize, f64)> {
    let imp = input_importance(net);
    let mut ranked: Vec<(usize, f64)> = imp.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainParams, Trainer, TrainingSet};

    /// Train a net where only input 0 matters: y = x0.
    fn x0_only_net() -> Mlp {
        let mut net = Mlp::three_layer(3, 8, 42);
        let mut tr = Trainer::new(TrainParams::default());
        let mut set = TrainingSet::new();
        for i in 0..64 {
            let x0 = (i % 8) as f32 / 8.0;
            let x1 = ((i / 8) % 4) as f32 / 4.0;
            let x2 = (i % 5) as f32 / 5.0;
            set.add1(vec![x0, x1, x2], if x0 > 0.5 { 1.0 } else { 0.0 });
        }
        tr.train(&mut net, &set, 400);
        net
    }

    #[test]
    fn importance_sums_to_one() {
        let net = Mlp::three_layer(4, 6, 1);
        let imp = input_importance(&net);
        assert_eq!(imp.len(), 4);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trained_importance_favours_the_informative_input() {
        let net = x0_only_net();
        let imp = input_importance(&net);
        assert!(
            imp[0] > imp[1] && imp[0] > imp[2],
            "input 0 should dominate: {imp:?}"
        );
    }

    #[test]
    fn rank_inputs_orders_descending() {
        let net = x0_only_net();
        let ranked = rank_inputs(&net);
        assert_eq!(ranked[0].0, 0);
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn drop_input_matches_zeroed_input() {
        let net = x0_only_net();
        let smaller = drop_input(&net, 2);
        assert_eq!(smaller.input_size(), 2);
        for &(a, b) in &[(0.1f32, 0.9f32), (0.7, 0.3), (0.5, 0.5)] {
            let full = net.forward(&[a, b, 0.0])[0];
            let dropped = smaller.forward(&[a, b])[0];
            assert!(
                (full - dropped).abs() < 1e-6,
                "mismatch: {full} vs {dropped}"
            );
        }
    }

    #[test]
    fn drop_then_continue_training_works() {
        // The Section 6 workflow: shrink the network, keep training.
        let net = x0_only_net();
        let mut smaller = drop_input(&net, 1);
        let mut tr = Trainer::new(TrainParams::default());
        let mut set = TrainingSet::new();
        for i in 0..32 {
            let x0 = (i % 8) as f32 / 8.0;
            set.add1(vec![x0, 0.5], if x0 > 0.5 { 1.0 } else { 0.0 });
        }
        let before = tr.evaluate(&smaller, &set);
        tr.train(&mut smaller, &set, 100);
        let after = tr.evaluate(&smaller, &set);
        assert!(after <= before + 1e-4);
    }

    #[test]
    #[should_panic]
    fn drop_out_of_range_panics() {
        let net = Mlp::three_layer(2, 3, 0);
        let _ = drop_input(&net, 5);
    }

    #[test]
    #[should_panic]
    fn drop_last_input_panics() {
        let net = Mlp::three_layer(1, 3, 0);
        let _ = drop_input(&net, 0);
    }
}
