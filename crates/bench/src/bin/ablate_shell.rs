//! Ablation of the data-space feature vector (paper Sections 4.3 and 6):
//! shell radius drives size discrimination, and the input-vector size drives
//! classification cost ("the time needed ... highly depends on the size of
//! input vectors").

use ifet_bench::{f3, header, row, timed};
use ifet_core::prelude::*;

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::cube(32)
    } else {
        Dims3::cube(48)
    };
    let data = ifet_sim::reionization(dims, 0xAB1E);
    let t = 310;
    let fi = data.series.index_of_step(t).unwrap();
    let truth = data.truth_frame(fi);

    println!("# Ablation — shell radius and descriptor mode\n");
    header(&["shell", "radius", "inputs", "F1", "classify time (s)"]);

    let variants: Vec<(&str, ShellMode, f32)> = vec![
        ("none (value only)", ShellMode::None, 1.0),
        ("stats", ShellMode::Stats, 2.0),
        ("stats", ShellMode::Stats, 4.0),
        ("stats", ShellMode::Stats, 6.0),
        ("raw samples (26)", ShellMode::Samples { count: 26 }, 4.0),
        ("raw samples (64)", ShellMode::Samples { count: 64 }, 4.0),
    ];

    for (name, shell, radius) in variants {
        let mut session = VisSession::new(data.series.clone()).unwrap();
        let mut oracle = PaintOracle::new(0xAB1E);
        session
            .add_paints(oracle.paint_from_truth(t, truth, 250, 250))
            .unwrap();
        let spec = FeatureSpec {
            value: true,
            shell,
            shell_radius: radius,
            position: false,
            time: true,
        };
        let inputs = spec.len();
        session
            .train_classifier(spec, ClassifierParams::default())
            .expect("training failed");
        let (mask, secs) = timed(|| session.extract_data_space(t, 0.5).unwrap().unwrap());
        row(&[
            name.to_string(),
            f3(radius as f64),
            inputs.to_string(),
            f3(mask.f1(truth)),
            format!("{secs:.2}"),
        ]);
    }
    println!("\n(radius must exceed the noise-blob size but stay below the large-structure size;");
    println!(" larger input vectors cost proportionally more classification time — Section 6)");
}
