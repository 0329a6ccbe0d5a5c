//! Figure 5: the DNS turbulent reacting plane jet. Vorticity magnitude
//! "cannot be captured with a single transfer function for all the time
//! steps"; each key-frame TF (t = 8, 64, 128) fails away from its key frame,
//! the IATF extracts the vortex layer over the whole sequence.

use ifet_bench::{f3, header, row};
use ifet_core::prelude::*;
use ifet_sim::combustion_jet::{combustion_jet_with, top_fraction_mask, CombustionJetParams};

fn main() {
    let dims = if ifet_bench::quick() {
        Dims3::new(32, 48, 16)
    } else {
        Dims3::new(48, 72, 24)
    };
    let data = combustion_jet_with(CombustionJetParams {
        dims,
        seed: 0xF165,
        ..Default::default()
    });
    let mut session = VisSession::new(data.series.clone()).unwrap();
    let (glo, ghi) = session.series().global_range();
    let steps: Vec<u32> = data.series.steps().to_vec();

    let key_steps = [steps[0], steps[steps.len() / 2], steps[steps.len() - 1]];
    let mut key_tfs = Vec::new();
    for &t in &key_steps {
        let frame = data.series.frame_at_step(t).unwrap();
        let mask = top_fraction_mask(frame, 0.05);
        let lo = frame
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(i, _)| mask.get_linear(i))
            .map(|(_, &v)| v)
            .fold(f32::INFINITY, f32::min);
        let tf = TransferFunction1D::band(glo, ghi, lo, ghi, 1.0);
        session.add_key_frame(t, tf.clone());
        key_tfs.push((t, tf));
    }
    session.train_iatf(IatfParams::default());

    println!("# Figure 5 — combustion vortex-layer F1: static key TFs vs IATF\n");
    let step_strs: Vec<String> = steps.iter().map(|t| t.to_string()).collect();
    let mut cols: Vec<&str> = vec!["method"];
    cols.extend(step_strs.iter().map(|s| s.as_str()));
    header(&cols);

    let mut static_off_key = Vec::new();
    for (kt, tf) in &key_tfs {
        let mut cells = vec![format!("static TF(t={kt})")];
        for (i, &t) in steps.iter().enumerate() {
            let mask = session.extract_with_tf(t, tf, 0.5);
            let f1 = Scores::of(&mask, data.truth_frame(i)).f1;
            if t != *kt {
                static_off_key.push(f1);
            }
            cells.push(f3(f1));
        }
        row(&cells);
    }
    let mut iatf_all = Vec::new();
    let mut cells = vec!["IATF (ours)".to_string()];
    for (i, &t) in steps.iter().enumerate() {
        let tf = session.adaptive_tf_at_step(t).unwrap().unwrap();
        let mask = session.extract_with_tf(t, &tf, 0.5);
        let f1 = Scores::of(&mask, data.truth_frame(i)).f1;
        iatf_all.push(f1);
        cells.push(f3(f1));
    }
    row(&cells);

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean static F1 away from its key frame: {}",
        f3(mean(&static_off_key))
    );
    println!(
        "mean IATF F1 over all steps:            {}",
        f3(mean(&iatf_all))
    );
    println!(
        "paper claim (vortex well extracted over whole sequence by IATF only): {}",
        if mean(&iatf_all) > mean(&static_off_key) + 0.2 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
}
