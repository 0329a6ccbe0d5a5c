//! End-to-end CLI observability: `--trace`/`--profile`/`--trace-mode` on
//! real subcommand runs, stable-trace byte-identity across `--threads`, and
//! the painted data-space tracking path (`session save --paint` +
//! `track --session --dataspace-tau`).
//!
//! One test function: each step feeds the next (generated data, a saved
//! session, the traces compared across `--threads`).

use ifet_cli::{parse_args, run};
use ifet_core::obs;
use ifet_core::persist::ArtifactReader;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn ifet(cmd: &str) -> Result<String, String> {
    run(&parse_args(&argv(cmd)).unwrap())
}

#[test]
fn trace_profile_and_dataspace_cli_end_to_end() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.to_str().unwrap().to_string();

    ifet(&format!(
        "generate shock-bubble --out {d} --dims 16 --seed 3"
    ))
    .unwrap();

    // Aim fixed-band tracking at the hottest voxel of frame 0.
    let info = ifet(&format!("info --data {d}")).unwrap();
    assert!(info.contains("frames of 16x16x16"), "{info}");
    // (The CLI has no "argmax" query; recompute it from the raw frames.)
    let series = {
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().map(|x| x == "raw").unwrap_or(false)
                    && !p.file_name().unwrap().to_str().unwrap().contains("_truth")
            })
            .collect();
        paths.sort();
        ifet_volume::io::read_series(&paths).unwrap()
    };
    let (_, f0) = series.iter().next().unwrap();
    let (mut bi, mut bv) = (0usize, f32::MIN);
    for (i, &v) in f0.as_slice().iter().enumerate() {
        if v > bv {
            bv = v;
            bi = i;
        }
    }
    let (x, y, z) = series.dims().coords(bi);
    let (glo, ghi) = series.global_range();
    let lo = bv - 0.25 * (ghi - glo);

    // --- acceptance: track --trace --profile across --threads 1/2/4 ---
    let mut stable_traces = Vec::new();
    for threads in [1usize, 2, 4] {
        let path = dir.join(format!("trace_t{threads}.json"));
        let out = ifet(&format!(
            "track --data {d} --seed {x},{y},{z} --band {lo}:{ghi} --threads {threads} \
             --trace {} --profile --trace-mode stable",
            path.display()
        ))
        .unwrap();
        assert!(out.contains("voxels"), "{out}");
        stable_traces.push(std::fs::read_to_string(path).unwrap());
    }
    assert_eq!(
        stable_traces[0], stable_traces[1],
        "stable trace counters must be byte-identical across thread counts"
    );
    assert_eq!(stable_traces[0], stable_traces[2]);

    // The emitted document is a parseable versioned span tree with the
    // promised structure: an ifet.track root over growth rounds.
    let trace = obs::Trace::from_json(&stable_traces[0]).unwrap();
    assert_eq!(trace.schema, obs::TRACE_SCHEMA_VERSION);
    assert_eq!(trace.mode, obs::TraceMode::Stable);
    assert_eq!(trace.root.name, "ifet.track");
    let grow = trace.root.find("track.grow_rounds").expect("grow span");
    assert!(grow.counter("grown_voxels").unwrap() > 0);
    assert!(trace.root.find("track.round").is_some());

    // Full mode keeps timings; the strict reader accepts it too.
    let full_path = dir.join("trace_full.json");
    ifet(&format!(
        "track --data {d} --seed {x},{y},{z} --band {lo}:{ghi} --trace {}",
        full_path.display()
    ))
    .unwrap();
    let full = obs::Trace::from_json(&std::fs::read_to_string(&full_path).unwrap()).unwrap();
    assert_eq!(full.mode, obs::TraceMode::Full);
    assert!(full.root.dur_ns > 0, "full mode records wall-clock time");

    // Bad mode is a clean error.
    let err = ifet(&format!(
        "track --data {d} --seed {x},{y},{z} --band {lo}:{ghi} --trace {} --trace-mode bogus",
        full_path.display()
    ))
    .unwrap_err();
    assert!(err.contains("trace-mode"), "{err}");

    // --- painted data-space tracking, end to end, traced ---
    let sess_path = dir.join("painted.ifet");
    let step0 = series.steps()[0];
    let save_trace = dir.join("save_trace.json");
    let msg = ifet(&format!(
        "session save --data {d} --out {} --paint {step0}:60 --clf-epochs 40 \
         --seed {x},{y},{z} --dataspace-tau 0.5 \
         --trace {} --trace-mode stable",
        sess_path.display(),
        save_trace.display()
    ))
    .unwrap();
    assert!(msg.contains("trained data-space classifier"), "{msg}");
    assert!(msg.contains("tracking"), "{msg}");

    // The traced save embedded a stable summary as the TRACE section, and
    // the trace itself shows classifier training + classification.
    let bytes = std::fs::read(&sess_path).unwrap();
    let r = ArtifactReader::parse(&bytes).unwrap();
    let embedded = r.section("TRACE").expect("traced save embeds TRACE");
    let embedded = obs::Trace::from_json(std::str::from_utf8(embedded).unwrap()).unwrap();
    assert_eq!(embedded.mode, obs::TraceMode::Stable);
    assert!(embedded.root.find("session.train_classifier").is_some());
    assert!(embedded.root.find("extract.classify_series").is_some());
    let file_trace = obs::Trace::from_json(&std::fs::read_to_string(&save_trace).unwrap()).unwrap();
    assert!(file_trace.root.find("nn.train").is_some());

    // The inventory reports the classifier; the saved artifact drives a
    // fresh data-space tracking run through `track --session`.
    let inv = ifet(&format!(
        "session load --data {d} --session {}",
        sess_path.display()
    ))
    .unwrap();
    assert!(inv.contains("classifier: trained"), "{inv}");
    assert!(inv.contains("DataSpace"), "{inv}");

    let out = ifet(&format!(
        "track --data {d} --session {} --dataspace-tau 0.5 --seed {x},{y},{z}",
        sess_path.display()
    ))
    .unwrap();
    assert!(out.contains("voxels"), "{out}");

    // An untraced save embeds nothing.
    let plain_path = dir.join("plain.ifet");
    ifet(&format!(
        "session save --data {d} --out {} --seed {x},{y},{z} --band {lo}:{ghi}",
        plain_path.display()
    ))
    .unwrap();
    let plain = std::fs::read(&plain_path).unwrap();
    assert!(!ArtifactReader::parse(&plain)
        .unwrap()
        .tags()
        .any(|t| t == "TRACE"));

    std::fs::remove_dir_all(dir).ok();
}
