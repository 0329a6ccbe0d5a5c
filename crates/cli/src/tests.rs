//! Unit tests of the CLI, driven through [`run`] like the binary.

use super::*;
use crate::data::load_series;
use crate::incore::batch_opt;
use ifet_core::prelude::*;
use ifet_volume::io::{frame_paths, read_series, write_series_with};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn parse_basic_command() {
    let a = parse_args(&argv("generate shock-bubble --out /tmp/x --dims 32")).unwrap();
    assert_eq!(a.command, "generate");
    assert_eq!(a.positional, vec!["shock-bubble"]);
    assert_eq!(a.opt("out"), Some("/tmp/x"));
    assert_eq!(a.opt_parse("dims", 0usize).unwrap(), 32);
    assert_eq!(a.opt_parse("seed", 9u64).unwrap(), 9); // default
}

#[test]
fn repeated_options_accumulate() {
    let a = parse_args(&argv("train-iatf --key 0:1:2 --key 5:2:3 --data d --out o")).unwrap();
    assert_eq!(a.all("key"), &["0:1:2".to_string(), "5:2:3".to_string()]);
}

#[test]
fn missing_value_is_error() {
    assert!(parse_args(&argv("render --out")).is_err());
    assert!(parse_args(&[]).is_err());
}

#[test]
fn key_spec_parsing() {
    assert_eq!(parse_key_spec("195:0.4:0.9").unwrap(), (195, 0.4, 0.9));
    assert!(parse_key_spec("195:0.9:0.4").is_err()); // inverted
    assert!(parse_key_spec("195:0.4").is_err());
    assert!(parse_key_spec("x:0:1").is_err());
}

#[test]
fn voxel_parsing() {
    assert_eq!(parse_voxel("3,4,5").unwrap(), (3, 4, 5));
    assert!(parse_voxel("3,4").is_err());
    assert!(parse_voxel("a,b,c").is_err());
}

#[test]
fn band_parsing() {
    assert_eq!(parse_band("0.5:1.5").unwrap(), (0.5, 1.5));
    assert!(parse_band("1.5:0.5").is_err());
}

#[test]
fn unknown_subcommand_mentions_usage() {
    let a = parse_args(&argv("bogus")).unwrap();
    let err = run(&a).unwrap_err();
    assert!(err.contains("USAGE"));
}

#[test]
fn generate_then_info_and_train_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();

    let g = parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap();
    let msg = run(&g).unwrap();
    assert!(msg.contains("wrote 5 frames"), "{msg}");

    // info: finds frames (including truth volumes, also .raw).
    let i = parse_args(&argv(&format!("info --data {dirs}"))).unwrap();
    let info = run(&i).unwrap();
    assert!(info.contains("frames of 16x16x16"), "{info}");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn suggest_keys_subcommand() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_sk_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16"
    )))
    .unwrap())
    .unwrap();
    let out =
        run(&parse_args(&argv(&format!("suggest-keys --data {dirs} --max 3"))).unwrap()).unwrap();
    assert!(out.contains("suggested key frames"), "{out}");
    assert!(out.contains("195"), "endpoints must be included: {out}");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn session_save_load_resume_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_sess_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap())
    .unwrap();

    // Pick the hottest voxel of frame 0 and a band around it so the
    // fixed-band tracking has something to grow from.
    let series = load_series(&dirs).unwrap();
    let f0 = series.frame(0);
    let (mut best_i, mut best_v) = (0usize, f32::MIN);
    for (i, &v) in f0.as_slice().iter().enumerate() {
        if v > best_v {
            best_v = v;
            best_i = i;
        }
    }
    let (x, y, z) = series.dims().coords(best_i);
    let (glo, ghi) = series.global_range();
    let lo = best_v - 0.25 * (ghi - glo);

    // A full run and a run paused at round 0 (checkpoint on disk).
    let full = format!("{dirs}/full.ifet");
    let part = format!("{dirs}/part.ifet");
    let msg = run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {full} --seed {x},{y},{z} --band {lo}:{ghi}"
    )))
    .unwrap())
    .unwrap();
    assert!(msg.contains("tracking completed"), "{msg}");
    let msg = run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {part} --seed {x},{y},{z} --band {lo}:{ghi} --rounds 0"
    )))
    .unwrap())
    .unwrap();
    assert!(msg.contains("tracking paused"), "{msg}");

    // Inventory shows the checkpoint.
    let inv = run(&parse_args(&argv(&format!(
        "session load --data {dirs} --session {part}"
    )))
    .unwrap())
    .unwrap();
    assert!(inv.contains("pending checkpoint: FixedBand"), "{inv}");

    // Resume finishes the run; the resulting artifact is byte-identical
    // to the uninterrupted one (growth is a fixpoint).
    let resumed = format!("{dirs}/resumed.ifet");
    let msg = run(&parse_args(&argv(&format!(
        "session resume --data {dirs} --session {part} --out {resumed}"
    )))
    .unwrap())
    .unwrap();
    assert!(msg.contains("resumed tracking to completion"), "{msg}");
    assert_eq!(
        std::fs::read(&full).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed artifact must match the uninterrupted run byte-for-byte"
    );

    // A flipped byte anywhere makes `session load` fail loudly.
    let mut corrupt = std::fs::read(&full).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    let bad = format!("{dirs}/bad.ifet");
    std::fs::write(&bad, &corrupt).unwrap();
    let err = run(&parse_args(&argv(&format!(
        "session load --data {dirs} --session {bad}"
    )))
    .unwrap())
    .unwrap_err();
    assert!(
        err.contains("checksum") || err.contains("malformed"),
        "{err}"
    );

    std::fs::remove_dir_all(dir).ok();
}

/// A 16-frame series with a drifting bright ball, written to a fresh
/// temp directory (the `generate` datasets have fixed frame counts, so
/// out-of-core tests build their own series).
fn write_ooc_series(tag: &str) -> String {
    let d = Dims3::cube(12);
    let series = TimeSeries::from_frames(
        (0..16)
            .map(|k| {
                let drift = 0.05 * k as f32;
                let cx = 3.0 + 0.4 * k as f32;
                let vol = ScalarVolume::from_fn(d, move |x, y, z| {
                    let dist = ((x as f32 - cx).powi(2)
                        + (y as f32 - 6.0).powi(2)
                        + (z as f32 - 6.0).powi(2))
                    .sqrt();
                    let base = (x + y + z) as f32 / 36.0 + drift;
                    if dist <= 2.5 {
                        base + 1.0
                    } else {
                        base
                    }
                });
                (k as u32 * 5, vol)
            })
            .collect(),
    );
    let dir = std::env::temp_dir().join(format!("ifet_cli_ooc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    write_series_with(&dir, "ooc", &series, false).unwrap();
    dir.to_str().unwrap().to_string()
}

#[test]
fn track_ooc_matches_in_core_and_stays_bounded() {
    let dirs = write_ooc_series("track");
    let track = |extra: &str| {
        run(&parse_args(&argv(&format!(
            "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
        )))
        .unwrap())
        .unwrap()
    };
    let reference = track("");
    assert!(reference.contains("events:"), "{reference}");

    let paged = track(" --ooc-cache 2");
    let (body, summary) = paged
        .split_once("ooc:")
        .expect("paged run must append an ooc summary");
    assert_eq!(body, reference, "out-of-core output must be byte-identical");

    // The bounded-memory witness: at most 2 data frames were ever
    // resident, even though the series has 16.
    let hw: usize = summary
        .split("resident high-water ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("summary must report the resident high-water mark");
    assert!(hw <= 2, "resident high-water {hw} exceeds --ooc-cache 2");
    assert!(summary.contains("misses"), "{summary}");
    std::fs::remove_dir_all(&dirs).ok();
}

/// Byte high-water parsed out of an ooc paging summary.
fn parse_hw_bytes(summary: &str) -> u64 {
    summary
        .split(',')
        .find_map(|f| f.trim().strip_suffix("bytes high-water"))
        .and_then(|s| s.trim().parse().ok())
        .expect("summary must report the byte high-water mark")
}

#[test]
fn track_ooc_byte_budget_matches_in_core_and_stays_bounded() {
    let dirs = write_ooc_series("bytes");
    let track = |extra: &str| {
        run(&parse_args(&argv(&format!(
            "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
        )))
        .unwrap())
        .unwrap()
    };
    let reference = track("");
    // Two 12^3 f32 frames' worth of budget.
    let budget = 2 * 12u64.pow(3) * 4;
    let paged = track(&format!(" --ooc-cache-bytes {budget}"));
    let (body, summary) = paged
        .split_once("ooc:")
        .expect("paged run must append an ooc summary");
    assert_eq!(body, reference, "byte-budget output must be byte-identical");
    assert!(
        summary.contains(&format!("cache budget {budget} bytes")),
        "{summary}"
    );
    // The bounded-memory witness, this time in bytes: resident plus
    // in-flight frame data never exceeded the budget.
    let hw_bytes = parse_hw_bytes(summary);
    assert!(
        hw_bytes <= budget,
        "byte high-water {hw_bytes} exceeds --ooc-cache-bytes {budget}"
    );
    std::fs::remove_dir_all(&dirs).ok();
}

#[test]
fn track_ooc_prefetch_is_byte_identical_and_stays_bounded() {
    let dirs = write_ooc_series("prefetch");
    let track = |extra: &str| {
        run(&parse_args(&argv(&format!(
            "track --data {dirs} --seed 3,6,6 --band 0.9:3.0{extra}"
        )))
        .unwrap())
        .unwrap()
    };
    let reference = track("");
    for prefetch in [1usize, 2, 4] {
        let paged = track(&format!(" --ooc-cache 2 --prefetch {prefetch}"));
        let (body, summary) = paged
            .split_once("ooc:")
            .expect("paged run must append an ooc summary");
        assert_eq!(
            body, reference,
            "prefetch {prefetch} output must be byte-identical"
        );
        // Read-ahead must not break the budget: in-flight prefetch reads
        // are charged against the same two-frame bound.
        let hw: usize = summary
            .split("resident high-water ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap();
        assert!(
            hw <= 2,
            "prefetch {prefetch}: high-water {hw} exceeds cache 2"
        );
        assert!(summary.contains("prefetch depth"), "{summary}");
    }
    std::fs::remove_dir_all(&dirs).ok();
}

#[test]
fn stable_traces_invariant_across_threads_and_cache() {
    let dirs = write_ooc_series("trace");
    let trace_for = |threads: usize, cache: Option<usize>, prefetch: usize| -> Vec<u8> {
        let tag = cache.map_or("incore".to_string(), |c| c.to_string());
        let path = format!("{dirs}/trace_{threads}_{tag}_{prefetch}.json");
        let mut cache_arg = cache.map_or(String::new(), |c| format!(" --ooc-cache {c}"));
        if prefetch > 0 {
            cache_arg.push_str(&format!(" --prefetch {prefetch}"));
        }
        run(&parse_args(&argv(&format!(
            "track --data {dirs} --seed 3,6,6 --band 0.9:3.0 \
             --threads {threads}{cache_arg} --trace {path} --trace-mode stable"
        )))
        .unwrap())
        .unwrap();
        std::fs::read(&path).unwrap()
    };
    let reference = trace_for(1, None, 0);
    for threads in [1usize, 2, 4] {
        for cache in [None, Some(1), Some(2), Some(16)] {
            // Prefetch workers emit no spans, so read-ahead depth must
            // be invisible in stable traces too.
            let prefetches: &[usize] = if cache.is_some() { &[0, 2] } else { &[0] };
            for &prefetch in prefetches {
                assert_eq!(
                    trace_for(threads, cache, prefetch),
                    reference,
                    "stable trace diverged at threads {threads}, \
                     cache {cache:?}, prefetch {prefetch}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dirs).ok();
}

#[test]
fn ooc_cache_rejects_zero() {
    let a = parse_args(&argv(
        "track --data d --seed 0,0,0 --band 0:1 --ooc-cache 0",
    ))
    .unwrap();
    assert!(run(&a).unwrap_err().contains("at least 1"));
}

#[test]
fn ooc_flag_validation() {
    let run_track = |flags: &str| {
        run(&parse_args(&argv(&format!(
            "track --data d --seed 0,0,0 --band 0:1 {flags}"
        )))
        .unwrap())
        .unwrap_err()
    };
    assert!(run_track("--ooc-cache-bytes 0").contains("positive"));
    assert!(run_track("--ooc-cache 2 --ooc-cache-bytes 100").contains("mutually exclusive"));
    assert!(run_track("--prefetch 2").contains("needs --ooc-cache"));
    assert!(run_track("--ooc-cache-bytes nope").contains("invalid --ooc-cache-bytes"));
}

#[test]
fn mmap_flag_validation() {
    // The retired flag is an unknown option; it must not swallow the
    // option after it as its value.
    for cmd in [
        "track --data d --seed 0,0,0 --band 0:1 --mmap",
        "track --data d --seed 0,0,0 --band 0:1 --mmap --ooc-cache 2",
    ] {
        assert_eq!(parse_args(&argv(cmd)).unwrap_err(), "unknown option --mmap");
    }
}

#[test]
fn unknown_options_are_rejected() {
    let err = parse_args(&argv("track --data d --seed 0,0,0 --band 0:1 --ooc-cach 2"));
    assert_eq!(err.unwrap_err(), "unknown option --ooc-cach");
    // Every option a subcommand reads still parses.
    for name in VALUE_OPTIONS {
        let a = parse_args(&argv(&format!("track --{name} v"))).unwrap();
        assert_eq!(a.opt(name), Some("v"));
    }
    for name in BOOL_FLAGS {
        assert!(parse_args(&argv(&format!("track --{name}")))
            .unwrap()
            .flag(name));
    }
    // The usage text documents exactly the options the parser accepts.
    let documented: std::collections::BTreeSet<&str> = USAGE
        .split("--")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect();
    let known: std::collections::BTreeSet<&str> =
        VALUE_OPTIONS.iter().chain(BOOL_FLAGS).copied().collect();
    assert_eq!(documented, known);
}

#[test]
fn generate_compress_roundtrips() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_gz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    let raw_dir = format!("{dirs}/raw");
    let z_dir = format!("{dirs}/z");
    for (out, extra) in [(&raw_dir, ""), (&z_dir, " --compress")] {
        let msg = run(&parse_args(&argv(&format!(
            "generate shock-bubble --out {out} --dims 16 --seed 3{extra}"
        )))
        .unwrap())
        .unwrap();
        assert!(msg.contains("wrote 5 frames"), "{msg}");
    }
    assert!(
        frame_paths(&z_dir)
            .unwrap()
            .iter()
            .all(|p| p.extension().unwrap() == "rawz"),
        "--compress must write .rawz frames"
    );
    // Compressed frames take less disk.
    let bytes = |d: &str| -> u64 {
        frame_paths(d)
            .unwrap()
            .iter()
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum()
    };
    assert!(bytes(&z_dir) < bytes(&raw_dir));
    // Identical analysis output from either flavor, in core or paged.
    let track = |data: &str, extra: &str| {
        run(&parse_args(&argv(&format!(
            "track --data {data} --seed 8,8,8 --band 0.9:3.0{extra}"
        )))
        .unwrap())
        .unwrap()
    };
    let reference = track(&raw_dir, "");
    assert_eq!(track(&z_dir, ""), reference);
    let paged = track(&z_dir, " --ooc-cache 2");
    assert_eq!(paged.split_once("ooc:").unwrap().0, reference);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn classify_out_compress_writes_rawz_certainty() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_cz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap())
    .unwrap();
    let sess = format!("{dirs}/clf.ifet");
    run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
    )))
    .unwrap())
    .unwrap();
    let cert_raw = format!("{dirs}/cert_raw");
    let cert_z = format!("{dirs}/cert_z");
    let out_raw = run(&parse_args(&argv(&format!(
        "classify --data {dirs} --session {sess} --out {cert_raw}"
    )))
    .unwrap())
    .unwrap();
    let out_z = run(&parse_args(&argv(&format!(
        "classify --data {dirs} --session {sess} --out {cert_z} --compress"
    )))
    .unwrap())
    .unwrap();
    assert_eq!(
        out_raw.replace(&cert_raw, "OUT"),
        out_z.replace(&cert_z, "OUT"),
        "coverage table must not depend on output compression"
    );
    let zpaths = frame_paths(&cert_z).unwrap();
    assert!(zpaths.iter().all(|p| p.extension().unwrap() == "rawz"));
    // The compressed certainty frames decode to the raw ones bit-for-bit.
    let raw_series = read_series(&frame_paths(&cert_raw).unwrap()).unwrap();
    let z_series = read_series(&zpaths).unwrap();
    assert_eq!(raw_series, z_series);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn batch_flag_validation() {
    let a = parse_args(&argv("render --data d --step 0 --out o --batch nope")).unwrap();
    assert!(batch_opt(&a).unwrap_err().contains("invalid --batch"));
    let a = parse_args(&argv("render --data d --step 0 --out o")).unwrap();
    assert_eq!(batch_opt(&a).unwrap(), 0, "omitted --batch means auto");
}

#[test]
fn hidden_flags_validate_and_surface_model_errors() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_hid_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap())
    .unwrap();

    // train-iatf rejects a zero hidden width up front.
    let err = run(&parse_args(&argv(&format!(
        "train-iatf --data {dirs} --key 195:0.5:1.0 --hidden 0 --out {dirs}/x.iatf"
    )))
    .unwrap())
    .unwrap_err();
    assert!(err.contains("at least 1"), "{err}");

    // A zero classifier width flows through the typed model error
    // instead of panicking inside the network constructor.
    let err = run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {dirs}/c.ifet --paint 195:10 --clf-hidden 0"
    )))
    .unwrap())
    .unwrap_err();
    assert!(err.contains("classifier training failed"), "{err}");
    assert!(err.contains("zero"), "{err}");

    // A small nonzero width trains fine.
    let msg = run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {dirs}/c.ifet --paint 195:10 \
         --clf-epochs 5 --clf-hidden 2"
    )))
    .unwrap())
    .unwrap();
    assert!(msg.contains("trained data-space classifier"), "{msg}");
    std::fs::remove_dir_all(dir).ok();
}

#[cfg(unix)]
#[test]
fn serve_and_client_round_trip_over_a_socket() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_srv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap())
    .unwrap();
    let sess = format!("{dirs}/srv.ifet");
    run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
    )))
    .unwrap())
    .unwrap();

    let sock = format!("{dirs}/ifet.sock");
    let server = {
        let serve = parse_args(&argv(&format!(
            "serve --socket {sock} --ooc-cache 2 --max-requests 4"
        )))
        .unwrap();
        std::thread::spawn(move || run(&serve))
    };
    let call = |line: &str| -> Result<String, String> {
        // The server binds asynchronously; retry connects briefly.
        let args = parse_args(&argv(line)).unwrap();
        for _ in 0..500 {
            match run(&args) {
                Err(e) if e.contains("cannot connect") => {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                }
                other => return other,
            }
        }
        Err("server never came up".into())
    };

    let msg = call(&format!(
        "client open --socket {sock} --tenant 5 --artifact {sess} --data {dirs}"
    ))
    .unwrap();
    assert!(msg.contains("opened: 5 frames of 16x16x16"), "{msg}");
    assert!(msg.contains("classifier trained"), "{msg}");
    let msg = call(&format!(
        "client classify --socket {sock} --tenant 5 --step 195 --tau 0.5"
    ))
    .unwrap();
    assert!(msg.contains("voxels above tau"), "{msg}");
    let msg = call(&format!("client report-stats --socket {sock} --tenant 5")).unwrap();
    assert!(msg.contains("accepted 3"), "{msg}");
    assert!(msg.contains("mlp: 1 jobs, 4096 rows"), "{msg}");
    let msg = call(&format!("client close --socket {sock} --tenant 5")).unwrap();
    assert_eq!(msg, "closed");

    let served = server.join().unwrap().unwrap();
    assert!(served.contains("served 4 requests"), "{served}");
    std::fs::remove_dir_all(dir).ok();
}

/// `client bench` drives a pipelined load through a worker-pool server
/// and reports the admission counter algebra; when the server goes away
/// mid-conversation the CLI surfaces the friendly typed disconnect,
/// never a panic or a raw broken-pipe error.
#[cfg(unix)]
#[test]
fn client_bench_pipelines_and_disconnects_are_friendly() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    )))
    .unwrap())
    .unwrap();
    let sess = format!("{dirs}/srv.ifet");
    run(&parse_args(&argv(&format!(
        "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
    )))
    .unwrap())
    .unwrap();

    let call = |line: &str| -> Result<String, String> {
        let args = parse_args(&argv(line)).unwrap();
        for _ in 0..500 {
            match run(&args) {
                Err(e) if e.contains("cannot connect") => {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                }
                other => return other,
            }
        }
        Err("server never came up".into())
    };

    // open + hello + 8 pipelined + report-stats = 11 served requests.
    let sock = format!("{dirs}/bench.sock");
    let server = {
        let serve = parse_args(&argv(&format!(
            "serve --socket {sock} --ooc-cache 3 --workers 2 \
             --tenant-quota-bytes 50000000 --max-requests 11"
        )))
        .unwrap();
        std::thread::spawn(move || run(&serve))
    };
    let msg = call(&format!(
        "client bench --socket {sock} --tenant 2 --artifact {sess} --data {dirs} \
         --requests 8 --depth 4 --seed 3"
    ))
    .unwrap();
    assert!(msg.contains("bench: 8 requests"), "{msg}");
    assert!(msg.contains("granted 4"), "{msg}");
    assert!(msg.contains("0 errored"), "{msg}");
    assert!(msg.contains("accepted + rejected == sent: true"), "{msg}");
    let served = server.join().unwrap().unwrap();
    assert!(served.contains("served 11 requests"), "{served}");
    assert!(served.contains("quota-local"), "{served}");

    // A one-request server dies right after the bench's open; the hello
    // that follows on the same connection must come back as the typed
    // friendly disconnect.
    let sock = format!("{dirs}/bench1.sock");
    let server = {
        let serve = parse_args(&argv(&format!(
            "serve --socket {sock} --ooc-cache 2 --max-requests 1"
        )))
        .unwrap();
        std::thread::spawn(move || run(&serve))
    };
    let err = call(&format!(
        "client bench --socket {sock} --tenant 2 --artifact {sess} --data {dirs} \
         --requests 4 --depth 2"
    ))
    .unwrap_err();
    assert!(err.contains("server closed the connection"), "{err}");
    assert!(!err.contains("Broken pipe"), "{err}");
    server.join().unwrap().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[cfg(unix)]
#[test]
fn client_verb_validation() {
    let a = parse_args(&argv("client --socket /tmp/x.sock")).unwrap();
    assert!(run(&a).unwrap_err().contains("needs a verb"));
    let a = parse_args(&argv("client frobnicate --socket /tmp/x.sock")).unwrap();
    assert!(run(&a).unwrap_err().contains("unknown client verb"));
    let a = parse_args(&argv(
        "client render-slice --socket /tmp/x.sock --step 0 --axis w",
    ))
    .unwrap();
    assert!(run(&a).unwrap_err().contains("invalid --axis"));
    let a = parse_args(&argv("serve --socket /tmp/x.sock --max-inflight 0")).unwrap();
    assert!(run(&a).unwrap_err().contains("at least 1"));
}

#[test]
fn session_needs_action() {
    let a = parse_args(&argv("session --data d")).unwrap();
    assert!(run(&a).unwrap_err().contains("save, load, or resume"));
    let a = parse_args(&argv("session frobnicate --data d")).unwrap();
    assert!(run(&a).unwrap_err().contains("unknown session action"));
}

#[test]
fn render_requires_tf_source() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_r_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate turbulent-vortex --out {dirs} --dims 16"
    )))
    .unwrap())
    .unwrap();

    let r = parse_args(&argv(&format!(
        "render --data {dirs} --step 50 --out {dirs}/img.ppm"
    )))
    .unwrap();
    assert!(run(&r).unwrap_err().contains("--iatf"));

    let r2 = parse_args(&argv(&format!(
        "render --data {dirs} --step 50 --band 0.5:2.0 --size 32 --out {dirs}/img.ppm"
    )))
    .unwrap();
    let msg = run(&r2).unwrap();
    assert!(msg.contains("rendered step 50"), "{msg}");
    assert!(dir.join("img.ppm").exists());

    // `--batch` only changes the ray caster's packet width; the image
    // bytes must not move.
    let r3 = parse_args(&argv(&format!(
        "render --data {dirs} --step 50 --band 0.5:2.0 --size 32 --batch 5 \
         --out {dirs}/img_b.ppm"
    )))
    .unwrap();
    run(&r3).unwrap();
    assert_eq!(
        std::fs::read(dir.join("img.ppm")).unwrap(),
        std::fs::read(dir.join("img_b.ppm")).unwrap(),
        "--batch must not change rendered bytes"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn unknown_dataset_error_names_every_dataset() {
    let listed: Vec<&str> = USAGE
        .split("datasets:")
        .nth(1)
        .unwrap()
        .split([',', ' ', '\n'])
        .filter(|w| !w.is_empty())
        .collect();
    assert!(listed.len() >= 6, "{listed:?}");
    let err = run(&parse_args(&argv("generate no-such-set --out unused")).unwrap()).unwrap_err();
    assert!(err.contains("unknown dataset"), "{err}");
    for name in listed {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn steps_missing_from_the_series_are_errors() {
    let dir = std::env::temp_dir().join(format!("ifet_cli_step_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    run(&parse_args(&argv(&format!(
        "generate turbulent-vortex --out {dirs} --dims 12"
    )))
    .unwrap())
    .unwrap();
    for cmd in [
        format!("render --data {dirs} --step 0 --band 0.5:2.0 --size 8 --out {dirs}/img.ppm"),
        format!("train-iatf --data {dirs} --key 0:0.5:1.1 --out {dirs}/iatf.json"),
        format!("session save --data {dirs} --key 50:0.5:1.1 --key 0:0.5:1.1 --out {dirs}/s.ifet"),
    ] {
        let err = run(&parse_args(&argv(&cmd)).unwrap()).unwrap_err();
        assert_eq!(err, "step 0 not in series", "{cmd}");
    }
    std::fs::remove_dir_all(dir).ok();
}

fn ifet(cmd: &str) -> Result<String, String> {
    run(&parse_args(&argv(cmd)).unwrap())
}

/// `generate shock-bubble --dims 16 --seed 3` (five frames plus ground
/// truth) in a fresh temp directory.
fn generated(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ifet_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dirs = dir.to_str().unwrap().to_string();
    ifet(&format!(
        "generate shock-bubble --out {dirs} --dims 16 --seed 3"
    ))
    .unwrap();
    dirs
}

/// The paging budgets the in-core equivalence tests sweep on 16^3 f32
/// frames: flags, then the resident bound in frames and in bytes.
fn budgets() -> [(String, usize, u64); 3] {
    let frame = 16u64.pow(3) * 4;
    [
        (" --ooc-cache 1".into(), 1, frame),
        (" --ooc-cache 2".into(), 2, 2 * frame),
        (format!(" --ooc-cache-bytes {}", 2 * frame), 2, 2 * frame),
    ]
}

/// A paged run's output before its `ooc:` summary, after checking that the
/// summary's resident high-water stays within `frames` and `bytes`.
fn paged_body(out: &str, frames: usize, bytes: u64) -> &str {
    let (body, summary) = out
        .split_once("ooc:")
        .expect("paged run must append an ooc summary");
    let hw: usize = summary
        .split("resident high-water ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("summary must report the resident high-water mark");
    assert!(
        hw <= frames,
        "high-water {hw} frames over {frames}: {summary}"
    );
    let hw_bytes = parse_hw_bytes(summary);
    assert!(
        hw_bytes <= bytes,
        "high-water {hw_bytes} bytes over {bytes}"
    );
    body
}

/// Every file under `dir` (names and bytes), sorted by name.
fn dir_files(dir: &str) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_str().unwrap().to_string();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn classify_ooc_matches_in_core_and_stays_bounded() {
    let dirs = generated("clf_ooc");
    let sess = format!("{dirs}/clf.ifet");
    ifet(&format!(
        "session save --data {dirs} --out {sess} --paint 195:10 --clf-epochs 5 --clf-hidden 2"
    ))
    .unwrap();
    for (i, out_flags) in ["", " --out OUT", " --out OUT --compress"]
        .iter()
        .enumerate()
    {
        // stdout (output directory masked), certainty files, stable trace.
        let classify = |tag: &str, budget: &str| {
            let outdir = format!("{dirs}/cert_{i}_{tag}");
            let trace = format!("{dirs}/trace_{i}_{tag}.json");
            let out = ifet(&format!(
                "classify --data {dirs} --session {sess}{}{budget} \
                 --trace {trace} --trace-mode stable",
                out_flags.replace("OUT", &outdir)
            ))
            .unwrap();
            let files = if out_flags.is_empty() {
                Vec::new()
            } else {
                dir_files(&outdir)
            };
            (
                out.replace(&outdir, "OUT"),
                files,
                std::fs::read(&trace).unwrap(),
            )
        };
        let (reference, ref_files, ref_trace) = classify("incore", "");
        assert!(reference.contains("mean-certainty"), "{reference}");
        assert_eq!(ref_files.is_empty(), out_flags.is_empty());
        for (j, (budget, frames, bytes)) in budgets().iter().enumerate() {
            let (out, files, trace) = classify(&j.to_string(), budget);
            assert_eq!(paged_body(&out, *frames, *bytes), reference, "{budget}");
            assert!(
                files == ref_files,
                "{out_flags}{budget}: certainty files differ"
            );
            assert!(
                trace == ref_trace,
                "{out_flags}{budget}: stable trace differs"
            );
        }
    }
    std::fs::remove_dir_all(&dirs).ok();
}

#[test]
fn session_ooc_save_load_resume_match_in_core() {
    let dirs = generated("sess_ooc");
    // The hottest voxel of frame 0, as in the in-core round trip.
    let series = load_series(&dirs).unwrap();
    let (best, _) = series
        .frame(0)
        .as_slice()
        .iter()
        .enumerate()
        .fold((0, f32::MIN), |m, (i, &v)| if v > m.1 { (i, v) } else { m });
    let (x, y, z) = series.dims().coords(best);

    // stdout of save, load and resume (artifact paths masked), both
    // artifacts, and the stable traces of save and resume.
    let session = |tag: &str, budget: &str| {
        let (part, done) = (
            format!("{dirs}/{tag}.ifet"),
            format!("{dirs}/{tag}_done.ifet"),
        );
        let (t_save, t_resume) = (
            format!("{dirs}/{tag}_s.json"),
            format!("{dirs}/{tag}_r.json"),
        );
        let outs = [
            format!(
                "session save --data {dirs} --out {part} --key 195:0.2:0.6 --epochs 20 \
                 --paint 195:10 --clf-epochs 5 --clf-hidden 2 --seed {x},{y},{z} \
                 --band 0.3:2.0 --rounds 1{budget} --trace {t_save} --trace-mode stable"
            ),
            format!("session load --data {dirs} --session {part}{budget}"),
            format!(
                "session resume --data {dirs} --session {part} --out {done}{budget} \
                 --trace {t_resume} --trace-mode stable"
            ),
        ]
        .map(|cmd| ifet(&cmd).unwrap().replace(&format!("{dirs}/{tag}"), "S"));
        let bytes = [part, done, t_save, t_resume].map(|p| std::fs::read(p).unwrap());
        (outs, bytes)
    };
    let (reference, ref_bytes) = session("incore", "");
    assert!(reference[0].contains("tracking paused"), "{}", reference[0]);
    assert!(reference[1].contains("pending checkpoint: FixedBand"));
    assert!(reference[2].contains("resumed tracking to completion"));
    for (j, (budget, frames, bytes)) in budgets().iter().enumerate() {
        let (outs, got) = session(&format!("b{j}"), budget);
        // The summary starts a line of its own after the in-core output.
        for (out, want) in outs.iter().zip(&reference) {
            let line_end = if want.ends_with('\n') { "" } else { "\n" };
            let want = format!("{want}{line_end}");
            assert_eq!(paged_body(out, *frames, *bytes), want, "{budget}");
        }
        for (k, what) in ["artifact", "resumed artifact", "save trace", "resume trace"]
            .iter()
            .enumerate()
        {
            assert!(got[k] == ref_bytes[k], "{budget}: {what} differs");
        }
    }
    std::fs::remove_dir_all(&dirs).ok();
}

#[test]
fn session_paint_on_a_featureless_step_is_an_error() {
    let dirs = generated("paint");
    // Step 255's feature misses every slice the oracle paints on.
    let err = ifet(&format!(
        "session save --data {dirs} --out {dirs}/p.ifet --paint 195:400 --paint 255:400"
    ))
    .unwrap_err();
    assert!(err.contains("step 255"), "{err}");
    std::fs::remove_dir_all(&dirs).ok();
}
