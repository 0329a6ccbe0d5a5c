//! `ifet-perfbench`: the repository benchmark's measuring program.
//!
//! ```text
//! ifet-perfbench gen --workload W --seed N --dir D [--quick]
//! ifet-perfbench run --dir D --seconds S --trace 0|1 [--trace-out F] [--git-rev R]
//! ```
//!
//! `gen` writes a workload's inputs; `run` measures it and prints one JSON
//! result line. `perfbench/run.py` drives both, in separate processes.

mod analyze;
mod driver;
mod inputs;
mod playback;
mod report;
mod serve;
mod spans;
mod stats;
mod timed;
mod track;

use driver::{drive, RunOpts};
use inputs::Spec;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `--key value` options and bare `--flag`s.
fn parse(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let val = match it.peek() {
            Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
            _ => "1".to_string(),
        };
        out.insert(key.to_string(), val);
    }
    Ok(out)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(Some(line)) => println!("{line}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("ifet-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn real_main(argv: &[String]) -> Result<Option<String>, String> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or("usage: ifet-perfbench gen|run ...")?;
    let opts = parse(rest)?;
    let get = |k: &str| opts.get(k).ok_or(format!("missing --{k}"));
    let dir = PathBuf::from(get("dir")?);
    match cmd.as_str() {
        "gen" => {
            let spec = Spec {
                workload: get("workload")?.clone(),
                seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
                quick: opts.contains_key("quick"),
            };
            inputs::generate(&dir, &spec)?;
            Ok(None)
        }
        "run" => {
            let spec = Spec::read(&dir)?;
            let run = RunOpts {
                seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
                trace: get("trace")? == "1",
                trace_out: opts.get("trace-out").map(PathBuf::from),
                git_rev: opts
                    .get("git-rev")
                    .cloned()
                    .unwrap_or_else(|| "unknown".into()),
            };
            let report = match spec.workload.as_str() {
                "playback" => drive::<playback::Playback>(&dir, &spec, &run)?,
                "analyze" => drive::<analyze::Analyze>(&dir, &spec, &run)?,
                "track" => drive::<track::Track>(&dir, &spec, &run)?,
                "serve" => drive::<serve::Serve>(&dir, &spec, &run)?,
                other => return Err(format!("unknown workload {other:?}")),
            };
            Ok(Some(report.to_json()))
        }
        other => Err(format!("unknown command {other:?} (gen or run)")),
    }
}
