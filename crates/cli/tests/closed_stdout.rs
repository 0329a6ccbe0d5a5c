//! The `ifet` binary with nowhere to write: a reader that closed its end of
//! the pipe (`ifet info --data DIR | head -5`) must not turn into a panic.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_exits_zero_without_a_panic() {
    let (reader, writer) = std::io::pipe().unwrap();
    // No one will ever read: every write to the pipe fails with EPIPE.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_ifet"))
        .arg("help")
        .stdout(Stdio::from(writer))
        .stderr(Stdio::piped())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
