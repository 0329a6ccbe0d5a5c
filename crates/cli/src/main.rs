//! The `ifet` command-line tool. See [`ifet_cli::USAGE`].

use std::io::{ErrorKind, Write};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match ifet_cli::parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", ifet_cli::USAGE);
            std::process::exit(2);
        }
    };
    match ifet_cli::run(&args) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{out}").and_then(|()| stdout.flush()) {
                // A reader that stops early (`ifet info ... | head -5`) is
                // not an error: the output simply has nowhere to go.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: failed writing to stdout: {e}");
                    std::process::exit(1);
                }
                _ => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
