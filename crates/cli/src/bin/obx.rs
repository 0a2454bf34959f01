//! The `obx` binary: thin shell around [`obx_cli::run_cancellable`].
//!
//! Exit codes: `0` complete, `1` error, `2` the search stopped early
//! (deadline / eval cap / Ctrl-C) or degraded — partial results were
//! printed, `64` usage error.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use obx_cli::CancelToken;
use std::io::{ErrorKind, Write};

fn main() {
    let cancel = CancelToken::new();
    // The shared handler bridges SIGINT/SIGTERM onto the cancellation
    // token: first Ctrl-C requests a graceful stop (best-so-far results),
    // the second restores the default disposition so a third kills a
    // stuck process. `obx serve` drains through the same code path.
    obx_util::signal::register(std::sync::Arc::clone(cancel.flag()));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match obx_cli::run_cancellable(&args, &cancel) {
        Ok(outcome) => {
            // A reader that closed stdout early (`obx … | head -1`) ends
            // the output, not the command: the exit code stays its own.
            let mut out = std::io::stdout().lock();
            let written = writeln!(out, "{}", outcome.stdout).and_then(|()| out.flush());
            drop(out);
            if let Err(e) = written {
                if e.kind() != ErrorKind::BrokenPipe {
                    eprintln!("error: cannot write output: {e}");
                    std::process::exit(1);
                }
            }
            std::process::exit(outcome.exit_code);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
