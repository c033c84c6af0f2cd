//! `pacq` — command-line front end to the simulator. See
//! [`pacq::cli::USAGE`] or run `pacq help`.

use pacq::PacqError;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Writes `text` to `out`. A reader that went away (`pacq ... | head`)
/// is a quiet end of output, not a failure.
fn emit(mut out: impl Write, text: &str) -> std::io::Result<()> {
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = pacq::cli::run(&args).and_then(|output| {
        emit(std::io::stdout().lock(), &output).map_err(|e| PacqError::Io {
            context: "pacq::stdout",
            message: e.to_string(),
        })
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One diagnostic line, never a backtrace; the exit code
            // encodes the error class (see DESIGN.md §10).
            let mut text = format!("error: {e}\n");
            if e.is_usage() {
                text.push_str(&format!("\n{}\n", pacq::cli::USAGE));
            }
            let _ = emit(std::io::stderr().lock(), &text);
            ExitCode::from(e.exit_code())
        }
    }
}
