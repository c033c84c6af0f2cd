//! # pacq-bench — the experiment harness
//!
//! One binary per table/figure of the paper (run them with
//! `cargo run -p pacq-bench --release --bin figN`), plus Criterion
//! benches for the simulator and datapath kernels. This library hosts the
//! small shared formatting helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Run-manifest handle for a figure/table binary: [`init`] resolves the
/// global flags (`--metrics`, `--cache`, `--arch-template`, `--jobs`,
/// `--backend`; see [`pacq::cli::GLOBAL_FLAGS`]), and
/// [`Metrics::finish`] drains the observability collector into a
/// schema-valid `pacq-metrics/v1` manifest when `--metrics PATH` was
/// given (DESIGN.md §11). Without the flag both are no-ops, so
/// instrumentation stays zero-cost.
#[must_use = "call .finish() at the end of the figure body to write the manifest"]
pub struct Metrics {
    binary: &'static str,
    /// The run's resolved global flags: [`pacq::cli::Globals::runner`]
    /// is the base runner (cache, backend and `--arch-template` machine
    /// attached) every figure prices through.
    pub globals: pacq::cli::Globals,
}

/// Parses the process arguments strictly: the global flags plus none of
/// its own (see [`init_with`]).
///
/// # Errors
///
/// Same conditions as [`init_with`].
pub fn init(binary: &'static str) -> pacq::PacqResult<Metrics> {
    init_with(binary, &[]).map(|(metrics, _)| metrics)
}

/// Parses the process arguments strictly against the global flags plus
/// the binary's own `table`, installs the worker count, and returns the
/// manifest handle with the binary's flags. Any other argument is a
/// usage error: a typo'd flag must not silently run the default figure.
/// `--hot` is one too: the memory tier is for long-lived `pacq` runs.
///
/// # Errors
///
/// Returns a usage error ([`pacq::PacqError`], exit code 2) for an
/// unknown, repeated or value-less flag or a malformed value, an I/O
/// error (exit code 6) when the cache directory cannot be created, and
/// a template error (exit code 9) when `--arch-template` names a file
/// that does not validate.
pub fn init_with(
    binary: &'static str,
    table: &[pacq::flags::Flag],
) -> pacq::PacqResult<(Metrics, pacq::flags::Args)> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let hot = pacq::flags::Flag::Refused("--hot", "the memory tier is a `pacq` flag");
    pacq::flags::take(&argv, &[hot])?;
    let (mut globals, rest) = pacq::cli::Globals::take(&argv)?;
    let flags = pacq::flags::parse(&rest, table, binary)?;
    globals.jobs = Some(pacq::par::configure_jobs(globals.jobs));
    Ok((Metrics { binary, globals }, flags))
}

impl Metrics {
    /// Writes the run manifest if `--metrics` was requested, draining
    /// the collector either way, and prints the cache session tallies
    /// when a store was attached.
    ///
    /// # Errors
    ///
    /// Returns [`pacq::PacqError::Io`] (exit code 6) when the manifest
    /// cannot be written.
    pub fn finish(self) -> pacq::PacqResult<()> {
        if let Some(cache) = &self.globals.cache {
            println!("\ncache: {} hits, {} misses", cache.hits(), cache.misses());
        }
        if let Some((manifest, path)) = self.globals.manifest(self.binary, &[]) {
            manifest.write_to(path)?;
            println!("\nwrote metrics manifest -> {path}");
        }
        Ok(())
    }
}

/// Maps a figure/table body onto the process exit status: `Ok` exits 0,
/// `Err` prints the one-line diagnostic to stderr and exits with the
/// error-class code (DESIGN.md §10) — never a backtrace.
pub fn exit(result: pacq::PacqResult<()>) -> std::process::ExitCode {
    match result {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(e.exit_code())
        }
    }
}

/// Prints a figure/table banner.
pub fn banner(id: &str, title: &str, paper: &str) {
    println!("{}", "=".repeat(78));
    println!("{id}: {title}");
    println!("paper reports: {paper}");
    println!("{}", "=".repeat(78));
}

/// Formats a ratio as `N.NNx`.
pub fn times(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a large count with thousands grouping.
pub fn grouped(mut v: u64) -> String {
    let mut parts = Vec::new();
    loop {
        if v < 1000 {
            parts.push(v.to_string());
            break;
        }
        parts.push(format!("{:03}", v % 1000));
        v /= 1000;
    }
    parts.reverse();
    parts.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping() {
        assert_eq!(grouped(0), "0");
        assert_eq!(grouped(999), "999");
        assert_eq!(grouped(1000), "1,000");
        assert_eq!(grouped(1234567), "1,234,567");
    }

    #[test]
    fn formatting() {
        assert_eq!(times(1.994), "1.99x");
        assert_eq!(pct(0.543), "54.3%");
    }
}
