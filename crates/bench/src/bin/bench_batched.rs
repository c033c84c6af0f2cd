//! Batched-backend speedup trajectory: measures the scalar vs batched
//! functional execute paths over a Llama-7B-derived decode sweep grid
//! and appends one trajectory point to `BENCH_batched.json`.
//!
//! Each grid cell runs both backends on identical inputs, checks the
//! results are bit-identical (the batched backend's contract — see the
//! equivalence suites), and records the best-of-N wall times plus the
//! speedup. The JSON file accumulates one point per invocation, so the
//! kernel-speed history survives across commits; CI uploads it as an
//! artifact next to the Criterion summary.
//!
//! Usage: `cargo run -p pacq-bench --release --bin bench_batched`
//! (optional: `--label NAME` to tag the trajectory point, `--out PATH`
//! to redirect the JSON file, plus the shared `--jobs`/`--metrics`
//! flags; the pool is pinned to one worker during timing so the ratio
//! measures the kernels, not the scheduler).

use pacq::flags::Flag;
use pacq::{
    arch_token, precision_token, Architecture, Backend, GemmRunner, GroupShape, NumericsMode,
    PacqError, PacqResult,
};
use pacq_bench::{banner, times};
use pacq_fp16::WeightPrecision;
use pacq_quant::synth::SynthGenerator;
use pacq_quant::MatrixF32;
use pacq_trace::Json;
use std::hint::black_box;
use std::time::Instant;

/// Timed runs per (cell, backend) after one warmup; the minimum is kept.
const TIMED_RUNS: usize = 3;

fn main() -> std::process::ExitCode {
    pacq_bench::exit(run())
}

/// One measured cell of the sweep grid.
struct Row {
    shape: (usize, usize, usize),
    arch: Architecture,
    precision: WeightPrecision,
    scalar_s: f64,
    batched_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_s / self.batched_s.max(1e-12)
    }
}

fn run() -> PacqResult<()> {
    let (metrics, flags) = pacq_bench::init_with(
        "bench_batched",
        &[Flag::Value("--label"), Flag::Value("--out")],
    )?;
    let label = flags.value("--label").unwrap_or("dev");
    let out = flags.value("--out").unwrap_or("BENCH_batched.json");
    banner(
        "bench_batched",
        "scalar vs batched backend wall time on the Llama decode grid",
        "batched >= 2x scalar throughput, bit-identical results",
    );

    // Pin the pool to one worker: the trajectory tracks kernel speed,
    // not parallel scaling (crates/bench/benches/parallel.rs owns that).
    let prev_jobs = rayon::current_num_threads();
    pacq::par::configure_jobs(Some(1));

    // Llama-7B decode slices, column-restricted so the scalar reference
    // finishes in seconds: batch-16 and batch-1 attention projections
    // plus a batch-16 FFN slice at the 11008 reduction depth.
    let shapes = [(16, 256, 4096), (1, 256, 4096), (16, 256, 11008)];
    let precisions = [WeightPrecision::Int4, WeightPrecision::Int2];
    let archs = [
        Architecture::Pacq,
        Architecture::PackedK,
        Architecture::StandardDequant,
    ];

    let mut rows = Vec::new();
    println!(
        "\n{:<16} {:>8} {:>5} {:>12} {:>12} {:>9}",
        "shape", "arch", "prec", "scalar (s)", "batched (s)", "speedup"
    );
    for &(m, n, k) in &shapes {
        let mut gen = SynthGenerator::new((m ^ (n << 8) ^ (k << 16)) as u64 | 1);
        let a = gen.llm_activations(m, k).to_f16();
        let w = gen.llm_weights(k, n);
        for &precision in &precisions {
            for &arch in &archs {
                let base = GemmRunner::new()
                    .with_group(GroupShape::along_k(128))
                    .with_numerics(NumericsMode::PaperRounded);
                let packed = base.quantize_and_pack(&w, precision, arch)?;
                let scalar = base.clone().with_backend(Backend::Scalar);
                let batched = base.clone().with_backend(Backend::Batched);
                let (c_scalar, scalar_s) = time_best(|| scalar.execute(arch, &a, &packed))?;
                let (c_batched, batched_s) = time_best(|| batched.execute(arch, &a, &packed))?;
                check_bits(&c_scalar, &c_batched, (m, n, k), arch, precision)?;
                let row = Row {
                    shape: (m, n, k),
                    arch,
                    precision,
                    scalar_s,
                    batched_s,
                };
                println!(
                    "{:<16} {:>8} {:>5} {:>12.6} {:>12.6} {:>9}",
                    format!("m{m}n{n}k{k}"),
                    arch_token(arch),
                    precision_token(precision),
                    row.scalar_s,
                    row.batched_s,
                    times(row.speedup())
                );
                rows.push(row);
            }
        }
    }
    pacq::par::configure_jobs(Some(prev_jobs));

    let geomean = geomean_speedup(&rows);
    let min = rows.iter().map(Row::speedup).fold(f64::INFINITY, f64::min);
    println!(
        "\ngeomean speedup: {}   min speedup: {}   ({} cells, best of {TIMED_RUNS})",
        times(geomean),
        times(min),
        rows.len()
    );

    append_point(out, label, geomean, min, &rows)?;
    println!("appended trajectory point `{label}` -> {out}");
    metrics.finish()?;
    Ok(())
}

/// One warmup then [`TIMED_RUNS`] timed runs; returns the last result
/// and the minimum wall time (the least-noisy estimator for a
/// deterministic kernel).
fn time_best<F>(mut f: F) -> PacqResult<(MatrixF32, f64)>
where
    F: FnMut() -> PacqResult<MatrixF32>,
{
    let mut result = black_box(f()?);
    let mut best = f64::INFINITY;
    for _ in 0..TIMED_RUNS {
        let t0 = Instant::now();
        result = black_box(f()?);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok((result, best))
}

/// The trajectory is only meaningful if both backends agree bit-for-bit;
/// a mismatch is an audit failure, not a slow run.
fn check_bits(
    scalar: &MatrixF32,
    batched: &MatrixF32,
    (m, n, k): (usize, usize, usize),
    arch: Architecture,
    precision: WeightPrecision,
) -> PacqResult<()> {
    let mismatches = scalar
        .as_slice()
        .iter()
        .zip(batched.as_slice().iter())
        .filter(|(l, r)| l.to_bits() != r.to_bits())
        .count();
    if mismatches != 0 {
        return Err(PacqError::AuditMismatch {
            counter: "bench_batched.backend_bits".to_string(),
            case: format!(
                "m{m}n{n}k{k} {} {}",
                precision_token(precision),
                arch_token(arch)
            ),
            observed: format!("{mismatches} diverging elements"),
            expected: "0 diverging elements".to_string(),
        });
    }
    Ok(())
}

fn geomean_speedup(rows: &[Row]) -> f64 {
    let log_sum: f64 = rows.iter().map(|r| r.speedup().ln()).sum();
    (log_sum / rows.len().max(1) as f64).exp()
}

/// Parses the existing trajectory file (if any), appends one point, and
/// rewrites the canonical rendering.
fn append_point(path: &str, label: &str, geomean: f64, min: f64, rows: &[Row]) -> PacqResult<()> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text)?;
            if doc.get("schema").and_then(Json::as_str) != Some("pacq-bench-batched/v1") {
                return Err(PacqError::invalid_input(
                    "bench_batched",
                    format!("{path} exists but is not a pacq-bench-batched/v1 document"),
                ));
            }
            doc
        }
        Err(_) => {
            let mut doc = Json::object();
            doc.set("schema", "pacq-bench-batched/v1");
            doc.set("points", Json::Arr(Vec::new()));
            doc
        }
    };

    let mut point = Json::object();
    point.set("label", label);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    point.set("created_unix_s", stamp);
    point.set("timed_runs", TIMED_RUNS);
    point.set("geomean_speedup", round6(geomean));
    point.set("min_speedup", round6(min));
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut cell = Json::object();
            cell.set(
                "shape",
                format!("m{}n{}k{}", r.shape.0, r.shape.1, r.shape.2),
            );
            cell.set("arch", arch_token(r.arch));
            cell.set("precision", precision_token(r.precision));
            cell.set("scalar_s", round6(r.scalar_s));
            cell.set("batched_s", round6(r.batched_s));
            cell.set("speedup", round6(r.speedup()));
            cell
        })
        .collect();
    point.set("cells", Json::Arr(cells));

    let points = match doc.get("points").and_then(Json::as_arr) {
        Some(existing) => {
            let mut v = existing.to_vec();
            v.push(point);
            v
        }
        None => vec![point],
    };
    doc.set("points", Json::Arr(points));
    std::fs::write(path, doc.render()).map_err(|e| PacqError::Io {
        context: "bench_batched",
        message: format!("writing {path}: {e}"),
    })?;
    Ok(())
}

/// Six decimals is plenty for wall times and keeps the file diffable.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}
