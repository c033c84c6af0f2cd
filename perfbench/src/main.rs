//! `pacq-perfbench` — the repository benchmark (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dse_llama|serve_llama|exec_decode|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run measures the three phases — dse, serve and exec — and
//! reports every end-to-end metric; the workload decides which phase
//! gets the full `--seconds` budget and its full input set, and the
//! other two run a short reference slice interleaved with it. The last
//! stdout line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`).

mod dse;
mod exec;
mod layers;
mod serve;
mod stats;
mod trace;
mod util;

use layers::Ledger;
use serve::ServerProc;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Budget of a reference slice of a phase that is not the workload's
/// own.
const SIDE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Dse,
    Serve,
    Exec,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    const ALL: [Workload; 3] = [Workload::Dse, Workload::Serve, Workload::Exec];

    fn name(self) -> &'static str {
        match self {
            Workload::Dse => "dse_llama",
            Workload::Serve => "serve_llama",
            Workload::Exec => "exec_decode",
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        let w = Workload::ALL.into_iter().find(|w| w.name() == workload);
        vec![w.ok_or_else(|| {
            format!("unknown workload `{workload}` (dse_llama, serve_llama, exec_decode, all)")
        })?]
    };
    Ok(Args {
        workloads,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(12.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve-child") => return serve_child(&argv[1..]),
        Some("lut-child") => {
            println!("{}", layers::build_luts());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `pacq serve <args>` in this process, exactly as the `pacq`
/// binary does.
fn serve_child(args: &[String]) -> ExitCode {
    let mut argv = vec!["serve".to_string()];
    argv.extend_from_slice(args);
    match pacq::cli::run(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// One metric row of the result.
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` spells it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was measured (sample counts, percentile), for the table.
    pub detail: String,
}

/// Everything one workload run produced.
struct RunResult {
    end_to_end: Vec<Metric>,
    ledger: Ledger,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Inputs one run sets up before anything is timed.
struct Setup {
    server: ServerProc,
    slices: Vec<exec::Slice>,
    grid: Vec<dse::Layer>,
}

struct Ctx {
    seed: u64,
    seconds: f64,
    jobs: usize,
    out_dir: PathBuf,
    tracer: Tracer,
}

impl Ctx {
    fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn run(args: &Args) -> Result<String, String> {
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir,
        tracer: Tracer::new(false),
    };
    let result = run_all(args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.out_dir);
    result
}

/// Runs each requested workload and renders the result line.
fn run_all(args: &Args, ctx: &Ctx) -> Result<String, String> {
    let mut json_parts = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for &w in &args.workloads {
        println!(
            "== workload {}  seed {}  seconds {}  trace {}  nproc {}",
            w.name(),
            ctx.seed,
            ctx.seconds,
            u8::from(args.trace),
            ctx.jobs
        );
        let result = if args.trace {
            run_traced(ctx, w)?
        } else {
            run_workload(ctx, w)?
        };
        print_result(&result, args.trace);
        correct &= result.problems.is_empty();
        attempted += result.attempted;
        failed += result.failed;
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        let metrics = if args.trace {
            &result.ledger.metrics
        } else {
            &result.end_to_end
        };
        for m in metrics {
            json_parts.push(format!(
                r#""{prefix}{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            ));
        }
    }
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{failed},"metrics":{{{}}}}}"#,
        attempted.max(1),
        json_parts.join(",")
    ))
}

/// A finite JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Sets up one run: spawns the server on a fresh cache, warms the
/// product LUTs in a child process (as a `pacq exec --backend batched`
/// process pays it), synthesizes and packs the exec inputs and
/// enumerates the dse grid.
fn set_up(ctx: &Ctx, w: Workload, iteration: usize, parent: u64) -> Result<Setup, String> {
    let tracer = &ctx.tracer;
    let span = tracer.span("setup.server_spawn", parent);
    let server = ServerProc::spawn(&ctx.out_dir.join(format!("cache-{iteration}")), ctx.jobs)?;
    drop(span);

    let span = tracer.span("setup.lut_warmup", parent);
    layers::build_luts_in_child()?;
    // The LUTs are built lazily once per process; build them in this
    // process too, so no timed call pays for it.
    layers::build_luts();
    drop(span);

    let shapes: &[(usize, usize, usize)] = match w {
        Workload::Exec => &exec::SLICES,
        _ => &exec::GEMV,
    };
    let slices = exec::prepare(shapes, ctx.seed, tracer, parent)?;
    let span = tracer.span("setup.dse_grid", parent);
    let grid = match w {
        Workload::Dse => dse::grid(&dse::catalog(), ctx.seed),
        _ => dse::grid(&dse::llama2_7b(), ctx.seed),
    };
    drop(span);
    Ok(Setup {
        server,
        slices,
        grid,
    })
}

/// Set-up [`SETUPS`] times, keeping the last; returns it and the
/// median set-up time.
fn set_up_repeatedly(ctx: &Ctx, w: Workload) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Setup> = None;
    for i in 0..SETUPS {
        let span = ctx.tracer.span("setup", 0);
        let t0 = Instant::now();
        let setup = set_up(ctx, w, i, span.id())?;
        times.push(t0.elapsed().as_secs_f64());
        drop(span);
        if let Some(old) = kept.replace(setup) {
            old.server.stop()?;
        }
    }
    let setup = kept.ok_or("no set-up ran")?;
    Ok((setup, times))
}

/// The three phases' outcomes.
#[derive(Default)]
struct Phases {
    dse: dse::Outcome,
    serve: serve::Outcome,
    exec: exec::Outcome,
    exec_pinned: Vec<String>,
}

/// A phase that advances one unit of work at a time, so a run can
/// interleave its reference slices with the workload's own phase.
pub trait Stepper {
    /// Runs the next unit of work.
    fn step(&mut self, tracer: &Tracer, parent: u64);
    /// Time spent inside timed calls so far.
    fn busy(&self) -> Duration;
    /// Whether no pass has completed yet or one is under way.
    fn mid_pass(&self) -> bool;
}

/// Steps `s` until it has been busy for `target`.
fn advance(s: &mut dyn Stepper, target: Duration, tracer: &Tracer, parent: u64) {
    while s.busy() < target {
        s.step(tracer, parent);
    }
}

/// Steps `s` to the end of its current pass.
fn finish(s: &mut dyn Stepper, tracer: &Tracer, parent: u64) {
    while s.mid_pass() {
        s.step(tracer, parent);
    }
}

/// Runs the workload's own phase for the full budget and, unless
/// `primary_only`, the other two as reference slices. The dse and exec
/// slices are spread across the whole run, in step with the own phase's
/// progress, so slow and fast spells of a shared host average out
/// instead of landing on one slice. The serve slice runs as one block
/// halfway through.
fn run_phases(ctx: &Ctx, w: Workload, setup: &Setup, primary_only: bool) -> Result<Phases, String> {
    let tracer = &ctx.tracer;
    let span = tracer.span(format!("phases.{}", w.name()), 0);
    let parent = span.id();
    let run_serve = |own: bool| {
        let budget = if own { ctx.budget() } else { Duration::ZERO };
        serve::run(&setup.server, ctx.jobs, budget, ctx.seed, tracer, parent)
    };
    let mut dse = dse::DseRun::new(&setup.grid);
    let mut exec = exec::ExecRun::new(&setup.slices);
    let mut served = None;
    {
        let mut own: Option<&mut dyn Stepper> = None;
        let mut sides: Vec<&mut dyn Stepper> = Vec::new();
        for (kind, s) in [
            (Workload::Dse, &mut dse as &mut dyn Stepper),
            (Workload::Exec, &mut exec as &mut dyn Stepper),
        ] {
            if kind == w {
                own = Some(s);
            } else if !primary_only {
                sides.push(s);
            }
        }
        match own {
            None => {
                for s in &mut sides {
                    advance(&mut **s, SIDE / 2, tracer, parent);
                }
                served = Some(run_serve(true)?);
                for s in &mut sides {
                    advance(&mut **s, SIDE, tracer, parent);
                }
            }
            Some(own) => {
                let budget = ctx.budget();
                while own.busy() < budget || own.mid_pass() {
                    own.step(tracer, parent);
                    let progress = (own.busy().as_secs_f64() / budget.as_secs_f64()).min(1.0);
                    for s in &mut sides {
                        advance(&mut **s, SIDE.mul_f64(progress), tracer, parent);
                    }
                    if !primary_only && served.is_none() && progress >= 0.5 {
                        served = Some(run_serve(false)?);
                    }
                }
            }
        }
        for s in &mut sides {
            finish(&mut **s, tracer, parent);
        }
    }
    let exec_pinned = if primary_only {
        Vec::new()
    } else {
        exec::check_pinned(tracer, parent)
    };
    Ok(Phases {
        dse: dse.out,
        serve: served.unwrap_or_default(),
        exec: exec.out,
        exec_pinned,
    })
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(w: Workload, setup_times: &[f64], p: &Phases) -> Vec<Metric> {
    let sorted_latency = stats::sorted(&p.serve.latency_us);
    let tail = stats::tail(&sorted_latency);
    let rss = match w {
        Workload::Serve => p.serve.peak_rss_mib,
        _ => util::peak_rss_mib("self").unwrap_or(0.0),
    };
    vec![
        Metric {
            name: "setup_s".to_string(),
            value: stats::median(setup_times).unwrap_or(0.0),
            unit: "s",
            detail: format!("median of {} set-ups", setup_times.len()),
        },
        Metric {
            name: "peak_rss_mib".to_string(),
            value: rss,
            unit: "MiB",
            detail: match w {
                Workload::Serve => "VmHWM of the server process".to_string(),
                _ => "VmHWM of the benchmark process".to_string(),
            },
        },
        Metric {
            name: "dse_points_per_s".to_string(),
            value: p.dse.points_per_s(),
            unit: "points/s",
            detail: format!(
                "{} passes of {} points, each layer at its median time",
                p.dse.passes, p.dse.points_per_pass
            ),
        },
        Metric {
            name: "edp_reduction_err_pp".to_string(),
            value: (p.dse.edp_reduction_pct - dse::PAPER_EDP_REDUCTION_PCT).abs(),
            unit: "pp",
            detail: format!(
                "simulated {:.3}% vs paper {}%",
                p.dse.edp_reduction_pct,
                dse::PAPER_EDP_REDUCTION_PCT
            ),
        },
        Metric {
            name: "speedup_err_pct".to_string(),
            value: (p.dse.fig7b_speedup - dse::PAPER_FIG7B_SPEEDUP).abs()
                / dse::PAPER_FIG7B_SPEEDUP
                * 100.0,
            unit: "%",
            detail: format!(
                "simulated {:.4}x vs paper {}x",
                p.dse.fig7b_speedup,
                dse::PAPER_FIG7B_SPEEDUP
            ),
        },
        Metric {
            name: "serve_p50_us".to_string(),
            value: serve::p50(&p.serve.latency_us),
            unit: "us",
            detail: format!(
                "n={} window-1 round trips, {} of them first occurrences",
                p.serve.latency_us.len(),
                p.serve.miss_us.len()
            ),
        },
        Metric {
            name: "serve_tail_us".to_string(),
            value: tail.map_or(0.0, |t| t.value),
            unit: "us",
            detail: match tail {
                Some(t) => format!(
                    "p{} of n={} ({} beyond)",
                    t.percentile,
                    sorted_latency.len(),
                    t.beyond
                ),
                None => format!("n={} is too few for a tail", sorted_latency.len()),
            },
        },
        Metric {
            name: "serve_goodput_rps".to_string(),
            value: p.serve.goodput.rate(p.serve.goodput_s),
            unit: "req/s",
            detail: format!(
                "n={} ok of {} over {:.2} s, window {}",
                p.serve.goodput.ok,
                p.serve.goodput.attempted,
                p.serve.goodput_s,
                serve::WINDOW
            ),
        },
        Metric {
            name: "exec_batched_mmac_per_s".to_string(),
            value: p.exec.mmac_per_s(1),
            unit: "MMAC/s",
            detail: format!(
                "{} passes, each cell at its median time; {:.3} s busy",
                p.exec.passes, p.exec.busy_s[1]
            ),
        },
        Metric {
            name: "exec_scalar_mmac_per_s".to_string(),
            value: p.exec.mmac_per_s(0),
            unit: "MMAC/s",
            detail: format!(
                "{} passes, each cell at its median time; {:.3} s busy",
                p.exec.passes, p.exec.busy_s[0]
            ),
        },
    ]
}

/// Attempts, failures and every output-check problem of a run.
fn account(p: &Phases) -> (u64, u64, Vec<String>) {
    let mut problems: Vec<String> = p
        .dse
        .mismatches
        .iter()
        .chain(&p.exec.mismatches)
        .chain(&p.exec_pinned)
        .chain(&p.serve.mismatches)
        .cloned()
        .collect();
    let t = &p.serve.tally;
    if t.error_frames + t.lost > 0 {
        problems.push(format!(
            "serve: {} error frames, {} lost replies",
            t.error_frames, t.lost
        ));
    }
    let attempted = p.dse.points + p.exec.executes + t.attempted;
    let failed = t.failed()
        + (p.dse.mismatches.len()
            + p.exec.mismatches.len()
            + p.exec_pinned.len()
            + p.serve.mismatches.len()) as u64;
    (attempted, failed, problems)
}

fn run_workload(ctx: &Ctx, w: Workload) -> Result<RunResult, String> {
    let (setup, setup_times) = set_up_repeatedly(ctx, w)?;
    let phases = run_phases(ctx, w, &setup, false)?;
    setup.server.stop()?;
    let (attempted, failed, problems) = account(&phases);
    Ok(RunResult {
        end_to_end: end_to_end(w, &setup_times, &phases),
        ledger: Ledger::default(),
        attempted,
        failed,
        problems,
    })
}

/// The metric a workload's own phase is judged by, for the tracing
/// overhead.
fn primary_metric(w: Workload) -> &'static str {
    match w {
        Workload::Dse => "dse_points_per_s",
        Workload::Serve => "serve_goodput_rps",
        Workload::Exec => "exec_batched_mmac_per_s",
    }
}

fn run_traced(ctx: &Ctx, w: Workload) -> Result<RunResult, String> {
    let tracer = &ctx.tracer;
    tracer.set_on(true);
    let (setup, setup_times) = set_up_repeatedly(ctx, w)?;
    let mut ledger = Ledger::default();
    let span = tracer.span("probes", 0);
    let scratch = ctx.out_dir.join("probes");
    layers::run(tracer, span.id(), &scratch, &mut ledger)?;
    drop(span);
    let phases = run_phases(ctx, w, &setup, false)?;
    setup.server.stop()?;
    tracer.set_on(false);

    // The untraced reference for the tracing overhead: a fresh set-up
    // and the workload's own phase alone.
    let baseline_setup = set_up(ctx, w, SETUPS, 0)?;
    let baseline = run_phases(ctx, w, &baseline_setup, true)?;
    baseline_setup.server.stop()?;

    let traced_e2e = end_to_end(w, &setup_times, &phases);
    let untraced_e2e = end_to_end(w, &setup_times, &baseline);
    let pick = |metrics: &[Metric]| {
        metrics
            .iter()
            .find(|m| m.name == primary_metric(w))
            .map_or(0.0, |m| m.value)
    };
    let (traced, untraced) = (pick(&traced_e2e), pick(&untraced_e2e));

    let s = &phases.serve;
    ledger.put("serve.ping_rtt_p50_us", serve::p50(&s.ping_us), "us");
    ledger.put("serve.hit_rtt_p50_us", serve::p50(&s.hit_us), "us");
    ledger.put("serve.miss_rtt_p50_us", serve::p50(&s.miss_us), "us");
    ledger.put("serve.cache_hit_ratio", s.cache_hit_ratio, "ratio");
    ledger.put("serve.queue_full", s.tally.rejected as f64, "count");
    ledger.put("serve.lost", s.tally.lost as f64, "count");
    ledger.put("serve.error_frames", s.tally.error_frames as f64, "count");
    ledger.put(
        "simt.points_priced",
        phases.dse.points_per_pass as f64,
        "count",
    );
    ledger.put(
        "simt.sim_cycles_total",
        phases.dse.sim_cycles_total as f64,
        "count",
    );
    ledger.put(
        "trace_overhead_pct",
        (untraced / traced.max(1e-12) - 1.0) * 100.0,
        "%",
    );

    let spans = tracer.spans();
    let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{}.json", w.name(), ctx.seed));
    let events = tracer
        .write_chrome(&trace_path.to_string_lossy())
        .map_err(|e| e.to_string())?;
    println!("\nspans (self time = span minus the time its child spans cover):");
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in trace::totals(&spans) {
        println!(
            "{name:<44} {:>8} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        );
    }
    println!(
        "\nchrome trace: {} ({events} spans); {} traced {:.4} vs untraced {:.4}",
        trace_path.display(),
        primary_metric(w),
        traced,
        untraced
    );
    println!("\ntraced end-to-end numbers (the untraced run is authoritative):");
    for m in &traced_e2e {
        println!(
            "  {:<26} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.detail
        );
    }

    let (attempted, failed, problems) = account(&phases);
    Ok(RunResult {
        end_to_end: traced_e2e,
        ledger,
        attempted,
        failed,
        problems,
    })
}

fn print_result(r: &RunResult, traced: bool) {
    if traced {
        println!("\nper-layer metrics:");
        println!("{:<44} {:>16} {:<8}", "metric", "value", "unit");
        for m in &r.ledger.metrics {
            println!("{:<44} {:>16.4} {:<8}", m.name, m.value, m.unit);
        }
    } else {
        println!("{:<26} {:>16} {:<8} detail", "metric", "value", "unit");
        for m in &r.end_to_end {
            println!(
                "{:<26} {:>16.4} {:<8} {}",
                m.name, m.value, m.unit, m.detail
            );
        }
    }
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    println!(
        "{:<26} {:>16.4} {:<8} {} failed of {} attempted",
        "error_rate", error_rate, "ratio", r.failed, r.attempted
    );
    for p in &r.problems {
        println!("check failed: {p}");
    }
}
