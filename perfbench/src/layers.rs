//! Per-layer probes of the traced run: each times calls into one
//! layer's public functions, in a span named after the layer.

use crate::dse;
use crate::exec;
use crate::stats::median;
use crate::trace::Tracer;
use crate::util::{self, Rng, ARCHS};
use crate::Metric;
use pacq::{
    run_dse, Architecture, Backend, GemmRunner, GemmShape, GroupShape, ReportCache, Shard,
    SmConfig, WeightPrecision, Workload,
};
use pacq_fp16::batch::product_lut;
use pacq_fp16::{BatchedBaselineDp, BatchedParallelDp, Fp16, PackedWord, MAX_LANES};
use pacq_simt::{simulate, EnergyModel};
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Collected per-layer metrics, in measurement order.
#[derive(Default)]
pub struct Ledger {
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Ledger {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            detail: String::new(),
        });
    }
}

/// The headline shape and the largest catalog shape, at batch 16.
pub const PROBE_SHAPES: [(usize, usize); 2] = [(4096, 4096), (28672, 8192)];

fn shape_label((n, k): (usize, usize)) -> String {
    format!("m16n{n}k{k}")
}

/// Times `f` until `window` has passed (at least once); returns the
/// mean time per call.
fn mean_over(window: Duration, mut f: impl FnMut()) -> Duration {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || t0.elapsed() < window {
        f();
        calls += 1;
    }
    t0.elapsed() / calls
}

/// Median of `reps` timed calls, in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            util::us(t0.elapsed())
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

const WINDOW: Duration = Duration::from_millis(100);

/// Runs every probe, recording spans under `parent`. `scratch` is an
/// empty directory the cache probes may use.
pub fn run(
    tracer: &Tracer,
    parent: u64,
    scratch: &Path,
    ledger: &mut Ledger,
) -> Result<(), String> {
    fp16(tracer, parent, ledger)?;
    exec_and_quant(tracer, parent, ledger)?;
    simt(tracer, parent, ledger)?;
    runner_and_dse(tracer, parent, ledger)?;
    cache(tracer, parent, scratch, ledger)
}

/// Builds both product LUTs, as the first batched call of a process
/// does, and returns the build time in milliseconds.
pub fn build_luts() -> f64 {
    let t0 = Instant::now();
    black_box(product_lut(WeightPrecision::Int4));
    black_box(product_lut(WeightPrecision::Int2));
    util::ms(t0.elapsed())
}

/// Runs [`build_luts`] in a fresh child process (this binary's
/// `lut-child` mode) and returns the build time it reports.
pub fn build_luts_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("lut-child")
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("LUT child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(ms) if out.status.success() => Ok(ms),
        _ => Err(format!(
            "LUT child exited with {}: `{}`",
            out.status,
            text.trim()
        )),
    }
}

/// L0: LUT build (in a fresh process) and the batched DP kernels per
/// multiply-accumulate.
fn fp16(tracer: &Tracer, parent: u64, ledger: &mut Ledger) -> Result<(), String> {
    let span = tracer.span("fp16.product_lut", parent);
    ledger.put("fp16.lut_build_ms", build_luts_in_child()?, "ms");
    drop(span);

    let k = 4096;
    let mut rng = Rng::new(0xF16, 0);
    // Normal-range activations and arbitrary packed words.
    let a: Vec<Fp16> = (0..k)
        .map(|_| Fp16::from_f32((rng.unit() as f32 - 0.5) * 2.0))
        .collect();
    let words: Vec<PackedWord> = (0..k)
        .map(|_| PackedWord::from_bits(rng.next_u64() as u16))
        .collect();
    let b: Vec<Fp16> = (0..k)
        .map(|_| Fp16::from_f32((rng.unit() as f32 - 0.5) * 0.1))
        .collect();

    let span = tracer.span("fp16.batched_pdp", parent);
    if let Ok(pdp) = BatchedParallelDp::new(4, WeightPrecision::Int4) {
        let mut lanes = [0f32; MAX_LANES];
        let per_call = mean_over(WINDOW, || {
            black_box(pdp.dot_packed_into(black_box(&a), black_box(&words), &mut lanes));
        });
        let macs = (k * WeightPrecision::Int4.lanes()) as f64;
        ledger.put(
            "fp16.batched_pdp_ns_per_mac",
            per_call.as_nanos() as f64 / macs,
            "ns/MAC",
        );
    }
    drop(span);

    let span = tracer.span("fp16.batched_bdp", parent);
    if let Ok(bdp) = BatchedBaselineDp::new(4) {
        let per_call = mean_over(WINDOW, || {
            black_box(bdp.dot_slice(0.0, black_box(&a), black_box(&b)));
        });
        ledger.put(
            "fp16.batched_bdp_ns_per_mac",
            per_call.as_nanos() as f64 / k as f64,
            "ns/MAC",
        );
    }
    drop(span);
    Ok(())
}

/// `execute_with_backend` per backend and dataflow at m16n256k4096
/// INT4, and `quantize_and_pack` in both packing directions.
fn exec_and_quant(tracer: &Tracer, parent: u64, ledger: &mut Ledger) -> Result<(), String> {
    let slices = exec::prepare(&exec::SLICES[..1], 0x1A7E5, tracer, parent)?;
    let slice = &slices[0];
    for backend in Backend::ALL {
        let runner = exec::runner(backend);
        for arch in ARCHS {
            let name = format!(
                "simt.exec_ms.{}.{}",
                backend.token(),
                util::arch_token(arch)
            );
            let _span = tracer.span(name.clone(), parent);
            let t0 = Instant::now();
            let c = slice
                .execute(&runner, arch, 0)
                .map_err(|e| format!("{name}: {e}"))?;
            ledger.put(name, util::ms(t0.elapsed()), "ms");
            black_box(c);
        }
    }

    let w = pacq_quant::synth::SynthGenerator::new(0x9A7).llm_weights(4096, 256);
    let runner = exec::runner(Backend::Scalar);
    for (label, arch) in [("n", Architecture::Pacq), ("k", Architecture::PackedK)] {
        let name = format!("quant.quantize_pack_ms.{label}");
        let _span = tracer.span(name.clone(), parent);
        let mut failed = None;
        let t = median_us(3, || {
            if let Err(e) = runner.quantize_and_pack(&w, WeightPrecision::Int4, arch) {
                failed = Some(e.to_string());
            }
        });
        if let Some(e) = failed {
            return Err(format!("{name}: {e}"));
        }
        ledger.put(name, t / 1e3, "ms");
    }
    Ok(())
}

/// Group scale-fetch walks, `simulate` per dataflow and energy pricing
/// at the probe shapes.
fn simt(tracer: &Tracer, parent: u64, ledger: &mut Ledger) -> Result<(), String> {
    let cfg = SmConfig::volta_like();
    for (n, k) in PROBE_SHAPES {
        let label = shape_label((n, k));
        let name = format!("quant.scale_fetches_us.{label}");
        let _span = tracer.span(name.clone(), parent);
        let t = median_us(3, || {
            black_box(GroupShape::G128.scale_fetches_for_tiled_walk(k, n, 4, 4));
        });
        ledger.put(name, t, "us");
    }
    for (n, k) in PROBE_SHAPES {
        let label = shape_label((n, k));
        let workload = Workload::new(GemmShape::new(16, n, k), WeightPrecision::Int4);
        for arch in ARCHS {
            let name = format!("simt.simulate_us.{}.{label}", util::arch_token(arch));
            let _span = tracer.span(name.clone(), parent);
            let mut result = Ok(());
            let t = median_us(3, || {
                result = simulate(arch, workload, &cfg, GroupShape::G128).map(|s| {
                    black_box(s);
                });
            });
            result.map_err(|e| format!("{name}: {e}"))?;
            ledger.put(name, t, "us");
        }
    }

    let _span = tracer.span("simt.energy", parent);
    let workload = Workload::new(GemmShape::new(16, 4096, 4096), WeightPrecision::Int4);
    let stats = simulate(Architecture::Pacq, workload, &cfg, GroupShape::G128)
        .map_err(|e| format!("simulate: {e}"))?;
    let model = EnergyModel::new(&cfg);
    let per_call = mean_over(WINDOW, || {
        let energy = model.energy(Architecture::Pacq, &cfg, black_box(&stats));
        black_box(model.edp(&energy, &stats));
    });
    ledger.put("simt.energy_us", util::us(per_call), "us");
    Ok(())
}

/// Uncached `GemmRunner::analyze` over the Llama2-7B grid, and the dse
/// engine's wall time over the same points against Σ analyze.
fn runner_and_dse(tracer: &Tracer, parent: u64, ledger: &mut Ledger) -> Result<(), String> {
    let grid = dse::grid(&dse::llama2_7b(), 0);
    let base = GemmRunner::new();
    let span = tracer.span("runner.analyze", parent);
    let mut sum = Duration::ZERO;
    let mut points = 0u32;
    for layer in &grid {
        for job in layer.plan.jobs() {
            let mut cfg = *base.config();
            cfg.dp_width = job.width;
            cfg.adder_tree_duplication = job.dup;
            let runner = base.clone().with_config(cfg).with_group(job.group);
            let t0 = Instant::now();
            let report = runner
                .analyze(job.arch, job.workload)
                .map_err(|e| format!("analyze {}: {e}", job.id()))?;
            sum += t0.elapsed();
            black_box(report);
            points += 1;
        }
    }
    drop(span);
    ledger.put("runner.analyze_us", util::us(sum / points.max(1)), "us");

    let span = tracer.span("dse.run_dse", parent);
    let t0 = Instant::now();
    for layer in &grid {
        run_dse(&base, &layer.plan, Shard::FULL, None).map_err(|e| format!("run_dse: {e}"))?;
    }
    let wall = t0.elapsed().as_secs_f64();
    drop(span);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let ideal = sum.as_secs_f64() / workers;
    ledger.put(
        "dse.engine_overhead_pct",
        (wall / ideal.max(1e-12) - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// Cache-key build, hot and disk lookups, store and report encode.
fn cache(tracer: &Tracer, parent: u64, scratch: &Path, ledger: &mut Ledger) -> Result<(), String> {
    let runner = GemmRunner::new();
    let workload = Workload::new(GemmShape::new(16, 4096, 4096), WeightPrecision::Int4);
    let arch = Architecture::Pacq;
    let report = runner.analyze(arch, workload).map_err(|e| e.to_string())?;

    let span = tracer.span("runner.cache_key", parent);
    let per_call = mean_over(WINDOW, || {
        black_box(runner.cache_key(arch, black_box(workload)));
    });
    ledger.put("runner.cache_key_us", util::us(per_call), "us");
    drop(span);
    let key = runner.cache_key(arch, workload);

    let span = tracer.span("report.encode", parent);
    let per_call = mean_over(WINDOW, || {
        black_box(report.to_cached().to_json(&key).render_line());
    });
    ledger.put("report.encode_us", util::us(per_call), "us");
    drop(span);

    let dir = scratch.join("probe-cache");
    let store = ReportCache::open(&dir)
        .map_err(|e| e.to_string())?
        .with_hot_tier(16);
    let cached = report.to_cached();
    let span = tracer.span("cache.put", parent);
    let mut put_err = None;
    let t = median_us(5, || {
        if let Err(e) = store.put(&key, &cached) {
            put_err = Some(e.to_string());
        }
    });
    drop(span);
    if let Some(e) = put_err {
        return Err(format!("cache put: {e}"));
    }
    ledger.put("cache.put_us", t, "us");

    let span = tracer.span("cache.hot_get", parent);
    let per_call = mean_over(WINDOW, || {
        black_box(store.get(&key));
    });
    ledger.put("cache.hot_get_us", util::us(per_call), "us");
    drop(span);

    let disk = ReportCache::open(&dir).map_err(|e| e.to_string())?;
    let span = tracer.span("cache.disk_get", parent);
    let per_call = mean_over(WINDOW, || {
        black_box(disk.get(&key));
    });
    ledger.put("cache.disk_get_us", util::us(per_call), "us");
    drop(span);
    if store.get(&key).is_none() || disk.get(&key).is_none() {
        return Err("cache probe: stored report not found".to_string());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
