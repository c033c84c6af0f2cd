//! The exec phase: functional GEMMs through `GemmRunner::execute` on
//! both backends, over the Llama decode slices `bench_batched` uses.

use crate::trace::Tracer;
use crate::util::{self, ARCHS, PRECISIONS};
use crate::Stepper;
use pacq::{
    Architecture, Backend, GemmRunner, GroupShape, MatrixF16, MatrixF32, NumericsMode,
    PackedMatrix, PacqResult,
};
use pacq_quant::synth::SynthGenerator;
use std::time::{Duration, Instant};

/// The decode slices: batch-16 and batch-1 attention projections and a
/// batch-16 FFN slice at the 11008 reduction depth, column-restricted
/// to n=256.
pub const SLICES: [(usize, usize, usize); 3] = [(16, 256, 4096), (1, 256, 4096), (16, 256, 11008)];

/// The batch-1 GEMV slice alone.
pub const GEMV: [(usize, usize, usize); 1] = [(1, 256, 4096)];

/// Input seed of the pinned-digest check (independent of `--seed`).
const REFERENCE_SEED: u64 = 0x5EED;

/// Result digests of the batch-1 slice on the reference inputs, per
/// `(arch, precision)`.
const PINNED: &[(&str, &str)] = &[
    ("pacq.int4", "5567938e5aaac52d"),
    ("packedk.int4", "da269e49cef05ce3"),
    ("std.int4", "170665a66393e971"),
    ("is.int4", "da269e49cef05ce3"),
    ("pacq.int2", "24250b2be2504f9c"),
    ("packedk.int2", "974bcf15e31288b0"),
    ("std.int2", "f34e2168d16777f6"),
    ("is.int2", "974bcf15e31288b0"),
];

/// One slice's activations and its weights, quantized and packed both
/// ways for both precisions.
pub struct Slice {
    /// `(m, n, k)`.
    pub shape: (usize, usize, usize),
    a: MatrixF16,
    /// `P(B_x)_n` packing per precision (PacQ).
    packed_n: Vec<PackedMatrix>,
    /// `P(B_x)_k` packing per precision (the other dataflows).
    packed_k: Vec<PackedMatrix>,
}

impl Slice {
    fn packed(&self, arch: Architecture, precision_index: usize) -> &PackedMatrix {
        match arch {
            Architecture::Pacq => &self.packed_n[precision_index],
            _ => &self.packed_k[precision_index],
        }
    }

    /// Executes this slice on `arch` at precision `PRECISIONS[precision_index]`.
    pub fn execute(
        &self,
        runner: &GemmRunner,
        arch: Architecture,
        precision_index: usize,
    ) -> PacqResult<MatrixF32> {
        runner.execute(arch, &self.a, self.packed(arch, precision_index))
    }
}

/// The runner `bench_batched` times: g128 groups, paper numerics.
pub fn runner(backend: Backend) -> GemmRunner {
    GemmRunner::new()
        .with_group(GroupShape::along_k(128))
        .with_numerics(NumericsMode::PaperRounded)
        .with_backend(backend)
}

/// Synthesizes each slice's inputs from `seed` and quantizes and packs
/// the weights (the set-up work of this phase).
pub fn prepare(
    shapes: &[(usize, usize, usize)],
    seed: u64,
    tracer: &Tracer,
    parent: u64,
) -> Result<Vec<Slice>, String> {
    let base = runner(Backend::Scalar);
    let mut slices = Vec::new();
    for &(m, n, k) in shapes {
        let _span = tracer.span("quant.synth_quantize_pack", parent);
        let mut gen = SynthGenerator::new(seed ^ ((m ^ (n << 8) ^ (k << 16)) as u64));
        let a = gen.llm_activations(m, k).to_f16();
        let w = gen.llm_weights(k, n);
        let mut packed_n = Vec::new();
        let mut packed_k = Vec::new();
        for precision in PRECISIONS {
            let pack = |arch| {
                base.quantize_and_pack(&w, precision, arch)
                    .map_err(|e| format!("quantize_and_pack m{m}n{n}k{k}: {e}"))
            };
            packed_n.push(pack(Architecture::Pacq)?);
            packed_k.push(pack(Architecture::PackedK)?);
        }
        slices.push(Slice {
            shape: (m, n, k),
            a,
            packed_n,
            packed_k,
        });
    }
    Ok(slices)
}

/// What the exec phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time inside `execute` per backend, seconds.
    pub busy_s: [f64; 2],
    /// Complete passes over the slices.
    pub passes: u64,
    /// `execute` calls.
    pub executes: u64,
    /// Multiply-accumulates of each cell, in pass order.
    pub cell_macs: Vec<f64>,
    /// Time of each cell's `execute` per backend, one entry per pass.
    pub cell_s: [Vec<Vec<f64>>; 2],
    /// Backend disagreements and digest mismatches.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Throughput of backend `b` (0 scalar, 1 batched) over one pass
    /// with every cell at its median time, MMAC/s.
    pub fn mmac_per_s(&self, b: usize) -> f64 {
        let pass_s: f64 = self.cell_s[b]
            .iter()
            .map(|t| crate::stats::median(t).unwrap_or(0.0))
            .sum();
        self.cell_macs.iter().sum::<f64>() / pass_s.max(1e-12) / 1e6
    }
}

/// The exec phase, advanced one cell (a slice × precision × dataflow,
/// scalar then batched) at a time. Every cell checks scalar ≡ batched
/// bit for bit.
pub struct ExecRun<'a> {
    slices: &'a [Slice],
    /// `(slice, precision index, dataflow)` per cell.
    cells: Vec<(usize, usize, Architecture)>,
    runners: [GemmRunner; 2],
    next: usize,
    busy: Duration,
    /// What the phase measured so far.
    pub out: Outcome,
}

impl<'a> ExecRun<'a> {
    /// A phase over `slices`, nothing executed yet.
    pub fn new(slices: &'a [Slice]) -> Self {
        let mut cells = Vec::new();
        for (si, _) in slices.iter().enumerate() {
            for pi in 0..PRECISIONS.len() {
                for arch in ARCHS {
                    cells.push((si, pi, arch));
                }
            }
        }
        let out = Outcome {
            cell_macs: cells
                .iter()
                .map(|&(si, _, _)| {
                    let (m, n, k) = slices[si].shape;
                    (m * n * k) as f64
                })
                .collect(),
            cell_s: [vec![Vec::new(); cells.len()], vec![Vec::new(); cells.len()]],
            ..Outcome::default()
        };
        ExecRun {
            slices,
            cells,
            runners: [runner(Backend::Scalar), runner(Backend::Batched)],
            next: 0,
            busy: Duration::ZERO,
            out,
        }
    }
}

impl Stepper for ExecRun<'_> {
    fn step(&mut self, tracer: &Tracer, parent: u64) {
        let (si, pi, arch) = self.cells[self.next];
        let slice = &self.slices[si];
        let mut results = Vec::with_capacity(2);
        for (b, r) in self.runners.iter().enumerate() {
            let name = format!(
                "simt.execute.{}.{}",
                r.backend().token(),
                util::arch_token(arch)
            );
            let span = tracer.span(name, parent);
            let started = Instant::now();
            let result = slice.execute(r, arch, pi);
            let took = started.elapsed();
            drop(span);
            self.busy += took;
            self.out.busy_s[b] += took.as_secs_f64();
            self.out.cell_s[b][self.next].push(took.as_secs_f64());
            self.out.executes += 1;
            results.push(result);
        }
        let (m, n, k) = slice.shape;
        let label = format!(
            "m{m}n{n}k{k} {} {}",
            util::arch_token(arch),
            util::precision_token(PRECISIONS[pi])
        );
        match (&results[0], &results[1]) {
            (Ok(s), Ok(b)) => {
                if !bits_equal(s.as_slice(), b.as_slice()) {
                    self.out
                        .mismatches
                        .push(format!("exec {label}: scalar and batched differ"));
                }
            }
            (Err(e), _) | (_, Err(e)) => self.out.mismatches.push(format!("exec {label}: {e}")),
        }
        self.next += 1;
        if self.next == self.cells.len() {
            self.next = 0;
            self.out.passes += 1;
        }
    }

    fn busy(&self) -> Duration {
        self.busy
    }

    fn mid_pass(&self) -> bool {
        self.next != 0 || self.out.passes == 0
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks the batch-1 slice on seed-independent reference inputs
/// against the pinned result digests (outside any timed region).
pub fn check_pinned(tracer: &Tracer, parent: u64) -> Vec<String> {
    let _span = tracer.span("exec.pinned_check", parent);
    let slices = match prepare(&GEMV, REFERENCE_SEED, tracer, 0) {
        Ok(s) => s,
        Err(e) => return vec![format!("exec reference inputs: {e}")],
    };
    let runner = runner(Backend::Batched);
    let mut bad = Vec::new();
    for slice in &slices {
        for (pi, precision) in PRECISIONS.into_iter().enumerate() {
            for arch in ARCHS {
                let cell = format!(
                    "{}.{}",
                    util::arch_token(arch),
                    util::precision_token(precision)
                );
                let digest = match slice.execute(&runner, arch, pi) {
                    Ok(c) => util::f32_digest(c.as_slice()),
                    Err(e) => {
                        bad.push(format!("exec reference {cell}: {e}"));
                        continue;
                    }
                };
                match PINNED.iter().find(|(c, _)| *c == cell) {
                    Some((_, pinned)) if *pinned == digest => {}
                    Some((_, pinned)) => bad.push(format!(
                        "exec reference {cell}: digest {digest}, pinned {pinned}"
                    )),
                    None => bad.push(format!(
                        "exec reference {cell}: digest {digest} is not pinned"
                    )),
                }
            }
        }
    }
    bad
}
