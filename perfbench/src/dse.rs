//! The dse phase: `pacq::run_dse` over the Llama catalog grid, with
//! every point's simulated cycles and energy checked against pinned
//! digests.

use crate::trace::Tracer;
use crate::util::{Fnv, Rng, ARCHS, PRECISIONS};
use crate::Stepper;
use pacq::llama::Model;
use pacq::{run_dse, Architecture, DseAxes, DsePlan, DseRow, GemmRunner, GroupShape, Shard};
use std::time::{Duration, Instant};

/// The paper's best PacQ-vs-standard EDP reduction at m16n4096k4096, %.
pub const PAPER_EDP_REDUCTION_PCT: f64 = 81.4;
/// The paper's Figure 7(b) mean PacQ speedup over `P(B_x)_k`.
pub const PAPER_FIG7B_SPEEDUP: f64 = 1.99;

/// Per-layer digests of every point's (job id, cycles, energy bits),
/// pinned from the reproduction's committed numbers.
const PINNED: &[(&str, &str)] = &[
    ("fig7b", "03d1384563c97fc6"),
    ("n1024k8192", "8bcff74eedccad57"),
    ("n11008k4096", "1b66be25c0124e97"),
    ("n13824k5120", "4dda380545410272"),
    ("n16384k4096", "8b5a2fd7759d506b"),
    ("n28672k8192", "59a1ca8794fb4dff"),
    ("n4096k11008", "1296d86a1e9ed9cb"),
    ("n4096k16384", "40825c3a16eb59b0"),
    ("n4096k4096", "68dd03b31e1a40d3"),
    ("n5120k13824", "134d3e22d9778420"),
    ("n5120k5120", "707b7aeade2fba9d"),
    ("n8192k28672", "0c3cae75e8d1cba9"),
    ("n8192k8192", "329f6284f43f3cb5"),
];

/// One `run_dse` call of the grid: an `n×k` layer or the Figure 7(b)
/// points.
pub struct Layer {
    /// `n{n}k{k}` or `fig7b`.
    pub label: String,
    /// The enumerated points.
    pub plan: DsePlan,
}

/// Every distinct `(n, k)` GEMM of the `Model::ALL` catalog.
pub fn catalog() -> Vec<(usize, usize)> {
    distinct(&Model::ALL)
}

/// The distinct `(n, k)` GEMMs of Llama2-7B alone (the reduced grid).
pub fn llama2_7b() -> Vec<(usize, usize)> {
    distinct(&[Model::Llama2_7b])
}

fn distinct(models: &[Model]) -> Vec<(usize, usize)> {
    let mut shapes = Vec::new();
    for model in models {
        for layer in model.layers(16) {
            let nk = (layer.shape.n, layer.shape.k);
            if !shapes.contains(&nk) {
                shapes.push(nk);
            }
        }
    }
    shapes
}

/// The grid over `shapes`: batch {16 decode, 512 prefill} × the four
/// dataflows × INT4/INT2 per layer, in a seed-shuffled layer order, plus
/// the Figure 7(b) m16n16k16/g16 points.
pub fn grid(shapes: &[(usize, usize)], seed: u64) -> Vec<Layer> {
    let mut shapes = shapes.to_vec();
    Rng::new(seed, 0xD5E).shuffle(&mut shapes);
    let axes = DseAxes {
        batch: vec![16, 512],
        arch: ARCHS.to_vec(),
        precision: PRECISIONS.to_vec(),
        ..DseAxes::defaults(4, 2, GroupShape::G128)
    };
    let mut layers: Vec<Layer> = shapes
        .into_iter()
        .map(|(n, k)| Layer {
            label: format!("n{n}k{k}"),
            plan: DsePlan::enumerate(&axes, n, k),
        })
        .collect();
    let fig7b = DseAxes {
        batch: vec![16],
        arch: vec![Architecture::PackedK, Architecture::Pacq],
        group: vec![GroupShape::along_k(16)],
        ..axes
    };
    layers.push(Layer {
        label: "fig7b".to_string(),
        plan: DsePlan::enumerate(&fig7b, 16, 16),
    });
    layers
}

/// What the dse phase measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Points priced over all passes.
    pub points: u64,
    /// Complete passes over the grid.
    pub passes: u64,
    /// Wall time of each layer's `run_dse` calls, one entry per pass.
    pub layer_s: Vec<Vec<f64>>,
    /// Points in one pass.
    pub points_per_pass: u64,
    /// Σ simulated cycles over one pass.
    pub sim_cycles_total: u64,
    /// Best PacQ-vs-std EDP reduction at m16n4096k4096, % (0 if the
    /// grid lacks that layer).
    pub edp_reduction_pct: f64,
    /// Figure 7(b) mean PacQ speedup over `P(B_x)_k`.
    pub fig7b_speedup: f64,
    /// Digest mismatches.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// Points per second of a pass priced at each layer's median
    /// `run_dse` time, which keeps a stall in one call from moving the
    /// figure.
    pub fn points_per_s(&self) -> f64 {
        let pass_s: f64 = self
            .layer_s
            .iter()
            .map(|t| crate::stats::median(t).unwrap_or(0.0))
            .sum();
        self.points_per_pass as f64 / pass_s.max(1e-12)
    }
}

/// The dse phase, advanced one layer's `run_dse` call at a time. The
/// first pass is checked against the pinned digests.
pub struct DseRun<'a> {
    grid: &'a [Layer],
    base: GemmRunner,
    next: usize,
    busy: Duration,
    /// What the phase measured so far.
    pub out: Outcome,
}

impl<'a> DseRun<'a> {
    /// A phase over `grid`, nothing priced yet.
    pub fn new(grid: &'a [Layer]) -> Self {
        DseRun {
            grid,
            base: GemmRunner::new(),
            next: 0,
            busy: Duration::ZERO,
            out: Outcome {
                layer_s: vec![Vec::new(); grid.len()],
                points_per_pass: grid.iter().map(|l| l.plan.jobs().len() as u64).sum(),
                ..Outcome::default()
            },
        }
    }
}

impl Stepper for DseRun<'_> {
    fn step(&mut self, tracer: &Tracer, parent: u64) {
        let layer = &self.grid[self.next];
        let span = tracer.span(format!("dse.run_dse.{}", layer.label), parent);
        let started = Instant::now();
        let result = run_dse(&self.base, &layer.plan, Shard::FULL, None);
        let took = started.elapsed();
        drop(span);
        self.busy += took;
        self.out.layer_s[self.next].push(took.as_secs_f64());
        match result {
            Ok(outcome) => {
                self.out.points += outcome.rows.len() as u64;
                if self.out.passes == 0 {
                    check_layer(layer, &outcome.rows, &mut self.out);
                }
            }
            Err(e) => self
                .out
                .mismatches
                .push(format!("dse {}: {e}", layer.label)),
        }
        self.next += 1;
        if self.next == self.grid.len() {
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

/// Checks one layer's rows against its pinned digest and takes the
/// simulated headline numbers from them.
fn check_layer(layer: &Layer, rows: &[DseRow], out: &mut Outcome) {
    let mut h = Fnv::default();
    for row in rows {
        let Some(report) = &row.report else {
            out.mismatches.push(format!(
                "dse {}: {} has no report",
                layer.label,
                row.job.id()
            ));
            continue;
        };
        out.sim_cycles_total += report.stats.total_cycles;
        h.eat(row.job.id().as_bytes());
        h.eat(&report.stats.total_cycles.to_le_bytes());
        h.eat(&report.total_energy_pj().to_bits().to_le_bytes());
    }
    let digest = h.hex();
    match PINNED.iter().find(|(label, _)| *label == layer.label) {
        Some((_, pinned)) if *pinned == digest => {}
        Some((_, pinned)) => out.mismatches.push(format!(
            "dse {}: digest {digest}, pinned {pinned}",
            layer.label
        )),
        None => out.mismatches.push(format!(
            "dse {}: digest {digest} is not pinned",
            layer.label
        )),
    }
    if layer.label == "n4096k4096" {
        out.edp_reduction_pct = edp_reduction_pct(rows);
    }
    if layer.label == "fig7b" {
        out.fig7b_speedup = fig7b_speedup(rows);
    }
}

fn find(
    rows: &[DseRow],
    m: usize,
    arch: Architecture,
    precision: pacq::WeightPrecision,
) -> Option<&pacq::GemmReport> {
    rows.iter()
        .find(|r| {
            r.job.arch == arch
                && r.job.workload.shape.m == m
                && r.job.workload.precision == precision
        })
        .and_then(|r| r.report.as_ref())
}

/// Best `1 − EDP(PacQ)/EDP(std)` over the precisions at batch 16, %.
fn edp_reduction_pct(rows: &[DseRow]) -> f64 {
    PRECISIONS
        .iter()
        .filter_map(|&p| {
            let pacq = find(rows, 16, Architecture::Pacq, p)?;
            let std = find(rows, 16, Architecture::StandardDequant, p)?;
            Some(100.0 * (1.0 - pacq.edp_pj_s / std.edp_pj_s))
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Mean over the precisions of `cycles(P(B_x)_k) / cycles(PacQ)`.
fn fig7b_speedup(rows: &[DseRow]) -> f64 {
    let speedups: Vec<f64> = PRECISIONS
        .iter()
        .filter_map(|&p| {
            let base = find(rows, 16, Architecture::PackedK, p)?;
            let pacq = find(rows, 16, Architecture::Pacq, p)?;
            Some(base.stats.total_cycles as f64 / pacq.stats.total_cycles as f64)
        })
        .collect();
    speedups.iter().sum::<f64>() / speedups.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_catalog_grid_has_every_distinct_layer() {
        let shapes = catalog();
        assert_eq!(shapes.len(), 12);
        assert!(shapes.contains(&(28672, 8192)));
        let g = grid(&shapes, 1);
        assert_eq!(g.len(), shapes.len() + 1);
        let points: usize = g.iter().map(|l| l.plan.jobs().len()).sum();
        assert_eq!(points, 12 * 2 * 4 * 2 + 4);
    }

    #[test]
    fn the_seed_only_reorders_layers() {
        let labels = |seed| {
            let mut v: Vec<String> = grid(&catalog(), seed)
                .into_iter()
                .map(|l| l.label)
                .collect();
            v.sort();
            v
        };
        assert_eq!(labels(1), labels(2));
    }
}
