//! The `pacq sweep --param` arms: fixed presets over the dse engine.
//!
//! Each arm is a fixed [`DseAxes`] preset over the base machine, run
//! through [`crate::dse::run_dse`] — so sharding, checkpointing, the
//! report cache and the worker pool are the dse engine's — plus its own
//! table renderer:
//!
//! - `grid`: [`DseAxes::defaults`] (batch {16…512} × {std, packedk,
//!   pacq} × {int4, int2}), one row per point; the only arm that takes
//!   `--shard` and `--checkpoint`;
//! - `batch`: batch {16…512} × {std, pacq} — PacQ's speedup and EDP
//!   reduction over the standard dequantizing core;
//! - `dup`: PacQ × adder-tree duplication {1, 2, 4} at the shape's batch;
//! - `width`: {PacQ, `P(B_x)_k`} × DP width {4, 8, 16} at the shape's
//!   batch.

use core::fmt::Write as _;

use crate::dse::{DseAxes, DseOutcome, EvalPoint};
use crate::report::GemmReport;
use crate::runner::GemmRunner;
use pacq_cache::{arch_token, precision_token, Shard};
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_simt::{Architecture, GemmShape};

/// One `pacq sweep --param` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepArm {
    /// The resumable, shardable batch × architecture × precision grid.
    Grid,
    /// PacQ against the standard core across batch sizes.
    Batch,
    /// PacQ across adder-tree duplications.
    Dup,
    /// PacQ and `P(B_x)_k` across DP widths.
    Width,
}

impl SweepArm {
    /// Parses the bare `--param` name.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for any other name.
    pub fn parse(name: &str) -> PacqResult<SweepArm> {
        match name {
            "grid" => Ok(SweepArm::Grid),
            "batch" => Ok(SweepArm::Batch),
            "dup" => Ok(SweepArm::Dup),
            "width" => Ok(SweepArm::Width),
            other => Err(PacqError::usage(format!(
                "unknown sweep parameter `{other}` (want batch, dup, width or grid; \
                 value lists belong to `pacq dse`)"
            ))),
        }
    }

    /// The arm's preset over `base`'s own width, dup and group geometry.
    /// `grid` walks both precisions; the other arms price `precision`,
    /// and `dup`/`width` only the shape's own batch.
    pub fn axes(self, base: &GemmRunner, shape: GemmShape, precision: WeightPrecision) -> DseAxes {
        let d = crate::cli::default_point(base, shape);
        let mut axes = DseAxes::defaults(d.width, d.dup, d.group);
        match self {
            SweepArm::Grid => return axes,
            SweepArm::Batch => {
                axes.arch = vec![Architecture::StandardDequant, Architecture::Pacq];
            }
            SweepArm::Dup => {
                axes.batch = vec![shape.m];
                axes.arch = vec![Architecture::Pacq];
                axes.dup = vec![1, 2, 4];
            }
            SweepArm::Width => {
                axes.batch = vec![shape.m];
                axes.arch = vec![Architecture::Pacq, Architecture::PackedK];
                axes.width = vec![4, 8, 16];
            }
        }
        axes.precision = vec![precision];
        axes
    }

    /// Renders the arm's table over a [`crate::dse::run_dse`] outcome of
    /// its preset; `shard` labels the grid's tally line.
    pub fn render(self, outcome: &DseOutcome, shard: Shard) -> String {
        let mut out = String::new();
        // Only the grid arm resumes from checkpoints, so the other arms
        // always see a report on every row.
        let priced: Vec<(&EvalPoint, &GemmReport)> = outcome
            .rows
            .iter()
            .filter_map(|r| r.report.as_ref().map(|rep| (&r.job, rep)))
            .collect();
        match self {
            // Rows print in grid order; points other shards own are
            // omitted, checkpointed ones print as `done (resumed)`.
            SweepArm::Grid => {
                let _ = writeln!(
                    out,
                    "{:<24} {:>14} {:>14} {:>14}",
                    "job", "cycles", "energy (uJ)", "EDP (pJ*s)"
                );
                for row in &outcome.rows {
                    let s = row.job.workload.shape;
                    let id = format!(
                        "{}:{}:m{}n{}k{}",
                        arch_token(row.job.arch),
                        precision_token(row.job.workload.precision),
                        s.m,
                        s.n,
                        s.k
                    );
                    match &row.report {
                        Some(r) => {
                            let _ = writeln!(
                                out,
                                "{id:<24} {:>14} {:>14.2} {:>14.6}",
                                r.stats.total_cycles,
                                r.total_energy_pj() / 1e6,
                                r.edp_pj_s,
                            );
                        }
                        None => {
                            let _ = writeln!(out, "{id:<24} {:>14}", "done (resumed)");
                        }
                    }
                }
                let t = outcome.tally;
                let _ = writeln!(
                    out,
                    "grid: {} jobs, shard {shard} selected {}, resumed {}, executed {}",
                    t.total, t.selected, t.skipped, t.executed
                );
            }
            SweepArm::Batch => {
                let _ = writeln!(
                    out,
                    "{:<8} {:>14} {:>14} {:>14}",
                    "batch", "PacQ cycles", "speedup v std", "EDP reduction"
                );
                for pair in priced.chunks(2) {
                    let [(_, std), (_, pq)] = pair else {
                        // chunks(2) over (std, pacq) pairs always yields pairs.
                        continue;
                    };
                    let _ = writeln!(
                        out,
                        "{:<8} {:>14} {:>13.2}x {:>13.1}%",
                        pq.workload.shape.m,
                        pq.stats.total_cycles,
                        pq.speedup_over(std),
                        100.0 * (1.0 - pq.edp_normalized_to(std)),
                    );
                }
            }
            SweepArm::Dup => {
                let _ = writeln!(
                    out,
                    "{:<6} {:>14} {:>16}",
                    "dup", "PacQ cycles", "TC power (units)"
                );
                for (point, r) in &priced {
                    let unit = pacq_energy::GemmUnit::ParallelDp {
                        width: point.width,
                        duplication: point.dup,
                    };
                    let _ = writeln!(
                        out,
                        "{:<6} {:>14} {:>16.2}",
                        point.dup,
                        r.stats.total_cycles,
                        unit.power_units()
                    );
                }
            }
            SweepArm::Width => {
                let _ = writeln!(
                    out,
                    "{:<8} {:>14} {:>14}",
                    "width", "PacQ cycles", "P(B)k cycles"
                );
                // The arch axis is outermost: PacQ's widths, then P(B)k's.
                let (pacq, packedk) = priced.split_at(priced.len() / 2);
                for ((point, pq), (_, pk)) in pacq.iter().zip(packedk) {
                    let _ = writeln!(
                        out,
                        "DP-{:<5} {:>14} {:>14}",
                        point.width, pq.stats.total_cycles, pk.stats.total_cycles
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{run_dse, DsePlan};
    use pacq_cache::SweepCheckpoint;

    /// The `grid` preset over an n = k = 256 layer on `base`.
    fn grid(base: &GemmRunner) -> DsePlan {
        let shape = GemmShape::new(16, 256, 256);
        DsePlan::enumerate(
            &SweepArm::Grid.axes(base, shape, WeightPrecision::Int4),
            256,
            256,
        )
    }

    #[test]
    fn default_grid_is_deterministic_and_fully_enumerated() {
        let a = grid(&GemmRunner::new());
        let b = grid(&GemmRunner::new());
        assert_eq!(a.jobs().len(), 6 * 3 * 2);
        assert_eq!(a.digest(), b.digest());
        // Ids are unique (they double as checkpoint records).
        let mut ids: Vec<String> = a.jobs().iter().map(EvalPoint::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), a.jobs().len());
        // And newline-free with no trailing terminator ambiguity.
        assert!(ids
            .iter()
            .all(|id| !id.contains('\n') && !id.ends_with('.')));
    }

    #[test]
    fn digest_is_order_sensitive() {
        // The same point set enumerated in another order is another grid:
        // point indices (shards) and row order both move with it.
        let base = GemmRunner::new();
        let shape = GemmShape::new(16, 256, 256);
        let mut axes = SweepArm::Grid.axes(&base, shape, WeightPrecision::Int4);
        let forward = DsePlan::enumerate(&axes, 256, 256);
        axes.batch.reverse();
        axes.arch.reverse();
        let reversed = DsePlan::enumerate(&axes, 256, 256);
        let mut a: Vec<String> = forward.jobs().iter().map(EvalPoint::id).collect();
        let mut b: Vec<String> = reversed.jobs().iter().map(EvalPoint::id).collect();
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b, "same point set");
        assert_ne!(forward.digest(), reversed.digest());
        assert_ne!(
            forward.binding_digest(&base),
            reversed.binding_digest(&base)
        );
    }

    #[test]
    fn shards_partition_and_reunite_the_grid() {
        let runner = GemmRunner::new();
        let plan = grid(&runner);
        let full = run_dse(&runner, &plan, Shard::FULL, None).unwrap();
        assert_eq!(full.tally.executed, plan.jobs().len());

        let n = 3;
        let mut union: Vec<String> = Vec::new();
        for i in 1..=n {
            let shard = Shard { index: i, count: n };
            let out = run_dse(&runner, &plan, shard, None).unwrap();
            assert_eq!(out.tally.selected, out.tally.executed);
            union.extend(out.rows.iter().map(|r| r.job.id()));
        }
        let mut expected: Vec<String> = plan.jobs().iter().map(EvalPoint::id).collect();
        union.sort();
        expected.sort();
        assert_eq!(union, expected, "shards must union to the full grid");
    }

    #[test]
    fn checkpoint_resume_skips_completed_jobs() {
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let runner = GemmRunner::new();
        let plan = grid(&runner);

        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
            run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        assert_eq!(first.tally.executed, plan.jobs().len());

        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
        let second = run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, plan.jobs().len());
        assert!(second.rows.iter().all(|r| r.report.is_none()));
        // The grid table marks every resumed row.
        let table = SweepArm::Grid.render(&second, Shard::FULL);
        assert_eq!(table.matches("done (resumed)").count(), plan.jobs().len());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpointed_rows_rehydrate_from_an_attached_cache() {
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("pacq-sweep-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-rehydrate-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let cache = Arc::new(pacq_cache::ReportCache::open(&dir).unwrap());
        let runner = GemmRunner::new().with_cache(Arc::clone(&cache));
        let plan = grid(&runner);
        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
            run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap();
        let second = run_dse(&runner, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, plan.jobs().len());
        for (f, s) in first.rows.iter().zip(&second.rows) {
            let fresh = f.report.as_ref().unwrap();
            let rehydrated = s.report.as_ref().expect("skipped row rehydrates");
            assert_eq!(fresh.edp_pj_s.to_bits(), rehydrated.edp_pj_s.to_bits());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_binding_covers_runner_provenance() {
        // The checkpoint-binding regression: a checkpoint written under
        // one (grid × machine × template × backend) must refuse to
        // resume under any other, with a typed error — not silently
        // skip points priced by a different machine.
        use pacq_fp16::Backend;
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-binding-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let runner = GemmRunner::new();
        let plan = grid(&runner);
        drop(SweepCheckpoint::open(&path, &plan.binding_digest(&runner)).unwrap());

        let variants = [
            GemmRunner::new().with_backend(Backend::Batched),
            GemmRunner::new().with_template_digest("deadbeef"),
            GemmRunner::new().with_config(pacq_simt::SmConfig {
                adder_tree_duplication: 4,
                ..pacq_simt::SmConfig::volta_like()
            }),
        ];
        for (i, other) in variants.iter().enumerate() {
            let digest = plan.binding_digest(other);
            assert_ne!(digest, plan.binding_digest(&runner), "variant {i}");
            let err = SweepCheckpoint::open(&path, &digest).unwrap_err();
            assert_eq!(err.exit_code(), 4, "variant {i}: {err}");
            assert!(err.to_string().contains("checkpoint"), "variant {i}: {err}");
        }

        // And a different grid over the same runner also refuses.
        let other_grid = DsePlan::enumerate(
            &SweepArm::Grid.axes(&runner, GemmShape::new(16, 512, 512), WeightPrecision::Int4),
            512,
            512,
        );
        assert!(SweepCheckpoint::open(&path, &other_grid.binding_digest(&runner)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_bound_to_the_retired_sweep_ids_are_refused() {
        // `sweep --param grid --shape m16n256k256 --checkpoint F` used to
        // bind F to a digest over `arch:precision:mMnNkK` job ids. The
        // binding now covers EvalPoint ids, so such a file is a typed
        // exit-4 mismatch, never a silent resume.
        let path =
            std::env::temp_dir().join(format!("pacq-sweep-retired-{}.ckpt", std::process::id()));
        std::fs::write(
            &path,
            "pacq-sweep-checkpoint/v1 1b4f15ed5c61779f3fc909d9325b3eae\nstd:int4:m16n256k256.\n",
        )
        .unwrap();
        let args: Vec<String> = [
            "sweep",
            "--param",
            "grid",
            "--shape",
            "m16n256k256",
            "--checkpoint",
            path.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = crate::cli::run(&args).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
