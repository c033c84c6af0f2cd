//! The grid engine behind `pacq dse` and every `pacq sweep` arm.
//!
//! A search is a deterministically ordered list of [`EvalPoint`]s:
//! batch sizes, dataflows (architectures), weight precisions, DP widths,
//! adder-tree duplications and group geometries, all over a base
//! machine described by an architecture template (or the builtin
//! Volta-like configuration). Three orthogonal mechanisms make big grids
//! cheap to run and safe to interrupt:
//!
//! - **sharding** ([`Shard`], `--shard i/N`): each invocation owns a
//!   residue class of point indices, so N machines (or N CI lanes) split
//!   one grid with no coordination beyond the flag;
//! - **checkpointing** ([`SweepCheckpoint`], `--checkpoint FILE`): an
//!   append-only record of completed point ids, bound to the (grid ×
//!   machine × template × backend) digest, so a killed run resumes where
//!   it stopped;
//! - **result caching** ([`pacq_cache::ReportCache`], `--cache DIR`,
//!   attached to the base runner): completed points are memoized
//!   content-addressed, so even a checkpoint-less re-run pays only
//!   lookups.
//!
//! All three compose with the rayon worker pool: selection and
//! skip-filtering happen up front, execution fans out in parallel, and
//! rows come back in grid order regardless of completion order.
//!
//! Axes are spelled as repeated `--param name=v1,v2,...` flags (see
//! [`crate::params`]); every axis the user does not name keeps its
//! default, which is exactly the `sweep --param grid` preset (see
//! [`crate::sweep`]).

use rayon::prelude::*;

use crate::params::ParamSpec;
use crate::report::GemmReport;
use crate::runner::GemmRunner;
use pacq_cache::{grid_digest, Shard, SweepCheckpoint};
use pacq_error::{PacqError, PacqResult};
use pacq_fp16::WeightPrecision;
use pacq_quant::GroupShape;
use pacq_simt::{Architecture, GemmShape, Workload};

fn err(msg: impl Into<String>) -> PacqError {
    PacqError::usage(msg)
}

/// A tile-mapping coordinate: one loop-order permutation of the m/n/k
/// warp-tile walk, optionally qualified by a warp-tile shape.
///
/// The innermost loop decides which operand stays resident in the
/// tensor-core buffers while the other two stream, so each permutation
/// canonicalizes onto one of the simulated stationarity classes:
///
/// - inner `m` — B fixed while m varies: weight-stationary, the
///   `P(B_x)_k` machine ([`Architecture::PackedK`]);
/// - inner `n` — A fixed while n varies: input-stationary
///   ([`Architecture::InputStationary`]);
/// - inner `k` — C accumulates in place: output-stationary, PacQ
///   ([`Architecture::Pacq`]).
///
/// Two permutations sharing an innermost loop (e.g. `mnk` and `nmk`)
/// differ only in which *outer* tile loop advances first; the per-tile
/// traffic and timing counters are identical, so the search prices them
/// as counter-equivalent duplicates — visible as repeated rows, which
/// the Pareto front's id tie-break keeps deterministic.
///
/// The optional `@MxN` suffix names the warp-tile shape. Only `@16x16`
/// is legal: the datapath executes `mma.m16n16k16` warp tiles as a 2×2
/// grid of 8×8 octets, so any other shape has no octet decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The loop order, outermost first — a permutation of `[m, n, k]`
    /// stored as the three ASCII letters.
    perm: [u8; 3],
}

impl Mapping {
    /// Parses `perm[@MxN]`, e.g. `mnk`, `knm@16x16`.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] when the permutation is not one of
    /// the six orderings of `mnk`, or the warp-tile suffix names any
    /// shape other than `16x16`.
    pub fn parse(text: &str) -> PacqResult<Mapping> {
        let (perm_text, tile) = match text.split_once('@') {
            Some((p, t)) => (p, Some(t)),
            None => (text, None),
        };
        if let Some(tile) = tile {
            if tile != "16x16" {
                return Err(err(format!(
                    "--param mapping: warp tile `@{tile}` is not executable — the datapath \
                     runs mma.m16n16k16 warp tiles (a 2x2 grid of 8x8 octets), so only \
                     @16x16 is legal"
                )));
            }
        }
        let bytes = perm_text.as_bytes();
        let mut seen = [false; 3];
        if bytes.len() == 3 {
            for &b in bytes {
                match b {
                    b'm' => seen[0] = true,
                    b'n' => seen[1] = true,
                    b'k' => seen[2] = true,
                    _ => {}
                }
            }
        }
        if seen != [true; 3] {
            return Err(err(format!(
                "--param mapping: `{perm_text}` is not a loop order; expected a permutation \
                 of `mnk` (e.g. mnk, nkm), optionally with `@16x16`"
            )));
        }
        Ok(Mapping {
            perm: [bytes[0], bytes[1], bytes[2]],
        })
    }

    /// The stationarity class this loop order canonicalizes onto (see
    /// the type docs for the innermost-loop derivation).
    pub fn architecture(&self) -> Architecture {
        match self.perm[2] {
            b'm' => Architecture::PackedK,
            b'n' => Architecture::InputStationary,
            _ => Architecture::Pacq,
        }
    }
}

impl core::fmt::Display for Mapping {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for &b in &self.perm {
            f.write_str(match b {
                b'm' => "m",
                b'n' => "n",
                _ => "k",
            })?;
        }
        Ok(())
    }
}

/// The search axes of one dse invocation. Axis order inside each list
/// is significant (it defines job enumeration order and therefore row
/// order, shard classes and the checkpoint binding).
#[derive(Debug, Clone, PartialEq)]
pub struct DseAxes {
    /// Batch sizes (`m` extents).
    pub batch: Vec<usize>,
    /// Architectures (dataflows) to simulate.
    pub arch: Vec<Architecture>,
    /// Weight precisions.
    pub precision: Vec<WeightPrecision>,
    /// DP widths.
    pub width: Vec<usize>,
    /// Adder-tree duplications.
    pub dup: Vec<usize>,
    /// Quantization group geometries.
    pub group: Vec<GroupShape>,
    /// Tile mappings (loop orders). Empty means the axis is off and the
    /// `arch` axis drives the architecture loop; non-empty, each mapping
    /// derives its architecture from its innermost loop and `arch` must
    /// not also be named (the two would fight over the same coordinate).
    pub mapping: Vec<Mapping>,
}

impl DseAxes {
    /// The default axes over a base machine: the `sweep --param grid`
    /// batch × architecture × precision product, with width / dup /
    /// group pinned to the machine's own values.
    pub fn defaults(base_width: usize, base_dup: usize, base_group: GroupShape) -> DseAxes {
        DseAxes {
            batch: vec![16, 32, 64, 128, 256, 512],
            arch: vec![
                Architecture::StandardDequant,
                Architecture::PackedK,
                Architecture::Pacq,
            ],
            precision: vec![WeightPrecision::Int4, WeightPrecision::Int2],
            width: vec![base_width],
            dup: vec![base_dup],
            group: vec![base_group],
            mapping: Vec::new(),
        }
    }

    /// Applies validated `--param name=v1,v2` specs onto the defaults.
    ///
    /// # Errors
    ///
    /// Returns [`PacqError::Usage`] for an unknown axis name, a bare
    /// spec with no values, or an unparseable value (each axis reuses
    /// the corresponding single-flag parser, so `--param arch=pacq`
    /// accepts exactly what `--arch pacq` does).
    pub fn apply(&mut self, specs: &[ParamSpec]) -> PacqResult<()> {
        let named = |axis: &str| specs.iter().any(|s| s.name == axis);
        if named("arch") && named("mapping") {
            return Err(err(
                "--param arch conflicts with --param mapping: a mapping's innermost loop \
                 already determines the architecture (inner m = packedk, inner n = is, \
                 inner k = pacq); name one axis or the other",
            ));
        }
        for spec in specs {
            if spec.values.is_empty() {
                return Err(err(format!(
                    "--param {}: dse wants values, e.g. --param {}=...",
                    spec.name, spec.name
                )));
            }
            let values = &spec.values;
            match spec.name.as_str() {
                "batch" => {
                    self.batch = values
                        .iter()
                        .map(|v| {
                            let m: usize = v
                                .parse()
                                .map_err(|_| err(format!("--param batch: bad batch `{v}`")))?;
                            if m == 0 || !m.is_multiple_of(16) {
                                return Err(err(format!(
                                    "--param batch: batch `{v}` must be a non-zero multiple of 16"
                                )));
                            }
                            Ok(m)
                        })
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "arch" => {
                    self.arch = values
                        .iter()
                        .map(|v| crate::cli::parse_arch(v))
                        .collect::<PacqResult<Vec<Architecture>>>()?;
                }
                "precision" => {
                    self.precision = values
                        .iter()
                        .map(|v| crate::cli::parse_precision(v))
                        .collect::<PacqResult<Vec<WeightPrecision>>>()?;
                }
                "width" => {
                    self.width = values
                        .iter()
                        .map(|v| match v.parse() {
                            Ok(w @ (4 | 8 | 16)) => Ok(w),
                            _ => Err(err(format!("--param width: `{v}` must be 4, 8 or 16"))),
                        })
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "dup" => {
                    self.dup = values
                        .iter()
                        .map(|v| match v.parse() {
                            Ok(d @ (1 | 2 | 4)) => Ok(d),
                            _ => Err(err(format!("--param dup: `{v}` must be 1, 2 or 4"))),
                        })
                        .collect::<PacqResult<Vec<usize>>>()?;
                }
                "group" => {
                    self.group = values
                        .iter()
                        .map(|v| crate::cli::parse_group(v))
                        .collect::<PacqResult<Vec<GroupShape>>>()?;
                }
                "mapping" => {
                    self.mapping = values
                        .iter()
                        .map(|v| Mapping::parse(v))
                        .collect::<PacqResult<Vec<Mapping>>>()?;
                }
                other => {
                    return Err(err(format!(
                        "--param {other}: unknown dse axis (batch, arch, precision, width, dup, group, mapping)"
                    )))
                }
            }
        }
        Ok(())
    }
}

/// One evaluation point: a full (workload × architecture × datapath ×
/// group) coordinate over a base machine. Grid rows, served requests
/// and loadgen's in-process references are all priced through
/// [`EvalPoint::runner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// The architecture (dataflow) to simulate.
    pub arch: Architecture,
    /// The workload (batch × layer × precision).
    pub workload: Workload,
    /// DP width for this point.
    pub width: usize,
    /// Adder-tree duplication for this point.
    pub dup: usize,
    /// Quantization group geometry for this point.
    pub group: GroupShape,
    /// The tile mapping this point came from, when the search ran over
    /// the mapping axis (`arch` is then derived from it).
    pub mapping: Option<Mapping>,
}

impl EvalPoint {
    /// The point's stable id — checkpoint line format, newline-free. A
    /// mapping-axis point appends its loop order (`...:g128:nkm`), so
    /// two counter-equivalent permutations stay distinct rows.
    pub fn id(&self) -> String {
        let mut id = format!(
            "b{}:{}:{}:w{}:d{}:{}",
            self.workload.shape.m,
            pacq_cache::arch_token(self.arch),
            pacq_cache::precision_token(self.workload.precision),
            self.width,
            self.dup,
            self.group,
        );
        if let Some(mapping) = &self.mapping {
            id.push(':');
            let _ = core::fmt::write(&mut id, format_args!("{mapping}"));
        }
        id
    }

    /// The runner pricing this point: `base` with the point's DP width,
    /// adder-tree duplication and group geometry overridden. The base's
    /// machine capacities, energy model, template identity, cache handle
    /// and backend all carry over, so cache keys and checkpoint bindings
    /// see the machine behind every point.
    pub fn runner(&self, base: &GemmRunner) -> GemmRunner {
        let mut cfg = *base.config();
        cfg.dp_width = self.width;
        cfg.adder_tree_duplication = self.dup;
        base.clone().with_config(cfg).with_group(self.group)
    }
}

/// A fully enumerated dse search with a content digest binding
/// checkpoints to it.
#[derive(Debug, Clone)]
pub struct DsePlan {
    jobs: Vec<EvalPoint>,
}

impl DsePlan {
    /// Enumerates the axis product over an `n×k` layer, nesting (outer
    /// to inner) batch, arch-or-mapping, precision, width, dup, group.
    /// With the mapping axis on, each mapping takes the arch loop's
    /// slot and supplies its derived architecture — the default grid
    /// (mapping off) is untouched, byte for byte.
    pub fn enumerate(axes: &DseAxes, n: usize, k: usize) -> DsePlan {
        let arch_points: Vec<(Architecture, Option<Mapping>)> = if axes.mapping.is_empty() {
            axes.arch.iter().map(|&a| (a, None)).collect()
        } else {
            axes.mapping
                .iter()
                .map(|&mapping| (mapping.architecture(), Some(mapping)))
                .collect()
        };
        let mut jobs = Vec::new();
        for &m in &axes.batch {
            for &(arch, mapping) in &arch_points {
                for &precision in &axes.precision {
                    for &width in &axes.width {
                        for &dup in &axes.dup {
                            for &group in &axes.group {
                                jobs.push(EvalPoint {
                                    arch,
                                    workload: Workload::new(GemmShape::new(m, n, k), precision),
                                    width,
                                    dup,
                                    group,
                                    mapping,
                                });
                            }
                        }
                    }
                }
            }
        }
        DsePlan { jobs }
    }

    /// The search's jobs in enumeration order.
    pub fn jobs(&self) -> &[EvalPoint] {
        &self.jobs
    }

    /// A digest over every point id and its layer (order-sensitive).
    /// Ids name the batch but not the `n×k` layer, so the layer is
    /// folded in here: a checkpoint written for one layer must not
    /// resume a search over another.
    pub fn digest(&self) -> String {
        let lines: Vec<String> = self
            .jobs
            .iter()
            .map(|p| format!("{} n{}k{}", p.id(), p.workload.shape.n, p.workload.shape.k))
            .collect();
        grid_digest(&lines.join("\n"))
    }

    /// The checkpoint binding: this search's digest plus the *base*
    /// runner's full provenance ([`GemmRunner::provenance`] — machine
    /// configuration, group geometry, numerics mode, template identity
    /// and backend). Point ids alone under-bind: a checkpoint written
    /// under one machine (a different `--dup`, an edited template, a
    /// different backend) would otherwise satisfy a resume under another,
    /// skip every point and splice rows priced by two machines into one
    /// table; binding the base makes that a typed
    /// [`PacqError::InvalidInput`] at open time instead. Per-point
    /// width/dup/group variations are already in the ids.
    pub fn binding_digest(&self, base: &GemmRunner) -> String {
        grid_digest(&format!(
            "{grid}\n{provenance}",
            grid = self.digest(),
            provenance = base.provenance()
        ))
    }
}

/// One completed (or checkpoint-skipped) dse row.
#[derive(Debug, Clone)]
pub struct DseRow {
    /// The design point this row answers.
    pub job: EvalPoint,
    /// The report. `None` only when the checkpoint records the job as
    /// done *and* no attached `--cache` store still holds its report —
    /// resumed rows are rehydrated from the cache whenever possible, so
    /// rankings over a resumed run stay complete.
    pub report: Option<GemmReport>,
}

/// The best completed row by EDP, ties broken by lexicographic job id —
/// so the winner is a pure function of the row *set*, byte-identical
/// across `--jobs` counts, shard interleavings and resume histories.
/// Rows without a report (resumed, not rehydratable) don't compete; the
/// caller is responsible for flagging the ranking as partial then.
pub fn best_edp(rows: &[DseRow]) -> Option<(&EvalPoint, &GemmReport)> {
    rows.iter()
        .filter_map(|r| r.report.as_ref().map(|rep| (&r.job, rep)))
        .min_by(|a, b| {
            a.1.edp_pj_s
                .total_cmp(&b.1.edp_pj_s)
                .then_with(|| a.0.id().cmp(&b.0.id()))
        })
}

/// Aggregate accounting for one grid run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepTally {
    /// Points in the full grid.
    pub total: usize,
    /// Points this shard owns.
    pub selected: usize,
    /// Owned points skipped because the checkpoint already records them.
    pub skipped: usize,
    /// Owned points actually analyzed this run.
    pub executed: usize,
}

/// The result of [`run_dse`]: rows in enumeration order (restricted to
/// this shard) plus the selection/skip/execution tally.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// This shard's rows, in enumeration order.
    pub rows: Vec<DseRow>,
    /// Selection/skip/execution accounting.
    pub tally: SweepTally,
}

/// Runs `plan` against the base runner, pricing each point through
/// [`EvalPoint::runner`]. Executed points fan out on the rayon pool;
/// rows return in enumeration order. Each completed point is appended
/// to the checkpoint before the run returns, so an interrupt after this
/// function loses nothing.
///
/// # Errors
///
/// Returns the first failing job's error in enumeration order, or a
/// checkpoint I/O error.
pub fn run_dse(
    base: &GemmRunner,
    plan: &DsePlan,
    shard: Shard,
    checkpoint: Option<&SweepCheckpoint>,
) -> PacqResult<DseOutcome> {
    let _span = pacq_trace::span("core.dse");
    let mut tally = SweepTally {
        total: plan.jobs().len(),
        ..SweepTally::default()
    };

    let mut skipped_rows = Vec::new();
    let mut to_run = Vec::new();
    for (index, job) in plan.jobs().iter().enumerate() {
        if !shard.selects(index) {
            continue;
        }
        tally.selected += 1;
        if checkpoint.is_some_and(|c| c.is_done(&job.id())) {
            tally.skipped += 1;
            // A resumed job's report usually still sits in the --cache
            // store (the first pass wrote it there); rehydrate it so
            // best-EDP/Pareto rankings over the resumed run see every
            // row instead of silently excluding the resumed ones.
            let report = job.runner(base).cached_report(job.arch, job.workload);
            skipped_rows.push((index, DseRow { job: *job, report }));
        } else {
            tally.executed += 1;
            to_run.push((index, *job));
        }
    }

    let reports: Vec<PacqResult<(usize, DseRow)>> = to_run
        .into_par_iter()
        .map(|(index, job)| {
            let report = job.runner(base).analyze(job.arch, job.workload)?;
            if let Some(c) = checkpoint {
                c.mark_done(&job.id())?;
            }
            Ok((
                index,
                DseRow {
                    job,
                    report: Some(report),
                },
            ))
        })
        .collect();

    let mut rows = reports
        .into_iter()
        .collect::<PacqResult<Vec<(usize, DseRow)>>>()?;
    rows.extend(skipped_rows);
    rows.sort_by_key(|(index, _)| *index);

    pacq_trace::add_counter("dse.jobs.total", tally.total as u64);
    pacq_trace::add_counter("dse.jobs.selected", tally.selected as u64);
    pacq_trace::add_counter("dse.jobs.skipped", tally.skipped as u64);
    pacq_trace::add_counter("dse.jobs.executed", tally.executed as u64);

    Ok(DseOutcome {
        rows: rows.into_iter().map(|(_, row)| row).collect(),
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::parse_params;

    fn default_axes() -> DseAxes {
        DseAxes::defaults(4, 2, GroupShape::G128)
    }

    #[test]
    fn params_reshape_the_axes() {
        let mut axes = default_axes();
        let specs = parse_params(&[
            "batch=16,32".to_string(),
            "arch=pacq".to_string(),
            "width=4,8".to_string(),
            "dup=1,4".to_string(),
            "group=g64".to_string(),
        ])
        .unwrap();
        axes.apply(&specs).unwrap();
        assert_eq!(axes.batch, [16, 32]);
        assert_eq!(axes.arch, [Architecture::Pacq]);
        assert_eq!(axes.width, [4, 8]);
        assert_eq!(axes.dup, [1, 4]);
        let plan = DsePlan::enumerate(&axes, 256, 256);
        // 2 batches × 1 arch × 2 precisions × 2 widths × 2 dups × 1 group.
        assert_eq!(plan.jobs().len(), 16);
        // Ids are unique and carry every coordinate.
        let mut ids: Vec<String> = plan.jobs().iter().map(EvalPoint::id).collect();
        assert!(ids[0].starts_with("b16:pacq:int4:w4:d1:g64"), "{}", ids[0]);
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn bad_axis_specs_are_usage_errors() {
        for spec in [
            "batch",          // bare name: dse wants values
            "batch=15",       // not 16-aligned
            "batch=0",        // zero
            "width=5",        // out of domain
            "dup=3",          // out of domain
            "arch=quantum",   // unknown arch
            "precision=int5", // unknown precision
            "group=h128",     // unknown group
            "tile=4",         // unknown axis
        ] {
            let mut axes = default_axes();
            let specs = parse_params(&[spec.to_string()]).unwrap();
            let e = axes.apply(&specs).unwrap_err();
            assert!(e.is_usage(), "{spec}: {e}");
            assert_eq!(e.exit_code(), 2, "{spec}");
        }
    }

    #[test]
    fn checkpoint_binding_covers_the_base_runner() {
        use pacq_fp16::Backend;
        let path =
            std::env::temp_dir().join(format!("pacq-dse-binding-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let plan = DsePlan::enumerate(&default_axes(), 256, 256);
        let base = GemmRunner::new();
        drop(SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap());

        for other in [
            GemmRunner::new().with_backend(Backend::Batched),
            GemmRunner::new().with_template_digest("deadbeef"),
            GemmRunner::new().with_config(pacq_simt::SmConfig {
                adder_tree_duplication: 4,
                ..pacq_simt::SmConfig::volta_like()
            }),
        ] {
            let e = SweepCheckpoint::open(&path, &plan.binding_digest(&other)).unwrap_err();
            assert_eq!(e.exit_code(), 4, "{e}");
        }
        // Ids carry no layer, so the plan digest must: the same axes
        // over another n×k layer are another search.
        let other_layer = DsePlan::enumerate(&default_axes(), 512, 512);
        let e = SweepCheckpoint::open(&path, &other_layer.binding_digest(&base)).unwrap_err();
        assert_eq!(e.exit_code(), 4, "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapping_axis_parses_loop_orders_and_derives_the_dataflow() {
        for (text, arch) in [
            ("mnk", Architecture::Pacq),
            ("nmk", Architecture::Pacq),
            ("mkn", Architecture::InputStationary),
            ("kmn", Architecture::InputStationary),
            ("nkm", Architecture::PackedK),
            ("knm", Architecture::PackedK),
            ("knm@16x16", Architecture::PackedK),
        ] {
            let m = Mapping::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(m.architecture(), arch, "{text}");
        }
        for bad in [
            "mn",
            "mnkk",
            "mnx",
            "abc",
            "",
            "mnk@8x8",
            "mnk@16x32",
            "@16x16",
        ] {
            let e = Mapping::parse(bad).unwrap_err();
            assert!(e.is_usage(), "{bad}: {e}");
        }
        // The warp-tile error names the constraint.
        let e = Mapping::parse("mnk@8x8").unwrap_err();
        assert!(e.to_string().contains("mma.m16n16k16"), "{e}");
    }

    #[test]
    fn mapping_axis_enumerates_and_conflicts_with_arch() {
        let mut axes = default_axes();
        axes.batch = vec![16];
        let specs = parse_params(&["mapping=mnk,mkn,nkm".to_string()]).unwrap();
        axes.apply(&specs).unwrap();
        let plan = DsePlan::enumerate(&axes, 256, 256);
        // 1 batch × 3 mappings × 2 precisions.
        assert_eq!(plan.jobs().len(), 6);
        let ids: Vec<String> = plan.jobs().iter().map(EvalPoint::id).collect();
        assert!(
            ids[0].starts_with("b16:pacq:int4:w4:d2:g128:mnk"),
            "{}",
            ids[0]
        );
        assert!(ids.iter().any(|i| i.ends_with(":mkn")), "{ids:?}");
        assert!(ids.iter().any(|i| i.contains(":is:")), "{ids:?}");
        assert!(ids.iter().any(|i| i.contains(":packedk:")), "{ids:?}");

        // mapping + arch fight over the same coordinate: usage error.
        let mut axes = default_axes();
        let specs = parse_params(&["mapping=mnk".to_string(), "arch=pacq".to_string()]).unwrap();
        let e = axes.apply(&specs).unwrap_err();
        assert!(e.is_usage(), "{e}");
        assert!(e.to_string().contains("mapping"), "{e}");
    }

    #[test]
    fn counter_equivalent_permutations_price_identically() {
        // `mnk` and `nmk` share the innermost k loop: same stationarity
        // class, so the search prices them as duplicates of PacQ.
        let mut axes = default_axes();
        axes.batch = vec![16];
        axes.precision = vec![pacq_fp16::WeightPrecision::Int4];
        axes.apply(&parse_params(&["mapping=mnk,nmk".to_string()]).unwrap())
            .unwrap();
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let out = run_dse(&GemmRunner::new(), &plan, Shard::FULL, None).unwrap();
        let [a, b] = &out.rows[..] else {
            panic!("expected 2 rows, got {}", out.rows.len())
        };
        assert_ne!(a.job.id(), b.job.id());
        let (ra, rb) = (a.report.as_ref().unwrap(), b.report.as_ref().unwrap());
        assert_eq!(ra.stats, rb.stats);
        assert_eq!(ra.edp_pj_s.to_bits(), rb.edp_pj_s.to_bits());
    }

    #[test]
    fn best_edp_breaks_ties_by_job_id() {
        // Two counter-equivalent permutations produce bit-identical
        // EDPs; the winner must be the lexicographically first id, not
        // whichever row a thread finished first.
        let mut axes = default_axes();
        axes.batch = vec![16];
        axes.precision = vec![pacq_fp16::WeightPrecision::Int4];
        axes.apply(&parse_params(&["mapping=nmk,mnk".to_string()]).unwrap())
            .unwrap();
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let out = run_dse(&GemmRunner::new(), &plan, Shard::FULL, None).unwrap();
        let (job, _) = best_edp(&out.rows).unwrap();
        assert!(job.id().ends_with(":mnk"), "{}", job.id());

        // And reversing row order must not move the winner.
        let mut reversed = out.rows.clone();
        reversed.reverse();
        let (again, _) = best_edp(&reversed).unwrap();
        assert_eq!(again.id(), job.id());

        assert!(best_edp(&[]).is_none());
    }

    #[test]
    fn resumed_rows_rehydrate_from_the_cache() {
        // The resume-then-rank regression: a second pass over a full
        // checkpoint used to return report-less rows, silently dropping
        // every resumed point from best-EDP rankings. With a cache
        // attached, the skipped rows now rehydrate to the first pass's
        // exact reports.
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("pacq-dse-rehydrate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path =
            std::env::temp_dir().join(format!("pacq-dse-rehydrate-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut axes = default_axes();
        axes.batch = vec![16, 32];
        axes.arch = vec![Architecture::Pacq, Architecture::InputStationary];
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let cache = Arc::new(pacq_cache::ReportCache::open(&dir).unwrap());
        let base = GemmRunner::new().with_cache(Arc::clone(&cache));

        let first = {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
            run_dse(&base, &plan, Shard::FULL, Some(&ckpt)).unwrap()
        };
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
        let second = run_dse(&base, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert_eq!(second.tally.executed, 0);
        assert_eq!(second.tally.skipped, second.tally.selected);
        for (f, s) in first.rows.iter().zip(&second.rows) {
            let rehydrated = s.report.as_ref().expect("resumed row rehydrates");
            let fresh = f.report.as_ref().unwrap();
            assert_eq!(fresh.edp_pj_s.to_bits(), rehydrated.edp_pj_s.to_bits());
            assert_eq!(fresh.stats, rehydrated.stats);
        }
        // And the resumed ranking equals the fresh one.
        let (fj, fr) = best_edp(&first.rows).unwrap();
        let (sj, sr) = best_edp(&second.rows).unwrap();
        assert_eq!(fj.id(), sj.id());
        assert_eq!(fr.edp_pj_s.to_bits(), sr.edp_pj_s.to_bits());

        // Without the cache the rows stay report-less (the caller then
        // flags the ranking as partial).
        let bare = GemmRunner::new();
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&bare));
        // Different provenance (no cache does not change provenance, so
        // this open succeeds against the same binding).
        let ckpt = ckpt.unwrap();
        let dry = run_dse(&bare, &plan, Shard::FULL, Some(&ckpt)).unwrap();
        assert!(dry.rows.iter().all(|r| r.report.is_none()));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_skips_done_jobs() {
        let path =
            std::env::temp_dir().join(format!("pacq-dse-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut axes = default_axes();
        axes.batch = vec![16, 32];
        let plan = DsePlan::enumerate(&axes, 256, 256);
        let base = GemmRunner::new();

        {
            let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
            let first = run_dse(&base, &plan, Shard { index: 1, count: 2 }, Some(&ckpt)).unwrap();
            assert_eq!(first.tally.executed, first.tally.selected);
        }
        let ckpt = SweepCheckpoint::open(&path, &plan.binding_digest(&base)).unwrap();
        let again = run_dse(&base, &plan, Shard { index: 1, count: 2 }, Some(&ckpt)).unwrap();
        assert_eq!(again.tally.executed, 0);
        assert_eq!(again.tally.skipped, again.tally.selected);
        // The other shard's jobs are untouched by that checkpoint.
        let other = run_dse(&base, &plan, Shard { index: 2, count: 2 }, Some(&ckpt)).unwrap();
        assert_eq!(other.tally.skipped, 0);
        let _ = std::fs::remove_file(&path);
    }
}
