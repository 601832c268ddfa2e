//! Collecting the full measurement grid: every workload on every target
//! configuration, plus the swept cache grids of the cache benchmarks.
//!
//! Collection fans the independent (workload, target) cells over the
//! scoped worker pool ([`crate::pool`], via [`Suite::collect`]);
//! results are assembled in work-item order, so the collected suite is
//! byte-identical no matter how many threads ran. A cache benchmark's
//! cell on an unrestricted machine feeds its own run straight into a
//! bank over all 20 grid configurations, so the whole cache study costs
//! one pass over the access stream and no trace is ever kept.

use crate::measure::{measure, Grid, MeasureError, Measurement, RunConfig};
use d16_cc::TargetSpec;
use d16_isa::Isa;
use d16_mem::CacheSystem;
use d16_telemetry::{timed, Registry};
use d16_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;

/// The five configurations of the paper's grid (Tables 6–7):
/// `D16/16/2, DLXe/16/2, DLXe/16/3, DLXe/32/2, DLXe/32/3` — plus the
/// mixed-width extension target `D16x/16/3`, appended last so the paper
/// grid keeps its work-item order.
pub fn standard_specs() -> Vec<TargetSpec> {
    vec![
        TargetSpec::d16(),
        TargetSpec::dlxe_restricted(true, true, false),
        TargetSpec::dlxe_restricted(true, false, false),
        TargetSpec::dlxe_restricted(false, true, false),
        TargetSpec::dlxe(),
        TargetSpec::d16x(),
    ]
}

/// The two unrestricted machines the headline comparison uses.
pub fn base_specs() -> [TargetSpec; 2] {
    [TargetSpec::d16(), TargetSpec::dlxe()]
}

/// The number of worker threads [`RunConfig::default`] runs on.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Everything that can go wrong collecting or querying a [`Suite`].
#[derive(Debug)]
pub enum SuiteError {
    /// A (workload, target) cell failed to build or run.
    Measure {
        /// Workload name.
        workload: String,
        /// Target label.
        target: String,
        /// The underlying failure.
        source: MeasureError,
    },
    /// A workload exited with different checksums on different targets.
    ChecksumMismatch {
        /// Workload name.
        workload: String,
        /// Exit value on the first target.
        expected: i32,
        /// The disagreeing exit value.
        got: i32,
    },
    /// A queried (workload, target) measurement was never collected.
    MissingCell {
        /// Workload name.
        workload: String,
        /// Target label.
        target: String,
    },
    /// A queried (workload, ISA) cache grid was never swept.
    MissingGrid {
        /// Workload name.
        workload: String,
        /// ISA name.
        isa: String,
    },
    /// A requested (size, block) point is not on the experiment grid.
    OffGrid {
        /// Requested cache size in bytes.
        size: u32,
        /// Requested block size in bytes.
        block: u32,
    },
    /// Every cell of a collection failed, so the suite would be empty.
    NothingCollected {
        /// How many cells were attempted.
        attempted: usize,
        /// The first failure, in work-item order.
        first: String,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Measure { workload, target, source } => {
                write!(f, "measuring ({workload}, {target}): {source}")
            }
            SuiteError::ChecksumMismatch { workload, expected, got } => {
                write!(
                    f,
                    "workload {workload}: targets disagree on the checksum ({expected} vs {got})"
                )
            }
            SuiteError::MissingCell { workload, target } => {
                write!(f, "cell ({workload}, {target}) not collected")
            }
            SuiteError::MissingGrid { workload, isa } => {
                write!(f, "cache grid ({workload}, {isa}) not swept (only cache benchmarks on D16/16/2 and DLXe/32/3 sweep one)")
            }
            SuiteError::OffGrid { size, block } => {
                write!(f, "cache point (size {size}, block {block}) is not on the experiment grid")
            }
            SuiteError::NothingCollected { attempted, first } => {
                write!(f, "all {attempted} cells failed to collect; first error: {first}")
            }
        }
    }
}

impl std::error::Error for SuiteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SuiteError::Measure { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One cell (or workload) left out of a degraded collection: the run
/// completed, reported its results, and recorded why this part is
/// missing. `target` is `*` when a whole workload was dropped (a
/// cross-target checksum disagreement poisons every cell it touched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Skip {
    /// Workload name.
    pub workload: String,
    /// Target label, or `*` for the whole workload.
    pub target: String,
    /// The rendered failure that caused the skip.
    pub reason: String,
}

impl fmt::Display for Skip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}): {}", self.workload, self.target, self.reason)
    }
}

/// One collected cell, before assembly into the maps.
type CellResult = Result<(Measurement, Option<Grid>), SuiteError>;

/// The whole measurement grid.
#[derive(Clone, Debug, Default)]
pub struct Suite {
    /// `(workload, target label) -> measurement`.
    pub cells: BTreeMap<(String, String), Measurement>,
    /// `(workload, ISA name) -> swept cache grid`, for the cache
    /// benchmarks.
    pub grids: BTreeMap<(String, String), Grid>,
    /// Wall time spent measuring each cell, keyed like `cells`.
    /// Wall-clock: reporting only, never part of diffed output (the
    /// per-cell [`Measurement`]s stay timing-free so their rendering is
    /// deterministic).
    pub cell_wall_ns: BTreeMap<(String, String), u64>,
    /// Cells dropped from a degraded collection, in work-item order
    /// (deterministic for every `jobs` value). Empty on a clean run;
    /// reports filter rows whose cells are missing, so one failing cell
    /// costs its rows, not the sweep.
    pub skipped: Vec<Skip>,
    /// Merged telemetry: pipeline and cache-grid counters absorbed at
    /// assembly (deterministic for every `jobs`), plus the collection
    /// phase span.
    tele: Registry,
}

impl Suite {
    /// Measures the given workloads under the given specs, fanning the
    /// independent (workload, spec) cells over `cfg.jobs` worker threads.
    /// Every cache-benchmark workload on the two unrestricted paper
    /// machines ([`base_specs`]) sweeps the cache grid from its run —
    /// exactly the grids the cache experiments read. Those cells start
    /// first, since their bank work makes them the longest.
    ///
    /// Cells are assembled — and any skips recorded — in work-item order,
    /// making the result identical for every `jobs` value. With a store,
    /// intact cached cells (grids included) are served without
    /// recompiling or re-simulating; served cells are bit-identical to
    /// computed ones, so every diffable output of a warm run matches a
    /// cold one byte for byte.
    ///
    /// A failing cell does not fail the collection: it is dropped and
    /// recorded in [`Suite::skipped`], and a cross-target checksum
    /// disagreement drops the whole offending workload the same way, so
    /// one bad cell degrades a sweep instead of killing it.
    ///
    /// # Errors
    ///
    /// [`SuiteError::NothingCollected`] only when *every* cell failed.
    pub fn collect(
        workloads: &[&Workload],
        specs: &[TargetSpec],
        cfg: &RunConfig,
    ) -> Result<Suite, SuiteError> {
        let items: Vec<(usize, usize)> =
            (0..workloads.len()).flat_map(|w| (0..specs.len()).map(move |s| (w, s))).collect();
        let swept = base_specs();
        let sweeps = |&(wi, si): &(usize, usize)| {
            workloads[wi].cache_benchmark && swept.contains(&specs[si])
        };
        let run_cell = |item: &(usize, usize)| -> CellResult {
            let (w, spec) = (workloads[item.0], &specs[item.1]);
            measure(w, spec, sweeps(item), cfg).map_err(|e| SuiteError::Measure {
                workload: w.name.to_string(),
                target: spec.label(),
                source: e,
            })
        };

        // The sweeping cells go to the pool first; each result carries
        // the wall time spent measuring its cell (the "suite.collect.cell"
        // span) and is put back in work-item order for assembly.
        let mut order: Vec<usize> = (0..items.len()).collect();
        order.sort_by_key(|&i| !sweeps(&items[i]));
        let results = crate::pool::map(&order, cfg.jobs, |&i| timed(|| run_cell(&items[i])));
        let mut results: Vec<_> = order.into_iter().zip(results).collect();
        results.sort_unstable_by_key(|&(i, _)| i);

        let mut suite = Suite::default();
        let mut reg = Registry::new();
        for (i, (result, wall_ns)) in results {
            let (wi, si) = items[i];
            let w = workloads[wi];
            let (m, grid) = match result {
                Ok(cell) => cell,
                Err(e) => {
                    suite.skipped.push(Skip {
                        workload: w.name.to_string(),
                        target: specs[si].label(),
                        reason: e.to_string(),
                    });
                    continue;
                }
            };
            // Absorbing here — in work-item order, after the pool joined —
            // is what makes the merged counters identical for every `jobs`.
            // D16x cells merge under their own `simx` prefix so the paper
            // grid's `sim.*` counters stay byte-identical with or without
            // the extension target.
            let prefix = if specs[si].isa == Isa::D16x { "simx" } else { "sim" };
            reg.absorb(prefix, &m.tele);
            reg.record_span("suite.collect.cell", wall_ns);
            if let Some(g) = grid {
                suite.grids.insert((w.name.to_string(), specs[si].isa.name().to_string()), g);
            }
            suite.cell_wall_ns.insert((w.name.to_string(), specs[si].label()), wall_ns);
            suite.cells.insert((w.name.to_string(), specs[si].label()), m);
        }

        // Cross-target checksum agreement: the joint correctness gate.
        // A disagreement means the workload's cells cannot be trusted on
        // *any* target, so the whole workload degrades to a skip.
        for w in workloads {
            let exits: Vec<i32> = suite
                .cells
                .iter()
                .filter(|((name, _), _)| name == w.name)
                .map(|(_, m)| m.exit)
                .collect();
            if let Some(&bad) = exits.iter().find(|&&e| e != exits[0]) {
                let reason = SuiteError::ChecksumMismatch {
                    workload: w.name.to_string(),
                    expected: exits[0],
                    got: bad,
                }
                .to_string();
                suite.cells.retain(|(name, _), _| name != w.name);
                suite.grids.retain(|(name, _), _| name != w.name);
                suite.cell_wall_ns.retain(|(name, _), _| name != w.name);
                suite.skipped.push(Skip {
                    workload: w.name.to_string(),
                    target: "*".to_string(),
                    reason,
                });
            }
        }

        // Grid counters merge once the grid set is final, in key order;
        // a stored grid exports exactly what its live sweep would have.
        for ((w, isa), g) in &suite.grids {
            let prefix = format!("grid.{w}.{isa}");
            reg.absorb(&prefix, &g.sweep);
            for sys in &g.systems {
                sys.export_telemetry(&mut reg, &format!("{prefix}.cfg.{}", sys.label()));
            }
        }
        suite.tele = reg;

        if suite.cells.is_empty() && !suite.skipped.is_empty() {
            return Err(SuiteError::NothingCollected {
                attempted: items.len(),
                first: suite.skipped[0].to_string(),
            });
        }
        Ok(suite)
    }

    /// The measurement for one cell.
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingCell`] naming the absent pair.
    pub fn try_get(&self, workload: &str, target: &str) -> Result<&Measurement, SuiteError> {
        self.cells.get(&(workload.to_string(), target.to_string())).ok_or_else(|| {
            SuiteError::MissingCell { workload: workload.to_string(), target: target.to_string() }
        })
    }

    /// The cache-grid systems for one (workload, ISA): every
    /// configuration of [`crate::experiments::cache_grid_configs`], swept
    /// by the cell's run. Figures 16–19 and Tables 13–16 all read from
    /// this; index with [`crate::experiments::cache_grid_index`].
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingGrid`] naming the absent pair.
    pub fn cache_grid(&self, workload: &str, isa: Isa) -> Result<&[CacheSystem], SuiteError> {
        match self.grids.get(&(workload.to_string(), isa.name().to_string())) {
            Some(g) => Ok(&g.systems),
            None => Err(SuiteError::MissingGrid {
                workload: workload.to_string(),
                isa: isa.name().to_string(),
            }),
        }
    }

    /// The suite's merged telemetry: `sim.*` pipeline counters (D16x
    /// cells under `simx.*`), `grid.*` sweep and per-configuration cache
    /// counters (one block per swept grid), and the `suite.collect.cell`
    /// phase span.
    ///
    /// Counters and span *counts* are deterministic; span durations are
    /// wall-clock.
    pub fn telemetry(&self) -> &Registry {
        &self.tele
    }

    /// Workload names present, in collection order.
    pub fn workloads(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for (w, _) in self.cells.keys() {
            if !names.contains(w) {
                names.push(w.clone());
            }
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_cover_the_grid() {
        let labels: Vec<String> = standard_specs().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["D16/16/2", "DLXe/16/2", "DLXe/16/3", "DLXe/32/2", "DLXe/32/3", "D16x/16/3"]
        );
    }

    #[test]
    fn collect_small_subset() {
        let ws = [d16_workloads::by_name("towers").unwrap()];
        let suite = Suite::collect(&ws, &base_specs(), &RunConfig::default()).unwrap();
        assert_eq!(suite.cells.len(), 2);
        assert!(suite.skipped.is_empty(), "{:?}", suite.skipped);
        assert_eq!(suite.try_get("towers", "D16/16/2").unwrap().exit, 16383);
        assert_eq!(suite.workloads(), vec!["towers".to_string()]);
    }

    #[test]
    fn collect_records_only_the_traces_the_cache_experiments_read() {
        // The access stream is swept into a grid, not recorded: only the
        // grids the cache figures read exist.
        let ws = [d16_workloads::by_name("assem").unwrap()];
        let suite = Suite::collect(&ws, &standard_specs(), &RunConfig::default()).unwrap();
        let keys: Vec<_> = suite.grids.keys().cloned().collect();
        let key = |isa: &str| ("assem".to_string(), isa.to_string());
        assert_eq!(keys, vec![key("D16"), key("DLXe")]);
        // The D16x cell is measured, but no cache figure reads its grid.
        assert!(suite.try_get("assem", "D16x/16/3").is_ok());
        let e = suite.cache_grid("assem", Isa::D16x).unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingGrid { workload, isa }
                if workload == "assem" && isa == "D16x"),
            "{e:?}"
        );
    }

    #[test]
    fn failing_cells_degrade_to_skips() {
        // A wrong pinned checksum fails every cell of this workload at
        // measurement time; the good workload must still collect.
        let bad = Workload {
            name: "towers-bad",
            source: d16_workloads::by_name("towers").unwrap().source,
            description: "towers with a wrong pinned checksum",
            expected: Some(-1),
            cache_benchmark: false,
            floating: false,
        };
        let good = d16_workloads::by_name("queens").unwrap();
        let suite = Suite::collect(&[&bad, good], &base_specs(), &RunConfig::default()).unwrap();
        assert_eq!(suite.cells.len(), 2, "queens cells survive");
        assert_eq!(suite.workloads(), vec!["queens".to_string()]);
        assert_eq!(suite.skipped.len(), 2, "{:?}", suite.skipped);
        for (skip, target) in suite.skipped.iter().zip(["D16/16/2", "DLXe/32/3"]) {
            assert_eq!(skip.workload, "towers-bad");
            assert_eq!(skip.target, target);
            assert!(skip.reason.contains("checksum mismatch"), "{}", skip.reason);
        }

        // When every cell fails, collection reports the first error
        // instead of returning an empty suite.
        let e = Suite::collect(&[&bad], &base_specs(), &RunConfig::default()).unwrap_err();
        assert!(matches!(&e, SuiteError::NothingCollected { attempted: 2, .. }), "{e:?}");
        assert!(e.to_string().contains("checksum mismatch"), "{e}");
    }

    #[test]
    fn missing_cells_are_named() {
        let suite = Suite::default();
        let e = suite.try_get("towers", "D16/16/2").unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingCell { workload, target }
                if workload == "towers" && target == "D16/16/2"),
            "{e:?}"
        );
        assert_eq!(e.to_string(), "cell (towers, D16/16/2) not collected");
        let e = suite.cache_grid("assem", Isa::D16).unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingGrid { workload, isa }
                if workload == "assem" && isa == "D16"),
            "{e:?}"
        );
        assert!(e.to_string().contains("assem"), "{e}");
    }
}
