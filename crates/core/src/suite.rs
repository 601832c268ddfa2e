//! Collecting the full measurement grid: every workload on every target
//! configuration, plus access traces for the cache benchmarks.
//!
//! Collection fans the independent (workload, target) cells over the
//! scoped worker pool ([`crate::pool`], via [`Suite::collect`]);
//! results are assembled in work-item order, so the collected suite is
//! byte-identical no matter how many threads ran. Recorded traces feed
//! the cache experiments through a per-(workload, ISA) memoized
//! single-pass grid replay ([`Suite::cache_grid`]), so the full
//! 20-configuration cache study walks each trace exactly once.

use crate::measure::{measure, MeasureError, Measurement, RunConfig};
use d16_cc::TargetSpec;
use d16_isa::Isa;
use d16_mem::{CacheBank, CacheSystem};
use d16_sim::TraceRecorder;
use d16_store::Store;
use d16_telemetry::{timed, Registry};
use d16_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

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
    /// A queried (workload, ISA) trace was never recorded.
    MissingTrace {
        /// Workload name.
        workload: String,
        /// ISA name.
        isa: String,
    },
    /// A cache configuration was rejected while setting up a replay.
    Config {
        /// What was being configured (e.g. `cache grid`).
        context: String,
        /// The rejection.
        source: d16_mem::ConfigError,
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
            SuiteError::MissingTrace { workload, isa } => {
                write!(f, "trace ({workload}, {isa}) not recorded (only cache benchmarks on D16/16/2 and DLXe/32/3 record one)")
            }
            SuiteError::Config { context, source } => {
                write!(f, "{context}: {source}")
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
            SuiteError::Config { source, .. } => Some(source),
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
type CellResult = Result<(Measurement, Option<TraceRecorder>), SuiteError>;

/// Memoized cache-grid replays, keyed like [`Suite::traces`].
type GridMemo = Arc<Mutex<BTreeMap<(String, String), Arc<Vec<CacheSystem>>>>>;

/// The whole measurement grid.
#[derive(Clone, Debug, Default)]
pub struct Suite {
    /// `(workload, target label) -> measurement`.
    pub cells: BTreeMap<(String, String), Measurement>,
    /// `(workload, ISA name) -> trace`, for the cache benchmarks.
    pub traces: BTreeMap<(String, String), TraceRecorder>,
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
    /// Memoized single-pass cache-grid replays, keyed like `traces`.
    /// Shared across clones: the underlying cells and traces are
    /// immutable once collected, so the replay results are too.
    grid_memo: GridMemo,
    /// Merged telemetry: pipeline counters absorbed in work-item order at
    /// assembly (deterministic for every `jobs`), plus collection and
    /// cache-sweep phase spans. Shared across clones, like `grid_memo`,
    /// because [`Suite::cache_grid`] appends through `&self`.
    tele: Arc<Mutex<Registry>>,
    /// The artifact store this suite was collected through, if any;
    /// retained so [`Suite::cache_grid`] can serve and commit grid sweeps.
    store: Option<Arc<Store>>,
}

impl Suite {
    /// Measures the given workloads under the given specs, fanning the
    /// independent (workload, spec) cells over `cfg.jobs` worker threads.
    /// A trace is recorded for every cache-benchmark workload on the two
    /// unrestricted paper machines ([`base_specs`]) — exactly the traces
    /// the cache experiments read.
    ///
    /// Cells are assembled — and any skips recorded — in work-item order,
    /// making the result identical for every `jobs` value. With a store,
    /// intact cached cells (and their traces) are served without
    /// recompiling or re-simulating, and the store rides along in the
    /// suite so lazy grid sweeps ([`Suite::cache_grid`]) go through it
    /// too; served cells are bit-identical to computed ones, so every
    /// diffable output of a warm run matches a cold one byte for byte.
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
        let traced = base_specs();
        let run_cell = |&(wi, si): &(usize, usize)| -> CellResult {
            let w = workloads[wi];
            let spec = &specs[si];
            let want_trace = w.cache_benchmark && traced.contains(spec);
            measure(w, spec, want_trace, cfg).map_err(|e| SuiteError::Measure {
                workload: w.name.to_string(),
                target: spec.label(),
                source: e,
            })
        };

        // Each result carries the wall time spent measuring its cell (the
        // "suite.collect.cell" span).
        let results = crate::pool::map(&items, cfg.jobs, |item| timed(|| run_cell(item)));

        let mut suite = Suite { store: cfg.store.clone(), ..Suite::default() };
        let mut reg = Registry::new();
        for (&(wi, si), (result, wall_ns)) in items.iter().zip(results) {
            let w = workloads[wi];
            let (m, trace) = match result {
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
            if let Some(t) = trace {
                suite.traces.insert((w.name.to_string(), specs[si].isa.name().to_string()), t);
            }
            suite.cell_wall_ns.insert((w.name.to_string(), specs[si].label()), wall_ns);
            suite.cells.insert((w.name.to_string(), specs[si].label()), m);
        }
        *suite.tele.lock().expect("telemetry lock poisoned") = reg;

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
                suite.traces.retain(|(name, _), _| name != w.name);
                suite.cell_wall_ns.retain(|(name, _), _| name != w.name);
                suite.skipped.push(Skip {
                    workload: w.name.to_string(),
                    target: "*".to_string(),
                    reason,
                });
            }
        }

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

    /// The trace for a cache benchmark on an unrestricted machine.
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingTrace`] naming the absent pair.
    pub fn try_trace(&self, workload: &str, isa: Isa) -> Result<&TraceRecorder, SuiteError> {
        self.traces.get(&(workload.to_string(), isa.name().to_string())).ok_or_else(|| {
            SuiteError::MissingTrace { workload: workload.to_string(), isa: isa.name().to_string() }
        })
    }

    /// The cache-grid systems for one (workload, ISA) trace: every
    /// configuration of [`crate::experiments::cache_grid_configs`], warmed
    /// by a *single* shared sweep of the recorded trace through a
    /// [`CacheBank`] and memoized. Figures 16–19 and Tables 13–16 all
    /// read from this; index with
    /// [`crate::experiments::cache_grid_index`].
    ///
    /// Safe to call from several threads: sweeps of different traces run
    /// in parallel, and when two calls race on one trace the first to
    /// finish is memoized and counted in [`Suite::telemetry`]; the other
    /// result is dropped.
    ///
    /// # Errors
    ///
    /// [`SuiteError::MissingTrace`] if the trace was never recorded.
    ///
    /// # Panics
    ///
    /// Panics if the memo or telemetry lock is poisoned.
    pub fn cache_grid(
        &self,
        workload: &str,
        isa: Isa,
    ) -> Result<Arc<Vec<CacheSystem>>, SuiteError> {
        let key = (workload.to_string(), isa.name().to_string());
        if let Some(v) = self.grid_memo.lock().expect("grid memo poisoned").get(&key) {
            return Ok(Arc::clone(v));
        }
        let trace = self.try_trace(workload, isa)?;
        let prefix = format!("grid.{workload}.{}", isa.name());

        // The sweep runs without the memo lock, so grids of different
        // traces warm in parallel. Its telemetry goes into a local
        // registry that is merged only if this call is the one that
        // memoizes the result.
        let mut reg = Registry::new();
        // A stored sweep carries the finished systems plus the bank's
        // sweep counters, so the registry ends up with exactly the
        // entries a live replay's `export_telemetry` would have written.
        let stored_at = self.store.as_deref().and_then(|s| {
            d16_workloads::by_name(workload).map(|w| (s, crate::stored::grid_key(w, isa)))
        });
        let hit = stored_at.and_then(|(s, gkey)| {
            let (hit, load_ns) =
                timed(|| s.get_with(crate::stored::GRID_KIND, gkey, crate::stored::decode_grid));
            let (systems, sweep) = hit?;
            reg.record_span("suite.cache_grid.sweep", load_ns);
            reg.absorb(&prefix, &sweep);
            for sys in &systems {
                sys.export_telemetry(&mut reg, &format!("{prefix}.cfg.{}", sys.label()));
            }
            Some(systems)
        });
        let systems = match hit {
            Some(systems) => systems,
            None => {
                let mut bank =
                    CacheBank::symmetric(&crate::experiments::cache_grid_configs()).map_err(
                        |source| SuiteError::Config { context: "cache grid".to_string(), source },
                    )?;
                let ((), sweep_ns) = timed(|| trace.replay(&mut bank));
                reg.record_span("suite.cache_grid.sweep", sweep_ns);
                bank.export_telemetry(&mut reg, &prefix);
                if let Some((s, gkey)) = stored_at {
                    s.put(
                        crate::stored::GRID_KIND,
                        gkey,
                        &crate::stored::encode_grid(bank.systems(), bank.telemetry()),
                    );
                }
                bank.into_systems()
            }
        };

        // Another thread may have memoized the same key meanwhile: keep
        // its result and drop this one, telemetry included, so no grid is
        // counted twice.
        let mut memo = self.grid_memo.lock().expect("grid memo poisoned");
        if let Some(v) = memo.get(&key) {
            return Ok(Arc::clone(v));
        }
        self.tele.lock().expect("telemetry lock poisoned").merge(&reg);
        let systems = Arc::new(systems);
        memo.insert(key, Arc::clone(&systems));
        Ok(systems)
    }

    /// The (workload, ISA) of every recorded trace, longest trace first
    /// (ties in key order): the order to start grid sweeps in on the
    /// pool, so the longest sweep never starts last.
    pub fn grid_keys(&self) -> Vec<(String, Isa)> {
        let mut keys: Vec<(usize, String, Isa)> = self
            .traces
            .iter()
            .filter_map(|((w, name), t)| {
                let isa = [Isa::D16, Isa::Dlxe].into_iter().find(|i| i.name() == name)?;
                Some((t.len(), w.clone(), isa))
            })
            .collect();
        keys.sort_by_key(|(len, ..)| std::cmp::Reverse(*len));
        keys.into_iter().map(|(_, w, isa)| (w, isa)).collect()
    }

    /// A snapshot of the suite's merged telemetry: `sim.*` pipeline
    /// counters (absorbed in work-item order; D16x cells under `simx.*`),
    /// `grid.*` per-configuration cache counters (one block per swept
    /// trace), and the `suite.collect.cell` / `suite.cache_grid.sweep`
    /// phase spans.
    ///
    /// Counters and span *counts* are deterministic; span durations are
    /// wall-clock. Grids sweep lazily, so warm every trace you want
    /// reported (see [`Suite::cache_grid`]) before snapshotting.
    pub fn telemetry(&self) -> Registry {
        self.tele.lock().expect("telemetry lock poisoned").clone()
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
        let ws = [d16_workloads::by_name("assem").unwrap()];
        let suite = Suite::collect(&ws, &standard_specs(), &RunConfig::default()).unwrap();
        let keys: Vec<_> = suite.traces.keys().cloned().collect();
        let key = |isa: &str| ("assem".to_string(), isa.to_string());
        assert_eq!(keys, vec![key("D16"), key("DLXe")]);
        // The D16x cell is measured, but no cache figure reads its trace.
        assert!(suite.try_get("assem", "D16x/16/3").is_ok());
        let e = suite.try_trace("assem", Isa::D16x).unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingTrace { workload, isa }
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
        let e = suite.try_trace("assem", Isa::D16).unwrap_err();
        assert!(
            matches!(&e, SuiteError::MissingTrace { workload, isa }
                if workload == "assem" && isa == "D16"),
            "{e:?}"
        );
        assert!(e.to_string().contains("assem"), "{e}");
        assert!(suite.cache_grid("assem", Isa::D16).is_err());
    }
}
