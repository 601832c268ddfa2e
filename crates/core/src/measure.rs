//! Building, running and measuring one workload on one target.

use d16_asm::Image;
use d16_cc::{compile_to_image_stored, BuildError, TargetSpec};
use d16_mem::{CacheBank, CacheSystem, ConfigError};
use d16_sim::{AccessSink, Engine, ExecStats, Machine, PipelineSpec, SimError, StopReason};
use d16_store::Store;
use d16_telemetry::Counters;
use d16_workloads::Workload;
use std::fmt;
use std::sync::Arc;

/// Instruction budget per run: generous, since a correct workload halts
/// far earlier.
pub const FUEL: u64 = 2_000_000_000;

/// Everything measured about one (workload, target) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Target label (`D16/16/2`, `DLXe/32/3`, ...).
    pub target: String,
    /// Exit checksum.
    pub exit: i32,
    /// Static size: text + data bytes (the paper's density measure).
    pub size_bytes: u64,
    /// Text segment alone.
    pub text_bytes: u64,
    /// Pipeline statistics (path length, loads/stores, interlocks,
    /// word-granular fetch traffic).
    pub stats: ExecStats,
    /// Fetch-buffer requests for a 32-bit bus (`k` = 2 D16 / 1 DLXe).
    pub ireq_bus32: u64,
    /// Fetch-buffer requests for a 64-bit bus (`k` = 4 D16 / 2 DLXe).
    pub ireq_bus64: u64,
    /// The pipeline's [`d16_sim::SIM_SCHEMA`] telemetry block (per-stage
    /// and per-interlock-class counters). Deterministic — it counts
    /// events, not time — so it may appear in diffed output.
    pub tele: d16_telemetry::Counters,
}

impl Measurement {
    /// External requests on a `bus_bytes`-wide cacheless interface.
    pub fn requests(&self, bus_bytes: u32) -> u64 {
        let ireq = if bus_bytes >= 8 { self.ireq_bus64 } else { self.ireq_bus32 };
        ireq + self.stats.mem_ops()
    }

    /// Cycles on the cacheless machine: `IC + Interlocks + l*(IReq+DReq)`.
    pub fn cacheless_cycles(&self, bus_bytes: u32, wait_states: u64) -> u64 {
        self.stats.base_cycles() + wait_states * self.requests(bus_bytes)
    }
}

/// One cell's swept cache grid: a system per configuration of
/// [`crate::experiments::cache_grid_configs`], fed by the cell's own run,
/// plus the bank's [`d16_mem::BANK_SCHEMA`] sweep counters.
#[derive(Clone, Debug)]
pub struct Grid {
    /// The member systems, in grid order (index with
    /// [`crate::experiments::cache_grid_index`]).
    pub systems: Vec<CacheSystem>,
    /// How many fetches, reads and writes the run fed the bank (all
    /// zeros with telemetry compiled out).
    pub sweep: Counters,
}

impl Grid {
    /// An unswept bank over every grid configuration.
    ///
    /// # Errors
    ///
    /// A grid configuration the cache model rejects.
    pub fn bank() -> Result<CacheBank, ConfigError> {
        CacheBank::symmetric(&crate::experiments::cache_grid_configs())
    }

    /// Access records swept: the sum of the sweep counters.
    pub fn records(&self) -> u64 {
        self.sweep.values().iter().sum()
    }
}

impl From<CacheBank> for Grid {
    fn from(bank: CacheBank) -> Grid {
        let sweep = bank.telemetry().clone();
        Grid { systems: bank.into_systems(), sweep }
    }
}

/// A failure while building or running a workload.
#[derive(Debug)]
pub enum MeasureError {
    /// Toolchain failure.
    Build(BuildError),
    /// Simulator fault.
    Sim(d16_sim::SimError),
    /// The program did not halt within [`FUEL`] instructions.
    OutOfFuel,
    /// The checksum differed from the workload's pinned value.
    WrongChecksum {
        /// Expected value.
        expected: i32,
        /// Observed value.
        got: i32,
    },
    /// The cache grid could not be set up.
    Grid(ConfigError),
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::Build(e) => write!(f, "build: {e}"),
            MeasureError::Sim(e) => write!(f, "simulation fault: {e}"),
            MeasureError::OutOfFuel => write!(f, "did not halt within the instruction budget"),
            MeasureError::WrongChecksum { expected, got } => {
                write!(f, "checksum mismatch: expected {expected}, got {got}")
            }
            MeasureError::Grid(e) => write!(f, "cache grid: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Build(e) => Some(e),
            MeasureError::Sim(e) => Some(e),
            MeasureError::Grid(e) => Some(e),
            _ => None,
        }
    }
}

/// How a measurement runs: the worker count, the artifact store, the
/// execution engine and the pipeline design point. [`Default`] is the
/// paper's machine on every core, with no store.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads for [`crate::Suite::collect`] (a single
    /// [`measure`] runs on the calling thread).
    pub jobs: usize,
    /// Artifact store: intact cells (grids included) and images are
    /// served from it, misses are computed and committed.
    pub store: Option<Arc<Store>>,
    /// Execution engine. Both engines produce byte-identical results, so
    /// the engine is not part of any store key.
    pub engine: Engine,
    /// Pipeline design point the machine is retimed to before each run.
    /// A non-default spec folds into the store key.
    pub pipeline: PipelineSpec,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            jobs: crate::suite::default_jobs(),
            store: None,
            engine: Engine::default(),
            pipeline: PipelineSpec::default(),
        }
    }
}

/// Compiles a workload for a target, through the store's `image` kind
/// when one is given.
///
/// # Errors
///
/// Propagates toolchain diagnostics.
pub fn build(
    w: &Workload,
    spec: &TargetSpec,
    store: Option<&Store>,
) -> Result<Image, MeasureError> {
    compile_to_image_stored(&[w.source], spec, store).map_err(MeasureError::Build)
}

/// The concrete sink stack of one measurement run: both fetch-buffer bus
/// models plus the optional cache bank, statically dispatched so every
/// access is a direct (inlinable) call into the execution engine.
struct MeasureSink<'a> {
    fb32: d16_mem::FetchBuffer,
    fb64: d16_mem::FetchBuffer,
    bank: Option<&'a mut CacheBank>,
}

impl AccessSink for MeasureSink<'_> {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.fb32.fetch(addr, bytes);
        self.fb64.fetch(addr, bytes);
        if let Some(b) = &mut self.bank {
            b.fetch(addr, bytes);
        }
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.fb32.read(addr, bytes);
        self.fb64.read(addr, bytes);
        if let Some(b) = &mut self.bank {
            b.read(addr, bytes);
        }
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.fb32.write(addr, bytes);
        self.fb64.write(addr, bytes);
        if let Some(b) = &mut self.bank {
            b.write(addr, bytes);
        }
    }
}

/// What one machine run observed.
pub struct Run {
    /// Why the machine stopped.
    pub stop: StopReason,
    /// The machine after the run (statistics, telemetry, state).
    pub machine: Machine,
    /// Fetch-buffer requests for a 32-bit bus (`k` = 2 D16 / 1 DLXe).
    pub ireq_bus32: u64,
    /// Fetch-buffer requests for a 64-bit bus (`k` = 4 D16 / 2 DLXe).
    pub ireq_bus64: u64,
}

/// Loads `image`, retimes the machine to `pipeline`, and runs it under
/// `engine` for at most `fuel` instructions with both fetch-buffer bus
/// models attached, feeding every access to `bank` when given. This is
/// the one machine run behind [`measure`] and the serve API.
///
/// # Errors
///
/// A simulator fault.
pub fn run(
    image: &Image,
    pipeline: PipelineSpec,
    engine: Engine,
    fuel: u64,
    bank: Option<&mut CacheBank>,
) -> Result<Run, SimError> {
    let mut machine = Machine::load(image);
    machine.set_pipeline(pipeline);
    let mut sink = MeasureSink {
        fb32: d16_mem::FetchBuffer::new(4),
        fb64: d16_mem::FetchBuffer::new(8),
        bank,
    };
    let stop = machine.run_with(engine, fuel, &mut sink)?;
    Ok(Run { stop, machine, ireq_bus32: sink.fb32.irequests, ireq_bus64: sink.fb64.irequests })
}

/// Builds, runs and measures one cell under `cfg` (its `jobs` is unused);
/// with `sweep`, the run also feeds every access to a bank over the whole
/// cache grid (for the cache experiments).
///
/// With a store, an intact cached cell is served without compiling or
/// simulating anything; a miss (or a damaged entry, which the store
/// evicts) recomputes and commits the cell — and the linked image — for
/// the next run. A served cell is *complete*: measurement, telemetry
/// block, and (when `sweep`) the grid are bit-identical to a cold
/// computation, and the pinned checksum is re-verified at decode time.
///
/// # Errors
///
/// Fails on toolchain errors, simulator faults, fuel exhaustion, a
/// checksum mismatch against the workload's pinned value, or a rejected
/// grid configuration. Store damage is never an error.
pub fn measure(
    w: &Workload,
    spec: &TargetSpec,
    sweep: bool,
    cfg: &RunConfig,
) -> Result<(Measurement, Option<Grid>), MeasureError> {
    let store = cfg.store.as_deref();
    let key = store.map(|s| (s, crate::stored::cell_key(w, spec, sweep, &cfg.pipeline)));
    if let Some((s, key)) = key {
        if let Some(cell) =
            s.get_with(crate::stored::CELL_KIND, key, |b| crate::stored::decode_cell(b, w, spec))
        {
            return Ok(cell);
        }
    }
    let image = build(w, spec, store)?;
    let mut bank = if sweep { Some(Grid::bank().map_err(MeasureError::Grid)?) } else { None };
    let run =
        run(&image, cfg.pipeline, cfg.engine, FUEL, bank.as_mut()).map_err(MeasureError::Sim)?;
    let exit = match run.stop {
        StopReason::Halted(v) => v,
        StopReason::OutOfFuel => return Err(MeasureError::OutOfFuel),
    };
    if let Some(expected) = w.expected {
        if exit != expected {
            return Err(MeasureError::WrongChecksum { expected, got: exit });
        }
    }
    let grid = bank.map(Grid::from);
    let m = Measurement {
        workload: w.name,
        target: spec.label(),
        exit,
        size_bytes: image.size_bytes() as u64,
        text_bytes: image.text.len() as u64,
        stats: *run.machine.stats(),
        ireq_bus32: run.ireq_bus32,
        ireq_bus64: run.ireq_bus64,
        tele: run.machine.telemetry().clone(),
    };
    if let Some((s, k)) = key {
        s.put(crate::stored::CELL_KIND, k, &crate::stored::encode_cell(&m, grid.as_ref()));
    }
    Ok((m, grid))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_queens_on_both_isas() {
        let w = d16_workloads::by_name("queens").unwrap();
        let (d16, _) = measure(w, &TargetSpec::d16(), false, &RunConfig::default()).unwrap();
        let (dlxe, _) = measure(w, &TargetSpec::dlxe(), false, &RunConfig::default()).unwrap();
        assert_eq!(d16.exit, 92);
        assert_eq!(dlxe.exit, 92);
        assert!(d16.size_bytes < dlxe.size_bytes, "D16 binaries are denser");
        assert!(d16.stats.insns >= dlxe.stats.insns, "DLXe path is not longer");
        // 32-bit bus: D16 fetches two instructions per request.
        assert!(d16.ireq_bus32 < d16.stats.insns);
        assert_eq!(dlxe.ireq_bus32, dlxe.stats.insns, "k=1 for DLXe on a 32-bit bus");
        assert!(d16.ireq_bus64 <= d16.ireq_bus32);
    }

    #[test]
    fn engines_measure_identically() {
        let w = d16_workloads::by_name("towers").unwrap();
        for spec in [TargetSpec::d16(), TargetSpec::dlxe()] {
            let on = |engine| RunConfig { engine, ..RunConfig::default() };
            let (a, ta) = measure(w, &spec, true, &on(Engine::Interp)).unwrap();
            let (b, tb) = measure(w, &spec, true, &on(Engine::Blocks)).unwrap();
            assert_eq!(a.exit, b.exit);
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.ireq_bus32, b.ireq_bus32);
            assert_eq!(a.ireq_bus64, b.ireq_bus64);
            assert_eq!(a.tele.values(), b.tele.values());
            let (ga, gb) = (ta.unwrap(), tb.unwrap());
            assert_eq!(ga.sweep.values(), gb.sweep.values());
            for (sa, sb) in ga.systems.iter().zip(&gb.systems) {
                assert_eq!((sa.icache(), sa.dcache()), (sb.icache(), sb.dcache()));
            }
        }
    }

    #[test]
    fn trace_lengths_match_stats() {
        let w = d16_workloads::by_name("ackermann").unwrap();
        let (m, grid) = measure(w, &TargetSpec::d16(), true, &RunConfig::default()).unwrap();
        let grid = grid.unwrap();
        // Every member sees the whole stream: one I-cache read per
        // instruction, one D-cache access per load or store.
        for s in &grid.systems {
            assert_eq!(s.icache().reads, m.stats.insns);
            assert_eq!((s.dcache().reads, s.dcache().writes), (m.stats.loads, m.stats.stores));
        }
        if d16_telemetry::ENABLED {
            assert_eq!(grid.records(), m.stats.insns + m.stats.loads + m.stats.stores);
        }
    }
}
