//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each function consumes a collected [`Suite`] and returns typed rows;
//! the `repro` binary renders them as text. Figure/table numbering follows
//! the paper (see DESIGN.md §5 for the index).

use crate::measure::Measurement;
use crate::suite::{Suite, SuiteError};
use d16_cc::TargetSpec;
use d16_isa::{EncodingParams, Insn, Isa};
use d16_mem::CacheConfig;
use d16_sim::{AccessSink, Engine, Machine, NullSink};
use d16_workloads::SUITE;
use std::collections::BTreeMap;

const D16: &str = "D16/16/2";
const DLXE: &str = "DLXe/32/3";

/// One per-workload ratio (most figures are bar charts of these).
#[derive(Clone, Debug, PartialEq)]
pub struct RatioRow {
    /// Workload name.
    pub workload: String,
    /// The plotted value.
    pub value: f64,
}

fn mean(rows: &[RatioRow]) -> f64 {
    rows.iter().map(|r| r.value).sum::<f64>() / rows.len() as f64
}

/// Geometric-free arithmetic mean of a figure's bars (the paper reports
/// arithmetic averages).
pub fn average(rows: &[RatioRow]) -> f64 {
    mean(rows)
}

/// The (D16, unrestricted DLXe) cell pair for one workload, or `None`
/// when either cell was skipped — report functions drop such workloads
/// rather than aborting a degraded sweep.
fn pair<'a>(suite: &'a Suite, w: &str) -> Option<(&'a Measurement, &'a Measurement)> {
    Some((suite.try_get(w, D16).ok()?, suite.try_get(w, DLXE).ok()?))
}

fn ratio_rows(suite: &Suite, f: impl Fn(&Measurement, &Measurement) -> f64) -> Vec<RatioRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let (d16, dlxe) = pair(suite, &w)?;
            Some(RatioRow { value: f(d16, dlxe), workload: w })
        })
        .collect()
}

// ------------------------------------------------------------------------
// Section 3: density, path length, feature ablations
// ------------------------------------------------------------------------

/// Figure 4: D16 relative density — static DLXe size / D16 size.
pub fn fig4_relative_density(suite: &Suite) -> Vec<RatioRow> {
    ratio_rows(suite, |d16, dlxe| dlxe.size_bytes as f64 / d16.size_bytes as f64)
}

/// Figure 5: DLXe path length with D16 = 1.0.
pub fn fig5_path_length(suite: &Suite) -> Vec<RatioRow> {
    ratio_rows(suite, |d16, dlxe| dlxe.stats.insns as f64 / d16.stats.insns as f64)
}

/// One workload's ablation-grid ratios against D16 = 1.0.
#[derive(Clone, Debug)]
pub struct GridRow {
    /// Workload name.
    pub workload: String,
    /// Ratios for `DLXe/16/2, DLXe/16/3, DLXe/32/2, DLXe/32/3`.
    pub dlxe_16_2: f64,
    #[allow(missing_docs)]
    pub dlxe_16_3: f64,
    #[allow(missing_docs)]
    pub dlxe_32_2: f64,
    #[allow(missing_docs)]
    pub dlxe_32_3: f64,
}

fn grid_rows(suite: &Suite, f: impl Fn(&Measurement) -> f64) -> Vec<GridRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let base = f(suite.try_get(&w, D16).ok()?);
            let r = |t: &str| Some(f(suite.try_get(&w, t).ok()?) / base);
            Some(GridRow {
                dlxe_16_2: r("DLXe/16/2")?,
                dlxe_16_3: r("DLXe/16/3")?,
                dlxe_32_2: r("DLXe/32/2")?,
                dlxe_32_3: r("DLXe/32/3")?,
                workload: w,
            })
        })
        .collect()
}

/// Figures 6/8/11 and Table 6: static code size across the feature grid
/// (D16 = 1.0).
pub fn code_size_grid(suite: &Suite) -> Vec<GridRow> {
    grid_rows(suite, |m| m.size_bytes as f64)
}

/// Figures 7/9/12 and Table 7: path length across the feature grid
/// (D16 = 1.0).
pub fn path_length_grid(suite: &Suite) -> Vec<GridRow> {
    grid_rows(suite, |m| m.stats.insns as f64)
}

/// Table 5: grid averages `(code size, path length)` for each DLXe
/// configuration.
pub fn table5_summary(suite: &Suite) -> BTreeMap<String, (f64, f64)> {
    let size = code_size_grid(suite);
    let path = path_length_grid(suite);
    let avg = |rows: &[GridRow], pick: fn(&GridRow) -> f64| {
        rows.iter().map(pick).sum::<f64>() / rows.len() as f64
    };
    let mut out = BTreeMap::new();
    out.insert("DLXe/16/2".into(), (avg(&size, |r| r.dlxe_16_2), avg(&path, |r| r.dlxe_16_2)));
    out.insert("DLXe/16/3".into(), (avg(&size, |r| r.dlxe_16_3), avg(&path, |r| r.dlxe_16_3)));
    out.insert("DLXe/32/2".into(), (avg(&size, |r| r.dlxe_32_2), avg(&path, |r| r.dlxe_32_2)));
    out.insert("DLXe/32/3".into(), (avg(&size, |r| r.dlxe_32_3), avg(&path, |r| r.dlxe_32_3)));
    out
}

/// Table 3: data-traffic increase (loads+stores) of D16 and DLXe/16 over
/// unrestricted DLXe, in percent.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Workload.
    pub workload: String,
    /// D16 increase %.
    pub d16_pct: f64,
    /// DLXe/16 increase %.
    pub dlxe16_pct: f64,
}

/// Computes Table 3.
pub fn table3_data_traffic(suite: &Suite) -> Vec<Table3Row> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let base = suite.try_get(&w, DLXE).ok()?.stats.mem_ops() as f64;
            let d16 = suite.try_get(&w, D16).ok()?.stats.mem_ops() as f64;
            let r16 = suite.try_get(&w, "DLXe/16/3").ok()?.stats.mem_ops() as f64;
            Some(Table3Row {
                workload: w,
                d16_pct: (d16 / base - 1.0) * 100.0,
                dlxe16_pct: (r16 / base - 1.0) * 100.0,
            })
        })
        .collect()
}

/// Figure 10: speedup provided by DLXe immediates and offsets — path
/// length of D16 over `DLXe/16/2` (which differs from D16 essentially
/// only in its immediate/displacement fields).
pub fn fig10_immediate_speedup(suite: &Suite) -> Vec<RatioRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let d16 = suite.try_get(&w, D16).ok()?.stats.insns as f64;
            let r = suite.try_get(&w, "DLXe/16/2").ok()?.stats.insns as f64;
            Some(RatioRow { workload: w, value: d16 / r })
        })
        .collect()
}

/// Table 4: dynamic frequency of DLXe/16/2 instructions whose immediate
/// operands exceed the D16 fields.
#[derive(Clone, Debug, Default)]
pub struct Table4 {
    /// Compare-immediate instructions (no D16 form), % of path length.
    pub cmp_imm_pct: f64,
    /// ALU immediates beyond five bits, % of path length.
    pub alu_imm_pct: f64,
    /// Memory displacements beyond the D16 reach, % of path length.
    pub mem_disp_pct: f64,
}

impl Table4 {
    /// Sum of the three classes.
    pub fn total_pct(&self) -> f64 {
        self.cmp_imm_pct + self.alu_imm_pct + self.mem_disp_pct
    }
}

struct ClassifySink {
    decoded: Vec<Option<Insn>>,
    text_base: u32,
    cmp: u64,
    alu: u64,
    mem: u64,
    total: u64,
}

impl AccessSink for ClassifySink {
    fn fetch(&mut self, addr: u32, _bytes: u8) {
        self.total += 1;
        let idx = ((addr - self.text_base) / 4) as usize;
        if let Some(Some(insn)) = self.decoded.get(idx) {
            match EncodingParams::d16_overflow_class(insn) {
                Some(d16_isa::ImmOverflow::CompareImmediate) => self.cmp += 1,
                Some(d16_isa::ImmOverflow::AluImmediate) => self.alu += 1,
                Some(d16_isa::ImmOverflow::MemoryDisplacement) => self.mem += 1,
                None => {}
            }
        }
    }
    fn read(&mut self, _a: u32, _b: u8) {}
    fn write(&mut self, _a: u32, _b: u8) {}
}

/// Computes Table 4 (averaged over the suite) by re-running each workload
/// on `DLXe/16/2` with a classifying fetch sink.
///
/// # Errors
///
/// Propagates build/run failures with the workload name.
pub fn table4_immediate_profile() -> Result<Table4, (String, String)> {
    table4_immediate_profile_stored(None)
}

/// [`table4_immediate_profile`] through an optional `d16-store`: each
/// workload's raw classification counts are cached, and the averaged
/// percentages are recomputed from them identically either way.
///
/// # Errors
///
/// Propagates build/run failures with the workload name.
pub fn table4_immediate_profile_stored(
    store: Option<&d16_store::Store>,
) -> Result<Table4, (String, String)> {
    let spec = TargetSpec::dlxe_restricted(true, true, false);
    let mut acc = Table4::default();
    let mut n = 0usize;
    for w in SUITE {
        let (cmp, alu, mem, total) = table4_counts(w, &spec, store, Engine::default())?;
        let t = total as f64;
        acc.cmp_imm_pct += cmp as f64 / t * 100.0;
        acc.alu_imm_pct += alu as f64 / t * 100.0;
        acc.mem_disp_pct += mem as f64 / t * 100.0;
        n += 1;
    }
    acc.cmp_imm_pct /= n as f64;
    acc.alu_imm_pct /= n as f64;
    acc.mem_disp_pct /= n as f64;
    Ok(acc)
}

/// One workload's `(cmp, alu, mem, total)` classification counts on the
/// restricted machine under `engine`, served from the store when
/// possible. Both engines emit the same fetch stream, so the counts do
/// not depend on the engine.
fn table4_counts(
    w: &d16_workloads::Workload,
    spec: &TargetSpec,
    store: Option<&d16_store::Store>,
    engine: Engine,
) -> Result<(u64, u64, u64, u64), (String, String)> {
    let at = store.map(|s| (s, crate::stored::table4_key(w)));
    if let Some((s, key)) = at {
        if let Some(counts) =
            s.get_with(crate::stored::TABLE4_KIND, key, crate::stored::decode_table4)
        {
            return Ok(counts);
        }
    }
    let image =
        crate::measure::build(w, spec, store).map_err(|e| (w.name.to_string(), e.to_string()))?;
    let decoded: Vec<Option<Insn>> = image
        .text
        .chunks_exact(4)
        .map(|c| {
            d16_isa::dlxe::decode(u32::from_le_bytes(c.try_into().expect("4-byte chunk"))).ok()
        })
        .collect();
    let mut sink =
        ClassifySink { decoded, text_base: image.text_base, cmp: 0, alu: 0, mem: 0, total: 0 };
    let mut m = Machine::load(&image);
    m.run_with(engine, crate::measure::FUEL, &mut sink)
        .map_err(|e| (w.name.to_string(), e.to_string()))?;
    let counts = (sink.cmp, sink.alu, sink.mem, sink.total);
    if let Some((s, key)) = at {
        s.put(crate::stored::TABLE4_KIND, key, &crate::stored::encode_table4(counts));
    }
    Ok(counts)
}

/// Figure 13: instruction traffic and static size, DLXe/D16 (tests
/// Steenkiste's uniformity assumption).
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Workload.
    pub workload: String,
    /// Fetched instruction words, DLXe/D16.
    pub traffic_ratio: f64,
    /// Static size, DLXe/D16.
    pub size_ratio: f64,
}

/// Computes Figure 13.
pub fn fig13_traffic_vs_density(suite: &Suite) -> Vec<Fig13Row> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let (d16, dlxe) = pair(suite, &w)?;
            Some(Fig13Row {
                workload: w,
                traffic_ratio: dlxe.stats.ifetch_words as f64 / d16.stats.ifetch_words as f64,
                size_ratio: dlxe.size_bytes as f64 / d16.size_bytes as f64,
            })
        })
        .collect()
}

// ------------------------------------------------------------------------
// Section 4: memory performance
// ------------------------------------------------------------------------

/// One point of Figure 14: mean CPI curves for a fetch-bus width.
#[derive(Clone, Debug)]
pub struct Fig14Point {
    /// Memory wait states `l`.
    pub wait_states: u64,
    /// Mean DLXe CPI.
    pub dlxe_cpi: f64,
    /// Mean D16 CPI.
    pub d16_cpi: f64,
    /// Mean D16 CPI normalized by the DLXe instruction count.
    pub d16_normalized: f64,
}

/// Figure 14: normalized CPI without a cache, for a 32- or 64-bit bus.
pub fn fig14_cacheless_cpi(suite: &Suite, bus_bytes: u32) -> Vec<Fig14Point> {
    let pairs: Vec<_> = suite.workloads().iter().filter_map(|w| pair(suite, w)).collect();
    (0..=3)
        .map(|l| {
            let mut dlxe_cpi = 0.0;
            let mut d16_cpi = 0.0;
            let mut d16_norm = 0.0;
            for &(d16, dlxe) in &pairs {
                let dc = dlxe.cacheless_cycles(bus_bytes, l) as f64;
                let sc = d16.cacheless_cycles(bus_bytes, l) as f64;
                dlxe_cpi += dc / dlxe.stats.insns as f64;
                d16_cpi += sc / d16.stats.insns as f64;
                d16_norm += sc / dlxe.stats.insns as f64;
            }
            let n = pairs.len() as f64;
            Fig14Point {
                wait_states: l,
                dlxe_cpi: dlxe_cpi / n,
                d16_cpi: d16_cpi / n,
                d16_normalized: d16_norm / n,
            }
        })
        .collect()
}

/// Figure 15: instruction-fetch bus saturation (fetch requests per cycle).
#[derive(Clone, Debug)]
pub struct Fig15Point {
    /// Memory wait states.
    pub wait_states: u64,
    /// Mean DLXe fetches/cycle.
    pub dlxe: f64,
    /// Mean D16 fetches/cycle.
    pub d16: f64,
}

/// Computes Figure 15 for a bus width.
pub fn fig15_fetch_saturation(suite: &Suite, bus_bytes: u32) -> Vec<Fig15Point> {
    let pairs: Vec<_> = suite.workloads().iter().filter_map(|w| pair(suite, w)).collect();
    (0..=3)
        .map(|l| {
            let mut d = 0.0;
            let mut s = 0.0;
            for &(d16, dlxe) in &pairs {
                let ireq = |m: &Measurement| {
                    if bus_bytes >= 8 {
                        m.ireq_bus64
                    } else {
                        m.ireq_bus32
                    }
                };
                d += ireq(dlxe) as f64 / dlxe.cacheless_cycles(bus_bytes, l) as f64;
                s += ireq(d16) as f64 / d16.cacheless_cycles(bus_bytes, l) as f64;
            }
            let n = pairs.len() as f64;
            Fig15Point { wait_states: l, dlxe: d / n, d16: s / n }
        })
        .collect()
}

/// Tables 11/12: per-workload DLXe/D16 cycle ratios for wait states 0–3.
#[derive(Clone, Debug)]
pub struct CycleRatioRow {
    /// Workload.
    pub workload: String,
    /// Ratios at `l` = 0, 1, 2, 3.
    pub ratios: [f64; 4],
}

/// Computes Table 11 (32-bit bus) or Table 12 (64-bit bus).
pub fn table11_12_cycle_ratios(suite: &Suite, bus_bytes: u32) -> Vec<CycleRatioRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let (d16, dlxe) = pair(suite, &w)?;
            let mut ratios = [0.0; 4];
            for (i, r) in ratios.iter_mut().enumerate() {
                *r = dlxe.cacheless_cycles(bus_bytes, i as u64) as f64
                    / d16.cacheless_cycles(bus_bytes, i as u64) as f64;
            }
            Some(CycleRatioRow { workload: w, ratios })
        })
        .collect()
}

// ------------------------------------------------------------------------
// Cache experiments (Figures 16-19, Tables 13-16)
// ------------------------------------------------------------------------

/// Cache sizes of the paper's sweeps (Figures 16/19, Tables 14–16).
pub const GRID_SIZES: [u32; 5] = [1024, 2048, 4096, 8192, 16384];

/// Block sizes of the Tables 14–16 grids.
pub const GRID_BLOCKS: [u32; 4] = [8, 16, 32, 64];

/// Every cache configuration any experiment reads: the size × block
/// grid of Tables 14–16, which also contains (at block 32) every point of
/// Figures 16–19. One cell's run sweeps all of them at once (see
/// [`Suite::cache_grid`]).
pub fn cache_grid_configs() -> Vec<CacheConfig> {
    let mut out = Vec::with_capacity(GRID_SIZES.len() * GRID_BLOCKS.len());
    for size in GRID_SIZES {
        for block in GRID_BLOCKS {
            out.push(CacheConfig {
                size,
                block,
                sub_block: 8.min(block),
                assoc: 1,
                wrap_prefetch: true,
            });
        }
    }
    out
}

/// Index of a (size, block) point within [`cache_grid_configs`].
///
/// # Errors
///
/// [`SuiteError::OffGrid`] when the point is not a swept configuration
/// (also forced by the `off-grid-config` failpoint, which simulates a
/// report asking for a cache point the sweep never warmed).
pub fn cache_grid_index(size: u32, block: u32) -> Result<usize, SuiteError> {
    if d16_testkit::faults::armed("off-grid-config").is_some() {
        return Err(SuiteError::OffGrid { size, block });
    }
    let si = GRID_SIZES.iter().position(|&s| s == size);
    let bi = GRID_BLOCKS.iter().position(|&b| b == block);
    match (si, bi) {
        (Some(si), Some(bi)) => Ok(si * GRID_BLOCKS.len() + bi),
        _ => Err(SuiteError::OffGrid { size, block }),
    }
}

/// One miss-rate point for Figure 16.
#[derive(Clone, Debug)]
pub struct Fig16Point {
    /// Cache size in bytes.
    pub size: u32,
    /// D16 instruction miss rate (per fetch).
    pub d16: f64,
    /// DLXe instruction miss rate.
    pub dlxe: f64,
}

/// Figure 16: instruction-cache miss rates for 1K–16K caches.
///
/// # Errors
///
/// [`SuiteError::MissingGrid`] if a needed grid was never swept.
pub fn fig16_icache_miss(suite: &Suite, workload: &str) -> Result<Vec<Fig16Point>, SuiteError> {
    let d16 = suite.cache_grid(workload, Isa::D16)?;
    let dlxe = suite.cache_grid(workload, Isa::Dlxe)?;
    let mut out = Vec::with_capacity(GRID_SIZES.len());
    for size in GRID_SIZES {
        let i = cache_grid_index(size, 32)?;
        out.push(Fig16Point {
            size,
            d16: d16[i].icache().read_miss_ratio(),
            dlxe: dlxe[i].icache().read_miss_ratio(),
        });
    }
    Ok(out)
}

/// One CPI point for Figures 17/18.
#[derive(Clone, Debug)]
pub struct Fig17Point {
    /// Miss penalty in cycles.
    pub penalty: u64,
    /// DLXe CPI.
    pub dlxe_cpi: f64,
    /// D16 CPI.
    pub d16_cpi: f64,
    /// D16 cycles / DLXe instructions.
    pub d16_normalized: f64,
}

/// Figures 17 (4K caches) and 18 (16K): CPI against miss penalty.
///
/// # Errors
///
/// [`SuiteError`] if a needed cell or grid is absent.
pub fn fig17_18_cache_cpi(
    suite: &Suite,
    workload: &str,
    cache_size: u32,
) -> Result<Vec<Fig17Point>, SuiteError> {
    let d16_m = suite.try_get(workload, D16)?;
    let dlxe_m = suite.try_get(workload, DLXE)?;
    let i = cache_grid_index(cache_size, 32)?;
    let grid_d16 = suite.cache_grid(workload, Isa::D16)?;
    let grid_dlxe = suite.cache_grid(workload, Isa::Dlxe)?;
    let (cs_d16, cs_dlxe) = (&grid_d16[i], &grid_dlxe[i]);
    Ok([4u64, 8, 12, 16]
        .into_iter()
        .map(|penalty| Fig17Point {
            penalty,
            dlxe_cpi: cs_dlxe.cycles(&dlxe_m.stats, penalty) as f64 / dlxe_m.stats.insns as f64,
            d16_cpi: cs_d16.cycles(&d16_m.stats, penalty) as f64 / d16_m.stats.insns as f64,
            d16_normalized: cs_d16.cycles(&d16_m.stats, penalty) as f64 / dlxe_m.stats.insns as f64,
        })
        .collect())
}

/// One traffic point for Figure 19.
#[derive(Clone, Debug)]
pub struct Fig19Point {
    /// Cache size in bytes.
    pub size: u32,
    /// DLXe instruction traffic, words/cycle.
    pub dlxe: f64,
    /// D16 instruction traffic, words/cycle.
    pub d16: f64,
}

/// Figure 19: instruction traffic (words/cycle) across cache sizes at a
/// miss penalty of four cycles.
///
/// # Errors
///
/// [`SuiteError`] if a needed cell or grid is absent.
pub fn fig19_cache_traffic(suite: &Suite, workload: &str) -> Result<Vec<Fig19Point>, SuiteError> {
    let d16_m = suite.try_get(workload, D16)?;
    let dlxe_m = suite.try_get(workload, DLXE)?;
    let grid_d16 = suite.cache_grid(workload, Isa::D16)?;
    let grid_dlxe = suite.cache_grid(workload, Isa::Dlxe)?;
    let mut out = Vec::with_capacity(GRID_SIZES.len());
    for size in GRID_SIZES {
        let i = cache_grid_index(size, 32)?;
        out.push(Fig19Point {
            size,
            dlxe: grid_dlxe[i].itraffic_words_per_cycle(&dlxe_m.stats, 4),
            d16: grid_d16[i].itraffic_words_per_cycle(&d16_m.stats, 4),
        });
    }
    Ok(out)
}

/// One row of the Tables 14–16 miss-rate grids.
#[derive(Clone, Debug)]
pub struct MissGridRow {
    /// Cache size.
    pub size: u32,
    /// Block size.
    pub block: u32,
    /// (D16, DLXe) instruction miss rates.
    pub insn: (f64, f64),
    /// (D16, DLXe) data-read miss rates.
    pub read: (f64, f64),
    /// (D16, DLXe) data-write miss rates.
    pub write: (f64, f64),
}

/// Tables 14–16: miss-rate grids over cache size × block size for one
/// cache benchmark.
///
/// # Errors
///
/// [`SuiteError::MissingGrid`] if a needed grid was never swept.
pub fn miss_rate_grid(suite: &Suite, workload: &str) -> Result<Vec<MissGridRow>, SuiteError> {
    let grid_d16 = suite.cache_grid(workload, Isa::D16)?;
    let grid_dlxe = suite.cache_grid(workload, Isa::Dlxe)?;
    let mut out = Vec::new();
    for size in GRID_SIZES {
        for block in GRID_BLOCKS {
            let i = cache_grid_index(size, block)?;
            let d16 = grid_d16[i].miss_rates_per_access();
            let dlxe = grid_dlxe[i].miss_rates_per_access();
            out.push(MissGridRow {
                size,
                block,
                insn: (d16.0, dlxe.0),
                read: (d16.1, dlxe.1),
                write: (d16.2, dlxe.2),
            });
        }
    }
    Ok(out)
}

/// Table 13: traffic and interlocks for the cache benchmarks.
#[derive(Clone, Debug)]
pub struct Table13Row {
    /// Workload.
    pub workload: String,
    /// ISA.
    pub isa: &'static str,
    /// Path length.
    pub insns: u64,
    /// Interlock rate.
    pub interlock_rate: f64,
    /// Instruction fetch words.
    pub ifetch_words: u64,
    /// Data reads.
    pub reads: u64,
    /// Data writes.
    pub writes: u64,
}

/// Computes Table 13. Cache benchmarks not collected into `suite` (e.g.
/// in a `--smoke` run) are omitted from the rows.
pub fn table13_cache_traffic(suite: &Suite) -> Vec<Table13Row> {
    let mut out = Vec::new();
    for w in d16_workloads::cache_benchmarks() {
        for (isa, target) in [("D16", D16), ("DLXe", DLXE)] {
            let Ok(m) = suite.try_get(w.name, target) else { continue };
            out.push(Table13Row {
                workload: w.name.to_string(),
                isa,
                insns: m.stats.insns,
                interlock_rate: m.stats.interlock_rate(),
                ifetch_words: m.stats.ifetch_words,
                reads: m.stats.loads,
                writes: m.stats.stores,
            });
        }
    }
    out
}

/// Tables 8/9/10: per-workload raw data for the appendix.
#[derive(Clone, Debug)]
pub struct AppendixRow {
    /// Workload.
    pub workload: String,
    /// D16 path length.
    pub d16_insns: u64,
    /// DLXe path length.
    pub dlxe_insns: u64,
    /// D16 fetched words.
    pub d16_ifetch_words: u64,
    /// DLXe fetched words.
    pub dlxe_ifetch_words: u64,
    /// D16 loads + stores.
    pub d16_mem_ops: u64,
    /// DLXe loads + stores.
    pub dlxe_mem_ops: u64,
    /// D16 interlocks.
    pub d16_interlocks: u64,
    /// DLXe interlocks.
    pub dlxe_interlocks: u64,
}

/// Computes the appendix tables (8, 9, 10) in one pass.
pub fn appendix_tables(suite: &Suite) -> Vec<AppendixRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let (d16, dlxe) = pair(suite, &w)?;
            Some(AppendixRow {
                workload: w,
                d16_insns: d16.stats.insns,
                dlxe_insns: dlxe.stats.insns,
                d16_ifetch_words: d16.stats.ifetch_words,
                dlxe_ifetch_words: dlxe.stats.ifetch_words,
                d16_mem_ops: d16.stats.mem_ops(),
                dlxe_mem_ops: dlxe.stats.mem_ops(),
                d16_interlocks: d16.stats.interlocks,
                dlxe_interlocks: dlxe.stats.interlocks,
            })
        })
        .collect()
}

// ------------------------------------------------------------------------
// Beyond the paper: FPU-latency sensitivity (extension)
// ------------------------------------------------------------------------

/// One point of the FPU-latency sensitivity sweep.
#[derive(Clone, Debug)]
pub struct FpuSweepPoint {
    /// Multiply latency (divide scales 3×, add/convert stay at 2).
    pub mul_latency: u64,
    /// D16 base cycles (`IC + Interlocks`).
    pub d16_cycles: u64,
    /// DLXe base cycles.
    pub dlxe_cycles: u64,
    /// D16 interlock rate.
    pub d16_rate: f64,
    /// DLXe interlock rate.
    pub dlxe_rate: f64,
}

/// Sensitivity of the D16/DLXe comparison to FPU ("math unit") latency —
/// the interface the paper simplifies for its prototype. Re-runs one FP
/// workload with multiply latencies 1–16 on both machines.
///
/// The paper's conclusion is robust if the cycle *ratio* stays stable:
/// both encodings issue the same FP operations, so latency cancels.
///
/// # Errors
///
/// Propagates build/run failures with a description.
pub fn fpu_latency_sweep(workload: &str) -> Result<Vec<FpuSweepPoint>, String> {
    fpu_latency_sweep_stored(workload, None)
}

/// [`fpu_latency_sweep`] through an optional `d16-store`: the five sweep
/// points are cached per workload, with rates restored bit-exactly.
///
/// # Errors
///
/// Propagates build/run failures with a description.
pub fn fpu_latency_sweep_stored(
    workload: &str,
    store: Option<&d16_store::Store>,
) -> Result<Vec<FpuSweepPoint>, String> {
    let w = d16_workloads::by_name(workload).ok_or_else(|| format!("no workload {workload}"))?;
    let at = store.map(|s| (s, crate::stored::fpu_key(w)));
    if let Some((s, key)) = at {
        if let Some(points) = s.get_with(crate::stored::FPU_KIND, key, crate::stored::decode_fpu) {
            return Ok(points);
        }
    }
    let d16_image =
        crate::measure::build(w, &TargetSpec::d16(), store).map_err(|e| e.to_string())?;
    let dlxe_image =
        crate::measure::build(w, &TargetSpec::dlxe(), store).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for mul in [1u64, 2, 4, 8, 16] {
        let lat = d16_sim::FpuLatency { add: 2, mul, div_s: mul * 3, div_d: mul * 3 + 4, cvt: 2 };
        let run = |image: &d16_asm::Image| -> Result<(u64, f64), String> {
            let mut m = Machine::load(image);
            m.set_fpu_latency(lat);
            m.run(crate::measure::FUEL, &mut NullSink).map_err(|e| e.to_string())?;
            Ok((m.stats().base_cycles(), m.stats().interlock_rate()))
        };
        let (d16_cycles, d16_rate) = run(&d16_image)?;
        let (dlxe_cycles, dlxe_rate) = run(&dlxe_image)?;
        out.push(FpuSweepPoint { mul_latency: mul, d16_cycles, dlxe_cycles, d16_rate, dlxe_rate });
    }
    if let Some((s, key)) = at {
        s.put(crate::stored::FPU_KIND, key, &crate::stored::encode_fpu(&out));
    }
    Ok(out)
}

// ------------------------------------------------------------------------
// Beyond the paper: pipeline depth × predictor sweep (extension)
// ------------------------------------------------------------------------

/// One target's pipeline-sweep grid for a workload: every
/// (depth, predictor) timing cell plus fetch traffic at every fetch
/// width, scored in a single interpreter pass
/// (see [`d16_sim::PipelineSweep`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSweepRow {
    /// Target label (`D16/16/2`, ..., `D16x/16/3`).
    pub target: String,
    /// The finished grid.
    pub sweep: d16_sim::SweepResult,
}

/// Sensitivity of the D16/DLXe comparison to the pipeline design point —
/// the paper fixes a five-stage, predict-untaken, one-word-fetch machine;
/// this sweep re-times every standard target across depths 3–8, three
/// front-end predictors, and three fetch widths. One interpreter pass per
/// target scores the whole grid; the default-spec cell reproduces
/// [`d16_sim::ExecStats::base_cycles`] exactly.
///
/// # Errors
///
/// Propagates build/run failures with a description.
pub fn pipeline_sweep(workload: &str) -> Result<Vec<PipelineSweepRow>, String> {
    pipeline_sweep_stored(workload, None)
}

/// [`pipeline_sweep`] through an optional `d16-store`: the per-target
/// grids are cached per workload and restored bit-exactly.
///
/// # Errors
///
/// Propagates build/run failures with a description.
pub fn pipeline_sweep_stored(
    workload: &str,
    store: Option<&d16_store::Store>,
) -> Result<Vec<PipelineSweepRow>, String> {
    let w = d16_workloads::by_name(workload).ok_or_else(|| format!("no workload {workload}"))?;
    let at = store.map(|s| (s, crate::stored::psweep_key(w)));
    if let Some((s, key)) = at {
        if let Some(rows) =
            s.get_with(crate::stored::PSWEEP_KIND, key, crate::stored::decode_psweep)
        {
            return Ok(rows);
        }
    }
    let mut out = Vec::new();
    for spec in crate::suite::standard_specs() {
        let image = crate::measure::build(w, &spec, store).map_err(|e| e.to_string())?;
        let mut m = Machine::load(&image);
        m.attach_pipeline_sweep(d16_sim::PipelineSweep::new());
        match m.run(crate::measure::FUEL, &mut NullSink).map_err(|e| e.to_string())? {
            d16_sim::StopReason::Halted(_) => {}
            d16_sim::StopReason::OutOfFuel => {
                return Err(format!("{workload} on {}: did not halt", spec.label()))
            }
        }
        let sweep = m
            .take_pipeline_sweep()
            .ok_or_else(|| format!("{workload} on {}: sweep detached", spec.label()))?
            .finish();
        out.push(PipelineSweepRow { target: spec.label(), sweep });
    }
    if let Some((s, key)) = at {
        s.put(crate::stored::PSWEEP_KIND, key, &crate::stored::encode_psweep(&out));
    }
    Ok(out)
}

// ------------------------------------------------------------------------
// Beyond the paper: the D16x mixed-width target (extension)
// ------------------------------------------------------------------------

const D16X: &str = "D16x/16/3";

/// One workload's D16x row: the third curve next to Figures 4/5 plus the
/// macro-op fusion ablation. Fusion on D16x is pure accounting — it
/// changes no architectural state — so the fusion-off and fusion-on cycle
/// counts both derive from the same measurement
/// ([`d16_sim::ExecStats::base_cycles`] vs
/// [`d16_sim::ExecStats::fused_cycles`]).
#[derive(Clone, Debug)]
pub struct D16xRow {
    /// Workload name.
    pub workload: String,
    /// Static size vs D16 (D16x bytes / D16 bytes): the cost of the
    /// 32-bit escape formats.
    pub size_vs_d16: f64,
    /// Relative density vs DLXe (DLXe bytes / D16x bytes): Figure 4's
    /// axis, third curve.
    pub density_vs_dlxe: f64,
    /// Path length vs D16 (D16x insns / D16 insns): Figure 5's axis with
    /// the curves inverted — below 1.0 means the escape formats shortened
    /// the path.
    pub path_vs_d16: f64,
    /// Dynamic compare→branch pairs fused.
    pub fused_cmp_br: u64,
    /// Dynamic `mvhi`→`ori`/`addi` pairs fused.
    pub fused_lui_addi: u64,
    /// Base cycles with fusion off (`IC + Interlocks`).
    pub base_cycles: u64,
    /// Base cycles with fusion on (one cycle back per fused pair).
    pub fused_cycles: u64,
}

impl D16xRow {
    /// Percentage of base cycles the fusion pass recovers.
    pub fn fusion_savings_pct(&self) -> f64 {
        if self.base_cycles == 0 {
            0.0
        } else {
            (self.base_cycles - self.fused_cycles) as f64 / self.base_cycles as f64 * 100.0
        }
    }
}

// ------------------------------------------------------------------------
// Extension: the extended suite, reported distributionally
// ------------------------------------------------------------------------

/// One extended-suite workload's static-size and path-length ratios
/// against the D16/16/2 baseline, in [`crate::suite::standard_specs`]
/// order (the D16 column is identically 1.00 and kept for shape).
#[derive(Clone, Debug)]
pub struct ExtendedRow {
    /// Workload name.
    pub workload: String,
    /// `(target label, size ratio, path ratio)` per standard target.
    pub ratios: Vec<(String, f64, f64)>,
}

/// Per-workload grid ratios over the whole registry — the paper's
/// fifteen programs then the extension workloads, in registry order.
/// The extension cells live in their own [`Suite`] (`extras`) so the
/// main suite's pinned telemetry and metrics stay byte-identical; a
/// workload's cells are looked up in `main` first, then `extras`.
/// Workloads missing any of the six cells drop out, like every other
/// report function over a degraded suite.
pub fn extended_rows(main: &Suite, extras: &Suite) -> Vec<ExtendedRow> {
    let cell = |w: &str, t: &str| main.try_get(w, t).or_else(|_| extras.try_get(w, t)).ok();
    let labels: Vec<String> =
        crate::suite::standard_specs().iter().map(TargetSpec::label).collect();
    SUITE
        .iter()
        .chain(d16_workloads::EXTRAS)
        .filter_map(|w| {
            let base = cell(w.name, D16)?;
            let ratios = labels
                .iter()
                .map(|t| {
                    let m = cell(w.name, t)?;
                    Some((
                        t.clone(),
                        m.size_bytes as f64 / base.size_bytes as f64,
                        m.stats.insns as f64 / base.stats.insns as f64,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(ExtendedRow { workload: w.name.to_string(), ratios })
        })
        .collect()
}

/// Five-number-ish summary of one ratio distribution over workloads:
/// the extremes and median of the observed ratios, plus a bootstrap
/// 95% confidence interval on the mean (percentile method, fixed seed,
/// 2000 resamples — deterministic across runs and `--jobs` values).
#[derive(Clone, Debug)]
pub struct DistSummary {
    /// Number of workloads summarized.
    pub n: usize,
    /// Smallest observed ratio.
    pub min: f64,
    /// Median observed ratio.
    pub median: f64,
    /// Largest observed ratio.
    pub max: f64,
    /// Arithmetic mean (the paper's AVERAGE rows).
    pub mean: f64,
    /// Lower edge of the bootstrap 95% CI on the mean.
    pub ci_lo: f64,
    /// Upper edge of the bootstrap 95% CI on the mean.
    pub ci_hi: f64,
}

/// One target's size and path distributions over the extended suite.
#[derive(Clone, Debug)]
pub struct ExtendedDist {
    /// Target label.
    pub target: String,
    /// Static-size ratio distribution (vs D16 = 1.0).
    pub size: DistSummary,
    /// Path-length ratio distribution (vs D16 = 1.0).
    pub path: DistSummary,
}

/// Bootstrap resamples per distribution.
const BOOTSTRAP_B: usize = 2000;

fn summarize(values: &[f64], seed: &mut u64) -> DistSummary {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    let mean = values.iter().sum::<f64>() / n as f64;
    // Percentile bootstrap on the mean, driven by a fixed xorshift64
    // stream so the interval is a pure function of the values.
    let mut means = Vec::with_capacity(BOOTSTRAP_B);
    for _ in 0..BOOTSTRAP_B {
        let mut sum = 0.0;
        for _ in 0..n {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            sum += values[(*seed % n as u64) as usize];
        }
        means.push(sum / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let pick = |q: f64| means[((BOOTSTRAP_B - 1) as f64 * q).round() as usize];
    DistSummary {
        n,
        min: sorted[0],
        median,
        max: sorted[n - 1],
        mean,
        ci_lo: pick(0.025),
        ci_hi: pick(0.975),
    }
}

/// Distribution summaries per target over the given extended rows, in
/// [`crate::suite::standard_specs`] order. Empty when `rows` is empty.
pub fn extended_distributions(rows: &[ExtendedRow]) -> Vec<ExtendedDist> {
    let Some(first) = rows.first() else { return Vec::new() };
    let mut seed: u64 = 0x9E37_79B9_7F4A_7C15;
    first
        .ratios
        .iter()
        .enumerate()
        .map(|(ti, (target, _, _))| {
            let size: Vec<f64> = rows.iter().map(|r| r.ratios[ti].1).collect();
            let path: Vec<f64> = rows.iter().map(|r| r.ratios[ti].2).collect();
            ExtendedDist {
                target: target.clone(),
                size: summarize(&size, &mut seed),
                path: summarize(&path, &mut seed),
            }
        })
        .collect()
}

/// The D16x third curve and fusion ablation, one row per workload that
/// collected all three unrestricted cells. Degraded workloads drop out,
/// like every other report function.
pub fn d16x_third_curve(suite: &Suite) -> Vec<D16xRow> {
    suite
        .workloads()
        .into_iter()
        .filter_map(|w| {
            let (d16, dlxe) = pair(suite, &w)?;
            let x = suite.try_get(&w, D16X).ok()?;
            Some(D16xRow {
                size_vs_d16: x.size_bytes as f64 / d16.size_bytes as f64,
                density_vs_dlxe: dlxe.size_bytes as f64 / x.size_bytes as f64,
                path_vs_d16: x.stats.insns as f64 / d16.stats.insns as f64,
                fused_cmp_br: x.stats.fused_cmp_br,
                fused_lui_addi: x.stats.fused_lui_addi,
                base_cycles: x.stats.base_cycles(),
                fused_cycles: x.stats.fused_cycles(),
                workload: w,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_counts_agree_across_engines() {
        let spec = TargetSpec::dlxe_restricted(true, true, false);
        for w in SUITE {
            let interp = table4_counts(w, &spec, None, Engine::Interp).unwrap();
            let blocks = table4_counts(w, &spec, None, Engine::Blocks).unwrap();
            assert_eq!(interp, blocks, "{}: (cmp, alu, mem, total)", w.name);
            assert!(interp.3 > 0, "{}: classified no instructions", w.name);
        }
    }
}
