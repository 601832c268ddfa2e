//! Cache keys and codecs for the harness's `d16-store` artifacts.
//!
//! Five artifact kinds ride in the store:
//!
//! * `image` — linked binaries, written by `d16-cc` (see
//!   [`d16_cc::compile_to_image_stored`]).
//! * `cell` — one (workload, target) [`Measurement`] plus, for a cache
//!   benchmark on an unrestricted machine, its swept cache [`Grid`]:
//!   per-configuration aggregate statistics, from which every counter is
//!   rebuilt.
//! * `table4` / `fpu` / `psweep` — the three experiments that re-run
//!   workloads outside the suite grid (immediate-class counts,
//!   FPU-latency points, pipeline depth × predictor grids).
//!
//! Every key folds in [`CORE_TAG`] (bump when the simulator, memory
//! models, or these codecs change observable results), the relevant
//! toolchain keys (so source or codegen changes retire entries), and —
//! for records that carry telemetry counter blocks — the compile-time
//! telemetry mode, because a block dumped in one mode cannot be
//! restored in the other.
//!
//! Restores are *complete*: a warm run's measurements, grids and
//! derived tables are bit-identical to a cold run's, so caching can
//! never change a paper-facing number (DESIGN.md §6).

use crate::measure::{Grid, Measurement};
use d16_cc::TargetSpec;
use d16_mem::{CacheConfig, CacheStats, CacheSystem, BANK_SCHEMA};
use d16_sim::{ExecStats, PipelineSpec, Predictor, SIM_SCHEMA};
use d16_store::{CacheKey, Reader, StableHasher, Writer};
use d16_telemetry::Counters;
use d16_workloads::Workload;

/// Version tag for everything the harness persists: simulator and
/// memory-model behavior, the codecs below, and the grid configuration
/// set. Bump it whenever any of those changes observable numbers, and
/// every stale entry stops matching at once.
pub const CORE_TAG: &str = "d16-core/4";

/// Store kind for (workload, target) measurement cells.
pub const CELL_KIND: &str = "cell";

/// Store kind for per-workload Table 4 immediate-class counts.
pub const TABLE4_KIND: &str = "table4";

/// Store kind for per-workload FPU-latency sweep points.
pub const FPU_KIND: &str = "fpu";

/// Store kind for per-workload pipeline depth × predictor sweep grids.
pub const PSWEEP_KIND: &str = "psweep";

// ---------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------

/// Key of one measurement cell: the image it runs (which already covers
/// source text, every codegen knob, and both toolchain tags) plus whether
/// the run sweeps the cache grid (whose configurations [`CORE_TAG`]
/// covers). A non-default [`PipelineSpec`] retimes the machine,
/// so it folds into the key; the default spec adds nothing, keeping
/// default-spec keys stable across the introduction of the knob.
pub fn cell_key(w: &Workload, spec: &TargetSpec, sweep: bool, pspec: &PipelineSpec) -> CacheKey {
    let mut h = StableHasher::new("d16-core.cell");
    h.field_str(CORE_TAG)
        .field_bool(d16_telemetry::ENABLED)
        .field_key(d16_cc::build_key(&[w.source], spec))
        .field_str(w.name)
        .field_bool(sweep);
    if *pspec != PipelineSpec::default() {
        h.field_u64(u64::from(pspec.depth))
            .field_str(pspec.predictor.name())
            .field_u64(u64::from(pspec.fetch_width_halfwords));
    }
    h.finish()
}

/// Key of one workload's Table 4 classification counts (always measured
/// on `DLXe/16/2`; the counts are plain integers, so the telemetry mode
/// does not enter).
pub fn table4_key(w: &Workload) -> CacheKey {
    let spec = TargetSpec::dlxe_restricted(true, true, false);
    let mut h = StableHasher::new("d16-core.table4");
    h.field_str(CORE_TAG).field_key(d16_cc::build_key(&[w.source], &spec)).field_str(w.name);
    h.finish()
}

/// Key of one workload's FPU-latency sweep (runs both unrestricted
/// images over the fixed latency ladder).
pub fn fpu_key(w: &Workload) -> CacheKey {
    let mut h = StableHasher::new("d16-core.fpu");
    h.field_str(CORE_TAG)
        .field_key(d16_cc::build_key(&[w.source], &TargetSpec::d16()))
        .field_key(d16_cc::build_key(&[w.source], &TargetSpec::dlxe()))
        .field_str(w.name);
    h.finish()
}

/// Key of one workload's pipeline sweep: every standard target's image
/// (one interpreter pass each feeds the grid) plus the sweep-grid shape,
/// so widening the grid retires stale records.
pub fn psweep_key(w: &Workload) -> CacheKey {
    let mut h = StableHasher::new("d16-core.psweep");
    h.field_str(CORE_TAG).field_str(w.name);
    for spec in crate::suite::standard_specs() {
        h.field_key(d16_cc::build_key(&[w.source], &spec));
    }
    h.field_u64(d16_sim::SWEEP_CELLS as u64);
    for &d in &d16_sim::PIPELINE_DEPTHS {
        h.field_u64(u64::from(d));
    }
    for &fw in &d16_sim::FETCH_WIDTHS {
        h.field_u64(u64::from(fw));
    }
    h.finish()
}

// ---------------------------------------------------------------------
// Cell records
// ---------------------------------------------------------------------

/// Serializes one measured cell and its optional grid.
#[must_use]
pub fn encode_cell(m: &Measurement, grid: Option<&Grid>) -> Vec<u8> {
    let mut w = Writer::new();
    w.i32(m.exit).u64(m.size_bytes).u64(m.text_bytes);
    let s = &m.stats;
    w.u64(s.insns)
        .u64(s.loads)
        .u64(s.stores)
        .u64(s.interlocks)
        .u64(s.load_interlocks)
        .u64(s.fpu_interlocks)
        .u64(s.ifetch_words)
        .u64(s.branches)
        .u64(s.taken_branches)
        .u64(s.nops)
        .u64(s.fused_cmp_br)
        .u64(s.fused_lui_addi)
        .u64(s.mispredicts)
        .u64(s.misfetch_cycles);
    w.u64(m.ireq_bus32).u64(m.ireq_bus64);
    write_counter_values(&mut w, &m.tele);
    w.bool(grid.is_some());
    if let Some(g) = grid {
        write_grid(&mut w, g);
    }
    w.into_bytes()
}

/// Deserializes a cell record; `None` on any structural damage,
/// including grid statistics [`CacheSystem::from_stats`] rejects as
/// inconsistent or a counter block from the other telemetry mode.
#[must_use]
pub fn decode_cell(
    bytes: &[u8],
    w: &Workload,
    spec: &TargetSpec,
) -> Option<(Measurement, Option<Grid>)> {
    let mut r = Reader::new(bytes);
    let exit = r.i32()?;
    let size_bytes = r.u64()?;
    let text_bytes = r.u64()?;
    let stats = ExecStats {
        insns: r.u64()?,
        loads: r.u64()?,
        stores: r.u64()?,
        interlocks: r.u64()?,
        load_interlocks: r.u64()?,
        fpu_interlocks: r.u64()?,
        ifetch_words: r.u64()?,
        branches: r.u64()?,
        taken_branches: r.u64()?,
        nops: r.u64()?,
        fused_cmp_br: r.u64()?,
        fused_lui_addi: r.u64()?,
        mispredicts: r.u64()?,
        misfetch_cycles: r.u64()?,
    };
    let ireq_bus32 = r.u64()?;
    let ireq_bus64 = r.u64()?;
    let tele = read_counter_values(&mut r, &SIM_SCHEMA)?;
    let grid = if r.bool()? { Some(read_grid(&mut r)?) } else { None };
    r.finish()?;
    // The record was validated against the pinned checksum when it was
    // written, but re-check: a record that disagrees cannot be served.
    if let Some(expected) = w.expected {
        if exit != expected {
            return None;
        }
    }
    let m = Measurement {
        workload: w.name,
        target: spec.label(),
        exit,
        size_bytes,
        text_bytes,
        stats,
        ireq_bus32,
        ireq_bus64,
        tele,
    };
    Some((m, grid))
}

// ---------------------------------------------------------------------
// Grids (inside cell records)
// ---------------------------------------------------------------------

/// Writes a swept cache grid: the sweep-level counters plus each system's
/// configurations and aggregate statistics. Per-cache telemetry is *not*
/// stored — [`d16_mem::Cache::from_stats`] rebuilds it from the
/// aggregates, reconciled by construction.
fn write_grid(w: &mut Writer, g: &Grid) {
    write_counter_values(w, &g.sweep);
    w.u64(g.systems.len() as u64);
    for s in &g.systems {
        write_cache_half(w, s.iconfig(), s.icache());
        write_cache_half(w, s.dconfig(), s.dcache());
    }
}

/// Reads a grid; `None` on structural damage or statistics
/// [`CacheSystem::from_stats`] rejects as inconsistent.
fn read_grid(r: &mut Reader<'_>) -> Option<Grid> {
    let sweep = read_counter_values(r, &BANK_SCHEMA)?;
    let n = usize::try_from(r.u64()?).ok()?;
    let mut systems = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let (icfg, istats) = read_cache_half(r)?;
        let (dcfg, dstats) = read_cache_half(r)?;
        systems.push(CacheSystem::from_stats(icfg, istats, dcfg, dstats).ok()?);
    }
    Some(Grid { systems, sweep })
}

fn write_cache_half(w: &mut Writer, cfg: &CacheConfig, stats: &CacheStats) {
    w.u32(cfg.size).u32(cfg.block).u32(cfg.sub_block).u32(cfg.assoc).bool(cfg.wrap_prefetch);
    w.u64(stats.reads)
        .u64(stats.read_misses)
        .u64(stats.writes)
        .u64(stats.write_misses)
        .u64(stats.demand_bytes_in)
        .u64(stats.prefetch_bytes_in)
        .u64(stats.bytes_out);
}

fn read_cache_half(r: &mut Reader<'_>) -> Option<(CacheConfig, CacheStats)> {
    let cfg = CacheConfig {
        size: r.u32()?,
        block: r.u32()?,
        sub_block: r.u32()?,
        assoc: r.u32()?,
        wrap_prefetch: r.bool()?,
    };
    let stats = CacheStats {
        reads: r.u64()?,
        read_misses: r.u64()?,
        writes: r.u64()?,
        write_misses: r.u64()?,
        demand_bytes_in: r.u64()?,
        prefetch_bytes_in: r.u64()?,
        bytes_out: r.u64()?,
    };
    Some((cfg, stats))
}

// ---------------------------------------------------------------------
// Table 4 and FPU-sweep records
// ---------------------------------------------------------------------

/// Serializes one workload's Table 4 classification counts
/// `(cmp, alu, mem, total)`.
#[must_use]
pub fn encode_table4(counts: (u64, u64, u64, u64)) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(counts.0).u64(counts.1).u64(counts.2).u64(counts.3);
    w.into_bytes()
}

/// Deserializes Table 4 counts; `None` on structural damage or counts
/// that exceed their own total.
#[must_use]
pub fn decode_table4(bytes: &[u8]) -> Option<(u64, u64, u64, u64)> {
    let mut r = Reader::new(bytes);
    let counts = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
    r.finish()?;
    let (cmp, alu, mem, total) = counts;
    if cmp.checked_add(alu)?.checked_add(mem)? > total || total == 0 {
        return None;
    }
    Some(counts)
}

/// Serializes an FPU-latency sweep (rates ride as IEEE-754 bit patterns,
/// so the restore is bit-exact).
#[must_use]
pub fn encode_fpu(points: &[crate::experiments::FpuSweepPoint]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(points.len() as u64);
    for p in points {
        w.u64(p.mul_latency)
            .u64(p.d16_cycles)
            .u64(p.dlxe_cycles)
            .u64(p.d16_rate.to_bits())
            .u64(p.dlxe_rate.to_bits());
    }
    w.into_bytes()
}

/// Deserializes an FPU-latency sweep; `None` on structural damage.
#[must_use]
pub fn decode_fpu(bytes: &[u8]) -> Option<Vec<crate::experiments::FpuSweepPoint>> {
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut points = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        points.push(crate::experiments::FpuSweepPoint {
            mul_latency: r.u64()?,
            d16_cycles: r.u64()?,
            dlxe_cycles: r.u64()?,
            d16_rate: f64::from_bits(r.u64()?),
            dlxe_rate: f64::from_bits(r.u64()?),
        });
    }
    r.finish()?;
    Some(points)
}

/// Serializes a pipeline sweep: one depth × predictor grid (plus the
/// fetch-width traffic vector) per standard target.
#[must_use]
pub fn encode_psweep(rows: &[crate::experiments::PipelineSweepRow]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(rows.len() as u64);
    for row in rows {
        w.str(&row.target).u64(row.sweep.insns);
        w.u64(row.sweep.cells.len() as u64);
        for c in &row.sweep.cells {
            w.u8(c.depth)
                .str(c.predictor.name())
                .u64(c.cycles)
                .u64(c.interlock_cycles)
                .u64(c.mispredicts)
                .u64(c.penalty_cycles);
        }
        for &u in &row.sweep.fetch_units {
            w.u64(u);
        }
    }
    w.into_bytes()
}

/// Deserializes a pipeline sweep; `None` on structural damage, an
/// unknown predictor name, or a grid of the wrong shape.
#[must_use]
pub fn decode_psweep(bytes: &[u8]) -> Option<Vec<crate::experiments::PipelineSweepRow>> {
    let mut r = Reader::new(bytes);
    let n = usize::try_from(r.u64()?).ok()?;
    let mut rows = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        let target = r.str()?.to_string();
        let insns = r.u64()?;
        let cells_n = usize::try_from(r.u64()?).ok()?;
        if cells_n != d16_sim::SWEEP_CELLS {
            return None;
        }
        let mut cells = Vec::with_capacity(cells_n);
        for _ in 0..cells_n {
            cells.push(d16_sim::SweepCell {
                depth: r.u8()?,
                predictor: Predictor::parse(r.str()?)?,
                cycles: r.u64()?,
                interlock_cycles: r.u64()?,
                mispredicts: r.u64()?,
                penalty_cycles: r.u64()?,
            });
        }
        let mut fetch_units = [0u64; d16_sim::FETCH_WIDTHS.len()];
        for u in &mut fetch_units {
            *u = r.u64()?;
        }
        rows.push(crate::experiments::PipelineSweepRow {
            target,
            sweep: d16_sim::SweepResult { insns, cells, fetch_units },
        });
    }
    r.finish()?;
    Some(rows)
}

// ---------------------------------------------------------------------
// Counter blocks
// ---------------------------------------------------------------------

fn write_counter_values(w: &mut Writer, c: &Counters) {
    let vals = c.values();
    w.u64(vals.len() as u64);
    for &v in vals {
        w.u64(v);
    }
}

fn read_counter_values(
    r: &mut Reader<'_>,
    schema: &'static d16_telemetry::Schema,
) -> Option<Counters> {
    let n = usize::try_from(r.u64()?).ok()?;
    let mut vals = Vec::with_capacity(n.min(1 << 10));
    for _ in 0..n {
        vals.push(r.u64()?);
    }
    Counters::from_values(schema, &vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, RunConfig};

    /// Two grids agree member by member, sweep counters included.
    fn assert_grids_equal(a: &Grid, b: &Grid) {
        assert_eq!(a.sweep.values(), b.sweep.values());
        assert_eq!(a.systems.len(), b.systems.len());
        for (x, y) in a.systems.iter().zip(&b.systems) {
            assert_eq!((x.iconfig(), x.dconfig()), (y.iconfig(), y.dconfig()));
            assert_eq!((x.icache(), x.dcache()), (y.icache(), y.dcache()));
        }
    }

    #[test]
    fn cell_roundtrips_with_and_without_trace() {
        let w = d16_workloads::by_name("towers").unwrap();
        for (spec, sweep) in
            [(TargetSpec::d16(), true), (TargetSpec::dlxe_restricted(true, true, false), false)]
        {
            let (m, grid) = measure(w, &spec, sweep, &RunConfig::default()).unwrap();
            let bytes = encode_cell(&m, grid.as_ref());
            let (back, back_grid) = decode_cell(&bytes, w, &spec).unwrap();
            assert_eq!(back.exit, m.exit);
            assert_eq!(back.target, m.target);
            assert_eq!((back.size_bytes, back.text_bytes), (m.size_bytes, m.text_bytes));
            assert_eq!(back.stats, m.stats);
            assert_eq!((back.ireq_bus32, back.ireq_bus64), (m.ireq_bus32, m.ireq_bus64));
            assert_eq!(back.tele.values(), m.tele.values());
            assert_eq!(back_grid.is_some(), sweep);
            if let (Some(a), Some(b)) = (&grid, &back_grid) {
                assert_grids_equal(a, b);
            }
        }
    }

    #[test]
    fn cell_decode_rejects_damage_and_wrong_checksum() {
        let w = d16_workloads::by_name("towers").unwrap();
        let spec = TargetSpec::d16();
        let (m, grid) = measure(w, &spec, true, &RunConfig::default()).unwrap();
        let bytes = encode_cell(&m, grid.as_ref());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_cell(&bytes[..cut], w, &spec).is_none(), "cut at {cut}");
        }
        // A record whose exit disagrees with the pinned checksum must
        // not be served, even if structurally intact.
        let mut wrong = m.clone();
        wrong.exit += 1;
        let bad = encode_cell(&wrong, grid.as_ref());
        assert!(decode_cell(&bad, w, &spec).is_none());
    }

    #[test]
    fn keys_separate_cells_and_artifact_kinds() {
        let towers = d16_workloads::by_name("towers").unwrap();
        let queens = d16_workloads::by_name("queens").unwrap();
        let d16 = TargetSpec::d16();
        let dp = PipelineSpec::default();
        let base = cell_key(towers, &d16, false, &dp);
        assert_eq!(base, cell_key(towers, &d16, false, &dp));
        assert_ne!(base, cell_key(towers, &d16, true, &dp), "a swept grid changes the record");
        assert_ne!(base, cell_key(queens, &d16, false, &dp));
        assert_ne!(base, cell_key(towers, &TargetSpec::dlxe(), false, &dp));
        let deep = PipelineSpec { depth: 8, predictor: Predictor::TwoBit, ..dp };
        assert_ne!(base, cell_key(towers, &d16, false, &deep), "a retimed machine is a new cell");
        assert_ne!(table4_key(towers), table4_key(queens));
        assert_ne!(fpu_key(towers), fpu_key(queens));
        assert_ne!(psweep_key(towers), psweep_key(queens));
    }

    #[test]
    fn psweep_roundtrips_and_rejects_damage() {
        let rows = crate::experiments::pipeline_sweep("towers").unwrap();
        assert_eq!(rows.len(), crate::suite::standard_specs().len());
        for row in &rows {
            assert_eq!(row.sweep.cells.len(), d16_sim::SWEEP_CELLS);
            // The default-spec cell reproduces the live machine's timing
            // constants: at depth 5 every predictor column is identical
            // (zero penalty) and depths 3/4 carry no interlocks at all.
            let d5 = row.sweep.cell(5, Predictor::None).unwrap();
            for p in [Predictor::StaticTaken, Predictor::TwoBit] {
                assert_eq!(row.sweep.cell(5, p).unwrap().cycles, d5.cycles, "{}", row.target);
            }
            assert_eq!(row.sweep.cell(3, Predictor::None).unwrap().interlock_cycles, 0);
        }
        let bytes = encode_psweep(&rows);
        let back = decode_psweep(&bytes).unwrap();
        assert_eq!(back, rows, "sweep rows restore bit-identically");
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_psweep(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn grid_roundtrips_bit_identically() {
        let w = d16_workloads::by_name("towers").unwrap();
        let spec = TargetSpec::d16();
        let (m, grid) = measure(w, &spec, true, &RunConfig::default()).unwrap();
        let grid = grid.unwrap();
        assert_eq!(grid.systems.len(), crate::experiments::cache_grid_configs().len());
        let bytes = encode_cell(&m, Some(&grid));
        let (_, back) = decode_cell(&bytes, w, &spec).unwrap();
        let back = back.unwrap();
        assert_grids_equal(&back, &grid);
        for sys in &back.systems {
            sys.reconciles().unwrap();
        }
        // Structural damage inside the grid decodes to None, never a bad
        // grid: a cut through the last member ...
        for cut in [bytes.len() - 9, bytes.len() - 1] {
            assert!(decode_cell(&bytes[..cut], w, &spec).is_none(), "cut at {cut}");
        }
        // ... and statistics the cache model rejects: the last member's
        // D-cache `reads` (7 u64 fields from the end) zeroed under its
        // nonzero read misses.
        assert!(grid.systems[grid.systems.len() - 1].dcache().read_misses > 0);
        let mut inconsistent = bytes.clone();
        let at = bytes.len() - 7 * 8;
        inconsistent[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_cell(&inconsistent, w, &spec).is_none());
    }
}
