//! An independent oracle for the cache model: a deliberately naive
//! reference cache written straight from the paper's dinero description
//! (PAPER.md §1, item 7) — direct-mapped, 8-byte sub-blocks, wrap-around
//! prefetch on read misses, write-validate on write misses, write-back of
//! dirty sub-blocks on eviction. It shares no code with `d16_mem::Cache`:
//! plain division, one `Vec<bool>` per line for validity and dirtiness,
//! no bitmaps, no LRU, no shortcuts.
//!
//! The production [`CacheBank`] over the experiment grid
//! ([`cache_grid_configs`]) must agree with it exactly, on seeded random
//! streams rich in same-sub-block fetch runs (the bank's repeat-fetch
//! path) and on a real recorded trace.

use d16_cc::TargetSpec;
use d16_core::experiments::cache_grid_configs;
use d16_mem::{CacheBank, CacheConfig, CacheStats};
use d16_sim::{AccessSink, Machine, TraceRecorder};
use d16_testkit::{cases, Rng};

/// The paper's sub-block size.
const SUB_BLOCK: u32 = 8;

/// One cache line: the block it holds (if any) and, per sub-block,
/// whether it holds data and whether that data is modified.
#[derive(Clone)]
struct RefLine {
    block: Option<u32>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
}

/// A direct-mapped, sub-blocked, write-back cache.
struct RefCache {
    block_bytes: u32,
    sub_bytes: u32,
    lines: Vec<RefLine>,
    stats: CacheStats,
}

impl RefCache {
    fn new(size: u32, block_bytes: u32) -> RefCache {
        let sub_bytes = SUB_BLOCK.min(block_bytes);
        let subs = (block_bytes / sub_bytes) as usize;
        let empty = RefLine { block: None, valid: vec![false; subs], dirty: vec![false; subs] };
        RefCache {
            block_bytes,
            sub_bytes,
            lines: vec![empty; (size / block_bytes) as usize],
            stats: CacheStats::default(),
        }
    }

    /// Finds the line for `addr`, evicting (and writing back) whatever
    /// other block sits there. Returns the line and the sub-block index.
    fn line_for(&mut self, addr: u32) -> (&mut RefLine, usize) {
        let block = addr / self.block_bytes;
        let index = (block as usize) % self.lines.len();
        let sub = ((addr % self.block_bytes) / self.sub_bytes) as usize;
        let sub_bytes = u64::from(self.sub_bytes);
        let line = &mut self.lines[index];
        if line.block != Some(block) {
            let dirty = line.dirty.iter().filter(|d| **d).count() as u64;
            self.stats.bytes_out += dirty * sub_bytes;
            line.block = Some(block);
            line.valid.iter_mut().for_each(|v| *v = false);
            line.dirty.iter_mut().for_each(|d| *d = false);
        }
        (line, sub)
    }

    fn read(&mut self, addr: u32) {
        self.stats.reads += 1;
        let sub_bytes = u64::from(self.sub_bytes);
        let (line, sub) = self.line_for(addr);
        if line.valid[sub] {
            return;
        }
        // Demand-fetch the missed sub-block and prefetch the next one,
        // wrapping around within the block, unless it is already there.
        line.valid[sub] = true;
        let subs = line.valid.len();
        let next = (sub + 1) % subs;
        let prefetched = subs > 1 && !line.valid[next];
        line.valid[next] = true;
        self.stats.read_misses += 1;
        self.stats.demand_bytes_in += sub_bytes;
        if prefetched {
            self.stats.prefetch_bytes_in += sub_bytes;
        }
    }

    fn write(&mut self, addr: u32) {
        self.stats.writes += 1;
        let (line, sub) = self.line_for(addr);
        let hit = line.valid[sub];
        // Write-validate: the written sub-block becomes valid and dirty
        // without fetching the rest of it.
        line.valid[sub] = true;
        line.dirty[sub] = true;
        if !hit {
            self.stats.write_misses += 1;
        }
    }
}

/// Split instruction and data reference caches of one geometry.
struct RefSystem {
    icache: RefCache,
    dcache: RefCache,
}

impl AccessSink for RefSystem {
    fn fetch(&mut self, addr: u32, _bytes: u8) {
        self.icache.read(addr);
    }
    fn read(&mut self, addr: u32, _bytes: u8) {
        self.dcache.read(addr);
    }
    fn write(&mut self, addr: u32, _bytes: u8) {
        self.dcache.write(addr);
    }
}

/// One reference system per grid configuration. The grid is the paper's
/// organization; anything else would be outside the reference's model.
fn reference_grid(configs: &[CacheConfig]) -> Vec<RefSystem> {
    configs
        .iter()
        .map(|c| {
            assert_eq!((c.assoc, c.sub_block, c.wrap_prefetch), (1, SUB_BLOCK.min(c.block), true));
            RefSystem {
                icache: RefCache::new(c.size, c.block),
                dcache: RefCache::new(c.size, c.block),
            }
        })
        .collect()
}

/// Replays `trace` through the production bank and the reference grid
/// and asserts every member's I- and D-cache statistics agree.
fn assert_bank_matches_reference(trace: &TraceRecorder, what: &str) {
    let configs = cache_grid_configs();
    let mut bank = CacheBank::symmetric(&configs).unwrap();
    trace.replay(&mut bank);
    let mut refs = reference_grid(&configs);
    for r in &mut refs {
        trace.replay(r);
    }
    for ((cfg, sys), r) in configs.iter().zip(bank.systems()).zip(&refs) {
        assert_eq!(*sys.icache(), r.icache.stats, "{what}: icache {}", cfg.label());
        assert_eq!(*sys.dcache(), r.dcache.stats, "{what}: dcache {}", cfg.label());
    }
}

/// A random instruction/data stream: sequential fetch runs of 2- or
/// 4-byte instructions (so several fetches share each sub-block), loops
/// that jump back and re-fetch, tight single-sub-block spins, and data
/// reads/writes with stack-like locality plus scattered far accesses.
fn random_trace(rng: &mut Rng) -> TraceRecorder {
    let mut t = TraceRecorder::new();
    let width = if rng.bool() { 2u8 } else { 4u8 };
    let mut pc = 0x1000 + rng.below(0x4000) * 2;
    let mut sp = 0x8_0000u32;
    for _ in 0..(500 + rng.below(3000)) {
        match rng.below(10) {
            0..=5 => {
                t.fetch(pc, width);
                pc = match rng.below(40) {
                    0 => 0x1000 + rng.below(0x8000) * u32::from(width),
                    1 => pc.saturating_sub(rng.below(64) * u32::from(width)).max(0x1000),
                    2 => pc, // a spin: the same instruction again
                    _ => pc + u32::from(width),
                };
            }
            6 => {
                // A run of same-sub-block fetches with no data in between.
                let base = pc & !7;
                for k in 0..(1 + rng.below(6)) {
                    t.fetch(base + (k * u32::from(width)) % 8, width);
                }
            }
            7 => t.read(sp - rng.below(64) * 4, 4),
            8 => t.write(sp - rng.below(64) * 4, *rng.pick(&[1u8, 2, 4])),
            _ => {
                let far = 0x2_0000 + rng.below(0x1_0000) * 4;
                if rng.bool() {
                    t.read(far, 4);
                } else {
                    t.write(far, 4);
                }
                sp = sp.wrapping_add(rng.below(3) * 16).wrapping_sub(16);
            }
        }
    }
    t
}

#[test]
fn reference_cache_matches_a_hand_computed_case() {
    // Sanity of the oracle itself, on hand-computed cases.
    let mut c = RefCache::new(256, 32);
    c.read(0); // miss: demand sub-block 0, prefetch sub-block 1
    c.read(8); // hit (prefetched)
    c.read(24); // miss: demand 3, prefetch wraps to 0 (already valid)
    c.write(40); // new block in line 1: write miss, no fetch
    c.write(40); // hit
    c.read(256 + 40); // conflicts with line 1: writes back one sub-block
    let s = c.stats;
    assert_eq!((s.reads, s.read_misses, s.writes, s.write_misses), (4, 3, 2, 1));
    assert_eq!((s.demand_bytes_in, s.prefetch_bytes_in, s.bytes_out), (24, 16, 8));
}

#[test]
fn bank_matches_reference_on_random_streams() {
    cases(40, |case, rng| {
        assert_bank_matches_reference(&random_trace(rng), &format!("case {case}"));
    });
}

#[test]
fn bank_matches_reference_on_a_recorded_trace() {
    let w = d16_workloads::by_name("towers").unwrap();
    let image = d16_cc::compile_to_image(&[w.source], &TargetSpec::d16()).unwrap();
    let mut m = Machine::load(&image);
    let mut trace = TraceRecorder::new();
    m.run(u64::MAX / 2, &mut trace).unwrap();
    assert!(trace.len() > 100_000, "towers records a real trace ({})", trace.len());
    assert_bank_matches_reference(&trace, "towers D16");
}
