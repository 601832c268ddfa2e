//! Property-style tests on the memory models: accounting identities,
//! inclusion monotonicity, fetch-buffer conservation laws, and the
//! single-pass/serial replay equivalence of [`CacheBank`].
//!
//! Deterministic `d16-testkit` generators replace the original `proptest`
//! strategies (offline builds, DESIGN.md §7).

use d16_mem::{Cache, CacheBank, CacheConfig, CacheSystem, FetchBuffer};
use d16_sim::{AccessSink, TraceRecorder};
use d16_testkit::{cases, Rng};

fn config(rng: &mut Rng) -> CacheConfig {
    CacheConfig {
        size: 1024 << rng.below(4),
        block: 16 << rng.below(3),
        sub_block: 8,
        assoc: 1 << rng.below(2),
        wrap_prefetch: rng.bool(),
    }
}

/// Mixed strided and random accesses over a 64K region; bool = write.
fn addr_stream(rng: &mut Rng) -> Vec<(u32, bool)> {
    let n = 1 + rng.below(600) as usize;
    (0..n).map(|_| (rng.below(16384) * 4, rng.bool())).collect()
}

/// Hits + misses == accesses, misses <= accesses, ratios in [0, 1].
#[test]
fn cache_accounting() {
    cases(200, |case, rng| {
        let cfg = config(rng);
        let stream = addr_stream(rng);
        let mut c = Cache::new(cfg).unwrap();
        for (a, w) in &stream {
            if *w {
                c.write(*a);
            } else {
                c.read(*a);
            }
        }
        let s = *c.stats();
        assert_eq!(s.accesses(), stream.len() as u64, "case {case}");
        assert!(s.read_misses <= s.reads, "case {case}");
        assert!(s.write_misses <= s.writes, "case {case}");
        assert!((0.0..=1.0).contains(&s.miss_ratio()), "case {case}");
        // Demand traffic only flows on read misses; each brings at most
        // two sub-blocks (demand + prefetch).
        assert!(s.demand_bytes_in <= s.read_misses * u64::from(cfg.sub_block), "case {case}");
        assert!(s.prefetch_bytes_in <= s.read_misses * u64::from(cfg.sub_block), "case {case}");
    });
}

/// Repeating the same stream twice never increases the second pass's
/// misses beyond the first (warm cache).
#[test]
fn warm_pass_not_worse() {
    cases(200, |case, rng| {
        let cfg = config(rng);
        let stream = addr_stream(rng);
        let mut c1 = Cache::new(cfg).unwrap();
        for (a, w) in &stream {
            if *w {
                c1.write(*a);
            } else {
                c1.read(*a);
            }
        }
        let cold = c1.stats().misses();
        for (a, w) in &stream {
            if *w {
                c1.write(*a);
            } else {
                c1.read(*a);
            }
        }
        let warm = c1.stats().misses() - cold;
        assert!(warm <= cold, "case {case}: warm {warm} > cold {cold}");
    });
}

/// A repeated-loop access pattern misses monotonically less as the cache
/// doubles (true for looping patterns in direct-mapped caches; random
/// single-pass streams can violate this via conflict luck, so the
/// property is stated over loops).
#[test]
fn loops_like_bigger_caches() {
    cases(100, |case, rng| {
        let n = 1 + rng.below(128) as usize;
        let seed: Vec<u32> = (0..n).map(|_| rng.below(2048)).collect();
        let mut last = u64::MAX;
        for size in [1024u32, 2048, 4096, 8192] {
            let mut c = Cache::new(CacheConfig::paper(size, 32)).unwrap();
            for _ in 0..4 {
                for a in &seed {
                    c.read(a * 4);
                }
            }
            assert!(c.stats().misses() <= last, "case {case}, size {size}");
            last = c.stats().misses();
        }
    });
}

/// Fetch-buffer conservation: requests never exceed fetches, and a
/// sequential stream of `n` halfwords over a `k`-wide bus makes
/// ceil(n / k) requests.
#[test]
fn fetch_buffer_conservation() {
    cases(300, |case, rng| {
        let n = 1 + rng.below(2000);
        let bus = 4u32 << rng.below(2); // 4 or 8 bytes
        let mut fb = FetchBuffer::new(bus);
        for i in 0..n {
            fb.fetch(0x1000 + i * 2, 2);
        }
        assert_eq!(fb.instructions, u64::from(n), "case {case}");
        assert!(fb.irequests <= u64::from(n), "case {case}");
        let k = bus / 2;
        let expected = n.div_ceil(k);
        assert_eq!(fb.irequests, u64::from(expected), "case {case}");
    });
}

/// The split system routes fetches and data to different caches.
#[test]
fn split_system_routing() {
    cases(200, |case, rng| {
        let stream = addr_stream(rng);
        let mut cs = CacheSystem::paper(2048).unwrap();
        let mut fetches = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (a, w) in &stream {
            if *w {
                cs.write(*a, 4);
                writes += 1;
            } else if a % 8 == 0 {
                cs.fetch(*a, 4);
                fetches += 1;
            } else {
                cs.read(*a, 4);
                reads += 1;
            }
        }
        assert_eq!(cs.icache().reads, fetches, "case {case}");
        assert_eq!(cs.dcache().reads, reads, "case {case}");
        assert_eq!(cs.dcache().writes, writes, "case {case}");
    });
}

/// The differential gate for the single-pass engine: feeding a random
/// trace through a [`CacheBank`] of N configurations must produce, for
/// every member, statistics and telemetry identical to a dedicated serial
/// replay of the same trace through that configuration alone. Members mix
/// sub-blocks of 4 to 32 bytes and associativity 1 to 4, and the fetch
/// stream is full of runs inside one sub-block, so the bank's
/// repeat-fetch path (which serial replays never take) is checked where
/// the smallest sub-block differs between members.
#[test]
fn bank_single_pass_equals_serial_replays() {
    cases(60, |case, rng| {
        // A random trace with all three access kinds and mixed widths.
        let mut trace = TraceRecorder::new();
        let n = 200 + rng.below(2000);
        let mut pc = 0x1000u32;
        for _ in 0..n {
            match rng.below(4) {
                0 | 1 => {
                    trace.fetch(pc, if rng.bool() { 2 } else { 4 });
                    // Mostly sequential with occasional branches and
                    // spins, like a real instruction stream.
                    pc = match rng.below(8) {
                        0 => rng.below(16384) * 2,
                        1 => pc,
                        _ => pc + 2,
                    };
                }
                2 => trace.read(rng.below(16384) * 4, *rng.pick(&[1u8, 2, 4])),
                _ => trace.write(rng.below(16384) * 4, *rng.pick(&[1u8, 2, 4])),
            }
        }
        // A random set of 1-6 distinct-ish configurations.
        let ncfg = 1 + rng.below(6) as usize;
        let cfgs: Vec<CacheConfig> = (0..ncfg)
            .map(|_| {
                let c = config(rng);
                CacheConfig {
                    sub_block: (4 << rng.below(4)).min(c.block),
                    assoc: 1 << rng.below(3),
                    ..c
                }
            })
            .collect();

        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        trace.replay(&mut bank);

        for (cfg, banked) in cfgs.iter().zip(bank.systems()) {
            let mut solo = CacheSystem::new(*cfg, *cfg).unwrap();
            trace.replay(&mut solo);
            assert_eq!(banked.icache(), solo.icache(), "case {case}, cfg {cfg:?}");
            assert_eq!(banked.dcache(), solo.dcache(), "case {case}, cfg {cfg:?}");
            let (mut b, mut s) = (d16_telemetry::Registry::new(), d16_telemetry::Registry::new());
            banked.export_telemetry(&mut b, "m");
            solo.export_telemetry(&mut s, "m");
            assert!(b.counters().eq(s.counters()), "case {case}, cfg {cfg:?}: telemetry");
        }
    });
}
