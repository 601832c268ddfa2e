//! Single-pass multi-configuration cache evaluation.
//!
//! The paper's cache study replays each recorded access trace once per
//! cache configuration, dinero-style. The classic trace-driven-simulation
//! literature (Mattson et al.'s stack algorithms; Sugumar & Abraham's
//! Cheetah) observes that independent configurations can instead be
//! evaluated in *one* sweep over the trace. [`CacheBank`] is the simplest
//! correct form of that idea: it holds N independent [`CacheSystem`]s and
//! feeds every access to all of them, so a trace is decoded and walked
//! exactly once no matter how many geometries are under study.
//!
//! Each member system updates exactly as it would in a dedicated replay,
//! so per-config statistics are bit-identical to N serial replays (a
//! differential test in `tests/proptests.rs` asserts this).
//!
//! One shortcut keeps that exactness. A fetch in the same sub-block as
//! the previous fetch — measured in the smallest I-cache sub-block of
//! any member, so it is the same sub-block in every member — hits in
//! every I-cache: only fetches reach an I-cache, and any read leaves its
//! sub-block valid. Such a fetch only counts a hit in each member and
//! skips the tag walk. Straight-line code makes this the common case:
//! 2 to 4 fetches share each 8-byte sub-block.

use crate::cache::{CacheConfig, ConfigError};
use crate::system::CacheSystem;
use d16_sim::AccessSink;
use d16_telemetry::{Counters, Registry};

d16_telemetry::counter_schema! {
    /// Sweep-level counters: how many accesses one single-pass replay fed
    /// to every member system. Counted once per access, not per member,
    /// so they measure the trace, not the bank width.
    pub BANK_SCHEMA / BankCounter {
        /// Instruction fetches swept.
        Fetches => "sweep.fetches",
        /// Data reads swept.
        Reads => "sweep.reads",
        /// Data writes swept.
        Writes => "sweep.writes",
    }
}

/// N independent split-cache systems fed by one access stream.
#[derive(Clone, Debug)]
pub struct CacheBank {
    systems: Vec<CacheSystem>,
    tele: Counters,
    /// log2 of the smallest member I-cache sub-block (`None` when empty).
    repeat_shift: Option<u32>,
    /// The previous fetch's address shifted right by `repeat_shift`.
    last_fetch: Option<u32>,
}

impl CacheBank {
    /// Builds a bank from pre-constructed systems.
    pub fn new(systems: Vec<CacheSystem>) -> Self {
        let repeat_shift = systems.iter().map(|s| s.iconfig().sub_block.trailing_zeros()).min();
        CacheBank { systems, tele: Counters::new(&BANK_SCHEMA), repeat_shift, last_fetch: None }
    }

    /// Builds a bank of symmetric systems (equal I and D configuration),
    /// one per entry of `configs` — the shape every experiment in the
    /// paper uses.
    ///
    /// # Errors
    ///
    /// Rejects the first invalid configuration (see
    /// [`CacheConfig::validate`]).
    pub fn symmetric(configs: &[CacheConfig]) -> Result<Self, ConfigError> {
        let systems =
            configs.iter().map(|c| CacheSystem::new(*c, *c)).collect::<Result<Vec<_>, _>>()?;
        Ok(Self::new(systems))
    }

    /// Number of member systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// The member systems, in construction order.
    pub fn systems(&self) -> &[CacheSystem] {
        &self.systems
    }

    /// Consumes the bank, returning the member systems with their
    /// accumulated statistics.
    pub fn into_systems(self) -> Vec<CacheSystem> {
        self.systems
    }

    /// The [`BANK_SCHEMA`] sweep counters (all zeros with telemetry
    /// compiled out).
    pub fn telemetry(&self) -> &Counters {
        &self.tele
    }

    /// Dumps the sweep counters plus every member system's per-cache
    /// counters into `reg`: sweep counters under `<prefix>.*`, member
    /// counters under `<prefix>.cfg.<label>.{icache,dcache}.*` (systems
    /// with identical geometry merge into one entry). A no-op with
    /// telemetry compiled out.
    pub fn export_telemetry(&self, reg: &mut Registry, prefix: &str) {
        reg.absorb(prefix, &self.tele);
        for s in &self.systems {
            s.export_telemetry(reg, &format!("{prefix}.cfg.{}", s.label()));
        }
    }
}

impl AccessSink for CacheBank {
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.tele.bump(BankCounter::Fetches);
        let sub = self.repeat_shift.map(|shift| addr >> shift);
        if sub.is_some() && sub == self.last_fetch {
            for s in &mut self.systems {
                s.repeat_fetch_hit();
            }
            return;
        }
        self.last_fetch = sub;
        for s in &mut self.systems {
            s.fetch(addr, bytes);
        }
    }

    fn read(&mut self, addr: u32, bytes: u8) {
        self.tele.bump(BankCounter::Reads);
        for s in &mut self.systems {
            s.read(addr, bytes);
        }
    }

    fn write(&mut self, addr: u32, bytes: u8) {
        self.tele.bump(BankCounter::Writes);
        for s in &mut self.systems {
            s.write(addr, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_members_match_dedicated_systems() {
        let cfgs = [CacheConfig::paper(1024, 32), CacheConfig::paper(4096, 32)];
        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        let mut solo: Vec<CacheSystem> =
            cfgs.iter().map(|c| CacheSystem::new(*c, *c).unwrap()).collect();
        for i in 0..2000u32 {
            let a = (i * 52) % 8192;
            match i % 3 {
                0 => {
                    bank.fetch(a, 4);
                    solo.iter_mut().for_each(|s| s.fetch(a, 4));
                }
                1 => {
                    bank.read(a, 4);
                    solo.iter_mut().for_each(|s| s.read(a, 4));
                }
                _ => {
                    bank.write(a, 4);
                    solo.iter_mut().for_each(|s| s.write(a, 4));
                }
            }
        }
        for (b, s) in bank.systems().iter().zip(&solo) {
            assert_eq!(b.icache(), s.icache());
            assert_eq!(b.dcache(), s.dcache());
        }
    }

    #[test]
    fn bank_telemetry_counts_sweep_and_exports_per_config() {
        let cfgs = [CacheConfig::paper(1024, 32), CacheConfig::paper(4096, 32)];
        let mut bank = CacheBank::symmetric(&cfgs).unwrap();
        for i in 0..300u32 {
            let a = (i * 20) % 4096;
            bank.fetch(a, 4);
            if i % 2 == 0 {
                bank.read(a, 4);
            } else {
                bank.write(a, 4);
            }
        }
        for s in bank.systems() {
            s.reconciles().unwrap();
        }
        let mut reg = d16_telemetry::Registry::new();
        bank.export_telemetry(&mut reg, "grid");
        if d16_telemetry::ENABLED {
            assert_eq!(bank.telemetry().get(BankCounter::Fetches), 300);
            assert_eq!(reg.counter("grid.sweep.fetches"), Some(300));
            assert_eq!(
                reg.counter("grid.cfg.1024B.b32.s8.a1.icache.read.hits").unwrap()
                    + reg.counter("grid.cfg.1024B.b32.s8.a1.icache.read.misses").unwrap(),
                300
            );
            assert!(reg.counter("grid.cfg.4096B.b32.s8.a1.dcache.write.misses").is_some());
        } else {
            assert!(reg.is_empty());
        }
    }

    #[test]
    fn empty_bank_is_a_null_sink() {
        let mut bank = CacheBank::symmetric(&[]).unwrap();
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        bank.fetch(0, 4);
        bank.read(0, 4);
        bank.write(0, 4);
        assert!(bank.into_systems().is_empty());
    }
}
