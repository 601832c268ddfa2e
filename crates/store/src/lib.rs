//! # d16-store — content-addressed artifacts for incremental runs
//!
//! Every expensive product of the experiment pipeline — compiled images,
//! per-cell [`Measurement`] rows with their swept cache grids, derived
//! sweep tables — is a pure function of (source text, target knobs, toolchain
//! version). This crate persists those products on disk keyed by a
//! stable content hash of exactly those inputs, so a rerun recomputes
//! only what actually changed.
//!
//! Design rules, in order:
//!
//! 1. **Never serve damaged data.** Every entry is wrapped in a
//!    checksummed envelope (magic, format version, payload length,
//!    FNV-1a/64 digest). A truncated write, a flipped bit, or a
//!    foreign-format file fails the envelope check; the entry is
//!    evicted, counted in `corrupt_evicted`, and the artifact is
//!    silently recomputed. A cache can lose entries; it must not lie.
//! 2. **Atomic commit, single writer.** Writes go to a per-process temp
//!    file in the entry's directory and are published with `rename`,
//!    which replaces atomically on POSIX. On top of that, every commit
//!    — and every eviction — holds a per-entry lock file (created with
//!    `O_EXCL`, retried with backoff, broken when stale), so concurrent
//!    `--jobs N` workers, two whole `repro` processes, or a pool of
//!    `d16-serve` daemons sharing one store serialize their mutations
//!    of any single entry. Readers never lock: `rename` guarantees they
//!    see either the old bytes or the new bytes, never a mix.
//! 3. **Best-effort by construction.** A failed read is a miss; a
//!    failed write is skipped; a lock held past the retry budget is
//!    counted in `lock_contention` and the mutation abandoned. The
//!    store can accelerate a run, never fail or block one: every error
//!    path degrades to recomputation.
//!
//! Keys come from [`StableHasher`] (see `key.rs`): a domain string plus
//! length-prefixed fields, hashed with FNV-1a/128. Producers include
//! their own toolchain tag in the key material, so bumping a tag when
//! codegen changes retires every stale entry at once — nothing is ever
//! mutated in place.
//!
//! [`Measurement`]: ../d16_core/measure/struct.Measurement.html

mod key;
mod wire;

pub use key::{fnv64, CacheKey, StableHasher};
pub use wire::{Reader, Writer};

use d16_telemetry::Registry;
use std::fs;
use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// On-disk entry format version; part of every envelope. Bump on any
/// envelope-layout change so old stores read as misses, not garbage.
pub const FORMAT: u32 = 1;

/// Envelope magic: identifies a d16-store entry file.
pub const MAGIC: [u8; 4] = *b"d16s";

/// Envelope header size: magic + format + payload length + digest.
const HEADER: usize = 4 + 4 + 8 + 8;

/// How long a commit waits for a contended entry lock before giving up
/// and skipping the cache (≈ attempts × poll interval).
const PUT_LOCK_ATTEMPTS: u32 = 250;

/// How long an eviction waits. Much shorter: if someone holds the lock
/// they are probably replacing the damaged entry anyway.
const EVICT_LOCK_ATTEMPTS: u32 = 20;

/// Poll interval between lock acquisition attempts.
const LOCK_POLL: Duration = Duration::from_millis(1);

/// A lock older than this is presumed abandoned by a crashed process
/// and broken. Real holders keep a lock for one temp-file write plus a
/// rename — microseconds to low milliseconds.
const LOCK_STALE: Duration = Duration::from_secs(5);

/// Operation counters, updated atomically so concurrent workers can
/// share one [`Store`]. These are *store* telemetry, deliberately kept
/// out of the experiment registry: the `--metrics-json` dump must stay
/// byte-identical between cold and warm runs (see DESIGN.md §6), so
/// hit/miss counts only ever appear in the timing (non-diffed) half of
/// a report.
#[derive(Debug, Default)]
pub struct StoreStats {
    hit: AtomicU64,
    miss: AtomicU64,
    write: AtomicU64,
    corrupt_evicted: AtomicU64,
    io_errors: AtomicU64,
    lock_contention: AtomicU64,
}

/// A point-in-time copy of [`StoreStats`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct StatsSnapshot {
    /// Entries served from disk.
    pub hit: u64,
    /// Lookups that found nothing servable (includes evictions).
    pub miss: u64,
    /// Entries committed.
    pub write: u64,
    /// Entries evicted because the envelope or payload failed to check.
    pub corrupt_evicted: u64,
    /// Lookups or commits abandoned on a filesystem error, each one
    /// degraded to recomputation (the `store-io` failpoint lands here).
    pub io_errors: u64,
    /// Commits or evictions abandoned because another writer held the
    /// entry lock past the retry budget; degraded to recomputation.
    pub lock_contention: u64,
}

impl StatsSnapshot {
    /// `(name, value)` pairs in [`d16_telemetry::STORE_SCHEMA`] order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 6] {
        let names = d16_telemetry::STORE_SCHEMA.names();
        [
            (names[0], self.hit),
            (names[1], self.miss),
            (names[2], self.write),
            (names[3], self.corrupt_evicted),
            (names[4], self.io_errors),
            (names[5], self.lock_contention),
        ]
    }
}

/// What [`Store::verify`] found and did.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct VerifyReport {
    /// Entry files scanned.
    pub scanned: u64,
    /// Entries whose envelope checked out.
    pub ok: u64,
    /// Entries evicted (bad envelope; also bumps `corrupt_evicted`).
    pub evicted: u64,
    /// Abandoned commit temp files removed (a crashed writer's leavings;
    /// harmless — lookups never read them — but worth sweeping).
    pub temps_removed: u64,
    /// Stale entry locks removed (a crashed writer died holding them;
    /// live lookups break these on demand, `verify` sweeps them early).
    pub locks_removed: u64,
}

/// A content-addressed artifact store rooted at one directory.
///
/// Layout: `root/<kind>/<first two hex digits>/<32 hex digits>.bin`,
/// one checksummed envelope per entry. The two-digit fanout keeps
/// directories small; `kind` separates artifact namespaces (`image`,
/// `cell`, `grid`, ...) for selective wiping and inspection.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    stats: StoreStats,
    seq: AtomicU64,
}

/// A held per-entry lock; the lock file is removed on drop.
struct EntryLock {
    path: PathBuf,
}

impl Drop for EntryLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// The lock file guarding mutations of `entry`: the entry file name
/// plus `.lock`, in the same directory (so `rename` and the lock live
/// on one filesystem).
fn lock_path(entry: &Path) -> PathBuf {
    let mut name = entry.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".lock");
    entry.with_file_name(name)
}

/// Whether a lock file was abandoned by a crashed holder. The holder
/// stamps the lock with its wall-clock creation time in nanoseconds;
/// an unreadable or garbled stamp (holder died mid-write) falls back
/// to the file's mtime. Clock skew into the future reads as fresh.
fn lock_is_stale(path: &Path) -> bool {
    let by_stamp = fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse::<u128>().ok())
        .and_then(|stamp| {
            let now = SystemTime::now().duration_since(UNIX_EPOCH).ok()?.as_nanos();
            Some(now.saturating_sub(stamp) > LOCK_STALE.as_nanos())
        });
    if let Some(stale) = by_stamp {
        return stale;
    }
    fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > LOCK_STALE)
}

/// Tries to take the entry lock: `O_EXCL` create, polled up to
/// `attempts` times, breaking locks that look abandoned. `None` means
/// the lock stayed contended (or the directory is unwritable) — the
/// caller degrades rather than blocks.
fn acquire_lock(path: &Path, attempts: u32) -> Option<EntryLock> {
    for _ in 0..attempts {
        match fs::OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(mut f) => {
                let stamp =
                    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0);
                let _ = write!(f, "{stamp}");
                return Some(EntryLock { path: path.to_path_buf() });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if lock_is_stale(path) {
                    // Break it and retry immediately; if several
                    // processes break the same stale lock at once,
                    // `create_new` still admits exactly one.
                    let _ = fs::remove_file(path);
                } else {
                    std::thread::sleep(LOCK_POLL);
                }
            }
            Err(_) => return None,
        }
    }
    None
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store { root, stats: StoreStats::default(), seq: AtomicU64::new(0) })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path of an entry (whether or not it exists).
    #[must_use]
    pub fn entry_path(&self, kind: &str, key: CacheKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(kind).join(&hex[..2]).join(format!("{hex}.bin"))
    }

    /// Looks up an entry and decodes it. `decode` returning `None` is
    /// treated exactly like a bad checksum: the file cannot be what the
    /// key promises, so it is evicted and the lookup is a miss. It may
    /// be called more than once: eviction revalidates under the entry
    /// lock, and if a concurrent writer replaced the damaged bytes in
    /// the meantime the fresh bytes are decoded and served instead.
    ///
    /// The read itself is lock-free — `rename` commits mean a reader
    /// sees whole old bytes or whole new bytes, never a mix.
    pub fn get_with<T>(
        &self,
        kind: &str,
        key: CacheKey,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> Option<T> {
        if d16_testkit::faults::armed_for("store-io", kind) {
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            self.stats.miss.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.entry_path(kind, key);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) => {
                // An absent entry is the normal cold-store miss; any other
                // failure is an I/O error worth accounting separately.
                if e.kind() != io::ErrorKind::NotFound {
                    self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.miss.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match unwrap_envelope(&data).and_then(&mut decode) {
            Some(v) => {
                self.stats.hit.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => self.evict_corrupt(&path, decode),
        }
    }

    /// Evicts an entry whose bytes failed to decode — but only under
    /// the entry lock, and only after revalidating. Without the lock,
    /// this read-decide-unlink sequence races a concurrent `put`: the
    /// reader decodes stale damaged bytes, the writer commits a fresh
    /// good entry, and the reader's unlink then destroys it. Under the
    /// lock no commit can interleave, and a revalidating re-read turns
    /// "the writer beat us to it" into a served hit.
    fn evict_corrupt<T>(
        &self,
        path: &Path,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let Some(_lock) = acquire_lock(&lock_path(path), EVICT_LOCK_ATTEMPTS) else {
            // Whoever holds the lock is replacing the entry; leave it.
            self.stats.lock_contention.fetch_add(1, Ordering::Relaxed);
            self.stats.miss.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let current = fs::read(path).ok();
        match current.as_deref().and_then(unwrap_envelope).and_then(&mut decode) {
            Some(v) => {
                self.stats.hit.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                if current.is_some() {
                    let _ = fs::remove_file(path);
                    self.stats.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.miss.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Commits an entry: entry lock, envelope, temp file, atomic
    /// rename. Best effort — on any I/O failure the entry is simply
    /// not cached (and the temp file removed if it got that far); if
    /// the entry lock stays contended past the retry budget the commit
    /// is skipped and counted in `lock_contention`.
    pub fn put(&self, kind: &str, key: CacheKey, payload: &[u8]) {
        if d16_testkit::faults::armed_for("store-io", kind) {
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let path = self.entry_path(kind, key);
        let Some(dir) = path.parent() else { return };
        if fs::create_dir_all(dir).is_err() {
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let Some(_lock) = acquire_lock(&lock_path(&path), PUT_LOCK_ATTEMPTS) else {
            self.stats.lock_contention.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let tmp = dir.join(format!(
            "{}.tmp.{}.{}",
            key.hex(),
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed),
        ));
        if fs::write(&tmp, wrap_envelope(payload)).is_err() {
            let _ = fs::remove_file(&tmp);
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if fs::rename(&tmp, &path).is_err() {
            let _ = fs::remove_file(&tmp);
            self.stats.io_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats.write.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the operation counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            hit: self.stats.hit.load(Ordering::Relaxed),
            miss: self.stats.miss.load(Ordering::Relaxed),
            write: self.stats.write.load(Ordering::Relaxed),
            corrupt_evicted: self.stats.corrupt_evicted.load(Ordering::Relaxed),
            io_errors: self.stats.io_errors.load(Ordering::Relaxed),
            lock_contention: self.stats.lock_contention.load(Ordering::Relaxed),
        }
    }

    /// Dumps the operation counters into a registry as `store.*` (the
    /// [`d16_telemetry::STORE_SCHEMA`] names). Callers must keep this
    /// out of any cold-vs-warm diffed registry — see [`StoreStats`].
    pub fn export_telemetry(&self, reg: &mut Registry) {
        for (name, v) in self.stats().named() {
            reg.add_counter(format!("store.{name}"), v);
        }
    }

    /// Scans every entry, evicting any whose envelope fails to check
    /// and sweeping abandoned commit temp files. Lookups do the same
    /// check per entry anyway; `verify` exists to front-load it
    /// (`repro --store-verify`) and to report what a store holds.
    ///
    /// # Errors
    ///
    /// Fails only on directory-walk I/O errors, not on bad entries.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut rep = VerifyReport::default();
        let mut dirs = vec![self.root.clone()];
        while let Some(dir) = dirs.pop() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let path = entry.path();
                if entry.file_type()?.is_dir() {
                    dirs.push(path);
                    continue;
                }
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.contains(".tmp.") {
                    if fs::remove_file(&path).is_ok() {
                        rep.temps_removed += 1;
                    }
                    continue;
                }
                if name.ends_with(".lock") {
                    // Only abandoned locks are swept; a fresh one has a
                    // live holder mid-commit and must be left alone.
                    if lock_is_stale(&path) && fs::remove_file(&path).is_ok() {
                        rep.locks_removed += 1;
                    }
                    continue;
                }
                if !name.ends_with(".bin") {
                    continue;
                }
                rep.scanned += 1;
                let ok = fs::read(&path).ok().as_deref().and_then(unwrap_envelope).is_some();
                if ok {
                    rep.ok += 1;
                } else if fs::remove_file(&path).is_ok() {
                    rep.evicted += 1;
                    self.stats.corrupt_evicted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(rep)
    }
}

/// Wraps a payload in the checksummed envelope.
#[must_use]
pub fn wrap_envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks an envelope, returning the payload only if the magic, format
/// version, length, and digest all agree.
#[must_use]
pub fn unwrap_envelope(data: &[u8]) -> Option<&[u8]> {
    let header = data.get(..HEADER)?;
    if header[..4] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(header[4..8].try_into().ok()?) != FORMAT {
        return None;
    }
    let len = usize::try_from(u64::from_le_bytes(header[8..16].try_into().ok()?)).ok()?;
    let digest = u64::from_le_bytes(header[16..HEADER].try_into().ok()?);
    let payload = data.get(HEADER..)?;
    if payload.len() != len || fnv64(payload) != digest {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d16_testkit::TempDir;

    fn key(n: u64) -> CacheKey {
        let mut h = StableHasher::new("test");
        h.field_u64(n);
        h.finish()
    }

    #[test]
    fn roundtrip_hit_and_miss() {
        let dir = TempDir::new("roundtrip");
        let store = Store::open(dir.path()).unwrap();
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())), None);
        store.put("cell", key(1), b"payload");
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())).unwrap(), b"payload");
        assert_eq!(store.get_with("other-kind", key(1), |b| Some(b.to_vec())), None);
        let s = store.stats();
        assert_eq!((s.hit, s.miss, s.write, s.corrupt_evicted), (1, 2, 1, 0));
    }

    #[test]
    fn decode_failure_counts_as_corruption() {
        let dir = TempDir::new("decode");
        let store = Store::open(dir.path()).unwrap();
        store.put("cell", key(1), b"not what the codec wants");
        assert_eq!(store.get_with("cell", key(1), |_| None::<()>), None);
        assert_eq!(store.stats().corrupt_evicted, 1);
        assert!(!store.entry_path("cell", key(1)).exists(), "evicted from disk");
    }

    #[test]
    fn envelope_rejects_each_kind_of_damage() {
        let good = wrap_envelope(b"abc");
        assert_eq!(unwrap_envelope(&good), Some(&b"abc"[..]));
        // Truncation, anywhere.
        for cut in 0..good.len() {
            assert_eq!(unwrap_envelope(&good[..cut]), None, "cut at {cut}");
        }
        // A flipped bit, anywhere.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x10;
            assert_eq!(unwrap_envelope(&bad), None, "flip at {i}");
        }
        // Wrong format version.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&(FORMAT + 1).to_le_bytes());
        assert_eq!(unwrap_envelope(&bad), None);
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert_eq!(unwrap_envelope(&bad), None);
    }

    #[test]
    fn put_replaces_atomically_and_leaves_no_temps() {
        let dir = TempDir::new("replace");
        let store = Store::open(dir.path()).unwrap();
        store.put("image", key(2), b"v1");
        store.put("image", key(2), b"v2");
        assert_eq!(store.get_with("image", key(2), |b| Some(b.to_vec())).unwrap(), b"v2");
        let rep = store.verify().unwrap();
        assert_eq!((rep.scanned, rep.ok, rep.evicted), (1, 1, 0));
        assert_eq!(
            (rep.temps_removed, rep.locks_removed),
            (0, 0),
            "commit cleaned up after itself"
        );
    }

    #[test]
    fn verify_evicts_corrupt_and_sweeps_temps() {
        let dir = TempDir::new("verify");
        let store = Store::open(dir.path()).unwrap();
        store.put("cell", key(1), b"ok");
        store.put("cell", key(2), b"damaged soon");
        let victim = store.entry_path("cell", key(2));
        let mut raw = fs::read(&victim).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        fs::write(&victim, raw).unwrap();
        // A crashed writer's abandoned temp file.
        let crashed = victim.with_file_name(format!("{}.tmp.999.0", key(2).hex()));
        fs::write(&crashed, b"partial").unwrap();
        // A crashed writer's abandoned lock (stamp far in the past) and
        // a live writer's fresh lock.
        let stale_lock = lock_path(&store.entry_path("cell", key(3)));
        fs::create_dir_all(stale_lock.parent().unwrap()).unwrap();
        fs::write(&stale_lock, b"0").unwrap();
        let fresh_lock = lock_path(&store.entry_path("cell", key(1)));
        let held = acquire_lock(&fresh_lock, 1).unwrap();

        let rep = store.verify().unwrap();
        assert_eq!((rep.scanned, rep.ok, rep.evicted), (2, 1, 1));
        assert_eq!((rep.temps_removed, rep.locks_removed), (1, 1));
        assert!(!victim.exists());
        assert!(!crashed.exists());
        assert!(!stale_lock.exists(), "abandoned lock swept");
        assert!(fresh_lock.exists(), "held lock left for its holder");
        drop(held);
        assert_eq!(store.stats().corrupt_evicted, 1);
        // The good entry still serves.
        assert!(store.get_with("cell", key(1), |b| Some(b.to_vec())).is_some());
    }

    #[test]
    fn concurrent_writers_to_one_key_are_safe() {
        let dir = TempDir::new("concurrent");
        let store = Store::open(dir.path()).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        store.put("cell", key(7), b"same bytes from everyone");
                        let got = store.get_with("cell", key(7), |b| Some(b.to_vec()));
                        if let Some(b) = got {
                            assert_eq!(b, b"same bytes from everyone");
                        }
                    }
                });
            }
        });
        assert_eq!(store.stats().corrupt_evicted, 0);
        let rep = store.verify().unwrap();
        assert_eq!(rep.evicted, 0);
    }

    #[test]
    fn export_telemetry_uses_store_prefix() {
        let dir = TempDir::new("tele");
        let store = Store::open(dir.path()).unwrap();
        store.put("cell", key(1), b"x");
        store.get_with("cell", key(1), |b| Some(b.len()));
        let mut reg = Registry::new();
        store.export_telemetry(&mut reg);
        assert_eq!(reg.counter("store.hit"), Some(1));
        assert_eq!(reg.counter("store.miss"), Some(0));
        assert_eq!(reg.counter("store.write"), Some(1));
        assert_eq!(reg.counter("store.corrupt_evicted"), Some(0));
        assert_eq!(reg.counter("store.io_errors"), Some(0));
        assert_eq!(reg.counter("store.lock_contention"), Some(0));
    }

    #[test]
    fn eviction_revalidates_under_the_lock() {
        // The torn-read race: a reader decodes damaged bytes, a writer
        // commits fresh good bytes, and an unlocked eviction would then
        // unlink the good entry. Simulated deterministically: the first
        // decode call rejects, the lock-held revalidation re-reads and
        // the second decode accepts — the entry must survive and serve.
        let dir = TempDir::new("revalidate");
        let store = Store::open(dir.path()).unwrap();
        store.put("cell", key(1), b"fresh");
        let mut calls = 0;
        let got = store.get_with("cell", key(1), |b| {
            calls += 1;
            if calls == 1 {
                None // what a stale torn view would have decoded to
            } else {
                Some(b.to_vec())
            }
        });
        assert_eq!(got.unwrap(), b"fresh");
        assert_eq!(calls, 2, "revalidation re-decoded the current bytes");
        assert!(store.entry_path("cell", key(1)).exists(), "good entry not destroyed");
        let s = store.stats();
        assert_eq!((s.hit, s.miss, s.corrupt_evicted), (1, 0, 0));
    }

    #[test]
    fn eviction_respects_a_held_lock() {
        let dir = TempDir::new("held-lock");
        let store = Store::open(dir.path()).unwrap();
        store.put("cell", key(1), b"soon damaged");
        let path = store.entry_path("cell", key(1));
        fs::write(&path, b"garbage").unwrap();
        // Someone else holds the entry lock: eviction must stand down.
        let held = acquire_lock(&lock_path(&path), 1).unwrap();
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())), None);
        assert!(path.exists(), "entry left for the lock holder");
        let s = store.stats();
        assert_eq!((s.corrupt_evicted, s.lock_contention), (0, 1));
        // Lock released: the next lookup evicts as usual.
        drop(held);
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())), None);
        assert!(!path.exists(), "evicted once the lock was free");
        assert_eq!(store.stats().corrupt_evicted, 1);
    }

    #[test]
    fn contended_put_degrades_to_skipping_the_cache() {
        let dir = TempDir::new("contended-put");
        let store = Store::open(dir.path()).unwrap();
        let path = store.entry_path("cell", key(1));
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let held = acquire_lock(&lock_path(&path), 1).unwrap();
        store.put("cell", key(1), b"never lands");
        let s = store.stats();
        assert_eq!((s.write, s.lock_contention, s.io_errors), (0, 1, 0));
        assert!(!path.exists());
        drop(held);
        store.put("cell", key(1), b"lands now");
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())).unwrap(), b"lands now");
        assert!(!lock_path(&path).exists(), "commit released its lock");
    }

    #[test]
    fn stale_locks_are_broken_not_waited_out() {
        let dir = TempDir::new("stale-lock");
        let store = Store::open(dir.path()).unwrap();
        let path = store.entry_path("cell", key(1));
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        // A crashed writer's leavings: stamp epoch-zero, ancient.
        fs::write(lock_path(&path), b"0").unwrap();
        store.put("cell", key(1), b"payload");
        let s = store.stats();
        assert_eq!((s.write, s.lock_contention), (1, 0), "broke the stale lock and committed");
        assert_eq!(store.get_with("cell", key(1), |b| Some(b.to_vec())).unwrap(), b"payload");
        // A garbled stamp on a *fresh* file reads as fresh (mtime fallback).
        let garbled = lock_path(&store.entry_path("cell", key(2)));
        fs::create_dir_all(garbled.parent().unwrap()).unwrap();
        fs::write(&garbled, b"not a number").unwrap();
        assert!(!lock_is_stale(&garbled));
    }

    #[test]
    fn fs_errors_count_and_degrade_to_misses() {
        let dir = TempDir::new("io-errors");
        let store = Store::open(dir.path()).unwrap();
        // A directory squatting on the entry path: reads fail with
        // something other than NotFound, and the atomic rename in `put`
        // cannot replace it.
        let squatted = store.entry_path("cell", key(9));
        fs::create_dir_all(&squatted).unwrap();
        assert_eq!(store.get_with("cell", key(9), |b| Some(b.to_vec())), None);
        store.put("cell", key(9), b"doomed");
        let s = store.stats();
        assert_eq!((s.miss, s.io_errors), (1, 2));
        assert_eq!(s.write, 0, "failed commit not counted as a write");
        // The store still serves other keys.
        store.put("cell", key(10), b"fine");
        assert!(store.get_with("cell", key(10), |b| Some(b.to_vec())).is_some());
    }
}
