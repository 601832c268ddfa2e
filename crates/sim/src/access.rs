//! Memory-access observation: the interface between the pipeline and the
//! memory-system models in `d16-mem`.

/// Receives every memory reference the pipeline makes, in program order.
///
/// Cache and fetch-buffer models implement this to measure traffic and miss
/// rates without re-running the functional simulation; [`TraceRecorder`]
/// implements it to capture a replayable trace.
pub trait AccessSink {
    /// An instruction fetch of `bytes` bytes at `addr` (2 for D16, 4 for
    /// DLXe).
    fn fetch(&mut self, addr: u32, bytes: u8);
    /// A data read of `bytes` bytes at `addr`.
    fn read(&mut self, addr: u32, bytes: u8);
    /// A data write of `bytes` bytes at `addr`.
    fn write(&mut self, addr: u32, bytes: u8);
}

/// Discards all events; used when only [`crate::ExecStats`] are wanted.
#[derive(Copy, Clone, Debug, Default)]
pub struct NullSink;

impl AccessSink for NullSink {
    #[inline]
    fn fetch(&mut self, _addr: u32, _bytes: u8) {}
    #[inline]
    fn read(&mut self, _addr: u32, _bytes: u8) {}
    #[inline]
    fn write(&mut self, _addr: u32, _bytes: u8) {}
}

/// Order-sensitive FNV-1a digest of the access stream — kind, address,
/// and width of every reference, in program order. Two runs that feed a
/// `ChecksumSink` the same checksum made the same references in the same
/// order; the fuzzer's engine oracle uses this to compare the interpreter
/// and the block engine without storing either trace.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ChecksumSink {
    hash: u64,
    count: u64,
}

impl Default for ChecksumSink {
    fn default() -> Self {
        ChecksumSink { hash: 0xcbf2_9ce4_8422_2325, count: 0 }
    }
}

impl ChecksumSink {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The digest over everything absorbed so far.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.hash
    }

    /// Number of references absorbed.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[inline]
    fn absorb(&mut self, kind: u8, addr: u32, bytes: u8) {
        let word = u64::from(kind) << 40 | u64::from(bytes) << 32 | u64::from(addr);
        for shift in [0u32, 16, 32] {
            self.hash ^= (word >> shift) & 0xffff;
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.count += 1;
    }
}

impl AccessSink for ChecksumSink {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.absorb(0, addr, bytes);
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.absorb(1, addr, bytes);
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.absorb(2, addr, bytes);
    }
}

/// One recorded memory reference.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Access {
    /// Instruction fetch.
    Fetch(u32, u8),
    /// Data read.
    Read(u32, u8),
    /// Data write.
    Write(u32, u8),
}

impl Access {
    /// The referenced address.
    pub fn addr(&self) -> u32 {
        match self {
            Access::Fetch(a, _) | Access::Read(a, _) | Access::Write(a, _) => *a,
        }
    }

    /// The access width in bytes.
    pub fn bytes(&self) -> u8 {
        match self {
            Access::Fetch(_, b) | Access::Read(_, b) | Access::Write(_, b) => *b,
        }
    }

    fn kind(&self) -> usize {
        match self {
            Access::Fetch(..) => 0,
            Access::Read(..) => 1,
            Access::Write(..) => 2,
        }
    }
}

// Header-byte layout: bits 0-1 kind, bits 2-3 width code, bits 4-5 address
// tag. Widths are restricted to {1, 2, 4, 8} — everything the pipeline and
// the fetch-buffer models emit.
const WIDTHS: [u8; 4] = [1, 2, 4, 8];

const TAG_SEQ: u8 = 0; // addr == next expected address for this kind
const TAG_D8: u8 = 1; // i8 delta from the expected address
const TAG_D16: u8 = 2; // i16 delta (little-endian)
const TAG_ABS: u8 = 3; // absolute u32 (little-endian)

fn width_code(bytes: u8) -> Option<u8> {
    match bytes {
        1 => Some(0),
        2 => Some(1),
        4 => Some(2),
        8 => Some(3),
        _ => None,
    }
}

/// Records the full access trace for later replay through several cache
/// configurations — one functional run, many memory-system experiments,
/// exactly how the paper drove `dinero`.
///
/// Storage is a delta-compressed byte stream, not a `Vec` of [`Access`]:
/// each record is one header byte plus 0–4 address bytes, keyed off the
/// previous access of the same kind. Instruction streams are mostly
/// sequential and data streams mostly local, so real traces land near one
/// to two bytes per reference instead of the eight an enum vector costs —
/// see [`TraceRecorder::memory_bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRecorder {
    bytes: Vec<u8>,
    len: usize,
    /// Expected next address per kind (previous addr + previous width);
    /// mirrors the decoder's state.
    next: [u32; 3],
    /// First unencodable reference seen, if any. A recorder fed a width
    /// outside {1, 2, 4, 8} is *poisoned*: the bad record is dropped and
    /// the description kept, so the measurement layer reports a typed
    /// error instead of the process aborting mid-sweep.
    error: Option<String>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded references.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of storage the encoded trace occupies (excluding unused
    /// capacity) — the figure the compact representation optimizes.
    pub fn memory_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The first unencodable reference this recorder was fed, if any.
    /// A poisoned trace must not be measured or persisted; see
    /// [`TraceRecorder::push`].
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// Appends one reference to the trace.
    ///
    /// A reference whose width is outside {1, 2, 4, 8} — nothing the
    /// pipeline or the fetch-buffer models emit — cannot be encoded. It
    /// is dropped and the recorder poisoned ([`TraceRecorder::error`])
    /// rather than panicking inside a sweep.
    pub fn push(&mut self, a: Access) {
        let kind = a.kind();
        let (addr, bytes) = (a.addr(), a.bytes());
        let Some(code) = width_code(bytes) else {
            if self.error.is_none() {
                self.error =
                    Some(format!("unencodable access width {bytes} (expected 1, 2, 4, or 8)"));
            }
            return;
        };
        let header = kind as u8 | (code << 2);
        let delta = addr.wrapping_sub(self.next[kind]) as i32;
        if delta == 0 {
            self.bytes.push(header | (TAG_SEQ << 4));
        } else if let Ok(d) = i8::try_from(delta) {
            self.bytes.push(header | (TAG_D8 << 4));
            self.bytes.push(d as u8);
        } else if let Ok(d) = i16::try_from(delta) {
            self.bytes.push(header | (TAG_D16 << 4));
            self.bytes.extend_from_slice(&d.to_le_bytes());
        } else {
            self.bytes.push(header | (TAG_ABS << 4));
            self.bytes.extend_from_slice(&addr.to_le_bytes());
        }
        self.next[kind] = addr.wrapping_add(u32::from(bytes));
        self.len += 1;
    }

    /// The recorded references, decoded in program order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter { bytes: &self.bytes, pos: 0, next: [0; 3] }
    }

    /// The delta-compressed encoding, for persistence. Rebuild with
    /// [`TraceRecorder::from_encoded`].
    pub fn encoded_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a recorder from bytes captured by
    /// [`TraceRecorder::encoded_bytes`] holding `len` references.
    ///
    /// The stream is fully walked up front — recovering the encoder's
    /// per-kind address state and validating every record — so a
    /// truncated or damaged stream is rejected here instead of
    /// panicking inside a later [`TraceRecorder::replay`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed record, or a record-count
    /// mismatch.
    pub fn from_encoded(bytes: Vec<u8>, len: usize) -> Result<TraceRecorder, String> {
        let mut pos = 0usize;
        let mut next = [0u32; 3];
        let mut count = 0usize;
        while pos < bytes.len() {
            let header = bytes[pos];
            pos += 1;
            let kind = usize::from(header & 0x3);
            if kind > 2 {
                return Err(format!("record {count}: invalid access kind"));
            }
            let width = WIDTHS[usize::from((header >> 2) & 0x3)];
            let extra = match (header >> 4) & 0x3 {
                TAG_SEQ => 0,
                TAG_D8 => 1,
                TAG_D16 => 2,
                _ => 4,
            };
            let Some(operand) = bytes.get(pos..pos + extra) else {
                return Err(format!("record {count}: truncated operand"));
            };
            let addr = match (header >> 4) & 0x3 {
                TAG_SEQ => next[kind],
                TAG_D8 => next[kind].wrapping_add(operand[0] as i8 as u32),
                TAG_D16 => {
                    let d = i16::from_le_bytes([operand[0], operand[1]]);
                    next[kind].wrapping_add(d as u32)
                }
                _ => u32::from_le_bytes(operand.try_into().expect("4-byte operand")),
            };
            pos += extra;
            next[kind] = addr.wrapping_add(u32::from(width));
            count += 1;
        }
        if count != len {
            return Err(format!("stream holds {count} records, expected {len}"));
        }
        Ok(TraceRecorder { bytes, len, next, error: None })
    }

    /// Replays the trace into another sink.
    pub fn replay(&self, sink: &mut impl AccessSink) {
        for a in self.iter() {
            match a {
                Access::Fetch(addr, b) => sink.fetch(addr, b),
                Access::Read(addr, b) => sink.read(addr, b),
                Access::Write(addr, b) => sink.write(addr, b),
            }
        }
    }
}

impl AccessSink for TraceRecorder {
    #[inline]
    fn fetch(&mut self, addr: u32, bytes: u8) {
        self.push(Access::Fetch(addr, bytes));
    }
    #[inline]
    fn read(&mut self, addr: u32, bytes: u8) {
        self.push(Access::Read(addr, bytes));
    }
    #[inline]
    fn write(&mut self, addr: u32, bytes: u8) {
        self.push(Access::Write(addr, bytes));
    }
}

/// Decoding iterator over a [`TraceRecorder`]'s byte stream.
#[derive(Clone, Debug)]
pub struct TraceIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    next: [u32; 3],
}

impl Iterator for TraceIter<'_> {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let header = *self.bytes.get(self.pos)?;
        self.pos += 1;
        let kind = usize::from(header & 0x3);
        let bytes = WIDTHS[usize::from((header >> 2) & 0x3)];
        let addr = match (header >> 4) & 0x3 {
            TAG_SEQ => self.next[kind],
            TAG_D8 => {
                let d = self.bytes[self.pos] as i8;
                self.pos += 1;
                self.next[kind].wrapping_add(d as u32)
            }
            TAG_D16 => {
                let d = i16::from_le_bytes([self.bytes[self.pos], self.bytes[self.pos + 1]]);
                self.pos += 2;
                self.next[kind].wrapping_add(d as u32)
            }
            _ => {
                let a = u32::from_le_bytes(
                    self.bytes[self.pos..self.pos + 4].try_into().expect("4-byte slice"),
                );
                self.pos += 4;
                a
            }
        };
        self.next[kind] = addr.wrapping_add(u32::from(bytes));
        Some(match kind {
            0 => Access::Fetch(addr, bytes),
            1 => Access::Read(addr, bytes),
            _ => Access::Write(addr, bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_replays_in_order() {
        let mut r = TraceRecorder::new();
        r.fetch(0x1000, 4);
        r.read(0x2000, 2);
        r.write(0x2004, 1);
        let mut out = TraceRecorder::new();
        r.replay(&mut out);
        assert_eq!(out, r);
        let v: Vec<Access> = r.iter().collect();
        assert_eq!(v[1], Access::Read(0x2000, 2));
        assert_eq!(v[1].addr(), 0x2000);
        assert_eq!(v[2].bytes(), 1);
    }

    #[test]
    fn encoding_roundtrips_every_tag() {
        let records = [
            Access::Fetch(0, 2),           // seq from reset state
            Access::Fetch(2, 2),           // seq
            Access::Fetch(100, 2),         // i8 delta
            Access::Fetch(40_000, 4),      // i16 delta
            Access::Fetch(0xDEAD_0000, 4), // absolute
            Access::Read(0xDEAD_0010, 4),  // per-kind state: independent of fetches
            Access::Read(0xDEAD_0014, 8),  // seq
            Access::Write(0xDEAD_0012, 1), // write state independent of reads
            Access::Write(0, 2),           // absolute backwards
            Access::Read(0xDEAD_0000, 1),  // negative i8/i16 delta path
        ];
        let mut r = TraceRecorder::new();
        for a in records {
            r.push(a);
        }
        assert_eq!(r.iter().collect::<Vec<_>>(), records);
        assert_eq!(r.len(), records.len());
    }

    #[test]
    fn sequential_stream_is_about_one_byte_per_record() {
        let mut r = TraceRecorder::new();
        for i in 0..10_000u32 {
            r.fetch(0x1000 + i * 2, 2);
        }
        // First record pays a delta; the rest are single header bytes.
        assert!(r.memory_bytes() <= 10_000 + 4, "{} bytes", r.memory_bytes());
        assert_eq!(r.len(), 10_000);
        let decoded: Vec<Access> = r.iter().collect();
        assert_eq!(decoded[9_999], Access::Fetch(0x1000 + 9_999 * 2, 2));
    }

    #[test]
    fn encoded_bytes_roundtrip_restores_trace_and_state() {
        let mut r = TraceRecorder::new();
        for a in [
            Access::Fetch(0x1000, 2),
            Access::Fetch(0x1002, 2),
            Access::Read(0xDEAD_0000, 4),
            Access::Write(0x80, 1),
            Access::Fetch(0x4000, 4),
        ] {
            r.push(a);
        }
        let restored = TraceRecorder::from_encoded(r.encoded_bytes().to_vec(), r.len()).unwrap();
        assert_eq!(restored, r, "trace content and encoder state equal");
        // The recovered encoder state appends identically to the original.
        let (mut a, mut b) = (r, restored);
        a.push(Access::Fetch(0x4004, 4));
        b.push(Access::Fetch(0x4004, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn from_encoded_rejects_damage() {
        let mut r = TraceRecorder::new();
        r.fetch(0x1000, 4);
        r.read(0xDEAD_0000, 4); // absolute: carries a 4-byte operand
        let bytes = r.encoded_bytes().to_vec();
        // Wrong record count.
        assert!(TraceRecorder::from_encoded(bytes.clone(), 3).is_err());
        // Truncated mid-operand.
        assert!(TraceRecorder::from_encoded(bytes[..bytes.len() - 1].to_vec(), 2).is_err());
        // An invalid access kind (header & 3 == 3).
        assert!(TraceRecorder::from_encoded(vec![0x03], 1).is_err());
        // The pristine stream still decodes.
        assert!(TraceRecorder::from_encoded(bytes, 2).is_ok());
    }

    #[test]
    fn bad_width_poisons_instead_of_panicking() {
        let mut r = TraceRecorder::new();
        r.fetch(0x1000, 4);
        assert!(r.error().is_none());
        r.read(0x2000, 3); // nothing in the encoding for width 3
        let msg = r.error().expect("recorder is poisoned");
        assert!(msg.contains("width 3"), "{msg}");
        // The bad record is dropped; the good prefix is intact, and the
        // first error sticks.
        r.write(0x3000, 5);
        assert!(r.error().unwrap().contains("width 3"));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![Access::Fetch(0x1000, 4)]);
        let c = r.clone();
        assert!(c.error().is_some(), "poison survives cloning");
    }

    #[test]
    fn clone_preserves_trace_and_counter() {
        let mut r = TraceRecorder::new();
        r.fetch(8, 4);
        let mut c = r.clone();
        assert_eq!(c, r);
        assert_eq!(c.len(), 1, "the record counter is cloned");
        c.fetch(12, 4);
        assert_eq!((c.len(), r.len()), (2, 1), "clones record independently");
        assert_ne!(c, r);
    }
}
