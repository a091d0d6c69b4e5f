//! Persistent on-disk store for compact traces.
//!
//! Synthetic workloads are deterministic, so a compact capture of
//! `(profile, seed, len)` never changes — yet every grid run used to
//! regenerate and re-encode it from scratch. [`TraceStore`] persists the
//! capture once and serves every later replay with a single file read
//! into the same structure-of-streams buffers the encoder fills,
//! amortizing generation and encoding to zero across sessions.
//!
//! The design mirrors the experiment cell cache: entries live under a
//! directory as `{fnv1a_64_hex(key)}.zbpc`, the full key string is
//! embedded in the file so hash collisions read as misses rather than
//! wrong data, writes go through a temp file + atomic rename so a
//! crashed writer never leaves a half-entry behind, and a corrupt entry
//! is reported loudly on stderr — naming the offending byte offset or
//! stream digest — deleted, and treated as a miss so the caller
//! regenerates it.
//!
//! # File format (little-endian)
//!
//! ```text
//! magic "ZBPC" | version u32 | key_len u32, key | name_len u32, name
//! start u64 | total u64 | tail_gap u64
//! n_points u64 | n_code_bytes u64 | n_far u64
//! sum(points) | sum(codes) | sum(far)                  per-stream checksums
//! points  n_points x (gap u32, target_delta i32, flags u16)
//! codes   n_code_bytes
//! far     n_far x u64
//! ```
//!
//! The per-stream checksum (`stream_checksum`, format version 2) runs
//! four FNV-style multiply lanes over little-endian `u64` words and folds
//! them, so it hashes at memory speed; version 1 hashed each stream a
//! byte at a time with FNV-1a. Every step is a bijection of its lane, so
//! any corruption confined to one 8-byte word — in particular any single
//! flipped bit — always changes the checksum. Key digests (the file
//! names) keep FNV-1a, because cell keys and manifests embed them.
//!
//! Integrity is layered: the declared counts must account for the file
//! size exactly (so a flipped count byte cannot trigger a bogus
//! allocation), each stream's checksum must match before decode,
//! and [`CompactTrace::from_parts`] re-checks the structural invariants
//! replay relies on. A load that passes all three replays bit-identically
//! to the capture that wrote it.

use crate::compact::{check_parts, BranchPoint, CompactParts, CompactTrace, PartsError};
use crate::InstAddr;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use zbp_support::hash::fnv1a_64_hex;

const MAGIC: &[u8; 4] = b"ZBPC";

/// On-disk schema version; bump on any layout change. The version is
/// also folded into the key rendering, so entries written by a
/// different schema miss by filename before they are ever opened
/// (version-1 files are orphaned and safe to delete).
pub const STORE_VERSION: u32 = 2;

/// Serialized bytes per branch point (`gap`, `target_delta`, `flags` —
/// no padding, unlike the in-memory `repr(C)` layout).
const POINT_BYTES: usize = 10;

/// Identity of one stored trace: the full workload description rendered
/// into a stable string, plus its FNV-1a digest (the filename).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStoreKey {
    rendered: String,
    digest: String,
}

impl TraceStoreKey {
    /// Key for a deterministic workload capture: the profile's full
    /// JSON rendering plus the generation seed and stream length.
    pub fn workload(profile_json: &str, seed: u64, len: u64) -> Self {
        let rendered =
            format!("zbp-trace-v{STORE_VERSION}|seed={seed}|len={len}|profile={profile_json}");
        let digest = fnv1a_64_hex(&rendered);
        Self { rendered, digest }
    }

    /// Key for an external ingested trace: identity is the FNV-1a
    /// digest of the raw trace-file bytes plus the replay length cap.
    /// No seed — replay of a recorded stream is seed-independent — and
    /// a distinct namespace so an external entry can never alias a
    /// synthetic one.
    pub fn external(content_fnv: u64, len: u64) -> Self {
        let rendered =
            format!("zbp-trace-v{STORE_VERSION}|external|content_fnv={content_fnv:016x}|len={len}");
        let digest = fnv1a_64_hex(&rendered);
        Self { rendered, digest }
    }

    /// The full rendered key (embedded in the entry for collision
    /// detection).
    pub fn rendered(&self) -> &str {
        &self.rendered
    }

    /// 16-hex-digit digest — the entry's file stem.
    pub fn digest(&self) -> &str {
        &self.digest
    }
}

/// Load failure for a single store entry. `load` handles these
/// internally (warn + delete + miss); the type is public so the format
/// tests can assert the precise failure mode.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `ZBPC` magic.
    BadMagic,
    /// Unsupported store schema version.
    BadVersion(u32),
    /// The file ends before a field that starts at `offset`.
    Truncated {
        /// Byte offset the unreadable field starts at.
        offset: u64,
        /// Bytes the field needs.
        need: u64,
        /// Bytes remaining in the file.
        have: u64,
    },
    /// Declared stream counts do not account for the file size.
    SizeMismatch {
        /// File size the header's counts imply.
        expected: u64,
        /// Actual file size.
        got: u64,
    },
    /// A stream's content checksum does not match its header checksum.
    DigestMismatch {
        /// Which stream failed (`points` / `codes` / `far`).
        stream: &'static str,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// Streams decoded cleanly but violate replay invariants.
    Inconsistent(PartsError),
    /// The embedded name is not UTF-8.
    BadName,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "missing ZBPC magic"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated { offset, need, have } => {
                write!(
                    f,
                    "truncated at byte offset {offset}: field needs {need} bytes, {have} remain"
                )
            }
            StoreError::SizeMismatch { expected, got } => {
                write!(f, "header counts imply {expected} bytes, file holds {got}")
            }
            StoreError::DigestMismatch { stream, expected, got } => write!(
                f,
                "{stream} stream digest mismatch: header {expected:016x}, content {got:016x}"
            ),
            StoreError::Inconsistent(e) => write!(f, "inconsistent streams: {e}"),
            StoreError::BadName => write!(f, "embedded trace name is not UTF-8"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Inconsistent(e) => Some(e),
            _ => None,
        }
    }
}

/// Hit/miss counters of a [`TraceStore`], snapshotted for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Loads served from disk.
    pub hits: u64,
    /// Loads that fell back to generation (absent, corrupt, collided,
    /// or the store was opened write-only).
    pub misses: u64,
}

impl TraceStoreStats {
    /// Counters accumulated since the `before` snapshot.
    pub fn since(self, before: TraceStoreStats) -> TraceStoreStats {
        TraceStoreStats { hits: self.hits - before.hits, misses: self.misses - before.misses }
    }
}

/// A directory of persisted compact traces (see the module docs).
///
/// Thread-safe: loads and stores from parallel workload rows only touch
/// distinct entry files, and the counters are atomic.
#[derive(Debug, Default)]
pub struct TraceStore {
    dir: Option<PathBuf>,
    read: bool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TraceStore {
    /// A read/write store rooted at `dir` (created on first write).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self { dir: Some(dir.into()), read: true, ..Self::default() }
    }

    /// A store that ignores existing entries but rewrites them — the
    /// `--fresh-traces` mode. Every load is a (counted) miss.
    pub fn write_only(dir: impl Into<PathBuf>) -> Self {
        Self { dir: Some(dir.into()), read: false, ..Self::default() }
    }

    /// A disabled store: loads miss silently, stores are dropped, and
    /// no counters move.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether the store is backed by a directory at all.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Whether loads consult disk (false for `write_only`).
    pub fn reads(&self) -> bool {
        self.read && self.is_enabled()
    }

    /// The backing directory, if enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Path the entry for `key` lives at, if the store is enabled.
    pub fn path_for(&self, key: &TraceStoreKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.zbpc", key.digest())))
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> TraceStoreStats {
        TraceStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Attempts to load the trace stored under `key`, filling the
    /// recycled `parts` buffers. On any miss — absent, write-only,
    /// collided, or corrupt (the latter warns on stderr and deletes the
    /// entry so the caller's regeneration heals the store) — the
    /// buffers come back for the fallback capture.
    pub fn load(
        &self,
        key: &TraceStoreKey,
        mut parts: CompactParts,
    ) -> Result<CompactTrace, CompactParts> {
        if !self.is_enabled() {
            return Err(parts);
        }
        if !self.read {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Err(parts);
        }
        let path = self.path_for(key).expect("enabled store has a directory");
        let data = match std::fs::read(&path) {
            Ok(d) => d,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    eprintln!(
                        "warning: trace store entry {} unreadable ({e}); regenerating",
                        path.display()
                    );
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Err(parts);
            }
        };
        match decode_entry(&data, Some(key), &mut parts) {
            Ok(Some(trace)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Ok(trace)
            }
            Ok(None) => {
                // Digest collision: a different key owns this file.
                // Leave it for its owner and regenerate ours.
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(parts)
            }
            Err(e) => {
                // Warn only when this process actually removed the
                // damaged file: a NotFound delete means a concurrent
                // reader of the same corrupt entry recovered it first
                // (it vanished between our read and our delete), and
                // repeating its warning would report an already-fixed
                // problem.
                match std::fs::remove_file(&path) {
                    Err(rm) if rm.kind() == io::ErrorKind::NotFound => {}
                    _ => eprintln!(
                        "warning: trace store entry {} is corrupt ({e}); deleting and regenerating",
                        path.display()
                    ),
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                Err(parts)
            }
        }
    }

    /// Persists `trace` under `key` (no-op when disabled). Failures are
    /// reported on stderr but never abort the run — the store is an
    /// accelerator, not a dependency.
    pub fn store(&self, key: &TraceStoreKey, trace: &CompactTrace) {
        let Some(dir) = &self.dir else { return };
        let Some(path) = self.path_for(key) else { return };
        if let Err(e) = write_atomic(dir, &path, key, trace) {
            eprintln!("warning: trace store write {} failed: {e}", path.display());
        }
    }
}

/// Checksum of one serialized stream (format version 2): four FNV-style
/// lanes, each xor-multiply-rotating one little-endian `u64` word in
/// turn, folded together with the byte length. A short final word is
/// zero-padded; the folded length tells padding from real zeros.
pub(crate) fn stream_checksum(bytes: &[u8]) -> u64 {
    // The FNV-1a 64 offset basis and prime.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    // A dense odd multiplier mixes a word into every higher lane bit;
    // the rotation feeds the high bits back down. Both are bijective.
    const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    #[inline(always)]
    fn mix(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(LANE_MUL).rotate_left(29)
    }
    let mut lanes =
        [OFFSET, OFFSET.rotate_left(16), OFFSET.rotate_left(32), OFFSET.rotate_left(48)];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(padded));
    }
    let mut h = OFFSET;
    for v in lanes.into_iter().chain([bytes.len() as u64]) {
        h = (h ^ v).wrapping_mul(PRIME);
    }
    // Final avalanche (the murmur3 finalizer).
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Serializes `trace` into the on-disk entry layout, writing each
/// stream straight into the output buffer and patching the header's
/// checksums afterwards.
pub fn encode_entry(key: &TraceStoreKey, trace: &CompactTrace) -> Vec<u8> {
    let points = trace.branch_points();
    let codes = trace.len_code_stream();
    let far = trace.far_stream();
    let key_bytes = key.rendered().as_bytes();
    let name_bytes = crate::Trace::name(trace).as_bytes();

    let header = 4 + 4 + 4 + key_bytes.len() + 4 + name_bytes.len() + 9 * 8;
    let body = points.len() * POINT_BYTES + codes.len() + far.len() * 8;
    let mut out = Vec::with_capacity(header + body);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(key_bytes);
    out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(name_bytes);
    out.extend_from_slice(&trace.start_addr().raw().to_le_bytes());
    out.extend_from_slice(&crate::Trace::len(trace).to_le_bytes());
    out.extend_from_slice(&trace.tail_gap().to_le_bytes());
    out.extend_from_slice(&(points.len() as u64).to_le_bytes());
    out.extend_from_slice(&(codes.len() as u64).to_le_bytes());
    out.extend_from_slice(&(far.len() as u64).to_le_bytes());
    // The checksums (patched once the streams are written) and points.
    let sums_at = out.len();
    out.resize(header + points.len() * POINT_BYTES, 0);
    for (rec, p) in out[header..].chunks_exact_mut(POINT_BYTES).zip(points) {
        rec[0..4].copy_from_slice(&p.gap.to_le_bytes());
        rec[4..8].copy_from_slice(&p.target_delta.to_le_bytes());
        rec[8..10].copy_from_slice(&p.flags.to_le_bytes());
    }
    let codes_at = out.len();
    out.extend_from_slice(codes);
    let far_at = out.len();
    out.resize(far_at + far.len() * 8, 0);
    for (rec, w) in out[far_at..].chunks_exact_mut(8).zip(far) {
        rec.copy_from_slice(&w.to_le_bytes());
    }

    let sums = [
        stream_checksum(&out[header..codes_at]),
        stream_checksum(&out[codes_at..far_at]),
        stream_checksum(&out[far_at..]),
    ];
    for (slot, sum) in out[sums_at..header].chunks_exact_mut(8).zip(sums) {
        slot.copy_from_slice(&sum.to_le_bytes());
    }
    out
}

/// Parses a serialized entry into the recycled `parts` buffers. Returns
/// `Ok(None)` when `expect_key` is given and the embedded key differs
/// (digest collision — not corruption). A decoded trace takes the
/// buffers out of `parts`; on `Ok(None)` and on every error `parts`
/// keeps them (and their capacity) for the caller's fallback capture.
pub fn decode_entry(
    data: &[u8],
    expect_key: Option<&TraceStoreKey>,
    parts: &mut CompactParts,
) -> Result<Option<CompactTrace>, StoreError> {
    let mut r = Reader { data, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = r.u32()?;
    if version != STORE_VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let key_len = r.u32()? as u64;
    let key = r.take(key_len)?;
    if let Some(expect) = expect_key {
        if key != expect.rendered().as_bytes() {
            return Ok(None);
        }
    }
    let name_len = r.u32()? as u64;
    let name = std::str::from_utf8(r.take(name_len)?).map_err(|_| StoreError::BadName)?.to_owned();
    let start = InstAddr::new(r.u64()?);
    let total = r.u64()?;
    let tail_gap = r.u64()?;
    let n_points = r.u64()?;
    let n_codes = r.u64()?;
    let n_far = r.u64()?;
    let sum_points = r.u64()?;
    let sum_codes = r.u64()?;
    let sum_far = r.u64()?;

    // The counts must account for the remaining bytes exactly, so a
    // flipped count byte fails here instead of driving an allocation.
    let body = n_points
        .checked_mul(POINT_BYTES as u64)
        .and_then(|b| b.checked_add(n_codes))
        .and_then(|b| n_far.checked_mul(8).and_then(|f| b.checked_add(f)))
        .ok_or(StoreError::SizeMismatch { expected: u64::MAX, got: data.len() as u64 })?;
    let expected_size = r.pos + body;
    if expected_size != data.len() as u64 {
        return Err(StoreError::SizeMismatch { expected: expected_size, got: data.len() as u64 });
    }

    let point_bytes = r.take(n_points * POINT_BYTES as u64)?;
    let code_bytes = r.take(n_codes)?;
    let far_bytes = r.take(n_far * 8)?;
    for (stream, bytes, expected) in [
        ("points", point_bytes, sum_points),
        ("codes", code_bytes, sum_codes),
        ("far", far_bytes, sum_far),
    ] {
        let got = stream_checksum(bytes);
        if got != expected {
            return Err(StoreError::DigestMismatch { stream, expected, got });
        }
    }

    let (mut points, mut len_codes, mut far) = std::mem::take(parts).into_buffers();
    points.clear();
    points.extend(point_bytes.chunks_exact(POINT_BYTES).map(|c| BranchPoint {
        gap: u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
        target_delta: i32::from_le_bytes([c[4], c[5], c[6], c[7]]),
        flags: u16::from_le_bytes([c[8], c[9]]),
    }));
    len_codes.clear();
    len_codes.extend_from_slice(code_bytes);
    far.clear();
    far.extend(
        far_bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
    );

    if let Err(e) = check_parts(total, tail_gap, &points, &len_codes, &far) {
        *parts = CompactParts::from_buffers(points, len_codes, far);
        return Err(StoreError::Inconsistent(e));
    }
    Ok(Some(CompactTrace::from_checked_parts(
        &name, start, total, tail_gap, points, len_codes, far,
    )))
}

fn write_atomic(
    dir: &Path,
    path: &Path,
    key: &TraceStoreKey,
    trace: &CompactTrace,
) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}-{}",
        key.digest(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let bytes = encode_entry(key, trace);
    std::fs::write(&tmp, &bytes)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Bounds-checked little-endian slice reader tracking its offset, so
/// truncation errors can name the exact byte the parse died at.
struct Reader<'a> {
    data: &'a [u8],
    pos: u64,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: u64) -> Result<&'a [u8], StoreError> {
        let have = self.data.len() as u64 - self.pos;
        if n > have {
            return Err(StoreError::Truncated { offset: self.pos, need: n, have });
        }
        let start = self.pos as usize;
        self.pos += n;
        Ok(&self.data[start..start + n as usize])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{FLAG_DISC, FLAG_FAR, FLAG_TAKEN, KIND_PLAIN};
    use crate::profile::WorkloadProfile;
    use crate::Trace;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("zbp-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_trace(len: u64) -> CompactTrace {
        let p = WorkloadProfile::zos_lspr_cb84();
        CompactTrace::capture(&p.build(7).with_len(len)).unwrap()
    }

    fn assert_identical(a: &CompactTrace, b: &CompactTrace) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.start_addr(), b.start_addr());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.tail_gap(), b.tail_gap());
        assert_eq!(a.branch_points(), b.branch_points());
        assert_eq!(a.len_code_stream(), b.len_code_stream());
        assert_eq!(a.far_stream(), b.far_stream());
    }

    #[test]
    fn roundtrips_and_counts_hit() {
        let dir = scratch("roundtrip");
        let store = TraceStore::at(&dir);
        let key = TraceStoreKey::workload("{\"p\":1}", 7, 5_000);
        let trace = sample_trace(5_000);

        // Cold: miss, then populate.
        let parts = store.load(&key, CompactParts::default()).unwrap_err();
        store.store(&key, &trace);
        let loaded = store.load(&key, parts).expect("warm load hits");
        assert_identical(&trace, &loaded);
        assert_eq!(store.stats(), TraceStoreStats { hits: 1, misses: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collision_misses_and_keeps_owner_file() {
        let dir = scratch("collision");
        let store = TraceStore::at(&dir);
        let owner = TraceStoreKey::workload("{\"p\":1}", 7, 2_000);
        let trace = sample_trace(2_000);
        store.store(&owner, &trace);
        // Forge a key that maps to the owner's file but renders differently.
        let intruder =
            TraceStoreKey { rendered: "something else".into(), digest: owner.digest().into() };
        assert!(store.load(&intruder, CompactParts::default()).is_err());
        // The owner's entry survives and still hits.
        assert!(store.load(&owner, CompactParts::default()).is_ok());
        assert_eq!(store.stats(), TraceStoreStats { hits: 1, misses: 1 });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_warns_deletes_and_regenerates() {
        let dir = scratch("truncate");
        let store = TraceStore::at(&dir);
        let key = TraceStoreKey::workload("{\"p\":2}", 9, 3_000);
        store.store(&key, &sample_trace(3_000));
        let path = store.path_for(&key).unwrap();
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 5]).unwrap();
        assert!(store.load(&key, CompactParts::default()).is_err());
        assert!(!path.exists(), "corrupt entry must be deleted");
        // The caller's regeneration heals the store.
        store.store(&key, &sample_trace(3_000));
        assert!(store.load(&key, CompactParts::default()).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_stream_is_a_digest_mismatch() {
        let key = TraceStoreKey::workload("{\"p\":3}", 3, 4_000);
        let trace = sample_trace(4_000);
        let mut data = encode_entry(&key, &trace);
        let n = data.len();
        data[n - 1] ^= 0x40; // flip a bit in the last stream byte
        let err = decode_entry(&data, Some(&key), &mut CompactParts::default()).unwrap_err();
        assert!(matches!(err, StoreError::DigestMismatch { .. }), "got {err}");
        assert!(err.to_string().contains("digest mismatch"));
    }

    #[test]
    fn count_corruption_is_a_size_mismatch_not_an_allocation() {
        let key = TraceStoreKey::workload("{\"p\":4}", 3, 1_000);
        let mut data = encode_entry(&key, &sample_trace(1_000));
        // n_points lives right after start/total/tail_gap; blow it up.
        let off = 4 + 4 + 4 + key.rendered().len() + 4 + sample_trace(1_000).name().len() + 24;
        data[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = decode_entry(&data, Some(&key), &mut CompactParts::default()).unwrap_err();
        assert!(matches!(err, StoreError::SizeMismatch { .. }), "got {err}");
    }

    #[test]
    fn truncated_header_names_the_offset() {
        let key = TraceStoreKey::workload("{\"p\":5}", 3, 1_000);
        let data = encode_entry(&key, &sample_trace(1_000));
        let err = decode_entry(&data[..10], Some(&key), &mut CompactParts::default()).unwrap_err();
        match err {
            StoreError::Truncated { offset, .. } => assert_eq!(offset, 8),
            other => panic!("expected Truncated, got {other}"),
        }
        assert!(err.to_string().contains("offset 8"));
    }

    #[test]
    fn write_only_always_misses_but_persists() {
        let dir = scratch("writeonly");
        let key = TraceStoreKey::workload("{\"p\":6}", 3, 2_000);
        let trace = sample_trace(2_000);
        {
            let fresh = TraceStore::write_only(&dir);
            fresh.store(&key, &trace);
            assert!(fresh.load(&key, CompactParts::default()).is_err());
            assert_eq!(fresh.stats(), TraceStoreStats { hits: 0, misses: 1 });
        }
        let warm = TraceStore::at(&dir);
        let loaded = warm.load(&key, CompactParts::default()).expect("entry persisted");
        assert_identical(&trace, &loaded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = TraceStore::disabled();
        assert!(!store.is_enabled());
        assert!(!store.reads());
        let key = TraceStoreKey::workload("{}", 1, 10);
        assert!(store.path_for(&key).is_none());
        store.store(&key, &sample_trace(500));
        assert!(store.load(&key, CompactParts::default()).is_err());
        assert_eq!(store.stats(), TraceStoreStats::default());
    }

    #[test]
    fn hand_built_disc_and_far_escapes_roundtrip() {
        // A synthetic parts set exercising every escape the encoder can
        // emit: a far target word, a discontinuity (the shape a
        // gap-overflow split produces) and a taken point.
        let points = vec![
            // Indirect taken branch whose target spilled to the far stream.
            BranchPoint { gap: 3, target_delta: 0, flags: 4 | FLAG_TAKEN | FLAG_FAR },
            // Discontinuity — the shape a gap-overflow split produces.
            BranchPoint { gap: 2, target_delta: 0, flags: KIND_PLAIN | FLAG_DISC },
            // Conditional taken with an in-line delta.
            BranchPoint { gap: 1, target_delta: -24, flags: FLAG_TAKEN },
        ];
        let total: u64 = 3 + 1 + 2 + 1 + 1 + 2; // gaps + consuming points + tail
        let len_codes =
            vec![0b01_01_01_01u8, 0b01_01_01_01, 0b01_01][..(total as usize).div_ceil(4)].to_vec();
        let far = vec![0xFFFF_FFFF_0000_1000, 0x2000];
        let trace = CompactTrace::from_parts(
            "escapes",
            InstAddr::new(0x4000),
            total,
            2,
            points,
            len_codes,
            far,
        )
        .expect("consistent parts");
        let key = TraceStoreKey::workload("{\"escapes\":true}", 1, total);
        let data = encode_entry(&key, &trace);
        let back = decode_entry(&data, Some(&key), &mut CompactParts::default()).unwrap().unwrap();
        assert_identical(&trace, &back);
    }

    /// A two-part mix of small programs: slice switches put
    /// discontinuity words in the far stream, so all three streams are
    /// non-empty.
    fn mixed_trace(len: u64) -> CompactTrace {
        use crate::gen::layout::LayoutParams;
        use crate::gen::mix::MixTrace;
        use crate::gen::GenTrace;
        let part = |base: u64, seed: u64| {
            let params = LayoutParams { base_addr: base, ..LayoutParams::small_test() };
            GenTrace::new("part", &params, seed, len)
        };
        let mix = MixTrace::new("mix", vec![part(0x0100_0000, 1), part(0x4000_0000, 2)], 97, len);
        CompactTrace::capture(&mix).unwrap()
    }

    #[test]
    fn corrupt_or_collided_loads_hand_back_the_recycled_buffers() {
        let dir = scratch("recycle");
        let store = TraceStore::at(&dir);
        let key = TraceStoreKey::workload("{\"p\":7}", 3, 4_000);
        let trace = sample_trace(4_000);
        store.store(&key, &trace);
        let capacity = |parts: CompactParts| {
            let (p, c, f) = parts.into_buffers();
            (p.capacity(), c.capacity(), f.capacity())
        };
        let recycled = || {
            CompactParts::from_buffers(
                Vec::with_capacity(1_000),
                Vec::with_capacity(2_000),
                Vec::with_capacity(30),
            )
        };
        // Collision: another key owns the file.
        let intruder =
            TraceStoreKey { rendered: "something else".into(), digest: key.digest().into() };
        let back = store.load(&intruder, recycled()).unwrap_err();
        assert_eq!(capacity(back), (1_000, 2_000, 30));
        // Corruption caught by the checksum (the stream bytes are last).
        let path = store.path_for(&key).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let n = data.len();
        data[n - 1] ^= 1;
        std::fs::write(&path, &data).unwrap();
        let back = store.load(&key, recycled()).unwrap_err();
        assert_eq!(capacity(back), (1_000, 2_000, 30));
        assert!(!path.exists(), "corrupt entry must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inconsistent_streams_hand_back_the_filled_buffers() {
        // Valid checksums over streams that break a replay invariant:
        // claim one instruction more than the streams encode.
        let trace = mixed_trace(2_000);
        let lie = CompactTrace::from_checked_parts(
            "lie",
            trace.start_addr(),
            trace.len() + 4,
            trace.tail_gap(),
            trace.branch_points().to_vec(),
            [trace.len_code_stream(), &[0]].concat(),
            trace.far_stream().to_vec(),
        );
        let key = TraceStoreKey::workload("{\"p\":8}", 3, 2_004);
        let data = encode_entry(&key, &lie);
        let mut parts = CompactParts::default();
        let err = decode_entry(&data, Some(&key), &mut parts).unwrap_err();
        assert!(matches!(err, StoreError::Inconsistent(_)), "got {err}");
        let (points, codes, far) = parts.into_buffers();
        assert!(points.capacity() >= trace.branch_points().len());
        assert!(codes.capacity() >= trace.len_code_stream().len());
        assert!(far.capacity() >= trace.far_stream().len());
    }

    #[test]
    fn single_bit_flips_in_every_stream_are_checksum_mismatches() {
        use zbp_support::rng::SmallRng;
        let key = TraceStoreKey::workload("{\"p\":9}", 5, 20_000);
        let trace = mixed_trace(20_000);
        assert!(!trace.far_stream().is_empty(), "the mix must exercise the far stream");
        let data = encode_entry(&key, &trace);
        let header = 4 + 4 + 4 + key.rendered().len() + 4 + trace.name().len() + 9 * 8;
        let codes_at = header + trace.branch_points().len() * POINT_BYTES;
        let far_at = codes_at + trace.len_code_stream().len();
        assert_eq!(far_at + trace.far_stream().len() * 8, data.len());
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for (name, lo, hi) in
            [("points", header, codes_at), ("codes", codes_at, far_at), ("far", far_at, data.len())]
        {
            for _ in 0..64 {
                let bit = rng.random_range(0..(hi - lo) * 8);
                let mut bad = data.clone();
                bad[lo + bit / 8] ^= 1 << (bit % 8);
                match decode_entry(&bad, Some(&key), &mut CompactParts::default()) {
                    Err(StoreError::DigestMismatch { stream, .. }) => assert_eq!(stream, name),
                    other => {
                        panic!("{name} bit {bit}: expected a checksum mismatch, got {other:?}")
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_table4_profile_roundtrips_through_an_entry() {
        for profile in WorkloadProfile::all_table4() {
            let trace = CompactTrace::capture(&profile.build_with_len(0xEC12, 20_000)).unwrap();
            let key = TraceStoreKey::workload(&profile.name, 0xEC12, 20_000);
            let data = encode_entry(&key, &trace);
            let back = decode_entry(&data, Some(&key), &mut CompactParts::default())
                .unwrap()
                .expect("own key");
            assert_identical(&trace, &back);
        }
    }

    #[test]
    fn version_one_entries_are_never_opened() {
        // A file at the name the version-1 key rendering hashed to: the
        // current key names a different file, so the load is a plain
        // miss that neither reads nor deletes the orphan.
        let dir = scratch("v1");
        let store = TraceStore::at(&dir);
        let (profile, seed, len) = ("{\"p\":10}", 3u64, 1_000u64);
        let key = TraceStoreKey::workload(profile, seed, len);
        let v1_digest =
            fnv1a_64_hex(&format!("zbp-trace-v1|seed={seed}|len={len}|profile={profile}"));
        assert_ne!(v1_digest, key.digest());
        std::fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(format!("{v1_digest}.zbpc"));
        let mut v1 = encode_entry(&key, &sample_trace(len));
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&orphan, &v1).unwrap();
        assert!(store.load(&key, CompactParts::default()).is_err());
        assert_eq!(store.stats(), TraceStoreStats { hits: 0, misses: 1 });
        assert!(orphan.exists(), "a v1 file is never opened, so never deleted as corrupt");
        // Opened anyway, it would be rejected by version, not misread.
        let err = decode_entry(&v1, Some(&key), &mut CompactParts::default()).unwrap_err();
        assert!(matches!(err, StoreError::BadVersion(1)), "got {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_tells_zero_padding_from_zero_bytes() {
        let sums: Vec<u64> = (0..40).map(|n| stream_checksum(&vec![0u8; n])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(sums[i + 1..].iter().all(|b| b != a), "length {i} collides");
        }
    }

    #[test]
    fn key_embeds_version_and_inputs() {
        let a = TraceStoreKey::workload("{\"p\":1}", 7, 100);
        assert!(a.rendered().contains("seed=7"));
        assert!(a.rendered().contains(&format!("zbp-trace-v{STORE_VERSION}")));
        assert_eq!(a.digest().len(), 16);
        assert_ne!(a.digest(), TraceStoreKey::workload("{\"p\":1}", 8, 100).digest());
        assert_ne!(a.digest(), TraceStoreKey::workload("{\"p\":1}", 7, 101).digest());
        assert_ne!(a.digest(), TraceStoreKey::workload("{\"p\":2}", 7, 100).digest());
    }
}
