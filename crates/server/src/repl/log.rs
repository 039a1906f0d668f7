//! The per-shard redo log: an append-only file of checksummed mutation
//! records, written under the shard's existing write serialization.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header    16 B  LOG_MAGIC, LOG_VERSION, shard index (wire::FileHeader)
//! record    *     u32 body_len
//!                 body: u8 op (1=SET, 2=DEL, 3=SETEX), u32 key_len, key,
//!                       [u64 expire_at_ms when SETEX], value…
//!                 u64 FNV-1a over (body_len ‖ body)
//! ```
//!
//! **Rotation** (`--repl-log-max-bytes`): when the active file crosses
//! the size cap it is sealed — renamed to `repl-N.seg{K}.log` with a
//! monotonically increasing K — and a fresh active file starts. Sealed
//! segments are immutable; reopen discovers them in K order and counts
//! their records so the store-wide replication offset stays continuous,
//! and [`read_log_chain`] replays segments-then-active as one stream. A
//! durable snapshot may then delete every segment sealed *before* its
//! scan began (the engine forces a rotation under each shard's write
//! lock first), bounding log disk usage without losing replay coverage:
//! snapshot + remaining log still reconstructs the final state.
//!
//! There is no trailer: the log is meant to be appended to forever and
//! read back after any kind of crash, so each record carries its own
//! checksum and the valid prefix is whatever parses. On reopen
//! ([`LogWriter::open`]) the file is scanned once; the first record that
//! is truncated, oversized, structurally invalid or checksum-mismatched
//! ends the valid prefix, and the file is **truncated back to it** — a
//! torn tail from a crash mid-append disappears instead of poisoning
//! later appends, and a corrupt record can never be replayed into state.
//! A corrupt *header* resets the whole log (the pools remain the
//! authoritative store state; the log is the replication/backup feed).
//!
//! The writer issues one unbuffered `write` per record: the bytes are in
//! the kernel page cache when `append` returns, so a process kill (the
//! failure mode the service recovers from) loses nothing; [`sync`](LogWriter::sync)
//! (called from the engine's clean close) makes the file durable against
//! power loss too.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dash_common::MAX_KEY_LEN;

use crate::engine::MAX_VALUE_LEN;
use crate::repl::wire::{fnv64, FileHeader, Fnv, Parser};
use crate::repl::ReplOp;

/// `b"DASHLOG1"` as a little-endian u64.
pub const LOG_MAGIC: u64 = u64::from_le_bytes(*b"DASHLOG1");
/// Current format version.
pub const LOG_VERSION: u32 = 1;

const OP_SET: u8 = 1;
const OP_DEL: u8 = 2;
const OP_SET_EX: u8 = 3;
/// Largest legal record body: tag + key_len field + max key + expiry
/// deadline + max value.
const MAX_BODY: usize = 1 + 4 + MAX_KEY_LEN + 8 + MAX_VALUE_LEN;

/// Append the wire form of `op` to `out`.
pub fn encode_record(op: &ReplOp, out: &mut Vec<u8>) {
    let (tag, key, value, expire): (u8, &[u8], &[u8], u64) = match op {
        ReplOp::Set { key, value } => (OP_SET, key, value, 0),
        ReplOp::SetEx { key, value, expire_at_ms } => (OP_SET_EX, key, value, *expire_at_ms),
        ReplOp::Del { key } => (OP_DEL, key, &[], 0),
    };
    let body_len =
        1 + 4 + key.len() + value.len() + if tag == OP_SET_EX { 8 } else { 0 };
    let start = out.len();
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    if tag == OP_SET_EX {
        out.extend_from_slice(&expire.to_le_bytes());
    }
    out.extend_from_slice(value);
    let checksum = fnv64(&out[start..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Decode the record starting at `p`'s position. `Ok(None)` means the
/// bytes from here on are not a valid record (torn tail / corruption) —
/// the caller must treat everything from `p.pos()` as garbage.
fn decode_record(p: &mut Parser<'_>) -> Option<ReplOp> {
    let start = p.pos();
    let body_len = p.u32("record length").ok()? as usize;
    if !(1 + 4..=MAX_BODY).contains(&body_len) {
        return None;
    }
    let body = p.take(body_len, "record body").ok()?;
    let checksum = p.u64("record checksum").ok()?;
    // The checksum covers the length prefix too, so a corrupted length
    // cannot masquerade as a differently-framed valid record.
    let mut fnv = Fnv::new();
    fnv.update(&(body_len as u32).to_le_bytes());
    fnv.update(body);
    if fnv.value() != checksum {
        return None;
    }
    let mut b = Parser::new(body);
    let tag = b.u8("op tag").ok()?;
    let key_len = b.u32("key length").ok()? as usize;
    if key_len > MAX_KEY_LEN {
        return None;
    }
    let key = b.take(key_len, "key bytes").ok()?.to_vec();
    let op = match tag {
        OP_SET => {
            let value = body[5 + key_len..].to_vec();
            if value.len() > MAX_VALUE_LEN {
                return None;
            }
            ReplOp::Set { key, value }
        }
        OP_SET_EX => {
            let expire_at_ms = b.u64("expire deadline").ok()?;
            let value = body[5 + key_len + 8..].to_vec();
            if value.len() > MAX_VALUE_LEN {
                return None;
            }
            ReplOp::SetEx { key, value, expire_at_ms }
        }
        OP_DEL => {
            if b.remaining() != 0 {
                return None;
            }
            ReplOp::Del { key }
        }
        _ => return None,
    };
    debug_assert!(p.pos() > start);
    Some(op)
}

/// Parse a whole log buffer: the header's shard index, the records of
/// the valid prefix, and the byte length of that prefix (header
/// included). `Err` only when the header itself is unusable.
fn parse(buf: &[u8]) -> Result<(u32, Vec<ReplOp>, usize), String> {
    let mut p = Parser::new(buf);
    let shard = FileHeader::read(&mut p, LOG_MAGIC, LOG_VERSION, "repl log")?;
    let mut ops = Vec::new();
    let mut valid_len = p.pos();
    while p.remaining() > 0 {
        match decode_record(&mut p) {
            Some(op) => {
                ops.push(op);
                valid_len = p.pos();
            }
            None => break,
        }
    }
    Ok((shard, ops, valid_len))
}

/// What [`LogWriter::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecovery {
    /// Intact records recovered from the existing files (sealed
    /// segments included — this seeds the store-wide offset).
    pub records: u64,
    /// Bytes cut off the active file's tail (0 for a clean close).
    pub truncated_bytes: u64,
    /// The active file's header was unusable and it was reset to empty.
    /// The store itself is unaffected — but log-replay backups from
    /// before the reset no longer cover this shard.
    pub reset: bool,
}

/// Read every intact record of a single log file. Rejects an unusable
/// header as an error; a torn tail simply ends the record list.
pub fn read_log(path: &Path) -> io::Result<(Vec<ReplOp>, LogRecovery)> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let (_shard, ops, valid_len) =
        parse(&buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let recovery = LogRecovery {
        records: ops.len() as u64,
        truncated_bytes: (buf.len() - valid_len) as u64,
        reset: false,
    };
    Ok((ops, recovery))
}

/// Read a shard's full op stream: sealed segments in sequence order,
/// then the active file at `path` — the replay path under rotation.
pub fn read_log_chain(path: &Path) -> io::Result<(Vec<ReplOp>, LogRecovery)> {
    let mut ops = Vec::new();
    let mut total = LogRecovery { records: 0, truncated_bytes: 0, reset: false };
    for (_, seg) in segment_files(path)? {
        let (mut seg_ops, r) = read_log(&seg)?;
        ops.append(&mut seg_ops);
        total.records += r.records;
        total.truncated_bytes += r.truncated_bytes;
    }
    let (mut tail, r) = read_log(path)?;
    ops.append(&mut tail);
    total.records += r.records;
    total.truncated_bytes += r.truncated_bytes;
    Ok((ops, total))
}

/// Sealed-segment path for the active log at `path`:
/// `repl-N.log` → `repl-N.seg{K}.log`.
fn segment_path(path: &Path, seq: u64) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!("{stem}.seg{seq}.log"))
}

/// Sealed segments for the active log at `path`, sorted by sequence
/// number. Holes are fine — snapshot truncation deletes old segments.
pub fn segment_files(path: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy().into_owned();
    let prefix = format!("{stem}.seg");
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let mut segs = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(mid) = name.strip_prefix(&prefix).and_then(|s| s.strip_suffix(".log")) else {
            continue;
        };
        if let Ok(seq) = mid.parse::<u64>() {
            segs.push((seq, entry.path()));
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// The append handle one shard holds. Creation recovers the existing
/// active file (torn-tail truncation), discovers sealed segments, and
/// continues the record count across all of them.
pub struct LogWriter {
    file: File,
    path: PathBuf,
    shard: u32,
    /// Rotation threshold for the active file; `None` = never rotate.
    max_bytes: Option<u64>,
    /// Next sealed-segment sequence number.
    next_seq: u64,
    /// Records across sealed segments + active (recovered + appended).
    records: u64,
    /// Records in the active file only (a rotation seals only these).
    active_records: u64,
    /// Bytes in sealed segments (for total-size reporting).
    segment_bytes: u64,
    /// Active file length (header + valid records + appends) — kept
    /// here so observing log growth never pays a stat() per scrape.
    bytes: u64,
}

impl LogWriter {
    /// Open (or create) the log at `path` for shard `shard`. An existing
    /// active file is scanned, its torn tail truncated, and appends
    /// continue from the end of the valid prefix; sealed segments are
    /// discovered and their records counted into the recovery total.
    pub fn open(
        path: &Path,
        shard: u32,
        max_bytes: Option<u64>,
    ) -> io::Result<(LogWriter, LogRecovery)> {
        let mut seg_records = 0u64;
        let mut segment_bytes = 0u64;
        let mut next_seq = 0u64;
        for (seq, seg) in segment_files(path)? {
            // An unreadable segment contributes nothing to the offset;
            // its sequence number is still reserved.
            if let Ok((ops, _)) = read_log(&seg) {
                seg_records += ops.len() as u64;
            }
            segment_bytes += std::fs::metadata(&seg).map(|m| m.len()).unwrap_or(0);
            next_seq = next_seq.max(seq + 1);
        }
        // truncate(false): an existing log is recovered, not clobbered.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;
        let base = |file: File, active: u64, bytes: u64| LogWriter {
            file,
            path: path.to_path_buf(),
            shard,
            max_bytes,
            next_seq,
            records: seg_records + active,
            active_records: active,
            segment_bytes,
            bytes,
        };
        if buf.is_empty() {
            let header = FileHeader { magic: LOG_MAGIC, version: LOG_VERSION, meta: shard };
            let header = header.encode();
            file.write_all(&header)?;
            let recovery =
                LogRecovery { records: seg_records, truncated_bytes: 0, reset: false };
            return Ok((base(file, 0, header.len() as u64), recovery));
        }
        match parse(&buf) {
            // The header's shard index is outside any record checksum;
            // a mismatch (corruption, or a file moved between shard
            // slots) makes the whole log untrustworthy → reset.
            Ok((got_shard, _, _)) if got_shard != shard => {
                Self::reset(base(file, 0, 0), buf.len())
            }
            Ok((_, ops, valid_len)) => {
                if valid_len < buf.len() {
                    file.set_len(valid_len as u64)?;
                }
                file.seek(SeekFrom::Start(valid_len as u64))?;
                let recovery = LogRecovery {
                    records: seg_records + ops.len() as u64,
                    truncated_bytes: (buf.len() - valid_len) as u64,
                    reset: false,
                };
                Ok((base(file, ops.len() as u64, valid_len as u64), recovery))
            }
            // Unusable header: the active log cannot be trusted at all.
            // Reset it rather than refuse to open the store — the pools
            // hold the authoritative state.
            Err(_) => Self::reset(base(file, 0, 0), buf.len()),
        }
    }

    fn reset(mut w: LogWriter, old_len: usize) -> io::Result<(LogWriter, LogRecovery)> {
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        let header = FileHeader { magic: LOG_MAGIC, version: LOG_VERSION, meta: w.shard };
        let header = header.encode();
        w.file.write_all(&header)?;
        w.bytes = header.len() as u64;
        let recovery = LogRecovery {
            records: w.records,
            truncated_bytes: old_len as u64,
            reset: true,
        };
        Ok((w, recovery))
    }

    /// Seal the active file: rename it to the next `segN` name and start
    /// a fresh active file. On failure the active file keeps growing and
    /// the next append retries.
    fn rotate(&mut self) -> io::Result<()> {
        let seg = segment_path(&self.path, self.next_seq);
        std::fs::rename(&self.path, &seg)?;
        let mut fresh = match OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&self.path)
        {
            Ok(f) => f,
            Err(e) => {
                // Undo so appends keep landing in a discoverable file.
                let _ = std::fs::rename(&seg, &self.path);
                return Err(e);
            }
        };
        let header =
            FileHeader { magic: LOG_MAGIC, version: LOG_VERSION, meta: self.shard }.encode();
        fresh.write_all(&header)?;
        self.file = fresh;
        self.next_seq += 1;
        self.segment_bytes += self.bytes;
        self.bytes = header.len() as u64;
        self.active_records = 0;
        Ok(())
    }

    /// Seal the active file (if it holds any records) and return every
    /// sealed segment currently on disk — the set a snapshot started
    /// *after* this call covers, and may delete once durable.
    pub fn rotate_for_snapshot(&mut self) -> io::Result<Vec<PathBuf>> {
        if self.active_records > 0 {
            self.rotate()?;
        }
        Ok(segment_files(&self.path)?.into_iter().map(|(_, p)| p).collect())
    }

    /// Append one record. One `write` syscall: in the page cache (and so
    /// safe against a process kill) when this returns. Crossing the size
    /// cap seals the active file first (best-effort — a failed rotation
    /// leaves the log growing, to be retried on the next append).
    pub fn append(&mut self, op: &ReplOp) -> io::Result<()> {
        if let Some(max) = self.max_bytes {
            if self.bytes >= max && self.active_records > 0 {
                let _ = self.rotate();
            }
        }
        let mut rec = Vec::with_capacity(64);
        encode_record(op, &mut rec);
        self.file.write_all(&rec)?;
        self.records += 1;
        self.active_records += 1;
        self.bytes += rec.len() as u64;
        Ok(())
    }

    /// Records across sealed segments + active (recovered + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Total log bytes on disk: sealed segments + the active file.
    pub fn bytes(&self) -> u64 {
        self.segment_bytes + self.bytes
    }

    /// fsync the active file — durable against power loss, not just
    /// process death.
    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Delete sealed segments a durable snapshot now covers. Returns how
    /// many were removed; a segment already gone is not an error.
    pub fn truncate_segments(&mut self, covered: &[PathBuf]) -> io::Result<u64> {
        let mut removed = 0u64;
        for p in covered {
            let len = std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
            match std::fs::remove_file(p) {
                Ok(()) => {
                    removed += 1;
                    self.segment_bytes = self.segment_bytes.saturating_sub(len);
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-repl-log-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            if let Ok(segs) = segment_files(&self.0) {
                for (_, seg) in segs {
                    let _ = std::fs::remove_file(seg);
                }
            }
            let _ = std::fs::remove_file(&self.0);
        }
    }

    fn sample_ops(n: u32) -> Vec<ReplOp> {
        (0..n)
            .map(|i| {
                if i % 4 == 3 {
                    ReplOp::Del { key: format!("key-{}", i - 1).into_bytes() }
                } else if i % 4 == 1 {
                    ReplOp::SetEx {
                        key: format!("key-{i}").into_bytes(),
                        value: format!("value-{i}").into_bytes(),
                        expire_at_ms: 1_700_000_000_000 + u64::from(i),
                    }
                } else {
                    ReplOp::Set {
                        key: format!("key-{i}").into_bytes(),
                        value: format!("value-{i}").into_bytes(),
                    }
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_and_reopen_append() {
        let p = TempPath::new("roundtrip");
        let ops = sample_ops(20);
        {
            let (mut w, rec) = LogWriter::open(&p.0, 7, None).unwrap();
            assert_eq!(rec, LogRecovery { records: 0, truncated_bytes: 0, reset: false });
            for op in &ops[..10] {
                w.append(op).unwrap();
            }
            w.sync().unwrap();
        }
        // Reopen continues where the valid prefix ends.
        let (mut w, rec) = LogWriter::open(&p.0, 7, None).unwrap();
        assert_eq!(rec, LogRecovery { records: 10, truncated_bytes: 0, reset: false });
        for op in &ops[10..] {
            w.append(op).unwrap();
        }
        drop(w);
        let (read, rec) = read_log(&p.0).unwrap();
        assert_eq!(read, ops);
        assert_eq!(rec.records, 20);
    }

    #[test]
    fn empty_and_binary_payloads() {
        let p = TempPath::new("binary");
        let ops = vec![
            ReplOp::Set { key: b"empty".to_vec(), value: Vec::new() },
            ReplOp::Set { key: (0..=255u8).collect(), value: vec![0u8; 10_000] },
            ReplOp::Del { key: vec![0u8, 13, 10, 255] },
        ];
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        drop(w);
        assert_eq!(read_log(&p.0).unwrap().0, ops);
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let p = TempPath::new("torn");
        let ops = sample_ops(10);
        {
            let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        let full = std::fs::read(&p.0).unwrap();
        // Cut the file mid-record: reopen must drop the torn record,
        // truncate the file back to the valid prefix, and keep working.
        std::fs::write(&p.0, &full[..full.len() - 5]).unwrap();
        let (mut w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 9, "the torn last record must be dropped");
        assert!(rec.truncated_bytes > 0);
        assert!(!rec.reset);
        assert!(
            std::fs::metadata(&p.0).unwrap().len() < full.len() as u64,
            "the file itself must shrink to the valid prefix"
        );
        w.append(&ops[9]).unwrap();
        drop(w);
        let (read, _) = read_log(&p.0).unwrap();
        assert_eq!(read, ops, "append after truncation must continue the sequence");
    }

    #[test]
    fn every_corrupted_byte_yields_only_a_valid_prefix() {
        let p = TempPath::new("corrupt");
        let ops = sample_ops(12);
        {
            let (mut w, _) = LogWriter::open(&p.0, 3, None).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        let original = std::fs::read(&p.0).unwrap();
        for pos in 0..original.len() {
            let mut bad = original.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&p.0, &bad).unwrap();
            if pos < FileHeader::LEN {
                // Header corruption: the writer resets to an empty log
                // (never an error, never data). Magic/version flips are
                // also rejected by the reader; a flipped shard index
                // (bytes 12..16) is informational to the reader but
                // still a mismatch the writer refuses to append behind.
                if pos < 12 {
                    assert!(read_log(&p.0).is_err(), "header flip at {pos} accepted by reader");
                }
                let (w, rec) = LogWriter::open(&p.0, 3, None).unwrap();
                assert!(rec.reset && rec.records == 0, "header flip at {pos} must reset");
                assert_eq!(w.records(), 0);
            } else {
                // Record corruption: the result must be an exact prefix
                // of the original op sequence — a flipped byte can
                // never invent or alter a record.
                let (read, rec) = read_log(&p.0).unwrap();
                assert!(read.len() < ops.len(), "flip at byte {pos} went undetected");
                assert_eq!(
                    read,
                    ops[..read.len()],
                    "flip at byte {pos} must yield a strict prefix"
                );
                assert!(rec.truncated_bytes > 0);
            }
        }
        // Restore and confirm the pristine file still reads fully.
        std::fs::write(&p.0, &original).unwrap();
        assert_eq!(read_log(&p.0).unwrap().0, ops);
    }

    #[test]
    fn oversized_length_claims_are_rejected() {
        let p = TempPath::new("oversize");
        {
            let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
            w.append(&ReplOp::Set { key: b"k".to_vec(), value: b"v".to_vec() }).unwrap();
        }
        // Append a record claiming a gigantic body: must end the prefix,
        // not trigger a gigantic allocation or a bogus record.
        let mut bytes = std::fs::read(&p.0).unwrap();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(b"garbage");
        std::fs::write(&p.0, &bytes).unwrap();
        let (read, rec) = read_log(&p.0).unwrap();
        assert_eq!(read.len(), 1);
        assert!(rec.truncated_bytes > 0);
    }

    #[test]
    fn rotation_seals_segments_and_the_chain_replays_in_order() {
        let p = TempPath::new("rotate");
        let ops = sample_ops(200);
        {
            // Tiny cap: every few records seals a segment.
            let (mut w, _) = LogWriter::open(&p.0, 0, Some(256)).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
            assert_eq!(w.records(), 200);
            assert!(
                w.bytes() > 256,
                "total bytes must count sealed segments, not just the active file"
            );
        }
        let segs = segment_files(&p.0).unwrap();
        assert!(segs.len() > 2, "a 256-byte cap over 200 records must seal many segments");
        for (_, seg) in &segs {
            assert!(
                std::fs::metadata(seg).unwrap().len() < 1024,
                "sealed segments must respect the cap up to one record of overshoot"
            );
        }
        let (read, rec) = read_log_chain(&p.0).unwrap();
        assert_eq!(read, ops, "segments-then-active must replay the exact op sequence");
        assert_eq!(rec.records, 200);
    }

    #[test]
    fn reopen_counts_segment_records_into_the_offset() {
        let p = TempPath::new("rotate-reopen");
        let ops = sample_ops(50);
        {
            let (mut w, _) = LogWriter::open(&p.0, 0, Some(256)).unwrap();
            for op in &ops {
                w.append(op).unwrap();
            }
        }
        // Reopen (rotation disabled now): the recovered record count must
        // still span the sealed segments, or the store-wide replication
        // offset would jump backwards after a restart.
        let (mut w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 50);
        w.append(&ReplOp::Del { key: b"k".to_vec() }).unwrap();
        assert_eq!(w.records(), 51);
        drop(w);
        assert_eq!(read_log_chain(&p.0).unwrap().0.len(), 51);
    }

    #[test]
    fn snapshot_rotation_returns_covered_segments_and_truncation_removes_them() {
        let p = TempPath::new("rotate-snap");
        let ops = sample_ops(40);
        let (mut w, _) = LogWriter::open(&p.0, 0, Some(512)).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        let covered = w.rotate_for_snapshot().unwrap();
        assert!(!covered.is_empty());
        assert_eq!(
            covered.len(),
            segment_files(&p.0).unwrap().len(),
            "after the forced rotation every record lives in a sealed segment"
        );
        // Ops appended *after* the cut are not covered and must survive.
        w.append(&ReplOp::Set { key: b"post".to_vec(), value: b"cut".to_vec() }).unwrap();
        let removed = w.truncate_segments(&covered).unwrap();
        assert_eq!(removed as usize, covered.len());
        assert!(segment_files(&p.0).unwrap().is_empty());
        let (read, _) = read_log_chain(&p.0).unwrap();
        assert_eq!(read.len(), 1, "only the post-snapshot op remains in the log");
        assert_eq!(read[0].key(), b"post");
        assert_eq!(w.records(), 41, "the offset counter never rewinds on truncation");
    }
}
