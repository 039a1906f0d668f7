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
//! monotonically increasing K — and a fresh active file, staged with
//! its header as `repl-N.next.log`, is renamed into place. Sealed
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
//! ([`LogWriter::open`]) every file (sealed segments to count their
//! records, the active file to find its valid prefix) streams once
//! through one fixed read buffer, and each record is validated in place
//! by the same checks replay uses — no copy of the file and no
//! allocation per record, so reopen costs one checksum pass per log
//! byte. The first record that is truncated, oversized, structurally
//! invalid or checksum-mismatched ends the valid prefix, and the active
//! file is **truncated back to it** — a torn tail from a crash
//! mid-append disappears instead of poisoning later appends, and a
//! corrupt record can never be replayed into state. A corrupt *header*
//! resets the whole log (the pools remain the authoritative store
//! state; the log is the replication/backup feed).
//!
//! The writer encodes into one reused buffer and issues one unbuffered
//! `write` per record: the bytes are in
//! the kernel page cache when `append` returns, so a process kill (the
//! failure mode the service recovers from) loses nothing; [`sync`](LogWriter::sync)
//! (called from the engine's clean close) makes the file durable against
//! power loss too.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dash_common::MAX_KEY_LEN;

use crate::engine::MAX_VALUE_LEN;
use crate::repl::wire::{fnv64, FileHeader, Parser};
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

/// Bytes the open-time scan reads at a time. The scan buffer grows past
/// this only to hold a single record longer than one chunk (at most
/// `MAX_BODY + 12` bytes).
const SCAN_CHUNK: usize = 1 << 20;

/// Total length (prefix, body, checksum) of the record whose 4-byte
/// length prefix is `prefix`, or `None` when the claimed body length is
/// out of bounds — so a corrupt length can never demand a huge read.
fn record_len(prefix: [u8; 4]) -> Option<usize> {
    let body_len = u32::from_le_bytes(prefix) as usize;
    (1 + 4..=MAX_BODY).contains(&body_len).then_some(4 + body_len + 8)
}

/// One intact record, borrowed from the bytes it was framed in.
#[derive(Debug, Clone, Copy)]
enum Frame<'a> {
    Set { key: &'a [u8], value: &'a [u8] },
    SetEx { key: &'a [u8], value: &'a [u8], expire_at_ms: u64 },
    Del { key: &'a [u8] },
}

impl Frame<'_> {
    fn to_op(self) -> ReplOp {
        match self {
            Frame::Set { key, value } => ReplOp::Set { key: key.to_vec(), value: value.to_vec() },
            Frame::SetEx { key, value, expire_at_ms } => {
                ReplOp::SetEx { key: key.to_vec(), value: value.to_vec(), expire_at_ms }
            }
            Frame::Del { key } => ReplOp::Del { key: key.to_vec() },
        }
    }
}

/// The one record validator: frame the record at the start of `buf` and
/// return it with its total length. `None` means `buf` does not start
/// with a complete, valid record (torn tail or corruption) — length
/// bounds, checksum, tag, key length, value length and a DEL carrying a
/// value are all checked here and nowhere else.
fn frame_record(buf: &[u8]) -> Option<(Frame<'_>, usize)> {
    let len = record_len(buf.get(..4)?.try_into().ok()?)?;
    let (framed, checksum) = buf.get(..len)?.split_at(len - 8);
    // The checksum covers the length prefix too, so a corrupted length
    // cannot masquerade as a differently-framed valid record.
    if fnv64(framed) != u64::from_le_bytes(checksum.try_into().ok()?) {
        return None;
    }
    let body = &framed[4..];
    let mut b = Parser::new(body);
    let tag = b.u8("op tag").ok()?;
    let key_len = b.u32("key length").ok()? as usize;
    if key_len > MAX_KEY_LEN {
        return None;
    }
    let key = b.take(key_len, "key bytes").ok()?;
    let frame = match tag {
        OP_SET => Frame::Set { key, value: &body[b.pos()..] },
        OP_SET_EX => {
            let expire_at_ms = b.u64("expire deadline").ok()?;
            Frame::SetEx { key, value: &body[b.pos()..], expire_at_ms }
        }
        OP_DEL if b.remaining() == 0 => Frame::Del { key },
        _ => return None,
    };
    match frame {
        Frame::Set { value, .. } | Frame::SetEx { value, .. } if value.len() > MAX_VALUE_LEN => {
            None
        }
        _ => Some((frame, len)),
    }
}

/// What [`scan`] found in one log file.
struct Scan {
    /// The header's shard index.
    shard: u32,
    /// Intact records in the valid prefix.
    records: u64,
    /// Byte length of the valid prefix, header included.
    valid_len: u64,
}

/// Read from `file` into `buf[end..]` until `buf` is full or the file
/// ends; returns the new fill level.
fn fill(file: &mut File, buf: &mut [u8], mut end: usize) -> io::Result<usize> {
    while end < buf.len() {
        match file.read(&mut buf[end..]) {
            Ok(0) => break,
            Ok(n) => end += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(end)
}

/// Stream the log in `file` (positioned at its start) through `buf`:
/// validate the header, then frame records until the first one that is
/// torn or invalid, handing each intact record to `each`. `buf`'s
/// length is the read size; it grows only to hold one record longer
/// than that, so a scan allocates nothing per record. The outer error
/// is an I/O failure, the inner one an unusable header.
fn scan(
    file: &mut File,
    buf: &mut Vec<u8>,
    mut each: impl FnMut(Frame<'_>),
) -> io::Result<Result<Scan, String>> {
    if buf.len() < FileHeader::LEN {
        buf.resize(FileHeader::LEN, 0);
    }
    let mut end = fill(file, buf, 0)?;
    let mut p = Parser::new(&buf[..end]);
    let shard = match FileHeader::read(&mut p, LOG_MAGIC, LOG_VERSION, "repl log") {
        Ok(shard) => shard,
        Err(e) => return Ok(Err(e)),
    };
    let (mut start, mut base, mut records) = (p.pos(), 0u64, 0u64);
    loop {
        if let Some((frame, len)) = frame_record(&buf[start..end]) {
            each(frame);
            records += 1;
            start += len;
            continue;
        }
        // No valid record here yet. Read on only when the bytes so far
        // could still be the start of one that is merely cut off by the
        // end of the buffer; otherwise the valid prefix ends here.
        let need = match buf.get(start..start + 4) {
            Some(prefix) => match record_len(prefix.try_into().unwrap()) {
                Some(need) => need,
                None => break,
            },
            None => 4,
        };
        let at_eof = end < buf.len();
        if end - start >= need || at_eof {
            break;
        }
        buf.copy_within(start..end, 0);
        base += start as u64;
        end -= start;
        start = 0;
        if buf.len() < need {
            buf.resize(need, 0);
        }
        end = fill(file, buf, end)?;
    }
    Ok(Ok(Scan { shard, records, valid_len: base + start as u64 }))
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
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut ops = Vec::new();
    let scan = scan(&mut file, &mut vec![0; SCAN_CHUNK], |f| ops.push(f.to_op()))?
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    // Saturating: another process may truncate the file mid-read.
    let truncated_bytes = len.saturating_sub(scan.valid_len);
    let recovery = LogRecovery { records: scan.records, truncated_bytes, reset: false };
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

/// Where [`LogWriter::rotate`] stages the next active file:
/// `repl-N.log` → `repl-N.next.log` (not a segment name).
fn staging_path(path: &Path) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!("{stem}.next.log"))
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
    /// Reused record encode buffer: an append allocates nothing.
    enc: Vec<u8>,
}

fn log_header(shard: u32) -> [u8; FileHeader::LEN] {
    FileHeader { magic: LOG_MAGIC, version: LOG_VERSION, meta: shard }.encode()
}

impl LogWriter {
    /// Open (or create) the log at `path` for shard `shard`. An existing
    /// active file is scanned, its torn tail truncated, and appends
    /// continue from the end of the valid prefix; sealed segments are
    /// discovered and their records counted into the recovery total.
    /// Every file streams through one scan buffer: the cost is one
    /// validation pass per log byte and no allocation per record.
    pub fn open(
        path: &Path,
        shard: u32,
        max_bytes: Option<u64>,
    ) -> io::Result<(LogWriter, LogRecovery)> {
        let mut buf = vec![0u8; SCAN_CHUNK];
        let mut seg_records = 0u64;
        let mut segment_bytes = 0u64;
        let mut next_seq = 0u64;
        for (seq, seg) in segment_files(path)? {
            // An unreadable segment contributes nothing to the offset;
            // its sequence number is still reserved.
            if let Ok(mut f) = File::open(&seg) {
                if let Ok(Ok(s)) = scan(&mut f, &mut buf, |_| ()) {
                    seg_records += s.records;
                }
            }
            segment_bytes += std::fs::metadata(&seg).map(|m| m.len()).unwrap_or(0);
            next_seq = next_seq.max(seq + 1);
        }
        // truncate(false): an existing log is recovered, not clobbered.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let len = file.metadata()?.len();
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
            enc: Vec::new(),
        };
        if len == 0 {
            let header = log_header(shard);
            file.write_all(&header)?;
            let recovery =
                LogRecovery { records: seg_records, truncated_bytes: 0, reset: false };
            return Ok((base(file, 0, header.len() as u64), recovery));
        }
        match scan(&mut file, &mut buf, |_| ())? {
            // The header's shard index is outside any record checksum;
            // a mismatch (corruption, or a file moved between shard
            // slots) makes the whole log untrustworthy → reset.
            Ok(s) if s.shard != shard => Self::reset(base(file, 0, 0), len),
            Ok(s) => {
                if s.valid_len < len {
                    file.set_len(s.valid_len)?;
                }
                file.seek(SeekFrom::Start(s.valid_len))?;
                let recovery = LogRecovery {
                    records: seg_records + s.records,
                    truncated_bytes: len - s.valid_len,
                    reset: false,
                };
                Ok((base(file, s.records, s.valid_len), recovery))
            }
            // Unusable header: the active log cannot be trusted at all.
            // Reset it rather than refuse to open the store — the pools
            // hold the authoritative state.
            Err(_) => Self::reset(base(file, 0, 0), len),
        }
    }

    fn reset(mut w: LogWriter, old_len: u64) -> io::Result<(LogWriter, LogRecovery)> {
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        let header = log_header(w.shard);
        w.file.write_all(&header)?;
        w.bytes = header.len() as u64;
        let recovery = LogRecovery { records: w.records, truncated_bytes: old_len, reset: true };
        Ok((w, recovery))
    }

    /// Seal the active file: rename it to the next `segN` name and start
    /// a fresh active file. The fresh file is staged with its header
    /// under a temporary name first, so any failure leaves the active
    /// file and every sealed segment as they were: appends keep landing
    /// in the active file and the next append retries.
    fn rotate(&mut self) -> io::Result<()> {
        let seg = segment_path(&self.path, self.next_seq);
        let staged = staging_path(&self.path);
        let header = log_header(self.shard);
        let swap = || -> io::Result<File> {
            // truncate(true): a staged file left by a crash mid-rotation
            // is never referenced by anything and is simply reused.
            let mut fresh = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&staged)?;
            fresh.write_all(&header)?;
            std::fs::rename(&self.path, &seg)?;
            if let Err(e) = std::fs::rename(&staged, &self.path) {
                // Undo the seal so appends keep landing in the active file.
                let _ = std::fs::rename(&seg, &self.path);
                return Err(e);
            }
            Ok(fresh)
        };
        let fresh = swap().inspect_err(|_| {
            let _ = std::fs::remove_file(&staged);
        })?;
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
        self.enc.clear();
        encode_record(op, &mut self.enc);
        self.file.write_all(&self.enc)?;
        self.records += 1;
        self.active_records += 1;
        self.bytes += self.enc.len() as u64;
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

    /// The whole-buffer reference the streaming scan must agree with:
    /// frame records back to back over the file held in memory. Returns
    /// the intact ops and the valid prefix length, `None` for an
    /// unusable header.
    fn frame_whole(buf: &[u8]) -> Option<(Vec<ReplOp>, usize)> {
        let mut p = Parser::new(buf);
        FileHeader::read(&mut p, LOG_MAGIC, LOG_VERSION, "repl log").ok()?;
        let (mut ops, mut at) = (Vec::new(), p.pos());
        while let Some((frame, len)) = frame_record(&buf[at..]) {
            ops.push(frame.to_op());
            at += len;
        }
        Some((ops, at))
    }

    /// Scan the file at `path` with a `chunk`-byte read buffer.
    fn scan_ops(path: &Path, chunk: usize) -> (Vec<ReplOp>, u64) {
        let mut ops = Vec::new();
        let mut file = File::open(path).unwrap();
        let s = scan(&mut file, &mut vec![0; chunk], |f| ops.push(f.to_op())).unwrap().unwrap();
        assert_eq!(s.records, ops.len() as u64);
        (ops, s.valid_len)
    }

    fn encode_log(ops: &[ReplOp]) -> Vec<u8> {
        let mut bytes = log_header(0).to_vec();
        for op in ops {
            encode_record(op, &mut bytes);
        }
        bytes
    }

    fn write_log(path: &Path, ops: &[ReplOp]) -> Vec<u8> {
        let bytes = encode_log(ops);
        std::fs::write(path, &bytes).unwrap();
        bytes
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        fn op_strategy() -> impl Strategy<Value = ReplOp> {
            (0u8..3, vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..200), any::<u64>()).prop_map(
                |(kind, key, value, expire_at_ms)| match kind {
                    0 => ReplOp::Set { key, value },
                    1 => ReplOp::SetEx { key, value, expire_at_ms },
                    _ => ReplOp::Del { key },
                },
            )
        }

        proptest! {
            /// A random record stream with a random cut or one flipped
            /// byte: the writer's open, the replay reader and a scan
            /// with a tiny read buffer all agree with the whole-buffer
            /// reference on the records and the bytes cut off.
            #[test]
            fn streaming_scan_matches_the_whole_buffer_reference(
                ops in vec(op_strategy(), 1..40),
                flip in any::<bool>(),
                at in any::<u64>(),
                bit in 0u8..8,
                chunk in 1usize..64,
            ) {
                let p = TempPath::new("prop-scan");
                let mut bytes = write_log(&p.0, &ops);
                // Mutate record bytes only: header damage is a reset,
                // covered byte by byte in the test above.
                let span = (bytes.len() - FileHeader::LEN) as u64;
                if flip {
                    bytes[FileHeader::LEN + (at % span) as usize] ^= 1 << bit;
                } else {
                    bytes.truncate(FileHeader::LEN + (at % (span + 1)) as usize);
                }
                std::fs::write(&p.0, &bytes).unwrap();
                let (want, valid_len) = frame_whole(&bytes).unwrap();
                let cut = (bytes.len() - valid_len) as u64;
                prop_assert_eq!(&want[..], &ops[..want.len()]);

                let (read, rec) = read_log(&p.0).unwrap();
                prop_assert_eq!(&read, &want);
                prop_assert_eq!(rec.truncated_bytes, cut);
                prop_assert_eq!(scan_ops(&p.0, chunk), (want.clone(), valid_len as u64));

                let (w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
                prop_assert_eq!(rec, LogRecovery {
                    records: want.len() as u64,
                    truncated_bytes: cut,
                    reset: false,
                });
                prop_assert_eq!(w.records(), want.len() as u64);
                drop(w);
                prop_assert_eq!(std::fs::metadata(&p.0).unwrap().len(), valid_len as u64);
            }
        }
    }

    #[test]
    fn a_record_straddling_the_chunk_boundary_is_read_whole() {
        let p = TempPath::new("straddle");
        // Header (16) + a first record ending 10 bytes short of the
        // chunk, so the second record starts in the first chunk and
        // ends in the next one.
        let first = SCAN_CHUNK - FileHeader::LEN - 10 - (4 + 1 + 4 + 1 + 8);
        let ops = vec![
            ReplOp::Set { key: b"a".to_vec(), value: vec![7; first] },
            ReplOp::SetEx { key: b"straddler".to_vec(), value: vec![9; 100], expire_at_ms: 5 },
            ReplOp::Del { key: b"a".to_vec() },
        ];
        let bytes = write_log(&p.0, &ops);
        let second_at = FileHeader::LEN + (4 + 1 + 4 + 1 + first + 8);
        assert_eq!(second_at, SCAN_CHUNK - 10);
        let (w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec, LogRecovery { records: 3, truncated_bytes: 0, reset: false });
        drop(w);
        assert_eq!(read_log(&p.0).unwrap().0, ops);
        // Torn inside the straddling record: only the first survives.
        std::fs::write(&p.0, &bytes[..SCAN_CHUNK + 20]).unwrap();
        let (_, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 1);
        assert_eq!(rec.truncated_bytes, (SCAN_CHUNK + 20 - second_at) as u64);
        assert_eq!(std::fs::metadata(&p.0).unwrap().len(), second_at as u64);
    }

    #[test]
    fn a_max_size_record_larger_than_a_chunk_is_read_whole() {
        let p = TempPath::new("max-record");
        let big = ReplOp::SetEx {
            key: vec![b'k'; MAX_KEY_LEN],
            value: vec![0xab; MAX_VALUE_LEN],
            expire_at_ms: u64::MAX,
        };
        let mut rec = Vec::new();
        encode_record(&big, &mut rec);
        assert_eq!(rec.len(), MAX_BODY + 12, "the largest legal record");
        assert!(rec.len() > SCAN_CHUNK);
        let ops = vec![
            ReplOp::Set { key: b"before".to_vec(), value: b"x".to_vec() },
            big,
            ReplOp::Set { key: b"after".to_vec(), value: b"y".to_vec() },
        ];
        let bytes = write_log(&p.0, &ops);
        assert_eq!(scan_ops(&p.0, SCAN_CHUNK).0, ops);
        let (w, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec, LogRecovery { records: 3, truncated_bytes: 0, reset: false });
        drop(w);
        assert_eq!(read_log(&p.0).unwrap().0, ops);
        // Torn inside the big record: the scan reads to the end of the
        // file and still ends the prefix before it.
        std::fs::write(&p.0, &bytes[..bytes.len() - 100]).unwrap();
        let (_, rec) = LogWriter::open(&p.0, 0, None).unwrap();
        assert_eq!(rec.records, 1);
    }

    #[test]
    fn appends_through_the_reused_encode_buffer_write_the_same_bytes() {
        let p = TempPath::new("enc-reuse");
        let mut ops = sample_ops(30);
        // A large record first leaves a large buffer behind; the short
        // records after it must still be written at their own length.
        ops.insert(10, ReplOp::Set { key: b"big".to_vec(), value: vec![1; 200_000] });
        let (mut w, _) = LogWriter::open(&p.0, 0, None).unwrap();
        for op in &ops {
            w.append(op).unwrap();
        }
        drop(w);
        assert_eq!(std::fs::read(&p.0).unwrap(), encode_log(&ops), "bytes unchanged");
    }

    #[test]
    fn a_failed_rotation_leaves_every_file_intact_and_appends_continue() {
        let p = TempPath::new("rotate-fail");
        let ops = sample_ops(120);
        let (mut w, _) = LogWriter::open(&p.0, 0, Some(256)).unwrap();
        for op in &ops[..40] {
            w.append(op).unwrap();
        }
        let sealed: Vec<(PathBuf, Vec<u8>)> = segment_files(&p.0)
            .unwrap()
            .into_iter()
            .map(|(_, s)| {
                let bytes = std::fs::read(&s).unwrap();
                (s, bytes)
            })
            .collect();
        assert!(!sealed.is_empty());
        // A directory where the next active file is staged makes every
        // rotation fail before anything on disk is renamed.
        let staged = staging_path(&p.0);
        std::fs::create_dir(&staged).unwrap();
        let active = std::fs::read(&p.0).unwrap();
        for op in &ops[40..80] {
            w.append(op).unwrap();
        }
        let now: Vec<PathBuf> = segment_files(&p.0).unwrap().into_iter().map(|(_, s)| s).collect();
        assert_eq!(now, sealed.iter().map(|(s, _)| s.clone()).collect::<Vec<_>>());
        for (s, bytes) in &sealed {
            assert_eq!(&std::fs::read(s).unwrap(), bytes, "{} changed", s.display());
        }
        let grown = std::fs::read(&p.0).unwrap();
        assert!(grown.len() > active.len() && grown.starts_with(&active), "appends land in active");
        assert_eq!(read_log_chain(&p.0).unwrap().0, ops[..80]);
        // Once staging works again, rotation resumes and nothing is lost.
        std::fs::remove_dir(&staged).unwrap();
        for op in &ops[80..] {
            w.append(op).unwrap();
        }
        assert!(segment_files(&p.0).unwrap().len() > sealed.len());
        assert!(!staged.exists(), "the staged file is renamed into place");
        drop(w);
        assert_eq!(read_log_chain(&p.0).unwrap().0, ops);
        assert_eq!(LogWriter::open(&p.0, 0, None).unwrap().1.records, 120);
    }
}
