//! Snapshot streams: the length-prefixed, checksummed record format the
//! engine's online `SNAPSHOT` export writes, the restore path loads, and
//! replica bootstrap ships over the wire (`PSYNC` → `+FULLRESYNC`).
//!
//! Layout (all integers little-endian; header/checksum framing shared
//! with the repl log via [`crate::repl::wire`]):
//!
//! ```text
//! header    16 B  SNAP_MAGIC, SNAP_VERSION, source shard count
//!                 (informational — a restore may target any shard
//!                 count; records re-partition)
//! records   *     u32 key_len, u32 value_len, u64 expire_at_ms,
//!                 key bytes, value bytes
//! end mark  u32   key_len = 0xFFFF_FFFF
//! count     u64   number of records
//! checksum  u64   FNV-1a over every preceding byte of the stream
//! ```
//!
//! `expire_at_ms` is the record's **absolute** expiry deadline in Unix
//! milliseconds (0 = none) — deadlines survive snapshot/restore verbatim
//! and are never re-derived from a clock. Only version 2 is read:
//! version 1 (no expiry field) is rejected as unsupported.
//!
//! [`SnapshotStream`] writes that layout to any `Write` sink — a `Vec`
//! for the replication bootstrap payload, a buffered temp file for disk
//! backups. [`SnapshotWriter`] is the disk flavor: it streams to
//! `<path>.tmp`, fsyncs, and renames over `<path>` only in
//! [`SnapshotWriter::finish`] — a crash mid-snapshot can never leave a
//! half-written file under the real name.
//!
//! The readers ([`read_all`] / [`parse_all`]) verify structure, bounds,
//! record count and checksum **before** returning a single record, so a
//! corrupted snapshot is rejected with a clean error instead of
//! partially restored. They hold the whole record set in memory, which
//! is the right trade-off at the sizes this store targets per snapshot
//! (values are capped at [`MAX_VALUE_LEN`] and the
//! source pools are bounded); a streaming two-pass verify can replace it
//! if pools grow.

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use dash_common::MAX_KEY_LEN;

use crate::engine::MAX_VALUE_LEN;
use crate::repl::wire::{FileHeader, Fnv, Parser};

/// `b"DASHSNP1"` as a little-endian u64.
pub const SNAP_MAGIC: u64 = u64::from_le_bytes(*b"DASHSNP1");
/// Current format version: v2 added the per-record expiry deadline.
pub const SNAP_VERSION: u32 = 2;
/// `key_len` sentinel terminating the record stream.
const END_MARK: u32 = u32::MAX;

/// Why a snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// Structural or checksum corruption; the message says what and where.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(s) => write!(f, "snapshot rejected: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

pub type SnapshotResult<T> = Result<T, SnapshotError>;

/// One decoded record: `(key, value, expire_at_ms)` — expiry 0 means none.
pub type SnapshotEntry = (Vec<u8>, Vec<u8>, u64);

/// Streams snapshot-format records (header, records, checksummed
/// trailer) into any `Write` sink.
pub struct SnapshotStream<W: Write> {
    out: W,
    fnv: Fnv,
    count: u64,
}

impl<W: Write> SnapshotStream<W> {
    /// Start a stream: writes the header. `shards` is recorded for
    /// diagnostics.
    pub fn new(out: W, shards: u32) -> SnapshotResult<Self> {
        let mut s = SnapshotStream { out, fnv: Fnv::new(), count: 0 };
        let header = FileHeader { magic: SNAP_MAGIC, version: SNAP_VERSION, meta: shards };
        s.write_hashed(&header.encode())?;
        Ok(s)
    }

    fn write_hashed(&mut self, bytes: &[u8]) -> SnapshotResult<()> {
        self.fnv.update(bytes);
        self.out.write_all(bytes)?;
        Ok(())
    }

    /// Append one record. `expire_at_ms` is the absolute expiry deadline
    /// (0 = none).
    pub fn append(&mut self, key: &[u8], value: &[u8], expire_at_ms: u64) -> SnapshotResult<()> {
        let mut head = [0u8; 16];
        head[..4].copy_from_slice(&(key.len() as u32).to_le_bytes());
        head[4..8].copy_from_slice(&(value.len() as u32).to_le_bytes());
        head[8..].copy_from_slice(&expire_at_ms.to_le_bytes());
        self.write_hashed(&head)?;
        self.write_hashed(key)?;
        self.write_hashed(value)?;
        self.count += 1;
        Ok(())
    }

    /// Write the end mark, count and checksum; returns the sink and the
    /// record count.
    pub fn finish(mut self) -> SnapshotResult<(W, u64)> {
        let mut trailer = Vec::with_capacity(12);
        trailer.extend_from_slice(&END_MARK.to_le_bytes());
        trailer.extend_from_slice(&self.count.to_le_bytes());
        self.write_hashed(&trailer)?;
        let checksum = self.fnv.value();
        self.out.write_all(&checksum.to_le_bytes())?;
        Ok((self.out, self.count))
    }
}

/// Streams `(key, value)` records into `<path>.tmp` and publishes the
/// finished, checksummed file as `<path>` on [`finish`](Self::finish).
pub struct SnapshotWriter {
    stream: Option<SnapshotStream<BufWriter<File>>>,
    tmp: PathBuf,
    path: PathBuf,
}

impl SnapshotWriter {
    /// Start a snapshot destined for `path`. `shards` is recorded in the
    /// header for diagnostics.
    pub fn create(path: &Path, shards: u32) -> SnapshotResult<Self> {
        // A unique tmp name per writer (pid + in-process sequence), so
        // two concurrent snapshots to the same path cannot interleave
        // bytes into a shared tmp file and publish a corrupt backup —
        // the last rename wins with a complete, self-consistent file.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mut name = path
            .file_name()
            .ok_or_else(|| corrupt("snapshot path has no file name"))?
            .to_os_string();
        name.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(name);
        let file = File::create(&tmp)?;
        let stream = SnapshotStream::new(BufWriter::new(file), shards)?;
        Ok(SnapshotWriter { stream: Some(stream), tmp, path: path.to_path_buf() })
    }

    /// Append one record (`expire_at_ms` 0 = no expiry).
    pub fn append(&mut self, key: &[u8], value: &[u8], expire_at_ms: u64) -> SnapshotResult<()> {
        self.stream.as_mut().expect("append after finish").append(key, value, expire_at_ms)
    }

    /// Write the trailer, fsync, and atomically publish the file under
    /// its real name. Returns the record count.
    pub fn finish(mut self) -> SnapshotResult<u64> {
        let (mut out, count) = self.stream.take().expect("finish called twice").finish()?;
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        Ok(count)
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        // An unfinished snapshot leaves no debris under the real name;
        // clean up the tmp file too (best effort). After a successful
        // finish the tmp was renamed away and this is a no-op.
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// Fully verify and decode a snapshot byte stream. Every structural
/// check — magic, version, per-record length bounds, end marker, record
/// count, checksum, no trailing bytes — passes before any record is
/// returned.
pub fn parse_all(buf: &[u8]) -> SnapshotResult<Vec<SnapshotEntry>> {
    if buf.len() < FileHeader::LEN + 4 + 8 + 8 {
        return Err(corrupt(format!("stream of {} bytes is smaller than an empty snapshot", buf.len())));
    }
    let mut p = Parser::new(buf);
    if p.u64("magic").map_err(corrupt)? != SNAP_MAGIC {
        return Err(corrupt("bad magic: not a dash snapshot file"));
    }
    let version = p.u32("version").map_err(corrupt)?;
    if version != SNAP_VERSION {
        return Err(corrupt(format!("unsupported snapshot version {version}")));
    }
    let _shards = p.u32("meta").map_err(corrupt)?;
    let mut records = Vec::new();
    loop {
        let klen = p.u32("key length").map_err(corrupt)?;
        if klen == END_MARK {
            break;
        }
        let vlen = p.u32("value length").map_err(corrupt)?;
        let expire_at_ms = p.u64("expiry deadline").map_err(corrupt)?;
        if klen as usize > MAX_KEY_LEN {
            return Err(corrupt(format!("key length {klen} exceeds limit")));
        }
        if vlen as usize > MAX_VALUE_LEN {
            return Err(corrupt(format!("value length {vlen} exceeds limit")));
        }
        let key = p.take(klen as usize, "key bytes").map_err(corrupt)?.to_vec();
        let value = p.take(vlen as usize, "value bytes").map_err(corrupt)?.to_vec();
        records.push((key, value, expire_at_ms));
    }
    let count = p.u64("record count").map_err(corrupt)?;
    if count != records.len() as u64 {
        return Err(corrupt(format!(
            "trailer claims {count} records, stream holds {}",
            records.len()
        )));
    }
    let hashed_end = p.pos();
    let checksum = p.u64("checksum").map_err(corrupt)?;
    if p.remaining() != 0 {
        return Err(corrupt(format!("{} trailing bytes after checksum", p.remaining())));
    }
    let mut fnv = Fnv::new();
    fnv.update(&buf[..hashed_end]);
    if fnv.value() != checksum {
        return Err(corrupt(format!(
            "checksum mismatch: stream says {checksum:#018x}, computed {:#018x}",
            fnv.value()
        )));
    }
    Ok(records)
}

/// [`parse_all`] over a file on disk.
pub fn read_all(path: &Path) -> SnapshotResult<Vec<SnapshotEntry>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    parse_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempPath(PathBuf);

    impl TempPath {
        fn new(tag: &str) -> Self {
            let mut p = std::env::temp_dir();
            p.push(format!("dash-snap-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_file(&p);
            TempPath(p)
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// Any leftover `<name>.tmp.*` files next to `path`?
    fn tmp_debris(path: &Path) -> bool {
        let stem = format!("{}.tmp", path.file_name().unwrap().to_str().unwrap());
        std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_str().is_some_and(|n| n.starts_with(&stem)))
    }

    fn write_sample(path: &Path, n: u32) -> u64 {
        let mut w = SnapshotWriter::create(path, 4).unwrap();
        for i in 0..n {
            // Every third record carries a deadline, exercising both
            // record shapes in one stream.
            let expire = if i % 3 == 0 { 1_700_000_000_000 + u64::from(i) } else { 0 };
            w.append(format!("key-{i}").as_bytes(), format!("value-{i}").as_bytes(), expire)
                .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip() {
        let p = TempPath::new("roundtrip");
        assert_eq!(write_sample(&p.0, 100), 100);
        let records = read_all(&p.0).unwrap();
        assert_eq!(records.len(), 100);
        for (i, (k, v, e)) in records.iter().enumerate() {
            assert_eq!(k, format!("key-{i}").as_bytes());
            assert_eq!(v, format!("value-{i}").as_bytes());
            let expect = if i % 3 == 0 { 1_700_000_000_000 + i as u64 } else { 0 };
            assert_eq!(*e, expect, "deadline must survive the roundtrip verbatim");
        }
        assert!(!tmp_debris(&p.0), "tmp must be renamed away");
    }

    #[test]
    fn v1_streams_are_rejected() {
        // Hand-build a well-formed version-1 stream: records without the
        // deadline field. Nothing writes v1 any more.
        let mut buf = Vec::new();
        let mut fnv = Fnv::new();
        let mut put = |bytes: &[u8], buf: &mut Vec<u8>| {
            fnv.update(bytes);
            buf.extend_from_slice(bytes);
        };
        put(&FileHeader { magic: SNAP_MAGIC, version: 1, meta: 4 }.encode(), &mut buf);
        for i in 0..5u32 {
            let (k, v) = (format!("key-{i}"), format!("value-{i}"));
            put(&(k.len() as u32).to_le_bytes(), &mut buf);
            put(&(v.len() as u32).to_le_bytes(), &mut buf);
            put(k.as_bytes(), &mut buf);
            put(v.as_bytes(), &mut buf);
        }
        put(&END_MARK.to_le_bytes(), &mut buf);
        put(&5u64.to_le_bytes(), &mut buf);
        let checksum = fnv.value();
        buf.extend_from_slice(&checksum.to_le_bytes());
        let e = parse_all(&buf).unwrap_err().to_string();
        assert!(e.contains("unsupported snapshot version 1"), "{e}");
    }

    #[test]
    fn in_memory_stream_matches_file_format() {
        let p = TempPath::new("memstream");
        write_sample(&p.0, 10);
        let mut s = SnapshotStream::new(Vec::new(), 4).unwrap();
        for i in 0..10u32 {
            let expire = if i % 3 == 0 { 1_700_000_000_000 + u64::from(i) } else { 0 };
            s.append(format!("key-{i}").as_bytes(), format!("value-{i}").as_bytes(), expire)
                .unwrap();
        }
        let (bytes, count) = s.finish().unwrap();
        assert_eq!(count, 10);
        assert_eq!(bytes, std::fs::read(&p.0).unwrap(), "Vec sink and file must be byte-identical");
        assert_eq!(parse_all(&bytes).unwrap().len(), 10);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let p = TempPath::new("empty");
        assert_eq!(write_sample(&p.0, 0), 0);
        assert_eq!(read_all(&p.0).unwrap(), Vec::new());
    }

    #[test]
    fn binary_keys_and_values() {
        let p = TempPath::new("binary");
        let key: Vec<u8> = (0..=255u8).collect();
        let value = vec![0u8; 10_000];
        let mut w = SnapshotWriter::create(&p.0, 1).unwrap();
        w.append(&key, &value, 0).unwrap();
        w.finish().unwrap();
        assert_eq!(read_all(&p.0).unwrap(), vec![(key, value, 0)]);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let p = TempPath::new("corrupt");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        // Flipping any single byte must fail verification (length fields
        // may shift parsing, data bytes break the checksum — either way
        // read_all must reject, never mis-restore).
        for pos in (0..original.len()).step_by(7) {
            let mut bad = original.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&p.0, &bad).unwrap();
            assert!(read_all(&p.0).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let p = TempPath::new("trunc");
        write_sample(&p.0, 10);
        let original = std::fs::read(&p.0).unwrap();
        for cut in [1, original.len() / 2, original.len() - 1] {
            std::fs::write(&p.0, &original[..cut]).unwrap();
            assert!(read_all(&p.0).is_err(), "truncation to {cut} bytes went undetected");
        }
    }

    #[test]
    fn unfinished_writer_leaves_no_file() {
        let p = TempPath::new("drop");
        {
            let mut w = SnapshotWriter::create(&p.0, 1).unwrap();
            w.append(b"k", b"v", 0).unwrap();
            // Dropped without finish(): simulated crash mid-snapshot.
        }
        assert!(!p.0.exists(), "unfinished snapshot must not appear under the real name");
        assert!(!tmp_debris(&p.0), "tmp file must be cleaned up");
    }

    #[test]
    fn concurrent_writers_to_one_path_publish_a_valid_file() {
        let p = TempPath::new("concurrent");
        // Interleaved writers with distinct tmp files: whichever rename
        // lands last, the published file must be complete and verify.
        let mut a = SnapshotWriter::create(&p.0, 1).unwrap();
        let mut b = SnapshotWriter::create(&p.0, 1).unwrap();
        for i in 0..50u32 {
            a.append(format!("a-{i}").as_bytes(), b"va", 0).unwrap();
            b.append(format!("b-{i}").as_bytes(), b"vb", 0).unwrap();
        }
        a.finish().unwrap();
        b.finish().unwrap();
        let records = read_all(&p.0).unwrap();
        assert_eq!(records.len(), 50, "the survivor must be one writer's complete stream");
        assert!(records.iter().all(|(k, _, _)| k.starts_with(b"b-")), "last rename wins");
        assert!(!tmp_debris(&p.0));
    }
}
