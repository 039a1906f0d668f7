//! Redo-log recovery through the service layer, mirroring the snapshot
//! suite: logs must record every mutation, replay into fresh stores
//! (the incremental-backup path), truncate torn tails on reopen, and
//! never turn a corrupted byte into replayed state.
#![cfg(unix)]

use dash_repro::dash_server::repl::log::{read_log, LogWriter};
use dash_repro::dash_server::ReplOp;
use dash_repro::{EngineConfig, EngineError, ShardedDash};

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: Some(dir.path.clone()), ..EngineConfig::default() }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("log:{i:06}").into_bytes(),
        format!("value-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

/// The log records every mutation in order, and replaying it into a
/// fresh store (any shard count) reproduces the final state — sets,
/// overwrites and deletes included.
#[test]
fn full_log_replay_reconstructs_the_store() {
    let src = TempDir::new("repl-log-src");
    let dst = TempDir::new("repl-log-dst");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..800 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Overwrites: the replay must end on the second value.
        for i in 0..200 {
            let (k, _) = kv(i);
            store.set(&k, b"rewritten").unwrap();
        }
        // Deletes: the replay must not resurrect them.
        for i in 600..800 {
            let (k, _) = kv(i);
            assert!(store.del(&k).unwrap());
        }
        assert_eq!(store.repl_offset(), 800 + 200 + 200, "every mutation must be logged");
        // Crash-style teardown: drop without close(). Log appends go
        // straight to the file, so nothing is lost with the process.
    }
    // Replay into a fresh store with a DIFFERENT shard count: per-key
    // history lives in one source log, so order is preserved.
    let restored = ShardedDash::open(&dir_cfg(&dst, 5)).unwrap();
    let applied = restored.replay_log_dir(&src.path).unwrap();
    assert_eq!(applied, 1200);
    assert_eq!(restored.len(), 600);
    for i in 0..600 {
        let (k, v) = kv(i);
        let want = if i < 200 { b"rewritten".to_vec() } else { v };
        assert_eq!(restored.get(&k).unwrap(), Some(want), "key {i}");
    }
    for i in 600..800 {
        let (k, _) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), None, "deleted key {i} resurrected");
    }
    restored.close().unwrap();
}

/// The ROADMAP's incremental backup: an old snapshot plus a full log
/// replay reconstructs everything written after the snapshot, without
/// re-exporting the whole store.
#[test]
fn incremental_backup_is_snapshot_plus_log_replay() {
    let src = TempDir::new("repl-inc-src");
    let dst = TempDir::new("repl-inc-dst");
    let snap = src.path.join("early.snap");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 2)).unwrap();
        for i in 0..1000 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.snapshot_to(&snap).unwrap();
        // Everything after this point exists only in the redo logs.
        for i in 1000..2000 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, _) = kv(i);
            store.del(&k).unwrap();
        }
        // Crash: no clean close, no fresh snapshot.
    }
    let restored = ShardedDash::restore(&dir_cfg(&dst, 3), &snap).unwrap();
    assert_eq!(restored.len(), 1000, "snapshot alone is the old state");
    restored.replay_log_dir(&src.path).unwrap();
    assert_eq!(restored.len(), 1900, "log replay must bring the state current");
    for i in (100..2000).step_by(97) {
        let (k, v) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), Some(v), "key {i} lost");
    }
    for i in 0..100 {
        let (k, _) = kv(i);
        assert_eq!(restored.get(&k).unwrap(), None, "deleted key {i} resurrected");
    }
    restored.close().unwrap();
}

/// A store refuses to replay its own logs into itself (that would
/// append every replayed op back onto the log being read).
#[test]
fn replay_refuses_own_log_dir() {
    let src = TempDir::new("repl-self");
    let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
    store.set(b"k", b"v").unwrap();
    let err = store.replay_log_dir(&src.path).unwrap_err();
    assert!(err.to_string().contains("own logs"), "{err}");
    store.close().unwrap();
}

/// Torn tails truncate on reopen: the engine comes back up, the offset
/// reflects only intact records, and appends continue cleanly.
#[test]
fn torn_tail_truncates_on_reopen_and_offset_recovers() {
    let src = TempDir::new("repl-torn");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        for i in 0..50 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    let log_path = src.path.join("repl-0.log");
    {
        // Clean reopen first: the offset is recovered from the log.
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert_eq!(store.repl_offset(), 50);
        store.close().unwrap();
    }
    // Simulate a crash mid-append: chop bytes off the last record.
    let full = std::fs::read(&log_path).unwrap();
    std::fs::write(&log_path, &full[..full.len() - 3]).unwrap();
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert_eq!(store.repl_offset(), 49, "the torn record must not count");
        assert!(
            std::fs::metadata(&log_path).unwrap().len() < full.len() as u64,
            "the torn tail must be physically truncated"
        );
        // The store itself is intact (pools are authoritative) and
        // still writable; new appends extend the truncated log.
        assert_eq!(store.len(), 50);
        store.set(b"after-truncate", b"x").unwrap();
        assert_eq!(store.repl_offset(), 50);
        store.close().unwrap();
    }
    let (ops, rec) = read_log(&log_path).unwrap();
    assert_eq!(rec.records, 50);
    assert!(matches!(ops.last(), Some(ReplOp::Set { key, .. }) if key == b"after-truncate"));
}

/// Every-byte corruption sweep over a real store's log, mirroring the
/// snapshot suite's: a flipped byte may shorten the replayable prefix
/// but can never invent, alter or reorder a record — so replay can
/// never create state that was not written.
#[test]
fn every_byte_corruption_yields_only_a_valid_prefix() {
    let src = TempDir::new("repl-sweep");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        for i in 0..40 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
            if i % 5 == 4 {
                let (k, _) = kv(i - 1);
                store.del(&k).unwrap();
            }
        }
        store.close().unwrap();
    }
    let log_path = src.path.join("repl-0.log");
    let original = std::fs::read(&log_path).unwrap();
    let (pristine, _) = read_log(&log_path).unwrap();
    assert_eq!(pristine.len(), 48);
    for pos in 0..original.len() {
        let mut bad = original.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&log_path, &bad).unwrap();
        match read_log(&log_path) {
            // Header corruption → rejected outright.
            Err(_) => assert!(pos < 16, "record flip at {pos} must not reject the whole log"),
            Ok((ops, _)) => {
                assert!(
                    ops.len() < pristine.len() || pos < 16,
                    "flip at byte {pos} went undetected"
                );
                assert_eq!(
                    ops,
                    pristine[..ops.len()],
                    "flip at byte {pos} must yield a strict prefix, never altered records"
                );
            }
        }
    }
    // Engine-level spot checks: whatever the flip position, the store
    // must reopen (log recovery never bricks the pools).
    for pos in [4usize, 13, 16, original.len() / 2, original.len() - 2] {
        let mut bad = original.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&log_path, &bad).unwrap();
        let store = ShardedDash::open(&dir_cfg(&src, 1)).unwrap();
        assert!(store.repl_offset() <= 48);
        assert_eq!(store.len(), 32, "pool state must be untouched by log corruption");
        store.close().unwrap();
        std::fs::write(&log_path, &original).unwrap();
    }
    // LogWriter reopen on a mid-record flip truncates and keeps going.
    let mut bad = original.clone();
    let mid = 16 + (original.len() - 16) / 2;
    bad[mid] ^= 0x20;
    std::fs::write(&log_path, &bad).unwrap();
    let (mut w, rec) = LogWriter::open(&log_path, 0, None).unwrap();
    assert!(rec.records < 48 && rec.truncated_bytes > 0);
    w.append(&ReplOp::Set { key: b"resume".to_vec(), value: b"ok".to_vec() }).unwrap();
    drop(w);
    let (ops, _) = read_log(&log_path).unwrap();
    assert_eq!(ops.last().unwrap(), &ReplOp::Set { key: b"resume".to_vec(), value: b"ok".to_vec() });
}

/// `repl_offset` equals the total mutation count across shards and
/// survives restarts (it seeds from the recovered logs).
#[test]
fn offset_recovers_across_restarts() {
    let src = TempDir::new("repl-offset");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 3)).unwrap();
        for i in 0..120 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    let store = ShardedDash::open(&dir_cfg(&src, 3)).unwrap();
    assert_eq!(store.repl_offset(), 120);
    let (k, v) = kv(999);
    store.set(&k, &v).unwrap();
    assert_eq!(store.repl_offset(), 121);
    store.close().unwrap();
}

/// Shards open side by side, but a shard whose log cannot be opened
/// still fails the open with a plain `ReplLog` error naming that file —
/// no panic — and with two bad shards the lower index is the one named.
#[test]
fn an_unopenable_shard_log_fails_open_naming_the_file() {
    let src = TempDir::new("repl-log-unopenable");
    {
        let store = ShardedDash::open(&dir_cfg(&src, 4)).unwrap();
        for i in 0..100 {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        store.close().unwrap();
    }
    let bad = [src.path.join("repl-2.log"), src.path.join("repl-3.log")];
    for log in &bad {
        std::fs::remove_file(log).unwrap();
        std::fs::create_dir(log).unwrap();
    }
    match ShardedDash::open(&dir_cfg(&src, 4)).err().expect("a directory is not a log") {
        EngineError::ReplLog(msg) => {
            assert!(msg.contains(&bad[0].display().to_string()), "{msg}")
        }
        other => panic!("want a ReplLog error naming repl-2.log, got {other:?}"),
    }
    // Without the directories the logs start afresh and the store opens
    // with every key (the pools hold the state).
    for log in &bad {
        std::fs::remove_dir(log).unwrap();
    }
    let store = ShardedDash::open(&dir_cfg(&src, 4)).unwrap();
    assert_eq!(store.len(), 100);
    store.close().unwrap();
}
