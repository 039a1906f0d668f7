//! Restart recovery through the **service layer**: the sharded store and
//! the RESP server must give back every acknowledged write after both a
//! clean shutdown and a crash-style teardown of the same pool files —
//! the paper's instant-recovery property (§4.8) lifted from one table to
//! a whole serving stack.
#![cfg(unix)]

use dash_repro::dash_server::Value;
use dash_repro::{serve, EngineConfig, RespClient, ShardedDash};

mod common;
use common::TempDir;

fn dir_cfg(dir: &TempDir, shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        shard_bytes: 16 << 20,
        dir: Some(dir.path.clone()),
        ..EngineConfig::default()
    }
}

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("user:{i:06}").into_bytes(),
        format!("payload-{}", i.wrapping_mul(0x9E37_79B9)).into_bytes(),
    )
}

#[test]
fn engine_survives_clean_close_and_reopen() {
    let dir = TempDir::new("engine-clean");
    const N: u32 = 3_000;
    {
        let store = ShardedDash::open(&dir_cfg(&dir, 3)).unwrap();
        assert_eq!(store.recovered_shards(), 0, "fresh store has nothing to recover");
        for i in 0..N {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Overwrites and deletes must also survive, not just inserts.
        store.set(b"user:000000", b"rewritten").unwrap();
        assert!(store.del(&kv(1).0).unwrap());
        store.close().unwrap();
    }
    {
        // Reopen with a *different* requested shard count: the on-disk
        // layout must win, or the partition function would orphan keys.
        let store = ShardedDash::open(&dir_cfg(&dir, 8)).unwrap();
        assert_eq!(store.shard_count(), 3, "existing store dictates its shard count");
        assert_eq!(store.recovered_shards(), 3);
        for info in store.shard_infos() {
            assert!(info.recovered && info.clean, "clean close must be seen: {info:?}");
        }
        assert_eq!(store.len(), (N - 1) as u64);
        assert_eq!(store.get(b"user:000000").unwrap(), Some(b"rewritten".to_vec()));
        assert_eq!(store.get(&kv(1).0).unwrap(), None, "deleted key must stay deleted");
        for i in 2..N {
            let (k, v) = kv(i);
            assert_eq!(store.get(&k).unwrap(), Some(v), "key {i} lost across clean reopen");
        }
        // And the second incarnation stays fully writable.
        store.set(b"second-life", b"yes").unwrap();
        assert_eq!(store.get(b"second-life").unwrap(), Some(b"yes".to_vec()));
    }
}

#[test]
fn engine_survives_crash_style_teardown() {
    let dir = TempDir::new("engine-crash");
    const N: u32 = 2_000;
    let versions_before: Vec<u8> = {
        let store = ShardedDash::open(&dir_cfg(&dir, 2)).unwrap();
        for i in 0..N {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Drop WITHOUT close(): a process crash. The MAP_SHARED pages
        // reach the files; the clean marker stays unset.
        store.shard_infos().iter().map(|s| s.version).collect()
    };
    let store = ShardedDash::open(&dir_cfg(&dir, 2)).unwrap();
    assert_eq!(store.recovered_shards(), 2);
    for (info, v0) in store.shard_infos().iter().zip(&versions_before) {
        assert!(info.recovered, "{info:?}");
        assert!(!info.clean, "missing close() must look like a crash");
        assert_eq!(info.version, v0 + 1, "crash recovery must bump the version");
    }
    for i in 0..N {
        let (k, v) = kv(i);
        assert_eq!(store.get(&k).unwrap(), Some(v), "acknowledged write {i} lost in crash");
    }
    assert_eq!(store.len(), N as u64);
}

#[test]
fn server_restart_on_same_pools_keeps_every_acknowledged_write() {
    let dir = TempDir::new("server-restart");
    const N: u32 = 1_500;
    // Incarnation 1: serve, write N keys, shut down cleanly.
    {
        let server = serve(
            ShardedDash::open(&dir_cfg(&dir, 4)).unwrap(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        for i in 0..N {
            let (k, v) = kv(i);
            // Every one of these replies is an acknowledged, durable write.
            assert_eq!(c.command(&[b"SET", &k, &v]).unwrap(), Value::Simple("OK".into()));
        }
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(N as i64));
        server.shutdown();
    }
    // Incarnation 2: a new server process-equivalent on the same files.
    {
        let server = serve(
            ShardedDash::open(&dir_cfg(&dir, 4)).unwrap(),
            "127.0.0.1:0",
        )
        .unwrap();
        let mut c = RespClient::connect(server.addr()).unwrap();
        assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(N as i64));
        // INFO must report the recovery: all four shards reattached.
        let Value::Bulk(info) = c.command(&[b"INFO"]).unwrap() else {
            panic!("INFO must return a bulk string");
        };
        let info = String::from_utf8(info).unwrap();
        assert!(info.contains("recovered_shards:4"), "{info}");
        assert!(info.contains("shard3:"), "{info}");
        // Pipelined read-back of every acknowledged write.
        for i in 0..N {
            c.enqueue(&[b"GET", &kv(i).0]);
        }
        c.flush().unwrap();
        for i in 0..N {
            let (_, v) = kv(i);
            assert_eq!(
                c.read_reply().unwrap(),
                Value::Bulk(v),
                "acknowledged write {i} lost across server restart"
            );
        }
        server.shutdown();
    }
}

/// The acceptance-criteria mix: ≥4 connections, 90/10 read/write, all
/// concurrent, zero errors — values are a pure function of the key so
/// every GET that hits is exactly checkable even under racing writers.
#[test]
fn mixed_90_10_over_four_connections_zero_errors() {
    let dir = TempDir::new("server-mixed");
    let server = serve(
        ShardedDash::open(&dir_cfg(&dir, 4)).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr();
    const OPS_PER_CONN: usize = 2_000;
    const KEYSPACE: u32 = 500;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            s.spawn(move || {
                let mut c = RespClient::connect(addr).unwrap();
                let mut rng = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..OPS_PER_CONN {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let (k, v) = kv((rng >> 8) as u32 % KEYSPACE);
                    if rng % 100 < 90 {
                        match c.command(&[b"GET", &k]).unwrap() {
                            Value::Nil => {} // not yet written by anyone
                            Value::Bulk(got) => assert_eq!(got, v, "GET returned a foreign value"),
                            other => panic!("unexpected GET reply {other:?}"),
                        }
                    } else {
                        assert_eq!(
                            c.command(&[b"SET", &k, &v]).unwrap(),
                            Value::Simple("OK".into())
                        );
                    }
                }
            });
        }
    });
    server.shutdown();
}

/// The value of `field` on one of INFO's `shard{i}:` lines.
fn shard_field(info: &str, shard: usize, field: &str) -> String {
    let prefix = format!("shard{shard}:");
    info.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .flat_map(|l| l.split(','))
        .find_map(|kv| kv.strip_prefix(field)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {prefix}{field} in {info}"))
        .to_string()
}

/// INFO reports what each shard's redo-log open did: a torn tail shows
/// as `log_truncated_bytes`, a corrupt header as `log_reset=1`, and an
/// intact log as neither. The pools are unaffected either way.
#[test]
fn info_reports_redo_log_truncation_and_reset() {
    let dir = TempDir::new("server-log-recovery");
    const N: u32 = 600;
    {
        let store = ShardedDash::open(&dir_cfg(&dir, 3)).unwrap();
        for i in 0..N {
            let (k, v) = kv(i);
            store.set(&k, &v).unwrap();
        }
        // Crash-style teardown: no close().
    }
    // Shard 0: a torn half-record at the tail. Shard 1: one flipped
    // magic byte. Shard 2: untouched.
    let torn = dir.path.join("repl-0.log");
    let mut bytes = std::fs::read(&torn).unwrap();
    bytes.extend_from_slice(&[40, 0, 0, 0, 1, 2, 3]);
    std::fs::write(&torn, &bytes).unwrap();
    let flipped = dir.path.join("repl-1.log");
    let mut bytes = std::fs::read(&flipped).unwrap();
    let flipped_len = bytes.len();
    bytes[0] ^= 0x01;
    std::fs::write(&flipped, &bytes).unwrap();

    let server = serve(ShardedDash::open(&dir_cfg(&dir, 3)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    let Value::Bulk(info) = c.command(&[b"INFO"]).unwrap() else {
        panic!("INFO must return a bulk string");
    };
    let info = String::from_utf8(info).unwrap();
    assert_eq!(shard_field(&info, 0, "log_truncated_bytes"), "7", "{info}");
    assert_eq!(shard_field(&info, 0, "log_reset"), "0", "{info}");
    assert_eq!(shard_field(&info, 1, "log_reset"), "1", "{info}");
    assert_eq!(shard_field(&info, 1, "log_truncated_bytes"), flipped_len.to_string(), "{info}");
    assert_eq!(shard_field(&info, 2, "log_truncated_bytes"), "0", "{info}");
    assert_eq!(shard_field(&info, 2, "log_reset"), "0", "{info}");
    assert_eq!(c.command(&[b"DBSIZE"]).unwrap(), Value::Integer(N as i64));
    server.shutdown();
}
