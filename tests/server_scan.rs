//! `SCAN` over the wire: cursor pagination through the sharded
//! engine's packed u64 cursors, the at-least-once guarantee under
//! concurrent writers, and the `INFO scan_len` consistency field.
#![cfg(unix)]

use std::collections::HashSet;

use dash_repro::dash_server::Value;
use dash_repro::{serve, EngineConfig, RespClient, ServerHandle, ShardedDash};

mod common;

fn mem_server(shards: usize) -> ServerHandle {
    let engine = ShardedDash::open(&EngineConfig {
        shards,
        shard_bytes: 16 << 20,
        dir: None,
        ..EngineConfig::default()
    })
    .unwrap();
    serve(engine, "127.0.0.1:0").unwrap()
}

#[test]
fn scan_enumerates_every_key_exactly_once_when_quiescent() {
    let server = mem_server(4);
    let mut c = RespClient::connect(server.addr()).unwrap();
    const N: u32 = 2_000;
    for i in 0..N {
        c.enqueue(&[b"SET", format!("k{i:05}").as_bytes(), format!("v{i}").as_bytes()]);
    }
    c.flush().unwrap();
    for _ in 0..N {
        assert_eq!(c.read_reply().unwrap(), Value::Simple("OK".into()));
    }
    // Page with a small COUNT: many pages, no duplicates, full coverage.
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut yielded = 0usize;
    let mut pages = 0usize;
    let mut cursor = 0u64;
    loop {
        let (next, keys) = c.scan(cursor, 100).unwrap();
        yielded += keys.len();
        seen.extend(keys);
        pages += 1;
        if next == 0 {
            break;
        }
        cursor = next;
    }
    assert!(pages > 1, "COUNT 100 must paginate 2000 keys (got {pages} pages)");
    assert_eq!(yielded, N as usize, "quiescent scan must not duplicate");
    assert_eq!(seen.len(), N as usize);
    for i in 0..N {
        assert!(seen.contains(format!("k{i:05}").as_bytes()), "key {i} never scanned");
    }
    // scan_all drains the same iteration in one call.
    assert_eq!(c.scan_all(256).unwrap().len(), N as usize);
    server.shutdown();
}

#[test]
fn scan_under_concurrent_writers_keeps_stable_keys() {
    let server = mem_server(4);
    let addr = server.addr();
    let mut c = RespClient::connect(addr).unwrap();
    const STABLE: u32 = 1_000;
    for i in 0..STABLE {
        assert_eq!(
            c.command(&[b"SET", format!("stable:{i}").as_bytes(), b"s"]).unwrap(),
            Value::Simple("OK".into())
        );
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let stop = &stop;
            s.spawn(move || {
                let mut w = RespClient::connect(addr).unwrap();
                let mut i = 0u32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let key = format!("churn:{t}:{}", i % 400);
                    if i.is_multiple_of(3) {
                        let _ = w.del(&[key.as_bytes()]).unwrap();
                    } else {
                        assert_eq!(
                            w.command(&[b"SET", key.as_bytes(), b"c"]).unwrap(),
                            Value::Simple("OK".into())
                        );
                    }
                    i += 1;
                }
            });
        }
        let mut yielded: HashSet<Vec<u8>> = HashSet::new();
        let mut cursor = 0u64;
        loop {
            let (next, keys) = c.scan(cursor, 64).unwrap();
            yielded.extend(keys);
            if next == 0 {
                break;
            }
            cursor = next;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for i in 0..STABLE {
            assert!(
                yielded.contains(format!("stable:{i}").as_bytes()),
                "stable key {i} lost by a scan under write load"
            );
        }
    });
    server.shutdown();
}

#[test]
fn scan_argument_errors_are_replies() {
    let server = mem_server(2);
    let mut c = RespClient::connect(server.addr()).unwrap();
    for (cmd, needle) in [
        (vec![b"SCAN".to_vec()], "wrong number of arguments"),
        (vec![b"SCAN".to_vec(), b"notanumber".to_vec()], "invalid cursor"),
        (vec![b"SCAN".to_vec(), b"0".to_vec(), b"COUNT".to_vec(), b"0".to_vec()], "COUNT"),
        (vec![b"SCAN".to_vec(), b"0".to_vec(), b"BADWORD".to_vec(), b"5".to_vec()],
            "wrong number of arguments"),
        // A cursor pointing at a shard that does not exist.
        (vec![b"SCAN".to_vec(), format!("{}", 99u64 << 32).into_bytes()], "invalid scan cursor"),
    ] {
        let parts: Vec<&[u8]> = cmd.iter().map(|p| p.as_slice()).collect();
        let Value::Error(e) = c.command(&parts).unwrap() else {
            panic!("{cmd:?} must produce an error reply");
        };
        assert!(e.contains(needle), "{cmd:?}: {e}");
    }
    // The connection survives every error.
    assert_eq!(c.command(&[b"PING"]).unwrap(), Value::Simple("PONG".into()));
    server.shutdown();
}

#[test]
fn info_keyspace_reports_scan_len_matching_dbsize_when_quiescent() {
    let server = mem_server(3);
    let mut c = RespClient::connect(server.addr()).unwrap();
    for i in 0..777u32 {
        c.command(&[b"SET", format!("k{i}").as_bytes(), b"v"]).unwrap();
    }
    // The scan ground truth moved to the opt-in `INFO keyspace` section
    // (it walks every bucket); the default INFO stays O(shards) and
    // must NOT carry it.
    let info = c.keyspace_info().unwrap();
    assert!(info.contains("keys:777"), "{info}");
    assert!(
        info.contains("scan_len:777"),
        "scan ground truth must agree with the counters: {info}"
    );
    let default_info = c.info().unwrap();
    assert!(
        !default_info.contains("scan_len"),
        "default INFO must not pay the O(keys) scan: {default_info}"
    );
    server.shutdown();
}
