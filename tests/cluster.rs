//! The cluster layer end to end over TCP: slot assignment and the
//! CLUSTERDOWN/MOVED/CROSSSLOT dispatch gate, hash-tag routing,
//! redirect-following [`ClusterClient`] behavior against a stale slot
//! cache, the headline live slot migration under concurrent load (zero
//! lost acknowledged writes, every key served exactly once), and the
//! crash-safety story: a half-imported range is invisible without
//! ASKING, and a re-migration after the source restarts converges —
//! including purging the stale partial import at the target.
#![cfg(unix)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dash_repro::dash_server::{key_slot, ClusterClient, Value};
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

mod common;
use common::TempDir;

/// An in-memory cluster-mode server announcing its own bound address.
fn cluster_server(shards: usize) -> ServerHandle {
    let engine =
        ShardedDash::open(&EngineConfig { shards, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() }).unwrap();
    serve_with(
        engine,
        "127.0.0.1:0",
        ServeOptions { cluster_announce: Some("auto".into()), ..Default::default() },
    )
    .unwrap()
}

fn connect(server: &ServerHandle) -> RespClient {
    RespClient::connect(server.addr()).unwrap()
}

fn assert_ok(v: &Value) {
    assert_eq!(*v, Value::Simple("OK".into()), "expected +OK, got {v:?}");
}

/// `CLUSTER ASSIGN start end addr` against one node.
fn assign(c: &mut RespClient, start: u16, end: u16, addr: &str) {
    let reply = c
        .command(&[
            b"CLUSTER",
            b"ASSIGN",
            start.to_string().as_bytes(),
            end.to_string().as_bytes(),
            addr.as_bytes(),
        ])
        .unwrap();
    assert_ok(&reply);
}

/// A key whose slot falls in `[start, end]`, found by counting up from
/// `*salt` (deterministic across runs for a fixed starting salt).
fn key_in_range(start: u16, end: u16, salt: &mut u64) -> Vec<u8> {
    loop {
        *salt += 1;
        let key = format!("ck:{:08x}", *salt).into_bytes();
        let slot = key_slot(&key);
        if (start..=end).contains(&slot) {
            return key;
        }
    }
}

/// Poll `cond` every 50 ms until true, panicking with `what` after 30 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(30), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// One field of the `CLUSTER INFO` bulk text.
fn cluster_info_field(c: &mut RespClient, name: &str) -> Option<String> {
    let Value::Bulk(text) = c.command(&[b"CLUSTER", b"INFO"]).unwrap() else {
        panic!("CLUSTER INFO must reply bulk");
    };
    String::from_utf8(text)
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(':')).map(str::to_string))
}

/// Block until the node's outbound migration reports done (and fail the
/// test immediately if it reports failed).
fn wait_migration_done(c: &mut RespClient) {
    wait_for("migration to complete", || {
        let state = cluster_info_field(c, "migration_state").unwrap_or_default();
        assert_ne!(
            state,
            "failed",
            "migration failed: {}",
            cluster_info_field(c, "migration_error").unwrap_or_default()
        );
        state == "done" && cluster_info_field(c, "migration_active").as_deref() == Some("0")
    });
}

/// The deterministic value every test writer stores under `key`.
fn val_of(key: &[u8]) -> Vec<u8> {
    let mut v = b"val:".to_vec();
    v.extend_from_slice(key);
    v
}

#[test]
fn clusterdown_moved_and_crossslot_gate() {
    let a = cluster_server(2);
    let b = cluster_server(2);
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let mut ca = connect(&a);
    let mut cb = connect(&b);

    // Unassigned slots refuse keyed commands outright.
    match ca.command(&[b"SET", b"k", b"v"]).unwrap() {
        Value::Error(e) => assert!(e.starts_with("CLUSTERDOWN"), "got {e:?}"),
        other => panic!("expected CLUSTERDOWN, got {other:?}"),
    }

    // Split the slot space; every node learns the whole map.
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 8191, &a_addr);
        assign(c, 8192, 16383, &b_addr);
    }
    assert_eq!(cluster_info_field(&mut ca, "cluster_state").as_deref(), Some("ok"));
    assert_eq!(cluster_info_field(&mut ca, "cluster_known_nodes").as_deref(), Some("2"));

    // A key the OTHER node owns: exact -MOVED with the owner's address.
    let mut salt = 0u64;
    let kb = key_in_range(8192, 16383, &mut salt);
    let slot = key_slot(&kb);
    for cmd in [
        &[b"SET" as &[u8], &kb, b"v"] as &[&[u8]],
        &[b"GET", &kb],
        &[b"MGET", &kb],
        &[b"MSET", &kb, b"v"],
        &[b"DEL", &kb],
        &[b"UNLINK", &kb],
        &[b"EXISTS", &kb],
        &[b"EXPIRE", &kb, b"60"],
        &[b"PEXPIRE", &kb, b"60000"],
        &[b"TTL", &kb],
        &[b"PTTL", &kb],
        &[b"PERSIST", &kb],
    ] {
        match ca.command(cmd).unwrap() {
            Value::Error(e) => assert_eq!(e, format!("MOVED {slot} {b_addr}")),
            other => panic!("expected MOVED for {}, got {other:?}", String::from_utf8_lossy(cmd[0])),
        }
    }
    // The owner serves it; reads see the write.
    assert_ok(&cb.command(&[b"SET", &kb, b"v"]).unwrap());
    assert_eq!(cb.command(&[b"GET", &kb]).unwrap(), Value::Bulk(b"v".to_vec()));
    // MOVED counts on the redirecting node.
    let moved: u64 = cluster_info_field(&mut ca, "moved_redirects").unwrap().parse().unwrap();
    assert!(moved >= 1);

    // Keys in different slots in one multi-key command: CROSSSLOT, even
    // when one of them is locally owned.
    let k1 = key_in_range(0, 8191, &mut salt);
    let mut k2 = key_in_range(0, 8191, &mut salt);
    while key_slot(&k2) == key_slot(&k1) {
        k2 = key_in_range(0, 8191, &mut salt);
    }
    match ca.command(&[b"MSET", &k1, b"v", &k2, b"v"]).unwrap() {
        Value::Error(e) => assert!(e.starts_with("CROSSSLOT"), "got {e:?}"),
        other => panic!("expected CROSSSLOT, got {other:?}"),
    }

    // Hash tags force co-location: {tag}a and {tag}b share a slot, so
    // the multi-key command is legal on the owner.
    let (t1, t2) = (b"{tag}a".to_vec(), b"{tag}b".to_vec());
    assert_eq!(key_slot(&t1), key_slot(&t2));
    let owner = if key_slot(&t1) <= 8191 { &mut ca } else { &mut cb };
    assert_ok(&owner.command(&[b"MSET", &t1, b"1", &t2, b"2"]).unwrap());
    assert_eq!(
        owner.command(&[b"MGET", &t1, &t2]).unwrap(),
        Value::Array(vec![Value::Bulk(b"1".to_vec()), Value::Bulk(b"2".to_vec())])
    );

    // Non-cluster servers reject the cluster surface explicitly.
    let plain = serve_with(
        ShardedDash::open(&EngineConfig { shards: 1, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() }).unwrap(),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .unwrap();
    let mut cp = connect(&plain);
    for cmd in [&[b"CLUSTER" as &[u8], b"INFO"] as &[&[u8]], &[b"ASKING"]] {
        match cp.command(cmd).unwrap() {
            Value::Error(e) => assert!(e.contains("not started in cluster mode"), "got {e:?}"),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    plain.shutdown();
    a.shutdown();
    b.shutdown();
}

#[test]
fn cluster_client_routes_and_recovers_from_stale_cache() {
    let a = cluster_server(2);
    let b = cluster_server(2);
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let mut ca = connect(&a);
    let mut cb = connect(&b);
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 9999, &a_addr);
        assign(c, 10000, 16383, &b_addr);
    }

    // Seeded with only node a, the client must still reach keys on b.
    let mut cc = ClusterClient::connect(&a_addr, Duration::from_secs(5)).unwrap();
    assert_eq!(cc.known_nodes().len(), 2);
    let keys: Vec<Vec<u8>> = (0..300).map(|i| format!("cc:{i:04}").into_bytes()).collect();
    for k in &keys {
        cc.set(k, &val_of(k)).unwrap();
    }
    for k in &keys {
        assert_eq!(cc.get(k).unwrap().as_deref(), Some(val_of(k).as_slice()));
    }
    assert_eq!(cc.del(&keys[0]).unwrap(), 1);
    assert_eq!(cc.get(&keys[0]).unwrap(), None);

    // Invalidate the client's cache: move an (empty) tail range from b
    // to a behind its back. The next op in that range gets -MOVED from
    // b, and the client must follow it and update its cache.
    for c in [&mut ca, &mut cb] {
        assign(c, 16000, 16383, &a_addr);
    }
    let mut salt = 0u64;
    let k = key_in_range(16000, 16383, &mut salt);
    let before = cc.stats();
    cc.set(&k, b"fresh").unwrap();
    assert_eq!(cc.get(&k).unwrap().as_deref(), Some(b"fresh" as &[u8]));
    assert!(cc.stats().moved > before.moved, "the stale-cache op must observe a MOVED");

    a.shutdown();
    b.shutdown();
}

/// The headline: a live slot migration under sustained concurrent load
/// loses zero acknowledged writes and ends with every key served
/// exactly once.
#[test]
fn live_migration_under_load_zero_lost_writes_exactly_once() {
    let a = cluster_server(2);
    let b = cluster_server(2);
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let mut ca = connect(&a);
    let mut cb = connect(&b);
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 16383, &a_addr);
    }

    // Preload a keyspace entirely owned by a.
    let keys: Vec<Vec<u8>> = (0..600).map(|i| format!("mig:{i:05}").into_bytes()).collect();
    {
        let mut cc = ClusterClient::connect(&a_addr, Duration::from_secs(5)).unwrap();
        for k in &keys {
            cc.set(k, &val_of(k)).unwrap();
        }
    }

    let stop = AtomicBool::new(false);
    let ops_done = AtomicU64::new(0);
    let seeds = format!("{a_addr},{b_addr}");
    std::thread::scope(|s| {
        // Sustained 50/50 load through redirect-following clients while
        // the range moves under it. Values are a pure function of the
        // key, so every successful GET is exactly verifiable.
        for t in 0..2u64 {
            let (stop, ops_done, seeds, keys) = (&stop, &ops_done, &seeds, &keys);
            s.spawn(move || {
                let mut cc = ClusterClient::connect(seeds, Duration::from_secs(5)).unwrap();
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let k = &keys[(i % keys.len() as u64) as usize];
                    if i % 2 == 0 {
                        cc.set(k, &val_of(k)).unwrap();
                    } else {
                        let got = cc.get(k).unwrap();
                        assert_eq!(
                            got.as_deref(),
                            Some(val_of(k).as_slice()),
                            "acknowledged write lost or corrupted during migration"
                        );
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                    i += 7;
                }
            });
        }

        // Let the writers get going, then migrate more than half the
        // slot space out from under them.
        wait_for("writers warmed up", || ops_done.load(Ordering::Relaxed) > 200);
        let mut ctl = connect(&a);
        assert_ok(&ctl
            .command(&[b"CLUSTER", b"MIGRATE", b"0", b"9999", b_addr.as_bytes()])
            .unwrap());
        wait_migration_done(&mut ctl);
        // Keep load running a little past the flip, then quiesce.
        let after_flip = ops_done.load(Ordering::Relaxed);
        wait_for("post-flip traffic", || ops_done.load(Ordering::Relaxed) > after_flip + 100);
        stop.store(true, Ordering::Relaxed);
    });

    // Source-side accounting: exactly one migration, completed.
    assert_eq!(cluster_info_field(&mut ca, "migrations_completed").as_deref(), Some("1"));
    assert_eq!(cluster_info_field(&mut ca, "migrations_failed").as_deref(), Some("0"));

    // The source now redirects the migrated range with -MOVED.
    let migrated = keys.iter().find(|k| key_slot(k) <= 9999).unwrap();
    match ca.command(&[b"GET", migrated.as_slice()]).unwrap() {
        Value::Error(e) => {
            assert_eq!(e, format!("MOVED {} {b_addr}", key_slot(migrated)))
        }
        other => panic!("expected MOVED from the source after the flip, got {other:?}"),
    }

    // Exactly-once: the two stores partition the keyspace — no key on
    // both nodes, none lost, and the counters agree with the scans.
    let scan_a: HashSet<Vec<u8>> = ca.scan_all(512).unwrap().into_iter().collect();
    let scan_b: HashSet<Vec<u8>> = cb.scan_all(512).unwrap().into_iter().collect();
    assert!(scan_a.is_disjoint(&scan_b), "a key is held by both nodes after the migration");
    assert_eq!(scan_a.len() + scan_b.len(), keys.len());
    for k in &keys {
        let holder = if key_slot(k) <= 9999 { &scan_b } else { &scan_a };
        assert!(holder.contains(k), "key on the wrong side of the migrated range");
    }
    let dbsize = |c: &mut RespClient| match c.command(&[b"DBSIZE"]).unwrap() {
        Value::Integer(n) => n as usize,
        other => panic!("DBSIZE gave {other:?}"),
    };
    assert_eq!(dbsize(&mut ca) + dbsize(&mut cb), keys.len());

    // And the whole keyspace verifies exactly through redirects.
    let mut cc = ClusterClient::connect(&seeds, Duration::from_secs(5)).unwrap();
    for k in &keys {
        assert_eq!(cc.get(k).unwrap().as_deref(), Some(val_of(k).as_slice()));
    }

    a.shutdown();
    b.shutdown();
}

/// The crash-safety satellite: a half-imported range must be invisible
/// at the target (no ASKING → MOVED), a killed source still owns the
/// range after restart (ownership is the only durable state), and a
/// re-migration converges — purging the stale partial import first.
#[test]
fn half_import_invisible_and_crash_remigration_converges() {
    let dir = TempDir::new("cluster-crash-src");
    let a = serve_with(
        ShardedDash::open(&EngineConfig {
            shards: 2,
            shard_bytes: 8 << 20,
            dir: Some(dir.path.clone()),
            ..EngineConfig::default()
        })
        .unwrap(),
        "127.0.0.1:0",
        ServeOptions { cluster_announce: Some("auto".into()), ..Default::default() },
    )
    .unwrap();
    let b = cluster_server(2);
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let mut ca = connect(&a);
    let mut cb = connect(&b);
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 16383, &a_addr);
    }
    let keys: Vec<Vec<u8>> = (0..200).map(|i| format!("crash:{i:04}").into_bytes()).collect();
    for k in &keys {
        assert_ok(&ca.command(&[b"SET", k, &val_of(k)]).unwrap());
    }

    // Simulate a source that died mid-bulk-copy: the target accepted
    // the import and holds a few ASKING-written keys — with a value the
    // re-migration must overwrite, so a surviving "sneak" proves the
    // stale partial import leaked.
    assert_ok(&cb
        .command(&[b"CLUSTER", b"IMPORTING", b"0", b"9999", a_addr.as_bytes()])
        .unwrap());
    let half = keys.iter().find(|k| key_slot(k) <= 9999).unwrap().clone();
    assert_ok(&cb.command(&[b"ASKING"]).unwrap());
    assert_ok(&cb.command(&[b"SET", &half, b"sneak"]).unwrap());

    // Half-imported keys are invisible without ASKING: importing slots
    // redirect back to the owner.
    match cb.command(&[b"GET", &half]).unwrap() {
        Value::Error(e) => assert_eq!(e, format!("MOVED {} {a_addr}", key_slot(&half))),
        other => panic!("half-imported range must MOVED without ASKING, got {other:?}"),
    }
    // ...and ASKING is one-shot: it covered exactly the SET above, so a
    // plain GET after another ASKING+GET pair still redirects.
    assert_ok(&cb.command(&[b"ASKING"]).unwrap());
    assert_eq!(cb.command(&[b"GET", &half]).unwrap(), Value::Bulk(b"sneak".to_vec()));
    assert!(matches!(cb.command(&[b"GET", &half]).unwrap(), Value::Error(_)));

    // Kill the source. Its slot-map ownership is durable; every
    // migration phase is volatile by design, so after a restart the
    // source is the unambiguous owner of the whole range.
    drop(ca);
    a.shutdown();
    let a2 = serve_with(
        ShardedDash::open(&EngineConfig {
            shards: 2,
            shard_bytes: 8 << 20,
            dir: Some(dir.path.clone()),
            ..EngineConfig::default()
        })
        .unwrap(),
        "127.0.0.1:0",
        // The restarted process keeps its cluster identity (a real
        // deployment restarts on the same host:port; here the port is
        // ephemeral, so the identity is pinned explicitly).
        ServeOptions { cluster_announce: Some(a_addr.clone()), ..Default::default() },
    )
    .unwrap();
    let mut ca2 = connect(&a2);
    assert_eq!(
        cluster_info_field(&mut ca2, "cluster_slots_owned").as_deref(),
        Some("16384"),
        "restarted source must still own every slot"
    );
    for k in &keys {
        assert_eq!(ca2.command(&[b"GET", k]).unwrap(), Value::Bulk(val_of(k)));
    }

    // Re-migrate. The target still has the stale active import; the
    // handshake clears it (IMPORT-ABORT + retry), which also purges the
    // sneaked key before the fresh bulk copy.
    assert_ok(&ca2
        .command(&[b"CLUSTER", b"MIGRATE", b"0", b"9999", b_addr.as_bytes()])
        .unwrap());
    wait_migration_done(&mut ca2);

    // Converged: the target serves the range with the real values (the
    // stale "sneak" was purged), the source serves the rest, and the
    // two partition the keyspace exactly.
    for k in &keys {
        let owner = if key_slot(k) <= 9999 { &mut cb } else { &mut ca2 };
        assert_eq!(owner.command(&[b"GET", k]).unwrap(), Value::Bulk(val_of(k)));
    }
    let scan_a: HashSet<Vec<u8>> = ca2.scan_all(512).unwrap().into_iter().collect();
    let scan_b: HashSet<Vec<u8>> = cb.scan_all(512).unwrap().into_iter().collect();
    assert!(scan_a.is_disjoint(&scan_b));
    assert_eq!(scan_a.len() + scan_b.len(), keys.len());

    a2.shutdown();
    b.shutdown();
}

/// The client-timeout satellite: a configurable connect/read deadline,
/// with a normalized TimedOut error instead of an indefinite hang.
#[test]
fn client_read_timeout_fails_fast_against_a_silent_server() {
    // A listener that accepts and never replies.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let t0 = Instant::now();
    let mut c = RespClient::connect_timeout(&addr, Duration::from_millis(300)).unwrap();
    let err = c.command(&[b"PING"]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "got {err:?}");
    assert!(err.to_string().contains("read timeout"), "got {err}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout must fire near the configured 300ms, took {:?}",
        t0.elapsed()
    );
    drop(hold.join().unwrap());
}

/// The telemetry satellite: `repl_log_bytes` in INFO replication and as
/// a Prometheus gauge, plus the cluster metric family.
#[test]
fn repl_log_bytes_and_cluster_metrics_surface() {
    let dir = TempDir::new("cluster-metrics");
    let engine = ShardedDash::open(&EngineConfig {
        shards: 2,
        shard_bytes: 8 << 20,
        dir: Some(dir.path.clone()),
        ..EngineConfig::default()
    })
    .unwrap();
    let server = serve_with(
        engine,
        "127.0.0.1:0",
        ServeOptions {
            cluster_announce: Some("auto".into()),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut c = connect(&server);
    assign(&mut c, 0, 16383, &addr);
    for i in 0..50 {
        assert_ok(&c.command(&[b"SET", format!("m:{i}").as_bytes(), b"v"]).unwrap());
    }

    // INFO replication carries the redo-log footprint.
    let bytes: u64 =
        c.info_field("repl_log_bytes").unwrap().expect("repl_log_bytes in INFO").parse().unwrap();
    assert!(bytes > 0, "50 SETs against a persistent store must have logged bytes");

    // The Prometheus endpoint exports the same gauge and the cluster
    // family.
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(server.metrics_addr().unwrap()).unwrap();
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    for needle in [
        "dash_repl_log_bytes ",
        "dash_cluster_enabled 1",
        "dash_cluster_slots_assigned 16384",
        "dash_cluster_slots_owned 16384",
        "dash_cluster_migrations_started_total 0",
    ] {
        assert!(body.contains(needle), "metrics must contain {needle:?}");
    }
    let logged: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("dash_repl_log_bytes "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert_eq!(logged, bytes, "INFO and Prometheus must agree on the log footprint");

    server.shutdown();
}

/// Redirect hop counts propagate via TRACEID: a client op that chases a
/// MOVED redirect lands its span on the final owner carrying hops ≥ 1,
/// under the same span id the first node assigned.
#[test]
fn redirects_propagate_trace_hops() {
    let a = cluster_server(2);
    let b = cluster_server(2);
    let (a_addr, b_addr) = (a.addr().to_string(), b.addr().to_string());
    let mut ca = connect(&a);
    let mut cb = connect(&b);
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 16383, &a_addr);
    }

    let mut cc = ClusterClient::connect(&a_addr, Duration::from_secs(5)).unwrap();
    cc.set_trace_every(1);

    // Direct hit: the span lands on the owner with zero hops, and the
    // client learns the id the server assigned.
    let mut salt = 0u64;
    let k0 = key_in_range(0, 16383, &mut salt);
    cc.set(&k0, b"v0").unwrap();
    let id0 = cc.last_trace_id();
    assert!(id0 > 0, "a traced op must learn its server-assigned span id");
    // A span is published once its reply is flushed, so the reply can
    // reach the client first.
    wait_for("span on the direct owner", || ca.trace_get(id0).unwrap().is_some());
    let rec0 = ca.trace_get(id0).unwrap().expect("span on the direct owner");
    assert_eq!(rec0.hops, 0);
    assert_eq!(rec0.reason, "forced");

    // Move every slot to b behind the client's back: its next op gets
    // -MOVED from a and the retry reaches b carrying hop count 1.
    for c in [&mut ca, &mut cb] {
        assign(c, 0, 16383, &b_addr);
    }
    let k1 = key_in_range(0, 16383, &mut salt);
    cc.set(&k1, b"v1").unwrap();
    let id1 = cc.last_trace_id();
    assert!(id1 > 0 && id1 != id0);
    wait_for("span on the final owner after MOVED", || cb.trace_get(id1).unwrap().is_some());
    let rec1 = cb.trace_get(id1).unwrap().expect("span on the final owner after MOVED");
    assert!(rec1.hops >= 1, "redirected span must carry its hop count: {rec1:?}");
    assert_eq!(rec1.reason, "forced");
    assert_eq!(rec1.cmd, "SET");
    // The redirecting node holds the MOVED attempt under the same id.
    wait_for("the first attempt traced on a", || ca.trace_get(id1).unwrap().is_some());
    let rec_a = ca.trace_get(id1).unwrap().expect("the first attempt traced on a");
    assert_eq!(rec_a.hops, 0);

    a.shutdown();
    b.shutdown();
}
