//! End-to-end request tracing over TCP: the TRACE command family,
//! sampled vs threshold capture reasons, the stage-sum ≈ total
//! invariant under live load, flight-recorder ring retention, SLOWLOG
//! stage breakdowns, and trace-id propagation across replication.
#![cfg(unix)]

use std::time::{Duration, Instant};

use dash_repro::dash_server::{serve_with, ServeOptions, Value};
use dash_repro::{serve, EngineConfig, RespClient, ShardedDash};

fn mem_cfg(shards: usize) -> EngineConfig {
    EngineConfig { shards, shard_bytes: 8 << 20, dir: None, ..EngineConfig::default() }
}

/// Poll `cond` every 50 ms until true, panicking with `what` after 20 s.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(20), "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn assert_ok(v: &Value) {
    assert_eq!(*v, Value::Simple("OK".into()), "expected +OK, got {v:?}");
}

/// `TRACE STATUS` as a name → value map.
fn trace_status(c: &mut RespClient) -> std::collections::HashMap<String, i64> {
    let Value::Array(items) = c.command(&[b"TRACE", b"STATUS"]).unwrap() else {
        panic!("TRACE STATUS must reply an array");
    };
    items
        .chunks_exact(2)
        .map(|pair| match pair {
            [Value::Bulk(name), Value::Integer(v)] => {
                (String::from_utf8(name.clone()).unwrap(), *v)
            }
            other => panic!("STATUS pairs must be bulk/integer, got {other:?}"),
        })
        .collect()
}

const STAGES: [&str; 7] =
    ["queue_wait", "parse", "dispatch", "lock_wait", "execute", "persist", "reply_flush"];

#[test]
fn trace_surface_over_tcp() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();

    // Tracing starts off; STATUS reflects the defaults.
    let st = trace_status(&mut c);
    assert_eq!(st["enabled"], 0);
    assert_eq!(st["retained"], 0);

    c.trace_on(Some(1)).unwrap();
    for i in 0..20 {
        let k = format!("t:{i:03}").into_bytes();
        assert_ok(&c.command(&[b"SET", &k, b"v"]).unwrap());
        assert_eq!(c.command(&[b"GET", &k]).unwrap(), Value::Bulk(b"v".to_vec()));
    }

    let st = trace_status(&mut c);
    assert_eq!(st["enabled"], 1);
    assert_eq!(st["sample_every"], 1);
    assert!(st["captured"] >= 40, "sample-every-1 must capture every command: {st:?}");

    // Completion races the pipeline tail: the reply-flush stamp lands
    // after the reply bytes hit the socket, so poll for the dump.
    wait_for("a SET and a GET span in the dump", || {
        let dump = c.trace_dump(256).unwrap();
        dump.iter().any(|t| t.cmd == "SET") && dump.iter().any(|t| t.cmd == "GET")
    });
    let dump = c.trace_dump(256).unwrap();
    let set = dump.iter().find(|t| t.cmd == "SET").unwrap();
    let get = dump.iter().find(|t| t.cmd == "GET").unwrap();
    for rec in [set, get] {
        assert_eq!(rec.reason, "sampled");
        assert_eq!(rec.hops, 0);
        assert!(rec.id >= 1 && rec.origin == rec.id);
        assert!(rec.total_ns > 0);
        let names: Vec<&str> = rec.stages_ns.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, STAGES, "every span carries all stages in order");
    }
    assert!(set.stage_ns("execute").unwrap() > 0, "SET must spend time executing");
    assert!(set.key.starts_with("t:"), "span records the key prefix, got {:?}", set.key);

    // GET finds the same span the dump showed; a never-allocated id is
    // an empty reply, not an error.
    let fetched = c.trace_get(set.id as u64).unwrap().expect("TRACE GET finds a dumped span");
    assert_eq!(fetched.id, set.id);
    assert_eq!(fetched.cmd, "SET");
    assert!(c.trace_get(0xFFFF_FFFF).unwrap().is_none());

    // RESET drains the rings but keeps the capture counters. Tracing
    // goes off first: with the 1-in-1 sampler live, the RESET span
    // itself would land in the ring right after it cleared.
    c.trace_off().unwrap();
    assert_ok(&c.command(&[b"TRACE", b"RESET"]).unwrap());
    let st = trace_status(&mut c);
    assert_eq!(st["enabled"], 0);
    assert_eq!(st["retained"], 0);
    assert!(st["captured"] >= 40);
    assert!(c.trace_dump(16).unwrap().is_empty());
    server.shutdown();
}

/// One connection pins one worker ring: pushing well past `RING_CAP`
/// (256) spans retains exactly the newest 256.
#[test]
fn flight_recorder_ring_wraps_over_tcp() {
    let server = serve(ShardedDash::open(&mem_cfg(1)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.trace_on(Some(1)).unwrap();
    for i in 0..400 {
        let k = format!("wrap:{i:04}").into_bytes();
        assert_ok(&c.command(&[b"SET", &k, b"v"]).unwrap());
    }
    wait_for("the ring to fill", || trace_status(&mut c)["retained"] >= 256);
    let st = trace_status(&mut c);
    assert_eq!(st["retained"], 256, "per-worker ring must cap at RING_CAP");
    assert!(st["captured"] >= 400);
    // The dump holds only the newest spans: the earliest keys are gone.
    let dump = c.trace_dump(1024).unwrap();
    assert!(dump.iter().all(|t| t.key != "wrap:0000"), "oldest span must be evicted");
    server.shutdown();
}

#[test]
fn sampled_and_threshold_capture_reasons() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();

    // Sampler on, threshold off: every capture says "sampled".
    c.trace_on(Some(1)).unwrap();
    assert_ok(&c.command(&[b"TRACE", b"THRESHOLD", b"0"]).unwrap());
    for i in 0..10 {
        let k = format!("s:{i}").into_bytes();
        assert_ok(&c.command(&[b"SET", &k, b"v"]).unwrap());
    }
    wait_for("sampled spans", || !c.trace_dump(64).unwrap().is_empty());
    assert!(c.trace_dump(64).unwrap().iter().all(|t| t.reason == "sampled"));

    // Sampler off, threshold 1 µs: end-to-end service time over the
    // loopback always clears 1 µs, so every command is captured — but
    // by the slow-path detector, with the coarse reason.
    assert_ok(&c.command(&[b"TRACE", b"ON", b"SAMPLE", b"0"]).unwrap());
    assert_ok(&c.command(&[b"TRACE", b"THRESHOLD", b"1"]).unwrap());
    assert_ok(&c.command(&[b"TRACE", b"RESET"]).unwrap());
    for i in 0..10 {
        let k = format!("th:{i}").into_bytes();
        assert_ok(&c.command(&[b"SET", &k, b"v"]).unwrap());
    }
    wait_for("threshold spans", || {
        c.trace_dump(64).unwrap().iter().any(|t| t.reason == "threshold")
    });
    let dump = c.trace_dump(64).unwrap();
    assert!(dump.iter().all(|t| t.reason == "threshold"), "sampler is off: {dump:?}");
    // Threshold capture is coarse: the whole engine seam lands in
    // execute, with no dispatch/lock/persist split.
    let rec = dump.iter().find(|t| t.cmd == "SET").unwrap();
    assert!(rec.stage_ns("execute").unwrap() > 0);
    assert_eq!(rec.stage_ns("dispatch").unwrap(), 0);
    assert_eq!(rec.stage_ns("persist").unwrap(), 0);

    // A 1-in-3 sampler with the threshold off captures roughly a third.
    assert_ok(&c.command(&[b"TRACE", b"ON", b"SAMPLE", b"3"]).unwrap());
    assert_ok(&c.command(&[b"TRACE", b"THRESHOLD", b"0"]).unwrap());
    assert_ok(&c.command(&[b"TRACE", b"RESET"]).unwrap());
    let before = trace_status(&mut c)["captured"];
    for i in 0..60 {
        let k = format!("p:{i}").into_bytes();
        assert_ok(&c.command(&[b"SET", &k, b"v"]).unwrap());
    }
    wait_for("period-3 captures", || trace_status(&mut c)["captured"] > before);
    let n = trace_status(&mut c)["captured"] - before;
    // The tick counter also covers the interleaved TRACE commands, so
    // bound the rate rather than demanding an exact count.
    assert!((10..=40).contains(&n), "1-in-3 of ~60 commands, got {n}");
    server.shutdown();
}

/// The acceptance invariant: for every captured span, the seven stage
/// durations sum to within 10% of the independently measured total.
#[test]
fn stage_sums_match_totals_under_live_load() {
    let server = serve(ShardedDash::open(&mem_cfg(4)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.trace_on(Some(1)).unwrap();
    assert_ok(&c.command(&[b"TRACE", b"THRESHOLD", b"0"]).unwrap());
    for i in 0..300u32 {
        let k = format!("load:{:05}", i % 120).into_bytes();
        match i % 3 {
            0 => assert_ok(&c.command(&[b"SET", &k, &[b'x'; 64]]).unwrap()),
            1 => {
                c.command(&[b"GET", &k]).unwrap();
            }
            _ => {
                c.command(&[b"DEL", &k]).unwrap();
            }
        }
    }
    wait_for("a full ring of spans", || c.trace_dump(256).unwrap().len() >= 64);
    let dump = c.trace_dump(256).unwrap();
    for rec in &dump {
        assert_eq!(rec.stages_ns.len(), STAGES.len());
        let sum = rec.stage_sum_ns();
        let total = rec.total_ns;
        assert!(total > 0, "span without a total: {rec:?}");
        // 10% relative, with a 2 µs absolute floor so a sub-µs GET
        // cannot fail on clock granularity alone.
        let slack = (total / 10).max(2_000);
        assert!(
            (sum - total).abs() <= slack,
            "stage sum {sum} vs total {total} drifts past 10%: {rec:?}"
        );
    }
    assert!(dump.iter().any(|t| t.cmd == "SET"));
    assert!(dump.iter().any(|t| t.cmd == "GET"));
    server.shutdown();
}

/// SLOWLOG entries for captured commands carry the per-stage breakdown;
/// uncaptured commands keep the compact five-field shape.
#[test]
fn slowlog_attaches_stage_breakdown() {
    let server = serve_with(
        ShardedDash::open(&mem_cfg(2)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { slowlog_threshold_us: Some(0), ..Default::default() },
    )
    .unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();

    // Uncaptured first: tracing is off, so no breakdown attaches.
    assert_ok(&c.command(&[b"SET", b"plain", b"v"]).unwrap());
    let entries = c.slowlog_get(16).unwrap();
    let plain = entries
        .iter()
        .find(|e| e.cmd == "SET" && e.key == "plain")
        .expect("threshold 0 logs every command");
    assert!(plain.stages_ns.is_none(), "uncaptured spans carry no stages: {plain:?}");

    c.trace_on(Some(1)).unwrap();
    assert_ok(&c.command(&[b"SET", b"traced", b"v"]).unwrap());
    let entries = c.slowlog_get(16).unwrap();
    let traced = entries
        .iter()
        .find(|e| e.cmd == "SET" && e.key == "traced")
        .expect("the traced SET is in the slowlog");
    let stages = traced.stages_ns.as_ref().expect("captured spans attach stage breakdowns");
    assert_eq!(stages.len(), STAGES.len());
    // The slowlog snapshot is taken before reply flush, so the first
    // six stages are meaningful and the sum stays within the recorded
    // duration's order of magnitude.
    assert!(stages.iter().all(|&ns| ns >= 0));
    assert!(stages.iter().sum::<i64>() > 0);
    server.shutdown();
}

/// Spans still pending when a connection turns into a replication
/// stream complete after the handoff's blocking flush, instead of being
/// dropped with the connection state.
#[test]
fn spans_pending_at_the_psync_handoff_are_recorded() {
    let server = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.trace_on(Some(1)).unwrap();
    let abandoned = trace_status(&mut c)["abandoned"];

    // PING and PSYNC in one write: PING's span is still pending when
    // PSYNC hands the socket to the replication stream.
    let mut replica = RespClient::connect(server.addr()).unwrap();
    replica.enqueue(&[b"PING"]);
    replica.enqueue(&[b"PSYNC", b"?", b"-1"]);
    replica.flush().unwrap();
    assert_eq!(replica.read_reply().unwrap(), Value::Simple("PONG".into()));

    wait_for("the PING and PSYNC spans", || {
        let dump = c.trace_dump(64).unwrap();
        dump.iter().any(|t| t.cmd == "PING") && dump.iter().any(|t| t.cmd == "PSYNC")
    });
    assert_eq!(trace_status(&mut c)["abandoned"], abandoned, "nothing was lost at the handoff");
    drop(replica);
    server.shutdown();
}

/// TRACEID makes the client a tracing participant: the forced span is
/// captured on the primary, rides the replication tail, and lands in
/// the replica's flight recorder under the same id with reason "repl".
#[test]
fn trace_id_propagates_through_replication() {
    let primary = serve(ShardedDash::open(&mem_cfg(2)).unwrap(), "127.0.0.1:0").unwrap();
    let replica = serve_with(
        ShardedDash::open(&mem_cfg(2)).unwrap(),
        "127.0.0.1:0",
        ServeOptions { replica_of: Some(primary.addr().to_string()), ..Default::default() },
    )
    .unwrap();
    let mut pc = RespClient::connect(primary.addr()).unwrap();
    let mut rc = RespClient::connect(replica.addr()).unwrap();
    wait_for("replica link up", || {
        rc.master_link().unwrap().as_deref() == Some("up")
    });

    // Ask the server to assign a span id for the NEXT command (tracing
    // stays globally off — forced capture bypasses the sampler).
    let id = match pc.command(&[b"TRACEID", b"0", b"0"]).unwrap() {
        Value::Integer(n) if n > 0 => n as u64,
        other => panic!("TRACEID must assign a positive id, got {other:?}"),
    };
    assert_ok(&pc.command(&[b"SET", b"traced:key", b"traced:val"]).unwrap());

    // The primary captured it as forced…
    wait_for("the forced span on the primary", || pc.trace_get(id).unwrap().is_some());
    let prec = pc.trace_get(id).unwrap().unwrap();
    assert_eq!(prec.reason, "forced");
    assert_eq!(prec.cmd, "SET");
    assert_eq!(prec.origin as u64, id);

    // …and the replica recorded the same span id off the PSYNC tail.
    wait_for("the span to reach the replica", || rc.trace_get(id).unwrap().is_some());
    let rrec = rc.trace_get(id).unwrap().unwrap();
    assert_eq!(rrec.reason, "repl");
    assert_eq!(rrec.cmd, "SET");
    assert_eq!(rrec.origin as u64, id);
    assert_eq!(rrec.worker, -1, "replication applies outside the worker pool");
    assert_eq!(rc.command(&[b"GET", b"traced:key"]).unwrap(), Value::Bulk(b"traced:val".to_vec()));

    replica.shutdown();
    primary.shutdown();
}
