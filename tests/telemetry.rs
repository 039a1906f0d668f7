//! The observability surface over the wire: SLOWLOG ring semantics
//! (wrap, reset, id monotonicity), Prometheus exposition validity under
//! live load, the sectioned INFO layout, and — ignored by default — the
//! proof that the default INFO payload no longer scales with key count.
#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dash_repro::dash_server::Value;
use dash_repro::{serve_with, EngineConfig, RespClient, ServeOptions, ServerHandle, ShardedDash};

/// An in-memory server with the telemetry knobs under test.
fn telemetry_server(shards: usize, shard_mb: usize, opts: ServeOptions) -> ServerHandle {
    let engine = ShardedDash::open(&EngineConfig {
        shards,
        shard_bytes: shard_mb << 20,
        dir: None,
        ..EngineConfig::default()
    })
    .unwrap();
    serve_with(engine, "127.0.0.1:0", opts).unwrap()
}

/// Scrape `GET <path>` from the metrics endpoint: `(status_line, body)`.
fn http_get(addr: std::net::SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("response must have a header block");
    (head.lines().next().unwrap_or_default().to_string(), body.to_string())
}

#[test]
fn slowlog_wraps_resets_and_keeps_ids_monotonic_over_tcp() {
    // Threshold 0: every command is slow, so the ring (cap 128) wraps
    // deterministically.
    let server = telemetry_server(
        2,
        16,
        ServeOptions { slowlog_threshold_us: Some(0), ..Default::default() },
    );
    let mut c = RespClient::connect(server.addr()).unwrap();
    const ISSUED: usize = 300; // well past the 128-entry cap
    for i in 0..ISSUED {
        c.enqueue(&[b"SET", format!("slow:{i:04}").as_bytes(), b"v"]);
    }
    c.flush().unwrap();
    for _ in 0..ISSUED {
        c.read_reply().unwrap();
    }

    // Wrap: the ring retains exactly its capacity, not everything.
    let len = c.slowlog_len().unwrap();
    assert_eq!(len, 128, "ring must hold exactly SLOWLOG_CAP after {ISSUED} slow commands");

    // Newest first, ids strictly decreasing, and the newest id proves
    // eviction didn't recycle ids (300 commands → ids past 128).
    let entries = c.slowlog_get(10).unwrap();
    assert_eq!(entries.len(), 10);
    for pair in entries.windows(2) {
        assert!(pair[0].id > pair[1].id, "GET must be newest-first: {pair:?}");
    }
    assert!(
        entries[0].id >= ISSUED as i64 - 1,
        "ids must be monotonic across wrap, got newest {}",
        entries[0].id
    );
    // The entry carries the command, the key prefix and a worker id.
    let set_entry = entries.iter().find(|e| e.cmd == "SET").expect("a SET must be in the log");
    assert!(set_entry.key.starts_with("slow:"), "{set_entry:?}");
    assert!(set_entry.worker >= 0);

    // RESET clears the ring; ids keep counting (Redis semantics). The
    // RESET/LEN commands are themselves over-threshold at 0 µs, so the
    // ring isn't empty when LEN executes — but it must be tiny.
    let newest_before_reset = entries[0].id;
    c.slowlog_reset().unwrap();
    let len_after = c.slowlog_len().unwrap();
    assert!(len_after <= 2, "RESET must clear the ring, LEN saw {len_after}");
    c.command(&[b"SET", b"after-reset", b"v"]).unwrap();
    let after = c.slowlog_get(128).unwrap();
    assert!(!after.iter().any(|e| e.key == "slow:0000"), "old entries must be gone");
    assert!(
        after.iter().all(|e| e.id > newest_before_reset),
        "ids must keep counting across RESET: {after:?}"
    );

    // Bad argument shape is an error, not a hangup.
    let reply = c.command(&[b"SLOWLOG", b"GET", b"wat"]).unwrap();
    assert!(matches!(reply, dash_repro::dash_server::Value::Error(_)), "{reply:?}");
    server.shutdown();
}

#[test]
fn slowlog_default_threshold_ignores_fast_commands() {
    // Default threshold is 10 ms; in-memory point ops are microseconds.
    let server = telemetry_server(2, 16, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();
    for i in 0..200u32 {
        c.command(&[b"SET", format!("fast:{i}").as_bytes(), b"v"]).unwrap();
    }
    assert_eq!(c.slowlog_len().unwrap(), 0, "fast commands must not be logged");
    server.shutdown();
}

/// `TRACE STATUS` field `name`.
fn trace_status(c: &mut RespClient, name: &str) -> i64 {
    let Value::Array(items) = c.command(&[b"TRACE", b"STATUS"]).unwrap() else {
        panic!("TRACE STATUS must reply an array");
    };
    items
        .chunks_exact(2)
        .find_map(|pair| match pair {
            [Value::Bulk(k), Value::Integer(v)] if k == name.as_bytes() => Some(*v),
            _ => None,
        })
        .unwrap_or_else(|| panic!("TRACE STATUS has no {name}"))
}

#[test]
fn pipelined_burst_past_the_pending_cap_is_abandoned_and_bounds_slowlog() {
    // Slow requests travel the flight recorder's pending-span path, so
    // one connection's pipelined burst keeps at most PENDING_TRACE_CAP
    // (128) spans awaiting their reply flush; older ones are abandoned.
    let server = telemetry_server(
        1,
        16,
        ServeOptions {
            slowlog_threshold_us: Some(0),
            metrics_addr: Some("127.0.0.1:0".into()),
            ..Default::default()
        },
    );
    let mut c = RespClient::connect(server.addr()).unwrap();
    assert_eq!(trace_status(&mut c, "abandoned"), 0);
    const ISSUED: usize = 1000; // ~30 KB: one write, one read burst
    for i in 0..ISSUED {
        c.enqueue(&[b"SET", format!("burst:{i:04}").as_bytes(), b"v"]);
    }
    c.flush().unwrap();
    for _ in 0..ISSUED {
        c.read_reply().unwrap();
    }
    let abandoned = trace_status(&mut c, "abandoned");
    assert!(abandoned > 0, "a {ISSUED}-deep burst must overflow the pending cap");
    assert_eq!(c.stat_u64("traces_abandoned").unwrap(), abandoned as u64);
    let (_, body) = http_get(server.metrics_addr().unwrap(), "GET /metrics HTTP/1.0\r\n\r\n");
    assert!(
        body.lines().any(|l| l == format!("dash_traces_abandoned_total {abandoned}")),
        "{body}"
    );
    assert_eq!(c.slowlog_len().unwrap(), 128);
    let last = format!("burst:{:04}", ISSUED - 1);
    assert!(c.slowlog_get(128).unwrap().iter().any(|e| e.key == last), "newest SET is listed");
    server.shutdown();
}

#[test]
fn stage_histograms_take_only_spans_with_a_stage_split() {
    let server = telemetry_server(
        1,
        16,
        ServeOptions { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() },
    );
    let metrics_addr = server.metrics_addr().unwrap();
    let scrape = || http_get(metrics_addr, "GET /metrics HTTP/1.0\r\n\r\n").1;
    let mut c = RespClient::connect(server.addr()).unwrap();
    // Sampler off, threshold 1 µs: every command is captured, but with
    // the coarse split that would skew the per-stage histograms.
    c.command(&[b"TRACE", b"ON", b"SAMPLE", b"0"]).unwrap();
    c.command(&[b"TRACE", b"THRESHOLD", b"1"]).unwrap();
    for i in 0..20 {
        c.command(&[b"SET", format!("coarse:{i}").as_bytes(), b"v"]).unwrap();
    }
    let dump = c.trace_dump(64).unwrap();
    assert!(dump.iter().any(|t| t.reason == "threshold"), "{dump:?}");
    assert!(!scrape().contains("dash_stage_seconds_bucket"), "threshold spans must not feed it");

    c.trace_on(Some(1)).unwrap();
    for i in 0..20 {
        c.command(&[b"SET", format!("split:{i}").as_bytes(), b"v"]).unwrap();
    }
    assert!(scrape().contains("dash_stage_seconds_bucket"), "sampled spans must feed it");
    server.shutdown();
}

#[test]
fn prometheus_scrape_is_valid_and_cumulative_under_load() {
    let server = telemetry_server(
        2,
        16,
        ServeOptions { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() },
    );
    let metrics_addr = server.metrics_addr().expect("metrics endpoint must be bound");
    let addr = server.addr();

    // Live writers during the scrape: the endpoint shares the accept
    // loop, so it must stay responsive and consistent mid-load.
    let stop = AtomicBool::new(false);
    let body = std::thread::scope(|s| {
        for t in 0..2 {
            let stop = &stop;
            s.spawn(move || {
                let mut c = RespClient::connect(addr).unwrap();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("load:{t}:{i}");
                    c.command(&[b"SET", key.as_bytes(), b"value-under-load"]).unwrap();
                    c.command(&[b"GET", key.as_bytes()]).unwrap();
                    i += 1;
                }
            });
        }
        // Let some load accrue, then scrape a few times.
        std::thread::sleep(Duration::from_millis(100));
        let mut last_body = String::new();
        for _ in 0..3 {
            let (status, body) = http_get(metrics_addr, "GET /metrics HTTP/1.0\r\n\r\n");
            assert_eq!(status, "HTTP/1.0 200 OK");
            last_body = body;
        }
        stop.store(true, Ordering::Relaxed);
        last_body
    });

    // Core series are present.
    assert!(body.contains("dash_cmd_latency_seconds_bucket"), "{body}");
    assert!(body.lines().any(|l| l == "dash_worker_panics_total 0"), "{body}");
    assert!(body.contains("dash_connections_accepted_total"), "{body}");
    assert!(body.contains("dash_shard_keys"), "{body}");
    assert!(body.contains("dash_eh_splits_total"), "{body}");

    // Histogram validity per command family: `le` bounds strictly
    // increasing, bucket values cumulative (non-decreasing), the +Inf
    // bucket equal to _count, and _sum present.
    for cmd in ["get", "set"] {
        let bucket_prefix = format!("dash_cmd_latency_seconds_bucket{{cmd=\"{cmd}\",le=\"");
        let mut last_le = f64::NEG_INFINITY;
        let mut last_value = 0u64;
        let mut inf_value = None;
        let mut buckets = 0;
        for line in body.lines() {
            let Some(rest) = line.strip_prefix(&bucket_prefix) else { continue };
            let (le_str, value_str) = rest.split_once("\"} ").unwrap();
            let value: u64 = value_str.parse().unwrap();
            assert!(value >= last_value, "buckets must be cumulative: {line}");
            last_value = value;
            buckets += 1;
            if le_str == "+Inf" {
                inf_value = Some(value);
            } else {
                let le: f64 = le_str.parse().unwrap();
                assert!(le > last_le, "le bounds must increase: {line}");
                last_le = le;
            }
        }
        assert!(buckets > 10, "family {cmd} must expose its bucket series");
        let count_line = format!("dash_cmd_latency_seconds_count{{cmd=\"{cmd}\"}} ");
        let count: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(&count_line))
            .expect("_count must be present")
            .parse()
            .unwrap();
        assert_eq!(inf_value, Some(count), "family {cmd}: +Inf bucket must equal _count");
        assert!(count > 0, "family {cmd} saw live load");
        let sum_line = format!("dash_cmd_latency_seconds_sum{{cmd=\"{cmd}\"}} ");
        assert!(body.lines().any(|l| l.starts_with(&sum_line)), "_sum must be present");
    }

    // Routing: unknown paths 404, non-GET 405 — and neither kills the
    // endpoint for the next scrape.
    let (status, _) = http_get(metrics_addr, "GET /nope HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 404 Not Found");
    let (status, _) = http_get(metrics_addr, "POST /metrics HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 405 Method Not Allowed");
    let (status, _) = http_get(metrics_addr, "GET / HTTP/1.0\r\n\r\n");
    assert_eq!(status, "HTTP/1.0 200 OK");
    server.shutdown();
}

#[test]
fn info_is_sectioned_and_typed_accessors_read_it() {
    let server = telemetry_server(2, 16, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();
    c.command(&[b"SET", b"k1", b"v"]).unwrap();
    c.command(&[b"GET", b"k1"]).unwrap();

    // Default INFO: every cheap section, no scan_len.
    let info = c.info().unwrap();
    for section in ["# dash-server", "# replication", "# stats", "# latency", "# shards"] {
        assert!(info.contains(section), "default INFO must embed {section}: {info}");
    }
    assert!(!info.contains("scan_len"), "default INFO must not pay the O(keys) scan");

    // Section fetchers return just their section.
    let stats = c.stats_info().unwrap();
    assert!(stats.starts_with("# stats"), "{stats}");
    assert!(stats.contains("commands_served:"), "{stats}");
    assert!(stats.contains("eh_splits:"), "{stats}");
    assert!(stats.contains("epoch_pins:"), "{stats}");
    let latency = c.latency_info().unwrap();
    assert!(latency.starts_with("# latency"), "{latency}");
    assert!(latency.contains("cmd_get_count:"), "{latency}");
    assert!(latency.contains("cmd_get_p99_us:"), "after a GET there is a GET p99: {latency}");
    assert!(latency.contains("cmd_all_count:"), "{latency}");
    let keyspace = c.keyspace_info().unwrap();
    assert!(keyspace.starts_with("# keyspace"), "{keyspace}");
    assert!(keyspace.contains("scan_len:1"), "{keyspace}");

    // Typed accessors.
    assert_eq!(c.stat_u64("worker_panics").unwrap(), 0);
    assert_eq!(c.stat_u64("accept_errors").unwrap(), 0);
    assert!(c.stat_u64("commands_served").unwrap() > 0);
    assert!(c.stat_u64("epoch_pins").unwrap() > 0, "GET/SET pin the epoch");

    // Unknown sections are a clean error.
    let reply = c.command(&[b"INFO", b"bogus"]).unwrap();
    assert!(matches!(reply, dash_repro::dash_server::Value::Error(_)), "{reply:?}");
    server.shutdown();
}

/// The acceptance gate for the INFO redesign: the default payload's cost
/// must not scale with key count, while `INFO keyspace` (which carries
/// the scan ground truth) visibly does. Ignored by default — loading
/// 500k keys takes a few seconds; CI runs it via `--ignored`.
#[test]
#[ignore]
fn default_info_cost_does_not_scale_with_keys() {
    let server = telemetry_server(4, 256, ServeOptions::default());
    let mut c = RespClient::connect(server.addr()).unwrap();

    let load = |c: &mut RespClient, from: u32, to: u32| {
        let mut n = from;
        while n < to {
            let batch = 512.min(to - n);
            for i in n..n + batch {
                c.enqueue(&[b"SET", format!("key:{i:08}").as_bytes(), b"x"]);
            }
            c.flush().unwrap();
            for _ in 0..batch {
                c.read_reply().unwrap();
            }
            n += batch;
        }
    };
    let median_us = |c: &mut RespClient, cmd: &[&[u8]]| -> u64 {
        let mut times: Vec<u64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                c.command(cmd).unwrap();
                t0.elapsed().as_micros() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };

    load(&mut c, 0, 10_000);
    let default_10k = median_us(&mut c, &[b"INFO"]);
    load(&mut c, 10_000, 500_000);
    let default_500k = median_us(&mut c, &[b"INFO"]);
    let keyspace_500k = median_us(&mut c, &[b"INFO", b"keyspace"]);
    println!(
        "INFO timings: default@10k {default_10k} us, default@500k {default_500k} us, \
         keyspace@500k {keyspace_500k} us"
    );

    // 50x the data must not mean 50x the default INFO. Allow 10x plus a
    // grace floor so scheduler noise on a µs-scale payload can't flake.
    assert!(
        default_500k < default_10k * 10 + 2_000,
        "default INFO scaled with keys: {default_10k} us @10k vs {default_500k} us @500k"
    );
    // The opt-in section really does pay the O(keys) scan.
    assert!(
        keyspace_500k > default_500k * 3,
        "INFO keyspace must cost visibly more than default INFO at 500k keys \
         ({keyspace_500k} us vs {default_500k} us)"
    );
    server.shutdown();
}
