//! Prometheus text exposition (format 0.0.4) plus the tiny HTTP/1.0
//! response builder the accept loop serves it with.
//!
//! Rendering is a pure read: striped counters are summed, histograms
//! snapshotted and written as cumulative `_bucket`/`_sum`/`_count`
//! series (bounds converted from nanoseconds to seconds for `le`), and
//! the engine/replication gauges are sampled — no locks beyond the
//! flight-recorder rings' (read for `dash_slowlog_len`) and the repl
//! hub's sink-list read lock.
//! Nothing scans the keyspace: per-shard key counts come from the
//! O(shards) counters, so a scrape is safe at any poll frequency.

use std::fmt::Write;

use crate::server::Inner;

use super::histogram::{HistSnapshot, BOUNDS_NS, NUM_BOUNDS};
use super::CmdFamily;

/// Render the whole exposition payload.
pub(crate) fn render(inner: &Inner) -> String {
    let m = &inner.metrics;
    let mut out = String::with_capacity(16 * 1024);

    counter(&mut out, "dash_connections_accepted_total", "Connections accepted.", m.connections_accepted.get());
    counter(&mut out, "dash_commands_served_total", "Commands decoded and executed.", m.commands_served.get());
    counter(&mut out, "dash_accept_errors_total", "Accept-loop errors survived (EMFILE and friends).", m.accept_errors.get());
    counter(&mut out, "dash_worker_panics_total", "Caught connection-handler and worker panics.", m.worker_panics.get());
    gauge_i(&mut out, "dash_active_connections", "Connections currently registered on an event loop.", m.active_connections.get());
    gauge_i(&mut out, "dash_event_workers", "Event-loop worker pool size.", inner.event_workers as i64);
    gauge_i(&mut out, "dash_slowlog_len", "Entries SLOWLOG currently lists.", inner.tracer.slowlog_len() as i64);

    // Per-command latency histograms, one labeled series per family.
    help_type(&mut out, "dash_cmd_latency_seconds", "Command execution latency at the execute seam.", "histogram");
    for fam in CmdFamily::ALL {
        let snap = m.cmd_hist[fam.index()].snapshot();
        write_histogram(&mut out, "dash_cmd_latency_seconds", fam.name(), &snap);
    }

    // Per-stage latency from sampled and forced traces: {stage, cmd}
    // series. Families a stage never observed are skipped — with no
    // such trace the whole block renders nothing but HELP/TYPE.
    help_type(&mut out, "dash_stage_seconds", "Per-stage request latency from sampled and forced traces.", "histogram");
    for stage in crate::trace::Stage::ALL {
        for fam in CmdFamily::ALL {
            let snap = m.stage_snapshot(stage, fam);
            if snap.count() == 0 {
                continue;
            }
            write_stage_histogram(&mut out, stage.name(), fam.name(), &snap);
        }
    }
    counter(&mut out, "dash_traces_captured_total", "Request spans captured into the flight recorder.", inner.tracer.captured_total());
    counter(&mut out, "dash_traces_abandoned_total", "Captured spans whose reply flush was never observed.", inner.tracer.abandoned_total());

    // Engine: per-shard gauges and the paper's own instrumentation axis
    // (segment splits / directory doublings), summed engine-wide too.
    let shards = inner.engine.shard_telemetry();
    help_type(&mut out, "dash_shard_keys", "Keys per shard (O(shards) counters, no scan).", "gauge");
    help_type(&mut out, "dash_shard_capacity_slots", "Table slot capacity per shard.", "gauge");
    help_type(&mut out, "dash_shard_load_factor", "keys / capacity_slots per shard.", "gauge");
    help_type(&mut out, "dash_shard_blob_bytes", "Net value-blob bytes written minus released since open.", "gauge");
    help_type(&mut out, "dash_blob_dead_bytes", "Dead (released, unreclaimed) value-log bytes per shard.", "gauge");
    help_type(&mut out, "dash_eh_splits_total", "Dash-EH segment splits since open.", "counter");
    help_type(&mut out, "dash_eh_doublings_total", "Dash-EH directory doublings since open.", "counter");
    help_type(&mut out, "dash_eh_merges_total", "Dash-EH segment merges since open.", "counter");
    help_type(&mut out, "dash_write_lock_waits_total", "Shard write-lock acquisitions that had to wait.", "counter");
    help_type(&mut out, "dash_epoch_pins_total", "Epoch pins taken by engine operations.", "counter");
    for (i, t) in shards.iter().enumerate() {
        let lf = if t.capacity_slots == 0 { 0.0 } else { t.keys as f64 / t.capacity_slots as f64 };
        let _ = writeln!(out, "dash_shard_keys{{shard=\"{i}\"}} {}", t.keys);
        let _ = writeln!(out, "dash_shard_capacity_slots{{shard=\"{i}\"}} {}", t.capacity_slots);
        let _ = writeln!(out, "dash_shard_load_factor{{shard=\"{i}\"}} {lf}");
        let _ = writeln!(
            out,
            "dash_shard_blob_bytes{{shard=\"{i}\"}} {}",
            t.blob_bytes_written as i64 - t.blob_bytes_released as i64
        );
        let _ = writeln!(out, "dash_blob_dead_bytes{{shard=\"{i}\"}} {}", t.dead_bytes);
        let _ = writeln!(out, "dash_eh_splits_total{{shard=\"{i}\"}} {}", t.eh_splits);
        let _ = writeln!(out, "dash_eh_doublings_total{{shard=\"{i}\"}} {}", t.eh_doublings);
        let _ = writeln!(out, "dash_eh_merges_total{{shard=\"{i}\"}} {}", t.eh_merges);
        let _ = writeln!(out, "dash_write_lock_waits_total{{shard=\"{i}\"}} {}", t.write_lock_waits);
        let _ = writeln!(out, "dash_epoch_pins_total{{shard=\"{i}\"}} {}", t.epoch_pins);
    }

    // Expiration & eviction: the memory budget, what counts against it,
    // and the four ways a key leaves without a client DEL.
    let engine = &inner.engine;
    gauge_i(&mut out, "dash_maxmemory_bytes", "Configured memory budget (0 = unlimited).", engine.max_memory().unwrap_or(0) as i64);
    gauge_i(&mut out, "dash_mem_used_bytes", "Value-log bytes counted against the budget (live + pending frees).", engine.mem_used() as i64);
    gauge_i(&mut out, "dash_expire_wheel_entries", "Timer-wheel entries queued for active expiry.", engine.wheel_entries() as i64);
    counter(&mut out, "dash_expired_keys_total", "Keys removed because their TTL deadline passed (lazy + active + sweep).", engine.expired_keys_total());
    counter(&mut out, "dash_evicted_keys_total", "Keys evicted by the maxmemory policy.", engine.evicted_keys_total());
    counter(&mut out, "dash_oom_rejections_total", "Writes rejected with -OOM (eviction could not make room).", engine.oom_rejections_total());
    counter(&mut out, "dash_compactions_total", "Value-log reclamation passes that freed space.", engine.compactions_total());
    counter(&mut out, "dash_reclaimed_bytes_total", "Value-log bytes returned to the free lists by reclamation.", engine.reclaimed_bytes_total());

    // Replication: the stream position, each live sink's position and
    // lag, and how often this replica's link had to be rebuilt.
    counter(&mut out, "dash_repl_offset", "Replication stream offset (ops since store creation).", inner.engine.repl_offset());
    gauge_i(&mut out, "dash_repl_connected_replicas", "Live replica streams.", inner.engine.connected_replicas() as i64);
    counter(&mut out, "dash_log_append_errors_total", "Redo-log append failures (ops applied, records missing).", inner.engine.log_append_errors());
    counter(&mut out, "dash_repl_reconnects_total", "Replica-side reconnects to the primary.", m.repl_reconnects.get());
    help_type(&mut out, "dash_repl_sink_lag_ops", "Ops queued to a replica sink, not yet drained.", "gauge");
    help_type(&mut out, "dash_repl_sink_offset", "The sink's acknowledged stream position (offset minus lag).", "gauge");
    let offset = inner.engine.repl_offset();
    for (id, lag) in inner.engine.replica_lags() {
        let _ = writeln!(out, "dash_repl_sink_lag_ops{{sink=\"{id}\"}} {lag}");
        let _ = writeln!(out, "dash_repl_sink_offset{{sink=\"{id}\"}} {}", offset.saturating_sub(lag));
    }
    gauge_i(&mut out, "dash_repl_log_bytes", "Total bytes across the per-shard redo logs.", inner.engine.repl_log_bytes() as i64);

    // Cluster: slot ownership, redirect and migration counters. Only in
    // cluster mode — a non-cluster server exports no cluster series.
    if let Some(cl) = &inner.cluster {
        use std::sync::atomic::Ordering;
        gauge_i(&mut out, "dash_cluster_enabled", "1 when this server runs in cluster mode.", 1);
        gauge_i(&mut out, "dash_cluster_epoch", "Slot-map epoch (bumps on every topology change).", cl.epoch() as i64);
        let (assigned, owned) = cl.slot_counts();
        gauge_i(&mut out, "dash_cluster_slots_assigned", "Slots with a known owner in this node's map.", assigned as i64);
        gauge_i(&mut out, "dash_cluster_slots_owned", "Slots this node owns.", owned as i64);
        counter(&mut out, "dash_cluster_moved_redirects_total", "MOVED redirects issued.", cl.moved_redirects.load(Ordering::Relaxed));
        counter(&mut out, "dash_cluster_ask_redirects_total", "ASK redirects issued.", cl.ask_redirects.load(Ordering::Relaxed));
        counter(&mut out, "dash_cluster_migrations_started_total", "Slot migrations started on this node (source side).", cl.migrations_started.load(Ordering::Relaxed));
        counter(&mut out, "dash_cluster_migrations_completed_total", "Slot migrations completed (ownership flipped).", cl.migrations_completed.load(Ordering::Relaxed));
        counter(&mut out, "dash_cluster_migrations_failed_total", "Slot migrations aborted before the flip.", cl.migrations_failed.load(Ordering::Relaxed));
        counter(&mut out, "dash_cluster_keys_migrated_total", "Keys streamed to migration targets (bulk + tail).", cl.keys_migrated_total.load(Ordering::Relaxed));
        gauge_i(&mut out, "dash_cluster_migration_active", "1 while an outbound slot migration is running.", i64::from(cl.migration.lock().active));
    }
    out
}

fn help_type(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    help_type(out, name, help, "counter");
    let _ = writeln!(out, "{name} {value}");
}

fn gauge_i(out: &mut String, name: &str, help: &str, value: i64) {
    help_type(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// One family's `_bucket`/`_sum`/`_count` series. Buckets are emitted
/// cumulative with an explicit `+Inf`, per the exposition format.
fn write_histogram(out: &mut String, name: &str, family: &str, snap: &HistSnapshot) {
    let mut cum = 0u64;
    for (count, bound) in snap.counts.iter().zip(BOUNDS_NS.iter()) {
        cum += count;
        let le = *bound as f64 / 1e9;
        let _ = writeln!(out, "{name}_bucket{{cmd=\"{family}\",le=\"{le}\"}} {cum}");
    }
    cum += snap.counts[NUM_BOUNDS];
    let _ = writeln!(out, "{name}_bucket{{cmd=\"{family}\",le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "{name}_sum{{cmd=\"{family}\"}} {}", snap.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{name}_count{{cmd=\"{family}\"}} {cum}");
}

/// The two-label (`stage`, `cmd`) variant of [`write_histogram`] for
/// `dash_stage_seconds`.
fn write_stage_histogram(out: &mut String, stage: &str, family: &str, snap: &HistSnapshot) {
    let labels = format!("stage=\"{stage}\",cmd=\"{family}\"");
    let mut cum = 0u64;
    for (count, bound) in snap.counts.iter().zip(BOUNDS_NS.iter()) {
        cum += count;
        let le = *bound as f64 / 1e9;
        let _ = writeln!(out, "dash_stage_seconds_bucket{{{labels},le=\"{le}\"}} {cum}");
    }
    cum += snap.counts[NUM_BOUNDS];
    let _ = writeln!(out, "dash_stage_seconds_bucket{{{labels},le=\"+Inf\"}} {cum}");
    let _ = writeln!(out, "dash_stage_seconds_sum{{{labels}}} {}", snap.sum_ns as f64 / 1e9);
    let _ = writeln!(out, "dash_stage_seconds_count{{{labels}}} {cum}");
}

// ---- minimal HTTP/1.0 responder ------------------------------------------
//
// Just enough HTTP for `curl` and a Prometheus scraper: the request head
// is parsed for its path, the body is rendered lazily (404s never pay
// for an exposition render), and the response always closes the
// connection (HTTP/1.0, `Connection: close`).

/// Is a full request head (`...\r\n\r\n`) present in `buf`?
pub(crate) fn request_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n")
}

/// Build the full response bytes for a buffered request head.
/// `metrics_body` is only invoked for a scrape-path hit.
pub(crate) fn respond(head: &[u8], metrics_body: impl FnOnce() -> String) -> Vec<u8> {
    let line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
    let mut words = line.split(|&b| b == b' ').filter(|w| !w.is_empty());
    let method = words.next().unwrap_or(b"");
    let path = words.next().unwrap_or(b"");
    if method != b"GET" {
        return http_response(405, "Method Not Allowed", "text/plain", "method not allowed\n");
    }
    match path {
        b"/metrics" | b"/" => http_response(
            200,
            "OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &metrics_body(),
        ),
        _ => http_response(404, "Not Found", "text/plain", "not found (try /metrics)\n"),
    }
}

fn http_response(code: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_detection() {
        assert!(!request_complete(b"GET /metrics HTTP/1.0\r\n"));
        assert!(request_complete(b"GET /metrics HTTP/1.0\r\n\r\n"));
        assert!(request_complete(b"GET / HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n"));
    }

    #[test]
    fn routes_and_statuses() {
        let ok = respond(b"GET /metrics HTTP/1.0\r\n\r\n", || "dash_up 1\n".into());
        let text = String::from_utf8(ok).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 10\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\ndash_up 1\n"), "{text}");

        let mut rendered = false;
        let nf = respond(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n", || {
            rendered = true;
            String::new()
        });
        assert!(String::from_utf8(nf).unwrap().starts_with("HTTP/1.0 404"));
        assert!(!rendered, "a 404 must not pay for an exposition render");

        let mna = respond(b"POST /metrics HTTP/1.0\r\n\r\n", String::new);
        assert!(String::from_utf8(mna).unwrap().starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn histogram_series_are_cumulative_with_inf_and_count() {
        let h = super::super::histogram::Histogram::new();
        h.record(500);
        h.record(1_500);
        h.record(u64::MAX); // overflow bucket
        let mut out = String::new();
        write_histogram(&mut out, "t_seconds", "get", &h.snapshot());
        let buckets: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(buckets.len(), NUM_BOUNDS + 1);
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "buckets must be cumulative");
        assert_eq!(*buckets.last().unwrap(), 3, "+Inf bucket equals the count");
        assert!(out.contains("t_seconds_count{cmd=\"get\"} 3"), "{out}");
        assert!(out.contains("le=\"0.000001\""), "1 µs bound in seconds: {out}");
        assert!(out.contains("le=\"+Inf\""), "{out}");
        assert!(out.contains("t_seconds_sum{cmd=\"get\"}"), "{out}");
    }

    #[test]
    fn stage_series_carry_both_labels() {
        let h = super::super::histogram::Histogram::new();
        h.record(2_000);
        let mut out = String::new();
        write_stage_histogram(&mut out, "persist", "set", &h.snapshot());
        assert!(
            out.contains("dash_stage_seconds_bucket{stage=\"persist\",cmd=\"set\",le=\"+Inf\"} 1"),
            "{out}"
        );
        assert!(out.contains("dash_stage_seconds_count{stage=\"persist\",cmd=\"set\"} 1"), "{out}");
        assert!(out.contains("dash_stage_seconds_sum{stage=\"persist\",cmd=\"set\"}"), "{out}");
    }
}
