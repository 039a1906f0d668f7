//! Per-stage means from the server's `TRACE DUMP` flight recorder.

use std::io;

use crate::report::Report;
use crate::wire::{Conn, Reply};

pub const STAGES: [&str; 7] = [
    "queue_wait",
    "parse",
    "dispatch",
    "lock_wait",
    "execute",
    "persist",
    "reply_flush",
];

/// Sampled spans of one command, summed.
#[derive(Default)]
pub struct StageSums {
    pub spans: u64,
    pub total_ns: f64,
    pub stage_ns: [f64; 7],
}

/// Sample 1 in `every` requests, with threshold capture off so every
/// span carries full stage detail. Clears earlier spans.
pub fn start(conn: &mut Conn, every: u64) -> io::Result<()> {
    conn.ok(&[b"TRACE", b"THRESHOLD", b"0"])?;
    conn.ok(&[b"TRACE", b"RESET"])?;
    conn.ok(&[b"TRACE", b"ON", b"SAMPLE", every.to_string().as_bytes()])
}

/// Dump the flight recorders and sum the sampled GET and SET spans.
pub fn collect(conn: &mut Conn) -> io::Result<(StageSums, StageSums)> {
    let Reply::Array(spans) = conn.command(&[b"TRACE", b"DUMP"])? else {
        return Err(io::Error::other("TRACE DUMP did not return an array"));
    };
    conn.ok(&[b"TRACE", b"OFF"])?;
    let (mut get, mut set) = (StageSums::default(), StageSums::default());
    for span in spans {
        let Reply::Array(fields) = span else { continue };
        let mut cmd = String::new();
        let mut reason = String::new();
        let mut ints = std::collections::HashMap::new();
        for pair in fields.chunks(2) {
            let [Reply::Bulk(Some(name)), value] = pair else {
                continue;
            };
            let name = String::from_utf8_lossy(name).into_owned();
            match value {
                Reply::Bulk(Some(v)) if name == "cmd" => {
                    cmd = String::from_utf8_lossy(v).to_uppercase()
                }
                Reply::Bulk(Some(v)) if name == "reason" => {
                    reason = String::from_utf8_lossy(v).into_owned()
                }
                Reply::Int(i) => {
                    ints.insert(name, *i as f64);
                }
                _ => {}
            }
        }
        let sums = match cmd.as_str() {
            "GET" => &mut get,
            "SET" => &mut set,
            _ => continue,
        };
        if reason != "sampled" {
            continue;
        }
        sums.spans += 1;
        sums.total_ns += ints.get("total_ns").copied().unwrap_or(0.0);
        for (i, stage) in STAGES.iter().enumerate() {
            sums.stage_ns[i] += ints.get(&format!("{stage}_ns")).copied().unwrap_or(0.0);
        }
    }
    Ok((get, set))
}

/// Report the per-stage means and how much of the span total the stages
/// cover.
pub fn put(report: &mut Report, get: &StageSums, set: &StageSums) -> Result<(), String> {
    for (cmd, sums) in [("get", get), ("set", set)] {
        if sums.spans == 0 {
            return Err(format!("no sampled {cmd} spans in TRACE DUMP"));
        }
        for (i, stage) in STAGES.iter().enumerate() {
            report.put_note(
                format!("stage.{cmd}.{stage}_ns"),
                sums.stage_ns[i] / sums.spans as f64,
                "ns",
                format!("spans={}", sums.spans),
            );
        }
    }
    let staged: f64 = get.stage_ns.iter().chain(&set.stage_ns).sum();
    report.put(
        "trace.coverage_pct",
        100.0 * staged / (get.total_ns + set.total_ns),
        "%",
    );
    Ok(())
}
