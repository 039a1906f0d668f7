//! The server's telemetry layer: a registry-free, lock-free set of
//! counters, gauges and per-command-family latency histograms —
//! everything `INFO stats` / `INFO latency` and the `--metrics-addr`
//! Prometheus endpoint read. Slow requests are not recorded here:
//! `SLOWLOG` is a view over the flight recorder ([`crate::trace`]).
//!
//! Design constraints, in order:
//!
//! * **The hot path pays almost nothing.** Recording a command is one
//!   `Instant` pair around `execute` and two relaxed `fetch_add`s into
//!   a thread-local stripe ([`histogram`]). No locks, no allocation, no
//!   shared cacheline between event workers.
//! * **Readers pay the aggregation.** INFO and a scrape sum the
//!   stripes; both are O(shards + buckets), never O(keys).
//! * **Nothing is counted twice.** The event core's health counters
//!   (`worker_panics`, `accept_errors`, ...) that used to live as ad-hoc
//!   `pub(crate)` atomics on `Inner` live *here* now — `net/` pokes the
//!   registry, and INFO/Prometheus render the same cells.

pub mod counter;
pub mod histogram;
pub(crate) mod prometheus;

pub use counter::{Counter, Gauge};
pub use histogram::{HistSnapshot, Histogram};

/// The command families latency is recorded under. Coarse on purpose:
/// a family is a latency *class* (point read, point write, batch read,
/// batch write, delete, iteration, replication bootstrap), not a
/// command name — `EXISTS` times like `GET` but is rare enough to pool
/// under `other` with the rest of the admin surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdFamily {
    Get,
    Set,
    Mget,
    Mset,
    Del,
    Scan,
    Psync,
    Other,
}

impl CmdFamily {
    pub const COUNT: usize = 8;
    pub const ALL: [CmdFamily; Self::COUNT] = [
        CmdFamily::Get,
        CmdFamily::Set,
        CmdFamily::Mget,
        CmdFamily::Mset,
        CmdFamily::Del,
        CmdFamily::Scan,
        CmdFamily::Psync,
        CmdFamily::Other,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The label value on the wire (`INFO latency` field prefixes and
    /// the Prometheus `cmd` label).
    pub fn name(self) -> &'static str {
        match self {
            CmdFamily::Get => "get",
            CmdFamily::Set => "set",
            CmdFamily::Mget => "mget",
            CmdFamily::Mset => "mset",
            CmdFamily::Del => "del",
            CmdFamily::Scan => "scan",
            CmdFamily::Psync => "psync",
            CmdFamily::Other => "other",
        }
    }
}

/// The server-wide metrics registry, owned by `server::Inner`.
pub struct Metrics {
    /// Connections accepted by the listener.
    pub connections_accepted: Counter,
    /// Commands decoded and executed.
    pub commands_served: Counter,
    /// Accept-loop errors survived (EMFILE and friends).
    pub accept_errors: Counter,
    /// Caught connection-handler panics plus panicked worker/stream
    /// threads found at join. Zero on a healthy server.
    pub worker_panics: Counter,
    /// Connections currently registered on an event loop.
    pub active_connections: Gauge,
    /// Replica-side reconnects to the primary (each costs a full sync).
    pub repl_reconnects: Counter,
    /// Per-family execute-seam latency, indexed by [`CmdFamily::index`].
    pub cmd_hist: [Histogram; CmdFamily::COUNT],
    /// Per-stage latency by command family, `stage_hist[stage][family]`
    /// — fed only by sampled and forced trace completions (so the
    /// un-sampled hot path never touches it), rendered as
    /// `dash_stage_seconds{stage,cmd}` on the Prometheus endpoint.
    /// Boxed: 7×8 striped histograms are a few hundred KB.
    pub stage_hist: Box<[[Histogram; CmdFamily::COUNT]; crate::trace::Stage::COUNT]>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            connections_accepted: Counter::new(),
            commands_served: Counter::new(),
            accept_errors: Counter::new(),
            worker_panics: Counter::new(),
            active_connections: Gauge::new(),
            repl_reconnects: Counter::new(),
            cmd_hist: std::array::from_fn(|_| Histogram::new()),
            stage_hist: Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| Histogram::new())
            })),
        }
    }
}

impl Metrics {
    /// Record one executed command's time. Called at the `conn.rs`
    /// execute seam with its family from the command table and its
    /// execute time in nanoseconds.
    #[inline]
    pub fn observe_command(&self, family: CmdFamily, ns: u64) {
        self.cmd_hist[family.index()].record(ns);
    }

    /// Feed one completed span's stage split into the per-stage
    /// histograms. Runs once per sampled or forced trace, never on the
    /// un-sampled path.
    pub fn observe_stages(&self, family: CmdFamily, stages_ns: &[u64; crate::trace::Stage::COUNT]) {
        for (stage_row, &ns) in self.stage_hist.iter().zip(stages_ns) {
            stage_row[family.index()].record(ns);
        }
    }

    /// One family's merged latency snapshot.
    pub fn cmd_snapshot(&self, family: CmdFamily) -> HistSnapshot {
        self.cmd_hist[family.index()].snapshot()
    }

    /// One (stage, family) cell's snapshot.
    pub fn stage_snapshot(&self, stage: crate::trace::Stage, family: CmdFamily) -> HistSnapshot {
        self.stage_hist[stage.index()][family.index()].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_routes_to_family() {
        let m = Metrics::default();
        m.observe_command(CmdFamily::Get, 5_000);
        m.observe_command(CmdFamily::Set, 7_000);
        assert_eq!(m.cmd_snapshot(CmdFamily::Get).count(), 1);
        assert_eq!(m.cmd_snapshot(CmdFamily::Set).count(), 1);
        assert_eq!(m.cmd_snapshot(CmdFamily::Other).count(), 0);
    }

    #[test]
    fn stage_observations_land_in_their_cells_only() {
        use crate::trace::Stage;
        let m = Metrics::default();
        m.observe_stages(CmdFamily::Set, &[10, 20, 30, 40, 50, 60, 70]);
        for stage in Stage::ALL {
            assert_eq!(m.stage_snapshot(stage, CmdFamily::Set).count(), 1);
            assert_eq!(m.stage_snapshot(stage, CmdFamily::Get).count(), 0);
        }
        let persist = m.stage_snapshot(Stage::Persist, CmdFamily::Set);
        assert_eq!(persist.sum_ns, 60);
    }
}
