//! Replication: a per-shard persistent redo log, a primary-side fan-out
//! hub feeding live replica streams, and the replica-side sync loop.
//!
//! The moving parts:
//!
//! * [`wire`] — the versioned-header + FNV-checksummed framing shared by
//!   the snapshot format and the redo log (one reader/writer helper
//!   instead of two hand-rolled copies).
//! * [`log`] — the redo log: one append-only `repl-N.log` file per
//!   shard, written under the shard's existing write serialization.
//!   Reopen truncates torn tails and never yields a corrupt record, so
//!   the log doubles as an incremental backup: replaying it on top of a
//!   snapshot (or an empty store) reconstructs the final state without
//!   rewriting the full store.
//! * [`hub`] — the in-memory fan-out: every applied mutation is
//!   published as a [`ReplOp`] with a store-wide monotonic offset;
//!   replica-serving connections subscribe and stream the tail.
//! * `replica` — the follower: connects to the primary, bootstraps
//!   from an epoch-pinned `SNAPSHOT`-format stream pinned at a log
//!   offset (`PSYNC` → `+FULLRESYNC <offset>`), then applies the tail
//!   through the engine's batch write API until promoted.
//!
//! Replication is asynchronous (a write is acknowledged once durable on
//! the primary); convergence is observable — `INFO` exposes
//! `repl_offset` on both sides, and equality after quiescing means the
//! replica holds every acknowledged write. The failover drill is:
//! quiesce, wait for offset equality, kill the primary, `REPLICAOF NO
//! ONE` on the replica.

pub mod hub;
pub mod log;
pub(crate) mod replica;
pub mod wire;

use crate::command::Cmd;

pub use hub::{ReplHub, ReplSubscription, TracedOp};
pub use log::{read_log, LogRecovery, LogWriter};

/// One replicated mutation: the unit the redo log stores, the hub fans
/// out, and the replication stream carries (as a RESP `SET`/`DEL`
/// command). Ops are idempotent — applying a prefix twice converges to
/// the same state — which is what lets the snapshot+tail bootstrap
/// overlap the two sources without coordination.
///
/// Time never appears as a duration here: a TTL write carries the
/// **absolute** deadline the primary computed, and an expiry travels as
/// a plain [`ReplOp::Del`]. Consumers of this stream (replicas, log
/// replay, migration) apply it without consulting a clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOp {
    /// Insert or overwrite `key` with `value`, clearing any expiry.
    Set { key: Vec<u8>, value: Vec<u8> },
    /// Insert or overwrite `key` with `value` expiring at the given
    /// Unix-millisecond deadline (wire form `SET key value PXAT ms`).
    SetEx { key: Vec<u8>, value: Vec<u8>, expire_at_ms: u64 },
    /// Remove `key` (only logged when the key existed — expiries and
    /// evictions travel as this, decided solely by the primary).
    Del { key: Vec<u8> },
}

impl ReplOp {
    /// A write of `value` under `key`: the TTL form only when
    /// `expire_at_ms` (absolute Unix ms) is set, 0 meaning no expiry.
    pub fn set(key: Vec<u8>, value: Vec<u8>, expire_at_ms: u64) -> ReplOp {
        if expire_at_ms == 0 {
            ReplOp::Set { key, value }
        } else {
            ReplOp::SetEx { key, value, expire_at_ms }
        }
    }

    pub fn key(&self) -> &[u8] {
        match self {
            ReplOp::Set { key, .. } | ReplOp::SetEx { key, .. } | ReplOp::Del { key } => key,
        }
    }

    /// Hand `f` the op's RESP command form: exactly the client command
    /// that would have produced it (`SET k v`, `SET k v PXAT ms`,
    /// `DEL k`), so a replica or a migration target applies it with the
    /// decoder the server uses for clients. A TTL always travels as the
    /// absolute deadline: the receiver applies the primary's clock,
    /// never its own.
    pub fn with_command<R>(&self, f: impl FnOnce(&[&[u8]]) -> R) -> R {
        match self {
            ReplOp::Set { key, value } => f(&[b"SET", key, value]),
            ReplOp::SetEx { key, value, expire_at_ms } => {
                f(&[b"SET", key, value, b"PXAT", expire_at_ms.to_string().as_bytes()])
            }
            ReplOp::Del { key } => f(&[b"DEL", key]),
        }
    }

    /// Parse the command form [`ReplOp::with_command`] produces. Any
    /// other command, arity or `SET` modifier is an error: the stream
    /// carries nothing else.
    pub fn from_command(mut parts: Vec<Vec<u8>>) -> Result<ReplOp, String> {
        let cmd = parts.first().and_then(|name| crate::command::resolve(name)).map(|c| c.cmd);
        let op = match (cmd, parts.len()) {
            (Some(Cmd::Set), 3) => {
                let value = parts.pop().expect("len checked");
                ReplOp::Set { key: parts.pop().expect("len checked"), value }
            }
            (Some(Cmd::Set), 5) => {
                let ms = parts.pop().expect("len checked");
                let px = parts.pop().expect("len checked");
                if !px.eq_ignore_ascii_case(b"PXAT") {
                    return Err(format!(
                        "unexpected SET modifier {:?}",
                        String::from_utf8_lossy(&px)
                    ));
                }
                let expire_at_ms = crate::resp::parse_arg(&ms).ok_or("bad PXAT deadline")?;
                let value = parts.pop().expect("len checked");
                ReplOp::SetEx { key: parts.pop().expect("len checked"), value, expire_at_ms }
            }
            (Some(Cmd::Del), 2) => ReplOp::Del { key: parts.pop().expect("len checked") },
            _ => {
                let name = parts.first().map_or(b"".as_slice(), Vec::as_slice);
                return Err(format!("unexpected command {:?}", String::from_utf8_lossy(name)));
            }
        };
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(words: &[&[u8]]) -> Vec<Vec<u8>> {
        words.iter().map(|w| w.to_vec()).collect()
    }

    #[test]
    fn command_form_round_trips_and_rejects_anything_else() {
        let (k, v) = (b"k".to_vec(), b"v".to_vec());
        for op in [
            ReplOp::Set { key: k.clone(), value: v.clone() },
            ReplOp::SetEx { key: k.clone(), value: v, expire_at_ms: 1_700_000_000_123 },
            ReplOp::Del { key: k },
        ] {
            assert_eq!(ReplOp::from_command(op.with_command(parts)), Ok(op));
        }
        let err = |words: &[&[u8]]| ReplOp::from_command(parts(words)).unwrap_err();
        assert!(err(&[b"SET", b"k", b"v", b"EX", b"5"]).contains("modifier"));
        assert!(err(&[b"SET", b"k", b"v", b"PXAT", b"soon"]).contains("PXAT deadline"));
        assert!(err(&[b"NOSUCH", b"k"]).contains("unexpected command"));
        assert!(err(&[b"GET", b"k"]).contains("unexpected command"));
    }
}
