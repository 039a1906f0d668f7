//! The command table: the one place a wire command name is matched.
//!
//! **One row per command.** Every command the server executes has
//! exactly one row in [`COMMANDS`], and a name with no row is answered
//! `unknown command`. A row states the command's latency family, whether
//! it mutates engine state (the replica write gate) and where its keys
//! sit (the cluster slot gate), so a command cannot reach the engine
//! without declaring both. The connection resolves each request once,
//! right after decoding, and every consumer — dispatch, both gates, the
//! latency histograms, trace completion — reads the resolved row.
//!
//! Subcommand and argument keywords (`INFO stats`, `SET … PX`) are not
//! command names; their handlers match them.

use std::ops::RangeInclusive;

use crate::metrics::CmdFamily;

/// Where a command's keys sit among its arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeySpec {
    /// Not keyed: node-local or administrative, bypasses the slot gate
    /// (`SCAN`/`DBSIZE`/`SNAPSHOT` deliberately stay node-local).
    None,
    /// The first argument.
    First,
    /// Every argument.
    All,
    /// Every other argument from the first (`MSET key value ...`).
    Pairs,
}

/// One row of the command table.
#[derive(Debug)]
pub(crate) struct Command {
    /// Which arm of `server::execute` runs the command.
    pub(crate) cmd: Cmd,
    /// The wire name, uppercase (matched case-insensitively).
    pub(crate) name: &'static str,
    pub(crate) family: CmdFamily,
    /// Mutates engine state: refused with `READONLY` on a replica.
    pub(crate) writes: bool,
    pub(crate) keys: KeySpec,
    /// How many arguments (after the name) the command accepts; any
    /// other count is `wrong number of arguments`.
    pub(crate) args: RangeInclusive<usize>,
}

/// No upper bound on the argument count.
const MANY: usize = usize::MAX;

/// Each row declares one command: its [`Cmd`] variant and its
/// [`COMMANDS`] entry come from the same line, so neither can exist
/// without the other.
macro_rules! command_table {
    ($($cmd:ident = $name:literal, $family:ident, $writes:literal, $keys:ident, $args:expr;)*) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Cmd {
            $($cmd,)*
            /// Test-only: panics inside the command handler.
            #[cfg(test)]
            PanicTest,
        }

        /// Every command the server executes.
        pub(crate) static COMMANDS: &[Command] = &[$(Command {
            cmd: Cmd::$cmd,
            name: $name,
            family: CmdFamily::$family,
            writes: $writes,
            keys: KeySpec::$keys,
            args: $args,
        },)*];
    };
}

// Resolution scans in order, so the hot point commands come first.
command_table! {
//  variant     wire name     family  writes  keys    arguments
    Get       = "GET",        Get,    false,  First,  1..=1;
    Set       = "SET",        Set,    true,   First,  2..=4;
    Mget      = "MGET",       Mget,   false,  All,    1..=MANY;
    Mset      = "MSET",       Mset,   true,   Pairs,  2..=MANY;
    Del       = "DEL",        Del,    true,   All,    1..=MANY;
    // Same contract as DEL, same latency class.
    Unlink    = "UNLINK",     Del,    true,   All,    1..=MANY;
    Exists    = "EXISTS",     Other,  false,  All,    1..=MANY;
    Expire    = "EXPIRE",     Other,  true,   First,  2..=2;
    Pexpire   = "PEXPIRE",    Other,  true,   First,  2..=2;
    Ttl       = "TTL",        Other,  false,  First,  1..=1;
    Pttl      = "PTTL",       Other,  false,  First,  1..=1;
    Persist   = "PERSIST",    Other,  true,   First,  1..=1;
    Scan      = "SCAN",       Scan,   false,  None,   1..=3;
    Snapshot  = "SNAPSHOT",   Other,  false,  None,   1..=1;
    Ping      = "PING",       Other,  false,  None,   0..=1;
    // DBSIZE deletes due keys first, but only on a primary (the expiry
    // clock): on a replica it writes nothing.
    Dbsize    = "DBSIZE",     Other,  false,  None,   0..=0;
    Info      = "INFO",       Other,  false,  None,   0..=1;
    // SLOWLOG and TRACE answer a bad argument list with their own usage.
    Slowlog   = "SLOWLOG",    Other,  false,  None,   0..=MANY;
    Trace     = "TRACE",      Other,  false,  None,   0..=MANY;
    TraceId   = "TRACEID",    Other,  false,  None,   2..=2;
    Replconf  = "REPLCONF",   Other,  false,  None,   0..=MANY;
    Psync     = "PSYNC",      Psync,  false,  None,   0..=MANY;
    ReplicaOf = "REPLICAOF",  Other,  false,  None,   2..=2;
    Cluster   = "CLUSTER",    Other,  false,  None,   0..=MANY;
    Asking    = "ASKING",     Other,  false,  None,   0..=MANY;
    Shutdown  = "SHUTDOWN",   Other,  false,  None,   0..=MANY;
}

#[cfg(test)]
static PANICTEST: Command = Command {
    cmd: Cmd::PanicTest,
    name: "PANICTEST",
    family: CmdFamily::Other,
    writes: false,
    keys: KeySpec::None,
    args: 0..=MANY,
};

/// Resolve a wire command name (case-insensitive, no allocation).
/// `None` means the name has no row: `unknown command`.
pub(crate) fn resolve(name: &[u8]) -> Option<&'static Command> {
    #[cfg(test)]
    if name.eq_ignore_ascii_case(PANICTEST.name.as_bytes()) {
        return Some(&PANICTEST);
    }
    COMMANDS.iter().find(|c| name.eq_ignore_ascii_case(c.name.as_bytes()))
}

impl Command {
    /// The keys this command addresses, for slot routing. `None` when
    /// the row is not keyed, or when the arguments hold no key (bad
    /// arity — dispatch produces the error).
    pub(crate) fn keys_of<'a>(&self, args: &'a [Vec<u8>]) -> Option<Vec<&'a [u8]>> {
        let keys: Vec<&[u8]> = match self.keys {
            KeySpec::None => return None,
            KeySpec::First => vec![args.first()?.as_slice()],
            KeySpec::All => args.iter().map(Vec::as_slice).collect(),
            KeySpec::Pairs => args.iter().step_by(2).map(Vec::as_slice).collect(),
        };
        (!keys.is_empty()).then_some(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(name: &str) -> &'static Command {
        resolve(name.as_bytes()).unwrap_or_else(|| panic!("{name} has a row"))
    }

    #[test]
    fn classification_is_case_insensitive_and_total() {
        let fam = |name: &[u8]| resolve(name).map_or(CmdFamily::Other, |c| c.family);
        assert_eq!(fam(b"get"), CmdFamily::Get);
        assert_eq!(fam(b"GeT"), CmdFamily::Get);
        assert_eq!(fam(b"MSET"), CmdFamily::Mset);
        assert_eq!(fam(b"psync"), CmdFamily::Psync);
        assert_eq!(fam(b"EXISTS"), CmdFamily::Other);
        assert_eq!(fam(b"NOSUCH"), CmdFamily::Other);
        assert_eq!(fam(b"unlink"), CmdFamily::Del, "UNLINK times as a delete");
        for (i, fam) in CmdFamily::ALL.iter().enumerate() {
            assert_eq!(fam.index(), i, "index must match ALL order");
        }
    }

    #[test]
    fn keyed_args_extracts_the_right_keys() {
        let args = |v: &[&str]| v.iter().map(|s| s.as_bytes().to_vec()).collect::<Vec<_>>();
        assert_eq!(cmd("GET").keys_of(&args(&["k"])).unwrap(), vec![b"k".as_slice()]);
        assert_eq!(cmd("SET").keys_of(&args(&["k", "v"])).unwrap(), vec![b"k".as_slice()]);
        assert_eq!(
            cmd("MGET").keys_of(&args(&["a", "b"])).unwrap(),
            vec![b"a".as_slice(), b"b".as_slice()]
        );
        assert_eq!(
            cmd("MSET").keys_of(&args(&["a", "1", "b", "2"])).unwrap(),
            vec![b"a".as_slice(), b"b".as_slice()],
            "MSET keys are every other argument"
        );
        assert_eq!(cmd("DEL").keys_of(&args(&["a", "b", "c"])).unwrap().len(), 3);
        assert!(cmd("PING").keys_of(&args(&[])).is_none());
        assert!(cmd("INFO").keys_of(&args(&["replication"])).is_none());
        assert!(cmd("SCAN").keys_of(&args(&["0"])).is_none(), "SCAN stays node-local");
        assert!(cmd("GET").keys_of(&args(&[])).is_none(), "bad arity bypasses the gate");
    }

    #[test]
    fn write_gate_covers_exactly_the_mutating_rows() {
        let writes: Vec<&str> = COMMANDS.iter().filter(|c| c.writes).map(|c| c.name).collect();
        assert_eq!(writes, ["SET", "MSET", "DEL", "UNLINK", "EXPIRE", "PEXPIRE", "PERSIST"]);
        // Every write is keyed, so the slot gate sees it in cluster mode.
        assert!(COMMANDS.iter().filter(|c| c.writes).all(|c| c.keys != KeySpec::None));
    }

    #[test]
    fn names_are_uppercase_and_unique() {
        for c in COMMANDS {
            assert_eq!(c.name, c.name.to_ascii_uppercase());
            // A duplicate name would resolve to the earlier row.
            assert!(std::ptr::eq(resolve(c.name.to_ascii_lowercase().as_bytes()).unwrap(), c));
        }
    }
}
