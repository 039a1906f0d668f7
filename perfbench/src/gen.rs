//! Workload definitions and the deterministic input streams derived
//! from `--seed`.
//!
//! Every connection owns the keys `k` with `k % conns == c`, so the last
//! write to a key is fixed by that connection's own stream order. That
//! makes the expected value of every GET, and the final state the
//! restart verify checks, a pure function of the seed and of how many
//! operations each connection had acknowledged.

/// Value bytes per key (every workload).
pub const VALUE_LEN: usize = 64;
/// Key bytes: `key:` plus ten digits.
pub const KEY_LEN: usize = 14;
/// Version of a preloaded value; SETs use their op index + 1.
pub const PRELOAD_VER: u32 = 0;
/// Version marking a key that holds nothing.
pub const ABSENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    WriteHeavy,
    PointLatency,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "read_mostly" => Some(Workload::ReadMostly),
            "write_heavy" => Some(Workload::WriteHeavy),
            "point_latency" => Some(Workload::PointLatency),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "read_mostly",
            Workload::WriteHeavy => "write_heavy",
            Workload::PointLatency => "point_latency",
        }
    }
}

/// The shape of one workload at a given `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub workload: Workload,
    /// Keys `0..preload` are SET before the timed phase.
    pub preload: u64,
    /// Keys drawn uniformly from `0..keyspace`.
    pub keyspace: u64,
    /// Percentage of GETs; the rest are SETs.
    pub read_pct: u64,
    /// Connections, one load thread each (closed loop), or one
    /// connection with a sender and a receiver thread (open loop).
    pub conns: usize,
    /// Commands per pipelined batch (closed loop only).
    pub pipeline: usize,
    /// Operations each connection issues in the timed phase.
    pub ops_per_conn: u64,
    /// Open-loop send rate in requests per second; `None` = closed loop.
    pub rate: Option<u64>,
}

impl Spec {
    /// The closed-loop workloads run a fixed number of operations sized
    /// so that they last about `seconds` at this commit's speed
    /// (`NOMINAL_*`). Fixed work keeps the store and redo-log size, and
    /// so `restart_ms`, independent of how fast a change makes them run.
    pub fn new(workload: Workload, seconds: u64) -> Spec {
        const NOMINAL_READ_MOSTLY_OPS_S: u64 = 300_000;
        const NOMINAL_WRITE_HEAVY_OPS_S: u64 = 150_000;
        const POINT_RATE: u64 = 10_000;
        match workload {
            Workload::ReadMostly => Spec {
                workload,
                preload: 1_000_000,
                keyspace: 1_000_000,
                read_pct: 90,
                conns: 2,
                pipeline: 16,
                ops_per_conn: NOMINAL_READ_MOSTLY_OPS_S * seconds / 2,
                rate: None,
            },
            Workload::WriteHeavy => {
                let sets = NOMINAL_WRITE_HEAVY_OPS_S * seconds;
                Spec {
                    workload,
                    preload: 0,
                    keyspace: 2 * sets,
                    read_pct: 0,
                    conns: 2,
                    pipeline: 16,
                    ops_per_conn: sets / 2,
                    rate: None,
                }
            }
            Workload::PointLatency => Spec {
                workload,
                preload: 50_000,
                keyspace: 50_000,
                read_pct: 50,
                conns: 1,
                pipeline: 1,
                ops_per_conn: POINT_RATE * seconds,
                rate: Some(POINT_RATE),
            },
        }
    }

    /// The initial version of key `k`: preloaded or absent.
    pub fn initial_ver(&self, k: u64) -> u32 {
        if k < self.preload {
            PRELOAD_VER
        } else {
            ABSENT
        }
    }

    /// Operation stream of connection `c`.
    pub fn stream(&self, seed: u64, c: usize) -> OpStream {
        let keys_per_conn = self.keyspace.div_ceil(self.conns as u64);
        OpStream {
            rng: SplitMix(mix(seed
                ^ mix(0x5eed_0000 + c as u64)
                ^ self.workload as u64)),
            c: c as u64,
            conns: self.conns as u64,
            keys_per_conn,
            keyspace: self.keyspace,
            read_pct: self.read_pct,
            i: 0,
        }
    }

    /// The final version of every key after each connection `c` had
    /// `acked[c]` operations acknowledged, recomputed from the seed.
    pub fn expected_versions(&self, seed: u64, acked: &[u64]) -> Vec<u32> {
        let mut vers: Vec<u32> = (0..self.keyspace).map(|k| self.initial_ver(k)).collect();
        for (c, &n) in acked.iter().enumerate() {
            let mut s = self.stream(seed, c);
            for _ in 0..n {
                let op = s.next_op();
                if !op.get {
                    vers[op.key as usize] = op.ver;
                }
            }
        }
        vers
    }
}

/// One generated operation. For a SET, `ver` is the version it writes.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub get: bool,
    pub key: u64,
    pub ver: u32,
}

pub struct OpStream {
    rng: SplitMix,
    c: u64,
    conns: u64,
    keys_per_conn: u64,
    keyspace: u64,
    read_pct: u64,
    i: u64,
}

impl OpStream {
    pub fn next_op(&mut self) -> Op {
        let get = self.rng.next() % 100 < self.read_pct;
        let mut key = (self.rng.next() % self.keys_per_conn) * self.conns + self.c;
        if key >= self.keyspace {
            key -= self.conns;
        }
        self.i += 1;
        Op {
            get,
            key,
            ver: self.i as u32,
        }
    }
}

pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
}

pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn key_bytes(k: u64) -> [u8; KEY_LEN] {
    let mut out = *b"key:0000000000";
    let mut n = k;
    for b in out[4..].iter_mut().rev() {
        *b = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out
}

/// The value version `ver` of key `k` holds: 64 hex digits.
pub fn value_bytes(seed: u64, k: u64, ver: u32) -> [u8; VALUE_LEN] {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; VALUE_LEN];
    let mut rng = SplitMix(mix(seed ^ mix(k) ^ (u64::from(ver) << 40)));
    for chunk in out.chunks_mut(16) {
        let mut x = rng.next();
        for b in chunk {
            *b = HEX[(x & 15) as usize];
            x >>= 4;
        }
    }
    out
}
