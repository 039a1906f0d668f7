//! In-process per-layer measurements: each layer's public functions are
//! called directly on the workload's own inputs and timed from here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dash_common::{PmHashTable, VarKey};
use dash_core::{DashConfig, DashEh};
use dash_server::resp::{decode_command, encode, Decode};
use dash_server::{EngineConfig, ShardedDash, Value};
use pmem::{PmemPool, PoolConfig, StatsSnapshot};

use crate::gen::{key_bytes, value_bytes, Op, Spec, ABSENT, KEY_LEN, VALUE_LEN};
use crate::report::Report;
use crate::server::Flags;
use crate::stats::{chunked_mean_ns, median, ns_since, summarize};
use crate::wire::put_cmd;

/// Counts allocation calls made by the current thread.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter touches only a const-initialised thread local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Operations replayed in process by the engine and table layers.
const REPLAY_OPS: u64 = 400_000;
/// Keys read back when the workload itself issues no GETs.
const READBACK_KEYS: usize = 100_000;

/// The first `n` operations of the workload, connections interleaved
/// the way they run concurrently.
fn replay_ops(spec: &Spec, seed: u64, n: u64) -> Vec<Op> {
    let mut streams: Vec<_> = (0..spec.conns).map(|c| spec.stream(seed, c)).collect();
    let per_conn = (n / spec.conns as u64).min(spec.ops_per_conn);
    let mut ops = Vec::with_capacity((per_conn * spec.conns as u64) as usize);
    for _ in 0..per_conn {
        for s in streams.iter_mut() {
            ops.push(s.next_op());
        }
    }
    ops
}

/// For a workload without GETs, read back the first keys it wrote.
fn readback(ops: &[Op]) -> Vec<Op> {
    if ops.iter().any(|o| o.get) {
        return Vec::new();
    }
    let mut seen = std::collections::HashSet::new();
    ops.iter()
        .filter(|o| seen.insert(o.key))
        .take(READBACK_KEYS)
        .map(|o| Op { get: true, ..*o })
        .collect()
}

/// Per-op time in ns, repeated passes, median pass.
fn per_op_ns(passes: usize, n: usize, mut pass: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..passes)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&mut v)
}

/// Report a per-op cost with its sample count and tail.
fn put_op_ns(report: &mut Report, name: &str, ns: &mut [u32]) {
    let typical = chunked_mean_ns(ns);
    let t = summarize(ns);
    report.put_note(
        name,
        typical,
        "ns",
        format!("{} p50={:.0}ns", t.describe(), t.p50_us * 1e3),
    );
}

/// `resp`: decode the workload's own command bytes and encode its
/// replies with the server's codec.
pub fn resp_layer(spec: &Spec, seed: u64, report: &mut Report) {
    const N: u64 = 20_000;
    let ops = replay_ops(spec, seed, N);
    let mut wire = Vec::new();
    let mut replies = Vec::with_capacity(ops.len());
    for op in &ops {
        let key = key_bytes(op.key);
        if op.get {
            put_cmd(&mut wire, &[b"GET", &key]);
            replies.push(Value::bulk(value_bytes(seed, op.key, 0).to_vec()));
        } else {
            put_cmd(
                &mut wire,
                &[b"SET", &key, &value_bytes(seed, op.key, op.ver)],
            );
            replies.push(Value::Simple("OK".into()));
        }
    }
    let decode_all = |wire: &[u8]| {
        let mut pos = 0;
        while pos < wire.len() {
            match decode_command(&wire[pos..]) {
                Ok(Decode::Complete(parts, used)) => {
                    black_box(parts);
                    pos += used;
                }
                other => panic!("server codec rejected a benchmark command: {other:?}"),
            }
        }
    };
    let a0 = allocs();
    decode_all(&wire);
    let decode_allocs = (allocs() - a0) as f64 / ops.len() as f64;
    let n = ops.len();
    report.put(
        "resp.decode_ns",
        per_op_ns(7, n, || decode_all(black_box(&wire))),
        "ns",
    );
    let mut out = Vec::with_capacity(replies.len() * 80);
    let encode_ns = per_op_ns(7, n, || {
        out.clear();
        for v in &replies {
            encode(black_box(v), &mut out);
        }
        black_box(&out);
    });
    report.put("resp.encode_ns", encode_ns, "ns");
    report.put("resp.allocs_per_cmd", decode_allocs, "count");
}

/// `engine`: replay the op stream single-threaded on a `ShardedDash`
/// over a file-backed store in `dir`. Returns wrong replies.
pub fn engine_layer(spec: &Spec, seed: u64, flags: &Flags, dir: &Path, report: &mut Report) -> u64 {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = EngineConfig {
        shards: flags.shards,
        shard_bytes: flags.pool_mb << 20,
        dir: Some(dir.to_path_buf()),
        ..EngineConfig::default()
    };
    let engine = ShardedDash::open(&cfg).expect("open in-process engine store");
    let pairs: Vec<([u8; KEY_LEN], [u8; VALUE_LEN])> = (0..spec.preload)
        .map(|k| (key_bytes(k), value_bytes(seed, k, 0)))
        .collect();
    for chunk in pairs.chunks(256) {
        let refs: Vec<(&[u8], &[u8])> = chunk.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        engine.mset(&refs).expect("engine preload");
    }
    drop(pairs);
    let mut ops = replay_ops(spec, seed, REPLAY_OPS);
    ops.extend(readback(&ops));
    let mut vers: Vec<u32> = (0..spec.keyspace).map(|k| spec.initial_ver(k)).collect();
    let (mut get_ns, mut set_ns) = (Vec::new(), Vec::new());
    let (mut get_allocs, mut set_allocs, mut wrong) = (0u64, 0u64, 0u64);
    for op in &ops {
        let key = key_bytes(op.key);
        let slot = &mut vers[op.key as usize];
        if op.get {
            let a0 = allocs();
            let t0 = Instant::now();
            let got = engine.get(&key);
            let t1 = Instant::now();
            get_allocs += allocs() - a0;
            get_ns.push(ns_since(t0, t1));
            let want = (*slot != ABSENT).then(|| value_bytes(seed, op.key, *slot).to_vec());
            wrong += u64::from(got.ok() != Some(want));
        } else {
            let value = value_bytes(seed, op.key, op.ver);
            let a0 = allocs();
            let t0 = Instant::now();
            let r = engine.set(&key, &value);
            let t1 = Instant::now();
            set_allocs += allocs() - a0;
            set_ns.push(ns_since(t0, t1));
            wrong += u64::from(r.is_err());
            *slot = op.ver;
        }
    }
    let (gets, sets) = (get_ns.len().max(1) as f64, set_ns.len().max(1) as f64);
    put_op_ns(report, "engine.get_ns", &mut get_ns);
    put_op_ns(report, "engine.set_ns", &mut set_ns);
    report.put("engine.allocs_per_get", get_allocs as f64 / gets, "count");
    report.put("engine.allocs_per_set", set_allocs as f64 / sets, "count");
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    wrong
}

#[derive(Default)]
struct OpCost {
    ns: Vec<u32>,
    pm: StatsSnapshot,
}

impl OpCost {
    fn add(&mut self, t0: Instant, t1: Instant, before: &StatsSnapshot, after: &StatsSnapshot) {
        self.ns.push(ns_since(t0, t1));
        let d = after.since(before);
        self.pm.pm_reads += d.pm_reads;
        self.pm.flushes += d.flushes;
        self.pm.fences += d.fences;
    }

    fn per_op(&self, count: u64) -> f64 {
        count as f64 / self.ns.len().max(1) as f64
    }
}

/// `dash_core`: the workload's key stream through `DashEh<VarKey>` on a
/// heap pool with no cost model, single-threaded, so the PM access
/// counts are exact. Returns wrong lookups.
pub fn table_layer(spec: &Spec, seed: u64, report: &mut Report) -> u64 {
    let ops = {
        let mut ops = replay_ops(spec, seed, REPLAY_OPS);
        ops.extend(readback(&ops));
        ops
    };
    let max_keys = spec.preload + ops.len() as u64;
    let pool_bytes = ((max_keys * 256) >> 20).max(64) << 20;
    let pool = PmemPool::create(PoolConfig::with_size(pool_bytes as usize)).expect("heap pool");
    let table: DashEh<VarKey> =
        DashEh::create(Arc::clone(&pool), DashConfig::default()).expect("create table");
    let mut present = vec![false; spec.keyspace as usize];
    let (mut get, mut ins) = (OpCost::default(), OpCost::default());
    let mut wrong = 0u64;
    let insert = |k: u64, v: u64, ins: &mut OpCost, present: &mut [bool]| {
        let key = VarKey::new(key_bytes(k).to_vec());
        let s0 = pool.stats();
        let t0 = Instant::now();
        let r = table.insert(&key, v);
        let t1 = Instant::now();
        ins.add(t0, t1, &s0, &pool.stats());
        present[k as usize] = r.is_ok();
        u64::from(r.is_err())
    };
    for k in 0..spec.preload {
        wrong += insert(k, 0, &mut ins, &mut present);
    }
    let mut vers: Vec<u32> = (0..spec.keyspace).map(|k| spec.initial_ver(k)).collect();
    for op in &ops {
        let k = op.key as usize;
        if op.get {
            let key = VarKey::new(key_bytes(op.key).to_vec());
            let s0 = pool.stats();
            let t0 = Instant::now();
            let got = table.get(&key);
            let t1 = Instant::now();
            get.add(t0, t1, &s0, &pool.stats());
            let want = (vers[k] != ABSENT).then_some(u64::from(vers[k]));
            wrong += u64::from(got != want);
        } else {
            if present[k] {
                let ok = table.update(&VarKey::new(key_bytes(op.key).to_vec()), u64::from(op.ver));
                wrong += u64::from(!ok);
            } else {
                wrong += insert(op.key, u64::from(op.ver), &mut ins, &mut present);
            }
            vers[k] = op.ver;
        }
    }
    let live = present.iter().filter(|&&p| p).count() as f64;
    let load_factor = live / table.capacity_slots() as f64;
    put_op_ns(report, "table.get_ns", &mut get.ns);
    put_op_ns(report, "table.insert_ns", &mut ins.ns);
    report.put(
        "table.pm_reads_per_get",
        get.per_op(get.pm.pm_reads),
        "count",
    );
    report.put(
        "table.pm_reads_per_insert",
        ins.per_op(ins.pm.pm_reads),
        "count",
    );
    report.put(
        "table.flushes_per_insert",
        ins.per_op(ins.pm.flushes),
        "count",
    );
    report.put(
        "table.fences_per_insert",
        ins.per_op(ins.pm.fences),
        "count",
    );
    report.put("table.load_factor", load_factor, "ratio");
    report.put("table.splits", table.split_count() as f64, "count");
    wrong
}

/// `pmem`: allocation and persist cost on a file-backed pool in `dir`.
pub fn pmem_layer(dir: &Path, report: &mut Report) {
    const BATCH: usize = 1000;
    const BATCHES: usize = 60;
    let path = dir.join("pmem-probe.pool");
    let _ = std::fs::remove_file(&path);
    let pool = PmemPool::create_file(&path, PoolConfig::with_size(64 << 20)).expect("probe pool");
    let mut offs = Vec::with_capacity(BATCH * BATCHES);
    let mut alloc_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..BATCH {
            offs.push(pool.alloc(VALUE_LEN + 16).expect("probe alloc"));
        }
        alloc_ns.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    let mut persist_ns: Vec<f64> = offs
        .chunks(BATCH)
        .map(|chunk| {
            let t = Instant::now();
            for &off in chunk {
                pool.persist(off, 64);
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    report.put("pmem.alloc_ns", median(&mut alloc_ns), "ns");
    report.put("pmem.persist_ns", median(&mut persist_ns), "ns");
    drop(pool);
    let _ = std::fs::remove_file(&path);
}

/// The restart split, on a store whose server was killed: each layer's
/// open on its own, then the whole engine open.
pub fn restart_split(store: &Path, flags: &Flags, report: &mut Report) {
    let shards = (0..)
        .take_while(|i| store.join(format!("shard-{i}.pool")).exists())
        .count();
    let cfg = PoolConfig::with_size(flags.pool_mb << 20);
    let (mut pool_ms, mut table_ms, mut log_ms) = (0.0, 0.0, 0.0);
    for i in 0..shards {
        let t0 = Instant::now();
        let pool =
            PmemPool::open_file(&store.join(format!("shard-{i}.pool")), cfg).expect("reopen pool");
        let t1 = Instant::now();
        let table: DashEh<VarKey> = DashEh::open(Arc::clone(&pool)).expect("reopen table");
        let t2 = Instant::now();
        black_box(&table);
        pool_ms += (t1 - t0).as_secs_f64() * 1e3;
        table_ms += (t2 - t1).as_secs_f64() * 1e3;
    }
    for i in 0..shards {
        let t0 = Instant::now();
        let log = dash_server::repl::LogWriter::open(
            &store.join(format!("repl-{i}.log")),
            i as u32,
            None,
        )
        .expect("reopen redo log");
        log_ms += t0.elapsed().as_secs_f64() * 1e3;
        black_box(&log);
    }
    let t0 = Instant::now();
    let engine = ShardedDash::open(&EngineConfig {
        shards: flags.shards,
        shard_bytes: flags.pool_mb << 20,
        dir: Some(store.to_path_buf()),
        ..EngineConfig::default()
    })
    .expect("reopen engine");
    let engine_ms = t0.elapsed().as_secs_f64() * 1e3;
    black_box(&engine);
    report.put("pmem.open_ms", pool_ms, "ms");
    report.put("table.recover_ms", table_ms, "ms");
    report.put("repl.log_open_ms", log_ms, "ms");
    report.put("engine.open_ms", engine_ms, "ms");
}
