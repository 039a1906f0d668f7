//! `perfbench`: the repository benchmark. Starts `dash-server` on a
//! file-backed store as a child process, drives one workload, kills the
//! server with SIGKILL, restarts it on the same store, and verifies
//! every acknowledged write. `--trace 1` adds a traced run and the
//! in-process per-layer measurements. See `perfbench/NOTES.md`.

mod gen;
mod layers;
mod load;
mod report;
mod server;
mod stats;
mod trace;
mod wire;

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gen::{key_bytes, value_bytes, Spec, Workload, ABSENT, KEY_LEN, VALUE_LEN};
use load::LoadResult;
use report::Report;
use server::{counters, Counters, Flags, Server};
use stats::{median, sliced, summarize};
use wire::{Conn, Reply};

#[global_allocator]
static GLOBAL: layers::CountingAlloc = layers::CountingAlloc;

/// Metrics of the untraced run (`--trace 0`). The latency percentiles
/// are printed in the report but not listed here: on a shared 2-vCPU VM
/// their run-to-run spread exceeds the largest allowed bound (see
/// NOTES.md).
const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_ops_s",
    "cpu_us_per_op",
    "restart_ms",
    "space_amp",
];

/// Metrics of the traced run (`--trace 1`).
const PER_LAYER: &[&str] = &[
    "resp.decode_ns",
    "resp.encode_ns",
    "resp.allocs_per_cmd",
    "engine.get_ns",
    "engine.set_ns",
    "engine.allocs_per_get",
    "engine.allocs_per_set",
    "engine.epoch_pins_per_op",
    "engine.write_lock_waits_per_set",
    "engine.eh_splits",
    "engine.dead_bytes_ratio",
    "engine.first_dbsize_ms",
    "engine.open_ms",
    "repl.write_syscalls_per_set",
    "repl.log_bytes_per_set",
    "repl.log_open_ms",
    "table.get_ns",
    "table.insert_ns",
    "table.pm_reads_per_get",
    "table.pm_reads_per_insert",
    "table.flushes_per_insert",
    "table.fences_per_insert",
    "table.load_factor",
    "table.splits",
    "table.recover_ms",
    "pmem.persist_ns",
    "pmem.alloc_ns",
    "pmem.open_ms",
    "server.ctx_switches_per_op",
    "server.sys_cpu_us_per_op",
    "server.user_cpu_us_per_op",
    "stage.get.queue_wait_ns",
    "stage.get.parse_ns",
    "stage.get.dispatch_ns",
    "stage.get.lock_wait_ns",
    "stage.get.execute_ns",
    "stage.get.persist_ns",
    "stage.get.reply_flush_ns",
    "stage.set.queue_wait_ns",
    "stage.set.parse_ns",
    "stage.set.dispatch_ns",
    "stage.set.lock_wait_ns",
    "stage.set.execute_ns",
    "stage.set.persist_ns",
    "stage.set.reply_flush_ns",
    "trace.coverage_pct",
    "gen.late_p99_us",
    "gen.late_pct",
    "trace_overhead_pct",
];

const USAGE: &str = "\
usage: perfbench --workload read_mostly|write_heavy|point_latency --seed N
                 --seconds N --trace 0|1 --server-bin PATH --work DIR
                 --shards N --event-workers N --pool-mb N [--commit ID]";

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Traced runs sample 1 request in this many.
const TRACE_SAMPLE: u64 = 16;
/// Requests a depth-1 write-syscall probe sends per command type.
const SYSCW_PROBE: usize = 2000;
/// kill -9 + restart cycles per run; `restart_ms` is their median.
const RESTARTS: usize = 5;
/// Depth-1 GETs after the restart of a workload without GETs.
const FIRST_GETS: usize = 10_000;
/// A generator send later than this counts towards `gen.late_pct`.
const LATE_NS: u32 = 10_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    work: PathBuf,
    flags: Flags,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if !argv.len().is_multiple_of(2) {
        return Err("every option takes one value".into());
    }
    let mut get = std::collections::HashMap::new();
    for pair in argv.chunks(2) {
        let name = pair[0]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected {}", pair[0]))?;
        get.insert(name.to_string(), pair[1].clone());
    }
    let req = |name: &str| {
        get.get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        req(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a non-negative integer"))
    };
    let workload = Workload::parse(&req("workload")?).ok_or("unknown --workload")?;
    let seconds = num("seconds")?;
    if !(1..=20).contains(&seconds) {
        return Err("--seconds must be 1..=20 (pools are sized for at most 20)".into());
    }
    let trace = match req("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let flags = Flags {
        shards: num("shards")? as usize,
        event_workers: num("event-workers")? as usize,
        pool_mb: num("pool-mb")? as usize,
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
        server_bin: PathBuf::from(req("server-bin")?),
        work: PathBuf::from(req("work")?),
        flags,
        commit: get
            .get("commit")
            .cloned()
            .unwrap_or_else(|| "unknown".into()),
    })
}

struct Ctx<'a> {
    args: &'a Args,
    spec: Spec,
    store: PathBuf,
    log: PathBuf,
}

impl Ctx<'_> {
    fn spawn(&self) -> io::Result<Server> {
        Server::spawn(
            &self.args.server_bin,
            &self.store,
            &self.args.flags,
            &self.log,
        )
    }

    /// Fresh store, server start and preload; returns the seconds taken.
    fn setup(&self) -> io::Result<(Server, f64)> {
        if self.store.exists() {
            std::fs::remove_dir_all(&self.store)?;
        }
        let t0 = Instant::now();
        let mut server = self.spawn()?;
        let mut conn = server.connect()?;
        if conn.command(&[b"PING"])? != Reply::Simple("PONG".into()) {
            return Err(io::Error::other("server did not answer PING"));
        }
        load::preload(server.port, &self.spec, self.args.seed)?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }
}

/// One timed phase with the counters read around it.
struct Phase {
    res: LoadResult,
    before: Counters,
    after: Counters,
}

type Spans = (trace::StageSums, trace::StageSums);

fn run_phase(ctx: &Ctx, server: &mut Server, traced: bool) -> io::Result<(Phase, Option<Spans>)> {
    let mut ctl = server.connect()?;
    if traced {
        trace::start(&mut ctl, TRACE_SAMPLE)?;
    }
    let before = counters(server.pid, &mut ctl)?;
    let res = match ctx.spec.rate {
        Some(_) => load::open_phase(server.port, &ctx.spec, ctx.args.seed)?,
        None => load::closed_phase(server.port, &ctx.spec, ctx.args.seed)?,
    };
    let after = counters(server.pid, &mut ctl)?;
    let spans = if traced {
        Some(trace::collect(&mut ctl)?)
    } else {
        None
    };
    Ok((Phase { res, before, after }, spans))
}

/// What the kill -9, restarts and verify found.
struct Restart {
    server: Server,
    /// Median over [`RESTARTS`] kill -9 + restart cycles.
    restart_ms: f64,
    /// Every restart, in order.
    restarts_ms: Vec<f64>,
    /// The `sync` before the first restart.
    sync_ms: f64,
    dbsize_ms: f64,
    /// Depth-1 GETs right after the restart (workloads without GETs).
    first_gets: LoadResult,
    verify: LoadResult,
    /// Wrong restart-probe or DBSIZE replies.
    failures: u64,
    vers: Vec<u32>,
    live_keys: u64,
    verify_spans: Option<Spans>,
}

extern "C" {
    fn sync();
}

/// Start the server on the existing store and time process start to
/// the first correct GET of `probe`. Returns the connection used.
fn restart_once(
    ctx: &Ctx,
    probe: u64,
    want: &[u8],
    failures: &mut u64,
) -> io::Result<(Server, Conn, f64)> {
    let t0 = Instant::now();
    let mut server = ctx.spawn()?;
    let mut conn = server.connect()?;
    let reply = conn.command(&[b"GET", &key_bytes(probe)])?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    if reply != Reply::Bulk(Some(want.to_vec())) {
        *failures += 1;
        eprintln!("perfbench: restart probe GET returned {reply:?}");
    }
    Ok((server, conn, ms))
}

/// Kill the server, restart it on the same store (several times, each
/// ending in kill -9, the last one kept), time the first correct GET,
/// then GET every acknowledged key.
fn crash_restart_verify(ctx: &Ctx, mut server: Server, trace_verify: bool) -> io::Result<Restart> {
    server.kill9()?;
    let (spec, seed) = (&ctx.spec, ctx.args.seed);
    // Every operation of the phase was acknowledged before the kill.
    let vers = spec.expected_versions(seed, &vec![spec.ops_per_conn; spec.conns]);
    let live_keys = vers.iter().filter(|&&v| v != ABSENT).count() as u64;
    // Probe the most recently written key (highest version).
    let probe = (0..vers.len())
        .filter(|&k| vers[k] != ABSENT)
        .max_by_key(|&k| vers[k])
        .ok_or_else(|| io::Error::other("workload wrote no keys"))? as u64;
    let want = value_bytes(seed, probe, vers[probe as usize]);
    let mut failures = 0;

    // Write back the killed server's dirty pages first, so the restarts
    // time the program's recovery work rather than kernel writeback.
    let t_sync = Instant::now();
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() };
    let sync_ms = t_sync.elapsed().as_secs_f64() * 1e3;
    let mut times = Vec::with_capacity(RESTARTS);
    let (mut server, mut conn, ms) = restart_once(ctx, probe, &want, &mut failures)?;
    times.push(ms);
    for _ in 1..RESTARTS {
        server.kill9()?;
        let again = restart_once(ctx, probe, &want, &mut failures)?;
        (server, conn) = (again.0, again.1);
        times.push(again.2);
    }

    let first_gets = if spec.read_pct == 0 {
        load::depth1_gets(&mut conn, seed, &vers, FIRST_GETS)?
    } else {
        LoadResult::default()
    };

    let t1 = Instant::now();
    let dbsize = conn.command(&[b"DBSIZE"])?;
    let dbsize_ms = t1.elapsed().as_secs_f64() * 1e3;
    if dbsize != Reply::Int(live_keys as i64) {
        failures += 1;
        eprintln!("perfbench: DBSIZE returned {dbsize:?}, expected {live_keys}");
    }

    if trace_verify {
        trace::start(&mut conn, TRACE_SAMPLE)?;
    }
    let verify = load::verify(server.port, seed, &vers)?;
    let verify_spans = if trace_verify {
        Some(trace::collect(&mut conn)?)
    } else {
        None
    };
    server.check_alive()?;
    Ok(Restart {
        server,
        restart_ms: median(&mut times.clone()),
        restarts_ms: times,
        sync_ms,
        dbsize_ms,
        first_gets,
        verify,
        failures,
        vers,
        live_keys,
        verify_spans,
    })
}

/// Percentage of generator sends later than [`LATE_NS`].
fn late_pct(late: &[u32]) -> f64 {
    100.0 * late.iter().filter(|&&ns| ns > LATE_NS).count() as f64 / late.len().max(1) as f64
}

/// Put the sliced p50/p90/p99 of `samples` (arrival order) under
/// `<name>_p50_us` and so on, failing the run's self-check if a slice's
/// p99 rests on fewer than ten samples beyond it.
fn put_timing(
    report: &mut Report,
    name: &str,
    samples: &[u32],
    source: &str,
) -> Result<(), String> {
    let t = sliced(samples);
    if !t.all.p99_supported() {
        return Err(format!(
            "{name}: only {} samples, too few for a p99",
            t.all.n
        ));
    }
    let note = format!("{} source={source}", t.describe());
    for (p, value) in [("p50", t.p50_us), ("p90", t.p90_us), ("p99", t.p99_us)] {
        report.put_note(format!("{name}_{p}_us"), value, "us", note.clone());
    }
    Ok(())
}

fn cpu_us(before: &Counters, after: &Counters) -> (f64, f64) {
    let tick = server::us_per_tick();
    (
        (after.utime - before.utime) as f64 * tick,
        (after.stime - before.stime) as f64 * tick,
    )
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// Tally of operations attempted and failed across the whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, res: &LoadResult) {
        self.attempted += res.ops;
        self.failed += res.failures;
        if let Some(msg) = &res.first_failure {
            eprintln!("perfbench: wrong reply: {msg}");
        }
    }
}

fn untraced(ctx: &Ctx, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server: Option<Server> = None;
    for _ in 0..SETUPS {
        if let Some(mut old) = server.take() {
            old.kill9().map_err(|e| e.to_string())?;
        }
        let (s, secs) = ctx.setup().map_err(|e| format!("setup: {e}"))?;
        setups.push(secs);
        server = Some(s);
    }
    let mut server = server.expect("at least one setup");
    let (mut phase, _) =
        run_phase(ctx, &mut server, false).map_err(|e| format!("timed phase: {e}"))?;
    let mut rs = crash_restart_verify(ctx, server, false).map_err(|e| format!("restart: {e}"))?;
    rs.server.kill9().map_err(|e| e.to_string())?;
    tally.add(&phase.res);
    tally.add(&rs.first_gets);
    tally.add(&rs.verify);
    tally.failed += rs.failures;

    let res = &mut phase.res;
    report.put_note(
        "setup_s",
        median(&mut setups),
        "s",
        format!("n={SETUPS} all={setups:.3?}"),
    );
    report.put_note(
        "throughput_ops_s",
        res.sliced_throughput(),
        "ops/s",
        format!("slices=10 whole_phase={:.0}ops/s", res.throughput()),
    );
    put_timing(report, "batch", &res.batch_ns, "timed_phase")?;
    if res.get_ns.is_empty() {
        put_timing(report, "get", &rs.first_gets.get_ns, "depth1_after_restart")?;
    } else {
        put_timing(report, "get", &res.get_ns, "timed_phase")?;
    }
    put_timing(report, "set", &res.set_ns, "timed_phase")?;
    let cpu_ns = phase.after.cpu_ns - phase.before.cpu_ns;
    report.put("cpu_us_per_op", cpu_ns as f64 / 1e3 / res.ops as f64, "us");
    report.put_note(
        "restart_ms",
        rs.restart_ms,
        "ms",
        format!(
            "n={RESTARTS} all={:.1?} after sync of {:.0}ms",
            rs.restarts_ms, rs.sync_ms
        ),
    );
    let live_bytes = rs.live_keys * (KEY_LEN + VALUE_LEN) as u64;
    report.put(
        "space_amp",
        phase.after.mem_used_bytes as f64 / live_bytes as f64,
        "ratio",
    );
    report.put("gen.late_p99_us", summarize(&mut res.late_ns).p99_us, "us");
    report.put("gen.late_pct", late_pct(&res.late_ns), "%");
    Ok(())
}

fn traced(ctx: &Ctx, report: &mut Report, tally: &mut Tally) -> Result<(), String> {
    let (spec, seed, flags) = (&ctx.spec, ctx.args.seed, &ctx.args.flags);
    // The untraced reference run: counters around its timed phase.
    let (mut a, _) = {
        let (mut server, _) = ctx.setup().map_err(|e| format!("setup: {e}"))?;
        let r = run_phase(ctx, &mut server, false).map_err(|e| format!("timed phase: {e}"))?;
        server.kill9().map_err(|e| e.to_string())?;
        r
    };
    tally.add(&a.res);
    let ops = a.res.ops as f64;
    let sets = a.res.set_ns.len().max(1) as f64;
    let (b, d) = (&a.before, &a.after);
    let (user, sys) = cpu_us(b, d);
    report.put("server.user_cpu_us_per_op", user / ops, "us");
    report.put("server.sys_cpu_us_per_op", sys / ops, "us");
    report.put(
        "server.ctx_switches_per_op",
        (d.ctx_switches - b.ctx_switches) as f64 / ops,
        "count",
    );
    report.put(
        "engine.epoch_pins_per_op",
        (d.epoch_pins - b.epoch_pins) as f64 / ops,
        "count",
    );
    report.put(
        "engine.write_lock_waits_per_set",
        (d.write_lock_waits - b.write_lock_waits) as f64 / sets,
        "count",
    );
    report.put(
        "engine.eh_splits",
        (d.eh_splits - b.eh_splits) as f64,
        "count",
    );
    report.put(
        "engine.dead_bytes_ratio",
        d.dead_bytes as f64 / d.mem_used_bytes.max(1) as f64,
        "ratio",
    );
    report.put(
        "repl.log_bytes_per_set",
        (d.repl_log_bytes - b.repl_log_bytes) as f64 / sets,
        "B",
    );
    report.put(
        "gen.late_p99_us",
        summarize(&mut a.res.late_ns).p99_us,
        "us",
    );
    report.put("gen.late_pct", late_pct(&a.res.late_ns), "%");

    // The traced run of the same workload and seed, on a fresh store.
    let (mut server, _) = ctx.setup().map_err(|e| format!("setup: {e}"))?;
    let (mut t, spans) =
        run_phase(ctx, &mut server, true).map_err(|e| format!("traced phase: {e}"))?;
    tally.add(&t.res);
    let (mut get_spans, set_spans) = spans.expect("traced phase collects spans");
    let mut rs = crash_restart_verify(ctx, server, get_spans.spans == 0)
        .map_err(|e| format!("restart: {e}"))?;
    tally.add(&rs.first_gets);
    tally.add(&rs.verify);
    tally.failed += rs.failures;
    if let Some((g, _)) = rs.verify_spans.take() {
        get_spans = g;
    }
    trace::put(report, &get_spans, &set_spans)?;
    let untraced_mean = summarize(&mut a.res.batch_ns).mean_us;
    let traced_mean = summarize(&mut t.res.batch_ns).mean_us;
    report.put_note(
        "trace_overhead_pct",
        100.0 * (traced_mean / untraced_mean - 1.0),
        "%",
        format!("mean round trip untraced={untraced_mean:.2}us traced={traced_mean:.2}us"),
    );
    report.put("engine.first_dbsize_ms", rs.dbsize_ms, "ms");
    report.put_note("restart_ms", rs.restart_ms, "ms", "traced store".into());
    let (per_get, per_set) =
        load::syscw_probe(rs.server.port, rs.server.pid, seed, &rs.vers, SYSCW_PROBE)
            .map_err(|e| format!("syscall probe: {e}"))?;
    report.put_note(
        "repl.write_syscalls_per_set",
        per_set - per_get,
        "count",
        format!("depth-1 syscw: GET {per_get:.3}, SET {per_set:.3}"),
    );
    rs.server.kill9().map_err(|e| e.to_string())?;

    layers::restart_split(&ctx.store, flags, report);
    remove_dir(&ctx.store).map_err(|e| e.to_string())?;
    layers::resp_layer(spec, seed, report);
    tally.failed += layers::engine_layer(spec, seed, flags, &ctx.args.work.join("engine"), report);
    tally.failed += layers::table_layer(spec, seed, report);
    layers::pmem_layer(&ctx.args.work, report);
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let ctx = Ctx {
        args,
        spec: Spec::new(args.workload, args.seconds),
        store: args.work.join("store"),
        log: args.work.join("server.log"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let f = &args.flags;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.commit
    );
    println!(
        "server flags: --shards {} --event-workers {} --pool-mb {} (file mode, --dir)",
        f.shards, f.event_workers, f.pool_mb
    );
    println!("workload: {:?}", ctx.spec);
    println!(
        "note: kill -9 leaves the OS page cache intact, so the restart verify checks \
         process-crash durability, not power loss"
    );
    let mut report = Report::default();
    let mut tally = Tally::default();
    if args.trace {
        traced(&ctx, &mut report, &mut tally)?;
    } else {
        untraced(&ctx, &mut report, &mut tally)?;
    }
    report.put(
        "failed_op_pct",
        100.0 * tally.failed as f64 / tally.attempted.max(1) as f64,
        "%",
    );
    report.print();
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let json = report.json(tally.failed == 0, tally.attempted, tally.failed, names)?;
    println!("{json}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        if let Ok(log) = std::fs::read_to_string(args.work.join("server.log")) {
            let tail: Vec<&str> = log.lines().rev().take(20).collect();
            for line in tail.into_iter().rev() {
                eprintln!("server.log: {line}");
            }
        }
        std::process::exit(1);
    }
}
