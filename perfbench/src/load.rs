//! Load generation: preload, the closed-loop pipelined load, the
//! open-loop fixed-schedule load, and the restart verify. Every reply
//! is checked byte for byte against the value the seed predicts.

use std::io::{self, Write};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::gen::{key_bytes, value_bytes, Op, Spec, ABSENT};
use crate::stats::{ns_since, upper_quartile};
use crate::wire::{field_u64, put_cmd, Conn, Flat};

/// What one connection (or the whole phase, after [`LoadResult::merge`])
/// observed. Latencies in nanoseconds.
#[derive(Default)]
pub struct LoadResult {
    /// Operations whose reply arrived (right or wrong).
    pub ops: u64,
    pub get_ns: Vec<u32>,
    pub set_ns: Vec<u32>,
    /// Round trip of each pipelined batch (open loop: of each request).
    pub batch_ns: Vec<u32>,
    /// Generator lateness: open loop, actual send minus due time; closed
    /// loop, previous batch's last reply to the next batch's send.
    pub late_ns: Vec<u32>,
    /// `(ns since the phase started, replies)` per batch (open loop: per
    /// read), for the sliced throughput.
    pub completions: Vec<(u64, u32)>,
    /// Wrong, failed or missing replies.
    pub failures: u64,
    pub first_failure: Option<String>,
    pub elapsed: Duration,
}

impl LoadResult {
    fn fail(&mut self, msg: String) {
        self.failures += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(msg);
        }
    }

    pub fn merge(parts: Vec<LoadResult>) -> LoadResult {
        let mut all = LoadResult::default();
        for mut p in parts {
            all.ops += p.ops;
            all.get_ns.append(&mut p.get_ns);
            all.set_ns.append(&mut p.set_ns);
            all.batch_ns.append(&mut p.batch_ns);
            all.late_ns.append(&mut p.late_ns);
            all.completions.append(&mut p.completions);
            all.failures += p.failures;
            all.first_failure = all.first_failure.or(p.first_failure);
            all.elapsed = all.elapsed.max(p.elapsed);
        }
        all
    }

    /// Operations per second over the whole phase.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }

    /// Operations per second in ten equal time slices of the phase, the
    /// upper quartile of them (see [`upper_quartile`]).
    pub fn sliced_throughput(&self) -> f64 {
        const SLICES: u64 = 10;
        let width = (self.elapsed.as_nanos() as u64 / SLICES).max(1);
        let mut ops = [0u64; SLICES as usize];
        for &(t, n) in &self.completions {
            ops[(t / width).min(SLICES - 1) as usize] += u64::from(n);
        }
        let mut rates: Vec<f64> = ops.iter().map(|&n| n as f64 * 1e9 / width as f64).collect();
        upper_quartile(&mut rates)
    }
}

/// Check one reply: a GET must return the value of version `ver`
/// (nil when absent), a SET must return `+OK`.
fn check(r: &Flat<'_>, seed: u64, get: bool, key: u64, ver: u32) -> Result<(), String> {
    let ok = match (get, r) {
        (false, Flat::Simple(s)) => *s == b"OK",
        (true, Flat::Bulk(None)) => ver == ABSENT,
        (true, Flat::Bulk(Some(v))) => ver != ABSENT && *v == value_bytes(seed, key, ver),
        _ => false,
    };
    if ok {
        return Ok(());
    }
    let shown = match r {
        Flat::Simple(s) | Flat::Error(s) | Flat::Bulk(Some(s)) => {
            String::from_utf8_lossy(s).into_owned()
        }
        Flat::Bulk(None) => "nil".into(),
        Flat::Int(i) => i.to_string(),
    };
    Err(format!(
        "{} {}: expected {}, got {shown}",
        if get { "GET" } else { "SET" },
        String::from_utf8_lossy(&key_bytes(key)),
        if !get {
            "OK".into()
        } else if ver == ABSENT {
            "nil".into()
        } else {
            format!("version {ver}")
        },
    ))
}

fn put_op(out: &mut Vec<u8>, seed: u64, op: &Op) {
    let key = key_bytes(op.key);
    if op.get {
        put_cmd(out, &[b"GET", &key]);
    } else {
        put_cmd(out, &[b"SET", &key, &value_bytes(seed, op.key, op.ver)]);
    }
}

/// Drive `conn` closed-loop: up to `pipeline` commands per batch, the
/// next batch sent when every reply of the last one arrived. `next`
/// yields each operation with the version a GET must see.
fn closed_worker(
    conn: &mut Conn,
    pipeline: usize,
    seed: u64,
    expected: usize,
    barrier: Option<&Barrier>,
    mut next: impl FnMut() -> Option<(Op, u32)>,
) -> io::Result<LoadResult> {
    let mut res = LoadResult {
        get_ns: Vec::with_capacity(expected),
        set_ns: Vec::with_capacity(expected),
        batch_ns: Vec::with_capacity(expected / pipeline + 1),
        late_ns: Vec::with_capacity(expected / pipeline + 1),
        ..LoadResult::default()
    };
    let mut wbuf = Vec::with_capacity(pipeline * 128);
    let mut pending: Vec<(Op, u32)> = Vec::with_capacity(pipeline);
    if let Some(b) = barrier {
        b.wait();
    }
    let start = Instant::now();
    let mut prev_end = start;
    loop {
        wbuf.clear();
        pending.clear();
        while pending.len() < pipeline {
            match next() {
                Some(item) => {
                    put_op(&mut wbuf, seed, &item.0);
                    pending.push(item);
                }
                None => break,
            }
        }
        if pending.is_empty() {
            break;
        }
        let t0 = Instant::now();
        if prev_end != start {
            res.late_ns.push(ns_since(prev_end, t0));
        }
        conn.stream.write_all(&wbuf)?;
        let mut got = 0;
        let mut t = t0;
        while got < pending.len() {
            match conn.try_flat()? {
                Some(r) => {
                    let (op, ver) = pending[got];
                    if let Err(msg) = check(&r, seed, op.get, op.key, ver) {
                        res.fail(msg);
                    }
                    let lat = ns_since(t0, t);
                    if op.get {
                        res.get_ns.push(lat);
                    } else {
                        res.set_ns.push(lat);
                    }
                    got += 1;
                }
                None => {
                    conn.fill()?;
                    t = Instant::now();
                }
            }
        }
        res.ops += got as u64;
        prev_end = Instant::now();
        res.completions
            .push((prev_end.duration_since(start).as_nanos() as u64, got as u32));
        res.batch_ns.push(ns_since(t0, prev_end));
    }
    res.elapsed = prev_end - start;
    Ok(res)
}

/// The timed closed-loop phase: `spec.conns` connections, one thread
/// each, each running its own deterministic stream.
pub fn closed_phase(port: u16, spec: &Spec, seed: u64) -> io::Result<LoadResult> {
    let barrier = Barrier::new(spec.conns);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..spec.conns)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || -> io::Result<LoadResult> {
                    let mut conn = Conn::connect(port)?;
                    let conns = spec.conns as u64;
                    let mut vers: Vec<u32> = (0..spec.keyspace.div_ceil(conns))
                        .map(|j| spec.initial_ver(j * conns + c as u64))
                        .collect();
                    let mut stream = spec.stream(seed, c);
                    let mut left = spec.ops_per_conn;
                    closed_worker(
                        &mut conn,
                        spec.pipeline,
                        seed,
                        spec.ops_per_conn as usize,
                        Some(barrier),
                        || {
                            if left == 0 {
                                return None;
                            }
                            left -= 1;
                            let op = stream.next_op();
                            let slot = &mut vers[(op.key / conns) as usize];
                            if !op.get {
                                *slot = op.ver;
                            }
                            Some((op, *slot))
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Vec<_>>()
    });
    Ok(LoadResult::merge(
        parts.into_iter().collect::<io::Result<Vec<_>>>()?,
    ))
}

/// GET every key whose expected version is not [`ABSENT`] over two
/// pipelined connections, requiring the exact expected value.
pub fn verify(port: u16, seed: u64, vers: &[u32]) -> io::Result<LoadResult> {
    const CONNS: usize = 2;
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || -> io::Result<LoadResult> {
                    let mut conn = Conn::connect(port)?;
                    let mut k = c;
                    closed_worker(&mut conn, 16, seed, vers.len() / CONNS + 1, None, || {
                        while k < vers.len() {
                            let key = k as u64;
                            let ver = vers[k];
                            k += CONNS;
                            if ver != ABSENT {
                                return Some((
                                    Op {
                                        get: true,
                                        key,
                                        ver: 0,
                                    },
                                    ver,
                                ));
                            }
                        }
                        None
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verify thread panicked"))
            .collect::<Vec<_>>()
    });
    Ok(LoadResult::merge(
        parts.into_iter().collect::<io::Result<Vec<_>>>()?,
    ))
}

/// Depth-1 GETs, one at a time on `conn`, of `n` acknowledged keys
/// spread evenly over the keyspace.
pub fn depth1_gets(conn: &mut Conn, seed: u64, vers: &[u32], n: usize) -> io::Result<LoadResult> {
    let live: Vec<u64> = (0..vers.len() as u64)
        .filter(|&k| vers[k as usize] != ABSENT)
        .collect();
    let step = (live.len() / n).max(1);
    let mut res = LoadResult {
        get_ns: Vec::with_capacity(n),
        ..LoadResult::default()
    };
    let mut buf = Vec::with_capacity(64);
    let start = Instant::now();
    for &k in live.iter().step_by(step).take(n) {
        let ver = vers[k as usize];
        buf.clear();
        put_op(
            &mut buf,
            seed,
            &Op {
                get: true,
                key: k,
                ver,
            },
        );
        let t0 = Instant::now();
        conn.stream.write_all(&buf)?;
        let r = loop {
            match conn.try_flat()? {
                Some(r) => break check(&r, seed, true, k, ver),
                None => conn.fill()?,
            }
        };
        res.get_ns.push(ns_since(t0, Instant::now()));
        res.ops += 1;
        if let Err(msg) = r {
            res.fail(msg);
        }
    }
    res.elapsed = start.elapsed();
    Ok(res)
}

/// SET keys `0..spec.preload` to version 0 with pipelined 16-pair MSETs
/// over two connections.
pub fn preload(port: u16, spec: &Spec, seed: u64) -> io::Result<()> {
    const CONNS: u64 = 2;
    const PAIRS: u64 = 16;
    const DEPTH: usize = 8;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || -> io::Result<()> {
                    let mut conn = Conn::connect(port)?;
                    let mut wbuf = Vec::with_capacity(DEPTH * PAIRS as usize * 100);
                    let mut k = c;
                    while k < spec.preload {
                        wbuf.clear();
                        let mut sent = 0;
                        while sent < DEPTH && k < spec.preload {
                            let keys: Vec<_> = (0..PAIRS)
                                .map(|i| k + i * CONNS)
                                .take_while(|&x| x < spec.preload)
                                .collect();
                            k += PAIRS * CONNS;
                            let pairs: Vec<([u8; 14], [u8; 64])> = keys
                                .iter()
                                .map(|&x| (key_bytes(x), value_bytes(seed, x, 0)))
                                .collect();
                            let mut args: Vec<&[u8]> = vec![b"MSET"];
                            for (kb, vb) in &pairs {
                                args.push(kb);
                                args.push(vb);
                            }
                            put_cmd(&mut wbuf, &args);
                            sent += 1;
                        }
                        conn.stream.write_all(&wbuf)?;
                        for _ in 0..sent {
                            let r = loop {
                                match conn.try_flat()? {
                                    Some(r) => break r == Flat::Simple(b"OK"),
                                    None => conn.fill()?,
                                }
                            };
                            if !r {
                                return Err(io::Error::other("preload MSET was not acknowledged"));
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Block until `fd` is readable or `timeout` has passed.
fn wait_readable(fd: i32, timeout: Duration) {
    const POLLIN: i16 = 1;
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd and a valid timespec; no signal mask.
    unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
}

/// The open-loop phase: one connection and one thread. Request `i` is
/// sent at `start + i / rate` whether or not earlier replies arrived,
/// and each reply is timed from its request's due time. Between sends
/// the thread waits in `ppoll` for replies until shortly before the
/// next due time, then spins: `thread::sleep` alone oversleeps by tens
/// of microseconds. One thread keeps the generator off the CPU the
/// server needs.
pub fn open_phase(port: u16, spec: &Spec, seed: u64) -> io::Result<LoadResult> {
    const SPIN: Duration = Duration::from_micros(30);
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes this thread's timer rounding.
    unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    let rate = spec.rate.expect("open loop needs a rate");
    let n = spec.ops_per_conn as usize;
    let interval = Duration::from_nanos(1_000_000_000 / rate);
    let mut conn = Conn::connect(port)?;
    conn.stream.set_nonblocking(true)?;
    let fd = std::os::fd::AsRawFd::as_raw_fd(&conn.stream);
    let mut res = LoadResult {
        get_ns: Vec::with_capacity(n),
        set_ns: Vec::with_capacity(n),
        batch_ns: Vec::with_capacity(n),
        late_ns: Vec::with_capacity(n),
        ..LoadResult::default()
    };
    let mut send_ops = spec.stream(seed, 0);
    let mut recv_ops = spec.stream(seed, 0);
    let mut vers: Vec<u32> = (0..spec.keyspace).map(|k| spec.initial_ver(k)).collect();
    let mut buf = Vec::with_capacity(128);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + interval * i as u32;
    let deadline = due(n) + Duration::from_secs(60);
    let (mut sent, mut done) = (0, 0);
    let mut last_reply = start;
    while done < n {
        let now = Instant::now();
        if sent < n && now >= due(sent) {
            let op = send_ops.next_op();
            buf.clear();
            put_op(&mut buf, seed, &op);
            res.late_ns.push(ns_since(due(sent), now));
            let mut off = 0;
            while off < buf.len() {
                match conn.stream.write(&buf[off..]) {
                    Ok(k) => off += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::hint::spin_loop(),
                    Err(e) => return Err(e),
                }
            }
            sent += 1;
            continue;
        }
        match conn.fill() {
            Ok(()) => {
                let t = Instant::now();
                let before = done;
                while let Some(r) = conn.try_flat()? {
                    let op = recv_ops.next_op();
                    if !op.get {
                        vers[op.key as usize] = op.ver;
                    }
                    if let Err(msg) = check(&r, seed, op.get, op.key, vers[op.key as usize]) {
                        res.fail(msg);
                    }
                    let lat = ns_since(due(done), t);
                    res.batch_ns.push(lat);
                    if op.get {
                        res.get_ns.push(lat);
                    } else {
                        res.set_ns.push(lat);
                    }
                    res.ops += 1;
                    done += 1;
                }
                let since = t.saturating_duration_since(start).as_nanos() as u64;
                res.completions.push((since, (done - before) as u32));
                last_reply = t;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if now > deadline {
                    return Err(io::Error::other("open loop: replies stopped arriving"));
                }
                let next = if sent < n {
                    due(sent)
                } else {
                    now + Duration::from_millis(100)
                };
                match next.checked_duration_since(now) {
                    Some(left) if left > SPIN => wait_readable(fd, left - SPIN),
                    _ => std::hint::spin_loop(),
                }
            }
            Err(e) => return Err(e),
        }
    }
    res.elapsed = last_reply.saturating_duration_since(start);
    Ok(res)
}

/// Write syscalls per command at depth 1: three rounds of `n` GETs, then
/// `n` SETs that rewrite keys with the value they already hold (so the
/// store's expected state is unchanged). Returns the smallest
/// `(syscw per GET, per SET)` of the rounds.
pub fn syscw_probe(
    port: u16,
    pid: u32,
    seed: u64,
    vers: &[u32],
    n: usize,
) -> io::Result<(f64, f64)> {
    let syscw = || -> io::Result<u64> {
        field_u64(
            &std::fs::read_to_string(format!("/proc/{pid}/io"))?,
            "syscw",
        )
    };
    let keys: Vec<u64> = (0..vers.len() as u64)
        .filter(|&k| vers[k as usize] != ABSENT)
        .take(n)
        .collect();
    let mut conn = Conn::connect(port)?;
    // The minimum over rounds drops a rare write from a background thread.
    let mut per = [f64::MAX; 2];
    for (slot, get) in [
        (0, true),
        (1, false),
        (0, true),
        (1, false),
        (0, true),
        (1, false),
    ] {
        let before = syscw()?;
        let mut buf = Vec::new();
        for &k in &keys {
            let op = Op {
                get,
                key: k,
                ver: vers[k as usize],
            };
            buf.clear();
            put_op(&mut buf, seed, &op);
            conn.stream.write_all(&buf)?;
            let r = loop {
                match conn.try_flat()? {
                    Some(r) => break check(&r, seed, get, k, op.ver),
                    None => conn.fill()?,
                }
            };
            r.map_err(io::Error::other)?;
        }
        per[slot] = per[slot].min((syscw()? - before) as f64 / keys.len() as f64);
    }
    Ok((per[0], per[1]))
}
