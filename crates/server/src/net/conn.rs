//! The non-blocking connection state machine: one [`Conn`] per client,
//! driven by its event loop whenever epoll reports readiness.
//!
//! A readiness tick does bounded work — read what the socket has,
//! execute every complete pipelined command into the write buffer, and
//! write what the socket will take — and then parks the connection
//! again with exactly the epoll interest that can make further
//! progress. Two rules bound memory against a client that writes
//! commands faster than it reads replies (or never reads them at all):
//!
//! * **Write backpressure.** Once [`HIGH_WATER`] reply bytes are
//!   pending, the connection stops *executing* (and stops reading), and
//!   re-arms only for writability; decoding resumes as the kernel
//!   drains the buffer. Pending replies are therefore bounded by
//!   `HIGH_WATER` plus one command's reply.
//! * **Bounded read bursts.** At most [`MAX_READS_PER_EVENT`] chunks
//!   are read per tick; level-triggered epoll re-arms the rest, so one
//!   firehose connection cannot starve its loop-mates.
//!
//! The slow paths keep their blocking shape deliberately: `SHUTDOWN`'s
//! `+OK` and the `PSYNC` handoff flush with a bounded blocking write,
//! because both are once-per-connection events whose next act (server
//! teardown, replication streaming) is blocking anyway. Spans pending
//! on the connection complete after that flush like after any other.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

use crate::command;
use crate::metrics::CmdFamily;
use crate::resp::{decode_command, encode, Decode, Value};
use crate::server::{execute, Inner, Outcome, Session, WRITE_TIMEOUT};
use crate::trace::{self, Stage};

use super::sys::Interest;

/// Read chunk per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Reads per readiness tick before yielding to other connections.
const MAX_READS_PER_EVENT: usize = 4;
/// Pending-reply bytes above which the connection stops executing
/// commands until the kernel drains the write side.
const HIGH_WATER: usize = 1 << 20;
/// Consumed-prefix size above which a partially written buffer is
/// compacted instead of growing.
const COMPACT_AT: usize = 1 << 20;
/// Captured spans that may await their reply-flush completion on one
/// connection. A deeply pipelined connection past this loses its oldest
/// spans (counted as abandoned) rather than growing without bound, so it
/// also bounds what one pipelined burst leaves in SLOWLOG.
const PENDING_TRACE_CAP: usize = 128;
/// Bytes of key kept for the worker-panic log line.
const PANIC_CTX_LEN: usize = 24;

/// The error sent to a connection the shutdown path can no longer
/// serve, so clients can tell an orderly shutdown from a network fault.
pub(crate) const SHUTDOWN_ERR: &[u8] = b"-ERR server shutting down\r\n";

/// What the event loop should do with the connection after a tick.
#[derive(Debug)]
pub(crate) enum Drive {
    /// Keep it registered (interest may have changed).
    Continue,
    /// Deregister and drop it.
    Close,
    /// `PSYNC` accepted: hand the (flushed, re-blocked) socket to a
    /// dedicated replication-stream thread.
    Replicate,
}

/// Why the command-execution loop stopped.
enum Ran {
    /// Every complete command in the read buffer was executed.
    Drained,
    /// Stopped at [`HIGH_WATER`]; more complete commands may remain.
    Paused,
    /// `SHUTDOWN` executed (its `+OK` is in the write buffer).
    Shutdown,
    /// `PSYNC` accepted.
    Replicate,
}

pub(crate) struct Conn {
    stream: TcpStream,
    /// Id of the event-loop worker driving this connection (its spans
    /// carry it, so a hot worker is attributable).
    worker: u64,
    rbuf: Vec<u8>,
    consumed: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// The interest currently registered with epoll (owned by the
    /// worker; stored here so a tick can tell whether it changed).
    pub(crate) registered: Interest,
    /// Protocol error replied: close once the write buffer drains.
    close_after_flush: bool,
    /// Client half-closed its write side; serve what's buffered, then
    /// close once replies are flushed.
    peer_eof: bool,
    /// Per-connection dispatch state (the cluster `ASKING` flag).
    session: Session,
    /// Monotonic count of reply bytes written to the socket. Together
    /// with `pending()` it orders captured spans against the byte
    /// stream, surviving write-buffer clears and compactions.
    wsent: u64,
    /// When the next command's queue-wait clock started: socket
    /// readiness for the first command of a tick, the previous
    /// command's completion for pipelined successors.
    cmd_mark: Option<Instant>,
    /// Captured spans whose replies have not fully reached the kernel
    /// yet; completed (reply-flush stage stamped, record published) as
    /// `wsent` passes their end offset.
    pending_traces: VecDeque<PendingTrace>,
    /// In-flight command context for the worker-panic log line: the
    /// command's table name, a key prefix (a fixed-size copy, no
    /// per-command allocation) and the active trace span id (0 when
    /// untraced).
    panic_cmd: &'static str,
    panic_key: [u8; PANIC_CTX_LEN],
    panic_key_len: u8,
    panic_span: u64,
}

/// A captured span waiting for its reply bytes to reach the kernel.
struct PendingTrace {
    rec: trace::TraceRecord,
    family: CmdFamily,
    /// When execution finished: the reply-flush stage runs from here.
    exec_end: Instant,
    /// `wsent` value at which this span's reply is fully written.
    end_off: u64,
}

fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Conn {
    /// Wrap an accepted stream (already nonblocking + nodelay).
    pub(crate) fn new(stream: TcpStream, worker: u64) -> Conn {
        Conn {
            stream,
            worker,
            rbuf: Vec::with_capacity(READ_CHUNK),
            consumed: 0,
            wbuf: Vec::new(),
            wpos: 0,
            registered: Interest::READ,
            close_after_flush: false,
            peer_eof: false,
            session: Session::default(),
            wsent: 0,
            cmd_mark: None,
            pending_traces: VecDeque::new(),
            panic_cmd: "",
            panic_key: [0; PANIC_CTX_LEN],
            panic_key_len: 0,
            panic_span: 0,
        }
    }

    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reply bytes not yet written to the socket.
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// The epoll interest that can make progress right now.
    pub(crate) fn desired_interest(&self) -> Interest {
        Interest {
            readable: !self.close_after_flush && !self.peer_eof && self.pending() < HIGH_WATER,
            writable: self.pending() > 0,
        }
    }

    /// One readiness tick. `Err` means the connection is broken and
    /// should be dropped (the thread-per-connection model's behavior).
    pub(crate) fn on_ready(
        &mut self,
        readable: bool,
        writable: bool,
        inner: &Inner,
    ) -> io::Result<Drive> {
        if writable {
            self.flush_some()?;
            self.complete_traces(inner);
        }
        if readable && !self.close_after_flush && !self.peer_eof && self.pending() < HIGH_WATER {
            self.read_burst()?;
            // Queue-wait starts at readiness: commands now buffered have
            // been waiting since this moment (unless a prior command's
            // completion already started the clock).
            if self.cmd_mark.is_none() && self.rbuf.len() > self.consumed {
                self.cmd_mark = Some(Instant::now());
            }
        }
        // Execute + flush until neither can progress: a tick that
        // drains the write buffer below HIGH_WATER resumes executing
        // commands that backpressure had parked in the read buffer.
        loop {
            match self.run_commands(inner) {
                Ran::Shutdown => {
                    // Deliver the +OK before the listener dies; then the
                    // whole server winds down, so blocking (bounded by
                    // the write timeout) costs nothing.
                    let _ = self.flush_blocking();
                    self.complete_traces(inner);
                    inner.begin_shutdown();
                    return Ok(Drive::Close);
                }
                Ran::Replicate => {
                    // Flush pipelined replies ahead of the handoff; a
                    // failure here closes instead of streaming to a
                    // replica that already lost its socket.
                    self.flush_blocking()?;
                    self.complete_traces(inner);
                    return Ok(Drive::Replicate);
                }
                Ran::Drained => {
                    self.flush_some()?;
                    self.complete_traces(inner);
                    break;
                }
                Ran::Paused => {
                    self.flush_some()?;
                    self.complete_traces(inner);
                    if self.pending() >= HIGH_WATER {
                        break; // clogged: wait for EPOLLOUT
                    }
                }
            }
        }
        if (self.close_after_flush || self.peer_eof) && self.pending() == 0 {
            return Ok(Drive::Close);
        }
        Ok(Drive::Continue)
    }

    /// Take the socket for the replication handoff (blocking mode was
    /// restored by the preceding [`Conn::flush_blocking`]).
    pub(crate) fn into_stream(self) -> TcpStream {
        self.stream
    }

    fn read_burst(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..MAX_READS_PER_EVENT {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return Ok(()); // socket drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Execute complete commands from the read buffer into the write
    /// buffer until it drains, backpressure pauses it, or a
    /// connection-fate command (SHUTDOWN/PSYNC) executes.
    fn run_commands(&mut self, inner: &Inner) -> Ran {
        loop {
            if self.pending() >= HIGH_WATER {
                return Ran::Paused;
            }
            let t_parse = Instant::now();
            match decode_command(&self.rbuf[self.consumed..]) {
                Ok(Decode::Incomplete) => {
                    if self.consumed > 0 {
                        self.rbuf.drain(..self.consumed);
                        self.consumed = 0;
                    }
                    // No buffered command bytes left: the queue-wait
                    // clock must restart at the next readiness, not
                    // bill the idle gap between requests to the next
                    // command. A partial command keeps the mark — its
                    // first bytes ARE already waiting.
                    if self.rbuf.is_empty() {
                        self.cmd_mark = None;
                    }
                    return Ran::Drained;
                }
                Ok(Decode::Complete(parts, used)) => {
                    self.consumed += used;
                    inner.count_command();
                    // The one name lookup per request: dispatch, the
                    // gates, the histograms and the trace all read `cmd`.
                    let cmd = command::resolve(&parts[0]);
                    // The instrumentation seam: every executed command is
                    // timed here into its family's histogram. A command
                    // gets the full per-stage split when a TRACEID forced
                    // it or the 1-in-N sampler picked it; one too slow for
                    // either threshold is captured with a coarse split.
                    // Everything else pays only the timestamps below.
                    let queue_start = self.cmd_mark.take();
                    let forced = self.session.trace_force.take();
                    let tracing = inner.tracer.enabled();
                    let split =
                        forced.is_some() || (tracing && inner.tracer.sample_tick());
                    let span_id = match forced {
                        Some((id, _)) => id,
                        None if split => inner.tracer.alloc_id(),
                        None => 0,
                    };
                    if split {
                        trace::begin_span(span_id);
                    }
                    self.note_panic_context(cmd.map_or("", |c| c.name), &parts, span_id);
                    let started = Instant::now();
                    let outcome = execute(cmd, &parts, inner, &mut self.session);
                    let exec_end = Instant::now();
                    let exec_ns = dur_ns(exec_end - started);
                    // End the span whatever the outcome, so the
                    // thread-locals are disarmed before the next command.
                    let detail = split.then(|| trace::end_span(started, exec_ns));
                    self.panic_span = 0;
                    let family = cmd.map_or(CmdFamily::Other, |c| c.family);
                    inner.metrics.observe_command(family, exec_ns);
                    let ran = match outcome {
                        Outcome::Reply(v) => {
                            encode(&v, &mut self.wbuf);
                            None
                        }
                        Outcome::Shutdown => {
                            encode(&Value::Simple("OK".into()), &mut self.wbuf);
                            Some(Ran::Shutdown)
                        }
                        Outcome::StartReplication => Some(Ran::Replicate),
                    };
                    let slow = inner.tracer.is_slow(exec_ns);
                    if tracing || split || slow {
                        let queue_ns =
                            queue_start.map_or(0, |t| dur_ns(t_parse.saturating_duration_since(t)));
                        let parse_ns = dur_ns(started.saturating_duration_since(t_parse));
                        let total = queue_ns + parse_ns + exec_ns;
                        let threshold_ns = inner.tracer.threshold_us().saturating_mul(1000);
                        let over = tracing && threshold_ns > 0 && total >= threshold_ns;
                        if split || slow || over {
                            let (id, hops, reason) = match forced {
                                Some((id, hops)) => (id, hops, trace::Reason::Forced),
                                None if split => (span_id, 0, trace::Reason::Sampled),
                                None => (inner.tracer.alloc_id(), 0, trace::Reason::Threshold),
                            };
                            let stages = detail
                                .unwrap_or(trace::SpanDetail::coarse(exec_ns))
                                .stages(queue_ns, parse_ns);
                            let rec = trace::TraceRecord::new(
                                id, hops, &parts, self.worker, stages, total, reason,
                            );
                            self.push_pending_trace(inner, rec, family, exec_end);
                        }
                    }
                    if let Some(ran) = ran {
                        return ran;
                    }
                    // The next pipelined command has been queued since
                    // this one finished.
                    self.cmd_mark = Some(exec_end);
                }
                Err(e) => {
                    // Protocol errors are fatal for the connection:
                    // reply, discard the unparseable tail, and hang up
                    // once the reply is flushed.
                    encode(&Value::Error(format!("ERR {e}")), &mut self.wbuf);
                    self.rbuf.clear();
                    self.consumed = 0;
                    self.close_after_flush = true;
                    return Ran::Drained;
                }
            }
        }
    }

    /// Write as much pending reply as the socket takes right now.
    fn flush_some(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(ErrorKind::WriteZero, "socket accepted 0 bytes"))
                }
                Ok(n) => {
                    self.wpos += n;
                    self.wsent += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > COMPACT_AT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Flush everything, blocking (bounded by [`WRITE_TIMEOUT`]), and
    /// leave the socket in blocking mode — the SHUTDOWN / PSYNC paths.
    fn flush_blocking(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        self.stream.write_all(&self.wbuf[self.wpos..])?;
        self.wsent += (self.wbuf.len() - self.wpos) as u64;
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Give a captured span its capture sequence number and queue it to
    /// complete when its reply bytes reach the kernel. The reply-flush
    /// stage is stamped and the record published in
    /// [`Conn::complete_traces`].
    fn push_pending_trace(
        &mut self,
        inner: &Inner,
        mut rec: trace::TraceRecord,
        family: CmdFamily,
        exec_end: Instant,
    ) {
        rec.seq = inner.tracer.next_seq();
        if self.pending_traces.len() >= PENDING_TRACE_CAP {
            self.pending_traces.pop_front();
            inner.tracer.note_abandoned(1);
        }
        self.pending_traces.push_back(PendingTrace {
            rec,
            family,
            exec_end,
            end_off: self.wsent + self.pending() as u64,
        });
    }

    /// Complete every pending span whose reply bytes have fully reached
    /// the kernel: stamp the reply-flush stage, publish the record to
    /// the flight recorder, and feed the per-stage histograms when the
    /// span has a real stage split (a coarse one would skew them).
    fn complete_traces(&mut self, inner: &Inner) {
        if self.pending_traces.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(front) = self.pending_traces.front() {
            if self.wsent < front.end_off {
                break;
            }
            let mut pt = self.pending_traces.pop_front().expect("front exists");
            let flush_ns = dur_ns(now.saturating_duration_since(pt.exec_end));
            pt.rec.stages_ns[Stage::ReplyFlush.index()] = flush_ns;
            pt.rec.total_ns += flush_ns;
            if pt.rec.has_stage_split() {
                inner.metrics.observe_stages(pt.family, &pt.rec.stages_ns);
            }
            inner.tracer.record(pt.rec);
        }
    }

    /// The connection is going away: spans still waiting for their
    /// reply flush will never complete. Count them so `TRACE STATUS`
    /// can tell silence from loss.
    pub(crate) fn abandon_traces(&mut self, inner: &Inner) {
        let n = self.pending_traces.len() as u64;
        if n > 0 {
            self.pending_traces.clear();
            inner.tracer.note_abandoned(n);
        }
    }

    /// Remember the in-flight command (no per-command allocation) so a
    /// worker panic can be logged with context.
    fn note_panic_context(&mut self, cmd: &'static str, parts: &[Vec<u8>], span_id: u64) {
        self.panic_cmd = cmd;
        let key = parts.get(1).map(Vec::as_slice).unwrap_or(b"");
        let k = key.len().min(PANIC_CTX_LEN);
        self.panic_key[..k].copy_from_slice(&key[..k]);
        self.panic_key_len = k as u8;
        self.panic_span = span_id;
    }

    /// The last command this connection started executing (command name,
    /// key prefix, active trace id) — the worker-panic log line.
    pub(crate) fn panic_context(&self) -> (&'static str, String, u64) {
        let key = String::from_utf8_lossy(&self.panic_key[..self.panic_key_len as usize])
            .into_owned();
        (self.panic_cmd, key, self.panic_span)
    }
}
