//! The benchmark's own RESP2 client. It shares no code with the server's
//! codec, so a change to `dash_server::resp` changes what is measured,
//! never the instrument measuring it.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Append one command as a RESP array of bulk strings.
pub fn put_cmd(out: &mut Vec<u8>, args: &[&[u8]]) {
    put_header(out, b'*', args.len());
    for a in args {
        put_header(out, b'$', a.len());
        out.extend_from_slice(a);
        out.extend_from_slice(b"\r\n");
    }
}

fn put_header(out: &mut Vec<u8>, tag: u8, n: usize) {
    out.push(tag);
    out.extend_from_slice(n.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// A fully decoded reply (control commands: INFO, TRACE DUMP, DBSIZE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Simple(String),
    Error(String),
    Int(i64),
    Bulk(Option<Vec<u8>>),
    Array(Vec<Reply>),
}

/// A reply on the hot path, borrowed from the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Flat<'a> {
    Simple(&'a [u8]),
    Error(&'a [u8]),
    Int(i64),
    Bulk(Option<&'a [u8]>),
}

fn line(buf: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    let end = buf[pos..].windows(2).position(|w| w == b"\r\n")? + pos;
    Some((&buf[pos..end], end + 2))
}

fn int(s: &[u8]) -> io::Result<i64> {
    std::str::from_utf8(s)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("bad integer {:?}", String::from_utf8_lossy(s))))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.into())
}

/// Decode one non-array reply from `buf`; `Ok(None)` = need more bytes.
fn decode_flat(buf: &[u8]) -> io::Result<Option<(Flat<'_>, usize)>> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((head, next)) = line(buf, 1) else {
        return Ok(None);
    };
    let r = match buf[0] {
        b'+' => Flat::Simple(head),
        b'-' => Flat::Error(head),
        b':' => Flat::Int(int(head)?),
        b'$' => {
            let n = int(head)?;
            if n < 0 {
                Flat::Bulk(None)
            } else {
                let end = next + n as usize;
                if buf.len() < end + 2 {
                    return Ok(None);
                }
                return Ok(Some((Flat::Bulk(Some(&buf[next..end])), end + 2)));
            }
        }
        t => return Err(bad(format!("unexpected reply type byte {t:#x}"))),
    };
    Ok(Some((r, next)))
}

fn decode_full(buf: &[u8]) -> io::Result<Option<(Reply, usize)>> {
    if buf.first() != Some(&b'*') {
        return Ok(decode_flat(buf)?.map(|(f, n)| {
            let r = match f {
                Flat::Simple(s) => Reply::Simple(String::from_utf8_lossy(s).into_owned()),
                Flat::Error(s) => Reply::Error(String::from_utf8_lossy(s).into_owned()),
                Flat::Int(i) => Reply::Int(i),
                Flat::Bulk(b) => Reply::Bulk(b.map(<[u8]>::to_vec)),
            };
            (r, n)
        }));
    }
    let Some((head, mut pos)) = line(buf, 1) else {
        return Ok(None);
    };
    let n = int(head)?;
    let mut items = Vec::with_capacity(n.max(0) as usize);
    for _ in 0..n.max(0) {
        match decode_full(&buf[pos..])? {
            Some((r, used)) => {
                items.push(r);
                pos += used;
            }
            None => return Ok(None),
        }
    }
    Ok(Some((Reply::Array(items), pos)))
}

/// One client connection with its own read buffer.
pub struct Conn {
    pub stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 20],
            start: 0,
            end: 0,
        })
    }

    pub fn connect(port: u16) -> io::Result<Conn> {
        Conn::new(TcpStream::connect(("127.0.0.1", port))?)
    }

    /// Read more bytes from the socket; returns when some arrived.
    pub fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// The next reply if it is already buffered (no read).
    pub fn try_flat(&mut self) -> io::Result<Option<Flat<'_>>> {
        let Conn {
            buf, start, end, ..
        } = self;
        match decode_flat(&buf[*start..*end])? {
            Some((f, used)) => {
                *start += used;
                Ok(Some(f))
            }
            None => Ok(None),
        }
    }

    /// Block until the next reply is complete and decode it fully.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some((r, used)) = decode_full(&self.buf[self.start..self.end])? {
                self.start += used;
                return Ok(r);
            }
            self.fill()?;
        }
    }

    pub fn command(&mut self, args: &[&[u8]]) -> io::Result<Reply> {
        let mut out = Vec::new();
        put_cmd(&mut out, args);
        self.stream.write_all(&out)?;
        self.read_reply()
    }

    pub fn info(&mut self) -> io::Result<String> {
        match self.command(&[b"INFO"])? {
            Reply::Bulk(Some(b)) => Ok(String::from_utf8_lossy(&b).into_owned()),
            other => Err(bad(format!("INFO replied {other:?}"))),
        }
    }

    pub fn ok(&mut self, args: &[&[u8]]) -> io::Result<()> {
        match self.command(args)? {
            Reply::Simple(s) if s == "OK" => Ok(()),
            other => Err(bad(format!(
                "{} replied {other:?}",
                String::from_utf8_lossy(args[0])
            ))),
        }
    }
}

/// The integer of the `field:value` line in `text` (an INFO payload or
/// a `/proc` status file).
pub fn field_u64(text: &str, field: &str) -> io::Result<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(field).and_then(|r| r.strip_prefix(':')))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| bad(format!("no integer field {field}")))
}
