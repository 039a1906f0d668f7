//! Structured leveled logging: JSON lines to stderr or `--log-file`.
//!
//! One line per event, machine-greppable (`grep '"level":"error"'`
//! must come back empty on a healthy run — CI asserts exactly that):
//!
//! ```json
//! {"ts_ms":1722950400123,"level":"warn","target":"repl","msg":"replication link to 127.0.0.1:7379: connection refused; retrying"}
//! ```
//!
//! The global logger is process-wide and reconfigurable (tests and the
//! two binaries set it up; library code just calls the macros). Level
//! filtering is one relaxed atomic load, so a suppressed `debug!` costs
//! nothing measurable. The sink mutex is only taken for lines that
//! pass the filter.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};

use parking_lot::Mutex;

/// Log severity, ordered: a configured level admits itself and
/// everything more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse a `--log-level` argument (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static SINK: Mutex<Option<File>> = Mutex::new(None);

/// Set the maximum level that gets emitted (default: info).
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::SeqCst);
}

pub fn level() -> Level {
    Level::from_u8(MAX_LEVEL.load(Ordering::Relaxed))
}

/// Route log lines to a file (append, created if missing) instead of
/// stderr. Fails if the file cannot be opened.
pub fn set_file(path: &Path) -> io::Result<()> {
    let f = OpenOptions::new().create(true).append(true).open(path)?;
    *SINK.lock() = Some(f);
    Ok(())
}

/// Route log lines back to stderr (the default; used by tests).
pub fn set_stderr() {
    *SINK.lock() = None;
}

#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Emit one JSON line. Prefer the [`log_error!`](crate::log_error!),
/// [`log_warn!`](crate::log_warn!), [`log_info!`](crate::log_info!) and
/// [`log_debug!`](crate::log_debug!) macros, which skip formatting when
/// the level is off.
pub fn log(level: Level, target: &str, msg: &str) {
    if !enabled(level) {
        return;
    }
    let mut line = String::with_capacity(64 + target.len() + msg.len());
    line.push_str("{\"ts_ms\":");
    line.push_str(&super::unix_ms().to_string());
    line.push_str(",\"level\":\"");
    line.push_str(level.name());
    line.push_str("\",\"target\":\"");
    escape_into(&mut line, target);
    line.push_str("\",\"msg\":\"");
    escape_into(&mut line, msg);
    line.push_str("\"}\n");
    let mut sink = SINK.lock();
    // A full or broken sink must never take the server down with it.
    let _ = match sink.as_mut() {
        Some(f) => f.write_all(line.as_bytes()),
        None => io::stderr().write_all(line.as_bytes()),
    };
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::trace::log::enabled($crate::trace::log::Level::Error) {
            $crate::trace::log::log($crate::trace::log::Level::Error, $target, &format!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::trace::log::enabled($crate::trace::log::Level::Warn) {
            $crate::trace::log::log($crate::trace::log::Level::Warn, $target, &format!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::trace::log::enabled($crate::trace::log::Level::Info) {
            $crate::trace::log::log($crate::trace::log::Level::Info, $target, &format!($($arg)*));
        }
    };
}

#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::trace::log::enabled($crate::trace::log::Level::Debug) {
            $crate::trace::log::log($crate::trace::log::Level::Debug, $target, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_ordering() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Error < Level::Debug, "error is most severe / lowest");
    }

    #[test]
    fn escaping_produces_valid_json_strings() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn file_sink_receives_json_lines() {
        let dir = std::env::temp_dir().join(format!("dash-logtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.jsonl");
        set_file(&path).unwrap();
        set_level(Level::Debug);
        log(Level::Warn, "test", "hello \"world\"");
        log(Level::Debug, "test", "fine-grained");
        set_level(Level::Info);
        log(Level::Debug, "test", "suppressed");
        set_stderr();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "suppressed line must not be written: {text}");
        assert!(lines[0].contains("\"level\":\"warn\""));
        assert!(lines[0].contains("\"target\":\"test\""));
        assert!(lines[0].contains("hello \\\"world\\\""));
        assert!(lines[1].contains("\"level\":\"debug\""));
    }
}
