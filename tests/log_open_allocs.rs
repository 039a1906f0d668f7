//! Reopening a redo log allocates nothing per record: `LogWriter::open`
//! streams the file through one fixed buffer and validates records in
//! place, so a 100k-record log costs exactly as many allocations as a
//! 1k-record one. Counted with a counting global allocator — a
//! deterministic guard, unlike wall-clock restart time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dash_repro::dash_server::repl::log::{encode_record, LogWriter};
use dash_repro::dash_server::ReplOp;

mod common;
use common::TempDir;

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

thread_local! {
    // Per thread, so the harness's own threads do not leak into a count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
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

/// A log of `n` SETs shaped like the write-heavy benchmark's records
/// (16-byte keys, 64-byte values), written with the writer's own header.
fn write_log(path: &std::path::Path, shard: u32, n: u32) {
    drop(LogWriter::open(path, shard, None).unwrap());
    let mut bytes = std::fs::read(path).unwrap();
    for i in 0..n {
        let op = ReplOp::Set { key: format!("key:{i:012}").into_bytes(), value: vec![i as u8; 64] };
        encode_record(&op, &mut bytes);
    }
    std::fs::write(path, bytes).unwrap();
}

/// Allocations made by one `LogWriter::open` of `path`, and the record
/// count it recovered.
fn open_allocs(path: &std::path::Path, shard: u32) -> (u64, u64) {
    let a0 = allocs();
    let (w, rec) = LogWriter::open(path, shard, None).unwrap();
    let n = allocs() - a0;
    drop(w);
    (n, rec.records)
}

#[test]
fn log_open_allocations_do_not_grow_with_the_record_count() {
    let dir = TempDir::new("log-open-allocs");
    std::fs::create_dir_all(&dir.path).unwrap();
    // Both logs live in one directory so the segment discovery walks
    // the same entries for each open.
    let small = dir.path.join("repl-0.log");
    let large = dir.path.join("repl-1.log");
    write_log(&small, 0, 1_000);
    write_log(&large, 1, 100_000);
    // Warm-up: one-time lazy initialisation is not the scan's cost.
    open_allocs(&small, 0);
    let (small_allocs, small_records) = open_allocs(&small, 0);
    let (large_allocs, large_records) = open_allocs(&large, 1);
    assert_eq!((small_records, large_records), (1_000, 100_000));
    assert_eq!(
        small_allocs, large_allocs,
        "LogWriter::open allocated per record: {small_allocs} for 1k records, \
         {large_allocs} for 100k"
    );
}
