//! Dash-EH: Dash-enabled extendible hashing (§4).
//!
//! A persistent directory indexes segments by the most significant bits of
//! the hash (§4.7: MSB addressing co-locates the directory entries of one
//! segment, minimizing flushes during splits). Splits follow the paper's
//! three-step SMO — crash-safe segment allocation into the source's side
//! link, rehash with delete-after-insert, then directory/depth updates —
//! and are finished or rolled back by lazy recovery (§4.8). Directory
//! doubling publishes a freshly built directory with one atomic root
//! store; the old directory is reclaimed through the epoch manager.
//!
//! The table protocol around these pieces (point and batch ops, the
//! recovery skeleton, the record move, iteration) is shared with Dash-LH
//! in [`Dash`]; this module supplies the directory, the SMOs, the scan
//! cursor and the root layout.

use std::sync::atomic::{AtomicU64, Ordering};

use dash_common::{Key, ScanCursor, ScanPage, TableError, TableResult};
use parking_lot::Mutex;
use pmem::{PmOffset, PmemPool};

use crate::config::DashConfig;
use crate::segment::{
    SegView, SegmentHeader, STATE_MERGING, STATE_NEW, STATE_NORMAL, STATE_SPLITTING,
};
use crate::table::{Dash, Scheme};

const EH_MAGIC: u64 = 0xDA58_0E01_0000_0001;
/// Directory depth cap: 2^24 entries (128 MB of directory).
const MAX_DEPTH: u32 = 24;

/// Persistent root object of a Dash-EH table.
#[repr(C)]
struct EhRoot {
    magic: AtomicU64,
    flags: AtomicU64,
    _reserved: AtomicU64,
    directory: AtomicU64,
}

/// Dash extendible hashing over an emulated PM pool.
///
/// One table per pool: the table's root object is published through the
/// pool root, which is how [`Dash::open`] finds it after a restart.
pub type DashEh<K = u64> = Dash<K, Eh>;

/// The extendible-hashing scheme of [`DashEh`]: its volatile state.
#[derive(Default)]
pub struct Eh {
    /// Volatile lock serializing directory doubling/halving and entry
    /// rewrites (segment-level isolation comes from bucket locks, §4.4).
    dir_lock: Mutex<()>,
    /// Volatile SMO counters since open (the paper's instrumentation
    /// axis): completed segment splits, directory doublings, and
    /// completed segment merges. Not persisted — telemetry only.
    splits: AtomicU64,
    doublings: AtomicU64,
    merges: AtomicU64,
}

impl Scheme for Eh {
    const NAME: &'static str = "Dash-EH";
    const ROOT_BYTES: usize = std::mem::size_of::<EhRoot>();
    const CHAINS: bool = false;

    fn new(_cfg: &DashConfig) -> TableResult<Self> {
        Ok(Eh::default())
    }

    fn format<K: Key>(t: &DashEh<K>) -> TableResult<()> {
        let (pool, geom) = (&t.pool, t.geom);
        let v = pool.global_version();
        let depth = t.cfg.initial_depth;
        let len = 1usize << depth;
        let dir = pool.alloc_zeroed(8 + 8 * len)?;
        // SAFETY: fresh directory block.
        unsafe { (*pool.at::<AtomicU64>(dir)).store(depth as u64, Ordering::Relaxed) };
        let segs = (0..len).map(|_| pool.alloc(geom.bytes())).collect::<Result<Vec<_>, _>>()?;
        for (i, &seg) in segs.iter().enumerate() {
            // Side-link the initial segments left-to-right (recovery chain).
            let side = segs.get(i + 1).copied().unwrap_or(PmOffset::NULL);
            let view = SegView::new(pool, seg, geom);
            view.init(STATE_NORMAL, depth, i as u64, side, PmOffset::NULL, v, 0);
            // SAFETY: entry i of the fresh directory.
            unsafe {
                (*pool.at::<AtomicU64>(dir.add(8 + 8 * i as u64))).store(seg.get(), Ordering::Relaxed)
            };
        }
        pool.persist(dir, 8 + 8 * len);

        let rootref = t.rootref();
        rootref.magic.store(EH_MAGIC, Ordering::Relaxed);
        rootref.flags.store(t.cfg.to_flags(), Ordering::Relaxed);
        rootref.directory.store(dir.get(), Ordering::Relaxed);
        pool.persist(t.root, std::mem::size_of::<EhRoot>());
        Ok(())
    }

    fn read_config(pool: &PmemPool, root: PmOffset) -> TableResult<DashConfig> {
        // SAFETY: root published by create().
        let rootref = unsafe { pool.at_ref::<EhRoot>(root) };
        if rootref.magic.load(Ordering::Relaxed) != EH_MAGIC {
            return Err(TableError::Pm(pmem::PmError::PoolCorrupt("not a Dash-EH root")));
        }
        Ok(DashConfig::from_flags(rootref.flags.load(Ordering::Relaxed), 64, 8))
    }

    fn resolve<K: Key>(t: &DashEh<K>, h: u64) -> TableResult<(u64, PmOffset)> {
        let seg = t.resolve(h);
        Ok((seg.get(), seg))
    }

    fn still_maps<K: Key>(t: &DashEh<K>, h: u64, route: u64) -> bool {
        t.locate(h).get() == route
    }

    /// Split the segment currently covering `h`. Steps: mark SPLITTING,
    /// allocate-activate the new segment into the side link, rehash with
    /// delete-after-insert, then update the directory and depths.
    fn grow<K: Key>(t: &DashEh<K>, h: u64) -> TableResult<()> {
        let mode = t.cfg.lock_mode;
        let seg = t.resolve(h);
        let sview = t.view(seg);
        let depth_before = sview.header().local_depth.load(Ordering::Acquire);
        sview.lock_all(mode);
        if t.locate(h) != seg
            || sview.header().local_depth.load(Ordering::Acquire) != depth_before
        {
            // Someone else split first; the insert retry will see it.
            sview.unlock_all(mode);
            return Ok(());
        }

        let l = depth_before;
        let dir = t.dir_off();
        if l == t.dir_depth(dir) {
            if let Err(e) = t.double_directory(l) {
                sview.unlock_all(mode);
                return Err(e);
            }
            // Depth changed; re-derive chunk bounds below.
        }

        let hdr = sview.header();
        hdr.state.store(STATE_SPLITTING, Ordering::Release);
        t.pool.persist(t.pool.offset_of(&hdr.state), 4);

        let old_side = hdr.side_link.load(Ordering::Acquire);
        let side_slot = t.pool.offset_of(&hdr.side_link);
        let ticket = match t.pool.prepare_alloc(t.geom.bytes(), side_slot) {
            Ok(ticket) => ticket,
            Err(e) => {
                hdr.state.store(STATE_NORMAL, Ordering::Release);
                t.pool.persist(t.pool.offset_of(&hdr.state), 4);
                sview.unlock_all(mode);
                return Err(e.into());
            }
        };
        let n_off = ticket.block;
        let nview = t.view(n_off);
        let pattern = hdr.pattern.load(Ordering::Acquire);
        nview.init(
            STATE_NEW,
            l + 1,
            (pattern << 1) | 1,
            PmOffset::new(old_side),
            seg,
            t.pool.global_version(),
            0,
        );
        t.pool.commit_alloc(ticket); // side_link := N, persisted

        let moved = Self::rehash_split(t, seg, n_off);
        if moved.is_ok() {
            Self::finish_split(t, seg, n_off);
            t.scheme.splits.fetch_add(1, Ordering::Relaxed);
        }
        sview.unlock_all(mode);
        moved
    }

    /// Merge the segment with its buddy once its load factor drops below
    /// `merge_threshold` (0.0 disables merging).
    fn removed<K: Key>(t: &DashEh<K>, h: u64) {
        if t.cfg.merge_threshold <= 0.0 {
            return;
        }
        let seg = t.locate(h);
        let view = t.view(seg);
        let records = view.count_records();
        let slots = view.capacity_slots();
        if slots == 0 || (records as f64 / slots as f64) >= t.cfg.merge_threshold {
            return;
        }
        let _ = t.try_merge(seg);
    }

    /// Step 2: move the records belonging to the new segment `n` (delete
    /// after insert, §4.7). A failed move undoes step 1 — `s` is NORMAL
    /// again with its old side link and `n` is freed — so the split never
    /// happened. Recovery reruns this to redo a crashed split.
    fn rehash_split<K: Key>(t: &DashEh<K>, s: PmOffset, n: PmOffset) -> TableResult<()> {
        let (s, n) = (t.view(s), t.view(n));
        let new_depth = n.header().local_depth.load(Ordering::Acquire);
        t.move_records(s, n, |kh| (kh >> (64 - new_depth)) & 1 == 1).inspect_err(|_| {
            let sh = s.header();
            sh.state.store(STATE_NORMAL, Ordering::Release);
            sh.side_link.store(n.header().side_link.load(Ordering::Acquire), Ordering::Release);
            t.pool.persist(s.off, 64);
            // No reader can reach `n`: it never entered the directory.
            t.pool.free_now(n.off, t.geom.bytes());
        })
    }

    /// Step 3: point the upper half of the chunk at `n`, bump `s`'s local
    /// depth/pattern, clear SMO states. Idempotent — recovery reruns it.
    fn finish_split<K: Key>(t: &DashEh<K>, s: PmOffset, n: PmOffset) {
        let (s, n) = (t.view(s), t.view(n));
        let _dl = t.scheme.dir_lock.lock();
        let dir = t.dir_off();
        let g = t.dir_depth(dir);
        let nh = n.header();
        let sh = s.header();
        let new_l = nh.local_depth.load(Ordering::Acquire);
        let pattern_n = nh.pattern.load(Ordering::Acquire);
        debug_assert!(new_l <= g);
        let span = 1usize << (g - new_l);
        let start = (pattern_n as usize) << (g - new_l);
        for i in start..start + span {
            t.dir_entry(dir, i).store(n.off.get(), Ordering::Release);
        }
        t.pool.persist(dir.add(8 + 8 * start as u64), 8 * span);

        sh.local_depth.store(new_l, Ordering::Release);
        sh.pattern.store(pattern_n & !1, Ordering::Release);
        t.pool.persist(s.off, 64);
        nh.state.store(STATE_NORMAL, Ordering::Release);
        t.pool.persist(n.off, 64);
        sh.state.store(STATE_NORMAL, Ordering::Release);
        t.pool.persist(s.off, 64);
    }

    fn recover_merge<K: Key>(t: &DashEh<K>, seg: PmOffset) -> bool {
        let view = t.view(seg);
        let hdr = view.header();
        let s_off = PmOffset::new(hdr.back_link.load(Ordering::Acquire));
        if s_off.is_null() {
            hdr.state.store(STATE_NORMAL, Ordering::Release);
            t.pool.persist(t.pool.offset_of(&hdr.state), 4);
            return true;
        }
        // Forward-complete the merge; B (this segment) is then unreachable
        // and freed. A drain that fails rolls the merge back instead, and
        // B stays live.
        t.recover_segment(s_off);
        let s = t.view(s_off);
        s.lock_all(t.cfg.lock_mode);
        let merged = t.drain_merge(view, s).is_ok();
        if merged {
            t.finish_merge(s, view);
        }
        s.unlock_all(t.cfg.lock_mode);
        !merged
    }

    /// Directory entries for a segment are contiguous under MSB
    /// addressing, so runs of equal entries are one segment.
    fn for_each_segment<K: Key>(t: &DashEh<K>, mut f: impl FnMut(PmOffset)) {
        let dir = t.dir_off();
        let len = 1usize << t.dir_depth(dir);
        let mut last = PmOffset::NULL;
        for i in 0..len {
            let s = PmOffset::new(t.dir_entry(dir, i).load(Ordering::Acquire));
            if s != last {
                f(s);
                last = s;
            }
        }
    }

    /// Paged iteration with a split-stable cursor.
    ///
    /// The cursor is a **keyspace position**: the 64-bit hash boundary of
    /// the next segment to visit. Under MSB directory addressing (§4.7) a
    /// record with hash `h` always lives in the segment whose directory
    /// entry covers `h` — a split moves records only between the two
    /// halves of the segment's own hash range, and directory
    /// doubling/halving renumbers entries without moving a single hash
    /// boundary. Scanning range-by-range in hash order therefore yields
    /// every key that stays present at least once, no matter how many
    /// SMOs run mid-scan: ranges behind the cursor keep their keys, and
    /// ranges ahead are visited whatever segment ends up holding them.
    ///
    /// Each page snapshots whole segments (version-validated, so the
    /// page is a union of per-segment atomic states) and runs past
    /// `budget` only to finish the current segment. The position
    /// encodes the covering segment's local depth implicitly — it *is*
    /// the range boundary `(pattern+1) << (64-depth)` — so a merge that
    /// widens the segment under a resumed cursor is handled by filtering
    /// out the already-yielded lower half (`hash < pos`).
    fn scan<K: Key>(t: &DashEh<K>, mut pos: u64, budget: usize) -> ScanPage<K> {
        let mut items: Vec<(K, u64)> = Vec::new();
        loop {
            let seg = t.resolve(pos);
            let view = t.view(seg);
            let hdr = view.header();
            let depth = hdr.local_depth.load(Ordering::Acquire);
            let pattern = hdr.pattern.load(Ordering::Acquire);
            let verify = || {
                t.locate(pos) == seg
                    && hdr.local_depth.load(Ordering::Acquire) == depth
                    && hdr.pattern.load(Ordering::Acquire) == pattern
            };
            let Some(raw) = view.snapshot_records(t.cfg.lock_mode, verify) else {
                // The segment split or merged under us; re-resolve `pos`
                // against the new directory state.
                continue;
            };
            for (key_repr, value) in raw {
                if K::hash_stored(&t.pool, key_repr) < pos {
                    // Lower half of a segment merged since the cursor was
                    // issued: already yielded from its previous generation.
                    continue;
                }
                if let Some(key) = K::decode_stored(&t.pool, key_repr) {
                    items.push((key, value));
                }
            }
            // Advance past this segment's hash range.
            if depth == 0 || pattern + 1 == (1u64 << depth) {
                return ScanPage { items, cursor: ScanCursor::finished() };
            }
            pos = (pattern + 1) << (64 - depth);
            if items.len() >= budget {
                return ScanPage { items, cursor: ScanCursor::resume(pos) };
            }
        }
    }
}

impl<K: Key> DashEh<K> {
    /// Completed segment splits since this handle opened (volatile).
    pub fn split_count(&self) -> u64 {
        self.scheme.splits.load(Ordering::Relaxed)
    }

    /// Directory doublings since this handle opened (volatile).
    pub fn doubling_count(&self) -> u64 {
        self.scheme.doublings.load(Ordering::Relaxed)
    }

    /// Completed segment merges since this handle opened (volatile).
    pub fn merge_count(&self) -> u64 {
        self.scheme.merges.load(Ordering::Relaxed)
    }

    fn rootref(&self) -> &EhRoot {
        // SAFETY: validated at create/open.
        unsafe { self.pool.at_ref::<EhRoot>(self.root) }
    }

    // ---- directory ------------------------------------------------------

    #[inline]
    fn dir_off(&self) -> PmOffset {
        PmOffset::new(self.rootref().directory.load(Ordering::Acquire))
    }

    #[inline]
    fn dir_depth(&self, dir: PmOffset) -> u32 {
        // SAFETY: directory blocks start with their depth word.
        unsafe { (*self.pool.at::<AtomicU64>(dir)).load(Ordering::Acquire) as u32 }
    }

    #[inline]
    fn dir_entry(&self, dir: PmOffset, idx: usize) -> &AtomicU64 {
        // SAFETY: idx < 2^depth, checked by callers via seg_index.
        unsafe { self.pool.at_ref::<AtomicU64>(dir.add(8 + 8 * idx as u64)) }
    }

    #[inline]
    fn seg_index(h: u64, depth: u32) -> usize {
        if depth == 0 {
            0
        } else {
            (h >> (64 - depth)) as usize
        }
    }

    /// Resolve the segment for `h` from the current directory (§4.4: no
    /// directory lock — callers re-verify after taking bucket locks).
    #[inline]
    fn locate(&self, h: u64) -> PmOffset {
        let dir = self.dir_off();
        let depth = self.dir_depth(dir);
        PmOffset::new(self.dir_entry(dir, Self::seg_index(h, depth)).load(Ordering::Acquire))
    }

    /// Locate + lazy-recovery gate (§4.8): every access first checks the
    /// segment's version byte against the pool's global version.
    fn resolve(&self, h: u64) -> PmOffset {
        let v = self.pool.global_version();
        loop {
            let seg = self.locate(h);
            let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
            if hdr.rec_version.load(Ordering::Acquire) == v {
                return seg;
            }
            self.recover_segment(seg);
        }
    }

    // ---- structural modification operations (§4.7) -----------------------

    /// Double the directory (§4.7): every entry duplicated.
    fn double_directory(&self, seen_depth: u32) -> TableResult<()> {
        let _dl = self.scheme.dir_lock.lock();
        let dir = self.dir_off();
        let depth = self.dir_depth(dir);
        if depth > seen_depth {
            return Ok(()); // someone else doubled already
        }
        if depth >= MAX_DEPTH {
            return Err(TableError::CapacityExhausted);
        }
        self.publish_directory(dir, depth + 1, |j| {
            self.dir_entry(dir, j / 2).load(Ordering::Acquire)
        })?;
        self.scheme.doublings.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replace the directory `old` by a freshly built one of depth `depth`
    /// whose entry `i` is `entry(i)`: publish it with one atomic,
    /// persisted root store and epoch-free the old one (§4.7).
    fn publish_directory(
        &self,
        old: PmOffset,
        depth: u32,
        entry: impl Fn(usize) -> u64,
    ) -> TableResult<()> {
        let len = 1usize << depth;
        let dir_slot = self.pool.offset_of(&self.rootref().directory);
        let ticket = self.pool.prepare_alloc(8 + 8 * len, dir_slot)?;
        let new_dir = ticket.block;
        // SAFETY: fresh directory block: the depth word, then the entries.
        unsafe {
            (*self.pool.at::<AtomicU64>(new_dir)).store(depth as u64, Ordering::Relaxed);
            for i in 0..len {
                (*self.pool.at::<AtomicU64>(new_dir.add(8 + 8 * i as u64)))
                    .store(entry(i), Ordering::Relaxed);
            }
        }
        self.pool.persist(new_dir, 8 + 8 * len);
        self.pool.commit_alloc(ticket); // root.directory := new_dir, persisted
        self.pool.defer_free(old, 8 + 8 * (1usize << self.dir_depth(old)));
        Ok(())
    }

    // ---- merge (load-factor driven) -----------------------------------------

    /// Merge `seg` with its buddy: the odd-pattern segment (B) drains into
    /// the even one (S). Once B is marked MERGING the merge completes
    /// (records can spill into S's stash chain), so recovery never needs
    /// a rollback with unreachable records — unless the pool cannot
    /// supply a chain node: then the drain leaves B whole and the merge
    /// is rolled back.
    fn try_merge(&self, seg: PmOffset) -> TableResult<bool> {
        let mode = self.cfg.lock_mode;
        let hdr = unsafe { self.pool.at_ref::<SegmentHeader>(seg) };
        let l = hdr.local_depth.load(Ordering::Acquire);
        if l == 0 {
            return Ok(false);
        }
        let pattern = hdr.pattern.load(Ordering::Acquire);
        let (s_pat, b_pat) = (pattern & !1, pattern | 1);

        // Resolve both segments from the directory.
        let dir = self.dir_off();
        let g = self.dir_depth(dir);
        if l > g {
            return Ok(false);
        }
        let entry = |pat: u64| self.dir_entry(dir, (pat as usize) << (g - l)).load(Ordering::Acquire);
        let (s_off, b_off) = (PmOffset::new(entry(s_pat)), PmOffset::new(entry(b_pat)));
        if s_off == b_off || s_off.is_null() || b_off.is_null() {
            return Ok(false);
        }
        // Both segments must be through the recovery gate before we take
        // their bucket locks (either may carry crash-persisted locks).
        self.recover_segment(s_off);
        self.recover_segment(b_off);
        let s = self.view(s_off);
        let b = self.view(b_off);
        // Lock S then B (global order: S has the smaller pattern).
        s.lock_all(mode);
        b.lock_all(mode);
        let bail = |why: bool| {
            b.unlock_all(mode);
            s.unlock_all(mode);
            Ok(why)
        };
        // Verify both still live at depth l with the right patterns.
        let sh = s.header();
        let bh = b.header();
        if sh.local_depth.load(Ordering::Acquire) != l
            || bh.local_depth.load(Ordering::Acquire) != l
            || sh.pattern.load(Ordering::Acquire) != s_pat
            || bh.pattern.load(Ordering::Acquire) != b_pat
            || sh.state.load(Ordering::Acquire) != STATE_NORMAL
            || bh.state.load(Ordering::Acquire) != STATE_NORMAL
        {
            return bail(false);
        }
        // Capacity sanity: combined records must comfortably fit S.
        let combined = s.count_records() + b.count_records();
        if combined as f64 >= 0.8 * s.capacity_slots() as f64 {
            return bail(false);
        }

        bh.back_link.store(s_off.get(), Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.back_link), 8);
        bh.state.store(STATE_MERGING, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&bh.state), 4);

        let drained = self.drain_merge(b, s);
        if drained.is_ok() {
            self.finish_merge(s, b);
        }
        b.unlock_all(mode);
        s.unlock_all(mode);
        drained?;
        self.pool.defer_free(b_off, self.geom.bytes());
        self.scheme.merges.fetch_add(1, Ordering::Relaxed);
        // Opportunistically shrink the directory (§4.7 halving).
        let _ = self.try_halve_directory();
        Ok(true)
    }

    /// Halve the directory while every buddy pair of entries points to
    /// the same segment (all local depths below the global depth). The
    /// new directory is built fresh and published with one atomic root
    /// store, exactly like doubling; loops for cascading halvings.
    fn try_halve_directory(&self) -> TableResult<()> {
        loop {
            let _dl = self.scheme.dir_lock.lock();
            let dir = self.dir_off();
            let depth = self.dir_depth(dir);
            if depth == 0 {
                return Ok(());
            }
            let len = 1usize << depth;
            let halvable = (0..len).step_by(2).all(|i| {
                self.dir_entry(dir, i).load(Ordering::Acquire)
                    == self.dir_entry(dir, i + 1).load(Ordering::Acquire)
            });
            if !halvable {
                return Ok(());
            }
            self.publish_directory(dir, depth - 1, |i| {
                self.dir_entry(dir, 2 * i).load(Ordering::Acquire)
            })?;
        }
    }

    /// Move every record of B into S (delete-after-insert; chain overflow
    /// allowed so the move is total while the pool has room). A failed
    /// move leaves B whole and NORMAL again. Recovery reruns this to
    /// finish a crashed merge.
    fn drain_merge(&self, b: SegView<'_>, s: SegView<'_>) -> TableResult<()> {
        self.move_records(b, s, |_| true).inspect_err(|_| {
            let bh = b.header();
            bh.state.store(STATE_NORMAL, Ordering::Release);
            self.pool.persist(self.pool.offset_of(&bh.state), 4);
        })
    }

    /// Re-point B's directory chunk at S, shrink S's depth, patch the side
    /// link chain, clear states. Idempotent for recovery.
    fn finish_merge(&self, s: SegView<'_>, b: SegView<'_>) {
        let _dl = self.scheme.dir_lock.lock();
        let dir = self.dir_off();
        let g = self.dir_depth(dir);
        let sh = s.header();
        let bh = b.header();
        let l = bh.local_depth.load(Ordering::Acquire);
        let b_pat = bh.pattern.load(Ordering::Acquire);
        let span = 1usize << (g - l);
        let start = (b_pat as usize) << (g - l);
        for i in start..start + span {
            self.dir_entry(dir, i).store(s.off.get(), Ordering::Release);
        }
        self.pool.persist(dir.add(8 + 8 * start as u64), 8 * span);

        sh.local_depth.store(l - 1, Ordering::Release);
        sh.pattern.store(b_pat >> 1, Ordering::Release);
        sh.side_link.store(bh.side_link.load(Ordering::Acquire), Ordering::Release);
        self.pool.persist(s.off, 64);
        bh.state.store(STATE_NORMAL, Ordering::Release);
        self.pool.persist(b.off, 64);
    }

    // ---- introspection -----------------------------------------------------

    /// Current directory depth (for tests and diagnostics).
    pub fn global_depth(&self) -> u32 {
        self.dir_depth(self.dir_off())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::SegGeom;
    use crate::table::testing::{fill_pool, free_filler, is_pool_full, keys_where, within_deadline};
    use dash_common::{uniform_keys, PmHashTable, VarKey};
    use pmem::PoolConfig;
    use std::sync::Arc;

    fn small_cfg() -> DashConfig {
        DashConfig { bucket_bits: 2, initial_depth: 1, ..Default::default() }
    }

    fn new_table(pool_mb: usize, cfg: DashConfig) -> DashEh<u64> {
        let pool = PmemPool::create(PoolConfig::with_size(pool_mb << 20)).unwrap();
        DashEh::create(pool, cfg).unwrap()
    }

    #[test]
    fn basic_crud() {
        let t = new_table(16, DashConfig::default());
        assert_eq!(t.get(&1), None);
        t.insert(&1, 100).unwrap();
        assert_eq!(t.get(&1), Some(100));
        assert!(matches!(t.insert(&1, 200), Err(TableError::Duplicate)));
        assert!(t.update(&1, 300));
        assert_eq!(t.get(&1), Some(300));
        assert!(t.remove(&1));
        assert_eq!(t.get(&1), None);
        assert!(!t.remove(&1));
        assert!(!t.update(&1, 1));
    }

    #[test]
    fn batch_ops_roundtrip_through_splits() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(8_000, 71);
        let items: Vec<(u64, u64)> = keys.iter().enumerate().map(|(i, k)| (*k, i as u64)).collect();
        // One batch insert large enough to force splits and doublings
        // under a single epoch pin.
        assert!(t.insert_many(&items).iter().all(|r| r.is_ok()));
        assert!(t.global_depth() > small_cfg().initial_depth);
        assert!(
            t.insert_many(&items[..16]).iter().all(|r| matches!(r, Err(TableError::Duplicate))),
            "batch re-insert must report Duplicate per item"
        );
        for (i, got) in t.get_many(&keys).into_iter().enumerate() {
            assert_eq!(got, Some(i as u64), "batched get of key {i}");
        }
        let half = keys.len() / 2;
        assert!(t.remove_many(&keys[..half]).into_iter().all(|b| b));
        assert!(t.remove_many(&keys[..half]).into_iter().all(|b| !b), "second remove sees absent");
        assert_eq!(t.len_scan(), (keys.len() - half) as u64);
    }

    #[test]
    fn grows_through_many_splits_and_doublings() {
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(20_000, 42);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        assert!(t.global_depth() > small_cfg().initial_depth, "directory must double");
        assert!(t.segment_count() > 2);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i} lost after splits");
        }
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    #[test]
    fn paper_geometry_inserts() {
        let t = new_table(128, DashConfig::default());
        let keys = uniform_keys(50_000, 7);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
        // Load factor should be healthy with full Dash (fig. 12 ~80 %+ at 2 stash).
        let lf = t.load_factor();
        assert!(lf > 0.4, "load factor {lf} unexpectedly low");
    }

    #[test]
    fn negative_search_after_growth() {
        let t = new_table(32, small_cfg());
        let keys = uniform_keys(5_000, 3);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        for k in dash_common::negative_keys(5_000, 3) {
            assert_eq!(t.get(&k), None);
        }
    }

    #[test]
    fn delete_everything_then_reuse() {
        let t = new_table(32, small_cfg());
        let keys = uniform_keys(3_000, 11);
        for k in &keys {
            t.insert(k, 5).unwrap();
        }
        for k in &keys {
            assert!(t.remove(k));
        }
        assert_eq!(t.len_scan(), 0);
        for k in &keys {
            t.insert(k, 6).unwrap();
            assert_eq!(t.get(k), Some(6));
        }
    }

    #[test]
    fn var_keys_supported() {
        let pool = PmemPool::create(PoolConfig::with_size(64 << 20)).unwrap();
        let t: DashEh<VarKey> = DashEh::create(pool, small_cfg()).unwrap();
        let keys = dash_common::var_keys(4_000, 9, 16);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
        assert!(matches!(t.insert(&keys[0], 0), Err(TableError::Duplicate)));
        assert!(t.remove(&keys[0]));
        assert_eq!(t.get(&keys[0]), None);
    }

    #[test]
    fn concurrent_inserts_and_gets() {
        let t = std::sync::Arc::new(new_table(128, DashConfig::default()));
        let keys = std::sync::Arc::new(uniform_keys(32_000, 5));
        let threads = 8;
        let per = keys.len() / threads;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for i in tid * per..(tid + 1) * per {
                        t.insert(&keys[i], i as u64).unwrap();
                    }
                });
            }
        });
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {i}");
        }
        // Concurrent readers while writers mutate.
        std::thread::scope(|s| {
            for tid in 0..threads {
                let t = t.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    for i in (tid..keys.len()).step_by(threads) {
                        if tid % 2 == 0 {
                            assert!(t.remove(&keys[i]));
                        } else {
                            let _ = t.get(&keys[i]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn duplicate_insert_race_yields_exactly_one() {
        let t = std::sync::Arc::new(new_table(32, DashConfig::default()));
        let successes = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    if t.insert(&777, 1).is_ok() {
                        successes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(successes.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(t.len_scan(), 1);
    }

    #[test]
    fn clean_shutdown_reopen() {
        let cfg = PoolConfig { size: 32 << 20, shadow: true, ..Default::default() };
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<u64> = DashEh::create(pool.clone(), small_cfg()).unwrap();
        let keys = uniform_keys(2_000, 21);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let img = pool.close_image();
        drop(t);
        let pool2 = PmemPool::open(img, cfg).unwrap();
        assert!(pool2.recovery_outcome().clean);
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64));
        }
    }

    #[test]
    fn crash_reopen_recovers_all_committed_records() {
        let cfg = PoolConfig { size: 64 << 20, shadow: true, ..Default::default() };
        let pool = PmemPool::create(cfg).unwrap();
        let t: DashEh<u64> = DashEh::create(pool.clone(), small_cfg()).unwrap();
        let keys = uniform_keys(8_000, 33);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let img = pool.crash_image(); // power cut, no clean shutdown
        drop(t);
        let pool2 = PmemPool::open(img, cfg).unwrap();
        assert!(!pool2.recovery_outcome().clean);
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t2.get(k), Some(i as u64), "key {i} lost in crash");
        }
        // And the table remains fully operational.
        for k in dash_common::negative_keys(1_000, 33) {
            t2.insert(&k, 1).unwrap();
        }
    }

    #[test]
    fn merge_shrinks_segments() {
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.2,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keys = uniform_keys(6_000, 13);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        let segs_full = t.segment_count();
        for k in &keys {
            assert!(t.remove(k));
        }
        assert!(t.segment_count() < segs_full, "merges must reduce segment count");
        // Table still fully functional.
        for k in keys.iter().take(500) {
            t.insert(k, 2).unwrap();
            assert_eq!(t.get(k), Some(2));
        }
    }

    #[test]
    fn directory_halves_after_mass_deletes() {
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.3,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keys = uniform_keys(8_000, 29);
        for k in &keys {
            t.insert(k, 1).unwrap();
        }
        let depth_full = t.global_depth();
        assert!(depth_full > 1, "table must have grown first");
        for k in &keys {
            assert!(t.remove(k));
        }
        assert!(
            t.global_depth() < depth_full,
            "directory should halve: {} -> {}",
            depth_full,
            t.global_depth()
        );
        // Survives a reopen after halving.
        let img = t.pool().close_image();
        let pcfg = PoolConfig::with_size(t.pool().size());
        drop(t);
        let pool2 = PmemPool::open(img, pcfg).unwrap();
        let t2: DashEh<u64> = DashEh::open(pool2).unwrap();
        for k in keys.iter().take(1_000) {
            t2.insert(k, 3).unwrap();
            assert_eq!(t2.get(k), Some(3));
        }
    }

    #[test]
    fn scan_pages_cover_table_exactly_once_when_quiescent() {
        use dash_common::ScanCursor;
        let t = new_table(64, small_cfg());
        let keys = uniform_keys(10_000, 91);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        let mut cursor = ScanCursor::START;
        let mut pages = 0;
        loop {
            let page = t.scan(cursor, 64);
            for (k, v) in page.items {
                assert!(seen.insert(k, v).is_none(), "quiescent scan must not duplicate {k}");
            }
            pages += 1;
            if page.cursor.is_done() {
                break;
            }
            // Cursors round-trip through their raw position (the wire form).
            cursor = ScanCursor::resume(page.cursor.pos());
        }
        assert!(pages > 1, "budget 64 must paginate 10k keys");
        assert_eq!(seen.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(seen.get(k), Some(&(i as u64)), "key {i} missing from scan");
        }
        // len_scan rides the same path.
        assert_eq!(t.len_scan(), keys.len() as u64);
    }

    /// The deterministic split test of the acceptance criteria: start a
    /// scan, force many splits and a directory doubling mid-scan, finish
    /// the scan — every key present throughout must be yielded.
    #[test]
    fn scan_survives_splits_and_doubling_mid_scan() {
        use dash_common::ScanCursor;
        let t = new_table(128, small_cfg());
        let stable = uniform_keys(2_000, 7);
        for k in &stable {
            t.insert(k, 1).unwrap();
        }
        let depth_before = t.global_depth();

        // First page with a tiny budget, so the cursor parks mid-table.
        let mut yielded: Vec<u64> = Vec::new();
        let first = t.scan(ScanCursor::START, 8);
        yielded.extend(first.items.iter().map(|(k, _)| *k));
        assert!(!first.cursor.is_done(), "2k keys cannot fit one 8-budget page");

        // Mid-scan structural churn: enough inserts to split every
        // segment several times and double the directory.
        for k in dash_common::negative_keys(12_000, 7) {
            t.insert(&k, 2).unwrap();
        }
        assert!(t.global_depth() > depth_before, "churn must double the directory");

        let mut cursor = first.cursor;
        while !cursor.is_done() {
            let page = t.scan(cursor, 256);
            yielded.extend(page.items.iter().map(|(k, _)| *k));
            cursor = page.cursor;
        }
        let yielded: std::collections::HashSet<u64> = yielded.into_iter().collect();
        for k in &stable {
            assert!(yielded.contains(k), "stable key {k} lost by a scan crossing splits");
        }
    }

    /// Merges move records the other way: shrink the table under a
    /// parked cursor and confirm the surviving keys still all appear.
    #[test]
    fn scan_survives_merges_and_halving_mid_scan() {
        use dash_common::ScanCursor;
        let cfg = DashConfig {
            bucket_bits: 2,
            initial_depth: 1,
            merge_threshold: 0.3,
            ..Default::default()
        };
        let t = new_table(64, cfg);
        let keep = uniform_keys(500, 19);
        let churn = dash_common::negative_keys(8_000, 19);
        for k in keep.iter().chain(&churn) {
            t.insert(k, 3).unwrap();
        }
        let depth_full = t.global_depth();
        assert!(depth_full > 1);

        let first = t.scan(ScanCursor::START, 8);
        let mut yielded: std::collections::HashSet<u64> =
            first.items.iter().map(|(k, _)| *k).collect();
        assert!(!first.cursor.is_done());

        // Mass delete mid-scan: merges + directory halving.
        for k in &churn {
            assert!(t.remove(k));
        }
        assert!(t.global_depth() < depth_full, "deletes must halve the directory");

        let mut cursor = first.cursor;
        while !cursor.is_done() {
            let page = t.scan(cursor, 64);
            yielded.extend(page.items.iter().map(|(k, _)| *k));
            cursor = page.cursor;
        }
        for k in &keep {
            assert!(yielded.contains(k), "kept key {k} lost by a scan crossing merges");
        }
    }

    #[test]
    fn pessimistic_mode_end_to_end() {
        let t = new_table(
            32,
            DashConfig { lock_mode: crate::LockMode::Pessimistic, ..small_cfg() },
        );
        let keys = uniform_keys(4_000, 17);
        for (i, k) in keys.iter().enumerate() {
            t.insert(k, i as u64).unwrap();
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64));
        }
    }

    /// Reserve room for a split's own blocks (the doubled directory of a
    /// depth-1 table and the new segment), fill the rest of the pool, and
    /// release the reserve: the split starts, but its record move cannot
    /// get a stash-chain node.
    fn fill_all_but_split(pool: &PmemPool, t: &DashEh<u64>) -> Vec<PmOffset> {
        let sizes = [8 + 8 * 4, t.geom.bytes()];
        let reserve: Vec<PmOffset> = sizes.iter().map(|&n| pool.alloc(n).unwrap()).collect();
        let filler = fill_pool(pool);
        for (off, n) in reserve.into_iter().zip(sizes) {
            pool.free_now(off, n);
        }
        filler
    }

    /// A split whose record move needs a stash-chain node that the full
    /// pool cannot supply fails cleanly: the insert reports the pool
    /// error and the split is rolled back, so once space is freed every
    /// acknowledged key reads back and the insert goes through.
    #[test]
    fn split_into_full_pool_rolls_back() {
        // Keys of segment 0 (top bit 0) that all move on its split (bit
        // 62 set), in buckets 1 and 2 only: the old segment packed them
        // with displacement, which the new segment's plain balanced
        // inserts cannot always match. Search key ranges for one whose
        // move spills into a chain node.
        let geom = SegGeom::from_cfg(&small_cfg());
        let moving = |h: u64| h >> 62 == 0b01 && matches!(geom.bucket_index(h), 1 | 2);
        for attempt in 0..256u64 {
            let pool = PmemPool::create(PoolConfig::with_size(4 << 20)).unwrap();
            let t = Arc::new(DashEh::<u64>::create(pool.clone(), small_cfg()).unwrap());
            let filler = fill_all_but_split(&pool, &t);
            let mut acked = Vec::new();
            for k in keys_where(attempt << 32, moving) {
                let r = t.insert(&k, k ^ 7);
                if t.split_count() > 0 {
                    break; // this range split without a chain node
                }
                if r.is_ok() {
                    acked.push(k);
                    continue;
                }
                assert!(is_pool_full(&r), "split must report the pool error, got {r:?}");
                free_filler(&pool, filler);
                within_deadline(move || {
                    for a in &acked {
                        assert_eq!(t.get(a), Some(a ^ 7), "key {a} lost by the failed split");
                    }
                    t.insert(&k, k ^ 7).unwrap();
                    assert_eq!(t.split_count(), 1);
                    assert_eq!(t.get(&k), Some(k ^ 7));
                });
                return;
            }
        }
        panic!("no key range forced a chain node during a split");
    }

    /// The same for a merge: draining B into S needs a chain node, so the
    /// merge reports the pool error and is rolled back, and a later merge
    /// goes through.
    #[test]
    fn merge_into_full_pool_rolls_back() {
        let pool = PmemPool::create(PoolConfig::with_size(4 << 20)).unwrap();
        let t = Arc::new(DashEh::<u64>::create(pool.clone(), small_cfg()).unwrap());
        let geom = t.geom;
        // 4 buckets' worth of bucket-0 keys fill S's bucket 0, its probing
        // bucket and both stash buckets; B's bucket-0 keys cannot follow
        // without a chain node.
        let s_keys = keys_where(0, |h| h >> 63 == 0 && geom.bucket_index(h) == 0);
        let b_keys = keys_where(0, |h| h >> 63 == 1 && geom.bucket_index(h) == 0);
        let keys: Vec<u64> = s_keys.take(4 * crate::BUCKET_SLOTS).chain(b_keys.take(10)).collect();
        for k in &keys {
            t.insert(k, k ^ 7).unwrap();
        }
        assert_eq!((t.split_count(), t.segment_count()), (0, 2));
        let filler = fill_pool(&pool);
        let r = t.try_merge(t.locate(0));
        assert!(is_pool_full(&r), "merge must report the pool error, got {r:?}");
        assert_eq!(t.merge_count(), 0);
        free_filler(&pool, filler);
        within_deadline(move || {
            for k in &keys {
                assert_eq!(t.get(k), Some(k ^ 7), "key {k} lost by the failed merge");
            }
            assert!(t.try_merge(t.locate(0)).unwrap(), "the retried merge must complete");
            assert_eq!(t.segment_count(), 1);
            for k in &keys {
                assert_eq!(t.get(k), Some(k ^ 7), "key {k} lost by the merge");
            }
            let fresh = keys_where(1 << 32, |h| geom.bucket_index(h) == 2).next().unwrap();
            t.insert(&fresh, 1).unwrap();
            assert_eq!(t.get(&fresh), Some(1));
        });
    }
}
