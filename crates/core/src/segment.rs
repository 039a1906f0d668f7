//! Segments (§4.1): a 64-byte header, `2^bucket_bits` normal buckets, a
//! fixed number of stash buckets, and (Dash-LH only) a chain of overflow
//! stash nodes. All record-level operation logic — Algorithm 1 (insert
//! with bucket load balancing), Algorithm 3 (optimistic search), deletes,
//! rehashing for SMOs, and the common parts of lazy recovery (§4.8) — is
//! implemented here and shared by Dash-EH and Dash-LH.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

use dash_common::{Key, TableResult};
use pmem::{PmOffset, PmemPool};

use crate::bucket::{Bucket, BUCKET_SIZE, SLOTS};
use crate::config::{DashConfig, InsertPolicy, LockMode};

/// Segment SMO states (§4.7).
pub(crate) const STATE_NORMAL: u32 = 0;
pub(crate) const STATE_SPLITTING: u32 = 1;
pub(crate) const STATE_NEW: u32 = 2;
pub(crate) const STATE_MERGING: u32 = 3;

/// Dash-LH "level not assigned yet" marker for freshly allocated buddy
/// segments.
pub(crate) const LH_LEVEL_UNSET: u32 = u32::MAX;

pub(crate) const SEG_HEADER_SIZE: usize = 64;

/// Bits of the hash consumed by the in-bucket fingerprint (§4.2: the least
/// significant byte).
pub(crate) const FP_BITS: u32 = 8;

/// Persistent per-segment header.
#[repr(C, align(64))]
pub(crate) struct SegmentHeader {
    pub state: AtomicU32,
    /// Dash-EH local depth (§2.2).
    pub local_depth: AtomicU32,
    /// Dash-EH: the hash prefix this segment covers (local_depth MSBs).
    /// Dash-LH: the segment's index.
    pub pattern: AtomicU64,
    /// Right-neighbour chain used for split recovery (§4.7).
    pub side_link: AtomicU64,
    /// The segment we were split off from / merged into (recovery).
    pub back_link: AtomicU64,
    /// Lazy-recovery version byte (§4.8); compared against the pool's
    /// global version V.
    pub rec_version: AtomicU8,
    _pad0: [u8; 3],
    /// Volatile-in-spirit recovery lock (cleared by recovery itself).
    pub rec_lock: AtomicU32,
    /// Dash-LH round level (number of completed splits).
    pub lh_level: AtomicU32,
    _pad1: [u8; 4],
    /// Dash-LH chained stash head.
    pub stash_chain: AtomicU64,
}

const _HDR_SIZE: () = assert!(std::mem::size_of::<SegmentHeader>() == SEG_HEADER_SIZE);

/// A chained stash node (Dash-LH §5.1): a link word padded to a cacheline,
/// then an ordinary bucket.
#[repr(C, align(64))]
pub(crate) struct StashNode {
    pub next: AtomicU64,
    _pad: [u8; 56],
    pub bucket: Bucket,
}

pub(crate) const STASH_NODE_SIZE: usize = std::mem::size_of::<StashNode>();
const _NODE_SIZE: () = assert!(STASH_NODE_SIZE == 64 + BUCKET_SIZE);

/// Runtime segment geometry (derived from the persisted config).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegGeom {
    pub bucket_bits: u32,
    pub stash: u32,
}

impl SegGeom {
    pub fn from_cfg(cfg: &DashConfig) -> Self {
        SegGeom { bucket_bits: cfg.bucket_bits, stash: cfg.stash_buckets }
    }

    #[inline]
    pub fn normal(&self) -> usize {
        1usize << self.bucket_bits
    }

    #[inline]
    pub fn total(&self) -> usize {
        self.normal() + self.stash as usize
    }

    #[inline]
    pub fn bytes(&self) -> usize {
        SEG_HEADER_SIZE + self.total() * BUCKET_SIZE
    }

    #[inline]
    pub fn bucket_off(&self, seg: PmOffset, i: usize) -> PmOffset {
        debug_assert!(i < self.total());
        seg.add((SEG_HEADER_SIZE + i * BUCKET_SIZE) as u64)
    }

    /// Target bucket index for a hash (bits just above the fingerprint).
    #[inline]
    pub fn bucket_index(&self, h: u64) -> usize {
        ((h >> FP_BITS) as usize) & (self.normal() - 1)
    }

    /// First hash bit above the bucket-index bits; Dash-LH segment
    /// addressing starts here.
    #[inline]
    pub fn seg_shift(&self) -> u32 {
        FP_BITS + self.bucket_bits
    }
}

/// Where a record lives within a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecLoc {
    Normal(usize),
    Stash(usize),
    Chain(PmOffset),
}

pub(crate) enum SegInsert {
    /// `chained` is true when a new chained stash node had to be
    /// allocated (Dash-LH's split trigger, §5.1).
    Inserted { chained: bool },
    Duplicate,
    /// Segment is out of room (Dash-EH splits, §4.7).
    NeedSplit,
    /// Post-lock verification failed; the caller re-resolves the segment.
    Retry,
}

pub(crate) enum SegFind {
    Found(u64),
    NotFound,
    Retry,
}

pub(crate) enum SegMutate {
    Done(u64),
    NotFound,
    Retry,
}

/// A borrowed view of one segment.
#[derive(Clone, Copy)]
pub(crate) struct SegView<'a> {
    pub pool: &'a PmemPool,
    pub off: PmOffset,
    pub geom: SegGeom,
}

impl<'a> SegView<'a> {
    pub fn new(pool: &'a PmemPool, off: PmOffset, geom: SegGeom) -> Self {
        SegView { pool, off, geom }
    }

    #[inline]
    pub fn header(&self) -> &'a SegmentHeader {
        // SAFETY: `off` designates a live segment of `geom.bytes()` bytes.
        unsafe { self.pool.at_ref::<SegmentHeader>(self.off) }
    }

    #[inline]
    pub fn bucket(&self, i: usize) -> &'a Bucket {
        // SAFETY: bucket `i` lies within the segment (asserted by geom).
        unsafe { self.pool.at_ref::<Bucket>(self.geom.bucket_off(self.off, i)) }
    }

    #[inline]
    pub fn bucket_off(&self, i: usize) -> PmOffset {
        self.geom.bucket_off(self.off, i)
    }

    /// Stash bucket `j` (index within the stash area).
    #[inline]
    pub fn stash(&self, j: usize) -> &'a Bucket {
        self.bucket(self.geom.normal() + j)
    }

    #[inline]
    pub fn stash_off(&self, j: usize) -> PmOffset {
        self.bucket_off(self.geom.normal() + j)
    }

    fn node(&self, off: PmOffset) -> &'a StashNode {
        // SAFETY: chain nodes are allocated as StashNode blocks.
        unsafe { self.pool.at_ref::<StashNode>(off) }
    }

    /// Initialize a fresh (or recycled) segment and persist it wholesale.
    #[allow(clippy::too_many_arguments)]
    pub fn init(
        &self,
        state: u32,
        local_depth: u32,
        pattern: u64,
        side_link: PmOffset,
        back_link: PmOffset,
        rec_version: u8,
        lh_level: u32,
    ) {
        self.pool.zero(self.off, self.geom.bytes());
        let h = self.header();
        h.state.store(state, Ordering::Relaxed);
        h.local_depth.store(local_depth, Ordering::Relaxed);
        h.pattern.store(pattern, Ordering::Relaxed);
        h.side_link.store(side_link.get(), Ordering::Relaxed);
        h.back_link.store(back_link.get(), Ordering::Relaxed);
        h.rec_version.store(rec_version, Ordering::Relaxed);
        h.lh_level.store(lh_level, Ordering::Relaxed);
        h.stash_chain.store(0, Ordering::Relaxed);
        self.pool.flush(self.off, self.geom.bytes());
        self.pool.fence();
    }

    // ---- writer lock helpers (mode-aware) ------------------------------

    fn writer_lock(&self, b: &Bucket, mode: LockMode) {
        match mode {
            LockMode::Optimistic => b.lock(),
            LockMode::Pessimistic => b.write_lock_pessimistic(),
        }
    }

    fn writer_try_lock(&self, b: &Bucket, mode: LockMode) -> bool {
        match mode {
            LockMode::Optimistic => b.try_lock(),
            LockMode::Pessimistic => b.try_lock(),
        }
    }

    fn writer_unlock(&self, b: &Bucket, mode: LockMode) {
        match mode {
            LockMode::Optimistic => b.unlock(),
            LockMode::Pessimistic => b.write_unlock_pessimistic(),
        }
    }

    /// Lock every bucket (normal + fixed stash) in index order; SMOs use
    /// this in lieu of a segment lock (§4.4). Once held, the chained
    /// stash is quiescent too: every mutator holds a normal-bucket lock.
    pub fn lock_all(&self, mode: LockMode) {
        for i in 0..self.geom.total() {
            self.writer_lock(self.bucket(i), mode);
        }
    }

    pub fn unlock_all(&self, mode: LockMode) {
        for i in 0..self.geom.total() {
            self.writer_unlock(self.bucket(i), mode);
        }
    }

    // ---- insert (Algorithm 1) ------------------------------------------

    /// Insert under bucket locks. `verify` runs after the locks are taken
    /// and must confirm the caller's directory resolution still holds.
    /// `allow_chain` enables Dash-LH's chained stash.
    #[allow(clippy::too_many_arguments)]
    pub fn insert<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        key_repr: u64,
        value: u64,
        allow_chain: bool,
        verify: impl Fn() -> bool,
    ) -> TableResult<SegInsert> {
        let n = self.geom.normal();
        let y = self.geom.bucket_index(h);
        let p = if cfg.insert_policy >= InsertPolicy::Probing { (y + 1) & (n - 1) } else { y };
        let fp = h as u8;
        let mode = cfg.lock_mode;

        // Lock in index order so concurrent pairs can't deadlock.
        let (lo, hi) = (y.min(p), y.max(p));
        self.writer_lock(self.bucket(lo), mode);
        if hi != lo {
            self.writer_lock(self.bucket(hi), mode);
        }
        let unlock = |view: &Self| {
            view.writer_unlock(view.bucket(lo), mode);
            if hi != lo {
                view.writer_unlock(view.bucket(hi), mode);
            }
        };

        if !verify() {
            unlock(self);
            return Ok(SegInsert::Retry);
        }

        // Uniqueness check (fingerprint-accelerated, §4.2).
        if self.contains_locked(cfg, h, key, y, p) {
            unlock(self);
            return Ok(SegInsert::Duplicate);
        }

        let tb = self.bucket(y);
        let pb = self.bucket(p);
        let use_fp = cfg.fingerprints;

        // 1. Balanced insert (or plain probing below Balanced).
        let choice = match cfg.insert_policy {
            InsertPolicy::Bucketized => {
                if tb.is_full() {
                    None
                } else {
                    Some(y)
                }
            }
            InsertPolicy::Probing => {
                if !tb.is_full() {
                    Some(y)
                } else if !pb.is_full() {
                    Some(p)
                } else {
                    None
                }
            }
            _ => {
                // Balanced: pick the less-full bucket (ties go to target).
                if !tb.is_full() && (tb.count() <= pb.count() || pb.is_full()) {
                    Some(y)
                } else if !pb.is_full() {
                    Some(p)
                } else {
                    None
                }
            }
        };
        if let Some(b) = choice {
            let member = b != y;
            let dst = self.bucket(b);
            dst.insert_record(self.pool, self.bucket_off(b), key_repr, value, fp, member, use_fp)
                .expect("bucket had a free slot under lock");
            unlock(self);
            return Ok(SegInsert::Inserted { chained: false });
        }

        // 2. Displacement (§4.3 / Algorithm 2).
        if cfg.insert_policy >= InsertPolicy::Displacement && n > 2 {
            if let Some(done) = self.try_displace(cfg, y, p, key_repr, value, fp) {
                unlock(self);
                return Ok(done);
            }
        }

        // 3. Stashing.
        if cfg.insert_policy >= InsertPolicy::Stash && self.geom.stash > 0 {
            match self.stash_insert(cfg, y, p, key_repr, value, fp, allow_chain) {
                Ok(None) => {}
                stashed => {
                    unlock(self);
                    return stashed.map(|res| res.expect("stashed"));
                }
            }
        }

        unlock(self);
        Ok(SegInsert::NeedSplit)
    }

    /// Displacement: move a record out of `p` to `p+1`, or out of `y` to
    /// `y-1`, to free a slot for the new record. Third-bucket locks are
    /// try-locks, keeping the global lock order acyclic.
    fn try_displace(
        &self,
        cfg: &DashConfig,
        y: usize,
        p: usize,
        key_repr: u64,
        value: u64,
        fp: u8,
    ) -> Option<SegInsert> {
        let n = self.geom.normal();
        let use_fp = cfg.fingerprints;
        let mode = cfg.lock_mode;

        // Forward: a record in p whose target is p can move to p+1.
        let fwd = (p + 1) & (n - 1);
        if fwd != y && fwd != p {
            let pb = self.bucket(p);
            if let Some(slot) = pb.displace_candidate(false) {
                let dst = self.bucket(fwd);
                if self.writer_try_lock(dst, mode) {
                    if !dst.is_full() {
                        let (k, v) = pb.record(slot);
                        let f = pb.slot_fp(slot);
                        dst.insert_record(self.pool, self.bucket_off(fwd), k, v, f, true, use_fp)
                            .expect("checked free");
                        pb.delete_slot(self.pool, self.bucket_off(p), slot);
                        self.writer_unlock(dst, mode);
                        pb.insert_record(self.pool, self.bucket_off(p), key_repr, value, fp, p != y, use_fp)
                            .expect("slot just freed");
                        return Some(SegInsert::Inserted { chained: false });
                    }
                    self.writer_unlock(dst, mode);
                }
            }
        }

        // Backward: a record in y whose target is y-1 can move home.
        let bwd = (y + n - 1) & (n - 1);
        if bwd != p && bwd != y {
            let tb = self.bucket(y);
            if let Some(slot) = tb.displace_candidate(true) {
                let dst = self.bucket(bwd);
                if self.writer_try_lock(dst, mode) {
                    if !dst.is_full() {
                        let (k, v) = tb.record(slot);
                        let f = tb.slot_fp(slot);
                        dst.insert_record(self.pool, self.bucket_off(bwd), k, v, f, false, use_fp)
                            .expect("checked free");
                        tb.delete_slot(self.pool, self.bucket_off(y), slot);
                        self.writer_unlock(dst, mode);
                        tb.insert_record(self.pool, self.bucket_off(y), key_repr, value, fp, false, use_fp)
                            .expect("slot just freed");
                        return Some(SegInsert::Inserted { chained: false });
                    }
                    self.writer_unlock(dst, mode);
                }
            }
        }
        None
    }

    /// Insert into the stash area: fixed stash buckets first, then (LH)
    /// the chain, growing it if needed. Registers overflow metadata in the
    /// target/probing bucket (§4.3).
    #[allow(clippy::too_many_arguments)]
    fn stash_insert(
        &self,
        cfg: &DashConfig,
        y: usize,
        p: usize,
        key_repr: u64,
        value: u64,
        fp: u8,
        allow_chain: bool,
    ) -> TableResult<Option<SegInsert>> {
        let use_fp = cfg.fingerprints;
        let mode = cfg.lock_mode;
        let stash_count = self.geom.stash as usize;
        for j in 0..stash_count {
            let sb = self.stash(j);
            self.writer_lock(sb, mode);
            if sb
                .insert_record(self.pool, self.stash_off(j), key_repr, value, fp, false, use_fp)
                .is_some()
            {
                self.writer_unlock(sb, mode);
                if cfg.overflow_metadata {
                    self.ovf_register(fp, j, y, p);
                }
                return Ok(Some(SegInsert::Inserted { chained: false }));
            }
            self.writer_unlock(sb, mode);
        }
        if !allow_chain {
            return Ok(None);
        }
        // Chained stash: hand-over-hand from the last fixed stash bucket,
        // so appends are serialized by the lock of the link's owner.
        debug_assert!(stash_count > 0, "chaining requires at least one stash bucket");
        let anchor = self.stash(stash_count - 1);
        self.writer_lock(anchor, mode);
        let mut link_holder: &Bucket = anchor; // lock guarding the link we may append to
        let mut link: &AtomicU64 = &self.header().stash_chain;
        let mut link_off = self.pool.offset_of(link);
        loop {
            let next = PmOffset::new(link.load(Ordering::Acquire));
            if next.is_null() {
                let appended = self.append_node(link_off, key_repr, value, fp, use_fp);
                self.writer_unlock(link_holder, mode);
                appended?;
                if cfg.overflow_metadata {
                    self.bucket(y).ovf_count_inc();
                }
                return Ok(Some(SegInsert::Inserted { chained: true }));
            }
            let node = self.node(next);
            self.writer_lock(&node.bucket, mode);
            self.writer_unlock(link_holder, mode);
            if node
                .bucket
                .insert_record(self.pool, next.add(64), key_repr, value, fp, false, use_fp)
                .is_some()
            {
                self.writer_unlock(&node.bucket, mode);
                if cfg.overflow_metadata {
                    self.bucket(y).ovf_count_inc();
                }
                return Ok(Some(SegInsert::Inserted { chained: false }));
            }
            link_holder = &node.bucket;
            link = &node.next;
            link_off = next; // `next` field is at node offset 0
        }
    }

    /// Append a chain node holding one record behind the link word at
    /// `link_off` (crash-safe allocate–activate with the link word as
    /// owner slot). Fails, leaving the chain as it was, when the pool
    /// cannot supply the node.
    fn append_node(
        &self,
        link_off: PmOffset,
        key_repr: u64,
        value: u64,
        fp: u8,
        use_fp: bool,
    ) -> TableResult<()> {
        let ticket = self.pool.prepare_alloc(STASH_NODE_SIZE, link_off)?;
        let node_off = ticket.block;
        self.pool.zero(node_off, STASH_NODE_SIZE);
        self.pool.flush(node_off, STASH_NODE_SIZE);
        self.pool.fence();
        self.pool.commit_alloc(ticket);
        self.node(node_off)
            .bucket
            .insert_record(self.pool, node_off.add(64), key_repr, value, fp, false, use_fp)
            .expect("fresh node has room");
        Ok(())
    }

    /// Register a record in fixed stash bucket `j` with the overflow
    /// metadata of its target `y` or probing bucket `p`, falling back to
    /// the target's overflow counter (§4.3).
    fn ovf_register(&self, fp: u8, j: usize, y: usize, p: usize) {
        if !self.bucket(y).ovf_try_set(fp, j, false) && !self.bucket(p).ovf_try_set(fp, j, true) {
            self.bucket(y).ovf_count_inc();
        }
    }

    /// Uniqueness check with target + probing bucket locks held.
    fn contains_locked<K: Key>(&self, cfg: &DashConfig, h: u64, key: &K, y: usize, p: usize) -> bool {
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        if self.bucket(y).search_key(self.pool, fp, key, use_fp).is_some() {
            return true;
        }
        if p != y && self.bucket(p).search_key(self.pool, fp, key, use_fp).is_some() {
            return true;
        }
        self.stash_lookup(cfg, h, key, y, p).is_some()
    }

    /// Probe the stash area, consulting overflow metadata to skip it when
    /// possible (§4.3). Returns the record's location and value.
    fn stash_lookup<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        y: usize,
        p: usize,
    ) -> Option<(RecLoc, usize, u64)> {
        if self.geom.stash == 0 && self.header().stash_chain.load(Ordering::Acquire) == 0 {
            return None;
        }
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        if cfg.overflow_metadata {
            let tb = self.bucket(y);
            let pb = self.bucket(p);
            if tb.ovf_count() == 0 && pb.ovf_count() == 0 {
                // Probe only the stash buckets the fingerprints point at.
                let mut hinted = false;
                let mut m = tb.ovf_matches(fp);
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if tb.ovf_slot_member(j) {
                        continue;
                    }
                    hinted = true;
                    let idx = tb.ovf_slot_stash_idx(j);
                    if idx < self.geom.stash as usize {
                        if let Some((slot, v)) = self.stash(idx).search_key(self.pool, fp, key, use_fp) {
                            return Some((RecLoc::Stash(idx), slot, v));
                        }
                    }
                }
                let mut m = pb.ovf_matches(fp);
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if !pb.ovf_slot_member(j) {
                        continue;
                    }
                    hinted = true;
                    let idx = pb.ovf_slot_stash_idx(j);
                    if idx < self.geom.stash as usize {
                        if let Some((slot, v)) = self.stash(idx).search_key(self.pool, fp, key, use_fp) {
                            return Some((RecLoc::Stash(idx), slot, v));
                        }
                    }
                }
                if !hinted {
                    // No matching overflow fingerprint and no overflow
                    // counter: the key is definitely not stashed.
                    return None;
                }
                // A hint matched but the pointed bucket missed (stale or
                // colliding hint): fall through to the exhaustive scan so
                // hints can never cause a false negative.
            }
        }
        self.stash_scan(cfg, fp, key)
    }

    /// Exhaustive scan of fixed stash buckets and the chain.
    fn stash_scan<K: Key>(&self, cfg: &DashConfig, fp: u8, key: &K) -> Option<(RecLoc, usize, u64)> {
        let use_fp = cfg.fingerprints;
        for j in 0..self.geom.stash as usize {
            if let Some((slot, v)) = self.stash(j).search_key(self.pool, fp, key, use_fp) {
                return Some((RecLoc::Stash(j), slot, v));
            }
        }
        let mut cur = PmOffset::new(self.header().stash_chain.load(Ordering::Acquire));
        while !cur.is_null() {
            let node = self.node(cur);
            if let Some((slot, v)) = node.bucket.search_key(self.pool, fp, key, use_fp) {
                return Some((RecLoc::Chain(cur), slot, v));
            }
            cur = PmOffset::new(node.next.load(Ordering::Acquire));
        }
        None
    }

    // ---- search (Algorithm 3) ------------------------------------------

    pub fn search<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        verify: impl Fn() -> bool,
    ) -> SegFind {
        match cfg.lock_mode {
            LockMode::Optimistic => self.search_optimistic(cfg, h, key, verify),
            LockMode::Pessimistic => self.search_pessimistic(cfg, h, key, verify),
        }
    }

    fn search_optimistic<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        verify: impl Fn() -> bool,
    ) -> SegFind {
        let n = self.geom.normal();
        let y = self.geom.bucket_index(h);
        let p = (y + 1) & (n - 1);
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        let tb = self.bucket(y);
        let pb = self.bucket(p);

        // Snapshot versions, then re-verify the segment resolution.
        let vt = tb.version();
        let vp = pb.version();
        if !verify() {
            return SegFind::Retry;
        }
        if Bucket::is_locked(vt) || Bucket::is_locked(vp) {
            return SegFind::Retry;
        }

        if let Some((_, v)) = tb.search_key(self.pool, fp, key, use_fp) {
            if tb.version() != vt {
                return SegFind::Retry;
            }
            return SegFind::Found(v);
        }
        if tb.version() != vt {
            return SegFind::Retry;
        }
        if p != y {
            if let Some((_, v)) = pb.search_key(self.pool, fp, key, use_fp) {
                if pb.version() != vp {
                    return SegFind::Retry;
                }
                return SegFind::Found(v);
            }
            if pb.version() != vp {
                return SegFind::Retry;
            }
        }

        match self.stash_lookup(cfg, h, key, y, p) {
            Some((_, _, v)) => SegFind::Found(v),
            None => {
                // The paper omits version checks on the stash path; we add
                // one cheap re-validation so a concurrent SMO (which locks
                // every bucket and therefore bumps versions) cannot cause
                // a false NotFound for a key it is relocating.
                if tb.version() != vt {
                    return SegFind::Retry;
                }
                SegFind::NotFound
            }
        }
    }

    fn search_pessimistic<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        verify: impl Fn() -> bool,
    ) -> SegFind {
        let n = self.geom.normal();
        let y = self.geom.bucket_index(h);
        let p = (y + 1) & (n - 1);
        let tb = self.bucket(y);
        let pb = self.bucket(p);
        tb.read_lock(self.pool);
        if p != y {
            pb.read_lock(self.pool);
        }
        let unlock = |view: &Self| {
            tb.read_unlock(view.pool);
            if p != y {
                pb.read_unlock(view.pool);
            }
        };
        if !verify() {
            unlock(self);
            return SegFind::Retry;
        }
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        let found = tb
            .search_key(self.pool, fp, key, use_fp)
            .or_else(|| if p != y { pb.search_key(self.pool, fp, key, use_fp) } else { None })
            .map(|(_, v)| v)
            .or_else(|| self.stash_lookup(cfg, h, key, y, p).map(|(_, _, v)| v));
        unlock(self);
        match found {
            Some(v) => SegFind::Found(v),
            None => SegFind::NotFound,
        }
    }

    // ---- delete / update -------------------------------------------------

    /// Remove a record. Returns the removed key representation so callers
    /// can release out-of-line key storage.
    pub fn remove<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        verify: impl Fn() -> bool,
    ) -> SegMutate {
        self.mutate(cfg, h, key, verify, |view, loc, slot| {
            let (bucket, off): (&Bucket, PmOffset) = match loc {
                RecLoc::Normal(i) => (view.bucket(i), view.bucket_off(i)),
                RecLoc::Stash(j) => (view.stash(j), view.stash_off(j)),
                RecLoc::Chain(n) => (&view.node(n).bucket, n.add(64)),
            };
            let (key_repr, _) = bucket.record(slot);
            bucket.delete_slot(view.pool, off, slot);
            key_repr
        })
    }

    /// Overwrite a record's value in place (8-byte atomic).
    pub fn update<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        value: u64,
        verify: impl Fn() -> bool,
    ) -> SegMutate {
        self.mutate(cfg, h, key, verify, |view, loc, slot| {
            let (bucket, off): (&Bucket, PmOffset) = match loc {
                RecLoc::Normal(i) => (view.bucket(i), view.bucket_off(i)),
                RecLoc::Stash(j) => (view.stash(j), view.stash_off(j)),
                RecLoc::Chain(n) => (&view.node(n).bucket, n.add(64)),
            };
            bucket.update_value(view.pool, off, slot, value);
            let (key_repr, _) = bucket.record(slot);
            key_repr
        })
    }

    /// Shared locked-mutation skeleton for remove/update: locks target and
    /// probing buckets, verifies, locates the record anywhere in the
    /// segment, applies `apply`, and maintains overflow metadata for
    /// stash-resident deletions.
    fn mutate<K: Key>(
        &self,
        cfg: &DashConfig,
        h: u64,
        key: &K,
        verify: impl Fn() -> bool,
        apply: impl FnOnce(&Self, RecLoc, usize) -> u64,
    ) -> SegMutate {
        let n = self.geom.normal();
        let y = self.geom.bucket_index(h);
        let p = (y + 1) & (n - 1);
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        let mode = cfg.lock_mode;

        let (lo, hi) = (y.min(p), y.max(p));
        self.writer_lock(self.bucket(lo), mode);
        if hi != lo {
            self.writer_lock(self.bucket(hi), mode);
        }
        let unlock = |view: &Self| {
            view.writer_unlock(view.bucket(lo), mode);
            if hi != lo {
                view.writer_unlock(view.bucket(hi), mode);
            }
        };
        if !verify() {
            unlock(self);
            return SegMutate::Retry;
        }

        // Normal buckets first.
        for (loc, idx) in [(RecLoc::Normal(y), y), (RecLoc::Normal(p), p)] {
            if loc == RecLoc::Normal(p) && p == y {
                continue;
            }
            if let Some((slot, _)) = self.bucket(idx).search_key(self.pool, fp, key, use_fp) {
                let repr = apply(self, loc, slot);
                unlock(self);
                return SegMutate::Done(repr);
            }
        }

        // Stash area: lock the owning stash bucket for the mutation.
        if let Some((loc, slot, _)) = self.stash_lookup(cfg, h, key, y, p) {
            let bucket: &Bucket = match loc {
                RecLoc::Stash(j) => self.stash(j),
                RecLoc::Chain(node) => &self.node(node).bucket,
                RecLoc::Normal(_) => unreachable!("stash_lookup only returns stash locations"),
            };
            let _ = slot;
            self.writer_lock(bucket, mode);
            // Re-locate under the lock (it may have moved/been deleted).
            let result = bucket
                .search_key(self.pool, fp, key, use_fp)
                .map(|(slot2, _)| apply(self, loc, slot2));
            self.writer_unlock(bucket, mode);
            match result {
                Some(repr) => {
                    // Maintain overflow metadata for stash deletions: this
                    // runs for updates too but clearing+restoring is not
                    // needed there — apply() for update leaves the record
                    // allocated, so the search below still finds it and we
                    // only clear metadata when it is really gone.
                    if cfg.overflow_metadata
                        && bucket.search_key(self.pool, fp, key, use_fp).is_none()
                    {
                        self.ovf_unregister(fp, y, p, &loc);
                    }
                    unlock(self);
                    SegMutate::Done(repr)
                }
                None => {
                    unlock(self);
                    SegMutate::Retry
                }
            }
        } else {
            unlock(self);
            SegMutate::NotFound
        }
    }

    /// Clear the overflow-fp registration for a record deleted from the
    /// stash (§4.6 delete), falling back to the overflow counter.
    fn ovf_unregister(&self, fp: u8, y: usize, p: usize, loc: &RecLoc) {
        let stash_idx = match loc {
            RecLoc::Stash(j) => Some(*j),
            _ => None,
        };
        let tb = self.bucket(y);
        let mut m = tb.ovf_matches(fp);
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            if !tb.ovf_slot_member(j) && stash_idx.is_none_or(|s| tb.ovf_slot_stash_idx(j) == s) {
                tb.ovf_clear_slot(j);
                return;
            }
        }
        let pb = self.bucket(p);
        let mut m = pb.ovf_matches(fp);
        while m != 0 {
            let j = m.trailing_zeros() as usize;
            m &= m - 1;
            if pb.ovf_slot_member(j) && stash_idx.is_none_or(|s| pb.ovf_slot_stash_idx(j) == s) {
                pb.ovf_clear_slot(j);
                return;
            }
        }
        if tb.ovf_count() > 0 {
            tb.ovf_count_dec();
        }
    }

    // ---- unlocked operations (SMOs & recovery hold all locks) -----------

    /// Insert without locking or uniqueness checks; used by rehashing and
    /// recovery, which own the whole segment.
    pub fn insert_unlocked(
        &self,
        cfg: &DashConfig,
        h: u64,
        key_repr: u64,
        value: u64,
        allow_chain: bool,
    ) -> TableResult<bool> {
        let n = self.geom.normal();
        let y = self.geom.bucket_index(h);
        let p = if cfg.insert_policy >= InsertPolicy::Probing { (y + 1) & (n - 1) } else { y };
        let fp = h as u8;
        let use_fp = cfg.fingerprints;
        let tb = self.bucket(y);
        let pb = self.bucket(p);

        let choice = if !tb.is_full() && (tb.count() <= pb.count() || pb.is_full()) {
            Some(y)
        } else if p != y && !pb.is_full() {
            Some(p)
        } else {
            None
        };
        if let Some(b) = choice {
            self.bucket(b)
                .insert_record(self.pool, self.bucket_off(b), key_repr, value, fp, b != y, use_fp)
                .expect("free slot");
            return Ok(true);
        }
        if cfg.insert_policy >= InsertPolicy::Stash {
            for j in 0..self.geom.stash as usize {
                if self
                    .stash(j)
                    .insert_record(self.pool, self.stash_off(j), key_repr, value, fp, false, use_fp)
                    .is_some()
                {
                    if cfg.overflow_metadata {
                        self.ovf_register(fp, j, y, p);
                    }
                    return Ok(true);
                }
            }
            if allow_chain && self.geom.stash > 0 {
                let mut link: &AtomicU64 = &self.header().stash_chain;
                let mut link_off = self.pool.offset_of(link);
                loop {
                    let next = PmOffset::new(link.load(Ordering::Acquire));
                    if next.is_null() {
                        self.append_node(link_off, key_repr, value, fp, use_fp)?;
                        if cfg.overflow_metadata {
                            tb.ovf_count_inc();
                        }
                        return Ok(true);
                    }
                    let node = self.node(next);
                    if node
                        .bucket
                        .insert_record(self.pool, next.add(64), key_repr, value, fp, false, use_fp)
                        .is_some()
                    {
                        if cfg.overflow_metadata {
                            tb.ovf_count_inc();
                        }
                        return Ok(true);
                    }
                    link = &node.next;
                    link_off = next;
                }
            }
        }
        Ok(false)
    }

    /// Visit every record `(location, slot, key_repr, value)`.
    pub fn for_each_record(&self, mut f: impl FnMut(RecLoc, usize, u64, u64)) {
        for i in 0..self.geom.total() {
            let b = self.bucket(i);
            let mut alloc = b.alloc_mask();
            while alloc != 0 {
                let slot = alloc.trailing_zeros() as usize;
                alloc &= alloc - 1;
                let (k, v) = b.record(slot);
                let loc = if i < self.geom.normal() {
                    RecLoc::Normal(i)
                } else {
                    RecLoc::Stash(i - self.geom.normal())
                };
                f(loc, slot, k, v);
            }
        }
        let mut cur = PmOffset::new(self.header().stash_chain.load(Ordering::Acquire));
        while !cur.is_null() {
            let node = self.node(cur);
            let mut alloc = node.bucket.alloc_mask();
            while alloc != 0 {
                let slot = alloc.trailing_zeros() as usize;
                alloc &= alloc - 1;
                let (k, v) = node.bucket.record(slot);
                f(RecLoc::Chain(cur), slot, k, v);
            }
            cur = PmOffset::new(node.next.load(Ordering::Acquire));
        }
    }

    /// Point-snapshot of every record in the segment, for scans.
    ///
    /// Optimistic protocol: capture every fixed bucket's version, run
    /// `verify` (the caller's check that its resolution of this segment
    /// still holds), walk the records, then re-validate the versions.
    /// Every mutation path in a segment — insert, remove, update,
    /// displacement, SMO rehash, chained-stash append — takes at least
    /// one fixed-bucket writer lock first, so an unchanged version set
    /// proves the walk saw an atomic state. After a few failed attempts
    /// (a write-hot segment) it falls back to locking every bucket, which
    /// is the same exclusion SMOs use and cannot starve.
    ///
    /// Returns `None` when `verify` fails: the segment no longer is what
    /// the caller resolved (split/merge republished it) — re-resolve and
    /// retry.
    pub fn snapshot_records(
        &self,
        mode: LockMode,
        verify: impl Fn() -> bool,
    ) -> Option<Vec<(u64, u64)>> {
        const OPTIMISTIC_ATTEMPTS: usize = 8;
        let total = self.geom.total();
        let mut versions = Vec::with_capacity(total);
        'attempt: for _ in 0..OPTIMISTIC_ATTEMPTS {
            versions.clear();
            for i in 0..total {
                let v = self.bucket(i).version();
                if Bucket::is_locked(v) {
                    std::hint::spin_loop();
                    continue 'attempt;
                }
                versions.push(v);
            }
            if !verify() {
                return None;
            }
            let mut out = Vec::new();
            self.for_each_record(|_, _, k, v| out.push((k, v)));
            if (0..total).all(|i| self.bucket(i).version() == versions[i]) {
                return Some(out);
            }
        }
        // Contended: take every bucket lock (writers quiesce, §4.4).
        self.lock_all(mode);
        if !verify() {
            self.unlock_all(mode);
            return None;
        }
        let mut out = Vec::new();
        self.for_each_record(|_, _, k, v| out.push((k, v)));
        self.unlock_all(mode);
        Some(out)
    }

    /// Delete a record found by `for_each_record` (SMO context).
    pub fn delete_at(&self, loc: RecLoc, slot: usize) {
        match loc {
            RecLoc::Normal(i) => self.bucket(i).delete_slot(self.pool, self.bucket_off(i), slot),
            RecLoc::Stash(j) => self.stash(j).delete_slot(self.pool, self.stash_off(j), slot),
            RecLoc::Chain(n) => self.node(n).bucket.delete_slot(self.pool, n.add(64), slot),
        }
    }

    pub fn count_records(&self) -> u64 {
        let mut n = 0;
        self.for_each_record(|_, _, _, _| n += 1);
        n
    }

    /// Record slots in this segment (fixed area + chain), for load factor.
    pub fn capacity_slots(&self) -> u64 {
        let mut slots = (self.geom.total() * SLOTS) as u64;
        let mut cur = PmOffset::new(self.header().stash_chain.load(Ordering::Acquire));
        while !cur.is_null() {
            slots += SLOTS as u64;
            cur = PmOffset::new(self.node(cur).next.load(Ordering::Acquire));
        }
        slots
    }

    /// Unlink and free chain nodes emptied by a rehash (all locks held).
    pub fn prune_chain(&self) {
        let mut link: &AtomicU64 = &self.header().stash_chain;
        let mut link_off = self.pool.offset_of(link);
        let mut cur = PmOffset::new(link.load(Ordering::Acquire));
        while !cur.is_null() {
            let node = self.node(cur);
            let next = PmOffset::new(node.next.load(Ordering::Acquire));
            if node.bucket.alloc_mask() == 0 {
                link.store(next.get(), Ordering::Release);
                self.pool.persist(link_off, 8);
                self.pool.defer_free(cur, STASH_NODE_SIZE);
                cur = next;
            } else {
                link = &node.next;
                link_off = cur;
                cur = next;
            }
        }
    }

    // ---- lazy recovery building blocks (§4.8) ---------------------------

    /// Step 1: clear all bucket locks (crashed holders).
    ///
    /// Every lazy-recovery pass begins here, and the pass as a whole reads
    /// the entire segment from PM (steps 2–3 revisit the same, by then
    /// cache-resident, blocks). That full-segment scan is metered here, one
    /// block read per bucket — it is precisely this traffic that depresses
    /// throughput right after restart (fig. 14).
    pub fn clear_all_locks(&self) {
        for i in 0..self.geom.total() {
            self.pool.note_pm_read(BUCKET_SIZE);
            self.bucket(i).force_clear_lock();
        }
        let mut cur = PmOffset::new(self.header().stash_chain.load(Ordering::Acquire));
        while !cur.is_null() {
            self.pool.note_pm_read(BUCKET_SIZE);
            let node = self.node(cur);
            node.bucket.force_clear_lock();
            cur = PmOffset::new(node.next.load(Ordering::Acquire));
        }
    }

    /// Step 2: remove duplicate records left by a crashed displacement
    /// (the record was copied to its destination but not yet deleted from
    /// its source). Duplicates always sit in adjacent buckets with the
    /// copy in bucket `i` carrying membership 0 and the copy in `i+1`
    /// carrying membership 1; fingerprints pre-filter the comparison.
    pub fn dedup_displaced(&self) {
        let n = self.geom.normal();
        if n < 2 {
            return;
        }
        for i in 0..n {
            let a = self.bucket(i);
            let b = self.bucket((i + 1) & (n - 1));
            let mut ma = a.alloc_mask() & !a.member_mask();
            while ma != 0 {
                let sa = ma.trailing_zeros() as usize;
                ma &= ma - 1;
                let (ka, _) = a.record(sa);
                let fa = a.slot_fp(sa);
                let mut mb = b.alloc_mask() & b.member_mask();
                while mb != 0 {
                    let sb = mb.trailing_zeros() as usize;
                    mb &= mb - 1;
                    if b.slot_fp(sb) == fa {
                        let (kb, _) = b.record(sb);
                        if kb == ka {
                            b.delete_slot(self.pool, self.bucket_off((i + 1) & (n - 1)), sb);
                        }
                    }
                }
            }
        }
    }

    /// Step 3: rebuild overflow metadata from the stash contents (it is
    /// never persisted, §4.6).
    pub fn rebuild_overflow<K: Key>(&self, cfg: &DashConfig) {
        for i in 0..self.geom.normal() {
            self.bucket(i).clear_ovf_all();
        }
        if !cfg.overflow_metadata {
            return;
        }
        let n = self.geom.normal();
        let mut fixed: Vec<(usize, u64)> = Vec::new();
        let mut chained: Vec<u64> = Vec::new();
        self.for_each_record(|loc, _, key_repr, _| match loc {
            RecLoc::Stash(j) => fixed.push((j, key_repr)),
            RecLoc::Chain(_) => chained.push(key_repr),
            RecLoc::Normal(_) => {}
        });
        for (j, key_repr) in fixed {
            let h = K::hash_stored(self.pool, key_repr);
            let fp = h as u8;
            let y = self.geom.bucket_index(h);
            self.ovf_register(fp, j, y, (y + 1) & (n - 1));
        }
        // Chained records are not addressable by the 2-bit stash index:
        // account them via counters so searches scan the chain.
        for key_repr in chained {
            let h = K::hash_stored(self.pool, key_repr);
            self.bucket(self.geom.bucket_index(h)).ovf_count_inc();
        }
    }

    /// Try to take the per-segment recovery lock (§4.8). The lock word is
    /// tagged with the global version: header flushes taken while the
    /// lock is held can persist it into a crash image, so a holder tag
    /// from a *previous* incarnation (different version) is stale and
    /// claimable. (After 255 crashes the version wraps; the wrap path
    /// re-stamps every segment, so a tag collision only costs an extra
    /// recovery pass, never a lost lock.)
    pub fn try_rec_lock(&self, v: u8) -> bool {
        let tag = (u32::from(v) << 1) | 1;
        let cur = self.header().rec_lock.load(Ordering::Acquire);
        if cur == tag {
            return false; // genuinely held by a live thread
        }
        // Free (0) or stale (tag from another incarnation): claim it.
        self.header()
            .rec_lock
            .compare_exchange(cur, tag, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    pub fn rec_unlock(&self) {
        self.header().rec_lock.store(0, Ordering::Release);
    }

    /// Stamp the segment as recovered for global version `v` (persisted).
    pub fn stamp_version(&self, v: u8) {
        let h = self.header();
        h.rec_version.store(v, Ordering::Release);
        self.pool.persist(self.pool.offset_of(&h.rec_version), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PoolConfig;
    use std::sync::Arc;

    fn setup(cfg: &DashConfig) -> (Arc<PmemPool>, PmOffset, SegGeom) {
        let pool = PmemPool::create(PoolConfig::with_size(8 << 20)).unwrap();
        let geom = SegGeom::from_cfg(cfg);
        let off = pool.alloc_zeroed(geom.bytes()).unwrap();
        let view = SegView::new(&pool, off, geom);
        view.init(STATE_NORMAL, 0, 0, PmOffset::NULL, PmOffset::NULL, 1, 0);
        (pool, off, geom)
    }

    fn always() -> impl Fn() -> bool {
        || true
    }

    #[test]
    fn geometry_matches_paper_defaults() {
        let geom = SegGeom::from_cfg(&DashConfig::default());
        assert_eq!(geom.normal(), 64);
        assert_eq!(geom.total(), 66);
        // 16 KB of buckets + header + stash.
        assert_eq!(geom.bytes(), 64 + 66 * 256);
    }

    #[test]
    fn insert_then_search() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let key = 77u64;
        let h = dash_common::hash_u64(key);
        let r = view.insert(&cfg, h, &key, key, 770, false, always()).unwrap();
        assert!(matches!(r, SegInsert::Inserted { chained: false }));
        match view.search(&cfg, h, &key, always()) {
            SegFind::Found(v) => assert_eq!(v, 770),
            _ => panic!("must find"),
        }
        let absent = 78u64;
        let h2 = dash_common::hash_u64(absent);
        assert!(matches!(view.search(&cfg, h2, &absent, always()), SegFind::NotFound));
    }

    #[test]
    fn duplicate_rejected() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let key = 5u64;
        let h = dash_common::hash_u64(key);
        view.insert(&cfg, h, &key, key, 1, false, always()).unwrap();
        let r = view.insert(&cfg, h, &key, key, 2, false, always()).unwrap();
        assert!(matches!(r, SegInsert::Duplicate));
    }

    #[test]
    fn remove_and_update() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let key = 9u64;
        let h = dash_common::hash_u64(key);
        view.insert(&cfg, h, &key, key, 90, false, always()).unwrap();
        assert!(matches!(view.update(&cfg, h, &key, 91, always()), SegMutate::Done(_)));
        match view.search(&cfg, h, &key, always()) {
            SegFind::Found(v) => assert_eq!(v, 91),
            _ => panic!(),
        }
        assert!(matches!(view.remove(&cfg, h, &key, always()), SegMutate::Done(_)));
        assert!(matches!(view.search(&cfg, h, &key, always()), SegFind::NotFound));
        assert!(matches!(view.remove(&cfg, h, &key, always()), SegMutate::NotFound));
    }

    #[test]
    fn fills_far_beyond_one_bucket_with_full_policy() {
        // A tiny 4-bucket segment with 2 stash buckets: balanced insert +
        // displacement + stash must fill far past a single bucket's 14.
        let cfg = DashConfig { bucket_bits: 2, ..Default::default() };
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let mut inserted = 0u64;
        for i in 0..10_000u64 {
            let h = dash_common::hash_u64(i);
            match view.insert(&cfg, h, &i, i, i, false, always()).unwrap() {
                SegInsert::Inserted { .. } => inserted += 1,
                SegInsert::NeedSplit => break,
                _ => panic!("unexpected"),
            }
        }
        let capacity = (geom.total() * SLOTS) as u64;
        assert!(inserted > capacity / 2, "only {inserted}/{capacity}");
        assert_eq!(view.count_records(), inserted);
        // Everything must be findable.
        for i in 0..inserted {
            let h = dash_common::hash_u64(i);
            assert!(
                matches!(view.search(&cfg, h, &i, always()), SegFind::Found(v) if v == i),
                "lost key {i}"
            );
        }
    }

    #[test]
    fn policy_ladder_increases_max_load() {
        let policies = [
            InsertPolicy::Bucketized,
            InsertPolicy::Probing,
            InsertPolicy::Balanced,
            InsertPolicy::Displacement,
            InsertPolicy::Stash,
        ];
        let mut last = 0u64;
        for policy in policies {
            let cfg = DashConfig {
                bucket_bits: 4,
                insert_policy: policy,
                stash_buckets: if policy >= InsertPolicy::Stash { 2 } else { 0 },
                ..Default::default()
            };
            let (pool, off, geom) = setup(&cfg);
            let view = SegView::new(&pool, off, geom);
            let mut inserted = 0u64;
            for i in 0..100_000u64 {
                let h = dash_common::hash_u64(i ^ 0x5555);
                match view.insert(&cfg, h, &i, i, i, false, always()).unwrap() {
                    SegInsert::Inserted { .. } => inserted += 1,
                    SegInsert::NeedSplit => break,
                    _ => panic!(),
                }
            }
            assert!(
                inserted + 2 >= last,
                "policy {policy:?} regressed: {inserted} < {last}"
            );
            last = last.max(inserted);
        }
    }

    #[test]
    fn chained_stash_grows_for_lh() {
        let cfg = DashConfig { bucket_bits: 2, ..Default::default() };
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let mut chained = false;
        let mut count = 0u64;
        for i in 0..2_000u64 {
            let h = dash_common::hash_u64(i);
            match view.insert(&cfg, h, &i, i, i * 2, true, always()).unwrap() {
                SegInsert::Inserted { chained: c } => {
                    count += 1;
                    chained |= c;
                }
                SegInsert::NeedSplit => panic!("chain mode never splits"),
                _ => panic!(),
            }
            if chained {
                break;
            }
        }
        assert!(chained, "chain must eventually grow");
        // Keep inserting into the chain and verify everything is findable.
        for i in count..count + 50 {
            let h = dash_common::hash_u64(i);
            assert!(matches!(
                view.insert(&cfg, h, &i, i, i * 2, true, always()).unwrap(),
                SegInsert::Inserted { .. }
            ));
        }
        for i in 0..count + 50 {
            let h = dash_common::hash_u64(i);
            assert!(
                matches!(view.search(&cfg, h, &i, always()), SegFind::Found(v) if v == i * 2),
                "key {i} lost"
            );
        }
        assert!(view.capacity_slots() > (geom.total() * SLOTS) as u64);
    }

    #[test]
    fn chain_delete_and_prune() {
        let cfg = DashConfig { bucket_bits: 2, ..Default::default() };
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let mut keys = Vec::new();
        for i in 0..1_500u64 {
            let h = dash_common::hash_u64(i);
            if matches!(
                view.insert(&cfg, h, &i, i, i, true, always()).unwrap(),
                SegInsert::Inserted { chained: true }
            ) {
                keys.push(i);
            }
            if view.header().stash_chain.load(Ordering::Relaxed) != 0 && i > 900 {
                break;
            }
        }
        assert_ne!(view.header().stash_chain.load(Ordering::Relaxed), 0);
        let before = view.count_records();
        // Delete everything; chain nodes become empty.
        let total = before;
        let mut removed = 0;
        for i in 0..2_000u64 {
            let h = dash_common::hash_u64(i);
            if matches!(view.remove(&cfg, h, &i, always()), SegMutate::Done(_)) {
                removed += 1;
            }
        }
        assert_eq!(removed, total);
        view.prune_chain();
        assert_eq!(view.header().stash_chain.load(Ordering::Relaxed), 0, "chain pruned");
    }

    #[test]
    fn overflow_metadata_enables_stash_skip() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        // Fill one target bucket region enough to force stash use.
        let mut stashed_any = false;
        let mut i = 0u64;
        while !stashed_any && i < 100_000 {
            let h = dash_common::hash_u64(i);
            view.insert(&cfg, h, &i, i, i, false, always()).unwrap();
            // Detect stash usage by scanning.
            let mut any = false;
            view.for_each_record(|loc, _, _, _| {
                if matches!(loc, RecLoc::Stash(_)) {
                    any = true;
                }
            });
            stashed_any = any;
            i += 1;
        }
        assert!(stashed_any);
        // All inserted keys still findable (some via overflow fps).
        for k in 0..i {
            let h = dash_common::hash_u64(k);
            assert!(matches!(view.search(&cfg, h, &k, always()), SegFind::Found(_)));
        }
    }

    #[test]
    fn dedup_removes_crashed_displacement_copy() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        // Manufacture a duplicate: same key in bucket i (member 0) and
        // i+1 (member 1), as a crashed displacement would leave it.
        let key = 42u64;
        let h = dash_common::hash_u64(key);
        let y = geom.bucket_index(h);
        let fp = h as u8;
        view.bucket(y)
            .insert_record(&pool, view.bucket_off(y), key, 1, fp, false, true)
            .unwrap();
        let p = (y + 1) & (geom.normal() - 1);
        view.bucket(p)
            .insert_record(&pool, view.bucket_off(p), key, 1, fp, true, true)
            .unwrap();
        assert_eq!(view.count_records(), 2);
        view.dedup_displaced();
        assert_eq!(view.count_records(), 1, "one copy must be removed");
        assert!(matches!(view.search(&cfg, h, &key, always()), SegFind::Found(1)));
    }

    #[test]
    fn rebuild_overflow_restores_hints() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        // Insert until some records land in the stash.
        let mut n = 0u64;
        loop {
            let h = dash_common::hash_u64(n);
            view.insert(&cfg, h, &n, n, n, false, always()).unwrap();
            n += 1;
            let mut stashed = 0;
            view.for_each_record(|loc, _, _, _| {
                if matches!(loc, RecLoc::Stash(_)) {
                    stashed += 1;
                }
            });
            if stashed >= 5 || n > 100_000 {
                break;
            }
        }
        // Wipe and rebuild; all keys must remain findable.
        view.rebuild_overflow::<u64>(&cfg);
        for k in 0..n {
            let h = dash_common::hash_u64(k);
            assert!(
                matches!(view.search(&cfg, h, &k, always()), SegFind::Found(v) if v == k),
                "key {k} lost after metadata rebuild"
            );
        }
    }

    #[test]
    fn clear_all_locks_recovers_locked_buckets() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        view.bucket(0).lock();
        view.stash(0).lock();
        view.clear_all_locks();
        assert!(view.bucket(0).try_lock());
        view.bucket(0).unlock();
        assert!(view.stash(0).try_lock());
        view.stash(0).unlock();
    }

    #[test]
    fn verify_failure_retries() {
        let cfg = DashConfig::default();
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        let key = 1u64;
        let h = dash_common::hash_u64(key);
        let r = view.insert(&cfg, h, &key, key, 1, false, || false).unwrap();
        assert!(matches!(r, SegInsert::Retry));
        assert!(matches!(view.search(&cfg, h, &key, || false), SegFind::Retry));
        assert!(matches!(view.remove(&cfg, h, &key, || false), SegMutate::Retry));
    }

    #[test]
    fn pessimistic_mode_operates_correctly() {
        let cfg = DashConfig { lock_mode: LockMode::Pessimistic, ..Default::default() };
        let (pool, off, geom) = setup(&cfg);
        let view = SegView::new(&pool, off, geom);
        for i in 0..100u64 {
            let h = dash_common::hash_u64(i);
            assert!(matches!(
                view.insert(&cfg, h, &i, i, i + 1, false, always()).unwrap(),
                SegInsert::Inserted { .. }
            ));
        }
        let before = pool.stats();
        for i in 0..100u64 {
            let h = dash_common::hash_u64(i);
            assert!(matches!(view.search(&cfg, h, &i, always()), SegFind::Found(v) if v == i + 1));
        }
        let d = pool.stats().since(&before);
        assert!(d.pm_writes >= 200, "read locks must generate PM writes, got {}", d.pm_writes);
    }

    #[test]
    fn fingerprints_reduce_key_loads_for_negative_search() {
        // With fingerprinting, a negative search should compare ~0 keys;
        // without it, every allocated slot in both buckets is compared.
        // We validate behaviourally: both find nothing, and results agree.
        for fps in [true, false] {
            let cfg = DashConfig { fingerprints: fps, ..Default::default() };
            let (pool, off, geom) = setup(&cfg);
            let view = SegView::new(&pool, off, geom);
            for i in 0..500u64 {
                let h = dash_common::hash_u64(i);
                view.insert(&cfg, h, &i, i, i, false, always()).unwrap();
            }
            for i in 1000..1100u64 {
                let h = dash_common::hash_u64(i);
                assert!(matches!(view.search(&cfg, h, &i, always()), SegFind::NotFound));
            }
        }
    }
}
