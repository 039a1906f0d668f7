//! The Dash table protocol, written once for both dynamic hashing schemes.
//!
//! The paper builds Dash-EH (§4) and Dash-LH (§5) from the same blocks:
//! segments of fingerprinted buckets, optimistic bucket locking, load
//! balancing and lazy recovery. [`Dash`] holds everything the two schemes
//! share on top of those blocks — the point-op retry loops, the batched
//! ops, the lazy-recovery skeleton, the record move behind every split and
//! merge, iteration, and the [`PmHashTable`] surface. A [`Scheme`] supplies
//! the rest: how a hash finds its segment, what happens when a segment is
//! full, how a recovered segment finishes an interrupted structural
//! operation (SMO), its scan cursor and its persistent root.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dash_common::{Key, PmHashTable, ScanCursor, ScanPage, TableError, TableResult};
use pmem::{PmError, PmOffset, PmemPool};

use crate::config::DashConfig;
use crate::segment::{
    SegFind, SegGeom, SegInsert, SegMutate, SegView, SegmentHeader, STATE_MERGING, STATE_NEW,
    STATE_NORMAL, STATE_SPLITTING,
};

/// What a dynamic hashing scheme adds to the shared protocol. Sealed: it
/// lives in a private module, so only Dash-EH and Dash-LH implement it.
pub trait Scheme: Sized + Send + Sync {
    /// Display name (`PmHashTable::name`).
    const NAME: &'static str;
    /// Bytes of the persistent root object.
    const ROOT_BYTES: usize;
    /// Whether a full segment grows a stash chain (§5.1) instead of
    /// reporting `SegInsert::NeedSplit`.
    const CHAINS: bool;
    /// Debug builds panic when one lookup retries more often than this (a
    /// livelock guard). A Dash-EH lookup can legitimately wait out a long
    /// split on a loaded machine, so only Dash-LH sets a limit.
    const GET_SPIN_LIMIT: u64 = u64::MAX;

    /// Volatile scheme state for a table configured by `cfg`.
    fn new(cfg: &DashConfig) -> TableResult<Self>;

    /// Lay out a fresh table behind its allocated, zeroed root.
    fn format<K: Key>(t: &Dash<K, Self>) -> TableResult<()>;

    /// Check the root at `root` and read the table's config from it.
    fn read_config(pool: &PmemPool, root: PmOffset) -> TableResult<DashConfig>;

    /// Find the segment for hash `h`, through the lazy-recovery gate.
    /// Returns a route (whatever `still_maps` needs to re-check
    /// the resolution after bucket locks are taken) and the segment.
    fn resolve<K: Key>(t: &Dash<K, Self>, h: u64) -> TableResult<(u64, PmOffset)>;

    /// Does `h` still resolve along `route`?
    fn still_maps<K: Key>(t: &Dash<K, Self>, h: u64, route: u64) -> bool;

    /// The segment for `h` ran out of room: grow the table. Runs after
    /// `SegInsert::NeedSplit` (the insert then retries) or after an
    /// insert had to chain a stash node (the insert is done).
    fn grow<K: Key>(t: &Dash<K, Self>, h: u64) -> TableResult<()>;

    /// A record with hash `h` was removed.
    fn removed<K: Key>(_t: &Dash<K, Self>, _h: u64) {}

    /// Split step 2: move the records of `s` that belong to the linked
    /// segment `n`. A failed move rolls the split back (the records stay
    /// in `s`, both SMO marks are cleared). Recovery reruns it to redo a
    /// crashed split.
    fn rehash_split<K: Key>(t: &Dash<K, Self>, s: PmOffset, n: PmOffset) -> TableResult<()>;

    /// Split step 3: publish `n` and clear the SMO marks. Idempotent —
    /// recovery reruns it.
    fn finish_split<K: Key>(t: &Dash<K, Self>, s: PmOffset, n: PmOffset);

    /// Finish or roll back the merge that segment `seg` was draining in
    /// when the pool went down. Returns false when `seg` was merged away.
    fn recover_merge<K: Key>(_t: &Dash<K, Self>, _seg: PmOffset) -> bool {
        true
    }

    /// Visit each live segment once.
    fn for_each_segment<K: Key>(t: &Dash<K, Self>, f: impl FnMut(PmOffset));

    /// One page of a cursor scan from the raw position `pos`, under the
    /// caller's epoch pin.
    fn scan<K: Key>(t: &Dash<K, Self>, pos: u64, budget: usize) -> ScanPage<K>;
}

/// A Dash table over an emulated PM pool, generic over the key mode and
/// the dynamic hashing scheme. Use it through [`DashEh`](crate::DashEh)
/// and [`DashLh`](crate::DashLh).
///
/// One table per pool: the table's root object is published through the
/// pool root, which is how [`Dash::open`] finds it after a restart.
pub struct Dash<K, S> {
    pub(crate) pool: Arc<PmemPool>,
    pub(crate) root: PmOffset,
    pub(crate) cfg: DashConfig,
    pub(crate) geom: SegGeom,
    pub(crate) scheme: S,
    _k: PhantomData<fn(K) -> K>,
}

impl<K: Key, S: Scheme> Dash<K, S> {
    /// Create a fresh table in `pool` and publish it as the pool root.
    pub fn create(pool: Arc<PmemPool>, cfg: DashConfig) -> TableResult<Self> {
        cfg.validate().map_err(|_| TableError::Pm(PmError::InvalidConfig("dash config")))?;
        let scheme = S::new(&cfg)?;
        let root = pool.alloc_zeroed(S::ROOT_BYTES)?;
        let geom = SegGeom::from_cfg(&cfg);
        let table = Dash { pool, root, cfg, geom, scheme, _k: PhantomData };
        S::format(&table)?;
        table.pool.set_root(root);
        Ok(table)
    }

    /// Reopen the table persisted in `pool` (instant recovery: this does
    /// constant work; segments are recovered lazily on first access).
    pub fn open(pool: Arc<PmemPool>) -> TableResult<Self> {
        let root = pool.root();
        if root.is_null() {
            return Err(TableError::Pm(PmError::PoolCorrupt("no root object")));
        }
        let cfg = S::read_config(&pool, root)?;
        let (scheme, geom) = (S::new(&cfg)?, SegGeom::from_cfg(&cfg));
        let table = Dash { pool, root, cfg, geom, scheme, _k: PhantomData };
        if table.pool.recovery_outcome().wrapped {
            // §4.8: on version wrap-around, reset every segment's version
            // so each recovers (trivially or not) on first access.
            S::for_each_segment(&table, |seg| {
                table.view(seg).header().rec_version.store(0, Ordering::Release);
            });
        }
        Ok(table)
    }

    pub fn config(&self) -> &DashConfig {
        &self.cfg
    }

    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    pub(crate) fn view(&self, seg: PmOffset) -> SegView<'_> {
        SegView::new(&self.pool, seg, self.geom)
    }

    // ---- public operations ----------------------------------------------

    pub fn get(&self, key: &K) -> Option<u64> {
        let _g = self.pool.epoch().pin();
        self.get_pinned(key)
    }

    /// `get` body without the epoch entry — the caller holds the pin
    /// (single ops pin per call; [`Dash::get_many`] pins per batch).
    fn get_pinned(&self, key: &K) -> Option<u64> {
        let h = key.hash64();
        let mut spins = 0u64;
        loop {
            // Livelock guard (debug builds): a lookup must not spin
            // forever on a lock; dump the buckets it waits on if it does.
            spins += 1;
            if cfg!(debug_assertions) && spins > S::GET_SPIN_LIMIT {
                let (route, seg) = S::resolve(self, h).unwrap();
                let view = self.view(seg);
                let y = self.geom.bucket_index(h);
                panic!(
                    "{} get livelock: route={route} y={y} tb_lock={:#x} pb_lock={:#x}",
                    S::NAME,
                    view.bucket(y).version(),
                    view.bucket((y + 1) & (self.geom.normal() - 1)).version(),
                );
            }
            let Ok((route, seg)) = S::resolve(self, h) else { continue };
            match self.view(seg).search(&self.cfg, h, key, || S::still_maps(self, h, route)) {
                SegFind::Found(v) => return Some(v),
                SegFind::NotFound => return None,
                SegFind::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn insert(&self, key: &K, value: u64) -> TableResult<()> {
        let _g = self.pool.epoch().pin();
        self.insert_pinned(key, value)
    }

    fn insert_pinned(&self, key: &K, value: u64) -> TableResult<()> {
        let h = key.hash64();
        let key_repr = key.encode(&self.pool)?;
        loop {
            let (route, seg) = S::resolve(self, h)?;
            let verify = || S::still_maps(self, h, route);
            match self.view(seg).insert(&self.cfg, h, key, key_repr, value, S::CHAINS, verify)? {
                SegInsert::Inserted { chained } => {
                    if chained {
                        // A stash bucket had to be allocated: grow (§5.1).
                        S::grow(self, h)?;
                    }
                    return Ok(());
                }
                SegInsert::Duplicate => {
                    if !K::INLINE {
                        K::release(&self.pool, key_repr);
                    }
                    return Err(TableError::Duplicate);
                }
                SegInsert::Retry => continue,
                SegInsert::NeedSplit => S::grow(self, h)?,
            }
        }
    }

    pub fn update(&self, key: &K, value: u64) -> bool {
        let h = key.hash64();
        let _g = self.pool.epoch().pin();
        loop {
            let Ok((route, seg)) = S::resolve(self, h) else { continue };
            match self.view(seg).update(&self.cfg, h, key, value, || S::still_maps(self, h, route)) {
                SegMutate::Done(_) => return true,
                SegMutate::NotFound => return false,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    pub fn remove(&self, key: &K) -> bool {
        let _g = self.pool.epoch().pin();
        self.remove_pinned(key)
    }

    fn remove_pinned(&self, key: &K) -> bool {
        let h = key.hash64();
        loop {
            let Ok((route, seg)) = S::resolve(self, h) else { continue };
            match self.view(seg).remove(&self.cfg, h, key, || S::still_maps(self, h, route)) {
                SegMutate::Done(repr) => {
                    if !K::INLINE {
                        K::release(&self.pool, repr);
                    }
                    S::removed(self, h);
                    return true;
                }
                SegMutate::NotFound => return false,
                SegMutate::Retry => std::hint::spin_loop(),
            }
        }
    }

    // ---- batched operations (§4.5: one epoch entry per batch) ------------

    /// Batched lookup: enter the epoch once, then run the
    /// fingerprint-probe loop per key. Results are in key order.
    pub fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.get_pinned(k)).collect()
    }

    /// Batched insert under one epoch entry; one result per item, in
    /// order (splits and expansions triggered mid-batch run under the
    /// same pin).
    pub fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        let _g = self.pool.epoch().pin();
        items.iter().map(|(k, v)| self.insert_pinned(k, *v)).collect()
    }

    /// Batched remove under one epoch entry; one `bool` per key, in order.
    pub fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        let _g = self.pool.epoch().pin();
        keys.iter().map(|k| self.remove_pinned(k)).collect()
    }

    // ---- record move behind every SMO (§4.7) -----------------------------

    /// Move the records of `from` whose hash `moves` selects into `to`,
    /// which the caller owns (all of `from`'s bucket locks held, `to`
    /// unpublished or locked too). Every record is copied before any is
    /// deleted, so a failed copy (the pool cannot supply a stash-chain
    /// node) drops the copies and leaves both segments as they were; the
    /// caller then rolls its SMO back. A non-empty `to` means a recovery
    /// redo: records copied before the crash are not copied again.
    pub(crate) fn move_records(
        &self,
        from: SegView<'_>,
        to: SegView<'_>,
        moves: impl Fn(u64) -> bool,
    ) -> TableResult<()> {
        let mut picked = Vec::new();
        from.for_each_record(|loc, slot, key_repr, value| {
            let kh = K::hash_stored(&self.pool, key_repr);
            if moves(kh) {
                picked.push((loc, slot, key_repr, value, kh));
            }
        });
        let redo = to.count_records() > 0;
        for &(_, _, key_repr, value, kh) in &picked {
            if redo {
                let mut exists = false;
                to.for_each_record(|_, _, kr, _| exists |= kr == key_repr);
                if exists {
                    continue;
                }
            }
            let copied = to.insert_unlocked(&self.cfg, kh, key_repr, value, true);
            let copied = copied.and_then(|fit| fit.then_some(()).ok_or(TableError::CapacityExhausted));
            if let Err(e) = copied {
                // Every copy in `to` (this pass's and a crashed pass's) is
                // a duplicate of a record still in `from`: drop them all.
                let mut copies = Vec::new();
                to.for_each_record(|loc, slot, kr, _| {
                    if picked.iter().any(|p| p.2 == kr) {
                        copies.push((loc, slot));
                    }
                });
                for (loc, slot) in copies {
                    to.delete_at(loc, slot);
                }
                to.rebuild_overflow::<K>(&self.cfg);
                to.prune_chain();
                return Err(e);
            }
        }
        for (loc, slot, ..) in picked {
            from.delete_at(loc, slot);
        }
        from.rebuild_overflow::<K>(&self.cfg);
        from.prune_chain();
        Ok(())
    }

    // ---- lazy recovery (§4.8) ---------------------------------------------

    /// Recover one segment before its first post-restart use: clear locks,
    /// de-duplicate crashed displacements, rebuild overflow metadata, and
    /// finish or roll back an in-flight SMO.
    pub(crate) fn recover_segment(&self, seg: PmOffset) {
        let v = self.pool.global_version();
        loop {
            let view = self.view(seg);
            let hdr = view.header();
            if hdr.rec_version.load(Ordering::Acquire) == v {
                return;
            }
            // A NEW segment is recovered from its split source.
            if hdr.state.load(Ordering::Acquire) == STATE_NEW {
                let back = PmOffset::new(hdr.back_link.load(Ordering::Acquire));
                if !back.is_null() {
                    self.recover_segment(back);
                    // Defensive: if the source finished its split but our
                    // NEW flag lingers, clear it rather than defer forever.
                    // SAFETY: a back link names the live segment this one
                    // was split off from.
                    let bh = unsafe { self.pool.at_ref::<SegmentHeader>(back) };
                    if bh.rec_version.load(Ordering::Acquire) == v
                        && bh.state.load(Ordering::Acquire) == STATE_NORMAL
                        && hdr.state.load(Ordering::Acquire) == STATE_NEW
                    {
                        hdr.state.store(STATE_NORMAL, Ordering::Release);
                        self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                    }
                    continue;
                }
            }
            if !view.try_rec_lock(v) {
                std::hint::spin_loop();
                continue;
            }
            if hdr.rec_version.load(Ordering::Acquire) == v {
                view.rec_unlock();
                return;
            }
            if hdr.state.load(Ordering::Acquire) == STATE_NEW {
                view.rec_unlock();
                continue;
            }

            view.clear_all_locks();
            view.dedup_displaced();
            view.rebuild_overflow::<K>(&self.cfg);

            // Finish or roll back the SMO in flight at the crash.
            let live = match hdr.state.load(Ordering::Acquire) {
                STATE_SPLITTING => {
                    let n_off = PmOffset::new(hdr.side_link.load(Ordering::Acquire));
                    let linked = !n_off.is_null() && {
                        // SAFETY: a SPLITTING segment's side link names the
                        // segment block its split allocated.
                        let nh = unsafe { self.pool.at_ref::<SegmentHeader>(n_off) };
                        nh.back_link.load(Ordering::Acquire) == seg.get()
                    };
                    if linked {
                        let n = self.view(n_off);
                        n.clear_all_locks();
                        n.dedup_displaced();
                        if S::rehash_split(self, seg, n_off).is_ok() {
                            n.rebuild_overflow::<K>(&self.cfg);
                            S::finish_split(self, seg, n_off);
                            n.stamp_version(v);
                        }
                    } else {
                        // Crash before the new segment was activated: the
                        // allocator reclaimed it; roll the split back.
                        hdr.state.store(STATE_NORMAL, Ordering::Release);
                        self.pool.persist(self.pool.offset_of(&hdr.state), 4);
                    }
                    true
                }
                STATE_MERGING => S::recover_merge(self, seg),
                _ => true,
            };
            if live {
                view.stamp_version(v);
            }
            view.rec_unlock();
            if !live {
                self.pool.defer_free(seg, self.geom.bytes());
            }
            return;
        }
    }

    // ---- iteration and introspection --------------------------------------

    /// Number of distinct segments.
    pub fn segment_count(&self) -> usize {
        let mut n = 0;
        S::for_each_segment(self, |_| n += 1);
        n
    }

    /// Paged iteration with a split-stable cursor; the scheme defines
    /// what the cursor position means (see `Scheme::scan`).
    pub fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        if cursor.is_done() {
            return ScanPage::finished();
        }
        let _g = self.pool.epoch().pin();
        S::scan(self, cursor.pos(), budget.max(1))
    }
}

impl<K: Key, S: Scheme> PmHashTable<K> for Dash<K, S> {
    fn get(&self, key: &K) -> Option<u64> {
        Dash::get(self, key)
    }

    fn insert(&self, key: &K, value: u64) -> TableResult<()> {
        Dash::insert(self, key, value)
    }

    fn update(&self, key: &K, value: u64) -> bool {
        Dash::update(self, key, value)
    }

    fn remove(&self, key: &K) -> bool {
        Dash::remove(self, key)
    }

    fn pin(&self) -> dash_common::Session<'_> {
        dash_common::Session::pinned(self.pool.epoch().pin())
    }

    fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        Dash::get_many(self, keys)
    }

    fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        Dash::insert_many(self, items)
    }

    fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        Dash::remove_many(self, keys)
    }

    fn for_each_kv(&self, f: &mut dyn FnMut(&K, u64)) {
        let _g = self.pool.epoch().pin();
        S::for_each_segment(self, |seg| {
            self.view(seg).for_each_record(|_, _, key_repr, value| {
                if let Some(key) = K::decode_stored(&self.pool, key_repr) {
                    f(&key, value);
                }
            });
        });
    }

    fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        Dash::scan(self, cursor, budget)
    }

    fn capacity_slots(&self) -> u64 {
        let mut slots = 0;
        S::for_each_segment(self, |seg| slots += self.view(seg).capacity_slots());
        slots
    }

    fn name(&self) -> &'static str {
        S::NAME
    }
}

/// Helpers for the SMO failure tests: run a structural operation into a
/// full pool, then check that the table is still usable.
#[cfg(test)]
pub(crate) mod testing {
    use std::time::{Duration, Instant};

    use dash_common::{Key, TableError, TableResult};
    use pmem::{PmError, PmOffset, PmemPool};

    use crate::segment::STASH_NODE_SIZE;

    /// The `u64` keys from `from` on whose hash `pick` accepts.
    pub fn keys_where(from: u64, pick: impl Fn(u64) -> bool) -> impl Iterator<Item = u64> {
        (from..).filter(move |k| pick(k.hash64()))
    }

    pub fn is_pool_full<T>(r: &TableResult<T>) -> bool {
        matches!(r, Err(TableError::Pm(PmError::OutOfMemory { .. })))
    }

    /// Allocate stash-chain-node blocks until the pool is exhausted, so
    /// the next chain node cannot be allocated.
    pub fn fill_pool(pool: &PmemPool) -> Vec<PmOffset> {
        std::iter::from_fn(|| pool.alloc(STASH_NODE_SIZE).ok()).collect()
    }

    pub fn free_filler(pool: &PmemPool, filler: Vec<PmOffset>) {
        for off in filler {
            pool.free_now(off, STASH_NODE_SIZE);
        }
    }

    /// Run `f` on its own thread and fail the test if it has not finished
    /// within the deadline: a bucket lock leaked by a failed SMO turns
    /// every later access to the segment into an endless spin. A thread
    /// still spinning at the deadline cannot be joined and is left
    /// behind; the test has failed by then.
    pub fn within_deadline(f: impl FnOnce() + Send + 'static) {
        let worker = std::thread::spawn(f);
        let deadline = Instant::now() + Duration::from_secs(30);
        while !worker.is_finished() {
            assert!(Instant::now() < deadline, "table hung: a failed SMO left bucket locks held");
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Err(panic) = worker.join() {
            std::panic::resume_unwind(panic);
        }
    }
}
