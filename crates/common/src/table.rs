use std::fmt;

use crate::key::Key;

/// Errors common to all hash tables in the reproduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The key is already present (inserts perform a uniqueness check).
    Duplicate,
    /// The substrate ran out of pool space.
    Pm(pmem::PmError),
    /// The table cannot grow further (directory limit reached).
    CapacityExhausted,
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::Duplicate => write!(f, "key already exists"),
            TableError::Pm(e) => write!(f, "persistent memory error: {e}"),
            TableError::CapacityExhausted => write!(f, "table capacity exhausted"),
        }
    }
}

impl std::error::Error for TableError {}

impl From<pmem::PmError> for TableError {
    fn from(e: pmem::PmError) -> Self {
        TableError::Pm(e)
    }
}

pub type TableResult<T> = Result<T, TableError>;

/// An epoch-scoped operation session (Dash §4.5): the epoch is entered
/// once when the session is created and exited when it drops, so every
/// operation issued while it lives shares one reclamation-bookkeeping
/// entry/exit instead of paying it per op. Obtained from
/// [`PmHashTable::pin`]; tables without epoch reclamation return an
/// unpinned (no-op) session and remain trait-conformant.
///
/// Epoch pins are re-entrant, so the per-operation pins taken inside
/// `get`/`insert`/`remove` degenerate to a counter bump while a session
/// is held — the session is an amortization, never a correctness
/// requirement.
pub struct Session<'a> {
    _pin: Option<pmem::EpochGuard<'a>>,
}

impl<'a> Session<'a> {
    /// A session holding a real epoch pin.
    pub fn pinned(guard: pmem::EpochGuard<'a>) -> Self {
        Session { _pin: Some(guard) }
    }

    /// A no-op session (for tables without epoch-based reclamation).
    pub fn unpinned() -> Self {
        Session { _pin: None }
    }

    /// Whether this session holds an epoch pin.
    pub fn is_pinned(&self) -> bool {
        self._pin.is_some()
    }
}

/// A restartable scan position, issued and consumed by
/// [`PmHashTable::scan`].
///
/// The position is **opaque to callers and private to the table that
/// issued it**: Dash-EH encodes a keyspace boundary (a hash prefix),
/// Dash-LH a segment index, and the trait-default implementation a raw
/// hash watermark. The only portable operations are "start", "is it
/// done", and round-tripping `pos()` through [`ScanCursor::resume`] for
/// the same table (which is how the server serializes cursors onto the
/// wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanCursor {
    pos: u64,
    done: bool,
}

impl ScanCursor {
    /// The cursor that begins a fresh scan.
    pub const START: ScanCursor = ScanCursor { pos: 0, done: false };

    /// Rebuild a cursor from a previously returned [`ScanCursor::pos`]
    /// (wire deserialization). Only meaningful for the table that issued
    /// the position.
    pub fn resume(pos: u64) -> Self {
        ScanCursor { pos, done: false }
    }

    /// The terminal cursor: the scan has visited the whole table.
    pub fn finished() -> Self {
        ScanCursor { pos: 0, done: true }
    }

    /// The raw position (for serialization). 0 for a fresh or finished
    /// cursor; check [`ScanCursor::is_done`] to tell them apart.
    pub fn pos(&self) -> u64 {
        self.pos
    }

    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// One page of scan results: the records plus the cursor to pass back in
/// for the next page ([`ScanCursor::is_done`] once the table is
/// exhausted).
#[derive(Debug)]
pub struct ScanPage<K> {
    /// `(key, value)` records, in the table's internal scan order.
    pub items: Vec<(K, u64)>,
    pub cursor: ScanCursor,
}

impl<K> ScanPage<K> {
    /// An empty terminal page.
    pub fn finished() -> Self {
        ScanPage { items: Vec::new(), cursor: ScanCursor::finished() }
    }
}

/// The operation surface shared by Dash-EH, Dash-LH, CCEH and Level
/// Hashing; the benchmark harnesses and integration tests drive every
/// table through this trait so comparisons exercise identical code paths.
///
/// The surface is **batch-first**: [`pin`](PmHashTable::pin) opens an
/// epoch-scoped [`Session`], and [`get_many`](PmHashTable::get_many) /
/// [`insert_many`](PmHashTable::insert_many) /
/// [`remove_many`](PmHashTable::remove_many) run a whole slice of
/// operations under a single epoch entry. The default implementations
/// pin once and loop over the single-key ops, which is already
/// trait-conformant for every table; Dash-EH and Dash-LH share one
/// implementation (`dash_core::Dash`, generic over the scheme) whose
/// batch ops run the probe loops under the one pin without re-entering
/// the epoch per key.
///
/// It is also **iteration-first**: [`scan`](PmHashTable::scan) pages
/// through the whole table behind a stable [`ScanCursor`], which is what
/// bulk consumers (`len_scan`, the server's `SCAN`, snapshot export,
/// replication bootstrap) build on. Dash-EH and Dash-LH implement it
/// natively, each with its own cursor, with the guarantee spelled out on
/// `scan`; CCEH and Level
/// Hashing fall back to the trait default (full-walk pagination in hash
/// order), which upholds the same contract only for quiescent tables.
pub trait PmHashTable<K: Key>: Send + Sync {
    /// Lookup; `None` when absent (negative search).
    fn get(&self, key: &K) -> Option<u64>;

    /// Insert a new record; fails with [`TableError::Duplicate`] when the
    /// key exists.
    fn insert(&self, key: &K, value: u64) -> TableResult<()>;

    /// Overwrite the value of an existing key; false when absent.
    fn update(&self, key: &K, value: u64) -> bool;

    /// Remove; false when absent.
    fn remove(&self, key: &K) -> bool;

    /// Enter the table's epoch once for a batch of operations. Single-key
    /// ops issued while the session lives skip the per-op epoch
    /// publication (pins are re-entrant). The default returns an unpinned
    /// session; tables with epoch reclamation override it.
    fn pin(&self) -> Session<'_> {
        Session::unpinned()
    }

    /// Batched lookup under one epoch entry; results are in key order.
    fn get_many(&self, keys: &[K]) -> Vec<Option<u64>> {
        let _s = self.pin();
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Batched insert under one epoch entry; one result per item, in
    /// order, so callers see exactly which keys were duplicates. Items
    /// are applied left to right (a duplicate key within the batch fails
    /// on its second occurrence).
    fn insert_many(&self, items: &[(K, u64)]) -> Vec<TableResult<()>> {
        let _s = self.pin();
        items.iter().map(|(k, v)| self.insert(k, *v)).collect()
    }

    /// Batched remove under one epoch entry; one `bool` per key, in
    /// order (false = the key was absent by the time its turn came).
    fn remove_many(&self, keys: &[K]) -> Vec<bool> {
        let _s = self.pin();
        keys.iter().map(|k| self.remove(k)).collect()
    }

    /// Visit every record as `(&key, value)` — the unpaginated
    /// convenience walk that [`scan`](PmHashTable::scan) and
    /// [`len_scan`](PmHashTable::len_scan) build on. The walk is
    /// unsynchronized with respect to concurrent writers: it is exact
    /// when the table is quiescent and best-effort otherwise (use `scan`
    /// when you need the cursor guarantee under mutation).
    fn for_each_kv(&self, f: &mut dyn FnMut(&K, u64));

    /// Page through the table: up to roughly `budget` records per call
    /// (a hint, like Redis `SCAN COUNT` — a page may run over to finish
    /// an internal unit such as a segment), plus the cursor for the next
    /// page. Pass [`ScanCursor::START`] to begin; the scan is over when
    /// the returned cursor reports [`ScanCursor::is_done`].
    ///
    /// Cursor guarantee (the Redis guarantee, held natively by Dash-EH
    /// and Dash-LH even across concurrent splits, merges and directory
    /// doublings): **every key present for the entire duration of the
    /// scan is yielded at least once**, and a key is never yielded twice
    /// from the same segment generation — duplicates can only arise when
    /// a structural operation moved the record mid-scan. Keys inserted
    /// or removed while the scan runs may or may not appear.
    ///
    /// The default implementation paginates a full
    /// [`for_each_kv`](PmHashTable::for_each_kv)
    /// (filtered and ordered by `hash64`) — correct pagination for a
    /// quiescent table, best-effort under mutation; tables with a
    /// walkable structure override it.
    fn scan(&self, cursor: ScanCursor, budget: usize) -> ScanPage<K> {
        if cursor.is_done() {
            return ScanPage::finished();
        }
        let budget = budget.max(1);
        let _s = self.pin();
        let mut found: Vec<(u64, K, u64)> = Vec::new();
        self.for_each_kv(&mut |k, v| {
            let h = k.hash64();
            if h >= cursor.pos() {
                found.push((h, k.clone(), v));
            }
        });
        found.sort_unstable_by_key(|(h, _, _)| *h);
        if found.len() <= budget {
            let items = found.into_iter().map(|(_, k, v)| (k, v)).collect();
            return ScanPage { items, cursor: ScanCursor::finished() };
        }
        // Cut at the budget, then extend through the run of equal hashes
        // so a resumed scan (pos = last hash + 1) can never skip a key
        // that collides with the page's final hash.
        let mut cut = budget;
        let cut_hash = found[cut - 1].0;
        while cut < found.len() && found[cut].0 == cut_hash {
            cut += 1;
        }
        let cursor = if cut == found.len() {
            ScanCursor::finished()
        } else {
            ScanCursor::resume(cut_hash + 1)
        };
        found.truncate(cut);
        ScanPage { items: found.into_iter().map(|(_, k, v)| (k, v)).collect(), cursor }
    }

    /// Total record slots currently allocated (for load-factor studies).
    fn capacity_slots(&self) -> u64;

    /// Records currently stored: one
    /// [`for_each_kv`](PmHashTable::for_each_kv) pass — the single
    /// shared counting loop over the iteration surface (paging through
    /// `scan` would re-walk the whole table per page on tables using the
    /// full-walk default). Not for hot paths.
    fn len_scan(&self) -> u64 {
        let mut n = 0u64;
        self.for_each_kv(&mut |_, _| n += 1);
        n
    }

    /// Load factor = records / slots (fig. 11/12).
    fn load_factor(&self) -> f64 {
        let slots = self.capacity_slots();
        if slots == 0 {
            0.0
        } else {
            self.len_scan() as f64 / slots as f64
        }
    }

    /// Short display name used by the bench harnesses.
    fn name(&self) -> &'static str;
}
