//! # Dash: Scalable Hashing on Persistent Memory
//!
//! A from-scratch Rust reproduction of the Dash paper (VLDB 2020):
//! dynamic, scalable hash tables for persistent memory built from four
//! techniques —
//!
//! 1. **Fingerprinting** (§4.2): one-byte key hashes packed into bucket
//!    metadata let probes skip almost all PM record reads; negative
//!    searches usually touch no keys at all.
//! 2. **Optimistic bucket locking** (§4.4): writers take bucket-level
//!    locks; readers validate a version snapshot and never write PM.
//! 3. **Bucket load balancing** (§4.3): balanced insert into the less
//!    full of two buckets, displacement of movable records, and stash
//!    buckets with overflow metadata, pushing load factor past 90 %
//!    without long probe chains.
//! 4. **Instant recovery** (§4.8): a one-byte global version and a clean
//!    marker bound restart work to a constant; per-segment recovery is
//!    amortized over post-restart accesses.
//!
//! Two dynamic hashing schemes are built on these blocks:
//! [`DashEh`] (extendible hashing, §4) and [`DashLh`] (linear hashing with
//! hybrid expansion, §5), each a scheme of the one generic table [`Dash`]
//! that holds the protocol they share. Both are generic over the key mode:
//! inline `u64` or pooled variable-length [`dash_common::VarKey`]s.
//!
//! ```
//! use dash_core::{DashConfig, DashEh};
//! use dash_common::PmHashTable;
//! use pmem::{PmemPool, PoolConfig};
//!
//! let pool = PmemPool::create(PoolConfig::with_size(16 << 20)).unwrap();
//! let table: DashEh<u64> = DashEh::create(pool, DashConfig::default()).unwrap();
//! table.insert(&42, 4200).unwrap();
//! assert_eq!(table.get(&42), Some(4200));
//! ```

mod bucket;
mod config;
mod eh;
pub mod experiments;
mod lh;
mod segment;
mod table;

pub use config::{DashConfig, InsertPolicy, LockMode};
pub use eh::DashEh;
pub use lh::DashLh;
pub use table::Dash;

/// Record slots per 256-byte bucket (fig. 4).
pub use bucket::SLOTS as BUCKET_SLOTS;
