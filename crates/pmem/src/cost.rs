use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An Optane-DCPMM-like performance model.
///
/// The paper's central observation (§2.1) is that end-to-end PM *read*
/// latency is often higher than write latency — reads usually touch the
/// media while stores complete at the ADR buffer — and that DCPMM bandwidth
/// (especially small random stores) is far below DRAM and saturates under
/// multicore load. We reproduce this structurally:
///
/// * every metered PM read pays `read_latency_ns` and consumes read
///   bandwidth tokens;
/// * every flush pays `write_latency_ns` and consumes write bandwidth
///   tokens;
/// * the token buckets are **shared across all threads of the pool**, so a
///   design that issues more PM accesses per operation saturates first and
///   stops scaling — exactly the fig. 1/8 phenomenon.
///
/// The constants below are derived from the device characteristics the
/// paper cites (\[21\], \[63\]): ~300 ns random read latency, ~100 ns
/// store+flush cost, ~8× / ~14× lower random read / write bandwidth than
/// DRAM. They are deliberately expressed per *event* at the block
/// granularity the tables meter (256 B, DCPMM's internal block size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Latency added to each metered PM read event.
    pub read_latency_ns: u64,
    /// Latency added to each flush (CLWB + eventual ADR drain).
    pub write_latency_ns: u64,
    /// Aggregate random-read bandwidth in bytes/µs (0 = unlimited).
    pub read_bw_bytes_per_us: u64,
    /// Aggregate random-write bandwidth in bytes/µs (0 = unlimited).
    pub write_bw_bytes_per_us: u64,
    /// Extra latency per faulted page of a pool allocation (page faults,
    /// allocator book-keeping). Used by the fig. 15 allocator experiment.
    pub alloc_latency_ns: u64,
    /// Page granularity the kernel backs fresh allocations with: 2 MB
    /// huge pages on a healthy kernel, 4 KB on one with the paper's
    /// fallback bug (§6.9) — a 512× difference in faults per allocation.
    /// 0 = one flat charge per allocation regardless of size.
    pub alloc_page_bytes: u64,
}

impl CostModel {
    /// Approximation of a fully-populated Optane DCPMM socket.
    pub fn optane() -> Self {
        CostModel {
            read_latency_ns: 280,
            write_latency_ns: 100,
            // ~6 GB/s random read, ~2 GB/s small random write aggregate.
            read_bw_bytes_per_us: 6000,
            write_bw_bytes_per_us: 2000,
            // Healthy kernel: PM allocations fault 2 MB huge pages, so a
            // 16 KB segment costs one fault.
            alloc_latency_ns: 10_000,
            alloc_page_bytes: 2 << 20,
        }
    }

    /// Optane with the Linux 5.2.11 huge-page fallback bug (§6.9): large
    /// PM allocations fall back to 4 KB pages, taking 512× the page
    /// faults — a 1 MB Dash-LH segment array goes from 1 fault to 256.
    pub fn optane_buggy_kernel() -> Self {
        CostModel { alloc_page_bytes: 4 << 10, ..Self::optane() }
    }

    /// Optane with a pre-faulting custom allocator (fig. 15's second
    /// configuration): allocations are free, PM accesses unchanged.
    pub fn optane_prefault() -> Self {
        CostModel { alloc_latency_ns: 0, ..Self::optane() }
    }

    /// No artificial costs at all (DRAM-speed run; the default).
    pub fn none() -> Self {
        CostModel {
            read_latency_ns: 0,
            write_latency_ns: 0,
            read_bw_bytes_per_us: 0,
            write_bw_bytes_per_us: 0,
            alloc_latency_ns: 0,
            alloc_page_bytes: 0,
        }
    }

    pub fn is_free(&self) -> bool {
        *self == Self::none()
    }
}

/// Channel-time debt a thread batches locally before settling with the
/// shared channel clock. Settling per event would put a contended
/// `fetch_add` on every PM access and cap the whole simulation at the
/// cacheline-transfer rate of one hot line (~6 M events/s on 24 cores) —
/// far below any modelled channel. 2 µs of channel time per settlement
/// keeps the shared-line rate in the low hundreds of kHz while bounding
/// the burst a thread can run ahead of the model.
const DEBT_QUANTUM_NS: u64 = 2_000;

thread_local! {
    /// (state id, unsettled read channel ns, unsettled write channel ns).
    static DEBT: std::cell::Cell<(u64, u64, u64)> = const { std::cell::Cell::new((0, 0, 0)) };
}

static NEXT_STATE_ID: AtomicU64 = AtomicU64::new(1);

/// Runtime state of the cost model: two global token buckets expressed as
/// "channel busy until t ns" clocks.
pub(crate) struct CostState {
    model: CostModel,
    id: u64,
    start: Instant,
    read_busy_until: AtomicU64,
    write_busy_until: AtomicU64,
}

impl CostState {
    pub fn new(model: CostModel) -> Self {
        CostState {
            model,
            id: NEXT_STATE_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            read_busy_until: AtomicU64::new(0),
            write_busy_until: AtomicU64::new(0),
        }
    }

    pub fn model(&self) -> &CostModel {
        &self.model
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Reserve `bytes` of channel time on `busy` and spin until the
    /// transfer plus `latency_ns` would have completed on real hardware.
    ///
    /// The transfer time is first banked as thread-local debt; only once
    /// the debt exceeds [`DEBT_QUANTUM_NS`] is it settled against the
    /// shared channel clock with one `fetch_add` (the channel clock lags
    /// real time while the channel is idle, which would bank unbounded
    /// burst credit, so a stale clock (>50 µs behind) is resynced with a
    /// CAS). Aggregate throughput is shaped exactly as if every event
    /// settled individually; a thread can merely run one quantum (~2 µs of
    /// channel time) ahead of the model before it stalls.
    ///
    /// `debt_slot` selects which field of the thread-local debt cell this
    /// channel uses (1 = read, 2 = write).
    fn charge(
        &self,
        busy: &AtomicU64,
        bw_bytes_per_us: u64,
        bytes: usize,
        latency_ns: u64,
        debt_slot: usize,
    ) {
        let now = self.now_ns();
        let mut deadline = now + latency_ns;
        if let Some(transfer_ns) = (bytes as u64 * 1000).checked_div(bw_bytes_per_us) {
            let owed = DEBT.with(|d| {
                let (id, mut rd, mut wr) = d.get();
                if id != self.id {
                    // Debt from a previous pool instance: drop it (at most
                    // one quantum of lost accounting per thread).
                    (rd, wr) = (0, 0);
                }
                let slot = if debt_slot == 1 { &mut rd } else { &mut wr };
                *slot += transfer_ns;
                let owed = if *slot >= DEBT_QUANTUM_NS { std::mem::take(slot) } else { 0 };
                d.set((self.id, rd, wr));
                owed
            });
            if owed > 0 {
                let prev = busy.fetch_add(owed, Ordering::Relaxed);
                if prev + 50_000 < now {
                    // Channel idle for a while: resync its clock to now so
                    // the accumulated idle time cannot be spent as burst
                    // credit.
                    let _ = busy.compare_exchange(
                        prev + owed,
                        now + owed,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    );
                    deadline = deadline.max(now + owed);
                } else {
                    deadline = deadline.max(prev.max(now) + owed);
                }
            }
        }
        // Fine-grained spin: one clock read per pause. Batching pauses
        // between checks quantizes every wait up to the batch cost (~0.5 µs
        // for 32 pauses), which at 280 ns deadlines inflates each event by
        // 2–10× and throttles the whole simulation far below the modelled
        // channel capacity. Long waits (deep channel backlog) yield instead
        // of burning the core.
        loop {
            let now = self.now_ns();
            if now >= deadline {
                break;
            }
            if deadline - now > 50_000 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    #[inline]
    pub fn charge_read(&self, bytes: usize) {
        if self.model.read_latency_ns == 0 && self.model.read_bw_bytes_per_us == 0 {
            return;
        }
        self.charge(
            &self.read_busy_until,
            self.model.read_bw_bytes_per_us,
            bytes,
            self.model.read_latency_ns,
            1,
        );
    }

    #[inline]
    pub fn charge_write(&self, bytes: usize) {
        if self.model.write_latency_ns == 0 && self.model.write_bw_bytes_per_us == 0 {
            return;
        }
        self.charge(
            &self.write_busy_until,
            self.model.write_bw_bytes_per_us,
            bytes,
            self.model.write_latency_ns,
            2,
        );
    }

    /// Charge the page-fault cost of freshly allocating `bytes` from the
    /// pool: one `alloc_latency_ns` charge per page the kernel must fault
    /// (page size per the model; 0 = one flat charge).
    #[inline]
    pub fn charge_alloc(&self, bytes: usize) {
        let lat = self.model.alloc_latency_ns;
        if lat == 0 {
            return;
        }
        let pages = if self.model.alloc_page_bytes == 0 {
            1
        } else {
            (bytes as u64).div_ceil(self.model.alloc_page_bytes).max(1)
        };
        let deadline = self.now_ns() + lat * pages;
        while self.now_ns() < deadline {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn free_model_is_fast() {
        let st = CostState::new(CostModel::none());
        let t = Instant::now();
        for _ in 0..10_000 {
            st.charge_read(256);
            st.charge_write(64);
        }
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn latency_is_applied() {
        let model = CostModel { read_latency_ns: 100_000, ..CostModel::none() };
        let st = CostState::new(model);
        let t = Instant::now();
        for _ in 0..10 {
            st.charge_read(256);
        }
        assert!(t.elapsed() >= Duration::from_micros(1000));
    }

    #[test]
    fn bandwidth_serializes_across_threads() {
        // 1 byte/µs => 256 bytes take 256 µs of channel time each.
        let model = CostModel { write_bw_bytes_per_us: 1, ..CostModel::none() };
        let st = std::sync::Arc::new(CostState::new(model));
        let t = Instant::now();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let st = st.clone();
            handles.push(std::thread::spawn(move || st.charge_write(256)));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 4 transfers on a shared channel cannot finish faster than ~1 ms.
        assert!(t.elapsed() >= Duration::from_micros(900));
    }

    #[test]
    fn presets_are_distinct() {
        assert!(CostModel::none().is_free());
        assert!(!CostModel::optane().is_free());
        // The kernel bug shrinks the fault granularity (2 MB → 4 KB), so a
        // 1 MB allocation costs 512× the faults.
        assert!(
            CostModel::optane_buggy_kernel().alloc_page_bytes
                < CostModel::optane().alloc_page_bytes
        );
        assert_eq!(CostModel::optane_prefault().alloc_latency_ns, 0);
    }
}
