//! The storage workload: a tgt-like iSER target and a fio-like random
//! read initiator (§6.1 "Storage", Figure 8).
//!
//! The target exposes one LUN backed by a simulated disk file. Reads go
//! through the host page cache; data travels to the initiator through
//! per-transaction *communication buffers*. tgt's quirk — it
//! "allocates a fixed size chunk (512 KB) for each transaction,
//! regardless of its actual size" — is modelled directly, because it is
//! what makes Figure 8(b) interesting: with 64 KB blocks most of each
//! chunk is never touched, so under ODP it is never backed by frames.

use memsim::types::{FileId, VirtAddr};
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use simcore::units::ByteSize;

/// The LUN's backing file.
pub const LUN_FILE: FileId = FileId(1);

/// LUN size.
pub const LUN_SIZE: ByteSize = ByteSize::gib(4);

/// Fixed per-transaction communication chunk (tgt uses 512 KB).
pub const CHUNK_SIZE: u64 = 512 * 1024;

/// Communication chunks in the global pool (tgt statically sizes it:
/// 2048 x 512 KB = 1 GiB).
pub const TOTAL_CHUNKS: u64 = 2048;

/// The communication-buffer pool: what the pinned baseline must lock
/// (tgt's static 1 GB allocation).
pub const COMM_POOL: ByteSize = ByteSize::bytes_exact(CHUNK_SIZE * TOTAL_CHUNKS);

/// Base address of the communication-buffer pool in the target's
/// address space.
pub const COMM_BASE: VirtAddr = VirtAddr(0x2_0000_0000);

/// CPU cost per I/O transaction (SCSI processing).
const CPU_PER_IO: SimDuration = SimDuration::from_micros(6);

/// One read transaction plan: what the target must do for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadPlan {
    /// First LUN page to read.
    pub first_page: u64,
    /// Pages to read from the LUN (via the page cache).
    pub pages: u64,
    /// The communication buffer the payload is staged in. Only
    /// `touch_len` bytes of the [`CHUNK_SIZE`] chunk are written.
    pub comm_buffer: VirtAddr,
    /// The pool chunk backing `comm_buffer`; return it with
    /// [`StorageTarget::release_chunk`] when the transfer completes.
    pub chunk: u64,
    /// Bytes actually staged (the request size).
    pub touch_len: u64,
    /// CPU cost of the transaction.
    pub cpu: SimDuration,
}

/// The target. All initiator sessions share its one chunk pool.
///
/// Chunks are allocated from a global LIFO free list, as an allocator
/// would: under a fixed queue depth only a small hot subset of the pool
/// is ever touched, which is what lets ODP leave most of the static
/// pool unbacked (Figure 8).
#[derive(Debug)]
pub struct StorageTarget {
    free_chunks: Vec<u64>,
}

impl Default for StorageTarget {
    fn default() -> Self {
        // LIFO: chunk 0 on top.
        StorageTarget {
            free_chunks: (0..TOTAL_CHUNKS).rev().collect(),
        }
    }
}

impl StorageTarget {
    /// Plans one read of `len` bytes at `offset`.
    ///
    /// # Panics
    ///
    /// Panics when the request exceeds the chunk size, falls outside
    /// the LUN, or the pool is exhausted (more reads in flight than
    /// chunks). `testbed::storage_bed::run_storage` rejects the
    /// configurations that would do either before it plans a read.
    pub fn plan_read(&mut self, offset: u64, len: u64) -> ReadPlan {
        assert!(len <= CHUNK_SIZE, "request exceeds chunk");
        assert!(offset + len <= LUN_SIZE.bytes(), "read beyond LUN");
        let chunk = self
            .free_chunks
            .pop()
            .expect("communication pool exhausted");
        ReadPlan {
            first_page: offset / memsim::PAGE_SIZE,
            pages: len.div_ceil(memsim::PAGE_SIZE),
            comm_buffer: VirtAddr(COMM_BASE.0 + chunk * CHUNK_SIZE),
            chunk,
            touch_len: len,
            cpu: CPU_PER_IO,
        }
    }

    /// Returns a chunk to the pool once its transfer completed.
    pub fn release_chunk(&mut self, chunk: u64) {
        debug_assert!(chunk < TOTAL_CHUNKS);
        self.free_chunks.push(chunk);
    }
}

/// fio-like random-read generator over the LUN.
#[derive(Debug)]
pub struct FioClient {
    block_size: u64,
    rng: SimRng,
}

impl FioClient {
    /// Creates a generator issuing `block_size` random reads.
    #[must_use]
    pub fn new(block_size: u64, rng: SimRng) -> Self {
        FioClient { block_size, rng }
    }

    /// Draws the next `(offset, len)`, block-aligned.
    pub fn next_read(&mut self) -> (u64, u64) {
        let blocks = LUN_SIZE.bytes() / self.block_size;
        let block = self.rng.below(blocks);
        (block * self.block_size, self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_reuses_the_hottest_chunk() {
        let mut t = StorageTarget::default();
        let a = t.plan_read(0, 512 * 1024);
        t.release_chunk(a.chunk);
        let b = t.plan_read(512 * 1024, 512 * 1024);
        assert_eq!(a.comm_buffer, b.comm_buffer, "freed chunk reused first");
        assert_eq!(a.pages, 128);
    }

    #[test]
    fn queue_depth_bounds_touched_chunks() {
        let mut t = StorageTarget::default();
        // Depth-3 pipeline over many requests touches exactly 3 chunks.
        let mut seen = std::collections::HashSet::new();
        let mut live = std::collections::VecDeque::new();
        for i in 0..100u64 {
            let p = t.plan_read((i % 8) * 512 * 1024, 512 * 1024);
            seen.insert(p.chunk);
            live.push_back(p.chunk);
            if live.len() > 3 {
                t.release_chunk(live.pop_front().expect("live"));
            }
        }
        assert!(seen.len() <= 4, "LIFO keeps the hot set small: {seen:?}");
    }

    #[test]
    fn small_blocks_touch_less_than_chunk() {
        let mut t = StorageTarget::default();
        let p = t.plan_read(0, 64 * 1024);
        assert_eq!(p.touch_len, 64 * 1024);
        assert_eq!(CHUNK_SIZE, 512 * 1024);
        assert_eq!(p.pages, 16);
    }

    #[test]
    fn comm_pool_size_matches_tgt() {
        // 512 KB * 2048 chunks = 1 GiB — tgt's static buffer.
        assert_eq!(COMM_POOL, ByteSize::gib(1));
    }

    #[test]
    fn fio_reads_are_aligned_and_in_bounds() {
        let mut f = FioClient::new(512 * 1024, SimRng::new(1));
        for _ in 0..1000 {
            let (off, len) = f.next_read();
            assert_eq!(off % (512 * 1024), 0);
            assert!(off + len <= ByteSize::gib(4).bytes());
        }
    }

    #[test]
    #[should_panic(expected = "beyond LUN")]
    fn read_past_lun_panics() {
        let mut t = StorageTarget::default();
        t.plan_read(LUN_SIZE.bytes(), 4096);
    }
}
