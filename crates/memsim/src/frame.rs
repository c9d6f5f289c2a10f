//! Physical frame allocation.

use simcore::chaos::invariant;

use crate::types::FrameId;

/// Allocator for physical page frames.
///
/// Frames are fungible in the simulation (no contents are stored), so the
/// allocator is a free list plus accounting. Exhaustion is the signal the
/// memory manager uses to trigger reclaim.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    total: u64,
    free: Vec<FrameId>,
    next_unused: u64,
    allocated: u64,
    /// Invariant-note namespace: distinguishes this allocator's frame
    /// ids from other nodes' allocators inside one global checker.
    chaos_ns: u64,
}

impl FrameAllocator {
    /// Creates an allocator managing `total` frames.
    #[must_use]
    pub fn new(total: u64) -> Self {
        FrameAllocator {
            total,
            free: Vec::new(),
            next_unused: 0,
            allocated: 0,
            chaos_ns: 0,
        }
    }

    /// Sets the invariant-note namespace (see [`invariant::fresh_namespace`]).
    pub fn set_chaos_namespace(&mut self, ns: u64) {
        self.chaos_ns = ns;
    }

    /// Total frames managed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    #[must_use]
    pub fn free_count(&self) -> u64 {
        self.total - self.allocated
    }

    /// Allocates one frame, or `None` when memory is exhausted (the
    /// caller should reclaim and retry).
    pub fn alloc(&mut self) -> Option<FrameId> {
        let frame = if let Some(f) = self.free.pop() {
            f
        } else if self.next_unused < self.total {
            let f = FrameId(self.next_unused);
            self.next_unused += 1;
            f
        } else {
            return None;
        };
        self.allocated += 1;
        invariant::with(|c| c.note_frame_allocated((self.chaos_ns << 40) | frame.0));
        Some(frame)
    }

    /// Returns a frame to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the allocator's books would go negative (double free).
    pub fn free(&mut self, frame: FrameId) {
        assert!(self.allocated > 0, "double free of {frame}");
        debug_assert!(frame.0 < self.total, "foreign frame {frame}");
        self.allocated -= 1;
        self.free.push(frame);
        invariant::with(|c| c.note_frame_freed((self.chaos_ns << 40) | frame.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_until_exhaustion() {
        let mut a = FrameAllocator::new(3);
        let f1 = a.alloc().expect("frame 1");
        let f2 = a.alloc().expect("frame 2");
        let f3 = a.alloc().expect("frame 3");
        assert_ne!(f1, f2);
        assert_ne!(f2, f3);
        assert!(a.alloc().is_none());
        assert_eq!(a.free_count(), 0);
    }

    #[test]
    fn freeing_allows_reuse() {
        let mut a = FrameAllocator::new(1);
        let f = a.alloc().expect("frame");
        assert!(a.alloc().is_none());
        a.free(f);
        assert_eq!(a.free_count(), 1);
        assert_eq!(a.alloc(), Some(f));
        assert_eq!(a.free_count(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(1);
        let f = a.alloc().expect("frame");
        a.free(f);
        a.free(f);
    }
}
