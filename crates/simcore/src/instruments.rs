//! Which instruments are installed on this thread.
//!
//! The trace recorder, the fault journal and the invariant checker are
//! each thread-local and usually absent. Their presence bits share one
//! byte so that [`crate::event::EventQueue::pop`], which must tell all
//! three the time of every event, pays a single thread-local read when
//! none is installed.

use std::cell::Cell;

pub(crate) const TRACE: u8 = 1;
pub(crate) const JOURNAL: u8 = 1 << 1;
pub(crate) const CHECKER: u8 = 1 << 2;

thread_local! {
    static INSTALLED: Cell<u8> = const { Cell::new(0) };
}

/// Records that the instrument `bit` was installed (`on`) or removed.
pub(crate) fn set(bit: u8, on: bool) {
    INSTALLED.with(|i| i.set(if on { i.get() | bit } else { i.get() & !bit }));
}

/// `true` when the instrument `bit` is installed on this thread.
#[inline]
pub(crate) fn has(bit: u8) -> bool {
    INSTALLED.with(Cell::get) & bit != 0
}

/// `true` when any instrument is installed on this thread.
#[inline]
pub(crate) fn any() -> bool {
    INSTALLED.with(Cell::get) != 0
}
