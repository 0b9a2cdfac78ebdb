//! One lock around the process-wide shutdown latch for the lib tests.
//!
//! `drive_core::shutdown::trigger` sets one flag for the whole test
//! binary, and every cell boundary unwinds while it is set: the journal's
//! safe points and the unjournaled harness safe point alike. So a test
//! that sets the latch holds [`set_latch`]'s write guard for as long as
//! the latch may be up, and every test that runs cells holds
//! [`run_cells`]' read guard. Cells then never run under another test's
//! latch, while the cell-running tests still run in parallel.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

static LATCH: RwLock<()> = RwLock::new(());

/// Held by a test that runs evaluation or journal cells.
pub(crate) fn run_cells() -> RwLockReadGuard<'static, ()> {
    LATCH.read().unwrap_or_else(|e| e.into_inner())
}

/// Held by a test that sets the shutdown latch.
pub(crate) fn set_latch() -> RwLockWriteGuard<'static, ()> {
    LATCH.write().unwrap_or_else(|e| e.into_inner())
}
