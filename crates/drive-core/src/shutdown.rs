//! Graceful-shutdown latching for SIGTERM / SIGINT.
//!
//! A polite `kill` (or Ctrl-C) should never cost a long run its flushed
//! state: the handler installed here only latches a process-wide atomic
//! flag, and cooperative code polls [`requested`] at safe points — the
//! harness between grid cells, the serving loop between batches — then
//! drains, flushes, and exits cleanly. (SIGKILL remains the crash-safety
//! journal's problem; this module covers the *polite* signals.)
//!
//! The flag is a latch: once set it stays set, and a second signal does
//! not escalate (the default disposition is replaced for the process
//! lifetime). [`trigger`] sets the same latch programmatically so tests
//! and embedders can drive the drain path without real signals.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static REQUESTED: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

/// Panic payload used to unwind out of deep work loops once shutdown is
/// requested. Raise it with `std::panic::resume_unwind`, which skips the
/// panic hook, so a drain prints no panic message per unwound cell.
/// Layers that `catch_unwind` for *fault isolation* (retry, resilience)
/// must not treat this as a recoverable failure; the top-level driver
/// catches it and exits cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownRequested;

impl std::fmt::Display for ShutdownRequested {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shutdown requested (SIGTERM/SIGINT)")
    }
}

#[cfg(unix)]
mod imp {
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    // The platform C library is already linked by std on unix; binding
    // `signal` directly keeps this crate dependency-free. The handler
    // body is a single atomic store — async-signal-safe by construction.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        super::REQUESTED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

/// Installs the SIGTERM/SIGINT latch handlers (idempotent). Call once
/// near the top of `main` in any binary that wants graceful drains.
pub fn install() {
    INSTALL.call_once(imp::install);
}

/// Whether a shutdown signal (or [`trigger`]) has been latched.
pub fn requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}

/// Latches the shutdown flag programmatically (tests, embedders).
pub fn trigger() {
    REQUESTED.store(true, Ordering::SeqCst);
}

/// Clears the latch. Test hook only: real shutdowns never un-request.
#[doc(hidden)]
pub fn clear_for_test() {
    REQUESTED.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_round_trip() {
        clear_for_test();
        assert!(!requested());
        trigger();
        assert!(requested());
        trigger();
        assert!(requested(), "latch stays set");
        clear_for_test();
        assert!(!requested());
    }

    #[test]
    fn install_is_idempotent() {
        install();
        install();
    }
}
