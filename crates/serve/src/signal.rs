//! SIGTERM/SIGINT → drain-flag plumbing.
//!
//! The workspace carries no `libc` crate, so the one POSIX call the
//! daemon needs — installing a signal handler — is declared by hand.
//! The handler does the only thing that is async-signal-safe here: a
//! relaxed store to a static atomic. The daemon's accept loop polls the
//! flag (it accepts with a non-blocking listener anyway), so handler
//! semantics like `SA_RESTART` never matter.
//!
//! This module is the crate's entire unsafe surface.

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs handlers for SIGTERM (15) and SIGINT (2) that raise the
/// drain flag, and returns the flag for polling. On non-Unix targets
/// this installs nothing and the flag never moves.
#[cfg(unix)]
#[allow(unsafe_code)]
pub fn install_shutdown_flag() -> &'static AtomicBool {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        // POSIX sighandler_t signal(int signum, sighandler_t handler);
        // where sighandler_t is a pointer-sized void (*)(int).
        fn signal(signum: i32, handler: usize) -> usize;
    }

    // SAFETY: `on_signal` is an `extern "C" fn(i32)` matching
    // `sighandler_t`, and its body is a single relaxed atomic store,
    // which is async-signal-safe.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
    &SHUTDOWN_REQUESTED
}

/// Non-Unix stub: returns the flag without installing any handler.
#[cfg(not(unix))]
pub fn install_shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN_REQUESTED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_returned_flag_is_the_one_the_handler_raises() {
        // Note: the flag is process-global; this test only ever raises
        // it, matching how the daemon uses it (one-way latch).
        let flag = install_shutdown_flag();
        SHUTDOWN_REQUESTED.store(true, Ordering::Relaxed);
        assert!(flag.load(Ordering::Relaxed));
    }
}
