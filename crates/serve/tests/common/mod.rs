//! Helpers shared by the serve integration suites.

use ninec_serve::{ServeConfig, Server};
use std::time::Duration;

/// The trit pattern the suites repeat to build request payloads.
pub const STREAM: &str = "0X0X00XX1111X11101X0";

/// Starts a server on ephemeral loopback ports.
pub fn start(config: ServeConfig) -> Server {
    Server::start(config).expect("ephemeral loopback server starts")
}

/// Runs `body` on a helper thread and panics if it does not finish
/// within `limit` — the suites' no-hang guarantee.
pub fn watchdog<T: Send + 'static>(
    limit: Duration,
    name: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            // The body panicked — re-raise its message, not a fake hang.
            match handle.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => panic!("{name} exited without sending a result"),
            }
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name} hung past the {limit:?} watchdog")
        }
    }
}
