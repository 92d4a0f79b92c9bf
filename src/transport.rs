//! The daemon side of the multi-node shard transport (DESIGN.md §13).
//!
//! [`xai_core::transport`] owns the wire protocol and the failure-first
//! [`ClusterRunner`] (re-exported wholesale here); this module owns
//! everything that needs the full method registry: [`run_daemon`] turns
//! the `xai-shard-worker` binary into a TCP daemon (`--listen addr:port`)
//! that serves a persistent session per connection — one
//! [`ShardDescriptor`] frame per request, looped until the client closes
//! the stream — executing each through
//! [`crate::shard::execute_wire_text`] (rebuilding model and method from
//! their persisted forms; a panic is caught and typed, as in the stdin
//! worker) and answering with a [`ShardResult`] frame or a typed shard
//! error envelope. The coordinator side is
//! [`xai_core::backend::ClusterBackend`] over a [`ClusterRunner`].
//!
//! For the supervision tests, `XAI_TRANSPORT_FAULT` injects daemon-side
//! failure modes (`kill`, `hang`, `garbage`, `partial`, `panic`,
//! optionally `mode:N` to fault only the first `N` connections and then
//! behave); [`DaemonHandle`] spawns a daemon on an ephemeral loopback
//! port and tears it down on drop, so every test is offline and
//! self-contained.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use xai_core::{IoKind, XaiError, XaiResult};

use crate::shard::execute_caught;

pub use xai_core::transport::*;

/// How long the daemon waits on a single connection's socket operations.
/// Generous: slow shards are legitimate; the *client* owns the deadline.
const DAEMON_IO_TIMEOUT: Duration = Duration::from_secs(600);

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A daemon-side injected failure mode, for the supervision tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultMode {
    /// `process::exit(3)` on arrival — the client sees the stream die
    /// mid-request, and every later connect is refused.
    Kill,
    /// Accept, read nothing, answer nothing — the client's response
    /// deadline fires.
    Hang,
    /// Answer with bytes that are not a frame — the client types it as a
    /// garbage-frame parse error.
    Garbage,
    /// Answer with a valid header promising more payload than is sent,
    /// then close — a short read.
    Partial,
    /// Panic inside shard execution — caught and returned as a
    /// `worker_panic` envelope, exactly like the stdin worker.
    Panic,
}

/// The parsed `XAI_TRANSPORT_FAULT` plan: a mode, optionally limited to
/// the first `limit` connections (`"garbage:1"`), after which the daemon
/// behaves — so tests can exercise retry-to-success, not just failure.
struct FaultPlan {
    mode: FaultMode,
    limit: Option<usize>,
    served: AtomicUsize,
}

impl FaultPlan {
    fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("XAI_TRANSPORT_FAULT").ok()?;
        if spec.is_empty() {
            return None;
        }
        let (name, limit) = match spec.split_once(':') {
            Some((name, n)) => (name, Some(n.parse::<usize>().ok()?)),
            None => (spec.as_str(), None),
        };
        let mode = match name {
            "kill" => FaultMode::Kill,
            "hang" => FaultMode::Hang,
            "garbage" => FaultMode::Garbage,
            "partial" => FaultMode::Partial,
            "panic" => FaultMode::Panic,
            _ => return None,
        };
        Some(FaultPlan { mode, limit, served: AtomicUsize::new(0) })
    }

    /// Whether this connection should fault (counts connections so
    /// `mode:N` faults exactly the first `N`).
    fn applies(&self) -> bool {
        let n = self.served.fetch_add(1, Ordering::SeqCst);
        self.limit.map(|limit| n < limit).unwrap_or(true)
    }
}

/// Applies one injected fault to an accepted connection. Returns `true`
/// when the fault consumed the connection (nothing further to do).
fn inject_fault(mode: FaultMode, stream: &TcpStream) -> bool {
    match mode {
        FaultMode::Kill => std::process::exit(3),
        FaultMode::Hang => {
            // Hold the socket open without answering until the peer (or
            // the test harness) gives up and the daemon is killed.
            let mut byte = [0u8; 1];
            let _ = stream.set_read_timeout(Some(Duration::from_secs(3600)));
            let _ = (&*stream).read(&mut byte);
            std::thread::sleep(Duration::from_secs(3600));
            true
        }
        FaultMode::Garbage => {
            // Consume the request first — a lying worker accepts the
            // shard, then answers nonsense; closing unread would surface
            // as a broken pipe on the client's write instead.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = xai_core::transport::read_frame(&mut &*stream, "fault injection");
            let _ = (&*stream).write_all(b"HTTP/1.1 200 OK\r\n\r\nthis is not a shard frame");
            true
        }
        FaultMode::Partial => {
            let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
            let _ = xai_core::transport::read_frame(&mut &*stream, "fault injection");
            let mut header = [0u8; 8];
            header[..4].copy_from_slice(&FRAME_MAGIC);
            header[4..].copy_from_slice(&1000u32.to_be_bytes());
            let _ = (&*stream).write_all(&header);
            let _ = (&*stream).write_all(&[0u8; 10]);
            // Drop the stream: the peer is owed 990 more bytes it will
            // never see.
            true
        }
        FaultMode::Panic => false,
    }
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// Runs the shard daemon: bind `addr` (use port 0 for an ephemeral
/// port), print `listening on {local_addr}` on stdout so a parent
/// process can discover the port, then serve a persistent session per
/// connection — descriptors are answered in a loop until the client
/// closes the stream. Returns a process exit code on unrecoverable
/// errors (a failed bind); per-connection failures are logged to stderr
/// and never stop the daemon.
pub fn run_daemon(addr: &str) -> i32 {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("xai-shard-worker: cannot listen on {addr}: {e}");
            return 2;
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xai-shard-worker: no local address: {e}");
            return 2;
        }
    };
    println!("listening on {local}");
    let _ = std::io::stdout().flush();
    let fault = FaultPlan::from_env();
    // Injected panics must not kill the daemon with an abort-on-panic
    // backtrace wall of text in every test log.
    std::panic::set_hook(Box::new(|_| {}));
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xai-shard-worker: accept failed: {e}");
                continue;
            }
        };
        let injected_panic = match &fault {
            Some(plan) if plan.applies() => {
                if inject_fault(plan.mode, &stream) {
                    continue;
                }
                // FaultMode::Panic reaches execution.
                Some("injected transport fault: panic")
            }
            _ => None,
        };
        std::thread::spawn(move || {
            let execute = |text: &str| execute_caught(text, injected_panic);
            if let Err(e) = serve_connection(&stream, DAEMON_IO_TIMEOUT, &execute) {
                eprintln!("xai-shard-worker: connection failed: {e}");
            }
        });
    }
    0
}

// ---------------------------------------------------------------------------
// Spawning daemons (tests, examples)
// ---------------------------------------------------------------------------

/// A spawned `xai-shard-worker --listen` daemon on an ephemeral loopback
/// port. Killed and reaped on drop, so tests cannot leak processes.
pub struct DaemonHandle {
    child: Child,
    addr: String,
}

impl DaemonHandle {
    /// Spawns `exe --listen 127.0.0.1:0` with the given extra environment
    /// variables (e.g. `XAI_TRANSPORT_FAULT`) and waits for the daemon to
    /// report its bound address.
    pub fn spawn(exe: impl AsRef<Path>, envs: &[(&str, &str)]) -> XaiResult<DaemonHandle> {
        let exe = exe.as_ref();
        let mut cmd = Command::new(exe);
        cmd.args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, value) in envs {
            cmd.env(key, value);
        }
        let mut child = cmd.spawn().map_err(|e| {
            XaiError::from_io(&e, format_args!("spawning shard daemon '{}'", exe.display()))
        })?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        match read {
            Ok(n) if n > 0 => {}
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(XaiError::io(
                    IoKind::ShortRead,
                    "shard daemon exited before reporting its address".to_string(),
                ));
            }
        }
        let addr = match line.trim().strip_prefix("listening on ") {
            Some(addr) if !addr.is_empty() => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(xai_core::shard::wire_error(format!(
                    "shard daemon announced '{}' instead of its address",
                    line.trim()
                )));
            }
        };
        Ok(DaemonHandle { child, addr })
    }

    /// The daemon's bound `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plans_parse_modes_and_limits() {
        // FaultPlan reads the environment, so drive the parser through
        // its pieces: mode names and the `:N` limit.
        for (spec, mode, limit) in [
            ("kill", FaultMode::Kill, None),
            ("hang", FaultMode::Hang, None),
            ("garbage:1", FaultMode::Garbage, Some(1)),
            ("partial:2", FaultMode::Partial, Some(2)),
            ("panic", FaultMode::Panic, None),
        ] {
            std::env::set_var("XAI_TRANSPORT_FAULT", spec);
            let plan = FaultPlan::from_env().expect(spec);
            assert_eq!(plan.mode, mode, "{spec}");
            assert_eq!(plan.limit, limit, "{spec}");
        }
        std::env::set_var("XAI_TRANSPORT_FAULT", "no-such-mode");
        assert!(FaultPlan::from_env().is_none());
        std::env::remove_var("XAI_TRANSPORT_FAULT");
        assert!(FaultPlan::from_env().is_none());
    }

    #[test]
    fn fault_limits_count_connections() {
        let plan = FaultPlan { mode: FaultMode::Garbage, limit: Some(2), served: AtomicUsize::new(0) };
        assert!(plan.applies());
        assert!(plan.applies());
        assert!(!plan.applies(), "the third connection is served honestly");
        let always = FaultPlan { mode: FaultMode::Hang, limit: None, served: AtomicUsize::new(0) };
        for _ in 0..5 {
            assert!(always.applies());
        }
    }
}
