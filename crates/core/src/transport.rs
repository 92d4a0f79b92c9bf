//! Fault-tolerant multi-node shard transport (DESIGN.md §13).
//!
//! The shard layer ([`crate::shard`]) made every sampled estimator a set
//! of self-contained, wire-ready [`ShardDescriptor`]s whose partials
//! merge **bit-identically** to the unsharded run. This module moves
//! those descriptors between machines: a zero-dependency length-prefixed
//! TCP protocol (std `TcpListener`/`TcpStream` only) carries one
//! descriptor per request frame to a remote `xai-shard-worker --listen`
//! daemon and one [`ShardResult`] — or a typed shard error envelope —
//! back. The [`ClusterRunner`] supervises that traffic and keeps the
//! execution counters ([`ClusterRunner::stats`]); callers run a shard
//! plan on it through [`crate::backend::ClusterBackend`], the
//! [`crate::backend::ExecutionBackend`] that owns the merge and the
//! fallback decision.
//!
//! Connections are **reused**: each endpoint keeps a pool of idle
//! persistent framed sessions, so a runner shipping many descriptors
//! pays one TCP handshake per concurrent stream, not one per
//! descriptor. A shard-level result cache ([`crate::cache::Lru`]) keyed
//! on (model fingerprint, descriptor hash) answers repeated, retried, or
//! hedged shards without touching the network at all — sound because
//! shard execution is deterministic.
//!
//! The whole design is failure-first, because on a real cluster workers
//! are slow, dead, or lying:
//!
//! - **Frames** ([`write_frame`]/[`read_frame`]) are
//!   `magic ‖ length ‖ payload`; anything else — wrong magic, an absurd
//!   length, truncation — is detected immediately and typed precisely
//!   (garbage is [`XaiError::Parse`], truncation is [`XaiError::Io`]
//!   with [`IoKind::ShortRead`]).
//! - **Retry** is governed by a typed [`RetryPolicy`]: bounded attempts,
//!   exponential backoff, and *deterministic seeded jitter* (SplitMix64
//!   over `child_seed(jitter_seed, shard, attempt)`) so two coordinators
//!   never thundering-herd in lockstep yet every schedule is replayable.
//! - **Hedging**: a shard whose response is slower than
//!   [`ClusterConfig::hedge_after`] is re-dispatched to a second
//!   endpoint; the first valid result wins. This is safe *because* shard
//!   execution is deterministic — any worker can re-run any shard and the
//!   bytes are canonical, so duplicated work can never disagree.
//! - **Circuit breaking**: per-endpoint consecutive-failure counters trip
//!   an endpoint open; after [`ClusterConfig::breaker_cooldown`] one
//!   half-open probe is admitted, and its outcome either re-closes or
//!   re-opens the breaker. Shards route around open endpoints, so a dead
//!   machine stops eating retry budget.
//! - **Graceful degradation**: when the entire cluster is unreachable and
//!   [`FallbackPolicy::InProcess`] allows it, the backend falls back to
//!   the local [`crate::backend::dispatch_local`] runner and the outcome
//!   carries a `degraded` marker. The *bytes* of the explanation are
//!   identical either way — degradation changes where work ran, never
//!   what it computed.
//!
//! Failure classes stay distinguishable end to end: connection refused is
//! `Io`/[`IoKind::Refused`], a mid-stream disconnect is `Io`/
//! [`IoKind::Reset`] or [`IoKind::ShortRead`], a garbage frame is
//! [`XaiError::Parse`], a worker that exceeds the response deadline is
//! [`XaiError::BudgetExceeded`], and a typed error envelope from the
//! worker ([`XaiError::WorkerPanic`], [`XaiError::ModelFault`], …)
//! passes through unchanged. Envelope errors are *execution* failures —
//! deterministic properties of the shard — so they are never retried and
//! never trigger fallback; transport failures are environmental, so they
//! are retried, re-routed, hedged, and ultimately degradable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use xai_rand::{child_seed, SplitMix64};

use crate::backend::descriptor_cache_key;
use crate::cache::Lru;
use crate::error::{IoKind, XaiError, XaiResult};
use crate::shard::{
    error_from_json, error_to_json, is_error_envelope, wire_error, ShardDescriptor, ShardResult,
};

// ---------------------------------------------------------------------------
// The wire frame
// ---------------------------------------------------------------------------

/// Frame magic: four fixed bytes so a stray HTTP client (or a worker
/// writing garbage) is rejected on the first read, not after buffering
/// an attacker-chosen length.
pub const FRAME_MAGIC: [u8; 4] = *b"XAI1";

/// Hard ceiling on a frame payload. Descriptors carry whole datasets, so
/// the limit is generous — but a garbage length field must never make
/// the peer allocate unbounded memory.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Writes one `magic ‖ u32-be length ‖ payload` frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8], what: &str) -> XaiResult<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(wire_error(format!(
            "{what}: frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            payload.len()
        )));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: writing frame header")))?;
    w.write_all(payload)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: writing frame payload")))?;
    w.flush().map_err(|e| XaiError::from_io(&e, format_args!("{what}: flushing frame")))
}

/// Reads one frame, enforcing magic and the length cap. Truncation at
/// any point is `Io`/[`IoKind::ShortRead`]; an OS read deadline is
/// `Io`/[`IoKind::Timeout`]; a wrong magic or absurd length is a typed
/// [`XaiError::Parse`] (the peer is speaking, but not our protocol).
pub fn read_frame(r: &mut impl Read, what: &str) -> XaiResult<Vec<u8>> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: reading frame header")))?;
    read_frame_body(r, header, what)
}

/// Reads one frame, or `None` when the peer closed the connection
/// cleanly *before any header byte* — the signal that a persistent
/// session is done. EOF mid-header is still a short read, exactly as in
/// [`read_frame`].
pub fn read_frame_or_eof(r: &mut impl Read, what: &str) -> XaiResult<Option<Vec<u8>>> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(XaiError::from_io(&e, format_args!("{what}: reading frame header")))
            }
        }
    }
    let mut header = [0u8; 8];
    header[0] = first[0];
    r.read_exact(&mut header[1..])
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: reading frame header")))?;
    read_frame_body(r, header, what).map(Some)
}

/// Validates a frame header and reads the payload behind it.
fn read_frame_body(r: &mut impl Read, header: [u8; 8], what: &str) -> XaiResult<Vec<u8>> {
    if header[..4] != FRAME_MAGIC {
        return Err(wire_error(format!(
            "{what}: bad frame magic {:02x}{:02x}{:02x}{:02x} (garbage frame)",
            header[0], header[1], header[2], header[3]
        )));
    }
    let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(wire_error(format!(
            "{what}: frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap (garbage frame)"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)
        .map_err(|e| XaiError::from_io(&e, format_args!("{what}: reading {len}-byte frame payload")))?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Retry policy: bounded attempts, exponential backoff, seeded jitter
// ---------------------------------------------------------------------------

/// How a shard's transport attempts are paced. Attempts are bounded,
/// backoff grows exponentially up to a cap, and jitter is drawn from a
/// seeded SplitMix64 stream keyed on `(jitter_seed, shard, attempt)` —
/// deterministic, so a fault schedule replays identically, yet distinct
/// across shards so synchronized retries spread out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total dispatch attempts per shard (>= 1). Hedged duplicates do not
    /// count against this bound.
    pub max_attempts: usize,
    /// Backoff before the second attempt; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep, jitter included.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based count of failures
    /// so far) of `shard`: `min(base · 2^attempt, max) + jitter`, capped
    /// at `max_backoff`. Pure — same inputs, same duration.
    pub fn backoff(&self, shard: usize, attempt: usize) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.min(16) as u32))
            .min(self.max_backoff);
        let mut stream =
            SplitMix64::new(child_seed(child_seed(self.jitter_seed, shard as u64), attempt as u64));
        let frac = (stream.next() >> 11) as f64 / (1u64 << 53) as f64;
        (exp + self.base_backoff.mul_f64(frac)).min(self.max_backoff)
    }
}

// ---------------------------------------------------------------------------
// Endpoint health: consecutive-failure circuit breaker with half-open probes
// ---------------------------------------------------------------------------

/// Where an endpoint's circuit breaker stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are routed elsewhere until the cooldown elapses.
    Open,
    /// One probe request is in flight; its outcome re-closes or re-opens.
    HalfOpen,
}

/// Point-in-time view of one endpoint's health, for tests and operators.
#[derive(Clone, Debug)]
pub struct EndpointHealth {
    /// The endpoint address as configured.
    pub addr: String,
    /// Breaker state at snapshot time.
    pub state: BreakerState,
    /// Consecutive transport failures since the last success.
    pub consecutive_failures: usize,
    /// Total successful round trips.
    pub successes: u64,
    /// Total failed round trips.
    pub failures: u64,
    /// Times the breaker tripped open.
    pub trips: u64,
}

struct EndpointSlot {
    state: BreakerState,
    opened_at: Option<Instant>,
    consecutive_failures: usize,
    successes: u64,
    failures: u64,
    trips: u64,
}

/// Shared per-endpoint health book-keeping for one [`ClusterRunner`].
pub(crate) struct HealthTracker {
    addrs: Vec<String>,
    threshold: usize,
    cooldown: Duration,
    slots: Mutex<Vec<EndpointSlot>>,
}

impl HealthTracker {
    /// A tracker over `addrs` tripping after `threshold` consecutive
    /// failures, probing again after `cooldown`.
    fn new(addrs: Vec<String>, threshold: usize, cooldown: Duration) -> Self {
        assert!(threshold >= 1, "breaker threshold must be at least 1");
        let slots = addrs
            .iter()
            .map(|_| EndpointSlot {
                state: BreakerState::Closed,
                opened_at: None,
                consecutive_failures: 0,
                successes: 0,
                failures: 0,
                trips: 0,
            })
            .collect();
        HealthTracker { addrs, threshold, cooldown, slots: Mutex::new(slots) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<EndpointSlot>> {
        self.slots.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Whether endpoint `i` may receive a request right now. A closed
    /// breaker admits; an open one admits a single half-open probe once
    /// the cooldown has elapsed; a half-open one is already probing, so
    /// further traffic keeps routing around it.
    fn admit(&self, i: usize) -> bool {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        match slot.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let due = slot
                    .opened_at
                    .map(|t| t.elapsed() >= self.cooldown)
                    .unwrap_or(true);
                if due {
                    slot.state = BreakerState::HalfOpen;
                }
                due
            }
        }
    }

    /// Records a successful round trip: the breaker re-closes.
    fn record_success(&self, i: usize) {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        slot.successes += 1;
        slot.consecutive_failures = 0;
        slot.state = BreakerState::Closed;
        slot.opened_at = None;
    }

    /// Records a transport failure: a failed half-open probe re-opens
    /// immediately; a closed breaker trips once `threshold` consecutive
    /// failures accumulate.
    fn record_failure(&self, i: usize) {
        let mut slots = self.lock();
        let slot = &mut slots[i];
        slot.failures += 1;
        slot.consecutive_failures += 1;
        let trip = match slot.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => slot.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            slot.state = BreakerState::Open;
            slot.opened_at = Some(Instant::now());
            slot.trips += 1;
        }
    }

    /// Snapshot of every endpoint's health.
    fn snapshot(&self) -> Vec<EndpointHealth> {
        let slots = self.lock();
        self.addrs
            .iter()
            .zip(slots.iter())
            .map(|(addr, s)| EndpointHealth {
                addr: addr.clone(),
                state: s.state,
                consecutive_failures: s.consecutive_failures,
                successes: s.successes,
                failures: s.failures,
                trips: s.trips,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Cluster configuration
// ---------------------------------------------------------------------------

/// What to do when the cluster is entirely unavailable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackPolicy {
    /// Re-run the whole plan on the local in-process runner and mark the
    /// outcome `degraded`. The bytes are identical — determinism makes
    /// the fallback invisible in the result, visible in the marker.
    InProcess,
    /// Surface the transport error to the caller.
    Fail,
}

/// Configuration for a [`ClusterRunner`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker daemon endpoints, `"host:port"`.
    pub endpoints: Vec<String>,
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Socket read/write deadline. A worker that takes longer than this
    /// to answer is treated as past its deadline
    /// ([`XaiError::BudgetExceeded`]) and re-dispatched.
    pub io_timeout: Duration,
    /// Retry pacing (attempts, backoff, seeded jitter).
    pub retry: RetryPolicy,
    /// Straggler threshold: when a response takes longer than this, the
    /// shard is hedged onto a second endpoint and the first valid result
    /// wins. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Consecutive transport failures before an endpoint's breaker trips.
    pub breaker_threshold: usize,
    /// How long a tripped breaker waits before admitting a half-open
    /// probe.
    pub breaker_cooldown: Duration,
    /// Behaviour when every endpoint is unavailable.
    pub fallback: FallbackPolicy,
    /// Capacity of the shard-level result cache (an exact LRU keyed by
    /// [`crate::backend::descriptor_cache_key`]): repeated, retried, or
    /// hedged shards with an identical (fingerprint, descriptor) key are
    /// answered from cache instead of the network. Zero disables it.
    pub shard_cache_capacity: usize,
}

impl ClusterConfig {
    /// A config over `endpoints` with production-shaped defaults: 2 s
    /// connects, 60 s responses, three attempts with 50 ms–2 s backoff,
    /// no hedging, breaker at 3 consecutive failures with a 1 s cooldown,
    /// in-process fallback, and a 256-entry shard cache.
    pub fn new<I, S>(endpoints: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ClusterConfig {
            endpoints: endpoints.into_iter().map(Into::into).collect(),
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            retry: RetryPolicy::default(),
            hedge_after: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            fallback: FallbackPolicy::InProcess,
            shard_cache_capacity: 256,
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster statistics
// ---------------------------------------------------------------------------

/// Counters describing what a [`ClusterRunner`] did. Scheduling-dependent
/// (how many retries a flaky endpoint cost), but the *result bytes* never
/// are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Transport dispatches, hedges included.
    pub attempts: u64,
    /// Attempt loops entered beyond each shard's first.
    pub retries: u64,
    /// Hedge dispatches launched for stragglers.
    pub hedges: u64,
    /// Shards won by the hedge rather than the primary.
    pub hedge_wins: u64,
    /// Transport-class failures observed (refused, reset, short read,
    /// timeout, garbage frame, deadline).
    pub transport_failures: u64,
    /// Breaker trips across all endpoints.
    pub breaker_trips: u64,
    /// Fresh TCP connections opened (handshakes paid).
    pub connections_opened: u64,
    /// Round trips that started on a pooled persistent session.
    pub sessions_reused: u64,
    /// Shards answered from the shard-level result cache.
    pub shard_cache_hits: u64,
    /// Shards that missed the shard-level result cache.
    pub shard_cache_misses: u64,
}

#[derive(Default)]
struct Counters {
    attempts: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    transport_failures: AtomicU64,
    connections_opened: AtomicU64,
    sessions_reused: AtomicU64,
}

// ---------------------------------------------------------------------------
// Persistent sessions
// ---------------------------------------------------------------------------

/// Idle persistent connections to one endpoint. A round trip checks a
/// stream out, and a *healthy* round trip (success or a typed execution
/// envelope) checks it back in; transport failures drop the stream, so
/// the pool only ever holds connections whose last frame exchange was
/// clean.
struct SessionPool {
    idle: Mutex<Vec<TcpStream>>,
}

/// Idle streams kept per endpoint. Beyond this, returned streams are
/// simply closed — enough to cover the executor's concurrency without
/// hoarding sockets.
const MAX_IDLE_SESSIONS: usize = 8;

impl SessionPool {
    fn new() -> Self {
        SessionPool { idle: Mutex::new(Vec::new()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TcpStream>> {
        self.idle.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn checkout(&self) -> Option<TcpStream> {
        self.lock().pop()
    }

    fn checkin(&self, stream: TcpStream) {
        let mut idle = self.lock();
        if idle.len() < MAX_IDLE_SESSIONS {
            idle.push(stream);
        }
    }
}

// ---------------------------------------------------------------------------
// Failure classification
// ---------------------------------------------------------------------------

/// Why a shard could not be completed over the wire. Transport failures
/// are environmental (retryable, hedgeable, degradable); execution
/// failures came back in a typed envelope from a worker that ran the
/// shard — deterministic, so retrying or falling back cannot change them.
pub(crate) enum ShardFailure {
    Transport(XaiError),
    Execution(XaiError),
}

impl ShardFailure {
    pub(crate) fn into_error(self) -> XaiError {
        match self {
            ShardFailure::Transport(e) | ShardFailure::Execution(e) => e,
        }
    }

    /// Whether this failure is a deterministic execution envelope (never
    /// retried, never degraded) rather than an environmental one.
    pub(crate) fn is_execution(&self) -> bool {
        matches!(self, ShardFailure::Execution(_))
    }
}

// ---------------------------------------------------------------------------
// One TCP round trip
// ---------------------------------------------------------------------------

/// Ships `payload` (a descriptor's canonical JSON) to `addr` and decodes
/// the response, preferring an idle persistent session from `sessions`
/// over a fresh TCP connect. Streams return to the pool after every
/// healthy exchange (including typed execution envelopes — the
/// *connection* worked). A daemon may close an idle pooled stream at any
/// time, so a transport failure on a reused stream gets one transparent
/// fresh-connection retry; failures on fresh connections always surface.
/// Every failure mode maps onto a distinguishable class — see the module
/// docs.
fn request_once(
    addr: SocketAddr,
    label: &str,
    payload: &[u8],
    shard: usize,
    connect_timeout: Duration,
    io_timeout: Duration,
    sessions: &SessionPool,
    counters: &Counters,
) -> Result<ShardResult, ShardFailure> {
    let what = format!("shard {shard} -> {label}");
    if let Some(stream) = sessions.checkout() {
        counters.sessions_reused.fetch_add(1, Ordering::Relaxed);
        match roundtrip(&stream, payload, shard, io_timeout, &what) {
            Ok(result) => {
                sessions.checkin(stream);
                return Ok(result);
            }
            Err(ShardFailure::Execution(e)) => {
                sessions.checkin(stream);
                return Err(ShardFailure::Execution(e));
            }
            // A stale session (the daemon closed it while idle); drop
            // the stream and fall through to a fresh connection.
            Err(ShardFailure::Transport(_)) => {}
        }
    }
    let stream = TcpStream::connect_timeout(&addr, connect_timeout)
        .map_err(|e| {
            ShardFailure::Transport(XaiError::from_io(&e, format_args!("{what}: connect")))
        })?;
    counters.connections_opened.fetch_add(1, Ordering::Relaxed);
    match roundtrip(&stream, payload, shard, io_timeout, &what) {
        Ok(result) => {
            sessions.checkin(stream);
            Ok(result)
        }
        Err(ShardFailure::Execution(e)) => {
            sessions.checkin(stream);
            Err(ShardFailure::Execution(e))
        }
        Err(failure) => Err(failure),
    }
}

/// One framed exchange on an established stream.
fn roundtrip(
    stream: &TcpStream,
    payload: &[u8],
    shard: usize,
    io_timeout: Duration,
    what: &str,
) -> Result<ShardResult, ShardFailure> {
    let transport = ShardFailure::Transport;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    write_frame(&mut &*stream, payload, what).map_err(ShardFailure::Transport)?;
    let bytes = match read_frame(&mut &*stream, what) {
        Ok(bytes) => bytes,
        // An expired read deadline while waiting for the response is the
        // worker blowing its per-shard deadline, not a socket mishap.
        Err(XaiError::Io { kind: IoKind::Timeout, .. }) => {
            return Err(transport(XaiError::BudgetExceeded {
                context: format!("{what}: no response within the {io_timeout:?} deadline"),
                completed: 0,
            }))
        }
        Err(e) => return Err(transport(e)),
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| transport(wire_error(format!("{what}: response is not UTF-8"))))?;
    let json = crate::json_parse::parse_json(&text).map_err(|_| {
        transport(wire_error(format!(
            "{what}: unparseable response frame ({} bytes)",
            text.len()
        )))
    })?;
    if is_error_envelope(&json) {
        let err = match error_from_json(&json).map_err(ShardFailure::Transport)? {
            // The worker may not know its shard index at panic time.
            XaiError::WorkerPanic { message, .. } => XaiError::WorkerPanic { task: shard, message },
            other => other,
        };
        return Err(ShardFailure::Execution(err));
    }
    let result = ShardResult::from_json(&json).map_err(ShardFailure::Transport)?;
    if result.shard != shard {
        return Err(transport(wire_error(format!(
            "{what}: worker answered for shard {} (lying worker)",
            result.shard
        ))));
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// The cluster runner
// ---------------------------------------------------------------------------

/// Failure-first coordinator for shard execution across TCP endpoints.
/// See the module docs for the supervision design.
pub struct ClusterRunner {
    config: ClusterConfig,
    addrs: Vec<SocketAddr>,
    health: HealthTracker,
    counters: Arc<Counters>,
    sessions: Vec<Arc<SessionPool>>,
    /// Shard results by [`descriptor_cache_key`].
    shard_cache: Lru<(u64, u64), ShardResult>,
}

impl ClusterRunner {
    /// Builds a runner, resolving every endpoint. Unparseable endpoint
    /// strings are typed [`XaiError::Parse`] errors; an empty endpoint
    /// list is [`XaiError::Unsupported`].
    pub fn new(config: ClusterConfig) -> XaiResult<ClusterRunner> {
        if config.endpoints.is_empty() {
            return Err(XaiError::Unsupported {
                context: "cluster transport needs at least one endpoint".into(),
            });
        }
        assert!(config.retry.max_attempts >= 1, "need at least one attempt per shard");
        let addrs = config
            .endpoints
            .iter()
            .map(|ep| {
                ep.parse::<SocketAddr>().map_err(|e| {
                    wire_error(format!("cluster endpoint '{ep}' is not a socket address: {e}"))
                })
            })
            .collect::<XaiResult<Vec<SocketAddr>>>()?;
        let health = HealthTracker::new(
            config.endpoints.clone(),
            config.breaker_threshold,
            config.breaker_cooldown,
        );
        let sessions = addrs.iter().map(|_| Arc::new(SessionPool::new())).collect();
        let shard_cache = Lru::new(config.shard_cache_capacity);
        Ok(ClusterRunner {
            config,
            addrs,
            health,
            counters: Arc::new(Counters::default()),
            sessions,
            shard_cache,
        })
    }

    /// The configuration this runner was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current per-endpoint health (breaker states, counters).
    pub fn health(&self) -> Vec<EndpointHealth> {
        self.health.snapshot()
    }

    /// Current transport counters.
    pub fn stats(&self) -> ClusterStats {
        let cache = self.shard_cache.stats();
        ClusterStats {
            attempts: self.counters.attempts.load(Ordering::Relaxed),
            retries: self.counters.retries.load(Ordering::Relaxed),
            hedges: self.counters.hedges.load(Ordering::Relaxed),
            hedge_wins: self.counters.hedge_wins.load(Ordering::Relaxed),
            transport_failures: self.counters.transport_failures.load(Ordering::Relaxed),
            breaker_trips: self.health.snapshot().iter().map(|h| h.trips).sum(),
            connections_opened: self.counters.connections_opened.load(Ordering::Relaxed),
            sessions_reused: self.counters.sessions_reused.load(Ordering::Relaxed),
            shard_cache_hits: cache.hits,
            shard_cache_misses: cache.misses,
        }
    }

    /// First admittable endpoint scanning from `start`, skipping
    /// `exclude`. `None` when every breaker is open and cooling down.
    fn pick_endpoint(&self, start: usize, exclude: Option<usize>) -> Option<usize> {
        let n = self.addrs.len();
        (0..n).map(|k| (start + k) % n).find(|&i| Some(i) != exclude && self.health.admit(i))
    }

    /// Launches one round trip on a detached thread; the result arrives
    /// on `tx` tagged with the endpoint index. Detached is deliberate:
    /// a hedged loser must not block the winner, and every socket
    /// operation carries a deadline, so the thread always terminates.
    fn launch(
        &self,
        endpoint: usize,
        payload: &Arc<[u8]>,
        shard: usize,
        tx: &mpsc::Sender<(usize, Result<ShardResult, ShardFailure>)>,
    ) {
        let addr = self.addrs[endpoint];
        let label = self.config.endpoints[endpoint].clone();
        let payload = Arc::clone(payload);
        let (connect_timeout, io_timeout) = (self.config.connect_timeout, self.config.io_timeout);
        let sessions = Arc::clone(&self.sessions[endpoint]);
        let counters = Arc::clone(&self.counters);
        let tx = tx.clone();
        self.counters.attempts.fetch_add(1, Ordering::Relaxed);
        std::thread::spawn(move || {
            let outcome = request_once(
                addr,
                &label,
                &payload,
                shard,
                connect_timeout,
                io_timeout,
                &sessions,
                &counters,
            );
            let _ = tx.send((endpoint, outcome));
        });
    }

    /// Supervises one shard to completion, consulting the shard cache
    /// first: a hit skips the network entirely, and a fresh success is
    /// inserted so a later retry, hedge, or repeat of the same
    /// (fingerprint, descriptor) key is answered locally.
    fn run_shard(&self, desc: &ShardDescriptor) -> Result<ShardResult, ShardFailure> {
        let key = descriptor_cache_key(desc);
        if let Some(result) = self.shard_cache.get(&key) {
            return Ok(result);
        }
        let outcome = self.run_shard_transport(desc);
        if let Ok(result) = &outcome {
            self.shard_cache.insert(key, result.clone());
        }
        outcome
    }

    /// Supervises one shard over the wire: retry with backoff across
    /// healthy endpoints, hedge stragglers, classify failures.
    fn run_shard_transport(&self, desc: &ShardDescriptor) -> Result<ShardResult, ShardFailure> {
        let payload: Arc<[u8]> = desc.to_json_string().into_bytes().into();
        let shard = desc.shard;
        // Upper bound on one round trip; recv waits are always bounded by
        // this, so a wedged socket can never wedge the supervisor.
        let trip_bound =
            self.config.connect_timeout + self.config.io_timeout * 2 + Duration::from_millis(500);
        let mut last: Option<ShardFailure> = None;
        for attempt in 0..self.config.retry.max_attempts {
            if attempt > 0 {
                self.counters.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.config.retry.backoff(shard, attempt - 1));
            }
            let Some(primary) = self.pick_endpoint(shard + attempt, None) else {
                // Every breaker is open and cooling down. Keep the real
                // failure that tripped them (if any) rather than masking
                // it with this synthetic refusal.
                if last.is_none() {
                    last = Some(ShardFailure::Transport(XaiError::io(
                        IoKind::Refused,
                        format!(
                            "shard {shard}: no admittable endpoint (all circuit breakers open)"
                        ),
                    )));
                }
                continue;
            };
            let (tx, rx) = mpsc::channel();
            self.launch(primary, &payload, shard, &tx);
            let mut inflight = 1usize;
            let mut hedged = false;
            let started = Instant::now();

            // Straggler hedge: if the primary has not answered within
            // `hedge_after`, duplicate the shard onto a second endpoint.
            if let Some(threshold) = self.config.hedge_after {
                match rx.recv_timeout(threshold) {
                    Ok((ep, Ok(result))) => {
                        self.health.record_success(ep);
                        return Ok(result);
                    }
                    Ok((ep, Err(failure))) => {
                        match failure {
                            ShardFailure::Execution(e) => {
                                // The endpoint worked; the shard itself
                                // failed — deterministic, don't retry.
                                self.health.record_success(ep);
                                return Err(ShardFailure::Execution(e));
                            }
                            ShardFailure::Transport(e) => {
                                self.health.record_failure(ep);
                                self.counters.transport_failures.fetch_add(1, Ordering::Relaxed);
                                last = Some(ShardFailure::Transport(e));
                                continue;
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if let Some(secondary) =
                            self.pick_endpoint(shard + attempt + 1, Some(primary))
                        {
                            self.launch(secondary, &payload, shard, &tx);
                            self.counters.hedges.fetch_add(1, Ordering::Relaxed);
                            inflight += 1;
                            hedged = true;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("tx held locally"),
                }
            }

            // Collect until a result wins or every in-flight dispatch of
            // this attempt has failed.
            while inflight > 0 {
                let remaining = trip_bound.saturating_sub(started.elapsed());
                match rx.recv_timeout(remaining) {
                    Ok((ep, Ok(result))) => {
                        self.health.record_success(ep);
                        if hedged && ep != primary {
                            self.counters.hedge_wins.fetch_add(1, Ordering::Relaxed);
                        }
                        return Ok(result);
                    }
                    Ok((ep, Err(ShardFailure::Execution(e)))) => {
                        self.health.record_success(ep);
                        return Err(ShardFailure::Execution(e));
                    }
                    Ok((ep, Err(ShardFailure::Transport(e)))) => {
                        self.health.record_failure(ep);
                        self.counters.transport_failures.fetch_add(1, Ordering::Relaxed);
                        last = Some(ShardFailure::Transport(e));
                        inflight -= 1;
                    }
                    Err(_) => {
                        // The trip bound elapsed with sockets still out —
                        // count it as a blown deadline and move on; the
                        // detached threads die on their own timeouts.
                        self.counters.transport_failures.fetch_add(1, Ordering::Relaxed);
                        last = Some(ShardFailure::Transport(XaiError::BudgetExceeded {
                            context: format!(
                                "shard {shard}: attempt {attempt} exceeded the {trip_bound:?} \
                                 round-trip bound"
                            ),
                            completed: 0,
                        }));
                        break;
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ShardFailure::Transport(XaiError::io(
                IoKind::Other,
                format!("shard {shard}: no transport attempt was possible"),
            ))
        }))
    }

    /// Runs every descriptor, keeping the transport/execution failure
    /// classification that [`crate::backend::ClusterBackend`] needs for
    /// its fallback decision. Results come back in shard order.
    pub(crate) fn run_classified(
        &self,
        descs: &[ShardDescriptor],
    ) -> Result<Vec<ShardResult>, ShardFailure> {
        let outcomes: Vec<Result<ShardResult, ShardFailure>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                descs.iter().map(|d| scope.spawn(move || self.run_shard(d))).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ShardFailure::Transport(XaiError::io(
                            IoKind::Other,
                            "shard supervisor thread panicked".to_string(),
                        )))
                    })
                })
                .collect()
        });
        // Sequence in shard order so the lowest-indexed failing shard
        // wins deterministically, independent of scheduling.
        outcomes.into_iter().collect()
    }
}

// ---------------------------------------------------------------------------
// The daemon side of one connection
// ---------------------------------------------------------------------------

/// Serves one accepted connection as a persistent framed session: read
/// descriptor frames until the peer closes cleanly, executing each via
/// `execute` and answering with a result frame — or a typed error
/// envelope frame, so the peer always learns *why*. Returns the number
/// of frames served. The executor is a closure because only the facade
/// crate knows how to rebuild models and methods; panics inside it must
/// already be caught there.
pub fn serve_connection(
    stream: &TcpStream,
    io_timeout: Duration,
    execute: &dyn Fn(&str) -> XaiResult<ShardResult>,
) -> XaiResult<u64> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let what = "shard daemon";
    let mut served = 0u64;
    loop {
        let Some(bytes) = read_frame_or_eof(&mut &*stream, what)? else {
            return Ok(served);
        };
        let reply = match String::from_utf8(bytes) {
            Ok(text) => match execute(&text) {
                Ok(result) => result.to_json_string(),
                Err(e) => error_to_json(&e).to_json(),
            },
            Err(_) => error_to_json(&wire_error(format!("{what}: request frame is not UTF-8")))
                .to_json(),
        };
        write_frame(&mut &*stream, reply.as_bytes(), what)?;
        served += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello shard", "test").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, "test").unwrap(), b"hello shard");
    }

    #[test]
    fn empty_frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"", "test").unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf), "test").unwrap(), b"");
    }

    #[test]
    fn bad_magic_is_a_parse_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload", "test").unwrap();
        buf[0] = b'H'; // an HTTP client, say
        let err = read_frame(&mut Cursor::new(buf), "test").unwrap_err();
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }

    #[test]
    fn absurd_length_is_a_parse_error_not_an_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf), "test").unwrap_err();
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }

    #[test]
    fn truncation_is_a_short_read_at_any_cut() {
        let mut full = Vec::new();
        write_frame(&mut full, b"0123456789", "test").unwrap();
        for cut in [0, 3, 8, full.len() - 1] {
            let err = read_frame(&mut Cursor::new(full[..cut].to_vec()), "test").unwrap_err();
            assert!(
                matches!(err, XaiError::Io { kind: IoKind::ShortRead, .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 7,
        };
        for shard in 0..4 {
            let mut previous_exp = Duration::ZERO;
            for attempt in 0..6 {
                let a = policy.backoff(shard, attempt);
                let b = policy.backoff(shard, attempt);
                assert_eq!(a, b, "jitter must be a pure function of (seed, shard, attempt)");
                assert!(a <= policy.max_backoff, "backoff {a:?} above cap");
                // The deterministic exponential part grows until capped.
                let exp = policy
                    .base_backoff
                    .saturating_mul(2u32.saturating_pow(attempt as u32))
                    .min(policy.max_backoff);
                assert!(exp >= previous_exp);
                assert!(a >= exp, "jitter only adds");
                previous_exp = exp;
            }
        }
        // Different shards see different jitter (no herd in lockstep).
        let jitters: Vec<Duration> = (0..8).map(|s| policy.backoff(s, 0)).collect();
        assert!(jitters.windows(2).any(|w| w[0] != w[1]), "{jitters:?}");
    }

    #[test]
    fn breaker_trips_after_threshold_and_halfopen_probes() {
        let health =
            HealthTracker::new(vec!["a:1".into(), "b:2".into()], 2, Duration::ZERO);
        assert!(health.admit(0));
        health.record_failure(0);
        assert!(health.admit(0), "one failure below threshold keeps the breaker closed");
        health.record_failure(0);
        let snap = health.snapshot();
        assert_eq!(snap[0].state, BreakerState::Open);
        assert_eq!(snap[0].trips, 1);
        assert_eq!(snap[1].state, BreakerState::Closed, "endpoints are independent");

        // Cooldown ZERO: the next admit is the half-open probe; a second
        // caller keeps being routed around while the probe is out.
        assert!(health.admit(0));
        assert_eq!(health.snapshot()[0].state, BreakerState::HalfOpen);
        assert!(!health.admit(0));

        // Probe fails -> re-open (and a second trip); probe succeeds -> closed.
        health.record_failure(0);
        assert_eq!(health.snapshot()[0].state, BreakerState::Open);
        assert_eq!(health.snapshot()[0].trips, 2);
        assert!(health.admit(0));
        health.record_success(0);
        let snap = health.snapshot();
        assert_eq!(snap[0].state, BreakerState::Closed);
        assert_eq!(snap[0].consecutive_failures, 0);
    }

    #[test]
    fn empty_endpoint_list_is_unsupported_and_bad_addresses_are_parse_errors() {
        let err = ClusterRunner::new(ClusterConfig::new(Vec::<String>::new()))
            .err()
            .expect("empty endpoint list must be rejected");
        assert!(matches!(err, XaiError::Unsupported { .. }), "{err}");
        let err = ClusterRunner::new(ClusterConfig::new(["not-an-address"]))
            .err()
            .expect("bad address must be rejected");
        assert!(matches!(err, XaiError::Parse { .. }), "{err}");
    }
}
