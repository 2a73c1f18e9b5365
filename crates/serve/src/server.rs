//! The TCP serving layer: accept loop, one thread per connection, backpressure, eviction
//! and graceful drain.
//!
//! # Threading model
//!
//! One **accept thread** (the [`Server::run`] loop, backgrounded by [`Server::spawn`])
//! blocks in `accept()`. A drain wakes it by connecting to the listener itself. Each
//! accepted connection gets **one thread**, which reads a frame ([`FrameReader`]), runs it
//! against the connection's [`Session`] and writes the reply:
//!
//! * with nothing queued or in flight, it blocks until the connection's real deadline:
//!   `idle start + idle_timeout` at a frame boundary, `frame start + io_timeout` mid-frame;
//! * with a frame in hand, it first takes, without blocking, the frames the socket already
//!   holds: up to [`ServerConfig::queue_depth`] of them wait behind the frame in hand, and
//!   each one past that is dropped and answered [`Response::Busy`] at once (explicit
//!   backpressure: the client resends, nothing blocks).
//!
//! So replies to processed frames keep request order, and a `Busy` goes out as the frame
//! it drops is read. A connection-ending notice (`Evicted`, the `timeout` and
//! `oversized-frame` rejections, the drain's `Bye`) stops reading and follows the reply to
//! every frame read before it. No thread wakes on a timer: a drain, or the memory governor
//! picking a session for eviction, raises a flag and then shuts down the read half of the
//! connection's socket. A connection registers its socket before it first checks the
//! flags, so no wake-up is lost. Each frame leaves in a single write.
//!
//! # Robustness invariants
//!
//! * A malformed frame is answered with `Rejected {code: "malformed-frame"}` and the
//!   connection continues; an oversized frame is answered and the connection closed
//!   (resync is impossible); neither ever panics the process.
//! * A connection with nothing queued or running and no complete frame for
//!   [`ServerConfig::idle_timeout`] receives [`Response::Evicted`] and is closed.
//! * Shutdown — via [`ServerHandle::shutdown`] or a permitted wire `Shutdown` — is a
//!   **drain**: each connection stops reading, answers the frames it has read, and
//!   receives [`Response::Bye`]; `run` returns only after every connection thread has
//!   been joined.

use crate::journal::{self, Journal, RecoveredSession, DEFAULT_FSYNC_EVERY};
use crate::protocol::{
    decode_request, write_message, ErrorCode, FrameError, FrameReader, Request, Response,
    DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::session::Session;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Operator-facing knobs. Defaults suit a trusted local deployment; `docs/OPERATIONS.md`
/// discusses hardening each of them for untrusted networks.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently-open connections; further ones are refused with code
    /// `session-limit` and closed.
    pub max_sessions: usize,
    /// Bound of each connection's inbound frame queue; a frame arriving on a full queue
    /// is answered with `Busy` and dropped.
    pub queue_depth: usize,
    /// A connection with nothing queued or running and no complete frame for this long is
    /// sent `Evicted` and closed.
    pub idle_timeout: Duration,
    /// Maximum accepted frame payload length.
    pub max_frame_len: usize,
    /// Per-session cap on accepted transactions (`None` = unlimited); past it, `Check`
    /// is rejected with code `transaction-limit`.
    pub max_transactions: Option<usize>,
    /// Honour the wire `Shutdown` request. Off by default: a hostile client must not be
    /// able to stop the service.
    pub allow_remote_shutdown: bool,
    /// Artificial per-request processing delay. A **test/load knob** (keep `0` in
    /// production): with `queue_depth: 1` and a visible delay, a burst of requests
    /// deterministically overflows the queue, which is how the `Busy` path is exercised
    /// by tests and operators rehearsing backpressure.
    pub handler_delay: Duration,
    /// Cap on how long a connection may sit **mid-frame** (some bytes of a frame read,
    /// the rest outstanding) — the slow-loris defence, measured from the frame's first
    /// byte, so byte-at-a-time dribbling does not reset it the way it resets the idle
    /// clock. Past it the server replies `Rejected {code: "timeout"}` and closes. Also
    /// applied as the socket write timeout. `None` disables both.
    pub io_timeout: Option<Duration>,
    /// Per-`Check` time budget; a transaction still checking when it expires is rejected
    /// with code `deadline-exceeded` and **not** applied. `None` = no budget.
    pub check_deadline: Option<Duration>,
    /// Directory for crash-safe session journals. `Some` turns journaling on: sessions
    /// log their `Open` payload and accepted transactions, the server replays the logs
    /// at boot, and clients re-attach with `Resume`. `None` (default) = no journaling.
    pub journal_dir: Option<PathBuf>,
    /// Fsync the journal every this-many appended records (1 = every record). Bounds the
    /// transactions a kernel-level crash can lose; see `docs/OPERATIONS.md`.
    pub journal_fsync_every: usize,
    /// Process-wide budget for session memory (run spines + interned canonical keys, the
    /// [`Session::memory_bytes`] estimate summed over live sessions). When the total is
    /// at or past the budget, new `Open`s are **shed** with code `overloaded` before any
    /// work is queued, and the largest idle session is marked for eviction so capacity
    /// returns. `None` (default) = no governor. Sizing guidance: `docs/OPERATIONS.md`.
    pub memory_budget_bytes: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_sessions: 64,
            queue_depth: 32,
            idle_timeout: Duration::from_secs(300),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            max_transactions: None,
            allow_remote_shutdown: false,
            handler_delay: Duration::ZERO,
            io_timeout: Some(Duration::from_secs(30)),
            check_deadline: None,
            journal_dir: None,
            journal_fsync_every: DEFAULT_FSYNC_EVERY,
            memory_budget_bytes: None,
        }
    }
}

/// A bound, not-yet-running server.
///
/// ```
/// use rdms_serve::{Server, ServerConfig};
/// use rdms_serve::protocol::{self, Request, Response, PROTOCOL_VERSION};
/// use std::net::TcpStream;
///
/// let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
/// let addr = server.local_addr().unwrap();
/// let handle = server.spawn();
///
/// // a minimal client turn: Ping → Pong
/// let mut stream = TcpStream::connect(addr).unwrap();
/// protocol::write_message(&mut stream, &Request::Ping).unwrap();
/// let mut reader = protocol::FrameReader::new(stream.try_clone().unwrap(), 1 << 20);
/// let frame = reader.poll_frame().unwrap().unwrap();
/// assert_eq!(protocol::decode_response(&frame).unwrap(), Response::Pong);
///
/// handle.shutdown().unwrap();
/// ```
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin a graceful drain and block until the server has fully stopped: in-flight
    /// frames are answered, every connection receives `Bye`, all threads are joined.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.drain();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }

    /// Whether the server has stopped on its own (e.g. a permitted remote `Shutdown`).
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Block until the server stops without requesting it to. Only a permitted wire
    /// `Shutdown` (with `allow_remote_shutdown`) stops it then; otherwise use
    /// [`shutdown`](Self::shutdown).
    pub fn join(self) -> io::Result<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Everything a connection thread needs from the server.
struct Shared {
    config: ServerConfig,
    /// Raised once, by [`drain`](Self::drain).
    shutdown: AtomicBool,
    /// Where the drain connects to wake the blocking accept loop.
    wake_addr: SocketAddr,
    /// Every live connection, registered before its thread first checks the flags, so a
    /// drain can wake each one.
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Session-id allocator. Ids are assigned on `Open` (journaling or not) and echoed
    /// in `Opened`; after a boot-time recovery the counter starts past every recovered
    /// id, so ids never collide across a crash.
    next_session_id: AtomicU64,
    /// Sessions rebuilt from journals at boot, parked until a client `Resume`s them.
    recovered: Mutex<HashMap<u64, RecoveredSession>>,
    /// The memory governor's ledger: one seat per live (attached) session, holding its
    /// latest [`Session::memory_bytes`] estimate and the connection it lives on.
    seats: Mutex<HashMap<u64, SessionSeat>>,
}

/// One live session's entry in the memory governor's ledger.
struct SessionSeat {
    /// Latest [`Session::memory_bytes`] estimate, updated after every processed request.
    bytes: usize,
    /// The session's connection. To evict the session the governor raises its `evict`
    /// flag and wakes it; it answers the frames it has read, then delivers `Evicted` and
    /// closes. The journal survives, so the session is resumable once the pressure passes.
    conn: Arc<Conn>,
}

/// One connection as the rest of the server sees it: the flag its thread checks before
/// every read, and a clone of its socket for waking a blocked read.
struct Conn {
    socket: TcpStream,
    /// The memory governor picked this connection's session for eviction.
    evict: AtomicBool,
}

impl Conn {
    /// Wake the connection's thread out of a blocking read by shutting down the read half:
    /// every read from then on returns at once. Callers raise a flag first, which the
    /// woken thread then finds.
    fn wake(&self) {
        let _ = self.socket.shutdown(Shutdown::Read);
    }
}

impl Shared {
    fn new(config: ServerConfig, listen_addr: SocketAddr) -> Shared {
        let mut wake_addr = listen_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Shared {
            config,
            shutdown: AtomicBool::new(false),
            wake_addr,
            conns: Mutex::new(Vec::new()),
            next_session_id: AtomicU64::new(1),
            recovered: Mutex::new(HashMap::new()),
            seats: Mutex::new(HashMap::new()),
        }
    }

    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begin a graceful drain: raise the flag, then wake every registered connection and
    /// the accept loop. A connection registers before it checks the flag, so it is either
    /// woken here or sees the flag itself.
    fn drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for conn in self.conns.lock().iter() {
            conn.wake();
        }
        // the accept loop finds the flag on its next accept; give it one
        let _ = TcpStream::connect(self.wake_addr);
    }

    /// Whether the memory governor admits another session right now. With no budget this
    /// is always true; past the budget the `Open` is shed (code `overloaded`) **before**
    /// any session work happens, and the largest idle session is flagged for eviction so
    /// a later retry finds room.
    fn admit_session(&self) -> bool {
        let Some(budget) = self.config.memory_budget_bytes else {
            return true;
        };
        let total: usize = self.seats.lock().values().map(|seat| seat.bytes).sum();
        if total >= budget {
            self.shed_largest_seat(None);
            return false;
        }
        true
    }

    /// Record a live session in the governor's ledger.
    fn register_seat(&self, id: u64, conn: Arc<Conn>, bytes: usize) {
        self.seats.lock().insert(id, SessionSeat { bytes, conn });
    }

    /// Update a session's byte estimate; when the process-wide total crosses the budget,
    /// flag the largest *other* session for eviction (the grower is mid-request, every
    /// other live session is idle between requests — evicting the largest frees the most
    /// memory per disrupted client).
    fn note_seat_bytes(&self, id: u64, bytes: usize) {
        let Some(budget) = self.config.memory_budget_bytes else {
            return;
        };
        let total: usize = {
            let mut seats = self.seats.lock();
            if let Some(seat) = seats.get_mut(&id) {
                seat.bytes = bytes;
            }
            seats.values().map(|seat| seat.bytes).sum()
        };
        if total > budget {
            self.shed_largest_seat(Some(id));
        }
    }

    /// Drop a session from the ledger (its connection ended).
    fn release_seat(&self, id: u64) {
        self.seats.lock().remove(&id);
    }

    /// Evict the largest not-yet-flagged session (excluding `keep`): flag it and wake its
    /// connection.
    fn shed_largest_seat(&self, keep: Option<u64>) {
        let seats = self.seats.lock();
        let victim = seats
            .iter()
            .filter(|(id, seat)| Some(**id) != keep && !seat.conn.evict.load(Ordering::SeqCst))
            .max_by_key(|(_, seat)| seat.bytes);
        if let Some((_, seat)) = victim {
            seat.conn.evict.store(true, Ordering::SeqCst);
            seat.conn.wake();
        }
    }

    /// Replay every journal in the configured directory into parked sessions. Called
    /// once, before the accept loop; a server without `journal_dir` skips it entirely.
    fn recover_sessions(&self) -> io::Result<()> {
        let Some(dir) = &self.config.journal_dir else {
            return Ok(());
        };
        let mut highest = 0u64;
        let mut parked = self.recovered.lock();
        for (id, session) in journal::recover_dir(dir)? {
            eprintln!(
                "rdms-serve: recovered session {id} ({} transactions{})",
                session.replayed,
                if session.truncated {
                    ", torn tail truncated"
                } else {
                    ""
                },
            );
            highest = highest.max(id);
            parked.insert(id, session);
        }
        drop(parked);
        self.next_session_id
            .fetch_max(highest + 1, Ordering::SeqCst);
        Ok(())
    }
}

impl Server {
    /// Bind a listener. `addr` is anything [`ToSocketAddrs`] accepts; use port `0` for an
    /// ephemeral port and read it back with [`local_addr`](Self::local_addr).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared::new(config, listener.local_addr()?));
        Ok(Server { listener, shared })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the accept loop on a background thread and return a handle to it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self
            .listener
            .local_addr()
            .expect("freshly bound listener has an address");
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            thread,
        }
    }

    /// Run the accept loop on the calling thread until a drain begins — by
    /// [`ServerHandle::shutdown`] or a permitted wire `Shutdown` request — then stop
    /// listening and join every connection.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared } = self;
        shared.recover_sessions()?;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let mut stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if shared.draining() {
                // the drain's own wake-up, or a client that raced it
                let _ = write_message(&mut stream, &Response::Bye);
                break;
            }
            // the finished threads gone, `connections` counts the live connections
            connections.retain(|handle| !handle.is_finished());
            if connections.len() >= shared.config.max_sessions {
                refuse(stream, ErrorCode::SessionLimit, "server is at capacity");
                continue;
            }
            let shared = Arc::clone(&shared);
            connections.push(std::thread::spawn(move || {
                // never let a connection failure take the process down; errors
                // here mean the peer vanished mid-handshake
                let _ = handle_connection(stream, &shared);
            }));
        }
        drop(listener); // refuse new connections while the drain finishes
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Best-effort refusal of a connection we will not serve.
fn refuse(mut stream: TcpStream, code: ErrorCode, message: &str) {
    let _ = write_message(&mut stream, &Response::rejected(code, message));
}

/// The connection thread's side of its socket. A blocking read sleeps at most until the
/// connection's current deadline: `idle start + idle_timeout` at a frame boundary, and
/// `frame start + io_timeout` mid-frame. Progress inside a frame does not move the
/// io deadline, so a byte-at-a-time dribbler times out like a length-then-stall client.
/// A blocking read past the deadline fails with `TimedOut` without touching the socket;
/// a read-ahead is non-blocking and has no deadline. [`FrameReader`] never reads past
/// the frame it is decoding, so the first byte read after a frame starts the next one.
struct DeadlineStream {
    socket: TcpStream,
    idle_timeout: Duration,
    io_timeout: Option<Duration>,
    /// When the current frame's first byte arrived; `None` at a frame boundary.
    frame_started: Option<Instant>,
    idle_since: Instant,
    /// The socket is in non-blocking mode, for a read-ahead.
    ahead: bool,
}

impl DeadlineStream {
    fn deadline(&self) -> Option<Instant> {
        match self.frame_started {
            Some(started) => self.io_timeout.and_then(|t| started.checked_add(t)),
            None => self.idle_since.checked_add(self.idle_timeout),
        }
    }

    fn expired(&self) -> bool {
        !self.ahead && self.deadline().is_some_and(|d| Instant::now() >= d)
    }

    /// Back to a blocking read with nothing queued and nothing in flight: the idle clock
    /// starts, and so does the io clock of a frame a read-ahead began, since the time spent
    /// answering earlier frames is not the peer's.
    fn wait_from_now(&mut self) {
        let now = Instant::now();
        self.idle_since = now;
        self.frame_started = self.frame_started.map(|_| now);
    }

    /// `O_NONBLOCK` belongs to the socket, so it governs writes through every clone too:
    /// leave a read-ahead before writing, or a reply larger than the send buffer fails.
    fn set_ahead(&mut self, ahead: bool) -> io::Result<()> {
        self.socket.set_nonblocking(ahead)?;
        self.ahead = ahead;
        Ok(())
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.ahead {
            let timeout = match self.deadline() {
                // std rejects a zero timeout, so an expired deadline never reaches the socket
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(io::ErrorKind::TimedOut.into()),
                },
                None => None,
            };
            self.socket.set_read_timeout(timeout)?;
        }
        let n = self.socket.read(buf)?;
        if n > 0 && self.frame_started.is_none() {
            self.frame_started = Some(Instant::now());
        }
        Ok(n)
    }
}

/// One poll of a connection's socket: a frame, `None` while no complete frame is there,
/// or `Err` once reading must stop, with the notice that ends the connection if there is
/// one. A stop repeats on the next poll and consumes no input: a flag stays raised,
/// [`FrameReader`] keeps an oversized length prefix, and a closed socket stays closed.
fn poll(
    reader: &mut FrameReader<DeadlineStream>,
    conn: &Conn,
    shared: &Shared,
) -> Result<Option<Vec<u8>>, Option<Response>> {
    // `Evicted` when the governor picked this session to free memory: its journal keeps
    // it resumable
    let flagged = || match (shared.draining(), conn.evict.load(Ordering::SeqCst)) {
        (true, _) => Some(Response::Bye),
        (false, evict) => evict.then_some(Response::Evicted),
    };
    if let Some(notice) = flagged() {
        return Err(Some(notice));
    }
    match reader.poll_frame() {
        Ok(Some(payload)) => {
            reader.get_mut().frame_started = None;
            Ok(Some(payload))
        }
        // nothing more to read ahead, or interrupted before the deadline
        Err(FrameError::Idle) if !reader.get_ref().expired() => Ok(None),
        // mid-frame: the stream cannot be resynced
        Err(FrameError::Idle) if reader.mid_frame() => Err(Some(Response::rejected(
            ErrorCode::Timeout,
            format!(
                "frame not completed within {:?}",
                shared.config.io_timeout.unwrap_or_default()
            ),
        ))),
        Err(FrameError::Idle) => Err(Some(Response::Evicted)),
        // the length prefix is untrusted; the stream cannot be resynced
        Err(FrameError::Oversized { len, max }) => Err(Some(Response::rejected(
            ErrorCode::OversizedFrame,
            format!("frame of {len} bytes exceeds the {max}-byte limit"),
        ))),
        // a wake reads as end of stream, and the flags say why; without one, the peer
        // closed or the socket failed
        Ok(None) | Err(FrameError::Truncated) | Err(FrameError::Io(_)) => Err(flagged()),
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_write_timeout(shared.config.io_timeout)?;
    let conn = Arc::new(Conn {
        socket: stream.try_clone()?,
        evict: AtomicBool::new(false),
    });
    // register before the first flag check below: a drain either wakes this connection
    // or has raised its flag already
    shared.conns.lock().push(Arc::clone(&conn));
    let mut reader = FrameReader::new(
        DeadlineStream {
            socket: stream,
            idle_timeout: shared.config.idle_timeout,
            io_timeout: shared.config.io_timeout,
            frame_started: None,
            idle_since: Instant::now(),
            ahead: false,
        },
        shared.config.max_frame_len,
    );
    let mut queue = VecDeque::new();
    let mut session: Option<Session> = None;
    let mut session_id: Option<u64> = None;
    let notice = 'conn: loop {
        let payload = match queue.pop_front() {
            Some(payload) => payload,
            None => {
                reader.get_mut().wait_from_now();
                loop {
                    match poll(&mut reader, &conn, shared) {
                        Ok(Some(payload)) => break payload,
                        Ok(None) => {} // interrupted before the deadline: read on
                        Err(notice) => break 'conn notice,
                    }
                }
            }
        };
        // with the frame in hand, take what the socket already holds: keep up to
        // `queue_depth` behind it, and drop the rest with a `Busy` each (explicit
        // backpressure: the client resends). A stop ends the read-ahead; the blocking
        // read after the last queued reply meets it again.
        if reader.get_mut().set_ahead(true).is_err() {
            break None;
        }
        let mut busy = 0;
        while let Ok(Some(next)) = poll(&mut reader, &conn, shared) {
            if queue.len() < shared.config.queue_depth {
                queue.push_back(next);
            } else {
                busy += 1;
            }
        }
        let wire = reader.get_mut();
        if wire.set_ahead(false).is_err()
            || (0..busy).any(|_| write_message(&mut wire.socket, &Response::Busy).is_err())
        {
            break None; // the peer is gone, or the socket is stuck non-blocking
        }
        if !shared.config.handler_delay.is_zero() {
            std::thread::sleep(shared.config.handler_delay);
        }
        // panic containment: a panicking handler poisons only this session — the reply
        // names the poisoning, the connection closes, and the server (and every other
        // session) keeps running. The session's journal file, if any, survives on disk
        // for recovery at next boot.
        let handled = catch_unwind(AssertUnwindSafe(|| match decode_request(&payload) {
            Err(message) => (
                Response::rejected(ErrorCode::MalformedFrame, message),
                false,
            ),
            Ok(request) => process(request, &mut session, shared),
        }));
        let (response, terminal) = handled.unwrap_or_else(|_| {
            session = None; // the half-mutated session must never serve again
            (
                Response::rejected(
                    ErrorCode::SessionPoisoned,
                    "the session handler panicked; this session is evicted",
                ),
                true,
            )
        });
        // governor bookkeeping: a fresh `Opened` takes a seat; every processed request
        // refreshes the session's byte estimate (and may flag a victim for eviction)
        if let Response::Opened { session: id, .. } = &response {
            session_id = Some(*id);
            let id = *id;
            shared.register_seat(
                id,
                Arc::clone(&conn),
                session.as_ref().map_or(0, Session::memory_bytes),
            );
        } else if let (Some(id), Some(live)) = (session_id, session.as_ref()) {
            shared.note_seat_bytes(id, live.memory_bytes());
        }
        if write_message(&mut reader.get_mut().socket, &response).is_err() || terminal {
            break None; // the conversation is over, or the peer is gone
        }
    };
    if let Some(notice) = notice {
        let _ = write_message(&mut reader.get_mut().socket, &notice);
    }
    if let Some(id) = session_id {
        shared.release_seat(id);
    }
    // FIN before the close: a close with unread input sends a reset, and a peer that
    // already has the FIN reads a clean end of stream after the last reply, not an error
    let _ = conn.socket.shutdown(Shutdown::Write);
    shared.conns.lock().retain(|live| !Arc::ptr_eq(live, &conn));
    Ok(())
}

/// The `Open`/`Resume` preconditions shared by both handshakes; `None` means proceed.
fn handshake_rejection(
    version: u32,
    session: &Option<Session>,
    shared: &Shared,
) -> Option<Response> {
    if shared.draining() {
        return Some(Response::rejected(
            ErrorCode::ShuttingDown,
            "server is draining",
        ));
    }
    if version != PROTOCOL_VERSION {
        return Some(Response::rejected(
            ErrorCode::ProtocolVersion,
            format!("server speaks version {PROTOCOL_VERSION}, client sent {version}"),
        ));
    }
    if session.is_some() {
        return Some(Response::rejected(
            ErrorCode::SessionAlreadyOpen,
            "this connection already has a session",
        ));
    }
    None
}

/// Map one request onto the session, returning the reply and whether the conversation is
/// over. Pure protocol logic — no socket I/O (journal creation touches the journal
/// directory) — so the tests drive it directly too.
fn process(request: Request, session: &mut Option<Session>, shared: &Shared) -> (Response, bool) {
    let config = &shared.config;
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Open {
            version,
            dms,
            bound,
            invariant,
            emit_certificates,
        } => {
            if let Some(rejection) = handshake_rejection(version, session, shared) {
                return (rejection, false);
            }
            // admission control: shed *before* any session work — parsing the invariant,
            // pinning the initial configuration and creating a journal all cost memory
            // and I/O the overloaded server cannot spare (`Busy`, by contrast, drops
            // frames mid-session once work is already queued)
            if !shared.admit_session() {
                return (
                    Response::rejected(
                        ErrorCode::Overloaded,
                        "memory budget exhausted; back off and retry",
                    ),
                    false,
                );
            }
            // the Open payload must be captured before `Session::open` consumes the DMS
            let record = config
                .journal_dir
                .as_ref()
                .map(|_| journal::open_record(&dms, bound, &invariant, emit_certificates));
            match Session::open(dms, bound, &invariant, emit_certificates) {
                Ok(opened) => {
                    let id = shared.next_session_id.fetch_add(1, Ordering::SeqCst);
                    let mut opened = opened
                        .with_transaction_limit(config.max_transactions)
                        .with_deadline(config.check_deadline);
                    if let (Some(dir), Some(record)) = (&config.journal_dir, record) {
                        match Journal::create(dir, id, &record, config.journal_fsync_every) {
                            Ok(journal) => {
                                opened =
                                    opened.with_journal(Arc::new(std::sync::Mutex::new(journal)));
                            }
                            Err(e) => {
                                let (code, message) = journal::journal_error(&e);
                                return (Response::rejected(code, message), false);
                            }
                        }
                    }
                    *session = Some(opened);
                    (
                        Response::Opened {
                            protocol: PROTOCOL_VERSION,
                            session: id,
                        },
                        false,
                    )
                }
                Err(e) => (Response::rejected(e.code, e.message), false),
            }
        }
        Request::Resume {
            version,
            session: id,
        } => {
            if let Some(rejection) = handshake_rejection(version, session, shared) {
                return (rejection, false);
            }
            let Some(recovered) = shared.recovered.lock().remove(&id) else {
                return (
                    Response::rejected(
                        ErrorCode::UnknownSession,
                        format!(
                            "no recovered session {id}: never journaled, already resumed, \
                             or the server does not journal"
                        ),
                    ),
                    false,
                );
            };
            match Journal::open_append(&recovered.path, config.journal_fsync_every) {
                Ok(journal) => {
                    *session = Some(
                        recovered
                            .session
                            .with_transaction_limit(config.max_transactions)
                            .with_deadline(config.check_deadline)
                            .with_journal(Arc::new(std::sync::Mutex::new(journal))),
                    );
                    (
                        Response::Opened {
                            protocol: PROTOCOL_VERSION,
                            session: id,
                        },
                        false,
                    )
                }
                Err(e) => {
                    // park it again: the replayed state is still good, only the append
                    // handle failed
                    shared.recovered.lock().insert(id, recovered);
                    let (code, message) = journal::journal_error(&e);
                    (Response::rejected(code, message), false)
                }
            }
        }
        Request::Check { action, bindings } => match session {
            None => (
                Response::rejected(ErrorCode::NoSession, "send Open before Check"),
                false,
            ),
            Some(session) => {
                let outcome = session.check(&action, &bindings);
                (session.respond(&outcome), false)
            }
        },
        Request::Revise {
            dms,
            bound,
            invariant,
        } => match session {
            None => (
                Response::rejected(ErrorCode::NoSession, "send Open before Revise"),
                false,
            ),
            Some(session) => match session.revise(dms, bound, invariant.as_deref()) {
                Ok(outcome) => (
                    Response::Revised {
                        run_len: outcome.run_len,
                        violations: outcome.violations,
                        replayed_steps: outcome.replayed_steps,
                        rechecked_configs: outcome.rechecked_configs,
                    },
                    false,
                ),
                Err(e) => (Response::rejected(e.code, e.message), false),
            },
        },
        Request::Status => match session {
            None => (
                Response::rejected(ErrorCode::NoSession, "send Open before Status"),
                false,
            ),
            Some(session) => (session.stats(), false),
        },
        Request::Close => {
            // a cleanly closed session needs no recovery: retire (delete) its journal
            if let Some(journal) = session.as_mut().and_then(Session::take_journal) {
                if let Ok(mutex) = Arc::try_unwrap(journal) {
                    if let Ok(journal) = mutex.into_inner() {
                        let _ = journal.retire();
                    }
                }
            }
            (Response::Bye, true)
        }
        Request::Shutdown => {
            if config.allow_remote_shutdown {
                shared.drain();
                (Response::Bye, true)
            } else {
                (
                    Response::rejected(
                        ErrorCode::ShutdownDisabled,
                        "server was started without --allow-remote-shutdown",
                    ),
                    false,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdms_core::dms::example_3_1;
    use std::collections::BTreeMap;

    fn open_request() -> Request {
        Request::Open {
            version: PROTOCOL_VERSION,
            dms: example_3_1(),
            bound: 2,
            invariant: "true".to_string(),
            emit_certificates: false,
        }
    }

    /// No listener on port 0: a drain's wake-up connect is refused, which it ignores.
    fn test_shared(config: ServerConfig) -> Shared {
        Shared::new(config, SocketAddr::from((Ipv4Addr::LOCALHOST, 0)))
    }

    /// A connection entry over a real loopback socket; the tests read only its flags.
    fn test_conn() -> Arc<Conn> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let socket = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Arc::new(Conn {
            socket,
            evict: AtomicBool::new(false),
        })
    }

    #[test]
    fn process_walks_the_session_state_machine() {
        let shared = test_shared(ServerConfig::default());
        let mut session = None;

        // pre-open: Ping works, Check/Status don't
        assert_eq!(
            process(Request::Ping, &mut session, &shared).0,
            Response::Pong
        );
        let (resp, _) = process(
            Request::Check {
                action: "alpha".into(),
                bindings: BTreeMap::new(),
            },
            &mut session,
            &shared,
        );
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "no-session"));

        // open once: ok; twice: rejected
        let (resp, _) = process(open_request(), &mut session, &shared);
        assert!(matches!(
            resp,
            Response::Opened {
                protocol: PROTOCOL_VERSION,
                ..
            }
        ));
        let (resp, _) = process(open_request(), &mut session, &shared);
        assert!(
            matches!(resp, Response::Rejected { ref code, .. } if code == "session-already-open")
        );

        // a valid transaction
        let (resp, _) = process(
            Request::Check {
                action: "alpha".into(),
                bindings: BTreeMap::from([
                    ("v1".to_string(), 1),
                    ("v2".to_string(), 2),
                    ("v3".to_string(), 3),
                ]),
            },
            &mut session,
            &shared,
        );
        assert!(matches!(resp, Response::Ok { run_len: 1, .. }));

        // close is terminal
        let (resp, terminal) = process(Request::Close, &mut session, &shared);
        assert_eq!(resp, Response::Bye);
        assert!(terminal);
    }

    #[test]
    fn session_ids_are_distinct_across_opens() {
        let shared = test_shared(ServerConfig::default());
        let mut ids = Vec::new();
        for _ in 0..3 {
            let mut session = None;
            match process(open_request(), &mut session, &shared).0 {
                Response::Opened { session: id, .. } => ids.push(id),
                other => panic!("expected Opened, got {other:?}"),
            }
        }
        ids.dedup();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn version_mismatch_and_drain_reject_opens_and_resumes() {
        let shared = test_shared(ServerConfig::default());
        let mut session = None;
        let bad_version = Request::Open {
            version: PROTOCOL_VERSION + 1,
            dms: example_3_1(),
            bound: 2,
            invariant: "true".into(),
            emit_certificates: false,
        };
        let (resp, _) = process(bad_version, &mut session, &shared);
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "protocol-version"));

        shared.shutdown.store(true, Ordering::SeqCst);
        let (resp, _) = process(open_request(), &mut session, &shared);
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "shutting-down"));
        let (resp, _) = process(
            Request::Resume {
                version: PROTOCOL_VERSION,
                session: 1,
            },
            &mut session,
            &shared,
        );
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "shutting-down"));
    }

    #[test]
    fn resuming_an_unknown_session_is_rejected() {
        let shared = test_shared(ServerConfig::default());
        let mut session = None;
        let (resp, terminal) = process(
            Request::Resume {
                version: PROTOCOL_VERSION,
                session: 42,
            },
            &mut session,
            &shared,
        );
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "unknown-session"));
        assert!(!terminal);
        assert!(session.is_none());
    }

    #[test]
    fn an_exhausted_memory_budget_sheds_opens_with_overloaded() {
        let shared = test_shared(ServerConfig {
            memory_budget_bytes: Some(1), // any live session exceeds this
            ..ServerConfig::default()
        });

        // the first Open is admitted: the ledger is empty, so nothing is over budget yet
        let mut first = None;
        let (resp, _) = process(open_request(), &mut first, &shared);
        let first_id = match resp {
            Response::Opened { session, .. } => session,
            other => panic!("expected Opened, got {other:?}"),
        };
        let conn = test_conn();
        shared.register_seat(
            first_id,
            Arc::clone(&conn),
            first.as_ref().map_or(0, Session::memory_bytes),
        );

        // the second Open finds the budget spent and is shed before any work
        let mut second = None;
        let (resp, terminal) = process(open_request(), &mut second, &shared);
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "overloaded"));
        assert!(!terminal, "shedding keeps the connection open for retries");
        assert!(second.is_none());
        // shedding under admission pressure also flags the largest seat for eviction
        assert!(conn.evict.load(Ordering::SeqCst));

        // releasing the seat restores admission
        shared.release_seat(first_id);
        let (resp, _) = process(open_request(), &mut second, &shared);
        assert!(matches!(resp, Response::Opened { .. }));
    }

    #[test]
    fn pressure_eviction_targets_the_largest_other_seat() {
        let shared = test_shared(ServerConfig {
            memory_budget_bytes: Some(100),
            ..ServerConfig::default()
        });
        let (small, large, grower) = (test_conn(), test_conn(), test_conn());
        shared.register_seat(1, Arc::clone(&small), 10);
        shared.register_seat(2, Arc::clone(&large), 60);
        shared.register_seat(3, Arc::clone(&grower), 20);

        // still under budget: nobody is flagged
        shared.note_seat_bytes(3, 25);
        assert!(!small.evict.load(Ordering::SeqCst));
        assert!(!large.evict.load(Ordering::SeqCst));

        // the grower pushes the total past the budget; the largest *other* seat is
        // flagged (the grower itself is mid-request and cannot observe the flag yet)
        shared.note_seat_bytes(3, 40);
        assert!(large.evict.load(Ordering::SeqCst));
        assert!(!small.evict.load(Ordering::SeqCst));
        assert!(!grower.evict.load(Ordering::SeqCst));
    }

    #[test]
    fn seats_are_ignored_without_a_budget() {
        let shared = test_shared(ServerConfig::default());
        let conn = test_conn();
        shared.register_seat(1, Arc::clone(&conn), usize::MAX / 2);
        assert!(shared.admit_session());
        shared.note_seat_bytes(1, usize::MAX / 2);
        assert!(!conn.evict.load(Ordering::SeqCst));
    }

    #[test]
    fn remote_shutdown_is_gated() {
        let shared = test_shared(ServerConfig::default());
        let mut session = None;
        let (resp, terminal) = process(Request::Shutdown, &mut session, &shared);
        assert!(matches!(resp, Response::Rejected { ref code, .. } if code == "shutdown-disabled"));
        assert!(!terminal);
        assert!(!shared.shutdown.load(Ordering::SeqCst));

        let shared = test_shared(ServerConfig {
            allow_remote_shutdown: true,
            ..ServerConfig::default()
        });
        let (resp, terminal) = process(Request::Shutdown, &mut session, &shared);
        assert_eq!(resp, Response::Bye);
        assert!(terminal);
        assert!(shared.shutdown.load(Ordering::SeqCst));
    }
}
