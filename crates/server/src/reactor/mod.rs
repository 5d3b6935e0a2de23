//! The epoll reactor: event-driven connection I/O for the serving runtime.
//!
//! ```text
//!            ┌───────────────────────────── reactor thread ──────────────┐
//!            │  epoll_wait ─▶ accept / read ─▶ incremental Parser        │
//!            │      ▲             │ (pipelined requests, in order)       │
//!            │      │             ▼                                      │
//!            │   eventfd      job channel ──▶ worker 0..N  Service::handle
//!            │      ▲             completions (response bytes) │         │
//!            │      └──────────────────────────────────────────┘         │
//!            │  coalesced write ─▶ keep-alive / close                    │
//!            └───────────────────────────────────────────────────────────┘
//! ```
//!
//! One thread owns every socket.  Connections are edge-triggered and
//! nonblocking; readiness is cached per connection (`read_ready` /
//! `write_ready`) and cleared only on `WouldBlock`, as edge-triggered epoll
//! requires.  Parsed requests are batched into **jobs** (at most one in
//! flight per connection, so responses come back in request order) and
//! handed to a fixed worker pool, where [`Service::handle`] does
//! admission, deadlines, panic isolation, and stats.  Workers serialize
//! their responses into one byte batch; the reactor writes it with a single
//! coalesced `write` per readiness edge.
//!
//! Backpressure and protection:
//!
//! * **accept-time shed** — at [`ServerConfig::queue_capacity`] live
//!   connections, new arrivals get a well-formed `503` + `Retry-After`;
//! * **pipeline cap** — a connection with [`MAX_PIPELINE`] unanswered
//!   requests stops being read until responses drain;
//! * **output cap** — a connection holding more than [`MAX_UNFLUSHED`]
//!   bytes of unsent responses stops being read and dispatched until the
//!   peer reads them;
//! * **sweeps** — every [`TICK`] the reactor evicts idle keep-alives past
//!   [`ServerConfig::keep_alive`], and drops slow-loris connections whose
//!   partial request stalled, and peers that stopped reading their
//!   responses, past [`MID_REQUEST_PATIENCE`];
//! * **deferred errors** — a malformed pipelined frame is answered *after*
//!   the well-formed requests before it, so their responses arrive in
//!   order before the connection closes.
//!
//! Shutdown: the flag is observed on every loop pass (the
//! `POST /shutdown` poke connection wakes `epoll_wait`), accepts drain and
//! drop, idle connections close, in-flight jobs complete and flush, and the
//! job sender is dropped so workers exit.
//!
//! [`Service::handle`]: crate::service::Service::handle
//! [`ServerConfig::queue_capacity`]: crate::service::ServerConfig::queue_capacity
//! [`ServerConfig::keep_alive`]: crate::service::ServerConfig::keep_alive

pub(crate) mod sys;

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{
    write_response, EofOutcome, ParseError, ParseStep, Parser, Request, Response, MAX_BODY,
};
use crate::metrics::{Counter, Metrics};
use crate::service::Service;
use sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Token for listener readiness (never collides with a slot token: slot
/// indexes are 32-bit).
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the completion eventfd.
const WAKER_TOKEN: u64 = u64::MAX - 1;
/// Unanswered pipelined requests a connection may accumulate before the
/// reactor stops reading from it (resumed as responses drain).
const MAX_PIPELINE: usize = 256;
/// Unsent response bytes a connection may hold before the reactor stops
/// reading and dispatching it (resumed as the peer reads): a client that
/// never reads its responses cannot make the server buffer them without
/// bound.
const MAX_UNFLUSHED: usize = 1 << 20;
/// Most requests dispatched to a worker as one job: bounds per-job latency
/// while amortizing channel traffic under deep pipelining.
const JOB_BATCH: usize = 64;
/// Reactor heartbeat: `epoll_wait` timeout, which also paces the
/// keep-alive and slow-loris sweeps and the shutdown-flag check.
const TICK: Duration = Duration::from_millis(100);
/// How long a partially transferred request, or a response the peer is not
/// reading, may stall before the sweep drops the connection.
const MID_REQUEST_PATIENCE: Duration = Duration::from_secs(30);
/// Bytes per `read` call.
const READ_CHUNK: usize = 64 * 1024;
/// Read-buffer ceiling: one maximal request (head + [`MAX_BODY`]) plus
/// pipelined-head slack.  A connection at the ceiling pauses reads until a
/// frame completes and is drained.
const MAX_BUF: usize = MAX_BODY + 2 * 1024 * 1024;
/// How long a shutting-down reactor waits for in-flight jobs to complete
/// and flush before abandoning stragglers.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// `epoll_wait` output buffer size per pass.
const EVENTS_CAP: usize = 1024;
/// Most accepts processed per listener readiness edge (guards against an
/// accept-error livelock; the next SYN re-arms the edge).
const ACCEPT_BURST: usize = 4096;
/// The interim response owed after an `Expect: 100-continue` head passes
/// the body-size check.
const INTERIM_CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// The response a malformed frame is answered with before the connection
/// closes (the message is a literal, so quoting via `{:?}` is valid JSON).
fn bad_frame_response(error: &ParseError) -> Response {
    Response::json(error.status, format!("{{\"error\":{:?}}}", error.message))
}

/// Packs a slot index and its generation into an epoll token.  The
/// generation makes tokens (and worker completions) from a closed
/// connection's lifetime unambiguously stale.
fn pack(idx: usize, generation: u32) -> u64 {
    ((generation as u64) << 32) | idx as u64
}

fn unpack(token: u64) -> (usize, u32) {
    ((token & 0xFFFF_FFFF) as usize, (token >> 32) as u32)
}

/// One dispatched unit of compute: a batch of consecutive requests from a
/// single connection, handled sequentially by one worker so their
/// responses are serialized in request order.
struct Job {
    token: u64,
    requests: Vec<Request>,
}

/// A finished job: the concatenated serialized responses, ready for one
/// coalesced write.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    responses: usize,
    close: bool,
}

/// State shared between workers and the reactor thread.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    waker: EventFd,
}

impl Shared {
    fn post(&self, completion: Completion) {
        self.completions.lock().unwrap_or_else(PoisonError::into_inner).push(completion);
        self.waker.wake();
    }
}

/// Per-connection state machine: read → parse → dispatch → write →
/// keep-alive, all driven by readiness edges.
struct Conn {
    stream: TcpStream,
    /// Unconsumed bytes; complete frames are drained off the front.
    buf: Vec<u8>,
    parser: Parser,
    /// Parsed requests not yet dispatched.
    pending: VecDeque<Request>,
    /// Requests in the currently dispatched job (0 = no job in flight).
    inflight: usize,
    /// Serialized responses awaiting write; `out_pos` marks flush progress.
    out: Vec<u8>,
    out_pos: usize,
    /// Cached readiness (edge-triggered epoll loses un-acted-on edges, so
    /// these persist until a syscall returns `WouldBlock`).
    read_ready: bool,
    write_ready: bool,
    /// The peer half-closed; classify once all buffered bytes are parsed.
    peer_eof: bool,
    /// Close once every answered byte has flushed and nothing is pending.
    close_after_drain: bool,
    /// A malformed frame's error, answered only after the well-formed
    /// pipelined requests before it have been answered.
    trailing_error: Option<ParseError>,
    /// Interim `100 Continue`s owed once earlier requests are answered.
    deferred_continues: u32,
    last_activity: Instant,
    /// The last time a write made progress (the stalled-reader sweep).
    last_write: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            parser: Parser::new(),
            pending: VecDeque::new(),
            inflight: 0,
            out: Vec::new(),
            out_pos: 0,
            read_ready: false,
            // Fresh sockets are writable; the registration edge confirms.
            write_ready: true,
            peer_eof: false,
            close_after_drain: false,
            trailing_error: None,
            deferred_continues: 0,
            last_activity: Instant::now(),
            last_write: Instant::now(),
        }
    }

    fn unanswered(&self) -> usize {
        self.pending.len() + self.inflight
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// More than [`MAX_UNFLUSHED`] response bytes await the peer.
    fn backlogged(&self) -> bool {
        self.out.len() - self.out_pos > MAX_UNFLUSHED
    }
}

enum ReadStep {
    Data,
    Blocked,
    Eof,
    Failed,
}

/// Reads one chunk into the connection buffer.
fn read_chunk(conn: &mut Conn) -> ReadStep {
    let old = conn.buf.len();
    conn.buf.resize(old + READ_CHUNK, 0);
    loop {
        match conn.stream.read(&mut conn.buf[old..]) {
            Ok(0) => {
                conn.buf.truncate(old);
                return ReadStep::Eof;
            }
            Ok(n) => {
                conn.buf.truncate(old + n);
                conn.last_activity = Instant::now();
                return ReadStep::Data;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.buf.truncate(old);
                return ReadStep::Blocked;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.buf.truncate(old);
                return ReadStep::Failed;
            }
        }
    }
}

enum FlushStep {
    Done,
    Blocked,
    Failed,
}

/// Writes as much of `out` as the socket accepts.
fn flush_out(conn: &mut Conn) -> FlushStep {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return FlushStep::Failed,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                conn.last_write = conn.last_activity;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.write_ready = false;
                // Drop the sent prefix once it outweighs the rest, so a
                // peer that reads slower than it pipelines cannot grow
                // `out` by everything ever sent to it.
                if conn.out_pos >= conn.out.len() - conn.out_pos {
                    conn.out.drain(..conn.out_pos);
                    conn.out_pos = 0;
                }
                return FlushStep::Blocked;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FlushStep::Failed,
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    if conn.out.capacity() > 1 << 20 {
        conn.out.shrink_to(1 << 16);
    }
    FlushStep::Done
}

/// The reactor: the epoll instance, the listener, the connection slab, and
/// the worker-pool plumbing.  Owned by one thread.
struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    service: Arc<Service>,
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
    /// Slab of connections; `generations[idx]` invalidates stale tokens.
    slots: Vec<Option<Conn>>,
    generations: Vec<u32>,
    free: Vec<usize>,
    live: usize,
    jobs_inflight: usize,
}

impl Reactor {
    fn metrics(&self) -> &Metrics {
        self.service.metrics()
    }

    fn run(&mut self) {
        let mut events = vec![EpollEvent::zeroed(); EVENTS_CAP];
        let mut last_sweep = Instant::now();
        let mut grace: Option<Instant> = None;
        loop {
            let n = self.epoll.wait(&mut events, TICK.as_millis() as i32).unwrap_or(0);
            // Timeout ticks with no events are not wakeups.
            if n > 0 {
                self.metrics().add(Counter::Wakeups, 1);
                self.metrics().add(Counter::ReadinessEvents, n as u64);
            }
            for event in events.iter().take(n).copied() {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {
                        if !self.shared.waker.drain() {
                            self.metrics().add(Counter::SpuriousWakeups, 1);
                        }
                    }
                    token => self.conn_event(event.events, token),
                }
            }
            self.drain_completions();
            if last_sweep.elapsed() >= TICK {
                last_sweep = Instant::now();
                self.sweep();
            }
            if self.service.is_shutting_down() {
                let deadline = *grace.get_or_insert_with(|| Instant::now() + SHUTDOWN_GRACE);
                self.close_idle_for_shutdown();
                if (self.jobs_inflight == 0 && self.live == 0) || Instant::now() >= deadline {
                    break;
                }
            }
        }
        // Dropping `self` drops `job_tx`: workers observe the disconnect
        // after finishing any queued jobs, and exit.
    }

    /// Drains the listener's accept backlog (edge-triggered: must go to
    /// `WouldBlock`).  At capacity, arrivals are shed with a 503 +
    /// `Retry-After`.
    fn accept_ready(&mut self) {
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.service.is_shutting_down() {
                        continue; // the poke connection (or a raced client)
                    }
                    if self.live >= self.service.config().queue_capacity.max(1) {
                        self.metrics().add(Counter::Shed, 1);
                        let response =
                            self.service.shed_response("server connection queue is full");
                        // The accepted socket is still blocking here; the
                        // write is best-effort (a flood peer may be gone).
                        let mut stream = stream;
                        let _ = write_response(&mut stream, &response, false);
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => continue, // transient (ECONNABORTED, resets)
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(Conn::new(stream));
                idx
            }
            None => {
                self.slots.push(Some(Conn::new(stream)));
                self.generations.push(0);
                self.slots.len() - 1
            }
        };
        let token = pack(idx, self.generations[idx]);
        // ADD reports an initial edge if the socket is already readable, so
        // data that raced ahead of registration is not lost.
        let interest = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if self.epoll.add(fd, interest, token).is_err() {
            self.slots[idx] = None;
            self.generations[idx] = self.generations[idx].wrapping_add(1);
            self.free.push(idx);
            return;
        }
        self.live += 1;
        self.metrics().add(Counter::Accepted, 1);
    }

    fn conn_event(&mut self, mask: u32, token: u64) {
        let (idx, generation) = unpack(token);
        let stale = idx >= self.slots.len()
            || self.generations[idx] != generation
            || self.slots[idx].is_none();
        if stale {
            self.metrics().add(Counter::SpuriousWakeups, 1);
            return;
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            // The kernel says the connection is dead both ways; any
            // in-flight completion is invalidated by the generation bump.
            self.close_conn(idx);
            return;
        }
        {
            let conn = self.slots[idx].as_mut().expect("liveness checked above");
            if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                conn.read_ready = true;
            }
            if mask & EPOLLOUT != 0 {
                conn.write_ready = true;
            }
        }
        self.drive(idx);
    }

    fn drive(&mut self, idx: usize) {
        if self.drive_conn(idx) {
            self.close_conn(idx);
        }
    }

    /// Runs the connection's state machine until no stage makes progress.
    /// Returns `true` when the connection should close.
    fn drive_conn(&mut self, idx: usize) -> bool {
        let token = pack(idx, self.generations[idx]);
        let service = Arc::clone(&self.service);
        let metrics = service.metrics();
        let Some(conn) = self.slots[idx].as_mut() else { return false };
        loop {
            let mut progressed = false;

            // PARSE every complete frame the buffer holds, up to the
            // pipeline cap.  Frames are drained in one pass afterwards so a
            // deep pipeline costs one memmove, not one per request.
            let mut drained = 0;
            while conn.trailing_error.is_none()
                && !conn.close_after_drain
                && conn.unanswered() < MAX_PIPELINE
            {
                let step = conn.parser.advance(&mut conn.buf[drained..]);
                if conn.parser.take_continue() {
                    // The interim must land after every already-owed
                    // response; with none owed it can go out right now.
                    if conn.unanswered() == 0 {
                        conn.out.extend_from_slice(INTERIM_CONTINUE);
                    } else {
                        conn.deferred_continues += 1;
                    }
                    progressed = true;
                }
                match step {
                    ParseStep::NeedMore => break,
                    ParseStep::Complete(frame) => {
                        let request = frame.to_request(&conn.buf[drained..]);
                        drained += frame.end;
                        conn.pending.push_back(request);
                        metrics.raise(Counter::MaxPipelineDepth, conn.unanswered() as u64);
                        progressed = true;
                    }
                    ParseStep::Bad(error) => {
                        conn.trailing_error = Some(error);
                        progressed = true;
                    }
                }
            }
            if drained > 0 {
                conn.buf.drain(..drained);
                if conn.buf.capacity() > 1 << 20 && conn.buf.len() < 1 << 16 {
                    conn.buf.shrink_to(1 << 16);
                }
            }

            // EOF classification, once parsing has consumed all it can:
            // clean between requests, a typed 400 mid-head, a silent drop
            // mid-body.
            if conn.peer_eof && conn.trailing_error.is_none() && !conn.close_after_drain {
                match conn.parser.eof_outcome(conn.buf.len()) {
                    EofOutcome::Clean | EofOutcome::Drop => conn.close_after_drain = true,
                    EofOutcome::Error(error) => conn.trailing_error = Some(error),
                }
                progressed = true;
            }

            // DISPATCH at most one job: sequential handling by one worker
            // keeps pipelined responses in request order.  A backlogged
            // connection waits until the peer reads.
            if conn.inflight == 0 && !conn.pending.is_empty() && !conn.backlogged() {
                let batch = conn.pending.len().min(JOB_BATCH);
                let requests: Vec<Request> = conn.pending.drain(..batch).collect();
                conn.inflight = requests.len();
                self.jobs_inflight += 1;
                if self.job_tx.send(Job { token, requests }).is_err() {
                    return true; // worker pool gone: shutdown race
                }
                progressed = true;
            }

            // TRAILING: with every earlier request answered, emit owed
            // interims, then the deferred parse-error response (and close).
            if conn.unanswered() == 0 {
                if conn.deferred_continues > 0 && !conn.close_after_drain {
                    for _ in 0..conn.deferred_continues {
                        conn.out.extend_from_slice(INTERIM_CONTINUE);
                    }
                    conn.deferred_continues = 0;
                    progressed = true;
                }
                if let Some(error) = conn.trailing_error.take() {
                    let _ = write_response(&mut conn.out, &bad_frame_response(&error), false);
                    conn.close_after_drain = true;
                    progressed = true;
                }
            }

            // READ one chunk (the loop comes back around to parse it).
            if conn.read_ready
                && !conn.peer_eof
                && conn.trailing_error.is_none()
                && !conn.close_after_drain
                && conn.unanswered() < MAX_PIPELINE
                && conn.buf.len() < MAX_BUF
                && !conn.backlogged()
            {
                match read_chunk(conn) {
                    ReadStep::Data => progressed = true,
                    ReadStep::Blocked => conn.read_ready = false,
                    ReadStep::Eof => {
                        conn.read_ready = false;
                        conn.peer_eof = true;
                        progressed = true;
                    }
                    ReadStep::Failed => return true,
                }
            }

            // FLUSH whatever responses have accumulated.
            if conn.write_ready && !conn.flushed() {
                let before = conn.out_pos;
                match flush_out(conn) {
                    FlushStep::Done => progressed = true,
                    FlushStep::Blocked => progressed |= conn.out_pos > before,
                    FlushStep::Failed => return true,
                }
            }

            if !progressed {
                break;
            }
        }
        conn.close_after_drain && conn.unanswered() == 0 && conn.flushed()
    }

    /// Applies worker completions: append the coalesced response bytes,
    /// then re-drive the connection (flush, dispatch the next batch, resume
    /// paused reads).
    fn drain_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self.shared.completions.lock().unwrap_or_else(PoisonError::into_inner),
        );
        for completion in completions {
            self.jobs_inflight -= 1;
            let (idx, generation) = unpack(completion.token);
            if idx >= self.slots.len() || self.generations[idx] != generation {
                continue; // the connection died while its job was in flight
            }
            {
                let Some(conn) = self.slots[idx].as_mut() else { continue };
                conn.inflight = 0;
                conn.last_activity = Instant::now();
                if completion.responses > 1 {
                    let bytes = completion.bytes.len() as u64;
                    self.service.metrics().add(Counter::CoalescedWriteBytes, bytes);
                }
                conn.out.extend_from_slice(&completion.bytes);
                if completion.close {
                    // `Connection: close` (or shutdown): later pipelined
                    // bytes are discarded.
                    conn.close_after_drain = true;
                    conn.pending.clear();
                    conn.buf.clear();
                    conn.deferred_continues = 0;
                    conn.trailing_error = None;
                }
            }
            self.drive(idx);
        }
    }

    /// The periodic sweep: evict idle keep-alives past the configured
    /// window, and drop slow-loris connections stalled mid-request and
    /// peers whose unsent responses made no write progress.
    fn sweep(&mut self) {
        let keep_alive = self.service.config().keep_alive;
        let now = Instant::now();
        let mut doomed = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let Some(conn) = slot else { continue };
            if conn.inflight > 0 {
                continue; // actively being served
            }
            if !conn.flushed() {
                if now.duration_since(conn.last_write) >= MID_REQUEST_PATIENCE {
                    doomed.push(idx); // the peer stopped reading
                }
                continue;
            }
            if !conn.pending.is_empty() {
                continue;
            }
            let idle = now.duration_since(conn.last_activity);
            let limit = if conn.parser.mid_request(conn.buf.len()) {
                MID_REQUEST_PATIENCE
            } else {
                keep_alive
            };
            if idle >= limit {
                doomed.push(idx);
            }
        }
        for idx in doomed {
            self.close_conn(idx);
        }
    }

    /// During shutdown: close every connection with nothing left to answer
    /// or flush (in-flight jobs keep their connections until they drain).
    fn close_idle_for_shutdown(&mut self) {
        let doomed: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let conn = slot.as_ref()?;
                (conn.inflight == 0 && conn.flushed()).then_some(idx)
            })
            .collect();
        for idx in doomed {
            self.close_conn(idx);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].take() {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.generations[idx] = self.generations[idx].wrapping_add(1);
            self.free.push(idx);
            self.live -= 1;
            self.metrics().add(Counter::Closed, 1);
            // `conn` drops here, closing the socket.
        }
    }
}

/// A worker: receives jobs, runs each request through [`Service::handle`]
/// (admission, deadlines, panic isolation, stats — all unchanged), and
/// posts the batch's serialized responses back as one completion.
///
/// [`Service::handle`]: crate::service::Service::handle
fn worker_loop(service: &Service, jobs: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        // The lock is only held while blocked in `recv`: queued jobs drain
        // even after the reactor drops the sender, then workers exit.
        let received = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = received else { break };
        let mut bytes = Vec::with_capacity(256);
        let mut responses = 0;
        let mut close = false;
        for request in &job.requests {
            let response = service.handle(request);
            let keep_alive = !request.wants_close() && !service.is_shutting_down();
            let _ = write_response(&mut bytes, &response, keep_alive); // Vec writes are infallible
            responses += 1;
            if !keep_alive {
                close = true;
                break; // later pipelined requests die with the connection
            }
        }
        shared.post(Completion { token: job.token, bytes, responses, close });
    }
}

/// Boots the reactor runtime over an already-bound listener: one reactor
/// thread plus the worker pool.  Returns the thread handles for
/// [`ServerHandle`](crate::runtime::ServerHandle).
pub(crate) fn spawn(
    listener: TcpListener,
    service: Arc<Service>,
) -> io::Result<(JoinHandle<()>, Vec<JoinHandle<()>>)> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let waker = EventFd::new()?;
    epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLET, LISTENER_TOKEN)?;
    epoll.add(waker.raw(), EPOLLIN | EPOLLET, WAKER_TOKEN)?;
    let shared = Arc::new(Shared { completions: Mutex::new(Vec::new()), waker });
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<JoinHandle<()>> = (0..service.config().resolved_threads())
        .map(|i| {
            let service = Arc::clone(&service);
            let shared = Arc::clone(&shared);
            let job_rx = Arc::clone(&job_rx);
            std::thread::Builder::new()
                .name(format!("mrs-worker-{i}"))
                .spawn(move || worker_loop(&service, &job_rx, &shared))
                .expect("spawning a worker thread")
        })
        .collect();
    let reactor_thread = std::thread::Builder::new()
        .name("mrs-reactor".to_string())
        .spawn(move || {
            let mut reactor = Reactor {
                epoll,
                listener,
                service,
                shared,
                job_tx,
                slots: Vec::new(),
                generations: Vec::new(),
                free: Vec::new(),
                live: 0,
                jobs_inflight: 0,
            };
            reactor.run();
        })
        .expect("spawning the reactor thread");
    Ok((reactor_thread, workers))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flushing_to_a_slow_reader_drops_the_sent_prefix_and_keeps_the_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        let sent: Vec<u8> = (0..16usize << 20).map(|i| (i % 251) as u8).collect();
        conn.out = sent.clone();
        // The peer reads at most 1 MiB per blocked flush, so the sent
        // prefix grows past half of `out` unless the flush drops it.
        let mut received = Vec::with_capacity(sent.len());
        let mut chunk = vec![0u8; 1 << 20];
        loop {
            match flush_out(&mut conn) {
                FlushStep::Done => break,
                FlushStep::Failed => panic!("a loopback write failed"),
                FlushStep::Blocked => assert!(
                    conn.out_pos <= conn.out.len() - conn.out_pos,
                    "{} sent bytes kept beside {} unsent",
                    conn.out_pos,
                    conn.out.len() - conn.out_pos
                ),
            }
            let n = peer.read(&mut chunk).unwrap();
            received.extend_from_slice(&chunk[..n]);
        }
        while received.len() < sent.len() {
            let n = peer.read(&mut chunk).unwrap();
            assert!(n > 0, "the stream ended after {} bytes", received.len());
            received.extend_from_slice(&chunk[..n]);
        }
        assert!(received == sent, "the peer must receive the bytes in order, once");
    }
}
