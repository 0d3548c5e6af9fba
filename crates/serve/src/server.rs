//! The `finsqld` server: a hand-rolled non-blocking readiness loop over
//! `std::net` sockets feeding the existing [`BatchScheduler`].
//!
//! The workspace vendors every dependency and forbids `unsafe`, so there
//! is no epoll/mio: the event loop polls non-blocking sockets in rounds —
//! accept until `WouldBlock`, read/decode/dispatch per connection, poll
//! outstanding answer [`Claim`]s, flush write buffers — and sleeps
//! briefly only when a full round did no work. One driver thread
//! therefore serves any number of connections; no thread is ever parked
//! per request.
//!
//! **Admission control.** A cache hit is answered in the round that
//! decoded it: the scheduler looks the question up once, on the driver
//! thread, and the `Ok` reply is queued at once — no in-flight slot, no
//! queue crossing, no worker wake-up. A miss occupies one in-flight slot
//! from decode until its response bytes are queued. Over budget —
//! [`ServeConfig::max_in_flight`] reached, or the scheduler's bounded
//! queue refuses with [`SubmitError::QueueFull`] — a miss is answered
//! [`Status::Busy`] immediately and leaves no trace in the cache, while
//! a hit is still answered: load is shed at the wire, a `Busy` is never
//! a wrong answer, the bounded MPMC queue's backpressure reaches the
//! client instead of blocking the driver, and a driver stall that leaves
//! a backlog of decoded frames sheds only the misses in it. A hit's
//! reply may overtake an earlier miss on the same connection; every
//! reply carries its request's id.
//!
//! **Byte identity.** A hit returns the cached `Arc<str>` a worker would
//! have returned, and a miss takes the scheduler path unchanged, so
//! every `Ok` answer is byte-identical to the library path
//! ([`FinSql::answer`] — the property `bench_serve` re-checks over real
//! sockets).

use crate::wire::{encode_response_into, Frame, FrameDecoder, Kind, Status};
use bull::DbId;
use finsql_core::batch::{BatchConfig, BatchScheduler, Claim, SubmitError, Ticket};
use finsql_core::cache::AnswerCache;
use finsql_core::metrics::{EvalMetrics, HistogramSnapshot, LatencyHistogram};
use finsql_core::pipeline::FinSql;
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of one [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission budget: most cache misses simultaneously between decode
    /// and response enqueue. Beyond it a miss is answered
    /// [`Status::Busy`] without being queued; a hit holds no slot and is
    /// still answered.
    pub max_in_flight: usize,
    /// A connection whose write buffer backs up past this many bytes is
    /// not read from until the peer drains it — per-connection
    /// backpressure with bounded memory.
    pub write_buf_cap: usize,
    /// How long the driver sleeps after a round in which no socket was
    /// readable, no claim resolved and no byte was written.
    pub idle_sleep: Duration,
    /// The scheduler the server feeds.
    pub batch: BatchConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_in_flight: 256,
            write_buf_cap: 1 << 20,
            idle_sleep: Duration::from_micros(100),
            batch: BatchConfig::default(),
        }
    }
}

/// Counters of one server's lifetime, also the substance of the `STATS`
/// protocol verb.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Requests answered [`Status::Ok`].
    pub served: u64,
    /// Of `served`, the cache hits answered in the round that decoded
    /// them, without an in-flight slot or a worker.
    pub driver_hits: u64,
    /// Cache misses shed with [`Status::Busy`] (admission budget or
    /// queue full).
    pub busy_rejected: u64,
    /// Frames rejected as [`Status::BadFrame`] (protocol violations).
    pub bad_frames: u64,
    /// Requests refused with [`Status::Shutdown`] during drain.
    pub shutdown_rejected: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// One client connection's driver state.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes queued for the peer; drained opportunistically each round.
    out: Vec<u8>,
    /// Prefix of `out` already written.
    out_pos: usize,
    /// Close once `out` is flushed (EOF from peer, or a protocol error).
    closing: bool,
}

impl Conn {
    fn queue(&mut self, frame: &Frame) {
        frame.encode_into(&mut self.out);
    }

    /// Frames a response straight onto the write buffer: one payload
    /// copy (building a `Frame::response` first would copy the answer
    /// twice).
    fn queue_response(&mut self, request_id: u64, status: Status, flags: u8, answer: &str) {
        encode_response_into(&mut self.out, request_id, status, flags, answer);
    }

    /// Drops the flushed prefix once it dominates the buffer.
    fn compact_out(&mut self) {
        if self.out_pos > 0 && self.out_pos * 2 >= self.out.len() {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
    }

    fn backlog(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// One admitted miss awaiting its scheduler answer.
struct Pending {
    conn_id: u64,
    request_id: u64,
    flags: u8,
    claim: Claim,
    received: Instant,
}

/// A running `finsqld` instance bound to a TCP address.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    scheduler: BatchScheduler,
    config: ServeConfig,
    latency: LatencyHistogram,
    report: ServeReport,
}

impl Server {
    /// Binds a listener and starts the scheduler's worker pool. `addr`
    /// may use port 0 to let the OS pick (see [`Server::local_addr`]).
    pub fn bind(
        addr: &str,
        engine: Arc<FinSql>,
        cache: Option<Arc<AnswerCache>>,
        metrics: Option<Arc<EvalMetrics>>,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let scheduler = BatchScheduler::new(engine, cache, metrics, config.batch);
        Ok(Server {
            listener,
            local_addr,
            scheduler,
            config,
            latency: LatencyHistogram::new(),
            report: ServeReport::default(),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Runs the readiness loop until a client sends a `Shutdown` frame
    /// or `stop` is raised externally. Shutdown is graceful: in-flight
    /// requests drain to completion, their responses are flushed, the
    /// scheduler pool is joined, and the lifetime report is returned.
    pub fn run(mut self, stop: &AtomicBool) -> ServeReport {
        let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
        let mut pending: Vec<Pending> = Vec::new();
        let mut next_conn_id = 0u64;
        let mut draining = false;
        loop {
            let mut progressed = false;
            if !draining && stop.load(Ordering::Relaxed) {
                draining = true;
            }

            // 1. Accept — refuse nothing at the socket level; admission
            // happens per request. Accepting continues during drain so a
            // handshake that raced shutdown gets explicit `Shutdown`
            // responses instead of a silently dropped connection.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        // Nagle would buffer our small frames against
                        // the latency measurement; best effort.
                        let _ = stream.set_nodelay(true);
                        self.report.connections += 1;
                        conns.insert(
                            next_conn_id,
                            Conn {
                                stream,
                                decoder: FrameDecoder::new(),
                                out: Vec::new(),
                                out_pos: 0,
                                closing: false,
                            },
                        );
                        next_conn_id += 1;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // 2. Read + decode + dispatch per connection.
            let mut dead: Vec<u64> = Vec::new();
            for (&conn_id, conn) in conns.iter_mut() {
                if conn.closing {
                    continue;
                }
                // Backpressure: a peer that won't drain its responses
                // doesn't get to queue unbounded new work.
                if conn.backlog() >= self.config.write_buf_cap {
                    continue;
                }
                let mut buf = [0u8; 4096];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.closing = true;
                            progressed = true;
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.decoder.push(&buf[..n]);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(conn_id);
                            break;
                        }
                    }
                }
                if dead.last() == Some(&conn_id) {
                    continue;
                }
                // Drain every complete frame buffered so far.
                loop {
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => {
                            progressed = true;
                            dispatch(
                                frame,
                                conn_id,
                                conn,
                                &self.scheduler,
                                &self.latency,
                                &mut self.report,
                                &mut pending,
                                &mut draining,
                                self.config.max_in_flight,
                            );
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Framing is lost; tell the peer and close.
                            self.report.bad_frames += 1;
                            conn.queue_response(0, Status::BadFrame, 0, "");
                            conn.closing = true;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            for conn_id in dead.drain(..) {
                conns.remove(&conn_id);
            }

            // 3. Poll outstanding claims; completed answers are framed
            // onto their connection's write buffer.
            pending.retain(|p| {
                let Some(answer) = p.claim.try_answer() else { return true };
                self.latency.record(p.received.elapsed());
                self.report.served += 1;
                progressed = true;
                if let Some(conn) = conns.get_mut(&p.conn_id) {
                    conn.queue_response(p.request_id, Status::Ok, p.flags, &answer);
                }
                false
            });

            // 4. Flush write buffers; reap finished connections.
            for (&conn_id, conn) in conns.iter_mut() {
                while conn.backlog() > 0 {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            dead.push(conn_id);
                            break;
                        }
                        Ok(n) => {
                            progressed = true;
                            conn.out_pos += n;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            dead.push(conn_id);
                            break;
                        }
                    }
                }
                conn.compact_out();
                if conn.closing && conn.backlog() == 0 {
                    dead.push(conn_id);
                }
            }
            for conn_id in dead.drain(..) {
                conns.remove(&conn_id);
            }

            // 5. Drain-to-exit: once shutdown began, leave only after
            // every admitted request is answered and every response byte
            // is either flushed or its connection is gone.
            if draining && pending.is_empty() && conns.values().all(|c| c.backlog() == 0) {
                break;
            }
            if !progressed {
                // finlint: blocking — idle backoff: the loop naps only
                // when no socket, frame or claim made progress this
                // round, so no admitted request is ever behind the sleep.
                std::thread::sleep(self.config.idle_sleep);
            }
        }
        // finlint: blocking — graceful exit: joins the worker pool after
        // the drain barrier above has answered and flushed everything.
        self.scheduler.shutdown();
        self.report
    }

    /// Starts the server on its own thread, returning a handle that can
    /// stop it and collect the report. The bound address is resolved
    /// before spawning, so the caller can connect immediately.
    pub fn spawn(self) -> ServeHandle {
        let addr = self.local_addr;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || self.run(&stop))
        };
        ServeHandle { addr, stop, thread }
    }
}

/// Handles one decoded frame on `conn`.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    frame: Frame,
    conn_id: u64,
    conn: &mut Conn,
    scheduler: &BatchScheduler,
    latency: &LatencyHistogram,
    report: &mut ServeReport,
    pending: &mut Vec<Pending>,
    draining: &mut bool,
    max_in_flight: usize,
) {
    let request_id = frame.request_id;
    let flags = frame.flags;
    match frame.kind {
        Kind::Request => {
            if *draining {
                report.shutdown_rejected += 1;
                conn.queue_response(request_id, Status::Shutdown, flags, "");
                return;
            }
            let Some(&db) = DbId::ALL.get(frame.code as usize) else {
                report.bad_frames += 1;
                conn.queue_response(request_id, Status::BadFrame, flags, "");
                conn.closing = true;
                return;
            };
            let Ok(question) = String::from_utf8(frame.payload) else {
                report.bad_frames += 1;
                conn.queue_response(request_id, Status::BadFrame, flags, "");
                conn.closing = true;
                return;
            };
            let received = Instant::now();
            let hit = if pending.len() < max_in_flight {
                // The scheduler looks the question up once and queues only
                // a miss, interning it into the one `Arc<str>` its queue
                // entry and cache fill share.
                match scheduler.try_submit(db, question) {
                    Ok(Ticket::Hit(answer)) => answer,
                    Ok(Ticket::Queued(claim)) => {
                        pending.push(Pending { conn_id, request_id, flags, claim, received });
                        return;
                    }
                    Err(SubmitError::QueueFull) => {
                        report.busy_rejected += 1;
                        conn.queue_response(request_id, Status::Busy, flags, "");
                        return;
                    }
                    Err(SubmitError::ShuttingDown) => {
                        report.shutdown_rejected += 1;
                        conn.queue_response(request_id, Status::Shutdown, flags, "");
                        return;
                    }
                }
            } else {
                // Over budget: a hit needs no slot, and a miss is shed
                // without a trace in the cache.
                let Some(answer) = scheduler.lookup_hit(db, &question) else {
                    report.busy_rejected += 1;
                    conn.queue_response(request_id, Status::Busy, flags, "");
                    return;
                };
                answer
            };
            latency.record(received.elapsed());
            report.served += 1;
            report.driver_hits += 1;
            conn.queue_response(request_id, Status::Ok, flags, &hit);
        }
        Kind::Stats => {
            // STATS is an operator verb: one JSON build per explicit
            // stats request, never on the per-query serving path.
            let json = stats_json(report, pending.len(), &latency.snapshot()); // finlint: alloc — stats verb
            conn.queue(&Frame::stats_response(request_id, &json)); // finlint: alloc — stats verb
        }
        Kind::Shutdown => {
            *draining = true;
            conn.queue_response(request_id, Status::Shutdown, flags, "");
        }
        // A client sending server-side frame kinds has lost the plot;
        // treat it as a protocol violation.
        Kind::Response | Kind::StatsResponse => {
            report.bad_frames += 1;
            conn.queue_response(request_id, Status::BadFrame, flags, "");
            conn.closing = true;
        }
    }
}

/// The `STATS` payload: hand-formatted JSON (the workspace has no serde
/// registry dep), nanosecond quantiles from the serving histogram.
pub fn stats_json(report: &ServeReport, in_flight: usize, latency: &HistogramSnapshot) -> String {
    format!(
        "{{\"served\":{},\"driver_hits\":{},\"busy_rejected\":{},\"bad_frames\":{},\"shutdown_rejected\":{},\
         \"connections\":{},\"in_flight\":{},\"latency\":{{\"count\":{},\"p50_ns\":{},\
         \"p99_ns\":{},\"p999_ns\":{}}}}}",
        report.served,
        report.driver_hits,
        report.busy_rejected,
        report.bad_frames,
        report.shutdown_rejected,
        report.connections,
        in_flight,
        latency.count(),
        latency.p50().as_nanos(),
        latency.p99().as_nanos(),
        latency.p999().as_nanos(),
    )
}

/// A server running on its own thread.
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<ServeReport>,
}

impl ServeHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the stop flag; the driver drains and exits on its next
    /// round.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the driver to exit and returns its lifetime report.
    /// `Err` carries the driver thread's panic payload.
    pub fn join(self) -> std::thread::Result<ServeReport> {
        self.thread.join()
    }

    /// [`ServeHandle::stop`] then [`ServeHandle::join`].
    pub fn shutdown(self) -> std::thread::Result<ServeReport> {
        self.stop();
        self.join()
    }
}
