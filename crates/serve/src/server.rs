//! Unix-socket transport: a worker-pool server over [`ServeEngine`] and a
//! multiplexing [`Client`].
//!
//! # Executor model
//!
//! Three thread roles per running server:
//!
//! - **readers** (one per connection) block on the socket, decode request
//!   frames, and enqueue decoded jobs on their connection's queue. A reader
//!   admits at most the connection's pipeline depth of outstanding requests
//!   (decoded but not yet answered): depth 1 until the client sends a
//!   [`Verb::Hello`] handshake — exactly the v1 one-request-one-reply
//!   cadence — and the granted depth after it.
//! - **workers** (a fixed pool of [`ServerOpts::workers`] threads) pull jobs
//!   round-robin across connection queues — one connection with a deep
//!   pipeline cannot starve another's single request — and execute them on
//!   the engine, MLP inference included: a worker never hands a request to
//!   another thread.
//! - **writers** (one per connection) serialize replies in completion
//!   order. Out-of-order replies are legal precisely because every response
//!   carries its request id: the client matches replies by id, and each id's
//!   reply bytes are schedule-independent (the equivalence gate), so *which*
//!   order completions land in carries no information.
//!
//! The socket carries exactly the frames defined in [`crate::protocol`].
//! A connection may interleave requests for any tenants (the tenant id
//! travels in each request); a malformed frame gets a `Protocol` error
//! response and the connection is closed, since framing can no longer be
//! trusted mid-stream.

use crate::engine::ServeEngine;
use crate::protocol::{
    decode_response, encode_request, encode_response, read_frame_bytes, ProtocolError, Request,
    Response, ResponseBody, Verb, MAGIC_REQUEST, MAGIC_RESPONSE, MAX_PIPELINE,
};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

/// Worker-pool size when [`ServerOpts::workers`] is 0.
const DEFAULT_WORKERS: usize = 4;

/// Server run policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOpts {
    /// Stop accepting and return once this many requests have been served
    /// (`None` = run until the process dies). Lets tests and demos run the
    /// server on a plain thread with a deterministic exit.
    pub max_requests: Option<u64>,
    /// Fixed executor pool size (`0` = default of 4). Workers are shared by
    /// all connections; per-connection reader and writer threads only do
    /// framing I/O.
    pub workers: usize,
}

/// Per-connection shared state between its reader, its writer, and the jobs
/// in flight for it. Deliberately does NOT hold the reply `Sender`: the
/// writer thread owns an `Arc<Conn>`, and the writer must see its channel
/// close once the reader, the pool slot, and every in-flight job have
/// dropped their sender clones.
struct Conn {
    /// Requests decoded but not yet answered (queued + executing + replies
    /// not yet written). The reader's backpressure bound.
    outstanding: Mutex<usize>,
    cv: Condvar,
    /// Set by the writer when the client is unreachable, so the reader
    /// stops admitting instead of waiting on replies that cannot be sent.
    dead: AtomicBool,
}

impl Conn {
    /// Reader side: admit one request (bumps outstanding).
    fn admit(&self) {
        *self.outstanding.lock().unwrap() += 1;
    }

    /// Writer side: one reply fully handled (written or dropped).
    fn complete(&self) {
        let mut n = self.outstanding.lock().unwrap();
        *n -= 1;
        drop(n);
        self.cv.notify_all();
    }

    /// Reader side: block until fewer than `depth` requests are
    /// outstanding, or the connection has died. No timeout is needed: the
    /// writer sets `dead` before the `complete` that follows every reply,
    /// and `complete` notifies under this lock.
    fn wait_below(&self, depth: usize) -> bool {
        let mut n = self.outstanding.lock().unwrap();
        while *n >= depth && !self.dead.load(Ordering::SeqCst) {
            n = self.cv.wait(n).unwrap();
        }
        !self.dead.load(Ordering::SeqCst)
    }
}

/// One connection's job queue inside the pool.
struct ConnQueue {
    jobs: VecDeque<Request>,
    /// Reply channel into the connection's writer; workers clone it per
    /// job, and the slot's copy drops when the slot is swept.
    tx: mpsc::Sender<Vec<u8>>,
    /// Reader exited; the slot is swept once its queue drains.
    closed: bool,
}

struct PoolState {
    conns: Vec<Option<ConnQueue>>,
    /// Round-robin cursor so workers visit connections fairly.
    rr: usize,
    stop: bool,
}

/// The shared worker pool: one mutex over every connection queue (queues are
/// tiny — bounded by each connection's pipeline depth).
struct Pool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl Pool {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(PoolState {
                conns: Vec::new(),
                rr: 0,
                stop: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn register(&self, tx: mpsc::Sender<Vec<u8>>) -> usize {
        let mut st = self.state.lock().unwrap();
        let slot = ConnQueue {
            jobs: VecDeque::new(),
            tx,
            closed: false,
        };
        for (i, c) in st.conns.iter_mut().enumerate() {
            if c.is_none() {
                *c = Some(slot);
                return i;
            }
        }
        st.conns.push(Some(slot));
        st.conns.len() - 1
    }

    fn submit(&self, slot: usize, req: Request) {
        let mut st = self.state.lock().unwrap();
        if let Some(q) = st.conns[slot].as_mut() {
            q.jobs.push_back(req);
        }
        drop(st);
        self.cv.notify_one();
    }

    /// Reader exited: mark the slot for sweeping and wake a worker to do it.
    fn close(&self, slot: usize) {
        let mut st = self.state.lock().unwrap();
        if let Some(q) = st.conns[slot].as_mut() {
            q.closed = true;
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Worker side: next job, round-robin across connections. Sweeps slots
    /// whose reader has exited and whose queue is drained. Returns `None`
    /// when stopped and every queue is empty (workers drain before exiting,
    /// so accepted requests are always answered).
    fn next_job(&self) -> Option<(mpsc::Sender<Vec<u8>>, Request)> {
        let mut st = self.state.lock().unwrap();
        loop {
            let n = st.conns.len();
            let mut found = None;
            for k in 0..n {
                let i = (st.rr + k) % n;
                let Some(q) = st.conns[i].as_mut() else {
                    continue;
                };
                if let Some(req) = q.jobs.pop_front() {
                    found = Some((i, q.tx.clone(), req));
                    break;
                }
                if q.closed {
                    st.conns[i] = None;
                }
            }
            if let Some((i, tx, req)) = found {
                st.rr = i + 1;
                return Some((tx, req));
            }
            if st.stop {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    fn stop(&self) {
        self.state.lock().unwrap().stop = true;
        self.cv.notify_all();
    }

    /// Drop every remaining slot (run after workers have been joined), so
    /// per-connection writer channels close and their threads exit.
    fn clear(&self) {
        self.state.lock().unwrap().conns.clear();
    }
}

/// Serve `engine` on a Unix socket at `path` until `max_requests` requests
/// have been answered. Returns the number served. Any stale socket file at
/// `path` is replaced.
///
/// The accept loop blocks in `accept`. The writer whose reply brings the
/// served count to `max_requests` connects to the socket once, so the loop
/// wakes, sees the quota met, and shuts the server down.
pub fn serve_unix(path: &Path, engine: &ServeEngine, opts: ServerOpts) -> std::io::Result<u64> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let served = Arc::new(AtomicU64::new(0));
    let pool = Pool::new();

    let n_workers = if opts.workers == 0 {
        DEFAULT_WORKERS
    } else {
        opts.workers
    };
    let workers: Vec<_> = (0..n_workers)
        .map(|k| {
            let pool = Arc::clone(&pool);
            let engine = engine.clone();
            let obs = ifet_obs::handle();
            std::thread::Builder::new()
                .name(format!("ifet-serve-worker-{k}"))
                .spawn(move || {
                    while let Some((tx, req)) = pool.next_job() {
                        let _obs = obs.enter();
                        // Replies go out in completion order; the writer
                        // balances the reader's admit. A send to a closed
                        // channel means the connection is already torn down.
                        let bytes = encode_response(&engine.handle(req));
                        let _ = tx.send(bytes);
                    }
                })
                .expect("spawn serve worker")
        })
        .collect();

    let quota_met = || {
        opts.max_requests
            .is_some_and(|max| served.load(Ordering::SeqCst) >= max)
    };
    let mut readers = Vec::new();
    let mut writers = Vec::new();
    while !quota_met() {
        let stream = match listener.accept() {
            Ok((stream, _addr)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if quota_met() {
            break; // the last writer's wake-up, or a client arriving too late
        }
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let conn = Arc::new(Conn {
            outstanding: Mutex::new(0),
            cv: Condvar::new(),
            dead: AtomicBool::new(false),
        });
        let slot = pool.register(tx.clone());
        let shutdown = stream.try_clone()?;
        let write_stream = stream.try_clone()?;
        writers.push(std::thread::spawn({
            let conn = Arc::clone(&conn);
            let served = Arc::clone(&served);
            let wake = opts.max_requests.map(|max| (max, path.to_path_buf()));
            move || writer_loop(write_stream, rx, &conn, &served, wake)
        }));
        readers.push((
            std::thread::spawn({
                let pool = Arc::clone(&pool);
                move || reader_loop(stream, &pool, slot, &conn, tx)
            }),
            shutdown,
        ));
    }
    drop(listener);
    let _ = std::fs::remove_file(path);
    // Teardown order matters: unblock parked readers first, then drain the
    // pool (workers answer everything already admitted), then drop the last
    // reply senders so writers see their channels close and exit.
    for (_, stream) in &readers {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for (r, _) in readers {
        let _ = r.join();
    }
    pool.stop();
    for w in workers {
        let _ = w.join();
    }
    pool.clear();
    for w in writers {
        let _ = w.join();
    }
    Ok(served.load(Ordering::SeqCst))
}

/// Per-connection reader: decode frames, enforce the pipeline depth, hand
/// decoded jobs to the pool. Depth is 1 (v1 single-shot cadence: the reply
/// is written before the next request is admitted) until a `Hello` raises
/// it for the rest of the connection.
fn reader_loop(
    mut stream: UnixStream,
    pool: &Pool,
    slot: usize,
    conn: &Arc<Conn>,
    tx: mpsc::Sender<Vec<u8>>,
) {
    let mut depth: usize = 1;
    loop {
        if !conn.wait_below(depth) {
            break; // writer lost the client; nothing more can be answered
        }
        match read_frame_bytes(&mut stream, MAGIC_REQUEST) {
            Ok(None) | Err(_) => break,
            Ok(Some(Ok(frame))) => match crate::protocol::decode_request(&frame) {
                Ok(req) => {
                    if let Verb::Hello { max_pipeline } = req.verb {
                        depth = max_pipeline.clamp(1, MAX_PIPELINE) as usize;
                    }
                    conn.admit();
                    pool.submit(slot, req);
                }
                Err(e) => {
                    reject_and_close(conn, &tx, &e);
                    break;
                }
            },
            Ok(Some(Err(e))) => {
                reject_and_close(conn, &tx, &e);
                break;
            }
        }
    }
    pool.close(slot);
}

/// Framing is lost: answer with a typed protocol error (request id 0 —
/// corrupted bytes are attributable to no session) through the writer, then
/// let the connection close.
fn reject_and_close(conn: &Conn, tx: &mpsc::Sender<Vec<u8>>, e: &ProtocolError) {
    let rsp = encode_response(&Response {
        request_id: 0,
        tenant: 0,
        body: ResponseBody::Err {
            code: crate::protocol::ErrorCode::Protocol,
            message: e.to_string(),
        },
    });
    conn.admit();
    let _ = tx.send(rsp);
}

/// Per-connection writer: replies leave in completion order. Every message
/// balances one `admit` whether or not the write succeeds, so the reader's
/// backpressure can never wedge on a vanished client. `wake` is the
/// server's `(max_requests, socket path)`, if it has a quota.
fn writer_loop(
    mut stream: UnixStream,
    rx: mpsc::Receiver<Vec<u8>>,
    conn: &Conn,
    served: &AtomicU64,
    wake: Option<(u64, PathBuf)>,
) {
    let mut alive = true;
    while let Ok(bytes) = rx.recv() {
        if alive {
            match stream.write_all(&bytes) {
                Ok(()) => {
                    let now = served.fetch_add(1, Ordering::SeqCst) + 1;
                    if let Some((max, path)) = &wake {
                        if now == *max {
                            // Wake the accept loop: the quota is met.
                            let _ = UnixStream::connect(path);
                        }
                    }
                }
                Err(_) => {
                    alive = false;
                    conn.dead.store(true, Ordering::SeqCst);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
        }
        conn.complete();
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    Protocol(ProtocolError),
    /// The server closed the connection (shutdown, `max_requests` reached,
    /// or a mid-stream drop). Broken pipes and resets land here, never as a
    /// raw `Io`.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        map_io(e)
    }
}

/// Disconnection-shaped I/O errors become the typed [`ClientError::Disconnected`].
fn map_io(e: std::io::Error) -> ClientError {
    use std::io::ErrorKind::*;
    match e.kind() {
        BrokenPipe | ConnectionReset | ConnectionAborted | UnexpectedEof | WriteZero => {
            ClientError::Disconnected
        }
        _ => ClientError::Io(e),
    }
}

/// A request/response client over a Unix socket.
///
/// Two modes:
/// - **single-shot** ([`Self::call`]): send one request, wait for its reply
///   — works against any server version;
/// - **pipelined** ([`Self::hello`], then [`Self::submit`] /
///   [`Self::await_response`]): many requests outstanding, replies arriving
///   in completion order and matched by request id (out-of-order replies
///   are buffered until awaited). Request ids must be unique among a
///   connection's outstanding requests.
pub struct Client {
    stream: UnixStream,
    /// Replies that arrived while awaiting a different request id.
    pending: HashMap<u64, Response>,
}

impl Client {
    pub fn connect(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            stream: UnixStream::connect(path)?,
            pending: HashMap::new(),
        })
    }

    /// Send one request and wait for its response.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.submit(req)?;
        self.await_response(req.request_id)
    }

    /// Negotiate pipelined mode: ask for up to `max_pipeline` outstanding
    /// requests and return the server's granted depth.
    pub fn hello(&mut self, max_pipeline: u32) -> Result<u32, ClientError> {
        let rsp = self.call(&Request {
            request_id: 0,
            tenant: 0,
            verb: Verb::Hello { max_pipeline },
        })?;
        match rsp.body {
            ResponseBody::HelloOk { max_pipeline, .. } => Ok(max_pipeline),
            // A v1 server answers `Hello` with an unknown-verb protocol
            // error; surface it as the protocol mismatch it is.
            ResponseBody::Err { .. } => Err(ClientError::Protocol(ProtocolError::UnknownVerb(6))),
            _ => Err(ClientError::Protocol(ProtocolError::UnknownStatus(6))),
        }
    }

    /// Fire a request without waiting for its reply (pipelining). The reply
    /// is collected later by [`Self::await_response`] with the same id.
    pub fn submit(&mut self, req: &Request) -> Result<(), ClientError> {
        self.stream
            .write_all(&encode_request(req))
            .map_err(map_io)?;
        Ok(())
    }

    /// Wait for the reply to `request_id`, buffering any other replies that
    /// arrive first (completion order need not match submission order).
    pub fn await_response(&mut self, request_id: u64) -> Result<Response, ClientError> {
        if let Some(rsp) = self.pending.remove(&request_id) {
            return Ok(rsp);
        }
        loop {
            match read_frame_bytes(&mut self.stream, MAGIC_RESPONSE).map_err(map_io)? {
                None => return Err(ClientError::Disconnected),
                Some(Ok(frame)) => {
                    let rsp = decode_response(&frame).map_err(ClientError::Protocol)?;
                    if rsp.request_id == request_id {
                        return Ok(rsp);
                    }
                    self.pending.insert(rsp.request_id, rsp);
                }
                Some(Err(e)) => return Err(ClientError::Protocol(e)),
            }
        }
    }
}
