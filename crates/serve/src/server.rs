//! The `kizzle-serve` daemon: a fleet of scan workers over one shared
//! [`ChainFollower`].
//!
//! One compiler process saves its state file; this daemon tails it.
//! A single [`ChainFollower`] follows the state directory on a background
//! thread, woken by each save on this host (and polling at
//! [`ServeConfig::poll_interval`] for the saves that cannot wake it);
//! every worker holds a [`Matcher`] over that shared follower,
//! so a publication swaps the set under all workers at once — mid-scan
//! traffic keeps reading the old `Arc` it pinned, the next scan reads
//! the new one, and no request ever sees a torn mixture.
//!
//! Connections are accepted on a dedicated thread, blocked in `accept`,
//! and dispatched to `N` worker threads over a channel; each worker
//! serves one connection at a time with buffered pipelined I/O. Shutdown
//! (the [`OP_SHUTDOWN`] opcode or [`ServerHandle::shutdown`]) is a
//! graceful drain: whoever starts it raises a flag and makes one loopback
//! connection to wake the acceptor, which stops taking new connections;
//! workers finish the requests already in flight and the connections
//! already queued, then everything joins.

use crate::protocol::{
    encode_scan_reply, read_frame, write_frame, FrameRead, OP_METRICS, OP_SCAN, OP_SHUTDOWN,
    OP_STATUS, ST_ERROR, ST_OK,
};
use kizzle::{ChainFollower, FollowHandle, Matcher, SignatureSource};
use kizzle_telemetry::{counter, Record, Recorder};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-connection buffer size; pipelined loadgen frames are small, so
/// this comfortably batches dozens of requests per syscall.
const IO_BUF: usize = 64 * 1024;

/// Read timeout on worker sockets — the latency with which an idle
/// connection notices a drain request.
const READ_TIMEOUT: Duration = Duration::from_millis(100);

/// How long the acceptor backs off after an `accept` failure that would
/// repeat at once (out of file descriptors) instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (use port 0 to let the OS pick).
    pub addr: String,
    /// State directory the compiler saves into.
    pub chain_dir: PathBuf,
    /// Number of scan worker threads.
    pub workers: usize,
    /// Staleness bound for saves that cannot wake the follow thread: a
    /// save on this host wakes it at once, but a writer on another host
    /// of a shared filesystem (or a state directory where the wake socket
    /// cannot be bound, `STATUS` `follow=poll`) is seen at the next poll.
    pub poll_interval: Duration,
}

impl ServeConfig {
    /// Loopback defaults: OS-picked port, one worker per available core,
    /// a 200 ms poll for the saves that cannot wake the follower.
    #[must_use]
    pub fn new(chain_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            chain_dir: chain_dir.into(),
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            poll_interval: Duration::from_millis(200),
        }
    }
}

/// Aggregates flushed telemetry spans into per-name counts and total
/// durations — the [`Recorder`] trait's first real exporter. Rendered
/// as extra Prometheus lines in the daemon's [`OP_METRICS`] response.
#[derive(Debug, Default)]
pub struct SpanAggregator {
    spans: Mutex<HashMap<&'static str, (u64, u64)>>,
}

impl SpanAggregator {
    /// Render the aggregate as Prometheus text
    /// (`kizzle_span_count`/`kizzle_span_us_total` per span name).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let snapshot = {
            let spans = self.spans.lock().expect("span aggregator lock");
            let mut rows: Vec<_> = spans
                .iter()
                .map(|(name, (count, us))| (*name, *count, *us))
                .collect();
            rows.sort_unstable();
            rows
        };
        let mut out = String::new();
        if !snapshot.is_empty() {
            out.push_str("# TYPE kizzle_span_count counter\n");
            for (name, count, _) in &snapshot {
                let _ = writeln!(out, "kizzle_span_count{{span=\"{name}\"}} {count}");
            }
            out.push_str("# TYPE kizzle_span_us_total counter\n");
            for (name, _, us) in &snapshot {
                let _ = writeln!(out, "kizzle_span_us_total{{span=\"{name}\"}} {us}");
            }
        }
        out
    }
}

impl Recorder for SpanAggregator {
    fn record(&self, record: &Record) {
        if let Record::Span { name, dur_us, .. } = record {
            let mut spans = self.spans.lock().expect("span aggregator lock");
            let slot = spans.entry(name).or_insert((0, 0));
            slot.0 += 1;
            slot.1 += dur_us;
        }
    }
}

/// A thin [`Recorder`] shim so the process-global recorder slot and the
/// server's rendering side can share one [`SpanAggregator`].
struct SharedAggregator(Arc<SpanAggregator>);

impl Recorder for SharedAggregator {
    fn record(&self, record: &Record) {
        self.0.record(record);
    }
}

/// The serve daemon, start-to-join. See the [module docs](self).
pub struct Server;

/// The drain switch every thread shares.
struct Drain {
    started: AtomicBool,
    /// Where a loopback connection reaches the listener.
    wake_addr: SocketAddr,
}

impl Drain {
    fn new(local_addr: SocketAddr) -> Self {
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Drain {
            started: AtomicBool::new(false),
            wake_addr,
        }
    }

    fn started(&self) -> bool {
        self.started.load(Ordering::Acquire)
    }

    /// Raise the flag, then wake the acceptor out of `accept` with one
    /// loopback connection, closed at once: the acceptor hands it on with
    /// the rest of the backlog, and its worker ends it at the first read.
    /// Only the first call connects. A connect that cannot finish within
    /// `READ_TIMEOUT` means a full accept backlog, whose connections wake
    /// the acceptor anyway.
    fn start(&self) {
        if !self.started.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, READ_TIMEOUT);
        }
    }
}

/// What every worker shares besides its own [`Matcher`].
struct Fleet {
    follower: Arc<ChainFollower>,
    aggregator: Arc<SpanAggregator>,
    drain: Drain,
    workers: usize,
    /// `STATUS`'s `follow=`: `wake` when saves on this host wake the
    /// follow thread, `poll` when only the poll interval does.
    follow: &'static str,
}

/// A running daemon: the bound address plus the handles needed to drain
/// and join it.
pub struct ServerHandle {
    local_addr: SocketAddr,
    fleet: Arc<Fleet>,
    follow: Option<FollowHandle>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the follow thread, the acceptor, and the worker
    /// fleet; returns once the daemon is accepting connections.
    ///
    /// The state directory may be empty (the compiler has not saved
    /// yet): workers serve the empty epoch-0 set until the first save
    /// lands, then hot-swap.
    pub fn start(config: &ServeConfig) -> io::Result<ServerHandle> {
        kizzle_telemetry::set_enabled(true);
        let aggregator = Arc::new(SpanAggregator::default());
        // First-wins process-global slot: in a process that already
        // installed an exporter this server's span lines stay empty,
        // but the metrics registry is shared regardless.
        kizzle_telemetry::set_recorder(Box::new(SharedAggregator(Arc::clone(&aggregator))));

        let follower = Arc::new(ChainFollower::new(&config.chain_dir));
        // A damaged state file at startup is not fatal: serve the empty
        // set, keep polling, and surface the problem in STATUS notes.
        let _ = follower.poll();
        let follow = follower.follow(config.poll_interval);

        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;

        let workers = config.workers.max(1);
        let fleet = Arc::new(Fleet {
            follower,
            aggregator,
            drain: Drain::new(local_addr),
            workers,
            follow: if follow.woken_by_saves() {
                "wake"
            } else {
                "poll"
            },
        });
        let (conn_tx, conn_rx) = sync_channel::<TcpStream>(workers * 2);
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut worker_handles = Vec::with_capacity(workers);
        for id in 0..workers {
            let rx = Arc::clone(&conn_rx);
            let matcher = Matcher::over(Arc::clone(&fleet.follower));
            let fleet = Arc::clone(&fleet);
            let handle = std::thread::Builder::new()
                .name(format!("kizzle-worker-{id}"))
                .spawn(move || worker_loop(&rx, &matcher, &fleet))?;
            worker_handles.push(handle);
        }

        let acceptor_fleet = Arc::clone(&fleet);
        let acceptor = std::thread::Builder::new()
            .name("kizzle-accept".into())
            .spawn(move || accept_loop(&listener, &conn_tx, &acceptor_fleet.drain))?;

        Ok(ServerHandle {
            local_addr,
            fleet,
            follow: Some(follow),
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

impl ServerHandle {
    /// The address the daemon is actually listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared chain follower the workers scan with.
    #[must_use]
    pub fn follower(&self) -> &Arc<ChainFollower> {
        &self.fleet.follower
    }

    /// Request a graceful drain and join every thread. In-flight
    /// requests finish; queued connections are still served; new
    /// connections stop being accepted.
    pub fn shutdown(mut self) {
        self.fleet.drain.start();
        self.join_threads();
    }

    /// Block until the daemon drains — i.e. until a client sends
    /// [`OP_SHUTDOWN`]. This is the daemon binary's main loop.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(follow) = self.follow.take() {
            follow.shutdown();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.fleet.drain.start();
        self.join_threads();
    }
}

fn accept_loop(listener: &TcpListener, conn_tx: &SyncSender<TcpStream>, drain: &Drain) {
    // Blocks when all workers are busy and the queue is full — natural
    // admission backpressure. Send only fails once every worker has
    // exited, i.e. mid-drain.
    let hand_on = |stream: TcpStream| {
        counter("kizzle_serve_connections_total").incr();
        conn_tx.send(stream).is_ok()
    };
    // `accept` blocks until a client connects or a drain's loopback
    // connection wakes it.
    while !drain.started() {
        match listener.accept() {
            Ok((stream, _)) => {
                if !hand_on(stream) {
                    return;
                }
            }
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
    // Draining: the backlog (a client whose connect returned before the
    // drain began, and the wake connection) is still handed on, without
    // waiting for more.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((stream, _)) = listener.accept() {
            if !hand_on(stream) {
                return;
            }
        }
    }
    // Dropping conn_tx disconnects the channel; workers drain whatever
    // was already queued, then exit.
}

fn worker_loop(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    matcher: &Matcher<ChainFollower>,
    fleet: &Fleet,
) {
    loop {
        // Hold the lock only while waiting for a connection; serving
        // happens outside it so workers truly run in parallel.
        let next = {
            let rx = conn_rx.lock().expect("connection queue lock");
            rx.recv_timeout(READ_TIMEOUT)
        };
        match next {
            Ok(stream) => {
                let _ = serve_connection(stream, matcher, fleet);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if fleet.drain.started() {
                    // The acceptor is also draining; it drops the sender
                    // once it exits, which flips us to Disconnected. Keep
                    // looping so queued connections still get served.
                    continue;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    matcher: &Matcher<ChainFollower>,
    fleet: &Fleet,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut reader = BufReader::with_capacity(IO_BUF, stream.try_clone()?);
    let mut writer = BufWriter::with_capacity(IO_BUF, stream);
    let mut payload = Vec::new();
    // Resolved once per connection: a registry lookup takes a lock every
    // worker shares, and the handles are `&'static`.
    let scans = counter("kizzle_serve_scans_total");
    let scan_bytes = counter("kizzle_serve_scan_bytes_total");
    let detections = counter("kizzle_serve_detections_total");

    loop {
        // Flush accumulated replies before a read that may block: the
        // client is waiting on them to refill its pipeline window.
        if reader.buffer().is_empty() {
            writer.flush()?;
        }
        match read_frame(&mut reader, &mut payload)? {
            FrameRead::Closed => return writer.flush(),
            FrameRead::Idle => {
                if fleet.drain.started() {
                    // Drain: nothing in flight on this connection.
                    return writer.flush();
                }
                continue;
            }
            FrameRead::Frame => {}
        }
        let Some((&opcode, body)) = payload.split_first() else {
            write_error(&mut writer, "empty request frame")?;
            continue;
        };
        match opcode {
            OP_SCAN => {
                // A valid document is scanned in place; only a damaged one
                // pays `from_utf8_lossy`, which walks every byte one at a
                // time even when there is nothing to repair.
                let document = match std::str::from_utf8(body) {
                    Ok(valid) => Cow::Borrowed(valid),
                    Err(_) => String::from_utf8_lossy(body),
                };
                let verdict = matcher.scan_verdict(&document);
                scans.incr();
                scan_bytes.add(body.len() as u64);
                if verdict.index.is_some() {
                    detections.incr();
                }
                write_frame(&mut writer, &encode_scan_reply(&verdict))?;
            }
            OP_METRICS => {
                let mut text = kizzle_telemetry::render_prometheus();
                text.push_str(&fleet.aggregator.render_prometheus());
                let mut reply = Vec::with_capacity(1 + text.len());
                reply.push(ST_OK);
                reply.extend_from_slice(text.as_bytes());
                write_frame(&mut writer, &reply)?;
            }
            OP_STATUS => {
                let (epoch, set) = fleet.follower.current();
                let mut text = String::new();
                let _ = writeln!(text, "epoch={epoch}");
                let _ = writeln!(text, "signatures={}", set.len());
                let _ = writeln!(text, "workers={}", fleet.workers);
                let _ = writeln!(text, "follow={}", fleet.follow);
                match set.seal().gate_off() {
                    None => text.push_str("gate=on\n"),
                    Some(reason) => {
                        let _ = writeln!(text, "gate=off:{reason}");
                    }
                }
                let _ = writeln!(text, "draining={}", fleet.drain.started());
                for note in fleet.follower.notes() {
                    let _ = writeln!(text, "note={note}");
                }
                let mut reply = Vec::with_capacity(1 + text.len());
                reply.push(ST_OK);
                reply.extend_from_slice(text.as_bytes());
                write_frame(&mut writer, &reply)?;
            }
            OP_SHUTDOWN => {
                fleet.drain.start();
                write_frame(&mut writer, &[ST_OK])?;
                return writer.flush();
            }
            other => write_error(&mut writer, &format!("unknown opcode {other}"))?,
        }
    }
}

fn write_error(writer: &mut impl Write, message: &str) -> io::Result<()> {
    let mut reply = Vec::with_capacity(1 + message.len());
    reply.push(ST_ERROR);
    reply.extend_from_slice(message.as_bytes());
    write_frame(writer, &reply)
}

/// Resolve a `host:port` string to the first socket address, with an
/// error message naming the input. Shared by the client and binaries.
pub fn resolve(addr: &str) -> io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            format!("{addr} resolves to no address"),
        )
    })
}
