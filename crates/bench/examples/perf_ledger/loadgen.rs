//! Load generation against the daemon: a closed loop (each connection
//! keeps a window of requests in flight) and an open loop (one thread
//! sends on a fixed schedule whatever the daemon does; latency is timed
//! from the moment a request was *due*).
//!
//! Threads: the closed loop runs one thread per connection. The open
//! loop runs one generator thread that paces and writes to both
//! connections, plus one reader per connection that does nothing but
//! block in `read`, so a completion is stamped when it arrives rather
//! than when a poll loop next looks. The readers exist because `std` has
//! no `poll(2)` and a socket read timeout has jiffy (1–4 ms) granularity:
//! a single thread could only find replies by waking every few tens of
//! microseconds, which costs the daemon CPU on this two-core box and
//! adds the poll interval to every latency. Never more than two
//! connections: the daemon serves one connection per worker.

use crate::surface::{self, Reply, Verdict};
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How one request ended. `reply` is `None` on an I/O error, `ST_ERROR`,
/// or a reply that never came.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub doc: u32,
    /// When the request was due (open loop) or written (closed loop), µs
    /// since the phase began.
    pub due_us: u64,
    pub done_us: u64,
    pub reply: Option<(Verdict, u64)>,
}

impl Completion {
    pub fn latency_us(&self) -> f64 {
        self.done_us.saturating_sub(self.due_us) as f64
    }
}

const READ_TIMEOUT: Duration = Duration::from_millis(100);

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

fn is_timeout(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Blocking read of one reply, riding out read timeouts until `give_up`.
fn read_one(
    reader: &mut BufReader<TcpStream>,
    scratch: &mut Vec<u8>,
    give_up: &dyn Fn() -> bool,
) -> Option<(Verdict, u64)> {
    loop {
        match surface::read_reply(reader, scratch) {
            Ok(Reply::Scan { verdict, epoch }) => return Some((verdict, epoch)),
            Ok(Reply::Failed) => return None,
            Err(err) if is_timeout(&err) && !give_up() => {}
            Err(_) => return None,
        }
    }
}

// --- closed loop --------------------------------------------------------------

/// `connections` × `window` requests in flight for `duration`; document
/// `k` of connection `c` is `frames[(c + k × connections) % len]`.
pub fn closed_loop(
    addr: &str,
    frames: &[Vec<u8>],
    connections: usize,
    window: usize,
    duration: Duration,
) -> Vec<Completion> {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    closed_connection(addr, frames, c, connections, window, started, duration)
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("closed-loop connection thread"))
            .collect()
    })
}

fn closed_connection(
    addr: &str,
    frames: &[Vec<u8>],
    offset: usize,
    stride: usize,
    window: usize,
    started: Instant,
    duration: Duration,
) -> Vec<Completion> {
    let now_us = || started.elapsed().as_micros() as u64;
    let mut done = Vec::new();
    let mut in_flight: VecDeque<(u32, u64)> = VecDeque::new();
    let mut next = offset;
    let fail_rest = |in_flight: &mut VecDeque<(u32, u64)>, done: &mut Vec<Completion>| {
        let now = now_us();
        done.extend(in_flight.drain(..).map(|(doc, due_us)| Completion {
            doc,
            due_us,
            done_us: now,
            reply: None,
        }));
    };
    let Ok(stream) = connect(addr) else {
        // One failed attempt, so a dead daemon shows up in the counts.
        in_flight.push_back(((offset % frames.len()) as u32, now_us()));
        fail_rest(&mut in_flight, &mut done);
        return done;
    };
    let mut reader = BufReader::with_capacity(64 * 1024, stream.try_clone().expect("clone socket"));
    let mut writer = std::io::BufWriter::with_capacity(64 * 1024, stream);
    let mut scratch = Vec::new();
    let deadline = duration + Duration::from_secs(2);
    loop {
        let sending = started.elapsed() < duration;
        while sending && in_flight.len() < window {
            let doc = next % frames.len();
            next += stride;
            if writer.write_all(&frames[doc]).is_err() {
                fail_rest(&mut in_flight, &mut done);
                return done;
            }
            in_flight.push_back((doc as u32, now_us()));
        }
        let Some((doc, due_us)) = in_flight.pop_front() else {
            return done;
        };
        if writer.flush().is_err() {
            in_flight.push_front((doc, due_us));
            fail_rest(&mut in_flight, &mut done);
            return done;
        }
        let reply = read_one(&mut reader, &mut scratch, &|| started.elapsed() > deadline);
        done.push(Completion {
            doc,
            due_us,
            done_us: now_us(),
            reply,
        });
        if reply.is_none() {
            // The stream's framing is gone; what was in flight is lost.
            fail_rest(&mut in_flight, &mut done);
            return done;
        }
    }
}

// --- open loop ----------------------------------------------------------------

/// What the pacer tells the generator thread to do next.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Request `seq` is due (it was due at `due_us`): send it now.
    Send { seq: u64, due_us: u64 },
    /// The next request is due but too much is already outstanding: drop
    /// it, so an overloaded daemon cannot grow the queue without bound.
    /// A rate at which anything is shed misses the SLO.
    Shed,
    /// Nothing is due before `until_us`.
    Wait { until_us: u64 },
    /// The schedule is exhausted.
    Done,
}

/// Fixed-rate schedule: request `k` is due at `k / rate` whatever
/// happened to the requests before it.
#[derive(Debug, Clone)]
pub struct Pacer {
    interval_us: f64,
    total: u64,
    next: u64,
    max_outstanding: u64,
}

impl Pacer {
    pub fn new(rate_per_s: f64, duration: Duration, max_outstanding: u64) -> Self {
        Pacer {
            interval_us: 1e6 / rate_per_s,
            total: (rate_per_s * duration.as_secs_f64()).floor() as u64,
            next: 0,
            max_outstanding,
        }
    }

    fn due_us(&self, seq: u64) -> u64 {
        (seq as f64 * self.interval_us) as u64
    }

    pub fn step(&mut self, now_us: u64, outstanding: u64) -> Pace {
        if self.next >= self.total {
            return Pace::Done;
        }
        let (seq, due_us) = (self.next, self.due_us(self.next));
        if due_us > now_us {
            return Pace::Wait { until_us: due_us };
        }
        self.next += 1;
        if outstanding >= self.max_outstanding {
            Pace::Shed
        } else {
            Pace::Send { seq, due_us }
        }
    }
}

/// What one open-loop run observed, from the generator's side.
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// The instant `due_us`/`done_us` count from.
    pub started: Instant,
    pub completions: Vec<Completion>,
    /// Per sent request: how long after its due time it was handed to
    /// the socket, µs.
    pub lateness_us: Vec<f64>,
    pub shed: u64,
    /// `(time µs, issued − completed)`, sampled at every send.
    pub backlog: Vec<(u64, u64)>,
}

/// Outstanding requests allowed before the generator sheds.
pub const MAX_OUTSTANDING: u64 = 4_096;

/// Run `rate_per_s` for `duration` over two connections (request `k` on
/// connection `k % 2`, document `k % frames.len()`), then wait up to
/// 2 s for the replies still in flight.
pub fn open_loop(
    addr: &str,
    frames: &[Vec<u8>],
    rate_per_s: f64,
    duration: Duration,
) -> OpenLoopRun {
    const CONNECTIONS: usize = 2;
    let started = Instant::now();
    let now_us = move || started.elapsed().as_micros() as u64;
    let completed = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut run = OpenLoopRun {
        started,
        completions: Vec::new(),
        lateness_us: Vec::new(),
        shed: 0,
        backlog: Vec::new(),
    };

    let mut streams = Vec::new();
    for _ in 0..CONNECTIONS {
        match connect(addr) {
            Ok(stream) => streams.push(stream),
            Err(_) => {
                run.completions.push(Completion {
                    doc: 0,
                    due_us: 0,
                    done_us: now_us(),
                    reply: None,
                });
                return run;
            }
        }
    }

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        let mut lanes = Vec::new();
        for stream in &streams {
            let (tx, rx) = mpsc::channel::<(u32, u64)>();
            lanes.push(tx);
            let read_half = stream.try_clone().expect("clone socket");
            let (completed, stop) = (&completed, &stop);
            readers.push(scope.spawn(move || {
                let mut reader = BufReader::with_capacity(64 * 1024, read_half);
                let mut scratch = Vec::new();
                let mut done = Vec::new();
                let mut broken = false;
                // The pending record is sent before the bytes, so a reply
                // always finds its record; `recv` ends when the generator
                // drops the lane.
                while let Ok((doc, due_us)) = rx.recv() {
                    let reply = if broken {
                        None
                    } else {
                        read_one(&mut reader, &mut scratch, &|| stop.load(Ordering::Acquire))
                    };
                    broken |= reply.is_none();
                    done.push(Completion {
                        doc,
                        due_us,
                        done_us: now_us(),
                        reply,
                    });
                    completed.fetch_add(1, Ordering::Release);
                }
                done
            }));
        }

        let mut pacer = Pacer::new(rate_per_s, duration, MAX_OUTSTANDING);
        let mut issued = 0u64;
        let mut dead = [false; CONNECTIONS];
        loop {
            let now = now_us();
            let outstanding = issued - completed.load(Ordering::Acquire);
            match pacer.step(now, outstanding) {
                Pace::Send { seq, due_us } => {
                    let lane = (seq % CONNECTIONS as u64) as usize;
                    let doc = (seq % frames.len() as u64) as usize;
                    run.backlog.push((now, outstanding));
                    run.lateness_us.push(now.saturating_sub(due_us) as f64);
                    issued += 1;
                    lanes[lane]
                        .send((doc as u32, due_us))
                        .expect("reader outlives the generator");
                    if !dead[lane] && (&streams[lane]).write_all(&frames[doc]).is_err() {
                        // The reader sees the same failure and fails the
                        // rest of this lane's requests.
                        dead[lane] = true;
                    }
                }
                Pace::Shed => run.shed += 1,
                // Sleep, never spin: on two vCPUs a spinning generator
                // starves the daemon (tried: p99 went from ~1 ms to
                // 50–200 ms). The timer slack this costs (~60–100 µs) is
                // reported as generator lateness.
                Pace::Wait { until_us } => {
                    std::thread::sleep(Duration::from_micros(until_us - now));
                }
                Pace::Done => break,
            }
        }
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        while completed.load(Ordering::Acquire) < issued && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        drop(lanes);
        for reader in readers {
            run.completions
                .extend(reader.join().expect("open-loop reader thread"));
        }
    });
    run.completions.sort_by_key(|c| c.due_us);
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake slow socket in virtual time: one server that takes
    /// `service_us` per request, stalls completely during `stall`, and a
    /// write that blocks the generator for `write_us`.
    struct FakeSocket {
        service_us: u64,
        write_us: u64,
        stall: Option<(u64, u64)>,
        free_at: u64,
    }

    impl FakeSocket {
        /// Returns when the request written at `now` completes.
        fn submit(&mut self, now: u64) -> u64 {
            let mut start = now.max(self.free_at);
            if let Some((from, to)) = self.stall {
                if start >= from && start < to {
                    start = to;
                }
            }
            self.free_at = start + self.service_us;
            self.free_at
        }
    }

    struct Sim {
        latencies: Vec<u64>,
        lateness: Vec<u64>,
        backlog: Vec<(u64, u64)>,
        shed: u64,
    }

    /// Drive the pacer exactly as `open_loop` does, against the fake.
    fn simulate(rate: f64, secs: u64, socket: &mut FakeSocket, max_outstanding: u64) -> Sim {
        let mut pacer = Pacer::new(rate, Duration::from_secs(secs), max_outstanding);
        let mut sim = Sim {
            latencies: vec![],
            lateness: vec![],
            backlog: vec![],
            shed: 0,
        };
        let mut done_at: Vec<u64> = Vec::new();
        let mut now = 0u64;
        loop {
            let outstanding = done_at.iter().filter(|&&d| d > now).count() as u64;
            match pacer.step(now, outstanding) {
                Pace::Send { due_us, .. } => {
                    sim.backlog.push((now, outstanding));
                    sim.lateness.push(now - due_us);
                    now += socket.write_us;
                    let done = socket.submit(now);
                    done_at.push(done);
                    sim.latencies.push(done - due_us);
                }
                Pace::Shed => sim.shed += 1,
                Pace::Wait { until_us } => now = until_us,
                Pace::Done => return sim,
            }
        }
    }

    #[test]
    fn below_capacity_latency_is_service_time_and_nothing_queues() {
        let mut socket = FakeSocket {
            service_us: 100,
            write_us: 0,
            stall: None,
            free_at: 0,
        };
        let sim = simulate(4_500.0, 2, &mut socket, 4_096);
        assert_eq!(sim.latencies.len(), 9_000);
        assert!(sim.latencies.iter().all(|&l| l == 100));
        assert!(sim.lateness.iter().all(|&l| l == 0));
        assert!(sim.backlog.iter().all(|&(_, b)| b <= 1));
        assert_eq!(sim.shed, 0);
    }

    #[test]
    fn above_capacity_backlog_and_latency_grow_from_the_due_time() {
        // 10k/s offered to a server that can do 5k/s.
        let mut socket = FakeSocket {
            service_us: 200,
            write_us: 0,
            stall: None,
            free_at: 0,
        };
        let sim = simulate(10_000.0, 1, &mut socket, 1 << 20);
        let (first, last) = (sim.latencies[10], *sim.latencies.last().expect("some"));
        assert!(last > 400_000, "queueing delay is charged: {last}");
        assert!(last > 100 * first);
        let early = sim.backlog[sim.backlog.len() / 10].1;
        let late = sim.backlog.last().expect("some").1;
        assert!(
            late > 4_000 && late > 5 * early,
            "backlog grows: {early} → {late}"
        );
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        // The server freezes for 100 ms; a generator that measured from
        // the send time of a blocked writer would hide most of this.
        let mut socket = FakeSocket {
            service_us: 50,
            write_us: 0,
            stall: Some((500_000, 600_000)),
            free_at: 0,
        };
        let sim = simulate(1_000.0, 1, &mut socket, 4_096);
        let slow = sim.latencies.iter().filter(|&&l| l > 10_000).count();
        assert!(
            (90..=120).contains(&slow),
            "≈100 requests were due in the stall: {slow}"
        );
        assert!(*sim.latencies.iter().max().expect("some") >= 100_000);
    }

    #[test]
    fn a_blocking_write_shows_up_as_generator_lateness_not_lost_latency() {
        // Each write blocks 300 µs but requests are due every 200 µs: the
        // generator falls behind; lateness and latency both say so.
        let mut socket = FakeSocket {
            service_us: 10,
            write_us: 300,
            stall: None,
            free_at: 0,
        };
        let sim = simulate(5_000.0, 1, &mut socket, 1 << 20);
        let last_late = *sim.lateness.last().expect("some");
        assert!(last_late > 400_000, "generator ran late: {last_late}");
        assert!(*sim.latencies.last().expect("some") >= last_late + 300);
    }

    #[test]
    fn sheds_instead_of_queueing_without_bound() {
        let mut socket = FakeSocket {
            service_us: 1_000,
            write_us: 0,
            stall: None,
            free_at: 0,
        };
        let sim = simulate(10_000.0, 1, &mut socket, 64);
        assert!(
            sim.shed > 8_000,
            "most of the overload is shed: {}",
            sim.shed
        );
        assert!(sim.backlog.iter().all(|&(_, b)| b <= 64));
        assert_eq!(sim.shed as usize + sim.latencies.len(), 10_000);
    }

    #[test]
    fn schedule_does_not_drift() {
        let mut pacer = Pacer::new(3_000.0, Duration::from_secs(10), 10);
        let mut last = 0;
        while let Pace::Send { due_us, .. } = pacer.step(u64::MAX, 0) {
            last = due_us;
        }
        assert_eq!(pacer.next, 30_000);
        assert!((9_999_000..10_000_000).contains(&last), "{last}");
    }
}
