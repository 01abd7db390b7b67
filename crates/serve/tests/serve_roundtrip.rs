//! End-to-end: a `kizzle-serve` daemon over a published chain answers
//! byte-identical verdicts to the in-process matcher, exposes metrics
//! and status over the same socket, and drains gracefully on request.

use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, SimDate, StreamConfig};
use kizzle_serve::protocol::{
    decode_scan_reply, read_frame, write_request, FrameRead, OP_SCAN, ST_OK,
};
use kizzle_serve::{ScanClient, ServeConfig, Server};
use std::path::PathBuf;

fn chain_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kizzle-serve-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn test_service() -> KizzleService {
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    KizzleService::new(config, reference).expect("fast config is valid")
}

#[test]
fn served_verdicts_match_the_in_process_matcher_byte_for_byte() {
    let dir = chain_dir("roundtrip");
    let mut service = test_service();
    let date = SimDate::new(2014, 8, 5);
    let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
    service.process_day(date, &day).expect("day processes");
    service.save(&dir).expect("state saved");

    let mut config = ServeConfig::new(&dir);
    config.workers = 2;
    let server = Server::start(&config).expect("server starts");
    let addr = server.addr().to_string();

    let local = service.matcher();
    let mut client = ScanClient::connect(&addr).expect("client connects");

    // One-at-a-time and pipelined paths agree with the local matcher on
    // the full verdict: index, family, and epoch (both sides have seen
    // exactly one publication).
    let documents: Vec<&str> = day.iter().map(|sample| sample.html.as_str()).collect();
    let piped = client
        .scan_batch(documents.iter().copied(), 16)
        .expect("pipelined scans");
    assert_eq!(piped.len(), documents.len(), "no dropped scans");
    let mut detections = 0;
    for (document, wire) in documents.iter().zip(&piped) {
        let expected = local.scan_verdict(document);
        assert_eq!(*wire, expected);
        assert_eq!(
            client.scan(document).expect("single scan"),
            expected,
            "single-shot path agrees"
        );
        if expected.index.is_some() {
            detections += 1;
        }
    }
    assert!(detections > 0, "the mix must exercise real detections");

    // Bytes that are not UTF-8 (`ScanClient` cannot send them) are scanned
    // as their lossy repair: every page with a stray byte in front of it
    // and another in its middle gets the in-process verdict of the repair.
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connection");
    let mut reply = Vec::new();
    for document in &documents {
        let mut damaged = vec![0xFF];
        damaged.extend_from_slice(document.as_bytes());
        damaged.insert(damaged.len() / 2, 0xC0);
        write_request(&mut raw, OP_SCAN, &damaged).expect("request written");
        let mut reader = std::io::BufReader::new(&raw);
        assert!(matches!(
            read_frame(&mut reader, &mut reply).expect("reply read"),
            FrameRead::Frame
        ));
        assert_eq!(reply[0], ST_OK);
        assert_eq!(
            decode_scan_reply(&reply[1..]).expect("scan reply"),
            local.scan_verdict(&String::from_utf8_lossy(&damaged))
        );
    }
    drop(raw);

    let status = client.status().expect("status");
    assert!(
        status.contains("epoch=1"),
        "status reports the epoch: {status}"
    );
    assert!(
        status.contains("workers=2"),
        "status reports the fleet: {status}"
    );
    let gate = match local.signatures().seal().gate_off() {
        None => "gate=on".to_string(),
        Some(reason) => format!("gate=off:{reason}"),
    };
    assert!(
        status.lines().any(|line| line == gate),
        "status reports the anchor gate as {gate}: {status}"
    );

    let metrics = client.metrics().expect("metrics");
    assert!(
        metrics.contains("kizzle_serve_scans_total"),
        "scan counter exported: {metrics}"
    );
    assert!(
        metrics.contains("kizzle_signatures_live"),
        "follower gauge exported: {metrics}"
    );

    // Graceful drain over the wire: the daemon acks, finishes, joins.
    client.shutdown().expect("shutdown acked");
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_server_over_an_empty_chain_serves_epoch_zero_until_the_first_save() {
    let dir = chain_dir("cold");
    let config = ServeConfig {
        workers: 1,
        poll_interval: std::time::Duration::from_millis(5),
        ..ServeConfig::new(&dir)
    };
    let server = Server::start(&config).expect("server starts on an empty dir");
    let addr = server.addr().to_string();
    let mut client = ScanClient::connect(&addr).expect("client connects");

    let verdict = client.scan("var x = 1;").expect("scan on the empty set");
    assert_eq!(verdict.epoch, 0);
    assert_eq!(verdict.index, None);
    // The empty set has no unanchored signature: every document is a
    // proven miss.
    let status = client.status().expect("status");
    assert!(
        status.lines().any(|line| line == "gate=on"),
        "status: {status}"
    );

    // First save lands mid-flight; the follow thread hot-swaps it in.
    let mut service = test_service();
    let date = SimDate::new(2014, 8, 5);
    let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
    service.process_day(date, &day).expect("day processes");
    service.save(&dir).expect("state saved");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let verdict = client.scan(&day[0].html).expect("scan");
        if verdict.epoch >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server never observed the save"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A server with one worker, held by an idle connection, and a second
/// connection queued behind it with a scan request written: what a drain
/// must still serve. Returns the server, the held connection, and the
/// queued one.
fn held_and_queued(
    bind: &str,
    name: &str,
) -> (kizzle_serve::ServerHandle, ScanClient, std::net::TcpStream) {
    let config = ServeConfig {
        addr: bind.to_string(),
        workers: 1,
        ..ServeConfig::new(chain_dir(name))
    };
    let server = Server::start(&config).expect("server starts");
    let loopback = std::net::SocketAddr::new([127, 0, 0, 1].into(), server.addr().port());
    let mut held = ScanClient::connect(&loopback.to_string()).expect("client connects");
    // A reply means the only worker now serves this connection.
    let status = held.status().expect("status");
    assert!(status.contains("follow=wake"), "status: {status}");
    let mut queued = std::net::TcpStream::connect(loopback).expect("queued connection");
    queued
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    write_request(&mut queued, OP_SCAN, b"var x = 1;").expect("request written");
    (server, held, queued)
}

/// Run `drain` on a thread of its own and fail, rather than hang, if it
/// has not returned after 2 s.
fn returns_within_2s(bind: &str, drain: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drain();
        let _ = done.send(());
    });
    assert!(
        finished
            .recv_timeout(std::time::Duration::from_secs(2))
            .is_ok(),
        "{bind}: the drain did not return within 2 s"
    );
}

fn assert_served(queued: std::net::TcpStream) {
    let mut reader = std::io::BufReader::new(queued);
    let mut reply = Vec::new();
    assert!(matches!(
        read_frame(&mut reader, &mut reply).expect("reply read"),
        FrameRead::Frame
    ));
    assert_eq!(reply[0], ST_OK);
    let verdict = decode_scan_reply(&reply[1..]).expect("scan reply");
    assert_eq!(verdict.index, None);
}

#[test]
fn shutdown_wakes_the_blocking_acceptor_and_serves_queued_connections() {
    for (bind, name) in [("127.0.0.1:0", "drain-v4"), ("0.0.0.0:0", "drain-any")] {
        let (server, held, queued) = held_and_queued(bind, name);
        returns_within_2s(bind, move || server.shutdown());
        assert_served(queued);
        drop(held);
        std::fs::remove_dir_all(chain_dir(name)).ok();
    }
}

#[test]
fn a_client_shutdown_wakes_the_blocking_acceptor_and_serves_queued_connections() {
    for (bind, name) in [
        ("127.0.0.1:0", "op-drain-v4"),
        ("0.0.0.0:0", "op-drain-any"),
    ] {
        let (server, held, queued) = held_and_queued(bind, name);
        held.shutdown().expect("shutdown acked");
        returns_within_2s(bind, move || server.join());
        assert_served(queued);
        std::fs::remove_dir_all(chain_dir(name)).ok();
    }
}

#[test]
fn a_chain_dir_too_long_for_a_wake_socket_falls_back_to_polling_and_says_so() {
    // 120 bytes: the wake socket's path would not fit a socket address.
    let mut dir = chain_dir("long-")
        .into_os_string()
        .into_string()
        .expect("utf-8 path");
    while dir.len() < 120 {
        dir.push('x');
    }
    let dir = PathBuf::from(dir);
    let config = ServeConfig {
        workers: 1,
        poll_interval: std::time::Duration::from_millis(5),
        ..ServeConfig::new(&dir)
    };
    let server = Server::start(&config).expect("server starts");
    let mut client = ScanClient::connect(&server.addr().to_string()).expect("client connects");
    let status = client.status().expect("status");
    assert!(status.contains("follow=poll"), "status: {status}");
    assert!(status.contains("note=no wake socket"), "status: {status}");

    let mut service = test_service();
    let date = SimDate::new(2014, 8, 5);
    let day = GraywareStream::new(StreamConfig::small(7)).generate_day(date);
    service.process_day(date, &day).expect("day processes");
    service.save(&dir).expect("state saved");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while client.scan(&day[0].html).expect("scan").epoch == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the poll never saw the save"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
