//! The two contracts of the service façade (ISSUE 5 acceptance):
//!
//! 1. **Streaming == single-shot.** A [`DaySession`] fed the day in
//!    arbitrary mini-batches — each entering by an arbitrary [`Batch`]
//!    route: borrowed, owned or `Arc`-shared — seals
//!    to a [`DayReport`] byte-identical (modulo wall-clock/work-counter
//!    stats) to the one-batch [`KizzleService::process_day`] over the
//!    same sample sequence, with identical resulting signatures,
//!    reference corpus evolution and warm engine state — across multiple
//!    consecutive days.
//!    The channel worker lexes whatever is queued as one group across the
//!    cores; deep queues of mixed-route batches, a seal cutting a drain
//!    short and a session dropped mid-group are held to the same contract
//!    (CI runs this file a second time under `KIZZLE_RAYON_THREADS=1`,
//!    pinning pooled ≡ sequential lexing).
//! 2. **Publication is atomic.** [`Matcher`] clones scanning from other
//!    threads while a seal is in flight observe either the previous
//!    published set or the new one — a complete, self-consistent set
//!    either way, never a torn mixture — and all of them observe the new
//!    set once the publish lands.

use kizzle::prelude::*;
use kizzle_cluster::SampleId;
use kizzle_corpus::{variation_prefix, GraywareStream, KitFamily, Sample, SimDate, StreamConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn fast_service() -> KizzleService {
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    KizzleService::new(config, reference).expect("fast config is valid")
}

fn day_samples(date: SimDate, samples_per_day: usize, seed: u64) -> Vec<Sample> {
    let config = StreamConfig {
        samples_per_day,
        malicious_fraction: 0.5,
        family_weights: vec![
            (KitFamily::Angler, 0.4),
            (KitFamily::Nuclear, 0.3),
            (KitFamily::SweetOrange, 0.3),
        ],
        seed,
    };
    GraywareStream::new(config).generate_day(date)
}

/// `samples`, sample `i` behind variation prefix `first + i`: every class
/// string differs, so nothing dedups and the warm store's size counts the
/// samples applied.
fn distinct_content(mut samples: Vec<Sample>, first: u64) -> Vec<Sample> {
    for (code, sample) in (first..).zip(&mut samples) {
        sample.html.insert_str(0, &variation_prefix(code));
    }
    samples
}

/// `chunk` as a [`Batch`], by the route `route` selects: copied from the
/// borrowed slice, moved as a `Vec`, or shared as an `Arc<[Sample]>`.
fn routed(route: u8, chunk: &[Sample]) -> Batch {
    match route % 3 {
        0 => chunk.into(),
        1 => chunk.to_vec().into(),
        _ => Arc::<[Sample]>::from(chunk).into(),
    }
}

/// Every live sample's id and memoized eps-ball, in id order.
fn balls(service: &KizzleService) -> Vec<(SampleId, Vec<SampleId>)> {
    let engine = service.engine();
    engine
        .store()
        .live_ids()
        .into_iter()
        .map(|id| (id, engine.index().neighbors(id)))
        .collect()
}

/// Everything in a report that must be byte-identical between the two
/// ingest shapes — only the wall-clock/work-counter stats are stripped.
fn normalized(mut report: DayReport) -> DayReport {
    report.clustering_stats = Default::default();
    report.pipeline = Default::default();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mini-batched sessions over several consecutive days — every batch
    /// entering by its own drawn route, all routes mixed within one day —
    /// match the one-batch day byte-for-byte: reports, signatures, and
    /// warm engine state.
    #[test]
    fn mini_batch_ingest_equals_single_shot(
        day_sizes in prop::collection::vec(8usize..56, 1..4),
        batch_size in 1usize..24,
        routes in prop::collection::vec(0u8..3, 1..8),
        seed in 0u64..1000,
    ) {
        let mut single = fast_service();
        let mut batched = fast_service();
        let mut date = SimDate::new(2014, 8, 5);
        for (d, &size) in day_sizes.iter().enumerate() {
            let day = day_samples(date, size, seed.wrapping_add(d as u64));

            let want = single.process_day(date, &day).expect("single-shot day");

            let mut session = batched.begin_day(date).expect("day opens");
            for (i, chunk) in day.chunks(batch_size).enumerate() {
                session.ingest(routed(routes[i % routes.len()], chunk));
            }
            prop_assert_eq!(session.ingested(), day.len());
            let got = session.seal();

            prop_assert_eq!(normalized(want), normalized(got), "day {}", d);
            prop_assert_eq!(&*single.signatures(), &*batched.signatures());
            prop_assert_eq!(single.engine().len(), batched.engine().len());
            prop_assert_eq!(balls(&single), balls(&batched));
            date = date.next();
        }
    }

    /// The pipelined frontend with **multiple producer threads** is still
    /// byte-identical to the one-batch day, whichever route each batch
    /// takes through the channel. Producers hand off mini-batches through
    /// the bounded channel in a rendezvous order (the day's sample
    /// sequence is defined by channel FIFO order, so the test serializes
    /// *sends* while still exercising cross-thread submission), and each
    /// day's seal flushes the channel before it clusters.
    #[test]
    fn pipelined_multi_producer_equals_single_shot(
        day_sizes in prop::collection::vec(8usize..48, 2..4),
        batch_size in 1usize..16,
        routes in prop::collection::vec(0u8..3, 1..8),
        producers in 2usize..4,
        seed in 0u64..1000,
    ) {
        let mut single = fast_service();
        let mut piped = fast_service();
        let mut date = SimDate::new(2014, 8, 5);

        for (d, &size) in day_sizes.iter().enumerate() {
            let day = day_samples(date, size, seed.wrapping_add(d as u64));
            let want = single.process_day(date, &day).expect("single-shot day");

            let mut session = piped.begin_day(date).expect("day opens");
            let producer = session.pipeline_auto();
            let chunks: Vec<&[Sample]> = day.chunks(batch_size).collect();
            let turn = Arc::new(std::sync::atomic::AtomicUsize::new(0));
            std::thread::scope(|scope| {
                for worker in 0..producers {
                    let producer = producer.clone();
                    let turn = Arc::clone(&turn);
                    let (chunks, routes) = (&chunks, &routes);
                    scope.spawn(move || {
                        for (i, chunk) in chunks.iter().enumerate() {
                            if i % producers != worker {
                                continue;
                            }
                            while turn.load(Ordering::Acquire) != i {
                                std::thread::yield_now();
                            }
                            let route = routes[i % routes.len()];
                            assert!(producer.send(routed(route, chunk)));
                            turn.store(i + 1, Ordering::Release);
                        }
                    });
                }
            });
            drop(producer);
            let got = session.seal();
            prop_assert_eq!(normalized(want), normalized(got), "day {}", d);
            date = date.next();
        }

        prop_assert_eq!(&*single.signatures(), &*piped.signatures());
        prop_assert_eq!(single.engine().len(), piped.engine().len());
        prop_assert_eq!(balls(&single), balls(&piped));
    }

    /// Groups really form, and still equal single-shot: the day's head
    /// goes in as one batch large enough for the pooled lexer, and while
    /// the worker is busy with it the tail queues up behind — small
    /// batches, interleaved by drawn route — followed at once by the seal's
    /// cutoff. The worker drains the tail as groups of mixed batches and
    /// meets the cutoff mid-drain.
    #[test]
    fn grouped_ingest_behind_a_deep_queue_equals_single_shot(
        head in 64usize..96,
        tail in 16usize..48,
        batch_size in 1usize..6,
        routes in prop::collection::vec(0u8..3, 1..8),
        seed in 0u64..1000,
    ) {
        let mut single = fast_service();
        let mut piped = fast_service();
        let mut date = SimDate::new(2014, 8, 5);
        for d in 0..2u64 {
            let day = day_samples(date, head + tail, seed.wrapping_add(d));
            let want = single.process_day(date, &day).expect("single-shot day");

            let mut session = piped.begin_day(date).expect("day opens");
            let producer = session.pipeline_auto();
            prop_assert!(producer.send(&day[..head]));
            for (i, chunk) in day[head..].chunks(batch_size).enumerate() {
                prop_assert!(producer.send(routed(routes[i % routes.len()], chunk)));
            }
            let got = session.seal();

            prop_assert_eq!(got.pipeline.applied_batches, got.pipeline.submitted_batches);
            prop_assert_eq!(normalized(want), normalized(got), "day {}", d);
            prop_assert_eq!(&*single.signatures(), &*piped.signatures());
            prop_assert_eq!(single.engine().len(), piped.engine().len());
            date = date.next();
        }
    }
}

/// The deep queue the property above relies on is real: while the worker
/// lexes a 300-page head, 60 two-page batches pile up behind it.
#[test]
fn small_batches_queue_up_behind_a_busy_worker() {
    let date = SimDate::new(2014, 8, 5);
    let day = day_samples(date, 420, 17);
    let mut service = fast_service();
    let mut session = service.begin_day(date).expect("day opens");
    let producer = session.pipeline_auto();
    assert!(producer.send(&day[..300]));
    for chunk in day[300..].chunks(2) {
        assert!(producer.send(chunk));
    }
    let report = session.seal();
    assert_eq!(report.samples, day.len());
    assert!(
        report.pipeline.max_queue_depth >= 4,
        "the tail never queued: depth {}",
        report.pipeline.max_queue_depth
    );
}

/// A seal's cutoff met in the middle of a drain applies everything queued
/// before it and nothing after: with a second producer still sending
/// while the seal runs, the sealed day is the pre-seal batches plus a
/// FIFO prefix of the late ones, and nothing reaches the store afterwards.
#[test]
fn cutoff_met_mid_drain_applies_what_was_queued_before_it_and_nothing_after() {
    const LATE_BATCH: usize = 3;
    let date = SimDate::new(2014, 8, 5);
    let day = distinct_content(day_samples(date, 160, 23), 0);
    let late = distinct_content(day_samples(date, 90, 24), day.len() as u64);
    let mut service = fast_service();
    let mut session = service.begin_day(date).expect("day opens");
    let producer = session.pipeline_auto();
    // The head keeps the worker busy; the tail queues behind it.
    assert!(producer.send(&day[..100]));
    let early_batches = 1 + day[100..].chunks(4).len() as u64;
    for chunk in day[100..].chunks(4) {
        assert!(producer.send(chunk));
    }
    let sealing = Arc::new(AtomicBool::new(false));
    let (report, late_accepted) = std::thread::scope(|scope| {
        let late_producer = {
            let (producer, sealing, late) = (producer.clone(), Arc::clone(&sealing), &late);
            scope.spawn(move || {
                while !sealing.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                late.chunks(LATE_BATCH)
                    .take_while(|chunk| producer.send(*chunk))
                    .count() as u64
            })
        };
        sealing.store(true, Ordering::Release);
        let report = session.seal();
        (
            report,
            late_producer.join().expect("late producer finishes"),
        )
    });
    let late_applied = report.pipeline.applied_batches - early_batches;
    assert!(
        late_applied <= late_accepted,
        "{late_applied} of {late_accepted}"
    );
    assert_eq!(
        report.samples,
        day.len() + LATE_BATCH * late_applied as usize
    );
    // Every class string is distinct, so the store counts applied samples:
    // nothing landed after the cutoff, and the session refuses more.
    assert_eq!(service.engine().len(), report.samples);
    assert!(!producer.send(&late[..LATE_BATCH]));
    assert_eq!(service.engine().len(), report.samples);
}

/// A session dropped while a group is in flight stops at a batch
/// boundary — only whole batches are in the store — and the producer
/// still sending unblocks.
#[test]
fn session_dropped_mid_group_leaves_whole_batches_and_unblocks_producers() {
    const BATCH: usize = 7;
    let date = SimDate::new(2014, 8, 5);
    let day = distinct_content(day_samples(date, BATCH * 60, 29), 0);
    let mut service = fast_service();
    let accepted = {
        let mut session = service.begin_day(date).expect("day opens");
        let producer = session.pipeline_auto();
        let flooder = {
            let day = day.clone();
            std::thread::spawn(move || {
                day.chunks(BATCH)
                    .filter(|chunk| producer.send(*chunk))
                    .count()
            })
        };
        // Abandon the day once a group has started landing.
        while session.ingested() == 0 {
            std::thread::yield_now();
        }
        drop(session);
        flooder.join().expect("producer thread finishes")
    };
    // Every class string is distinct, so the store counts applied samples.
    let applied = service.engine().len();
    assert!(applied > 0);
    assert_eq!(applied % BATCH, 0, "a batch was torn: {applied} samples");
    assert!(applied <= accepted * BATCH);
    // Nothing was published, and the day is still sealable from scratch.
    assert!(service.signatures().is_empty());
    let report = service.process_day(date, day).expect("day re-runs");
    assert_eq!(report.samples, BATCH * 60);
}

/// Scanner threads hammer matcher clones while the main thread seals a
/// day. Every observed signature set must be one of the published epochs
/// — empty (epoch 0) or the full post-seal set — never a partially
/// visible mixture; after the seal, every handle converges to the new
/// epoch.
#[test]
fn matcher_clones_never_observe_a_torn_set_during_seal() {
    let mut service = fast_service();
    let date = SimDate::new(2014, 8, 5);
    let day = day_samples(date, 48, 4);

    // The documents the scanners probe with: one that the sealed set will
    // detect (a malicious sample of the day) and one benign-ish probe.
    let malicious = day
        .iter()
        .find(|s| s.truth.is_malicious())
        .expect("malicious sample in a 50% day")
        .html
        .clone();

    let matcher = service.matcher();
    let stop = Arc::new(AtomicBool::new(false));
    let seal_done = Arc::new(AtomicBool::new(false));

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let matcher = matcher.clone();
            let stop = Arc::clone(&stop);
            let seal_done = Arc::clone(&seal_done);
            let probe = malicious.clone();
            std::thread::spawn(move || {
                let mut saw_after_publish = false;
                while !stop.load(Ordering::Relaxed) {
                    // A snapshot must be internally consistent: its length
                    // is stable across the two reads below because the Arc
                    // pins one immutable set.
                    let set = matcher.signatures();
                    let len_a = set.len();
                    let hit = set.scan_document_index(&probe, usize::MAX).is_some();
                    let len_b = set.len();
                    assert_eq!(len_a, len_b, "set mutated under a reader");
                    // Before any publish the set is empty and cannot hit;
                    // a hit implies the full sealed set (epoch >= 1).
                    if hit {
                        assert!(len_a > 0);
                        assert!(matcher.epoch() >= 1);
                    }
                    if seal_done.load(Ordering::Acquire) && matcher.epoch() >= 1 {
                        saw_after_publish = true;
                    }
                }
                // One final look after the loop: on an oversubscribed box a
                // thread can be descheduled for the whole seal→stop window
                // and still converge here — the property is "eventually
                // observes the publish", not "within 50ms".
                saw_after_publish || matcher.epoch() >= 1
            })
        })
        .collect();

    // Seal while the scanners run.
    let report = service.process_day(date, &day).expect("day seals");
    assert!(
        !report.new_signatures.is_empty(),
        "day produced no signatures; report: {report}"
    );
    seal_done.store(true, Ordering::Release);
    // Give every scanner a chance to observe the published epoch.
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);

    for handle in handles {
        let converged = handle.join().expect("scanner thread panicked");
        assert!(converged, "a scanner never observed the published set");
    }

    // And the pre-seal handle itself converged to the sealed signatures.
    assert_eq!(matcher.epoch(), 1);
    assert_eq!(matcher.signatures().len(), service.signatures().len());
    let detected = day
        .iter()
        .filter(|s| matcher.scan(&s.html).is_some())
        .count();
    assert!(detected > 0);
}

/// Two days sealed back to back: every publication bumps the epoch and
/// handles observe the *cumulative* set (signatures only accumulate).
#[test]
fn consecutive_seals_publish_monotonically() {
    let mut service = fast_service();
    let matcher = service.matcher();
    let d1 = SimDate::new(2014, 8, 5);
    let d2 = SimDate::new(2014, 8, 20);
    service
        .process_day(d1, day_samples(d1, 48, 6))
        .expect("day 1");
    let after_day1 = matcher.signatures().len();
    assert_eq!(matcher.epoch(), 1);
    service
        .process_day(d2, day_samples(d2, 48, 7))
        .expect("day 2");
    assert_eq!(matcher.epoch(), 2);
    assert!(matcher.signatures().len() >= after_day1);
}
