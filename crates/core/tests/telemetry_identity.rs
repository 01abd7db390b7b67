//! Telemetry must be a pure observer (ISSUE 8 acceptance): running the
//! fully-instrumented pipeline with the `kizzle-telemetry` gate **on**
//! produces byte-identical results to running it **off** — reports,
//! signatures, and warm engine state. The instrumented run here is the
//! hardest shape the service supports: multiple producer threads feeding
//! the bounded-channel frontend, so every span/counter site in
//! service.rs, pipeline.rs, engine.rs, distributed.rs and matcher.rs is
//! exercised while the comparison runs.
//!
//! This file is its own test binary on purpose: the telemetry gate is a
//! process-global, and integration tests compile separately, so flipping
//! it here cannot race with the rest of the suite. The two tests below
//! both flip it, so each holds [`GATE`] for its whole body (proptest
//! cases run sequentially), which keeps the on/off toggling
//! data-race-free.

use kizzle::prelude::*;
use kizzle_cluster::SampleId;
use kizzle_corpus::{GraywareStream, KitFamily, Sample, SimDate, StreamConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Serializes the tests of this binary around the process-global
/// telemetry gate and span collector.
static GATE: Mutex<()> = Mutex::new(());

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
/// runs — only the wall-clock/work-counter stats are stripped (they are
/// views over real timings and legitimately differ run to run).
fn normalized(mut report: DayReport) -> DayReport {
    report.clustering_stats = Default::default();
    report.pipeline = Default::default();
    report
}

/// One multi-producer pipelined run, returning the per-day normalized
/// reports. Identical driving logic for both the telemetry-off and
/// telemetry-on arms — only the global gate differs between them.
fn pipelined_run(
    service: &mut KizzleService,
    day_sizes: &[usize],
    batch_size: usize,
    producers: usize,
    seed: u64,
) -> Vec<DayReport> {
    let mut date = SimDate::new(2014, 8, 5);
    let mut reports = Vec::new();
    for (d, &size) in day_sizes.iter().enumerate() {
        let day = day_samples(date, size, seed.wrapping_add(d as u64));
        let mut session = service.begin_day(date).expect("day opens");
        let producer = session.pipeline_auto();
        let chunks: Vec<Arc<[Sample]>> = day.chunks(batch_size).map(Arc::from).collect();
        let turn = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for worker in 0..producers {
                let producer = producer.clone();
                let turn = Arc::clone(&turn);
                let chunks = &chunks;
                scope.spawn(move || {
                    for (i, chunk) in chunks.iter().enumerate() {
                        if i % producers != worker {
                            continue;
                        }
                        while turn.load(Ordering::Acquire) != i {
                            std::thread::yield_now();
                        }
                        assert!(producer.send(Arc::clone(chunk)));
                        turn.store(i + 1, Ordering::Release);
                    }
                });
            }
        });
        drop(producer);
        reports.push(normalized(session.seal()));
        date = date.next();
    }
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Telemetry-off and telemetry-on runs of the same day sequence are
    /// byte-identical, and the enabled run actually recorded: the day
    /// lifecycle counters advanced and the span buffer drained the seal
    /// phases — proof the comparison exercised the instrumented paths
    /// rather than a no-op build.
    #[test]
    fn telemetry_never_perturbs_byte_identity(
        day_sizes in prop::collection::vec(8usize..48, 2..4),
        batch_size in 1usize..16,
        producers in 2usize..4,
        seed in 0u64..1000,
    ) {
        let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // Arm 1: gate off (the default production posture).
        kizzle_telemetry::set_enabled(false);
        let mut plain = fast_service();
        let want = pipelined_run(&mut plain, &day_sizes, batch_size, producers, seed);

        // Arm 2: gate on, same inputs. Drain leftovers first so the span
        // assertions below see only this run's records.
        kizzle_telemetry::set_enabled(true);
        let _ = kizzle_telemetry::drain();
        let sealed_before = kizzle_telemetry::counter("kizzle_days_sealed_total").value();
        let mut traced = fast_service();
        let got = pipelined_run(&mut traced, &day_sizes, batch_size, producers, seed);
        let sealed_after = kizzle_telemetry::counter("kizzle_days_sealed_total").value();
        let records = kizzle_telemetry::drain();
        kizzle_telemetry::set_enabled(false);

        prop_assert_eq!(want, got);
        prop_assert_eq!(&*plain.signatures(), &*traced.signatures());
        prop_assert_eq!(plain.engine().len(), traced.engine().len());
        prop_assert_eq!(balls(&plain), balls(&traced));

        // The instrumented arm really recorded.
        prop_assert_eq!(sealed_after - sealed_before, day_sizes.len() as u64);
        let seal_spans = records.iter().filter(|r| r.name() == "day.seal").count();
        prop_assert_eq!(seal_spans, day_sizes.len());
        prop_assert!(records.iter().any(|r| r.name() == "day.cluster"));
        prop_assert!(records.iter().any(|r| r.name() == "day.publish"));
    }
}

/// A seal records its phases and `day.publish` is the last span it
/// records — what the ledger's clock alignment (`perf_ledger/days.rs`)
/// leans on.
#[test]
fn seal_records_its_spans_ending_in_publish() {
    let _gate = GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let date = SimDate::new(2014, 8, 5);
    let day = day_samples(date, 40, 9);
    let mut service = fast_service();
    let mut session = service.begin_day(date).expect("day opens");
    session.ingest(&day);
    kizzle_telemetry::set_enabled(true);
    let _ = kizzle_telemetry::drain();
    let report = session.seal();
    let records = kizzle_telemetry::drain();
    kizzle_telemetry::set_enabled(false);
    assert!(!report.new_signatures.is_empty(), "report: {report}");

    let spans: Vec<(&str, u64)> = records
        .iter()
        .filter_map(|r| match r {
            kizzle_telemetry::Record::Span {
                name,
                start_us,
                dur_us,
                ..
            } => Some((*name, start_us + dur_us)),
            kizzle_telemetry::Record::Event { .. } => None,
        })
        .collect();
    let &(last, publish_end) = spans.last().expect("the seal recorded spans");
    assert_eq!(last, "day.publish", "{spans:?}");
    assert!(
        spans.iter().all(|&(_, end)| end <= publish_end),
        "a span ends after day.publish: {spans:?}"
    );
    let names: Vec<&str> = spans.into_iter().map(|(name, _)| name).collect();
    assert!(names.contains(&"day.seal") && names.contains(&"day.cluster"));
}
