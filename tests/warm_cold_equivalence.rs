//! Warm/cold equivalence of the incremental corpus engine at pipeline
//! level: a 10-day simulated run through a service whose engine retains a
//! multi-day window must produce day reports identical to a service that
//! clusters every day fully cold (retention window 1 — the engine is
//! emptied before each day), modulo wall-clock timings.
//!
//! Consecutive days are built from a sliding window over a sample pool, so
//! most of each day's content carries over from the previous day — the
//! warm path's memoized neighborhoods are genuinely exercised, not just
//! trivially bypassed.

use kizzle::{DayReport, KizzleConfig, KizzleService, ReferenceCorpus};
use kizzle_cluster::DistributedStats;
use kizzle_corpus::{GraywareStream, KitFamily, Sample, SimDate, StreamConfig};

fn sample_pool() -> Vec<Sample> {
    let config = StreamConfig {
        samples_per_day: 40,
        malicious_fraction: 0.5,
        family_weights: vec![
            (KitFamily::Angler, 0.4),
            (KitFamily::Nuclear, 0.3),
            (KitFamily::SweetOrange, 0.3),
        ],
        seed: 17,
    };
    let stream = GraywareStream::new(config);
    let mut pool = Vec::new();
    for day in 5..8 {
        pool.extend(stream.generate_day(SimDate::new(2014, 8, day)));
    }
    pool
}

fn service(retention_days: usize) -> KizzleService {
    let mut config = KizzleConfig::fast();
    config.retention_days = retention_days;
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    KizzleService::new(config, reference).expect("valid config")
}

/// A day report with the wall-clock noise removed: everything that must be
/// byte-identical between the warm and cold paths.
fn normalized(report: &DayReport) -> DayReport {
    let mut report = report.clone();
    report.clustering_stats = DistributedStats::default();
    report
}

#[test]
fn ten_day_warm_run_matches_cold_day_by_day() {
    let pool = sample_pool();
    let day_len = 40usize;
    let slide = 8usize;
    assert!(pool.len() >= day_len + 9 * slide, "pool too small");

    let mut warm = service(3);
    let mut cold = service(1);

    let mut date = SimDate::new(2014, 8, 10);
    for day in 0..10 {
        let window = &pool[day * slide..day * slide + day_len];
        let warm_report = warm.process_day(date, window).expect("warm day");
        let cold_report = cold.process_day(date, window).expect("cold day");
        assert_eq!(
            normalized(&warm_report),
            normalized(&cold_report),
            "day {day} ({date}) diverged between warm and cold"
        );
        date = date.next();
    }

    // Both services went through identical labeling decisions, so the
    // cumulative signature sets agree too.
    assert_eq!(warm.signatures().len(), cold.signatures().len());
    assert!(!warm.signatures().is_empty(), "run produced no signatures");

    // The warm engine retained at least as much as the cold one (content
    // dedup can collapse samples with identical class-strings, so the live
    // count is bounded by *distinct* strings, not raw sample counts); the
    // cold one never kept more than the current day.
    assert!(warm.engine().len() >= cold.engine().len());
    assert!(!warm.engine().is_empty());
    assert!(cold.engine().len() <= day_len);
}

#[test]
fn warm_overlap_days_answer_from_the_cache() {
    let pool = sample_pool();
    let mut warm = service(3);
    let day1 = &pool[0..40];
    let r1 = warm
        .process_day(SimDate::new(2014, 8, 10), day1)
        .expect("day 1");
    assert!(r1.clustering_stats.index.queries > 0);
    // Day 2 carries over 80% of day 1: only the fresh fraction (plus any
    // content the tokenizer maps to new class-strings) pays query cost.
    let day2 = &pool[8..48];
    let r2 = warm
        .process_day(SimDate::new(2014, 8, 11), day2)
        .expect("day 2");
    assert!(
        r2.clustering_stats.index.cache_hits > 0,
        "no warm reuse on an 80%-overlap day: {:?}",
        r2.clustering_stats.index
    );
    assert!(
        r2.clustering_stats.index.queries < r1.clustering_stats.index.queries,
        "day 2 re-queried as much as the cold day 1: {:?} vs {:?}",
        r2.clustering_stats.index,
        r1.clustering_stats.index
    );
}
