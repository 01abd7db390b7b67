//! The month-long evaluation: Kizzle vs. the baseline AV over August 2014.

use crate::metrics::{DailyMetrics, DetectorCounts, FamilyCounts};
use kizzle::prelude::*;
use kizzle_avsim::{AvConfig, AvEngine};
use kizzle_corpus::{GraywareStream, GroundTruth, KitFamily, Sample, SimDate, StreamConfig};
use serde::Serialize;
use std::sync::Arc;

/// Configuration of an evaluation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Grayware stream configuration (scale, mixture, seed).
    pub stream: StreamConfig,
    /// Kizzle pipeline configuration.
    pub kizzle: KizzleConfig,
    /// Baseline AV configuration.
    pub av: AvConfig,
    /// First day of the window.
    pub start: SimDate,
    /// Last day of the window (inclusive).
    pub end: SimDate,
}

impl EvalConfig {
    /// The paper-shaped evaluation: the full month of August 2014 at the
    /// default (scaled-down) stream size.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        EvalConfig {
            stream: StreamConfig {
                seed,
                ..StreamConfig::default()
            },
            kizzle: KizzleConfig::paper(),
            av: AvConfig::default(),
            start: SimDate::evaluation_start(),
            end: SimDate::evaluation_end(),
        }
    }

    /// A small configuration for unit tests and smoke runs: fewer samples
    /// per day and a one-week window.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        EvalConfig {
            stream: StreamConfig {
                samples_per_day: 80,
                malicious_fraction: 0.3,
                ..StreamConfig::small(seed)
            },
            kizzle: KizzleConfig::fast(),
            av: AvConfig::default(),
            start: SimDate::new(2014, 8, 10),
            end: SimDate::new(2014, 8, 16),
        }
    }
}

/// The result of an evaluation run.
#[derive(Debug, Clone, Serialize)]
pub struct MonthlyResult {
    /// One entry per simulated day.
    pub days: Vec<DailyMetrics>,
    /// Per-family absolute counts over the whole window (Fig. 14).
    pub per_family: Vec<(KitFamily, FamilyCounts)>,
}

impl MonthlyResult {
    /// Cumulative Kizzle counts over the window.
    #[must_use]
    pub fn kizzle_total(&self) -> DetectorCounts {
        let mut total = DetectorCounts::default();
        for day in &self.days {
            total.merge(&day.kizzle);
        }
        total
    }

    /// Cumulative AV counts over the window.
    #[must_use]
    pub fn av_total(&self) -> DetectorCounts {
        let mut total = DetectorCounts::default();
        for day in &self.days {
            total.merge(&day.av);
        }
        total
    }

    /// Counts for one family (Fig. 14 row).
    #[must_use]
    pub fn family(&self, family: KitFamily) -> FamilyCounts {
        self.per_family
            .iter()
            .find(|(f, _)| *f == family)
            .map_or_else(FamilyCounts::default, |(_, c)| *c)
    }
}

/// The evaluation driver.
#[derive(Debug, Clone)]
pub struct MonthlyEvaluation {
    config: EvalConfig,
}

impl MonthlyEvaluation {
    /// Create an evaluation with the given configuration.
    #[must_use]
    pub fn new(config: EvalConfig) -> Self {
        MonthlyEvaluation { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Run the evaluation: for each day, generate the grayware batch, run
    /// the Kizzle pipeline on it (signatures become active the same day),
    /// then scan every sample with both Kizzle and the baseline AV and
    /// compare against ground truth. The compiler lives for the whole
    /// window — the long-lived warm process.
    #[must_use]
    pub fn run(&self) -> MonthlyResult {
        self.run_impl(None, false)
    }

    /// Like [`MonthlyEvaluation::run`] (one long-lived compiler), but also
    /// persisting the compiler state into `state_dir` after every day —
    /// how an operator bootstraps a snapshot for inspection tools without
    /// changing the run itself.
    #[must_use]
    pub fn run_persisting(&self, state_dir: &std::path::Path) -> MonthlyResult {
        self.run_impl(Some(state_dir), false)
    }

    /// Run the evaluation the way the production cron deployment actually
    /// executes: the service is **dropped after every day** and
    /// reconstructed for the next one from the state snapshot in
    /// `state_dir` ([`KizzleService::save`] / [`KizzleService::open`]).
    /// With an intact state file the
    /// per-day results are byte-identical to [`MonthlyEvaluation::run`]
    /// (modulo wall-clock timings); a missing or damaged snapshot degrades
    /// to a cold rebuild for that day instead of failing the run.
    ///
    /// # Panics
    ///
    /// Panics if the state snapshot cannot be *written* (filesystem
    /// failure) — unreadable state is recoverable, unwritable state is an
    /// operational error worth failing loudly on.
    #[must_use]
    pub fn run_restarting(&self, state_dir: &std::path::Path) -> MonthlyResult {
        self.run_impl(Some(state_dir), true)
    }

    fn run_impl(&self, state_dir: Option<&std::path::Path>, restart: bool) -> MonthlyResult {
        let stream = GraywareStream::new(self.config.stream.clone());
        let av = AvEngine::new(self.config.av);

        let mut days = Vec::new();
        let mut per_family: Vec<(KitFamily, FamilyCounts)> = KitFamily::ALL
            .iter()
            .map(|f| (*f, FamilyCounts::default()))
            .collect();

        // Long-lived modes keep one resident service; restart mode
        // rebuilds it from disk every day and drops it after saving.
        let mut resident: Option<KizzleService> = None;
        for date in self.config.start.range_inclusive(self.config.end) {
            let seeded_reference =
                || ReferenceCorpus::seeded_from_models(self.config.start, &self.config.kizzle);
            let mut service = match (resident.take(), state_dir, restart) {
                (Some(service), _, _) => service,
                (None, Some(dir), true) => {
                    KizzleService::open(dir, self.config.kizzle, seeded_reference)
                        .expect("evaluation config is valid")
                        .0
                }
                (None, _, _) => KizzleService::new(self.config.kizzle, seeded_reference())
                    .expect("evaluation config is valid"),
            };
            // A resumed snapshot can sit *ahead* of the day being replayed
            // — e.g. the state an earlier run saved after this date, now
            // being re-run from the top. Sessions
            // refuse time travel ([`KizzleError::Ingest`]), so replaying
            // the past means deciding explicitly to start from scratch.
            if service.last_processed_day().is_some_and(|last| last > date) {
                service = KizzleService::new(
                    self.config.kizzle,
                    ReferenceCorpus::seeded_from_models(self.config.start, &self.config.kizzle),
                )
                .expect("evaluation config is valid");
            }
            let metrics = self.process_one_day(&mut service, &av, &stream, date, &mut per_family);
            days.push(metrics);
            if let Some(dir) = state_dir {
                service
                    .save(dir)
                    .expect("failed to write service state snapshot");
            }
            if restart {
                drop(service); // the simulated process exit
            } else {
                resident = Some(service);
            }
        }

        MonthlyResult { days, per_family }
    }

    /// One simulated day against one service: the day as one batch
    /// through [`KizzleService::process_day`], then every sample's document
    /// scanned through a matcher handle over the freshly published set.
    fn process_one_day(
        &self,
        service: &mut KizzleService,
        av: &AvEngine,
        stream: &GraywareStream,
        date: SimDate,
        per_family: &mut [(KitFamily, FamilyCounts)],
    ) -> DailyMetrics {
        // Held as one shared allocation: the session gets this `Arc`, so
        // the day's documents are never buffered twice.
        let samples: Arc<[Sample]> = stream.generate_day(date).into();
        // The whole day as one batch, sharing the caller's allocation.
        // How a day is cut into batches never changes the seal —
        // `kizzle`'s `tests/service_properties.rs` holds every shape to
        // this one.
        let report = service
            .process_day(date, Batch::from(Arc::clone(&samples)))
            .expect("evaluation days are monotone");
        let matcher = service.matcher();

        let mut kizzle_counts = DetectorCounts::default();
        let mut av_counts = DetectorCounts::default();
        let mut kizzle_angler = DetectorCounts::default();
        let mut av_angler = DetectorCounts::default();

        for sample in samples.iter() {
            let truth_malicious = sample.truth.is_malicious();
            let kizzle_hit = matcher.scan(&sample.html);
            let av_hit = av.scan(date, &sample.html);

            kizzle_counts.record(truth_malicious, kizzle_hit.is_some());
            av_counts.record(truth_malicious, av_hit.is_some());

            match sample.truth {
                GroundTruth::Malicious(family) => {
                    let slot = per_family
                        .iter_mut()
                        .find(|(f, _)| *f == family)
                        .expect("all families present");
                    slot.1.ground_truth += 1;
                    if kizzle_hit.is_none() {
                        slot.1.kizzle_fn += 1;
                    }
                    if av_hit.is_none() {
                        slot.1.av_fn += 1;
                    }
                    if family == KitFamily::Angler {
                        kizzle_angler.record(true, kizzle_hit.is_some());
                        av_angler.record(true, av_hit.is_some());
                    }
                }
                GroundTruth::Benign => {
                    if let Some(family) = kizzle_hit {
                        let slot = per_family
                            .iter_mut()
                            .find(|(f, _)| *f == family)
                            .expect("all families present");
                        slot.1.kizzle_fp += 1;
                    }
                    if let Some(family) = av_hit {
                        let slot = per_family
                            .iter_mut()
                            .find(|(f, _)| *f == family)
                            .expect("all families present");
                        slot.1.av_fp += 1;
                    }
                }
            }
        }

        let signature_lengths = KitFamily::ALL
            .iter()
            .map(|family| {
                let len = service
                    .signatures()
                    .for_label(family.name())
                    .last()
                    .map_or(0, |s| s.signature.rendered_len());
                (*family, len)
            })
            .collect();

        DailyMetrics {
            date,
            samples: samples.len(),
            clusters: report.clusters,
            kizzle: kizzle_counts,
            av: av_counts,
            kizzle_angler,
            av_angler,
            signature_lengths,
            new_signatures: report.new_signatures.clone(),
            clustering_seconds: report.clustering_stats.total_time().as_secs_f64(),
            prototype_seconds: report.clustering_stats.prototype_time.as_secs_f64(),
            live_corpus: service.engine().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_a_day_per_date_and_sane_rates() {
        let result = MonthlyEvaluation::new(EvalConfig::quick(5)).run();
        assert_eq!(result.days.len(), 7);
        let kizzle = result.kizzle_total();
        let av = result.av_total();
        assert!(kizzle.malicious_total() > 0);
        assert_eq!(kizzle.malicious_total(), av.malicious_total());
        assert!(kizzle.fp_rate() <= 0.05, "kizzle fp {}", kizzle.fp_rate());
        assert!(kizzle.fn_rate() < 0.5, "kizzle fn {}", kizzle.fn_rate());
        // The window covers the Angler change of August 13, so the AV must
        // show a worse Angler false-negative rate than Kizzle.
        let mut av_angler = DetectorCounts::default();
        let mut kizzle_angler = DetectorCounts::default();
        for day in &result.days {
            av_angler.merge(&day.av_angler);
            kizzle_angler.merge(&day.kizzle_angler);
        }
        assert!(av_angler.fn_rate() > kizzle_angler.fn_rate());
    }

    #[test]
    fn warm_engine_is_threaded_through_the_window() {
        let result = MonthlyEvaluation::new(EvalConfig::quick(5)).run();
        // Every day clusters through the warm engine, and within the
        // retention window (2 days for the quick config) the live store
        // still covers yesterday's distinct class-strings — each of
        // yesterday's clusters needs at least one, so the live count can
        // never drop below either day's cluster count.
        for day in &result.days {
            assert!(day.live_corpus > 0, "day {} has an empty engine", day.date);
        }
        for pair in result.days.windows(2) {
            assert!(
                pair[1].live_corpus >= pair[0].clusters.max(pair[1].clusters),
                "day {} retained too little: {} live vs {}/{} clusters",
                pair[1].date,
                pair[1].live_corpus,
                pair[0].clusters,
                pair[1].clusters
            );
        }
    }

    /// Wall-clock noise stripped: everything that must be byte-identical
    /// between a long-lived and a restart-each-day run.
    fn normalized(days: &[DailyMetrics]) -> Vec<DailyMetrics> {
        days.iter()
            .map(|d| DailyMetrics {
                clustering_seconds: 0.0,
                prototype_seconds: 0.0,
                ..d.clone()
            })
            .collect()
    }

    fn three_day_config(seed: u64) -> EvalConfig {
        let mut config = EvalConfig::quick(seed);
        config.stream.samples_per_day = 40;
        config.end = config.start.next().next();
        config
    }

    #[test]
    fn restart_each_day_matches_the_long_lived_run() {
        let config = three_day_config(5);
        let state_dir =
            std::env::temp_dir().join(format!("kizzle-eval-restart-test-{}", std::process::id()));
        std::fs::remove_dir_all(&state_dir).ok();

        let long_lived = MonthlyEvaluation::new(config.clone()).run();
        let restarted = MonthlyEvaluation::new(config).run_restarting(&state_dir);

        assert_eq!(normalized(&long_lived.days), normalized(&restarted.days));
        assert_eq!(long_lived.per_family, restarted.per_family);
        // The state file really was used, and it is all the directory
        // holds.
        let names: Vec<_> = std::fs::read_dir(&state_dir)
            .expect("state dir lists")
            .map(|entry| entry.expect("entry").file_name())
            .collect();
        assert_eq!(names, [kizzle::snapshot::STATE_FILE]);
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn corrupting_the_snapshot_mid_window_degrades_not_panics() {
        let config = three_day_config(6);
        let state_dir =
            std::env::temp_dir().join(format!("kizzle-eval-corrupt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&state_dir).ok();

        // Day 1 only, to leave a snapshot behind…
        let mut first = config.clone();
        first.end = first.start;
        let _ = MonthlyEvaluation::new(first).run_restarting(&state_dir);
        // …then vandalize it and run the full window: the run completes and
        // still produces one report per day.
        let snap = state_dir.join("kizzle-state.snap");
        let mut bytes = std::fs::read(&snap).expect("snapshot exists");
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&snap, &bytes).expect("rewrite");
        let result = MonthlyEvaluation::new(config).run_restarting(&state_dir);
        assert_eq!(result.days.len(), 3);
        assert!(result.days.iter().all(|d| d.samples > 0));
        std::fs::remove_dir_all(&state_dir).ok();
    }

    #[test]
    fn per_family_counts_sum_to_totals() {
        let result = MonthlyEvaluation::new(EvalConfig::quick(9)).run();
        let family_truth: usize = result.per_family.iter().map(|(_, c)| c.ground_truth).sum();
        assert_eq!(family_truth, result.kizzle_total().malicious_total());
        let family_kizzle_fn: usize = result.per_family.iter().map(|(_, c)| c.kizzle_fn).sum();
        assert_eq!(family_kizzle_fn, result.kizzle_total().false_negatives);
    }

    #[test]
    fn signature_lengths_become_nonzero_once_signatures_exist() {
        let result = MonthlyEvaluation::new(EvalConfig::quick(3)).run();
        let last = result.days.last().unwrap();
        assert!(
            KitFamily::ALL.iter().any(|f| last.signature_length(*f) > 0),
            "no signatures at all after a week"
        );
    }
}
