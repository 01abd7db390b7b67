//! The daily processing pipeline: cluster → label → sign → deploy.

use crate::config::KizzleConfig;
use crate::reference::ReferenceCorpus;
use kizzle_cluster::{Clustering, CorpusEngine, DistributedStats, SampleId};
use kizzle_corpus::{KitFamily, Sample, SimDate};
use kizzle_js::TokenStream;
use kizzle_signature::{generate_from_subsample, pick_subsample, SignatureSet};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// What the pipeline decided about one cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterVerdict {
    /// Number of samples in the cluster.
    pub size: usize,
    /// The family the cluster was labeled with, if any.
    pub family: Option<KitFamily>,
    /// The winnow overlap of the unpacked prototype with the best-matching
    /// reference (0 when no reference matched).
    pub overlap: f64,
    /// Name of the signature generated for the cluster, if one was.
    pub signature_name: Option<String>,
}

/// Counters from the session ingest frontend, surfaced per day in the
/// [`DayReport`] so ingest backpressure is measurable.
///
/// A [`DaySession`](crate::DaySession) counts every non-empty mini-batch
/// (the single-shot [`KizzleService::process_day`](crate::KizzleService::process_day)
/// is a one-batch session: `submitted_batches == applied_batches == 1`),
/// and the bounded-channel frontend additionally records how often
/// producers stalled on a full channel and how deep the queue got.
/// Like `clustering_stats`, these are observability fields: they are not
/// part of the [`fmt::Display`] rendering, and equivalence tests normalize
/// them away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Mini-batches submitted for ingest (direct calls and channel sends).
    pub submitted_batches: u64,
    /// Mini-batches actually lexed/deduped/store-inserted. Less than
    /// `submitted_batches` only when an aborted session discarded work.
    pub applied_batches: u64,
    /// Producer sends that found the channel full and had to block — the
    /// backpressure count.
    pub producer_stalls: u64,
    /// High-water mark of mini-batches queued in the channel at once.
    pub max_queue_depth: u64,
}

impl PipelineStats {
    /// Fold these per-day counters into the global telemetry registry
    /// (`kizzle_ingest_producer_stalls_total`,
    /// `kizzle_pipeline_max_queue_depth` as a run-level high-water mark).
    /// No-op while telemetry is disabled.
    pub fn record_to_registry(&self) {
        if !kizzle_telemetry::enabled() {
            return;
        }
        kizzle_telemetry::gauge("kizzle_pipeline_max_queue_depth").set_max(self.max_queue_depth);
        if self.producer_stalls > 0 {
            kizzle_telemetry::counter("kizzle_ingest_producer_stalls_total")
                .add(self.producer_stalls);
        }
    }
}

/// The result of processing one day of grayware.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// The processed day.
    pub date: SimDate,
    /// Number of samples processed.
    pub samples: usize,
    /// Number of clusters found (paper §IV reports 280–1,200 per day at
    /// full scale).
    pub clusters: usize,
    /// Number of samples left as noise.
    pub noise: usize,
    /// Per-cluster verdicts, for clusters at or above the minimum size.
    pub verdicts: Vec<ClusterVerdict>,
    /// Names of the signatures added today.
    pub new_signatures: Vec<String>,
    /// Timing of the distributed clustering phases.
    pub clustering_stats: DistributedStats,
    /// Ingest-frontend counters (a single-shot `process_day` reports its
    /// one batch).
    pub pipeline: PipelineStats,
}

impl DayReport {
    /// Number of clusters labeled as malicious today.
    #[must_use]
    pub fn malicious_clusters(&self) -> usize {
        self.verdicts.iter().filter(|v| v.family.is_some()).count()
    }
}

impl fmt::Display for DayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} samples, {} clusters ({} malicious), {} new signatures",
            self.date,
            self.samples,
            self.clusters,
            self.malicious_clusters(),
            self.new_signatures.len()
        )
    }
}

/// The compiler state behind a [`KizzleService`](crate::KizzleService).
///
/// Holds the labeled reference corpus it was seeded with, the cumulative
/// set of signatures it has emitted so far, and the warm incremental
/// corpus engine threaded through consecutive days: each day's
/// class-strings are lexed once into the engine's store (content dedup
/// turns the overlap with recent days into index cache hits), samples
/// older than the configured retention window are retired, and the day is
/// clustered as a view over the live corpus — byte-identical to a cold
/// per-day run. The service drives the phases below
/// ([`open_day`](Self::open_day) → [`ingest`](Self::ingest)
/// per batch → the engine's `cluster_day` →
/// [`label_and_sign`](Self::label_and_sign)); nothing else does.
#[derive(Debug)]
pub(crate) struct KizzleCompiler {
    pub(crate) config: KizzleConfig,
    pub(crate) reference: ReferenceCorpus,
    /// The cumulative signature set, shared by `Arc` with every epoch the
    /// service has published: the once-daily append copies the members
    /// exactly when a published epoch still holds the previous set
    /// (`Arc::make_mut` copy-on-write), so publishing stopped deep-cloning
    /// the whole set per day.
    pub(crate) signatures: Arc<SignatureSet>,
    pub(crate) signature_counters: HashMap<KitFamily, usize>,
    pub(crate) engine: CorpusEngine,
    /// The most recent day opened — the day counter persisted by
    /// [`KizzleCompiler::save_state`].
    pub(crate) last_day: Option<SimDate>,
    /// Saves that changed the signature set: the epoch every follower of
    /// the state directory serves. Persisted beside the set, in its
    /// section.
    pub(crate) publications: u64,
    /// The next save publishes: a signature was added since the last
    /// committed save, or the compiler was created fresh. Only a committed
    /// save clears it.
    pub(crate) publish_pending: bool,
}

impl KizzleCompiler {
    /// Create a compiler from a validated configuration and a seeded
    /// reference corpus.
    pub(crate) fn new(config: KizzleConfig, reference: ReferenceCorpus) -> Self {
        KizzleCompiler {
            engine: CorpusEngine::new(config.clustering),
            config,
            reference,
            signatures: Arc::new(SignatureSet::new()),
            signature_counters: HashMap::new(),
            last_day: None,
            publications: 0,
            publish_pending: true,
        }
    }

    /// Session phase 1 — open a day: advance the day counter, retire
    /// samples that aged out of the retention window, and return the
    /// day's stamp. Its own phase so ingest can start before the day's
    /// data has fully arrived.
    pub(crate) fn open_day(&mut self, date: SimDate) -> u64 {
        let stamp = u64::try_from(date.absolute_day()).unwrap_or(0);
        self.last_day = Some(date);
        let cutoff = stamp.saturating_sub(self.config.retention_days as u64 - 1);
        self.engine.retire_older_than(cutoff);
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::gauge("kizzle_corpus_live_samples").set(self.engine.len() as u64);
        }
        stamp
    }

    /// Session phase 2 — ingest a mini-batch of samples' class strings:
    /// deposit them into the warm engine (carry-over content becomes a
    /// cache hit; fresh content is indexed eagerly, so the day's front half
    /// amortizes while later batches are still arriving) and return the
    /// batch's sample ids. Callable any number of times per open day.
    pub(crate) fn ingest(&mut self, stamp: u64, class_strings: &[Vec<u8>]) -> Vec<SampleId> {
        let _dedup_span = kizzle_telemetry::span!("day.dedup");
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::counter("kizzle_ingest_batches_total").incr();
            kizzle_telemetry::counter("kizzle_ingest_samples_total")
                .add(class_strings.len() as u64);
        }
        let ids = self.engine.add_batch(stamp, class_strings);
        if kizzle_telemetry::enabled() {
            kizzle_telemetry::gauge("kizzle_corpus_live_samples").set(self.engine.len() as u64);
        }
        ids
    }

    /// Session phase 3 — once the engine has clustered the day, label
    /// cluster prototypes against the reference corpus, absorb labeled
    /// prototypes, and generate signatures.
    /// `samples` and `day_ids` are the position-parallel concatenation of
    /// every ingested batch's documents and store ids.
    ///
    /// Ingest kept only class strings, so the members a labelled cluster's
    /// signature reads — the [`pick_subsample`] of those whose class string
    /// is non-empty — are lexed here, and only those. The lexing overlaps
    /// the winnow loop: each labelled cluster's picks are queued to a
    /// helper thread while the next prototype is labelled, and the seal's
    /// thread joins in on whatever is left once labelling is done.
    /// Signatures are then generated in cluster order — labelling never
    /// reads the signature set, so doing every label first changes nothing.
    pub(crate) fn label_and_sign(
        &mut self,
        date: SimDate,
        samples: &SampleRope,
        day_ids: &[SampleId],
        clustering: Clustering,
        stats: DistributedStats,
    ) -> DayReport {
        let tel = kizzle_telemetry::enabled();
        let token_cap = self.config.token_cap;
        let significant = clustering.significant_clusters(self.config.min_cluster_size);
        let mut verdicts: Vec<ClusterVerdict> = Vec::with_capacity(significant.len());
        // Per labelled cluster: its verdict, its family, and its picked
        // members' streams in `lexed`.
        let mut labelled: Vec<(usize, KitFamily, Range<usize>)> = Vec::new();
        // The winnow phase (unpack → fingerprint → reference overlap →
        // absorb) runs per cluster, so an RAII guard would spray hundreds
        // of sub-ms spans; accumulate it across the loop and record one
        // per-day span after, its four steps as counters.
        let mut winnow_time = Duration::ZERO;
        let mut label_steps = LabelSteps::default();
        let mut siggen_started = None;
        let mut lex_wait = Duration::ZERO;

        // Lex jobs: (job number, day position). Whoever holds the queue
        // lock waits for the next job; the lock is released before lexing.
        let (jobs, queue) = mpsc::channel::<(usize, usize)>();
        let queue = Mutex::new(queue);
        let lex_queued = || {
            let mut out = Vec::new();
            loop {
                let job = queue.lock().expect("lex queue lock").recv();
                let Ok((job, position)) = job else {
                    return out;
                };
                let stream = kizzle_js::tokenize_document_capped(samples.html(position), token_cap);
                out.push((job, stream));
            }
        };
        let lexed: Vec<TokenStream> = std::thread::scope(|scope| {
            let mut helper = None;
            let mut queued = 0;
            for cluster in &significant {
                let winnow_started = tel.then(Instant::now);
                label_steps.from = winnow_started;
                let prototype_idx = cluster.prototype.unwrap_or_else(|| cluster.members[0]);
                let (_, unpacked) =
                    kizzle_unpack::unpack_or_passthrough(samples.html(prototype_idx));
                label_steps.lap(LabelStep::Unpack);
                // One fingerprint per prototype: labelled with it, and
                // absorbed as it is.
                let probe = self.reference.probe(&unpacked);
                label_steps.lap(LabelStep::Fingerprint);
                let labeled = self.reference.label_probe(&probe);
                label_steps.lap(LabelStep::Overlap);
                if let Some((family, _)) = labeled {
                    // Track the kit's evolution so tomorrow's variant still
                    // labels correctly.
                    self.reference.absorb_probe(family, &probe);
                    label_steps.lap(LabelStep::Absorb);
                    let store = self.engine.store();
                    let usable: Vec<usize> = cluster
                        .members
                        .iter()
                        .copied()
                        .filter(|&i| store.get(day_ids[i]).is_some_and(|c| !c.is_empty()))
                        .collect();
                    helper.get_or_insert_with(|| scope.spawn(lex_queued));
                    let first = queued;
                    for position in pick_subsample(&usable, &self.config.signature) {
                        jobs.send((queued, position))
                            .expect("the lex queue is open");
                        queued += 1;
                    }
                    labelled.push((verdicts.len(), family, first..queued));
                }
                verdicts.push(ClusterVerdict {
                    size: cluster.len(),
                    family: labeled.map(|(f, _)| f),
                    overlap: labeled.map_or(0.0, |(_, o)| o),
                    signature_name: None,
                });
                if let Some(started) = winnow_started {
                    winnow_time += started.elapsed();
                }
            }
            // What the helper has not lexed yet is lexed on both threads
            // and charged to siggen, whose input it is.
            siggen_started = tel.then(Instant::now);
            drop(jobs);
            let mut lexed = lex_queued();
            if let Some(helper) = helper {
                match helper.join() {
                    Ok(helped) => lexed.extend(helped),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            lexed.sort_unstable_by_key(|&(job, _)| job);
            if let Some(started) = siggen_started {
                lex_wait = started.elapsed();
            }
            lexed.into_iter().map(|(_, stream)| stream).collect()
        });

        let mut new_signatures = Vec::new();
        for (verdict, family, streams) in labelled {
            let subsample: Vec<&TokenStream> = lexed[streams].iter().collect();
            let counter = self.signature_counters.entry(family).or_insert(0);
            let name = format!("{}.sig{}", family.short_code(), *counter + 1);
            let members = verdicts[verdict].size;
            // An error means not enough common structure (paper: short
            // common subsequences are discarded); the cluster stays labeled
            // but unsigned.
            if let Ok(signature) =
                generate_from_subsample(&name, &subsample, members, &self.config.signature)
            {
                // Copy-on-write: the set only materializes a copy when a
                // published epoch still shares it.
                if Arc::make_mut(&mut self.signatures).add(family.name(), signature) {
                    self.publish_pending = true;
                    *counter += 1;
                    verdicts[verdict].signature_name = Some(name.clone());
                    new_signatures.push(name);
                }
            }
        }
        if tel {
            let siggen = siggen_started.map_or(Duration::ZERO, |started| started.elapsed());
            kizzle_telemetry::record_span("day.winnow", winnow_time);
            kizzle_telemetry::record_span("day.siggen", siggen);
            label_steps.record();
            kizzle_telemetry::counter("kizzle_siggen_lex_wait_ns_total").add(nanos(lex_wait));
            kizzle_telemetry::counter("kizzle_siggen_generate_ns_total")
                .add(nanos(siggen.saturating_sub(lex_wait)));
            kizzle_telemetry::counter("kizzle_days_sealed_total").incr();
            kizzle_telemetry::counter("kizzle_signatures_emitted_total")
                .add(new_signatures.len() as u64);
            kizzle_telemetry::gauge("kizzle_signatures_live").set(self.signatures.len() as u64);
        }

        DayReport {
            date,
            samples: samples.len(),
            clusters: clustering.cluster_count(),
            noise: clustering.noise.len(),
            verdicts,
            new_signatures,
            clustering_stats: stats,
            pipeline: PipelineStats::default(),
        }
    }
}

/// The steps of labelling one cluster prototype, in loop order.
#[derive(Clone, Copy)]
enum LabelStep {
    Unpack,
    Fingerprint,
    Overlap,
    Absorb,
}

/// Time per [`LabelStep`] across a seal's label loop, each step measured
/// from the end of the one before, the first from the prototype's start.
/// The clock is read only while `from` is set (telemetry on).
#[derive(Default)]
struct LabelSteps {
    from: Option<Instant>,
    spent: [Duration; 4],
}

impl LabelSteps {
    /// Charge the time since `from` to `step`.
    fn lap(&mut self, step: LabelStep) {
        if let Some(from) = self.from {
            let now = Instant::now();
            self.spent[step as usize] += now - from;
            self.from = Some(now);
        }
    }

    fn record(&self) {
        let [unpack, fingerprint, overlap, absorb] = self.spent.map(nanos);
        kizzle_telemetry::counter("kizzle_label_unpack_ns_total").add(unpack);
        kizzle_telemetry::counter("kizzle_label_fingerprint_ns_total").add(fingerprint);
        kizzle_telemetry::counter("kizzle_label_overlap_ns_total").add(overlap);
        kizzle_telemetry::counter("kizzle_label_absorb_ns_total").add(absorb);
    }
}

fn nanos(spent: Duration) -> u64 {
    u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX)
}

/// Map a signature label back to the kit family it names.
#[must_use]
pub fn family_from_label(label: &str) -> Option<KitFamily> {
    KitFamily::ALL.into_iter().find(|f| f.name() == label)
}

/// The day's samples as `Arc`-shared chunks in application order — a
/// [`Batch`](crate::Batch) hands its allocation straight in, so a day the
/// caller moved or shared into the session is buffered once, not twice.
#[derive(Debug, Default)]
pub(crate) struct SampleRope {
    chunks: Vec<Arc<[Sample]>>,
    /// `starts[c]` is the day position of `chunks[c][0]`.
    starts: Vec<usize>,
    len: usize,
}

impl SampleRope {
    pub(crate) fn push(&mut self, chunk: Arc<[Sample]>) {
        if chunk.is_empty() {
            return;
        }
        self.starts.push(self.len);
        self.len += chunk.len();
        self.chunks.push(chunk);
    }

    /// Number of buffered samples (day positions).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The raw document at day position `index`.
    pub(crate) fn html(&self, index: usize) -> &str {
        let chunk = self.starts.partition_point(|&start| start <= index) - 1;
        &self.chunks[chunk][index - self.starts[chunk]].html
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KizzleService;
    use kizzle_corpus::{GraywareStream, GroundTruth, KitModel, StreamConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn service() -> KizzleService {
        let reference =
            ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::fast());
        KizzleService::new(KizzleConfig::fast(), reference).expect("fast config is valid")
    }

    /// A small, malicious-heavy day so clusters form reliably in tests.
    fn test_day(date: SimDate, seed: u64) -> Vec<Sample> {
        let config = StreamConfig {
            samples_per_day: 48,
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

    #[test]
    fn process_day_finds_clusters_and_generates_signatures() {
        let mut service = service();
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 3);
        let report = service.process_day(date, &day).expect("day processes");

        assert_eq!(report.samples, day.len());
        assert!(report.clusters > 0);
        assert!(report.malicious_clusters() >= 2, "report: {report}");
        assert!(!report.new_signatures.is_empty());
        assert_eq!(service.signatures().len(), report.new_signatures.len());
    }

    #[test]
    fn generated_signatures_detect_same_day_samples() {
        let mut service = service();
        let date = SimDate::new(2014, 8, 5);
        let day = test_day(date, 4);
        service.process_day(date, &day).expect("day processes");

        let mut detected_malicious = 0usize;
        let mut total_malicious = 0usize;
        let mut false_positives = 0usize;
        for sample in &day {
            let hit = service.matcher().scan(&sample.html);
            match sample.truth {
                GroundTruth::Malicious(_) => {
                    total_malicious += 1;
                    if hit.is_some() {
                        detected_malicious += 1;
                    }
                }
                GroundTruth::Benign => {
                    if hit.is_some() {
                        false_positives += 1;
                    }
                }
            }
        }
        assert!(total_malicious > 0);
        assert!(
            detected_malicious * 2 > total_malicious,
            "detected {detected_malicious}/{total_malicious}"
        );
        assert!(
            false_positives <= 1,
            "too many false positives: {false_positives}"
        );
    }

    #[test]
    fn detected_family_matches_ground_truth() {
        let mut service = service();
        let date = SimDate::new(2014, 8, 8);
        let day = test_day(date, 5);
        service.process_day(date, &day).expect("day processes");
        for sample in &day {
            if let (GroundTruth::Malicious(truth), Some(found)) =
                (sample.truth, service.matcher().scan(&sample.html))
            {
                assert_eq!(found, truth, "family confusion on {}", sample.id);
            }
        }
    }

    #[test]
    fn signatures_accumulate_across_days() {
        let mut service = service();
        let d1 = SimDate::new(2014, 8, 5);
        let d2 = SimDate::new(2014, 8, 20);
        service
            .process_day(d1, test_day(d1, 6))
            .expect("day processes");
        let count_after_day1 = service.signatures().len();
        service
            .process_day(d2, test_day(d2, 7))
            .expect("day processes");
        assert!(service.signatures().len() >= count_after_day1);
        // Nuclear rotated its delimiter between the two dates, so a second
        // Nuclear signature must exist if Nuclear clustered on both days.
        let signatures = service.signatures();
        let nuclear_sigs = signatures.for_label(KitFamily::Nuclear.name());
        assert!(!nuclear_sigs.is_empty());
    }

    #[test]
    fn benign_only_day_produces_no_signatures() {
        let mut service = service();
        let date = SimDate::new(2014, 8, 10);
        let config = StreamConfig {
            samples_per_day: 40,
            malicious_fraction: 0.0,
            family_weights: vec![(KitFamily::Angler, 1.0)],
            seed: 8,
        };
        let day = GraywareStream::new(config).generate_day(date);
        let report = service.process_day(date, &day).expect("day processes");
        assert_eq!(report.malicious_clusters(), 0, "report: {report:?}");
        assert!(service.signatures().is_empty());
        assert!(day
            .iter()
            .all(|s| service.matcher().scan(&s.html).is_none()));
    }

    #[test]
    fn empty_day_is_handled() {
        let mut service = service();
        let report = service
            .process_day(SimDate::new(2014, 8, 1), &[][..])
            .expect("day processes");
        assert_eq!(report.samples, 0);
        assert_eq!(report.clusters, 0);
        assert!(report.new_signatures.is_empty());
    }

    #[test]
    fn token_cap_is_applied() {
        let service = service();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let html =
            KitModel::new(KitFamily::Rig).generate_sample(SimDate::new(2014, 8, 3), &mut rng);
        let stream = kizzle_js::tokenize_document_capped(&html, service.config().token_cap);
        assert!(stream.len() <= service.config().token_cap);
    }

    #[test]
    fn family_label_roundtrip() {
        for family in KitFamily::ALL {
            assert_eq!(family_from_label(family.name()), Some(family));
        }
        assert_eq!(family_from_label("NotAKit"), None);
    }

    #[test]
    fn engine_retains_samples_within_the_retention_window() {
        let mut service = service();
        assert!(service.engine().is_empty());
        let d1 = SimDate::new(2014, 8, 5);
        let day1 = test_day(d1, 3);
        service.process_day(d1, &day1).expect("day processes");
        let live_after_day1 = service.engine().len();
        assert!(live_after_day1 > 0);
        // The next day (inside the fast() retention window of 2) keeps
        // yesterday's samples warm...
        let d2 = SimDate::new(2014, 8, 6);
        service
            .process_day(d2, test_day(d2, 4))
            .expect("day processes");
        assert!(service.engine().len() >= live_after_day1);
        // ...and a far-future day retires everything older.
        let d3 = SimDate::new(2014, 9, 20);
        let day3 = test_day(d3, 5);
        service.process_day(d3, &day3).expect("day processes");
        assert!(service.engine().len() <= day3.len());
    }

    #[test]
    fn reprocessing_identical_content_hits_the_warm_cache() {
        let mut service = service();
        let d1 = SimDate::new(2014, 8, 5);
        let day = test_day(d1, 3);
        let first = service.process_day(d1, &day).expect("day processes");
        // The same content the next day: every class-string deduplicates
        // onto the live entries, so the index answers purely from its
        // maintained caches.
        let d2 = SimDate::new(2014, 8, 6);
        let second = service.process_day(d2, &day).expect("day processes");
        assert_eq!(second.clusters, first.clusters);
        assert_eq!(second.noise, first.noise);
        assert_eq!(
            second.clustering_stats.index.queries, 0,
            "warm rerun recomputed neighborhoods: {:?}",
            second.clustering_stats.index
        );
        assert!(second.clustering_stats.index.cache_hits > 0);
        let sizes = |report: &DayReport| {
            report
                .verdicts
                .iter()
                .map(|v| (v.size, v.family))
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(&second), sizes(&first));
    }

    #[test]
    fn day_report_display_is_informative() {
        let mut service = service();
        let date = SimDate::new(2014, 8, 5);
        let report = service
            .process_day(date, test_day(date, 9))
            .expect("day processes");
        let text = report.to_string();
        assert!(text.contains("8/5/14"));
        assert!(text.contains("clusters"));
    }
}
