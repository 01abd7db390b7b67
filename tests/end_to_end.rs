//! Cross-crate integration tests: corpus → tokenizer → clustering →
//! unpacking → labeling → signature generation → scanning.

use kizzle::{KizzleConfig, KizzleService, ReferenceCorpus};
use kizzle_avsim::{AvConfig, AvEngine};
use kizzle_cluster::{CorpusEngine, DbscanParams, DistributedConfig};
use kizzle_corpus::{GraywareStream, GroundTruth, KitFamily, KitModel, SimDate, StreamConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_stream(seed: u64, malicious_fraction: f64) -> GraywareStream {
    GraywareStream::new(StreamConfig {
        samples_per_day: 56,
        malicious_fraction,
        family_weights: vec![
            (KitFamily::Angler, 0.35),
            (KitFamily::Nuclear, 0.3),
            (KitFamily::SweetOrange, 0.2),
            (KitFamily::Rig, 0.15),
        ],
        seed,
    })
}

#[test]
fn packed_samples_cluster_by_family_at_the_paper_threshold() {
    // Generate a handful of packed variants of two kits plus benign pages,
    // tokenize them, and check DBSCAN at eps = 0.10 groups them by family.
    let date = SimDate::new(2014, 8, 9);
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let mut docs: Vec<(Option<KitFamily>, String)> = Vec::new();
    for family in [KitFamily::Nuclear, KitFamily::Angler] {
        let model = KitModel::new(family);
        for _ in 0..5 {
            docs.push((Some(family), model.generate_sample(date, &mut rng)));
        }
    }
    for _ in 0..5 {
        docs.push((
            None,
            kizzle_corpus::benign::generate_benign(
                kizzle_corpus::benign::BenignKind::Analytics,
                &mut rng,
            ),
        ));
    }

    let token_strings: Vec<Vec<u8>> = docs
        .iter()
        .map(|(_, html)| kizzle_js::tokenize_document_capped(html, 600).class_codes())
        .collect();

    let mut engine = CorpusEngine::new(DistributedConfig::new(2, DbscanParams::new(0.10, 3)));
    let ids = engine.add_batch(0, &token_strings);
    let (clustering, _) = engine.cluster_day(&ids);
    assert!(clustering.is_partition());
    assert!(
        clustering.cluster_count() >= 3,
        "expected at least 3 clusters"
    );
    // Every cluster must be pure with respect to the ground truth label.
    for cluster in &clustering.clusters {
        let labels: std::collections::HashSet<_> =
            cluster.members.iter().map(|&i| docs[i].0).collect();
        assert_eq!(labels.len(), 1, "cluster mixes families/benign: {labels:?}");
    }
}

#[test]
fn unpack_labels_every_kit_prototype_correctly() {
    let config = KizzleConfig::paper();
    // The reference corpus is re-seeded/absorbed daily by the pipeline, so
    // label against the previous day's knowledge (RIG's campaign blob makes
    // a 20-day-old reference too stale, which is exactly the paper's "RIG is
    // the hardest kit" observation).
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 20), &config);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    for family in KitFamily::ALL {
        // Mid-month, i.e. after several packer rotations since the seed day.
        let html = KitModel::new(family).generate_sample(SimDate::new(2014, 8, 21), &mut rng);
        let (detected, unpacked) = kizzle_unpack::unpack_or_passthrough(&html);
        assert!(detected.is_some(), "{family}: unpacker did not apply");
        let (labeled, overlap) = reference
            .label(&unpacked)
            .unwrap_or_else(|| panic!("{family}: prototype not labeled"));
        assert_eq!(labeled, family);
        // RIG's rotating campaign data keeps its day-over-day overlap much
        // lower than the other kits' (paper Fig. 11(d)).
        let floor = if family == KitFamily::Rig { 0.3 } else { 0.4 };
        assert!(overlap > floor, "{family}: overlap {overlap:.2}");
    }
}

#[test]
fn full_pipeline_detects_kits_and_spares_benign_pages() {
    let date = SimDate::new(2014, 8, 6);
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(date, &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");
    let day = small_stream(3, 0.45).generate_day(date);

    let report = service.process_day(date, &day).expect("day processes");
    assert!(report.malicious_clusters() >= 2, "{report}");

    let mut detected = 0usize;
    let mut malicious = 0usize;
    let mut fp = 0usize;
    let mut benign = 0usize;
    for sample in &day {
        let hit = service.matcher().scan(&sample.html);
        match sample.truth {
            GroundTruth::Malicious(_) => {
                malicious += 1;
                if hit.is_some() {
                    detected += 1;
                }
            }
            GroundTruth::Benign => {
                benign += 1;
                if hit.is_some() {
                    fp += 1;
                }
            }
        }
    }
    assert!(malicious > 0 && benign > 0);
    assert!(
        detected as f64 >= malicious as f64 * 0.6,
        "detected {detected}/{malicious}"
    );
    assert!(
        (fp as f64) < benign as f64 * 0.05,
        "false positives {fp}/{benign}"
    );
}

#[test]
fn kizzle_closes_the_angler_window_the_av_leaves_open() {
    // August 14: the day after Angler hid its Java marker. The lagged AV
    // misses the new variant; Kizzle signs it from the same day's cluster.
    let date = SimDate::new(2014, 8, 14);
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");
    let av = AvEngine::new(AvConfig::default());

    let stream = GraywareStream::new(StreamConfig {
        samples_per_day: 40,
        malicious_fraction: 0.5,
        family_weights: vec![(KitFamily::Angler, 1.0)],
        seed: 21,
    });
    let day = stream.generate_day(date);
    service.process_day(date, &day).expect("day processes");

    let angler_samples: Vec<_> = day
        .iter()
        .filter(|s| s.truth == GroundTruth::Malicious(KitFamily::Angler))
        .collect();
    assert!(!angler_samples.is_empty());
    let kizzle_detected = angler_samples
        .iter()
        .filter(|s| service.matcher().scan(&s.html).is_some())
        .count();
    let av_detected = angler_samples
        .iter()
        .filter(|s| av.scan(date, &s.html).is_some())
        .count();
    assert_eq!(av_detected, 0, "the lagged AV should be blind on August 14");
    assert!(
        kizzle_detected * 2 > angler_samples.len(),
        "Kizzle detected only {kizzle_detected}/{}",
        angler_samples.len()
    );
}

#[test]
fn resigning_after_a_packer_rotation_restores_detection() {
    // Kizzle signatures are deliberately specific (exact lengths, concrete
    // delimiters), so they go stale when the kit's daily content or packer
    // rotates — the paper's Fig. 12 shows Kizzle re-issuing signatures
    // daily. What must hold is that re-processing the new day's samples
    // restores majority detection immediately.
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");

    let nuclear_day = |date: SimDate, seed: u64| {
        GraywareStream::new(StreamConfig {
            samples_per_day: 24,
            malicious_fraction: 0.6,
            family_weights: vec![(KitFamily::Nuclear, 1.0)],
            seed,
        })
        .generate_day(date)
    };

    let detection = |service: &KizzleService, day: &[kizzle_corpus::Sample]| {
        let malicious = day.iter().filter(|s| s.truth.is_malicious()).count();
        let hits = day
            .iter()
            .filter(|s| s.truth.is_malicious() && service.matcher().scan(&s.html).is_some())
            .count();
        (hits, malicious)
    };

    // Day before the August 22 delimiter rotation.
    let d20 = SimDate::new(2014, 8, 20);
    let day20 = nuclear_day(d20, 31);
    service.process_day(d20, &day20).expect("day processes");
    let sigs_after_d20 = service.signatures().len();
    assert!(sigs_after_d20 > 0);
    let (hits, malicious) = detection(&service, &day20);
    assert!(
        hits * 2 > malicious,
        "{hits}/{malicious} on the signing day"
    );

    // Day after the rotation: re-process, detection recovers the same day.
    let d23 = SimDate::new(2014, 8, 23);
    let day23 = nuclear_day(d23, 33);
    service.process_day(d23, &day23).expect("day processes");
    assert!(service.signatures().len() >= sigs_after_d20);
    let (hits, malicious) = detection(&service, &day23);
    assert!(hits * 2 > malicious, "{hits}/{malicious} after re-signing");
}
