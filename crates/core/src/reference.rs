//! The labeled reference corpus of known, unpacked exploit kits.
//!
//! Kizzle is not an anomaly detector: it must be *seeded* with known
//! exploit kits (paper §I-A). The reference corpus holds, per family, the
//! winnowing fingerprints of unpacked kit payloads an analyst has confirmed,
//! plus a per-family overlap threshold — the paper notes the threshold is
//! "malware family specific".

use crate::config::KizzleConfig;
use kizzle_corpus::{KitFamily, KitModel, SimDate};
use kizzle_snapshot::{Decoder, Encoder, SnapshotError};
use kizzle_winnow::{Fingerprint, WinnowConfig};

/// One known family: its merged fingerprint and labeling threshold.
#[derive(Debug, Clone)]
struct FamilyReference {
    family: KitFamily,
    fingerprint: Fingerprint,
    threshold: f64,
}

/// The labeled corpus of known unpacked kits.
#[derive(Debug, Clone, Default)]
pub struct ReferenceCorpus {
    entries: Vec<FamilyReference>,
    winnow: WinnowConfig,
}

impl ReferenceCorpus {
    /// Create an empty corpus using the given winnowing configuration.
    #[must_use]
    pub fn new(winnow: WinnowConfig) -> Self {
        ReferenceCorpus {
            entries: Vec::new(),
            winnow,
        }
    }

    /// Number of known families.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no family has been added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add (or extend) a family with one known unpacked sample and its
    /// labeling threshold. Adding further samples for the same family merges
    /// their fingerprints and keeps the latest threshold.
    pub fn add_known_sample(&mut self, family: KitFamily, unpacked: &str, threshold: f64) {
        let fingerprint = self.probe(unpacked);
        self.add_fingerprint(family, &fingerprint, threshold);
    }

    fn add_fingerprint(&mut self, family: KitFamily, fingerprint: &Fingerprint, threshold: f64) {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1]"
        );
        if let Some(entry) = self.entries.iter_mut().find(|e| e.family == family) {
            entry.fingerprint.merge(fingerprint);
            entry.threshold = threshold;
        } else {
            self.entries.push(FamilyReference {
                family,
                fingerprint: fingerprint.clone(),
                threshold,
            });
        }
    }

    /// Seed the corpus from the kit models' reference payloads as known on
    /// `date` — the analyst's "I have one confirmed unpacked sample of each
    /// kit" starting point.
    ///
    /// The per-family thresholds mirror how distinctive each kit's unpacked
    /// body is: RIG's short, URL-heavy payload needs a lower threshold (its
    /// day-over-day self-similarity is only ~50%, paper Fig. 11(d)).
    #[must_use]
    pub fn seeded_from_models(date: SimDate, config: &KizzleConfig) -> Self {
        let mut corpus = ReferenceCorpus::new(config.winnow);
        for family in KitFamily::ALL {
            let payload = KitModel::new(family).reference_payload(date);
            let threshold = match family {
                KitFamily::Rig => 0.35,
                _ => config.label_threshold,
            };
            corpus.add_known_sample(family, &payload, threshold);
        }
        corpus
    }

    /// Overlap of an unpacked prototype with a specific family's reference.
    #[cfg(test)]
    fn overlap_with(&self, family: KitFamily, unpacked: &str) -> f64 {
        let probe = self.probe(unpacked);
        self.entries
            .iter()
            .find(|e| e.family == family)
            .map_or(0.0, |e| probe.overlap(&e.fingerprint))
    }

    /// Fingerprint an unpacked prototype with the corpus's winnowing
    /// parameters: the probe [`ReferenceCorpus::label_probe`] and
    /// [`ReferenceCorpus::absorb_probe`] take, so a prototype that is
    /// labelled and then absorbed is fingerprinted once.
    #[must_use]
    pub fn probe(&self, unpacked: &str) -> Fingerprint {
        Fingerprint::of_text(unpacked, &self.winnow)
    }

    /// Label an unpacked cluster prototype: the best-matching family whose
    /// overlap exceeds its threshold, together with the overlap value.
    #[must_use]
    pub fn label(&self, unpacked: &str) -> Option<(KitFamily, f64)> {
        self.label_probe(&self.probe(unpacked))
    }

    /// [`ReferenceCorpus::label`] for a prototype already fingerprinted
    /// with [`ReferenceCorpus::probe`].
    #[must_use]
    pub fn label_probe(&self, probe: &Fingerprint) -> Option<(KitFamily, f64)> {
        let mut best: Option<(KitFamily, f64)> = None;
        for entry in &self.entries {
            let overlap = probe.overlap(&entry.fingerprint);
            if overlap >= entry.threshold
                && best.is_none_or(|(_, best_overlap)| overlap > best_overlap)
            {
                best = Some((entry.family, overlap));
            }
        }
        best
    }

    /// Record a newly confirmed unpacked sample for a family (called when a
    /// cluster has been labeled, so the corpus tracks kit evolution the way
    /// the paper's day-over-day similarity measurement does).
    pub fn absorb(&mut self, family: KitFamily, unpacked: &str) {
        let probe = self.probe(unpacked);
        self.absorb_probe(family, &probe);
    }

    /// [`ReferenceCorpus::absorb`] for a prototype already fingerprinted
    /// with [`ReferenceCorpus::probe`].
    pub fn absorb_probe(&mut self, family: KitFamily, probe: &Fingerprint) {
        let threshold = self
            .entries
            .iter()
            .find(|e| e.family == family)
            .map_or(0.6, |e| e.threshold);
        self.add_fingerprint(family, probe, threshold);
    }

    /// Serialize the corpus: winnow parameters, then per family (in entry
    /// order, which labeling iterates) its threshold and fingerprint
    /// multiset. Fingerprint pairs are written in the hash order a
    /// fingerprint keeps them in, so identical corpora always produce
    /// identical bytes.
    pub(crate) fn encode_into(&self, enc: &mut Encoder) {
        enc.usize(self.winnow.k);
        enc.usize(self.winnow.window);
        enc.usize(self.entries.len());
        for entry in &self.entries {
            enc.u8(entry.family.code());
            enc.f64(entry.threshold);
            enc.usize(entry.fingerprint.distinct());
            for (hash, count) in entry.fingerprint.iter() {
                enc.u64(hash);
                enc.u32(count);
            }
        }
    }

    /// Rebuild a corpus from [`ReferenceCorpus::encode_into`] output.
    pub(crate) fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(format!("reference corpus: {what}"));
        let k = dec.usize()?;
        let window = dec.usize()?;
        if k == 0 || window == 0 {
            return Err(corrupt("winnow parameters must be positive"));
        }
        let mut corpus = ReferenceCorpus::new(WinnowConfig::new(k, window));
        let entry_count = dec.usize()?;
        for _ in 0..entry_count {
            let family =
                KitFamily::from_code(dec.u8()?).ok_or_else(|| corrupt("unknown family code"))?;
            if corpus.entries.iter().any(|e| e.family == family) {
                return Err(corrupt("family duplicated"));
            }
            let threshold = dec.f64()?;
            if !(threshold > 0.0 && threshold <= 1.0) {
                return Err(corrupt("threshold out of range"));
            }
            let pair_count = dec.usize()?;
            let mut pairs = Vec::with_capacity(pair_count.min(1 << 20));
            for _ in 0..pair_count {
                pairs.push((dec.u64()?, dec.u32()?));
            }
            corpus.entries.push(FamilyReference {
                family,
                fingerprint: Fingerprint::from_counts(pairs),
                threshold,
            });
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> ReferenceCorpus {
        ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &KizzleConfig::paper())
    }

    #[test]
    fn seeded_corpus_contains_all_families() {
        let c = corpus();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn unpacked_kits_are_labeled_with_their_own_family() {
        let c = corpus();
        for family in KitFamily::ALL {
            // A week later, after packer churn, the unpacked payload still
            // labels correctly (that is the paper's core claim).
            let payload = KitModel::new(family).reference_payload(SimDate::new(2014, 8, 8));
            let (labeled, overlap) = c.label(&payload).expect("should label");
            assert_eq!(labeled, family, "overlap {overlap:.2}");
            assert!(overlap > 0.4, "{family}: overlap {overlap:.2}");
        }
    }

    #[test]
    fn benign_library_code_is_not_labeled() {
        let c = corpus();
        let benign = r#"
            (function() {
              var cache = {};
              function byId(id) { cache[id] = document.getElementById(id); return cache[id]; }
              function each(list, fn) { for (var i = 0; i < list.length; i++) { fn(list[i], i); } }
              window.util = { byId: byId, each: each };
            })();
        "#;
        assert_eq!(c.label(benign), None);
    }

    #[test]
    fn plugindetect_overlap_with_nuclear_is_high_but_below_threshold() {
        // The paper's Fig. 15 false positive: a benign PluginDetect file
        // shares a very high overlap (79%) with Nuclear. Our benign
        // PluginDetect page embeds the same probing library the kits embed,
        // so its overlap is substantial — the labeling threshold is what
        // keeps it (usually) out.
        let c = corpus();
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
        let benign = kizzle_corpus::benign::generate_benign(
            kizzle_corpus::benign::BenignKind::PluginDetect,
            &mut rng,
        );
        let text = kizzle_unpack::script_text(&benign);
        let overlap = c.overlap_with(KitFamily::Nuclear, &text);
        assert!(
            overlap > 0.3,
            "expected substantial overlap, got {overlap:.2}"
        );
        assert!(
            overlap < 0.95,
            "should not be a perfect match, got {overlap:.2}"
        );
    }

    #[test]
    fn absorb_keeps_labeling_stable_as_the_kit_evolves() {
        let mut c = corpus();
        // Nuclear appends a CVE on August 27; absorbing the August 26
        // payload first must not break labeling of the August 27 one.
        let before = KitModel::new(KitFamily::Nuclear).reference_payload(SimDate::new(2014, 8, 26));
        c.absorb(KitFamily::Nuclear, &before);
        let after = KitModel::new(KitFamily::Nuclear).reference_payload(SimDate::new(2014, 8, 27));
        let (family, _) = c.label(&after).expect("should label");
        assert_eq!(family, KitFamily::Nuclear);
    }

    #[test]
    fn overlap_with_unknown_family_is_zero() {
        let c = ReferenceCorpus::new(WinnowConfig::default());
        assert_eq!(c.overlap_with(KitFamily::Angler, "function f() {}"), 0.0);
        assert_eq!(c.label("function f() {}"), None);
    }

    /// What a seal's label loop meets over a fortnight: each day, every
    /// family's page and every benign kind's page, unpacked.
    fn fortnight_of_prototypes() -> Vec<String> {
        use kizzle_corpus::benign::{generate_benign, BenignKind};
        use rand::SeedableRng;
        let mut texts = Vec::new();
        for day in 2..=15u32 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(u64::from(day));
            for family in KitFamily::ALL {
                let page =
                    KitModel::new(family).generate_sample(SimDate::new(2014, 8, day), &mut rng);
                texts.push(kizzle_unpack::unpack_or_passthrough(&page).1);
            }
            for kind in BenignKind::ALL {
                let page = generate_benign(kind, &mut rng);
                texts.push(kizzle_unpack::unpack_or_passthrough(&page).1);
            }
        }
        texts
    }

    fn encoded(corpus: &ReferenceCorpus) -> Vec<u8> {
        let mut enc = Encoder::new();
        corpus.encode_into(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn probe_once_equals_label_then_absorb_at_every_step() {
        let (mut by_text, mut by_probe) = (corpus(), corpus());
        let mut labelled = 0;
        for text in fortnight_of_prototypes() {
            let label = by_text.label(&text);
            if let Some((family, _)) = label {
                by_text.absorb(family, &text);
                labelled += 1;
            }
            let probe = by_probe.probe(&text);
            let probe_label = by_probe.label_probe(&probe);
            if let Some((family, _)) = probe_label {
                by_probe.absorb_probe(family, &probe);
            }
            assert_eq!(
                label.map(|(f, o)| (f, o.to_bits())),
                probe_label.map(|(f, o)| (f, o.to_bits()))
            );
            assert_eq!(encoded(&by_text), encoded(&by_probe));
        }
        assert!(labelled >= 4 * 14, "every kit page labels: {labelled}");
        // The bytes the hash-map histogram wrote for the same sequence
        // (its pairs sorted at encode time): the flat histogram changes no
        // stored byte.
        let bytes = encoded(&by_probe);
        assert_eq!(
            (bytes.len(), kizzle_snapshot::crc32(&bytes)),
            FORTNIGHT_ENCODING
        );
    }

    /// Length and CRC-32 of the fortnight corpus's encoding, as the
    /// hash-map histogram produced it.
    const FORTNIGHT_ENCODING: (usize, u32) = (60_680, 0xfe59_72cc);

    #[test]
    #[should_panic(expected = "threshold")]
    fn invalid_threshold_panics() {
        let mut c = ReferenceCorpus::new(WinnowConfig::default());
        c.add_known_sample(KitFamily::Rig, "x", 0.0);
    }
}
