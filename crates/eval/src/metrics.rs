//! Detection metrics: daily and cumulative false positives / negatives.

use kizzle_corpus::{KitFamily, SimDate};
use serde::Serialize;

/// False-positive / false-negative counts for one detector over one day (or
/// accumulated over a window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DetectorCounts {
    /// Benign samples flagged as malicious.
    pub false_positives: usize,
    /// Malicious samples missed.
    pub false_negatives: usize,
    /// Malicious samples detected.
    pub true_positives: usize,
    /// Benign samples passed through.
    pub true_negatives: usize,
}

impl DetectorCounts {
    /// Record one scan outcome.
    pub fn record(&mut self, truth_malicious: bool, detected: bool) {
        match (truth_malicious, detected) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Merge another set of counts into this one.
    pub fn merge(&mut self, other: &DetectorCounts) {
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_positives += other.true_positives;
        self.true_negatives += other.true_negatives;
    }

    /// Number of benign samples seen.
    #[must_use]
    pub fn benign_total(&self) -> usize {
        self.false_positives + self.true_negatives
    }

    /// Number of malicious samples seen.
    #[must_use]
    pub fn malicious_total(&self) -> usize {
        self.false_negatives + self.true_positives
    }

    /// False-positive rate over benign samples (paper Fig. 13(a)); 0 when no
    /// benign samples were seen.
    #[must_use]
    pub fn fp_rate(&self) -> f64 {
        ratio(self.false_positives, self.benign_total())
    }

    /// False-negative rate over malicious samples (paper Figs. 6/13(b)); 0
    /// when no malicious samples were seen.
    #[must_use]
    pub fn fn_rate(&self) -> f64 {
        ratio(self.false_negatives, self.malicious_total())
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-family counts for the Fig. 14 table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FamilyCounts {
    /// Ground-truth malicious samples of this family.
    pub ground_truth: usize,
    /// AV false positives attributed to this family (benign samples the AV
    /// flagged with this family's signature).
    pub av_fp: usize,
    /// AV false negatives (samples of this family the AV missed).
    pub av_fn: usize,
    /// Kizzle false positives attributed to this family.
    pub kizzle_fp: usize,
    /// Kizzle false negatives.
    pub kizzle_fn: usize,
}

/// Everything measured on one simulated day.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DailyMetrics {
    /// The day.
    pub date: SimDate,
    /// Samples processed.
    pub samples: usize,
    /// Clusters found by Kizzle's clustering stage.
    pub clusters: usize,
    /// Kizzle detection counts (all kits pooled).
    pub kizzle: DetectorCounts,
    /// Baseline AV detection counts.
    pub av: DetectorCounts,
    /// Kizzle counts restricted to Angler samples (Fig. 6).
    pub kizzle_angler: DetectorCounts,
    /// AV counts restricted to Angler samples (Fig. 6).
    pub av_angler: DetectorCounts,
    /// Per-family rendered length of the newest Kizzle signature (Fig. 12);
    /// 0 when no signature exists yet for the family.
    pub signature_lengths: Vec<(KitFamily, usize)>,
    /// Names of signatures Kizzle issued today.
    pub new_signatures: Vec<String>,
    /// Wall-clock seconds spent in the clustering stage (final prototype
    /// pass included).
    pub clustering_seconds: f64,
    /// Wall-clock seconds of the final per-cluster prototype computation
    /// alone — the formerly untimed hotspot called out on the ROADMAP; it
    /// is part of `clustering_seconds`.
    pub prototype_seconds: f64,
    /// Live samples held by the warm corpus engine after the day ran
    /// (today's batch plus the retained overlap window).
    pub live_corpus: usize,
}

impl DailyMetrics {
    /// Signature length recorded for one family on this day.
    #[must_use]
    pub fn signature_length(&self, family: KitFamily) -> usize {
        self.signature_lengths
            .iter()
            .find(|(f, _)| *f == family)
            .map_or(0, |(_, len)| *len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_the_right_bucket() {
        let mut counts = DetectorCounts::default();
        counts.record(true, true);
        counts.record(true, false);
        counts.record(false, true);
        counts.record(false, false);
        assert_eq!(counts.true_positives, 1);
        assert_eq!(counts.false_negatives, 1);
        assert_eq!(counts.false_positives, 1);
        assert_eq!(counts.true_negatives, 1);
        assert_eq!(counts.benign_total(), 2);
        assert_eq!(counts.malicious_total(), 2);
        assert!((counts.fp_rate() - 0.5).abs() < 1e-12);
        assert!((counts.fn_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_have_zero_rates() {
        let counts = DetectorCounts::default();
        assert_eq!(counts.fp_rate(), 0.0);
        assert_eq!(counts.fn_rate(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = DetectorCounts {
            false_positives: 1,
            false_negatives: 2,
            true_positives: 3,
            true_negatives: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.false_positives, 2);
        assert_eq!(a.true_negatives, 8);
    }

    #[test]
    fn daily_metrics_signature_length_lookup() {
        let metrics = DailyMetrics {
            date: SimDate::new(2014, 8, 1),
            samples: 10,
            clusters: 3,
            kizzle: DetectorCounts::default(),
            av: DetectorCounts::default(),
            kizzle_angler: DetectorCounts::default(),
            av_angler: DetectorCounts::default(),
            signature_lengths: vec![(KitFamily::Nuclear, 123)],
            new_signatures: vec![],
            clustering_seconds: 0.1,
            prototype_seconds: 0.02,
            live_corpus: 10,
        };
        assert_eq!(metrics.signature_length(KitFamily::Nuclear), 123);
        assert_eq!(metrics.signature_length(KitFamily::Rig), 0);
    }
}
