//! The daily grayware stream.
//!
//! The paper's telemetry produced 80,000–500,000 samples per day; the
//! stream generator reproduces that mixture at a configurable scale:
//! mostly-benign traffic with a minority of exploit-kit landing pages whose
//! family mix mirrors the relative prevalence of Fig. 14 (Angler by far the
//! most common, RIG rare enough to be a clustering challenge).

use crate::benign::{generate_benign, BenignKind};
use crate::date::SimDate;
use crate::family::KitFamily;
use crate::kits::KitModel;
use crate::sample::{GroundTruth, Sample, SampleId};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Configuration of the grayware stream.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamConfig {
    /// Number of samples generated per day. The paper observed 80k–500k;
    /// the default here is scaled down by roughly three orders of magnitude
    /// so the full month runs on a laptop, with the mixture preserved.
    pub samples_per_day: usize,
    /// Fraction of the daily stream that is exploit-kit traffic. The
    /// telemetry trigger (pages loading ActiveX content) makes this much
    /// higher than on the open web.
    pub malicious_fraction: f64,
    /// Relative weight of each family within the malicious share. The
    /// paper's absolute counts (Fig. 14) are heavily skewed towards Angler;
    /// the default flattens that skew slightly so that even the rare
    /// families produce enough daily variants to exercise clustering at the
    /// reduced scale (the paper's counts are in PAPER.md).
    pub family_weights: Vec<(KitFamily, f64)>,
    /// Master seed; combined with the date so each day is independently
    /// reproducible.
    pub seed: u64,
}

impl StreamConfig {
    /// Validate and normalize the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the malicious fraction is outside `[0, 1]`, weights are
    /// negative, or no family weight is positive while the malicious
    /// fraction is nonzero.
    #[must_use]
    pub fn validated(self) -> Self {
        assert!(
            (0.0..=1.0).contains(&self.malicious_fraction),
            "malicious_fraction must be within [0, 1]"
        );
        assert!(
            self.family_weights.iter().all(|(_, w)| *w >= 0.0),
            "family weights must be non-negative"
        );
        if self.malicious_fraction > 0.0 {
            assert!(
                self.family_weights.iter().any(|(_, w)| *w > 0.0),
                "at least one family weight must be positive"
            );
        }
        self
    }

    /// Small configuration for unit tests and doc examples.
    #[must_use]
    pub fn small(seed: u64) -> Self {
        StreamConfig {
            samples_per_day: 60,
            malicious_fraction: 0.25,
            family_weights: default_weights(),
            seed,
        }
        .validated()
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            samples_per_day: 300,
            malicious_fraction: 0.15,
            family_weights: default_weights(),
            seed: 0,
        }
        .validated()
    }
}

fn default_weights() -> Vec<(KitFamily, f64)> {
    vec![
        (KitFamily::Angler, 0.45),
        (KitFamily::SweetOrange, 0.25),
        (KitFamily::Nuclear, 0.20),
        (KitFamily::Rig, 0.10),
    ]
}

/// Statistics of one generated day.
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DayStats {
    /// Samples generated.
    total: usize,
    /// Benign samples.
    benign: usize,
    /// Malicious samples per family.
    per_family: Vec<(KitFamily, usize)>,
}

/// The grayware stream generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GraywareStream {
    config: StreamConfig,
}

impl GraywareStream {
    /// Create a stream with the given configuration.
    #[must_use]
    pub fn new(config: StreamConfig) -> Self {
        GraywareStream {
            config: config.validated(),
        }
    }

    /// The stream configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Generate the samples captured on `date`.
    ///
    /// The result is deterministic in `(config.seed, date)` and independent
    /// of any other day.
    #[must_use]
    pub fn generate_day(&self, date: SimDate) -> Vec<Sample> {
        let mut rng = self.day_rng(date);
        let mut samples = Vec::with_capacity(self.config.samples_per_day);
        let id_base = u64::from(date.ordinal()) * 1_000_000 + self.config.seed % 1_000;

        let weight_total: f64 = self.config.family_weights.iter().map(|(_, w)| w).sum();

        for i in 0..self.config.samples_per_day {
            let id = SampleId(id_base + i as u64);
            let malicious = rng.gen_bool(self.config.malicious_fraction);
            let (html, truth) = if malicious && weight_total > 0.0 {
                let family = self.draw_family(&mut rng, weight_total);
                let html = KitModel::new(family).generate_sample(date, &mut rng);
                (html, GroundTruth::Malicious(family))
            } else {
                let kind = BenignKind::ALL[rng.gen_range(0..BenignKind::ALL.len())];
                (generate_benign(kind, &mut rng), GroundTruth::Benign)
            };
            samples.push(Sample::new(id, date, html, truth));
        }
        samples
    }

    /// Generate every day in `[start, end]`, returning one `Vec<Sample>`
    /// per day.
    #[cfg(test)]
    fn generate_range(&self, start: SimDate, end: SimDate) -> Vec<(SimDate, Vec<Sample>)> {
        start
            .range_inclusive(end)
            .into_iter()
            .map(|d| (d, self.generate_day(d)))
            .collect()
    }

    /// Summary statistics of a generated day.
    #[cfg(test)]
    fn day_stats(samples: &[Sample]) -> DayStats {
        let mut per_family: Vec<(KitFamily, usize)> =
            KitFamily::ALL.iter().map(|f| (*f, 0)).collect();
        let mut benign = 0usize;
        for sample in samples {
            match sample.truth {
                GroundTruth::Benign => benign += 1,
                GroundTruth::Malicious(f) => {
                    if let Some(slot) = per_family.iter_mut().find(|(fam, _)| *fam == f) {
                        slot.1 += 1;
                    }
                }
            }
        }
        DayStats {
            total: samples.len(),
            benign,
            per_family,
        }
    }

    fn draw_family<R: Rng + ?Sized>(&self, rng: &mut R, weight_total: f64) -> KitFamily {
        let mut pick = rng.gen_range(0.0..weight_total);
        for (family, weight) in &self.config.family_weights {
            if pick < *weight {
                return *family;
            }
            pick -= weight;
        }
        self.config
            .family_weights
            .last()
            .map(|(f, _)| *f)
            .expect("validated config has at least one family")
    }

    fn day_rng(&self, date: SimDate) -> ChaCha8Rng {
        let seed = self.config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(date.year) << 20)
            ^ (u64::from(date.ordinal()) << 4);
        ChaCha8Rng::seed_from_u64(seed)
    }
}

impl Default for GraywareStream {
    fn default() -> Self {
        GraywareStream::new(StreamConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_generation_is_deterministic() {
        let stream = GraywareStream::new(StreamConfig::small(11));
        let d = SimDate::new(2014, 8, 14);
        assert_eq!(stream.generate_day(d), stream.generate_day(d));
    }

    #[test]
    fn different_days_differ() {
        let stream = GraywareStream::new(StreamConfig::small(11));
        let a = stream.generate_day(SimDate::new(2014, 8, 14));
        let b = stream.generate_day(SimDate::new(2014, 8, 15));
        assert_ne!(a, b);
    }

    #[test]
    fn sample_counts_match_config() {
        let stream = GraywareStream::new(StreamConfig::small(3));
        let day = stream.generate_day(SimDate::new(2014, 8, 2));
        assert_eq!(day.len(), 60);
        let stats = GraywareStream::day_stats(&day);
        assert_eq!(stats.total, 60);
        let malicious: usize = stats.per_family.iter().map(|(_, n)| n).sum();
        assert_eq!(stats.benign + malicious, 60);
    }

    #[test]
    fn malicious_fraction_is_roughly_respected() {
        let config = StreamConfig {
            samples_per_day: 400,
            malicious_fraction: 0.25,
            family_weights: default_weights(),
            seed: 5,
        };
        let stream = GraywareStream::new(config);
        let day = stream.generate_day(SimDate::new(2014, 8, 20));
        let malicious = day.iter().filter(|s| s.truth.is_malicious()).count();
        let fraction = malicious as f64 / day.len() as f64;
        assert!((0.15..=0.35).contains(&fraction), "fraction {fraction}");
    }

    #[test]
    fn family_mix_follows_weights() {
        let config = StreamConfig {
            samples_per_day: 600,
            malicious_fraction: 0.5,
            family_weights: default_weights(),
            seed: 9,
        };
        let stream = GraywareStream::new(config);
        let day = stream.generate_day(SimDate::new(2014, 8, 10));
        let stats = GraywareStream::day_stats(&day);
        let count = |f: KitFamily| {
            stats
                .per_family
                .iter()
                .find(|(fam, _)| *fam == f)
                .map_or(0, |(_, n)| *n)
        };
        assert!(count(KitFamily::Angler) > count(KitFamily::Nuclear));
        assert!(count(KitFamily::Nuclear) > count(KitFamily::Rig));
        assert!(count(KitFamily::Rig) > 0);
    }

    #[test]
    fn zero_malicious_fraction_produces_only_benign() {
        let config = StreamConfig {
            samples_per_day: 50,
            malicious_fraction: 0.0,
            family_weights: default_weights(),
            seed: 1,
        };
        let day = GraywareStream::new(config).generate_day(SimDate::new(2014, 8, 7));
        assert!(day.iter().all(|s| !s.truth.is_malicious()));
    }

    #[test]
    fn generate_range_covers_every_day() {
        let stream = GraywareStream::new(StreamConfig::small(2));
        let range = stream.generate_range(SimDate::new(2014, 8, 1), SimDate::new(2014, 8, 5));
        assert_eq!(range.len(), 5);
        assert_eq!(range[0].0, SimDate::new(2014, 8, 1));
        assert_eq!(range[4].0, SimDate::new(2014, 8, 5));
    }

    #[test]
    fn sample_ids_are_unique_within_a_month() {
        let stream = GraywareStream::new(StreamConfig::small(6));
        let range = stream.generate_range(SimDate::new(2014, 8, 1), SimDate::new(2014, 8, 10));
        let mut ids = std::collections::HashSet::new();
        for (_, day) in &range {
            for sample in day {
                assert!(ids.insert(sample.id), "duplicate id {}", sample.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "malicious_fraction")]
    fn invalid_fraction_panics() {
        let _ = StreamConfig {
            samples_per_day: 10,
            malicious_fraction: 1.5,
            family_weights: default_weights(),
            seed: 0,
        }
        .validated();
    }

    #[test]
    #[should_panic(expected = "at least one family weight")]
    fn zero_weights_with_malicious_fraction_panics() {
        let _ = StreamConfig {
            samples_per_day: 10,
            malicious_fraction: 0.5,
            family_weights: vec![(KitFamily::Rig, 0.0)],
            seed: 0,
        }
        .validated();
    }
}
