//! Grayware samples and ground-truth labels.

use crate::date::SimDate;
use crate::family::KitFamily;
use serde::Serialize;
use std::fmt;

/// Identifier of a sample within the generated corpus, unique per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SampleId(pub u64);

impl fmt::Display for SampleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sample-{:08}", self.0)
    }
}

/// Ground-truth label of a sample.
///
/// The generator knows what it emitted, which stands in for the paper's
/// manual validation of ~7,000 files (paper §IV "Ground Truth").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum GroundTruth {
    /// The sample is benign.
    Benign,
    /// The sample is a landing page of the given exploit kit.
    Malicious(KitFamily),
}

impl GroundTruth {
    /// True if the sample is malicious (any family).
    #[must_use]
    pub fn is_malicious(&self) -> bool {
        matches!(self, GroundTruth::Malicious(_))
    }

    /// The kit family, if malicious.
    #[must_use]
    pub fn family(&self) -> Option<KitFamily> {
        match self {
            GroundTruth::Benign => None,
            GroundTruth::Malicious(f) => Some(*f),
        }
    }
}

impl fmt::Display for GroundTruth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundTruth::Benign => f.write_str("benign"),
            GroundTruth::Malicious(family) => write!(f, "malicious({family})"),
        }
    }
}

/// A single grayware sample: a complete HTML document with inline scripts,
/// its capture date and its ground-truth label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Sample {
    /// Stream-unique identifier.
    pub id: SampleId,
    /// Capture date.
    pub date: SimDate,
    /// The full HTML document.
    pub html: String,
    /// What the generator actually emitted.
    pub truth: GroundTruth,
}

impl Sample {
    /// Create a sample.
    #[must_use]
    pub fn new(id: SampleId, date: SimDate, html: String, truth: GroundTruth) -> Self {
        Sample {
            id,
            date,
            html,
            truth,
        }
    }

    /// Size of the HTML document in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.html.len()
    }
}

/// An inline script of eight tokens spelling `code` in base 5 over five
/// token classes (keyword, identifier, punctuation, string, number), to
/// put in front of a page. Codes below 5⁸ give pairwise different token
/// sequences, so prefixed pages never share a class string — nothing
/// deduplicates — while each stays within eight edits of its base, far
/// inside the clustering threshold at realistic lengths.
#[must_use]
pub fn variation_prefix(code: u64) -> String {
    const TOKENS: [&str; 5] = ["var", "a", ";", "\"s\"", "1"];
    let digits: Vec<&str> = (0..8)
        .map(|place| TOKENS[(code / 5u64.pow(place) % 5) as usize])
        .collect();
    format!("<script>{}</script>", digits.join(" "))
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} ({} bytes)",
            self.id,
            self.date,
            self.truth,
            self.size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_accessors() {
        assert!(!GroundTruth::Benign.is_malicious());
        assert_eq!(GroundTruth::Benign.family(), None);
        let m = GroundTruth::Malicious(KitFamily::Angler);
        assert!(m.is_malicious());
        assert_eq!(m.family(), Some(KitFamily::Angler));
    }

    #[test]
    fn sample_display_mentions_everything() {
        let s = Sample::new(
            SampleId(7),
            SimDate::new(2014, 8, 3),
            "<html></html>".to_string(),
            GroundTruth::Malicious(KitFamily::Rig),
        );
        let text = s.to_string();
        assert!(text.contains("sample-00000007"));
        assert!(text.contains("8/3/14"));
        assert!(text.contains("RIG"));
        assert!(text.contains("13 bytes"));
    }

    #[test]
    fn variation_prefixes_differ_and_wrap_eight_tokens() {
        let prefixes: std::collections::HashSet<String> =
            (0..5u64.pow(4)).map(variation_prefix).collect();
        assert_eq!(prefixes.len(), 5usize.pow(4));
        assert_eq!(
            variation_prefix(7),
            "<script>; a var var var var var var</script>"
        );
    }

    #[test]
    fn sample_size_is_html_length() {
        let s = Sample::new(
            SampleId(1),
            SimDate::new(2014, 8, 1),
            "abcd".to_string(),
            GroundTruth::Benign,
        );
        assert_eq!(s.size(), 4);
    }
}
