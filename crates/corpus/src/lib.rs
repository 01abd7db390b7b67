//! # kizzle-corpus — synthetic grayware corpus with evolving exploit kits
//!
//! The Kizzle paper evaluates on a month of Internet Explorer telemetry
//! (80,000–500,000 HTML samples per day, August 2014) containing landing
//! pages of the **Nuclear**, **Angler**, **RIG** and **Sweet Orange**
//! exploit kits. That data stream is proprietary and the kits themselves are
//! long dead, so this crate provides the closest synthetic equivalent: a
//! deterministic, seeded generator of daily "grayware" batches whose
//! statistical structure matches what the paper describes and measures:
//!
//! * **Four kit families** ([`KitFamily`]) with the CVE inventory of the
//!   paper's Fig. 2, an inner payload (plug-in detection, AV-presence
//!   checks, one exploit block per CVE, an eval trigger) and a
//!   family-specific packer modeled on the paper's Fig. 4 (delimiter-joined
//!   char codes for RIG, key-substitution with delimiter-spliced strings for
//!   Nuclear, hex chunking for Angler, arithmetic integer obfuscation for
//!   Sweet Orange).
//! * **An evolution engine** ([`evolution`]) that reproduces the paper's
//!   Fig. 5 timeline: frequent superficial packer mutations (the `eval`
//!   obfuscation and delimiter changes of Nuclear), infrequent payload
//!   appends (new CVEs, added AV detection), and cross-kit code borrowing
//!   (RIG's AV check appearing in Nuclear in August). The Angler change of
//!   August 13 that opened the AV false-negative window of Fig. 6 is
//!   modeled explicitly.
//! * **Benign generators** ([`benign`]) for the code that dominates real
//!   grayware: script-library boilerplate, `PluginDetect`-style probing code
//!   (the paper's Fig. 15 false positive), analytics/ad snippets and inline
//!   handlers, all with enough near-duplication to form clusters of their
//!   own.
//! * **A daily stream** ([`stream::GraywareStream`]) that mixes the above
//!   into per-day batches with ground-truth labels, scaled down from the
//!   paper's volumes by a configurable factor.
//!
//! Everything is driven by [`rand_chacha`] seeded RNGs: the same seed
//! reproduces the same month of grayware byte-for-byte, which is what makes
//! the experiment harness reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benign;
pub mod date;
pub mod evolution;
pub mod family;
pub mod ident;
pub mod kits;
pub mod packer;
pub mod payload;
pub mod sample;
pub mod stream;

pub use date::SimDate;
pub use evolution::{ChangeKind, EvolutionEvent, KitState};
pub use family::{Component, Cve, KitFamily};
pub use kits::KitModel;
pub use sample::{variation_prefix, GroundTruth, Sample, SampleId};
pub use stream::{GraywareStream, StreamConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn end_to_end_sample_generation_is_deterministic() {
        let model = KitModel::new(KitFamily::Nuclear);
        let date = SimDate::new(2014, 8, 13);
        let mut rng1 = ChaCha8Rng::seed_from_u64(1234);
        let mut rng2 = ChaCha8Rng::seed_from_u64(1234);
        let a = model.generate_sample(date, &mut rng1);
        let b = model.generate_sample(date, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn all_families_generate_nonempty_html() {
        let date = SimDate::new(2014, 8, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for family in KitFamily::ALL {
            let html = KitModel::new(family).generate_sample(date, &mut rng);
            assert!(html.contains("<script"), "{family}: no script tag");
            assert!(html.len() > 500, "{family}: suspiciously small sample");
        }
    }
}
