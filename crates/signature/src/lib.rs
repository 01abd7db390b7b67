//! # kizzle-signature — structural signature generation and matching
//!
//! This crate implements the signature-creation algorithm of Kizzle
//! (paper §III-C, Figs. 9–10) and the matcher needed to apply the generated
//! signatures to new samples.
//!
//! Generation, given the packed samples of one malicious cluster:
//!
//! 1. **Common subsequence search** — binary-search the largest `N`
//!    (capped at 200 tokens) such that some window of `N` consecutive
//!    token *classes* occurs in every sample of the cluster and is unique
//!    within each sample ([`generate::find_common_window`]).
//! 2. **Per-offset generalization** — for each token offset of that window,
//!    collect the concrete strings observed across the samples (with string
//!    quotes removed, as AV normalization does). Offsets where every sample
//!    agrees become literals; the rest become character-class templates
//!    with observed length ranges, drawn from a predefined set
//!    (`[a-z]+`, `[a-zA-Z0-9]+`, ..., falling back to `.`), mirroring the
//!    paper's template-based regular-expression inference
//!    ([`generate::generalize`]).
//! 3. **Rendering** — signatures can be rendered in a regex-like textual
//!    form with named capture groups (Fig. 10) via [`Signature::render`];
//!    the rendered length in characters is the metric plotted in the
//!    paper's Fig. 12.
//!
//! Matching ([`matcher::SignatureSet`]) is token-structural: a document
//! matches a signature if some window of its token stream satisfies every
//! element of the signature in sequence. This is deliberately the same
//! representation the generator works in, so a signature is guaranteed to
//! match the samples it was generated from. At deployment scale (tens of
//! thousands of compounding daily signatures) the scan runs through a
//! staged pipeline — a raw-byte anchor gate that answers most benign
//! documents without lexing them, an anchor trie
//! ([`automaton::AnchorAutomaton`]), batched per-window prefilters
//! ([`prefilter`]), and a literal-confirmation step — that returns
//! exactly the linear scan's answer at a per-document cost independent
//! of the signature count (see [`matcher`] for the full cost model).
//! [`verify`] adds a banded near-miss kernel behind
//! [`SignatureSet::scan_stream_nearest`].
//!
//! ## Example
//!
//! ```
//! use kizzle_signature::{generate::generate_signature, SignatureConfig};
//! use kizzle_js::tokenize;
//!
//! // Three variants of the same packer line (paper Fig. 9).
//! let samples = vec![
//!     tokenize(r#"Euur1V = this["l9D"]("ev#333399al");"#),
//!     tokenize(r#"jkb0hA = this["uqA"]("ev#ccff00al");"#),
//!     tokenize(r#"QB0Xk = this["k3LSC"]("ev#33cc00al");"#),
//! ];
//! let config = SignatureConfig { min_tokens: 4, ..SignatureConfig::default() };
//! let sig = generate_signature("NEK.sig1", &samples, &config).expect("signature");
//! for s in &samples {
//!     assert!(sig.matches_stream(s));
//! }
//! println!("{}", sig.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
mod gate;
pub mod generate;
pub mod matcher;
pub mod pattern;
pub mod prefilter;
pub mod verify;

pub use automaton::AnchorAutomaton;
pub use generate::{generate_from_subsample, generate_signature, pick_subsample, GenerateError};
pub use matcher::{flush_scan_counters, GateOff, LabeledSignature, ScanPipeline, SignatureSet};
pub use pattern::{CharClass, Element, Signature, SignatureConfig};
pub use verify::NearestMatch;
