//! A deployable set of labeled signatures and its staged scan pipeline.
//!
//! This is the consumer side of Kizzle: the signatures the compiler emits
//! are deployed to a scanner (browser, desktop AV, or CDN-side, per the
//! paper's deployment-channel discussion) which matches incoming documents
//! against the active set. The set compounds daily — 50k–500k live
//! signatures at multi-tenant scale — so the scan must stay cheap in the
//! *signature count*, not just the document length. Scanning runs through
//! a [`ScanPipeline`] built once per sealed set:
//!
//! 0. **Anchor gate** (`crate::gate`, raw documents only): every
//!    signature with a selective literal element (at least
//!    [`MIN_ANCHOR_LEN`] chars; longest wins — long literals are the most
//!    selective) is anchored on it, and an anchored signature can match
//!    only where a token's unquoted text equals its anchor. Every such
//!    text is a byte slice of the document, so when no anchor occurs
//!    anywhere in the document's bytes the scan is a proven miss and the
//!    document is never lexed. Most pages a client sees are benign, and
//!    lexing is most of a raw-document miss. The gate is absent — every
//!    document is lexed — when some signature is unanchored or when the
//!    gate's tables cannot skip; both are facts about the sealed set
//!    ([`ScanPipeline::gate_off`]).
//! 1. **Anchor trie** ([`crate::automaton::AnchorAutomaton`]): the
//!    distinct anchor literals in one trie. A scan walks the document's
//!    tokens once through it — `O(token bytes)` total, **independent of
//!    the signature count** — and each token equal to an anchor yields the
//!    bucket of `(signature, anchor offset)` candidates sharing that
//!    literal.
//! 2. **Batched prefilter** ([`crate::prefilter`]): each candidate's
//!    token window is screened against fixed-width, branch-free element
//!    checks over cheap per-token profiles (length, class-acceptance
//!    mask, literal fingerprint), with a window-level class-histogram
//!    bound in front when many signatures fan out behind one shared
//!    literal. Only the candidate windows are profiled, so a document
//!    that never hits an anchor pays stage 1 only, and a hit pays for its
//!    windows, not for the page before them. A token longer than 16
//!    bytes is profiled by its fingerprint alone unless a `Class` element
//!    lands on it.
//! 3. **Verification**: `Class` elements are already decided exactly by
//!    stage 2; only `Literal` elements need their text confirmed (the
//!    profile compares a 32-bit fingerprint of at most 16 of the token's
//!    bytes). Signatures with no selective literal (rare: pure character
//!    classes, or only ubiquitous punctuation like `=` and `[`) fall back
//!    to a linear scan.
//!
//! The result is byte-identical to a linear scan — the first signature in
//! insertion order whose [`Signature::matches_stream`] holds —
//! property-tested in `tests/signature_properties.rs`, gate included. The
//! pipeline (gate, trie, buckets, filters) is a pure function of the
//! signatures and [`SignatureSet::seal`] is the only way one is built: it
//! is never serialized — a state file ships the members
//! ([`SignatureSet::encode_into`]) and every loader reseals. It is
//! immutable once built, and [`SignatureSet::add`] invalidates it so a
//! mutated set reseals.
//!
//! Beyond the exact scan, [`SignatureSet::scan_stream_nearest`] grades
//! near-misses with the adaptive banded kernel in [`crate::verify`]: the
//! edit-distance band narrows as the running best improves across the
//! set.

use crate::automaton::AnchorAutomaton;
use crate::gate::AnchorGate;
use crate::pattern::{CharClass, Element, Signature};
use crate::prefilter::{windows_pass_batch, SigFilter, StreamProfile};
use crate::verify::{nearest_in_stream, stream_deficit, NearestMatch, StreamSummary};
use kizzle_js::{lex_document, Span, TokenStream, Tokens};
use kizzle_snapshot::{Decoder, Encoder, SnapshotError};
use serde::Serialize;
use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Per-stage scan counters (`kizzle_scan_*`), cheap enough for the
/// ns-scale scan path.
///
/// A scan tallies its stage events in plain locals (`ScanCounts`, only
/// touched when telemetry is enabled — the disabled cost is one relaxed
/// load and predicted branches), then feeds them into thread-local
/// [`kizzle_telemetry::metrics::Batched`] fronts at scan exit: the shared
/// sharded atomics are touched once per [`BATCH`](scan_metrics::BATCH)
/// events per thread, yet totals are exact once scan threads exit or
/// [`flush_scan_counters`] runs.
pub mod scan_metrics {
    use kizzle_telemetry::counter;
    use kizzle_telemetry::metrics::Batched;

    /// Events per thread between touches of a shared counter cell (the
    /// "sampled 1-in-N" rate; remainders flush on thread exit).
    pub const BATCH: u64 = 256;

    /// Local per-scan tallies; all zero when telemetry is disabled.
    #[derive(Debug, Default)]
    pub(super) struct ScanCounts {
        pub scans: u64,
        pub gate_rejected: u64,
        pub anchor_hits: u64,
        pub prefilter_checked: u64,
        pub prefilter_rejected: u64,
        pub verify_confirmed: u64,
        pub verify_rejected: u64,
        pub unanchored_checked: u64,
    }

    struct Tallies {
        scans: Batched,
        gate_rejected: Batched,
        anchor_hits: Batched,
        prefilter_checked: Batched,
        prefilter_rejected: Batched,
        verify_confirmed: Batched,
        verify_rejected: Batched,
        unanchored_checked: Batched,
    }

    impl Tallies {
        fn new() -> Self {
            Tallies {
                scans: Batched::new(counter("kizzle_scans_total"), BATCH),
                gate_rejected: Batched::new(counter("kizzle_scan_gate_rejected_total"), BATCH),
                anchor_hits: Batched::new(counter("kizzle_scan_anchor_hits_total"), BATCH),
                prefilter_checked: Batched::new(
                    counter("kizzle_scan_prefilter_checked_total"),
                    BATCH,
                ),
                prefilter_rejected: Batched::new(
                    counter("kizzle_scan_prefilter_rejected_total"),
                    BATCH,
                ),
                verify_confirmed: Batched::new(
                    counter("kizzle_scan_verify_confirmed_total"),
                    BATCH,
                ),
                verify_rejected: Batched::new(counter("kizzle_scan_verify_rejected_total"), BATCH),
                unanchored_checked: Batched::new(
                    counter("kizzle_scan_unanchored_checked_total"),
                    BATCH,
                ),
            }
        }

        fn flush(&self) {
            self.scans.flush();
            self.gate_rejected.flush();
            self.anchor_hits.flush();
            self.prefilter_checked.flush();
            self.prefilter_rejected.flush();
            self.verify_confirmed.flush();
            self.verify_rejected.flush();
            self.unanchored_checked.flush();
        }
    }

    thread_local! {
        static TALLIES: Tallies = Tallies::new();
    }

    impl ScanCounts {
        /// Feed this scan's tallies into the thread-local batched fronts.
        pub(super) fn commit(&self) {
            TALLIES.with(|t| {
                t.scans.bump(self.scans);
                t.gate_rejected.bump(self.gate_rejected);
                t.anchor_hits.bump(self.anchor_hits);
                t.prefilter_checked.bump(self.prefilter_checked);
                t.prefilter_rejected.bump(self.prefilter_rejected);
                t.verify_confirmed.bump(self.verify_confirmed);
                t.verify_rejected.bump(self.verify_rejected);
                t.unanchored_checked.bump(self.unanchored_checked);
            });
        }
    }

    /// Flush the calling thread's batched scan tallies into the shared
    /// `kizzle_scan_*` counters now.
    ///
    /// Worker threads flush automatically when their TLS is destroyed on
    /// exit, and [`std::thread::JoinHandle::join`] orders that before the
    /// join returns. Two cases need an explicit call: long-lived threads
    /// (the main thread, a serve-daemon worker) before snapshotting the
    /// registry, and `std::thread::scope` workers before their closure
    /// returns — the scope wakes its waiter when the closure finishes,
    /// which does *not* order the worker's TLS destructors before the
    /// scope exits.
    pub fn flush_scan_counters() {
        TALLIES.with(Tallies::flush);
    }
}

pub use scan_metrics::flush_scan_counters;

/// A signature together with the label of the family it detects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LabeledSignature {
    /// Family label (e.g. `"Nuclear"`).
    pub label: String,
    /// The structural signature.
    pub signature: Signature,
}

/// A collection of labeled signatures with scan helpers.
#[derive(Debug, Default, Serialize)]
pub struct SignatureSet {
    signatures: Vec<LabeledSignature>,
    /// Exact-duplicate filter: hash of `(label, elements)` → indices into
    /// `signatures` with that hash, so [`SignatureSet::add`] is
    /// `O(signature_len)` instead of a linear scan over the whole set —
    /// without a second copy of every label and element vector.
    dedup: HashMap<u64, Vec<usize>>,
    /// Distinct labels in first-insertion order (what [`SignatureSet::labels`]
    /// returns without rescanning).
    label_order: Vec<String>,
    /// The sealed scan pipeline, built on first scan (or eagerly via
    /// [`SignatureSet::seal`]) and dropped by [`SignatureSet::add`] —
    /// derived state, never part of equality or serde.
    pipeline: OnceLock<Arc<ScanPipeline>>,
}

impl Clone for SignatureSet {
    fn clone(&self) -> Self {
        SignatureSet {
            signatures: self.signatures.clone(),
            dedup: self.dedup.clone(),
            label_order: self.label_order.clone(),
            // The pipeline is immutable and index-compatible with the
            // cloned members, so the clone shares it by `Arc` — cloning a
            // sealed set stays O(members), not O(rebuild).
            pipeline: match self.pipeline.get() {
                Some(pipeline) => OnceLock::from(Arc::clone(pipeline)),
                None => OnceLock::new(),
            },
        }
    }
}

/// Shortest literal worth anchoring on. Literals below this (single
/// punctuation like `=` or `[`, two-char operators/keywords) occur so often
/// in benign documents that every occurrence would trigger a full window
/// verification, degrading the anchored scan below the linear one; such
/// signatures go to the `unanchored` fallback instead.
pub const MIN_ANCHOR_LEN: usize = 3;

/// The anchor of a signature: the offset of its longest literal element, if
/// that literal is selective enough (see [`MIN_ANCHOR_LEN`]).
fn anchor_of(signature: &Signature) -> Option<(usize, &str)> {
    signature
        .elements
        .iter()
        .enumerate()
        .filter_map(|(offset, element)| match element {
            Element::Literal(text) if text.len() >= MIN_ANCHOR_LEN => Some((offset, text.as_str())),
            _ => None,
        })
        .max_by_key(|(_, text)| text.len())
}

/// Dedup key: hash of the `(label, elements)` pair.
fn dedup_key(label: &str, elements: &[Element]) -> u64 {
    let mut hasher = DefaultHasher::new();
    label.hash(&mut hasher);
    elements.hash(&mut hasher);
    hasher.finish()
}

/// Does `signature` match `tokens` with its element at `offset` placed on
/// the token at `position`? The aligned-window oracle the staged pipeline
/// is `debug_assert!`-checked against candidate by candidate.
fn window_matches(
    signature: &Signature,
    tokens: Tokens<'_>,
    position: usize,
    offset: usize,
) -> bool {
    let Some(start) = position.checked_sub(offset) else {
        return false;
    };
    let n = signature.elements.len();
    if start + n > tokens.len() {
        return false;
    }
    signature
        .elements
        .iter()
        .zip(tokens.window(start, n))
        .all(|(element, token)| element.matches_token(token))
}

/// What one scan needs beyond its input, kept per thread so a
/// steady-state scan allocates nothing. Per thread rather than per set or
/// per handle so that threads sharing one never wait on each other.
#[derive(Default)]
struct ScanScratch {
    /// The span buffer a raw document is lexed into.
    spans: Vec<Span>,
    matching: MatchScratch,
}

/// The working buffers of [`ScanPipeline::scan`]; their contents between
/// scans mean nothing.
#[derive(Default)]
struct MatchScratch {
    /// Stage 2's token profiles over the candidate windows.
    profile: StreamProfile,
    /// Candidates surviving the cheap gates, gathered per anchor hit
    /// and evaluated lane-parallel.
    eligible: Vec<(usize, usize)>,
}

/// Buffers that grew past this many tokens are released after the scan
/// instead of kept: the serving path is capped far below it (`token_cap`,
/// 900 by default), so only an uncapped scan of a huge document gets here,
/// and it must not pin megabytes per thread forever.
const SCRATCH_RETAIN_TOKENS: usize = 1 << 14;

thread_local! {
    static SCRATCH: RefCell<ScanScratch> = RefCell::default();
}

/// Run `scan` with the calling thread's scratch.
fn with_scratch<R>(scan: impl FnOnce(&mut ScanScratch) -> R) -> R {
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let result = scan(scratch);
        if scratch.spans.capacity() > SCRATCH_RETAIN_TOKENS {
            scratch.spans = Vec::new();
        }
        if scratch.matching.profile.capacity() > SCRATCH_RETAIN_TOKENS {
            scratch.matching.profile = StreamProfile::new();
        }
        result
    })
}

/// Candidate buckets grow a window-histogram pre-gate from this size on:
/// eight prefix-sum subtractions are only worth it when they can reject
/// for several fanned-out candidates' element loops at once.
const HIST_GATE_MIN_SIG_LEN: usize = 8;

/// Why a sealed set's raw-document scans run without the anchor gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateOff {
    /// Some signature has no anchor, so no document is a proven miss.
    Unanchored,
    /// A block-shift table of the gate is saturated and would cost more
    /// than lexing.
    NoSkip,
}

impl fmt::Display for GateOff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GateOff::Unanchored => "unanchored",
            GateOff::NoSkip => "no-skip",
        })
    }
}

/// The sealed, immutable scan structures of one [`SignatureSet`]: the
/// anchor gate, the anchor trie, the per-literal candidate buckets, the
/// per-signature prefilters and the unanchored fallback list. Built by
/// [`SignatureSet::seal`] and shared by `Arc` across clones.
#[derive(Debug)]
pub struct ScanPipeline {
    /// Stage 0: the raw-byte gate over every distinct anchor literal.
    gate: Result<AnchorGate, GateOff>,
    /// Stage 1: one trie over every distinct anchor literal.
    automaton: AnchorAutomaton,
    /// The distinct anchor literals, indexed by trie pattern id.
    literals: Vec<String>,
    /// Pattern id → `(signature index, anchor element offset)` for every
    /// signature anchored on that literal, ascending by signature index.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Stage 2: one prefilter per signature (aligned with the set).
    filters: Vec<SigFilter>,
    /// Signatures with no selective literal, scanned linearly.
    unanchored: Vec<u32>,
}

impl ScanPipeline {
    /// Build the pipeline for a signature slice (insertion order).
    #[must_use]
    pub fn build(signatures: &[LabeledSignature]) -> Self {
        let mut literals: Vec<String> = Vec::new();
        let mut literal_ids: HashMap<&str, u32> = HashMap::new();
        let mut buckets: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut unanchored: Vec<u32> = Vec::new();
        let mut filters: Vec<SigFilter> = Vec::with_capacity(signatures.len());
        for (index, labeled) in signatures.iter().enumerate() {
            let index = u32::try_from(index).expect("signature count fits u32");
            filters.push(SigFilter::of(&labeled.signature));
            match anchor_of(&labeled.signature) {
                Some((offset, text)) => {
                    let pattern = *literal_ids.entry(text).or_insert_with(|| {
                        literals.push(text.to_string());
                        buckets.push(Vec::new());
                        u32::try_from(literals.len() - 1).expect("literal count fits u32")
                    });
                    buckets[pattern as usize]
                        .push((index, u32::try_from(offset).expect("offset fits u32")));
                }
                None => unanchored.push(index),
            }
        }
        let gate = if unanchored.is_empty() {
            AnchorGate::build(&literals).ok_or(GateOff::NoSkip)
        } else {
            Err(GateOff::Unanchored)
        };
        ScanPipeline {
            gate,
            automaton: AnchorAutomaton::build(&literals),
            literals,
            buckets,
            filters,
            unanchored,
        }
    }

    /// Number of distinct anchor literals.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.literals.len()
    }

    /// Why raw-document scans are lexed without the anchor gate, or
    /// `None` when the gate is on.
    #[must_use]
    pub fn gate_off(&self) -> Option<GateOff> {
        self.gate.as_ref().err().copied()
    }

    /// Number of signatures on the linear fallback path.
    #[cfg(test)]
    fn unanchored_count(&self) -> usize {
        self.unanchored.len()
    }

    /// Stage 0: does the gate prove `document` a miss? Such a document
    /// still counts as a scan.
    fn gate_rejects(&self, document: &str) -> bool {
        let Ok(gate) = &self.gate else {
            return false;
        };
        if gate.may_match(document) {
            return false;
        }
        if kizzle_telemetry::enabled() {
            scan_metrics::ScanCounts {
                scans: 1,
                gate_rejected: 1,
                ..Default::default()
            }
            .commit();
        }
        true
    }

    /// The staged scan: returns the index of the first matching signature
    /// in insertion order — exactly the linear scan's answer, reached
    /// through the three stages.
    fn scan(
        &self,
        signatures: &[LabeledSignature],
        tokens: Tokens<'_>,
        scratch: &mut MatchScratch,
    ) -> Option<usize> {
        let tel = kizzle_telemetry::enabled();
        let mut counts = scan_metrics::ScanCounts::default();
        if tel {
            counts.scans = 1;
        }
        let best = self.scan_staged(signatures, tokens, scratch, tel, &mut counts);
        if tel {
            counts.commit();
        }
        best
    }

    fn scan_staged(
        &self,
        signatures: &[LabeledSignature],
        tokens: Tokens<'_>,
        scratch: &mut MatchScratch,
        tel: bool,
        counts: &mut scan_metrics::ScanCounts,
    ) -> Option<usize> {
        let mut best: Option<usize> = None;
        // Stage 2 profiles the candidate windows only, so anchor-free
        // documents never pay for a profile.
        scratch.profile.reset();
        for (position, unquoted) in tokens.unquoted_bytes().enumerate() {
            let Some(pattern) = self.automaton.match_token(unquoted) else {
                continue;
            };
            if tel {
                counts.anchor_hits += 1;
            }
            let hit = self.check_hit(
                signatures, tokens, scratch, pattern, position, best, tel, counts,
            );
            if let Some(index) = hit {
                best = hit;
                if index == 0 {
                    // Signature 0 is first in insertion order; nothing
                    // can beat it, so stop scanning.
                    return best;
                }
            }
        }
        // Unanchored signatures cannot use the trie; check them
        // directly.
        for &index in &self.unanchored {
            let index = index as usize;
            if best.is_some_and(|b| index >= b) {
                break;
            }
            if tel {
                counts.unanchored_checked += 1;
            }
            if signatures[index].signature.find_in_tokens(tokens).is_some() {
                best = Some(index);
            }
        }
        best
    }

    /// Stages 2 and 3 for one anchor hit: the first signature, in
    /// insertion order and below `best`, whose window around `position`
    /// matches. Kept out of line so that the token loop around the anchor
    /// trie holds its state in registers on the miss path.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn check_hit(
        &self,
        signatures: &[LabeledSignature],
        tokens: Tokens<'_>,
        scratch: &mut MatchScratch,
        pattern: u32,
        position: usize,
        best: Option<usize>,
        tel: bool,
        counts: &mut scan_metrics::ScanCounts,
    ) -> Option<usize> {
        let MatchScratch { profile, eligible } = scratch;
        // Gather pass: bounds, best-index pruning and the histogram
        // pre-gate stay scalar (they are O(1) each); survivors queue
        // for the batched window check.
        eligible.clear();
        for &(index, offset) in &self.buckets[pattern as usize] {
            let index = index as usize;
            // Buckets ascend by signature index: nothing after this
            // candidate can beat the running best.
            if best.is_some_and(|b| index >= b) {
                break;
            }
            let Some(start) = position.checked_sub(offset as usize) else {
                continue;
            };
            let filter = &self.filters[index];
            let n = filter.len();
            if start + n > tokens.len() {
                continue;
            }
            profile.ensure(tokens, start, start + n);
            if n >= HIST_GATE_MIN_SIG_LEN && filter.hist_rejects(profile, start) {
                debug_assert!(!window_matches(
                    &signatures[index].signature,
                    tokens,
                    position,
                    offset as usize
                ));
                if tel {
                    counts.prefilter_rejected += 1;
                }
                continue;
            }
            if tel {
                counts.prefilter_checked += 1;
            }
            profile.resolve(tokens, filter, start);
            eligible.push((index, start));
        }
        // Batched window check: up to 8 candidate windows per group
        // evaluated lane-parallel over the shared profile, then the
        // survivors confirmed in ascending signature index order —
        // the first confirmation is the bucket's best (buckets
        // ascend), so the rest of the hit is pruned.
        for group in eligible.chunks(8) {
            let mut lanes = [(&self.filters[group[0].0], group[0].1); 8];
            for (lane, &(index, start)) in group.iter().enumerate() {
                lanes[lane] = (&self.filters[index], start);
            }
            let mask = windows_pass_batch(profile, &lanes[..group.len()]);
            for (lane, &(index, start)) in group.iter().enumerate() {
                let passed = mask >> lane & 1 == 1;
                debug_assert_eq!(
                    passed,
                    self.filters[index]
                        .window_passes(profile.window(start, self.filters[index].len())),
                    "batch lane diverged from the scalar oracle"
                );
                if !passed {
                    debug_assert!(!window_matches(
                        &signatures[index].signature,
                        tokens,
                        position,
                        position - start
                    ));
                    if tel {
                        counts.prefilter_rejected += 1;
                    }
                    continue;
                }
                // Stage 3: classes are already exact; confirm literal
                // text (the profile only compared a fingerprint).
                if !confirm_literals(&signatures[index].signature, tokens, start) {
                    if tel {
                        counts.verify_rejected += 1;
                    }
                    continue;
                }
                if tel {
                    counts.verify_confirmed += 1;
                }
                debug_assert!(window_matches(
                    &signatures[index].signature,
                    tokens,
                    position,
                    position - start
                ));
                return Some(index);
            }
        }
        None
    }
}

/// Confirm every `Literal` element's text over the window at `start` —
/// the only part of a prefilter pass that is fingerprint-strength rather
/// than exact.
fn confirm_literals(signature: &Signature, tokens: Tokens<'_>, start: usize) -> bool {
    signature
        .elements
        .iter()
        .zip(tokens.window(start, signature.elements.len()))
        .all(|(element, token)| match element {
            Element::Literal(text) => text == token.unquoted(),
            Element::Class { .. } => true,
        })
}

impl SignatureSet {
    /// Create an empty set.
    #[must_use]
    pub fn new() -> Self {
        SignatureSet::default()
    }

    /// Number of signatures in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// True if the set contains no signatures.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Add a signature under a family label. If an identical signature is
    /// already present under the same label, the set is unchanged and
    /// `false` is returned. Adding drops the sealed pipeline; the next
    /// scan (or explicit [`SignatureSet::seal`]) rebuilds it.
    pub fn add(&mut self, label: impl Into<String>, signature: Signature) -> bool {
        let label = label.into();
        let index = self.signatures.len();
        let bucket = self
            .dedup
            .entry(dedup_key(&label, &signature.elements))
            .or_default();
        if bucket.iter().any(|&i| {
            let existing = &self.signatures[i];
            existing.label == label && existing.signature.elements == signature.elements
        }) {
            return false;
        }
        bucket.push(index);
        if !self.label_order.contains(&label) {
            self.label_order.push(label.clone());
        }
        self.pipeline.take();
        self.signatures.push(LabeledSignature { label, signature });
        true
    }

    /// The sealed scan pipeline, building it on first use. Publish paths
    /// call this eagerly (for the side effect) so the build cost lands at
    /// compile/publish time, not on the first scanned document.
    pub fn seal(&self) -> &ScanPipeline {
        self.pipeline
            .get_or_init(|| Arc::new(ScanPipeline::build(&self.signatures)))
    }

    /// True once the pipeline is built (and not invalidated since).
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.pipeline.get().is_some()
    }

    /// Iterate over the labeled signatures.
    pub fn iter(&self) -> std::slice::Iter<'_, LabeledSignature> {
        self.signatures.iter()
    }

    /// The signature at insertion-order `index` (what
    /// [`SignatureSet::scan_stream_nearest`] reports).
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&LabeledSignature> {
        self.signatures.get(index)
    }

    /// Signatures carrying a specific label.
    #[must_use]
    pub fn for_label(&self, label: &str) -> Vec<&LabeledSignature> {
        self.signatures
            .iter()
            .filter(|s| s.label == label)
            .collect()
    }

    /// Scan an already tokenized sample; returns the first matching
    /// signature in insertion order (the same answer the linear scan
    /// gives), located through the staged pipeline.
    #[must_use]
    pub fn scan_stream(&self, stream: &TokenStream) -> Option<&LabeledSignature> {
        let index = self.scan_stream_index(stream)?;
        Some(&self.signatures[index])
    }

    /// Like [`SignatureSet::scan_stream`] but returning the matching
    /// signature's *index* into insertion order. The serve-tier wire
    /// protocol reports hits by index (stable across every worker holding
    /// the same published set), and [`SignatureSet::get`] resolves it back.
    #[must_use]
    pub fn scan_stream_index(&self, stream: &TokenStream) -> Option<usize> {
        with_scratch(|scratch| {
            self.seal()
                .scan(&self.signatures, stream.tokens(), &mut scratch.matching)
        })
    }

    /// Scan a raw HTML/JavaScript document truncated to its first `cap`
    /// tokens (see [`kizzle_js::tokenize_document_capped`]), returning the
    /// matching signature's index — [`SignatureSet::scan_stream_index`]
    /// without the stream. A document the anchor gate proves a miss is
    /// answered without being lexed; any other is lexed into this thread's
    /// scratch and matched in place, the same scan over a borrowed view.
    /// This is the path a serving worker runs; once a thread's scratch has
    /// grown to its documents it allocates nothing.
    #[must_use]
    pub fn scan_document_index(&self, document: &str, cap: usize) -> Option<usize> {
        let pipeline = self.seal();
        if pipeline.gate_rejects(document) {
            return None;
        }
        with_scratch(|scratch| {
            let (tokens, _) = lex_document(document, cap, &mut scratch.spans);
            pipeline.scan(&self.signatures, tokens, &mut scratch.matching)
        })
    }

    /// The signature closest to the stream under the semi-global edit
    /// distance of [`crate::verify`], within `max_edits`. Ties in distance
    /// go to the earlier signature; 0 edits coincides with
    /// [`SignatureSet::scan_stream`]'s match. The cutoff narrows to
    /// `best - 1` as the running best improves, and signatures whose
    /// class/literal demands the whole stream provably cannot meet are
    /// skipped without any DP.
    #[must_use]
    pub fn scan_stream_nearest(
        &self,
        stream: &TokenStream,
        max_edits: usize,
    ) -> Option<NearestMatch> {
        if self.signatures.is_empty() {
            return None;
        }
        let pipeline = self.seal();
        let summary = StreamSummary::of(stream.tokens());
        let mut best: Option<NearestMatch> = None;
        for (index, labeled) in self.signatures.iter().enumerate() {
            // A later signature only wins with strictly fewer edits.
            let cutoff = match best {
                Some(b) => {
                    if b.edits == 0 {
                        break;
                    }
                    b.edits - 1
                }
                None => max_edits,
            };
            if stream_deficit(&pipeline.filters[index], &summary) > cutoff {
                continue;
            }
            if let Some(edits) =
                nearest_in_stream(&labeled.signature.elements, stream.tokens(), cutoff)
            {
                best = Some(NearestMatch { index, edits });
            }
        }
        best
    }

    /// All labels with at least one signature, deduplicated, in insertion
    /// order.
    #[must_use]
    pub fn labels(&self) -> Vec<&str> {
        self.label_order.iter().map(String::as_str).collect()
    }

    /// Serialize the set's members in insertion order (which the scan's
    /// first-match semantics depend on). The pipeline is never included:
    /// it is derived, and the decoded set rebuilds it at its first
    /// [`SignatureSet::seal`].
    pub fn encode_into(&self, enc: &mut Encoder) {
        enc.usize(self.signatures.len());
        for labeled in &self.signatures {
            enc.str(&labeled.label);
            enc.str(&labeled.signature.name);
            enc.usize(labeled.signature.support);
            enc.usize(labeled.signature.elements.len());
            for element in &labeled.signature.elements {
                match element {
                    Element::Literal(text) => {
                        enc.u8(0);
                        enc.str(text);
                    }
                    Element::Class {
                        class,
                        min_len,
                        max_len,
                    } => {
                        enc.u8(1);
                        enc.u8(char_class_code(*class));
                        enc.usize(*min_len);
                        enc.usize(*max_len);
                    }
                }
            }
        }
    }

    /// Rebuild a set from [`SignatureSet::encode_into`] output; the dedup
    /// and label tables are re-derived by re-adding in order, and the
    /// set is left unsealed.
    pub fn decode_from(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let corrupt = |what: &str| SnapshotError::Corrupt(format!("signature set: {what}"));
        let count = dec.usize()?;
        let mut set = SignatureSet::new();
        for _ in 0..count {
            let label = dec.str()?.to_string();
            let name = dec.str()?.to_string();
            let support = dec.usize()?;
            let element_count = dec.usize()?;
            if element_count == 0 {
                return Err(corrupt("signature without elements"));
            }
            let mut elements = Vec::with_capacity(element_count.min(1 << 16));
            for _ in 0..element_count {
                elements.push(match dec.u8()? {
                    0 => Element::Literal(dec.str()?.to_string()),
                    1 => {
                        let class = char_class_from_code(dec.u8()?)
                            .ok_or_else(|| corrupt("unknown character class"))?;
                        let min_len = dec.usize()?;
                        let max_len = dec.usize()?;
                        if min_len > max_len {
                            return Err(corrupt("inverted class length range"));
                        }
                        Element::Class {
                            class,
                            min_len,
                            max_len,
                        }
                    }
                    other => return Err(corrupt(&format!("unknown element tag {other}"))),
                });
            }
            set.add(label, Signature::new(name, elements, support));
        }
        Ok(set)
    }
}

/// Stable wire code of a [`CharClass`] (part of the signature-set wire
/// format; distinct from the enum discriminant by design — the wire
/// format must survive enum reordering).
#[must_use]
pub fn char_class_code(class: CharClass) -> u8 {
    match class {
        CharClass::Lower => 0,
        CharClass::Upper => 1,
        CharClass::Alpha => 2,
        CharClass::Digits => 3,
        CharClass::HexLower => 4,
        CharClass::AlphaNum => 5,
        CharClass::Wordlike => 6,
        CharClass::Any => 7,
    }
}

/// Inverse of [`char_class_code`].
#[must_use]
pub fn char_class_from_code(code: u8) -> Option<CharClass> {
    Some(match code {
        0 => CharClass::Lower,
        1 => CharClass::Upper,
        2 => CharClass::Alpha,
        3 => CharClass::Digits,
        4 => CharClass::HexLower,
        5 => CharClass::AlphaNum,
        6 => CharClass::Wordlike,
        7 => CharClass::Any,
        _ => return None,
    })
}

impl PartialEq for SignatureSet {
    fn eq(&self, other: &Self) -> bool {
        // The lookup structures (dedup, labels, pipeline) are derived from
        // `signatures`; comparing the members is the whole story.
        self.signatures == other.signatures
    }
}

impl Eq for SignatureSet {}

impl Extend<LabeledSignature> for SignatureSet {
    fn extend<T: IntoIterator<Item = LabeledSignature>>(&mut self, iter: T) {
        for item in iter {
            self.add(item.label, item.signature);
        }
    }
}

impl fmt::Display for SignatureSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SignatureSet ({} signatures)", self.signatures.len())?;
        for sig in &self.signatures {
            writeln!(f, "  [{}] {}", sig.label, sig.signature.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_signature;
    use crate::pattern::SignatureConfig;
    use kizzle_js::tokenize;

    /// An uncapped raw-document scan.
    fn scan_document<'a>(set: &'a SignatureSet, document: &str) -> Option<&'a LabeledSignature> {
        set.get(set.scan_document_index(document, usize::MAX)?)
    }

    /// The linear oracle: the first signature in insertion order matching
    /// anywhere in the stream.
    fn scan_linear<'a>(
        set: &'a SignatureSet,
        stream: &TokenStream,
    ) -> Option<&'a LabeledSignature> {
        set.iter().find(|s| s.signature.matches_stream(stream))
    }

    fn nuclear_like_signature() -> Signature {
        let samples = vec![
            tokenize(r#"Euur1V = this["l9D"]("ev#333399al");"#),
            tokenize(r#"jkb0hA = this["uqA"]("ev#ccff00al");"#),
        ];
        generate_signature(
            "NEK.sig1",
            &samples,
            &SignatureConfig {
                min_tokens: 4,
                ..SignatureConfig::default()
            },
        )
        .unwrap()
    }

    fn rig_like_signature() -> Signature {
        let samples = vec![
            tokenize(r#"pieces = buffer.split(delim); el.text += String.fromCharCode(pieces[i]);"#),
            tokenize(r#"parts = acc.split(dl); el.text += String.fromCharCode(parts[j]);"#),
        ];
        generate_signature(
            "RIG.sig1",
            &samples,
            &SignatureConfig {
                min_tokens: 4,
                ..SignatureConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn scan_returns_the_matching_label() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        set.add("RIG", rig_like_signature());
        assert_eq!(set.len(), 2);

        let hit = scan_document(
            &set,
            r#"<script>zZzQ9p = this["abc"]("ev#000000al");</script>"#,
        )
        .expect("should match Nuclear");
        assert_eq!(hit.label, "Nuclear");

        let hit = scan_document(
            &set,
            r#"<script>piece = buf.split(del); el.text += String.fromCharCode(piece[k]);</script>"#,
        )
        .expect("should match RIG");
        assert_eq!(hit.label, "RIG");

        assert!(scan_document(&set, "<script>function benign() { return 42; }</script>").is_none());
    }

    #[test]
    fn anchored_scan_agrees_with_linear_scan() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        set.add("RIG", rig_like_signature());
        for doc in [
            r#"<script>zZzQ9p = this["abc"]("ev#000000al");</script>"#,
            r#"<script>piece = buf.split(del); el.text += String.fromCharCode(piece[k]);</script>"#,
            "<script>function benign() { return 42; }</script>",
            "",
            "<script>this this this = = = fromCharCode</script>",
        ] {
            let stream = kizzle_js::tokenize_document(doc);
            let staged = set.scan_stream(&stream).map(|s| s.signature.name.clone());
            let linear = scan_linear(&set, &stream).map(|s| s.signature.name.clone());
            assert_eq!(staged, linear, "doc: {doc}");
        }
    }

    #[test]
    fn first_match_in_insertion_order_wins() {
        // Two signatures that both match the same document; the earlier
        // one must win, exactly as in the linear scan.
        let early = Signature::new(
            "early",
            vec![
                Element::Literal("this".to_string()),
                Element::Literal("[".to_string()),
            ],
            1,
        );
        let late = Signature::new(
            "late",
            vec![
                Element::Literal("[".to_string()),
                Element::Class {
                    class: CharClass::Any,
                    min_len: 1,
                    max_len: 64,
                },
                Element::Literal("]".to_string()),
            ],
            1,
        );
        let mut set = SignatureSet::new();
        set.add("A", late.clone());
        set.add("B", early.clone());
        let stream = tokenize(r#"x = this["y"]"#);
        assert_eq!(set.scan_stream(&stream).unwrap().signature.name, "late");

        let mut reversed = SignatureSet::new();
        reversed.add("B", early);
        reversed.add("A", late);
        assert_eq!(
            reversed.scan_stream(&stream).unwrap().signature.name,
            "early"
        );
    }

    #[test]
    fn unanchored_signature_still_matches() {
        // A signature of pure character classes has no literal anchor and
        // must fall back to the linear path.
        let classes_only = Signature::new(
            "classes",
            vec![
                Element::Class {
                    class: CharClass::Lower,
                    min_len: 3,
                    max_len: 8,
                },
                Element::Class {
                    class: CharClass::Digits,
                    min_len: 1,
                    max_len: 4,
                },
            ],
            1,
        );
        let mut set = SignatureSet::new();
        set.add("X", classes_only);
        assert_eq!(set.seal().unanchored_count(), 1);
        assert!(set.scan_stream(&tokenize("abc 123")).is_some());
        assert!(set.scan_stream(&tokenize("ABC 123")).is_none());
    }

    #[test]
    fn adding_a_signature_invalidates_the_sealed_pipeline() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        assert!(!set.is_sealed());
        let _ = set.seal();
        assert!(set.is_sealed());
        set.add("RIG", rig_like_signature());
        assert!(!set.is_sealed(), "add must drop the stale pipeline");
        // The resealed pipeline covers both signatures.
        let stream = kizzle_js::tokenize_document(
            r#"<script>piece = buf.split(del); el.text += String.fromCharCode(piece[k]);</script>"#,
        );
        assert_eq!(set.scan_stream(&stream).unwrap().label, "RIG");
    }

    #[test]
    fn cloning_a_sealed_set_shares_the_pipeline() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        let _ = set.seal();
        let clone = set.clone();
        assert!(clone.is_sealed(), "clone keeps the sealed pipeline");
        assert!(
            std::ptr::eq(set.seal(), clone.seal()),
            "shared, not rebuilt"
        );
        // An unsealed set clones unsealed.
        let mut lazy = SignatureSet::new();
        lazy.add("Nuclear", nuclear_like_signature());
        assert!(!lazy.clone().is_sealed());
    }

    #[test]
    fn shared_anchor_literal_fans_out_through_one_bucket() {
        // Many signatures anchored on the same literal but with different
        // class length ranges: the prefilter must pick exactly the right
        // one, in insertion order.
        let mut set = SignatureSet::new();
        for i in 0..50usize {
            set.add(
                "X",
                Signature::new(
                    format!("shared.sig{i}"),
                    vec![
                        Element::Literal("sharedAnchor".to_string()),
                        Element::Class {
                            class: CharClass::Digits,
                            min_len: i + 1,
                            max_len: i + 1,
                        },
                    ],
                    1,
                ),
            );
        }
        assert_eq!(set.seal().literal_count(), 1, "one shared literal");
        // A document whose digit run is 8 long matches exactly sig7.
        let stream = tokenize("sharedAnchor 12345678");
        assert_eq!(
            set.scan_stream(&stream).unwrap().signature.name,
            "shared.sig7"
        );
        let linear = scan_linear(&set, &stream).unwrap();
        assert_eq!(linear.signature.name, "shared.sig7");
        assert!(set.scan_stream(&tokenize("sharedAnchor x")).is_none());
    }

    #[test]
    fn duplicate_signatures_are_not_added_twice() {
        let mut set = SignatureSet::new();
        assert!(set.add("Nuclear", nuclear_like_signature()));
        assert!(!set.add("Nuclear", nuclear_like_signature()));
        assert_eq!(set.len(), 1);
        // The same elements under a different label are allowed (families
        // borrow code from each other).
        assert!(set.add("RIG", nuclear_like_signature()));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn labels_and_for_label() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        set.add("RIG", rig_like_signature());
        set.add("Nuclear", rig_like_signature());
        assert_eq!(set.labels(), vec!["Nuclear", "RIG"]);
        assert_eq!(set.for_label("Nuclear").len(), 2);
        assert_eq!(set.for_label("Angler").len(), 0);
        assert_eq!(set.get(0).unwrap().label, "Nuclear");
        assert!(set.get(3).is_none());
    }

    #[test]
    fn empty_set_matches_nothing() {
        let set = SignatureSet::new();
        assert!(set.is_empty());
        assert!(scan_document(&set, "<script>anything()</script>").is_none());
        assert!(set.scan_stream_nearest(&tokenize("anything"), 10).is_none());
    }

    #[test]
    fn extend_deduplicates() {
        let mut set = SignatureSet::new();
        let items = vec![
            LabeledSignature {
                label: "Nuclear".to_string(),
                signature: nuclear_like_signature(),
            },
            LabeledSignature {
                label: "Nuclear".to_string(),
                signature: nuclear_like_signature(),
            },
        ];
        set.extend(items);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn display_lists_signatures() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        let text = set.to_string();
        assert!(text.contains("1 signatures"));
        assert!(text.contains("NEK.sig1"));
    }

    #[test]
    fn nearest_scan_agrees_with_exact_scan_on_hits() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        set.add("RIG", rig_like_signature());
        let stream = kizzle_js::tokenize_document(
            r#"<script>zZzQ9p = this["abc"]("ev#000000al");</script>"#,
        );
        let exact = set.scan_stream(&stream).expect("exact match");
        let nearest = set.scan_stream_nearest(&stream, 5).expect("nearest");
        assert_eq!(nearest.edits, 0);
        assert_eq!(set.get(nearest.index).unwrap().label, exact.label);
    }

    #[test]
    fn nearest_scan_grades_near_misses() {
        let mut set = SignatureSet::new();
        set.add(
            "X",
            Signature::new(
                "x.sig1",
                vec![
                    Element::Literal("decode".to_string()),
                    Element::Literal("(".to_string()),
                    Element::Literal("payload".to_string()),
                    Element::Literal(")".to_string()),
                ],
                1,
            ),
        );
        // One token substituted inside the window: distance 1.
        let stream = tokenize("decode(other)");
        assert!(set.scan_stream(&stream).is_none(), "not an exact match");
        let nearest = set.scan_stream_nearest(&stream, 3).expect("graded");
        assert_eq!(nearest.edits, 1);
        // Budget below the distance: no hit.
        assert!(set.scan_stream_nearest(&stream, 0).is_none());
        // Ties in distance go to the earlier signature; strictly closer
        // later signatures win.
        set.add(
            "Y",
            Signature::new(
                "y.sig1",
                vec![
                    Element::Literal("decode".to_string()),
                    Element::Literal("(".to_string()),
                    Element::Literal("other".to_string()),
                    Element::Literal(")".to_string()),
                ],
                1,
            ),
        );
        let nearest = set.scan_stream_nearest(&stream, 3).expect("graded");
        assert_eq!((nearest.index, nearest.edits), (1, 0));
    }

    #[test]
    fn set_codec_roundtrips_and_rejects_damage() {
        let mut set = SignatureSet::new();
        set.add("Nuclear", nuclear_like_signature());
        set.add("RIG", rig_like_signature());
        let mut enc = Encoder::new();
        set.encode_into(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let restored = SignatureSet::decode_from(&mut dec).expect("decodes");
        dec.finish().expect("fully consumed");
        assert_eq!(restored, set);
        assert_eq!(restored.labels(), set.labels());
        assert!(!restored.is_sealed(), "codec ships members, not pipeline");
        // Truncations fail cleanly.
        let mut dec = Decoder::new(&bytes[..bytes.len() - 3]);
        assert!(SignatureSet::decode_from(&mut dec)
            .and_then(|_| dec.finish())
            .is_err());
    }

    #[test]
    fn char_class_codes_roundtrip() {
        for class in CharClass::TEMPLATES {
            assert_eq!(char_class_from_code(char_class_code(class)), Some(class));
        }
        assert_eq!(char_class_from_code(99), None);
    }
}
