//! Batched candidate prefilter — stage 2 of the scan pipeline.
//!
//! The anchor automaton (stage 1) reports *where* a signature's anchor
//! literal occurs; this module decides, cheaply, whether the surrounding
//! token window can possibly satisfy the whole signature before the exact
//! verifier (stage 3) touches any string data. It borrows the cluster
//! index's histogram idiom — compare cheap per-item summaries before the
//! expensive kernel — and lays everything out SIMD-friendly: fixed-width
//! [`ElemCheck`] records evaluated in a branch-free loop of integer
//! compares and mask tests over precomputed [`TokenProfile`]s.
//!
//! Two levels, cheapest first:
//!
//! 1. **Window class histogram** ([`SigFilter::hist_rejects`]): for each
//!    of the 8 [`CharClass`]es, the window must contain at least as many
//!    tokens *acceptable* to class `c` as the signature has `Class`
//!    elements of class `c`. Eight subtractions against prefix sums —
//!    `O(1)` in the signature length, so it runs first for long
//!    signatures fanned out behind a shared anchor literal.
//! 2. **Element-wise profile check** ([`SigFilter::window_passes`]): one
//!    fixed-width compare per element against the token profile at its
//!    offset. For `Class` elements the check is **exact** (length range +
//!    acceptability bit reproduce `Element::matches_token` precisely);
//!    for `Literal` elements it compares a 32-bit [`fingerprint32`] that
//!    reads at most 16 bytes of the token (and holds the byte length of a
//!    longer one) plus, for a literal of at most 16 bytes, the character
//!    count. A pass still needs stage 3's literal text confirmation
//!    (fingerprint collisions) but a fail is final.
//!
//! Profiles cover only the candidate windows ([`StreamProfile`]): a
//! document whose tokens never hit the automaton pays nothing here,
//! keeping the miss path at stage-1 cost, and a hit pays for the tokens
//! around its anchor, not for the page before them. A token of at most 16
//! bytes is profiled by [`profile_bytes`], a single branch-free pass over
//! its bytes plus the fingerprint's constant-size read. A longer token —
//! a string literal, a payload chunk — is first recorded by its
//! fingerprint alone, with every class bit set, which is all a `Literal`
//! check needs and leaves the histogram sound. The byte pass runs on it
//! only when a `Class` element of a candidate window lands on it
//! ([`StreamProfile::resolve`]), so the element check stays exact.

use crate::pattern::{CharClass, Element, Signature};
use kizzle_js::Tokens;

/// Per-token summary the branch-free checks compare against. A stream
/// profile may also hold a long token's summary without its byte pass:
/// its byte count in `chars` and every bit in `mask` (see
/// [`StreamProfile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TokenProfile {
    /// Character (not byte) count of the token's unquoted text.
    pub chars: u32,
    /// [`fingerprint32`] of the unquoted bytes.
    pub fingerprint: u32,
    /// Bit `c` set iff the [`CharClass`] with discriminant `c` accepts
    /// every character.
    pub mask: u8,
}

const FNV_OFFSET: u32 = 0x811c_9dc5;

/// Continue an FNV-1a 32-bit hash over `bytes`.
#[inline]
fn fnv1a32_from(mut hash: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// FNV-1a, 32-bit: [`fingerprint32`] of a short token.
#[must_use]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    fnv1a32_from(FNV_OFFSET, bytes)
}

/// Tokens up to this many bytes are fingerprinted whole.
pub const FINGERPRINT_WHOLE_LEN: usize = 16;

/// The literal side of [`TokenProfile`], in `O(1)` of the token length:
/// [`fnv1a32`] of the whole token up to [`FINGERPRINT_WHOLE_LEN`] bytes,
/// beyond that of its first 8 bytes, its last 8 bytes and its length as a
/// little-endian `u32`. Two tokens with equal fingerprints may still
/// differ in the middle — the scan confirms literal text after the
/// prefilter passes — but unequal fingerprints never belong to equal
/// tokens.
#[must_use]
pub fn fingerprint32(bytes: &[u8]) -> u32 {
    if bytes.len() <= FINGERPRINT_WHOLE_LEN {
        return fnv1a32(bytes);
    }
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    let hash = fnv1a32_from(FNV_OFFSET, &bytes[..8]);
    let hash = fnv1a32_from(hash, &bytes[bytes.len() - 8..]);
    fnv1a32_from(hash, &len.to_le_bytes())
}

/// The byte categories the profile pass tells apart, one bit each in this
/// order — `a–f`, `g–z`, `A–Z`, `0–9`, the eight `Wordlike` punctuation
/// bytes `_ . : / ? = & -`, and every other byte — with the classes that
/// accept a byte of that category. Every byte of a multi-byte UTF-8
/// character is "other", as is the character (only [`CharClass::Any`]
/// accepts it), so a token's class mask follows from the set of
/// categories its bytes fall in.
const CATEGORY_MASKS: [u8; 6] = {
    use CharClass::{Alpha, AlphaNum, Any, Digits, HexLower, Lower, Upper, Wordlike};
    const fn bits(classes: &[CharClass]) -> u8 {
        let mut mask = 0;
        let mut i = 0;
        while i < classes.len() {
            mask |= 1 << (classes[i] as u8);
            i += 1;
        }
        mask
    }
    [
        bits(&[Lower, Alpha, HexLower, AlphaNum, Wordlike, Any]),
        bits(&[Lower, Alpha, AlphaNum, Wordlike, Any]),
        bits(&[Upper, Alpha, AlphaNum, Wordlike, Any]),
        bits(&[Digits, HexLower, AlphaNum, Wordlike, Any]),
        bits(&[Wordlike, Any]),
        bits(&[Any]),
    ]
};

/// The category bit of one byte (bit order of [`CATEGORY_MASKS`]) —
/// compares only, so a loop of these vectorizes.
#[inline(always)]
const fn category(b: u8) -> u8 {
    let hex = (b.wrapping_sub(b'a') < 6) as u8;
    let lower = (b.wrapping_sub(b'g') < 20) as u8;
    let upper = (b.wrapping_sub(b'A') < 26) as u8;
    let digit = (b.wrapping_sub(b'0') < 10) as u8;
    // `-./` are adjacent; `: = ? & _` are not.
    let punct = (b.wrapping_sub(b'-') < 3) as u8
        | (b == b':') as u8
        | (b == b'=') as u8
        | (b == b'?') as u8
        | (b == b'&') as u8
        | (b == b'_') as u8;
    let known = hex | lower | upper | digit | punct;
    hex | lower << 1 | upper << 2 | digit << 3 | punct << 4 | (known ^ 1) << 5
}

/// Is `b` a UTF-8 continuation byte (`10xx_xxxx`)? A token's character
/// count is its byte count less these.
#[inline(always)]
const fn is_continuation(b: u8) -> bool {
    b & 0xC0 == 0x80
}

/// [`category`] of every byte, with bit 7 set on continuation bytes: the
/// lookup the sub-block tail of a token takes, one load per byte where a
/// vector of compares would cost more than the few bytes it covers.
const BYTE_TABLE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = category(b as u8) | (is_continuation(b as u8) as u8) << 7;
        b += 1;
    }
    table
};

/// Bytes folded per block, one byte lane each: a block's categories OR
/// into the lanes and its continuation bytes count up per lane, and the
/// lanes are reduced once per [`RUN_BLOCKS`] blocks, not per block.
const PROFILE_BLOCK: usize = 32;

/// Blocks a lane's `u8` continuation count covers before it could wrap.
const RUN_BLOCKS: usize = u8::MAX as usize;

/// The class mask of a token by the set of categories its bytes fall in
/// (low six bits of the index): the classes that accept every one of
/// them. No categories — the empty string — is accepted by every class.
const PRESENT_MASKS: [u8; 64] = {
    let mut table = [0u8; 64];
    let mut present = 0;
    while present < 64 {
        let mut mask = 0xFF;
        let mut bit = 0;
        while bit < CATEGORY_MASKS.len() {
            if present >> bit & 1 == 1 {
                mask &= CATEGORY_MASKS[bit];
            }
            bit += 1;
        }
        table[present] = mask;
        present += 1;
    }
    table
};

/// OR of the categories and count of continuation bytes over whole
/// blocks (`bytes.len()` a multiple of [`PROFILE_BLOCK`]).
fn fold_blocks(bytes: &[u8]) -> (u8, usize) {
    let mut lanes = [0u8; PROFILE_BLOCK];
    let mut continuations = 0usize;
    for run in bytes.chunks(PROFILE_BLOCK * RUN_BLOCKS) {
        let mut counts = [0u8; PROFILE_BLOCK];
        for block in run.chunks_exact(PROFILE_BLOCK) {
            for ((lane, count), &b) in lanes.iter_mut().zip(&mut counts).zip(block) {
                *lane |= category(b);
                *count += u8::from(is_continuation(b));
            }
        }
        continuations += counts.iter().map(|&c| usize::from(c)).sum::<usize>();
    }
    (lanes.iter().fold(0, |acc, &lane| acc | lane), continuations)
}

/// Profile one token's unquoted text, as UTF-8 `bytes`: one pass over them
/// for the character count and the class mask, and their
/// [`fingerprint32`]. The scan's profiles are cut from the document's text
/// at token boundaries, so the bytes are always UTF-8; `chars` counts the
/// bytes that do not continue a UTF-8 sequence.
#[inline]
#[must_use]
pub fn profile_bytes(bytes: &[u8]) -> TokenProfile {
    let (blocks, tail) = bytes.split_at(bytes.len() - bytes.len() % PROFILE_BLOCK);
    // Most tokens are shorter than a block: they are all tail.
    let (mut present, mut continuations) = if blocks.is_empty() {
        (0, 0)
    } else {
        fold_blocks(blocks)
    };
    for &b in tail {
        let entry = BYTE_TABLE[usize::from(b)];
        present |= entry;
        continuations += usize::from(entry >> 7);
    }
    TokenProfile {
        chars: u32::try_from(bytes.len() - continuations).unwrap_or(u32::MAX),
        fingerprint: fingerprint32(bytes),
        mask: PRESENT_MASKS[usize::from(present & 0x3F)],
    }
}

/// Every class bit: the mask of a token recorded without its byte pass.
const ALL_CLASSES: u8 = 0xFF;

/// What stage 2 records for one token's unquoted bytes. A token of at most
/// [`FINGERPRINT_WHOLE_LEN`] bytes gets its exact [`profile_bytes`]; a
/// longer one gets no byte pass: its [`fingerprint32`] (which holds its
/// byte length), its byte count for `chars` and every class in `mask`.
/// That is all a `Literal` check reads of a long token, and the histogram
/// gate can only reject less; [`StreamProfile::resolve`] runs the byte
/// pass on the long tokens a `Class` element lands on.
#[inline]
fn profile_token(bytes: &[u8]) -> TokenProfile {
    if bytes.len() <= FINGERPRINT_WHOLE_LEN {
        return profile_bytes(bytes);
    }
    TokenProfile {
        chars: u32::try_from(bytes.len()).unwrap_or(u32::MAX),
        fingerprint: fingerprint32(bytes),
        mask: ALL_CLASSES,
    }
}

/// Was `profile` recorded without its byte pass? Every byte falls in a
/// category that some class rejects, so a byte pass yields the all-classes
/// mask only for the empty token.
#[inline]
fn is_unprofiled(profile: &TokenProfile) -> bool {
    profile.mask == ALL_CLASSES && profile.chars != 0
}

/// Stage 2's token profiles over a scan's candidate windows, with
/// per-class prefix sums.
///
/// Coverage is one contiguous token range that grows to hold each window
/// [`StreamProfile::ensure`] is asked for: rightwards as the scan advances,
/// leftwards when a later anchor hit's window starts before it. A hit
/// pays for the tokens around its anchor, not for every token before it,
/// and a document with no anchor hit never touches a profile. A token of
/// more than [`FINGERPRINT_WHOLE_LEN`] bytes is recorded without its byte
/// pass until a `Class` element needs it ([`StreamProfile::resolve`]).
///
/// The prefix sums are only ever subtracted from each other, so they may
/// start anywhere: growing leftwards writes rows below the first one
/// (wrapping) and leaves the others alone. Room to grow leftwards is kept
/// in front of the covered profiles and made at least as large as the
/// coverage whenever it runs out, so moving the profiles costs amortized
/// `O(1)` per token. A profile is reusable: [`StreamProfile::reset`]
/// empties it and keeps its buffers, which is how the matcher's per-thread
/// scratch scans without allocating.
#[derive(Debug)]
pub struct StreamProfile {
    /// Token index of the first covered token.
    base: usize,
    /// Slot of the first covered token in `profiles` and `prefix`; the
    /// slots before it are room to grow leftwards.
    head: usize,
    profiles: Vec<TokenProfile>,
    /// `prefix[head + j][c] - prefix[head + i][c]` (wrapping) is the
    /// number of tokens in `[base + i, base + j)` whose mask has bit `c`.
    prefix: Vec<[u32; 8]>,
    /// Covered tokens recorded without their byte pass.
    unprofiled: usize,
}

impl Default for StreamProfile {
    fn default() -> Self {
        StreamProfile::new()
    }
}

impl StreamProfile {
    /// An empty profile; tokens are summarized on demand via
    /// [`StreamProfile::ensure`].
    #[must_use]
    pub fn new() -> Self {
        StreamProfile {
            base: 0,
            head: 0,
            profiles: Vec::new(),
            prefix: vec![[0u32; 8]],
            unprofiled: 0,
        }
    }

    /// Forget the profiled stream, keeping the buffers for the next one.
    pub fn reset(&mut self) {
        self.base = 0;
        self.head = 0;
        self.profiles.clear();
        // Rows are only subtracted from each other: any first row will do.
        self.prefix.truncate(1);
        self.unprofiled = 0;
    }

    /// Number of tokens covered.
    #[must_use]
    pub fn covered(&self) -> usize {
        self.profiles.len() - self.head
    }

    /// Tokens the buffers can profile without growing.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.profiles.capacity()
    }

    /// Slot of covered token `token`.
    #[inline]
    fn slot(&self, token: usize) -> usize {
        self.head + token - self.base
    }

    /// Extend coverage to hold tokens `[start, end)`, clamped to the
    /// stream; tokens between it and the current coverage are covered
    /// too. Every call between two [`StreamProfile::reset`]s must pass the
    /// same tokens.
    #[inline]
    pub fn ensure(&mut self, tokens: Tokens<'_>, start: usize, end: usize) {
        // Most windows of a hit are already covered by its first one.
        if start >= self.base && end <= self.base + self.covered() {
            return;
        }
        self.grow(tokens, start, end);
    }

    fn grow(&mut self, tokens: Tokens<'_>, start: usize, end: usize) {
        let end = end.min(tokens.len());
        if start >= end {
            return;
        }
        if self.covered() == 0 {
            self.base = start;
        }
        self.extend_right(tokens, end);
        if start < self.base {
            self.extend_left(tokens, start);
        }
    }

    /// Cover up to token `end` (exclusive).
    fn extend_right(&mut self, tokens: Tokens<'_>, end: usize) {
        let from = self.base + self.covered();
        if end <= from {
            return;
        }
        let first = self.profiles.len();
        self.profiles.extend(
            tokens
                .window(from, end - from)
                .unquoted_bytes()
                .map(profile_token),
        );
        let mut row = *self.prefix.last().expect("row 0 exists");
        let mut unprofiled = 0;
        self.prefix
            .extend(self.profiles[first..].iter().map(|profile| {
                unprofiled += usize::from(is_unprofiled(profile));
                for (c, slot) in row.iter_mut().enumerate() {
                    *slot = slot.wrapping_add(u32::from(profile.mask >> c & 1));
                }
                row
            }));
        self.unprofiled += unprofiled;
    }

    /// Cover down to token `start`, below the current base.
    fn extend_left(&mut self, tokens: Tokens<'_>, start: usize) {
        let grow = self.base - start;
        if self.head < grow {
            let room = grow.max(self.covered());
            let len = self.profiles.len();
            self.profiles.resize(len + room, TokenProfile::default());
            self.profiles.copy_within(self.head..len, self.head + room);
            let rows = self.prefix.len();
            self.prefix.resize(rows + room, [0u32; 8]);
            self.prefix.copy_within(self.head..rows, self.head + room);
            self.head += room;
        }
        let first = self.head - grow;
        for (slot, bytes) in self.profiles[first..self.head]
            .iter_mut()
            .zip(tokens.window(start, grow).unquoted_bytes())
        {
            *slot = profile_token(bytes);
            self.unprofiled += usize::from(is_unprofiled(slot));
        }
        // Each new row is the row after it less its token's classes.
        for i in (first..self.head).rev() {
            let mask = self.profiles[i].mask;
            let mut row = self.prefix[i + 1];
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = slot.wrapping_sub(u32::from(mask >> c & 1));
            }
            self.prefix[i] = row;
        }
        self.head = first;
        self.base = start;
    }

    /// Run the byte pass on each token of the window at `start` that is
    /// unprofiled and under one of `filter`'s `Class` elements, so that
    /// the window check decides every `Class` element exactly. The
    /// histogram keeps counting such a token in every class. The caller
    /// must have [`StreamProfile::ensure`]d coverage of the window.
    #[inline]
    pub fn resolve(&mut self, tokens: Tokens<'_>, filter: &SigFilter, start: usize) {
        if self.unprofiled != 0 {
            self.resolve_window(tokens, filter, start);
        }
    }

    fn resolve_window(&mut self, tokens: Tokens<'_>, filter: &SigFilter, start: usize) {
        let at = self.slot(start);
        let window = &mut self.profiles[at..at + filter.checks.len()];
        for (j, (check, profile)) in filter.checks.iter().zip(window).enumerate() {
            if check.kind == KIND_CLASS && is_unprofiled(profile) {
                *profile = profile_bytes(tokens.at(start + j).unquoted().as_bytes());
                self.unprofiled -= 1;
            }
        }
    }

    /// Profiles of the window `[start, start + len)` — the caller must
    /// have [`StreamProfile::ensure`]d coverage.
    #[must_use]
    pub fn window(&self, start: usize, len: usize) -> &[TokenProfile] {
        let at = self.slot(start);
        &self.profiles[at..at + len]
    }

    /// Count of tokens acceptable to class `c` within `[start, end)`, an
    /// unprofiled token counting for every class.
    #[inline]
    #[must_use]
    pub fn class_count(&self, c: usize, start: usize, end: usize) -> u32 {
        self.prefix[self.slot(end)][c].wrapping_sub(self.prefix[self.slot(start)][c])
    }
}

/// Element kinds in [`ElemCheck::kind`].
const KIND_LITERAL: u8 = 0;
const KIND_CLASS: u8 = 1;

/// One fixed-width, branch-free element check. 16 bytes, compared with
/// two integer range tests, one equality and one mask probe — no string
/// data touched.
#[derive(Debug)]
pub struct ElemCheck {
    /// Minimum unquoted character count (a literal of more than
    /// [`FINGERPRINT_WHOLE_LEN`] bytes: 0).
    min: u32,
    /// Maximum unquoted character count (a literal of more than
    /// [`FINGERPRINT_WHOLE_LEN`] bytes: `u32::MAX`).
    max: u32,
    /// For literals: [`fingerprint32`] of the literal bytes. Unused for
    /// classes.
    fingerprint: u32,
    /// For classes: the class index (bit position). Unused for literals.
    class_bit: u8,
    /// [`KIND_LITERAL`] or [`KIND_CLASS`].
    kind: u8,
}

impl ElemCheck {
    fn of(element: &Element) -> Self {
        match element {
            Element::Literal(text) => {
                // A long literal's fingerprint holds its byte length, and
                // a long token may carry its byte count or its character
                // count (once resolved): only the fingerprint is compared.
                // A short literal's character count never equals an
                // unprofiled token's byte count (over 16), and such a
                // token is longer than the literal anyway.
                let (min, max) = if text.len() <= FINGERPRINT_WHOLE_LEN {
                    let chars = u32::try_from(text.chars().count()).unwrap_or(u32::MAX);
                    (chars, chars)
                } else {
                    (0, u32::MAX)
                };
                ElemCheck {
                    min,
                    max,
                    fingerprint: fingerprint32(text.as_bytes()),
                    class_bit: 0,
                    kind: KIND_LITERAL,
                }
            }
            Element::Class {
                class,
                min_len,
                max_len,
            } => ElemCheck {
                min: u32::try_from(*min_len).unwrap_or(u32::MAX),
                max: u32::try_from(*max_len).unwrap_or(u32::MAX),
                fingerprint: 0,
                class_bit: *class as u8,
                kind: KIND_CLASS,
            },
        }
    }
}

/// The prefilter view of one signature: its element checks plus the class
/// histogram the window-level bound compares against.
#[derive(Debug)]
pub struct SigFilter {
    checks: Vec<ElemCheck>,
    /// `hist[c]` = number of `Class` elements of class `c`.
    hist: [u16; 8],
}

impl SigFilter {
    /// Build the filter for one signature.
    #[must_use]
    pub fn of(signature: &Signature) -> Self {
        let checks: Vec<ElemCheck> = signature.elements.iter().map(ElemCheck::of).collect();
        let mut hist = [0u16; 8];
        for element in &signature.elements {
            if let Element::Class { class, .. } = element {
                hist[*class as usize] = hist[*class as usize].saturating_add(1);
            }
        }
        SigFilter { checks, hist }
    }

    /// Window length the signature needs (its element count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.checks.len()
    }

    /// True for the (unconstructible) empty signature.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checks.is_empty()
    }

    /// Level 1: can the window `[start, start + len)` be rejected on class
    /// counts alone? `true` means *reject* — some class is demanded more
    /// times than the window has acceptable tokens.
    #[inline]
    #[must_use]
    pub fn hist_rejects(&self, profile: &StreamProfile, start: usize) -> bool {
        let end = start + self.checks.len();
        let mut deficit = 0u32;
        for (c, &need) in self.hist.iter().enumerate() {
            let have = profile.class_count(c, start, end);
            deficit |= u32::from(have < u32::from(need));
        }
        deficit != 0
    }

    /// Level 2: the branch-free element-wise check over the window's
    /// profiles. A `false` is a certain rejection; a `true` is exact for
    /// `Class` elements and fingerprint-strength for `Literal` elements
    /// (the matcher confirms literal text afterwards).
    #[inline]
    #[must_use]
    pub fn window_passes(&self, window: &[TokenProfile]) -> bool {
        debug_assert_eq!(window.len(), self.checks.len());
        let mut ok = 1u8;
        for (check, p) in self.checks.iter().zip(window) {
            let len_ok = u8::from(p.chars >= check.min) & u8::from(p.chars <= check.max);
            let lit_ok = u8::from(p.fingerprint == check.fingerprint);
            let class_ok = p.mask >> check.class_bit & 1;
            let is_class = check.kind; // 0 literal, 1 class
                                       // Literal: length + fingerprint must hold; class test is vacuous.
                                       // Class: length + acceptance bit must hold; fingerprint is vacuous.
            ok &= len_ok & (lit_ok | is_class) & (class_ok | (1 - is_class));
        }
        ok == 1
    }

    /// Number of `Class` elements of class `c` (used by the verify
    /// kernel's fuzzy histogram bound).
    #[must_use]
    pub fn class_demand(&self, c: usize) -> u16 {
        self.hist[c]
    }

    /// The [`fingerprint32`] of each `Literal` element, in element order
    /// (the verify kernel's literal bound).
    pub(crate) fn literal_fingerprints(&self) -> impl Iterator<Item = u32> + '_ {
        self.checks
            .iter()
            .filter(|check| check.kind == KIND_LITERAL)
            .map(|check| check.fingerprint)
    }
}

/// Evaluate up to 8 candidate windows **lane-parallel** against one shared
/// [`StreamProfile`]: bit `i` of the result is set iff candidate `i`'s
/// window passes its filter — exactly [`SigFilter::window_passes`] per
/// lane (property-tested against it, and `debug_assert`ed at the call
/// site in the scan pipeline).
///
/// Candidates behind a shared anchor literal tend to disagree with the
/// window at the same early element positions, so the loop runs element
/// positions outermost with a SIMD-within-a-register liveness mask across
/// the lanes: each position costs one profile load and a handful of
/// branch-free integer ops per live lane, and the whole batch retires the
/// moment every lane is dead — the scalar path has to walk each window to
/// its end separately. Lanes shorter than the deepest candidate simply
/// stop contributing once exhausted.
///
/// The caller must have [`StreamProfile::ensure`]d coverage of every
/// candidate's window and [`StreamProfile::resolve`]d it against the
/// candidate's filter.
#[must_use]
pub fn windows_pass_batch(profile: &StreamProfile, candidates: &[(&SigFilter, usize)]) -> u8 {
    assert!(candidates.len() <= 8, "at most 8 lanes per batch");
    let mut alive: u8 = match candidates.len() {
        8 => 0xFF,
        n => (1u8 << n) - 1,
    };
    // Each lane's checks and the slot of its window's first profile.
    let mut lanes: [(&[ElemCheck], usize); 8] = [(&[], 0); 8];
    for (lane, &(filter, start)) in lanes.iter_mut().zip(candidates) {
        *lane = (&filter.checks, profile.slot(start));
    }
    let lanes = &lanes[..candidates.len()];
    let deepest = lanes
        .iter()
        .map(|(checks, _)| checks.len())
        .max()
        .unwrap_or(0);
    for j in 0..deepest {
        for (lane, &(checks, slot)) in lanes.iter().enumerate() {
            let Some(check) = checks.get(j) else {
                continue;
            };
            let p = profile.profiles[slot + j];
            let len_ok = u8::from(p.chars >= check.min) & u8::from(p.chars <= check.max);
            let lit_ok = u8::from(p.fingerprint == check.fingerprint);
            let class_ok = p.mask >> check.class_bit & 1;
            let is_class = check.kind; // 0 literal, 1 class
            let pass = len_ok & (lit_ok | is_class) & (class_ok | (1 - is_class));
            alive &= !((1 - pass) << lane);
        }
        if alive == 0 {
            break;
        }
    }
    alive
}

#[cfg(test)]
mod tests {
    use super::*;
    use kizzle_js::tokenize;

    fn sig(elements: Vec<Element>) -> Signature {
        Signature::new("t", elements, 1)
    }

    #[test]
    fn char_table_mirrors_char_class_accepts() {
        // The category tables, read through one byte: every ASCII byte's
        // mask is exactly the set of classes accepting it, by the vector
        // path's compares and by the tail's lookup alike.
        let mask = |b: u8| PRESENT_MASKS[usize::from(category(b))];
        for b in 0u8..128 {
            let c = char::from(b);
            assert_eq!(BYTE_TABLE[usize::from(b)], category(b), "{c:?}");
            for class in CharClass::TEMPLATES {
                let expect = class.accepts(c);
                let got = mask(b) >> (class as u8) & 1 == 1;
                assert_eq!(got, expect, "char {c:?} class {class:?}");
            }
        }
        // Every byte of a non-ASCII character is "other": only Any.
        for b in 128u8..=255 {
            assert_eq!(mask(b), 1 << (CharClass::Any as u8));
            assert_eq!(BYTE_TABLE[usize::from(b)] & 0x3F, category(b));
            assert_eq!(BYTE_TABLE[usize::from(b)] >> 7, u8::from(b < 0xC0));
        }
        assert_eq!(PRESENT_MASKS[0], 0xFF, "no bytes: every class");
        assert_eq!(
            profile_bytes("é".as_bytes()).mask,
            1 << (CharClass::Any as u8)
        );
    }

    #[test]
    fn profile_matches_element_semantics_exactly_for_classes() {
        let stream = tokenize(r#"abc ABC 123 deadbeef a_b "quoted" é"#);
        for token in stream.tokens() {
            let profile = profile_bytes(token.unquoted().as_bytes());
            for class in CharClass::TEMPLATES {
                let len = token.unquoted().chars().count();
                let element = Element::Class {
                    class,
                    min_len: len,
                    max_len: len,
                };
                let exact = element.matches_token(token);
                let window = [profile];
                let filter = SigFilter::of(&sig(vec![element]));
                assert_eq!(
                    filter.window_passes(&window),
                    exact,
                    "token {:?} class {class:?}",
                    token.text
                );
            }
        }
    }

    #[test]
    fn literal_check_accepts_equal_and_rejects_different_text() {
        let filter = SigFilter::of(&sig(vec![Element::Literal("fromCharCode".into())]));
        assert!(filter.window_passes(&[profile_bytes(b"fromCharCode")]));
        assert!(!filter.window_passes(&[profile_bytes(b"fromCharCodf")]));
        assert!(!filter.window_passes(&[profile_bytes(b"fromCharCod")]));
        // Beyond 16 bytes only the ends and the length are fingerprinted:
        // a middle-only difference passes here, for stage 3 to reject.
        let long = "abcdefgh-the-middle-ijklmnop";
        let filter = SigFilter::of(&sig(vec![Element::Literal(long.into())]));
        assert!(filter.window_passes(&[profile_bytes(long.as_bytes())]));
        assert!(filter.window_passes(&[profile_bytes(b"abcdefgh-THE-MIDDLE-ijklmnop")]));
        assert!(!filter.window_passes(&[profile_bytes(b"abcdefgh-the-middle-ijklmnoq")]));
        assert!(!filter.window_passes(&[profile_bytes(b"Abcdefgh-the-middle-ijklmnop")]));
    }

    #[test]
    fn stream_profile_grows_lazily_and_counts_classes() {
        let stream = tokenize("abc 123 XYZ abc9");
        let mut profile = StreamProfile::new();
        assert_eq!(profile.covered(), 0);
        profile.ensure(stream.tokens(), 0, 2);
        assert_eq!(profile.covered(), 2);
        profile.ensure(stream.tokens(), 0, 1); // monotone: never shrinks
        assert_eq!(profile.covered(), 2);
        profile.ensure(stream.tokens(), 0, 100); // clamped to the stream
        assert_eq!(profile.covered(), stream.len());
        // [abc, 123, XYZ, abc9]: Lower accepts only "abc".
        assert_eq!(
            profile.class_count(CharClass::Lower as usize, 0, stream.len()),
            1
        );
        assert_eq!(
            profile.class_count(CharClass::Digits as usize, 0, 2),
            1,
            "only `123` in the first two"
        );
        assert_eq!(
            profile.class_count(CharClass::Any as usize, 0, stream.len()),
            u32::try_from(stream.len()).unwrap()
        );
    }

    #[test]
    fn coverage_grows_both_ways_and_counts_like_a_fresh_profile() {
        let stream = tokenize("a 1 B c2 d 3 E f4 g 5 H i6 j 7");
        let tokens = stream.tokens();
        let mut whole = StreamProfile::new();
        whole.ensure(tokens, 0, tokens.len());
        // Windows arriving right of, left of and inside the coverage, each
        // leftward step larger than the room in front.
        let mut profile = StreamProfile::new();
        for (start, end) in [(8, 10), (6, 9), (9, 12), (1, 4), (0, 2), (5, 14)] {
            profile.ensure(tokens, start, end);
            let (lo, hi) = (profile.base, profile.base + profile.covered());
            assert!(lo <= start && end.min(tokens.len()) <= hi);
            assert_eq!(profile.window(lo, hi - lo), whole.window(lo, hi - lo));
            for from in lo..=hi {
                for to in from..=hi {
                    for c in 0..8 {
                        assert_eq!(
                            profile.class_count(c, from, to),
                            whole.class_count(c, from, to),
                            "[{from}, {to}) class {c}"
                        );
                    }
                }
            }
        }
        assert_eq!(profile.covered(), tokens.len());
        // A reset forgets the coverage and the room in front.
        profile.reset();
        profile.ensure(tokens, 3, 5);
        assert_eq!((profile.base, profile.covered()), (3, 2));
        assert_eq!(profile.window(3, 2), whole.window(3, 2));
    }

    #[test]
    fn long_tokens_wait_for_a_class_element() {
        let long = "abcdefghijklmnopq";
        assert_eq!(long.len(), FINGERPRINT_WHOLE_LEN + 1);
        // No byte pass yields the all-classes mask on a non-empty token.
        assert!(CATEGORY_MASKS.iter().all(|&mask| mask != ALL_CLASSES));
        let stream = tokenize(&format!("x = {long} + \"{long}é\";"));
        let tokens = stream.tokens();
        let mut profile = StreamProfile::new();
        profile.ensure(tokens, 0, tokens.len());
        assert_eq!(profile.unprofiled, 2);
        let recorded = profile.window(2, 1)[0];
        assert!(is_unprofiled(&recorded));
        assert_eq!(recorded.fingerprint, fingerprint32(long.as_bytes()));
        // The histogram counts it in every class.
        assert_eq!(profile.class_count(CharClass::Digits as usize, 2, 3), 1);
        // A literal check needs nothing more, either way round.
        let literal = SigFilter::of(&sig(vec![Element::Literal(long.into())]));
        assert!(literal.window_passes(profile.window(2, 1)));
        let short = SigFilter::of(&sig(vec![Element::Literal("x".into())]));
        assert!(!short.window_passes(profile.window(2, 1)));
        // A literal element leaves it alone; a class element resolves it.
        profile.resolve(tokens, &literal, 2);
        assert_eq!(profile.unprofiled, 2);
        let digits = SigFilter::of(&sig(vec![Element::Class {
            class: CharClass::Digits,
            min_len: 1,
            max_len: 64,
        }]));
        profile.resolve(tokens, &digits, 2);
        assert_eq!(profile.unprofiled, 1);
        assert_eq!(profile.window(2, 1)[0], profile_bytes(long.as_bytes()));
        assert!(!digits.window_passes(profile.window(2, 1)));
        assert!(
            literal.window_passes(profile.window(2, 1)),
            "still the literal"
        );
        // The non-ASCII string: resolved, it counts characters, not bytes.
        let any = SigFilter::of(&sig(vec![Element::Class {
            class: CharClass::Any,
            min_len: 18,
            max_len: 18,
        }]));
        profile.resolve(tokens, &any, 4);
        assert_eq!(profile.unprofiled, 0);
        assert!(any.window_passes(profile.window(4, 1)));
    }

    #[test]
    fn hist_reject_fires_only_when_a_class_is_underserved() {
        // Signature demands two Digits tokens; the window has one.
        let demanding = SigFilter::of(&sig(vec![
            Element::Class {
                class: CharClass::Digits,
                min_len: 1,
                max_len: 8,
            },
            Element::Class {
                class: CharClass::Digits,
                min_len: 1,
                max_len: 8,
            },
        ]));
        let stream = tokenize("123 abc");
        let mut profile = StreamProfile::new();
        profile.ensure(stream.tokens(), 0, stream.len());
        assert!(demanding.hist_rejects(&profile, 0));

        let satisfied = SigFilter::of(&sig(vec![
            Element::Class {
                class: CharClass::Digits,
                min_len: 1,
                max_len: 8,
            },
            Element::Class {
                class: CharClass::Lower,
                min_len: 1,
                max_len: 8,
            },
        ]));
        assert!(!satisfied.hist_rejects(&profile, 0));
    }

    #[test]
    fn batch_windows_agree_with_the_scalar_oracle() {
        // Filters of mixed lengths and kinds, placed at every viable start
        // of a shared stream — every lane must agree with window_passes.
        let stream = tokenize(
            r#"pieces = buffer.split(delim); el.text += String.fromCharCode(pieces[i]); x9 = "ab3";"#,
        );
        let mut profile = StreamProfile::new();
        profile.ensure(stream.tokens(), 0, stream.len());
        let filters = vec![
            SigFilter::of(&sig(vec![Element::Literal("fromCharCode".into())])),
            SigFilter::of(&sig(vec![
                Element::Class {
                    class: CharClass::Wordlike,
                    min_len: 1,
                    max_len: 12,
                },
                Element::Literal("=".into()),
            ])),
            SigFilter::of(&sig(vec![
                Element::Literal(".".into()),
                Element::Class {
                    class: CharClass::Lower,
                    min_len: 2,
                    max_len: 8,
                },
                Element::Literal("(".into()),
            ])),
            SigFilter::of(&sig(vec![Element::Class {
                class: CharClass::Any,
                min_len: 0,
                max_len: 3,
            }])),
        ];
        let mut candidates: Vec<(&SigFilter, usize)> = Vec::new();
        for filter in &filters {
            for start in 0..=stream.len().saturating_sub(filter.len()) {
                candidates.push((filter, start));
            }
        }
        for batch in candidates.chunks(8) {
            let mask = windows_pass_batch(&profile, batch);
            for (lane, &(filter, start)) in batch.iter().enumerate() {
                assert_eq!(
                    mask >> lane & 1 == 1,
                    filter.window_passes(profile.window(start, filter.len())),
                    "lane {lane} start {start} diverged"
                );
            }
        }
        // Sanity: the batch finds the real hits, not all-zeros.
        assert!(candidates
            .chunks(8)
            .any(|batch| windows_pass_batch(&profile, batch) != 0));
    }

    #[test]
    fn batch_handles_partial_and_empty_lane_counts() {
        let stream = tokenize("abc 123");
        let mut profile = StreamProfile::new();
        profile.ensure(stream.tokens(), 0, stream.len());
        assert_eq!(windows_pass_batch(&profile, &[]), 0);
        let lower = SigFilter::of(&sig(vec![Element::Class {
            class: CharClass::Lower,
            min_len: 1,
            max_len: 8,
        }]));
        // One lane: only bit 0 may be set, and it reflects the scalar.
        let mask = windows_pass_batch(&profile, &[(&lower, 0)]);
        assert_eq!(mask, 1);
        let mask = windows_pass_batch(&profile, &[(&lower, 1)]);
        assert_eq!(mask, 0, "`123` is not Lower");
        // Dead lanes never leak into live ones.
        let mask = windows_pass_batch(&profile, &[(&lower, 1), (&lower, 0), (&lower, 1)]);
        assert_eq!(mask, 0b010);
    }
}
