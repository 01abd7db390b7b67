//! The anchor trie — stage 1 of the scan pipeline.
//!
//! One trie is built over *all* anchor literals of a sealed
//! [`SignatureSet`](crate::SignatureSet), so the anchor stage costs one
//! pass over the token stream **regardless of signature count** — the
//! 100×-signature-scale requirement. Each distinct literal is one
//! *pattern*; signatures sharing an anchor literal share the pattern and
//! differ only in the candidate bucket attached to it
//! ([`crate::matcher::ScanPipeline`]).
//!
//! It runs in **token mode** only ([`AnchorAutomaton::match_token`]):
//! anchors are whole tokens, so every token starts at the root and a
//! pattern fires only when the token's complete (quote-stripped) text
//! equals it. A walk from the root is pure goto transitions, so the trie
//! has no failure or output links — the hot path is a handful of
//! instructions per byte with no hashing and no per-signature work.
//! Finding anchors inside raw, untokenized bytes is the gate's job
//! (`crate::gate`), not this trie's.
//!
//! Layout is flattened for scan speed: a dense 256-way root table (most
//! tokens die on their first byte, one load), then per-node sorted edge
//! runs resolved by binary search. The whole structure is immutable after
//! build and is never serialized: every loader rebuilds it from the
//! signatures it serves.

/// Sentinel for "no node" in the root table.
const NO_NODE: u32 = u32::MAX;
/// Sentinel for "no pattern ends here".
const NO_PATTERN: u32 = u32::MAX;

/// One node of the flattened trie.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// First edge of this node's run in [`AnchorAutomaton::edge_bytes`] /
    /// [`AnchorAutomaton::edge_targets`].
    edges_start: u32,
    /// Number of edges in the run.
    edges_len: u16,
    /// Pattern ending exactly at this node, or `NO_PATTERN`.
    pattern: u32,
}

/// An immutable whole-token matcher over anchor literal byte strings.
///
/// Build once per sealed signature set with [`AnchorAutomaton::build`];
/// see the [module docs](self).
#[derive(Debug)]
pub struct AnchorAutomaton {
    /// Dense goto table of the root: byte → node id or `NO_NODE`.
    root: Vec<u32>,
    nodes: Vec<Node>,
    /// Edge labels, one run per node, each run sorted by byte.
    edge_bytes: Vec<u8>,
    /// Edge targets, parallel to `edge_bytes`.
    edge_targets: Vec<u32>,
    /// Skip-loop bitmap: bit `b` set iff some pattern starts with byte
    /// `b`. 32 bytes — one cache line — versus the 1 KiB root table, so
    /// [`AnchorAutomaton::match_token`] rejects the common token (anchors
    /// are rare) without touching the table.
    first_byte: [u64; 4],
    /// Length of the shortest pattern (`u32::MAX` when empty) — tokens
    /// shorter than every pattern (single punctuation, short operators)
    /// can never equal one, so the walk is skipped outright.
    min_pattern_len: u32,
}

impl AnchorAutomaton {
    /// Build the trie over `patterns`. Duplicate patterns are the
    /// caller's concern (the pipeline deduplicates literals into shared
    /// candidate buckets before building); if duplicates are passed, the
    /// **last** one owns the terminal node. Empty patterns never match
    /// (no token has empty text) and are ignored.
    #[must_use]
    pub fn build<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        // Sorted `(byte, child)` edges per node while building.
        let mut edges: Vec<Vec<(u8, u32)>> = vec![Vec::new()];
        let mut terminal: Vec<u32> = vec![NO_PATTERN];
        let mut min_pattern_len = u32::MAX;
        for (id, pattern) in patterns.iter().enumerate() {
            let bytes = pattern.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut node = 0usize;
            for &b in bytes {
                node = match edges[node].binary_search_by_key(&b, |e| e.0) {
                    Ok(pos) => edges[node][pos].1 as usize,
                    Err(pos) => {
                        let child = u32::try_from(edges.len()).expect("node count fits u32");
                        edges.push(Vec::new());
                        terminal.push(NO_PATTERN);
                        edges[node].insert(pos, (b, child));
                        child as usize
                    }
                };
            }
            terminal[node] = u32::try_from(id).expect("pattern count fits u32");
            min_pattern_len = min_pattern_len.min(u32::try_from(bytes.len()).unwrap_or(u32::MAX));
        }

        // Flatten into one edge array, one run per node.
        let mut nodes = Vec::with_capacity(edges.len());
        let mut edge_bytes = Vec::new();
        let mut edge_targets = Vec::new();
        for (run, &pattern) in edges.iter().zip(&terminal) {
            nodes.push(Node {
                edges_start: u32::try_from(edge_bytes.len()).expect("edge count fits u32"),
                edges_len: u16::try_from(run.len()).expect("≤256 edges per node"),
                pattern,
            });
            for &(b, to) in run {
                edge_bytes.push(b);
                edge_targets.push(to);
            }
        }

        let mut root = vec![NO_NODE; 256];
        let mut first_byte = [0u64; 4];
        for &(b, to) in &edges[0] {
            root[b as usize] = to;
            first_byte[usize::from(b >> 6)] |= 1u64 << (b & 63);
        }
        AnchorAutomaton {
            root,
            nodes,
            edge_bytes,
            edge_targets,
            first_byte,
            min_pattern_len,
        }
    }

    /// Token mode: the pattern equal to the **whole** of `text`, if any.
    ///
    /// Starts at the root, so the walk is pure goto transitions — reaching
    /// a terminal node after consuming every byte means the root-to-node
    /// path *is* `text`. Signature-count independent: cost is
    /// `O(text.len())` with one dense load for the first byte and a binary
    /// search over ≤ alphabet edges per further byte.
    #[must_use]
    pub fn match_token(&self, text: &[u8]) -> Option<u32> {
        if !self.may_match(text) {
            return None;
        }
        let (&first, rest) = text.split_first()?;
        let mut node = self.root[first as usize];
        if node == NO_NODE {
            return None;
        }
        for &b in rest {
            node = self.goto(node, b)?;
        }
        let pattern = self.nodes[node as usize].pattern;
        (pattern != NO_PATTERN).then_some(pattern)
    }

    /// The skip-loop test in front of [`AnchorAutomaton::match_token`]'s
    /// goto walk: `false` guarantees no pattern equals `text`, from two
    /// loads off one 32-byte bitmap — no first-byte pattern starts, or the
    /// token is shorter than every pattern. Punctuation-heavy token
    /// streams (minified JS is mostly `=`, `(`, `;`, …, and anchors are ≥
    /// [`MIN_ANCHOR_LEN`](crate::matcher::MIN_ANCHOR_LEN) chars) die here without
    /// probing the 1 KiB root table.
    #[inline]
    #[must_use]
    pub fn may_match(&self, text: &[u8]) -> bool {
        let Some(&first) = text.first() else {
            return false;
        };
        text.len() >= self.min_pattern_len as usize
            && self.first_byte[usize::from(first >> 6)] >> (first & 63) & 1 == 1
    }

    /// Goto transition out of `node` on byte `b`.
    #[inline]
    fn goto(&self, node: u32, b: u8) -> Option<u32> {
        let n = &self.nodes[node as usize];
        let start = n.edges_start as usize;
        let run = &self.edge_bytes[start..start + n.edges_len as usize];
        run.binary_search(&b)
            .ok()
            .map(|pos| self.edge_targets[start + pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterns() -> Vec<&'static str> {
        vec!["he", "she", "his", "hers", "decoder_0001"]
    }

    #[test]
    fn match_token_is_whole_token_only() {
        let ac = AnchorAutomaton::build(&patterns());
        assert_eq!(ac.match_token(b"he"), Some(0));
        assert_eq!(ac.match_token(b"she"), Some(1));
        assert_eq!(ac.match_token(b"hers"), Some(3));
        assert_eq!(ac.match_token(b"her"), None, "prefix of a pattern");
        assert_eq!(ac.match_token(b"xhe"), None, "suffix embedding ignored");
        assert_eq!(ac.match_token(b"decoder_0001"), Some(4));
        assert_eq!(ac.match_token(b"decoder_0002"), None);
        assert_eq!(ac.match_token(b""), None);
    }

    #[test]
    fn skip_loop_never_hides_a_match() {
        let pats = patterns();
        let ac = AnchorAutomaton::build(&pats);
        // Every pattern is its own whole-token match, so may_match must
        // pass it; and !may_match ⇒ match_token is None, byte-exhaustively
        // for length-1 and length-2 tokens plus pattern-adjacent probes.
        for (id, p) in pats.iter().enumerate() {
            assert!(ac.may_match(p.as_bytes()), "pattern {p:?} skipped");
            assert_eq!(ac.match_token(p.as_bytes()), Some(id as u32));
        }
        for b in 0u8..=255 {
            for probe in [vec![b], vec![b, b'e'], vec![b, b'h', b'e']] {
                if !ac.may_match(&probe) {
                    assert_eq!(ac.match_token(&probe), None, "probe {probe:?}");
                }
            }
        }
        // Punctuation-heavy tokens die on the skip test: none of the
        // patterns start with punctuation, and `=`/`;` are shorter than
        // the shortest pattern anyway.
        for punct in [&b"="[..], b";", b"(", b"[", b"&&", b"=="] {
            assert!(!ac.may_match(punct), "punct {punct:?}");
        }
        // Shorter than every pattern: skipped even with a viable first
        // byte ("h" starts "he"/"his"/"hers" but min pattern length is 2).
        assert!(!ac.may_match(b"h"));
        assert!(ac.may_match(b"hq"), "length/first-byte both viable");
        assert_eq!(ac.match_token(b"hq"), None, "walk still decides");
    }

    #[test]
    fn empty_and_degenerate_builds() {
        let ac = AnchorAutomaton::build::<&str>(&[]);
        assert_eq!(ac.match_token(b"anything"), None);

        // Empty patterns are ignored, later duplicates win the terminal.
        let ac = AnchorAutomaton::build(&["", "dup", "dup"]);
        assert_eq!(ac.match_token(b"dup"), Some(2));
        assert_eq!(ac.match_token(b""), None);
    }
}
