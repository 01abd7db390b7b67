//! Aho–Corasick automaton over anchor literals — stage 1 of the scan
//! pipeline.
//!
//! One automaton is built over *all* anchor literals of a sealed
//! [`SignatureSet`](crate::SignatureSet), so the anchor stage costs one
//! pass over the token stream **regardless of signature count** — the
//! 100×-signature-scale requirement. Each distinct literal is one
//! *pattern*; signatures sharing an anchor literal share the pattern and
//! differ only in the candidate bucket attached to it
//! ([`crate::matcher::ScanPipeline`]).
//!
//! The matcher drives the automaton in **token mode**
//! ([`AnchorAutomaton::match_token`]): anchors are whole tokens, so every
//! token restarts at the root and a pattern only fires when the token's
//! complete (quote-stripped) text equals the pattern. Walking from the
//! root makes this a pure goto-transition walk — the failure links never
//! trigger — which is why the hot path is a handful of instructions per
//! byte with no hashing and no per-signature work. The failure and output
//! links are still built (classic BFS construction) and power
//! [`AnchorAutomaton::scan_bytes`], the textbook streaming-substring mode;
//! the property tests hold it to the brute-force oracle, which in turn
//! pins down the goto/fail structure `match_token` walks.
//!
//! Layout is flattened for scan speed: a dense 256-way root table (most
//! tokens die on their first byte, one load), then per-node sorted edge
//! runs resolved by binary search. The whole structure is immutable after
//! build and is never serialized: every loader rebuilds it from the
//! signatures it serves.

/// Sentinel for "no node" in the root table and failure links.
const NO_NODE: u32 = u32::MAX;
/// Sentinel for "no pattern ends here".
const NO_PATTERN: u32 = u32::MAX;

/// One interior node of the flattened automaton.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// First edge of this node's run in [`AnchorAutomaton::edge_bytes`] /
    /// [`AnchorAutomaton::edge_targets`].
    edges_start: u32,
    /// Number of edges in the run.
    edges_len: u16,
    /// Failure link (longest proper suffix of this node's path that is
    /// also a path prefix); `NO_NODE` only during construction.
    fail: u32,
    /// Output link: nearest node on the failure chain (self included)
    /// where a pattern ends, or `NO_NODE`.
    output: u32,
    /// Pattern ending exactly at this node, or `NO_PATTERN`.
    pattern: u32,
    /// Depth in bytes (== pattern length at terminal nodes).
    depth: u32,
}

/// An immutable multi-pattern matcher over anchor literal byte strings.
///
/// Build once per sealed signature set with [`AnchorAutomaton::build`];
/// see the [module docs](self) for the two scan modes.
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

/// A pattern occurrence reported by [`AnchorAutomaton::scan_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurrence {
    /// Id of the pattern (its index in the build slice).
    pub pattern: u32,
    /// Byte offset of the *end* of the occurrence (exclusive).
    pub end: usize,
}

/// Mutable trie node used only during construction.
#[derive(Debug, Default)]
struct BuildNode {
    /// Sorted `(byte, child)` edges.
    edges: Vec<(u8, u32)>,
    pattern: u32,
    depth: u32,
}

impl AnchorAutomaton {
    /// Build the automaton over `patterns`. Duplicate patterns are the
    /// caller's concern (the pipeline deduplicates literals into shared
    /// candidate buckets before building); if duplicates are passed, the
    /// **last** one owns the terminal node. Empty patterns never match
    /// (no token has empty text) and are ignored.
    #[must_use]
    pub fn build<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        // Phase 1: byte trie.
        let mut trie: Vec<BuildNode> = vec![BuildNode {
            edges: Vec::new(),
            pattern: NO_PATTERN,
            depth: 0,
        }];
        for (id, pattern) in patterns.iter().enumerate() {
            let bytes = pattern.as_ref();
            if bytes.is_empty() {
                continue;
            }
            let mut node = 0usize;
            for (i, &b) in bytes.iter().enumerate() {
                node = match trie[node].edges.binary_search_by_key(&b, |e| e.0) {
                    Ok(pos) => trie[node].edges[pos].1 as usize,
                    Err(pos) => {
                        let child = trie.len() as u32;
                        trie.push(BuildNode {
                            edges: Vec::new(),
                            pattern: NO_PATTERN,
                            depth: i as u32 + 1,
                        });
                        trie[node].edges.insert(pos, (b, child));
                        child as usize
                    }
                };
            }
            trie[node].pattern = u32::try_from(id).expect("pattern count fits u32");
        }

        // Phase 2: flatten and wire failure/output links by BFS. Node ids
        // are already BFS-friendly only for the root's children, so walk
        // explicitly.
        let mut nodes: Vec<Node> = trie
            .iter()
            .map(|b| Node {
                edges_start: 0,
                edges_len: 0,
                fail: 0,
                output: NO_NODE,
                pattern: b.pattern,
                depth: b.depth,
            })
            .collect();
        let mut edge_bytes = Vec::new();
        let mut edge_targets = Vec::new();
        for (id, build) in trie.iter().enumerate() {
            nodes[id].edges_start = u32::try_from(edge_bytes.len()).expect("edge count fits u32");
            nodes[id].edges_len = u16::try_from(build.edges.len()).expect("≤256 edges per node");
            for &(b, to) in &build.edges {
                edge_bytes.push(b);
                edge_targets.push(to);
            }
        }

        let mut root = vec![NO_NODE; 256];
        for &(b, to) in &trie[0].edges {
            root[b as usize] = to;
        }

        // BFS from the root's children (whose failure link is the root).
        let mut queue: std::collections::VecDeque<u32> =
            trie[0].edges.iter().map(|&(_, to)| to).collect();
        while let Some(id) = queue.pop_front() {
            let fail = nodes[id as usize].fail;
            nodes[id as usize].output = if nodes[fail as usize].pattern != NO_PATTERN {
                fail
            } else {
                nodes[fail as usize].output
            };
            let run = edge_run(&nodes, id);
            for pos in run {
                let (b, child) = (edge_bytes[pos], edge_targets[pos]);
                // Child's failure: follow this node's failure chain until a
                // node with a `b` edge exists (the root as last resort).
                let mut f = fail;
                let child_fail = loop {
                    if let Some(next) = lookup(&nodes, &root, &edge_bytes, &edge_targets, f, b) {
                        if next != child {
                            break next;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                nodes[child as usize].fail = child_fail;
                queue.push_back(child);
            }
        }

        // Phase 3: the skip-loop test in front of `match_token`.
        let mut first_byte = [0u64; 4];
        for (b, &node) in root.iter().enumerate() {
            if node != NO_NODE {
                first_byte[b >> 6] |= 1u64 << (b & 63);
            }
        }
        let min_pattern_len = nodes
            .iter()
            .filter(|n| n.pattern != NO_PATTERN)
            .map(|n| n.depth)
            .min()
            .unwrap_or(u32::MAX);
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

    /// Streaming substring mode: every occurrence of every pattern in
    /// `haystack`, in end-offset order — the textbook Aho–Corasick scan
    /// using the failure and output links. The matcher's token mode does
    /// not need it (anchors are whole tokens); it exists to pin the
    /// goto/fail construction to the brute-force oracle in tests and for
    /// future raw-byte prefilters over untokenized documents.
    #[must_use]
    pub fn scan_bytes(&self, haystack: &[u8]) -> Vec<Occurrence> {
        let mut hits = Vec::new();
        let mut state = 0u32;
        for (i, &b) in haystack.iter().enumerate() {
            state = loop {
                if let Some(next) = lookup(
                    &self.nodes,
                    &self.root,
                    &self.edge_bytes,
                    &self.edge_targets,
                    state,
                    b,
                ) {
                    break next;
                }
                if state == 0 {
                    break 0;
                }
                state = self.nodes[state as usize].fail;
            };
            // Report the state's own pattern, then walk the output chain.
            let mut out = state;
            while out != NO_NODE {
                let node = &self.nodes[out as usize];
                if node.pattern != NO_PATTERN {
                    hits.push(Occurrence {
                        pattern: node.pattern,
                        end: i + 1,
                    });
                }
                out = node.output;
            }
        }
        hits
    }

    /// Goto transition out of `node` on byte `b` (no failure fallback).
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

/// Index range of a node's edge run.
fn edge_run(nodes: &[Node], id: u32) -> std::ops::Range<usize> {
    let n = &nodes[id as usize];
    let start = n.edges_start as usize;
    start..start + n.edges_len as usize
}

/// Goto transition with the dense root table, used during construction and
/// the streaming scan (where `node` may be the root).
#[inline]
fn lookup(
    nodes: &[Node],
    root: &[u32],
    edge_bytes: &[u8],
    edge_targets: &[u32],
    node: u32,
    b: u8,
) -> Option<u32> {
    if node == 0 {
        let next = root[b as usize];
        return (next != NO_NODE).then_some(next);
    }
    let n = &nodes[node as usize];
    let start = n.edges_start as usize;
    let run = &edge_bytes[start..start + n.edges_len as usize];
    run.binary_search(&b)
        .ok()
        .map(|pos| edge_targets[start + pos])
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
    fn scan_bytes_matches_brute_force() {
        let pats = patterns();
        let ac = AnchorAutomaton::build(&pats);
        let haystack = b"ushers said he heard of his decoder_0001x";
        let mut want = Vec::new();
        for (id, p) in pats.iter().enumerate() {
            let p = p.as_bytes();
            for end in p.len()..=haystack.len() {
                if &haystack[end - p.len()..end] == p {
                    want.push((id as u32, end));
                }
            }
        }
        let mut got: Vec<(u32, usize)> = ac
            .scan_bytes(haystack)
            .into_iter()
            .map(|o| (o.pattern, o.end))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_degenerate_builds() {
        let ac = AnchorAutomaton::build::<&str>(&[]);
        assert_eq!(ac.match_token(b"anything"), None);
        assert!(ac.scan_bytes(b"anything").is_empty());

        // Empty patterns are ignored, later duplicates win the terminal.
        let ac = AnchorAutomaton::build(&["", "dup", "dup"]);
        assert_eq!(ac.match_token(b"dup"), Some(2));
        assert_eq!(ac.match_token(b""), None);
    }
}
