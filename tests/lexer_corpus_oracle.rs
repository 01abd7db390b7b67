//! The span lexer against the seed lexer on the corpus itself: every kit
//! family across its evolution dates and every benign page kind — the
//! pages the compiler ingests and the daemon scans. The generated
//! adversarial inputs live next to the lexer
//! (`crates/js-lex/tests/lexer_oracle.rs`); this file shares its oracle.

#[path = "../crates/js-lex/tests/common/reference.rs"]
mod reference;

use kizzle_corpus::benign::{generate_benign, BenignKind};
use kizzle_corpus::{KitFamily, KitModel, SimDate};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn corpus_pages() -> Vec<(String, String)> {
    let mut pages = Vec::new();
    for family in KitFamily::ALL {
        let model = KitModel::new(family);
        // The month the evaluation runs over, sampled so every packer
        // revision of every kit is hit at least once.
        for day in [1, 5, 9, 13, 17, 21, 25, 29, 31] {
            let date = SimDate::new(2014, 8, day);
            for seed in 0..3u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(u64::from(day) * 100 + seed);
                pages.push((
                    format!("{} 2014-08-{day} #{seed}", family.name()),
                    model.generate_sample(date, &mut rng),
                ));
            }
        }
    }
    for kind in BenignKind::ALL {
        for seed in 0..12u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(7_000 + seed);
            pages.push((
                format!("{} #{seed}", kind.name()),
                generate_benign(kind, &mut rng),
            ));
        }
    }
    pages
}

fn pairs(tokens: &[reference::Token]) -> Vec<(kizzle_js::TokenClass, &str)> {
    tokens.iter().map(|t| (t.class, t.text.as_str())).collect()
}

#[test]
fn corpus_pages_tokenize_like_the_seed_at_every_cap() {
    let pages = corpus_pages();
    assert!(pages.len() > 150);
    let mut spans = Vec::new();
    let mut capped_pages = 0;
    for (name, page) in &pages {
        let old = reference::tokenize_document(page);
        assert!(!old.is_empty(), "{name}: corpus pages carry script");
        capped_pages += usize::from(old.len() > 500);
        // Uncapped, lexing stops at the end of the last script body that
        // holds more than blanks.
        let old_scripts = reference::extract_scripts(page);
        let body_end = old_scripts
            .iter()
            .rev()
            .find(|s| !s.body.trim().is_empty())
            .map(|s| s.offset + s.body.len())
            .expect("corpus pages carry script");

        let new = kizzle_js::tokenize_document(page);
        assert_eq!(
            new.tokens()
                .iter()
                .map(|t| (t.class, t.text))
                .collect::<Vec<_>>(),
            pairs(&old),
            "{name}"
        );
        // What clustering sees.
        assert_eq!(
            new.class_codes(),
            old.iter().map(|t| t.class.code()).collect::<Vec<_>>(),
            "{name}"
        );
        for token in new.tokens() {
            assert!(
                page[token.offset as usize..].starts_with(token.text),
                "{name}"
            );
        }

        // The compiler's cap, the eval cap, and a few that land mid-script.
        for cap in [0, 1, 37, 500, 600, 900, old.len(), usize::MAX] {
            let keep = cap.min(old.len());
            let capped = kizzle_js::tokenize_document_capped(page, cap);
            assert_eq!(capped, new.slice(0, keep), "{name} cap {cap}");
            let (view, end) = kizzle_js::lex_document(page, cap, &mut spans);
            assert_eq!(
                view.iter().map(|t| (t.class, t.text)).collect::<Vec<_>>(),
                pairs(&old[..keep]),
                "{name} cap {cap}"
            );
            assert!(end <= page.len());
            // Where lexing stopped: at the end of the last token kept when
            // the cap bites, else at the end of the last script body.
            if cap > old.len() {
                assert_eq!(end, body_end, "{name} cap {cap}");
            } else if let Some(last) = view.iter().next_back() {
                assert_eq!(
                    end,
                    last.offset as usize + last.text.len(),
                    "{name} cap {cap}"
                );
            }
        }

        // Bare-script entry point, on the text the unpackers work on.
        let script = kizzle_unpack::script_text(page);
        assert_eq!(
            script,
            old_scripts
                .iter()
                .map(|s| s.body.as_str())
                .collect::<Vec<_>>()
                .join("\n"),
            "{name}"
        );
        assert_eq!(
            kizzle_js::tokenize(&script)
                .tokens()
                .iter()
                .map(|t| (t.class, t.text))
                .collect::<Vec<_>>(),
            pairs(&reference::tokenize(&script)),
            "{name}"
        );
    }
    // The paper cap (900) is above every corpus page; the fast
    // configuration's (500) is not, so a cap that bites is covered too.
    assert!(capped_pages > 0, "no corpus page exceeds 500 tokens");
}
