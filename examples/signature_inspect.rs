//! Signature inspection: show how signatures generalize (paper Figs.
//! 9–10) — either by generating one per kit from a small cluster of
//! same-day packed variants, or, with `--snapshot DIR`, by loading the
//! *deployed* set straight out of a compiler state directory (as written
//! by `daily_pipeline --state-dir`) instead of recompiling anything. The
//! directory is the argument: a file inside it is refused.
//!
//! ```bash
//! cargo run --release -p kizzle-sim --example signature_inspect
//! cargo run --release -p kizzle-sim --example signature_inspect -- \
//!     --snapshot /tmp/kizzle-state
//! ```

use kizzle::prelude::*;
use kizzle_corpus::{KitFamily, KitModel, SimDate};
use kizzle_signature::{generate_signature, Element, Signature};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn literal_count(sig: &Signature) -> usize {
    sig.elements
        .iter()
        .filter(|e| matches!(e, Element::Literal(_)))
        .count()
}

fn describe(sig: &Signature) {
    let literals = literal_count(sig);
    println!(
        "  window: {} tokens ({} literal, {} generalized), rendered {} chars",
        sig.len(),
        literals,
        sig.len() - literals,
        sig.rendered_len()
    );
    let rendered = sig.render();
    let preview: String = rendered.chars().take(300).collect();
    println!("  {preview}…");
}

/// Inspect the deployed signature set in a state directory.
fn inspect_snapshot(path: &str) {
    let set = match kizzle::read_signatures(std::path::Path::new(path)) {
        Ok(set) => set,
        Err(err) => {
            eprintln!("signature_inspect: cannot load {path}: {err}");
            std::process::exit(2);
        }
    };
    println!(
        "{} deployed signatures in {path} (labels: {})\n",
        set.len(),
        set.labels().join(", ")
    );
    for labeled in set.iter() {
        println!(
            "=== [{}] {} (support {}) ===",
            labeled.label, labeled.signature.name, labeled.signature.support
        );
        describe(&labeled.signature);
        println!();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [flag, path] if flag == "--snapshot" => {
            inspect_snapshot(path);
            return;
        }
        _ => {
            eprintln!("usage: signature_inspect [--snapshot DIR]");
            std::process::exit(2);
        }
    }

    let date = SimDate::new(2014, 8, 26); // Nuclear's UluN-delimiter era
    let config = KizzleConfig::paper();

    for family in KitFamily::ALL {
        let model = KitModel::new(family);
        // A "cluster": eight same-day variants with randomized identifiers.
        let samples: Vec<_> = (0..8u64)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(500 + i);
                kizzle_js::tokenize_document_capped(
                    &model.generate_sample(date, &mut rng),
                    config.token_cap,
                )
            })
            .collect();

        match generate_signature(
            &format!("{}.sig1", family.short_code()),
            &samples,
            &config.signature,
        ) {
            Ok(sig) => {
                println!("=== {family} ===");
                describe(&sig);
                let matched = samples.iter().filter(|s| sig.matches_stream(s)).count();
                println!("  matches {matched}/{} cluster members\n", samples.len());
            }
            Err(err) => println!("=== {family} ===\n  no signature: {err}\n"),
        }
    }
}
