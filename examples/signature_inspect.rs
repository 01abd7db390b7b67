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
use std::io::{self, Write};

fn literal_count(sig: &Signature) -> usize {
    sig.elements
        .iter()
        .filter(|e| matches!(e, Element::Literal(_)))
        .count()
}

fn describe(out: &mut impl Write, sig: &Signature) -> io::Result<()> {
    let literals = literal_count(sig);
    writeln!(
        out,
        "  window: {} tokens ({} literal, {} generalized), rendered {} chars",
        sig.len(),
        literals,
        sig.len() - literals,
        sig.rendered_len()
    )?;
    let rendered = sig.render();
    let preview: String = rendered.chars().take(300).collect();
    writeln!(out, "  {preview}…")
}

/// Inspect the deployed signature set in a state directory.
fn inspect_snapshot(out: &mut impl Write, path: &str) -> io::Result<()> {
    let set = match kizzle::read_signatures(std::path::Path::new(path)) {
        Ok(set) => set,
        Err(err) => {
            eprintln!("signature_inspect: cannot load {path}: {err}");
            std::process::exit(2);
        }
    };
    writeln!(
        out,
        "{} deployed signatures in {path} (labels: {})\n",
        set.len(),
        set.labels().join(", ")
    )?;
    for labeled in set.iter() {
        writeln!(
            out,
            "=== [{}] {} (support {}) ===",
            labeled.label, labeled.signature.name, labeled.signature.support
        )?;
        describe(out, &labeled.signature)?;
        writeln!(out)?;
    }
    Ok(())
}

/// Generate one signature per kit from eight same-day variants.
fn inspect_generated(out: &mut impl Write) -> io::Result<()> {
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
                writeln!(out, "=== {family} ===")?;
                describe(out, &sig)?;
                let matched = samples.iter().filter(|s| sig.matches_stream(s)).count();
                writeln!(
                    out,
                    "  matches {matched}/{} cluster members\n",
                    samples.len()
                )?;
            }
            Err(err) => writeln!(out, "=== {family} ===\n  no signature: {err}\n")?,
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let written = match args.as_slice() {
        [] => inspect_generated(&mut out),
        [flag, path] if flag == "--snapshot" => inspect_snapshot(&mut out, path),
        _ => {
            eprintln!("usage: signature_inspect [--snapshot DIR]");
            std::process::exit(2);
        }
    };
    match written.and_then(|()| out.flush()) {
        Ok(()) => {}
        // A reader that stops early (`| head`) has everything it wanted.
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => {}
        Err(err) => {
            eprintln!("signature_inspect: cannot write the report: {err}");
            std::process::exit(1);
        }
    }
}
