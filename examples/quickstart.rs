//! Quickstart: seed Kizzle with known kits, stream one day of grayware
//! into a session, and scan it with the signatures the seal publishes.
//!
//! ```bash
//! cargo run --release -p kizzle-sim --example quickstart
//! ```

use kizzle::prelude::*;
use kizzle_corpus::{GraywareStream, GroundTruth, SimDate, StreamConfig};

fn main() -> Result<(), KizzleError> {
    // 1. The day we are processing and the pipeline configuration — the
    //    paper's operating point (DBSCAN at 0.10, 200-token signatures).
    let date = SimDate::new(2014, 8, 5);
    let config = KizzleConfig::paper();

    // 2. Kizzle must be seeded with known, unpacked exploit kits — it
    //    automates the analyst's signature writing, it does not replace the
    //    analyst's initial triage.
    let reference = ReferenceCorpus::seeded_from_models(date, &config);
    let mut service = KizzleService::new(config, reference)?;

    // 3. The serving side is up before the first compile: matcher handles
    //    are cheap, cloneable and Send + Sync — one per scanner thread.
    let matcher = service.matcher();

    // 4. One day of "grayware": mostly benign pages with a minority of
    //    exploit-kit landing pages (synthetic stand-in for the paper's IE
    //    telemetry stream), arriving in mini-batches like live telemetry.
    let stream = GraywareStream::new(StreamConfig {
        samples_per_day: 200,
        seed: 7,
        ..StreamConfig::default()
    });
    let day = stream.generate_day(date);
    println!("processing {} samples captured on {date}", day.len());

    let mut session = service.begin_day(date)?;
    for batch in day.chunks(25) {
        // Tokenize/dedup/store-insert happen eagerly per batch, so the
        // day's front half is amortized while the tail is still arriving.
        session.ingest(batch);
    }

    // 5. Seal: cluster, label, compile signatures — and publish them
    //    atomically to every matcher handle.
    let report = session.seal();
    println!("{report}");
    for verdict in &report.verdicts {
        println!(
            "  cluster of {:3} samples -> {}",
            verdict.size,
            match verdict.family {
                Some(family) => format!(
                    "{family} (overlap {:.0}%, signature {})",
                    verdict.overlap * 100.0,
                    verdict.signature_name.as_deref().unwrap_or("none")
                ),
                None => "benign / unknown".to_string(),
            }
        );
    }

    // 6. The emitted signatures, in the regex-like rendering of the paper's
    //    Fig. 10 — read through the matcher's consistent snapshot.
    println!("\ndeployed signatures:");
    for labeled in matcher.signatures().iter() {
        let rendered = labeled.signature.render();
        let preview: String = rendered.chars().take(120).collect();
        println!(
            "  [{}] {} ({} chars): {preview}…",
            labeled.label,
            labeled.signature.name,
            labeled.signature.rendered_len()
        );
    }

    // 7. Scan the same day with the freshly published signatures — the
    //    handle from step 3 picked up the seal without being re-issued.
    let mut detected = 0;
    let mut missed = 0;
    let mut false_positives = 0;
    for sample in &day {
        let hit = matcher.scan(&sample.html);
        match (sample.truth, hit) {
            (GroundTruth::Malicious(_), Some(_)) => detected += 1,
            (GroundTruth::Malicious(_), None) => missed += 1,
            (GroundTruth::Benign, Some(_)) => false_positives += 1,
            (GroundTruth::Benign, None) => {}
        }
    }
    println!(
        "\nsame-day scan: {detected} detected, {missed} missed, {false_positives} false positives"
    );
    Ok(())
}
