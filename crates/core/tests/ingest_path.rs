//! Ingest keeps one token-class string per sample and nothing else of its
//! tokens: each document is lexed into the ingesting thread's scratch span
//! buffer, and only the class string is allocated. Counted, not argued:
//! this binary's global allocator tallies allocations per thread, and a
//! raw batch of N documents — ingested directly, below the pooled-lexing
//! threshold, so every allocation lands on the calling thread — costs at
//! most N plus a constant, however many tokens its documents hold.

use kizzle::prelude::*;
use kizzle_corpus::{GroundTruth, Sample, SampleId, SimDate};
use std::sync::Arc;

/// The counting global allocator.
mod common {
    pub mod counting_alloc;
}
use common::counting_alloc::allocations;

/// Documents in the measured batch: below the 64 at which ingest lexes on
/// the rayon pool instead of the calling thread.
const DOCUMENTS: usize = 48;

/// Allocations a batch may make beyond one per document: the group and
/// class-string vectors, the batch's ids, and amortized growth of the
/// session's buffers.
const SLACK: u64 = 16;

/// `DOCUMENTS` pages whose single script holds `statements` statements of
/// five tokens each (so up to `5 * statements` tokens, before the cap).
fn batch(statements: usize) -> Arc<[Sample]> {
    let date = SimDate::new(2014, 8, 5);
    (0..DOCUMENTS)
        .map(|i| {
            let body: String = (0..statements)
                .map(|s| format!("v{i}_{s} = {s};"))
                .collect();
            Sample {
                id: SampleId(i as u64),
                date,
                html: format!("<html><script>{body}</script></html>"),
                truth: GroundTruth::Benign,
            }
        })
        .collect()
}

/// Allocations made by ingesting `batch` a second time into one session:
/// the first ingest stores its content and warms the thread's scratch, so
/// the second is lexing plus dedup hits.
fn warm_ingest_allocations(batch: &Arc<[Sample]>) -> u64 {
    let config = KizzleConfig::fast();
    let reference = ReferenceCorpus::seeded_from_models(SimDate::new(2014, 8, 1), &config);
    let mut service = KizzleService::new(config, reference).expect("fast config is valid");
    let mut session = service
        .begin_day(SimDate::new(2014, 8, 5))
        .expect("day opens");
    session.ingest(Arc::clone(batch));
    let before = allocations();
    session.ingest(Arc::clone(batch));
    let allocated = allocations() - before;
    assert_eq!(session.ingested(), 2 * DOCUMENTS);
    allocated
}

#[test]
fn ingest_allocates_one_class_string_per_document_whatever_its_token_count() {
    // From a couple of tokens to past the fast configuration's 500-token
    // cap.
    for statements in [1, 20, 90, 400] {
        let allocated = warm_ingest_allocations(&batch(statements));
        assert!(
            allocated <= DOCUMENTS as u64 + SLACK,
            "{allocated} allocations ingesting {DOCUMENTS} documents of {statements} statements"
        );
    }
}
