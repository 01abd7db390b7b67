//! The seal generates a labelled cluster's signature in two steps: it picks
//! the members signature generation reads from their class strings
//! ([`pick_subsample`] over the day positions of the non-empty ones), lexes
//! only those, and generates from them plus the cluster's size
//! ([`generate_from_subsample`]). That must give exactly what one
//! [`generate_signature`] call over every member's stream gives — the same
//! signature, or the same error — around the `max_samples` stride boundary
//! and with empty members anywhere in the list.

use kizzle_js::{tokenize, TokenStream};
use kizzle_signature::{
    generate_from_subsample, generate_signature, pick_subsample, GenerateError, Signature,
    SignatureConfig,
};
use proptest::prelude::*;

/// The one-call generator as it stood before the split.
mod common {
    pub mod whole;
}

/// Cluster sizes on both sides of the two `max_samples` values tested.
const SIZES: [usize; 7] = [0, 1, 31, 32, 33, 64, 65];
const MAX_SAMPLES: [usize; 2] = [8, 32];

/// One member of a packed cluster: a shared skeleton with per-member
/// identifiers and payload. Every fifth seed is a member without a single
/// token, and every seventh carries a prefix of its own, so the common
/// window moves and sometimes falls short of `min_tokens`.
fn member(seed: u32) -> TokenStream {
    if seed.is_multiple_of(5) {
        return tokenize("");
    }
    let prefix = if seed.is_multiple_of(7) {
        format!("w{seed}({seed}); ")
    } else {
        String::new()
    };
    tokenize(&format!(
        r#"{prefix}var a{seed} = ""; var b{seed} = "{payload}"; a{seed} = b{seed}.split("zz"); doc[a{seed}](b{seed});"#,
        payload = u64::from(seed) * 7919,
    ))
}

/// The split as the seal runs it: positions of the non-empty members,
/// picked, then generated from with the cluster's size as the support.
fn pick_then_generate(
    name: &str,
    members: &[TokenStream],
    config: &SignatureConfig,
) -> Result<Signature, GenerateError> {
    let usable: Vec<usize> = (0..members.len())
        .filter(|&i| !members[i].class_codes().is_empty())
        .collect();
    let subsample: Vec<&TokenStream> = pick_subsample(&usable, config)
        .into_iter()
        .map(|i| &members[i])
        .collect();
    generate_from_subsample(name, &subsample, members.len(), config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pick_then_generate_equals_the_whole_call(
        size in 0usize..SIZES.len(),
        max_samples in 0usize..MAX_SAMPLES.len(),
        seeds in prop::collection::vec(0u32..10_000, 65),
        min_tokens in 4usize..40,
    ) {
        let members: Vec<TokenStream> = seeds[..SIZES[size]].iter().map(|&s| member(s)).collect();
        let config = SignatureConfig {
            max_samples: MAX_SAMPLES[max_samples],
            min_tokens,
            ..SignatureConfig::default()
        };
        let want = common::whole::generate_signature("kit.sig", &members, &config);
        prop_assert_eq!(&pick_then_generate("kit.sig", &members, &config), &want);
        prop_assert_eq!(&generate_signature("kit.sig", &members, &config), &want);
    }
}

/// Each size and stride once, with every kind of outcome covered: a
/// signature, no usable member, and too short a window.
#[test]
fn every_size_and_stride_agrees() {
    let mut outcomes = [0usize; 3];
    for size in SIZES {
        for max_samples in MAX_SAMPLES {
            for min_tokens in [4, 200] {
                let members: Vec<TokenStream> = (1..=size as u32).map(member).collect();
                let config = SignatureConfig {
                    max_samples,
                    min_tokens,
                    ..SignatureConfig::default()
                };
                let want = common::whole::generate_signature("kit.sig", &members, &config);
                assert_eq!(pick_then_generate("kit.sig", &members, &config), want);
                outcomes[match want {
                    Ok(_) => 0,
                    Err(GenerateError::EmptyCluster) => 1,
                    Err(GenerateError::NoCommonSubsequence { .. }) => 2,
                }] += 1;
            }
        }
    }
    assert!(outcomes.iter().all(|&n| n > 0), "outcomes {outcomes:?}");
}

/// Up to `max_samples` usable members are all read; beyond that the stride
/// picks more than half and at most `max_samples`, first member included.
#[test]
fn pick_subsample_is_bounded_and_starts_at_the_first_member() {
    for size in SIZES {
        for max_samples in MAX_SAMPLES {
            let usable: Vec<usize> = (0..size).collect();
            let config = SignatureConfig {
                max_samples,
                ..SignatureConfig::default()
            };
            let picked = pick_subsample(&usable, &config);
            if size <= max_samples {
                assert_eq!(picked, usable);
            } else {
                assert!(picked.len() <= max_samples && 2 * picked.len() > max_samples);
                assert_eq!(picked[0], 0);
            }
        }
    }
}
