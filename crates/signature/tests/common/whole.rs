//! `generate_signature` as one call, kept as the oracle for the split the
//! pipeline uses (pick the subsample, then generate from it plus the
//! member count).
//!
//! This is the product's body from before the split, verbatim but for the
//! imports: filter the usable members, stride through them down to
//! `config.max_samples`, search the window and generalize it. The search
//! and the generalization are the crate's own — their oracle is
//! `reference.rs` — so a difference here can only come from the split.

use kizzle_js::TokenStream;
use kizzle_signature::generate::{find_common_window, generalize, GenerateError};
use kizzle_signature::{Signature, SignatureConfig};

/// Generate a signature from the packed samples of one malicious cluster.
pub fn generate_signature<S: AsRef<TokenStream>>(
    name: &str,
    samples: &[S],
    config: &SignatureConfig,
) -> Result<Signature, GenerateError> {
    let usable: Vec<&TokenStream> = samples
        .iter()
        .map(AsRef::as_ref)
        .filter(|s| !s.is_empty())
        .collect();
    if usable.is_empty() {
        return Err(GenerateError::EmptyCluster);
    }
    let subsampled: Vec<&TokenStream> = if usable.len() > config.max_samples {
        let step = usable.len().div_ceil(config.max_samples);
        usable.iter().step_by(step).copied().collect()
    } else {
        usable
    };

    let window =
        find_common_window(&subsampled, config).ok_or(GenerateError::NoCommonSubsequence {
            longest_found: 0,
            required: config.min_tokens,
        })?;
    if window.len < config.min_tokens {
        return Err(GenerateError::NoCommonSubsequence {
            longest_found: window.len,
            required: config.min_tokens,
        });
    }
    let elements = generalize(&subsampled, &window);
    Ok(Signature::new(name, elements, samples.len()))
}
