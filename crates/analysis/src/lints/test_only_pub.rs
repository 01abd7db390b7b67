//! `test-only-pub`: product crates carry only the product path. A
//! `pub fn` (free function or method) in library code that nothing but
//! tests calls is an oracle wearing product clothes — it belongs in the
//! crate's `tests/common/`, or it should not be `pub`.
//!
//! Flags a plain `pub fn` outside test regions of non-vendored library
//! code whose name never appears as an identifier in library, binary,
//! example or bench code outside `#[cfg(test)]`/`#[test]` regions,
//! other than at a `pub fn` definition's own name. Matching is by name
//! alone, so it is conservative: two items sharing a name hide each
//! other (a collision can only hide a finding, never invent one).
//! Restricted visibility (`pub(crate)`, `pub(super)`) is not flagged.

use crate::lexer::TokenKind;
use crate::lint::{Finding, Severity};
use crate::lints::finding_at;
use crate::workspace::{Role, SourceFile, Workspace};
use std::collections::BTreeSet;

const LINT: &str = "test-only-pub";

pub fn run(ws: &Workspace, out: &mut Vec<Finding>) {
    let product = |file: &&SourceFile| {
        !file.vendored
            && matches!(
                file.role,
                Role::Lib | Role::Bin | Role::Example | Role::Bench
            )
    };

    // Every `pub fn` name token in library code: (file, token index).
    let mut definitions: Vec<(&SourceFile, usize)> = Vec::new();
    for file in ws
        .files
        .iter()
        .filter(|f| !f.vendored && f.role == Role::Lib)
    {
        for i in file.code_token_indices() {
            if let Some(name) = pub_fn_name(file, i) {
                if !file.in_test_region(file.tokens[i].start) {
                    definitions.push((file, name));
                }
            }
        }
    }
    let defined_at: BTreeSet<(&str, usize)> = definitions
        .iter()
        .map(|(file, name)| (file.rel_path.as_str(), file.tokens[*name].start))
        .collect();

    // Every other identifier in non-test product code.
    let mut used: BTreeSet<&[u8]> = BTreeSet::new();
    for file in ws.files.iter().filter(product) {
        for i in file.code_token_indices() {
            let tok = file.tokens[i];
            if tok.kind == TokenKind::Ident
                && !defined_at.contains(&(file.rel_path.as_str(), tok.start))
                && !file.in_test_region(tok.start)
            {
                used.insert(file.token_text(i));
            }
        }
    }

    for (file, name) in definitions {
        let text = file.token_text(name);
        if used.contains(text) {
            continue;
        }
        out.push(finding_at(
            LINT,
            Severity::Error,
            file,
            file.tokens[name].start,
            format!(
                "`pub fn {}` has no caller outside test code — move it into the \
                 crate's tests/common/, narrow its visibility, or justify it in \
                 analysis/allow.toml",
                String::from_utf8_lossy(text)
            ),
        ));
    }
}

/// If code token `i` is a plain `pub` opening a function item
/// (`pub [const] [async] [unsafe] [extern "abi"] fn name`), the index of
/// the name token.
fn pub_fn_name(file: &SourceFile, i: usize) -> Option<usize> {
    if file.token_text(i) != b"pub" {
        return None;
    }
    let mut j = file.next_code(i)?;
    loop {
        match file.token_text(j) {
            b"const" | b"async" | b"unsafe" | b"extern" => j = file.next_code(j)?,
            _ if file.tokens[j].kind == TokenKind::Str => j = file.next_code(j)?,
            b"fn" => break,
            _ => return None,
        }
    }
    let name = file.next_code(j)?;
    (file.tokens[name].kind == TokenKind::Ident).then_some(name)
}
