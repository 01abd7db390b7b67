//! The oracle: the straightforward per-family unpack path. Every attempt
//! extracts the script text afresh, lexes it into an owned token stream,
//! copies each string literal out, concatenates the encoded chunks and
//! decodes them through `str::split` and `str::parse`. The production
//! path (one extraction shared by every family, borrowed literals, byte
//! decoders) must give the same answer on every input.

use kizzle_corpus::KitFamily;
use kizzle_js::{tokenize, TokenClass};
use kizzle_unpack::{looks_like_javascript, Result, UnpackError};

struct Literal {
    value: String,
    previous: Option<String>,
}

fn string_literals(js: &str) -> Vec<Literal> {
    let stream = tokenize(js);
    let tokens = stream.tokens();
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if tok.class == TokenClass::String {
            out.push(Literal {
                value: tok.unquoted().to_string(),
                previous: i.checked_sub(1).map(|p| tokens.at(p).text.to_string()),
            });
        }
    }
    out
}

fn is_digits_and(value: &str, extra: &str) -> bool {
    !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_digit() || extra.contains(c))
}

fn decode_charcodes(encoded: &str, delimiter: &str) -> Option<String> {
    if delimiter.is_empty() {
        return None;
    }
    let mut out = String::new();
    for segment in encoded.split(delimiter) {
        if segment.is_empty() {
            continue;
        }
        let code: u32 = segment.parse().ok()?;
        out.push(char::from_u32(code)?);
    }
    Some(out)
}

pub fn script_text(document: &str) -> String {
    let scripts = kizzle_js::extract_scripts(document);
    if scripts.is_empty() {
        return document.to_string();
    }
    scripts
        .iter()
        .map(|s| s.body)
        .collect::<Vec<_>>()
        .join("\n")
}

pub fn unpack(family: KitFamily, document: &str) -> Result<String> {
    let js = script_text(document);
    if js.trim().is_empty() {
        return Err(UnpackError::NoScript);
    }
    family_unpack(family, &js)
}

pub fn family_unpack(family: KitFamily, js: &str) -> Result<String> {
    match family {
        KitFamily::Rig => rig(js),
        KitFamily::Nuclear => nuclear(js),
        KitFamily::Angler => angler(js),
        KitFamily::SweetOrange => sweet_orange(js),
    }
}

pub fn try_unpack_any(document: &str) -> Option<(KitFamily, String)> {
    for family in [
        KitFamily::Nuclear,
        KitFamily::Angler,
        KitFamily::Rig,
        KitFamily::SweetOrange,
    ] {
        if let Ok(payload) = unpack(family, document) {
            if looks_like_javascript(&payload) {
                return Some((family, payload));
            }
        }
    }
    None
}

pub fn unpack_or_passthrough(document: &str) -> (Option<KitFamily>, String) {
    match try_unpack_any(document) {
        Some((family, payload)) => (Some(family), payload),
        None => (None, script_text(document)),
    }
}

fn rig(js: &str) -> Result<String> {
    let literals = string_literals(js);
    let delimiter = literals
        .iter()
        .find(|lit| {
            !lit.value.is_empty()
                && lit.value.len() <= 8
                && !lit.value.chars().next().is_some_and(|c| c.is_ascii_digit())
        })
        .map(|lit| lit.value.clone())
        .ok_or(UnpackError::MissingComponent("RIG delimiter"))?;
    let encoded: String = literals
        .iter()
        .filter(|lit| {
            lit.previous.as_deref() == Some("(")
                && is_digits_and(&lit.value, &delimiter)
                && (lit.value.len() >= 20 || lit.value.chars().any(|c| c.is_ascii_digit()))
        })
        .map(|lit| lit.value.as_str())
        .collect();
    if encoded.is_empty() {
        return Err(UnpackError::MissingComponent("RIG encoded chunks"));
    }
    decode_charcodes(&encoded, &delimiter).ok_or_else(|| {
        UnpackError::MalformedEncoding(format!(
            "RIG chunks did not decode with delimiter {delimiter:?}"
        ))
    })
}

fn sweet_orange(js: &str) -> Result<String> {
    let literals = string_literals(js);
    let delimiter = literals
        .iter()
        .filter(|lit| {
            lit.previous.as_deref() == Some("(") && !lit.value.is_empty() && lit.value.len() <= 8
        })
        .find(|lit| js.contains(&format!("split(\"{}\")", lit.value)))
        .map(|lit| lit.value.clone())
        .ok_or(UnpackError::MissingComponent("Sweet Orange delimiter"))?;
    let encoded: String = literals
        .iter()
        .filter(|lit| {
            lit.previous.as_deref() == Some("(")
                && lit.value != delimiter
                && lit.value.chars().any(|c| c.is_ascii_digit())
                && is_digits_and(&lit.value, &delimiter)
        })
        .map(|lit| lit.value.as_str())
        .collect();
    if encoded.is_empty() {
        return Err(UnpackError::MissingComponent("Sweet Orange encoded chunks"));
    }
    decode_charcodes(&encoded, &delimiter).ok_or_else(|| {
        UnpackError::MalformedEncoding(format!(
            "Sweet Orange chunks did not decode with delimiter {delimiter:?}"
        ))
    })
}

fn angler(js: &str) -> Result<String> {
    let hex: String = string_literals(js)
        .iter()
        .filter(|lit| {
            lit.value.len() >= 8
                && lit.value.len().is_multiple_of(2)
                && lit
                    .value
                    .bytes()
                    .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        })
        .map(|lit| lit.value.as_str())
        .collect();
    if hex.is_empty() {
        return Err(UnpackError::MissingComponent("Angler hex chunks"));
    }
    let malformed = || UnpackError::MalformedEncoding("Angler hex payload invalid".to_string());
    let mut bytes = Vec::new();
    for pair in hex.as_bytes().chunks_exact(2) {
        let pair = std::str::from_utf8(pair).map_err(|_| malformed())?;
        bytes.push(u8::from_str_radix(pair, 16).map_err(|_| malformed())?);
    }
    String::from_utf8(bytes).map_err(|_| malformed())
}

fn nuclear(js: &str) -> Result<String> {
    let literals = string_literals(js);
    let key = literals
        .iter()
        .map(|lit| lit.value.as_str())
        .find(|v| v.chars().count() == 92 && !v.chars().any(|c| c.is_ascii_whitespace()))
        .ok_or(UnpackError::MissingComponent("Nuclear cryptkey"))?;
    let payload = literals
        .iter()
        .map(|lit| lit.value.as_str())
        .filter(|v| v.len() >= 64 && v.bytes().all(|b| b.is_ascii_digit()))
        .max_by_key(|v| v.len())
        .ok_or(UnpackError::MissingComponent("Nuclear encoded payload"))?;
    let key: Vec<char> = key.chars().collect();
    let candidates: Vec<String> = [2usize, 3]
        .iter()
        .filter_map(|&width| nuclear_decode(payload, &key, width))
        .collect();
    candidates
        .into_iter()
        .max_by(|a, b| {
            nuclear_score(a)
                .partial_cmp(&nuclear_score(b))
                .expect("scores are finite")
        })
        .filter(|text| looks_like_javascript(text))
        .ok_or_else(|| {
            UnpackError::MalformedEncoding("Nuclear payload decoded to garbage".to_string())
        })
}

fn nuclear_decode(digits: &str, key: &[char], width: usize) -> Option<String> {
    let bytes = digits.as_bytes();
    let mut out = String::new();
    let mut pos = 0;
    while pos < bytes.len() {
        if pos + width > bytes.len() {
            return None;
        }
        let idx: usize = digits[pos..pos + width].parse().ok()?;
        pos += width;
        if idx < key.len() {
            out.push(key[idx]);
        } else if idx == key.len() {
            if pos + 3 > bytes.len() {
                return None;
            }
            let code: u32 = digits[pos..pos + 3].parse().ok()?;
            pos += 3;
            out.push(char::from_u32(code)?);
        } else {
            return None;
        }
    }
    Some(out)
}

fn nuclear_score(text: &str) -> f64 {
    if text.is_empty() {
        return 0.0;
    }
    let printable = text
        .bytes()
        .filter(|b| b.is_ascii_graphic() || b.is_ascii_whitespace())
        .count() as f64
        / text.len() as f64;
    let keywords = ["function", "var ", "return", "document"]
        .iter()
        .filter(|kw| text.contains(**kw))
        .count() as f64;
    printable + keywords
}
