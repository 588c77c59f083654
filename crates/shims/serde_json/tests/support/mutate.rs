//! Hostile near-misses of a well-formed JSON line, and the parity check they
//! feed: `from_str::<T>` (the typed reader) must agree with reading `T` out
//! of the parsed `Value` tree on every one of them.
//!
//! Shared by the shim's own codec tests and the daemon's wire tests (which
//! include this file by path), so both exercise the same mutations.

use proptest::prelude::TestRng;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Debug;

/// What an inserted key is given: every JSON type, an integral float an
/// integer field may take, and ones it must refuse.
const VALUES: &[&str] = &[
    "0",
    "7",
    "-1",
    "1.5",
    "3.0",
    "1e20",
    "9007199254740993.0",
    "null",
    "true",
    "\"x\"",
    "[]",
    "[1,2.5]",
    "{}",
    "{\"a\":[null]}",
];

/// The bytes a one-byte flip writes: every JSON delimiter plus the pieces
/// of numbers and escapes.
const FLIPS: &[u8] = b"\"{}[],:-.e\\";

/// Byte spans of one line: each object key (opening quote to closing quote)
/// with the span of the object holding it, and every object's span.
/// Scanning stops quietly at the first structural surprise, so it also
/// works on lines an earlier mutation already broke.
struct Layout {
    /// `(key start, key end, object open, object close)`.
    keys: Vec<(usize, usize, usize, usize)>,
    /// `(open, close)` of every complete object.
    objects: Vec<(usize, usize)>,
}

fn layout(line: &str) -> Layout {
    let bytes = line.as_bytes();
    let mut open: Vec<(usize, Vec<(usize, usize)>)> = Vec::new();
    let mut layout = Layout {
        keys: Vec::new(),
        objects: Vec::new(),
    };
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if i >= bytes.len() {
                    break;
                }
                if bytes.get(i + 1) == Some(&b':') {
                    if let Some((_, keys)) = open.last_mut() {
                        keys.push((start, i + 1));
                    }
                }
            }
            b'{' => open.push((i, Vec::new())),
            b'}' => {
                let Some((start, keys)) = open.pop() else {
                    break;
                };
                layout.objects.push((start, i));
                layout
                    .keys
                    .extend(keys.into_iter().map(|(ks, ke)| (ks, ke, start, i)));
            }
            _ => {}
        }
        i += 1;
    }
    layout
}

fn pick<'a, T>(items: &'a [T], rng: &mut TestRng) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[(rng.next_u64() % items.len() as u64) as usize])
}

/// A character boundary of `line` at a random byte.
fn boundary(line: &str, rng: &mut TestRng) -> usize {
    let mut at = (rng.next_u64() % (line.len() as u64 + 1)) as usize;
    while !line.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn insert(line: &str, at: usize, text: &str) -> String {
    format!("{}{text}{}", &line[..at], &line[at..])
}

/// One random near-miss of `line`: truncated at a random byte, one
/// character flipped into a delimiter, a key's first letter spelled as a
/// `\u` escape, a key repeated (before or after its first occurrence, with
/// any value), or an unknown key added.  A mutation with nothing to act on
/// returns the line unchanged.
pub fn mutate(line: &str, rng: &mut TestRng) -> String {
    let layout = layout(line);
    let value = *pick(VALUES, rng).unwrap();
    match rng.next_u64() % 5 {
        0 => line[..boundary(line, rng)].to_string(),
        1 => {
            let at = boundary(line, rng);
            let Some(c) = line[at..].chars().next() else {
                return line.to_string();
            };
            let flip = FLIPS[(rng.next_u64() % FLIPS.len() as u64) as usize] as char;
            format!("{}{flip}{}", &line[..at], &line[at + c.len_utf8()..])
        }
        2 => match pick(&layout.keys, rng) {
            Some(&(start, _, _, _)) if line.as_bytes()[start + 1].is_ascii_alphanumeric() => {
                let first = line.as_bytes()[start + 1];
                format!("{}\\u{first:04x}{}", &line[..start + 1], &line[start + 2..])
            }
            _ => line.to_string(),
        },
        3 => match pick(&layout.keys, rng) {
            Some(&(start, end, open, close)) => {
                let key = &line[start..end];
                if rng.next_u64() & 1 == 0 {
                    insert(line, open + 1, &format!("{key}:{value},"))
                } else {
                    insert(line, close, &format!(",{key}:{value}"))
                }
            }
            None => line.to_string(),
        },
        _ => match pick(&layout.objects, rng) {
            Some(&(open, close)) => {
                if rng.next_u64() & 1 == 0 {
                    insert(line, open + 1, &format!("\"zz_unknown\":{value},"))
                } else {
                    insert(line, close, &format!(",\"zz_unknown\":{value}"))
                }
            }
            None => line.to_string(),
        },
    }
}

/// Decodes `line` as a `T` directly and through the tree; they must both
/// fail, or both succeed with the same value (compared as text too, so a
/// lost `-0.0` sign shows).
pub fn typed_matches_tree<T>(line: &str) -> Result<(), String>
where
    T: Deserialize + Serialize + PartialEq + Debug,
{
    let typed = serde_json::from_str::<T>(line);
    let tree = serde_json::from_str::<Value>(line).and_then(|tree| T::deserialize(&tree));
    match (&typed, &tree) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(a), Ok(b)) if a == b && serde_json::to_string(a) == serde_json::to_string(b) => Ok(()),
        _ => Err(format!(
            "typed and tree decoding disagree on {line}\n typed: {typed:?}\n  tree: {tree:?}"
        )),
    }
}
