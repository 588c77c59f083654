//! The JSON shim is this workspace's production codec, so it is tested like
//! one: the direct writer and the tree writer must agree byte for byte on
//! every shape the derive supports, the direct reader and the tree reader
//! must agree on every input (broken ones included), text must round-trip,
//! hostile nesting must be refused rather than overflow the stack, and
//! decoding must stay linear in the size of the input.

mod support {
    pub mod mutate;
}

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use serde_json::{from_str, to_string, Value};
use std::time::{Duration, Instant};
use support::mutate::{mutate, typed_matches_tree};

/// What `to_string` produced before the direct writer existed: build the
/// tree, render the tree.
fn through_tree<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize().write_json(&mut out).unwrap();
    out
}

/// Strings that exercise every branch of the string writer and parser:
/// plain runs, the two-character escapes, `\u00XX` control escapes,
/// multi-byte BMP characters and non-BMP ones.
fn tricky_string(rng: &mut TestRng) -> String {
    const PIECES: &[&str] = &[
        "tenant",
        "a",
        "",
        "\"",
        "\\",
        "\n",
        "\r\t",
        "\u{1}",
        "\u{1f}",
        "/",
        "é",
        "漢字",
        "😀",
        "\u{10ffff}",
        " ",
        "\\u0041",
    ];
    let len = rng.next_u64() % 6;
    (0..len)
        .map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize])
        .collect()
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

fn finite_float(rng: &mut TestRng) -> f64 {
    match rng.next_u64() % 6 {
        0 => 0.0,
        1 => -0.0,
        2 => (rng.next_u64() % 1000) as f64,
        3 => f64::from_bits(rng.next_u64() % (0x7ff0u64 << 48)),
        4 => -f64::from_bits(rng.next_u64() % (0x7ff0u64 << 48)),
        _ => rng.next_f64() * 1e-9,
    }
}

/// Random trees in the canonical form the parser produces (non-negative
/// integers are `UInt`), so `from_str(to_string(v)) == v` is exact.
#[derive(Debug, Clone, Copy)]
struct AnyValue {
    depth: u32,
}

impl Strategy for AnyValue {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let leaf_only = self.depth == 0;
        match rng.next_u64() % if leaf_only { 6 } else { 8 } {
            0 => Value::Null,
            1 => Value::Bool(coin(rng)),
            2 => Value::UInt(rng.next_u64() >> (rng.next_u64() % 64)),
            3 => Value::Int(-1 - (rng.next_u64() >> (1 + rng.next_u64() % 63)) as i64),
            4 => Value::Float(finite_float(rng)),
            5 => Value::Str(tricky_string(rng)),
            kind => {
                let child = AnyValue {
                    depth: self.depth - 1,
                };
                let len = rng.next_u64() % 5;
                if kind == 6 {
                    Value::Array((0..len).map(|_| child.sample(rng)).collect())
                } else {
                    Value::Object(
                        (0..len)
                            .map(|_| (tricky_string(rng), child.sample(rng)))
                            .collect(),
                    )
                }
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Idle,
    Newtype(i64),
    Pair(u8, f32),
    Join {
        name: String,
        weight: u32,
        speedup: Vec<f64>,
    },
}

/// One field of every kind the derive and the container impls handle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    unit: Unit,
    empty: Empty,
    nothing: (),
    flag: bool,
    small: i8,
    signed: isize,
    count: usize,
    ratio: f32,
    length: Meters,
    name: String,
    maybe: Option<u16>,
    pairs: Vec<(u64, f64)>,
    quad: (bool, String, Option<f64>, i32),
    shapes: Vec<Shape>,
    nested: Vec<Vec<Option<Shape>>>,
    raw: Value,
}

/// A borrowed, encode-only view — the shape `ServiceSnapshotRef` has.
#[derive(Debug, Serialize)]
struct View<'a> {
    name: &'a str,
    shapes: &'a [Shape],
    fixed: [u8; 3],
    inner: &'a Everything,
}

fn any_shape(rng: &mut TestRng) -> Shape {
    match rng.next_u64() % 4 {
        0 => Shape::Idle,
        1 => Shape::Newtype(rng.next_u64() as i64),
        2 => Shape::Pair(rng.next_u64() as u8, rng.next_f64() as f32),
        _ => Shape::Join {
            name: tricky_string(rng),
            weight: rng.next_u64() as u32,
            speedup: (0..rng.next_u64() % 4).map(|_| finite_float(rng)).collect(),
        },
    }
}

#[derive(Debug, Clone, Copy)]
struct AnyEverything;

impl Strategy for AnyEverything {
    type Value = Everything;

    fn sample(&self, rng: &mut TestRng) -> Everything {
        Everything {
            unit: Unit,
            empty: Empty {},
            nothing: (),
            flag: coin(rng),
            small: rng.next_u64() as i8,
            signed: rng.next_u64() as isize,
            count: rng.next_u64() as usize,
            ratio: rng.next_f64() as f32,
            length: Meters(finite_float(rng)),
            name: tricky_string(rng),
            maybe: (coin(rng)).then(|| rng.next_u64() as u16),
            pairs: (0..rng.next_u64() % 4)
                .map(|_| (rng.next_u64(), finite_float(rng)))
                .collect(),
            quad: (
                coin(rng),
                tricky_string(rng),
                (coin(rng)).then(|| finite_float(rng)),
                rng.next_u64() as i32,
            ),
            shapes: (0..rng.next_u64() % 4).map(|_| any_shape(rng)).collect(),
            nested: (0..rng.next_u64() % 3)
                .map(|_| {
                    (0..rng.next_u64() % 3)
                        .map(|_| (coin(rng)).then(|| any_shape(rng)))
                        .collect()
                })
                .collect(),
            raw: AnyValue { depth: 2 }.sample(rng),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_value_trees_round_trip_through_text(tree in AnyValue { depth: 4 }) {
        let text = to_string(&tree).unwrap();
        prop_assert_eq!(&text, &through_tree(&tree));
        prop_assert_eq!(&text, &tree.to_string(), "Display is the same compact form");
        let back: Value = from_str(&text).unwrap();
        prop_assert_eq!(back, tree);
    }

    #[test]
    fn direct_writer_matches_the_tree_for_every_derived_shape(value in AnyEverything) {
        let text = to_string(&value).unwrap();
        prop_assert_eq!(&text, &through_tree(&value));
        let back: Everything = from_str(&text).unwrap();
        // `-0.0 == 0.0`, so equality alone would miss a lost sign; the text
        // is the stricter witness.
        prop_assert_eq!(&to_string(&back).unwrap(), &text);
        prop_assert_eq!(back, value.clone());

        let view = View {
            name: &value.name,
            shapes: &value.shapes,
            fixed: [1, 2, 3],
            inner: &value,
        };
        prop_assert_eq!(to_string(&view).unwrap(), through_tree(&view));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_typed_reader_agrees_with_the_tree_on_near_misses(
        value in AnyEverything,
        seed in 0u64..=u64::MAX,
    ) {
        let line = to_string(&value).unwrap();
        prop_assert!(typed_matches_tree::<Everything>(&line).is_ok());
        let mut rng = TestRng::deterministic(&seed.to_string());
        for _ in 0..16 {
            let mutated = mutate(&line, &mut rng);
            let verdict = typed_matches_tree::<Everything>(&mutated);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            let twice = mutate(&mutated, &mut rng);
            let verdict = typed_matches_tree::<Everything>(&twice);
            prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Optional {
    id: u64,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(default)]
    tags: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LeadingOptional {
    #[serde(default, skip_serializing_if = "Option::is_none")]
    first: Option<u8>,
    #[serde(default, skip_serializing_if = "Option::is_none")]
    second: Option<u8>,
    last: bool,
}

#[test]
fn optional_fields_are_left_out_when_empty_and_read_as_absent() {
    let bare = Optional {
        id: 1,
        note: None,
        tags: Vec::new(),
    };
    assert_eq!(to_string(&bare).unwrap(), "{\"id\":1,\"tags\":[]}");
    assert_eq!(to_string(&bare).unwrap(), through_tree(&bare));
    assert_eq!(from_str::<Optional>("{\"id\":1}").unwrap(), bare);
    assert_eq!(
        from_str::<Optional>("{\"id\":1,\"note\":null}").unwrap(),
        bare
    );
    let full = Optional {
        id: 2,
        note: Some("n".into()),
        tags: vec!["t".into()],
    };
    assert_eq!(
        to_string(&full).unwrap(),
        "{\"id\":2,\"note\":\"n\",\"tags\":[\"t\"]}"
    );
    assert_eq!(
        from_str::<Optional>(&to_string(&full).unwrap()).unwrap(),
        full
    );

    // Separators stay right however many leading fields are left out.
    for first in [None, Some(1)] {
        for second in [None, Some(2)] {
            let value = LeadingOptional {
                first,
                second,
                last: true,
            };
            let text = to_string(&value).unwrap();
            assert_eq!(text, through_tree(&value));
            assert_eq!(from_str::<LeadingOptional>(&text).unwrap(), value);
            for line in [text.as_str(), "{\"last\":false}", "{}"] {
                typed_matches_tree::<LeadingOptional>(line).unwrap();
            }
        }
    }
    assert_eq!(
        to_string(&LeadingOptional {
            first: None,
            second: Some(2),
            last: false
        })
        .unwrap(),
        "{\"second\":2,\"last\":false}"
    );
}

#[test]
fn a_missing_field_is_named_on_both_paths() {
    let line = "{\"Join\":{\"name\":\"a\",\"speedup\":[]}}";
    let typed = from_str::<Shape>(line).unwrap_err().to_string();
    assert!(typed.contains("missing field `weight`"), "{typed}");
    let tree = Shape::deserialize(&from_str::<Value>(line).unwrap())
        .unwrap_err()
        .to_string();
    assert_eq!(typed, tree);
    let err = from_str::<Optional>("{\"note\":\"n\"}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("missing field `id`"), "{err}");
}

#[test]
fn the_first_occurrence_of_a_key_wins_and_unknown_keys_are_checked_then_skipped() {
    let line = "{\"id\":1,\"id\":\"not a number\",\"extra\":{\"deep\":[1,{}]}}";
    assert_eq!(from_str::<Optional>(line).unwrap().id, 1);
    typed_matches_tree::<Optional>(line).unwrap();
    // A later duplicate is skipped, but it must still be JSON.
    assert!(from_str::<Optional>("{\"id\":1,\"id\":tru}").is_err());
    assert!(from_str::<Optional>("{\"id\":1,\"extra\":[1,}").is_err());
    assert!(from_str::<Optional>("{\"id\":1,\"extra\":\"\\ud83d\"}").is_err());
    // An escaped key is the same key.
    assert_eq!(from_str::<Optional>("{\"\\u0069d\":5}").unwrap().id, 5);
}

#[test]
fn integral_floats_decode_into_integers_only_when_they_name_one_integer() {
    assert_eq!(from_str::<u64>("3.0").unwrap(), 3);
    assert_eq!(from_str::<u64>("1e3").unwrap(), 1000);
    assert_eq!(from_str::<i64>("-2.0").unwrap(), -2);
    assert_eq!(
        from_str::<u64>("9007199254740991.0").unwrap(),
        9_007_199_254_740_991
    );
    // 1e20 used to saturate to u64::MAX, 9007199254740993.0 to decode as
    // 9007199254740992 (a different job id), -1e300 to i64::MIN.  Both
    // readers share the rule, so both refuse.
    for text in [
        "1e20",
        "9007199254740993.0",
        "9007199254740992.0",
        "2.5",
        "-1.0",
    ] {
        assert!(
            from_str::<u64>(text).is_err(),
            "{text} must not decode as u64"
        );
        assert!(u64::deserialize(&from_str::<Value>(text).unwrap()).is_err());
    }
    for text in ["-1e300", "-9007199254740993.0", "1e19"] {
        assert!(
            from_str::<i64>(text).is_err(),
            "{text} must not decode as i64"
        );
        assert!(i64::deserialize(&from_str::<Value>(text).unwrap()).is_err());
    }
    assert!(from_str::<u8>("300.0").is_err());
    let job = "{\"Join\":{\"name\":\"a\",\"weight\":1e20,\"speedup\":[]}}";
    assert!(from_str::<Shape>(job).is_err());
}

#[test]
fn both_writers_refuse_non_finite_floats() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(to_string(&bad).is_err());
        assert!(to_string(&vec![Some(Meters(bad))]).is_err());
        assert!(bad.serialize().write_json(&mut String::new()).is_err());
    }
}

#[test]
fn nesting_is_accepted_up_to_the_limit_and_refused_beyond_it() {
    let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(from_str::<Value>(&nest(128)).is_ok());
    let err = from_str::<Value>(&nest(129)).unwrap_err().to_string();
    assert!(err.contains("nesting deeper than 128 levels"), "{err}");

    // Objects count against the same budget as arrays.
    let mixed = format!("{}1{}", "{\"k\":[".repeat(65), "]}".repeat(65));
    let err = from_str::<Value>(&mixed).unwrap_err().to_string();
    assert!(err.contains("nesting deeper than 128 levels"), "{err}");

    // Depth is nesting, not count: siblings do not accumulate.
    let wide = format!("[{}[]]", "[[]],".repeat(10_000));
    assert!(from_str::<Value>(&wide).is_ok());
}

#[test]
fn a_line_of_a_hundred_thousand_brackets_is_an_error_not_a_stack_overflow() {
    // Run on a deliberately small stack: unbounded recursive descent dies
    // here long before 100 000 frames, a bounded one returns.
    let outcome = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let arrays = from_str::<Value>(&"[".repeat(100_000));
            let objects = from_str::<Value>(&"{\"a\":".repeat(100_000));
            (arrays, objects)
        })
        .unwrap()
        .join()
        .expect("the parser must not overflow its stack");
    for result in [outcome.0, outcome.1] {
        let err = result.unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }
}

#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_refused() {
    let smile: String = from_str("\"\\ud83d\\ude00\"").unwrap();
    assert_eq!(smile, "😀");
    let mixed: String = from_str("\"a\\uD83D\\uDE00b\\u00e9\\uD834\\uDD1E\"").unwrap();
    assert_eq!(mixed, "a😀bé𝄞");
    // The escaped and the raw spelling are the same string, and the writer
    // emits the raw one.
    assert_eq!(to_string(&smile).unwrap(), "\"😀\"");
    assert_eq!(from_str::<String>("\"😀\"").unwrap(), smile);

    for lone in [
        "\"\\ud83d\"",        // high, then end of string
        "\"\\ud83d rest\"",   // high, then ordinary text
        "\"\\ud83d\\n\"",     // high, then another escape
        "\"\\ud83d\\u0041\"", // high, then a non-surrogate escape
        "\"\\ud83d\\ud83d\"", // high, then another high
        "\"\\ude00\"",        // low on its own
        "\"\\ude00\\ud83d\"", // the pair, reversed
    ] {
        let err = from_str::<String>(lone).unwrap_err().to_string();
        assert!(err.contains("lone surrogate"), "{lone}: {err}");
    }
}

#[test]
fn unicode_escapes_take_exactly_four_hex_digits() {
    assert_eq!(from_str::<String>("\"\\u0041\\u00Fc\"").unwrap(), "Aü");
    for bad in [
        "\"\\u+041\"",
        "\"\\u 041\"",
        "\"\\u00g1\"",
        "\"\\u004\"",
        "\"\\u00é\"",
    ] {
        assert!(from_str::<String>(bad).is_err(), "{bad} must not parse");
    }
}

#[test]
fn escaped_strings_survive_both_directions() {
    let original = "quote\" slash\\ nl\n cr\r tab\t bell\u{7} nul\u{0} del\u{7f} é 漢 😀";
    let text = to_string(original).unwrap();
    assert_eq!(
        text,
        "\"quote\\\" slash\\\\ nl\\n cr\\r tab\\t bell\\u0007 nul\\u0000 del\u{7f} é 漢 😀\""
    );
    assert_eq!(from_str::<String>(&text).unwrap(), original);
    assert!(from_str::<String>("\"open").is_err());
    assert!(from_str::<String>("\"open\\").is_err());
    assert!(from_str::<String>("\"bad\\q\"").is_err());
}

/// The defect this guards against re-validated the *rest of the input* for
/// every string character, so decoding was quadratic: this document took
/// minutes.  One linear pass takes milliseconds even unoptimized, so the
/// bound is generous enough to be deterministic on a loaded machine.
#[test]
fn decoding_a_four_megabyte_string_is_linear() {
    let piece = "tenant-漢字-😀-";
    let payload = piece.repeat(4 * 1024 * 1024 / piece.len() + 1);
    assert!(payload.len() >= 4 * 1024 * 1024);
    let document = to_string(&vec![("snapshot".to_string(), payload.clone())]).unwrap();

    let started = Instant::now();
    let back: Vec<(String, String)> = from_str(&document).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(back[0].1, payload);
    assert!(
        elapsed < Duration::from_secs(5),
        "decoding {} bytes took {elapsed:?}; the string scan is super-linear again",
        document.len()
    );
}
