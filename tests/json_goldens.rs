//! Literal golden strings for the JSON leaf formatting.
//!
//! Every compact body the system writes — HTTP responses, WAL event
//! payloads, snapshots, replication frames — is compared byte-wise
//! across streaming, batch, replay and promotion, and journals written
//! by older builds must still audit clean. These strings pin the exact
//! bytes of each leaf form (numbers, strings, empty containers, sorted
//! hash maps, every derive shape) so a change to the writer cannot
//! drift them silently.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use mine_assessment::core::{Answer, OptionKey, ProblemId};
use serde::{Deserialize, Serialize, Value};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    label: String,
    score: f64,
    tags: Vec<String>,
    maybe: Option<i64>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Empty {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wrapper(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u64),
    Tuple(i32, f32),
    Struct { x: f64, name: String },
}

/// A type that serializes through a conversion (`#[serde(into)]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
struct Tag(String);

impl From<Tag> for String {
    fn from(tag: Tag) -> Self {
        format!("tag:{}", tag.0)
    }
}

impl TryFrom<String> for Tag {
    type Error = String;

    fn try_from(text: String) -> Result<Self, Self::Error> {
        text.strip_prefix("tag:")
            .map(|rest| Tag(rest.to_string()))
            .ok_or_else(|| format!("not a tag: {text}"))
    }
}

fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// Each case: a name, the bytes the serializer writes, and the golden.
fn cases() -> Vec<(&'static str, String, &'static str)> {
    let mut by_insertion: HashMap<String, u32> = HashMap::new();
    for (i, key) in ["zeta", "alpha", "Mid", "_x", "10", "9", "a\"q"]
        .into_iter()
        .enumerate()
    {
        by_insertion.insert(key.to_string(), i as u32);
    }
    let numeric_keys: HashMap<u32, bool> =
        [(10, true), (9, false), (100, true)].into_iter().collect();
    let mut btree: BTreeMap<i32, &str> = BTreeMap::new();
    btree.insert(-5, "neg");
    btree.insert(3, "pos");

    vec![
        ("f64 integral", json(&2.0f64), "2.0"),
        ("f64 fraction", json(&1.5f64), "1.5"),
        ("f64 1e21", json(&1e21f64), "1000000000000000000000.0"),
        ("f64 1e-7", json(&1e-7f64), "0.0000001"),
        ("f64 negative zero", json(&-0.0f64), "-0.0"),
        ("f64 third", json(&(1.0f64 / 3.0)), "0.3333333333333333"),
        ("f64 max", json(&f64::MAX), "179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000.0"),
        ("f64 min positive", json(&5e-324f64), "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005"),
        ("f32 tenth", json(&0.1f32), "0.10000000149011612"),
        ("f32 integral", json(&16_777_216f32), "16777216.0"),
        ("f32 half", json(&-2.5f32), "-2.5"),
        ("f64 nan", json(&f64::NAN), "null"),
        ("f64 +inf", json(&f64::INFINITY), "null"),
        ("f64 -inf", json(&f64::NEG_INFINITY), "null"),
        ("f32 nan", json(&f32::NAN), "null"),
        (
            "non-finite in array",
            json(&vec![f64::NAN, 1.0, f64::INFINITY]),
            "[null,1.0,null]",
        ),
        ("u64 max", json(&u64::MAX), "18446744073709551615"),
        ("i64 min", json(&i64::MIN), "-9223372036854775808"),
        ("i64 max", json(&i64::MAX), "9223372036854775807"),
        ("zero", json(&0u8), "0"),
        ("i8 negative", json(&-1i8), "-1"),
        ("usize", json(&1234usize), "1234"),
        ("bool", json(&[true, false]), "[true,false]"),
        ("quote", json("\""), r#""\"""#),
        ("backslash", json("\\"), r#""\\""#),
        ("unit separator", json("\u{1f}"), r#""\u001f""#),
        ("nul", json("\u{0}"), r#""\u0000""#),
        ("backspace", json("\u{8}"), r#""\b""#),
        ("form feed", json("\u{c}"), r#""\f""#),
        ("newline tab return", json("\n\t\r"), r#""\n\t\r""#),
        ("delete is not escaped", json("\u{7f}"), "\"\u{7f}\""),
        ("slash is not escaped", json("a/b"), r#""a/b""#),
        ("non-ascii", json("中文 é 😀"), "\"中文 é 😀\""),
        (
            "mixed escapes",
            json("a\"b\\c\u{1}d中\u{1b}"),
            r#""a\"b\\c\u0001d中\u001b""#,
        ),
        ("char", json(&'é'), "\"é\""),
        ("char quote", json(&'"'), r#""\"""#),
        ("empty string", json(""), r#""""#),
        ("empty vec", json(&Vec::<u32>::new()), "[]"),
        ("empty map", json(&BTreeMap::<String, u32>::new()), "{}"),
        ("empty hash map", json(&HashMap::<String, u32>::new()), "{}"),
        ("empty value array", json(&Value::Array(Vec::new())), "[]"),
        ("empty value object", json(&Value::Object(Vec::new())), "{}"),
        ("empty struct", json(&Empty {}), "{}"),
        (
            "hash map sorted by key",
            json(&by_insertion),
            r#"{"10":4,"9":5,"Mid":2,"_x":3,"a\"q":6,"alpha":1,"zeta":0}"#,
        ),
        (
            "hash map numeric keys sort as strings",
            json(&numeric_keys),
            r#"{"10":true,"100":true,"9":false}"#,
        ),
        ("btree map signed keys", json(&btree), r#"{"-5":"neg","3":"pos"}"#),
        (
            "duration",
            json(&Duration::new(61, 123_456_789)),
            r#"{"secs":61,"nanos":123456789}"#,
        ),
        (
            "tuple",
            json(&(1u8, "x", 2.5f64, None::<u32>)),
            r#"[1,"x",2.5,null]"#,
        ),
        ("option some", json(&Some(7u16)), "7"),
        ("array", json(&[1i32, -2, 3]), "[1,-2,3]"),
        ("box", json(&Box::new(3.0f64)), "3.0"),
        ("arc", json(&Arc::new("s".to_string())), r#""s""#),
        (
            "nested vec",
            json(&vec![vec![], vec![1u32]]),
            "[[],[1]]",
        ),
        (
            "value tree",
            json(&Value::Object(vec![
                ("k\"ey".to_string(), Value::Array(vec![Value::Null])),
                (
                    "n".to_string(),
                    Value::Array(vec![
                        Value::Number(serde::Number::PosInt(1)),
                        Value::Number(serde::Number::NegInt(-1)),
                        Value::Number(serde::Number::Float(1.0)),
                        Value::Number(serde::Number::Float(f64::NAN)),
                        Value::Bool(false),
                    ]),
                ),
            ])),
            r#"{"k\"ey":[null],"n":[1,-1,1.0,null,false]}"#,
        ),
        (
            "named struct",
            json(&Named {
                id: 7,
                label: "L\"1".to_string(),
                score: 3.0,
                tags: vec!["a".to_string(), String::new()],
                maybe: None,
            }),
            r#"{"id":7,"label":"L\"1","score":3.0,"tags":["a",""],"maybe":null}"#,
        ),
        ("tuple struct", json(&Pair(2, "p".to_string())), r#"[2,"p"]"#),
        ("newtype struct", json(&Wrapper(0.25)), "0.25"),
        ("unit variant", json(&Shape::Unit), r#""Unit""#),
        ("newtype variant", json(&Shape::Newtype(9)), r#"{"Newtype":9}"#),
        (
            "tuple variant",
            json(&Shape::Tuple(-3, 0.5)),
            r#"{"Tuple":[-3,0.5]}"#,
        ),
        (
            "struct variant",
            json(&Shape::Struct {
                x: -0.0,
                name: "é".to_string(),
            }),
            r#"{"Struct":{"x":-0.0,"name":"é"}}"#,
        ),
        ("into attribute", json(&Tag("x".to_string())), r#""tag:x""#),
        (
            "workspace id",
            json(&"q1".parse::<ProblemId>().unwrap()),
            r#""q1""#,
        ),
        (
            "workspace enum",
            json(&Answer::Choice(OptionKey::B)),
            r#"{"Choice":"B"}"#,
        ),
        (
            "pretty",
            serde_json::to_string_pretty(&Value::Object(vec![
                ("a".to_string(), Value::Array(vec![])),
                (
                    "b".to_string(),
                    Value::Array(vec![
                        Value::Number(serde::Number::Float(2.0)),
                        Value::Object(vec![]),
                        Value::String("\u{1f}".to_string()),
                    ]),
                ),
            ]))
            .unwrap(),
            "{\n  \"a\": [],\n  \"b\": [\n    2.0,\n    {},\n    \"\\u001f\"\n  ]\n}",
        ),
    ]
}

#[test]
fn leaf_formatting_matches_the_goldens() {
    let mut mismatches = Vec::new();
    for (name, actual, golden) in cases() {
        if actual != golden {
            mismatches.push(format!("{name}: wrote {actual:?}, golden {golden:?}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn goldens_parse_back_to_the_same_bytes() {
    // Every golden is valid JSON the parser accepts, and re-rendering
    // the parsed tree reproduces it exactly (floats, escapes, order).
    for (name, _, golden) in cases() {
        if name == "pretty" {
            continue;
        }
        let tree: Value = serde_json::from_str(golden).unwrap();
        assert_eq!(json(&tree), golden, "{name}");
    }
}

#[test]
fn derived_shapes_round_trip() {
    let named = Named {
        id: 1,
        label: "x".to_string(),
        score: 0.5,
        tags: vec!["t".to_string()],
        maybe: Some(-4),
    };
    let back: Named = serde_json::from_str(&json(&named)).unwrap();
    assert_eq!(back, named);
    for shape in [
        Shape::Unit,
        Shape::Newtype(1),
        Shape::Tuple(2, 3.5),
        Shape::Struct {
            x: 1.0,
            name: "n".to_string(),
        },
    ] {
        let back: Shape = serde_json::from_str(&json(&shape)).unwrap();
        assert_eq!(back, shape);
    }
    let tag: Tag = serde_json::from_str(&json(&Tag("y".to_string()))).unwrap();
    assert_eq!(tag, Tag("y".to_string()));
}

/// `{}` Display with the `.0` pin and `null` for non-finite values:
/// the float format every writer path must reproduce.
fn display_reference(value: f64) -> String {
    if !value.is_finite() {
        return "null".to_string();
    }
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        text + ".0"
    }
}

#[test]
fn floats_match_display_across_magnitudes() {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    let mut values: Vec<f64> = Vec::new();
    // Proportions and their differences, the bulk of a §4 report.
    for n in 1..=300u32 {
        for k in 0..=n {
            let p = f64::from(k) / f64::from(n);
            values.push(p);
            values.push(p - 0.5);
            values.push(p * 100.0);
        }
    }
    // Decimal-looking values at every scale the fast path accepts,
    // and their neighbours one ulp away.
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..20_000 {
        let mantissa = f64::from(rng.gen_range(1..1_000_000_000u32));
        let scale = rng.gen_range(0..30i32);
        let value = mantissa / 10f64.powi(scale);
        values.extend([value, value.next_up(), value.next_down(), -value]);
    }
    // Powers of ten and their neighbours (digit-count boundaries).
    for exponent in -12..=18 {
        let power = 10f64.powi(exponent);
        values.extend([power, power.next_up(), power.next_down()]);
    }
    // Arbitrary bit patterns (mostly far outside the fast path).
    for _ in 0..20_000 {
        values.push(f64::from_bits(rng.next_u64()));
    }
    // Uniform draws in the report's usual range.
    for _ in 0..20_000 {
        values.push(rng.gen_range(-2.0..2.0f64));
    }
    // Log-uniform draws across (and past) the fast path's range.
    for _ in 0..50_000 {
        values.push(10f64.powf(rng.gen_range(-9.0..17.0f64)));
    }
    // Powers of two, where the gap below is half the gap above.
    for exponent in -40..=60 {
        let power = 2f64.powi(exponent);
        values.extend([power, power.next_up(), power.next_down(), power * 3.0]);
    }
    for value in values {
        assert_eq!(json(&value), display_reference(value), "{value:e}");
        let single = value as f32;
        assert_eq!(
            json(&single),
            display_reference(f64::from(single)),
            "{single:e}"
        );
    }
}
