//! Totality of the JSON decoder behind every campaign file.
//!
//! `Json::parse` reads `job.json`, `config.json`, every cell checkpoint
//! and every sidecar, so it must turn *any* input into a value or a
//! `JsonError` and never panic. These properties feed it random bytes,
//! JSON-alphabet token soup, and bit flips, truncations and splices of
//! rendered valid `GridSpec`, `Aggregate` and `JobConfig` documents, and
//! push every value that parses through the three typed decoders. Valid
//! documents must round-trip exactly: decode(parse(render(x))) == x, with
//! every `f64` bit-identical; a `0` put before any of their numbers must
//! fail to parse.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use softsnn::data::workload::Workload;
use softsnn::exp::campaign::JobConfig;
use softsnn::exp::profile::Profile;
use softsnn::faults::codec::{Json, JsonCodec};
use softsnn::faults::grid::{Aggregate, CellKey, GridSpec};
use softsnn::hw::EngineBackendKind;

/// Characters that exercise the string escaper and the UTF-8 scanner.
const STRING_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '€',
    '🦀',
];

/// Fragments the parser branches on; soup built from these reaches far
/// deeper into the grammar than uniform random bytes.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83e", "\\udd80", "d800", "+", "-", "0",
    "7", ".", "e", "E", "1e999", "null", "true", "false", "nul", " ", "\n", "é", "🦀", "\u{1}",
];

fn random_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..10_usize);
    (0..len)
        .map(|_| STRING_CHARS[rng.gen_range(0..STRING_CHARS.len())])
        .collect()
}

/// A finite `f64`: arbitrary bit patterns (re-drawn until finite) mixed
/// with the edge values a checkpoint can hold.
fn random_f64(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4_u32) {
        0 => [0.0, -0.0, 1.0, 100.0, f64::MIN_POSITIVE, f64::MAX][rng.gen_range(0..6_usize)],
        1 => rng.gen::<f64>() * 100.0,
        _ => loop {
            let v = f64::from_bits(rng.gen::<u64>());
            if v.is_finite() {
                break v;
            }
        },
    }
}

fn random_spec(rng: &mut StdRng) -> GridSpec {
    let techniques = (0..rng.gen_range(1..5_usize))
        .map(|_| random_string(rng))
        .collect();
    let rates = (0..rng.gen_range(1..5_usize))
        .map(|_| random_f64(rng))
        .collect();
    GridSpec::new(
        rng.gen(),
        rng.gen(),
        techniques,
        rates,
        rng.gen_range(1..50_usize),
    )
    .with_offsets(
        rng.gen_range(0..1000_usize),
        rng.gen_range(0..1000_usize),
        rng.gen_range(0..1000_usize),
    )
}

fn random_aggregate(rng: &mut StdRng) -> Aggregate {
    let trials: Vec<f64> = (0..rng.gen_range(0..6_usize))
        .map(|_| random_f64(rng))
        .collect();
    Aggregate {
        key: CellKey {
            technique_idx: rng.gen_range(0..100_usize),
            rate_idx: rng.gen_range(0..100_usize),
        },
        technique: random_string(rng),
        rate: random_f64(rng),
        mean: random_f64(rng),
        std_dev: random_f64(rng),
        trials_run: trials.len(),
        trials,
        stopped_early: rng.gen_bool(0.5),
    }
}

fn random_config(rng: &mut StdRng) -> JobConfig {
    const PROFILES: [Profile; 4] = [
        Profile::Smoke,
        Profile::Quick,
        Profile::Default,
        Profile::Full,
    ];
    JobConfig {
        workload: Workload::ALL[rng.gen_range(0..Workload::ALL.len())],
        n_neurons: rng.gen_range(1..5000_usize),
        profile: PROFILES[rng.gen_range(0..PROFILES.len())],
        backend: EngineBackendKind::ALL[rng.gen_range(0..EngineBackendKind::ALL.len())],
    }
}

/// The three valid documents of one case, rendered.
fn rendered_documents(rng: &mut StdRng) -> [String; 3] {
    [
        random_spec(rng).to_json().render(),
        random_aggregate(rng).to_json().render(),
        random_config(rng).to_json().render(),
    ]
}

/// One random corruption of `doc`: bit flips, a truncation, or a splice
/// of a slice of `donor` (another valid document) into a random range.
fn mutate(doc: &[u8], donor: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = doc.to_vec();
    match rng.gen_range(0..3_u32) {
        0 => {
            for _ in 0..rng.gen_range(1..4_u32) {
                if out.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8_u32);
            }
        }
        1 => out.truncate(rng.gen_range(0..=out.len())),
        _ => {
            let a = rng.gen_range(0..=out.len());
            let b = rng.gen_range(a..=out.len());
            let c = rng.gen_range(0..=donor.len());
            let d = rng.gen_range(c..=donor.len());
            out.splice(a..b, donor[c..d].iter().copied());
        }
    }
    out
}

/// Byte offsets of the leading digit of every number in a rendered
/// (compact) document: outside strings, a number starts right after `[`,
/// `,` or `:`, and its leading digit follows an optional `-`.
fn number_digit_offsets(doc: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let (mut in_string, mut escaped) = (false, false);
    for (i, &b) in doc.iter().enumerate() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if (b == b'-' || b.is_ascii_digit()) && i > 0 && b"[,:".contains(&doc[i - 1]) {
            offsets.push(i + usize::from(b == b'-'));
        }
    }
    offsets
}

/// Parses `bytes` (lossily decoded: the service reads files as UTF-8
/// text, so the parser only ever sees valid strings) and, when a value
/// comes back, checks it re-renders to itself and runs every typed
/// decoder over it. A panic anywhere fails the property.
fn parse_and_decode(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let Ok(json) = Json::parse(&text) else {
        return;
    };
    assert_eq!(
        Json::parse(&json.render()).as_ref(),
        Ok(&json),
        "a parsed value must survive render → parse: {text:?}"
    );
    let _ = GridSpec::from_json(&json);
    let _ = Aggregate::from_json(&json);
    let _ = JobConfig::from_json(&json);
}

/// Bit-exact round trip of one valid document through text.
fn assert_round_trip<T: JsonCodec + PartialEq + std::fmt::Debug>(value: &T) {
    let text = value.to_json().render();
    let json = Json::parse(&text).expect("a rendered document parses");
    let back = T::from_json(&json).expect("a rendered document decodes");
    assert_eq!(&back, value);
    // `==` conflates 0.0 with -0.0; equal renderings pin every f64 bit.
    assert_eq!(back.to_json().render(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniform random bytes never panic the parser or the decoders.
    #[test]
    fn random_bytes_parse_to_a_value_or_an_error(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        parse_and_decode(&bytes);
    }

    /// Token soup reaches escapes, surrogates, numbers and nesting.
    #[test]
    fn token_soup_parses_to_a_value_or_an_error(
        picks in prop::collection::vec(any::<usize>(), 0..48),
    ) {
        let soup: String = picks.iter().map(|&k| TOKENS[k % TOKENS.len()]).collect();
        parse_and_decode(soup.as_bytes());
    }

    /// Valid `GridSpec`, `Aggregate` and `JobConfig` documents round-trip
    /// bit for bit.
    #[test]
    fn valid_documents_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_round_trip(&random_spec(&mut rng));
        assert_round_trip(&random_aggregate(&mut rng));
        assert_round_trip(&random_config(&mut rng));
    }

    /// A `0` put before any number's leading digit is a leading zero,
    /// which JSON forbids: the document must fail to parse.
    #[test]
    fn leading_zero_before_a_rendered_number_fails_to_parse(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for doc in rendered_documents(&mut rng) {
            let offsets = number_digit_offsets(doc.as_bytes());
            prop_assert!(!offsets.is_empty(), "every document holds a number: {}", doc);
            let at = offsets[rng.gen_range(0..offsets.len())];
            let mut zeroed = doc.clone();
            zeroed.insert(at, '0');
            prop_assert!(Json::parse(&zeroed).is_err(), "leading zero accepted: {}", zeroed);
        }
    }

    /// Bit flips, truncations and splices of valid documents parse to a
    /// value or an error, and decode to a value or an error.
    #[test]
    fn mutated_documents_parse_to_a_value_or_an_error(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let docs = rendered_documents(&mut rng);
        for doc in &docs {
            for _ in 0..8 {
                let donor = &docs[rng.gen_range(0..docs.len())];
                parse_and_decode(&mutate(doc.as_bytes(), donor.as_bytes(), &mut rng));
            }
        }
    }
}
