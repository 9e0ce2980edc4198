//! Speed numbers that the docs attribute to the committed benchmark
//! record, `BENCH_campaign.json`, must be the record's.
//!
//! A citation is a number followed by the record field it comes from,
//! in backticks and parentheses: ``870.4 (`jit_mips`)``, ``8.2x
//! (`jit_speedup`)``, ``0.7% (`trace_off_overhead`)``. The number may
//! carry an `x` or `%` suffix (`%` scales the field by 100) and may be
//! followed by one unit word, as in ``1120 mutants (`mutants`)``. Each
//! citation must name a numeric field of the record and equal it rounded
//! to the printed decimals, so a record regenerated without its docs
//! fails here.

use std::collections::HashMap;
use std::path::Path;

/// The docs scanned for citations.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// Fields that README's execution-tier table and prose must cite.
const README_CITES: [&str; 4] = [
    "interpreter_mips",
    "uop_engine_mips",
    "jit_mips",
    "jit_speedup",
];

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The record's numeric fields. The record is flat: one `"key": value`
/// pair per line.
fn record() -> HashMap<String, f64> {
    let mut fields = HashMap::new();
    for line in read("BENCH_campaign.json").lines().map(str::trim) {
        if line == "{" || line == "}" {
            continue;
        }
        let (key, value) = line
            .trim_end_matches(',')
            .split_once(": ")
            .unwrap_or_else(|| panic!("not a `\"key\": value` line: {line}"));
        let key = key.trim_matches('"');
        assert!(
            !value.starts_with(['{', '[']),
            "record field `{key}` is nested; the record must be flat"
        );
        if let Ok(v) = value.parse() {
            fields.insert(key.to_string(), v);
        }
    }
    fields
}

/// A number cited from the record.
#[derive(Debug, PartialEq)]
struct Citation {
    /// The number as printed, without its suffix.
    printed: String,
    /// The record field it names.
    field: String,
    /// The factor from the field to the printed number.
    scale: f64,
}

/// Splits a word into a number and its scale, if it is one.
fn number(word: &str) -> Option<(&str, f64)> {
    let (digits, scale) = match word.strip_suffix('%') {
        Some(digits) => (digits, 100.0),
        None => (word.strip_suffix('x').unwrap_or(word), 1.0),
    };
    let plain = digits.bytes().all(|b| b.is_ascii_digit() || b == b'.');
    (plain && digits.parse::<f64>().is_ok()).then_some((digits, scale))
}

/// Every citation in `text`: a `` (`field`) `` right after a number, or
/// after a number and one unit word.
fn citations(text: &str) -> Vec<Citation> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(open) = text[from..].find("(`").map(|i| from + i) {
        from = open + 2;
        let Some(len) = text[from..].find("`)") else {
            break;
        };
        let field = &text[from..from + len];
        if field.is_empty()
            || !field
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            continue;
        }
        let mut words = text[..open].split_whitespace().rev();
        let last = words.next().unwrap_or("");
        let cited = number(last).or_else(|| {
            let unit = last.bytes().all(|b| b.is_ascii_alphabetic());
            words.next().filter(|_| unit).and_then(number)
        });
        if let Some((printed, scale)) = cited {
            out.push(Citation {
                printed: printed.to_string(),
                field: field.to_string(),
                scale,
            });
        }
    }
    out
}

#[test]
fn citation_forms() {
    let text = "| JIT | 870.4 (`jit_mips`) |, another 8.2x (`jit_speedup`), \
                a 0.66% (`trace_off_overhead`) spread over 1120 mutants (`mutants`); \
                not `jit(false)`, the JIT (`jit`) or (`--no-jit`).";
    let cite = |printed: &str, field: &str, scale| Citation {
        printed: printed.into(),
        field: field.into(),
        scale,
    };
    assert_eq!(
        citations(text),
        [
            cite("870.4", "jit_mips", 1.0),
            cite("8.2", "jit_speedup", 1.0),
            cite("0.66", "trace_off_overhead", 100.0),
            cite("1120", "mutants", 1.0),
        ]
    );
}

#[test]
fn documented_numbers_match_the_committed_record() {
    let record = record();
    let mut errors = Vec::new();
    let mut readme_cites = Vec::new();
    for doc in DOCS {
        for c in citations(&read(doc)) {
            let Some(value) = record.get(&c.field) else {
                errors.push(format!(
                    "{doc} cites `{}`, which the record does not hold as a number",
                    c.field
                ));
                continue;
            };
            let decimals = c.printed.split_once('.').map_or(0, |(_, frac)| frac.len());
            let expected = format!("{:.*}", decimals, value * c.scale);
            if c.printed != expected {
                errors.push(format!(
                    "{doc} prints {} for `{}`, the record {value} (rounded: {expected})",
                    c.printed, c.field
                ));
            }
            if doc == "README.md" {
                readme_cites.push(c.field);
            }
        }
    }
    for field in README_CITES {
        if !readme_cites.iter().any(|c| c == field) {
            errors.push(format!("README.md must cite `{field}`"));
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}
