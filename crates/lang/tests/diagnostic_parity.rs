//! Diagnostic parity: the checked-in table `data/diagnostics.tsv` pins
//! the verdict of parse + resolve for malformed (and a few well-formed)
//! queries, byte for byte.
//!
//! Each row is `input \t interning-resolver verdict \t empty-map-resolver
//! verdict`, where a verdict is `ok` or `start..end message`. Inputs and
//! verdicts escape `\\`, tab, newline and carriage return. The inputs are
//! those of the lexer, parser and validate unit tests, a few error paths
//! those tests miss, and sequences over the `parser_total_on_fragments`
//! alphabet (every one- and two-fragment sequence plus 400 seeded longer
//! ones). The verdicts were recorded before the front end stopped copying
//! tokens and names; the two depth-limit rows at the end came with the
//! depth limit itself.

use cloudtalk_lang::validate::InterningResolver;
use cloudtalk_lang::{parse_query, resolve, LangError, MapResolver};

const TABLE: &str = include_str!("data/diagnostics.tsv");

fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => panic!("bad escape `\\{other:?}` in {field:?}"),
        }
    }
    out
}

fn verdict(result: Result<(), LangError>) -> String {
    match result {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("{}..{} {}", e.span.start, e.span.end, e.message),
    }
}

fn interned(src: &str) -> Result<(), LangError> {
    resolve(&parse_query(src)?, &InterningResolver::new()).map(drop)
}

fn mapped(src: &str) -> Result<(), LangError> {
    resolve(&parse_query(src)?, &MapResolver::new()).map(drop)
}

#[test]
fn every_row_reproduces_byte_for_byte() {
    let mut rows = 0;
    let mut mismatches = Vec::new();
    for line in TABLE.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [input, intern_want, map_want] = fields[..] else {
            panic!("malformed table row {line:?}");
        };
        let input = unescape(input);
        for (want, got) in [
            (unescape(intern_want), verdict(interned(&input))),
            (unescape(map_want), verdict(mapped(&input))),
        ] {
            if want != got {
                mismatches.push(format!("{input:?}\n  want {want}\n  got  {got}"));
            }
        }
        rows += 1;
    }
    assert!(rows > 700, "table has only {rows} rows");
    assert!(
        mismatches.is_empty(),
        "{} diagnostics changed:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
