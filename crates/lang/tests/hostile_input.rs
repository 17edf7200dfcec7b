//! Hostile query text that used to abort the process with a stack
//! overflow must now come back as a `LangError` or an answer.

use cloudtalk_lang::parser::MAX_EXPR_DEPTH;
use cloudtalk_lang::{parse_query, resolve, ErrorKind, MapResolver};

fn mapped(src: &str) -> Result<(), cloudtalk_lang::LangError> {
    resolve(&parse_query(src)?, &MapResolver::new()).map(drop)
}

fn flow_with_size(expr: &str) -> String {
    format!("f1 10.0.0.1 -> 10.0.0.2 size {expr}")
}

fn nested_parens(depth: usize) -> String {
    flow_with_size(&format!("{}1{}", "(".repeat(depth), ")".repeat(depth)))
}

fn sum_of_ones(terms: usize) -> String {
    flow_with_size(&vec!["1"; terms].join("+"))
}

fn assert_too_deep(src: &str) {
    let err = parse_query(src).expect_err("over-deep expression must be refused");
    assert_eq!(err.kind, ErrorKind::TooDeep, "{err}");
}

/// 200 000 nested parentheses used to overflow the recursive parser.
#[test]
fn deep_parentheses_are_refused() {
    assert_too_deep(&nested_parens(200_000));
}

/// A 300 000-term `1+1+…` chain parsed iteratively, but its tree then
/// overflowed the recursive resolver and destructor.
#[test]
fn long_operator_chains_are_refused() {
    assert_too_deep(&sum_of_ones(300_000));
}

/// Expressions right at the limit still parse and resolve on a test
/// thread's default stack.
#[test]
fn depth_limit_is_exact() {
    for src in [
        nested_parens(MAX_EXPR_DEPTH),
        sum_of_ones(MAX_EXPR_DEPTH + 1),
    ] {
        mapped(&src).expect("at-limit expression resolves");
    }
    assert_too_deep(&nested_parens(MAX_EXPR_DEPTH + 1));
    assert_too_deep(&sum_of_ones(MAX_EXPR_DEPTH + 2));
}

/// Each flow's size refers to the next one's, so the `size`-cycle check
/// walks a 20 000-deep dependency chain; done recursively, that
/// overflowed the stack.
#[test]
fn long_size_reference_chains_resolve() {
    let n = 20_000;
    let mut src = String::new();
    for i in 0..n - 1 {
        src += &format!("f{i} 10.0.0.1 -> 10.0.0.2 size sz(f{})\n", i + 1);
    }
    src += &format!("f{} 10.0.0.1 -> 10.0.0.2 size 1\n", n - 1);
    mapped(&src).expect("an acyclic chain resolves");

    // Closing the chain into a loop is still caught.
    let cyclic = src.replace("size 1\n", "size sz(f0)\n");
    let err = mapped(&cyclic).expect_err("a size cycle is refused");
    assert!(err.message.contains("cyclic"), "{err}");
}
