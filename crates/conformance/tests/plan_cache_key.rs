//! The plan cache's key is the lexer's verdict on "the same statement":
//! over the 120-query conformance corpus and seeded respellings of each
//! query, two texts share `shape_class_and_consts` exactly when
//! `tokenize` returns equal tokens (up to the one trailing `;` the parser
//! accepts).  Respellings change letter case, whitespace, `--` comments
//! (with and without apostrophes) and the trailing `;`; literal edits turn
//! an integer `N` into `N.0` and flip a string literal's case, and must
//! change the key.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "panics fail tests")]

use hique_conformance::QueryGenerator;
use hique_plan::shape_class_and_consts;
use hique_sql::lexer::tokenize;
use hique_sql::token::Token;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SF: f64 = 0.002;
const SUITE_SEED: u64 = 0x41_1CDE;
const SUITE_QUERIES: usize = 120;
const RESPELLINGS: usize = 4;

/// What the parser sees: the tokens without `Eof` and one trailing `;`.
fn tokens(sql: &str) -> Vec<Token> {
    let mut tokens = tokenize(sql).unwrap_or_else(|e| panic!("{sql:?}: {e}"));
    tokens.pop();
    if tokens.last() == Some(&Token::Semicolon) {
        tokens.pop();
    }
    tokens
}

/// Separators that may replace a space between two tokens.
const GAPS: [&str; 7] = [
    " ",
    "   ",
    "\t",
    "\n",
    " -- note\n",
    " -- don't\n",
    "\n-- it's 'quoted\n",
];

/// The same statement spelled differently: letter case flipped and spaces
/// replaced by other whitespace or comments outside string literals, and
/// perhaps a trailing `;`.
fn respell(sql: &str, rng: &mut SmallRng) -> String {
    let mut out = String::new();
    let mut in_literal = false;
    for c in sql.chars() {
        if c == '\'' {
            in_literal = !in_literal;
            out.push(c);
        } else if in_literal {
            out.push(c);
        } else if c == ' ' {
            out.push_str(GAPS[rng.gen_range(0..GAPS.len())]);
        } else if rng.gen_bool(0.5) {
            out.push(c.to_ascii_uppercase());
        } else {
            out.push(c);
        }
    }
    out.push_str(["", ";", " ;\n", "; -- done"][rng.gen_range(0..4usize)]);
    out
}

/// The statement with one literal edited: every integer outside string
/// literals written as a float, or every string literal's letter case
/// flipped.
fn edit_literals(sql: &str, floats: bool) -> String {
    let mut out = String::new();
    let mut in_literal = false;
    let mut prev = ' ';
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            in_literal = !in_literal;
            out.push(c);
        } else if in_literal && !floats && c.is_ascii_alphabetic() {
            out.push(if c.is_ascii_uppercase() {
                c.to_ascii_lowercase()
            } else {
                c.to_ascii_uppercase()
            });
        } else if !in_literal
            && floats
            && c.is_ascii_digit()
            && !(prev.is_ascii_alphanumeric() || prev == '_' || prev == '.')
        {
            out.push(c);
            while let Some(d) = chars.next_if(char::is_ascii_digit) {
                out.push(d);
            }
            if chars.peek() != Some(&'.') {
                out.push_str(".0");
            }
            prev = '0';
            continue;
        } else {
            out.push(c);
        }
        prev = c;
    }
    out
}

#[test]
fn the_cache_key_matches_exactly_when_the_tokens_do() {
    let mut generator = QueryGenerator::new(SUITE_SEED, SF);
    let mut rng = SmallRng::seed_from_u64(SUITE_SEED);
    let mut texts = Vec::new();
    let mut edited = 0;
    for _ in 0..SUITE_QUERIES {
        let sql = generator.next_query().sql;
        let key = shape_class_and_consts(&sql);
        for _ in 0..RESPELLINGS {
            let other = respell(&sql, &mut rng);
            assert_eq!(tokens(&other), tokens(&sql), "{other:?}");
            assert_eq!(shape_class_and_consts(&other), key, "{other:?} vs {sql:?}");
            texts.push(other);
        }
        for floats in [true, false] {
            let other = edit_literals(&sql, floats);
            if other != sql {
                assert_ne!(shape_class_and_consts(&other), key, "{other:?}");
                edited += 1;
                texts.push(other);
            }
        }
        texts.push(sql);
    }
    assert!(edited >= SUITE_QUERIES / 2, "only {edited} literal edits");
    let keyed: Vec<_> = texts
        .iter()
        .map(|t| (tokens(t), shape_class_and_consts(t)))
        .collect();
    for (i, (tokens_a, key_a)) in keyed.iter().enumerate() {
        for (j, (tokens_b, key_b)) in keyed.iter().enumerate().skip(i + 1) {
            assert_eq!(
                tokens_a == tokens_b,
                key_a == key_b,
                "{:?} vs {:?}",
                texts[i],
                texts[j]
            );
        }
    }
}
