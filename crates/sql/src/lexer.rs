//! SQL tokenizer.

use hique_types::{HiqueError, Result};

use crate::token::{Keyword, Token, SYMBOLS};

/// Tokenize SQL text.
///
/// The lexer is a straightforward single-pass scanner; it recognises
/// keywords case-insensitively, identifiers (`[A-Za-z_][A-Za-z0-9_]*`),
/// integer and float literals, single-quoted strings with `''` escaping,
/// and the operator/punctuation set of the dialect.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
            }
            // `--` starts a comment running to end of line.
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '!' if bytes.get(i + 1) != Some(&b'=') => {
                return Err(HiqueError::Parse("unexpected '!'".into()));
            }
            '\'' => {
                // Copied as slices of `input` between quotes, so the text
                // stays UTF-8 exactly as written.
                let mut s = String::new();
                i += 1;
                let mut start = i;
                loop {
                    if i >= bytes.len() {
                        return Err(HiqueError::Parse("unterminated string literal".into()));
                    }
                    if bytes[i] == b'\'' {
                        // `''` is an escaped quote: keep one of the two.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push_str(&input[start..=i]);
                            i += 2;
                            start = i;
                            continue;
                        }
                        s.push_str(&input[start..i]);
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                tokens.push(Token::StringLit(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut is_float = false;
                while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                    if bytes[i] == b'.' {
                        // A second dot ends the number (e.g. ranges are not
                        // in the dialect, so this is just defensive).
                        if is_float {
                            break;
                        }
                        // Only treat as decimal point if followed by a digit.
                        if i + 1 >= bytes.len() || !(bytes[i + 1] as char).is_ascii_digit() {
                            break;
                        }
                        is_float = true;
                    }
                    i += 1;
                }
                // An exponent, `e` or `E` with an optional sign and at least
                // one digit, makes the number a float.
                if matches!(bytes.get(i), Some(b'e' | b'E')) {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if bytes.get(i + 1 + sign).is_some_and(u8::is_ascii_digit) {
                        is_float = true;
                        i += 1 + sign;
                        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                            i += 1;
                        }
                    }
                }
                // A number runs into no identifier: `1e` and `2x` are not
                // a number and an alias.
                if bytes
                    .get(i)
                    .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
                {
                    let end = input[i..]
                        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .map_or(input.len(), |n| i + n);
                    return Err(HiqueError::Parse(format!(
                        "invalid number '{}'",
                        &input[start..end]
                    )));
                }
                let text = &input[start..i];
                let invalid = || HiqueError::Parse(format!("invalid number '{text}'"));
                tokens.push(if is_float {
                    Token::Float(text.parse().map_err(|_| invalid())?)
                } else {
                    Token::Integer(text.parse().map_err(|_| invalid())?)
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let text = &input[start..i];
                match Keyword::from_ident(text) {
                    Some(k) => tokens.push(Token::Keyword(k)),
                    None => tokens.push(Token::Ident(text.to_ascii_lowercase())),
                }
            }
            _ => {
                // The first byte rules out most entries without a compare.
                let Some((text, token)) = SYMBOLS.iter().find(|(text, _)| {
                    text.as_bytes()[0] == bytes[i] && bytes[i..].starts_with(text.as_bytes())
                }) else {
                    let other = input[i..].chars().next().unwrap_or(c);
                    return Err(HiqueError::Parse(format!("unexpected character '{other}'")));
                };
                tokens.push(token.clone());
                i += text.len();
            }
        }
    }
    tokens.push(Token::Eof);
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_simple_select() {
        let t = tokenize("SELECT a, b FROM t WHERE a = 5;").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Ident("a".into()),
                Token::Comma,
                Token::Ident("b".into()),
                Token::Keyword(Keyword::From),
                Token::Ident("t".into()),
                Token::Keyword(Keyword::Where),
                Token::Ident("a".into()),
                Token::Eq,
                Token::Integer(5),
                Token::Semicolon,
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers_strings_and_operators() {
        let t = tokenize("x <= 1.5 and y <> 'it''s' or_z >= -2").unwrap();
        assert!(t.contains(&Token::LtEq));
        assert!(t.contains(&Token::Float(1.5)));
        assert!(t.contains(&Token::NotEq));
        assert!(t.contains(&Token::StringLit("it's".into())));
        assert!(t.contains(&Token::GtEq));
        assert!(t.contains(&Token::Minus));
        assert!(t.contains(&Token::Ident("or_z".into())));
    }

    #[test]
    fn string_literals_keep_their_utf8() {
        let t = tokenize("select 'é', 'naïve ''café''' from t").unwrap();
        assert_eq!(t[1], Token::StringLit("é".into()));
        assert_eq!(t[3], Token::StringLit("naïve 'café'".into()));
        assert_eq!(parse_error("select é"), "unexpected character 'é'");
    }

    #[test]
    fn comments_are_skipped() {
        let t = tokenize("select a -- comment here\nfrom t").unwrap();
        assert_eq!(t.len(), 5); // SELECT a FROM t EOF
    }

    #[test]
    fn qualified_names_lex_as_ident_dot_ident() {
        let t = tokenize("lineitem.l_quantity").unwrap();
        assert_eq!(
            t,
            vec![
                Token::Ident("lineitem".into()),
                Token::Dot,
                Token::Ident("l_quantity".into()),
                Token::Eof
            ]
        );
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(tokenize("select 'unterminated").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a ? b").is_err());
    }

    #[test]
    fn float_vs_qualified_digit() {
        let t = tokenize("1.5 + 2").unwrap();
        assert_eq!(t[0], Token::Float(1.5));
        let t = tokenize("123").unwrap();
        assert_eq!(t[0], Token::Integer(123));
    }

    #[test]
    fn exponents_lex_as_floats() {
        for (text, v) in [
            ("1.5e2", 150.0),
            ("1e3", 1000.0),
            ("2E-2", 0.02),
            ("7e+1", 70.0),
        ] {
            assert_eq!(tokenize(text).unwrap(), [Token::Float(v), Token::Eof]);
        }
        let t = tokenize("select 1e3 as x from t").unwrap();
        assert_eq!(t[1], Token::Float(1000.0));
    }

    #[test]
    fn a_number_running_into_an_identifier_is_an_error() {
        assert_eq!(parse_error("select 1e from t"), "invalid number '1e'");
        assert_eq!(parse_error("select 1e+ from t"), "invalid number '1e'");
        assert_eq!(parse_error("select 2x from t"), "invalid number '2x'");
        assert_eq!(
            parse_error("select 1.5e2_a from t"),
            "invalid number '1.5e2_a'"
        );
        // A dot still ends a number: `1.e3` is 1, a dot and an identifier.
        let t = tokenize("1.e3").unwrap();
        assert_eq!(t[0], Token::Integer(1));
    }

    #[test]
    fn keywords_upper_and_lower() {
        let t = tokenize("GROUP by ORDER By COUNT(*)").unwrap();
        assert_eq!(t[0], Token::Keyword(Keyword::Group));
        assert_eq!(t[1], Token::Keyword(Keyword::By));
        assert_eq!(t[4], Token::Keyword(Keyword::Count));
        assert_eq!(t[6], Token::Star);
    }

    fn parse_error(sql: &str) -> String {
        match tokenize(sql) {
            Err(HiqueError::Parse(msg)) => msg,
            other => panic!("{sql:?}: expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_is_a_parse_error() {
        assert_eq!(
            parse_error("select 'oops from t"),
            "unterminated string literal"
        );
        // An escaped quote at the very end still leaves the literal open.
        assert_eq!(parse_error("select 'oops''"), "unterminated string literal");
    }

    #[test]
    fn malformed_numbers_are_parse_errors() {
        // Out-of-range integer literals fail in the lexer; "1.2.3" lexes as
        // Float Dot Integer and is rejected later, by the parser.
        assert!(parse_error("select 999999999999999999999 from t").contains("invalid number"));
        let t = tokenize("select 1.2.3 from t").unwrap();
        assert!(t.contains(&Token::Dot));
    }

    #[test]
    fn every_symbol_lexes_as_its_token() {
        for (text, token) in &SYMBOLS {
            assert_eq!(tokenize(text).unwrap(), [token.clone(), Token::Eof]);
        }
    }

    #[test]
    fn stray_characters_are_parse_errors() {
        assert_eq!(parse_error("select a ! b"), "unexpected '!'");
        assert!(parse_error("select a ? b").contains("unexpected character"));
        assert!(parse_error("select a # b").contains("unexpected character"));
    }
}
