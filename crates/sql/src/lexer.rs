//! SQL tokenizer.

use hique_types::{HiqueError, Result};

use crate::token::{Keyword, Token};

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
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // `--` starts a comment running to end of line.
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(HiqueError::Parse("unexpected '!'".into()));
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
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
                let text = &input[start..i];
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| HiqueError::Parse(format!("invalid number '{text}'")))?;
                    tokens.push(Token::Float(v));
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|_| HiqueError::Parse(format!("invalid number '{text}'")))?;
                    tokens.push(Token::Integer(v));
                }
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
                let other = input[i..].chars().next().unwrap_or(c);
                return Err(HiqueError::Parse(format!("unexpected character '{other}'")));
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
    fn stray_characters_are_parse_errors() {
        assert_eq!(parse_error("select a ! b"), "unexpected '!'");
        assert!(parse_error("select a ? b").contains("unexpected character"));
        assert!(parse_error("select a # b").contains("unexpected character"));
    }
}
