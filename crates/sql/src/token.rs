//! Token set of the supported SQL dialect.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

/// Declares [`Keyword`] together with its word table, so the table holds
/// every keyword at the index of its declaration.
macro_rules! keywords {
    ($($name:ident = $word:literal,)*) => {
        /// SQL keywords recognised by the lexer (case-insensitive in the input).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Keyword {
            $($name,)*
        }

        /// Every keyword's SQL word, indexed by the keyword: the one table
        /// both [`Keyword::from_ident`] and [`Keyword::as_str`] read.
        const KEYWORDS: &[(&str, Keyword)] = &[$(($word, Keyword::$name),)*];
    };
}

keywords! {
    Select = "select",
    From = "from",
    Where = "where",
    Group = "group",
    Order = "order",
    By = "by",
    Asc = "asc",
    Desc = "desc",
    And = "and",
    As = "as",
    Sum = "sum",
    Avg = "avg",
    Min = "min",
    Max = "max",
    Count = "count",
    Limit = "limit",
    Date = "date",
    Interval = "interval",
    Day = "day",
    Month = "month",
    Year = "year",
}

impl Keyword {
    /// Parse an identifier into a keyword, if it is one.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        // No allocation: every word of every statement comes through here.
        KEYWORDS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, k)| k)
    }

    /// The keyword's SQL word, lower-case.
    pub fn as_str(self) -> &'static str {
        KEYWORDS[self as usize].0
    }
}

/// A lexical token.
///
/// Equality and hashing are structural, floats by bit pattern: that is
/// value equality here, because the lexer never produces NaN or `-0.0`
/// (a minus sign is a token of its own).
#[derive(Debug, Clone)]
pub enum Token {
    /// A recognised keyword.
    Keyword(Keyword),
    /// An identifier (table, column or alias name), possibly qualified later
    /// by combining with `.`.
    Ident(String),
    /// Integer literal.
    Integer(i64),
    /// Floating-point literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    StringLit(String),
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `;`
    Semicolon,
    /// End of input.
    Eof,
}

impl Token {
    /// Whether the token is a literal: an integer, a float or a string.
    pub fn is_literal(&self) -> bool {
        matches!(
            self,
            Token::Integer(_) | Token::Float(_) | Token::StringLit(_)
        )
    }
}

impl PartialEq for Token {
    fn eq(&self, other: &Token) -> bool {
        match (self, other) {
            (Token::Keyword(a), Token::Keyword(b)) => a == b,
            (Token::Ident(a), Token::Ident(b)) | (Token::StringLit(a), Token::StringLit(b)) => {
                a == b
            }
            (Token::Integer(a), Token::Integer(b)) => a == b,
            (Token::Float(a), Token::Float(b)) => a.to_bits() == b.to_bits(),
            _ => discriminant(self) == discriminant(other),
        }
    }
}

impl Eq for Token {}

impl Hash for Token {
    fn hash<H: Hasher>(&self, state: &mut H) {
        discriminant(self).hash(state);
        match self {
            Token::Keyword(k) => k.hash(state),
            Token::Ident(s) | Token::StringLit(s) => s.hash(state),
            Token::Integer(v) => v.hash(state),
            Token::Float(v) => v.to_bits().hash(state),
            _ => {}
        }
    }
}

/// Every operator and punctuation token with its text, the most frequent
/// first and each two-character symbol before the one-character symbol it
/// starts with: the lexer reads the first entry the input starts with, and
/// [`Token`]'s `Display` writes a token's first entry (`<>`, not `!=`).
pub(crate) static SYMBOLS: [(&str, Token); 16] = [
    (",", Token::Comma),
    (".", Token::Dot),
    ("(", Token::LParen),
    (")", Token::RParen),
    ("=", Token::Eq),
    ("*", Token::Star),
    ("<>", Token::NotEq),
    ("<=", Token::LtEq),
    ("<", Token::Lt),
    (">=", Token::GtEq),
    (">", Token::Gt),
    ("!=", Token::NotEq),
    ("+", Token::Plus),
    ("-", Token::Minus),
    ("/", Token::Slash),
    (";", Token::Semicolon),
];

/// The token as SQL text: a keyword as its lower-case word, a float in
/// round-trip form (`2.0`, not `2`), a string literal quoted.
impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => f.write_str(k.as_str()),
            Token::Ident(s) => f.write_str(s),
            Token::Integer(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v:?}"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::Eof => f.write_str("<eof>"),
            symbol => {
                let text = SYMBOLS
                    .iter()
                    .find(|(_, t)| discriminant(t) == discriminant(symbol));
                f.write_str(text.map_or("", |(text, _)| text))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_parsing_is_case_insensitive() {
        assert_eq!(Keyword::from_ident("select"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::from_ident("count"), Some(Keyword::Count));
        assert_eq!(Keyword::from_ident("lineitem"), None);
    }

    #[test]
    fn every_keyword_round_trips_through_its_word() {
        for &(word, k) in KEYWORDS {
            assert_eq!(k.as_str(), word);
            assert_eq!(Keyword::from_ident(&word.to_ascii_uppercase()), Some(k));
        }
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::Comma.to_string(), ",");
        assert_eq!(Token::StringLit("x".into()).to_string(), "'x'");
        assert_eq!(Token::Keyword(Keyword::Select).to_string(), "select");
        assert_eq!(Token::Float(2.0).to_string(), "2.0");
        assert_eq!(Token::GtEq.to_string(), ">=");
        assert_eq!(Token::NotEq.to_string(), "<>");
        assert_eq!(Token::Eof.to_string(), "<eof>");
    }

    #[test]
    fn literals_compare_by_kind_and_value() {
        assert_eq!(Token::Float(2.5), Token::Float(2.5));
        assert_ne!(Token::Float(2.0), Token::Integer(2));
        assert_ne!(Token::Ident("x".into()), Token::StringLit("x".into()));
        assert_ne!(Token::Comma, Token::Dot);
    }
}
