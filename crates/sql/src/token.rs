//! Token set of the supported SQL dialect.

use std::fmt;

/// SQL keywords recognised by the lexer (case-insensitive in the input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    From,
    Where,
    Group,
    Order,
    By,
    Asc,
    Desc,
    And,
    As,
    Sum,
    Avg,
    Min,
    Max,
    Count,
    Limit,
    Date,
    Interval,
    Day,
    Month,
    Year,
}

impl Keyword {
    /// Parse an identifier into a keyword, if it is one.
    pub fn from_ident(s: &str) -> Option<Keyword> {
        const KEYWORDS: [(&str, Keyword); 21] = [
            ("SELECT", Keyword::Select),
            ("FROM", Keyword::From),
            ("WHERE", Keyword::Where),
            ("GROUP", Keyword::Group),
            ("ORDER", Keyword::Order),
            ("BY", Keyword::By),
            ("ASC", Keyword::Asc),
            ("DESC", Keyword::Desc),
            ("AND", Keyword::And),
            ("AS", Keyword::As),
            ("SUM", Keyword::Sum),
            ("AVG", Keyword::Avg),
            ("MIN", Keyword::Min),
            ("MAX", Keyword::Max),
            ("COUNT", Keyword::Count),
            ("LIMIT", Keyword::Limit),
            ("DATE", Keyword::Date),
            ("INTERVAL", Keyword::Interval),
            ("DAY", Keyword::Day),
            ("MONTH", Keyword::Month),
            ("YEAR", Keyword::Year),
        ];
        // No allocation: every word of every statement comes through here.
        KEYWORDS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, k)| k)
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
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

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "{s}"),
            Token::Integer(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Semicolon => write!(f, ";"),
            Token::Eof => write!(f, "<eof>"),
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
    fn token_display() {
        assert_eq!(Token::Comma.to_string(), ",");
        assert_eq!(Token::StringLit("x".into()).to_string(), "'x'");
        assert_eq!(Token::Keyword(Keyword::Select).to_string(), "Select");
        assert_eq!(Token::GtEq.to_string(), ">=");
    }
}
