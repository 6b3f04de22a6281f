//! Query-shape keys for the server's prepared-plan cache.
//!
//! The paper's Table III economics — generation, compilation and
//! preparation cost per query — only pay off when a prepared plan (and its
//! instantiated kernel program) is reused across requests.  "The same
//! query" is what the parser would see: the key is the lexer's own token
//! stream, so letter case, whitespace, `--` comments and the one trailing
//! `;` the parser accepts fold away exactly as they do before parsing,
//! while every literal is kept (`'A'` and `'a'`, `5` and `5.0` differ).
//!
//! [`shape_class_and_consts`] splits the token stream losslessly into its
//! *shape class* — literals masked with `?` — and the vector of masked
//! literals.  The cache keys on the class plus the constant vector: a
//! query with the entry's constants reuses its plan outright (cached plans
//! stay exact, including their literal-dependent cardinality estimates),
//! while a classmate with other constants re-plans and rebinds the entry's
//! pooled bytecode template.

use hique_sql::lexer::tokenize;
use hique_sql::token::{Keyword, Token};

/// Split a query into its shape class and the literals masked out of it,
/// in left-to-right order.  Two texts get equal `(class, consts)` exactly
/// when [`tokenize`] returns equal tokens (up to the one trailing `;`):
/// the class renders every non-literal token, space-separated, and each
/// const keeps its literal's kind — a string as `'text'`, an integer as
/// its digits, a float in Rust's round-trip form with a `.` or exponent.
/// A text that does not lex gets a class beginning with `!`, which no
/// rendering produces.
pub fn shape_class_and_consts(sql: &str) -> (String, Vec<String>) {
    let Ok(mut tokens) = tokenize(sql) else {
        return (format!("!{sql}"), Vec::new());
    };
    tokens.pop(); // Eof
    if tokens.last() == Some(&Token::Semicolon) {
        tokens.pop();
    }
    let mut class = String::with_capacity(sql.len());
    let mut consts = Vec::new();
    for token in &tokens {
        if !class.is_empty() {
            class.push(' ');
        }
        let piece = match token {
            Token::Ident(name) => name,
            Token::Keyword(k) => keyword(*k),
            Token::Integer(v) => {
                consts.push(v.to_string());
                "?"
            }
            Token::Float(v) => {
                consts.push(format!("{v:?}"));
                "?"
            }
            Token::StringLit(s) => {
                consts.push(format!("'{s}'"));
                "?"
            }
            Token::Comma => ",",
            Token::Dot => ".",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::Star => "*",
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Slash => "/",
            Token::Eq => "=",
            Token::NotEq => "<>",
            Token::Lt => "<",
            Token::LtEq => "<=",
            Token::Gt => ">",
            Token::GtEq => ">=",
            Token::Semicolon => ";",
            Token::Eof => "<eof>",
        };
        class.push_str(piece);
    }
    (class, consts)
}

fn keyword(k: Keyword) -> &'static str {
    match k {
        Keyword::Select => "select",
        Keyword::From => "from",
        Keyword::Where => "where",
        Keyword::Group => "group",
        Keyword::Order => "order",
        Keyword::By => "by",
        Keyword::Asc => "asc",
        Keyword::Desc => "desc",
        Keyword::And => "and",
        Keyword::As => "as",
        Keyword::Sum => "sum",
        Keyword::Avg => "avg",
        Keyword::Min => "min",
        Keyword::Max => "max",
        Keyword::Count => "count",
        Keyword::Limit => "limit",
        Keyword::Date => "date",
        Keyword::Interval => "interval",
        Keyword::Day => "day",
        Keyword::Month => "month",
        Keyword::Year => "year",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> (String, Vec<String>) {
        shape_class_and_consts(sql)
    }

    #[test]
    fn case_and_whitespace_fold_into_one_key() {
        let a = key("SELECT  k,\n\t v FROM r   WHERE k = 3;");
        assert_eq!(a, key("select k, v from r where k = 3"));
        assert_eq!(a, key("select k -- the key\n, v from r where k = 3"));
        assert_eq!(a.0, "select k , v from r where k = ?");
        // The parser accepts one trailing `;`, not two.
        assert_ne!(a, key("select k, v from r where k = 3;;"));
    }

    #[test]
    fn string_literals_are_preserved_exactly() {
        let (upper_class, upper) = key("select * from r where tag = 'ABC'");
        let (lower_class, lower) = key("select * from r where tag = 'abc'");
        assert_eq!(upper_class, lower_class);
        assert_eq!(upper, vec!["'ABC'"]);
        assert_eq!(lower, vec!["'abc'"]);
        // Escaped quotes and non-ASCII text survive as the lexer reads them.
        assert_eq!(
            key("SELECT 'It''s A', 'é' FROM r").1,
            vec!["'It's A'", "'é'"]
        );
    }

    /// An apostrophe inside a comment is comment text: it opens no literal
    /// and so cannot fold the real literal that follows into the class.
    #[test]
    fn comments_with_apostrophes_leave_literals_alone() {
        let upper = key("select k from r -- don't\nwhere tag = 'ABC' order by k");
        let lower = key("select k from r -- don't\nwhere tag = 'abc' order by k");
        assert_eq!(upper.0, "select k from r where tag = ? order by k");
        assert_ne!(upper, lower);
    }

    #[test]
    fn different_constants_are_different_keys_but_one_class() {
        let a = key("select v from r where k = 3");
        let b = key("select v from r where k = 42");
        assert_ne!(a, b);
        assert_eq!(a.0, b.0);
        assert_eq!(a.0, "select v from r where k = ?");
        // The literal's kind is part of the constant.
        assert_ne!(
            key("select v from r where k = 5"),
            key("select v from r where k = 5.0")
        );
        assert_ne!(
            key("select v from r where k = 5"),
            key("select v from r where k = '5'")
        );
    }

    #[test]
    fn class_and_consts_losslessly_split_the_key() {
        let (class, consts) =
            key("select v from r where k = 42 and tag = 'It''s A' and v < 2.5 and w < 9.0");
        assert_eq!(
            class,
            "select v from r where k = ? and tag = ? and v < ? and w < ?"
        );
        assert_eq!(consts, vec!["42", "'It's A'", "2.5", "9.0"]);
        // Same class, different constant vector: distinguishable, shareable.
        let (class2, consts2) =
            key("SELECT v FROM r WHERE k = 7 AND tag = 'x' AND v < 9.0 AND w < 1.5;");
        assert_eq!(class, class2);
        assert_ne!(consts, consts2);
    }

    #[test]
    fn class_masks_strings_and_numbers_but_not_identifiers() {
        let (class, _) =
            key("select l_tax, sum(2.5 * l_qty) from lineitem where l_ship = 'AIR' and l_qty < 10");
        assert_eq!(
            class,
            "select l_tax , sum ( ? * l_qty ) from lineitem where l_ship = ? and l_qty < ?"
        );
    }

    #[test]
    fn text_that_does_not_lex_has_a_key_of_its_own() {
        let (class, consts) = key("select 'unterminated");
        assert_eq!(class, "!select 'unterminated");
        assert!(consts.is_empty());
        assert_ne!(key("select a ? b").0, key("select a ! b").0);
    }
}
