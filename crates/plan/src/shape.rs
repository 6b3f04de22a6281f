//! Query-shape keys for the server's prepared-plan cache.
//!
//! The paper's Table III economics — preparation cost per query — only pay
//! off when a prepared plan and its kernel program are reused.  "The same
//! query" is what the parser sees: a [`ShapeKey`] is the statement's
//! tokens, lexed once and then parsed, so letter case, whitespace, `--`
//! comments and the one trailing `;` fold away exactly as in parsing.
//! Keys compare and hash by *shape class* — the tokens with every literal
//! masked alike — and [`ShapeKey::same_consts`] compares the literal
//! tokens exactly (`'A'` and `'a'`, `5` and `5.0` differ), which tells an
//! exact match from a classmate that re-plans and rebinds the entry's
//! pooled bytecode.  [`shape_class_and_consts`] renders the same key as
//! text for the benchmark's trace.

use std::fmt::Write;
use std::hash::{Hash, Hasher};

use hique_sql::lexer::tokenize;
use hique_sql::token::Token;
use hique_types::Result;

/// One statement's tokens, equal to another's when their shape classes
/// are.
#[derive(Debug, Clone)]
pub struct ShapeKey {
    tokens: Vec<Token>,
}

impl ShapeKey {
    /// Lex `sql`; a text that does not lex is the lexer's typed `Parse`
    /// error.
    pub fn lex(sql: &str) -> Result<ShapeKey> {
        tokenize(sql).map(|tokens| ShapeKey { tokens })
    }

    /// The tokens as lexed: the parser's input.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// The tokens that identify the statement: without `Eof` and without
    /// the one trailing `;` the parser accepts.
    fn statement(&self) -> &[Token] {
        match self.tokens.as_slice() {
            [head @ .., Token::Semicolon, Token::Eof] | [head @ .., Token::Eof] => head,
            tokens => tokens,
        }
    }

    /// The literal tokens, left to right.
    fn consts(&self) -> impl Iterator<Item = &Token> {
        self.statement().iter().filter(|t| t.is_literal())
    }

    /// Whether `other` carries the same literals: between classmates, an
    /// exact match.
    pub fn same_consts(&self, other: &ShapeKey) -> bool {
        self.consts().eq(other.consts())
    }
}

impl PartialEq for ShapeKey {
    fn eq(&self, other: &ShapeKey) -> bool {
        let (a, b) = (self.statement(), other.statement());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x == y || (x.is_literal() && y.is_literal()))
    }
}

impl Eq for ShapeKey {}

/// Hashes the length and the identifiers, which tell classes apart at a
/// fraction of the cost of hashing every token; equality settles the rest.
impl Hash for ShapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let statement = self.statement();
        statement.len().hash(state);
        for token in statement.iter().filter(|t| matches!(t, Token::Ident(_))) {
            token.hash(state);
        }
    }
}

/// A query's [`ShapeKey`] as text: its shape class and its constants, in
/// left-to-right order.  The class renders every token of the statement
/// space-separated with each literal as `?`, and each constant is its
/// literal's rendering (`'text'`, digits, or a float with a `.` or
/// exponent), so two texts get equal `(class, consts)` exactly when their
/// keys are equal and carry the same constants.  A text that does not lex
/// gets a class beginning with `!`, which no rendering produces.
pub fn shape_class_and_consts(sql: &str) -> (String, Vec<String>) {
    let Ok(key) = ShapeKey::lex(sql) else {
        return (format!("!{sql}"), Vec::new());
    };
    let mut class = String::with_capacity(sql.len());
    for token in key.statement() {
        if !class.is_empty() {
            class.push(' ');
        }
        if token.is_literal() {
            class.push('?');
        } else {
            // Writing to a `String` cannot fail.
            let _ = write!(class, "{token}");
        }
    }
    (class, key.consts().map(Token::to_string).collect())
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
