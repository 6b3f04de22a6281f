//! Query-shape keys for the server's prepared-plan cache.
//!
//! The paper's Table III economics — generation, compilation and
//! preparation cost per query — only pay off when a prepared plan (and its
//! instantiated kernel program) is reused across requests.  The cache must
//! therefore identify "the same query" robustly against the formatting
//! noise real clients produce: case of keywords and identifiers, and
//! whitespace.  [`shape_key`] normalizes exactly those, preserving string
//! literals byte-for-byte (`'A'` and `'a'` are different queries).
//!
//! [`shape_class_and_consts`] splits that normalized text losslessly into
//! its *shape class* — literals masked with `?` — and the vector of masked
//! literal texts.  The cache keys on the class plus the constant vector: a
//! query with the entry's constants reuses its plan outright (cached plans
//! stay exact, including their literal-dependent cardinality estimates),
//! while a classmate with other constants re-plans and rebinds the entry's
//! pooled bytecode template.

/// Normalize a SQL string: whitespace collapsed to
/// single spaces, everything outside single-quoted string literals folded
/// to lowercase, trailing semicolons and padding trimmed.  Literals are
/// preserved exactly (including `''` escapes), so the normalized text never
/// conflates queries with different constants.
pub fn shape_key(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    let mut pending_space = false;
    while let Some(c) = chars.next() {
        if c == '\'' {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push('\'');
            // Copy the literal verbatim, honoring '' escapes.
            loop {
                match chars.next() {
                    Some('\'') => {
                        out.push('\'');
                        match chars.next_if_eq(&'\'') {
                            Some(q) => out.push(q),
                            None => break,
                        }
                    }
                    Some(c) => out.push(c),
                    None => break, // unterminated literal: keep what we have
                }
            }
        } else if c.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            for l in c.to_lowercase() {
                out.push(l);
            }
        }
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

/// The query's *shape class*: its [`shape_key`] with string and numeric
/// literals masked as `?`.  The class labels cache statistics by query
/// template, and — paired with the extracted constant vector from
/// [`shape_class_and_consts`] — keys the server's plan cache so
/// literal-varying repeats of one template share a compiled program.
pub fn shape_class(sql: &str) -> String {
    shape_class_and_consts(sql).0
}

/// Split a query into its shape class and the literal texts masked out of
/// it, in left-to-right order.  The pair is a lossless decomposition of
/// [`shape_key`]: two queries have equal `(class, consts)` exactly when
/// their shape keys are equal, so a cache keyed on the class with the
/// constant vector checked per entry distinguishes every query the old
/// literal-preserving key distinguished — while recognizing classmates
/// that differ only in constants (the VM's pooled-template rebind case).
pub fn shape_class_and_consts(sql: &str) -> (String, Vec<String>) {
    let key = shape_key(sql);
    let mut out = String::with_capacity(key.len());
    let mut consts = Vec::new();
    let mut chars = key.chars().peekable();
    let mut prev: Option<char> = None;
    while let Some(c) = chars.next() {
        if c == '\'' {
            // Swallow the literal (including '' escapes) and emit one ?.
            let mut lit = String::from("'");
            loop {
                match chars.next() {
                    Some('\'') => {
                        lit.push('\'');
                        match chars.next_if_eq(&'\'') {
                            Some(q) => lit.push(q),
                            None => break,
                        }
                    }
                    Some(c) => lit.push(c),
                    None => break,
                }
            }
            consts.push(lit);
            out.push('?');
            prev = Some('?');
        } else if c.is_ascii_digit() && !prev.is_some_and(|p| p.is_alphanumeric() || p == '_') {
            // A numeric literal (not part of an identifier like `l_tax` or
            // `t1`): swallow the whole run of digits and dots.  The lexer
            // has no exponent, so neither does this.
            let mut lit = String::new();
            lit.push(c);
            while let Some(n) = chars.next_if(|&n| n.is_ascii_digit() || n == '.') {
                lit.push(n);
            }
            consts.push(lit);
            out.push('?');
            prev = Some('?');
        } else {
            out.push(c);
            prev = Some(c);
        }
    }
    (out, consts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_and_whitespace_fold_into_one_key() {
        let a = shape_key("SELECT  k,\n\t v FROM r   WHERE k = 3;");
        let b = shape_key("select k, v from r where k = 3");
        assert_eq!(a, b);
        assert_eq!(a, "select k, v from r where k = 3");
    }

    #[test]
    fn string_literals_are_preserved_exactly() {
        let upper = shape_key("select * from r where tag = 'ABC'");
        let lower = shape_key("select * from r where tag = 'abc'");
        assert_ne!(upper, lower, "literal case must distinguish keys");
        assert!(upper.contains("'ABC'"));
        // Escaped quotes survive normalization.
        let esc = shape_key("SELECT 'It''s A' FROM r");
        assert!(esc.contains("'It''s A'"));
        assert!(esc.starts_with("select "));
    }

    #[test]
    fn different_constants_are_different_keys_but_one_class() {
        let a = shape_key("select v from r where k = 3");
        let b = shape_key("select v from r where k = 42");
        assert_ne!(a, b);
        assert_eq!(shape_class(&a), shape_class(&b));
        assert_eq!(shape_class(&a), "select v from r where k = ?");
    }

    #[test]
    fn class_and_consts_losslessly_split_the_key() {
        let (class, consts) =
            shape_class_and_consts("select v from r where k = 42 and tag = 'It''s A' and v < 2.5");
        assert_eq!(class, "select v from r where k = ? and tag = ? and v < ?");
        assert_eq!(consts, vec!["42", "'It''s A'", "2.5"]);
        // Same class, different constant vector: distinguishable, shareable.
        let (class2, consts2) =
            shape_class_and_consts("SELECT v FROM r WHERE k = 7 AND tag = 'x' AND v < 9.0;");
        assert_eq!(class, class2);
        assert_ne!(consts, consts2);
    }

    #[test]
    fn class_masks_strings_and_numbers_but_not_identifiers() {
        let class = shape_class(
            "select l_tax, sum(2.5 * l_qty) from lineitem where l_ship = 'AIR' and l_qty < 10",
        );
        assert_eq!(
            class,
            "select l_tax, sum(? * l_qty) from lineitem where l_ship = ? and l_qty < ?"
        );
    }
}
