//! Recursive-descent parser for the supported SQL dialect.
//!
//! Grammar (informally):
//!
//! ```text
//! query      := SELECT select_list FROM table_list [WHERE conjunct (AND conjunct)*]
//!               [GROUP BY column (, column)*] [ORDER BY order_item (, order_item)*]
//!               [LIMIT integer] [;]
//! select_list:= select_item (, select_item)*
//! select_item:= expr [AS ident] | *
//! table_list := table_ref (, table_ref)*
//! table_ref  := ident [ident]            -- optional alias
//! conjunct   := expr cmp_op expr
//! expr       := term ((+|-) term)*
//! term       := factor ((*|/) factor)*
//! factor     := literal | DATE string | INTERVAL string (DAY|MONTH|YEAR)
//!             | agg_func ( expr | * ) | column | ( expr )
//! column     := ident [. ident]
//! ```

use hique_types::{value::parse_date, HiqueError, Result, Value};

use crate::ast::{AggFunc, BinOp, CmpOp, Expr, OrderItem, Predicate, Query, SelectItem, TableRef};
use crate::lexer::tokenize;
use crate::token::{Keyword, Token};

/// Parse one SQL query.
pub fn parse_query(sql: &str) -> Result<Query> {
    parse_tokens(&tokenize(sql)?)
}

/// Parse one SQL query from its tokens as [`tokenize`] returns them; the
/// input ends at `Eof` or at the end of the slice.
pub fn parse_tokens(tokens: &[Token]) -> Result<Query> {
    let mut p = Parser { tokens, pos: 0 };
    let q = p.parse_query()?;
    p.expect_end()?;
    Ok(q)
}

/// A parse error naming what the grammar expected and the token found.
fn expected<T>(what: &str, found: &Token) -> Result<T> {
    Err(HiqueError::Parse(format!(
        "expected {what}, found '{found}'"
    )))
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        self.tokens.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn advance(&mut self) -> Token {
        let t = self.peek().clone();
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == tok {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            expected(&format!("'{tok}'"), self.peek())
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(&Token::Keyword(kw))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        self.expect(&Token::Keyword(kw))
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.advance() {
            Token::Ident(s) => Ok(s),
            other => expected("identifier", &other),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        self.eat(&Token::Semicolon);
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(HiqueError::Parse(format!(
                "unexpected trailing input at '{}'",
                self.peek()
            )))
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        self.expect_keyword(Keyword::Select)?;
        let select = self.parse_select_list()?;
        self.expect_keyword(Keyword::From)?;
        let from = self.parse_table_list()?;
        let mut predicates = Vec::new();
        if self.eat_keyword(Keyword::Where) {
            loop {
                predicates.push(self.parse_predicate()?);
                if !self.eat_keyword(Keyword::And) {
                    break;
                }
            }
        }
        let mut group_by = Vec::new();
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_keyword(Keyword::Desc) {
                    false
                } else {
                    self.eat_keyword(Keyword::Asc);
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        if self.eat_keyword(Keyword::Limit) {
            match self.advance() {
                Token::Integer(n) if n >= 0 => limit = Some(n as u64),
                other => return expected("non-negative integer after LIMIT", &other),
            }
        }
        Ok(Query {
            select,
            from,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_select_list(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            // `SELECT *` — expanded by the analyzer.
            if self.peek() == &Token::Star {
                self.advance();
                items.push(SelectItem {
                    expr: Expr::Column("*".into()),
                    alias: None,
                });
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_keyword(Keyword::As) {
                    Some(self.expect_ident()?)
                } else if let Token::Ident(_) = self.peek() {
                    // Bare alias (`expr alias`).
                    Some(self.expect_ident()?)
                } else {
                    None
                };
                items.push(SelectItem { expr, alias });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_table_list(&mut self) -> Result<Vec<TableRef>> {
        let mut tables = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let alias = if let Token::Ident(_) = self.peek() {
                Some(self.expect_ident()?)
            } else {
                None
            };
            tables.push(TableRef { name, alias });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(tables)
    }

    fn parse_predicate(&mut self) -> Result<Predicate> {
        let left = self.parse_expr()?;
        let op = match self.advance() {
            Token::Eq => CmpOp::Eq,
            Token::NotEq => CmpOp::NotEq,
            Token::Lt => CmpOp::Lt,
            Token::LtEq => CmpOp::LtEq,
            Token::Gt => CmpOp::Gt,
            Token::GtEq => CmpOp::GtEq,
            other => return expected("comparison operator", &other),
        };
        let right = self.parse_expr()?;
        Ok(Predicate { left, op, right })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        let mut left = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_term()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_term(&mut self) -> Result<Expr> {
        let mut left = self.parse_factor()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.parse_factor()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_factor(&mut self) -> Result<Expr> {
        match self.advance() {
            Token::Integer(v) => Ok(Expr::Literal(
                if v <= i32::MAX as i64 && v >= i32::MIN as i64 {
                    Value::Int32(v as i32)
                } else {
                    Value::Int64(v)
                },
            )),
            Token::Float(v) => Ok(Expr::Literal(Value::Float64(v))),
            Token::StringLit(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Minus => {
                // Unary minus over a numeric factor.
                let inner = self.parse_factor()?;
                match inner {
                    Expr::Literal(Value::Int32(v)) => Ok(Expr::Literal(Value::Int32(-v))),
                    Expr::Literal(Value::Int64(v)) => Ok(Expr::Literal(Value::Int64(-v))),
                    Expr::Literal(Value::Float64(v)) => Ok(Expr::Literal(Value::Float64(-v))),
                    other => Ok(Expr::Binary {
                        op: BinOp::Sub,
                        left: Box::new(Expr::Literal(Value::Int32(0))),
                        right: Box::new(other),
                    }),
                }
            }
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Keyword(Keyword::Date) => {
                // `DATE 'YYYY-MM-DD'`
                match self.advance() {
                    Token::StringLit(s) => Ok(Expr::Literal(Value::Date(parse_date(&s)?))),
                    other => expected("date string after DATE", &other),
                }
            }
            Token::Keyword(Keyword::Interval) => {
                // `INTERVAL 'n' DAY|MONTH|YEAR` — normalised to days using
                // the TPC-H convention (month = 30 days, year = 365 days is
                // NOT used; months/years shift the civil date in the
                // analyzer, so here we keep the unit).
                let n: i64 = match self.advance() {
                    Token::StringLit(s) => s.trim().parse().map_err(|_| {
                        HiqueError::Parse(format!("invalid interval quantity '{s}'"))
                    })?,
                    Token::Integer(v) => v,
                    other => return expected("interval quantity", &other),
                };
                let days = match self.advance() {
                    Token::Keyword(Keyword::Day) => n,
                    Token::Keyword(Keyword::Month) => n * 30,
                    Token::Keyword(Keyword::Year) => n * 365,
                    other => return expected("DAY/MONTH/YEAR", &other),
                };
                Ok(Expr::IntervalDays(days))
            }
            Token::Keyword(Keyword::Sum) => self.parse_aggregate(AggFunc::Sum),
            Token::Keyword(Keyword::Avg) => self.parse_aggregate(AggFunc::Avg),
            Token::Keyword(Keyword::Min) => self.parse_aggregate(AggFunc::Min),
            Token::Keyword(Keyword::Max) => self.parse_aggregate(AggFunc::Max),
            Token::Keyword(Keyword::Count) => self.parse_aggregate(AggFunc::Count),
            Token::Ident(name) => {
                if self.eat(&Token::Dot) {
                    let col = self.expect_ident()?;
                    Ok(Expr::Column(format!("{name}.{col}")))
                } else {
                    Ok(Expr::Column(name))
                }
            }
            other => Err(HiqueError::Parse(format!(
                "unexpected token '{other}' in expression"
            ))),
        }
    }

    /// `func ( expr )` after the function's keyword; `count` also takes `*`.
    fn parse_aggregate(&mut self, func: AggFunc) -> Result<Expr> {
        self.expect(&Token::LParen)?;
        let arg = if func == AggFunc::Count && self.eat(&Token::Star) {
            None
        } else {
            Some(Box::new(self.parse_expr()?))
        };
        self.expect(&Token::RParen)?;
        Ok(Expr::Aggregate { func, arg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse_query("select a, b from t where a = 5 and b < 3.5").unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].name, "t");
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.predicates[0].op, CmpOp::Eq);
        assert_eq!(q.predicates[1].op, CmpOp::Lt);
        assert!(q.group_by.is_empty());
        assert!(q.order_by.is_empty());
        assert_eq!(q.limit, None);
    }

    #[test]
    fn parses_join_group_order_limit() {
        let q = parse_query(
            "SELECT o.o_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue \
             FROM orders o, lineitem l \
             WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate < date '1995-03-15' \
             GROUP BY o.o_orderkey \
             ORDER BY revenue DESC, o.o_orderkey \
             LIMIT 10;",
        )
        .unwrap();
        assert_eq!(q.from.len(), 2);
        assert_eq!(q.from[0].alias.as_deref(), Some("o"));
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.select[1].alias.as_deref(), Some("revenue"));
        assert!(q.select[1].expr.contains_aggregate());
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.group_by.len(), 1);
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].asc);
        assert!(q.order_by[1].asc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_tpch_q1_shape() {
        let q = parse_query(
            "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, \
             sum(l_extendedprice) as sum_base_price, \
             sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, \
             sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge, \
             avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, \
             avg(l_discount) as avg_disc, count(*) as count_order \
             from lineitem \
             where l_shipdate <= date '1998-12-01' - interval '90' day \
             group by l_returnflag, l_linestatus \
             order by l_returnflag, l_linestatus",
        )
        .unwrap();
        assert_eq!(q.select.len(), 10);
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.predicates.len(), 1);
        // The shipdate bound parses into `date - interval`.
        match &q.predicates[0].right {
            Expr::Binary {
                op: BinOp::Sub,
                right,
                ..
            } => {
                assert_eq!(**right, Expr::IntervalDays(90));
            }
            other => panic!("unexpected rhs: {other:?}"),
        }
    }

    #[test]
    fn count_star_and_count_expr() {
        let q = parse_query("select count(*), count(a) from t").unwrap();
        match &q.select[0].expr {
            Expr::Aggregate {
                func: AggFunc::Count,
                arg,
            } => assert!(arg.is_none()),
            other => panic!("{other:?}"),
        }
        match &q.select[1].expr {
            Expr::Aggregate {
                func: AggFunc::Count,
                arg,
            } => assert!(arg.is_some()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse_query("select a + b * c from t").unwrap();
        match &q.select[0].expr {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => match right.as_ref() {
                Expr::Binary { op: BinOp::Mul, .. } => {}
                other => panic!("expected mul on rhs, got {other:?}"),
            },
            other => panic!("expected add at top, got {other:?}"),
        }
        let q = parse_query("select (a + b) * c from t").unwrap();
        match &q.select[0].expr {
            Expr::Binary { op: BinOp::Mul, .. } => {}
            other => panic!("expected mul at top, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_and_negative_literals() {
        let q = parse_query("select -5, -x from t").unwrap();
        assert_eq!(q.select[0].expr, Expr::Literal(Value::Int32(-5)));
        match &q.select[1].expr {
            Expr::Binary {
                op: BinOp::Sub,
                left,
                ..
            } => {
                assert_eq!(**left, Expr::Literal(Value::Int32(0)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_star() {
        let q = parse_query("select * from t").unwrap();
        assert_eq!(q.select.len(), 1);
        assert_eq!(q.select[0].expr, Expr::Column("*".into()));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_query("select from t").is_err());
        assert!(parse_query("select a t").is_err());
        assert!(parse_query("select a from t where a ^ 3").is_err());
        assert!(parse_query("select a from t limit -1").is_err());
        assert!(parse_query("select a from t extra junk").is_err());
        assert!(parse_query("select sum( from t").is_err());
        assert!(parse_query("select a from t where a =").is_err());
        assert!(parse_query("select date 5 from t").is_err());
        assert!(parse_query("select interval 'x' day from t").is_err());
    }

    #[test]
    fn interval_units() {
        let q =
            parse_query("select interval '2' month, interval '1' year, interval '7' day from t")
                .unwrap();
        assert_eq!(q.select[0].expr, Expr::IntervalDays(60));
        assert_eq!(q.select[1].expr, Expr::IntervalDays(365));
        assert_eq!(q.select[2].expr, Expr::IntervalDays(7));
    }

    fn parse_error(sql: &str) -> String {
        match parse_query(sql) {
            Err(HiqueError::Parse(msg)) => msg,
            other => panic!("{sql:?}: expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn unbalanced_parens_are_parse_errors() {
        // Missing closing paren in an arithmetic expression.
        assert!(parse_error("select (a + 1 from t").contains("expected"));
        // Missing closing paren around an aggregate argument.
        assert!(parse_error("select sum(a from t").contains("expected"));
        // A stray closing paren after a complete expression.
        assert!(parse_query("select a) from t").is_err());
        // Nested parens, one closer short.
        assert!(parse_query("select ((a + 1) * 2 from t").is_err());
    }

    #[test]
    fn missing_clauses_are_parse_errors() {
        assert!(parse_query("select from t").is_err());
        assert!(parse_query("select a").is_err(), "FROM list is mandatory");
        assert!(parse_query("select a from").is_err());
        assert!(parse_query("select a from t order by").is_err());
        assert!(parse_query("select a from t group by").is_err());
        assert!(parse_query("select a from t limit").is_err());
    }

    #[test]
    fn trailing_garbage_is_a_parse_error() {
        let msg = parse_error("select a from t limit 5 whatever");
        assert!(
            msg.contains("whatever") || msg.contains("expected"),
            "{msg}"
        );
    }

    /// An error names the token as the user wrote it: a keyword as its
    /// word, a float with its decimal point.
    #[test]
    fn parse_errors_spell_tokens_as_sql() {
        assert_eq!(parse_error("select a t"), "expected 'from', found '<eof>'");
        assert_eq!(
            parse_error("select a from t limit 2.0"),
            "expected non-negative integer after LIMIT, found '2.0'"
        );
    }

    #[test]
    fn parse_tokens_reads_what_the_lexer_returns() {
        let sql = "select k from r where v > 1;";
        let mut tokens = tokenize(sql).unwrap();
        assert_eq!(parse_tokens(&tokens).unwrap(), parse_query(sql).unwrap());
        // Without its `Eof` the slice ends the statement just the same.
        tokens.pop();
        assert_eq!(parse_tokens(&tokens).unwrap(), parse_query(sql).unwrap());
        tokens.push(Token::Semicolon);
        assert!(parse_tokens(&tokens).is_err(), "two trailing ';'");
    }

    #[test]
    fn misspelled_select_is_a_parse_error() {
        // "selec" lexes as an identifier, so the statement cannot start.
        assert!(parse_query("selec a from t").is_err());
    }
}
