//! Greedy join ordering and join-team detection.
//!
//! The optimizer orders joins greedily to minimise intermediate result sizes
//! (paper §IV).  It also recognises **join teams** (paper §V-B, after
//! Graefe's hash teams): when every join predicate belongs to one attribute
//! equivalence class — e.g. a star of key–foreign-key joins on a common key
//! — the whole multi-way join can be fused into a single set of nested loops
//! with no intermediate materialization (Figure 7(b) measures the benefit).

use hique_sql::analyze::EquiJoin;

/// The chosen join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOrder {
    /// Table indexes (into the bound query's table list), evaluation order.
    pub order: Vec<usize>,
    /// For every table after the first, the equi-join predicate (index into
    /// the bound query's join list) connecting it to the tables before it;
    /// `None` means a cross product was unavoidable.
    pub edges: Vec<Option<usize>>,
    /// Estimated cardinality after each step (`order.len()` entries; entry 0
    /// is the first table's estimate).
    pub estimates: Vec<usize>,
}

/// Detect whether all joins share one attribute equivalence class.
///
/// Returns the per-table key column (table-local index) for every table that
/// participates in a join, or `None` when the joins span several keys or any
/// table joins on more than one column.
pub fn detect_join_team(num_tables: usize, joins: &[EquiJoin]) -> Option<Vec<(usize, usize)>> {
    if joins.len() < 2 {
        return None;
    }
    // Union-find over (table, column) pairs.
    let mut keys: Vec<Option<usize>> = vec![None; num_tables];
    for j in joins {
        for &(t, c) in &[
            (j.left_table, j.left_column),
            (j.right_table, j.right_column),
        ] {
            match keys[t] {
                None => keys[t] = Some(c),
                Some(existing) if existing == c => {}
                Some(_) => return None, // a table joins on two different columns
            }
        }
    }
    // Every join must connect two tables that are both in the same class by
    // construction above (each table has a single key column).  Verify every
    // joined table got a key and at least three tables participate —
    // otherwise a plain binary join is just as good.
    let members: Vec<(usize, usize)> = keys
        .iter()
        .enumerate()
        .filter_map(|(t, k)| k.map(|c| (t, c)))
        .collect();
    if members.len() < 3 {
        return None;
    }
    Some(members)
}

/// Greedily order the tables to minimise intermediate sizes.
///
/// `table_rows[i]` is the estimated post-filter cardinality of table `i`;
/// `join_rows(a_est, a, b)` estimates the output of joining the current
/// intermediate (estimated `a_est` rows, containing table set `a`) with
/// table `b` over whichever join predicates connect them.
pub fn greedy_order(
    table_rows: &[usize],
    joins: &[EquiJoin],
    estimate_pair: &dyn Fn(usize, usize, usize) -> usize,
) -> JoinOrder {
    let n = table_rows.len();
    if n == 1 {
        return JoinOrder {
            order: vec![0],
            edges: vec![],
            estimates: vec![table_rows[0]],
        };
    }

    let connecting = |placed: &[usize], candidate: usize| -> Option<usize> {
        joins.iter().position(|j| {
            (placed.contains(&j.left_table) && j.right_table == candidate)
                || (placed.contains(&j.right_table) && j.left_table == candidate)
        })
    };

    // Start from the pair with the smallest estimated join output; fall back
    // to the two smallest tables when the query has no join predicate at all.
    let mut best: Option<(usize, usize, usize, Option<usize>)> = None;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let edge = joins.iter().position(|j| {
                (j.left_table == a && j.right_table == b)
                    || (j.left_table == b && j.right_table == a)
            });
            let est = match edge {
                Some(e) => estimate_pair(table_rows[a], b, e),
                None => table_rows[a].saturating_mul(table_rows[b]),
            };
            // Prefer joined pairs over cross products, then smaller outputs,
            // then smaller left inputs for determinism.
            let key = (edge.is_none(), est, table_rows[a], a, b);
            let better = match &best {
                None => true,
                Some((ba, bb, best_est, bedge)) => {
                    let bkey = (bedge.is_none(), *best_est, table_rows[*ba], *ba, *bb);
                    key < bkey
                }
            };
            if better {
                best = Some((a, b, est, edge));
            }
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "greedy ordering invariant: the candidate set is non-empty while n >= 2"
    )]
    let (first, second, first_est, first_edge) = best.expect("n >= 2");

    let mut order = vec![first, second];
    let mut edges = vec![first_edge];
    let mut estimates = vec![table_rows[first], first_est];
    let mut current_est = first_est;

    while order.len() < n {
        let mut step: Option<(usize, usize, Option<usize>)> = None; // (table, est, edge)
        for (cand, &cand_rows) in table_rows.iter().enumerate().take(n) {
            if order.contains(&cand) {
                continue;
            }
            let edge = connecting(&order, cand);
            let est = match edge {
                Some(e) => estimate_pair(current_est, cand, e),
                None => current_est.saturating_mul(cand_rows),
            };
            let key = (edge.is_none(), est, cand);
            let better = match &step {
                None => true,
                Some((st, sest, sedge)) => key < (sedge.is_none(), *sest, *st),
            };
            if better {
                step = Some((cand, est, edge));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "greedy ordering invariant: the candidate set is non-empty while tables remain"
        )]
        let (table, est, edge) = step.expect("candidate exists");
        order.push(table);
        edges.push(edge);
        estimates.push(est);
        current_est = est;
    }

    JoinOrder {
        order,
        edges,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ej(lt: usize, lc: usize, rt: usize, rc: usize) -> EquiJoin {
        EquiJoin {
            left_table: lt,
            left_column: lc,
            right_table: rt,
            right_column: rc,
        }
    }

    #[test]
    fn team_detected_for_common_key_star() {
        // t0.k = t1.k, t0.k = t2.k, t0.k = t3.k
        let joins = vec![ej(0, 0, 1, 0), ej(0, 0, 2, 2), ej(0, 0, 3, 1)];
        let team = detect_join_team(4, &joins).unwrap();
        assert_eq!(team.len(), 4);
        assert_eq!(team[0], (0, 0));
        assert_eq!(team[2], (2, 2));
    }

    #[test]
    fn team_rejected_when_keys_differ() {
        // t0 joins t1 on one column and t2 on another -> no team.
        let joins = vec![ej(0, 0, 1, 0), ej(0, 1, 2, 0)];
        assert!(detect_join_team(3, &joins).is_none());
        // A single binary join is not worth a team.
        assert!(detect_join_team(2, &[ej(0, 0, 1, 0)]).is_none());
        // Chain on a shared key is a team (customer-orders-lineitem style is
        // NOT: orders joins customer on custkey and lineitem on orderkey).
        let chain_two_keys = vec![ej(0, 0, 1, 1), ej(1, 2, 2, 0)];
        assert!(detect_join_team(3, &chain_two_keys).is_none());
    }

    #[test]
    fn greedy_prefers_small_intermediates() {
        // Three tables: t0 huge, t1 and t2 small; joins t0-t1 and t0-t2.
        let rows = vec![1_000_000, 1_000, 500];
        let joins = vec![ej(0, 0, 1, 0), ej(0, 1, 2, 0)];
        // Simple estimator: output = max of the two inputs.
        let order = greedy_order(&rows, &joins, &|cur, cand, _| cur.max(rows[cand]));
        // It should start with the small pair reachable through a join edge.
        assert_eq!(order.order.len(), 3);
        assert_eq!(order.edges.len(), 2);
        assert!(order.edges.iter().all(|e| e.is_some()));
        // All three estimates populated.
        assert_eq!(order.estimates.len(), 3);
    }

    #[test]
    fn single_table_is_trivial() {
        let order = greedy_order(&[42], &[], &|_, _, _| 0);
        assert_eq!(order.order, vec![0]);
        assert!(order.edges.is_empty());
        assert_eq!(order.estimates, vec![42]);
    }

    #[test]
    fn cross_product_used_as_last_resort() {
        let rows = vec![10, 20];
        let order = greedy_order(&rows, &[], &|_, _, _| 0);
        assert_eq!(order.order.len(), 2);
        assert_eq!(order.edges, vec![None]);
        assert_eq!(order.estimates[1], 200);
    }
}
