//! Anchored starts: seeding a stage's search from the graph's node
//! postings instead of every node.
//!
//! Most GPML patterns begin at a node with an element-level equality
//! prefilter, `(x:Account WHERE x.owner = $owner)`. Only nodes whose
//! `owner` equals the bound value can start a match, so the stage looks
//! them up in [`GraphStats::nodes_with_value`] and seeds the search from
//! that list. The rule, applied to the stage's normalized pattern:
//!
//! * the **leftmost node** of the pattern — the first factor of a
//!   concatenation, looking through unquantified `[...]` groups — carries
//!   a `WHERE` with a top-level conjunct `v.k = <literal | $param>` (either
//!   operand order) on its own variable `v`. Conjuncts under `OR`/`NOT`
//!   never count, and neither does a leading element that is quantified
//!   or `?` (it may match zero times);
//! * the whole `WHERE` mentions no variable other than `v`, so the matcher
//!   evaluates it at the start node instead of deferring it;
//! * a leading union `|` / `|+|` is anchored only if every branch is; its
//!   candidates are the branches' lists merged in id order.
//!
//! The anchored list is the scan's list with non-candidates removed, in
//! the same order, and a non-candidate start fails its first node test
//! without touching any shared search state. The postings are a superset
//! filter (see [`GraphStats::nodes_with_value`]) and the prefilter still
//! decides, so results are bit-for-bit the scan's. A `$param` without a
//! binding falls back to the scan, leaving error behaviour to the
//! matcher.
//!
//! [`GraphStats::nodes_with_value`]: property_graph::GraphStats::nodes_with_value

use std::borrow::Cow;
use std::fmt;

use property_graph::{NodeId, PropertyGraph};

use crate::ast::{CmpOp, Expr, NodePattern, PathPattern};
use crate::params::Params;

/// One `var.key = operand` conjunct; `operand` is an [`Expr::Literal`] or
/// an [`Expr::Parameter`].
#[derive(Clone, Debug)]
struct Term {
    var: String,
    key: String,
    operand: Expr,
}

/// A stage's start-set restriction: the union of one posting lookup per
/// leading branch (a single term outside unions).
#[derive(Clone, Debug)]
pub(crate) struct Anchor {
    terms: Vec<Term>,
}

impl Anchor {
    /// The anchor of a normalized stage pattern, if its leading node has
    /// one (see the module docs for the rule).
    pub(crate) fn of(pattern: &PathPattern) -> Option<Anchor> {
        let mut terms = Vec::new();
        leading_terms(pattern, &mut terms).then_some(Anchor { terms })
    }

    /// The candidate start nodes in ascending id order, or `None` when a
    /// parameter the anchor needs is unbound (the caller scans instead).
    pub(crate) fn starts<'g>(
        &self,
        graph: &'g PropertyGraph,
        params: &Params,
    ) -> Option<Cow<'g, [NodeId]>> {
        let stats = graph.stats();
        let mut lists = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            let value = match &t.operand {
                Expr::Literal(v) => v,
                Expr::Parameter(name) => params.get(name)?,
                _ => unreachable!("anchor operands are literals or parameters"),
            };
            lists.push(stats.nodes_with_value(&t.key, value));
        }
        if let [only] = lists[..] {
            return Some(Cow::Borrowed(only));
        }
        let mut merged = lists.concat();
        merged.sort_unstable();
        merged.dedup();
        Some(Cow::Owned(merged))
    }
}

impl fmt::Display for Anchor {
    /// `x.owner = $owner`, with union branches separated by ` | `.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{}.{} = {}", t.var, t.key, t.operand)?;
        }
        Ok(())
    }
}

/// Collects the anchor term of every leading node of `p` into `out`;
/// false when some leading position is not anchored.
fn leading_terms(p: &PathPattern, out: &mut Vec<Term>) -> bool {
    match p {
        PathPattern::Node(n) => node_term(n).map(|t| out.push(t)).is_some(),
        PathPattern::Concat(parts) => parts.first().is_some_and(|x| leading_terms(x, out)),
        PathPattern::Paren { inner, .. } => leading_terms(inner, out),
        PathPattern::Union(bs) | PathPattern::Alternation(bs) => {
            !bs.is_empty() && bs.iter().all(|b| leading_terms(b, out))
        }
        PathPattern::Edge(_) | PathPattern::Quantified { .. } | PathPattern::Questioned(_) => false,
    }
}

fn node_term(n: &NodePattern) -> Option<Term> {
    let var = n.var.as_deref()?;
    let pred = n.predicate.as_ref()?;
    let mut foreign = false;
    pred.visit_vars(&mut |v, _| foreign |= v != var);
    if foreign {
        return None;
    }
    conjunct_term(pred, var)
}

/// The first `var.k = literal | $param` among the top-level conjuncts of
/// `e`.
fn conjunct_term(e: &Expr, var: &str) -> Option<Term> {
    match e {
        Expr::And(a, b) => conjunct_term(a, var).or_else(|| conjunct_term(b, var)),
        Expr::Cmp(CmpOp::Eq, a, b) => {
            let (key, operand) = match (a.as_ref(), b.as_ref()) {
                (Expr::Property(v, k), o) | (o, Expr::Property(v, k)) if v == var => (k, o),
                _ => return None,
            };
            matches!(operand, Expr::Literal(_) | Expr::Parameter(_)).then(|| Term {
                var: var.to_owned(),
                key: key.clone(),
                operand: operand.clone(),
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use property_graph::Value;

    fn node_where(v: &str, pred: Expr) -> PathPattern {
        PathPattern::Node(NodePattern::var(v).with_predicate(pred))
    }

    fn eq(a: Expr, b: Expr) -> Expr {
        Expr::cmp(CmpOp::Eq, a, b)
    }

    fn chain(first: PathPattern) -> PathPattern {
        PathPattern::concat(vec![
            first,
            PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
            PathPattern::Node(NodePattern::var("y")),
        ])
    }

    fn rendered(p: &PathPattern) -> Option<String> {
        Anchor::of(p).map(|a| a.to_string())
    }

    #[test]
    fn leading_equality_conjuncts_anchor() {
        let lit = eq(Expr::prop("x", "k"), Expr::Literal(Value::Int(2)));
        assert_eq!(
            rendered(&chain(node_where("x", lit))).as_deref(),
            Some("x.k = 2")
        );
        // Reversed operands, a parameter, and a conjunct under AND.
        let rev = eq(Expr::Parameter("p".into()), Expr::prop("x", "k"));
        assert_eq!(rendered(&node_where("x", rev)).as_deref(), Some("x.k = $p"));
        let and = Expr::And(
            Box::new(Expr::cmp(
                CmpOp::Gt,
                Expr::prop("x", "j"),
                Expr::Literal(Value::Int(1)),
            )),
            Box::new(eq(Expr::prop("x", "k"), Expr::Parameter("p".into()))),
        );
        assert_eq!(rendered(&node_where("x", and)).as_deref(), Some("x.k = $p"));
    }

    #[test]
    fn non_conjuncts_and_non_leading_nodes_do_not_anchor() {
        let k1 = || eq(Expr::prop("x", "k"), Expr::Literal(Value::Int(1)));
        let or = Expr::Or(Box::new(k1()), Box::new(k1()));
        assert!(Anchor::of(&node_where("x", or)).is_none());
        assert!(Anchor::of(&node_where("x", Expr::Not(Box::new(k1())))).is_none());
        // Another variable's property, or a predicate that also mentions
        // one (the matcher would defer it past the start node).
        let other = eq(Expr::prop("y", "k"), Expr::Literal(Value::Int(1)));
        assert!(Anchor::of(&node_where("x", other)).is_none());
        let mixed = Expr::And(
            Box::new(k1()),
            Box::new(eq(Expr::prop("y", "k"), Expr::Literal(Value::Int(1)))),
        );
        assert!(Anchor::of(&node_where("x", mixed)).is_none());
        // Not an equality, or not against a constant.
        let lt = Expr::cmp(
            CmpOp::Lt,
            Expr::prop("x", "k"),
            Expr::Literal(Value::Int(1)),
        );
        assert!(Anchor::of(&node_where("x", lt)).is_none());
        let self_eq = eq(Expr::prop("x", "k"), Expr::prop("x", "j"));
        assert!(Anchor::of(&node_where("x", self_eq)).is_none());
        // Leading quantified / `?` elements may match zero times.
        let quantified = PathPattern::Quantified {
            inner: Box::new(PathPattern::Paren {
                restrictor: None,
                inner: Box::new(chain(node_where("x", k1()))),
                predicate: None,
            }),
            quantifier: Quantifier::range(1, Some(2)),
        };
        assert!(Anchor::of(&quantified).is_none());
        assert!(
            Anchor::of(&PathPattern::Questioned(Box::new(chain(node_where(
                "x",
                k1()
            )))))
            .is_none()
        );
        // A later node's predicate is not the start node's.
        let later = PathPattern::concat(vec![
            PathPattern::Node(NodePattern::var("a")),
            PathPattern::Edge(EdgePattern::any(Direction::Right)),
            node_where("x", k1()),
        ]);
        assert!(Anchor::of(&later).is_none());
    }

    #[test]
    fn unions_anchor_only_when_every_branch_does() {
        let k =
            |v: &str, n: i64| node_where(v, eq(Expr::prop(v, "k"), Expr::Literal(Value::Int(n))));
        let both = PathPattern::Union(vec![chain(k("x", 1)), chain(k("z", 2))]);
        assert_eq!(rendered(&both).as_deref(), Some("x.k = 1 | z.k = 2"));
        let alt = PathPattern::Alternation(vec![k("x", 1), k("z", 2)]);
        assert!(Anchor::of(&alt).is_some());
        let one = PathPattern::Union(vec![
            chain(k("x", 1)),
            chain(PathPattern::Node(NodePattern::var("z"))),
        ]);
        assert!(Anchor::of(&one).is_none());
    }

    #[test]
    fn starts_merge_union_branches_and_fall_back_when_unbound() {
        let mut g = PropertyGraph::new();
        for (i, k) in [1i64, 2, 1, 3, 2].iter().enumerate() {
            g.add_node(&format!("n{i}"), ["N"], [("k", Value::Int(*k))]);
        }
        let k = |v: &str, e: Expr| node_where(v, eq(Expr::prop(v, "k"), e));
        let union = PathPattern::Union(vec![
            k("x", Expr::Literal(Value::Int(2))),
            k("z", Expr::Parameter("p".into())),
        ]);
        let a = Anchor::of(&union).unwrap();
        let bound = Params::new().with("p", Value::Float(1.0));
        let got = a.starts(&g, &bound).unwrap();
        assert_eq!(&*got, [NodeId(0), NodeId(1), NodeId(2), NodeId(4)]);
        assert!(a.starts(&g, &Params::new()).is_none(), "unbound → scan");
    }
}
