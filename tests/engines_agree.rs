//! Property tests: the §6 spec-literal baseline, the one-shot production
//! entry point (`evaluate`), and a *reused* `PreparedQuery` all compute
//! the same reduced, deduplicated, selected binding sets on random graphs
//! and random patterns.

use proptest::prelude::*;

mod common;
use common::{chain_pattern, quantified_pattern, union_pattern};

use gpml_suite::core::ast::*;
use gpml_suite::core::binding::MatchRow;
use gpml_suite::core::eval::{evaluate, EvalOptions, MatchIso, MatchMode};
use gpml_suite::core::plan::prepare;
use gpml_suite::core::{baseline, GraphPattern};
use gpml_suite::datagen::small_mixed;
use property_graph::PropertyGraph;

fn opts() -> EvalOptions {
    EvalOptions {
        max_matches: 200_000,
        // `GPML_SEMIJOIN=off` flips the whole suite to unfiltered
        // execution — CI runs the suite a second time that way as a
        // differential check on the semi-join pushdown.
        semi_join: std::env::var("GPML_SEMIJOIN").as_deref() != Ok("off"),
        // `GPML_FLAT=off` flips the whole suite onto the legacy
        // pointer-walking matcher — CI runs the suite that way as a
        // differential check on the flat transition-array interpreter.
        flat: std::env::var("GPML_FLAT").as_deref() != Ok("off"),
        ..EvalOptions::default()
    }
}

/// The cost-based optimizations off: declaration-order stages, all-pairs
/// nested-loop merge.
fn declaration_order(base: &EvalOptions) -> EvalOptions {
    EvalOptions {
        reorder_stages: false,
        hash_join: false,
        ..base.clone()
    }
}

fn sorted(ms: gpml_suite::core::MatchSet) -> Vec<MatchRow> {
    let mut rows = ms.rows;
    rows.sort();
    rows
}

fn check_agreement(g: &PropertyGraph, pattern: &GraphPattern) {
    let a = evaluate(g, pattern, &opts());
    let b = baseline::evaluate(g, pattern, &opts());

    // Three-way: a PreparedQuery executed twice must (a) reject exactly
    // when one-shot evaluation rejects statically, (b) agree with the
    // one-shot result, and (c) be unaffected by its own reuse.
    match prepare(pattern, &opts()) {
        Ok(prepared) => {
            let first = prepared.execute(g);
            let second = prepared.execute(g);
            match (&first, &second) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(
                        x, y,
                        "re-executing a PreparedQuery changed its result on {pattern}"
                    )
                }
                (Err(_), Err(_)) => {}
                _ => panic!("PreparedQuery reuse changed success on {pattern}"),
            }
            match (&a, &first) {
                (Ok(x), Ok(y)) => assert_eq!(
                    sorted(x.clone()),
                    sorted(y.clone()),
                    "one-shot evaluate and PreparedQuery disagree on {pattern}"
                ),
                (Err(_), Err(_)) => {}
                _ => panic!("one-shot evaluate and PreparedQuery split on {pattern}"),
            }
        }
        Err(_) => assert!(
            a.is_err(),
            "prepare rejected what evaluate accepted: {pattern}"
        ),
    }

    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(
                sorted(x),
                sorted(y),
                "engines disagree on {pattern} over {} nodes/{} edges",
                g.node_count(),
                g.edge_count()
            );
        }
        // Static rejections must agree; resource limits may differ.
        (Err(ea), Err(_eb)) => {
            let _ = ea;
        }
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // The baseline may exhaust its rigid-pattern budget where the
            // engine succeeds; that is the one tolerated asymmetry.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided failure on {pattern}: {e}"
            );
        }
    }
}

/// One `PreparedQuery`, many graphs: executions must be independent (no
/// state leaks between graphs) and each must match a fresh evaluation.
#[test]
fn prepared_query_is_independent_across_graphs() {
    // (s)-[e]->(m)-[f]->(t): sensitive to topology, joins included.
    let pattern = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    let prepared = prepare(&pattern, &opts()).unwrap();
    let graphs: Vec<PropertyGraph> = (0..6).map(|s| small_mixed(s, 5, 8)).collect();

    // Interleave executions across all graphs, twice over, and check each
    // against a fresh one-shot evaluation of the same pattern.
    let expected: Vec<_> = graphs
        .iter()
        .map(|g| sorted(evaluate(g, &pattern, &opts()).unwrap()))
        .collect();
    for round in 0..2 {
        for (g, want) in graphs.iter().zip(&expected) {
            let got = sorted(prepared.execute(g).unwrap());
            assert_eq!(&got, want, "round {round}: prepared execution diverged");
        }
    }
}

/// The GQL host's prepared statements reuse one plan across catalogs.
#[test]
fn gql_prepared_statement_reuses_across_graphs() {
    use gpml_suite::gql::Session;
    let mut session = Session::new();
    session.register("small", gpml_suite::datagen::chain(2));
    session.register("big", gpml_suite::datagen::chain(6));
    let q = session
        .prepare("MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS o ORDER BY o")
        .unwrap();
    let small = session.execute_prepared("small", &q).unwrap();
    let big = session.execute_prepared("big", &q).unwrap();
    assert_eq!(small.len(), 2);
    assert_eq!(big.len(), 6);
    // Replaying against the first graph after the second: unchanged.
    assert_eq!(session.execute_prepared("small", &q).unwrap(), small);
}

/// Compares default execution (reordering + hash joins, the engine
/// default) against the declaration-order nested-loop baseline under one
/// (mode, isomorphism) combination: identical acceptance, identical row
/// sets.
fn check_cost_based_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    mode: MatchMode,
    iso: MatchIso,
) {
    let optimized = EvalOptions {
        mode,
        isomorphism: iso,
        ..opts()
    };
    assert!(optimized.reorder_stages && optimized.hash_join);
    let a = evaluate(g, pattern, &optimized);
    let b = evaluate(g, pattern, &declaration_order(&optimized));
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(
            sorted(x),
            sorted(y),
            "cost-based and declaration-order execution disagree on {pattern} \
             (mode {mode:?}, iso {iso:?})"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // Stage reordering may move a resource-limit failure across
            // the success boundary (a skipped stage never hits its
            // limit); static rejections must agree.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided static failure on {pattern}: {e}"
            );
        }
    }
}

/// Compares parallel execution (`threads >= 2`) against the sequential
/// path (`threads = 1`) under one (mode, isomorphism) combination. The
/// contract is stricter than set equality: the *same rows in the same
/// order* (partition results are spliced deterministically and stages
/// merge in the same cost order), so plain `assert_eq!` on the result.
fn check_parallel_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let sequential = EvalOptions {
        threads: 1,
        mode,
        isomorphism: iso,
        ..opts()
    };
    let parallel = EvalOptions {
        threads,
        ..sequential.clone()
    };
    let a = evaluate(g, pattern, &sequential);
    let b = evaluate(g, pattern, &parallel);
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(
            x, y,
            "parallel (threads={threads}) diverged from sequential on {pattern} \
             (mode {mode:?}, iso {iso:?})"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // Frontier limits are enforced per partition, so the success
            // boundary of resource-limited searches may shift; static
            // rejections must agree exactly.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided static failure on {pattern}: {e}"
            );
        }
    }
}

/// Compares semi-join-filtered execution (the engine default) against
/// the same options with only `semi_join` off, under one
/// (threads, mode, isomorphism) combination. The contract is stricter
/// than set equality: a semi-join filter may only remove bindings the
/// join was about to discard, and the survivors keep their relative
/// order, so the full `MatchSet` — rows *and* order — must be
/// bit-for-bit identical.
fn check_semi_join_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let filtered = EvalOptions {
        threads,
        mode,
        isomorphism: iso,
        semi_join: true,
        ..opts()
    };
    let unfiltered = EvalOptions {
        semi_join: false,
        ..filtered.clone()
    };
    let a = evaluate(g, pattern, &filtered);
    let b = evaluate(g, pattern, &unfiltered);
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(
            x, y,
            "semi-join pushdown changed the result on {pattern} \
             (threads {threads}, mode {mode:?}, iso {iso:?})"
        ),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(e)) | (Err(e), Ok(_)) => {
            // Filters shrink raw per-stage binding counts, so the
            // filtered side may stay under a resource limit the
            // unfiltered side hits; static rejections must agree.
            assert!(
                matches!(e, gpml_suite::core::Error::LimitExceeded { .. }),
                "one-sided static failure on {pattern}: {e}"
            );
        }
    }
}

/// Compares the flat transition-array interpreter (the engine default)
/// against the legacy pointer-walking matcher with only `flat` off,
/// under one (threads, mode, isomorphism, semi-join) combination. The
/// contract is the strictest in this suite: the flat interpreter is a
/// different encoding of the *same* search, so the full `MatchSet` —
/// rows *and* order — must be bit-for-bit identical, and resource-limit
/// failures must land on the same side (same traversal, same counts).
fn check_flat_agreement(
    g: &PropertyGraph,
    pattern: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
    semi_join: bool,
) {
    let flat_on = EvalOptions {
        threads,
        mode,
        isomorphism: iso,
        semi_join,
        flat: true,
        ..opts()
    };
    let flat_off = EvalOptions {
        flat: false,
        ..flat_on.clone()
    };
    let a = evaluate(g, pattern, &flat_on);
    let b = evaluate(g, pattern, &flat_off);
    match (a, b) {
        (Ok(x), Ok(y)) => assert_eq!(
            x, y,
            "flat interpreter diverged from the legacy matcher on {pattern} \
             (threads {threads}, mode {mode:?}, iso {iso:?}, semi_join {semi_join})"
        ),
        (Err(ea), Err(eb)) => assert_eq!(
            ea.to_string(),
            eb.to_string(),
            "flat and legacy failed differently on {pattern}"
        ),
        (a, b) => panic!(
            "flat/legacy success split on {pattern} (threads {threads}, mode {mode:?}, \
             iso {iso:?}, semi_join {semi_join}): {:?} vs {:?}",
            a.map(|r| r.len()),
            b.map(|r| r.len())
        ),
    }
}

/// Round-trips every stage program of a prepared plan through the binary
/// codec and checks (a) structural equality of the decoded programs and
/// (b) bit-for-bit identical execution after the plan adopts them — the
/// persistence path a `--plan-cache-file` warm start takes.
fn check_serialized_plan_agreement(g: &PropertyGraph, pattern: &GraphPattern) {
    use gpml_suite::core::FlatProgram;
    let Ok(mut prepared) = prepare(pattern, &opts()) else {
        return; // static rejections have nothing to serialize
    };
    let want = prepared.execute(g);
    let decoded: Vec<FlatProgram> = prepared
        .plan()
        .stage_programs()
        .iter()
        .map(|p| {
            let d = FlatProgram::from_bytes(&p.to_bytes()).expect("round-trip decodes");
            assert_eq!(&d, *p, "decode(encode(p)) is not structural identity");
            d
        })
        .collect();
    prepared
        .adopt_stage_programs(decoded)
        .expect("round-tripped programs match their own plan");
    let got = prepared.execute(g);
    match (want, got) {
        (Ok(x), Ok(y)) => assert_eq!(x, y, "deserialized plan diverged on {pattern}"),
        (Err(ea), Err(eb)) => assert_eq!(ea.to_string(), eb.to_string()),
        (a, b) => panic!(
            "deserialized plan success split on {pattern}: {:?} vs {:?}",
            a.map(|r| r.len()),
            b.map(|r| r.len())
        ),
    }
}

/// An early stage that matches nothing drains the join before later
/// stages run. With the pushdown on, the executor then derives an
/// *empty* key set for the next stage — the regression guarded here is
/// that this early exit stays clean (no panic, no rows, no publishing
/// into finished slots) on the sequential path and every parallel path.
#[test]
fn semi_join_filters_survive_early_exit_on_an_empty_stage() {
    // (x:Missing)-[e]->(m), (m)-[f]->(t): nothing is labeled Missing.
    let gp = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("x").with_label(LabelExpr::label("Missing"))),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for threads in [1usize, 2, 4] {
            let options = EvalOptions { threads, ..opts() };
            let r = evaluate(&g, &gp, &options).unwrap();
            assert!(
                r.rows.is_empty(),
                "empty stage produced rows (seed {seed}, threads {threads})"
            );
            check_semi_join_agreement(&g, &gp, threads, MatchMode::Gpml, MatchIso::Homomorphism);
        }
    }
}

/// Early exit by `max_matches` while filters are mid-publication: once
/// the parallel sink stops merging, no further filter slots may be
/// written, and whatever was produced (or the limit error) must match
/// the sequential filtered run bit-for-bit.
#[test]
fn semi_join_filters_respect_the_match_limit() {
    let gp = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for max_matches in [1usize, 3, 10] {
            let sequential = EvalOptions {
                threads: 1,
                max_matches,
                semi_join: true,
                ..EvalOptions::default()
            };
            let want = evaluate(&g, &gp, &sequential);
            for threads in [2usize, 4] {
                let parallel = EvalOptions {
                    threads,
                    ..sequential.clone()
                };
                let got = evaluate(&g, &gp, &parallel);
                match (&want, &got) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x, y, "limit {max_matches}, threads {threads}, seed {seed}")
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "success split under limit {max_matches} (seed {seed}, \
                         threads {threads}): {:?} vs {:?}",
                        a.as_ref().map(|r| r.len()),
                        b.as_ref().map(|r| r.len())
                    ),
                }
            }
        }
    }
}

/// Parameter bindings steer predicate selectivity, which steers the
/// semi-join decisions — estimates treat bound parameters like
/// literals. One prepared skeleton, re-bound across the selectivity
/// range, must agree filtered vs unfiltered on every binding.
#[test]
fn semi_join_agrees_with_parameterized_queries_across_bindings() {
    use gpml_suite::core::Params;

    // (s)-[e WHERE e.w >= $t]->(m), (m)-[f]->(t): $t sweeps the edge
    // weights, from everything-matches down to nothing-matches.
    let gp = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern {
                    var: Some("e".into()),
                    label: None,
                    predicate: Some(Expr::cmp(
                        CmpOp::Ge,
                        Expr::prop("e", "w"),
                        Expr::Parameter("t".into()),
                    )),
                    direction: Direction::Right,
                }),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t2")),
            ])),
        ],
        where_clause: None,
    };
    let filtered = prepare(&gp, &opts()).unwrap();
    let unfiltered = prepare(
        &gp,
        &EvalOptions {
            semi_join: false,
            ..opts()
        },
    )
    .unwrap();
    for seed in 0..4u64 {
        let g = small_mixed(seed, 6, 10);
        for t in -1i64..=5 {
            let params = Params::new().with("t", t);
            let a = filtered.execute_with(&g, &params).unwrap();
            let b = unfiltered.execute_with(&g, &params).unwrap();
            assert_eq!(a, b, "binding t={t} diverged on seed {seed}");
        }
    }
}

/// Lifts every literal inside the predicates of `gp` into a fresh `$p{i}`
/// parameter, returning the skeleton and the bindings that restore the
/// original constants. The pair (skeleton + bindings) must behave exactly
/// like the literal query.
fn lift_literals(gp: &GraphPattern) -> (GraphPattern, gpml_suite::core::Params) {
    use gpml_suite::core::Params;

    fn lift_expr(e: &Expr, params: &mut Params, counter: &mut usize) -> Expr {
        match e {
            Expr::Literal(v) => {
                let name = format!("p{counter}");
                *counter += 1;
                params.set(name.clone(), v.clone());
                Expr::Parameter(name)
            }
            Expr::Not(i) => Expr::Not(Box::new(lift_expr(i, params, counter))),
            Expr::IsNull(i, want) => Expr::IsNull(Box::new(lift_expr(i, params, counter)), *want),
            Expr::And(a, b) => Expr::And(
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            Expr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(lift_expr(a, params, counter)),
                Box::new(lift_expr(b, params, counter)),
            ),
            other => other.clone(),
        }
    }

    fn lift_path(p: &PathPattern, params: &mut Params, counter: &mut usize) -> PathPattern {
        match p {
            PathPattern::Node(n) => {
                let mut n = n.clone();
                n.predicate = n.predicate.as_ref().map(|e| lift_expr(e, params, counter));
                PathPattern::Node(n)
            }
            PathPattern::Edge(e) => {
                let mut e = e.clone();
                e.predicate = e.predicate.as_ref().map(|x| lift_expr(x, params, counter));
                PathPattern::Edge(e)
            }
            PathPattern::Concat(parts) => PathPattern::Concat(
                parts
                    .iter()
                    .map(|x| lift_path(x, params, counter))
                    .collect(),
            ),
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => PathPattern::Paren {
                restrictor: *restrictor,
                inner: Box::new(lift_path(inner, params, counter)),
                predicate: predicate.as_ref().map(|e| lift_expr(e, params, counter)),
            },
            PathPattern::Quantified { inner, quantifier } => PathPattern::Quantified {
                inner: Box::new(lift_path(inner, params, counter)),
                quantifier: *quantifier,
            },
            PathPattern::Questioned(inner) => {
                PathPattern::Questioned(Box::new(lift_path(inner, params, counter)))
            }
            PathPattern::Union(bs) => {
                PathPattern::Union(bs.iter().map(|x| lift_path(x, params, counter)).collect())
            }
            PathPattern::Alternation(bs) => {
                PathPattern::Alternation(bs.iter().map(|x| lift_path(x, params, counter)).collect())
            }
        }
    }

    let mut params = Params::new();
    let mut counter = 0usize;
    let lifted = GraphPattern {
        paths: gp
            .paths
            .iter()
            .map(|p| PathPatternExpr {
                selector: p.selector.clone(),
                restrictor: p.restrictor,
                path_var: p.path_var.clone(),
                pattern: lift_path(&p.pattern, &mut params, &mut counter),
            })
            .collect(),
        where_clause: gp
            .where_clause
            .as_ref()
            .map(|e| lift_expr(e, &mut params, &mut counter)),
    };
    (lifted, params)
}

/// A parameterized skeleton executed with bound `Params` must be
/// *bit-for-bit* identical (same rows, same order) to the same query with
/// the literals inlined: same plan shape, same cost decisions (bound
/// parameters are estimated like literals), same execution.
fn check_parameterized_agreement(
    g: &PropertyGraph,
    gp: &GraphPattern,
    threads: usize,
    mode: MatchMode,
    iso: MatchIso,
) {
    let options = EvalOptions {
        threads,
        mode,
        isomorphism: iso,
        ..opts()
    };
    let (skeleton, params) = lift_literals(gp);
    let literal = prepare(gp, &options);
    let parameterized = prepare(&skeleton, &options);
    match (literal, parameterized) {
        (Ok(lq), Ok(pq)) => match (lq.execute(g), pq.execute_with(g, &params)) {
            (Ok(a), Ok(b)) => assert_eq!(
                a, b,
                "bound params diverged from inlined literals on {gp} \
                 (threads {threads}, mode {mode:?}, iso {iso:?}, params {params})"
            ),
            (Err(_), Err(_)) => {}
            (a, b) => panic!(
                "literal/parameterized success split on {gp}: {:?} vs {:?}",
                a.map(|r| r.len()),
                b.map(|r| r.len())
            ),
        },
        (Err(_), Err(_)) => {}
        _ => panic!("prepare acceptance split on {gp}"),
    }
}

/// `threads = 1` must stay on the sequential executor and behave exactly
/// like the pre-parallelism engine; `threads = 0` (auto) must agree too.
#[test]
fn threads_one_is_the_sequential_regression_guard() {
    let pattern = GraphPattern {
        paths: vec![
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("s")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                PathPattern::Node(NodePattern::var("m")),
            ])),
            PathPatternExpr::plain(PathPattern::concat(vec![
                PathPattern::Node(NodePattern::var("m")),
                PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("f")),
                PathPattern::Node(NodePattern::var("t")),
            ])),
        ],
        where_clause: None,
    };
    for seed in 0..8u64 {
        let g = small_mixed(seed, 6, 10);
        let default = evaluate(&g, &pattern, &opts()).unwrap();
        let one = evaluate(
            &g,
            &pattern,
            &EvalOptions {
                threads: 1,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(
            one, default,
            "threads=1 diverged from default on seed {seed}"
        );
    }
}

/// The property values anchored-start tests store and probe: the values
/// `sql_eq` equates across types (`Int 2` / `Float 2.0`, `-0.0` / `0`),
/// values that equal nothing (`NaN`, `Null`), and other types with the
/// same spelling (`Str "2"`, `Bool`).
fn anchor_values() -> Vec<property_graph::Value> {
    use property_graph::Value;
    vec![
        Value::Int(2),
        Value::Float(2.0),
        Value::Float(-0.0),
        Value::Int(0),
        Value::Float(f64::NAN),
        Value::Null,
        Value::Bool(true),
        Value::Bool(false),
        Value::str("2"),
    ]
}

/// A random graph whose nodes carry a mixed-type `k` drawn from
/// [`anchor_values`] (a `Null` draw leaves `k` absent) and a small
/// integer `j`: 64 nodes, so four worker threads cut the start set into
/// several chunks.
fn anchor_graph(seed: u64) -> PropertyGraph {
    use property_graph::{Endpoints, Value};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let values = anchor_values();
    let mut g = PropertyGraph::new();
    for i in 0..64 {
        let label = if rng.gen_bool(0.5) { "A" } else { "B" };
        let k = values[rng.gen_range(0..values.len())].clone();
        let j = Value::Int(rng.gen_range(0..3));
        let props = [("k", k), ("j", j)]
            .into_iter()
            .filter(|(_, v)| !v.is_null());
        g.add_node(&format!("n{i}"), [label], props);
    }
    for i in 0..96 {
        let u = property_graph::NodeId(rng.gen_range(0..64));
        let v = property_graph::NodeId(rng.gen_range(0..64));
        let ep = if rng.gen_bool(0.7) {
            Endpoints::directed(u, v)
        } else {
            Endpoints::undirected(u, v)
        };
        let label = if rng.gen_bool(0.6) { "T" } else { "U" };
        g.add_edge(&format!("e{i}"), ep, [label], []);
    }
    g
}

/// Stage patterns whose leading node is (or deliberately is not)
/// anchored, for one probe `value`, each named and flagged with whether
/// it binds `$p` (to `value`). With `inline`, `$p` is replaced by the
/// literal — the form the parameterless baseline evaluates.
fn anchor_patterns(
    value: &property_graph::Value,
    inline: bool,
) -> Vec<(&'static str, GraphPattern, bool)> {
    let lit = || Expr::Literal(value.clone());
    let param = || {
        if inline {
            lit()
        } else {
            Expr::Parameter("p".into())
        }
    };
    let k = |v: &str| Expr::prop(v, "k");
    let eq = |a: Expr, b: Expr| Expr::cmp(CmpOp::Eq, a, b);
    let node_where =
        |v: &str, pred: Expr| PathPattern::Node(NodePattern::var(v).with_predicate(pred));
    let node = |v: &str| PathPattern::Node(NodePattern::var(v));
    let edge = |v: &str, d: Direction| PathPattern::Edge(EdgePattern::any(d).with_var(v));
    let hop = |first: PathPattern, d: Direction| {
        PathPattern::concat(vec![first, edge("e", d), node("y")])
    };
    let single = |p: PathPattern| GraphPattern::single(p);
    let j_is_one = || eq(Expr::prop("x", "j"), Expr::lit(1i64));
    vec![
        (
            "literal",
            single(hop(node_where("x", eq(k("x"), lit())), Direction::Right)),
            false,
        ),
        (
            "literal, reversed",
            single(hop(node_where("x", eq(lit(), k("x"))), Direction::Left)),
            false,
        ),
        (
            "parameter",
            single(hop(node_where("x", eq(k("x"), param())), Direction::Right)),
            true,
        ),
        (
            "parameter, reversed",
            single(hop(
                node_where("x", eq(param(), k("x"))),
                Direction::Undirected,
            )),
            true,
        ),
        (
            "under AND",
            single(hop(
                node_where(
                    "x",
                    Expr::And(
                        Box::new(Expr::cmp(CmpOp::Ge, Expr::prop("x", "j"), Expr::lit(1i64))),
                        Box::new(eq(k("x"), param())),
                    ),
                ),
                Direction::Any,
            )),
            true,
        ),
        (
            "under OR",
            single(hop(
                node_where(
                    "x",
                    Expr::Or(Box::new(eq(k("x"), lit())), Box::new(j_is_one())),
                ),
                Direction::Right,
            )),
            false,
        ),
        (
            "under NOT",
            single(hop(
                node_where("x", Expr::Not(Box::new(eq(k("x"), lit())))),
                Direction::Right,
            )),
            false,
        ),
        (
            "leading quantified",
            single(PathPattern::concat(vec![
                PathPattern::Quantified {
                    inner: Box::new(PathPattern::Paren {
                        restrictor: None,
                        inner: Box::new(hop(node_where("x", eq(k("x"), lit())), Direction::Right)),
                        predicate: None,
                    }),
                    quantifier: Quantifier::range(1, Some(2)),
                },
                node("z"),
            ])),
            false,
        ),
        (
            "leading ?",
            single(PathPattern::concat(vec![
                PathPattern::Questioned(Box::new(PathPattern::Paren {
                    restrictor: None,
                    inner: Box::new(hop(node_where("x", eq(k("x"), param())), Direction::Right)),
                    predicate: None,
                })),
                node("z"),
            ])),
            true,
        ),
        (
            "union, every branch anchored",
            single(PathPattern::Union(vec![
                hop(node_where("x", eq(k("x"), lit())), Direction::Right),
                hop(node_where("x", j_is_one()), Direction::Left),
            ])),
            false,
        ),
        (
            "multiset alternation, one branch unanchored",
            single(PathPattern::Alternation(vec![
                hop(node_where("x", eq(k("x"), param())), Direction::Right),
                hop(node("x"), Direction::Left),
            ])),
            true,
        ),
        (
            "ANY SHORTEST",
            GraphPattern {
                paths: vec![PathPatternExpr {
                    selector: Some(Selector::AnyShortest),
                    restrictor: None,
                    path_var: None,
                    pattern: PathPattern::concat(vec![
                        node_where("x", eq(k("x"), param())),
                        PathPattern::Quantified {
                            inner: Box::new(edge("e", Direction::Right)),
                            quantifier: Quantifier::range(1, Some(3)),
                        },
                        node("y"),
                    ]),
                }],
                where_clause: None,
            },
            true,
        ),
        (
            "two anchored stages joined",
            GraphPattern {
                paths: vec![
                    PathPatternExpr::plain(hop(
                        node_where("x", eq(k("x"), lit())),
                        Direction::Right,
                    )),
                    PathPatternExpr::plain(PathPattern::concat(vec![
                        node_where("w", eq(param(), Expr::prop("w", "k"))),
                        edge("f", Direction::Right),
                        node("y"),
                    ])),
                ],
                where_clause: None,
            },
            true,
        ),
    ]
}

/// Wraps every node prefilter `p` as `NOT NOT p`: the same three-valued
/// filter at the same estimated selectivity, but no longer a top-level
/// conjunct, so the stage scans every node instead of anchoring.
fn without_anchors(gp: &GraphPattern) -> GraphPattern {
    fn walk(p: &PathPattern) -> PathPattern {
        match p {
            PathPattern::Node(n) => {
                let mut n = n.clone();
                n.predicate = n
                    .predicate
                    .take()
                    .map(|e| Expr::Not(Box::new(Expr::Not(Box::new(e)))));
                PathPattern::Node(n)
            }
            PathPattern::Edge(_) => p.clone(),
            PathPattern::Concat(parts) => PathPattern::Concat(parts.iter().map(walk).collect()),
            PathPattern::Paren {
                restrictor,
                inner,
                predicate,
            } => PathPattern::Paren {
                restrictor: *restrictor,
                inner: Box::new(walk(inner)),
                predicate: predicate.clone(),
            },
            PathPattern::Quantified { inner, quantifier } => PathPattern::Quantified {
                inner: Box::new(walk(inner)),
                quantifier: *quantifier,
            },
            PathPattern::Questioned(inner) => PathPattern::Questioned(Box::new(walk(inner))),
            PathPattern::Union(bs) => PathPattern::Union(bs.iter().map(walk).collect()),
            PathPattern::Alternation(bs) => PathPattern::Alternation(bs.iter().map(walk).collect()),
        }
    }
    GraphPattern {
        paths: gp
            .paths
            .iter()
            .map(|p| PathPatternExpr {
                pattern: walk(&p.pattern),
                ..p.clone()
            })
            .collect(),
        where_clause: gp.where_clause.clone(),
    }
}

/// Anchored starts — stages seeded from the node postings instead of
/// every node — against the §6 baseline (which always scans) and against
/// the same query with its anchors disabled (bit-for-bit: rows *and*
/// order), across mixed-type values, literal and `$param` anchors in both
/// operand orders, anchors under AND and non-anchors under OR/NOT,
/// leading quantified / `?` / union elements, 1, 2 and 4 threads, and
/// add / set / delete mutations between rounds of queries (the postings
/// live in the statistics catalog, maintained on add and rebuilt after
/// the others).
#[test]
fn anchored_starts_agree_with_the_baseline() {
    use gpml_suite::core::Params;
    use property_graph::{ElementId, Endpoints, NodeId, Value};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let values: Vec<Value> = anchor_values();
    let mut nonempty = 0;
    for seed in 0..2u64 {
        let mut g = anchor_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C);
        for round in 0..3 {
            for value in &values {
                let inlined = anchor_patterns(value, true);
                for ((what, gp, needs_param), (_, literal_gp, _)) in
                    anchor_patterns(value, false).into_iter().zip(inlined)
                {
                    let params = if needs_param {
                        Params::new().with("p", value.clone())
                    } else {
                        Params::new()
                    };
                    let ctx = format!("{what} [{value:?}] round {round} seed {seed}: {gp}");
                    let want = baseline::evaluate(&g, &literal_gp, &opts())
                        .unwrap_or_else(|e| panic!("baseline failed on {ctx}: {e}"));
                    nonempty += usize::from(!want.is_empty());
                    let scan_gp = without_anchors(&gp);
                    for threads in [1, 2, 4] {
                        let o = EvalOptions { threads, ..opts() };
                        let got = prepare(&gp, &o)
                            .and_then(|q| q.execute_with(&g, &params))
                            .unwrap_or_else(|e| panic!("{ctx} (threads {threads}): {e}"));
                        assert_eq!(
                            sorted(got.clone()),
                            sorted(want.clone()),
                            "anchored run disagrees with the baseline on {ctx} (threads {threads})"
                        );
                        let scanned = prepare(&scan_gp, &o)
                            .and_then(|q| q.execute_with(&g, &params))
                            .unwrap();
                        if gp.paths.len() == 1 {
                            assert_eq!(
                                got, scanned,
                                "anchored != scan on {ctx} (threads {threads})"
                            );
                        } else {
                            assert_eq!(sorted(got), sorted(scanned), "{ctx} (threads {threads})");
                        }
                    }
                }
            }
            // Mutate between rounds: an add (maintained in place), then a
            // property write and deletions (which drop the catalog).
            let n = g.node_count();
            let fresh = g.add_node(
                &format!("r{seed}_{round}"),
                ["A"],
                [("k", values[rng.gen_range(0..3usize)].clone())],
            );
            g.add_edge(
                &format!("re{seed}_{round}"),
                Endpoints::directed(fresh, NodeId(rng.gen_range(0..n as u32))),
                ["T"],
                [],
            );
            g.verify_stats().unwrap();
            let target = NodeId(rng.gen_range(0..n as u32));
            g.set_property(
                ElementId::Node(target),
                "k",
                values[rng.gen_range(0..values.len())].clone(),
            );
            g.remove_element(ElementId::Edge(property_graph::EdgeId(0)))
                .unwrap();
            let lonely = g.add_node(&format!("l{seed}_{round}"), ["B"], [("k", Value::Int(2))]);
            g.remove_element(ElementId::Node(lonely)).unwrap();
            g.validate().unwrap();
        }
    }
    assert!(
        nonempty > 100,
        "too few non-empty answers ({nonempty}) to compare"
    );
}

/// An anchored lookup's work follows its answer, not the graph: a
/// prepared `(x:Account WHERE x.owner = $owner)-[:isLocatedIn]->(c)`
/// dispatches the same (small) number of flat-IR instructions on a
/// 1k-account and a 10k-account network, sequentially and on the
/// parallel path. A silent fallback to scanning every start node would
/// dispatch several per node.
#[test]
fn anchored_lookup_work_is_independent_of_graph_size() {
    use gpml_suite::core::eval::ExecProfile;
    use gpml_suite::core::Params;
    use gpml_suite::datagen::{transfer_network, TransferNetworkConfig};

    let gp = GraphPattern::single(PathPattern::concat(vec![
        PathPattern::Node(
            NodePattern::var("x")
                .with_label(LabelExpr::label("Account"))
                .with_predicate(Expr::cmp(
                    CmpOp::Eq,
                    Expr::prop("x", "owner"),
                    Expr::Parameter("owner".into()),
                )),
        ),
        PathPattern::Edge(
            EdgePattern::any(Direction::Right).with_label(LabelExpr::label("isLocatedIn")),
        ),
        PathPattern::Node(NodePattern::var("c")),
    ]));
    let instrs = |gp: &GraphPattern, g: &PropertyGraph, threads: usize| {
        let o = EvalOptions {
            threads,
            flat: true,
            ..opts()
        };
        let q = prepare(gp, &o).unwrap();
        let profile = ExecProfile::new(q.plan().stage_count());
        let params = Params::new().with("owner", "owner7");
        let rows = q.execute_with_profile(g, &params, &profile).unwrap();
        assert_eq!(rows.len(), 1, "one account, one city");
        profile.totals().3
    };
    let network = |accounts: usize| {
        transfer_network(TransferNetworkConfig {
            accounts,
            transfers: accounts,
            ..TransferNetworkConfig::default()
        })
    };
    let (small, large) = (network(1_000), network(10_000));
    let base = instrs(&gp, &small, 1);
    assert!(base < 64, "{base} instructions for a one-row lookup");
    for threads in [1, 2] {
        assert_eq!(instrs(&gp, &small, threads), base, "threads {threads}");
        assert_eq!(instrs(&gp, &large, threads), base, "threads {threads}");
    }
    // The same lookup without its anchor scans every start node.
    assert!(instrs(&without_anchors(&gp), &small, 1) > 1_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chains_agree(seed in 0u64..500, p in chain_pattern()) {
        let g = small_mixed(seed, 5, 8);
        check_agreement(&g, &GraphPattern::single(p));
    }

    #[test]
    fn quantified_patterns_agree(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: None, pattern }],
            where_clause: None,
        };
        check_agreement(&g, &gp);
    }

    #[test]
    fn unions_agree(seed in 0u64..500, p in union_pattern()) {
        let g = small_mixed(seed, 5, 7);
        check_agreement(&g, &GraphPattern::single(p));
    }

    #[test]
    fn multi_pattern_joins_agree(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_agreement(&g, &gp);
    }

    #[test]
    fn cost_based_execution_agrees_across_modes(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        p3 in chain_pattern(),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
                PathPatternExpr::plain(p3),
            ],
            where_clause: None,
        };
        check_cost_based_agreement(&g, &gp, mode, iso);
    }

    #[test]
    fn cost_based_quantified_patterns_agree(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        p2 in chain_pattern(),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern },
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_cost_based_agreement(&g, &gp, MatchMode::Gpml, iso);
    }

    #[test]
    fn parallel_execution_is_bit_for_bit_sequential(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![2usize, 4, 8]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_parallel_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parallel_quantified_patterns_are_bit_for_bit_sequential(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![2usize, 4, 8]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern }],
            where_clause: None,
        };
        check_parallel_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn semi_join_filtered_execution_is_bit_for_bit_unfiltered(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_semi_join_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parameterized_chains_match_inlined_literals(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(p1), PathPatternExpr::plain(p2)],
            where_clause: None,
        };
        check_parameterized_agreement(&g, &gp, threads, mode, iso);
    }

    #[test]
    fn parameterized_quantified_patterns_match_inlined_literals(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![1usize, 2]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: None, pattern }],
            where_clause: None,
        };
        check_parameterized_agreement(&g, &gp, threads, MatchMode::Gpml, iso);
    }

    #[test]
    fn flat_interpreter_is_bit_for_bit_legacy(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        mode in proptest::sample::select(vec![
            MatchMode::Gpml,
            MatchMode::EndpointOnly,
            MatchMode::GsqlDefault,
        ]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
        semi_join in proptest::bool::ANY,
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![
                PathPatternExpr::plain(p1),
                PathPatternExpr::plain(p2),
            ],
            where_clause: None,
        };
        check_flat_agreement(&g, &gp, threads, mode, iso, semi_join);
    }

    #[test]
    fn flat_interpreter_quantified_is_bit_for_bit_legacy(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
        threads in proptest::sample::select(vec![1usize, 2, 4]),
        iso in proptest::sample::select(vec![
            MatchIso::Homomorphism,
            MatchIso::EdgeIsomorphic,
        ]),
        semi_join in proptest::bool::ANY,
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: Some("p".into()), pattern }],
            where_clause: None,
        };
        check_flat_agreement(&g, &gp, threads, MatchMode::Gpml, iso, semi_join);
    }

    #[test]
    fn serialized_plans_execute_identically(
        seed in 0u64..500,
        p1 in chain_pattern(),
        p2 in chain_pattern(),
    ) {
        let g = small_mixed(seed, 5, 8);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr::plain(p1), PathPatternExpr::plain(p2)],
            where_clause: None,
        };
        check_serialized_plan_agreement(&g, &gp);
    }

    #[test]
    fn serialized_quantified_plans_execute_identically(
        seed in 0u64..500,
        (restrictor, selector, pattern) in quantified_pattern(),
    ) {
        let g = small_mixed(seed, 4, 6);
        let gp = GraphPattern {
            paths: vec![PathPatternExpr { selector, restrictor, path_var: None, pattern }],
            where_clause: None,
        };
        check_serialized_plan_agreement(&g, &gp);
    }

    #[test]
    fn question_mark_agrees(seed in 0u64..500, n in 0usize..5) {
        let g = small_mixed(seed, 5, 8);
        // (x) [-[e]->(y)]? with varying start labels.
        let labels = ["A", "B", "T", "U", "A"];
        let pattern = PathPattern::concat(vec![
            PathPattern::Node(
                NodePattern::var("x").with_label(LabelExpr::label(labels[n])),
            ),
            PathPattern::Questioned(Box::new(
                PathPattern::concat(vec![
                    PathPattern::Edge(EdgePattern::any(Direction::Right).with_var("e")),
                    PathPattern::Node(NodePattern::var("y")),
                ])
                .paren(),
            )),
        ]);
        check_agreement(&g, &GraphPattern::single(pattern));
    }
}
