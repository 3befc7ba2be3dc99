//! `paper-report`: regenerates every figure and table of *Graph Pattern
//! Matching in GQL and SQL/PGQ* (SIGMOD 2022) and prints paper-expected
//! vs. measured values side by side.
//!
//! Run with `cargo run -p gpml-bench --bin paper-report`. The same checks
//! are enforced as assertions by the integration test suite; this binary
//! is their human-readable account. The README's "Benches and the paper
//! report" section lists the EB experiments and their benches.

use gpml_bench::{run_query, run_query_with};
use gpml_core::binding::BoundValue;
use gpml_core::eval::{EvalOptions, MatchMode};
use gpml_core::MatchSet;
use gpml_datagen::fig1;
use property_graph::PropertyGraph;
use sql_pgq::{materialize_tabulation, tabulate};

fn heading(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn check(label: &str, expected: impl std::fmt::Display, got: impl std::fmt::Display) {
    let (e, g) = (expected.to_string(), got.to_string());
    let mark = if e == g { "ok " } else { "MISMATCH" };
    println!("  [{mark}] {label}: paper={e} measured={g}");
}

fn paths_sorted(g: &PropertyGraph, rs: &MatchSet, var: &str) -> Vec<String> {
    let mut out: Vec<String> = rs
        .iter()
        .filter_map(|r| r.get(var))
        .filter_map(|b| b.as_path())
        .map(|p| p.display(g).to_string())
        .collect();
    out.sort_by_key(|s| (s.len(), s.clone()));
    out
}

fn main() {
    let g = fig1();

    // -- EF1: Figure 1 element census ------------------------------------
    heading("EF1", "Figure 1 property graph");
    check("nodes", 14, g.node_count());
    check("edges", 22, g.edge_count());
    for (label, expected) in [
        ("Account", 6),
        ("Phone", 4),
        ("IP", 2),
        ("Country", 2),
        ("City", 1),
    ] {
        let got = g.nodes().filter(|n| g.node(*n).has_label(label)).count();
        check(&format!("{label} nodes"), expected, got);
    }
    for (label, expected) in [
        ("Transfer", 8),
        ("isLocatedIn", 6),
        ("hasPhone", 6),
        ("signInWithIP", 2),
    ] {
        let got = g.edges().filter(|e| g.edge(*e).has_label(label)).count();
        check(&format!("{label} edges"), expected, got);
    }

    // -- EF2: Figure 2 tabular representation -----------------------------
    heading("EF2", "Figure 2 tabular representation (round trip)");
    let db = tabulate(&g);
    check("relations", 9, db.len());
    check(
        "CityCountry relation exists (c2 only)",
        1,
        db.table("CityCountry").map_or(0, |t| t.len()),
    );
    check(
        "City never appears alone",
        "true",
        db.table("City").is_none(),
    );
    let back = materialize_tabulation(&db).expect("round trip");
    check("round-trip node count", g.node_count(), back.node_count());
    check("round-trip edge count", g.edge_count(), back.edge_count());
    println!("{}", db.table("Transfer").expect("Transfer table"));

    // -- EF3: Figure 3 node/edge/path patterns -----------------------------
    heading("EF3", "Figure 3 patterns (a)(b)(c)");
    let a = run_query(&g, "MATCH (x:Account WHERE x.isBlocked='yes')");
    check("(a) blocked accounts", 1, a.len());
    let b = run_query(
        &g,
        "MATCH (x:Account WHERE x.isBlocked='no')\
         -[e:Transfer WHERE e.date='3/1/2020']->\
         (y:Account WHERE y.isBlocked='yes')",
    );
    check("(b) 3/1/2020 transfer into blocked", 1, b.len());
    let c = run_query(
        &g,
        "MATCH TRAIL (x:Account WHERE x.isBlocked='no')-[:Transfer]->+\
         (y:Account WHERE y.isBlocked='yes')",
    );
    check(
        "(c) :Transfer+ into blocked (trails, >0)",
        "true",
        !c.is_empty(),
    );

    // -- EF4: Figure 4 Ankh-Morpork fraud pattern ---------------------------
    heading("EF4", "Figure 4 fraud pattern (§3 renderings agree)");
    let gpml = run_query(
        &g,
        "MATCH (x:Account)-[:isLocatedIn]->(ct:City)<-[:isLocatedIn]-(y:Account), \
         ANY (x)-[e:Transfer]->+(y) \
         WHERE x.isBlocked='no' AND y.isBlocked='yes' AND ct.name='Ankh-Morpork'",
    );
    let mut owners: Vec<(String, String)> = gpml
        .iter()
        .map(|r| {
            let o = |v: &str| match r.get(v) {
                Some(BoundValue::Node(n)) => g.node(*n).property("owner").to_string(),
                _ => unreachable!(),
            };
            (o("x"), o("y"))
        })
        .collect();
    owners.sort();
    check(
        "owner pairs",
        "[(Aretha, Jay), (Dave, Jay)]",
        format!("{owners:?}").replace('"', ""),
    );
    // SPARQL endpoint semantics gives the same pairs (reachability only).
    let sparql = run_query_with(
        &g,
        "MATCH (x:Account)-[:isLocatedIn]->(ct:City)<-[:isLocatedIn]-(y:Account), \
         ALL SHORTEST (x)-[e:Transfer]->+(y) \
         WHERE x.isBlocked='no' AND y.isBlocked='yes' AND ct.name='Ankh-Morpork'",
        &EvalOptions {
            mode: MatchMode::EndpointOnly,
            ..EvalOptions::default()
        },
    );
    check("SPARQL-mode pair count", 2, sparql.len());
    // GSQL default ALL SHORTEST semantics.
    let gsql = run_query_with(
        &g,
        "MATCH (x:Account)-[:isLocatedIn]->(ct:City)<-[:isLocatedIn]-(y:Account), \
         (x)-[e:Transfer]->+(y) \
         WHERE x.isBlocked='no' AND y.isBlocked='yes' AND ct.name='Ankh-Morpork'",
        &EvalOptions {
            mode: MatchMode::GsqlDefault,
            ..EvalOptions::default()
        },
    );
    check("GSQL-mode rows (shortest per pair)", 2, gsql.len());

    // -- EF5: Figure 5 edge orientations -----------------------------------
    heading("EF5", "Figure 5 edge patterns (match counts on Figure 1)");
    // 16 directed edges, 6 undirected; undirected standalone walks count
    // each orientation.
    for (pattern, expected) in [
        ("MATCH (x)<-[e]-(y)", 16),
        ("MATCH (x)~[e]~(y)", 12),
        ("MATCH (x)-[e]->(y)", 16),
        ("MATCH (x)<~[e]~(y)", 28),
        ("MATCH (x)~[e]~>(y)", 28),
        ("MATCH (x)<-[e]->(y)", 32),
        ("MATCH (x)-[e]-(y)", 44),
    ] {
        check(pattern, expected, run_query(&g, pattern).len());
    }

    // -- EF6: Figure 6 quantifiers ------------------------------------------
    heading("EF6", "Figure 6 quantifiers");
    for (pattern, note) in [
        ("MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)", "{2,5}"),
        (
            "MATCH TRAIL (a:Account)-[:Transfer]->{2,}(b:Account)",
            "{2,} under TRAIL",
        ),
        (
            "MATCH TRAIL (a:Account)-[:Transfer]->*(b:Account)",
            "* under TRAIL",
        ),
        (
            "MATCH TRAIL (a:Account)-[:Transfer]->+(b:Account)",
            "+ under TRAIL",
        ),
    ] {
        let n = run_query(&g, pattern).len();
        println!("  {note}: {n} matches");
    }
    let q45 = run_query(
        &g,
        "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account) \
         WHERE SUM(t.amount)>10M",
    );
    println!("  §4.4 SUM(t.amount)>10M postfilter: {} matches", q45.len());

    // -- EF7: Figure 7 restrictors + §5.1 TRAIL example ----------------------
    heading("EF7", "Figure 7 restrictors (Dave → Aretha)");
    let base = "p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')";
    let trail = run_query(&g, &format!("MATCH TRAIL {base}"));
    check("TRAIL path count", 3, trail.len());
    for p in paths_sorted(&g, &trail, "p") {
        println!("    {p}");
    }
    let acyclic = run_query(&g, &format!("MATCH ACYCLIC {base}"));
    check("ACYCLIC path count", 2, acyclic.len());
    let simple = run_query(&g, &format!("MATCH SIMPLE {base}"));
    check("SIMPLE path count", 2, simple.len());

    // -- EF8: Figure 8 selectors + §5.1–5.2 examples -------------------------
    heading("EF8", "Figure 8 selectors");
    let any_shortest = run_query(&g, &format!("MATCH ANY SHORTEST {base}"));
    check(
        "ANY SHORTEST Dave→Aretha",
        "path(a6,t5,a3,t2,a2)",
        paths_sorted(&g, &any_shortest, "p").join(", "),
    );
    let ast = run_query(
        &g,
        "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
         (b WHERE b.owner='Aretha')-[r:Transfer]->*(c WHERE c.owner='Mike')",
    );
    check("ALL SHORTEST TRAIL Dave→Aretha→Mike", 2, ast.len());
    for p in paths_sorted(&g, &ast, "p") {
        println!("    {p}");
    }
    let prefilter = run_query(
        &g,
        "MATCH ALL SHORTEST w = (p:Account WHERE p.owner='Scott')-[:Transfer]->+\
         (q:Account WHERE q.isBlocked='yes')-[:Transfer]->+\
         (r:Account WHERE r.owner='Charles')",
    );
    println!(
        "  prefilter Scott→blocked→Charles: {}",
        paths_sorted(&g, &prefilter, "w").join(", ")
    );
    println!(
        "    (paper prints path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3,t7,a5); Figure 1's\n\
         \x20    edge t6 (a6→a5) makes the 5-hop path strictly shorter — see tests/paper_section5.rs)"
    );
    let postfilter = run_query(
        &g,
        "MATCH ALL SHORTEST (p:Account WHERE p.owner='Scott')-[:Transfer]->+\
         (q:Account)-[:Transfer]->+(r:Account WHERE r.owner='Charles') \
         WHERE q.isBlocked='yes'",
    );
    check("postfilter variant is empty", 0, postfilter.len());
    for (sel, det) in [
        ("ANY SHORTEST", false),
        ("ALL SHORTEST", true),
        ("ANY", false),
        ("ANY 3", false),
        ("SHORTEST 2", false),
        ("SHORTEST 2 GROUP", true),
    ] {
        let q = format!("MATCH {sel} {base}");
        let rs = run_query(&g, &q);
        println!(
            "  {sel}: {} paths ({})",
            rs.len(),
            if det {
                "deterministic"
            } else {
                "non-deterministic"
            }
        );
    }

    // -- EF9: Figure 9 GPML ⊂ {SQL/PGQ, GQL} ---------------------------------
    heading("EF9", "Figure 9: one GPML processor, two hosts");
    let table = sql_pgq::graph_table(
        &g,
        "MATCH (x:Account)-[t:Transfer]->(y:Account WHERE y.isBlocked='yes') \
         COLUMNS (x.owner AS sender, t.amount AS amount)",
    )
    .expect("graph_table");
    println!(
        "  SQL/PGQ GRAPH_TABLE output:\n{}",
        indent(&table.to_string())
    );
    let mut session = gql::Session::new();
    session.register("bank", fig1());
    let result = session
        .execute(
            "bank",
            "MATCH ANY SHORTEST p = (a WHERE a.owner='Dave')-[t:Transfer]->*\
             (b WHERE b.owner='Aretha') RETURN p, COUNT(t) AS hops",
        )
        .expect("gql");
    println!("  GQL result (paths are first-class): {:?}", result.rows);
    let rows = session
        .match_bindings(
            "bank",
            "MATCH p = (a WHERE a.owner='Jay')-[t:Transfer]->(b)",
        )
        .expect("bindings");
    let sub = session.project_graph("bank", &rows[0]).expect("projection");
    check("GQL graph projection nodes", 2, sub.node_count());
    check("GQL graph projection edges", 1, sub.edge_count());

    // -- EX1, EX2, EX3, EX4: §4 worked examples ------------------------------
    heading("EX1", "§4.2 two-hop & same-phone bindings");
    let rs = run_query(&g, "MATCH (s)-[e]->(m)-[f]->(t)");
    // The paper exhibits one sample binding rather than a count; 22 is
    // the exhaustive number of directed two-hop walks in Figure 1.
    check("two-hop walk count", 22, rs.len());
    let rs = run_query(
        &g,
        "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->\
         (d:Account)~[:hasPhone]~(p)",
    );
    check("same-phone transfers", 2, rs.len());

    heading("EX2", "§4.5 union vs multiset alternation");
    check(
        "(c:City)|(c:Country)",
        2,
        run_query(&g, "MATCH (c:City) | (c:Country)").len(),
    );
    check(
        "(c:City)|+|(c:Country)",
        3,
        run_query(&g, "MATCH (c:City) |+| (c:Country)").len(),
    );
    let u = run_query(&g, "MATCH p = ->{1,3} | ->{2,4}");
    let m = run_query(&g, "MATCH p = ->{1,4}");
    check("->{1,3}|->{2,4} ≡ ->{1,4}", m.len(), u.len());

    heading("EX3", "§4.6 conditional singletons");
    let illegal = gpml_parser::parse("MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)")
        .map(|p| gpml_core::eval::evaluate(&g, &p, &EvalOptions::default()));
    check(
        "illegal conditional join rejected",
        "true",
        matches!(illegal, Ok(Err(gpml_core::Error::ConditionalJoin { .. }))),
    );
    let rs = run_query(
        &g,
        "MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]? \
         WHERE y.isBlocked='yes' OR p.isBlocked='yes'",
    );
    check(
        "?-variant finds x=a2",
        "true",
        rs.iter()
            .all(|r| r.get("x").map(|b| b.display(&g).to_string()) == Some("a2".into()))
            && !rs.is_empty(),
    );

    heading("EX4", "§5.3 unbounded aggregates");
    let rejected = gpml_parser::parse(
        "MATCH ALL SHORTEST [ (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1)>1 ]",
    )
    .map(|p| gpml_core::eval::evaluate(&g, &p, &EvalOptions::default()));
    check(
        "prefilter variant statically rejected",
        "true",
        matches!(
            rejected,
            Ok(Err(gpml_core::Error::UnboundedAggregate { .. }))
        ),
    );
    let post = run_query(
        &g,
        "MATCH ALL SHORTEST (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1",
    );
    check("postfilter variant empty", 0, post.len());
    let trail = run_query(
        &g,
        "MATCH ALL SHORTEST [ TRAIL (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]",
    );
    check("TRAIL-bounded prefilter variant empty", 0, trail.len());

    // -- EX5: §6 running example ----------------------------------------------
    heading("EX5", "§6 running example (Jay)");
    let running = "MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]";
    let rs = run_query(&g, running);
    check("reduced path bindings", 2, rs.len());
    for r in rs.iter() {
        let b = r.get("b").expect("group b");
        println!(
            "    a={}, b={}, c={}",
            r.get("a").unwrap().display(&g),
            b.display(&g),
            r.get("c").unwrap().display(&g)
        );
    }
    let alt = run_query(
        &g,
        "MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a) [-[:isLocatedIn]->(c:City) |+| -[:isLocatedIn]->(c:Country)]",
    );
    check("|+| variant bindings", 4, alt.len());
    let sel = run_query(
        &g,
        "MATCH ALL SHORTEST (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ \
         (a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]",
    );
    check("ALL SHORTEST variant bindings", 1, sel.len());
    // Baseline agreement on the running query.
    let pattern = gpml_parser::parse(running).unwrap();
    let base = gpml_core::baseline::evaluate(&g, &pattern, &EvalOptions::default()).unwrap();
    let mut x = rs.rows.clone();
    let mut y = base.rows;
    x.sort();
    y.sort();
    check("baseline (§6 literal) agrees", "true", x == y);

    // -- EB10: cost-based cross-stage execution ---------------------------
    heading(
        "EB10",
        "cost-based join execution (reorder + hash vs nested loop)",
    );
    for w in gpml_bench::joins::workloads() {
        let pattern = gpml_bench::parse(w.query);
        let cost = gpml_core::plan::prepare(&pattern, &gpml_bench::joins::cost_based_opts())
            .expect("prepare cost-based");
        let base = gpml_core::plan::prepare(&pattern, &gpml_bench::joins::declaration_order_opts())
            .expect("prepare baseline");
        let mut cost_rows = cost.execute(&w.graph).expect("cost-based").rows;
        let mut base_rows = base.execute(&w.graph).expect("baseline").rows;
        cost_rows.sort();
        base_rows.sort();
        check(
            &format!("{}: strategies agree ({} rows)", w.name, cost_rows.len()),
            "true",
            cost_rows == base_rows,
        );
        let time = |q: &gpml_core::plan::PreparedQuery| {
            let iters = 5;
            let t = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(q.execute(&w.graph).expect("execute"));
            }
            t.elapsed().as_secs_f64() / iters as f64
        };
        let (tc, tb) = (time(&cost), time(&base));
        println!(
            "    {}: cost-based {:.2} ms vs declaration-order nested loop {:.2} ms ({:.1}x)",
            w.name,
            tc * 1e3,
            tb * 1e3,
            tb / tc.max(1e-9),
        );
    }

    // -- EB12: parameterized prepare → bind → execute ---------------------
    heading(
        "EB12",
        "parameterized queries (prepare once, bind 100 times)",
    );
    {
        use gpml_bench::prepared as eb12;
        use gpml_core::Params;
        let net = eb12::network100();
        let skeleton = eb12::two_stage_skeleton();
        let opts = EvalOptions::default();
        let prepared = gpml_core::plan::prepare(&gpml_bench::parse(&skeleton), &opts)
            .expect("prepare skeleton");
        let owners = eb12::owners();

        // Correctness: every binding equals its literal-inlined twin.
        let mut agree = true;
        for owner in &owners {
            let bound = prepared
                .execute_with(&net, &Params::new().with("owner", owner.as_str()))
                .expect("bound");
            let inlined = run_query(&net, &eb12::inline_owner(&skeleton, owner));
            agree &= bound == inlined;
        }
        check("100 bindings equal inlined literals", "true", agree);

        // Plan-cache economics: one skeleton, 100 bindings, ≥ 99 hits.
        let mut session = gql::Session::new();
        session.register("net", net.clone());
        let gql_skeleton = format!("{skeleton} RETURN y.owner AS receiver");
        for owner in &owners {
            session
                .execute_with_params(
                    "net",
                    &gql_skeleton,
                    &Params::new().with("owner", owner.as_str()),
                )
                .expect("session binding");
        }
        let stats = session.plan_cache_stats();
        check("plan cache entries after 100 bindings", 1, stats.len);
        check("plan cache hits \u{2265} 99", "true", stats.hits >= 99);

        // Amortization: warm re-binding vs re-prepare-per-literal on a
        // compile-heavy skeleton (execution-dominated shapes tie; the
        // compile-heavy regime is where parameters pay outright).
        let tiny = eb12::tiny_chain();
        let deep = eb12::deep_skeleton();
        let deep_prepared =
            gpml_core::plan::prepare(&gpml_bench::parse(&deep), &opts).expect("prepare deep");
        let iters = 3;
        let t = std::time::Instant::now();
        for _ in 0..iters {
            for owner in &owners {
                let params = Params::new().with("owner", owner.as_str());
                std::hint::black_box(deep_prepared.execute_with(&tiny, &params).expect("bound"));
            }
        }
        let warm = t.elapsed().as_secs_f64() / iters as f64;
        let t = std::time::Instant::now();
        for _ in 0..iters {
            for owner in &owners {
                std::hint::black_box(run_query(&tiny, &eb12::inline_owner(&deep, owner)));
            }
        }
        let cold = t.elapsed().as_secs_f64() / iters as f64;
        println!(
            "    deep skeleton, 100 bindings: warm execute_with {:.2} ms vs \
             re-prepare-per-literal {:.2} ms ({:.1}x)",
            warm * 1e3,
            cold * 1e3,
            cold / warm.max(1e-9),
        );
        check("warm beats re-prepare", "true", warm < cold);
    }

    // -- EB13: prepared statements over the wire --------------------------
    heading(
        "EB13",
        "gpmld wire protocol (one-shot vs prepared, shared plan cache)",
    );
    {
        use gpml_bench::server as eb13;
        use gpml_core::Params;
        use gpml_server::client::Client;

        let server = eb13::start_server();
        let skeleton = eb13::wire_skeleton();
        let owners = eb13::owners();

        // Correctness: the wire path is bit-for-bit the in-process path.
        let mut session = gql::Session::new();
        session.register("net", gpml_bench::prepared::network100());
        let prepared = session.prepare(&skeleton).expect("prepare");
        let mut client = Client::connect(server.addr()).expect("connect gpmld");
        let handle = client.prepare(&skeleton).expect("wire prepare");
        let mut agree = true;
        for owner in &owners {
            let params = Params::new().with("owner", owner.as_str());
            let want = session
                .execute_prepared_with("net", &prepared, &params)
                .expect("in-process");
            let bound = eb13::execute_bound(&mut client, handle.handle, owner).expect("execute");
            agree &= bound == want;
        }
        check("100 wire bindings equal in-process results", "true", agree);

        // Shared-cache economics: the PREPARE above was the one compile;
        // a second client preparing the same skeleton hits.
        let mut second = Client::connect(server.addr()).expect("connect gpmld");
        let h2 = second.prepare(&skeleton).expect("wire prepare");
        let stats = second.stats().expect("stats");
        let stat = |key: &str| gpml_server::client::stat(&stats, key).unwrap_or(0);
        check("shared-cache compiles (misses)", 1, stat("cache.misses"));
        check(
            "second client's PREPARE hits",
            "true",
            stat("cache.hits") >= 1,
        );
        second.close(h2.handle).expect("close");

        // Throughput: one-shot literal traffic vs prepared re-binding,
        // on the compile-heavy deep skeleton (execution-dominated shapes
        // tie — same story as EB12, now with a network in the loop).
        let deep_server = eb13::start_deep_server();
        let deep = eb13::deep_wire_skeleton();
        let mut deep_client = Client::connect(deep_server.addr()).expect("connect gpmld");
        let deep_handle = deep_client.prepare(&deep).expect("wire prepare");
        let iters = 3;
        let t = std::time::Instant::now();
        for _ in 0..iters {
            for owner in &owners {
                std::hint::black_box(
                    eb13::execute_bound(&mut deep_client, deep_handle.handle, owner)
                        .expect("execute"),
                );
            }
        }
        let warm = t.elapsed().as_secs_f64() / iters as f64;
        let t = std::time::Instant::now();
        for _ in 0..iters {
            for owner in &owners {
                std::hint::black_box(
                    eb13::one_shot(&mut deep_client, &deep, owner).expect("one-shot"),
                );
            }
        }
        let cold = t.elapsed().as_secs_f64() / iters as f64;
        println!(
            "    deep skeleton over TCP, 100 bindings: EXECUTE {:.2} ms vs \
             one-shot QUERY {:.2} ms ({:.1}x)",
            warm * 1e3,
            cold * 1e3,
            cold / warm.max(1e-9),
        );
        check("prepared-over-wire beats one-shot", "true", warm < cold);
        deep_server.stop();
        server.stop();
    }

    // -- EB15: flat transition-array interpreter --------------------------
    heading(
        "EB15",
        "flat plan IR (transition-array interpreter vs legacy NFA walker)",
    );
    for w in gpml_bench::flatplan::workloads() {
        let pattern = gpml_bench::parse(w.query);
        let flat = gpml_core::plan::prepare(&pattern, &gpml_bench::flatplan::flat_opts())
            .expect("prepare flat");
        let legacy = gpml_core::plan::prepare(&pattern, &gpml_bench::flatplan::legacy_opts())
            .expect("prepare legacy");
        let flat_rows = flat.execute(&w.graph).expect("flat");
        let legacy_rows = legacy.execute(&w.graph).expect("legacy");
        check(
            &format!("{}: engines agree ({} rows)", w.name, flat_rows.len()),
            "true",
            flat_rows == legacy_rows,
        );
        let time = |q: &gpml_core::plan::PreparedQuery| {
            let iters = 5;
            let t = std::time::Instant::now();
            for _ in 0..iters {
                std::hint::black_box(q.execute(&w.graph).expect("execute"));
            }
            t.elapsed().as_secs_f64() / iters as f64
        };
        let (tf, tl) = (time(&flat), time(&legacy));
        println!(
            "    {}: flat {:.2} ms vs legacy matcher {:.2} ms ({:.1}x)",
            w.name,
            tf * 1e3,
            tl * 1e3,
            tl / tf.max(1e-9),
        );
    }

    // -- EB16: serving-model concurrency -----------------------------------
    heading(
        "EB16",
        "serving models under mixed idle/active connection populations",
    );
    {
        use gpml_bench::server_concurrency as eb16;
        use gpml_server::server::ServeModel;

        let expect = eb16::oracle();
        for model in [ServeModel::EventLoop, ServeModel::Threaded] {
            let server = eb16::start_server(model);
            for &(conns, active) in eb16::POPULATIONS {
                // run_mix asserts wire == in-process before timing, so a
                // completed report *is* the correctness check.
                let report =
                    eb16::run_mix(&server, model, conns, active, eb16::OPS_PER_ACTIVE, &expect);
                println!("    {}", report.line());
                check(
                    &format!(
                        "{} model, {} conns: wire equals in-process",
                        eb16::model_name(model),
                        conns
                    ),
                    "true",
                    true,
                );
            }
            server.stop();
        }
    }

    // -- EB17: durable storage engine ---------------------------------------
    heading(
        "EB17",
        "durable storage: mixed read/write traffic and crash recovery",
    );
    {
        use gpml_bench::storage as eb17;

        // Mixed traffic: run_mixed asserts every read equals the
        // in-process oracle, so a completed report *is* the isolation
        // check — commits never perturb a reader's rows.
        let expect = eb17::oracles();
        for &(readers, writers) in eb17::MIXES {
            let dir = eb17::scratch_dir("report-mixed");
            let server = eb17::start_durable_server(&dir);
            let report = eb17::run_mixed(
                &server,
                readers,
                writers,
                eb17::READS_PER_READER,
                eb17::WRITES_PER_WRITER,
                &expect,
            );
            println!("    {}", report.line());
            check(
                &format!("{readers}r/{writers}w: reads equal in-process under commits"),
                "true",
                true,
            );
            server.stop();
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Recovery: every run verifies the recovered epoch and node
        // count; the compacted variant must reach the crash with a
        // shorter WAL than the wal-only variant.
        for &commits in eb17::RECOVERY_COMMITS {
            let wal_only = eb17::run_recovery(commits, u64::MAX);
            let compacted = eb17::run_recovery(commits, eb17::RECOVERY_SNAPSHOT_EVERY);
            println!("    {}", wal_only.line());
            println!("    {}", compacted.line());
            check(
                &format!("{commits} commits: wal-only replay covers every commit"),
                commits,
                wal_only.wal_records as usize,
            );
            check(
                &format!("{commits} commits: compaction shortens the replayed tail"),
                "true",
                compacted.wal_records < wal_only.wal_records && compacted.snapshots > 0,
            );
        }
    }

    // -- EB18: observability overhead ---------------------------------------
    heading(
        "EB18",
        "observability overhead: tracing-on vs tracing-off on the EB16 mix",
    );
    {
        use gpml_bench::observability as eb18;
        use gpml_bench::server_concurrency as eb16;

        let expect = eb16::oracle();
        let (conns, active) = eb18::POPULATION;
        let mut reports = Vec::new();
        for tracing in [false, true] {
            let server = eb18::start_server(tracing);
            // run asserts wire == in-process before timing, and
            // verify_observability asserts the ring/histograms behave
            // per state, so a completed pass *is* the correctness check.
            let report = eb18::run(&server, conns, active, eb18::OPS_PER_ACTIVE, &expect);
            println!("    {:11} {}", eb18::state_name(tracing), report.line());
            eb18::verify_observability(&server, tracing);
            check(
                &format!(
                    "{}: wire equals in-process, ring/histograms consistent",
                    eb18::state_name(tracing)
                ),
                "true",
                true,
            );
            reports.push(report);
            server.stop();
        }
        let overhead = eb18::overhead(&reports[1], &reports[0]);
        println!(
            "    tracing overhead: {:+.2}% p50 (budget {:.0}% on quiet hardware)",
            overhead * 100.0,
            eb18::OVERHEAD_BUDGET * 100.0
        );
    }

    println!(
        "\nAll experiments reproduced. See README.md, \"Benches and the paper report\", \
         for the EB index."
    );
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
