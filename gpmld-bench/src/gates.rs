//! Correctness gates. Each checks the served answers against a source
//! other than the wire path under test: the in-process `gql::Session`
//! on the same snapshot, the engine-independent point-lookup oracle, the
//! §6 baseline evaluator, and a journal reopened from disk.

use std::path::Path;

use gpml_core::{baseline, EvalOptions, GraphPattern, MatchRow, Params};
use gpml_parser::Parser;
use gpml_storage::GraphJournal;
use gql::{GqlError, QueryResult, Session};
use property_graph::{PropertyGraph, Value};

use crate::drive::{note, CommitLog, Conn, Lat, Tally};
use crate::workload::{self, Expect, Req, Traffic, Workload};

/// Owners sampled by the pre-timing gate of `point-lookup`.
const GATE_OWNERS: usize = 32;

/// Accounts in the graph the baseline gate runs on (the §6 baseline
/// enumerates literally and does not scale to the served sizes).
const BASELINE_ACCOUNTS: usize = 200;

/// Row cap for the baseline gate: a text that outgrows it fails the gate
/// quickly instead of exhausting memory.
const BASELINE_MAX_ROWS: usize = 100_000;

/// An in-process session over the served graph, with the server's
/// evaluation options.
pub fn session() -> Session {
    Session::with_options(EvalOptions::default())
}

pub fn params(req: &Req) -> Params {
    match req.owner() {
        Some(o) => Params::new().with("owner", o),
        None => Params::new(),
    }
}

/// Runs `req` in-process on `g`.
pub fn in_process(
    s: &Session,
    g: &PropertyGraph,
    skeletons: &[String],
    req: &Req,
) -> Result<QueryResult, GqlError> {
    let prepared = s.prepare_uncached(req.text(skeletons))?;
    s.execute_prepared_profiled_on(g, &prepared, &params(req), None)
}

/// Splits the `MATCH` pattern off a statement (the `RETURN` tail is
/// the host language's, not GPML's).
pub fn pattern(text: &str) -> Result<GraphPattern, String> {
    let mut p = Parser::new(text);
    p.expect_kw("MATCH").map_err(|e| e.to_string())?;
    p.parse_graph_pattern().map_err(|e| e.to_string())
}

/// Before timing: every distinct request (or, for the lookups, both
/// binding classes on a seeded owner sample) must get the same answer
/// over the wire as in-process; for the lookups the in-process answer
/// must also equal the edge-scan oracle. Fills the answer table of
/// `path-analytics`.
pub fn pre_timing(
    conn: &mut Conn,
    traffic: &mut Traffic,
    g: &PropertyGraph,
    tally: &mut Tally,
    errors: &mut Vec<String>,
) {
    let s = session();
    let reqs = traffic.gate_requests(GATE_OWNERS);
    let mut tables = Vec::new();
    let mut local = Vec::new();
    for req in &reqs {
        tally.attempted += 1;
        match in_process(&s, g, &traffic.skeletons, req) {
            Ok(r) => {
                if let Expect::Owner(i) = req.expect() {
                    if r != traffic.oracle.owner_result(i) {
                        tally.failed += 1;
                        note(
                            errors,
                            format!(
                                "session disagrees with oracle: {}",
                                req.literal(&traffic.skeletons)
                            ),
                        );
                    }
                } else {
                    tables.push(r.clone());
                }
                local.push(Some(r));
            }
            Err(e) => {
                tally.failed += 1;
                note(
                    errors,
                    format!("in-process {e}: {}", req.literal(&traffic.skeletons)),
                );
                local.push(None);
            }
        }
    }
    if traffic.workload == Workload::PathAnalytics {
        traffic.oracle.tables = tables;
    }
    let mut lat = Lat::default();
    let start = std::time::Instant::now();
    for (req, want) in reqs.iter().zip(local) {
        let sent = conn.send(req, &mut lat, start);
        let what = || req.literal(&traffic.skeletons);
        tally.book(sent, |r| want.as_ref() == Some(r), errors, &what);
    }
}

/// After timing: the seeded sample of timed answers, re-run in-process
/// on the same snapshot.
pub fn sampled(
    traffic: &Traffic,
    g: &PropertyGraph,
    sample: &[(Req, QueryResult)],
    tally: &mut Tally,
    errors: &mut Vec<String>,
) {
    let s = session();
    for (req, got) in sample {
        tally.attempted += 1;
        match in_process(&s, g, &traffic.skeletons, req) {
            Ok(r) if &r == got => {}
            other => {
                tally.failed += 1;
                let why = other
                    .err()
                    .map(|e| e.to_string())
                    .unwrap_or("differs".into());
                note(
                    errors,
                    format!("sampled answer {why}: {}", req.literal(&traffic.skeletons)),
                );
            }
        }
    }
}

fn sorted_rows(mut rows: Vec<MatchRow>) -> Vec<MatchRow> {
    rows.sort();
    rows
}

/// Every statement's `MATCH` against `gpml_core::baseline::evaluate` on
/// a small graph from the same generator and seed, with parameters
/// inlined (the baseline is literal-only). Returns the statements
/// checked.
pub fn baseline(
    workload: Workload,
    seed: u64,
    tally: &mut Tally,
    errors: &mut Vec<String>,
) -> usize {
    let accounts = BASELINE_ACCOUNTS.min(workload.accounts(false));
    let g = gpml_datagen::transfer_network(workload::network(accounts, seed));
    let traffic = Traffic::new(workload, seed, &g, accounts);
    let mut texts: Vec<String> = traffic
        .gate_requests(4)
        .iter()
        .map(|r| r.literal(&traffic.skeletons))
        .collect();
    texts.dedup();
    let opts = EvalOptions {
        max_matches: BASELINE_MAX_ROWS,
        ..EvalOptions::default()
    };
    for text in &texts {
        tally.attempted += 1;
        let outcome = pattern(text).and_then(|p| {
            let want = baseline::evaluate(&g, &p, &opts).map_err(|e| e.to_string())?;
            let got = gpml_core::prepare(&p, &opts)
                .and_then(|q| q.execute(&g))
                .map_err(|e| e.to_string())?;
            Ok(sorted_rows(want.rows) == sorted_rows(got.rows))
        });
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                tally.failed += 1;
                note(errors, format!("baseline disagrees: {text}"));
            }
            Err(e) => {
                tally.failed += 1;
                note(errors, format!("baseline gate {e}: {text}"));
            }
        }
    }
    texts.len()
}

/// Reopens a data directory whose writer is gone and checks that every
/// acknowledged commit is present and the epoch is the last
/// acknowledged one.
pub fn durability(
    dir: &Path,
    boot: &PropertyGraph,
    commits: &[CommitLog],
    tally: &mut Tally,
    errors: &mut Vec<String>,
) {
    tally.attempted += 1;
    let journal = match GraphJournal::open(dir, boot.clone(), true, u64::MAX) {
        Ok(j) => j,
        Err(e) => {
            tally.failed += 1;
            note(errors, format!("reopen: {e}"));
            return;
        }
    };
    let g = journal.snapshot();
    let last = commits.iter().map(|c| c.epoch).max().unwrap_or(0);
    let mut ok = journal.epoch() == last;
    if !ok {
        note(
            errors,
            format!("reopened epoch {} != last ack {last}", journal.epoch()),
        );
    }
    let mut last_seen = std::collections::BTreeMap::new();
    for c in commits {
        for m in &c.batch {
            match m {
                gpml_storage::Mutation::AddNode { name, .. } => {
                    ok &= g.node_by_name(name).is_some()
                }
                gpml_storage::Mutation::AddEdge { name, .. } => {
                    ok &= g.edge_by_name(name).is_some()
                }
                gpml_storage::Mutation::SetProperty { element, value, .. } => {
                    last_seen.insert(element.clone(), value.clone());
                }
                gpml_storage::Mutation::Delete { .. } => {}
            }
        }
    }
    for (element, value) in &last_seen {
        let have = g
            .by_name(element)
            .map(|el| g.property(el, "lastSeen").clone())
            .unwrap_or(Value::Null);
        ok &= &have == value;
    }
    if !ok {
        tally.failed += 1;
        note(errors, "reopened journal lacks acknowledged commits".into());
    }
}
