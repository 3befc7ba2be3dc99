//! The three workloads: graph sizes, request texts, per-connection
//! request generators, the writer's batches, and the answer oracle.

use gpml_datagen::TransferNetworkConfig;
use gpml_storage::Mutation;
use gql::{GqlValue, QueryResult};
use property_graph::{PropertyGraph, Value};

use crate::util::Rng;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointLookup,
    PathAnalytics,
    ReadWriteMix,
}

/// The point lookup every read of `point-lookup` and `read-write-mix`
/// runs, prepared (`EXECUTE`) or with the owner inlined (`QUERY`).
pub const POINT_SKELETON: &str = "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->\
                                  (y:Account) RETURN y.owner AS r ORDER BY r";

/// Owners in the `read-write-mix` reader's repeating set: its `QUERY`
/// texts fit the default 128-entry plan cache many times over.
const RWM_OWNER_SET: usize = 32;

/// Rows per `FETCH`.
pub const FETCH_CHUNK: u64 = 128;

/// Transfers per account in every generated graph.
const TRANSFERS_PER_ACCOUNT: usize = 4;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PointLookup,
        Workload::PathAnalytics,
        Workload::ReadWriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point-lookup",
            Workload::PathAnalytics => "path-analytics",
            Workload::ReadWriteMix => "read-write-mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Accounts in the served graph; `tiny` is the self-test size.
    pub fn accounts(self, tiny: bool) -> usize {
        match (self, tiny) {
            (Workload::PathAnalytics, false) => 1_000,
            (Workload::PathAnalytics, true) => 200,
            (_, false) => 10_000,
            (_, true) => 500,
        }
    }

    pub fn graph_config(self, seed: u64, tiny: bool) -> TransferNetworkConfig {
        network(self.accounts(tiny), seed)
    }

    /// Closed-loop reader connections. One, so that on a small host a
    /// round trip is timed as the program's own work rather than as a
    /// wait for a core held by another client.
    pub fn readers(self) -> usize {
        1
    }

    pub fn writes(self) -> bool {
        self == Workload::ReadWriteMix
    }
}

pub fn network(accounts: usize, seed: u64) -> TransferNetworkConfig {
    TransferNetworkConfig {
        accounts,
        transfers: accounts * TRANSFERS_PER_ACCOUNT,
        blocked_share: 0.1,
        seed,
    }
}

pub fn owner(i: usize) -> String {
    format!("owner{i}")
}

pub fn inline_owner(skeleton: &str, owner: &str) -> String {
    skeleton.replace("$owner", &format!("'{owner}'"))
}

/// What a response must equal.
#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// The point lookup's answer for account index `i`.
    Owner(usize),
    /// Entry `i` of the precomputed answer table.
    Table(usize),
}

/// One logical client request.
#[derive(Clone, Debug)]
pub enum Req {
    /// `EXECUTE` of skeleton `stmt` with `$owner` bound.
    Execute {
        stmt: usize,
        owner: String,
        expect: Expect,
    },
    /// `QUERY`; with `cursor`, `QUERY … CURSOR` drained by `FETCH`.
    Query {
        text: String,
        cursor: bool,
        expect: Expect,
    },
}

impl Req {
    pub fn expect(&self) -> Expect {
        match self {
            Req::Execute { expect, .. } | Req::Query { expect, .. } => *expect,
        }
    }

    /// The statement text the server compiles for this request.
    pub fn text<'a>(&'a self, skeletons: &'a [String]) -> &'a str {
        match self {
            Req::Execute { stmt, .. } => &skeletons[*stmt],
            Req::Query { text, .. } => text,
        }
    }

    /// The request as literal text (parameters inlined), for oracles
    /// that take no parameters.
    pub fn literal(&self, skeletons: &[String]) -> String {
        match self {
            Req::Execute { stmt, owner, .. } => inline_owner(&skeletons[*stmt], owner),
            Req::Query { text, .. } => text.clone(),
        }
    }

    pub fn owner(&self) -> Option<&str> {
        match self {
            Req::Execute { owner, .. } => Some(owner),
            Req::Query { .. } => None,
        }
    }
}

/// Everything the clients send, and what the answers must be.
pub struct Traffic {
    pub workload: Workload,
    pub seed: u64,
    pub accounts: usize,
    /// Statements every connection `PREPARE`s once; `Req::Execute::stmt`
    /// indexes this list.
    pub skeletons: Vec<String>,
    /// The distinct requests of `path-analytics` (its answer table is
    /// indexed the same way); empty for the lookup workloads.
    pub distinct: Vec<Req>,
    /// `read-write-mix`: the reader's repeating owner set.
    owner_set: Vec<usize>,
    pub oracle: Oracle,
}

/// Per-account answers of the point lookup (independent of the engine:
/// read straight off the graph's edges), plus the in-process answer
/// table of `path-analytics`.
pub struct Oracle {
    pub adjacency: Vec<Vec<String>>,
    pub tables: Vec<QueryResult>,
}

impl Oracle {
    pub fn owner_result(&self, i: usize) -> QueryResult {
        QueryResult {
            columns: vec!["r".to_owned()],
            rows: self.adjacency[i]
                .iter()
                .map(|o| vec![GqlValue::Scalar(Value::str(o.clone()))])
                .collect(),
        }
    }

    pub fn check(&self, expect: Expect, got: &QueryResult) -> bool {
        match expect {
            Expect::Owner(i) => {
                let want = &self.adjacency[i];
                got.columns.len() == 1
                    && got.columns[0] == "r"
                    && got.rows.len() == want.len()
                    && got
                        .rows
                        .iter()
                        .zip(want)
                        .all(|(row, w)| row.len() == 1 && row[0].as_str() == Some(w.as_str()))
            }
            Expect::Table(i) => self.tables.get(i) == Some(got),
        }
    }
}

/// For each account index, the owners it sends transfers to, sorted
/// (one entry per transfer edge, as the unaggregated lookup returns).
fn adjacency(g: &PropertyGraph, accounts: usize) -> Vec<Vec<String>> {
    let mut adj = vec![Vec::new(); accounts];
    for e in g.edges() {
        let ed = g.edge(e);
        if !ed.labels.contains("Transfer") || !ed.endpoints.is_directed() {
            continue;
        }
        let (s, d) = ed.endpoints.pair();
        let (src, dst) = (g.node(s), g.node(d));
        if !src.labels.contains("Account") || !dst.labels.contains("Account") {
            continue;
        }
        let idx = src
            .name
            .strip_prefix('a')
            .and_then(|n| n.parse::<usize>().ok());
        if let (Some(i), Some(Value::Str(o))) = (idx, dst.properties.get("owner")) {
            if i < accounts {
                adj[i].push(o.clone());
            }
        }
    }
    for v in &mut adj {
        v.sort();
    }
    adj
}

/// Path-analytics statements with small results: plain `QUERY`.
/// `{A}`…`{F}` are anchor owners drawn per seed; an anchored template is
/// instantiated [`PATH_ANCHORINGS`] times. Quantifiers are bounded so
/// the §6 baseline can check every text.
const PATH_QUERIES: &[&str] = &[
    // §5 quantifier + restrictor, anchored.
    "MATCH TRAIL (a:Account WHERE a.owner='{A}')-[t:Transfer]->{1,3}(b:Account) \
      RETURN b.owner AS b, COUNT(t) AS hops ORDER BY b, hops",
    // §5 selector: one shortest path between two accounts.
    "MATCH ANY SHORTEST (a:Account WHERE a.owner='{B}')-[t:Transfer]->{1,4}\
      (b:Account WHERE b.owner='{C}') RETURN COUNT(t) AS hops",
    // §4 group variable aggregate in a path predicate.
    "MATCH TRAIL (a:Account WHERE a.owner='{D}')-[t:Transfer]->{1,3}(b:Account) \
      WHERE SUM(t.amount) > 40000000 RETURN b.owner AS b, SUM(t.amount) AS total \
      ORDER BY b, total",
    // §4 comma join on a shared variable.
    "MATCH (a:Account WHERE a.owner='{E}')-[t:Transfer]->(b:Account), \
      (b)-[u:Transfer]->(c:Account) RETURN b.owner AS b, c.owner AS c, u.amount AS amt \
      ORDER BY b, c, amt",
    // §4 multiset alternation.
    "MATCH (a:Account WHERE a.owner='{F}')-[t:Transfer]->(b:Account) |+| \
      (a:Account WHERE a.owner='{F}')<-[t:Transfer]-(b:Account) RETURN b.owner AS b ORDER BY b",
    // Edge and endpoint predicates over the whole graph.
    "MATCH (a:Account)-[t:Transfer WHERE t.amount > 18000000]->(b:Account WHERE b.isBlocked='yes') \
      RETURN a.owner AS a, b.owner AS b, t.amount AS amt ORDER BY a, b, amt",
    // 3-cycles through blocked accounts: a cyclic join.
    "MATCH (a:Account WHERE a.isBlocked='yes')-[:Transfer]->(b:Account)-[:Transfer]->\
      (c:Account)-[:Transfer]->(a) RETURN a.owner AS a, b.owner AS b, c.owner AS c ORDER BY a, b, c",
];

/// Path-analytics statements with large results: `QUERY … CURSOR`.
const PATH_CURSORS: &[&str] = &[
    // §4.2 same-phone scenario: a 4-way join through shared phones and cities.
    "MATCH (x:Account)~[:hasPhone]~(p:Phone)~[:hasPhone]~(y:Account), \
      (x)-[:isLocatedIn]->(c:City), (y)-[:isLocatedIn]->(c) WHERE x.owner <> y.owner \
      RETURN x.owner AS x, y.owner AS y, c.name AS c ORDER BY x, y",
    // EXISTS subquery: accounts that paid a blocked account.
    "MATCH (a:Account WHERE a.isBlocked='no') WHERE EXISTS \
      { (a)-[:Transfer]->(z:Account WHERE z.isBlocked='yes') } RETURN a.owner AS a ORDER BY a",
    // Large transfers, whole graph.
    "MATCH (a:Account)-[t:Transfer WHERE t.amount >= 15000000]->(b:Account) \
      RETURN a.owner AS a, b.owner AS b, t.amount AS amt ORDER BY a, b, amt",
];

/// Path-analytics prepared skeletons, each executed with
/// [`PATH_BINDINGS`] seeded `$owner` bindings.
const PATH_SKELETONS: &[&str] = &[
    "MATCH TRAIL (a:Account WHERE a.owner = $owner)-[t:Transfer]->{1,3}(b:Account) \
      RETURN b.owner AS b, COUNT(t) AS hops ORDER BY b, hops",
    "MATCH ANY SHORTEST (a:Account WHERE a.owner = $owner)-[t:Transfer]->{1,4}\
      (b:Account WHERE b.isBlocked = 'yes') RETURN b.owner AS b, COUNT(t) AS hops ORDER BY b",
    "MATCH (a:Account WHERE a.owner = $owner)~[:hasPhone]~(p:Phone)~[:hasPhone]~(y:Account), \
      (y)-[t:Transfer]->(z:Account) RETURN y.owner AS y, z.owner AS z ORDER BY y, z",
];

/// Seeded `$owner` bindings per path-analytics skeleton, and seeded
/// instantiations per anchored `QUERY` template: enough that a seed's
/// draw of anchors barely moves the mix's cost.
const PATH_BINDINGS: usize = 96;
const PATH_ANCHORINGS: usize = 8;

impl Traffic {
    /// Builds the traffic of `workload` over `g`. `tables` (the answers
    /// of `distinct`) is filled later, in-process, by the gates.
    pub fn new(workload: Workload, seed: u64, g: &PropertyGraph, accounts: usize) -> Traffic {
        let adjacency = adjacency(g, accounts);
        let mut rng = Rng::new(seed, 0xA11CE);
        // Anchors with at least two outgoing transfers, so anchored
        // paths have something to walk.
        let anchor = |rng: &mut Rng| loop {
            let i = rng.below(accounts);
            if adjacency[i].len() >= 2 {
                return i;
            }
        };
        let mut skeletons = Vec::new();
        let mut distinct = Vec::new();
        let mut owner_set = Vec::new();
        match workload {
            Workload::PointLookup | Workload::ReadWriteMix => {
                skeletons.push(POINT_SKELETON.to_owned());
                if workload == Workload::ReadWriteMix {
                    owner_set = (0..RWM_OWNER_SET).map(|_| rng.below(accounts)).collect();
                }
            }
            Workload::PathAnalytics => {
                for (cursor, list) in [(false, PATH_QUERIES), (true, PATH_CURSORS)] {
                    for &template in list {
                        let anchored = template.contains('{');
                        for _ in 0..if anchored { PATH_ANCHORINGS } else { 1 } {
                            let mut text = template.to_owned();
                            for slot in ["{A}", "{B}", "{C}", "{D}", "{E}", "{F}"] {
                                text = text.replace(slot, &owner(anchor(&mut rng)));
                            }
                            let expect = Expect::Table(distinct.len());
                            distinct.push(Req::Query {
                                text,
                                cursor,
                                expect,
                            });
                        }
                    }
                }
                for (stmt, &skeleton) in PATH_SKELETONS.iter().enumerate() {
                    skeletons.push(skeleton.to_owned());
                    for _ in 0..PATH_BINDINGS {
                        let expect = Expect::Table(distinct.len());
                        distinct.push(Req::Execute {
                            stmt,
                            owner: owner(anchor(&mut rng)),
                            expect,
                        });
                    }
                }
            }
        }
        Traffic {
            workload,
            seed,
            accounts,
            skeletons,
            distinct,
            owner_set,
            oracle: Oracle {
                adjacency,
                tables: Vec::new(),
            },
        }
    }

    /// Connection `conn`'s request stream for phase `phase`.
    pub fn generator(&self, conn: u64, phase: u64) -> Gen {
        let mut rng = Rng::new(self.seed, 1 + conn + 16 * phase);
        if self.workload == Workload::PathAnalytics {
            let mut order: Vec<usize> = (0..self.distinct.len()).collect();
            rng.shuffle(&mut order);
            let pos = rng.below(order.len());
            Gen::Cycle {
                order,
                pos,
                first: pos,
            }
        } else {
            Gen::Lookup { rng, n: 0 }
        }
    }

    /// The point-lookup request for account `i`, as `EXECUTE` or `QUERY`.
    pub fn lookup(&self, i: usize, execute: bool) -> Req {
        let expect = Expect::Owner(i);
        if execute {
            Req::Execute {
                stmt: 0,
                owner: owner(i),
                expect,
            }
        } else {
            Req::Query {
                text: inline_owner(POINT_SKELETON, &owner(i)),
                cursor: false,
                expect,
            }
        }
    }

    /// The requests the pre-timing gate checks against the in-process
    /// session: every distinct request, or for the lookups every binding
    /// class (`EXECUTE` and `QUERY`) on a seeded sample of owners.
    pub fn gate_requests(&self, sample: usize) -> Vec<Req> {
        if !self.distinct.is_empty() {
            return self.distinct.clone();
        }
        let mut rng = Rng::new(self.seed, 0x6A7E);
        let owners: Vec<usize> = if self.owner_set.is_empty() {
            (0..sample).map(|_| rng.below(self.accounts)).collect()
        } else {
            self.owner_set.clone()
        };
        owners
            .into_iter()
            .flat_map(|i| [self.lookup(i, true), self.lookup(i, false)])
            .collect()
    }

    /// Distinct statement texts the clients can send (for the record).
    pub fn distinct_texts(&self) -> usize {
        match self.workload {
            Workload::PathAnalytics => {
                self.distinct
                    .iter()
                    .filter(|r| matches!(r, Req::Query { .. }))
                    .count()
                    + self.skeletons.len()
            }
            Workload::PointLookup => self.accounts + 1,
            Workload::ReadWriteMix => self.owner_set.len() + 1,
        }
    }
}

/// A connection's request stream.
pub enum Gen {
    /// Alternating `EXECUTE` / `QUERY` point lookups.
    Lookup { rng: Rng, n: u64 },
    /// A seeded cycle over the distinct requests, each once per pass,
    /// starting at `first`.
    Cycle {
        order: Vec<usize>,
        pos: usize,
        first: usize,
    },
}

impl Gen {
    /// The next request, and whether it ends a pass over the mix: an
    /// `EXECUTE` + `QUERY` pair of lookups, or one whole cycle.
    pub fn next(&mut self, t: &Traffic) -> (Req, bool) {
        match self {
            Gen::Lookup { rng, n } => {
                let i = if t.owner_set.is_empty() {
                    rng.below(t.accounts)
                } else {
                    t.owner_set[rng.below(t.owner_set.len())]
                };
                *n += 1;
                (t.lookup(i, *n % 2 == 1), *n % 2 == 0)
            }
            Gen::Cycle { order, pos, first } => {
                let req = t.distinct[order[*pos]].clone();
                *pos = (*pos + 1) % order.len();
                (req, *pos == *first)
            }
        }
    }
}

/// Mutations per writer commit.
pub const BATCH_MUTATIONS: usize = 10;

/// Writer batch `k`: three `:Login` nodes, a `:signedIn` edge to each
/// from an existing account, and `lastSeen` set on four accounts. No
/// reader statement mentions these labels or keys, so reads keep one
/// exact answer while the graph changes.
pub fn write_batch(k: u64, accounts: usize, rng: &mut Rng) -> Vec<Mutation> {
    let mut batch = Vec::with_capacity(BATCH_MUTATIONS);
    for i in 0..3 {
        batch.push(Mutation::AddNode {
            name: format!("lg{k}_{i}"),
            labels: vec!["Login".to_owned()],
            properties: vec![("at".to_owned(), Value::Int(k as i64))],
        });
    }
    for i in 0..3 {
        batch.push(Mutation::AddEdge {
            name: format!("si{k}_{i}"),
            src: format!("a{}", rng.below(accounts)),
            dst: format!("lg{k}_{i}"),
            directed: true,
            labels: vec!["signedIn".to_owned()],
            properties: Vec::new(),
        });
    }
    for _ in 0..4 {
        batch.push(Mutation::SetProperty {
            element: format!("a{}", rng.below(accounts)),
            key: "lastSeen".to_owned(),
            value: Value::Int(k as i64),
        });
    }
    batch
}

/// Commit-probe batch `k`: `lastSeen` set on [`BATCH_MUTATIONS`]
/// accounts. Unlike a writer batch it adds nothing, so a probe's
/// commits all clone a graph of the same size however many it makes.
pub fn probe_batch(k: u64, accounts: usize, rng: &mut Rng) -> Vec<Mutation> {
    (0..BATCH_MUTATIONS)
        .map(|_| Mutation::SetProperty {
            element: format!("a{}", rng.below(accounts)),
            key: "lastSeen".to_owned(),
            value: Value::Int(k as i64),
        })
        .collect()
}

/// Bytes of `batch` in the storage engine's own mutation encoding.
pub fn encoded_len(batch: &[Mutation]) -> usize {
    let mut buf = Vec::new();
    for m in batch {
        m.encode(&mut buf);
    }
    buf.len()
}
