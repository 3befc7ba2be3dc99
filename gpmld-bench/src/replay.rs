//! The traced run's replay. Logged requests are re-run in-process on the
//! same graph, timing each layer's public entry point from here (the
//! program itself is not instrumented); commits are re-run in order
//! against a fresh journal. Every timed call becomes a span whose parent
//! is the request it serves.

use std::path::Path;
use std::time::Instant;

use gpml_core::eval::ExecProfile;
use gpml_server::protocol::Response;
use gpml_storage::{GraphJournal, Mutation};
use gql::{codec, QueryResult, ResultCursor};
use property_graph::PropertyGraph;

use crate::drive::{dir_sizes, CommitLog, ReadLog};
use crate::gates::{params, pattern, session};
use crate::util::{jnum, jstr, percentile, sorted, us, Rng};
use crate::workload::{self, Req, Traffic, FETCH_CHUNK};

/// Logged reads replayed per traced run (a seeded sample).
pub const REPLAY_READS: usize = 100;

/// Runs per replayed read when isolating the projection.
const PROJECT_REPS: usize = 3;

/// Commits replayed per traced run.
pub const REPLAY_COMMITS: usize = 40;

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Share of this span's time its parent actually spent on it (a
    /// `QUERY` only compiles on a plan-cache miss, so its compile spans
    /// count at the measured miss ratio).
    pub weight: f64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        clock: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_us: us(start - clock),
            end_us: us(end - clock),
            parent,
            request,
            weight: 1.0,
        });
        self.spans.len() - 1
    }

    /// Self time per span: its duration minus the weighted durations of
    /// its children.
    pub fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur() * s.weight;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur() - c)
            .collect()
    }

    /// Per span name: count, total and median self time (µs).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self.self_times();
        let mut by: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
        for (s, t) in self.spans.iter().zip(selfs) {
            by.entry(s.name).or_default().push(t);
        }
        by.into_iter()
            .map(|(n, v)| {
                let total = v.iter().sum();
                (n, v.len(), total, percentile(&sorted(v), 0.5))
            })
            .collect()
    }

    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header},\n\"spans\": [\n");
        for (i, (s, self_us)) in self.spans.iter().zip(self.self_times()).enumerate() {
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"request\": {}, \"weight\": {}, \"self_us\": {}}}{}\n",
                jstr(s.name),
                jnum(s.start_us),
                jnum(s.end_us),
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request,
                jnum(s.weight),
                jnum(self_us),
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("],\n\"self_time\": [\n");
        let summary = self.summary();
        for (i, (name, n, total, p50)) in summary.iter().enumerate() {
            out.push_str(&format!(
                "{{\"name\": {}, \"count\": {n}, \"total_us\": {}, \"p50_us\": {}}}{}\n",
                jstr(name),
                jnum(*total),
                jnum(*p50),
                if i + 1 < summary.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Per-layer samples gathered by the replay.
#[derive(Default)]
pub struct Layers {
    pub parse_us: Vec<f64>,
    pub prepare_us: Vec<f64>,
    pub cost_us: Vec<f64>,
    pub match_us: Vec<f64>,
    pub project_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub encoded_bytes: Vec<f64>,
    pub fetch_us: Vec<f64>,
    pub wire_us: Vec<f64>,
    pub bytes_out: Vec<f64>,
    pub frames_out: Vec<f64>,
    /// `ExecProfile` totals summed over the replayed reads.
    pub nodes: u64,
    pub edges: u64,
    pub instrs: u64,
    pub pruned: u64,
    pub truncations: u64,
    pub rows: u64,
    pub mismatches: u64,
    pub clone_ms: Vec<f64>,
    pub stats_ms: Vec<f64>,
    pub apply_us: Vec<f64>,
    pub append_us: Vec<f64>,
    pub fsync_us: Vec<f64>,
    pub swap_us: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub commits: usize,
    pub storage_bytes: u64,
    pub user_bytes: u64,
}

/// Replays a seeded sample of `reads` on `g`. `miss_ratio` is the run's
/// measured plan-cache miss ratio (the share of `QUERY`s that compiled).
pub fn reads(
    traffic: &Traffic,
    g: &PropertyGraph,
    reads: &[ReadLog],
    miss_ratio: f64,
    trace: &mut Trace,
    layers: &mut Layers,
) {
    let mut idx: Vec<usize> = (0..reads.len()).collect();
    Rng::new(traffic.seed, 0x7E91A7).shuffle(&mut idx);
    idx.truncate(REPLAY_READS);
    idx.sort_unstable();
    let s = session();
    // Prime the lazily built statistics, as the server's first request did.
    g.stats();
    let opts = gpml_core::EvalOptions::default();
    let clock = Instant::now();
    for &i in &idx {
        let log = &reads[i];
        let req = &log.req;
        let text = req.text(&traffic.skeletons);
        let p = params(req);
        let root = trace.spans.len();
        trace.spans.push(Span {
            name: "request",
            start_us: log.start_us,
            end_us: log.end_us,
            parent: None,
            request: log.id,
            weight: 1.0,
        });
        // Compile: the parser alone, then the whole uncached prepare.
        let t0 = Instant::now();
        let pat = pattern(text);
        let t1 = Instant::now();
        let prepared = s.prepare_uncached(text);
        let t2 = Instant::now();
        let (Ok(pat), Ok(prepared)) = (pat, prepared) else {
            layers.mismatches += 1;
            continue;
        };
        let compiles = matches!(req, Req::Query { .. });
        let gp = trace.push(
            "gql.prepare",
            t1,
            t2,
            compiles.then_some(root),
            log.id,
            clock,
        );
        trace.spans[gp].weight = miss_ratio;
        let ps = trace.push("parser.parse", t0, t1, Some(gp), log.id, clock);
        // `parser.parse` ran outside `gql.prepare`'s interval; it stands
        // for the parse inside it.
        trace.spans[ps].start_us = trace.spans[gp].start_us;
        trace.spans[ps].end_us = trace.spans[gp].start_us + us(t1 - t0);
        layers.parse_us.push(us(t1 - t0));
        layers.prepare_us.push((us(t2 - t1) - us(t1 - t0)).max(0.0));
        // Match: the core plan of the same pattern, with its cost report.
        let Ok(core) = gpml_core::prepare(&pat, &opts) else {
            layers.mismatches += 1;
            continue;
        };
        let profile = ExecProfile::new(core.plan().stage_count());
        let t3 = Instant::now();
        let _report = core.cost_report_with(g, &p);
        let t4 = Instant::now();
        let matched = core.execute_with_profile(g, &p, &profile);
        let t5 = Instant::now();
        // The full execution (match + projection + ORDER BY) as served.
        let result = s.execute_prepared_profiled_on(g, &prepared, &p, None);
        let t6 = Instant::now();
        let (Ok(_), Ok(result)) = (matched, result) else {
            layers.mismatches += 1;
            continue;
        };
        if !traffic.oracle.check(req.expect(), &result) {
            layers.mismatches += 1;
        }
        // Projection is the small difference of two large times: take
        // each side's fastest of a few alternating runs.
        let (mut best_match, mut best_exec) = (t5 - t4, t6 - t5);
        for _ in 1..PROJECT_REPS {
            let t = Instant::now();
            let _ = core.execute_with(g, &p);
            let u = Instant::now();
            let _ = s.execute_prepared_profiled_on(g, &prepared, &p, None);
            best_match = best_match.min(u - t);
            best_exec = best_exec.min(u.elapsed());
        }
        let ex = trace.push("gql.execute", t5, t6, Some(root), log.id, clock);
        let m = trace.push("eval.match", t4, t5, Some(ex), log.id, clock);
        trace.push("cost.report", t3, t4, Some(m), log.id, clock);
        layers.cost_us.push(us(t4 - t3));
        layers.match_us.push(us(t5 - t4));
        layers.project_us.push(us(best_exec) - us(best_match));
        let (n, e, pr, ins, tr) = profile.totals();
        layers.nodes += n;
        layers.edges += e;
        layers.pruned += pr;
        layers.instrs += ins;
        layers.truncations += tr;
        layers.rows += result.len() as u64;
        // Encode, then the cursor drain (one chunk when not a cursor).
        let t7 = Instant::now();
        let encoded = codec::encode_result(&result);
        let t8 = Instant::now();
        layers.encode_us.push(us(t8 - t7));
        layers.encoded_bytes.push(encoded.len() as f64);
        trace.push("gql.encode", t7, t8, Some(root), log.id, clock);
        let cursor = matches!(req, Req::Query { cursor: true, .. });
        let chunk = if cursor {
            FETCH_CHUNK as usize
        } else {
            result.len().max(1)
        };
        let mut cur = ResultCursor::new(result.clone());
        let mut chunks = Vec::new();
        let t9 = Instant::now();
        loop {
            // No replayed chunk comes near the server's frame-cap budget.
            let batch = cur.fetch_bounded(chunk, usize::MAX);
            let more = !cur.is_done();
            chunks.push((batch, more));
            if !more {
                break;
            }
        }
        let t10 = Instant::now();
        layers.fetch_us.push(us(t10 - t9));
        if cursor {
            trace.push("gql.fetch", t9, t10, Some(root), log.id, clock);
        }
        let (bytes, frames) = wire_bytes(&result, cursor, chunks);
        layers.bytes_out.push(bytes as f64);
        layers.frames_out.push(frames as f64);
        let server_us = us(t6 - t5)
            + us(t8 - t7)
            + if cursor { us(t10 - t9) } else { 0.0 }
            + if compiles {
                miss_ratio * us(t2 - t1)
            } else {
                0.0
            };
        layers.wire_us.push(log.end_us - log.start_us - server_us);
    }
}

/// Bytes and frames the server writes for `result` (4-byte length prefix
/// per frame), serialized by the server's own protocol code.
fn wire_bytes(
    result: &QueryResult,
    cursor: bool,
    chunks: Vec<(QueryResult, bool)>,
) -> (usize, usize) {
    if !cursor {
        return (Response::Result(result.clone()).serialize().len() + 4, 1);
    }
    let open = Response::Cursor {
        cursor: 1,
        total: result.len() as u64,
        columns: result.columns.clone(),
    };
    let mut bytes = open.serialize().len() + 4;
    let frames = 1 + chunks.len();
    for (batch, more) in chunks {
        bytes += Response::Rows {
            cursor: 1,
            batch,
            more,
        }
        .serialize()
        .len()
            + 4;
    }
    (bytes, frames)
}

/// Replays `batches` in order against a fresh durable journal in `dir`
/// seeded with `boot`, splitting each commit into clone, apply, append,
/// fsync, swap, compaction and the first statistics build of the new
/// epoch.
pub fn commits(
    boot: &PropertyGraph,
    batches: &[(u64, Vec<Mutation>)],
    dir: &Path,
    snapshot_every: u64,
    trace: &mut Trace,
    layers: &mut Layers,
) -> std::io::Result<Vec<CommitLog>> {
    let journal = GraphJournal::open(dir, boot.clone(), true, snapshot_every)?;
    let mut acked = Vec::with_capacity(batches.len());
    journal.snapshot().stats();
    let clock = Instant::now();
    for (k, batch) in batches {
        let request = (1 << 48) + k;
        // Clone and apply outside the journal, to split its
        // `apply_us` (which covers both) into its two halves.
        let base = journal.snapshot();
        let t0 = Instant::now();
        let mut copy = (*base).clone();
        let t1 = Instant::now();
        for m in batch {
            m.apply(&mut copy)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let t2 = Instant::now();
        drop(copy);
        drop(base);
        let t3 = Instant::now();
        let (epoch, _, timings) = journal
            .commit_timed(batch)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        acked.push(CommitLog {
            k: *k,
            batch: batch.clone(),
            epoch,
        });
        let t4 = Instant::now();
        journal.snapshot().stats();
        let t5 = Instant::now();
        let (clone_us, apply_us) = (us(t1 - t0), us(t2 - t1));
        layers.clone_ms.push(clone_us / 1e3);
        layers.apply_us.push(apply_us);
        layers.append_us.push(timings.append_us as f64);
        layers.fsync_us.push(timings.fsync_us as f64);
        layers.swap_us.push(timings.swap_us as f64);
        if timings.compact_us > 0 {
            layers.compact_ms.push(timings.compact_us as f64 / 1e3);
        }
        layers.stats_ms.push(us(t5 - t4) / 1e3);
        layers.user_bytes += workload::encoded_len(batch) as u64;
        let root = trace.push("commit", t3, t5, None, request, clock);
        // Children laid end to end from the commit's start, in the order
        // the journal runs them; clone and apply are the ones measured
        // above.
        let mut at = trace.spans[root].start_us;
        for (name, dur) in [
            ("graph.clone", clone_us),
            ("storage.apply", apply_us),
            ("storage.append", timings.append_us as f64),
            ("storage.fsync", timings.fsync_us as f64),
            ("storage.swap", timings.swap_us as f64),
            ("storage.compact", timings.compact_us as f64),
            ("graph.stats_rebuild", us(t5 - t4)),
        ] {
            trace.spans.push(Span {
                name,
                start_us: at,
                end_us: at + dur,
                parent: Some(root),
                request,
                weight: 1.0,
            });
            at += dur;
        }
    }
    layers.commits = batches.len();
    layers.storage_bytes = dir_sizes(dir).values().sum();
    Ok(acked)
}
