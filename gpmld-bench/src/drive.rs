//! The wire side: booting gpmld, the closed-loop readers, the open-loop
//! writer, STATS scrapes, and the short probes that give every workload
//! a FETCH and a COMMIT latency.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpml_core::Params;
use gpml_datagen::TransferNetworkConfig;
use gpml_server::client::{stat, Client, ClientError, MutateAck};
use gpml_server::server::{serve, ServerConfig, ServerHandle};
use gpml_storage::Mutation;
use gql::QueryResult;
use property_graph::PropertyGraph;

use crate::util::{ms, Rng};
use crate::workload::{self, Req, Traffic, Workload, FETCH_CHUNK};

/// Set-up is repeated at least [`MIN_SETUP_REPS`] times and, while the
/// repetitions have taken less than [`SETUP_BUDGET`], up to
/// [`MAX_SETUP_REPS`] times; `setup_s` is the median. Cheap set-ups thus
/// get enough repetitions for a steady median.
const MIN_SETUP_REPS: usize = 7;
const MAX_SETUP_REPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// `read-write-mix` writer: one commit every this many milliseconds.
pub const WRITER_PERIOD_MS: u64 = 100;

/// `read-write-mix` compaction threshold: a 30 s run completes several
/// snapshot + WAL-truncate cycles (about one per 80 commits).
pub const SNAPSHOT_EVERY_BYTES: u64 = 48 << 10;

/// Compaction threshold of the traced run's commit replay, small enough
/// that its 40 commits include compactions.
pub const REPLAY_SNAPSHOT_EVERY_BYTES: u64 = 8 << 10;

/// One response in this many is kept for the post-run in-process check.
const SAMPLE_EVERY: usize = 32;

pub fn server_config(workload: Workload, data_dir: Option<PathBuf>) -> ServerConfig {
    let mut config = ServerConfig {
        // Set explicitly everywhere so `GPML_DATA_DIR` cannot leak in.
        data_dir,
        ..ServerConfig::default()
    };
    if workload.writes() {
        config.snapshot_every_bytes = SNAPSHOT_EVERY_BYTES;
    }
    config
}

/// A booted server plus a copy of the graph it was seeded with.
pub struct Booted {
    pub handle: ServerHandle,
    pub graph: PropertyGraph,
    pub data_dir: Option<PathBuf>,
    /// Per repetition: graph generation, and boot up to the first
    /// accepted request (`HELLO`), in seconds.
    pub gen_s: Vec<f64>,
    pub boot_s: Vec<f64>,
}

/// Generates the graph and boots the server repeatedly (see
/// [`MIN_SETUP_REPS`]), keeping the last server. Each repetition is timed from the start of
/// generation to the first accepted request; the copy of the graph kept
/// for the oracles is made outside the timed span.
pub fn setup(workload: Workload, cfg: TransferNetworkConfig, run_dir: &Path) -> io::Result<Booted> {
    let mut gen_s = Vec::new();
    let mut boot_s = Vec::new();
    let mut last = None;
    let started = Instant::now();
    for rep in 0.. {
        let final_rep = rep + 1 >= MIN_SETUP_REPS
            && (started.elapsed() >= SETUP_BUDGET || rep + 1 >= MAX_SETUP_REPS);
        let data_dir = workload
            .writes()
            .then(|| run_dir.join(format!("data{rep}")));
        let t = Instant::now();
        let g = gpml_datagen::transfer_network(cfg);
        gen_s.push(t.elapsed().as_secs_f64());
        let keep = final_rep.then(|| g.clone());
        let t = Instant::now();
        let handle = serve(g, server_config(workload, data_dir.clone()))?;
        let mut c = Client::connect(handle.addr())?;
        c.hello("gpmld-bench").map_err(io::Error::other)?;
        boot_s.push(t.elapsed().as_secs_f64());
        drop(c);
        match keep {
            Some(graph) => {
                last = Some((handle, graph, data_dir));
                break;
            }
            None => {
                handle.stop();
                if let Some(d) = &data_dir {
                    std::fs::remove_dir_all(d)?;
                }
            }
        }
    }
    let (handle, graph, data_dir) = last.expect("the loop ends on a kept repetition");
    Ok(Booted {
        handle,
        graph,
        data_dir,
        gen_s,
        boot_s,
    })
}

/// A reader connection with every skeleton prepared.
pub struct Conn {
    client: Client,
    handles: Vec<u64>,
}

impl Conn {
    pub fn open(addr: std::net::SocketAddr, traffic: &Traffic) -> Result<Conn, ClientError> {
        let mut client = Client::connect(addr)?;
        let handles = traffic
            .skeletons
            .iter()
            .map(|s| client.prepare(s).map(|h| h.handle))
            .collect::<Result<_, _>>()?;
        Ok(Conn { client, handles })
    }

    /// Sends one logical request (a cursor query includes its FETCHes),
    /// pushing each round trip's latency into `lat`, stamped with its
    /// completion time since `start`.
    pub fn send(&mut self, req: &Req, lat: &mut Lat, start: Instant) -> Sent {
        let mut ops = 1;
        let result = (|| match req {
            Req::Execute { stmt, owner, .. } => {
                let params = Params::new().with("owner", owner.as_str());
                let t = Instant::now();
                let r = self.client.execute(self.handles[*stmt], &params);
                lat.execute.push(Sample::since(t, start));
                r
            }
            Req::Query {
                text,
                cursor: false,
                ..
            } => {
                let t = Instant::now();
                let r = self.client.query(text);
                lat.query.push(Sample::since(t, start));
                r
            }
            Req::Query {
                text, cursor: true, ..
            } => {
                let t = Instant::now();
                let h = self.client.query_cursor(text)?;
                lat.query.push(Sample::since(t, start));
                let mut result = QueryResult {
                    columns: h.columns,
                    rows: Vec::new(),
                };
                loop {
                    ops += 1;
                    let t = Instant::now();
                    let chunk = self.client.fetch(h.cursor, FETCH_CHUNK)?;
                    lat.fetch.push(Sample::since(t, start));
                    result.rows.extend(chunk.batch.rows);
                    if !chunk.more {
                        return Ok(result);
                    }
                }
            }
        })();
        Sent { ops, result }
    }
}

pub struct Sent {
    /// Round trips attempted (1, or 1 + FETCHes for a cursor query).
    pub ops: u64,
    pub result: Result<QueryResult, ClientError>,
}

/// One round trip: its latency, and when it completed.
#[derive(Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    /// Seconds from the phase start to completion.
    pub at: f64,
}

impl Sample {
    /// A round trip timed from `from` (when it was sent; for the
    /// open-loop writer, when it was due) to now.
    pub fn since(from: Instant, start: Instant) -> Sample {
        let now = Instant::now();
        Sample {
            ms: ms(now.saturating_duration_since(from)),
            at: now.saturating_duration_since(start).as_secs_f64(),
        }
    }
}

/// Round trips per operation.
#[derive(Default, Clone)]
pub struct Lat {
    pub execute: Vec<Sample>,
    pub query: Vec<Sample>,
    pub fetch: Vec<Sample>,
    pub commit: Vec<Sample>,
}

impl Lat {
    fn extend(&mut self, o: Lat) {
        self.execute.extend(o.execute);
        self.query.extend(o.query);
        self.fetch.extend(o.fetch);
        self.commit.extend(o.commit);
    }
}

/// One logged read request of a traced phase (times in µs from the
/// phase start).
#[derive(Clone)]
pub struct ReadLog {
    pub id: u64,
    pub req: Req,
    pub start_us: f64,
    pub end_us: f64,
    pub rows: usize,
}

/// One acknowledged writer commit.
#[derive(Clone)]
pub struct CommitLog {
    pub k: u64,
    pub batch: Vec<Mutation>,
    pub epoch: u64,
}

/// Counts of one phase (or of gates): operations attempted, those that
/// failed or answered wrongly, and the typed `ERR` replies among them.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub server_errors: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.server_errors += o.server_errors;
    }

    /// Books one request's outcome; returns the result when it is right.
    pub fn book(
        &mut self,
        sent: Sent,
        check: impl FnOnce(&QueryResult) -> bool,
        errors: &mut Vec<String>,
        what: &dyn Fn() -> String,
    ) -> Option<QueryResult> {
        self.attempted += sent.ops;
        match sent.result {
            Ok(r) if check(&r) => Some(r),
            Ok(_) => {
                self.failed += 1;
                note(errors, format!("wrong answer: {}", what()));
                None
            }
            Err(e) => {
                if matches!(e, ClientError::Server { .. }) {
                    self.server_errors += 1;
                }
                self.failed += 1;
                note(errors, format!("{e}: {}", what()));
                None
            }
        }
    }
}

pub fn note(errors: &mut Vec<String>, e: String) {
    if errors.len() < 8 {
        errors.push(e);
    }
}

/// One `STATS` reply: key/value pairs.
pub type Stats = Vec<(String, String)>;

/// What one timed phase measured.
#[derive(Default)]
pub struct Phase {
    pub seconds: f64,
    pub lat: Lat,
    /// Reader round trips completed (the throughput numerator).
    pub completed: u64,
    /// Seconds from the phase start to the end of each pass over the
    /// request mix (see [`crate::workload::Gen::next`]); for a probe
    /// phase, of each probe round. Windows start and end on these.
    pub passes: Vec<f64>,
    pub tally: Tally,
    pub errors: Vec<String>,
    pub reads: Vec<ReadLog>,
    pub commits: Vec<CommitLog>,
    pub writer_late_ms: Vec<f64>,
    /// Seeded sample of (request, wire answer) for the in-process check.
    pub sampled: Vec<(Req, QueryResult)>,
    /// STATS before and after the phase.
    pub stats: (Stats, Stats),
}

impl Phase {
    /// `after - before` of a STATS counter.
    pub fn delta(&self, key: &str) -> u64 {
        let get = |s: &[(String, String)]| stat(s, key).unwrap_or(0);
        get(&self.stats.1).saturating_sub(get(&self.stats.0))
    }

    pub fn base(&self, key: &str) -> u64 {
        stat(&self.stats.0, key).unwrap_or(0)
    }
}

/// Open-loop writer settings for a phase.
pub struct Writer {
    pub period: Duration,
    /// Next batch number (batch names stay unique across phases).
    pub next_k: u64,
}

/// Operations a workload lacks, measured by a probe client alone on the
/// server after the measured phase.
#[derive(Clone, Copy, Default)]
pub struct Probe {
    /// Point lookups opened as `QUERY … CURSOR`, drained one row per
    /// `FETCH`.
    pub fetch: bool,
    /// Closed-loop writer-shaped commits.
    pub commit: bool,
}

/// Runs the workload's clients against `addr` for `seconds`. With
/// `traced`, every read is logged for the replay. `writer` adds the
/// open-loop committer. A `probe` runs the probe client instead of the
/// readers.
pub fn run_phase(
    addr: std::net::SocketAddr,
    traffic: &Traffic,
    phase: u64,
    seconds: f64,
    traced: bool,
    writer: Option<&mut Writer>,
    probe: Probe,
) -> Phase {
    let mut control = Client::connect(addr).expect("control connection");
    let before = control.stats().unwrap_or_default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut out = Phase::default();
    std::thread::scope(|s| {
        let probing = probe.fetch || probe.commit;
        let readers_n = if probing {
            0
        } else {
            traffic.workload.readers()
        };
        let readers: Vec<_> = (0..readers_n as u64)
            .map(|conn| {
                s.spawn(move || reader(addr, traffic, conn, phase, start, deadline, traced))
            })
            .collect();
        let writer_thread = writer.map(|w| {
            let accounts = traffic.accounts;
            let seed = traffic.seed;
            s.spawn(move || write_loop(addr, accounts, seed, phase, start, deadline, w))
        });
        let probe_thread =
            probing.then(|| s.spawn(move || probe_loop(addr, traffic, probe, start, deadline)));
        for r in readers {
            let r = r.join().expect("reader thread panicked");
            out.lat.extend(r.lat);
            out.completed += r.completed;
            out.passes.extend(r.passes);
            out.tally.add(r.tally);
            out.errors.extend(r.errors);
            out.reads.extend(r.reads);
            out.sampled.extend(r.sampled);
        }
        if let Some(w) = writer_thread {
            let w = w.join().expect("writer thread panicked");
            out.lat.commit = w.lat;
            out.tally.add(w.tally);
            out.errors.extend(w.errors);
            out.commits = w.commits;
            out.writer_late_ms = w.late_ms;
        }
        if let Some(p) = probe_thread {
            let (lat, passes, tally, errors) = p.join().expect("probe thread panicked");
            out.lat.extend(lat);
            out.passes = passes;
            out.tally.add(tally);
            out.errors.extend(errors);
        }
    });
    out.seconds = start.elapsed().as_secs_f64();
    let after = control.stats().unwrap_or_default();
    out.stats = (before, after);
    out.reads.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    out
}

#[derive(Default)]
struct ReaderOut {
    lat: Lat,
    completed: u64,
    passes: Vec<f64>,
    tally: Tally,
    errors: Vec<String>,
    reads: Vec<ReadLog>,
    sampled: Vec<(Req, QueryResult)>,
}

fn reader(
    addr: std::net::SocketAddr,
    traffic: &Traffic,
    conn: u64,
    phase: u64,
    start: Instant,
    deadline: Instant,
    traced: bool,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut c = match Conn::open(addr, traffic) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.failed += 1;
            note(&mut out.errors, format!("connect/prepare: {e}"));
            return out;
        }
    };
    let mut gen = traffic.generator(conn, phase);
    let mut pick = Rng::new(traffic.seed, 0x5A3 + conn + 16 * phase);
    let mut id = conn << 40;
    while Instant::now() < deadline {
        let (req, pass_ends) = gen.next(traffic);
        let t0 = start.elapsed();
        let sent = c.send(&req, &mut out.lat, start);
        let t1 = start.elapsed();
        if pass_ends {
            out.passes.push(t1.as_secs_f64());
        }
        let ops = sent.ops;
        let broken = matches!(sent.result, Err(ClientError::Io(_)));
        let what = || req.literal(&traffic.skeletons);
        let ok = out.tally.book(
            sent,
            |r| traffic.oracle.check(req.expect(), r),
            &mut out.errors,
            &what,
        );
        if let Some(r) = ok {
            out.completed += ops;
            if traced {
                out.reads.push(ReadLog {
                    id,
                    req: req.clone(),
                    start_us: t0.as_secs_f64() * 1e6,
                    end_us: t1.as_secs_f64() * 1e6,
                    rows: r.len(),
                });
            }
            if pick.below(SAMPLE_EVERY) == 0 {
                out.sampled.push((req, r));
            }
        }
        id += 1;
        if broken {
            break;
        }
    }
    out
}

#[derive(Default)]
struct WriterOut {
    lat: Vec<Sample>,
    late_ms: Vec<f64>,
    tally: Tally,
    errors: Vec<String>,
    commits: Vec<CommitLog>,
}

/// The open-loop writer: commit `i` is due at `start + i * period`
/// whatever happened to earlier ones, and its latency runs from that due
/// time to the ack, so a stall is charged to every commit queued behind
/// it.
fn write_loop(
    addr: std::net::SocketAddr,
    accounts: usize,
    seed: u64,
    phase: u64,
    start: Instant,
    deadline: Instant,
    w: &mut Writer,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut rng = Rng::new(seed, 0x3717E + phase);
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.attempted += 1;
            out.tally.failed += 1;
            note(&mut out.errors, format!("writer connect: {e}"));
            return out;
        }
    };
    for i in 0.. {
        let due = start + w.period * i;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late_ms.push(ms(Instant::now() - due));
        let k = w.next_k;
        w.next_k += 1;
        let batch = workload::write_batch(k, accounts, &mut rng);
        out.tally.attempted += 1;
        match commit(&mut c, &batch) {
            Ok(epoch) => {
                out.lat.push(Sample::since(due, start));
                out.commits.push(CommitLog { k, batch, epoch });
            }
            Err(e) => {
                if matches!(e, ClientError::Server { .. }) {
                    out.tally.server_errors += 1;
                }
                out.tally.failed += 1;
                note(&mut out.errors, format!("commit {k}: {e}"));
                break;
            }
        }
    }
    out
}

/// `BEGIN`, one queued mutation per round trip, `COMMIT`; returns the
/// acknowledged epoch.
pub fn commit(c: &mut Client, batch: &[Mutation]) -> Result<u64, ClientError> {
    c.begin()?;
    for m in batch {
        match c.mutate(m.clone())? {
            MutateAck::Queued { .. } => {}
            MutateAck::Committed(_) => {
                return Err(ClientError::Protocol(
                    "mutation committed outside BEGIN".into(),
                ))
            }
        }
    }
    Ok(c.commit()?.epoch)
}

/// The probe client: until `deadline`, alternately one probed cursor
/// and one probed commit (whichever `probe` asks for).
fn probe_loop(
    addr: std::net::SocketAddr,
    traffic: &Traffic,
    probe: Probe,
    start: Instant,
    deadline: Instant,
) -> (Lat, Vec<f64>, Tally, Vec<String>) {
    let mut lat = Lat::default();
    let mut passes = Vec::new();
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    let mut c = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.failed += 1;
            note(&mut errors, format!("probe connect: {e}"));
            return (lat, passes, tally, errors);
        }
    };
    let mut rng = Rng::new(traffic.seed, 0xC0AA17);
    for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        if probe.fetch {
            let i = rng.below(traffic.accounts);
            let text = workload::inline_owner(workload::POINT_SKELETON, &workload::owner(i));
            let result = (|| {
                tally.attempted += 1;
                let h = c.query_cursor(&text)?;
                let mut rows = QueryResult {
                    columns: h.columns,
                    rows: Vec::new(),
                };
                loop {
                    tally.attempted += 1;
                    let t = Instant::now();
                    let chunk = c.fetch(h.cursor, 1)?;
                    lat.fetch.push(Sample::since(t, start));
                    rows.rows.extend(chunk.batch.rows);
                    if !chunk.more {
                        return Ok::<_, ClientError>(rows);
                    }
                }
            })();
            match result {
                Ok(r) if traffic.oracle.check(workload::Expect::Owner(i), &r) => {}
                Ok(_) => {
                    tally.failed += 1;
                    note(&mut errors, format!("fetch probe: wrong answer for {text}"));
                }
                Err(e) => {
                    tally.failed += 1;
                    note(&mut errors, format!("fetch probe: {e}"));
                    break;
                }
            }
        }
        if probe.commit {
            let batch = workload::probe_batch(k, traffic.accounts, &mut rng);
            tally.attempted += 1;
            let t = Instant::now();
            match commit(&mut c, &batch) {
                Ok(_) => lat.commit.push(Sample::since(t, start)),
                Err(e) => {
                    tally.failed += 1;
                    note(&mut errors, format!("commit probe: {e}"));
                    break;
                }
            }
        }
        passes.push(start.elapsed().as_secs_f64());
    }
    (lat, passes, tally, errors)
}

/// Sizes of the files under a data directory, by file name.
pub fn dir_sizes(dir: &Path) -> BTreeMap<String, u64> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let len = e.metadata().ok()?.len();
            Some((e.file_name().to_string_lossy().into_owned(), len))
        })
        .collect()
}

/// Copies the regular files of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}
