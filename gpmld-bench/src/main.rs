//! The gpmld benchmark.
//!
//! ```text
//! gpmld-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! gpmld-bench --self-test
//! ```
//!
//! Each run boots a real in-process gpmld (`gpml_server::server::serve`,
//! `ServerConfig::default()` apart from the graph and, for
//! `read-write-mix`, a data directory), drives it over loopback through
//! `gpml_server::client::Client`, checks every answer, and prints a
//! report followed by one JSON line: with `--trace 0` the end-to-end
//! metrics, with `--trace 1` the per-layer metrics of a traced run of the
//! same workload and seed. See `LAYERS.md` for which layer metric should
//! move which end-to-end metric on which workload.

mod drive;
mod gates;
mod replay;
mod util;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use drive::{Phase, Probe, Sample, Tally, Writer};
use util::{jnum, jstr, median, percentile, sorted, supports};
use workload::{Traffic, Workload};

/// End-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: &[&str] = &[
    "throughput_rps",
    "execute_p50_ms",
    "query_p50_ms",
    "fetch_p50_ms",
    "commit_p50_ms",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics of the traced run, as listed in `BENCHMARK.json`.
const PER_LAYER: &[&str] = &[
    "datagen.generate_s",
    "server.boot_s",
    "parser.parse_us_p50",
    "plan.prepare_us_p50",
    "plan.cache_hit_ratio",
    "plan.cache_hits",
    "plan.cache_misses",
    "cost.report_us_p50",
    "eval.match_us_p50",
    "eval.nodes_expanded_per_req",
    "eval.edges_traversed_per_req",
    "eval.instrs_dispatched_per_req",
    "eval.rows_pruned_per_req",
    "eval.backtrack_truncations_per_req",
    "eval.rows_per_node_expanded",
    "gql.project_us_p50",
    "gql.encode_us_p50",
    "gql.encoded_bytes_per_req",
    "gql.fetch_us_p50",
    "graph.clone_ms_p50",
    "graph.stats_rebuild_ms_p50",
    "storage.apply_us_p50",
    "storage.append_us_p50",
    "storage.fsync_us_p50",
    "storage.swap_us_p50",
    "storage.compact_ms_max",
    "storage.compactions",
    "storage.bytes_per_user_byte",
    "server.wire_us_p50",
    "server.bytes_out_per_req",
    "server.frames_out_per_req",
    "bench.trace_overhead",
];

/// Target number of windows in a phase. Interference from the rest of a
/// shared host only ever slows a stretch of time down, and on the 2-core
/// reference host it comes and goes within seconds. So a phase is cut
/// into windows of whole passes over its request mix (each window holds
/// the same mix), and a run reports the median rate and median latency
/// of its best quarter of windows, and tails over that quarter; a change
/// to the program shifts every window and still shows.
const WINDOWS: usize = 48;

/// Untimed warm-up before the measured phase.
const WARMUP_SECONDS: f64 = 1.0;

/// Length of each phase after the measured one in which a probe client
/// alone measures `FETCH` or `COMMIT` for workloads that lack them.
const PROBE_SECONDS: f64 = 4.0;

/// The CPU the process is confined to, if it could be (see
/// [`util::pin_to_one_cpu`]).
static PINNED: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

/// Where reports, span files and scratch data dirs go (inside the
/// checkout the benchmark runs from).
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: gpmld-bench --workload <point-lookup|path-analytics|read-write-mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       gpmld-bench --self-test";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Mode::SelfTest);
        }
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
    }))
}

fn main() -> ExitCode {
    PINNED.set(util::pin_to_one_cpu()).expect("set once");
    match parse_args() {
        Err(e) => {
            eprintln!("gpmld-bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::SelfTest) => self_test(),
        Ok(Mode::Run(args)) => match run(&args) {
            Ok(report) => {
                print!("{}", report.human());
                println!("{}", report.result_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gpmld-bench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// One metric with its unit, sample count and where it came from.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
    note: String,
}

#[derive(Default)]
struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    metrics: Vec<Metric>,
    /// Inputs and settings of the run, for the record.
    record: Vec<(String, String)>,
    /// STATS deltas of the measured phase: (key, base, delta).
    deltas: Vec<(String, u64, u64)>,
    /// Free-form findings (commit anatomy, p99 attribution).
    findings: Vec<String>,
    tally: Tally,
    errors: Vec<String>,
}

impl Report {
    fn put(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            note: note.to_owned(),
        });
    }

    /// The median of the window medians of `samples` over the best
    /// quarter of `windows` (ranked by median), and the `tail`
    /// percentile of that quarter's samples pooled, in ms.
    fn latency(&mut self, op: &str, samples: &[Sample], windows: &[Window], tail: f64, note: &str) {
        let mut per: Vec<Vec<f64>> = split(samples, windows)
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(sorted)
            .collect();
        per.sort_by(|a, b| percentile(a, 0.5).total_cmp(&percentile(b, 0.5)));
        per.truncate(best_quarter(per.len()));
        let medians: Vec<f64> = per.iter().map(|w| percentile(w, 0.5)).collect();
        let pool = sorted(per.concat());
        let note50 = join_notes("median of the best quarter of windows", note);
        self.put(
            &format!("{op}_p50_ms"),
            median(&medians),
            "ms",
            Some(pool.len()),
            &note50,
        );
        let pct = (tail * 100.0).round();
        let mut note_tail = join_notes("best quarter of the windows", note);
        if !supports(pool.len(), tail) {
            note_tail.push_str(&format!("; fewer than 10 samples beyond p{pct}"));
        }
        let value = percentile(&pool, tail);
        self.put(
            &format!("{op}_p{pct}_ms"),
            value,
            "ms",
            Some(pool.len()),
            &note_tail,
        );
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn error_rate(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    fn human(&self) -> String {
        let mut out = format!(
            "gpmld-bench {} seed={} trace={}\n",
            self.workload, self.seed, self.trace as u8
        );
        for (k, v) in &self.record {
            out.push_str(&format!("  record  {k:<28} {v}\n"));
        }
        for m in &self.metrics {
            let n = m.samples.map(|n| format!("n={n}")).unwrap_or_default();
            out.push_str(&format!(
                "  metric  {:<36} {:>14.4} {:<9} {:<9} {}\n",
                m.name, m.value, m.unit, n, m.note
            ));
        }
        out.push_str(&format!(
            "  metric  {:<36} {:>14.6} {:<9} failed={} attempted={}\n",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.tally.failed,
            self.tally.attempted
        ));
        for (k, base, d) in &self.deltas {
            out.push_str(&format!("  stats   {k:<28} +{d} (base {base})\n"));
        }
        for f in &self.findings {
            out.push_str(&format!("  finding {f}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("  error   {e}\n"));
        }
        out
    }

    /// The last line: exactly the metrics `BENCHMARK.json` names for
    /// this mode.
    fn result_line(&self) -> String {
        let names = if self.trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = names
            .iter()
            .map(|n| {
                let m = self.metrics.iter().find(|m| m.name == *n);
                let (v, u) = m.map_or((f64::NAN, "none"), |m| (m.value, m.unit));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jstr(n),
                    jnum(v),
                    jstr(u)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                    jstr(&m.name),
                    jnum(m.value),
                    jstr(m.unit),
                    m.samples.map_or("null".into(), |n| n.to_string()),
                    jstr(&m.note)
                )
            })
            .collect();
        let record: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
            .collect();
        let deltas: Vec<String> = self
            .deltas
            .iter()
            .map(|(k, b, d)| format!("{{\"key\": {}, \"base\": {b}, \"delta\": {d}}}", jstr(k)))
            .collect();
        let list = |v: &[String]| v.iter().map(|s| jstr(s)).collect::<Vec<_>>().join(", ");
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {},\n\"record\": {{{}}},\n\"metrics\": [\n{}\n],\n\"stats_deltas\": [{}],\n\"findings\": [{}],\n\"errors\": [{}]}}\n",
            jstr(self.workload),
            self.seed,
            self.trace,
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            jnum(self.error_rate()),
            record.join(", "),
            metrics.join(",\n"),
            deltas.join(", "),
            list(&self.findings),
            list(&self.errors)
        )
    }
}

fn join_notes(a: &str, b: &str) -> String {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => b.to_owned(),
        (_, true) => a.to_owned(),
        _ => format!("{a}; {b}"),
    }
}

/// A stretch of a phase, in seconds from its start. A round trip belongs
/// to the window its completion time falls in, the end included.
#[derive(Clone, Copy)]
struct Window {
    from: f64,
    to: f64,
}

/// Cuts a phase at pass ends into windows of at least
/// `seconds / WINDOWS`; the unfinished tail is left out. A phase too
/// short for one window is one window.
fn windows(phase: &Phase) -> Vec<Window> {
    let min = phase.seconds / WINDOWS as f64;
    let mut out = Vec::new();
    let mut from = 0.0;
    for &end in &phase.passes {
        if end - from >= min {
            out.push(Window { from, to: end });
            from = end;
        }
    }
    if out.is_empty() {
        out.push(Window {
            from: 0.0,
            to: phase.seconds,
        });
    }
    out
}

/// Latencies of `samples` per window, by completion time.
fn split(samples: &[Sample], windows: &[Window]) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); windows.len()];
    for s in samples {
        let w = windows.partition_point(|w| w.to < s.at);
        if w < windows.len() && s.at >= windows[w].from {
            out[w].push(s.ms);
        }
    }
    out
}

/// How many of `n` ranked windows make the best quarter.
fn best_quarter(n: usize) -> usize {
    n.div_ceil(4)
}

/// Reader round trips per second in each window.
fn window_rates(phase: &Phase) -> Vec<f64> {
    let ws = windows(phase);
    let lat = &phase.lat;
    let (e, q, f) = (
        split(&lat.execute, &ws),
        split(&lat.query, &ws),
        split(&lat.fetch, &ws),
    );
    ws.iter()
        .enumerate()
        .map(|(i, w)| (e[i].len() + q[i].len() + f[i].len()) as f64 / (w.to - w.from))
        .collect()
}

/// Reader round trips per second: the median of the best quarter of
/// windows.
fn throughput(phase: &Phase) -> f64 {
    let mut rates = window_rates(phase);
    rates.sort_by(|a, b| b.total_cmp(a));
    rates.truncate(best_quarter(rates.len()));
    median(&rates)
}

/// STATS keys whose deltas a phase records.
const DELTA_KEYS: &[&str] = &[
    "cache.hits",
    "cache.misses",
    "exec.nodes_expanded",
    "exec.edges_traversed",
    "exec.rows_pruned",
    "exec.instrs_dispatched",
    "exec.backtrack_truncations",
    "frames.out",
    "requests.query",
    "requests.prepare",
    "requests.execute",
    "requests.fetch",
    "requests.close",
    "requests.mutations",
    "requests.errors",
];

/// Folds a phase into the run's tally and checks that the server's
/// error counter agrees with the client's count of `ERR` replies.
fn absorb(report: &mut Report, phase: &mut Phase, name: &str) {
    report.tally.add(phase.tally);
    report.errors.append(&mut phase.errors);
    let server = phase.delta("requests.errors");
    report.tally.attempted += 1;
    if server != phase.tally.server_errors {
        report.tally.failed += 1;
        drive::note(
            &mut report.errors,
            format!(
                "{name}: STATS requests.errors +{server} but the clients saw {} ERR replies",
                phase.tally.server_errors
            ),
        );
    }
}

fn record_deltas(report: &mut Report, phase: &Phase) {
    report.deltas = DELTA_KEYS
        .iter()
        .map(|k| (k.to_string(), phase.base(k), phase.delta(k)))
        .collect();
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let out_dir = PathBuf::from(OUT_DIR);
    let run_dir = out_dir.join(format!(
        "{}-s{}-t{}-p{}",
        w.name(),
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = run_in(args, &run_dir);
    // Scratch data dirs go whatever happened; reports stay.
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = result?;
    let stem = format!("{}-seed{}-trace{}", w.name(), args.seed, args.trace as u8);
    std::fs::write(out_dir.join(format!("{stem}.json")), report.to_json())
        .map_err(|e| format!("writing report: {e}"))?;
    Ok(report)
}

fn run_in(args: &Args, run_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let cfg = w.graph_config(args.seed, args.tiny);
    let booted = drive::setup(w, cfg, run_dir).map_err(|e| format!("setup: {e}"))?;
    let addr = booted.handle.addr();
    let mut report = Report {
        workload: w.name(),
        seed: args.seed,
        trace: args.trace,
        ..Report::default()
    };
    let mut traffic = Traffic::new(w, args.seed, &booted.graph, cfg.accounts);

    // Gates before timing.
    let mut conn = drive::Conn::open(addr, &traffic).map_err(|e| format!("connect: {e}"))?;
    gates::pre_timing(
        &mut conn,
        &mut traffic,
        &booted.graph,
        &mut report.tally,
        &mut report.errors,
    );
    drop(conn);

    report.record = vec![
        ("seed".into(), args.seed.to_string()),
        ("accounts".into(), cfg.accounts.to_string()),
        ("transfers".into(), cfg.transfers.to_string()),
        ("nodes".into(), booted.graph.node_count().to_string()),
        ("edges".into(), booted.graph.edge_count().to_string()),
        (
            "distinct_texts".into(),
            traffic.distinct_texts().to_string(),
        ),
        ("reader_connections".into(), w.readers().to_string()),
        ("run_seconds".into(), args.seconds.to_string()),
        (
            "cpu".into(),
            match PINNED.get().copied().flatten() {
                Some(cpu) => format!("client and server pinned to cpu {cpu}"),
                None => "not pinned".into(),
            },
        ),
    ];
    if w.writes() {
        report.record.extend([
            (
                "writer".into(),
                format!(
                    "open loop, one commit of {} mutations every {} ms",
                    workload::BATCH_MUTATIONS,
                    drive::WRITER_PERIOD_MS
                ),
            ),
            (
                "snapshot_every_bytes".into(),
                drive::SNAPSHOT_EVERY_BYTES.to_string(),
            ),
            (
                "flush_policy".into(),
                "fsync_on_commit=true (one fsync per commit)".into(),
            ),
        ]);
    } else {
        report
            .record
            .push(("flush_policy".into(), "in-memory journal, no WAL".into()));
    }

    let mut writer = w.writes().then(|| Writer {
        period: Duration::from_millis(drive::WRITER_PERIOD_MS),
        next_k: 0,
    });
    let mut commits = Vec::new();
    let mut sampled = Vec::new();
    let warm = if args.tiny { 0.3 } else { WARMUP_SECONDS };
    let mut warmup = drive::run_phase(
        addr,
        &traffic,
        0,
        warm,
        false,
        writer.as_mut(),
        Probe::default(),
    );
    absorb(&mut report, &mut warmup, "warm-up");
    commits.append(&mut warmup.commits);
    sampled.append(&mut warmup.sampled);

    let gen_s = median(&booted.gen_s);
    let boot_s = median(&booted.boot_s);
    let setup: Vec<f64> = booted
        .gen_s
        .iter()
        .zip(&booted.boot_s)
        .map(|(g, b)| g + b)
        .collect();

    if !args.trace {
        let mut main = drive::run_phase(
            addr,
            &traffic,
            1,
            args.seconds,
            false,
            writer.as_mut(),
            Probe::default(),
        );
        let rss = util::peak_rss_mib();
        absorb(&mut report, &mut main, "timed phase");
        record_deltas(&mut report, &main);
        commits.append(&mut main.commits);
        sampled.append(&mut main.sampled);
        let main_windows = windows(&main);
        let rates: Vec<String> = window_rates(&main)
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect();
        report
            .record
            .push(("throughput_windows_rps".into(), rates.join(" ")));
        report.put(
            "throughput_rps",
            throughput(&main),
            "req/s",
            Some(main.completed as usize),
            "reader round trips per second, median of the best quarter of windows",
        );
        report.latency("execute", &main.lat.execute, &main_windows, 0.99, "");
        report.latency(
            "query",
            &main.lat.query,
            &main_windows,
            0.99,
            "cursor queries: the open",
        );
        let mut probed = |report: &mut Report, probe: Probe, phase: u64| {
            let secs = if args.tiny { 0.5 } else { PROBE_SECONDS };
            let mut p = drive::run_phase(addr, &traffic, phase, secs, false, None, probe);
            absorb(report, &mut p, "probe phase");
            sampled.append(&mut p.sampled);
            p
        };
        let probe_note = "probe client alone, after the measured phase";
        if main.lat.fetch.is_empty() {
            let p = probed(
                &mut report,
                Probe {
                    fetch: true,
                    commit: false,
                },
                4,
            );
            let note = format!("{probe_note}: point lookup as QUERY CURSOR, FETCH 1 row");
            report.latency("fetch", &p.lat.fetch, &windows(&p), 0.99, &note);
        } else {
            report.latency("fetch", &main.lat.fetch, &main_windows, 0.99, "");
        }
        if main.lat.commit.is_empty() {
            let p = probed(
                &mut report,
                Probe {
                    fetch: false,
                    commit: true,
                },
                5,
            );
            let note = format!("{probe_note}: closed loop, 10 SETs per commit, in-memory journal");
            report.latency("commit", &p.lat.commit, &windows(&p), 0.9, &note);
        } else {
            let note = "open loop, from due time to ack";
            report.latency("commit", &main.lat.commit, &main_windows, 0.9, note);
        }
        report.put(
            "setup_s",
            median(&setup),
            "s",
            Some(setup.len()),
            "median of repeated set-ups; generation + boot to first accepted request",
        );
        report.put(
            "peak_rss_mb",
            rss,
            "MiB",
            None,
            "VmHWM of the benchmark process",
        );
        if w.writes() {
            let late = sorted(main.writer_late_ms.clone());
            report.put(
                "bench.writer_late_ms_p99",
                percentile(&late, 0.99),
                "ms",
                Some(late.len()),
                "how late the open-loop writer sent",
            );
        }
    } else {
        let mut a = drive::run_phase(
            addr,
            &traffic,
            1,
            args.seconds / 2.0,
            false,
            writer.as_mut(),
            Probe::default(),
        );
        absorb(&mut report, &mut a, "untraced phase");
        commits.append(&mut a.commits);
        sampled.append(&mut a.sampled);
        let mut b = drive::run_phase(
            addr,
            &traffic,
            2,
            args.seconds / 2.0,
            true,
            writer.as_mut(),
            Probe::default(),
        );
        absorb(&mut report, &mut b, "traced phase");
        record_deltas(&mut report, &b);
        commits.extend(b.commits.iter().cloned());
        sampled.append(&mut b.sampled);
        let reader_only = if w.writes() {
            let mut c = drive::run_phase(
                addr,
                &traffic,
                3,
                (args.seconds / 4.0).min(3.0),
                false,
                None,
                Probe::default(),
            );
            absorb(&mut report, &mut c, "reader-only phase");
            sampled.append(&mut c.sampled);
            Some(c)
        } else {
            None
        };
        per_layer(
            &mut report,
            &traffic,
            &booted,
            &a,
            &b,
            reader_only.as_ref(),
            run_dir,
            args,
        )?;
    }

    if let Some(dir) = &booted.data_dir {
        // Every ack is in; take the on-disk state as a crash would find it.
        let sizes = drive::dir_sizes(dir);
        let user: usize = commits
            .iter()
            .map(|c| workload::encoded_len(&c.batch))
            .sum();
        let on_disk: u64 = sizes.values().sum();
        if !args.trace {
            report.put(
                "storage_bytes_per_user_byte",
                on_disk as f64 / user.max(1) as f64,
                "ratio",
                Some(commits.len()),
                &format!("WAL + snapshot {on_disk} B / mutation bytes {user} B"),
            );
        }
        let copy = run_dir.join("reopen");
        drive::copy_dir(dir, &copy).map_err(|e| format!("copying data dir: {e}"))?;
        gates::durability(
            &copy,
            &booted.graph,
            &commits,
            &mut report.tally,
            &mut report.errors,
        );
        report
            .record
            .push(("commits_acknowledged".into(), commits.len().to_string()));
    }
    gates::sampled(
        &traffic,
        &booted.graph,
        &sampled,
        &mut report.tally,
        &mut report.errors,
    );
    report.record.push((
        "sampled_answers_rechecked".into(),
        sampled.len().to_string(),
    ));
    booted.handle.stop();
    // Last, so its memory stays out of `peak_rss_mb`.
    let baseline_texts = gates::baseline(w, args.seed, &mut report.tally, &mut report.errors);
    report
        .record
        .push(("baseline_texts_checked".into(), baseline_texts.to_string()));
    if report.trace {
        report.put(
            "datagen.generate_s",
            gen_s,
            "s",
            Some(booted.gen_s.len()),
            "median",
        );
        report.put(
            "server.boot_s",
            boot_s,
            "s",
            Some(booted.boot_s.len()),
            "median; serve + journal open + first HELLO",
        );
    }
    Ok(report)
}

/// The traced run's per-layer table: STATS deltas of the traced phase,
/// plus the in-process replay of its logged requests and of commits.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    traffic: &Traffic,
    booted: &drive::Booted,
    a: &Phase,
    b: &Phase,
    reader_only: Option<&Phase>,
    run_dir: &Path,
    args: &Args,
) -> Result<(), String> {
    let hits = b.delta("cache.hits");
    let misses = b.delta("cache.misses");
    let lookups = (hits + misses).max(1) as f64;
    report.put(
        "plan.cache_hit_ratio",
        hits as f64 / lookups,
        "ratio",
        Some((hits + misses) as usize),
        "STATS delta of the traced phase",
    );
    report.put("plan.cache_hits", hits as f64, "count", None, "STATS delta");
    report.put(
        "plan.cache_misses",
        misses as f64,
        "count",
        None,
        "STATS delta",
    );
    let executions = (b.delta("requests.query") + b.delta("requests.execute")).max(1) as f64;
    for (metric, key) in [
        ("eval.nodes_expanded_per_req", "exec.nodes_expanded"),
        ("eval.edges_traversed_per_req", "exec.edges_traversed"),
        ("eval.instrs_dispatched_per_req", "exec.instrs_dispatched"),
        ("eval.rows_pruned_per_req", "exec.rows_pruned"),
        (
            "eval.backtrack_truncations_per_req",
            "exec.backtrack_truncations",
        ),
    ] {
        report.put(
            metric,
            b.delta(key) as f64 / executions,
            "count/req",
            Some(executions as usize),
            "STATS delta / (QUERY + EXECUTE)",
        );
    }
    let rows: usize = b.reads.iter().map(|r| r.rows).sum();
    report.put(
        "eval.rows_per_node_expanded",
        rows as f64 / b.delta("exec.nodes_expanded").max(1) as f64,
        "ratio",
        Some(b.reads.len()),
        "rows returned / nodes expanded, traced phase",
    );
    // Frames of the readers' responses: all of the phase's, less the
    // opening STATS and the writer's (BEGIN, one per mutation, COMMIT).
    let writer_frames: usize = b.commits.iter().map(|c| c.batch.len() + 2).sum();
    report.put(
        "server.frames_out_per_req",
        b.delta("frames.out")
            .saturating_sub(1 + writer_frames as u64) as f64
            / b.completed.max(1) as f64,
        "count/req",
        Some(b.completed as usize),
        "STATS delta / reader round trips",
    );
    let (traced, untraced) = (throughput(b), throughput(a));
    report.put(
        "bench.trace_overhead",
        traced / untraced,
        "ratio",
        None,
        &format!("traced {traced:.1} / untraced {untraced:.1} req/s"),
    );

    let mut trace = replay::Trace::default();
    let mut layers = replay::Layers::default();
    replay::reads(
        traffic,
        &booted.graph,
        &b.reads,
        misses as f64 / lookups,
        &mut trace,
        &mut layers,
    );
    report.tally.attempted += 1;
    if layers.mismatches > 0 {
        report.tally.failed += 1;
        drive::note(
            &mut report.errors,
            format!(
                "{} replayed reads disagree with the oracle",
                layers.mismatches
            ),
        );
    }
    let batches: Vec<(u64, Vec<gpml_storage::Mutation>)> = if traffic.workload.writes() {
        b.commits
            .iter()
            .take(replay::REPLAY_COMMITS)
            .map(|c| (c.k, c.batch.clone()))
            .collect()
    } else {
        let mut rng = util::Rng::new(traffic.seed, 0xC0AA17);
        (0..replay::REPLAY_COMMITS as u64)
            .map(|k| (k, workload::write_batch(k, traffic.accounts, &mut rng)))
            .collect()
    };
    let replay_dir = run_dir.join("replay");
    let acked = replay::commits(
        &booted.graph,
        &batches,
        &replay_dir,
        drive::REPLAY_SNAPSHOT_EVERY_BYTES,
        &mut trace,
        &mut layers,
    )
    .map_err(|e| format!("commit replay: {e}"))?;
    // The replay journal is closed: reopen it as recovery would.
    gates::durability(
        &replay_dir,
        &booted.graph,
        &acked,
        &mut report.tally,
        &mut report.errors,
    );

    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 0.5);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for (name, samples, unit, note) in [
        (
            "parser.parse_us_p50",
            &layers.parse_us,
            "us",
            "Parser::parse_graph_pattern",
        ),
        (
            "plan.prepare_us_p50",
            &layers.prepare_us,
            "us",
            "Session::prepare_uncached minus parse",
        ),
        (
            "cost.report_us_p50",
            &layers.cost_us,
            "us",
            "PreparedQuery::cost_report_with",
        ),
        (
            "eval.match_us_p50",
            &layers.match_us,
            "us",
            "PreparedQuery::execute_with_profile",
        ),
        (
            "gql.project_us_p50",
            &layers.project_us,
            "us",
            "execute_prepared_profiled_on minus match",
        ),
        (
            "gql.encode_us_p50",
            &layers.encode_us,
            "us",
            "codec::encode_result",
        ),
        (
            "gql.fetch_us_p50",
            &layers.fetch_us,
            "us",
            "ResultCursor::fetch_bounded drain",
        ),
        (
            "server.wire_us_p50",
            &layers.wire_us,
            "us",
            "round trip minus replayed server-side layers",
        ),
        (
            "graph.clone_ms_p50",
            &layers.clone_ms,
            "ms",
            "PropertyGraph::clone of the snapshot",
        ),
        (
            "graph.stats_rebuild_ms_p50",
            &layers.stats_ms,
            "ms",
            "first stats() of each new epoch",
        ),
        (
            "storage.apply_us_p50",
            &layers.apply_us,
            "us",
            "Mutation::apply of the batch on a clone of the snapshot",
        ),
        (
            "storage.append_us_p50",
            &layers.append_us,
            "us",
            "CommitTimings",
        ),
        (
            "storage.fsync_us_p50",
            &layers.fsync_us,
            "us",
            "CommitTimings",
        ),
        (
            "storage.swap_us_p50",
            &layers.swap_us,
            "us",
            "CommitTimings",
        ),
    ] {
        report.put(name, p50(samples), unit, Some(samples.len()), note);
    }
    for (name, samples, note) in [
        (
            "gql.encoded_bytes_per_req",
            &layers.encoded_bytes,
            "codec::encode_result, replay",
        ),
        (
            "server.bytes_out_per_req",
            &layers.bytes_out,
            "protocol::Response::serialize + 4-byte prefix",
        ),
    ] {
        report.put(name, mean(samples), "bytes/req", Some(samples.len()), note);
    }
    let replayed = layers.match_us.len();
    for (name, total) in [
        ("replay.nodes_expanded_per_req", layers.nodes),
        ("replay.edges_traversed_per_req", layers.edges),
        ("replay.instrs_dispatched_per_req", layers.instrs),
    ] {
        let per = total as f64 / replayed.max(1) as f64;
        report.put(
            name,
            per,
            "count/req",
            Some(replayed),
            "ExecProfile, replay",
        );
    }
    report.put(
        "replay.rows_per_node_expanded",
        layers.rows as f64 / layers.nodes.max(1) as f64,
        "ratio",
        Some(replayed),
        "ExecProfile, replay",
    );
    let compact_max = layers.compact_ms.iter().cloned().fold(0.0, f64::max);
    report.put(
        "storage.compact_ms_max",
        compact_max,
        "ms",
        Some(layers.compact_ms.len()),
        "CommitTimings.compact_us",
    );
    report.put(
        "storage.compactions",
        layers.compact_ms.len() as f64,
        "count",
        Some(layers.commits),
        "in the commit replay",
    );
    report.put(
        "storage.bytes_per_user_byte",
        layers.storage_bytes as f64 / layers.user_bytes.max(1) as f64,
        "ratio",
        Some(layers.commits),
        &format!(
            "replay journal: {} B on disk / {} B of mutations",
            layers.storage_bytes, layers.user_bytes
        ),
    );
    report
        .record
        .push(("replayed_reads".into(), layers.match_us.len().to_string()));
    report.record.push((
        "replayed_commits".into(),
        format!(
            "{} ({})",
            layers.commits,
            if traffic.workload.writes() {
                "the traced phase's writer batches"
            } else {
                "writer-shaped probe batches; no timed request sees them"
            }
        ),
    ));

    // Where a commit's time goes, and what the writes cost the reader.
    if traffic.workload.writes() {
        let commit = percentile(&sorted(b.lat.commit.iter().map(|s| s.ms).collect()), 0.5);
        let parts = [
            ("clone", p50(&layers.clone_ms)),
            ("apply", p50(&layers.apply_us) / 1e3),
            ("append", p50(&layers.append_us) / 1e3),
            ("fsync", p50(&layers.fsync_us) / 1e3),
            ("swap", p50(&layers.swap_us) / 1e3),
            (
                "compact (mean per commit)",
                layers.compact_ms.iter().sum::<f64>() / layers.commits.max(1) as f64,
            ),
        ];
        let sum: f64 = parts.iter().map(|(_, v)| v).sum();
        let mut line = format!("commit_p50_ms {commit:.3} =");
        for (name, v) in parts {
            line.push_str(&format!(" {name} {v:.3} +"));
        }
        line.push_str(&format!(
            " rest (wire, queueing, BEGIN/mutation round trips) {:.3}",
            commit - sum
        ));
        report.findings.push(line);
        if let Some(c) = reader_only {
            let p99 = |v: &[Sample]| percentile(&sorted(v.iter().map(|s| s.ms).collect()), 0.99);
            let stats_ms = p50(&layers.stats_ms);
            let compile_ms = (p50(&layers.parse_us) + p50(&layers.prepare_us)) / 1e3;
            for (op, with, without) in [
                ("execute", &b.lat.execute, &c.lat.execute),
                ("query", &b.lat.query, &c.lat.query),
            ] {
                let extra = p99(with) - p99(without);
                let mut line = format!(
                    "{op}_p99_ms with writes {:.3} vs reader alone {:.3}: extra {extra:.3} ms; graph.stats_rebuild_ms_p50 {stats_ms:.3} ms = {:.0}% of it",
                    p99(with),
                    p99(without),
                    100.0 * stats_ms / extra
                );
                if op == "query" {
                    line.push_str(&format!(
                        "; a plan-cache miss (parse + prepare {compile_ms:.3} ms, miss ratio {:.2}) = {:.0}% of it",
                        misses as f64 / lookups,
                        100.0 * compile_ms / extra
                    ));
                }
                report.findings.push(line);
            }
        }
    }

    let header = format!(
        "\"workload\": {}, \"seed\": {}, \"clock\": {}",
        jstr(traffic.workload.name()),
        args.seed,
        jstr("request spans: wire round trips, us from the traced phase start; every other span: in-process replay, us from the replay start; parent links give the request each call serves; self_us = duration minus weighted child durations")
    );
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-spans.json",
        traffic.workload.name(),
        args.seed
    ));
    std::fs::write(&path, trace.to_json(&header)).map_err(|e| format!("writing spans: {e}"))?;
    for (name, count, total, p50) in trace.summary() {
        report.findings.push(format!(
            "self time {name:<20} n={count:<5} total {total:>12.1} us  p50 {p50:>10.1} us"
        ));
    }
    report
        .record
        .push(("spans_file".into(), path.display().to_string()));
    Ok(())
}

/// Names listed under `key` in `BENCHMARK.json` (a minimal scan; the
/// file is ours and flat).
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &json[start..];
    let end = rest.find(']').unwrap_or(rest.len());
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
        .collect()
}

/// Runs every workload at a tiny size in both modes and checks that
/// every metric `BENCHMARK.json` names is reported and every gate passes.
fn self_test() -> ExitCode {
    let mut ok = true;
    let json = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = listed_names(&json, key);
        if listed != ours.iter().map(|s| s.to_string()).collect::<Vec<_>>() {
            println!("FAIL BENCHMARK.json {key} lists {listed:?}, the benchmark reports {ours:?}");
            ok = false;
        }
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let args = Args {
                workload: w,
                seed: 7,
                seconds: 2.0,
                trace,
                tiny: true,
            };
            match run(&args) {
                Ok(r) => {
                    let names = if trace { PER_LAYER } else { END_TO_END };
                    let missing: Vec<&&str> = names
                        .iter()
                        .filter(|n| !r.get(n).is_some_and(f64::is_finite))
                        .collect();
                    let pass = missing.is_empty() && r.correct();
                    println!(
                        "{} {} trace={} missing={missing:?} failed={}/{}",
                        if pass { "ok  " } else { "FAIL" },
                        w.name(),
                        trace as u8,
                        r.tally.failed,
                        r.tally.attempted
                    );
                    for e in &r.errors {
                        println!("     {e}");
                    }
                    ok &= pass;
                }
                Err(e) => {
                    println!("FAIL {} trace={}: {e}", w.name(), trace as u8);
                    ok = false;
                }
            }
        }
    }
    if ok {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}
