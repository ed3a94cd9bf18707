//! Sequoia benchmark of Paradise: wall-clock latency from SQL text to rows
//! at the query coordinator, with per-layer attribution.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path sequoia_bench/Cargo.toml -- \
//!     --workload vector|raster|load --seed N --seconds S --trace 0|1
//! ```
//!
//! `--workload raster_tcp` runs `raster` over TCP; it is not a measured
//! workload, because its Q10 fails now and then (a known engine defect).
//!
//! Every workload is a closed loop with one client thread. Statement
//! workloads run their statements in a fixed cyclic order, flushing the
//! buffer pools before each one (paper §3.2); the flush is timed outside
//! the statement. Every result is checked against the programmatic plan
//! of `paradise::queries`. Times of the timed loop are reported at a
//! reference host speed (see [`calib`]); set-up is wall clock. The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). The traced run also writes a Chrome trace and
//! both runs write a report to `.bench_out/`.

mod calib;
mod stats;
mod trace;
mod workload;

use paradise::{execute_plan, match_plan, Paradise, QueryResult};
use paradise_datagen::tables::World;
use stats::{digest, median, tail, windowed_tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{deltas, json_str, sum_named, Deltas, Tracer};
use workload::{
    check_load, q1_load, reference, sql_text, user_bytes, LoadRecord, OpKind, Workload,
};

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPS: usize = 5;
/// Attempts at the reference answer of one statement during set-up.
const REFERENCE_ATTEMPTS: usize = 3;
/// Where reports, traces and the instance volumes go, relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";
/// Page size of the storage manager (for volume bytes written).
const PAGE_BYTES: f64 = paradise::storage::PAGE_SIZE as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 42, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload vector|raster|load|raster_tcp --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload::workload(&args.workload) else {
        eprintln!("unknown workload {:?}; use vector, raster, load or raster_tcp", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = run(&args, &wl) {
        eprintln!("benchmark failed: {e}");
        std::process::exit(1);
    }
}

/// Removes the instance directory when the run returns, with or without
/// an error.
struct InstanceDir(PathBuf);

impl Drop for InstanceDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Answer every execution of a statement is checked against.
struct Reference {
    columns: Vec<String>,
    rows: usize,
    digest: u64,
}

#[derive(Default)]
struct StmtAcc {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    /// Latency of ops that completed and verified, untraced passes.
    lat_ms: Vec<f64>,
    /// The same, traced passes.
    traced_lat_ms: Vec<f64>,
    model_ms: Vec<f64>,
    /// Per counter that should repeat exactly across executions of the
    /// op: (first value, min, max) over verified ops.
    exact: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Fallback answer when the SQL result's columns differ from the
    /// reference plan's: the first execution's (rows, digest).
    first_answer: Option<(usize, u64)>,
}

impl StmtAcc {
    fn fail(&mut self, err: String) {
        self.failed += 1;
        self.first_error.get_or_insert(err);
    }

    fn observe(&mut self, name: &'static str, v: u64) {
        let e = self.exact.entry(name).or_insert((v, v, v));
        e.1 = e.1.min(v);
        e.2 = e.2.max(v);
    }
}

/// Per-layer sums over traced ops.
#[derive(Default)]
struct LayerAcc {
    ops: u64,
    parse: Duration,
    plan: Duration,
    execute: Duration,
    node_work: Duration,
    sequential: Duration,
    model: Duration,
    utilisation_pct: f64,
    net_bytes: u64,
    net_tuples: u64,
    pulls: u64,
    pull_bytes: u64,
    /// Registry counter deltas summed over the ops.
    counters: BTreeMap<String, i64>,
    /// Load workload: per step (create, raster, vector, index, commit).
    load_steps: [Duration; 5],
    load_op: Duration,
}

impl LayerAcc {
    fn add_counters(&mut self, d: &BTreeMap<String, i64>) {
        for (k, v) in d {
            *self.counters.entry(k.clone()).or_default() += v;
        }
    }

    fn counter(&self, name: &str) -> f64 {
        sum_named(&self.counters, name) as f64
    }
}

/// A counter delta summed over the nodes, as a count.
fn counter_i(c: &Deltas, name: &str) -> u64 {
    sum_named(c, name).max(0) as u64
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed op.
struct Sample {
    op: u64,
    /// The pass (or Q1) it ran in: its index into `Run::cal`.
    pass: usize,
    name: &'static str,
    /// Start, in seconds since the run began.
    at_s: f64,
    ms: f64,
    /// Completed with the right answer.
    ok: bool,
    traced: bool,
}

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    /// Calibration point taken before each pass of the timed loop.
    cal: Vec<f64>,
    /// Engine time of the timed loop: flushes plus ops, verification and
    /// bookkeeping excluded.
    engine: Duration,
    stmts: BTreeMap<&'static str, StmtAcc>,
    layers: LayerAcc,
    /// Q1 records: the set-up loads of a statement workload, or the timed
    /// ops of the load workload.
    loads: Vec<LoadRecord>,
    user_bytes: u64,
    reference_retries: u64,
    /// Wall time of each pass in ms, bookkeeping included: [untraced,
    /// traced].
    pass_wall: [Vec<f64>; 2],
    /// Completed ops per second of engine time, one value per pass, at
    /// the host's speed of the moment.
    pass_rates: Vec<f64>,
    tracer: Tracer,
    disk_bytes: u64,
    /// Wrong answers (verification mismatches), a subset of the failures.
    mismatches: u64,
    /// Engine time spent in ops that failed (part of `engine`).
    failed_engine: Duration,
    /// Every timed op, in the order it ran.
    samples: Vec<Sample>,
    epoch: Instant,
}

/// WAL bytes plus volume page writes of one Q1, per byte of user data.
fn write_amp(l: &LoadRecord, user: u64) -> f64 {
    (l.counter("wal.bytes") as f64 + l.counter("buffer.writebacks") as f64 * PAGE_BYTES)
        / user as f64
}

fn run(args: &Args, wl: &Workload) -> Result<(), String> {
    let out = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let instance = InstanceDir(out.join(format!("data-{}-{}", wl.name, std::process::id())));
    let dir = instance.0.clone();
    let epoch = Instant::now();
    let mut run = Run {
        setup_s: Vec::new(),
        cal: Vec::new(),
        engine: Duration::ZERO,
        stmts: BTreeMap::new(),
        layers: LayerAcc::default(),
        loads: Vec::new(),
        user_bytes: 0,
        reference_retries: 0,
        pass_wall: [Vec::new(), Vec::new()],
        pass_rates: Vec::new(),
        tracer: Tracer::new(epoch),
        disk_bytes: 0,
        mismatches: 0,
        failed_engine: Duration::ZERO,
        samples: Vec::new(),
        epoch,
    };
    match wl.kind {
        OpKind::Statement => run_statements(args, wl, &dir, &mut run)?,
        OpKind::Load => run_loads(args, wl, &dir, &mut run)?,
    }
    report(args, wl, &run, &out)
}

/// Set-up: world generation plus one Q1, repeated; returns the last
/// world and instance and a summary of every set-up Q1.
fn setup(
    args: &Args,
    wl: &Workload,
    dir: &Path,
    run: &mut Run,
) -> Result<(World, Paradise, Vec<LoadRecord>), String> {
    let mut last = None;
    let mut loads = Vec::new();
    for _ in 0..SETUP_REPS {
        // Stop the previous instance before Q1 re-creates its directory.
        drop(last.take());
        let t = Instant::now();
        let world = World::generate(wl.spec(args.seed));
        let gen = t.elapsed();
        let (db, loaded) =
            q1_load(wl, dir, &world, &mut run.tracer, 0).map_err(|e| format!("Q1: {e}"))?;
        check_load(&loaded, &world)?;
        run.setup_s.push((gen + loaded.total).as_secs_f64());
        loads.push(loaded);
        last = Some((world, db));
    }
    let (world, db) = last.expect("at least one set-up");
    run.user_bytes = user_bytes(&world);
    Ok((world, db, loads))
}

fn run_statements(args: &Args, wl: &Workload, dir: &Path, run: &mut Run) -> Result<(), String> {
    let (world, db, loads) = setup(args, wl, dir, run)?;
    drop(world);
    run.loads = loads;

    // References from the programmatic plans, each on a flushed pool.
    let mut refs = BTreeMap::new();
    for &name in wl.statements {
        let mut last_err = String::new();
        for _ in 0..REFERENCE_ATTEMPTS {
            db.flush_caches().map_err(|e| format!("flush: {e}"))?;
            match reference(&db, name) {
                Ok(r) => {
                    let reference = Reference {
                        columns: r.columns,
                        rows: r.rows.len(),
                        digest: digest(&r.rows),
                    };
                    refs.insert(name, reference);
                    break;
                }
                Err(e) => {
                    run.reference_retries += 1;
                    last_err = e.to_string();
                }
            }
        }
        if !refs.contains_key(name) {
            return Err(format!("reference plan of {name} failed: {last_err}"));
        }
    }
    let texts: Vec<(&'static str, String)> =
        wl.statements.iter().map(|&n| (n, sql_text(n))).collect();

    // The timed loop: whole passes over the statements until the time is
    // up. A traced run alternates untraced and traced passes.
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    let mut pass = 0usize;
    while pass < 1 + args.trace as usize || start.elapsed() < budget {
        let traced = args.trace && pass % 2 == 1;
        run.cal.push(calib::point());
        run.tracer.set_enabled(traced);
        let pass_start = Instant::now();
        let mut pass_engine = Duration::ZERO;
        let mut pass_done = 0u32;
        for (name, sql) in &texts {
            op += 1;
            let (took, ok) = statement_op(&db, name, sql, &refs[name], traced, op, run)
                .map_err(|e| format!("{name}: {e}"))?;
            pass_engine += took;
            pass_done += ok as u32;
        }
        run.engine += pass_engine;
        run.pass_rates.push(f64::from(pass_done) / pass_engine.as_secs_f64());
        run.pass_wall[traced as usize].push(ms(pass_start.elapsed()));
        pass += 1;
    }
    run.tracer.set_enabled(false);
    run.disk_bytes = workload::dir_bytes(dir);
    Ok(())
}

/// Runs one statement: flush, parse, plan, execute, verify. Returns the
/// engine time it took (flush plus statement) and whether it completed
/// with the right answer. Only a failure to flush the pools aborts the
/// run; statement errors are counted.
fn statement_op(
    db: &Paradise,
    name: &'static str,
    sql: &str,
    reference: &Reference,
    traced: bool,
    op: u64,
    run: &mut Run,
) -> Result<(Duration, bool), String> {
    let tr = &mut run.tracer;
    let root = tr.open(op, name, Instant::now());
    let s0 = traced.then(|| db.obs().snapshot());
    let f0 = Instant::now();
    db.flush_caches().map_err(|e| format!("flush: {e}"))?;
    let f1 = Instant::now();
    let s1 = db.obs().snapshot();
    if let Some(s0) = &s0 {
        tr.record(root, op, "flush", "Paradise::flush_caches", f0, f1, deltas(s0, &s1));
    }

    // SQL text to rows at the QC.
    let t0 = Instant::now();
    let parsed = paradise::sql::parse_statement(sql);
    let t1 = Instant::now();
    let plan = parsed
        .as_ref()
        .map_err(|e| e.to_string())
        .and_then(|s| match_plan(&s.select).map_err(|e| e.to_string()));
    let t2 = Instant::now();
    let result: Result<QueryResult, String> = plan
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|p| execute_plan(db, p).map_err(|e| e.to_string()));
    let t3 = Instant::now();
    let s2 = db.obs().snapshot();
    let counters = deltas(&s1, &s2);
    tr.record(root, op, "sql", "paradise_sql::parse_statement", t0, t1, Deltas::new());
    tr.record(root, op, "plan", "paradise::match_plan", t1, t2, Deltas::new());
    tr.record(root, op, "exec", "paradise::execute_plan", t2, t3, counters.clone());

    let v0 = Instant::now();
    let acc = run.stmts.entry(name).or_default();
    acc.attempted += 1;
    let verdict = result.and_then(|r| {
        let got = (r.rows.len(), digest(&r.rows));
        let want = if r.columns == reference.columns {
            (reference.rows, reference.digest)
        } else {
            *acc.first_answer.get_or_insert(got)
        };
        if got == want {
            Ok(r)
        } else {
            run.mismatches += 1;
            Err(format!(
                "wrong answer: {} rows (digest {:016x}), expected {} rows (digest {:016x})",
                got.0, got.1, want.0, want.1
            ))
        }
    });
    let v1 = Instant::now();
    tr.record(root, op, "verify", "verify", v0, v1, Deltas::new());
    tr.close(root, Instant::now(), Deltas::new());

    let took = (f1 - f0) + (t3 - t0);
    let ok = verdict.is_ok();
    let at_s = (t0 - run.epoch).as_secs_f64();
    let pass = run.cal.len() - 1;
    run.samples.push(Sample { op, pass, name, at_s, ms: ms(t3 - t0), ok, traced });
    match verdict {
        Err(e) => {
            acc.fail(e);
            run.failed_engine += took;
        }
        Ok(r) => {
            let latency = ms(t3 - t0);
            if traced {
                acc.traced_lat_ms.push(latency);
            } else {
                acc.lat_ms.push(latency);
            }
            let m = &r.metrics;
            acc.model_ms.push(ms(m.simulated_time()));
            acc.observe("rows", r.rows.len() as u64);
            acc.observe("buffer_misses", counter_i(&counters, "buffer.misses"));
            acc.observe("rtree_visits", counter_i(&counters, "rtree.node_visits"));
            acc.observe("net_bytes", m.net_bytes);
            acc.observe("pulls", m.pulls);
            acc.observe("morsels", counter_i(&counters, "exec.worker.morsels"));
            if traced {
                let l = &mut run.layers;
                l.ops += 1;
                l.parse += t1 - t0;
                l.plan += t2 - t1;
                l.execute += t3 - t2;
                let node_work: Duration = m.phases.iter().map(|p| p.total_work()).sum();
                l.node_work += node_work;
                l.sequential += m.sequential;
                l.model += m.simulated_time();
                l.utilisation_pct += m.utilisation();
                l.net_bytes += m.net_bytes;
                l.net_tuples += m.net_tuples;
                l.pulls += m.pulls;
                l.pull_bytes += m.pull_bytes;
                l.add_counters(&counters);
            }
        }
    }
    Ok((took, ok))
}

fn run_loads(args: &Args, wl: &Workload, dir: &Path, run: &mut Run) -> Result<(), String> {
    // The set-up Q1s also let file-system caches and lazy set-up settle.
    let (world, db, _) = setup(args, wl, dir, run)?;
    drop(db);

    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut op = 0u64;
    while (op as usize) < 1 + args.trace as usize || start.elapsed() < budget {
        let traced = args.trace && op % 2 == 1;
        op += 1;
        run.cal.push(calib::point());
        let pass = run.cal.len() - 1;
        run.tracer.set_enabled(traced);
        let acc = run.stmts.entry("Q1").or_default();
        acc.attempted += 1;
        let pass_start = Instant::now();
        let loaded = q1_load(wl, dir, &world, &mut run.tracer, op);
        let (db, summary) = match loaded {
            Ok(l) => l,
            Err(e) => {
                acc.fail(format!("Q1: {e}"));
                let at_s = (pass_start - run.epoch).as_secs_f64();
                let lat = ms(pass_start.elapsed());
                run.samples.push(Sample { op, pass, name: "Q1", at_s, ms: lat, ok: false, traced });
                run.engine += pass_start.elapsed();
                run.failed_engine += pass_start.elapsed();
                run.pass_rates.push(0.0);
                continue;
            }
        };
        // Stop the instance before the next op re-creates its directory.
        drop(db);
        run.engine += summary.total;
        let v0 = Instant::now();
        let verdict = check_load(&summary, &world);
        run.tracer.record(None, op, "verify", "verify", v0, Instant::now(), Deltas::new());
        run.pass_wall[traced as usize].push(ms(pass_start.elapsed()));
        let at_s = (pass_start - run.epoch).as_secs_f64();
        let (lat, ok) = (ms(summary.total), verdict.is_ok());
        run.samples.push(Sample { op, pass, name: "Q1", at_s, ms: lat, ok, traced });
        if let Err(e) = verdict {
            run.mismatches += 1;
            acc.fail(e);
            run.failed_engine += summary.total;
            run.pass_rates.push(0.0);
            continue;
        }
        run.pass_rates.push(1.0 / summary.total.as_secs_f64());
        if traced {
            acc.traced_lat_ms.push(ms(summary.total));
            let l = &mut run.layers;
            l.ops += 1;
            l.load_op += summary.total;
            for (sum, d) in l.load_steps.iter_mut().zip(summary.steps) {
                *sum += d;
            }
            let counters: BTreeMap<String, i64> =
                summary.counters.iter().map(|(k, &v)| (k.clone(), v as i64)).collect();
            l.add_counters(&counters);
        } else {
            acc.lat_ms.push(ms(summary.total));
        }
        acc.observe("stored_tuples", summary.stored_tuples());
        acc.observe("wal_bytes", summary.counter("wal.bytes"));
        acc.observe("buffer_writebacks", summary.counter("buffer.writebacks"));
        acc.observe("disk_bytes", summary.disk_bytes);
        acc.observe("morsels", summary.counter("exec.worker.morsels"));
        run.loads.push(summary);
    }
    run.tracer.set_enabled(false);
    Ok(())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".into() };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(c) = read(r) {
        return c.trim().to_string();
    }
    read("packed-refs")
        .and_then(|p| {
            p.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(String::from)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON number; non-finite values and negative zero (the empty float
/// sum) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn report(args: &Args, wl: &Workload, run: &Run, out: &Path) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let attempted: u64 = run.stmts.values().map(|a| a.attempted).sum();
    let failed: u64 = run.stmts.values().map(|a| a.failed).sum();
    let completed = run.stmts.values().map(|a| a.attempted - a.failed).sum::<u64>();
    // The timed loop's figures are scaled to the reference host speed by
    // the calibration points next to them (see `calib`); `raw` keeps wall
    // clock. Set-up is always wall clock.
    let slow = calib::slowness(&run.cal);
    let e2e_times = |scaled: bool| {
        let at = |x: &Sample| if scaled { x.ms / slow[x.pass] } else { x.ms };
        let untraced: Vec<&Sample> = run.samples.iter().filter(|x| x.ok && !x.traced).collect();
        let tail = windowed_tail(&untraced.iter().map(|x| at(x)).collect::<Vec<_>>());
        // The median over op types of each type's median latency. Pooling
        // the samples instead puts the median of an even number of equally
        // frequent statements on the jump between two of them.
        let p50 = median(
            &run.stmts
                .keys()
                .map(|n| {
                    median(
                        &untraced
                            .iter()
                            .filter(|x| x.name == *n)
                            .map(|x| at(x))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>(),
        );
        let rates: Vec<f64> = run
            .pass_rates
            .iter()
            .zip(&slow)
            .map(|(r, f)| if scaled { r * f } else { *r })
            .collect();
        (median(&rates), p50, tail)
    };
    let (ops_per_s, p50_ms, (tail_ms, tail_pct)) = e2e_times(true);
    let raw = e2e_times(false);
    if run.loads.is_empty() {
        return Err("no Q1 completed".into());
    }
    let write_amp =
        median(&run.loads.iter().map(|l| write_amp(l, run.user_bytes)).collect::<Vec<_>>());
    let space_amp = median(
        &run.loads.iter().map(|l| l.disk_bytes as f64 / run.user_bytes as f64).collect::<Vec<_>>(),
    );

    // Human-readable summary.
    println!(
        "sequoia-bench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" commit={}",
        wl.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        cpu_model(),
        git_commit()
    );
    println!(
        "config: transport={:?} nodes={} pool_pages={} grid_tiles={} world=paper_ratio({}, {}, {}) \
         user_bytes={} client_threads=1 loop=closed",
        wl.transport,
        wl.nodes,
        wl.pool_pages,
        workload::GRID_TILES,
        args.seed,
        wl.scale,
        wl.shrink,
        run.user_bytes
    );
    println!(
        "setup: {} reps {:.3?} s, median {:.3} s; reference retries {}",
        run.setup_s.len(),
        run.setup_s,
        median(&run.setup_s),
        run.reference_retries
    );
    println!(
        "host speed: calibration kernel median {:.3} ms over {} points (reference {} ms), \
         slowness {:.3}..{:.3}",
        median(&run.cal),
        run.cal.len(),
        calib::REFERENCE_MS,
        slow.iter().copied().fold(f64::INFINITY, f64::min),
        slow.iter().copied().fold(0.0, f64::max)
    );
    println!(
        "wall clock, unscaled: ops_per_s {:.3} 1/s, latency_p50_ms {:.4} ms, \
         latency_tail_ms {:.4} ms",
        raw.0, raw.1, raw.2 .0
    );
    println!(
        "{:<5} {:>9} {:>7} {:>10} {:>10} {:>10}  exact counters (value or min..max)",
        "op", "attempted", "failed", "p50 ms", "tail ms", "model ms"
    );
    let mut varying = 0usize;
    let order: &[&str] = if wl.kind == OpKind::Load { &["Q1"] } else { wl.statements };
    for name in order {
        let Some(a) = run.stmts.get(name) else { continue };
        let lat: Vec<f64> = a.lat_ms.iter().chain(&a.traced_lat_ms).copied().collect();
        let (t, p) = tail(&lat);
        let mut cells = String::new();
        for (k, (first, lo, hi)) in &a.exact {
            if lo == hi {
                let _ = write!(cells, " {k}={first}");
            } else {
                varying += 1;
                let _ = write!(cells, " {k}={lo}..{hi}(VARIES)");
            }
        }
        println!(
            "{:<5} {:>9} {:>7} {:>10.3} {:>10.3} {:>10.3} {cells}  [tail=p{p:.1}]",
            name,
            a.attempted,
            a.failed,
            median(&lat),
            t,
            median(&a.model_ms)
        );
        if let Some(e) = &a.first_error {
            println!("      first error: {e}");
        }
    }
    println!(
        "ops: attempted {attempted}, failed {failed} (wrong answers {}), latency samples \
         {completed}, tail = p{tail_pct:.1}; engine time {:.3} s, of it in failed ops {:.3} s",
        run.mismatches,
        run.engine.as_secs_f64(),
        run.failed_engine.as_secs_f64()
    );
    let exact_note = if wl.transport == paradise::TransportKind::Local { "" } else { " (Tcp)" };
    println!("exact counters: {varying} (op, counter) pairs varied across passes{exact_note}");

    let e2e: Vec<(String, &str, f64)> = [
        ("setup_s", "s", median(&run.setup_s)),
        ("ops_per_s", "1/s", ops_per_s),
        ("latency_p50_ms", "ms", p50_ms),
        ("latency_tail_ms", "ms", tail_ms),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
        ("write_amp", "ratio", write_amp),
        ("space_amp", "ratio", space_amp),
    ]
    .into_iter()
    .map(|(name, unit, v)| (name.to_string(), unit, v))
    .collect();
    let metrics = if args.trace { per_layer(wl, run, varying) } else { e2e.clone() };
    for (name, unit, value) in &e2e {
        println!("e2e {name} = {} {unit}", num(*value));
    }

    // The traced run writes its spans once, at the end.
    if args.trace {
        let path = out.join(format!("{}-seed{}.trace.json", wl.name, args.seed));
        std::fs::write(&path, run.tracer.chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "trace: {} spans over {} traced ops -> {}",
            run.tracer.spans().len(),
            run.tracer.traced_ops(),
            path.display()
        );
        for (name, unit, value) in &metrics {
            println!("layer {name} = {} {unit}", num(*value));
        }
    }

    let correct = run.mismatches == 0 && completed > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(*value),
            json_str(unit)
        );
    }
    json.push_str("}}");

    let report_path =
        out.join(format!("{}-seed{}-trace{}.json", wl.name, args.seed, args.trace as u8));
    let mut full = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"nproc\": {nproc}, \"cpu\": {}, \
         \"commit\": {}, \"transport\": \"{:?}\", \"nodes\": {}, \"pool_pages\": {}, \
         \"tail_percentile\": {tail_pct}, \"first_errors\": {{",
        json_str(wl.name),
        args.seed,
        args.seconds,
        json_str(&cpu_model()),
        json_str(&git_commit()),
        wl.transport,
        wl.nodes,
        wl.pool_pages
    );
    let errs: Vec<String> = run
        .stmts
        .iter()
        .filter_map(|(n, a)| {
            a.first_error.as_ref().map(|e| format!("{}: {}", json_str(n), json_str(e)))
        })
        .collect();
    let samples: Vec<String> = run
        .samples
        .iter()
        .map(|x| {
            format!(
                "[{}, \"{}\", {:.6}, {:.6}, {}, {}]",
                x.op, x.name, x.at_s, x.ms, x.ok, x.traced
            )
        })
        .collect();
    let _ = writeln!(
        full,
        "{}}}, \"samples\": [{}], \"result\": {json}}}",
        errs.join(", "),
        samples.join(", ")
    );
    std::fs::write(&report_path, full).map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("{json}");
    Ok(())
}

/// The per-layer metrics of a traced run, all from traced ops unless
/// stated. Means are per traced op.
fn per_layer(wl: &Workload, run: &Run, varying: usize) -> Vec<(String, &'static str, f64)> {
    let l = &run.layers;
    let n = l.ops.max(1) as f64;
    let per_op = |v: f64| v / n;
    let statement = wl.kind == OpKind::Statement;
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();

    // SQL front end and planner.
    m.push(("sql.parse_us".into(), "us", l.parse.as_secs_f64() * 1e6 / n));
    m.push(("plan.match_us".into(), "us", l.plan.as_secs_f64() * 1e6 / n));
    // Execution, from the execute span and the returned QueryMetrics.
    let unattributed = ms(l.execute) - ms(l.node_work) - ms(l.sequential);
    m.push(("exec.execute_ms".into(), "ms", per_op(ms(l.execute))));
    m.push(("exec.node_work_ms".into(), "ms", per_op(ms(l.node_work))));
    m.push(("exec.sequential_ms".into(), "ms", per_op(ms(l.sequential))));
    m.push(("exec.unattributed_ms".into(), "ms", per_op(unattributed)));
    m.push(("exec.model_ms".into(), "ms", per_op(ms(l.model))));
    m.push((
        "exec.utilisation_pct".into(),
        "%",
        if statement { l.utilisation_pct / n } else { 0.0 },
    ));

    // Per statement (0 for statements the workload does not run).
    let all = ["vector", "raster"].into_iter().filter_map(workload::workload);
    for q in all.flat_map(|w| w.statements.iter().copied()) {
        let a = run.stmts.get(q);
        m.push((format!("stmt.{q}.ms"), "ms", a.map_or(0.0, |a| median(&a.traced_lat_ms))));
        m.push((format!("stmt.{q}.model_ms"), "ms", a.map_or(0.0, |a| median(&a.model_ms))));
        m.push((format!("stmt.{q}.failed"), "count", a.map_or(0.0, |a| a.failed as f64)));
    }

    // Intra-node worker pool.
    let busy_ms = l.counter("exec.worker.busy_ns") / 1e6;
    let wall_ms = if statement { ms(l.execute) } else { ms(l.load_op) };
    m.push(("workers.morsels".into(), "count/op", per_op(l.counter("exec.worker.morsels"))));
    m.push(("workers.busy_ms".into(), "ms", per_op(busy_ms)));
    m.push(("workers.inside_frac".into(), "ratio", ratio(busy_ms, wall_ms)));

    // Storage: buffer pool, R*-tree, WAL and volumes.
    let hits = l.counter("buffer.hits");
    let misses = l.counter("buffer.misses");
    m.push(("buffer.misses".into(), "count/op", per_op(misses)));
    m.push(("buffer.hit_ratio".into(), "ratio", ratio(hits, hits + misses)));
    m.push(("buffer.evictions".into(), "count/op", per_op(l.counter("buffer.evictions"))));
    m.push(("buffer.writebacks".into(), "count/op", per_op(l.counter("buffer.writebacks"))));
    m.push(("rtree.node_visits".into(), "count/op", per_op(l.counter("rtree.node_visits"))));
    m.push(("wal.bytes".into(), "bytes/op", per_op(l.counter("wal.bytes"))));
    m.push(("wal.pages".into(), "count/op", per_op(l.counter("wal.pages"))));
    m.push(("wal.commits".into(), "count/op", per_op(l.counter("wal.commits"))));
    let disk = if statement {
        run.disk_bytes as f64
    } else {
        median(&run.loads.iter().map(|x| x.disk_bytes as f64).collect::<Vec<_>>())
    };
    m.push(("storage.disk_bytes".into(), "bytes", disk));

    // Q1 steps: the traced load ops, or the set-up loads of a statement
    // workload.
    let steps: Vec<f64> = (0..5)
        .map(|i| {
            if statement {
                median(&run.loads.iter().map(|x| ms(x.steps[i])).collect::<Vec<_>>())
            } else {
                per_op(ms(l.load_steps[i]))
            }
        })
        .collect();
    m.push(("load.create_ms".into(), "ms", steps[0]));
    m.push(("load.raster_ms".into(), "ms", steps[1]));
    m.push(("load.vector_ms".into(), "ms", steps[2]));
    m.push(("load.index_ms".into(), "ms", steps[3]));
    m.push(("load.commit_ms".into(), "ms", steps[4]));
    let stored: u64 = run.loads.iter().map(LoadRecord::stored_tuples).sum();
    let input: u64 = run.loads.iter().map(LoadRecord::input_tuples).sum();
    m.push(("decluster.replication".into(), "ratio", ratio(stored as f64, input as f64)));

    // Cluster network accounting and the wire.
    m.push(("net.bytes".into(), "bytes/op", per_op(l.net_bytes as f64)));
    m.push(("net.tuples".into(), "count/op", per_op(l.net_tuples as f64)));
    m.push(("net.pulls".into(), "count/op", per_op(l.pulls as f64)));
    m.push(("net.pull_bytes".into(), "bytes/op", per_op(l.pull_bytes as f64)));
    m.push(("exec.streams_opened".into(), "count/op", per_op(l.counter("exec.streams_opened"))));
    let wire_bytes = l.counter("net.wire.bytes_sent");
    let wire_frames = l.counter("net.wire.frames_sent");
    m.push(("wire.bytes_sent".into(), "bytes/op", per_op(wire_bytes)));
    m.push(("wire.frames_sent".into(), "count/op", per_op(wire_frames)));
    m.push(("wire.bytes_per_frame".into(), "bytes", ratio(wire_bytes, wire_frames)));

    // Self time per layer, from the benchmark's spans, per traced op
    // (failed ones included: their spans are recorded too).
    let selft = run.tracer.self_time_by_layer();
    let traced_ops = run.tracer.traced_ops().max(1) as f64;
    let self_ms = |layer: &str| selft.get(layer).map_or(0.0, |d| ms(*d)) / traced_ops;
    m.push(("self.bench_ms".into(), "ms", self_ms("bench")));
    m.push(("self.flush_ms".into(), "ms", self_ms("flush")));
    m.push(("self.sql_ms".into(), "ms", self_ms("sql")));
    m.push(("self.plan_ms".into(), "ms", self_ms("plan")));
    m.push(("self.exec_ms".into(), "ms", self_ms("exec")));
    m.push(("self.verify_ms".into(), "ms", self_ms("verify")));

    // Tracing overhead: traced against untraced passes of the same run.
    let pct = |t: f64, u: f64| if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 };
    let p50 = |f: fn(&StmtAcc) -> &Vec<f64>| {
        median(&run.stmts.values().map(|a| median(f(a))).collect::<Vec<_>>())
    };
    m.push(("trace.overhead_pct".into(), "%", pct(p50(|a| &a.traced_lat_ms), p50(|a| &a.lat_ms))));
    m.push((
        "trace.pass_overhead_pct".into(),
        "%",
        pct(median(&run.pass_wall[1]), median(&run.pass_wall[0])),
    ));
    m.push(("counters.varying".into(), "count", varying as f64));
    m
}
