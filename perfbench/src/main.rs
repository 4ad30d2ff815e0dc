//! The repository's benchmark: cold build, live rule update and
//! line-rate simulation, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_build|rule_update|line_rate> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run times its workload's loop for `--seconds`,
//! interleaved with fixed-size passes of the other two loops so every
//! end-to-end metric is measured, and prints every end-to-end metric.
//! With `--trace 1` it runs the workload's loop untraced for half the
//! time and traced for the other half, and prints every per-layer metric
//! plus the tracing overhead. The last line of standard output is the
//! JSON result; a copy with the host record lands in `.bench_out/`.
//! See `perfbench/README.md` for what each name means.

mod cold;
mod fixture;
mod inputs;
mod layers;
mod line;
mod meter;
mod trace;
mod update;

use fixture::Fixture;
use layers::Counts;
use meter::{geomean, median, tail, Tail};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: meter::CountingAlloc = meter::CountingAlloc;

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// An untraced run is cut into this many slices. Each slice runs the
/// workload's own loop for its share of `--seconds`, then a share of a
/// fixed-size pass of each other loop, so every metric samples the whole
/// run rather than one stretch of it.
const SLICES: u64 = 4;
/// The fixed-size passes, per slice: cold compiles (two rounds; eight of
/// each program over the run), rule-update ops (1920 over the run: the
/// most for which their tails are still p99, so 19 samples lie beyond
/// the tail), and simulator ops
/// (over the run, four AES chip runs and four topology runs).
const COLD_PASS_OPS: u64 = 6;
const UPDATE_PASS_OPS: u64 = 480;
const LINE_PASS_OPS: u64 = 2;
/// The rule-update loop's own share runs at least this many ops per
/// slice, so its tails are always p99.5 with at least 20 samples beyond
/// them (at least 4096 samples): tails over fewer samples swing with
/// every host hiccup.
const UPDATE_OWN_MIN_OPS: u64 = 1024;

/// How long a loop runs: it starts ops until both this much time has
/// passed and this many ops have run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub time: Duration,
    pub ops: u64,
}

impl Budget {
    pub fn time(secs: f64) -> Self {
        Budget {
            time: Duration::from_secs_f64(secs),
            ops: 0,
        }
    }

    pub fn ops(ops: u64) -> Self {
        Budget {
            time: Duration::ZERO,
            ops,
        }
    }

    /// Whether to start another op after `done` ops of a loop begun at
    /// `start`.
    pub fn more(self, done: u64, start: Instant) -> bool {
        done < self.ops || start.elapsed() < self.time
    }
}

/// Attempted and failed ops, with the first few failures kept.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in &other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: Cow<'static, str>,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<Cow<'static, str>>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdBuild,
    RuleUpdate,
    LineRate,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdBuild,
        Workload::RuleUpdate,
        Workload::LineRate,
    ];

    fn parse(s: &str) -> Option<Self> {
        match s {
            "cold_build" => Some(Workload::ColdBuild),
            "rule_update" => Some(Workload::RuleUpdate),
            "line_rate" => Some(Workload::LineRate),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdBuild => "cold_build",
            Workload::RuleUpdate => "rule_update",
            Workload::LineRate => "line_rate",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The CPUs this process may run on, as a range list (`0-1`).
#[cfg(target_os = "linux")]
fn affinity() -> String {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable for exactly the size passed; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".into();
    }
    let cpus: Vec<usize> = (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    let mut out = String::new();
    let mut i = 0;
    while i < cpus.len() {
        let mut j = i;
        while j + 1 < cpus.len() && cpus[j + 1] == cpus[j] + 1 {
            j += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if i == j {
            let _ = write!(out, "{}", cpus[i]);
        } else {
            let _ = write!(out, "{}-{}", cpus[i], cpus[j]);
        }
        i = j + 1;
    }
    out
}

#[cfg(not(target_os = "linux"))]
fn affinity() -> String {
    "unknown".into()
}

/// The host record every result carries.
fn host_record(args: &Args, fx: &Fixture) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"affinity\":\"{}\",\"solver_threads\":{},\"chip_host_threads\":{},\"reload_host_threads\":{},\"topology_host_threads_per_chip\":{},\"server_workers\":{},\"profile\":\"{}\",\"workload\":\"{}\",\"seed\":{}}}",
        affinity(),
        fx.aes.alloc_stats.solve.threads,
        fixture::line_chip().effective_host_threads(),
        fixture::reload_chip().effective_host_threads(),
        fx.topology.chip.effective_host_threads(),
        fx.service.server.workers(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload.name(),
        args.seed,
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut m = String::new();
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            json_number(x.value),
            x.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

/// The outputs of one run of each loop.
#[derive(Default)]
struct Loops {
    cold: cold::ColdOut,
    update: update::UpdateOut,
    line: line::LineOut,
}

impl Loops {
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        t.add(&self.cold.tally);
        t.add(&self.update.tally);
        t.add(&self.line.tally);
        t
    }
}

/// Interleave the workload's own loop, for `seconds` in all, with
/// fixed-size passes of the other two, over `SLICES` slices.
fn run_all(w: Workload, fx: &Fixture, seconds: f64) -> Loops {
    let mut counts = Counts::default();
    let mut loops = Loops::default();
    let own = Budget::time(seconds / SLICES as f64);
    let pass = |x: Workload, ops: u64| if x == w { own } else { Budget::ops(ops) };
    for _ in 0..SLICES {
        // The workload's own loop leads each slice.
        for x in std::iter::once(w).chain(Workload::ALL.into_iter().filter(|&x| x != w)) {
            match x {
                Workload::ColdBuild => {
                    let b = pass(x, COLD_PASS_OPS);
                    cold::run(fx, b, None, &mut counts, &mut loops.cold);
                }
                Workload::RuleUpdate => {
                    let mut b = pass(x, UPDATE_PASS_OPS);
                    if x == w {
                        b.ops = UPDATE_OWN_MIN_OPS;
                    }
                    update::run(fx, false, b, None, &mut counts, &mut loops.update);
                }
                Workload::LineRate => {
                    let b = pass(x, LINE_PASS_OPS);
                    line::run(fx, b, None, &mut counts, &mut loops.line);
                }
            }
        }
    }
    loops
}

fn end_to_end(w: Workload, loops: &Loops, setup_s: f64) -> (Vec<Metric>, Vec<(String, Tail)>) {
    let Loops { cold, update, line } = loops;
    let warm_tail = tail(&update.warm_ms);
    let update_tail = tail(&update.update_ms);
    let modeled_mbps = match w {
        Workload::ColdBuild => geomean(&cold.mbps.iter().map(|v| median(v)).collect::<Vec<_>>()),
        Workload::RuleUpdate => geomean(&update.mbps),
        Workload::LineRate => {
            geomean(&[line.chip_mbps.unwrap_or(0.0), line.topo_mbps.unwrap_or(0.0)])
        }
    };
    let tally = loops.tally();
    let mut m = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("compile_ms.aes", median(&cold.compile_ms[0]), "ms"),
        Metric::new("compile_ms.kasumi", median(&cold.compile_ms[1]), "ms"),
    ];
    m.extend([
        Metric::new("warm_compile_p50_ms", median(&update.warm_ms), "ms"),
        Metric::new("warm_compile_tail_ms", warm_tail.value, "ms"),
        Metric::new("update_p50_ms", median(&update.update_ms), "ms"),
        Metric::new("update_tail_ms", update_tail.value, "ms"),
        Metric::new("update_cycles", median(&update.update_cycles), "cycles"),
        Metric::new(
            "sim_mcycles_per_s.chip",
            median(&line.chip_rate),
            "Mcycles/s",
        ),
        Metric::new(
            "sim_mcycles_per_s.topology",
            median(&line.topo_rate),
            "Mcycles/s",
        ),
        Metric::new("sim_kpackets_per_s", median(&line.kpps), "kpackets/s"),
        Metric::new("modeled_mbps", modeled_mbps, "Mb/s"),
        Metric::new(
            "modeled_p99_cycles",
            line.p99_cycles.unwrap_or(0.0),
            "cycles",
        ),
        Metric::new("peak_heap_mb", meter::peak_heap_mib(), "MiB"),
        Metric::new(
            "ok_ratio",
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    let tails = vec![
        ("warm_compile_tail_ms".to_string(), warm_tail),
        ("update_tail_ms".to_string(), update_tail),
    ];
    (m, tails)
}

/// Ratio of traced to untraced op time, minus one: the geometric mean
/// over op kinds of the ratio of their medians.
fn overhead(untraced: &[(usize, f64)], traced: &[(usize, f64)]) -> f64 {
    let kinds = untraced.iter().map(|o| o.0).max().unwrap_or(0) + 1;
    let of = |ops: &[(usize, f64)], k: usize| {
        median(
            &ops.iter()
                .filter(|o| o.0 == k)
                .map(|o| o.1)
                .collect::<Vec<_>>(),
        )
    };
    let ratios: Vec<f64> = (0..kinds)
        .map(|k| (of(untraced, k), of(traced, k)))
        .filter(|(u, t)| *u > 0.0 && *t > 0.0)
        .map(|(u, t)| t / u)
        .collect();
    geomean(&ratios) - 1.0
}

fn write_out(path: &str, body: &str) {
    let p = std::path::Path::new(path);
    let written = p
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(p, body));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {path}: {e}");
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let stem = format!(
        ".bench_out/{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let (tally, metrics, host, notes) = if !args.trace {
        let mut setups = Vec::with_capacity(SETUP_REPS);
        let mut fx = None;
        for _ in 0..SETUP_REPS {
            drop(fx.take());
            let t = Instant::now();
            fx = Some(Fixture::build(args.seed, false)?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let fx = fx.expect("set up at least once");
        let loops = run_all(w, &fx, args.seconds);
        let (metrics, tails) = end_to_end(w, &loops, median(&setups));
        let mut notes = String::new();
        for (name, t) in tails {
            let _ = writeln!(
                notes,
                "# {name}: p{} over {} samples",
                t.percentile, t.samples
            );
        }
        let _ = writeln!(notes, "# setup_s samples: {setups:?}");
        // Reported, not gated: see README.md, "Bounds".
        let _ = writeln!(
            notes,
            "# NAT cold compile: median {:.3} ms over {} compiles",
            median(&loops.cold.compile_ms[2]),
            loops.cold.compile_ms[2].len()
        );
        let _ = writeln!(
            notes,
            "# distinct images (aes, kasumi, nat): {:?}; warm/cold probes: {}",
            loops
                .cold
                .images
                .iter()
                .map(|s| s.len())
                .collect::<Vec<_>>(),
            loops.update.probes
        );
        (loops.tally(), metrics, host_record(args, &fx), notes)
    } else {
        let half = Budget::time(args.seconds / 2.0);
        let fx = Fixture::build(args.seed, false)?;
        let mut ignored = Counts::default();
        let mut counts = Counts::default();
        let mut tr = Tracer::new();
        let (untraced, traced, tally, images) = match w {
            // The traced half drives the layers directly, without a
            // session, so the session counters come from the untraced half.
            Workload::ColdBuild => {
                let (mut u, mut t) = Default::default();
                cold::run(&fx, half, None, &mut counts, &mut u);
                cold::run(&fx, half, Some(&mut tr), &mut counts, &mut t);
                let images = core::array::from_fn(|i| u.images[i].union(&t.images[i]).count());
                let mut tally = u.tally;
                tally.add(&t.tally);
                (u.ops, t.ops, tally, images)
            }
            Workload::RuleUpdate => {
                let (mut u, mut t) = Default::default();
                update::run(&fx, false, half, None, &mut ignored, &mut u);
                update::run(&fx, true, half, Some(&mut tr), &mut counts, &mut t);
                let mut tally = u.tally;
                tally.add(&t.tally);
                (u.ops, t.ops, tally, [0; 3])
            }
            Workload::LineRate => {
                let (mut u, mut t) = Default::default();
                line::run(&fx, half, None, &mut ignored, &mut u);
                line::run(&fx, half, Some(&mut tr), &mut counts, &mut t);
                let mut tally = u.tally;
                tally.add(&t.tally);
                (u.ops, t.ops, tally, [0; 3])
            }
        };
        let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
        let oh = overhead(&untraced, &traced);
        let metrics = layers::metrics(&tr, &counts, images, oh, failed_ratio);
        let spans_path = format!("{stem}.spans.jsonl");
        if let Err(e) = tr.write_jsonl(std::path::Path::new(&spans_path)) {
            eprintln!("perfbench: cannot write {spans_path}: {e}");
        }
        let mut notes = String::new();
        let op_ms: f64 = metrics
            .iter()
            .find(|m| m.name == "trace.op_ms")
            .map_or(0.0, |m| m.value);
        let _ = writeln!(notes, "# layer self time per traced op (share of op time):");
        for (name, ns, _, n) in layers::layer_totals(&tr) {
            let ops = tr.spans().iter().filter(|s| s.name == "op").count().max(1);
            let ms = ns as f64 / 1e6 / ops as f64;
            if n > 0 {
                let _ = writeln!(
                    notes,
                    "#   {name:<14} {ms:>10.4} ms  {:>6.2}%",
                    100.0 * ms / op_ms.max(1e-12)
                );
            }
        }
        let _ = writeln!(
            notes,
            "# {} untraced and {} traced ops; spans in {spans_path}",
            untraced.len(),
            traced.len()
        );
        (tally, metrics, host_record(args, &fx), notes)
    };
    for e in &tally.errors {
        println!("# failure: {e}");
    }
    print!("{notes}");
    for m in &metrics {
        println!("# {:<34} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    println!("# host {host}");
    let line = result_line(&tally, &metrics);
    write_out(
        &format!("{stem}.json"),
        &format!("{{\"host\": {host}, \"result\": {line}}}\n"),
    );
    println!("{line}");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
