//! End-to-end QAOA² benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload fig4-qaoa --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` times solves through the library's public entry points
//! and prints the end-to-end metrics; `--trace 1` runs the traced
//! solves in child processes (pinned width and width 1) and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` for the workloads and every metric's definition.

mod check;
mod host;
mod trace;
mod workload;

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use qq_graph::{Cut, Graph};
use trace::Phase;
use workload::{Plan, Stream, Workload};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("time_to_cut_s", "s"),
    ("cpu_s", "s"),
    ("cut_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("io.read_s", "s"),
    ("io.mb_per_s", "MB/s"),
    ("divide.calls", "count"),
    ("divide.busy_s", "s"),
    ("divide.share", "ratio"),
    ("divide.size_gated_levels", "count"),
    ("divide.stall_fallbacks", "count"),
    ("divide.inter_weight_fraction", "ratio"),
    ("extract.busy_s", "s"),
    ("engine.jobs", "count"),
    ("engine.batch_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.wait_s", "s"),
    ("engine.fallbacks", "count"),
    ("qaoa.calls", "count"),
    ("qaoa.busy_s", "s"),
    ("qaoa.share", "ratio"),
    ("qaoa.evals", "count"),
    ("qaoa.evals_per_s", "1/s"),
    ("qaoa.improving_eval_ratio", "ratio"),
    ("qaoa.amp_sweeps_computed", "count"),
    ("qaoa.bytes_computed", "bytes"),
    ("qaoa.sub_ratio_min", "ratio"),
    ("qaoa.sub_ratio_mean", "ratio"),
    ("gw.calls", "count"),
    ("gw.busy_s", "s"),
    ("gw.share", "ratio"),
    ("gw.sweeps", "count"),
    ("local_search.calls", "count"),
    ("local_search.busy_s", "s"),
    ("merge.busy_s", "s"),
    ("merge.coarse_nodes", "count"),
    ("polish.busy_s", "s"),
    ("polish.cut_gain", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.steal_s", "s"),
    ("host.pool_width", "count"),
];

/// Set-up repetitions per timed run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;

/// Metrics measured on the pinned-width traced child, with the `io.*`
/// ones; the rest come from the width-1 child, where layer self times
/// add up.
const FROM_PINNED_WIDTH: [&str; 5] =
    ["engine.jobs", "engine.batch_s", "engine.busy_s", "engine.wait_s", "engine.fallbacks"];

/// Metrics that exist only through the `solve_level` copy's spans. When
/// its cut differs from `qq_core::solve`'s they are reported missing.
const FROM_COPY: [&str; 18] = [
    "divide.calls",
    "divide.busy_s",
    "divide.share",
    "divide.size_gated_levels",
    "divide.stall_fallbacks",
    "divide.inter_weight_fraction",
    "extract.busy_s",
    "engine.jobs",
    "engine.batch_s",
    "engine.wait_s",
    "engine.fallbacks",
    "merge.busy_s",
    "merge.coarse_nodes",
    "polish.busy_s",
    "polish.cut_gain",
    "qaoa.share",
    "gw.share",
    "trace.unattributed_share",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run as a traced-run child (`paired` or `traced`).
    child: Option<String>,
    /// Internal: the parent's instance directory.
    dir: Option<PathBuf>,
    /// Internal: the child's pool width.
    width: usize,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        raw.iter().position(|a| a == flag).and_then(|i| raw.get(i + 1)).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |v: Option<String>, flag: &str, default: &str| {
        v.unwrap_or_else(|| default.to_string()).parse::<f64>().map_err(|e| format!("{flag}: {e}"))
    };
    let seed = num(get("--seed"), "--seed", "1")? as u64;
    let seconds = num(get("--seconds"), "--seconds", "10")?;
    let trace = num(get("--trace"), "--trace", "0")? != 0.0;
    let width = num(get("--width"), "--width", "1")? as usize;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child: get("--child"),
        dir: get("--dir").map(PathBuf::from),
        width,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&raw).and_then(|args| match (&args.child, args.trace) {
        (Some(role), _) => child_run(&args, role).map(|()| None),
        (None, false) => timed_run(&args).map(Some),
        (None, true) => traced_run(&args).map(Some),
    });
    match result {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ------------------------------------------------------------ reporting

/// A JSON number: shortest round-trip form, non-finite as 0.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write a run record (host, width, digests, raw samples) next to the
/// traces; records are diagnostics, never inputs.
fn write_record(name: &str, fields: &[(&str, String)]) {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("  \"{k}\": {v}")).collect();
    let path = out_dir().join(name);
    if let Err(e) = fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))) {
        eprintln!("e2e_bench: could not write {}: {e}", path.display());
    }
}

fn json_list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>, quote: bool) -> String {
    let q = if quote { "\"" } else { "" };
    let items: Vec<String> = items.into_iter().map(|i| format!("{q}{i}{q}")).collect();
    format!("[{}]", items.join(", "))
}

// ------------------------------------------------------------ instances

/// Instance files of one run, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = out_dir().join(format!("run-{}", std::process::id()));
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// Generate an instance and write it as Gset (benchmark work).
    fn write(&self, w: Workload, seed: u64, stream: Stream, index: u64) -> Result<PathBuf, String> {
        let path = instance_path(&self.0, stream, index);
        let g = w.graph(seed, stream, index);
        let file = File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = BufWriter::new(file);
        qq_graph::io::write_gset(&g, &mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn instance_path(dir: &Path, stream: Stream, index: u64) -> PathBuf {
    dir.join(format!("{}-{index}.gset", if stream == Stream::Warmup { "warmup" } else { "timed" }))
}

/// The streamed read through `qq_graph::io::read_gset`; returns the
/// graph and the file's size in bytes.
fn read_instance(path: &Path) -> Result<(Graph, u64), String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let bytes = file.metadata().map_or(0, |m| m.len());
    let g = qq_graph::io::read_gset(BufReader::new(file))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok((g, bytes))
}

/// The reference `cut_ratio` divides by: the brute-force optimum on
/// `table1-qaoa`, the total weight elsewhere.
fn reference(w: Workload, g: &Graph) -> f64 {
    if w.exact_reference() {
        check::exact_optimum(g)
    } else {
        check::total_weight(g)
    }
}

// ------------------------------------------------------------ timed run

fn timed_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let width = host::nproc();
    // before the first parallel call: the pool reads it once, at start
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());
    let dir = RunDir::create()?;
    let steal_start = host::steal_seconds();
    let mut correct = true;

    // Set-up, several times: the streamed read plus a warm-up solve of an
    // instance outside the timed set.
    let mut setup = Vec::new();
    for r in 0..SETUP_REPS {
        let path = dir.write(w, args.seed, Stream::Warmup, r)?;
        let plan = w.plan(args.seed, Stream::Warmup, r);
        let t0 = Instant::now();
        let (g, _) = read_instance(&path)?;
        let out = workload::solve_plain(&plan, &g);
        setup.push(t0.elapsed().as_secs_f64());
        let _ = fs::remove_file(&path);
        let checked = out.and_then(|s| check::verify(&g, &s.cut, s.value, reference(w, &g)));
        if let Err(e) = checked {
            eprintln!("e2e_bench: warm-up {r} failed: {e}");
            correct = false;
        }
    }

    // Timed solves, each on an instance new to the process, until both
    // the time budget and the minimum count are met.
    let (mut walls, mut cpus, mut peaks) = (vec![], vec![], vec![]);
    let (mut ratios, mut digests, mut rss_reset) = (vec![], vec![], true);
    let (mut attempted, mut failed, mut solve_time) = (0usize, 0usize, 0.0f64);
    while attempted < w.min_timed() || solve_time < args.seconds {
        let index = attempted as u64;
        let path = dir.write(w, args.seed, Stream::Timed, index)?;
        let (g, _) = read_instance(&path)?;
        let _ = fs::remove_file(&path);
        let reference = reference(w, &g);
        let plan = w.plan(args.seed, Stream::Timed, index);
        rss_reset &= host::reset_peak_rss();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let out = workload::solve_plain(&plan, &g);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        peaks.push(host::peak_rss_mb());
        solve_time += wall;
        attempted += 1;
        walls.push(wall);
        cpus.push(cpu);
        let checked = out.and_then(|s| {
            check::verify(&g, &s.cut, s.value, reference).map(|v| (v, check::digest(&s.cut)))
        });
        let (value, digest) = checked.unwrap_or_else(|e| {
            eprintln!("e2e_bench: timed solve {index} failed: {e}");
            failed += 1;
            (0.0, 0)
        });
        if attempted <= w.min_timed() {
            ratios.push(value / reference);
        }
        digests.push(format!("{digest:016x}"));
    }
    let steal = steal_start.zip(host::steal_seconds()).map(|(a, b)| b - a);

    let cut_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let values = [
        median(&walls),
        median(&cpus),
        cut_ratio,
        median(&peaks),
        median(&setup),
        (attempted - failed) as f64 / attempted as f64,
    ];
    let metrics: Vec<_> = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
    eprintln!(
        "e2e_bench: {} seed {} width {width}: {} timed solves, median {:.4} s, cut_ratio {cut_ratio:.6}, steal {:?} s",
        w.name(),
        args.seed,
        attempted,
        median(&walls),
        steal
    );
    write_record(
        &format!("record-{}-s{}-timed.json", w.name(), args.seed),
        &[
            ("host", format!("\"{}\"", host::describe())),
            ("pool_width", width.to_string()),
            ("steal_s", json_number(steal.unwrap_or(0.0))),
            ("peak_rss_reset", rss_reset.to_string()),
            ("setup_s", json_list(setup.iter().map(|&v| json_number(v)), false)),
            ("walls_s", json_list(walls.iter().map(|&v| json_number(v)), false)),
            ("cpu_s", json_list(cpus.iter().map(|&v| json_number(v)), false)),
            ("peak_rss_mb", json_list(peaks.iter().map(|&v| json_number(v)), false)),
            ("digests", json_list(&digests, true)),
        ],
    );
    Ok(Report { correct: correct && failed == 0, attempted, failed, metrics })
}

// ------------------------------------------------------------ traced run

/// What one traced-run child reported.
#[derive(Default)]
struct ChildOut {
    /// `(instance, phase, wall, digest)` per solve; phase is `plain`,
    /// `copy` or `real`.
    solves: Vec<(u64, String, f64, String)>,
    /// `(phase, name, value)`: layer metrics of the copy's spans and of
    /// the wrapped real solve's spans.
    metrics: Vec<(String, String, f64)>,
    failed: usize,
}

impl ChildOut {
    fn digests(&self, phase: &str) -> Vec<&str> {
        self.solves.iter().filter(|s| s.1 == phase).map(|s| s.3.as_str()).collect()
    }

    fn walls(&self, phase: &str) -> Vec<f64> {
        self.solves.iter().filter(|s| s.1 == phase).map(|s| s.2).collect()
    }

    fn metric(&self, phase: &str, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(p, n, _)| p == phase && n == name).map(|&(_, _, v)| v)
    }
}

fn spawn_child(args: &Args, dir: &Path, role: &str, width: usize) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--child", role])
        .args(["--width", &width.to_string()])
        .arg("--dir")
        .arg(dir)
        .env("RAYON_NUM_THREADS", width.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {role} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{role} child at width {width} exited with {}", output.status));
    }
    let mut out = ChildOut::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |s: &str| s.parse::<f64>().map_err(|e| format!("child line {line:?}: {e}"));
        match f.as_slice() {
            ["solve", i, phase, wall, digest] => {
                out.solves.push((num(i)? as u64, phase.to_string(), num(wall)?, digest.to_string()))
            }
            ["metric", phase, name, v] => {
                out.metrics.push((phase.to_string(), name.to_string(), num(v)?))
            }
            ["failed", n] => out.failed = num(n)? as usize,
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    Ok(out)
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let width = host::nproc();
    let dir = RunDir::create()?;
    dir.write(w, args.seed, Stream::Warmup, 0)?;
    for i in 0..w.traced_instances() as u64 {
        dir.write(w, args.seed, Stream::Timed, i)?;
    }
    let steal_start = host::steal_seconds();
    let pinned = spawn_child(args, &dir.0, "paired", width)?;
    let single = spawn_child(args, &dir.0, "traced", 1)?;
    let steal = steal_start.zip(host::steal_seconds()).map_or(0.0, |(a, b)| b - a);

    // bit identity: the plain solves, the copy and the wrapped real solve
    // at both widths must all agree, instance by instance
    let reference = pinned.digests("plain");
    let mut identical = reference.len() == w.traced_instances();
    let mut copy_matches = true;
    for (child, label) in [(&pinned, "pinned-width"), (&single, "width-1")] {
        if child.digests("real") != reference {
            eprintln!("e2e_bench: {label} wrapped solves differ from the plain solves");
            identical = false;
        }
        if child.digests("copy") != reference {
            eprintln!("e2e_bench: {label} solve_level copy differs; its spans are missing");
            copy_matches = false;
        }
    }
    let total = |phase| pinned.walls(phase).iter().sum::<f64>();
    let overhead = total("copy") / total("plain") - 1.0;

    // the copy's spans when its cuts match; otherwise backend figures
    // come from the real solve's spans and orchestration ones are missing
    let phase = if copy_matches { "copy" } else { "real" };
    let mut metrics = Vec::new();
    for &(name, unit) in &PER_LAYER {
        if !copy_matches && FROM_COPY.contains(&name) {
            continue;
        }
        let value = match name {
            "trace.overhead" if copy_matches => Some(overhead),
            "trace.overhead" => None,
            "host.steal_s" => Some(steal),
            "host.pool_width" => Some(width as f64),
            n if n.starts_with("io.") => pinned.metric("copy", n),
            n if FROM_PINNED_WIDTH.contains(&n) => pinned.metric(phase, n),
            n => single.metric(phase, n),
        };
        if let Some(v) = value {
            metrics.push((name, v, unit));
        }
    }
    let attempted = pinned.solves.len() + single.solves.len();
    let failed = pinned.failed + single.failed;
    eprintln!(
        "e2e_bench: traced {} seed {}: widths {width} and 1, bit-identical {identical}, copy matches {copy_matches}",
        w.name(),
        args.seed
    );
    write_record(
        &format!("record-{}-s{}-traced.json", w.name(), args.seed),
        &[
            ("host", format!("\"{}\"", host::describe())),
            ("pool_width", width.to_string()),
            ("steal_s", json_number(steal)),
            ("digests", json_list(&reference, true)),
            ("bit_identical", identical.to_string()),
            ("copy_matches", copy_matches.to_string()),
        ],
    );
    Ok(Report { correct: identical && failed == 0, attempted, failed, metrics })
}

/// Check one traced-run solve and print its line for the parent;
/// returns `false` when the solve failed or its cut did not check.
fn report_solve(
    w: Workload,
    i: u64,
    phase: &str,
    wall: f64,
    g: &Graph,
    out: Result<(Cut, f64), String>,
) -> bool {
    let checked = out.and_then(|(cut, v)| {
        check::verify(g, &cut, v, reference(w, g)).map(|_| check::digest(&cut))
    });
    if let Err(e) = &checked {
        eprintln!("e2e_bench: {phase} solve {i} failed: {e}");
    }
    println!("solve {i} {phase} {wall} {:016x}", checked.as_ref().map_or(0, |d| *d));
    checked.is_ok()
}

/// One traced-run child: a warm-up solve, then per instance the
/// `solve_level` copy (whose spans are kept) and the real
/// `qq_core::solve` with the same wrapped backends. The `paired` child
/// also solves every instance untraced, before the copy on even
/// instances and after it on odd ones: a second solve of an instance
/// can hit the partition memo, and alternating the order cancels that
/// help out of `trace.overhead`.
fn child_run(args: &Args, role: &str) -> Result<(), String> {
    let w = args.workload;
    let dir = args.dir.as_deref().ok_or("--child needs --dir")?;
    let paired = match role {
        "paired" => true,
        "traced" => false,
        other => return Err(format!("unknown child role {other}")),
    };

    let (g, _) = read_instance(&instance_path(dir, Stream::Warmup, 0))?;
    let plan = w.plan(args.seed, Stream::Warmup, 0);
    trace::set_context(u32::MAX, Phase::Warmup);
    traced_solve(&plan, &g)?;
    if paired {
        workload::solve_plain(&plan, &g)?;
    }

    let mut failed = 0usize;
    for i in 0..w.traced_instances() as u64 {
        trace::set_context(i as u32, Phase::Copy);
        let span = trace::open("io");
        let (g, bytes) = read_instance(&instance_path(dir, Stream::Timed, i))?;
        span.close(vec![("bytes", bytes as f64)]);
        let plan = w.plan(args.seed, Stream::Timed, i);
        let plain = |failed: &mut usize| {
            let t0 = Instant::now();
            let out = workload::solve_plain(&plan, &g).map(|s| (s.cut, s.value));
            *failed += !report_solve(w, i, "plain", t0.elapsed().as_secs_f64(), &g, out) as usize;
        };
        if paired && i % 2 == 0 {
            plain(&mut failed);
        }
        let t0 = Instant::now();
        let copy = traced_solve(&plan, &g);
        let wall = t0.elapsed().as_secs_f64();
        failed += !report_solve(w, i, "copy", wall, &g, copy.clone()) as usize;
        if paired && i % 2 == 1 {
            plain(&mut failed);
        }
        trace::set_context(i as u32, Phase::Real);
        let t0 = Instant::now();
        let real = match &plan {
            Plan::Qaoa2(cfg) => trace::wrapped(cfg).and_then(|cfg| {
                qq_core::solve(&g, &cfg).map(|r| (r.cut, r.cut_value)).map_err(|e| e.to_string())
            }),
            // a direct QAOA solve has no orchestration to copy: its
            // traced call is the real call
            Plan::Qaoa(_) => copy,
        };
        failed += !report_solve(w, i, "real", t0.elapsed().as_secs_f64(), &g, real) as usize;
    }
    println!("failed {failed}");

    let spans = trace::spans();
    let path = out_dir().join(format!("trace-{}-s{}-w{}.json", w.name(), args.seed, args.width));
    if let Err(e) = fs::write(&path, trace::chrome_json(&spans)) {
        eprintln!("e2e_bench: could not write {}: {e}", path.display());
    }
    for (phase, label) in [(Phase::Copy, "copy"), (Phase::Real, "real")] {
        for (name, v) in trace::layer_metrics(&spans, phase, w.traced_instances(), args.width) {
            println!("metric {label} {name} {}", json_number(v));
        }
    }
    Ok(())
}

/// The traced solve of one instance: the `solve_level` copy with wrapped
/// backends, or the traced direct QAOA call.
fn traced_solve(plan: &Plan, g: &Graph) -> Result<(Cut, f64), String> {
    match plan {
        Plan::Qaoa2(cfg) => {
            let cfg = trace::wrapped(cfg)?;
            let cut = trace::traced_solve(g, &cfg).map_err(|e| e.to_string())?;
            let value = cut.value(g);
            Ok((cut, value))
        }
        Plan::Qaoa(cfg) => trace::traced_direct_qaoa(g, cfg).map(|r| (r.cut, r.value)),
    }
}
