//! `dosco-benchmark`: runs one workload (or, without `--workload`, each of
//! each workload in a process of its own) and prints every metric by name with
//! its unit, then one JSON line.

use dosco_benchmark::harness::Outcome;
use dosco_benchmark::spec::WORKLOADS;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: dosco-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out DIR]";

/// The environment switches of the product that change what is measured.
const SWITCHES: [&str; 4] = ["DOSCO_THREADS", "DOSCO_SIMD", "DOSCO_TRACE", "DOSCO_SPANS"];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace` alone switches tracing on; `--trace 0|1` is the
            // form the benchmark contract uses.
            args.traced = match it.peek().map(String::as_str) {
                Some("0") => false,
                Some("1") => true,
                _ => {
                    args.traced = true;
                    continue;
                }
            };
            it.next();
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.0 == value) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        names.join(", ")
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad("seconds in (0, 60]"))?;
            }
            "--out" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The contract's result line.
fn result_json(out: &Outcome) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct, out.attempted, out.failed
    );
    for (i, (name, unit, value)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}
const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
/// glibc's initial threshold: an allocation of at least this many bytes
/// gets a mapping of its own.
const MMAP_THRESHOLD: std::ffi::c_int = 128 * 1024;

/// Pins glibc's mmap threshold at its initial value, so that memory is
/// laid out the way a freshly started process lays it out, run after run.
/// Left alone, glibc raises the threshold (up to 32 MB) whenever a mapped
/// block is freed, and this harness frees what it built after every set-up
/// and every segment. Two things then depended on allocation history, that
/// is on the seed and on incidental changes to the harness:
///
/// - whether the policy's 256×256 weight block came from the heap and where
///   it landed. Its AVX2 loads split cache lines unless the block is
///   32-byte aligned: `decision_p50_us` on `decide-abilene` read 12.8 µs or
///   16.5 µs depending on the seed alone (12.8 when the block sat at 0 mod
///   64, 16.5 at 48 mod 64), each repeating within 1 %. A mapped block
///   always sits 16 bytes past a page boundary, which is what a process
///   that loads one policy gets: the 16.5 µs mode.
/// - whether the simulator's large vectors grew by remapping or by copying:
///   `VmHWM` of `sim-grid-static` read 26, 33 or 36.5 MB for identical work.
///   Pinned, it repeats within 1 % (20.3 MB).
///
/// The price: training's 256 KB temporaries are mapped and unmapped on
/// every use instead of settling on the heap, which costs `train-inproc`
/// about 8 % (2 000 against 2 200 steps/s).
fn pin_mmap_threshold() {
    // SAFETY: `mallopt` is glibc's documented tuning call; it takes two
    // integers and changes one allocator parameter. It runs first thing in
    // `main`, before another thread exists that could allocate meanwhile.
    let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) };
    assert_eq!(accepted, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    // One worker thread and no product-side tracing, whatever the caller's
    // environment says; nothing else in this process has started yet.
    std::env::set_var("DOSCO_THREADS", "1");
    for switch in &SWITCHES[1..] {
        std::env::remove_var(switch);
    }
    let switches: Vec<String> = SWITCHES
        .iter()
        .map(|s| {
            format!(
                "{s}={}",
                std::env::var(s).unwrap_or_else(|_| "<unset>".into())
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload={name} seed={} seconds={} trace={} nproc={nproc} mmap_threshold={MMAP_THRESHOLD} {}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        switches.join(" ")
    );

    let mut out =
        dosco_benchmark::run_workload(name, args.seed, args.seconds, args.traced, &args.out_dir)
            .expect("workload name was checked while parsing");
    if let Some(bad) = out.metrics.iter().find(|m| !m.2.is_finite()) {
        out.problems
            .push(format!("{} is not a finite number", bad.0));
        out.correct = false;
    }
    if let Some(tracer) = &out.tracer {
        let counts = out.metrics.iter().map(|m| (m.0, m.2)).collect();
        let path = args.out_dir.join(format!("trace-{name}.json"));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(name, args.seed, &counts)));
        match written {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => {
                out.problems
                    .push(format!("writing {}: {e}", path.display()));
                out.correct = false;
            }
        }
    }
    for (metric, unit, value) in &out.metrics {
        println!("{metric} {value} {unit}");
    }
    println!("ops_attempted {}", out.attempted);
    println!("ops_failed {}", out.failed);
    for note in &out.notes {
        println!("# {note}");
    }
    for problem in &out.problems {
        println!("# FAILED CHECK: {problem}");
    }
    println!("{}", result_json(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, so that each one's
/// peak memory is its own.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let passthrough: Vec<String> = std::env::args().skip(1).collect();
    let mut failed = Vec::new();
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(&passthrough)
            .status()
            .expect("start a workload process");
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(),
    }
}
