//! Collates the CSV lines from `results/*.txt` into one markdown report —
//! the measured half of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p dosco-bench --release --bin summarize -- [results-dir]
//! ```

use dosco_obs::env::Flags;
use std::collections::BTreeMap;
use std::path::Path;

/// One parsed CSV record: `figure,algo,x,mean,std[,delay]`.
#[derive(Debug, Clone)]
struct Record {
    algo: String,
    x: String,
    mean: f64,
    std: f64,
    delay: Option<String>,
}

fn parse_records(text: &str) -> BTreeMap<String, Vec<Record>> {
    let mut by_figure: BTreeMap<String, Vec<Record>> = BTreeMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.trim().split(',').collect();
        if fields.len() < 5 || !fields[0].starts_with("Fig") {
            continue;
        }
        let (Ok(mean), Ok(std)) = (fields[3].parse::<f64>(), fields[4].parse::<f64>()) else {
            continue;
        };
        by_figure
            .entry(fields[0].to_string())
            .or_default()
            .push(Record {
                algo: fields[1].to_string(),
                x: fields[2].to_string(),
                mean,
                std,
                delay: fields.get(5).map(|s| s.to_string()),
            });
    }
    by_figure
}

fn main() {
    let flags = Flags::parse(std::env::args().skip(1), "", "").unwrap_or_else(|e| e.exit());
    let dir = Path::new(flags.operands().first().map_or("results", String::as_str));
    let mut all = String::new();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(1)
        })
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    files.sort();
    for f in &files {
        if let Ok(text) = std::fs::read_to_string(f) {
            all.push_str(&text);
            all.push('\n');
        }
    }
    let by_figure = parse_records(&all);
    if by_figure.is_empty() {
        println!("no figure CSV records found under {}", dir.display());
        return;
    }
    for (figure, records) in &by_figure {
        println!("\n### {figure} (measured, mean ± std over eval seeds)\n");
        // Collect x-axis values in first-seen order.
        let mut xs: Vec<&str> = Vec::new();
        let mut algos: Vec<&str> = Vec::new();
        for r in records {
            if !xs.contains(&r.x.as_str()) {
                xs.push(&r.x);
            }
            if !algos.contains(&r.algo.as_str()) {
                algos.push(&r.algo);
            }
        }
        print!("| algo \\ x |");
        for x in &xs {
            print!(" {x} |");
        }
        println!();
        print!("|---|");
        for _ in &xs {
            print!("---|");
        }
        println!();
        for algo in &algos {
            print!("| {algo} |");
            for x in &xs {
                match records.iter().find(|r| &r.algo == algo && &r.x == x) {
                    Some(r) => {
                        print!(" {:.2}±{:.2}", r.mean, r.std);
                        if let Some(d) = &r.delay {
                            if d != "-" {
                                print!(" ({d} ms)");
                            }
                        }
                        print!(" |");
                    }
                    None => print!(" - |"),
                }
            }
            println!();
        }
    }
    // Fig 9b latency lines are in a different format; pass them through.
    let latency: Vec<&str> = all
        .lines()
        .filter(|l| l.starts_with("csv: fig9b"))
        .collect();
    if !latency.is_empty() {
        println!("\n### Fig 9b (measured per-decision latency, ms)\n");
        println!("| network | nodes | Δ_G | DistDRL | CentralDRL |");
        println!("|---|---|---|---|---|");
        for l in latency {
            let fields: Vec<&str> = l.trim_start_matches("csv: ").split(',').collect();
            if fields.len() == 6 {
                println!(
                    "| {} | {} | {} | {} | {} |",
                    fields[1], fields[2], fields[3], fields[4], fields[5]
                );
            }
        }
    }
}
