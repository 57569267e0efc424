//! Regenerates **Table I**: real-world network topologies and their size
//! and degree statistics.
//!
//! ```text
//! cargo run -p dosco-bench --release --bin table1
//! ```

use dosco_obs::env::Flags;
use dosco_topology::zoo;

fn main() {
    Flags::parse(std::env::args().skip(1), "", "").unwrap_or_else(|e| e.exit());
    println!("TABLE I: Real-world network topologies [9]");
    println!(
        "{:<14} {:>5} {:>5}   Degree (Min./Max./Avg.)",
        "Network", "Nodes", "Edges"
    );
    for row in zoo::table1() {
        println!("{row}");
    }
    println!("\ncsv:");
    println!("network,nodes,edges,min_degree,max_degree,avg_degree");
    for row in zoo::table1() {
        println!(
            "{},{},{},{},{},{:.2}",
            row.name, row.nodes, row.edges, row.degree.min, row.degree.max, row.degree.avg
        );
    }
}
