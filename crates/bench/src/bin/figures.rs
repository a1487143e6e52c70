//! `figures` — regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! figures                 # print every figure
//! figures --fig 20a       # one figure
//! figures --fig hw        # the hardware abstractions (Figs 17-19, Table 3)
//! figures --experiments   # every figure row, paper vs measured, as one Markdown table
//! ```

use cim_bench::{all_figures, hardware_abstractions, Series};

fn experiments_markdown(figures: &[Series]) -> String {
    let mut s = String::new();
    s.push_str("| Figure | Row | Paper | Measured | Unit |\n");
    s.push_str("|--------|-----|-------|----------|------|\n");
    for fig in figures {
        for row in &fig.rows {
            let paper = row
                .paper
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "—".to_owned());
            s.push_str(&format!(
                "| {} | {} | {} | {:.3} | {} |\n",
                fig.id, row.label, paper, row.value, row.unit
            ));
        }
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig_filter: Option<String> = None;
    let mut experiments = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                fig_filter = args.get(i + 1).cloned();
                i += 2;
            }
            "--experiments" => {
                experiments = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig <id>|hw|all] [--experiments]\n\
                     ids: 20a 20b 20c 20d 21a 21b 21c 21d 22a 22b 22c 22d hw ablations table1"
                );
                return;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }

    if matches!(fig_filter.as_deref(), Some("hw")) {
        print!("{}", hardware_abstractions());
        return;
    }
    if matches!(fig_filter.as_deref(), Some("table1")) {
        print!("{}", cim_bench::table1());
        return;
    }
    if matches!(fig_filter.as_deref(), Some("ablations")) {
        for s in cim_bench::ablations::all_ablations() {
            println!("{}", s.render());
        }
        return;
    }

    let figures: Vec<Series> = match fig_filter.as_deref() {
        None | Some("all") => all_figures(),
        Some(id) => {
            let figs = all_figures();
            let found: Vec<Series> = figs.into_iter().filter(|f| f.id == id).collect();
            if found.is_empty() {
                eprintln!("unknown figure id `{id}`");
                std::process::exit(2);
            }
            found
        }
    };

    if experiments {
        print!("{}", experiments_markdown(&figures));
        return;
    }
    for fig in &figures {
        println!("{}", fig.render());
    }
}
