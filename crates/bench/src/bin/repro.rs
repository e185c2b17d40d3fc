//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale tiny|small|standard] [--queries N] [--len L] <ids…>|all|list
//! ```
//!
//! Examples:
//!
//! ```text
//! repro list                 # show experiment ids
//! repro fig8a fig11          # two experiments at the default (small) scale
//! repro --scale standard all # the full paper sweep
//! ```
//!
//! `--scale` selects a whole [`HarnessConfig`] preset (graph scale, query
//! count and walk length); `--queries` and `--len` then override the
//! preset, whatever the flag order.

use grw_bench::{experiments, HarnessConfig};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: repro [--scale tiny|small|standard] [--queries N] [--len L] <id...>|all|list\n\
         experiment ids: {}",
        experiments::ALL_IDS.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = HarnessConfig::small();
    let (mut queries, mut walk_len) = (None, None);
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => match it.next().map(String::as_str) {
                Some("tiny") => cfg = HarnessConfig::tiny(),
                Some("small") => cfg = HarnessConfig::small(),
                Some("standard") => cfg = HarnessConfig::standard(),
                other => {
                    eprintln!("bad --scale {other:?}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--queries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => queries = Some(n),
                _ => {
                    eprintln!("bad --queries\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--len" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => walk_len = Some(n),
                _ => {
                    eprintln!("bad --len\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    cfg.queries = queries.unwrap_or(cfg.queries);
    cfg.walk_len = walk_len.unwrap_or(cfg.walk_len);
    if ids.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if ids.iter().any(|i| i == "list") {
        for id in experiments::ALL_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let selected: Vec<String> = if ids.iter().any(|i| i == "all") {
        experiments::ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    println!(
        "# RidgeWalker reproduction harness — scale {:?}, {} queries, walk length {}\n",
        cfg.scale, cfg.queries, cfg.walk_len
    );
    for id in &selected {
        match experiments::by_id(id, &cfg) {
            Some(exp) => println!("{exp}"),
            None => {
                eprintln!("unknown experiment {id:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
