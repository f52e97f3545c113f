//! Scenario tooling: validate checked-in spec files.
//!
//! ```text
//! # CI: every spec parses, validates, and is in canonical form
//! cargo run -p mosaic-bench --release --bin scenario -- \
//!     validate scenarios/*.scenario bench/workloads/*.scenario
//! ```
//!
//! `validate` additionally rejects files that are not byte-identical to
//! their canonical serialisation ([`Scenario::to_text`]), so checked-in
//! specs never drift from the format [`Scenario::save`] writes.

use mosaic_sim::Scenario;

fn usage() -> ! {
    eprintln!("usage:\n  scenario validate <file>...");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("validate") => {
            if args.len() < 2 {
                usage();
            }
            let mut failed = false;
            for path in &args[1..] {
                match Scenario::load(path) {
                    Ok(scenario) => {
                        let canonical = scenario.to_text();
                        let on_disk = std::fs::read_to_string(path).expect("load() just read it");
                        if on_disk != canonical {
                            eprintln!(
                                "{path}: NOT CANONICAL — rewrite it in canonical form \
                                 with Scenario::save"
                            );
                            failed = true;
                            continue;
                        }
                        let cells = scenario.cells().expect("load() validated the scenario");
                        println!(
                            "{path}: ok — '{}', {} cells ({} points x {} strategies), \
                             {} eval epochs",
                            scenario.name,
                            cells.len(),
                            cells.len() / scenario.strategies.len(),
                            scenario.strategies.len(),
                            scenario.eval_epochs,
                        );
                    }
                    Err(e) => {
                        eprintln!("{path}: INVALID — {e}");
                        failed = true;
                    }
                }
            }
            if failed {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
