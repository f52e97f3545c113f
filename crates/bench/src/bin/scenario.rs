//! Scenario tooling: print presets as canonical `.scenario` text and
//! validate checked-in spec files.
//!
//! ```text
//! # regenerate a checked-in spec
//! cargo run -p mosaic-bench --release --bin scenario -- \
//!     print effectiveness quick > scenarios/effectiveness-quick.scenario
//!
//! # CI: every spec parses, validates, and is in canonical form
//! cargo run -p mosaic-bench --release --bin scenario -- \
//!     validate scenarios/*.scenario bench/workloads/*.scenario
//! ```
//!
//! `validate` additionally rejects files that are not byte-identical to
//! their canonical serialisation ([`Scenario::to_text`]), so checked-in
//! specs never drift from the format `print` emits.

use mosaic_sim::{experiments, Scale, Scenario};

fn usage() -> ! {
    eprintln!(
        "usage:\n  scenario print <effectiveness|full-protocol|beta-sweep|ablation|huge> \
         [quick|default|full]\n  scenario validate <file>..."
    );
    std::process::exit(2);
}

fn scale_named(name: &str) -> Scale {
    match name {
        "quick" => Scale::quick(),
        "default" => Scale::default_scale(),
        "full" => Scale::full(),
        other => {
            eprintln!("unknown scale {other:?}; valid: quick, default, full");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("print") => {
            let preset = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let scale = scale_named(args.get(2).map(String::as_str).unwrap_or("default"));
            let scenario = match preset {
                "effectiveness" => Scenario::effectiveness(&scale),
                "full-protocol" => Scenario::full_protocol(&scale),
                "beta-sweep" => Scenario::beta_sweep(&scale),
                "ablation" => experiments::ablation_base(&scale),
                // The streamed 10M-account scenario is a fixed point,
                // not scale-parameterised; the scale argument is ignored.
                "huge" => Scenario::huge(),
                other => {
                    eprintln!(
                        "unknown preset {other:?}; valid: effectiveness, full-protocol, \
                         beta-sweep, ablation, huge"
                    );
                    std::process::exit(2);
                }
            };
            print!("{}", scenario.to_text());
        }
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
                                "{path}: NOT CANONICAL — regenerate with \
                                 `scenario print` or save via Scenario::save"
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
