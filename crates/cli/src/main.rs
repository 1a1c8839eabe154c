//! `cubemm` — command-line front end for the simulated-hypercube matrix
//! multiplication workspace.
//!
//! ```text
//! cubemm list  [n] [p]                     applicability of every algorithm
//! cubemm run   --algo A --n N --p P [...]  one verified simulated run
//! cubemm sweep --n N [--p P1,P2,...]       all algorithms across machines
//! cubemm regions [--port one|multi] [--ts X] [--tw Y]
//!                                          Figure 13/14-style region map
//! cubemm analyze <algo|all> [--n N] [--p P] [--port one|multi|both]
//!                                          static schedule certification
//! cubemm serve [--workers N] [--queue N] [--socket PATH]
//!                                          long-lived JSON-lines multiply
//!                                          service with admission control
//! cubemm chaos <algo|all> [--seed S] [--runs N] [--repro-dir DIR]
//!                                          seeded coverage-guided fault
//!                                          campaign with shrunk repros
//! cubemm tune-kernel [--n N] [--reps R] [--threads T] [--full]
//!                    [--out FILE] [--dry-run]
//!                                          sweep packed-GEMM blocking
//!                                          params, persist the winner
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("list") => commands::list(&argv[1..]),
        Some("run") => commands::run(&argv[1..]),
        Some("sweep") => commands::sweep(&argv[1..]),
        Some("regions") => commands::regions(&argv[1..]),
        Some("analyze") => commands::analyze(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("chaos") => commands::chaos(&argv[1..]),
        Some("tune-kernel") => commands::tune_kernel(&argv[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", commands::USAGE);
            0
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n\n{}", commands::USAGE);
            2
        }
    };
    std::process::exit(code);
}
