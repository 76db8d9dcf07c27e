//! CLI entry point: `dpbyz-lint [--check] [--json] [--root <dir>]
//! [--list-rules]`.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage or I/O error —
//! so `cargo run -p dpbyz-lint -- --check` is directly CI-gateable.

use dpbyz_lint::{analyze_workspace, find_workspace_root, report};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    json: bool,
    root: Option<PathBuf>,
    list_rules: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        json: false,
        root: None,
        list_rules: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            // --check is the (only) mode; accepted for CI-invocation
            // clarity.
            "--check" => {}
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--root" => match it.next() {
                Some(p) => args.root = Some(PathBuf::from(p)),
                None => return Err("--root requires a directory argument".into()),
            },
            "--help" | "-h" => {
                println!(
                    "dpbyz-lint: workspace invariant analyzer\n\n\
                     USAGE: dpbyz-lint [--check] [--json] [--root <dir>] [--list-rules]\n\n\
                     Walks crates/*/src and docs/SCENARIOS.md enforcing determinism,\n\
                     zero-copy, panic-freedom, registry-hygiene and surface-hygiene\n\
                     rules; the surface rule flags a pub fn/const/static that no other\n\
                     file under crates/, tests/, examples/ or perfbench/ (or a Rust\n\
                     block of docs/SCENARIOS.md) names. Exit 0 when clean, 1 on\n\
                     violations, 2 on usage/I/O errors."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpbyz-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        print!("{}", report::rule_list());
        return ExitCode::SUCCESS;
    }
    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("dpbyz-lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };
    match analyze_workspace(&root) {
        Ok(analysis) => {
            if args.json {
                print!("{}", report::json(&analysis));
            } else {
                print!("{}", report::human(&analysis));
            }
            if analysis.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dpbyz-lint: analysis failed: {e}");
            ExitCode::from(2)
        }
    }
}
