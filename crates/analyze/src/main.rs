//! `vqoe-analyze` — run the ten static-analysis gates over the
//! workspace and exit nonzero on any deny-severity violation.
//!
//! ```text
//! vqoe-analyze [--root <dir>] [--format text|json|sarif] [--sarif]
//! ```
//!
//! Without `--root`, the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` declaring `[workspace]`,
//! so the gate works from any crate directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vqoe_analyze::{report, run_all, sarif, severity_of, Severity};

enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "usage: vqoe-analyze [--root <dir>] [--format text|json|sarif] [--sarif]";

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => return usage(&format!("--format expects text|json|sarif, got {other:?}")),
            },
            "--sarif" => format = Format::Sarif,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root expects a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("vqoe-analyze: no workspace root found (no ancestor Cargo.toml with [workspace]); pass --root");
        return ExitCode::from(2);
    };

    let findings = run_all(&root);
    match format {
        Format::Text => print!("{}", report::render_text(&findings)),
        Format::Json => print!("{}", report::render_json(&findings)),
        Format::Sarif => print!("{}", sarif::render(&findings)),
    }
    if findings
        .iter()
        .any(|f| severity_of(&f.rule) == Severity::Deny)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("vqoe-analyze: {problem}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Nearest ancestor of the current directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}
