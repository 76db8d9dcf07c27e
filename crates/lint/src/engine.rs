//! Workspace walking and rule orchestration.
//!
//! The engine owns the file set ("what gets audited"): every `.rs` file
//! under `crates/*/src/`, recursively, in sorted order — library code and
//! inline `src/bin/` entry points, but not benches, integration-test
//! crates, fixtures, or the offline dependency shims (stand-ins for
//! external crates, not code this repo owns). `docs/SCENARIOS.md` is read
//! for the registry-hygiene doc check when present.
//!
//! The `surface-unreferenced` rule also reads the files that may *use*
//! that code: every `.rs` file under `crates/` (tests, benches and bins
//! included), `tests/`, `examples/` and `perfbench/`, and the Rust code
//! blocks of `docs/SCENARIOS.md`. `target/` directories and
//! `crates/lint/fixtures/` are skipped.

use crate::lexer::lex;
use crate::rules::{self, Registration, SurfaceItem};
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of one workspace analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Surviving (unwaived) findings, sorted by file, line, column, rule.
    pub findings: Vec<Finding>,
    /// Findings suppressed by a reasoned waiver.
    pub waived: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml` and `crates/`).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in sorted_dir(&crates_dir)? {
            let src = krate.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    files.sort();

    let mut findings: Vec<Finding> = Vec::new();
    let mut regs: Vec<Registration> = Vec::new();
    let mut waivers: Vec<(String, crate::source::Waiver)> = Vec::new();
    let mut surface: Vec<SurfaceItem> = Vec::new();
    let mut uses: Vec<(String, BTreeSet<String>)> = Vec::new();
    let mut files_scanned = 0usize;

    for path in &files {
        let text = fs::read_to_string(path)?;
        let rel = rel_path(root, path);
        let file = SourceFile::parse(&rel, &text, rules::ALL_RULES, rules::ALL_REGIONS);
        files_scanned += 1;
        findings.extend(file.directive_errors.iter().cloned());
        rules::check_file(&file, &mut findings, &mut regs);
        rules::collect_surface(&file, &mut surface);
        uses.push((rel.clone(), rules::used_names(&file.tokens)));
        for w in &file.waivers {
            waivers.push((rel.clone(), w.clone()));
        }
    }

    rules::check_duplicate_ids(regs.clone(), &mut findings);

    let doc = root.join("docs/SCENARIOS.md");
    if doc.is_file() {
        let text = fs::read_to_string(&doc)?;
        rules::check_doc_ids("docs/SCENARIOS.md", &text, &regs, &mut findings);
        let code = rules::markdown_rust_code(&text);
        uses.push((
            "docs/SCENARIOS.md".to_string(),
            rules::used_names(&lex(&code)),
        ));
    }

    let mut users = Vec::new();
    for dir in ["crates", "tests", "examples", "perfbench"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut users)?;
        }
    }
    for path in users.iter().filter(|p| files.binary_search(p).is_err()) {
        let text = fs::read_to_string(path)?;
        uses.push((rel_path(root, path), rules::used_names(&lex(&text))));
    }
    rules::check_unreferenced(&surface, &uses, &mut findings);

    let mut waived = 0usize;
    findings.retain(|f| {
        // Directive hygiene findings cannot be waived away.
        if f.rule == rules::RULE_MARKER {
            return true;
        }
        let suppressed = waivers
            .iter()
            .any(|(file, w)| file == &f.file && w.rule == f.rule && w.target_line == f.line);
        if suppressed {
            waived += 1;
        }
        !suppressed
    });

    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.col.cmp(&b.col))
            .then_with(|| a.rule.cmp(&b.rule))
    });

    Ok(Analysis {
        findings,
        waived,
        files_scanned,
    })
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn sorted_dir(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_dir(dir)? {
        let skipped = path.ends_with("target") || path.ends_with("crates/lint/fixtures");
        if skipped {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
