//! Every public module must carry a verdict in DESIGN.md §3.
//!
//! The "Module verdicts" table in DESIGN §3 names, for each `pub mod` of
//! each workspace crate, what reaches it (a §4 paper row, the serving
//! path, a test pinning a claimed behaviour, or a perfbench metric).  This
//! test keeps the table and the code in step: a new `pub mod` without a
//! row fails, and so does a row for a module that no longer exists.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// `<package>::<module>` for every `pub mod` declared in a crate root.
fn public_modules(root: &Path) -> BTreeSet<String> {
    let mut found = BTreeSet::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let dir = entry.expect("crates/ entry").path();
        let Ok(lib) = fs::read_to_string(dir.join("src/lib.rs")) else {
            continue;
        };
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate Cargo.toml");
        let package = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = "))
            .map(|v| v.trim_matches('"').to_string())
            .unwrap_or_else(|| panic!("{} has no package name", dir.display()));
        for line in lib.lines() {
            if let Some(rest) = line.trim().strip_prefix("pub mod ") {
                let name = rest.trim_end_matches([';', '{', ' ']);
                found.insert(format!("{package}::{name}"));
            }
        }
    }
    found
}

/// The first-column module names of the verdict table in DESIGN §3.
fn verdict_rows(design: &str) -> BTreeSet<String> {
    let start = design.find("\n## 3.").expect("DESIGN.md has a §3");
    let end = design[start..]
        .find("\n## 4.")
        .map_or(design.len(), |i| start + i);
    design[start..end]
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split_once('`').map(|(name, _)| name.to_string()))
        .collect()
}

#[test]
fn every_public_module_has_a_verdict_in_design() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let modules = public_modules(root);
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let rows = verdict_rows(&design);
    assert!(!modules.is_empty(), "found no pub mod under crates/");

    let missing: Vec<_> = modules.difference(&rows).collect();
    assert!(
        missing.is_empty(),
        "public modules without a verdict row in DESIGN.md §3: {missing:?}"
    );
    let stale: Vec<_> = rows.difference(&modules).collect();
    assert!(
        stale.is_empty(),
        "DESIGN.md §3 verdict rows for modules that do not exist: {stale:?}"
    );
}
