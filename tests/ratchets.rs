//! The ratchets of CI's lint job, as a tier-1 test: every count stays at
//! or under its ceiling in `.github/ratchets.txt`, the file the lint job
//! reads too, so a change that grows one fails here before it reaches CI.
//!
//! Each count follows the lint job's rule to the letter:
//!
//! * `<crate>_lines` — lines of `crates/<crate>/src/*.rs` (no subdirectory)
//!   before each file's first line starting `#[cfg(test)]`;
//! * `core_panics` — those lines of `crates/core/src` that call
//!   `.unwrap()` or `.expect(`;
//! * `facade_fns` — lines of `crates/core/src/api.rs` before its
//!   `#[cfg(test)]` starting `    pub fn `;
//! * `options` — the `    pub <field>:` lines of the `ClusterConfig`,
//!   `PolicyConfig` and `HeatConfig` structs plus the `    pub fn ` lines
//!   of `impl WattDbBuilder` other than `build`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The ceilings, by name.
fn ceilings() -> BTreeMap<String, usize> {
    let text = read(".github/ratchets.txt");
    let lines = text.lines().map(str::trim);
    let entries = lines.filter(|l| !l.is_empty() && !l.starts_with('#'));
    entries
        .map(|l| {
            let (name, ceiling) = l.split_once(' ').expect("<name> <ceiling>");
            (name.to_string(), ceiling.trim().parse().expect("a count"))
        })
        .collect()
}

/// Each `.rs` file directly under `crates/<krate>/src`.
fn sources(krate: &str) -> Vec<String> {
    let dir = root().join("crates").join(krate).join("src");
    fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("a directory entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "rs"))
        .map(|p| fs::read_to_string(p).expect("a source file"))
        .collect()
}

/// A file's lines before its first `#[cfg(test)]`.
fn non_test(file: &str) -> impl Iterator<Item = &str> {
    file.lines().take_while(|l| !l.starts_with("#[cfg(test)]"))
}

fn lines_of(krate: &str) -> usize {
    sources(krate).iter().map(|f| non_test(f).count()).sum()
}

fn panics_of(krate: &str) -> usize {
    let calls = |l: &&str| l.contains(".unwrap()") || l.contains(".expect(");
    sources(krate)
        .iter()
        .map(|f| non_test(f).filter(calls).count())
        .sum()
}

fn facade_fns() -> usize {
    let api = read("crates/core/src/api.rs");
    non_test(&api)
        .filter(|l| l.starts_with("    pub fn "))
        .count()
}

/// `    pub <name>:` with a name of lowercase letters, digits and `_`.
fn is_pub_field(line: &str) -> bool {
    let Some((name, _)) = line
        .strip_prefix("    pub ")
        .and_then(|r| r.split_once(':'))
    else {
        return false;
    };
    !name.is_empty()
        && (name.bytes()).all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Lines matching `counted` inside the blocks that open with a line
/// `opens` accepts and close at the next line starting `}`.
fn in_blocks(text: &str, opens: impl Fn(&str) -> bool, counted: impl Fn(&str) -> bool) -> usize {
    let (mut inside, mut n) = (false, 0);
    for line in text.lines() {
        if opens(line) {
            inside = true;
            continue;
        }
        if inside && line.starts_with('}') {
            inside = false;
        }
        n += usize::from(inside && counted(line));
    }
    n
}

fn options() -> usize {
    let structs = ["ClusterConfig", "PolicyConfig", "HeatConfig"];
    let opens = |l: &str| {
        structs
            .iter()
            .any(|s| l.starts_with(&format!("pub struct {s} {{")))
    };
    let configs = ["crates/core/src/cluster.rs", "crates/core/src/policy.rs"];
    let fields: usize = (configs.iter().chain(["crates/common/src/heat.rs"].iter()))
        .map(|path| in_blocks(&read(path), opens, is_pub_field))
        .sum();
    let setter = |l: &str| l.starts_with("    pub fn ") && !l.starts_with("    pub fn build(");
    let builder = |l: &str| l.starts_with("impl WattDbBuilder {");
    fields + in_blocks(&read("crates/core/src/api.rs"), builder, setter)
}

#[test]
fn every_ratchet_count_stays_at_or_under_its_ceiling() {
    let mut counts = BTreeMap::new();
    for krate in ["core", "wal", "bench", "planner", "tpcc", "query", "sim"] {
        counts.insert(format!("{krate}_lines"), lines_of(krate));
    }
    counts.insert("core_panics".into(), panics_of("core"));
    counts.insert("facade_fns".into(), facade_fns());
    counts.insert("options".into(), options());
    let ceilings = ceilings();
    let names: Vec<_> = ceilings.keys().collect();
    assert_eq!(
        names,
        counts.keys().collect::<Vec<_>>(),
        "one ceiling per count"
    );
    for (name, &count) in &counts {
        let ceiling = ceilings[name];
        println!("{name}: {count} (ceiling {ceiling})");
        assert!(
            count <= ceiling,
            "{name}: {count} over its ceiling {ceiling}"
        );
    }
}
