//! The standing surface gate (ROADMAP item 5): every subcommand, flag and
//! endpoint is named by four places at once — the argument parser (or
//! route table) that implements it, the binary's `USAGE` text, README's
//! surface table, and through that table a test that exercises it — or
//! this test fails. A flag cannot be added to either binary without
//! saying what it means and what shows it is needed, and a retired one
//! cannot linger in the docs.
//!
//! The sources are read as text: the parsers are plain `match` blocks
//! over string literals, and reading them keeps the gate independent of
//! how the binaries choose to structure their options.

use std::collections::BTreeSet;
use std::path::Path;

type Set = BTreeSet<String>;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every string literal on the pattern side of a `match` arm
/// (`"--query" | "-q" => …`), in the production part of a source file.
fn match_arm_literals(src: &str) -> Set {
    let production = src.split("#[cfg(test)]").next().unwrap();
    let mut out = Set::new();
    for line in production.lines() {
        let line = line.trim_start();
        let Some((patterns, _)) = line.split_once("=>") else {
            continue;
        };
        let literals: Vec<&str> = patterns.split('|').map(str::trim).collect();
        if literals
            .iter()
            .all(|p| p.len() >= 2 && p.starts_with('"') && p.ends_with('"'))
        {
            out.extend(literals.iter().map(|p| p[1..p.len() - 1].to_string()));
        }
    }
    out
}

/// The text of `const USAGE: &str = r#"…"#;`.
fn usage_of(src: &str) -> &str {
    let start = src
        .find("const USAGE: &str = r#\"")
        .expect("a USAGE constant")
        + 23;
    &src[start..start + src[start..].find("\"#;").expect("USAGE ends")]
}

/// Every maximal run of `prefix` + letters, digits and `prefix`'s own
/// characters in `text` that starts at `prefix`: `[--output`,
/// `--query/--update` and `/v1/dtd?root=NAME` yield `--output`, `--query`,
/// `--update` and `/v1/dtd`; `HTTP/1.1` yields nothing.
fn tokens(text: &str, prefix: &str) -> Set {
    let allowed = |c: char| c.is_ascii_alphanumeric() || prefix.contains(c);
    text.match_indices(prefix)
        .filter(|&(i, _)| !text[..i].chars().next_back().is_some_and(allowed))
        .map(|(i, _)| {
            let tail = &text[i..];
            tail[..tail.find(|c| !allowed(c)).unwrap_or(tail.len())]
                .trim_end_matches('-')
                .to_string()
        })
        .filter(|t| t.len() > prefix.len())
        .collect()
}

/// README's surface table: `(first cell without backticks, evidence cell)`.
fn readme_rows(readme: &str) -> Vec<(String, String)> {
    let table = readme
        .split("<!-- surface:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- surface:end -->").next())
        .expect("README has a <!-- surface:begin --> … <!-- surface:end --> table");
    let mut rows = Vec::new();
    for line in table.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = line.trim_matches('|').split(" | ").map(str::trim).collect();
        assert_eq!(
            cells.len(),
            3,
            "a surface row is item | meaning | evidence: {line}"
        );
        assert!(cells.iter().all(|c| !c.is_empty()), "empty cell: {line}");
        rows.push((cells[0].trim_matches('`').to_string(), cells[2].to_string()));
    }
    rows
}

/// Rows whose item starts with `prefix`, as the set of what follows it.
fn rows_with(rows: &[(String, String)], prefix: &str) -> Set {
    rows.iter()
        .filter_map(|(item, _)| item.strip_prefix(prefix))
        .map(str::to_string)
        .collect()
}

fn without_help(mut set: Set) -> Set {
    set.retain(|f| f != "--help" && f != "-h");
    set
}

#[test]
fn parsers_usage_texts_and_readme_name_the_same_surface() {
    let rows = readme_rows(&read("README.md"));

    // xmlprune: subcommands and options.
    let cli = read("src/bin/xmlprune.rs");
    let usage = usage_of(&cli);
    let arms = match_arm_literals(&cli);
    let subcommands: Set = arms
        .iter()
        .filter(|a| !a.starts_with('-'))
        .cloned()
        .collect();
    let options: Set = without_help(
        arms.iter()
            .filter(|a| a.starts_with("--"))
            .cloned()
            .collect(),
    );
    let aliases: Set = without_help(
        arms.iter()
            .filter(|a| a.starts_with('-') && !a.starts_with("--"))
            .cloned()
            .collect(),
    );
    let usage_subcommands: Set = usage
        .lines()
        .filter_map(|l| l.strip_prefix("  xmlprune "))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert_eq!(subcommands, usage_subcommands, "xmlprune: `run` vs USAGE");
    assert_eq!(
        options,
        tokens(usage, "--"),
        "xmlprune: `parse_opts` vs USAGE"
    );
    for alias in &aliases {
        assert!(
            usage.contains(&format!("{alias},")) || usage.contains(&format!("{alias} ")),
            "USAGE never mentions {alias}"
        );
    }
    let documented = rows_with(&rows, "xmlprune ");
    assert_eq!(
        documented,
        subcommands.union(&options).cloned().collect::<Set>(),
        "xmlprune: README surface table vs the parser"
    );

    // xmlpruned: flags and endpoints.
    let daemon = read("crates/server/src/bin/xmlpruned.rs");
    let usage = usage_of(&daemon);
    let flags = without_help(match_arm_literals(&daemon));
    assert_eq!(flags, tokens(usage, "--"), "xmlpruned: parser vs USAGE");
    assert_eq!(
        flags,
        rows_with(&rows, "xmlpruned "),
        "xmlpruned: parser vs README surface table"
    );
    let smoke = read("crates/server/tests/binary_smoke.rs");
    for flag in &flags {
        assert!(
            smoke.contains(&format!("(\"{flag}\", ")),
            "binary_smoke.rs FLAGS has no case for {flag}"
        );
    }
    let routes: Set = match_arm_literals(&read("crates/server/src/handlers.rs"))
        .into_iter()
        .filter(|a| a.starts_with('/'))
        .collect();
    assert_eq!(routes, tokens(usage, "/"), "xmlpruned: `route` vs USAGE");
    let documented: Set = rows
        .iter()
        .filter_map(|(item, _)| item.split_once(" /"))
        .map(|(_, path)| format!("/{path}"))
        .collect();
    assert_eq!(
        routes, documented,
        "xmlpruned: `route` vs README surface table"
    );

    // Nothing else hides in the table, and each row's evidence names at
    // least one test that exists, as `path/to/file.rs::test_name`.
    for (item, evidence) in &rows {
        assert!(
            item.starts_with("xmlprune ") || item.starts_with("xmlpruned ") || item.contains(" /"),
            "unclassified surface row: {item}"
        );
        let tests: Vec<&str> = evidence
            .split('`')
            .filter(|w| w.contains(".rs::"))
            .collect();
        assert!(!tests.is_empty(), "{item}: the evidence cell names no test");
        for test in tests {
            let (file, name) = test.split_once("::").unwrap();
            assert!(
                read(file).contains(&format!("fn {name}(")),
                "{item}: no `{name}` in {file}"
            );
        }
    }
}
