//! The standing gates over the tree's text, each a test, so `cargo test`
//! runs every one of them:
//!
//! * the surface gate: every subcommand, flag and endpoint is named by
//!   four places at once — the argument parser (or route table) that
//!   implements it, the binary's `USAGE` text, README's surface table,
//!   and through that table a test that exercises it. A flag cannot be
//!   added to either binary without saying what it means and what shows
//!   it is needed, and a retired one cannot linger in the docs;
//! * the census of public functions (`tests/test_api.txt`);
//! * retired names stay retired (`tests/retired.txt`);
//! * the structural gates: `unsafe` in two audited modules, one token
//!   loop and one residency bound in the engine, one A_E / T_E, a
//!   sans-I/O connection machine, and the docs' line budget.
//!
//! The sources are read as text: the parsers are plain `match` blocks
//! over string literals, and reading them keeps the gates independent of
//! how the code chooses to structure itself.

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

/// `src` with comments dropped and string and char literals emptied:
/// a name left in it is named by code.
fn code_only(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut rest = src;
    while let Some(c) = rest.chars().next() {
        let after_ident = out.ends_with(|p: char| p.is_alphanumeric() || p == '_');
        let skip = if rest.starts_with("//") {
            rest.find('\n').unwrap_or(rest.len())
        } else if rest.starts_with("/*") {
            rest.find("*/").map_or(rest.len(), |n| n + 2)
        } else if let Some(n) = string_len(rest, after_ident) {
            out.push_str("\"\"");
            n
        } else if let Some(n) = rest.strip_prefix('\'').and_then(char_len) {
            out.push_str("' '");
            n + 1
        } else {
            out.push(c);
            c.len_utf8()
        };
        rest = &rest[skip..];
    }
    out
}

/// The length of the string or raw string literal `s` starts with.
fn string_len(s: &str, after_ident: bool) -> Option<usize> {
    if s.starts_with('"') {
        let mut chars = s.char_indices().skip(1);
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => _ = chars.next(),
                '"' => return Some(i + 1),
                _ => {}
            }
        }
        return Some(s.len());
    }
    let body = s.strip_prefix('r').filter(|_| !after_ident)?;
    let hashes = body.len() - body.trim_start_matches('#').len();
    body[hashes..].strip_prefix('"')?;
    let close = format!("\"{}", "#".repeat(hashes));
    let open = 2 + hashes;
    Some(
        s[open..]
            .find(&close)
            .map_or(s.len(), |n| open + n + close.len()),
    )
}

/// The length after the opening quote of the char literal (`'x'`, `'\n'`,
/// `'é'`) that `s` continues, if any: otherwise the quote is a lifetime's.
fn char_len(s: &str) -> Option<usize> {
    match s.chars().next()? {
        '\\' => s[1..].find('\'').map(|n| n + 2),
        c => s[c.len_utf8()..]
            .starts_with('\'')
            .then(|| c.len_utf8() + 1),
    }
}

/// Every file at or under `path` (a file or a directory; a `*`
/// component stands for every directory at that level), as (path from
/// the package root, text). A path that names nothing panics, so a
/// misspelled scope cannot pass by scanning no file.
fn files(path: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack = vec![root.to_path_buf()];
    for part in path.split('/') {
        stack = stack
            .iter()
            .flat_map(|d| match part {
                "*" => std::fs::read_dir(d)
                    .into_iter()
                    .flatten()
                    .map(|e| e.unwrap().path())
                    .filter(|p| p.is_dir())
                    .collect(),
                _ => vec![d.join(part)],
            })
            .filter(|p| p.exists())
            .collect();
    }
    assert!(!stack.is_empty(), "no file or directory matches {path}");
    let mut out = Vec::new();
    while let Some(p) = stack.pop() {
        if p.is_dir() {
            stack.extend(std::fs::read_dir(&p).unwrap().map(|e| e.unwrap().path()));
        } else {
            let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
            let text = String::from_utf8_lossy(&std::fs::read(&p).unwrap()).into_owned();
            out.push((rel, text));
        }
    }
    out
}

/// Every `.rs` file under `dir`, as (path from the package root, text).
fn rust_files(dir: &str) -> Vec<(String, String)> {
    files(dir)
        .into_iter()
        .filter(|(path, _)| path.ends_with(".rs"))
        .collect()
}

/// Whether `text` holds `name` as a whole identifier that is not a
/// definition (`fn name`), a field (`.name` with no call, `name: T`) or
/// a field's initializer.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(i, _)| {
        let (before, after) = (&text[..i], text[i + name.len()..].trim_start());
        !before.ends_with(ident)
            && !after.starts_with(ident)
            && !before.trim_end().ends_with("fn")
            && (!before.ends_with('.') || after.starts_with('('))
            && (!after.starts_with(':') || after.starts_with("::"))
    })
}

/// The census of public functions. Every `pub fn` in the production part
/// of `src` and `crates/*/src` but the test kit's (each file up to its
/// first `#[cfg(test)]`, comments and literals stripped) is named by
/// production code, `examples/` or the frozen `benchmark/src` — `pub use`
/// items do not count — or is test API, listed in `tests/test_api.txt`
/// with the tests that need it. The list is exact: every entry exists,
/// has no production caller and is named by a test, so it only shrinks.
#[test]
fn every_public_function_has_a_production_caller_or_is_listed_test_api() {
    let mut dirs = vec!["src".to_string()];
    for e in std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates")).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        if name != "testkit" {
            dirs.push(format!("crates/{name}/src"));
        }
    }
    let production: Vec<(String, String)> = dirs
        .iter()
        .flat_map(|d| rust_files(d))
        .map(|(path, text)| (path, code_only(text.split("#[cfg(test)]").next().unwrap())))
        .collect();
    let callers: Vec<String> = production
        .iter()
        .map(|(_, code)| code.clone())
        .chain(
            ["examples", "benchmark/src"]
                .iter()
                .flat_map(|d| rust_files(d))
                .map(|f| code_only(&f.1)),
        )
        .map(|code| {
            // Re-exporting is not calling: drop every `pub use …;`.
            let mut parts = code.split("pub use ");
            let head = parts.next().unwrap().to_string();
            parts.fold(head, |acc, p| acc + p.split_once(';').map_or("", |x| x.1))
        })
        .collect();
    let mut uncalled = Set::new();
    for (path, code) in &production {
        for (at, _) in code
            .match_indices("pub fn ")
            .chain(code.match_indices("pub const fn "))
        {
            let rest = &code[at..];
            let rest = &rest[rest.find("fn ").unwrap() + 3..];
            let name = &rest[..rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap()];
            if !callers.iter().any(|c| names(c, name)) {
                uncalled.insert(format!("{path}::{name}"));
            }
        }
    }

    let listed: Set = read("tests/test_api.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| match l.split_once(" — ") {
            Some((entry, tests)) if !tests.trim().is_empty() => entry.trim().to_string(),
            _ => panic!("tests/test_api.txt: `path::name — the tests that need it`, got {l:?}"),
        })
        .collect();
    let unlisted: Vec<&String> = uncalled.iter().filter(|e| !listed.contains(*e)).collect();
    assert!(
        unlisted.is_empty(),
        "public functions nothing in production calls — delete them, or list \
         them in tests/test_api.txt with the tests that need them: {unlisted:#?}"
    );
    let stale: Vec<&String> = listed.iter().filter(|e| !uncalled.contains(*e)).collect();
    assert!(
        stale.is_empty(),
        "tests/test_api.txt entries that are gone or now have a production \
         caller — drop them from the list: {stale:#?}"
    );
    // Named by a test: an integration test, the test kit, a unit test or
    // a doc example.
    let tests: Vec<String> = ["tests", "crates"]
        .iter()
        .flat_map(|d| rust_files(d))
        .map(|(path, text)| {
            if !dirs.iter().any(|d| path.starts_with(&format!("{d}/"))) {
                return text;
            }
            let docs: Vec<&str> = text
                .lines()
                .filter(|l| l.trim_start().starts_with("//"))
                .collect();
            docs.join("\n") + text.split_once("#[cfg(test)]").map_or("", |x| x.1)
        })
        .collect();
    for entry in &listed {
        let name = entry.rsplit("::").next().unwrap();
        assert!(
            tests.iter().any(|t| names(t, name)),
            "tests/test_api.txt: no test names {entry}"
        );
    }
}

/// One tokenization per kept byte: a fallback plan's kept events build
/// the tree it evaluates, so nothing in the engine's production code runs
/// a tree parser or a second token loop over bytes it rendered itself.
#[test]
fn no_engine_pass_parses_what_it_rendered() {
    for (path, text) in rust_files("crates/engine/src") {
        let code = code_only(text.split("#[cfg(test)]").next().unwrap());
        for name in ["parse", "drain_str"] {
            assert!(!names(&code, name), "{path} calls `{name}`");
        }
        assert!(
            !code.contains("parse_with_"),
            "{path} calls a `parse_with_*`"
        );
    }
}

/// Whether `text` spells `name`: anywhere, or, for a `whole_word`, with
/// no letter, digit, `_` or `-` touching it (`ab_c`, `abc` and `ab-c`
/// do not spell `ab`).
fn spells(text: &str, name: &str, whole_word: bool) -> bool {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '-';
    text.match_indices(name).any(|(i, _)| {
        !whole_word || !(text[..i].ends_with(word) || text[i + name.len()..].starts_with(word))
    })
}

/// Each row of `tests/retired.txt` (its header gives the format): no
/// file in the row's scope spells one of its names unless the row allows
/// that file, and each allowance is used.
#[test]
fn retired_names_stay_retired() {
    let mut back = Vec::new();
    for row in read("tests/retired.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let cells: Vec<&str> = row.split(" | ").map(str::trim).collect();
        let [names, how, scope, allowed, retired] = cells[..] else {
            panic!("tests/retired.txt: `names | match | scope | allowed | retired`, got {row:?}");
        };
        let whole_word = match how {
            "ident" => true,
            "text" => false,
            _ => panic!("tests/retired.txt: match is `ident` or `text`, got {row:?}"),
        };
        let names: Vec<&str> = names.split_whitespace().collect();
        let allowed: Vec<&str> = allowed.split_whitespace().filter(|a| *a != "-").collect();
        let in_allowed = |path: &str, a: &str| path == a || path.starts_with(&format!("{a}/"));
        let mut used = Set::new();
        for (path, text) in scope.split_whitespace().flat_map(files) {
            let spelled: Vec<&str> = names
                .iter()
                .copied()
                .filter(|n| spells(&text, n, whole_word))
                .collect();
            if spelled.is_empty() || path == "tests/retired.txt" {
                continue;
            }
            match allowed.iter().find(|a| in_allowed(&path, a)) {
                Some(a) => _ = used.insert(a.to_string()),
                None => back.push(format!("{path}: {spelled:?} (retired by {retired})")),
            }
        }
        for a in &allowed {
            assert!(
                used.contains(*a),
                "tests/retired.txt: {a} is allowed {names:?} but spells none of them"
            );
        }
    }
    assert!(back.is_empty(), "retired names are back: {back:#?}");
}

/// `unsafe` appears only in the two audited modules — the raw epoll /
/// eventfd / setsockopt / writev FFI and the `GlobalAlloc` wrapper — and
/// every library root forbids unsafe code, or (the two crates holding
/// those modules) denies it and allows it in that module.
#[test]
fn unsafe_is_confined_to_the_two_audited_modules() {
    let audited = ["crates/reactor/src/sys.rs", "crates/bench/src/counter.rs"];
    for (path, text) in ["src", "crates"].into_iter().flat_map(rust_files) {
        let unsafe_code = [
            "unsafe fn",
            "unsafe impl",
            "unsafe trait",
            "unsafe {",
            "unsafe{",
        ]
        .iter()
        .any(|u| text.contains(u));
        assert!(
            !unsafe_code || audited.contains(&path.as_str()),
            "{path}: `unsafe` outside the audited modules"
        );
    }
    for (path, text) in files("src/lib.rs")
        .into_iter()
        .chain(files("crates/*/src/lib.rs"))
    {
        assert!(
            text.contains("#![forbid(unsafe_code)]") || text.contains("#![deny(unsafe_code)]"),
            "{path} neither forbids nor denies unsafe code"
        );
    }
}

/// One token loop in the engine: both passes run one private driver,
/// which constructs the one `PushTokenizer`.
#[test]
fn the_engine_constructs_one_push_tokenizer() {
    let constructions: usize = rust_files("crates/engine/src")
        .iter()
        .map(|(_, text)| text.matches("PushTokenizer::new()").count())
        .sum();
    assert_eq!(
        constructions, 1,
        "PushTokenizer::new() in crates/engine/src"
    );
}

/// The residency bound's depth term is spelled once, in
/// `residency_bound` (this file, which names it, aside).
#[test]
fn the_residency_bound_is_spelled_once() {
    let spelled: Vec<String> = ["src", "crates", "tests"]
        .into_iter()
        .flat_map(files)
        .filter(|(path, _)| path != "tests/surface.rs")
        .flat_map(|(path, text)| {
            let n = text.lines().filter(|l| l.contains("64 * (1 +")).count();
            vec![path; n]
        })
        .collect();
    assert_eq!(spelled, ["crates/engine/src/chunked.rs"]);
}

/// One nesting bound for every recursive-descent parser, declared in
/// `xproj-xmltree`, which they all depend on.
#[test]
fn max_nesting_is_declared_once() {
    let declaring: Vec<String> = rust_files("crates/*/src")
        .into_iter()
        .flat_map(|(path, text)| vec![path; text.matches("const MAX_NESTING").count()])
        .collect();
    assert_eq!(declaring, ["crates/xmltree/src/lib.rs"]);
}

/// A_E and T_E (`Analyzer::axis` / `::test`) are defined once.
#[test]
fn a_e_and_t_e_are_defined_in_analysis_rs_only() {
    let defining: Vec<String> = ["src", "crates/*/src"]
        .into_iter()
        .flat_map(rust_files)
        .filter(|(_, text)| spells(text, "fn axis", true) || spells(text, "fn test", true))
        .map(|(path, _)| path)
        .collect();
    assert_eq!(defining, ["crates/core/src/analysis.rs"]);
}

/// README and DESIGN.md describe the system in at most 1 000 lines.
#[test]
fn readme_and_design_fit_in_a_thousand_lines() {
    let lines = read("README.md").matches('\n').count() + read("DESIGN.md").matches('\n').count();
    assert!(lines <= 1000, "README.md + DESIGN.md: {lines} lines");
}
