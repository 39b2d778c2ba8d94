//! Integration tests for the `xmlprune` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_xmlprune");

const DTD: &str = "<!ELEMENT bib (book*)>\n\
    <!ELEMENT book (title, author*)>\n\
    <!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT author (#PCDATA)>\n";

const DOC: &str =
    "<bib><book><title>T</title><author>A</author></book></bib>";

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xmlprune-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

#[test]
fn prune_with_external_dtd() {
    let dtd = write_tmp("books.dtd", DTD);
    let doc = write_tmp("books.xml", DOC);
    let out = Command::new(BIN)
        .args([
            "prune",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--query",
            "/bib/book/title",
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.trim(),
        "<bib><book><title>T</title></book></bib>"
    );
}

#[test]
fn prune_from_stdin_with_dataguide() {
    let mut child = Command::new(BIN)
        .args(["prune", "--query", "//title"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(DOC.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<title>T</title>"));
    assert!(!stdout.contains("author"));
    // and it told us it fell back to a dataguide
    assert!(String::from_utf8_lossy(&out.stderr).contains("dataguide"));
}

#[test]
fn analyze_prints_projector() {
    let dtd = write_tmp("books2.dtd", DTD);
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "/bib/book/author",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("author"));
    assert!(!stdout.contains("title\n"), "{stdout}");
}

#[test]
fn analyze_report_has_analysis_sections() {
    let dtd = write_tmp("books-report.dtd", DTD);
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "/bib/book/title",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "projector:",
        "provenance:",
        "dtd properties (Def. 4.3):",
        "optimality (Thm. 4.7):",
        "retention: predicted",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
    }
    assert!(stdout.contains("chain bib → book → title"), "{stdout}");
}

#[test]
fn analyze_json_lines_parse() {
    let dtd = write_tmp("books-json.dtd", DTD);
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--json",
            "/bib/book/title",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut types = Vec::new();
    for line in stdout.lines() {
        let v = xproj_testkit::parse_json(line)
            .unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"));
        types.push(v.get("type").and_then(|t| t.as_str()).unwrap().to_string());
    }
    for t in ["meta", "path", "name", "dtd", "optimality", "retention"] {
        assert!(types.iter().any(|x| x == t), "missing {t} record:\n{stdout}");
    }
}

#[test]
fn analyze_sample_calibrates_retention() {
    let dtd = write_tmp("books-cal.dtd", DTD);
    let doc = write_tmp("books-cal.xml", DOC);
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--sample",
            doc.to_str().unwrap(),
            "/bib/book/title",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("calibrated from sample"), "{stdout}");
}

#[test]
fn analyze_diffs_two_dtd_versions() {
    let dtd = write_tmp("books-old.dtd", DTD);
    let new = write_tmp(
        "books-new.dtd",
        "<!ELEMENT bib (book*)>\n\
         <!ELEMENT book (title, subtitle?, author*)>\n\
         <!ELEMENT title (#PCDATA)>\n\
         <!ELEMENT subtitle (#PCDATA)>\n\
         <!ELEMENT author (#PCDATA)>\n",
    );
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--diff-dtd",
            new.to_str().unwrap(),
            "/bib/book",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("projector diff:"), "{stdout}");
    assert!(stdout.contains("added: "), "{stdout}");
    assert!(stdout.contains("subtitle"), "{stdout}");
}

#[test]
fn analyze_bad_diff_dtd_carries_stable_code() {
    let dtd = write_tmp("books-badnew.dtd", DTD);
    let garbage = write_tmp("garbage.dtd", "<!NOT-A-DTD");
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--diff-dtd",
            garbage.to_str().unwrap(),
            "/bib/book",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[bad-dtd]"), "{stderr}");
}

#[test]
fn analyze_bad_query_carries_stable_code() {
    let dtd = write_tmp("books-badq.dtd", DTD);
    let out = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "/bib/book[",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[bad-query]"), "{stderr}");
}

/// 40 000 nested parentheses used to overflow the main thread's stack
/// (exit 134); the parsers' nesting counter makes it a bad query.
#[test]
fn deeply_nested_query_is_a_bad_query_not_an_abort() {
    let dtd = write_tmp("books-deepq.dtd", DTD);
    let query = format!("{}/bib{}", "(".repeat(40_000), ")".repeat(40_000));
    for command in ["analyze", "prune"] {
        let mut args = vec![command, "--dtd", dtd.to_str().unwrap(), "--root", "bib"];
        if command == "prune" {
            args.extend(["--chunked", "--query"]);
        }
        args.push(&query);
        let out = Command::new(BIN)
            .args(&args)
            .stdin(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{command}: {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("nesting exceeds"), "{command}: {stderr}");
    }
}

#[test]
fn validate_ok_and_fail() {
    let dtd = write_tmp("books3.dtd", DTD);
    let doc = write_tmp("ok.xml", DOC);
    let ok = Command::new(BIN)
        .args([
            "validate",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());

    let bad = write_tmp("bad.xml", "<bib><book><author>A</author></book></bib>");
    let fail = Command::new(BIN)
        .args([
            "validate",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!fail.status.success());
}

#[test]
fn query_evaluates_xquery() {
    let doc = write_tmp("q.xml", DOC);
    let out = Command::new(BIN)
        .args([
            "query",
            "--query",
            "for $b in /bib/book return $b/title/text()",
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap().trim(), "T");
}

#[test]
fn guide_round_trips_through_the_dtd_parser() {
    let doc = write_tmp("g.xml", DOC);
    let out = Command::new(BIN)
        .args(["guide", doc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let dtd_text = String::from_utf8(out.stdout).unwrap();
    let dtd = xml_projection::dtd::parse_dtd(&dtd_text, "bib").unwrap();
    assert!(dtd.name_of_tag_str("book").is_some());
}

#[test]
fn internal_subset_is_used() {
    let doc = write_tmp(
        "subset.xml",
        "<!DOCTYPE bib [<!ELEMENT bib (book*)><!ELEMENT book (title)>\
         <!ELEMENT title (#PCDATA)>]>\
         <bib><book><title>T</title></book></bib>",
    );
    let out = Command::new(BIN)
        .args(["prune", "--query", "/bib/book", doc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("internal DTD subset"));
}

#[test]
fn unknown_command_fails() {
    let out = Command::new(BIN).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn projector_save_and_reuse() {
    let dtd = write_tmp("books4.dtd", DTD);
    let doc = write_tmp("books4.xml", DOC);
    let proj = std::env::temp_dir().join("xmlprune-cli-tests/proj.txt");
    let save = Command::new(BIN)
        .args([
            "analyze",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--save",
            proj.to_str().unwrap(),
            "/bib/book/title",
        ])
        .output()
        .unwrap();
    assert!(save.status.success(), "{}", String::from_utf8_lossy(&save.stderr));
    let prune = Command::new(BIN)
        .args([
            "prune",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--projector",
            proj.to_str().unwrap(),
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(prune.status.success());
    let out = String::from_utf8(prune.stdout).unwrap();
    assert!(out.contains("<title>T</title>"));
    assert!(!out.contains("author"));
}

#[test]
fn chunked_prune_matches_in_memory_prune() {
    let dtd = write_tmp("books6.dtd", DTD);
    let doc = write_tmp("books6.xml", DOC);
    let base = [
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "--query",
        "/bib/book/title",
        doc.to_str().unwrap(),
    ];
    let whole = Command::new(BIN)
        .arg("prune")
        .args(base)
        .output()
        .unwrap();
    assert!(whole.status.success());
    let chunked = Command::new(BIN)
        .args(["prune", "--chunked", "--chunk-size", "3", "--stats"])
        .args(base)
        .output()
        .unwrap();
    assert!(
        chunked.status.success(),
        "{}",
        String::from_utf8_lossy(&chunked.stderr)
    );
    // The in-memory path prints with a trailing newline; chunked writes
    // the raw pruned bytes. The documents must match.
    assert_eq!(
        String::from_utf8(chunked.stdout).unwrap(),
        String::from_utf8(whole.stdout).unwrap().trim_end_matches('\n')
    );
    let stderr = String::from_utf8_lossy(&chunked.stderr);
    assert!(
        stderr.contains("\"group\":\"engine\"") && stderr.contains("\"bytes_in\""),
        "--stats must emit a JSON metrics line, got:\n{stderr}"
    );
}

#[test]
fn chunked_prune_reads_stdin() {
    let dtd = write_tmp("books7.dtd", DTD);
    let mut child = Command::new(BIN)
        .args([
            "prune",
            "--chunked",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--query",
            "//author",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(DOC.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<author>A</author>"));
    assert!(!stdout.contains("title"));
}

#[test]
fn chunked_prune_requires_explicit_dtd() {
    let doc = write_tmp("books8.xml", DOC);
    let out = Command::new(BIN)
        .args([
            "prune",
            "--chunked",
            "--query",
            "//title",
            doc.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--dtd"));
}

#[test]
fn parallel_batch_prunes_into_directory() {
    let dtd = write_tmp("books9.dtd", DTD);
    let mut inputs = Vec::new();
    for i in 0..4 {
        let doc = format!(
            "<bib><book><title>T{i}</title><author>A{i}</author></book></bib>"
        );
        inputs.push(write_tmp(&format!("batch{i}.xml"), &doc));
    }
    let outdir = std::env::temp_dir().join("xmlprune-cli-tests/batch-out");
    let _ = std::fs::remove_dir_all(&outdir);
    let out = Command::new(BIN)
        .args([
            "prune",
            "--jobs",
            "3",
            "--stats",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--query",
            "/bib/book/title",
            "-o",
            outdir.to_str().unwrap(),
        ])
        .args(inputs.iter().map(|p| p.to_str().unwrap()))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for i in 0..4 {
        let pruned = std::fs::read_to_string(outdir.join(format!("batch{i}.xml"))).unwrap();
        assert_eq!(pruned, format!("<bib><book><title>T{i}</title></book></bib>"));
    }
    // Per-file JSON lines plus the aggregate line.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("\"group\":\"engine\"").count(), 5, "{stderr}");
    assert!(stderr.contains("batch_total"));
}

#[test]
fn prune_with_fused_validation_rejects_invalid() {
    let dtd = write_tmp("books5.dtd", DTD);
    // author before title violates the content model
    let bad = write_tmp("bad5.xml", "<bib><book><author>A</author><title>T</title></book></bib>");
    let out = Command::new(BIN)
        .args([
            "prune",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--validate",
            "--query",
            "//title",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("not allowed"));
    // without --validate the same input prunes fine
    let ok = Command::new(BIN)
        .args([
            "prune",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--query",
            "//title",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(ok.status.success());
}
