//! Integration tests for the `xmlprune` command-line tool.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_xmlprune");

const DTD: &str = "<!ELEMENT bib (book*)>\n\
    <!ELEMENT book (title, author*)>\n\
    <!ELEMENT title (#PCDATA)>\n\
    <!ELEMENT author (#PCDATA)>\n";

const DOC: &str = "<bib><book><title>T</title><author>A</author></book></bib>";

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xmlprune-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p
}

/// Runs `xmlprune` with `args`, `stdin` on its standard input.
fn run_with_stdin(args: &[&str], stdin: &[u8]) -> std::process::Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    pipe_into(cmd, stdin)
}

/// Runs `cmd` with `stdin` on its standard input.
fn pipe_into(mut cmd: Command, stdin: &[u8]) -> std::process::Output {
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut pipe = child.stdin.take().unwrap();
    std::thread::scope(|s| {
        // Written from a second thread: a large document fills the stdin
        // pipe while the child's own output waits to be read. A run that
        // fails on its arguments exits without reading stdin at all.
        s.spawn(move || {
            let _ = pipe.write_all(stdin);
        });
        child.wait_with_output().unwrap()
    })
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim(), "<bib><book><title>T</title></book></bib>");
}

#[test]
fn prune_from_stdin_with_dataguide() {
    let out = run_with_stdin(&["prune", "--query", "//title"], DOC.as_bytes());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
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

/// The JSON-lines report parses record by record, for the books grammar
/// and for the committed auction grammar with a selective XMark path:
/// the predicted retention sits in (0, 0.5) and every provenance chain
/// starts at the root.
#[test]
fn analyze_json_lines_parse() {
    let books = write_tmp("books-json.dtd", DTD);
    let auction = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/auction.dtd");
    let keyword = "/site/closed_auctions/closed_auction/annotation/description/text/keyword";
    for (dtd, root, query) in [
        (books.to_str().unwrap(), "bib", "/bib/book/title"),
        (auction, "site", keyword),
    ] {
        let out = Command::new(BIN)
            .args(["analyze", "--dtd", dtd, "--root", root, "--json", query])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let records: Vec<_> = stdout
            .lines()
            .map(|line| {
                xproj_testkit::parse_json(line).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"))
            })
            .collect();
        let of_type = |t: &str| {
            records
                .iter()
                .filter(|r| r.get("type").and_then(|x| x.as_str()) == Some(t))
                .collect::<Vec<_>>()
        };
        for t in ["meta", "path", "name", "dtd", "optimality", "retention"] {
            assert!(
                !of_type(t).is_empty(),
                "{query}: missing {t} record:\n{stdout}"
            );
        }
        let predicted = of_type("retention")[0]
            .get("predicted")
            .and_then(|p| p.as_f64());
        assert!(
            predicted.is_some_and(|p| 0.0 < p && p < 0.5),
            "{query}: predicted retention {predicted:?}"
        );
        for name in of_type("name") {
            let chain = name.get("chain").and_then(|c| c.as_arr()).unwrap();
            assert_eq!(chain[0].as_str(), Some(root), "{query}: {name:?}");
        }
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("calibrated from sample"), "{stdout}");
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
            args.push("--query");
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
    assert_eq!(fail.status.code(), Some(1));
    assert!(fail.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&fail.stderr).lines().next(),
        Some("xmlprune: invalid: chunked prune: streaming prune: validation: element 'author' not allowed here inside 'book'")
    );
}

/// `query` and `validate` stream with `--dtd` as `prune` does: under an
/// address-space limit smaller than the document, a stdin document
/// still streams through in 64 KiB reads. Reading it whole, or building
/// its tree, would run out of memory.
#[cfg(unix)]
#[test]
fn query_and_validate_stream_a_document_larger_than_their_memory_limit() {
    const LIMIT_KIB: usize = 12 << 10;
    let dtd = write_tmp("books-limit.dtd", DTD);
    let record = "<book><title>Some title text here</title>\
                  <author>An Author Name</author><author>Another</author></book>\n";
    let doc = format!("<bib>{}</bib>", record.repeat((13 << 20) / record.len()));
    assert!(doc.len() > LIMIT_KIB << 10);
    let limited = ["-c", "ulimit -v \"$1\"; shift; exec \"$0\" \"$@\"", BIN];
    let limit = LIMIT_KIB.to_string();
    let grammar = ["--dtd", dtd.to_str().unwrap(), "--root", "bib"];
    for (args, stdout) in [
        (&["query", "-q", "//nothing"][..], "\n"),
        (&["validate"][..], "valid against external DTD\n"),
    ] {
        let mut cmd = Command::new("sh");
        cmd.args(limited).arg(&limit).args(args).args(grammar);
        let out = pipe_into(cmd, doc.as_bytes());
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), stdout, "{args:?}");
    }
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

/// `query` resolves its grammar exactly as `prune` does. With an internal
/// subset it honours it: the same answer as with the grammar in a file,
/// and a document that breaks its own subset is rejected, not answered.
#[test]
fn query_uses_the_internal_subset() {
    let subset = "<!DOCTYPE bib [<!ELEMENT bib (book*)><!ELEMENT book (title, author*)>\
                  <!ELEMENT title (#PCDATA)><!ELEMENT author (#PCDATA)>]>";
    let query = "for $b in /bib/book return <t>{$b/title/text()}</t>";
    let out = run_with_stdin(&["query", "-q", query], format!("{subset}{DOC}").as_bytes());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("internal DTD subset"));
    let dtd = write_tmp("books14.dtd", DTD);
    let external = run_with_stdin(
        &[
            "query",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "-q",
            query,
        ],
        DOC.as_bytes(),
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<t>T</t>");
    assert_eq!(out.stdout, external.stdout);

    let undeclared = format!("{subset}<bib><book><title>T</title><isbn>1</isbn></book></bib>");
    let out = run_with_stdin(&["query", "-q", "//title"], undeclared.as_bytes());
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'isbn' not declared"));
}

/// With neither `--dtd` nor an internal subset, `query` compiles against
/// the dataguide inferred from the document — XPath, FLWR, `count()` and
/// attribute queries alike go through the one compiled pipeline. All of
/// them at once take one pass and print what one run each prints.
#[test]
fn query_without_any_grammar_infers_a_dataguide() {
    let doc = "<bib><book year=\"1999\"><title>T</title><author>A</author></book>\
               <book year=\"2005\"><title>U</title></book></bib>";
    let (mut all, mut one_each) = (vec!["query"], Vec::new());
    for (query, answer) in [
        ("/bib/book/title", "<title>T</title><title>U</title>"),
        ("//book[@year=\"2005\"]/title/text()", "U"),
        ("//book/@year", "19992005"),
        ("count(//book)", "2"),
        (
            "for $b in /bib/book where $b/author return $b/title",
            "<title>T</title>",
        ),
        ("//nothing", ""),
    ] {
        let out = run_with_stdin(&["query", "--stats", "-q", query], doc.as_bytes());
        assert!(
            out.status.success(),
            "{query}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            answer,
            "{query}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("inferred dataguide"), "{query}: {stderr}");
        // `--stats` is the compiled pipeline's own line: there is no
        // second evaluator to fall back to.
        assert!(stderr.contains("\"plan\":"), "{query}: {stderr}");
        all.extend(["-q", query]);
        one_each.extend(out.stdout);
    }
    assert_eq!(run_with_stdin(&all, doc.as_bytes()).stdout, one_each);
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
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("internal DTD subset"));
}

/// `independence`: one verdict per (query, update) pair, text or one
/// `--json` line each; a may-conflict verdict is output, not a failure,
/// while a missing or unparsable `--update` is.
#[test]
fn independence_prints_one_verdict_per_pair() {
    let dtd = write_tmp("books15.dtd", DTD);
    let base = [
        "independence",
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "-q",
        "/bib/book/title",
    ];
    let updates = [
        "-u",
        "delete /bib/book/author",
        "--update",
        "delete /bib/book/title",
    ];
    let out = Command::new(BIN)
        .args(base)
        .args(updates)
        .arg("--json")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verdicts: Vec<String> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            let v = xproj_testkit::parse_json(l).unwrap_or_else(|e| panic!("bad JSON ({e}): {l}"));
            v.get("verdict")
                .and_then(|t| t.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(verdicts, ["independent", "may-conflict"]);
    let text = Command::new(BIN).args(base).args(updates).output().unwrap();
    let text = String::from_utf8(text.stdout).unwrap();
    assert!(
        text.contains("verdict: independent") && text.contains("witness: title"),
        "{text}"
    );

    let missing = Command::new(BIN).args(base).output().unwrap();
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--update is required"));
    let bad = Command::new(BIN)
        .args(base)
        .args(["-u", "zap /bib"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("[bad-query]"));
}

#[test]
fn help_prints_the_usage() {
    for spelling in ["help", "--help", "-h"] {
        let out = Command::new(BIN).arg(spelling).output().unwrap();
        assert!(out.status.success(), "{spelling}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("usage:"),
            "{spelling}"
        );
    }
}

#[test]
fn unknown_command_fails() {
    let out = Command::new(BIN).args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

/// The one prune path: a file input, the same bytes on stdin, and `-o`
/// all carry exactly what the in-memory `Projection::prune_str*` makes
/// of the document (stdout plus a closing newline), with and without
/// `--validate`; `--stats` adds the JSON metrics line and nothing else.
#[test]
fn chunked_prune_matches_in_memory_prune() {
    let dtd_path = write_tmp("books6.dtd", DTD);
    let doc = write_tmp("books6.xml", DOC);
    let out_path = std::env::temp_dir().join("xmlprune-cli-tests/books6.out");
    let dtd = xml_projection::dtd::parse_dtd(DTD, "bib").unwrap();
    let projection = xml_projection::Projection::for_queries(&dtd, ["/bib/book/title"]).unwrap();
    let base = [
        "prune",
        "--dtd",
        dtd_path.to_str().unwrap(),
        "--root",
        "bib",
        "--query",
        "/bib/book/title",
    ];
    for validate in [false, true] {
        let (want, _) = if validate {
            projection.prune_validate_str(DOC).unwrap()
        } else {
            projection.prune_str(DOC).unwrap()
        };
        let mut args = base.to_vec();
        if validate {
            args.push("--validate");
        }
        let from_file = Command::new(BIN).args(&args).arg(&doc).output().unwrap();
        assert!(
            from_file.status.success(),
            "{}",
            String::from_utf8_lossy(&from_file.stderr)
        );
        assert_eq!(
            String::from_utf8(from_file.stdout).unwrap(),
            format!("{want}\n")
        );

        let from_stdin = run_with_stdin(&args, DOC.as_bytes());
        assert!(
            from_stdin.status.success(),
            "{}",
            String::from_utf8_lossy(&from_stdin.stderr)
        );
        assert_eq!(
            String::from_utf8(from_stdin.stdout).unwrap(),
            format!("{want}\n")
        );

        args.extend(["--stats", "-o", out_path.to_str().unwrap(), "-"]);
        let to_file = run_with_stdin(&args, DOC.as_bytes());
        assert!(
            to_file.status.success(),
            "{}",
            String::from_utf8_lossy(&to_file.stderr)
        );
        assert!(to_file.stdout.is_empty());
        assert_eq!(std::fs::read_to_string(&out_path).unwrap(), want);
        let stderr = String::from_utf8_lossy(&to_file.stderr);
        assert!(
            stderr.contains("\"group\":\"engine\"") && stderr.contains("\"bytes_in\":58"),
            "--stats must emit a JSON metrics line, got:\n{stderr}"
        );
    }
}

#[test]
fn chunked_prune_reads_stdin() {
    let dtd = write_tmp("books7.dtd", DTD);
    let out = run_with_stdin(
        &[
            "prune",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "bib",
            "--query",
            "//author",
        ],
        DOC.as_bytes(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("<author>A</author>"));
    assert!(!stdout.contains("title"));
}

/// A DOCTYPE belongs before the root element, once: anywhere else it is
/// malformed XML, not a second grammar delivered mid-document.
#[test]
fn prune_rejects_a_misplaced_doctype() {
    let dtd = write_tmp("books12.dtd", DTD);
    let args = [
        "prune",
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "--query",
        "//title",
    ];
    for doc in [
        "<bib><!DOCTYPE bib><book><title>T</title></book></bib>",
        "<bib/><!DOCTYPE bib>",
        "<!DOCTYPE bib><!DOCTYPE bib><bib/>",
    ] {
        let out = run_with_stdin(&args, doc.as_bytes());
        assert_eq!(out.status.code(), Some(1), "{doc}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("XML parse error") && stderr.contains("DOCTYPE"),
            "{doc}: {stderr}"
        );
    }
}

/// Fused validation no longer needs the document in memory: it runs on
/// a stdin stream and rejects what the content models reject.
#[test]
fn prune_validates_a_stdin_stream() {
    let dtd = write_tmp("books10.dtd", DTD);
    let args = [
        "prune",
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "--validate",
        "--query",
        "//title",
    ];
    let ok = run_with_stdin(&args, DOC.as_bytes());
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert_eq!(
        String::from_utf8(ok.stdout).unwrap(),
        "<bib><book><title>T</title></book></bib>\n"
    );
    // Indentation is XML whitespace, not text inside `bib`.
    let indented = run_with_stdin(&args, b"<bib>\n<book><title>T</title></book>\n</bib>");
    assert!(
        indented.status.success(),
        "{}",
        String::from_utf8_lossy(&indented.stderr)
    );
    // A book without its required title.
    let bad = run_with_stdin(&args, b"<bib><book><author>A</author></book></bib>");
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("validation:"));
}

/// Dead subtrees are raw-scanned, so a mismatched end tag inside one
/// goes unseen — unless the pass validates, which looks at every event.
#[test]
fn prune_fast_forwards_dead_subtrees_unless_validating() {
    let dtd = write_tmp("books11.dtd", DTD);
    let doc = write_tmp(
        "dead11.xml",
        "<bib><book><title>T</title><author><b>x</i></author></book></bib>",
    );
    let base = [
        "prune",
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "--stats",
        "--query",
        "/bib/book/title",
        doc.to_str().unwrap(),
    ];
    let fast = Command::new(BIN).args(base).output().unwrap();
    assert!(
        fast.status.success(),
        "{}",
        String::from_utf8_lossy(&fast.stderr)
    );
    assert_eq!(
        String::from_utf8(fast.stdout).unwrap(),
        "<bib><book><title>T</title></book></bib>\n"
    );
    assert!(String::from_utf8_lossy(&fast.stderr).contains("\"subtrees_fast_forwarded\":1"));
    let checked = Command::new(BIN)
        .args(base)
        .arg("--validate")
        .output()
        .unwrap();
    assert_eq!(checked.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&checked.stderr);
    assert!(
        stderr.contains("\"error\":\"undeclared-element\""),
        "{stderr}"
    );
}

/// A 3 MB XMark document on stdin, validated while it is pruned: the
/// run never holds more than the engine's O(depth + token + chunk)
/// bound, a small fraction of the document.
#[test]
fn validated_stdin_prune_of_xmark_stays_under_the_engine_bound() {
    use xml_projection::xmark::{auction_dtd, generate_auction, XMarkConfig, AUCTION_DTD};
    let dtd = write_tmp("auction.dtd", AUCTION_DTD);
    let xml = generate_auction(&auction_dtd(), &XMarkConfig::at_scale(2.0)).to_xml();
    assert!(xml.len() > 2 << 20, "document is only {} bytes", xml.len());
    let out = run_with_stdin(
        &[
            "prune",
            "--validate",
            "--stats",
            "--dtd",
            dtd.to_str().unwrap(),
            "--root",
            "site",
            "--query",
            "//keyword",
        ],
        xml.as_bytes(),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a --stats line");
    let stats = xproj_testkit::parse_json(line).unwrap();
    let field = |k: &str| stats.get(k).and_then(|v| v.as_f64()).unwrap() as usize;
    assert_eq!(field("bytes_in"), xml.len());
    assert_eq!(
        field("subtrees_fast_forwarded"),
        0,
        "a validating pass skips nothing"
    );
    let bound = xml_projection::engine::residency_bound(
        field("max_token_bytes"),
        xml_projection::engine::DEFAULT_CHUNK_SIZE,
        field("max_depth"),
    );
    assert!(field("peak_resident_bytes") <= bound, "{line}");
    assert!(
        bound < xml.len() / 4,
        "bound {bound} is not small against {}",
        xml.len()
    );
}

/// One run, one input: a second input is a usage error (exit 1, nothing
/// on stdout) for every subcommand that reads a document — and an
/// explicit `--dtd`, which the retired batch mode asked for, no longer
/// changes that. Many files are one `xmlprune` each (`xargs -P`).
#[test]
fn several_inputs_need_an_explicit_dtd() {
    let dtd = write_tmp("books8.dtd", DTD);
    let a = write_tmp("books8a.xml", DOC);
    let b = write_tmp("books8b.xml", DOC);
    let (a, b, dtd) = (
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        dtd.to_str().unwrap(),
    );
    for args in [
        vec!["prune", "--query", "//title", a, b],
        vec![
            "prune", "--dtd", dtd, "--root", "bib", "--query", "//title", a, b,
        ],
        vec!["query", "--query", "//title", a, b],
        vec!["validate", a, b],
        vec!["guide", a, b],
    ] {
        let out = Command::new(BIN).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("takes one input"), "{args:?}: {stderr}");
    }
}

/// An unknown dash-led argument is a usage error naming it, never an
/// input path — every retired flag included (the streaming pair, the
/// batch's `--jobs`, the saved-projector pair, the DTD-diff pair). A lone
/// `-` is still stdin.
#[test]
fn unknown_flags_are_usage_errors() {
    let dtd = write_tmp("books12.dtd", DTD);
    let base = [
        "prune",
        "--dtd",
        dtd.to_str().unwrap(),
        "--root",
        "bib",
        "--query",
        "//title",
    ];
    let retired = [
        "--chunked",
        "--chunk-size",
        "--jobs",
        "-j",
        "--save",
        "--projector",
        "--diff-dtd",
        "--diff-root",
    ];
    for flag in ["--qeury", "-x"].into_iter().chain(retired) {
        let out = run_with_stdin(&[&base[..], &[flag]].concat(), DOC.as_bytes());
        assert_eq!(out.status.code(), Some(1), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option '{flag}'")),
            "{flag}: {stderr}"
        );
        assert!(!stderr.contains("No such file"), "{flag}: {stderr}");
    }
    let out = run_with_stdin(&[&base[..], &["-"]].concat(), DOC.as_bytes());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn prune_with_fused_validation_rejects_invalid() {
    let dtd = write_tmp("books5.dtd", DTD);
    // author before title violates the content model
    let bad = write_tmp(
        "bad5.xml",
        "<bib><book><author>A</author><title>T</title></book></bib>",
    );
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
