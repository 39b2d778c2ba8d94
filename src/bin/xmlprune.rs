//! `xmlprune` — command-line type-based XML projection.
//!
//! ```text
//! xmlprune analyze  --dtd auction.dtd --root site [--json] [--sample S.xml]
//!                   [--diff-dtd NEW.dtd] QUERY [QUERY…]
//! xmlprune prune    --dtd auction.dtd --root site --query QUERY [--validate] [-o OUT] INPUT.xml
//! xmlprune prune    --jobs 4 --stats --dtd auction.dtd --root site \
//!                   --query QUERY -o outdir/ INPUT1.xml INPUT2.xml …
//! xmlprune validate --dtd auction.dtd --root site INPUT.xml
//! xmlprune query    [--dtd auction.dtd --root site] --query QUERY INPUT.xml
//! xmlprune guide    INPUT.xml            # infer a dataguide DTD
//! ```
//!
//! When `--dtd` is omitted, `prune`/`analyze` fall back to the document's
//! internal DTD subset (`<!DOCTYPE root [ … ]>`) or, failing that, to a
//! dataguide inferred from the input document itself. With `--dtd`,
//! `prune` never loads the document: it streams through the
//! O(depth)-memory engine.

use std::io::Read;
use std::process::ExitCode;
use xml_projection::dtd::{infer_dtd, parse_dtd, validate, Dtd};
use xml_projection::xmltree::push::{drain_str, TokenSink};
use xml_projection::xmltree::ParseError;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xmlprune: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Opts {
    dtd_path: Option<String>,
    root: Option<String>,
    queries: Vec<String>,
    output: Option<String>,
    save: Option<String>,
    projector: Option<String>,
    validate: bool,
    jobs: Option<usize>,
    stats: bool,
    json: bool,
    sample: Option<String>,
    diff_dtd: Option<String>,
    diff_root: Option<String>,
    updates: Vec<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        dtd_path: None,
        root: None,
        queries: Vec::new(),
        output: None,
        save: None,
        projector: None,
        validate: false,
        jobs: None,
        stats: false,
        json: false,
        sample: None,
        diff_dtd: None,
        diff_root: None,
        updates: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dtd" => o.dtd_path = Some(it.next().ok_or("--dtd needs a path")?.clone()),
            "--root" => o.root = Some(it.next().ok_or("--root needs a name")?.clone()),
            "--query" | "-q" => o
                .queries
                .push(it.next().ok_or("--query needs a query")?.clone()),
            "--output" | "-o" => {
                o.output = Some(it.next().ok_or("--output needs a path")?.clone())
            }
            "--save" => o.save = Some(it.next().ok_or("--save needs a path")?.clone()),
            "--projector" => {
                o.projector = Some(it.next().ok_or("--projector needs a path")?.clone())
            }
            "--validate" => o.validate = true,
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a thread count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs: '{v}' is not a number"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                o.jobs = Some(n);
            }
            "--stats" => o.stats = true,
            "--json" => o.json = true,
            "--sample" => o.sample = Some(it.next().ok_or("--sample needs a path")?.clone()),
            "--update" | "-u" => o
                .updates
                .push(it.next().ok_or("--update needs an update")?.clone()),
            "--diff-dtd" => {
                o.diff_dtd = Some(it.next().ok_or("--diff-dtd needs a path")?.clone())
            }
            "--diff-root" => {
                o.diff_root = Some(it.next().ok_or("--diff-root needs a name")?.clone())
            }
            // A lone `-` is stdin; anything else dash-led is a typo or a
            // retired flag, not an input path.
            flag if flag.starts_with('-') && flag != "-" => {
                return Err(format!("unknown option '{flag}' (see `xmlprune help`)"));
            }
            other => o.positional.push(other.to_string()),
        }
    }
    Ok(o)
}

fn read_input(path: Option<&str>) -> Result<String, String> {
    match path {
        Some("-") | None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|e| format!("stdin: {e}"))?;
            Ok(s)
        }
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")),
    }
}

/// Extracts `<!DOCTYPE name [ subset ]>` from a document's prolog, if
/// present: a sink that ends the drain at the first thing that is not
/// prolog (or at the DOCTYPE it was looking for).
fn internal_subset(xml: &str) -> Option<(String, String)> {
    struct Prolog(Option<(String, String)>);
    struct Stop;
    impl From<ParseError> for Stop {
        fn from(_: ParseError) -> Stop {
            Stop
        }
    }
    impl TokenSink for Prolog {
        type Error = Stop;
        fn start(&mut self, _: &str, _: &str) -> Result<bool, Stop> {
            Err(Stop)
        }
        fn end(&mut self, _: &str) -> Result<(), Stop> {
            Err(Stop)
        }
        fn text(&mut self, _: &str) -> Result<(), Stop> {
            Err(Stop)
        }
        fn doctype(&mut self, name: &str, subset: Option<&str>) -> Result<(), Stop> {
            self.0 = subset.map(|s| (name.to_string(), s.to_string()));
            match self.0 {
                Some(_) => Err(Stop),
                None => Ok(()),
            }
        }
    }
    let mut prolog = Prolog(None);
    let _ = drain_str(xml, &mut prolog, false);
    prolog.0
}

/// Resolves the DTD: explicit file > internal subset > dataguide.
fn resolve_dtd(o: &Opts, xml: Option<&str>) -> Result<(Dtd, &'static str), String> {
    if let Some(path) = &o.dtd_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let root = o
            .root
            .clone()
            .ok_or("--root is required with --dtd (the DOCTYPE name)")?;
        let dtd = parse_dtd(&text, &root).map_err(|e| e.to_string())?;
        return Ok((dtd, "external DTD"));
    }
    if let Some(xml) = xml {
        if let Some((name, subset)) = internal_subset(xml) {
            let root = o.root.clone().unwrap_or(name);
            let dtd = parse_dtd(&subset, &root).map_err(|e| e.to_string())?;
            return Ok((dtd, "internal DTD subset"));
        }
        let doc = xml_projection::xmltree::parse(xml).map_err(|e| e.to_string())?;
        let dtd = infer_dtd(&doc).map_err(|e| e.to_string())?;
        return Ok((dtd, "inferred dataguide"));
    }
    Err("no DTD given (use --dtd FILE --root NAME) and no input to infer one from".to_string())
}

/// `prune`: stream every input through the engine — `Read` →
/// [`ChunkedPruner`](xml_projection::engine::ChunkedPruner) → `Write` —
/// in O(depth) memory. Only when there is no `--dtd` is the (single)
/// input loaded first: the internal subset or the dataguide has to be
/// read off the document before its first byte can be pruned.
fn run_prune(o: &Opts) -> Result<(), String> {
    use std::io::Write;
    use std::path::PathBuf;
    use xml_projection::engine::{
        error_json_line, run_batch, ArtifactCache, BatchJob, ChunkedPruner, DEFAULT_CHUNK_SIZE,
    };

    if o.queries.is_empty() && o.projector.is_none() {
        return Err("prune: --query or --projector is required".to_string());
    }
    if o.positional.len() > 1 && o.dtd_path.is_none() {
        return Err(
            "prune: several inputs need --dtd FILE --root NAME (an internal DTD subset or a \
             dataguide belongs to one document)"
                .to_string(),
        );
    }
    let input = o.positional.first().map(|s| s.as_str());
    let sniffed = match o.dtd_path {
        Some(_) => None,
        None => Some(read_input(input)?),
    };
    let (dtd, source) = resolve_dtd(o, sniffed.as_deref())?;
    let dtd = std::sync::Arc::new(dtd);
    eprintln!("using {source} ({} names)", dtd.name_count());
    // Query-derived projectors go through the same ArtifactCache the
    // server uses, so `--stats` reports the cache counters too.
    let cache = ArtifactCache::new(32);
    let projector = match &o.projector {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            xml_projection::core::Projector::from_text(&dtd, &text)?
        }
        None => {
            let mut union = xml_projection::core::Projector::empty(&dtd);
            for q in &o.queries {
                let a = cache.get_or_compile(&dtd, q).map_err(|e| format!("{q}: {e}"))?;
                union = union.union(&a.projector);
            }
            union
        }
    };

    // One stream (stdin or one file): prune straight through. Stdout
    // gets a closing newline, a file the pruned bytes alone.
    if o.positional.len() <= 1 {
        let source: Box<dyn Read> = match (&sniffed, input) {
            (Some(xml), _) => Box::new(xml.as_bytes()),
            (None, Some("-") | None) => Box::new(std::io::stdin().lock()),
            (None, Some(p)) => Box::new(std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?),
        };
        let mut sink: Box<dyn Write> = match &o.output {
            Some(p) => Box::new(std::io::BufWriter::new(
                std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?,
            )),
            None => Box::new(std::io::stdout().lock()),
        };
        let mut pruner = ChunkedPruner::new(&*dtd, &projector, &mut sink);
        pruner.set_validate(o.validate);
        let mut stats = match pruner.run(source, DEFAULT_CHUNK_SIZE) {
            Ok(stats) => stats,
            Err(e) => {
                if o.stats {
                    eprintln!("{}", error_json_line("prune", e.code(), &e.to_string()));
                }
                return Err(e.to_string());
            }
        };
        if o.output.is_none() {
            sink.write_all(b"\n").map_err(|e| format!("stdout: {e}"))?;
        }
        sink.flush().map_err(|e| format!("output: {e}"))?;
        stats.cache = cache.stats();
        eprintln!(
            "kept {} elements, pruned {} subtrees; {:.1}% of the input retained \
             (peak resident: {} bytes)",
            stats.counters.elements_kept,
            stats.counters.elements_pruned,
            100.0 * stats.retention(),
            stats.peak_resident_bytes,
        );
        if o.stats {
            eprintln!("{}", stats.to_json_line("prune"));
        }
        return Ok(());
    }

    // Batch: several files in parallel. `-o` names a directory; without
    // it each input gets a sibling `<stem>.pruned.xml`.
    let out_dir: Option<PathBuf> = match &o.output {
        Some(d) => {
            let dir = PathBuf::from(d);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{d}: {e}"))?;
            Some(dir)
        }
        None => None,
    };
    let batch: Vec<BatchJob> = o
        .positional
        .iter()
        .map(|f| {
            let input = PathBuf::from(f);
            let output = match &out_dir {
                Some(dir) => dir.join(input.file_name().unwrap_or_default()),
                None => input.with_extension("pruned.xml"),
            };
            BatchJob { input, output }
        })
        .collect();
    let mut report = run_batch(batch, &dtd, &projector, o.validate, o.jobs.unwrap_or(1));
    report.aggregate.cache = cache.stats();
    for item in &report.items {
        match &item.result {
            Ok(stats) => {
                if o.stats {
                    eprintln!("{}", stats.to_json_line(&item.job.input.display().to_string()));
                }
            }
            Err(e) => {
                eprintln!("xmlprune: {}: {e}", item.job.input.display());
                if o.stats {
                    eprintln!(
                        "{}",
                        error_json_line(
                            &item.job.input.display().to_string(),
                            e.code,
                            &e.message
                        )
                    );
                }
            }
        }
    }
    eprintln!(
        "pruned {} of {} files with {} jobs; {:.1}% of the input retained",
        report.items.len() - report.failures(),
        report.items.len(),
        report.jobs,
        100.0 * report.aggregate.retention(),
    );
    if o.stats {
        eprintln!("{}", report.aggregate.to_json_line("batch_total"));
    }
    if report.failures() > 0 {
        return Err(format!(
            "{} of {} files failed",
            report.failures(),
            report.items.len()
        ));
    }
    Ok(())
}

/// `analyze`: the full static-analysis report — provenance-tracked
/// projector, Def. 4.3 verdict, retention estimate, lints, and an
/// optional projector diff against a second DTD version. Analyzer
/// failures carry their stable wire code in brackets.
fn run_analyze(o: &Opts) -> Result<(), String> {
    use xml_projection::analyzer::{self, AnalysisOptions, AnalyzerError};

    let queries: Vec<String> = o
        .queries
        .iter()
        .chain(o.positional.iter())
        .cloned()
        .collect();
    if queries.is_empty() {
        return Err("analyze: no queries given".to_string());
    }
    let sample = match &o.sample {
        Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?),
        None => None,
    };
    // A sample document can stand in for a missing --dtd (internal
    // subset or dataguide), exactly as prune's input does.
    let (dtd, source) = resolve_dtd(o, sample.as_deref())?;
    eprintln!("using {source} ({} names)", dtd.name_count());

    let coded = |e: AnalyzerError| format!("analyze: [{}] {e}", e.code().as_str());
    let opts = AnalysisOptions {
        sample: sample.as_deref(),
        ..AnalysisOptions::default()
    };
    let mut analysis = analyzer::analyze(&dtd, &queries, &opts).map_err(coded)?;

    if let Some(path) = &o.diff_dtd {
        let text = std::fs::read_to_string(path)
            .map_err(|e| coded(AnalyzerError::BadDtd(format!("{path}: {e}"))))?;
        let root = o
            .diff_root
            .as_ref()
            .or(o.root.as_ref())
            .ok_or("--diff-dtd needs --diff-root (or --root) for the new grammar")?;
        let new_dtd = parse_dtd(&text, root)
            .map_err(|e| coded(AnalyzerError::BadDtd(format!("{path}: {e}"))))?;
        let diff = analyzer::diff_projectors(&dtd, &new_dtd, &queries, &opts.retention)
            .map_err(coded)?;
        analysis.diff = Some(diff);
    }

    if o.json {
        print!("{}", analyzer::render_json_lines(&analysis));
    } else {
        let pi = &analysis.provenance.projector;
        println!("projector: {} of {} names", pi.len(), dtd.name_count());
        for l in pi.labels(&dtd) {
            println!("  {l}");
        }
        // The report repeats the projector heading; keep ours (it counts
        // all names, the report counts root-reachable ones).
        let report = analyzer::render_text(&analysis);
        let body = report.split_once('\n').map(|x| x.1).unwrap_or(&report);
        print!("{body}");
    }
    if let Some(path) = &o.save {
        std::fs::write(path, analysis.provenance.projector.to_text(&dtd))
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("projector saved to {path}");
    }
    Ok(())
}

/// `independence`: static query–update independence verdicts. Every
/// (query, update) pair from the workload gets its own report; the
/// process exits non-zero only on analysis *errors*, never on a
/// may-conflict verdict (the verdict is the output, not a failure).
fn run_independence(o: &Opts) -> Result<(), String> {
    use xml_projection::analyzer::{self, AnalyzerError};

    let queries: Vec<String> = o
        .queries
        .iter()
        .chain(o.positional.iter())
        .cloned()
        .collect();
    if queries.is_empty() {
        return Err("independence: --query is required".to_string());
    }
    if o.updates.is_empty() {
        return Err("independence: --update is required".to_string());
    }
    let (dtd, source) = resolve_dtd(o, None)?;
    eprintln!("using {source} ({} names)", dtd.name_count());
    let coded = |e: AnalyzerError| format!("independence: [{}] {e}", e.code().as_str());
    let mut first = true;
    for q in &queries {
        for u in &o.updates {
            let report = analyzer::check_independence(&dtd, q, u).map_err(coded)?;
            if o.json {
                println!("{}", analyzer::render_independence_json(&report));
            } else {
                if !first {
                    println!();
                }
                print!("{}", analyzer::render_independence_text(&report));
            }
            first = false;
        }
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<(), String> {
    let Some(cmd) = args.first().cloned() else {
        return Err(USAGE.trim().to_string());
    };
    let o = parse_opts(&args[1..])?;
    match cmd.as_str() {
        "analyze" => run_analyze(&o),
        "independence" => run_independence(&o),
        "prune" => run_prune(&o),
        "validate" => {
            let xml = read_input(o.positional.first().map(|s| s.as_str()))?;
            let (dtd, source) = resolve_dtd(&o, Some(&xml))?;
            let doc = xml_projection::xmltree::parser::parse_with_options(
                &xml,
                xml_projection::xmltree::parser::ParseOptions {
                    ignore_whitespace_text: true,
                    interner: Some(dtd.tags.clone()),
                },
            )
            .map_err(|e| e.to_string())?;
            match validate(&doc, &dtd) {
                Ok(_) => {
                    println!("valid against {source}");
                    Ok(())
                }
                Err(e) => Err(format!("invalid: {e}")),
            }
        }
        "query" => {
            if o.queries.is_empty() {
                return Err("query: --query is required".to_string());
            }
            let xml = read_input(o.positional.first().map(|s| s.as_str()))?;
            if o.dtd_path.is_some() {
                // The compiled one-pass path: lower (DTD, query) to an
                // artifact, then prune and answer in a single streaming
                // pass — the same pipeline `/v1/query` serves.
                use xml_projection::engine::{
                    run_query, ArtifactCache, QueryOutput, DEFAULT_CHUNK_SIZE,
                };
                let (dtd, source) = resolve_dtd(&o, None)?;
                let dtd = std::sync::Arc::new(dtd);
                eprintln!("using {source} ({} names)", dtd.name_count());
                let cache = ArtifactCache::new(o.queries.len().max(1));
                for q in &o.queries {
                    let artifact = cache.get_or_compile(&dtd, q)?;
                    let (out, stats) =
                        run_query(&artifact, xml.as_bytes(), QueryOutput::Answer, true, DEFAULT_CHUNK_SIZE)
                            .map_err(|e| e.to_string())?;
                    if o.stats {
                        eprintln!("{}", stats.to_json());
                    }
                    println!("{}", String::from_utf8_lossy(&out));
                }
                return Ok(());
            }
            // No DTD: the legacy in-memory evaluator over the parsed tree.
            let doc = xml_projection::xmltree::parse(&xml).map_err(|e| e.to_string())?;
            for q in &o.queries {
                let parsed = xml_projection::xquery::parse_xquery(q).map_err(|e| e.to_string())?;
                let out = xml_projection::xquery::evaluate_query(&doc, &parsed)
                    .map_err(|e| e.to_string())?;
                println!("{out}");
            }
            Ok(())
        }
        "guide" => {
            let xml = read_input(o.positional.first().map(|s| s.as_str()))?;
            let doc = xml_projection::xmltree::parse(&xml).map_err(|e| e.to_string())?;
            let dtd = infer_dtd(&doc).map_err(|e| e.to_string())?;
            print!("{}", dtd.to_dtd_syntax());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", USAGE.trim());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{}", USAGE.trim())),
    }
}

const USAGE: &str = r#"
usage:
  xmlprune analyze  --dtd FILE --root NAME [--json] [--sample FILE]
                    [--diff-dtd FILE [--diff-root NAME]] [--save PROJ]
                    QUERY [QUERY…]
  xmlprune independence --dtd FILE --root NAME --query QUERY --update UPDATE [--json]
  xmlprune prune    [--dtd FILE --root NAME] (--query QUERY | --projector PROJ)
                    [--validate] [--stats] [-o OUT] [INPUT.xml]
  xmlprune prune    --dtd FILE --root NAME (--query QUERY | --projector PROJ)
                    [--validate] [--stats] [--jobs N] [-o DIR] INPUT.xml INPUT.xml ...
  xmlprune validate [--dtd FILE --root NAME] [INPUT.xml]
  xmlprune query    [--dtd FILE --root NAME] --query QUERY [--stats] [INPUT.xml]
  xmlprune guide    [INPUT.xml]

INPUT defaults to stdin ("-" names it too). Without --dtd, prune/validate
use the document's internal DTD subset or fall back to an inferred
dataguide.

prune streams each input through the O(depth)-memory engine; only without
--dtd is the document loaded first (the grammar has to be read off it).
Subtrees that cannot reach anything the query needs are skipped unparsed,
so their well-formedness goes unchecked; --validate checks every event
against the DTD in the same pass and rejects an invalid document. Several
inputs are pruned --jobs N at a time into the directory -o names (or next
to each input as <stem>.pruned.xml). --stats prints JSON-lines engine
metrics to stderr.

analyze prints the full static-analysis report: per-name provenance (which
query step pulled each name into the projector), the Def. 4.3 verdict with
concrete witnesses, a predicted retention ratio, and lints. --json switches
to machine-readable JSON lines. --sample FILE calibrates the retention
model against a real document (and can stand in for --dtd). --diff-dtd
compares the projector against a second DTD version.

independence decides statically whether an update (the minimal
XQuery-Update-style language: `insert <frag> into|before|after PATH`,
`delete PATH`, `replace PATH with <frag>`) can ever change the query's
answer on a valid document. Repeat --query/--update for a matrix of
verdicts; --json prints one JSON object per pair.

query evaluates XPath/XQuery. With --dtd/--root it compiles the query into
an artifact and prunes AND answers in one streaming pass (the same compiled
pipeline the daemon's /v1/query serves); --stats prints the pass's JSON
stats to stderr. Without a DTD it parses the whole document and evaluates
in memory.
"#;
