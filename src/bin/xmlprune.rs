//! `xmlprune` — command-line type-based XML projection.
//!
//! ```text
//! xmlprune analyze  --dtd auction.dtd --root site [--json] [--sample S.xml] QUERY [QUERY…]
//! xmlprune independence --dtd auction.dtd --root site --query QUERY --update UPDATE [--json]
//! xmlprune prune    [--dtd auction.dtd --root site] --query QUERY [--validate] [-o OUT] [INPUT.xml]
//! xmlprune validate [--dtd auction.dtd --root site] [INPUT.xml]
//! xmlprune query    [--dtd auction.dtd --root site] --query QUERY [INPUT.xml]
//! xmlprune guide    [INPUT.xml]          # infer a dataguide DTD
//! ```
//!
//! Every subcommand has one execution path. When `--dtd` is omitted the
//! grammar is the document's internal DTD subset (`<!DOCTYPE root [ … ]>`)
//! or, failing that, a dataguide inferred from the document itself. With
//! `--dtd`, `prune`, `query` and `validate` never load the document: they
//! stream it, 64 KiB at a time, through the O(depth)-memory engine.

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;
use xml_projection::dtd::{infer_dtd, parse_dtd, Dtd};
use xml_projection::engine::{ArtifactCache, ChunkedPruner, DEFAULT_CHUNK_SIZE};
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
    validate: bool,
    stats: bool,
    json: bool,
    sample: Option<String>,
    updates: Vec<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        dtd_path: None,
        root: None,
        queries: Vec::new(),
        output: None,
        validate: false,
        stats: false,
        json: false,
        sample: None,
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
            "--output" | "-o" => o.output = Some(it.next().ok_or("--output needs a path")?.clone()),
            "--validate" => o.validate = true,
            "--stats" => o.stats = true,
            "--json" => o.json = true,
            "--sample" => o.sample = Some(it.next().ok_or("--sample needs a path")?.clone()),
            "--update" | "-u" => o
                .updates
                .push(it.next().ok_or("--update needs an update")?.clone()),
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

/// At most one input: the positional argument, `-` or nothing for stdin.
fn single_input<'a>(cmd: &str, o: &'a Opts) -> Result<Option<&'a str>, String> {
    match o.positional.as_slice() {
        [] => Ok(None),
        [one] => Ok(Some(one)),
        _ => Err(format!(
            "{cmd}: takes one input (for many files, run one xmlprune per file, e.g. under xargs -P)"
        )),
    }
}

/// What `prune`, `query` and `validate` run on.
struct Input {
    dtd: Arc<Dtd>,
    /// Where the grammar came from ("external DTD", …).
    source: &'static str,
    document: Box<dyn Read>,
}

/// The grammar and the document of `prune`, `query` and `validate`. With
/// `--dtd` the document is left unread, to be streamed; without it, the
/// document is loaded first, because the grammar has to be read off it.
fn grammar_and_input(cmd: &str, o: &Opts) -> Result<Input, String> {
    let input = single_input(cmd, o)?;
    let loaded = match o.dtd_path {
        Some(_) => None,
        None => Some(read_input(input)?),
    };
    let (dtd, source) = resolve_dtd(o, loaded.as_deref())?;
    let document: Box<dyn Read> = match (loaded, input) {
        (Some(xml), _) => Box::new(std::io::Cursor::new(xml)),
        (None, Some("-") | None) => Box::new(std::io::stdin().lock()),
        (None, Some(p)) => Box::new(std::fs::File::open(p).map_err(|e| format!("{p}: {e}"))?),
    };
    Ok(Input {
        dtd: Arc::new(dtd),
        source,
        document,
    })
}

/// `prune`: stream the input through the engine — `Read` →
/// [`ChunkedPruner`] → `Write` — in O(depth) memory.
fn run_prune(o: &Opts) -> Result<(), String> {
    use std::io::Write;
    use xml_projection::engine::error_json_line;

    if o.queries.is_empty() {
        return Err("prune: --query is required".to_string());
    }
    let Input {
        dtd,
        source,
        document,
    } = grammar_and_input("prune", o)?;
    eprintln!("using {source} ({} names)", dtd.name_count());
    // The projectors go through the same ArtifactCache the server uses,
    // so `--stats` reports the cache counters too.
    let cache = ArtifactCache::new(o.queries.len());
    let mut projector = xml_projection::core::Projector::empty(&dtd);
    for q in &o.queries {
        let a = cache
            .get_or_compile(&dtd, q)
            .map_err(|e| format!("{q}: {e}"))?;
        projector = projector.union(&a.projector);
    }

    // Stdout gets a closing newline, a file the pruned bytes alone.
    let mut sink: Box<dyn Write> = match &o.output {
        Some(p) => Box::new(std::io::BufWriter::new(
            std::fs::File::create(p).map_err(|e| format!("{p}: {e}"))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let mut pruner = ChunkedPruner::new(&*dtd, &projector, &mut sink);
    pruner.set_validate(o.validate);
    let mut stats = match pruner.run(document, DEFAULT_CHUNK_SIZE) {
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
    Ok(())
}

/// `query`: lower (grammar, query) to an artifact, then prune and answer
/// in a single streaming pass — the same compiled pipeline `/v1/query`
/// serves. Every read goes to one machine per query, so several queries
/// still take one pass; the answers print in query order.
fn run_query_cmd(o: &Opts) -> Result<(), String> {
    use xml_projection::engine::{QueryMachine, QueryOutput};

    if o.queries.is_empty() {
        return Err("query: --query is required".to_string());
    }
    let Input {
        dtd,
        source,
        mut document,
    } = grammar_and_input("query", o)?;
    eprintln!("using {source} ({} names)", dtd.name_count());
    let cache = ArtifactCache::new(o.queries.len());
    let mut machines = Vec::with_capacity(o.queries.len());
    for q in &o.queries {
        let artifact = cache.get_or_compile(&dtd, q)?;
        machines.push((QueryMachine::new(artifact, QueryOutput::Answer), Vec::new()));
    }
    let mut buf = vec![0; DEFAULT_CHUNK_SIZE];
    loop {
        let n = document.read(&mut buf).map_err(|e| format!("input: {e}"))?;
        if n == 0 {
            break;
        }
        for (machine, answer) in &mut machines {
            machine.feed(&buf[..n]).map_err(|e| e.to_string())?;
            machine.take_output(answer);
        }
    }
    for (mut machine, mut answer) in machines {
        let stats = machine.finish().map_err(|e| e.to_string())?;
        machine.take_output(&mut answer);
        if o.stats {
            eprintln!("{}", stats.to_json());
        }
        println!("{}", String::from_utf8_lossy(&answer));
    }
    Ok(())
}

/// `validate`: `prune --validate` with nothing kept — every event checked
/// against the content models in one pass, in O(depth) memory.
fn run_validate(o: &Opts) -> Result<(), String> {
    let Input {
        dtd,
        source,
        document,
    } = grammar_and_input("validate", o)?;
    let nothing = xml_projection::core::Projector::empty(&dtd);
    let mut pruner = ChunkedPruner::new(&*dtd, &nothing, std::io::sink());
    pruner.set_validate(true);
    pruner
        .run(document, DEFAULT_CHUNK_SIZE)
        .map_err(|e| format!("invalid: {e}"))?;
    println!("valid against {source}");
    Ok(())
}

/// `analyze`: the full static-analysis report — provenance-tracked
/// projector, Def. 4.3 verdict, retention estimate, lints. Analyzer
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
    };
    let analysis = analyzer::analyze(&dtd, &queries, &opts).map_err(coded)?;

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
        "validate" => run_validate(&o),
        "query" => run_query_cmd(&o),
        "guide" => {
            let xml = read_input(single_input("guide", &o)?)?;
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
  xmlprune analyze  --dtd FILE --root NAME [--json] [--sample FILE] QUERY [QUERY…]
  xmlprune independence --dtd FILE --root NAME --query QUERY --update UPDATE [--json]
  xmlprune prune    [--dtd FILE --root NAME] --query QUERY [--validate] [--stats]
                    [--output OUT] [INPUT.xml]
  xmlprune validate [--dtd FILE --root NAME] [INPUT.xml]
  xmlprune query    [--dtd FILE --root NAME] --query QUERY [--stats] [INPUT.xml]
  xmlprune guide    [INPUT.xml]
  xmlprune help

INPUT defaults to stdin ("-" names it too); -q, -o and -u abbreviate --query,
--output and --update. Without --dtd, prune, validate and query use the
document's internal DTD subset or fall back to a dataguide inferred from it.
Each run takes one input: for many files, run one xmlprune per file (xargs -P
runs them in parallel; the whole analysis is a few milliseconds).

prune, query and validate stream the input, 64 KiB at a time, through the
O(depth)-memory engine; only without --dtd is the document loaded first
(the grammar has to be read off it). prune keeps what any --query needs.
Subtrees that cannot reach anything the query needs are skipped unparsed,
so their well-formedness goes unchecked; --validate checks every event
against the DTD in the same pass and rejects an invalid document. --stats
prints JSON-lines engine metrics to stderr.

analyze prints the full static-analysis report: per-name provenance (which
query step pulled each name into the projector), the Def. 4.3 verdict with
concrete witnesses, a predicted retention ratio, and lints. --json switches
to machine-readable JSON lines (diff two runs to compare DTD versions).
--sample FILE calibrates the retention model against a real document (and
can stand in for --dtd).

independence decides statically whether an update (the minimal
XQuery-Update-style language: `insert <frag> into|before|after PATH`,
`delete PATH`, `replace PATH with <frag>`) can ever change the query's
answer on a valid document. Repeat --query/--update for a matrix of
verdicts; --json prints one JSON object per pair.

query evaluates XPath/XQuery: it compiles (grammar, query) into an artifact
and prunes AND answers in one streaming pass (the same compiled pipeline the
daemon's /v1/query serves); repeated --query answers each, in order, from the
same pass; --stats prints the pass's JSON stats to stderr.

validate is the pass of `prune --validate` that keeps nothing.

guide prints the dataguide DTD inferred from the input.
"#;
