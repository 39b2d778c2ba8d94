//! Zero-dependency parallel batch driver.
//!
//! Pruning N documents is embarrassingly parallel — the projector is
//! shared read-only state and each document streams independently. This
//! module provides a scoped-worker-thread parallel map over a work
//! queue (no rayon, no crossbeam: `std::thread::scope` plus an atomic
//! queue head) and, on top of it, a file-to-file batch pruning run used
//! by `xmlprune --jobs`.

use crate::chunked::{ChunkedPruner, EngineError, DEFAULT_CHUNK_SIZE};
use crate::metrics::EngineStats;
use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xproj_core::{ErrorCode, Projector, ProjectorTable};
use xproj_dtd::Dtd;

/// A failed engine run: the stable machine-readable code plus the
/// human-readable message (CLI `--stats` lines and the HTTP server both
/// serialize the code, not the message).
#[derive(Debug, Clone)]
pub struct EngineFailure {
    /// Stable error code.
    pub code: ErrorCode,
    /// Human-readable detail (free to change between versions).
    pub message: String,
}

impl From<EngineError> for EngineFailure {
    fn from(e: EngineError) -> Self {
        EngineFailure {
            code: e.code(),
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for EngineFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for EngineFailure {}

/// Applies `f` to every item, running up to `jobs` worker threads.
/// Results come back in input order. With `jobs <= 1` (or one item) the
/// map runs inline on the caller's thread.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// One document of a batch pruning run.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Source XML file.
    pub input: PathBuf,
    /// Destination for the pruned output.
    pub output: PathBuf,
}

/// Per-file outcome of a batch run.
#[derive(Debug)]
pub struct BatchItemReport {
    /// The job this reports on.
    pub job: BatchJob,
    /// Stats on success, the coded failure otherwise.
    pub result: Result<EngineStats, EngineFailure>,
}

/// Outcome of a whole batch run.
#[derive(Debug)]
pub struct BatchReport {
    /// One report per job, in input order.
    pub items: Vec<BatchItemReport>,
    /// Aggregate stats over the successful jobs.
    pub aggregate: EngineStats,
    /// Worker threads actually used.
    pub jobs: usize,
}

impl BatchReport {
    /// Number of failed jobs.
    pub fn failures(&self) -> usize {
        self.items.iter().filter(|i| i.result.is_err()).count()
    }
}

/// Prunes every job's input file to its output file, `jobs` files at a
/// time, streaming each through the chunked engine (so a batch of huge
/// documents needs O(jobs × depth) memory, not O(total size)); with
/// `validate`, each pass also validates its document against the DTD.
pub fn run_batch(
    batch: Vec<BatchJob>,
    dtd: &Dtd,
    projector: &Projector,
    validate: bool,
    jobs: usize,
) -> BatchReport {
    let jobs = jobs.max(1).min(batch.len().max(1));
    // One verdict table for the batch; each document runs from a copy.
    let table = ProjectorTable::new(dtd, projector);
    let results = parallel_map(&batch, jobs, |_, job| {
        prune_file(job, dtd, &table, validate).map_err(EngineFailure::from)
    });
    let mut aggregate = EngineStats::default();
    let items: Vec<BatchItemReport> = batch
        .into_iter()
        .zip(results)
        .map(|(job, result)| {
            if let Ok(stats) = &result {
                aggregate.accumulate(stats);
            }
            BatchItemReport { job, result }
        })
        .collect();
    BatchReport {
        items,
        aggregate,
        jobs,
    }
}

fn prune_file(
    job: &BatchJob,
    dtd: &Dtd,
    table: &ProjectorTable,
    validate: bool,
) -> Result<EngineStats, EngineError> {
    let input = std::fs::File::open(&job.input)?;
    let output = BufWriter::new(std::fs::File::create(&job.output)?);
    let mut pruner = ChunkedPruner::with_table(dtd, table.clone(), output);
    pruner.set_validate(validate);
    pruner.run(input, DEFAULT_CHUNK_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xproj_core::{prune_str, StaticAnalyzer};
    use xproj_dtd::parse_dtd;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 7, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_job_runs_inline() {
        let items = vec![1, 2, 3];
        let out = parallel_map(&items, 1, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty_input() {
        let items: Vec<u8> = Vec::new();
        let out: Vec<u8> = parallel_map(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn batch_matches_sequential_pruning() {
        let dtd = parse_dtd(
            "<!ELEMENT bib (book*)> <!ELEMENT book (title, author*)>\
             <!ELEMENT title (#PCDATA)> <!ELEMENT author (#PCDATA)>",
            "bib",
        )
        .unwrap();
        let mut sa = StaticAnalyzer::new(&dtd);
        let projector = sa.project_query("/bib/book/title").unwrap();

        let dir = std::env::temp_dir().join("xproj-engine-batch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut batch = Vec::new();
        let mut expected = Vec::new();
        for i in 0..8 {
            let doc = format!(
                "<bib>{}</bib>",
                (0..=i)
                    .map(|j| format!("<book><title>T{j}</title><author>A{j}</author></book>"))
                    .collect::<String>()
            );
            let input = dir.join(format!("in{i}.xml"));
            let output = dir.join(format!("out{i}.xml"));
            std::fs::write(&input, &doc).unwrap();
            expected.push(prune_str(&doc, &dtd, &projector).unwrap().output);
            batch.push(BatchJob { input, output });
        }
        let report = run_batch(batch, &dtd, &projector, false, 4);
        assert_eq!(report.failures(), 0);
        assert_eq!(report.aggregate.documents, 8);
        for (item, want) in report.items.iter().zip(&expected) {
            let got = std::fs::read_to_string(&item.job.output).unwrap();
            assert_eq!(&got, want, "batch output diverged for {:?}", item.job.input);
        }
        assert!(report.aggregate.bytes_out > 0);
    }

    #[test]
    fn missing_input_reports_failure_without_sinking_batch() {
        let dtd = parse_dtd("<!ELEMENT a EMPTY>", "a").unwrap();
        let p = Projector::full(&dtd);
        let dir = std::env::temp_dir().join("xproj-engine-batch-test-missing");
        std::fs::create_dir_all(&dir).unwrap();
        let good_in = dir.join("good.xml");
        std::fs::write(&good_in, "<a/>").unwrap();
        let batch = vec![
            BatchJob {
                input: dir.join("does-not-exist.xml"),
                output: dir.join("x.out"),
            },
            BatchJob {
                input: good_in,
                output: dir.join("good.out"),
            },
        ];
        let report = run_batch(batch, &dtd, &p, false, 2);
        assert_eq!(report.failures(), 1);
        assert_eq!(
            report.items[0].result.as_ref().unwrap_err().code,
            ErrorCode::Io
        );
        assert_eq!(std::fs::read_to_string(dir.join("good.out")).unwrap(), "<a/>");
    }
}
