//! Batch analysis: many exam sittings through the §4 pipeline at once.
//!
//! A term's worth of assessment produces dozens of sittings — the same
//! mid-term across class sections, weekly quizzes, pre/post pairs for
//! the §3.4-III sensitivity index. [`BatchAnalyzer`] runs
//! [`ExamAnalysis::analyze`] over a whole batch with a work-stealing
//! thread pool and aggregates the per-exam results into a
//! [`BatchReport`] with cross-exam reliability and signal summaries.
//! The analysis is a pure function of its inputs and is recomputed on
//! every call; repeat reads of a live class are served by the
//! streaming engine instead.
//!
//! Output is deterministic: analyses come back in job order and each is
//! byte-identical (under `serde_json`) to what a sequential
//! [`ExamAnalysis::analyze`] call produces, whatever the thread count.

use std::sync::atomic::{AtomicU64, Ordering};

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use serde::{Deserialize, Serialize};

use mine_core::ExamRecord;
use mine_itembank::Problem;

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::exam_analysis::ExamAnalysis;
use crate::isi::{instructional_sensitivity, InstructionalSensitivity};
use crate::signal::Signal;

/// One unit of batch work: a sitting and the problems it drew from.
///
/// Jobs borrow their inputs so a batch of many sittings of the same
/// exam shares one problem slice.
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The graded sitting.
    pub record: &'a ExamRecord,
    /// Problem definitions covering every problem in the record.
    pub problems: &'a [Problem],
}

/// Everything a batch run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-exam analyses, in job order.
    pub analyses: Vec<ExamAnalysis>,
    /// Cross-exam aggregates.
    pub summary: BatchSummary,
}

impl BatchReport {
    /// Assembles a report from analyses computed elsewhere (e.g. the
    /// streaming engine), running the same summary aggregation
    /// [`BatchAnalyzer::analyze_batch`] performs.
    #[must_use]
    pub fn from_analyses(analyses: Vec<ExamAnalysis>) -> Self {
        let summary = summarize(&analyses);
        Self { analyses, summary }
    }
}

/// Cross-exam aggregates over a [`BatchReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchSummary {
    /// Number of sittings analyzed.
    pub exams: usize,
    /// Total students across sittings.
    pub students: usize,
    /// Total analyzed questions across sittings.
    pub questions: usize,
    /// Questions whose Table 3 light is green.
    pub green: usize,
    /// Questions whose Table 3 light is yellow.
    pub yellow: usize,
    /// Questions whose Table 3 light is red.
    pub red: usize,
    /// Mean Cronbach's alpha over sittings where it is defined.
    pub mean_alpha: Option<f64>,
    /// Smallest defined alpha.
    pub min_alpha: Option<f64>,
    /// Largest defined alpha.
    pub max_alpha: Option<f64>,
}

/// A pre/post instruction pair analyzed together (§3.4-III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrePostReport {
    /// Analysis of the sitting before instruction.
    pub pre: ExamAnalysis,
    /// Analysis of the sitting after instruction.
    pub post: ExamAnalysis,
    /// The Instructional Sensitivity Index between the two.
    pub sensitivity: InstructionalSensitivity,
}

/// What [`BatchAnalyzer::cache_stats`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Analyses run.
    pub misses: u64,
    /// Always 0.
    pub entries: usize,
}

/// Runs many sittings through the §4 pipeline concurrently.
///
/// # Examples
///
/// ```
/// use mine_analysis::{AnalysisConfig, BatchAnalyzer};
/// use mine_itembank::{Exam, Problem};
/// use mine_simulator::{CohortSpec, Simulation};
///
/// let problems = vec![Problem::true_false("q1", "x", true)?];
/// let exam = Exam::builder("quiz")?.entry("q1".parse()?).build()?;
/// let records: Vec<_> = (0..4)
///     .map(|seed| {
///         Simulation::new(exam.clone(), problems.clone())
///             .cohort(CohortSpec::new(44).seed(seed))
///             .run()
///     })
///     .collect::<Result<_, _>>()?;
/// let analyzer = BatchAnalyzer::new(AnalysisConfig::default()).with_threads(2);
/// let report = analyzer.analyze_records(&records, &problems)?;
/// assert_eq!(report.summary.exams, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct BatchAnalyzer {
    config: AnalysisConfig,
    /// Worker threads for the batch loop; `0` = auto-detect.
    threads: usize,
    /// Analyses run, reported by [`Self::cache_stats`].
    runs: AtomicU64,
}

impl BatchAnalyzer {
    /// A batch analyzer with auto thread count.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        Self {
            config,
            threads: 0,
            runs: AtomicU64::new(0),
        }
    }

    /// Sets the worker thread count; `0` means auto-detect.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The analysis configuration every job runs under.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Analyzes every job concurrently and aggregates the results.
    ///
    /// Analyses are returned in job order; on failure the error is the
    /// first failing job's, exactly as a sequential loop would report.
    ///
    /// # Errors
    ///
    /// Everything [`ExamAnalysis::analyze`] can return.
    pub fn analyze_batch(&self, jobs: &[BatchJob<'_>]) -> Result<BatchReport, AnalysisError> {
        let threads = if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        };
        // One budget for the whole batch. The outer per-exam map and the
        // per-question maps inside `analyze` feed the same work-stealing
        // pool, so a single-exam batch still spreads its questions over
        // every worker — no nested pools, no `install(1)` pinning.
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        self.runs.fetch_add(jobs.len() as u64, Ordering::Relaxed);
        let analyses: Vec<ExamAnalysis> = pool
            .install(|| {
                jobs.par_iter()
                    .map(|job| ExamAnalysis::analyze(job.record, job.problems, &self.config))
                    .collect::<Vec<Result<ExamAnalysis, AnalysisError>>>()
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let summary = summarize(&analyses);
        Ok(BatchReport { analyses, summary })
    }

    /// Analyzes many sittings of the same exam (the common cohort
    /// case: one problem set, many class sections).
    ///
    /// # Errors
    ///
    /// Everything [`ExamAnalysis::analyze`] can return.
    pub fn analyze_records(
        &self,
        records: &[ExamRecord],
        problems: &[Problem],
    ) -> Result<BatchReport, AnalysisError> {
        let jobs: Vec<BatchJob<'_>> = records
            .iter()
            .map(|record| BatchJob { record, problems })
            .collect();
        self.analyze_batch(&jobs)
    }

    /// Analyzes a pre/post instruction pair and the §3.4-III
    /// Instructional Sensitivity Index between the two sittings.
    ///
    /// # Errors
    ///
    /// Everything [`ExamAnalysis::analyze`] and
    /// [`instructional_sensitivity`] can return.
    pub fn analyze_pre_post(
        &self,
        pre: &ExamRecord,
        post: &ExamRecord,
        problems: &[Problem],
    ) -> Result<PrePostReport, AnalysisError> {
        let sensitivity = instructional_sensitivity(pre, post)?;
        let report = self.analyze_records(std::slice::from_ref(pre), problems)?;
        let pre_analysis = report
            .analyses
            .into_iter()
            .next()
            .expect("one job yields one analysis");
        let report = self.analyze_records(std::slice::from_ref(post), problems)?;
        let post_analysis = report
            .analyses
            .into_iter()
            .next()
            .expect("one job yields one analysis");
        Ok(PrePostReport {
            pre: pre_analysis,
            post: post_analysis,
            sensitivity,
        })
    }

    /// The counters an analyzer with no cache reports: no hits, no
    /// entries, and one miss per analysis run.
    ///
    /// Exists only for the `servebench` trace binary, which reads
    /// `hits` and `misses`; it goes away with the next change to that
    /// benchmark.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.runs.load(Ordering::Relaxed),
            entries: 0,
        }
    }
}

/// Builds the [`BatchSummary`] over finished analyses.
fn summarize(analyses: &[ExamAnalysis]) -> BatchSummary {
    let mut summary = BatchSummary {
        exams: analyses.len(),
        students: 0,
        questions: 0,
        green: 0,
        yellow: 0,
        red: 0,
        mean_alpha: None,
        min_alpha: None,
        max_alpha: None,
    };
    let mut alphas = Vec::new();
    for analysis in analyses {
        summary.students += analysis.statistics.class_size;
        summary.questions += analysis.questions.len();
        for question in &analysis.questions {
            match question.signal {
                Signal::Green => summary.green += 1,
                Signal::Yellow => summary.yellow += 1,
                Signal::Red => summary.red += 1,
            }
        }
        if let Some(alpha) = analysis.reliability.alpha {
            alphas.push(alpha);
        }
    }
    if !alphas.is_empty() {
        summary.mean_alpha = Some(alphas.iter().sum::<f64>() / alphas.len() as f64);
        summary.min_alpha = alphas.iter().copied().reduce(f64::min);
        summary.max_alpha = alphas.iter().copied().reduce(f64::max);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_itembank::Exam;
    use mine_simulator::{CohortSpec, Simulation};

    fn problems(n: usize) -> Vec<Problem> {
        (0..n)
            .map(|i| Problem::true_false(format!("q{i}"), "stem", i % 2 == 0).unwrap())
            .collect()
    }

    fn exam(n: usize) -> Exam {
        let mut builder = Exam::builder("quiz").unwrap();
        for i in 0..n {
            builder = builder.entry(format!("q{i}").parse().unwrap());
        }
        builder.build().unwrap()
    }

    fn records(count: usize, questions: usize, class: usize) -> (Vec<ExamRecord>, Vec<Problem>) {
        let problems = problems(questions);
        let exam = exam(questions);
        let records = (0..count)
            .map(|seed| {
                Simulation::new(exam.clone(), problems.clone())
                    .cohort(CohortSpec::new(class).ability(0.0, 1.2).seed(seed as u64))
                    .run()
                    .unwrap()
            })
            .collect();
        (records, problems)
    }

    #[test]
    fn batch_matches_sequential_analyze() {
        let (records, problems) = records(5, 8, 30);
        let config = AnalysisConfig::default();
        let analyzer = BatchAnalyzer::new(config).with_threads(4);
        let report = analyzer.analyze_records(&records, &problems).unwrap();
        assert_eq!(report.analyses.len(), 5);
        for (record, got) in records.iter().zip(&report.analyses) {
            let want = ExamAnalysis::analyze(record, &problems, &config).unwrap();
            assert_eq!(got, &want);
        }
    }

    #[test]
    fn thread_counts_do_not_change_output() {
        let (records, problems) = records(6, 6, 24);
        let config = AnalysisConfig::default();
        let reports: Vec<BatchReport> = [1usize, 2, 4, 8]
            .iter()
            .map(|&threads| {
                BatchAnalyzer::new(config)
                    .with_threads(threads)
                    .analyze_records(&records, &problems)
                    .unwrap()
            })
            .collect();
        for report in &reports[1..] {
            assert_eq!(report, &reports[0]);
        }
    }

    #[test]
    fn cache_stats_count_every_analysis_as_a_miss() {
        let (records, problems) = records(3, 4, 20);
        let analyzer = BatchAnalyzer::new(AnalysisConfig::default());
        assert_eq!(
            analyzer.cache_stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                entries: 0
            }
        );
        analyzer.analyze_records(&records, &problems).unwrap();
        // The same input again is analyzed again: nothing is retained.
        analyzer.analyze_records(&records[..1], &problems).unwrap();
        assert_eq!(
            analyzer.cache_stats(),
            CacheStats {
                hits: 0,
                misses: 4,
                entries: 0
            }
        );
    }

    #[test]
    fn summary_aggregates_all_exams() {
        let (records, problems) = records(3, 6, 24);
        let report = BatchAnalyzer::new(AnalysisConfig::default())
            .analyze_records(&records, &problems)
            .unwrap();
        let summary = &report.summary;
        assert_eq!(summary.exams, 3);
        assert_eq!(summary.students, 3 * 24);
        assert_eq!(summary.questions, 3 * 6);
        assert_eq!(summary.green + summary.yellow + summary.red, 3 * 6);
        if let (Some(min), Some(mean), Some(max)) =
            (summary.min_alpha, summary.mean_alpha, summary.max_alpha)
        {
            assert!(min <= mean && mean <= max);
        }
    }

    #[test]
    fn pre_post_reports_sensitivity() {
        let problems = problems(5);
        let exam = exam(5);
        let pre = Simulation::new(exam.clone(), problems.clone())
            .cohort(CohortSpec::new(30).ability(-0.8, 0.8).seed(11))
            .run()
            .unwrap();
        let post = Simulation::new(exam, problems.clone())
            .cohort(CohortSpec::new(30).ability(0.8, 0.8).seed(11))
            .run()
            .unwrap();
        let report = BatchAnalyzer::new(AnalysisConfig::default())
            .analyze_pre_post(&pre, &post, &problems)
            .unwrap();
        assert_eq!(report.sensitivity.per_question.len(), 5);
        let expected = instructional_sensitivity(&pre, &post).unwrap();
        assert_eq!(report.sensitivity, expected);
        assert_eq!(
            report.pre,
            ExamAnalysis::analyze(&pre, &problems, &AnalysisConfig::default()).unwrap()
        );
    }

    #[test]
    fn error_reporting_matches_sequential_order() {
        let (mut records, problems) = records(3, 4, 20);
        // Break the second record: drop a response from one student.
        records[1].students[0].responses.pop();
        let analyzer = BatchAnalyzer::new(AnalysisConfig::default()).with_threads(4);
        let sequential: Vec<Result<ExamAnalysis, AnalysisError>> = records
            .iter()
            .map(|r| ExamAnalysis::analyze(r, &problems, &AnalysisConfig::default()))
            .collect();
        let first_error = sequential
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        let got = analyzer.analyze_records(&records, &problems).unwrap_err();
        assert_eq!(got, first_error);
    }
}
