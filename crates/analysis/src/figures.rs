//! The three whole-test figure representations (§4.2.1).
//!
//! 1. **Time vs. questions answered** — "the figure shows the test time
//!    is enough or not": the average number of questions the class has
//!    answered by each moment of the sitting.
//! 2. **Test score vs. degree of difficulty** — "shows the distribution
//!    of score and difficulty": one point per student, `x` their total
//!    score, `y` the mean Item Difficulty Index of the questions they
//!    answered correctly (weak students survive only on easy items, so a
//!    healthy exam slopes downward).
//! 3. **Cognition level vs. learning content subject** — the Table 4
//!    counts as a plottable matrix.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use mine_core::{CognitionLevel, ExamRecord};
use mine_itembank::Problem;

use crate::indices::QuestionIndices;
use crate::two_way::TwoWayTable;

/// One point of a 2-D figure.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Horizontal value.
    pub x: f64,
    /// Vertical value.
    pub y: f64,
}

/// All three §4.2.1 figures as data series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Figures {
    /// Figure 1: `(seconds, average questions answered)`.
    pub time_answered: Vec<FigurePoint>,
    /// Figure 2: `(student score, mean difficulty of their correct
    /// answers)`.
    pub score_difficulty: Vec<FigurePoint>,
    /// Figure 3: per subject, questions per Bloom level.
    pub cognition_subject: Vec<(String, [usize; CognitionLevel::COUNT])>,
    /// Figure 2's companion: the score distribution as
    /// `(bucket lower edge, student count)` over ten equal buckets.
    pub score_histogram: Vec<(f64, usize)>,
}

impl Figures {
    /// Builds all three figures.
    #[must_use]
    pub fn build(
        record: &ExamRecord,
        problems: &[Problem],
        indices: &[QuestionIndices],
        samples: usize,
    ) -> Self {
        Self {
            time_answered: time_answered_series(record, samples),
            score_difficulty: score_difficulty_scatter(record, indices),
            cognition_subject: cognition_subject_matrix(problems),
            score_histogram: score_histogram(record, 10),
        }
    }
}

/// The score distribution: `buckets` equal-width bins over
/// `[0, max_score]`, returned as `(bucket lower edge, count)`.
#[must_use]
pub fn score_histogram(record: &ExamRecord, buckets: usize) -> Vec<(f64, usize)> {
    if record.students.is_empty() || buckets == 0 {
        return Vec::new();
    }
    let max_score = record
        .students
        .iter()
        .map(|s| s.max_score())
        .fold(0.0f64, f64::max);
    if max_score <= 0.0 {
        return Vec::new();
    }
    let width = max_score / buckets as f64;
    let mut counts = vec![0usize; buckets];
    for student in &record.students {
        let index = ((student.score() / width).floor() as usize).min(buckets - 1);
        counts[index] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, count)| (i as f64 * width, count))
        .collect()
}

/// Figure (1): average cumulative answered count sampled at `samples`
/// evenly spaced times across the longest sitting.
///
/// Sample `i` counts the answers with `answered_at <= t_i`. The sample
/// times never decrease, so one pass files each answer under the first
/// sample that covers it (a binary search of the times) and a running
/// sum turns those buckets into the per-sample counts: the same
/// integers, and so the same `f64`s, as counting afresh per sample.
#[must_use]
pub fn time_answered_series(record: &ExamRecord, samples: usize) -> Vec<FigurePoint> {
    let max_time = record
        .students
        .iter()
        .map(|s| s.total_time)
        .max()
        .unwrap_or(Duration::ZERO);
    if record.students.is_empty() || samples == 0 || max_time.is_zero() {
        return Vec::new();
    }
    let times: Vec<Duration> = (1..=samples)
        .map(|i| max_time.mul_f64(i as f64 / samples as f64))
        .collect();
    // `first_covering[k]`: answers first counted at sample `k`; the
    // last slot collects answers later than every sample.
    let mut first_covering = vec![0usize; samples + 1];
    for response in record.students.iter().flat_map(|s| &s.responses) {
        if let Some(at) = response.answered_at {
            first_covering[times.partition_point(|&t| t < at)] += 1;
        }
    }
    let mut total_answered = 0usize;
    times
        .iter()
        .zip(first_covering)
        .map(|(t, newly)| {
            total_answered += newly;
            FigurePoint {
                x: t.as_secs_f64(),
                y: total_answered as f64 / record.students.len() as f64,
            }
        })
        .collect()
}

/// Figure (2): one point per student — total score vs. the mean
/// difficulty index (`P`, larger = easier) of the questions they got
/// right. Students with no correct answers are omitted.
#[must_use]
pub fn score_difficulty_scatter(
    record: &ExamRecord,
    indices: &[QuestionIndices],
) -> Vec<FigurePoint> {
    // Difficulty by problem id, built once; first entry wins like the
    // per-response `find` this replaces, and summation stays in
    // response order, so the points are bit-identical.
    let difficulty_of: std::collections::HashMap<&str, f64> = indices
        .iter()
        .rev()
        .map(|i| (i.problem.as_str(), i.difficulty.value()))
        .collect();
    record
        .students
        .iter()
        .filter_map(|student| {
            let mut sum = 0.0f64;
            let mut count = 0usize;
            for response in student.responses.iter().filter(|r| r.is_correct) {
                if let Some(&p) = difficulty_of.get(response.problem.as_str()) {
                    sum += p;
                    count += 1;
                }
            }
            if count == 0 {
                return None;
            }
            Some(FigurePoint {
                x: student.score(),
                y: sum / count as f64,
            })
        })
        .collect()
}

/// Figure (3): the cognition-level × subject counts.
#[must_use]
pub fn cognition_subject_matrix<'a>(
    problems: impl IntoIterator<Item = &'a Problem>,
) -> Vec<(String, [usize; CognitionLevel::COUNT])> {
    cognition_subject_matrix_from(&TwoWayTable::from_problems(problems))
}

/// [`cognition_subject_matrix`] over an already-built two-way table,
/// for callers that need the table itself as well.
#[must_use]
pub fn cognition_subject_matrix_from(
    table: &TwoWayTable,
) -> Vec<(String, [usize; CognitionLevel::COUNT])> {
    table
        .concepts()
        .into_iter()
        .map(|concept| {
            let mut row = [0usize; CognitionLevel::COUNT];
            for level in CognitionLevel::ALL {
                row[level.index()] = table.cell(concept, level);
            }
            (concept.to_string(), row)
        })
        .collect()
}

/// Renders a series as a coarse ASCII scatter (for the bench harness and
/// terminal reports).
#[must_use]
pub fn render_ascii(points: &[FigurePoint], width: usize, height: usize) -> String {
    if points.is_empty() || width == 0 || height == 0 {
        return String::from("(no data)\n");
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let span_x = (max_x - min_x).max(f64::MIN_POSITIVE);
    let span_y = (max_y - min_y).max(f64::MIN_POSITIVE);
    let mut grid = vec![vec![' '; width]; height];
    for p in points {
        let col = (((p.x - min_x) / span_x) * (width - 1) as f64).round() as usize;
        let row = (((p.y - min_y) / span_y) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = '*';
    }
    let mut out = String::new();
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push('\n');
    out.push_str(&format!(
        "x: {min_x:.1}..{max_x:.1}  y: {min_y:.2}..{max_y:.2}\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mine_core::{Answer, ExamId, ItemResponse, ProblemId, StudentRecord};
    use mine_metadata::{DifficultyIndex, DiscriminationIndex};
    use proptest::prelude::*;

    fn pid(s: &str) -> ProblemId {
        s.parse().unwrap()
    }

    fn record() -> ExamRecord {
        // Two students: fast answers everything, slow answers half.
        let mk = |name: &str, answered: usize, step: u64| {
            let responses = (0..4)
                .map(|q| {
                    let mut r = if q < answered {
                        ItemResponse::correct(pid(&format!("q{q}")), Answer::TrueFalse(true), 1.0)
                    } else {
                        ItemResponse::incorrect(pid(&format!("q{q}")), Answer::Skipped, 1.0)
                    };
                    if q < answered {
                        r.answered_at = Some(Duration::from_secs(step * (q as u64 + 1)));
                        r.time_spent = Duration::from_secs(step);
                    }
                    r
                })
                .collect();
            let mut record = StudentRecord::new(name.parse().unwrap(), responses);
            record.total_time = Duration::from_secs(step * answered as u64);
            record
        };
        ExamRecord::new(
            ExamId::new("e").unwrap(),
            vec![mk("fast", 4, 30), mk("slow", 2, 100)],
        )
    }

    fn indices() -> Vec<QuestionIndices> {
        (0..4)
            .map(|q| QuestionIndices {
                number: q + 1,
                problem: pid(&format!("q{q}")),
                ph: 0.9,
                pl: 0.3,
                discrimination: DiscriminationIndex::new(0.6).unwrap(),
                difficulty: DifficultyIndex::new(0.2 + 0.2 * q as f64).unwrap(),
            })
            .collect()
    }

    #[test]
    fn time_series_is_monotonic_nondecreasing() {
        let series = time_answered_series(&record(), 10);
        assert_eq!(series.len(), 10);
        for pair in series.windows(2) {
            assert!(pair[1].y >= pair[0].y);
            assert!(pair[1].x > pair[0].x);
        }
        // At the final sample everyone has answered what they answered.
        assert!((series.last().unwrap().y - 3.0).abs() < 1e-9, "(4 + 2)/2");
    }

    #[test]
    fn time_series_empty_cases() {
        let empty = ExamRecord::new(ExamId::new("e").unwrap(), vec![]);
        assert!(time_answered_series(&empty, 5).is_empty());
        assert!(time_answered_series(&record(), 0).is_empty());
    }

    /// The series counted afresh at every sample: one pass over all
    /// responses per sample.
    fn time_answered_by_sample(record: &ExamRecord, samples: usize) -> Vec<FigurePoint> {
        let max_time = record
            .students
            .iter()
            .map(|s| s.total_time)
            .max()
            .unwrap_or(Duration::ZERO);
        if record.students.is_empty() || samples == 0 || max_time.is_zero() {
            return Vec::new();
        }
        (1..=samples)
            .map(|i| {
                let t = max_time.mul_f64(i as f64 / samples as f64);
                let total_answered: usize = record
                    .students
                    .iter()
                    .map(|s| {
                        s.responses
                            .iter()
                            .filter(|r| r.answered_at.is_some_and(|at| at <= t))
                            .count()
                    })
                    .sum();
                FigurePoint {
                    x: t.as_secs_f64(),
                    y: total_answered as f64 / record.students.len() as f64,
                }
            })
            .collect()
    }

    proptest! {
        /// The one-pass series equals the per-sample count bit for bit.
        /// Answers may be missing, land exactly on a sample time, or come
        /// after the longest sitting; one case in eight has every
        /// sitting last 0 s.
        #[test]
        fn time_series_matches_counting_per_sample(
            samples in 0..=25usize,
            zero_case in 0..8u8,
            rows in proptest::collection::vec(
                (
                    0..5_000_000_000u64,
                    proptest::collection::vec(
                        (
                            proptest::option::of(0..6_000_000_000u64),
                            0..=25usize,
                            any::<bool>(),
                        ),
                        0..6,
                    ),
                ),
                0..8,
            ),
        ) {
            let total = |nanos: u64| Duration::from_nanos(if zero_case == 0 { 0 } else { nanos });
            let max_time = total(rows.iter().map(|(nanos, _)| *nanos).max().unwrap_or(0));
            let sample_time = |k: usize| {
                let samples = samples.max(1);
                max_time.mul_f64((k % samples + 1) as f64 / samples as f64)
            };
            let students = rows
                .iter()
                .enumerate()
                .map(|(row, (nanos, answers))| {
                    let responses = answers
                        .iter()
                        .enumerate()
                        .map(|(q, &(at, k, on_sample))| {
                            let mut r = ItemResponse::correct(
                                pid(&format!("q{q}")),
                                Answer::TrueFalse(true),
                                1.0,
                            );
                            r.answered_at = at.map(|at| {
                                if on_sample {
                                    sample_time(k)
                                } else {
                                    Duration::from_nanos(at)
                                }
                            });
                            r
                        })
                        .collect();
                    let mut record =
                        StudentRecord::new(format!("s{row}").parse().unwrap(), responses);
                    record.total_time = total(*nanos);
                    record
                })
                .collect();
            let record = ExamRecord::new(ExamId::new("e").unwrap(), students);
            let bits = |series: Vec<FigurePoint>| -> Vec<(u64, u64)> {
                series.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
            };
            prop_assert_eq!(
                bits(time_answered_series(&record, samples)),
                bits(time_answered_by_sample(&record, samples))
            );
        }
    }

    #[test]
    fn score_difficulty_one_point_per_scoring_student() {
        let scatter = score_difficulty_scatter(&record(), &indices());
        assert_eq!(scatter.len(), 2);
        // fast scored 4, mean P over q0..q3 = (0.2+0.4+0.6+0.8)/4 = 0.5.
        let fast = scatter.iter().find(|p| p.x == 4.0).unwrap();
        assert!((fast.y - 0.5).abs() < 1e-9);
        // slow scored 2 on q0,q1 → mean P = 0.3.
        let slow = scatter.iter().find(|p| p.x == 2.0).unwrap();
        assert!((slow.y - 0.3).abs() < 1e-9);
    }

    #[test]
    fn zero_scorers_are_omitted() {
        let mut rec = record();
        for response in &mut Arc::make_mut(&mut rec.students[1]).responses {
            response.is_correct = false;
        }
        let scatter = score_difficulty_scatter(&rec, &indices());
        assert_eq!(scatter.len(), 1);
    }

    #[test]
    fn cognition_subject_matrix_from_problems() {
        let problems = vec![
            Problem::true_false("a", "x", true)
                .unwrap()
                .with_subject("tcp")
                .with_cognition_level(CognitionLevel::Knowledge),
            Problem::true_false("b", "x", true)
                .unwrap()
                .with_subject("tcp")
                .with_cognition_level(CognitionLevel::Analysis),
        ];
        let matrix = cognition_subject_matrix(&problems);
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].0, "tcp");
        assert_eq!(matrix[0].1[CognitionLevel::Knowledge.index()], 1);
        assert_eq!(matrix[0].1[CognitionLevel::Analysis.index()], 1);
        assert_eq!(matrix[0].1[CognitionLevel::Evaluation.index()], 0);
    }

    #[test]
    fn ascii_render_contains_points_and_axes() {
        let points = vec![
            FigurePoint { x: 0.0, y: 0.0 },
            FigurePoint { x: 10.0, y: 5.0 },
        ];
        let art = render_ascii(&points, 20, 5);
        assert_eq!(art.matches('*').count(), 2);
        assert!(art.contains("x: 0.0..10.0"));
        assert_eq!(render_ascii(&[], 20, 5), "(no data)\n");
    }

    #[test]
    fn figures_build_assembles_everything() {
        let figures = Figures::build(&record(), &[], &indices(), 5);
        assert_eq!(figures.time_answered.len(), 5);
        assert_eq!(figures.score_difficulty.len(), 2);
        assert!(figures.cognition_subject.is_empty());
        assert_eq!(figures.score_histogram.len(), 10);
    }

    #[test]
    fn score_histogram_buckets_cover_all_students() {
        let hist = score_histogram(&record(), 4);
        assert_eq!(hist.len(), 4);
        assert_eq!(hist.iter().map(|(_, c)| c).sum::<usize>(), 2);
        // fast scored 4/4 → top bucket; slow scored 2/4 → third bucket.
        assert_eq!(hist[3].1, 1);
        assert_eq!(hist[2].1, 1);
        // Bucket edges ascend by max_score / buckets = 1.0.
        assert_eq!(hist[1].0, 1.0);
    }

    #[test]
    fn score_histogram_degenerate_cases() {
        let empty = ExamRecord::new(ExamId::new("e").unwrap(), vec![]);
        assert!(score_histogram(&empty, 10).is_empty());
        assert!(score_histogram(&record(), 0).is_empty());
    }
}
