//! The concurrent problem & exam repository.
//!
//! The paper's architecture has authors, instructors, and tutors all
//! working against the same *problem & exam database* while an
//! administrator controls it (§5). [`Repository`] is that database:
//! cheaply cloneable (shared state behind an `Arc`), reader-writer
//! locked, with an incrementally maintained [`SearchIndex`] and per-entity
//! version counters so concurrent editors can detect lost updates. A
//! store-wide [`Repository::revision`] lets readers that cache anything
//! derived from the bank tell whether it changed since.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use mine_core::{ExamId, ProblemId, TemplateId};

use crate::error::BankError;
use crate::exam::Exam;
use crate::problem::Problem;
use crate::search::{Query, SearchHit, SearchIndex};
use crate::template::Template;

#[derive(Debug, Default)]
struct Inner {
    problems: BTreeMap<ProblemId, (Problem, u64)>,
    exams: BTreeMap<ExamId, (Exam, u64)>,
    templates: BTreeMap<TemplateId, Template>,
    index: SearchIndex,
    /// Bumped by every successful mutation (see [`Repository::revision`]).
    revision: u64,
}

/// The shared in-memory problem & exam database.
///
/// Cloning a `Repository` yields another handle to the *same* store.
///
/// # Examples
///
/// ```
/// use mine_itembank::{Problem, Query, Repository};
///
/// let repo = Repository::new();
/// repo.insert_problem(Problem::true_false("q1", "The earth is flat.", false)?)?;
/// let hits = repo.search(&Query::text("earth"));
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), mine_itembank::BankError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Repository {
    inner: Arc<RwLock<Inner>>,
}

impl Repository {
    /// Creates an empty repository.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // ----- problems -------------------------------------------------

    /// Inserts a new problem.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Duplicate`] when the id is taken.
    pub fn insert_problem(&self, problem: Problem) -> Result<(), BankError> {
        let mut inner = self.inner.write();
        if inner.problems.contains_key(problem.id()) {
            return Err(BankError::Duplicate {
                kind: "problem",
                id: problem.id().to_string(),
            });
        }
        inner.index.insert(&problem);
        inner.problems.insert(problem.id().clone(), (problem, 1));
        inner.revision += 1;
        Ok(())
    }

    /// Fetches a snapshot of a problem.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn problem(&self, id: &ProblemId) -> Result<Problem, BankError> {
        self.inner
            .read()
            .problems
            .get(id)
            .map(|(p, _)| p.clone())
            .ok_or_else(|| BankError::NotFound {
                kind: "problem",
                id: id.to_string(),
            })
    }

    /// The stored version of a problem (starts at 1, bumps on update).
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn problem_version(&self, id: &ProblemId) -> Result<u64, BankError> {
        self.inner
            .read()
            .problems
            .get(id)
            .map(|(_, v)| *v)
            .ok_or_else(|| BankError::NotFound {
                kind: "problem",
                id: id.to_string(),
            })
    }

    /// Edits a problem in place under the write lock.
    ///
    /// The closure may fail; the problem is revalidated afterwards and
    /// the version bumped on success.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent, or any error from the
    /// closure / revalidation (in which case the stored problem is left
    /// unchanged).
    pub fn update_problem<F>(&self, id: &ProblemId, edit: F) -> Result<u64, BankError>
    where
        F: FnOnce(&mut Problem) -> Result<(), BankError>,
    {
        let mut inner = self.inner.write();
        let (stored, version) =
            inner
                .problems
                .get(id)
                .cloned()
                .ok_or_else(|| BankError::NotFound {
                    kind: "problem",
                    id: id.to_string(),
                })?;
        let mut edited = stored;
        edit(&mut edited)?;
        edited.validate()?;
        let new_version = version + 1;
        inner.index.insert(&edited);
        inner.problems.insert(id.clone(), (edited, new_version));
        inner.revision += 1;
        Ok(new_version)
    }

    /// Removes a problem.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn remove_problem(&self, id: &ProblemId) -> Result<Problem, BankError> {
        let mut inner = self.inner.write();
        match inner.problems.remove(id) {
            Some((problem, _)) => {
                inner.index.remove(id);
                inner.revision += 1;
                Ok(problem)
            }
            None => Err(BankError::NotFound {
                kind: "problem",
                id: id.to_string(),
            }),
        }
    }

    /// Number of stored problems.
    #[must_use]
    pub fn problem_count(&self) -> usize {
        self.inner.read().problems.len()
    }

    /// Snapshot of all problem ids, ordered.
    #[must_use]
    pub fn problem_ids(&self) -> Vec<ProblemId> {
        self.inner.read().problems.keys().cloned().collect()
    }

    /// Runs a search query against the index.
    #[must_use]
    pub fn search(&self, query: &Query) -> Vec<SearchHit> {
        self.inner.read().index.search(query)
    }

    /// Finds problems similar to the given one (§5 problem search).
    #[must_use]
    pub fn similar_to(&self, id: &ProblemId, limit: usize) -> Vec<SearchHit> {
        self.inner.read().index.similar_to(id, limit)
    }

    // ----- exams ----------------------------------------------------

    /// Inserts a new exam, verifying every referenced problem exists.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Duplicate`] for a taken id and
    /// [`BankError::NotFound`] for a dangling problem reference.
    pub fn insert_exam(&self, exam: Exam) -> Result<(), BankError> {
        let mut inner = self.inner.write();
        if inner.exams.contains_key(exam.id()) {
            return Err(BankError::Duplicate {
                kind: "exam",
                id: exam.id().to_string(),
            });
        }
        for problem in exam.problem_ids() {
            if !inner.problems.contains_key(&problem) {
                return Err(BankError::NotFound {
                    kind: "problem",
                    id: problem.to_string(),
                });
            }
        }
        inner.exams.insert(exam.id().clone(), (exam, 1));
        inner.revision += 1;
        Ok(())
    }

    /// Fetches a snapshot of an exam.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn exam(&self, id: &ExamId) -> Result<Exam, BankError> {
        self.inner
            .read()
            .exams
            .get(id)
            .map(|(e, _)| e.clone())
            .ok_or_else(|| BankError::NotFound {
                kind: "exam",
                id: id.to_string(),
            })
    }

    /// Edits an exam in place under the write lock (revalidated; version
    /// bumped).
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent, or any error from the
    /// closure / revalidation.
    pub fn update_exam<F>(&self, id: &ExamId, edit: F) -> Result<u64, BankError>
    where
        F: FnOnce(&mut Exam) -> Result<(), BankError>,
    {
        let mut inner = self.inner.write();
        let (stored, version) =
            inner
                .exams
                .get(id)
                .cloned()
                .ok_or_else(|| BankError::NotFound {
                    kind: "exam",
                    id: id.to_string(),
                })?;
        let mut edited = stored;
        edit(&mut edited)?;
        edited.validate()?;
        for problem in edited.problem_ids() {
            if !inner.problems.contains_key(&problem) {
                return Err(BankError::NotFound {
                    kind: "problem",
                    id: problem.to_string(),
                });
            }
        }
        let new_version = version + 1;
        inner.exams.insert(id.clone(), (edited, new_version));
        inner.revision += 1;
        Ok(new_version)
    }

    /// Removes an exam.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn remove_exam(&self, id: &ExamId) -> Result<Exam, BankError> {
        let mut inner = self.inner.write();
        let (exam, _) = inner.exams.remove(id).ok_or_else(|| BankError::NotFound {
            kind: "exam",
            id: id.to_string(),
        })?;
        inner.revision += 1;
        Ok(exam)
    }

    /// Number of stored exams.
    #[must_use]
    pub fn exam_count(&self) -> usize {
        self.inner.read().exams.len()
    }

    /// Snapshot of all exam ids, ordered.
    #[must_use]
    pub fn exam_ids(&self) -> Vec<ExamId> {
        self.inner.read().exams.keys().cloned().collect()
    }

    /// Resolves an exam to its problems, in entry order.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] for a missing exam or a dangling
    /// problem reference.
    pub fn resolve_exam(&self, id: &ExamId) -> Result<(Exam, Vec<Problem>), BankError> {
        let inner = self.inner.read();
        let (exam, _) = inner.exams.get(id).ok_or_else(|| BankError::NotFound {
            kind: "exam",
            id: id.to_string(),
        })?;
        let mut problems = Vec::with_capacity(exam.len());
        for pid in exam.problem_ids() {
            let (problem, _) = inner
                .problems
                .get(&pid)
                .ok_or_else(|| BankError::NotFound {
                    kind: "problem",
                    id: pid.to_string(),
                })?;
            problems.push(problem.clone());
        }
        Ok((exam.clone(), problems))
    }

    /// How many successful mutations the repository has taken: every
    /// insert, update and removal of a problem, exam or template bumps
    /// it under the write lock. Anything derived from the bank at
    /// revision `r` is still current while `revision()` returns `r`.
    /// Read it *before* reading the bank, so a concurrent edit can only
    /// make the derived value look older than it is, never newer.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.inner.read().revision
    }

    // ----- templates ------------------------------------------------

    /// Inserts a template.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::Duplicate`] when the id is taken.
    pub fn insert_template(&self, template: Template) -> Result<(), BankError> {
        let mut inner = self.inner.write();
        if inner.templates.contains_key(template.id()) {
            return Err(BankError::Duplicate {
                kind: "template",
                id: template.id().to_string(),
            });
        }
        inner.templates.insert(template.id().clone(), template);
        inner.revision += 1;
        Ok(())
    }

    /// Fetches a snapshot of a template.
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn template(&self, id: &TemplateId) -> Result<Template, BankError> {
        self.inner
            .read()
            .templates
            .get(id)
            .cloned()
            .ok_or_else(|| BankError::NotFound {
                kind: "template",
                id: id.to_string(),
            })
    }

    /// Removes a template ("he can delete an existed template", §5.3).
    ///
    /// # Errors
    ///
    /// Returns [`BankError::NotFound`] when absent.
    pub fn remove_template(&self, id: &TemplateId) -> Result<Template, BankError> {
        let mut inner = self.inner.write();
        let template = inner
            .templates
            .remove(id)
            .ok_or_else(|| BankError::NotFound {
                kind: "template",
                id: id.to_string(),
            })?;
        inner.revision += 1;
        Ok(template)
    }

    /// Number of stored templates.
    #[must_use]
    pub fn template_count(&self) -> usize {
        self.inner.read().templates.len()
    }

    /// Snapshot of all templates, ordered by id (persistence helper).
    #[must_use]
    pub fn template_snapshot(&self) -> Vec<Template> {
        self.inner.read().templates.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exam::ExamEntry;
    use crate::problem::ChoiceOption;
    use mine_core::OptionKey;

    fn repo_with_problems(n: usize) -> Repository {
        let repo = Repository::new();
        for i in 0..n {
            repo.insert_problem(
                Problem::true_false(
                    format!("q{i}"),
                    format!("Statement {i} is true."),
                    i % 2 == 0,
                )
                .unwrap()
                .with_subject("general"),
            )
            .unwrap();
        }
        repo
    }

    #[test]
    fn insert_get_remove_problem() {
        let repo = repo_with_problems(3);
        assert_eq!(repo.problem_count(), 3);
        let p = repo.problem(&"q1".parse().unwrap()).unwrap();
        assert_eq!(p.id().as_str(), "q1");
        assert!(repo.remove_problem(&"q1".parse().unwrap()).is_ok());
        assert!(repo.problem(&"q1".parse().unwrap()).is_err());
        assert_eq!(repo.problem_count(), 2);
    }

    #[test]
    fn duplicate_problem_rejected() {
        let repo = repo_with_problems(1);
        let dup = Problem::true_false("q0", "again", true).unwrap();
        assert!(matches!(
            repo.insert_problem(dup),
            Err(BankError::Duplicate { .. })
        ));
    }

    #[test]
    fn update_bumps_version_and_reindexes() {
        let repo = repo_with_problems(1);
        let id: ProblemId = "q0".parse().unwrap();
        assert_eq!(repo.problem_version(&id).unwrap(), 1);
        let v = repo
            .update_problem(&id, |p| {
                p.set_subject("updated-subject");
                Ok(())
            })
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(repo.problem_version(&id).unwrap(), 2);
        let hits = repo.search(&Query::builder().subject("updated-subject").build());
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn failed_update_leaves_problem_unchanged() {
        let repo = repo_with_problems(1);
        let id: ProblemId = "q0".parse().unwrap();
        let result = repo.update_problem(&id, |p| {
            p.set_subject("poisoned");
            Err(BankError::InvalidProblem {
                id: id.to_string(),
                reason: "synthetic failure".into(),
            })
        });
        assert!(result.is_err());
        assert_eq!(repo.problem(&id).unwrap().subject().as_str(), "general");
        assert_eq!(repo.problem_version(&id).unwrap(), 1);
    }

    #[test]
    fn exam_requires_existing_problems() {
        let repo = repo_with_problems(2);
        let dangling = Exam::builder("e1")
            .unwrap()
            .entry("ghost".parse().unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            repo.insert_exam(dangling),
            Err(BankError::NotFound { .. })
        ));
        let good = Exam::builder("e1")
            .unwrap()
            .entry("q0".parse().unwrap())
            .entry("q1".parse().unwrap())
            .build()
            .unwrap();
        repo.insert_exam(good).unwrap();
        assert_eq!(repo.exam_count(), 1);
    }

    #[test]
    fn resolve_exam_returns_problems_in_order() {
        let repo = repo_with_problems(3);
        let exam = Exam::builder("e")
            .unwrap()
            .entry("q2".parse().unwrap())
            .entry("q0".parse().unwrap())
            .build()
            .unwrap();
        repo.insert_exam(exam).unwrap();
        let (exam, problems) = repo.resolve_exam(&"e".parse().unwrap()).unwrap();
        assert_eq!(exam.len(), 2);
        let ids: Vec<_> = problems
            .iter()
            .map(|p| p.id().as_str().to_string())
            .collect();
        assert_eq!(ids, vec!["q2", "q0"]);
    }

    #[test]
    fn update_exam_validates_problem_refs() {
        let repo = repo_with_problems(2);
        let exam = Exam::builder("e")
            .unwrap()
            .entry("q0".parse().unwrap())
            .build()
            .unwrap();
        repo.insert_exam(exam).unwrap();
        let id: ExamId = "e".parse().unwrap();
        let err = repo.update_exam(&id, |e| {
            e.push_entry(ExamEntry::new("ghost".parse().unwrap()))
        });
        assert!(err.is_err());
        // Unchanged.
        assert_eq!(repo.exam(&id).unwrap().len(), 1);
        let v = repo
            .update_exam(&id, |e| e.push_entry(ExamEntry::new("q1".parse().unwrap())))
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(repo.exam(&id).unwrap().len(), 2);
    }

    #[test]
    fn templates_crud() {
        let repo = Repository::new();
        let t = Template::new("t1".parse().unwrap(), "layout");
        repo.insert_template(t.clone()).unwrap();
        assert!(matches!(
            repo.insert_template(t.clone()),
            Err(BankError::Duplicate { .. })
        ));
        assert_eq!(repo.template_count(), 1);
        assert_eq!(
            repo.template(&"t1".parse().unwrap()).unwrap().name(),
            "layout"
        );
        repo.remove_template(&"t1".parse().unwrap()).unwrap();
        assert!(repo.template(&"t1".parse().unwrap()).is_err());
    }

    #[test]
    fn every_successful_mutation_bumps_the_revision() {
        let repo = repo_with_problems(2);
        let mut last = repo.revision();
        let mut bumped = |repo: &Repository| {
            let now = repo.revision();
            assert!(now > last, "{now} after {last}");
            last = now;
        };
        let p0: ProblemId = "q0".parse().unwrap();
        repo.update_problem(&p0, |_| Ok(())).unwrap();
        bumped(&repo);
        let exam = Exam::builder("e1")
            .unwrap()
            .entry(p0.clone())
            .build()
            .unwrap();
        repo.insert_exam(exam).unwrap();
        bumped(&repo);
        let e1: ExamId = "e1".parse().unwrap();
        repo.update_exam(&e1, |_| Ok(())).unwrap();
        bumped(&repo);
        repo.remove_exam(&e1).unwrap();
        bumped(&repo);
        repo.remove_problem(&p0).unwrap();
        bumped(&repo);
        // A failed edit leaves the bank, and so the revision, unchanged.
        let before = repo.revision();
        assert!(repo.remove_problem(&p0).is_err());
        assert_eq!(repo.revision(), before);
    }

    #[test]
    fn clones_share_state() {
        let repo = repo_with_problems(1);
        let other = repo.clone();
        other
            .insert_problem(Problem::true_false("shared", "s", true).unwrap())
            .unwrap();
        assert_eq!(repo.problem_count(), 2);
    }

    #[test]
    fn concurrent_inserts_from_threads() {
        let repo = Repository::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let repo = repo.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        repo.insert_problem(
                            Problem::true_false(format!("t{t}-q{i}"), "x", true).unwrap(),
                        )
                        .unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(repo.problem_count(), 400);
        let mc = Problem::multiple_choice(
            "probe",
            "probe?",
            [
                ChoiceOption::new(OptionKey::A, "a"),
                ChoiceOption::new(OptionKey::B, "b"),
            ],
            OptionKey::A,
        )
        .unwrap();
        repo.insert_problem(mc).unwrap();
        assert_eq!(repo.problem_count(), 401);
    }

    #[test]
    fn search_is_kept_in_sync() {
        let repo = repo_with_problems(2);
        assert_eq!(repo.search(&Query::text("statement")).len(), 2);
        repo.remove_problem(&"q0".parse().unwrap()).unwrap();
        assert_eq!(repo.search(&Query::text("statement")).len(), 1);
    }
}
