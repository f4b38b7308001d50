//! End-to-end integration: author → package → exchange → deliver →
//! track → analyze → write back, across every crate in the workspace.

use std::sync::Arc;
use std::time::Duration;

use mine_assessment::analysis::{render_signal_report, AnalysisConfig};
use mine_assessment::authoring::{AuthoringSystem, ExternalRepository};
use mine_assessment::core::{Answer, CognitionLevel, ExamRecord, OptionKey};
use mine_assessment::delivery::{DeliveryOptions, MonitorEvent, RteBridge};
use mine_assessment::itembank::{
    ChoiceOption, Exam, ExamEntry, GroupStyle, PresentationGroup, Problem,
};
use mine_assessment::metadata::DisplayOrder;
use mine_assessment::simulator::{CohortSpec, Simulation};

fn build_system() -> (AuthoringSystem, mine_assessment::core::ExamId) {
    let system = AuthoringSystem::new();
    for i in 0..8 {
        system
            .author_problem(
                "hung",
                Problem::multiple_choice(
                    format!("q{i}"),
                    format!("Question {i} about protocol layering"),
                    OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("choice {k}"))),
                    OptionKey::B,
                )
                .unwrap()
                .with_subject(if i < 4 { "layers" } else { "addressing" })
                .with_cognition_level(if i % 2 == 0 {
                    CognitionLevel::Knowledge
                } else {
                    CognitionLevel::Comprehension
                }),
            )
            .unwrap();
    }
    let mut builder = Exam::builder("integration-final")
        .unwrap()
        .title("Integration final")
        .display_order(DisplayOrder::Fixed)
        .group(
            PresentationGroup::new("part1".parse().unwrap()).with_style(GroupStyle {
                columns: 2,
                shuffle_within: true,
                ..GroupStyle::default()
            }),
        )
        .test_time(Duration::from_secs(3600));
    for i in 0..8 {
        let entry = ExamEntry::new(format!("q{i}").parse().unwrap());
        builder = builder.entry_with(if i < 4 {
            entry.in_group("part1".parse().unwrap())
        } else {
            entry
        });
    }
    system.author_exam("lin", builder.build().unwrap()).unwrap();
    (system, "integration-final".parse().unwrap())
}

#[test]
fn full_lifecycle_author_to_writeback() {
    let (system, exam_id) = build_system();

    // Deliver to one real session with RTE tracking and the monitor.
    let (mut session, mut monitor) = system
        .deliver(
            &exam_id,
            "manual-student".parse().unwrap(),
            DeliveryOptions::default(),
        )
        .unwrap();
    let mut bridge = RteBridge::launch(&"manual-student".parse().unwrap(), "Manual").unwrap();
    while let Some(problem) = session.current().cloned() {
        let answer = Answer::Choice(OptionKey::B);
        let correct = problem.grade(&answer).unwrap().is_correct;
        session
            .answer(answer.clone(), Duration::from_secs(20))
            .unwrap();
        bridge
            .record_answer(
                problem.id().as_str(),
                &answer,
                correct,
                Duration::from_secs(20),
            )
            .unwrap();
        monitor.on_answer(session.elapsed());
    }
    let manual_record = session.finish().unwrap();
    monitor.on_finish(manual_record.attempted_count(), manual_record.total_time);
    let api = bridge.finish(&manual_record).unwrap();
    assert_eq!(api.model().score_raw, Some(100.0));
    assert_eq!(api.model().lesson_status, "passed");

    // The rest of the class is simulated through the same delivery path.
    let (exam, problems) = system.repository().resolve_exam(&exam_id).unwrap();
    let mut record = Simulation::new(exam, problems)
        .cohort(CohortSpec::new(43).seed(8))
        .run_monitored(system.monitor_hub())
        .unwrap();
    record.students.push(Arc::new(manual_record));
    assert_eq!(record.class_size(), 44);
    record.validate().unwrap();

    // Monitor saw every simulated session plus the manual one.
    let events = system.monitor_hub().drain();
    let finishes = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::SessionFinished { .. }))
        .count();
    assert_eq!(finishes, 44);

    // Analyze and write the measured indices back into the bank.
    let record = ExamRecord::shared(exam_id.clone(), record.students);
    let analysis = system
        .analyze(&exam_id, &record, &AnalysisConfig::default())
        .unwrap();
    assert_eq!(analysis.questions.len(), 8);
    let report = render_signal_report(&analysis);
    assert!(report.contains("class of 44"));

    system.apply_analysis("lin", &exam_id, &analysis).unwrap();
    for i in 0..8 {
        let problem = system
            .repository()
            .problem(&format!("q{i}").parse().unwrap())
            .unwrap();
        let test = problem.metadata().individual_test.as_ref().unwrap();
        assert!(test.difficulty.is_some(), "q{i} difficulty written back");
        assert!(
            test.discrimination.is_some(),
            "q{i} discrimination written back"
        );
    }
}

#[test]
fn scorm_exchange_preserves_written_back_metadata() {
    let (system, exam_id) = build_system();
    let (exam, problems) = system.repository().resolve_exam(&exam_id).unwrap();
    let record = Simulation::new(exam, problems)
        .cohort(CohortSpec::new(44).seed(21))
        .run()
        .unwrap();
    let analysis = system
        .analyze(&exam_id, &record, &AnalysisConfig::default())
        .unwrap();
    system.apply_analysis("lin", &exam_id, &analysis).unwrap();

    // Publish and reimport elsewhere; the measured indices travel in the
    // SCORM descriptors.
    let external = ExternalRepository::new();
    system
        .publish("lin", &exam_id, &external, "final-pkg")
        .unwrap();
    let other = AuthoringSystem::new();
    let report = other
        .import_package("chen", &external.fetch("final-pkg").unwrap())
        .unwrap();
    assert_eq!(report.imported_problems.len(), 8);

    let original = system.repository().problem(&"q3".parse().unwrap()).unwrap();
    let imported = other.repository().problem(&"q3".parse().unwrap()).unwrap();
    assert_eq!(
        original
            .metadata()
            .individual_test
            .as_ref()
            .unwrap()
            .difficulty,
        imported
            .metadata()
            .individual_test
            .as_ref()
            .unwrap()
            .difficulty,
    );
    assert_eq!(original.body(), imported.body());
}

#[test]
fn qti_exchange_round_trips_the_same_exam() {
    let (system, exam_id) = build_system();
    let doc = system.export_qti("lin", &exam_id).unwrap();
    let text = doc.to_xml_string();
    let parsed = mine_assessment::xml::parse_document(&text).unwrap();
    let other = AuthoringSystem::new();
    let report = other.import_qti("chen", &parsed).unwrap();
    assert_eq!(report.imported_problems.len(), 8);
    let (exam, _) = other.repository().resolve_exam(&exam_id).unwrap();
    assert_eq!(exam.title(), "Integration final");
    assert_eq!(exam.len(), 8);
    assert!(exam.group(&"part1".parse().unwrap()).is_some());
}

#[test]
fn random_display_order_still_analyzes() {
    let system = AuthoringSystem::new();
    for i in 0..6 {
        system
            .author_problem(
                "hung",
                Problem::true_false(format!("t{i}"), format!("Statement {i}"), i % 2 == 0).unwrap(),
            )
            .unwrap();
    }
    let mut builder = Exam::builder("shuffled")
        .unwrap()
        .display_order(DisplayOrder::Random);
    for i in 0..6 {
        builder = builder.entry(format!("t{i}").parse().unwrap());
    }
    system.author_exam("lin", builder.build().unwrap()).unwrap();

    let (exam, problems) = system
        .repository()
        .resolve_exam(&"shuffled".parse().unwrap())
        .unwrap();
    let record = Simulation::new(exam, problems)
        .cohort(CohortSpec::new(40).seed(17))
        .run()
        .unwrap();
    // Students saw different orders, yet records stay consistent and the
    // analysis works on the canonical problem set.
    record.validate().unwrap();
    let analysis = system
        .analyze(
            &"shuffled".parse().unwrap(),
            &record,
            &AnalysisConfig::default(),
        )
        .unwrap();
    assert_eq!(analysis.questions.len(), 6);
}
