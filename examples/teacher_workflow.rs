//! A semester in the life of a teacher: build a course bank (including
//! a questionnaire), persist it, give the exam, read the full analysis
//! report, apply the write-back, and survey the class's opinion.
//!
//! ```bash
//! cargo run --example teacher_workflow
//! ```

use mine_assessment::analysis::{
    render_full_report, summarize_questionnaire, AnalysisConfig, ExamAnalysis,
};
use mine_assessment::authoring::AuthoringSystem;
use mine_assessment::core::{CognitionLevel, ExamRecord, OptionKey};
use mine_assessment::itembank::{assemble_parallel_forms, Blueprint};
use mine_assessment::itembank::{ChoiceOption, Exam, Problem};
use mine_assessment::scorm::AiccCourse;
use mine_assessment::simulator::{CohortSpec, Simulation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = AuthoringSystem::new();

    // --- build the course bank ---------------------------------------
    for i in 0..10 {
        system.author_problem(
            "teacher",
            Problem::multiple_choice(
                format!("q{i}"),
                format!("Course question {i}"),
                OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("answer {k}"))),
                OptionKey::A,
            )?
            .with_subject(["sorting", "graphs", "hashing"][i % 3])
            .with_cognition_level(CognitionLevel::ALL[i % 3]),
        )?;
    }
    // End-of-term opinion survey (§3.2-VI questionnaire style).
    system.author_problem(
        "teacher",
        Problem::questionnaire(
            "survey-difficulty",
            "How difficult did you find this course? (A = trivial … E = impossible)",
            OptionKey::first(5).map(|k| ChoiceOption::new(k, format!("level {k}"))),
        )?,
    )?;

    let mut builder = Exam::builder("final")?.title("Final exam");
    for i in 0..10 {
        builder = builder.entry(format!("q{i}").parse()?);
    }
    let exam = builder.entry("survey-difficulty".parse()?).build()?;
    system.author_exam("teacher", exam)?;

    // --- persist the bank before exam day ----------------------------
    let dir = std::env::temp_dir().join("mine-teacher-workflow");
    std::fs::create_dir_all(&dir)?;
    let db_path = dir.join("course-bank.json");
    system.save_database("teacher", &db_path)?;
    println!(
        "database saved to {} ({} bytes)",
        db_path.display(),
        std::fs::metadata(&db_path)?.len()
    );

    // --- exam day: the class sits the final --------------------------
    let (exam, problems) = system.repository().resolve_exam(&"final".parse()?)?;
    let record = Simulation::new(exam, problems.clone())
        .cohort(CohortSpec::new(44).seed(2024))
        .run()?;
    let record = ExamRecord::shared("final".parse()?, record.students);

    // --- read the full report -----------------------------------------
    let analysis = ExamAnalysis::analyze(&record, &problems, &AnalysisConfig::default())?;
    println!("\n{}", render_full_report(&analysis));

    // --- write the measured indices back into the bank ----------------
    system.apply_analysis("teacher", &"final".parse()?, &analysis)?;
    let q0 = system.repository().problem(&"q0".parse()?)?;
    let test_meta = q0.metadata().individual_test.as_ref().unwrap();
    println!(
        "q0 metadata now records {} {} with {} distraction note(s)",
        test_meta.difficulty.unwrap(),
        test_meta.discrimination.unwrap(),
        test_meta.distraction.len(),
    );

    // --- what did the class think? -------------------------------------
    let survey = summarize_questionnaire(&record, &"survey-difficulty".parse()?, 5)?;
    println!("\n{}", survey.render());

    // --- share the outcomes as a QTI results report --------------------
    let results = system.export_results_qti("teacher", &record)?;
    println!(
        "QTI results report: {} bytes for {} students",
        results.to_xml_string().len(),
        record.class_size(),
    );

    // --- assemble next semester's exams from the enriched bank ---------
    // A blueprint guarantees Table-4 coverage *before* the exam is given.
    let blueprint = Blueprint::new()
        .require(
            "sorting",
            mine_assessment::core::CognitionLevel::Knowledge,
            2,
        )
        .require(
            "graphs",
            mine_assessment::core::CognitionLevel::Comprehension,
            2,
        )
        .require(
            "hashing",
            mine_assessment::core::CognitionLevel::Application,
            2,
        );
    match system.assemble_exam("teacher", "final-v2", "Final v2 (blueprinted)", &blueprint) {
        Ok(exam) => println!("blueprinted exam assembled with {} questions", exam.len()),
        Err(err) => println!("blueprint unsatisfied: {err}"),
    }

    // Parallel forms A/B with matched difficulty spreads (the measured
    // indices written back above drive the balancing).
    let bank: Vec<Problem> = system
        .repository()
        .problem_ids()
        .into_iter()
        .filter_map(|id| system.repository().problem(&id).ok())
        .filter(|p| p.style() != mine_assessment::metadata::QuestionStyle::Questionnaire)
        .collect();
    let forms = assemble_parallel_forms(&bank, 2, 5)
        .map_err(|missing| format!("bank is {missing} problems short"))?;
    println!(
        "parallel forms: A = {:?}\n                B = {:?}",
        forms[0].iter().map(|p| p.as_str()).collect::<Vec<_>>(),
        forms[1].iter().map(|p| p.as_str()).collect::<Vec<_>>(),
    );

    // --- legacy LMS: ship the course as AICC structure files -----------
    let package = system.export_scorm("teacher", &"final".parse()?)?;
    let aicc = AiccCourse::from_manifest(&package.manifest)?;
    println!(
        "AICC export: {} assignable units, {} blocks\n{}",
        aicc.units.len(),
        aicc.blocks.len(),
        aicc.to_crs().lines().take(4).collect::<Vec<_>>().join("\n"),
    );

    // --- next semester: reload the persisted bank ----------------------
    let reloaded = AuthoringSystem::load_database(&db_path)?;
    println!(
        "reloaded bank: {} problems, {} exams (pre-analysis snapshot)",
        reloaded.repository().problem_count(),
        reloaded.repository().exam_count(),
    );
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
