//! Integration coverage for the extension components: alternative
//! defenses, the boundary attack, and per-family machine behaviour.

use hmd::adversarial::{
    Attack, BoundaryAttack, BoundaryAttackConfig, LowProFool, RandomizedEnsemble,
};
use hmd::core::{Framework, FrameworkConfig};
use hmd::ml::{classical_models, evaluate, Classifier, RandomForest};
use hmd::sim::{
    HpcEvent, Machine, MachineConfig, RunningWorkload, WorkloadClass, WorkloadProfile,
};
use hmd::tabular::Class;

#[test]
fn randomized_ensemble_softens_but_does_not_stop_lowprofool() {
    let fw = Framework::new(FrameworkConfig::quick(52));
    let bundle = fw.prepare_data().expect("prepare");
    let targets = bundle.train.binary_targets(Class::is_attack);
    let mut pool = classical_models();
    for m in &mut pool {
        m.fit(&bundle.train, &targets).expect("fit");
    }
    let ensemble = RandomizedEnsemble::new(pool, 0xABCD).expect("ensemble");

    let attack = LowProFool::fit(&bundle.train).expect("attack");
    let malware = bundle.test.filter(Class::is_attack);
    let result = attack.generate(&malware, 53).expect("generate");

    // the randomized defense still misses most disguised samples
    // (transfer dominates) — the paper's motivation for going further
    let mut missed = 0usize;
    for (row, _) in &result.adversarial {
        if !ensemble.predict_row(row).expect("predict") {
            missed += 1;
        }
    }
    assert!(
        missed * 2 > result.adversarial.len(),
        "randomization alone should not stop the attack ({missed}/{})",
        result.adversarial.len()
    );
}

#[test]
fn boundary_attack_works_on_the_simulated_corpus() {
    let fw = Framework::new(FrameworkConfig::quick(54));
    let bundle = fw.prepare_data().expect("prepare");
    let targets = bundle.train.binary_targets(Class::is_attack);
    let mut rf = RandomForest::new();
    rf.fit(&bundle.train, &targets).expect("fit");
    let clean = evaluate(&rf, &bundle.test, &bundle.test.binary_targets(Class::is_attack))
        .expect("eval");
    assert!(clean.f1 > 0.6, "sanity: baseline F1 {}", clean.f1);

    let attack =
        BoundaryAttack::new(&rf, &bundle.train, BoundaryAttackConfig::default()).expect("attack");
    let malware = bundle.test.filter(Class::is_attack);
    let subset = malware.subset(&(0..malware.len().min(20)).collect::<Vec<_>>()).expect("subset");
    let result = attack.generate(&subset, 55).expect("generate");
    assert!(
        result.success_rate() > 0.7,
        "boundary success {}",
        result.success_rate()
    );
}

/// Runs `windows` 10 ms windows of `class` on a fresh machine and returns
/// the mean `LlcLoadMisses` per window and the distinct phases seen.
fn run_family(class: WorkloadClass, cfg: MachineConfig, windows: usize) -> (f64, Vec<&'static str>) {
    let mut machine = Machine::new(cfg);
    let mut running = RunningWorkload::new(WorkloadProfile::canonical(class), 7);
    let mut misses = 0u64;
    let mut phases = Vec::new();
    for _ in 0..windows {
        misses += machine.run_window(&mut running, 10.0).get(HpcEvent::LlcLoadMisses);
        let phase = running.current_phase().name;
        if !phases.contains(&phase) {
            phases.push(phase);
        }
    }
    (misses as f64 / windows as f64, phases)
}

#[test]
fn execution_traces_reflect_family_behaviour() {
    let cfg = MachineConfig { slice_instructions: 4_000, ..MachineConfig::default() };
    let (ransomware, ransomware_phases) = run_family(WorkloadClass::Ransomware, cfg, 120);
    let (editor, _) = run_family(WorkloadClass::TextEditor, cfg, 120);
    assert!(ransomware > 3.0 * editor, "ransomware {ransomware} vs editor {editor}");
    // the run walks through the family's phases
    assert!(ransomware_phases.len() >= 2);
}

#[test]
fn prefetcher_is_configurable_through_the_corpus_path() {
    use hmd::sim::{build_corpus, CorpusConfig};
    let mut with = CorpusConfig::quick(56);
    with.machine.next_line_prefetch = true;
    let mut without = CorpusConfig::quick(56);
    without.machine.next_line_prefetch = false;
    let a = build_corpus(&with);
    let b = build_corpus(&without);
    // same seed, different micro-architecture ⇒ different counters
    assert_ne!(a.dataset, b.dataset);
    assert_eq!(a.dataset.len(), b.dataset.len());
}
