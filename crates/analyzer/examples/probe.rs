//! Scope-tuning probe: times each target's exploration separately.
//!
//! Usage: `cargo run --release -p session-analyzer --example probe [name]`

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    for name in session_analyzer::TARGET_NAMES {
        if let Some(f) = &filter {
            if f != name {
                continue;
            }
        }
        let start = std::time::Instant::now();
        let (report, _) = session_analyzer::target_space(name)
            .expect("known target")
            .analyze(
                session_analyzer::ExploreOpts::default(),
                &mut session_obs::NullRecorder,
                &session_analyzer::FlightOpts::default(),
            );
        let elapsed = start.elapsed();
        let codes: Vec<String> = report.findings.iter().map(|d| d.code.to_string()).collect();
        println!(
            "{name}: states={} findings=[{}] elapsed={elapsed:?}",
            report.targets[0].states,
            codes.join(", ")
        );
    }
}
