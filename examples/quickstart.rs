//! Quickstart: the declarative `RunSpec` / `Runner` execution API.
//!
//! Builds the paper's minimum-size monotone dynamo on each of the three
//! torus topologies, describes each verification as a plain-data
//! [`RunSpec`], executes the whole batch with one [`Runner::sweep`] call,
//! and prints the initial configuration, its recolouring-time matrix, and
//! the serialisable text form of one scenario (which parses back to an
//! identical spec).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use colored_tori::coloring::render_coloring;
use colored_tori::engine::RecoloringTimes;
use colored_tori::prelude::*;

fn main() {
    let k = Color::new(1);
    let (m, n) = (9, 9);

    println!("Dynamic Monopolies in Colored Tori — quickstart ({m}x{n} tori, target colour {k})\n");

    // 1. Describe one scenario per torus kind: the Theorem-2/4/6
    //    construction, to be verified as a monotone dynamo.
    let constructions: Vec<_> = TorusKind::ALL
        .into_iter()
        .map(|kind| {
            let built = minimum_dynamo(kind, m, n, k)
                .unwrap_or_else(|e| panic!("construction failed on the {kind}: {e}"));
            let spec = RunSpec::new(
                TopologySpec::torus(kind, m, n),
                RuleSpec::parse("smp").expect("registry rule"),
                SeedSpec::Explicit(built.coloring().clone()),
            )
            .for_dynamo(k);
            (kind, built, spec)
        })
        .collect();

    // 2. Execute the whole batch in parallel through the Runner.
    let runner = Runner::new();
    // `sweep` takes any owned iterable now — no intermediate Vec.
    let outcomes = runner.sweep(constructions.iter().map(|(_, _, s)| s.clone()));

    for ((kind, built, _), outcome) in constructions.iter().zip(&outcomes) {
        let bound = lower_bound(*kind, m, n);
        println!("== {kind} ==");
        println!(
            "  lower bound {bound}, seed size {}, colours used {}, filler: {}",
            built.seed_size(),
            built.colors_used(),
            built.filler()
        );
        println!(
            "  monotone dynamo: {}, rounds to monochromatic: {}, plane lane: {}",
            outcome.reached_monochromatic(k) && outcome.monotone == Some(true),
            outcome.rounds,
            outcome.used_plane_lane,
        );
        println!("  initial configuration (colour {k} is the spreading colour):");
        for line in render_coloring(built.coloring()).lines() {
            println!("    {line}");
        }
        let times = RecoloringTimes::from_report(m, n, &outcome.report()).expect("times tracked");
        println!("  recolouring times (rounds until each vertex adopts {k}):");
        for line in times.render().lines() {
            println!("    {line}");
        }
        println!();
    }

    // 3. Every spec is serialisable: the text form parses back to an
    //    identical scenario, which is what a batch/service layer will
    //    accept.
    let (_, _, spec) = &constructions[0];
    let text = spec.to_text();
    println!("the first scenario as text (RunSpec::to_text):\n");
    for line in text.lines().take(4) {
        println!("    {line}");
    }
    println!("    ... ({} more grid lines)\n", m);
    let reparsed = RunSpec::from_text(&text).expect("round trip");
    assert_eq!(&reparsed, spec);
    let replay = runner.execute(&reparsed);
    assert_eq!(replay.rounds, outcomes[0].rounds);
    println!(
        "parsed it back and re-executed: identical outcome ({} rounds) — \
         declarative scenarios are reproducible artefacts.",
        replay.rounds
    );
}
