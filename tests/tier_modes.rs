//! Tiered-execution differential sweep — the correctness contract of the
//! monomorphized tier (DESIGN.md §7):
//!
//! > For any program, executing its fixpoint transitions in the typed
//! > mono tier (`ForceOn`), in the VM (`ForceOff`), or under hotness
//! > promotion (`Auto`) produces *bit-identical* results.
//!
//! The sweep covers generated programs (`genprog`, same seed space as the
//! other differential suites), all six paper kernels, and hand-written
//! functions that exercise the fallback edges: RAISE-unwind bodies that
//! must never be promoted (volatile transitions are rejected at
//! recognition time) and float-bearing rows that must demote back to the
//! VM mid-execution without consuming the in-flight iteration.
//!
//! Bit-identical is pinned by comparing the `Debug` rendering of results
//! (which distinguishes float bit patterns `PartialEq` may conflate), and
//! the sweep is only evidence if the forced tier actually promoted — the
//! promotion counters are asserted alongside the results.

use plsql_away::prelude::*;
use plsql_away::workloads::genprog::{self, GenConfig};

/// A session whose engine runs fixpoints under the given tier policy,
/// over its own private database. The promotion threshold is lowered so
/// `Auto` flips tiers mid-run even on short fixpoints — the VM→mono
/// handoff (prev/working ownership) is exactly what the sweep stresses.
fn session_with_tier(mode: TierMode) -> Session {
    let mut config = EngineConfig::postgres_like();
    config.tier_mode = mode;
    config.tier_promote_threshold = 4;
    Session::new(config)
}

const MODES: [TierMode; 3] = [TierMode::ForceOff, TierMode::Auto, TierMode::ForceOn];

/// Tier modes on every generated program: interpretation is the reference,
/// and the compiled fixpoint must agree with it — and with itself across
/// all three tier policies — bit for bit.
#[test]
fn tier_modes_are_bit_identical_on_generated_programs() {
    let mut rng = SessionRng::new(0x71E5);
    let seeds: Vec<u64> = (0..24).map(|_| rng.next_range(0, 99_999) as u64).collect();
    let mut force_on_promotions = 0u64;
    for seed in seeds {
        let mut reference: Option<String> = None;
        for mode in MODES {
            let mut session = session_with_tier(mode);
            genprog::install_fixture(&mut session).unwrap();
            let prog = genprog::generate(seed, GenConfig::default());
            session
                .run(&prog.source)
                .unwrap_or_else(|e| panic!("seed {seed}: install: {e}\n{}", prog.source));

            let mut interp = Interpreter::new();
            interp.max_statements = 5_000_000;
            let interp_val = interp
                .call(&mut session, &prog.name, &prog.args)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} mode {mode:?}: interp: {e}\n{}", prog.source)
                });
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, &prog.source, options).unwrap();
                let got = compiled.run(&mut session, &prog.args).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} tier {mode:?} cte {options:?}: {e}\n--- source ---\n{}\n--- sql ---\n{}",
                        prog.source, compiled.sql
                    )
                });
                assert_eq!(
                    format!("{got:?}"),
                    format!("{interp_val:?}"),
                    "seed {seed} tier {mode:?} cte {options:?}: compiled vs interp\n{}",
                    prog.source
                );
            }

            let rendering = format!("{interp_val:?}");
            match &reference {
                None => reference = Some(rendering),
                Some(want) => assert_eq!(
                    &rendering, want,
                    "seed {seed}: {mode:?} diverged from ForceOff\n{}",
                    prog.source
                ),
            }
            match mode {
                TierMode::ForceOff => assert_eq!(
                    session.metrics.tier_promotions, 0,
                    "seed {seed}: ForceOff must never promote"
                ),
                TierMode::ForceOn => force_on_promotions += session.metrics.tier_promotions,
                TierMode::Auto => {}
            }
        }
    }
    // The sweep is only evidence if the forced tier actually ran mono.
    assert!(
        force_on_promotions > 0,
        "ForceOn sweep never promoted a generated transition"
    );
}

/// Tier modes on all six paper kernels, in both CTE modes. `walk` draws
/// from `random()` — a volatile transition the recognizer must refuse —
/// so its sessions are re-seeded before every run; `checked` unwinds
/// RAISE through EXCEPTION arms per iteration and must likewise stay in
/// the VM while still matching bit for bit.
#[test]
fn tier_modes_are_bit_identical_on_all_kernels() {
    use plaway_bench::{
        checked_args, fib_args, parse_args, settle_args, setup_checked, setup_fib, setup_parse,
        setup_settle, setup_traverse, setup_walk, traverse_args, walk_args, BenchSetup,
    };

    type Kernel = (fn(EngineConfig) -> BenchSetup, Vec<Value>);
    let kernels: Vec<Kernel> = vec![
        (setup_fib, fib_args(90)),
        (setup_walk, walk_args(60)),
        (setup_traverse, traverse_args(40)),
        (setup_parse, parse_args(120)),
        (setup_checked, checked_args(80)),
        (setup_settle, settle_args()),
    ];
    for (setup, args) in kernels {
        for options in [CompileOptions::default(), CompileOptions::iterate()] {
            let mut reference: Option<String> = None;
            let mut name = "";
            for mode in MODES {
                let mut config = EngineConfig::postgres_like();
                config.tier_mode = mode;
                config.tier_promote_threshold = 4;
                let mut b = setup(config);
                name = b.fn_name;
                let compiled = b.compile(options).unwrap();
                b.session.set_seed(1);
                let got = compiled
                    .run(&mut b.session, &args)
                    .unwrap_or_else(|e| panic!("{name} tier {mode:?} cte {options:?}: {e}"));
                let rendering = format!("{got:?}");
                match &reference {
                    None => reference = Some(rendering),
                    Some(want) => assert_eq!(
                        &rendering, want,
                        "{name} cte {options:?}: {mode:?} diverged from ForceOff"
                    ),
                }
                match mode {
                    TierMode::ForceOff => assert_eq!(
                        b.session.metrics.tier_promotions, 0,
                        "{name}: ForceOff must never promote"
                    ),
                    TierMode::ForceOn => {
                        // The two gated bench kernels must actually run mono
                        // here — otherwise the bench claim has no witness.
                        if matches!(name, "fibonacci" | "parse") {
                            assert!(
                                b.session.metrics.tier_promotions > 0,
                                "{name} cte {options:?}: ForceOn never promoted"
                            );
                        }
                    }
                    TierMode::Auto => {}
                }
            }
            assert!(!name.is_empty());
        }
    }
}

/// The fallback edges, hand-written:
///
/// * `nully` drives a NULL through the accumulator mid-fixpoint — the
///   typed tier carries NULL natively and must reproduce exact 3VL;
/// * `floaty` makes the working set carry a float column, which the typed
///   domain cannot represent: the transition promotes, then demotes back
///   to the VM on its first row conversion, and the VM re-runs the
///   in-flight iteration as if the promotion never happened.
#[test]
fn null_and_float_rows_match_the_vm_bit_for_bit() {
    const NULLY: &str = "CREATE FUNCTION nully(n int) RETURNS int AS $$
        DECLARE i int := 0; acc int := 0;
        BEGIN
          WHILE i < n LOOP
            i := i + 1;
            acc := acc + nullif(i, 7);
          END LOOP;
          RETURN coalesce(acc, -1);
        END $$ LANGUAGE plpgsql";
    const FLOATY: &str = "CREATE FUNCTION floaty(n int) RETURNS int AS $$
        DECLARE i int := 0; acc float := 0.0;
        BEGIN
          WHILE i < n LOOP
            i := i + 1;
            acc := acc + 1;
          END LOOP;
          RETURN cast(acc AS int);
        END $$ LANGUAGE plpgsql";
    // Only the float row leaves the typed domain, so only `floaty` demotes.
    for (source, name, demotes) in [(NULLY, "nully", false), (FLOATY, "floaty", true)] {
        let mut reference: Option<String> = None;
        for mode in MODES {
            let mut session = session_with_tier(mode);
            session.run(source).unwrap();
            let mut interp = Interpreter::new();
            let interp_val = interp
                .call(&mut session, name, &[Value::Int(20)])
                .unwrap_or_else(|e| panic!("{name}: interp: {e}"));
            for options in [CompileOptions::default(), CompileOptions::iterate()] {
                let compiled = compile_sql(&session.catalog, source, options).unwrap();
                let got = compiled.run(&mut session, &[Value::Int(20)]).unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{interp_val:?}"),
                    "{name} tier {mode:?} cte {options:?}"
                );
            }
            let rendering = format!("{interp_val:?}");
            match &reference {
                None => reference = Some(rendering),
                Some(want) => assert_eq!(&rendering, want, "{name}: {mode:?} diverged"),
            }
            let demotions = session.metrics.tier_demotions;
            match mode {
                TierMode::ForceOff => assert_eq!(demotions, 0, "{name}: ForceOff never demotes"),
                TierMode::ForceOn => {
                    assert_eq!(demotions > 0, demotes, "{name}: ForceOn demotions")
                }
                TierMode::Auto => {}
            }
        }
    }
}

/// EXPLAIN ANALYZE reports the executing tier per fixpoint: `Auto` with a
/// low threshold promotes mid-run and renders `tier=mono` with the
/// promotion iteration; `ForceOff` stays `tier=vm` with no promotion tag.
#[test]
fn explain_analyze_renders_the_executing_tier() {
    use plaway_bench::{fib_args, setup_fib};
    for (mode, needle, forbidden) in [
        (TierMode::Auto, "tier=mono promoted_at=", "tier=vm"),
        (TierMode::ForceOff, "tier=vm", "tier=mono"),
    ] {
        let mut config = EngineConfig::postgres_like();
        config.tier_mode = mode;
        config.tier_promote_threshold = 4;
        let mut b = setup_fib(config);
        let compiled = b.compile(CompileOptions::iterate()).unwrap();
        let plan = compiled.prepare(&mut b.session).unwrap();
        let state = b
            .session
            .explain_analyze_prepared(&plan, fib_args(90))
            .unwrap();
        let lines = state.render(&plan.plan).join("\n");
        let fixpoint = lines
            .lines()
            .find(|l| l.starts_with("Fixpoint cte#"))
            .unwrap_or_else(|| panic!("{mode:?}: no fixpoint line in\n{lines}"));
        assert!(
            fixpoint.contains(needle),
            "{mode:?}: fixpoint line must report {needle:?}: {fixpoint}"
        );
        assert!(
            !fixpoint.contains(forbidden),
            "{mode:?}: fixpoint line must not report {forbidden:?}: {fixpoint}"
        );
    }
}
