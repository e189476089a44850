//! Golden snapshots of the compiler's output, and the guard on preparing a
//! compiled function from the AST it already holds.
//!
//! The snapshots pin `Compiled::sql` and `Compiled::batch_sql` byte for
//! byte: one file per paper kernel, mode and argument layout, one per
//! `extras` function, and FNV-1a digests over seeded `genprog` programs in
//! both modes (default options, the packed layout, and without the SSA
//! simplifications). A pass rewrite that changes one byte of generated SQL
//! fails here.
//!
//! To regenerate after an intentional change to the generated SQL:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test compile_golden
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use plsql_away::prelude::*;
use plsql_away::sql::parse_query;
use plsql_away::workloads::genprog::{self, GenConfig};
use plsql_away::workloads::{checked, extras, fib, fsa, graph, grid, rowagg};

/// Seeded `genprog` programs in the golden digest.
const GENPROG_GOLDEN: u64 = 500;
/// Seeded `genprog` programs in the parse round-trip check.
const GENPROG_ROUNDTRIP: u64 = 200;

/// A session holding every table the kernels, extras and generated
/// programs read. Compilation consults only the catalog's schemas, so the
/// fixtures are kept small.
fn fixture_session() -> Session {
    let mut s = Session::default();
    genprog::install_fixture(&mut s).unwrap();
    grid::GridWorld::generate(5, 5, 42).install(&mut s).unwrap();
    grid::walk_workload().install(&mut s).unwrap();
    fsa::install_fsa(&mut s).unwrap();
    graph::Digraph::generate(50, 11).install(&mut s).unwrap();
    rowagg::Ledger::generate(48, 7).install(&mut s).unwrap();
    s
}

fn modes() -> [(&'static str, CompileOptions); 2] {
    [
        ("recursive", CompileOptions::default()),
        ("iterate", CompileOptions::iterate()),
    ]
}

/// [`modes`] with every other option taken from `base`.
fn modes_with(base: CompileOptions) -> [(&'static str, CompileOptions); 2] {
    modes().map(|(name, options)| {
        (
            name,
            CompileOptions {
                mode: options.mode,
                ..base
            },
        )
    })
}

/// `(name, source)` of the six paper kernels.
fn kernels() -> Vec<(&'static str, String)> {
    vec![
        ("walk", grid::walk_workload().source),
        ("fibonacci", fib::fib_workload().source),
        ("traverse", graph::traverse_workload().source),
        ("fsa", fsa::parse_workload().source),
        ("checked", checked::checked_workload().source),
        ("settle", rowagg::settle_workload().source),
    ]
}

/// `(name, source)` of the `extras` functions.
fn extra_functions() -> Vec<(&'static str, String)> {
    vec![
        ("gcd", extras::gcd_workload().source),
        ("collatz", extras::collatz_workload().source),
        ("powmod", extras::power_workload().source),
        ("strrev", extras::strrev_workload().source),
        ("account", extras::bank_workload().source),
    ]
}

fn compile_or_panic(s: &Session, what: &str, source: &str, options: CompileOptions) -> Compiled {
    compile_sql(&s.catalog, source, options)
        .unwrap_or_else(|e| panic!("{what} ({:?}) must compile: {e}", options.mode))
}

/// Compare against (or with `UPDATE_GOLDEN=1`, rewrite) the committed
/// snapshot in `tests/golden/`.
fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let actual = format!("{}\n", actual.trim_end());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        want, actual,
        "compiled SQL diverged from {name}; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

fn snapshot(c: &Compiled) -> String {
    format!("-- sql\n{}\n-- batch_sql\n{}\n", c.sql, c.batch_sql)
}

/// 64-bit FNV-1a.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn golden_compile_kernels() {
    let s = fixture_session();
    for (name, source) in kernels() {
        for (mode, options) in modes() {
            let c = compile_or_panic(&s, name, &source, options);
            assert_golden(&format!("compile_{name}_{mode}.snap"), &snapshot(&c));
        }
    }
}

/// The packed layout nests the arguments in one record, so its leaf rows
/// and parameter pruning take a different path from the default's.
#[test]
fn golden_compile_kernels_packed() {
    let s = fixture_session();
    for (name, source) in kernels() {
        for (mode, options) in modes_with(CompileOptions::packed()) {
            let c = compile_or_panic(&s, name, &source, options);
            assert_golden(&format!("compile_{name}_{mode}_packed.snap"), &snapshot(&c));
        }
    }
}

#[test]
fn golden_compile_extras() {
    let s = fixture_session();
    for (name, source) in extra_functions() {
        let c = compile_or_panic(&s, name, &source, CompileOptions::default());
        assert_golden(&format!("compile_extras_{name}.snap"), &snapshot(&c));
    }
}

/// Digest `sql` and `batch_sql` of the seeded `genprog` programs, compiled
/// in both modes with every other option taken from `base`, into `file`.
fn assert_genprog_digest(file: &str, base: CompileOptions) {
    let s = fixture_session();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0usize;
    for seed in 0..GENPROG_GOLDEN {
        let program = genprog::generate(seed, GenConfig::default());
        for (_, options) in modes_with(base) {
            let c = compile_or_panic(&s, &program.name, &program.source, options);
            for text in [&c.sql, &c.batch_sql] {
                fnv1a(&mut hash, text.as_bytes());
                fnv1a(&mut hash, &[0]);
                bytes += text.len();
            }
        }
    }
    assert_golden(
        file,
        &format!("programs {GENPROG_GOLDEN} x modes 2\nbytes {bytes}\nfnv1a64 {hash:016x}\n"),
    );
}

#[test]
fn golden_compile_genprog_digest() {
    assert_genprog_digest("compile_genprog.snap", CompileOptions::default());
}

#[test]
fn golden_compile_genprog_digest_packed() {
    assert_genprog_digest("compile_genprog_packed.snap", CompileOptions::packed());
}

#[test]
fn golden_compile_genprog_digest_unoptimized() {
    assert_genprog_digest(
        "compile_genprog_unoptimized.snap",
        CompileOptions {
            optimize: false,
            ..Default::default()
        },
    );
}

/// `Compiled::prepare` hands the session `query` keyed on `sql` without
/// re-parsing, which is sound only if the text parses back to that AST.
#[test]
fn compiled_sql_parses_back_to_the_compiled_query() {
    let s = fixture_session();
    let mut corpus: Vec<(String, String, CompileOptions)> = Vec::new();
    for (name, source) in kernels() {
        for (_, options) in modes() {
            corpus.push((name.to_string(), source.clone(), options));
        }
    }
    for (name, source) in extra_functions() {
        corpus.push((name.to_string(), source, CompileOptions::default()));
    }
    for seed in 0..GENPROG_ROUNDTRIP {
        let program = genprog::generate(seed, GenConfig::default());
        for (_, options) in modes() {
            corpus.push((program.name.clone(), program.source.clone(), options));
        }
    }
    for (what, source, options) in corpus {
        let c = compile_or_panic(&s, &what, &source, options);
        assert!(
            parse_query(&c.sql).unwrap() == c.query,
            "{what} ({:?}): sql does not parse back to query:\n{}",
            options.mode,
            c.sql
        );
        assert!(
            parse_query(&c.batch_sql).unwrap() == c.batch_query,
            "{what} ({:?}): batch_sql does not parse back to batch_query:\n{}",
            options.mode,
            c.batch_sql
        );
    }
}

/// A plan `Compiled::prepare` or `prepare_batch` makes carries the compiled
/// text it was cached under, byte for byte.
#[test]
fn prepared_plans_carry_the_compiled_text() {
    for (name, source) in kernels() {
        for (_, options) in modes()
            .into_iter()
            .chain(modes_with(CompileOptions::packed()))
        {
            let mut s = fixture_session();
            let c = compile_or_panic(&s, name, &source, options);
            let plan = c.prepare(&mut s).unwrap();
            assert!(plan.sql == c.sql, "{name} ({options:?}): plan.sql");
            let calls = vec![vec![Value::Null; c.param_names.len()]];
            let plan = c.prepare_batch(&mut s, &calls).unwrap();
            assert!(
                plan.sql == c.batch_sql,
                "{name} ({options:?}): batch plan.sql"
            );
        }
    }
}

/// The text path (`Session::prepare`) and the AST path
/// (`Compiled::prepare`) share one plan-cache entry and count hits and
/// misses the same way.
#[test]
fn text_and_ast_prepare_share_one_cached_plan() {
    let fib = fib::fib_workload().source;
    let args = [Value::Int(10)];
    let fresh = || {
        let s = fixture_session();
        let c = compile_sql(&s.catalog, &fib, CompileOptions::default()).unwrap();
        (s, c)
    };
    let counts = |s: &Session| (s.plan_cache_hits, s.plan_cache_misses);

    // AST first: it plans and stores; the text path then hits that entry.
    let (mut s, c) = fresh();
    let scope = ParamScope::new(c.param_names.clone());
    let before = counts(&s);
    let by_ast = c.prepare(&mut s).unwrap();
    let by_text = s.prepare(&c.sql, &scope).unwrap();
    assert!(Arc::ptr_eq(&by_ast, &by_text));
    let ast_first = (counts(&s).0 - before.0, counts(&s).1 - before.1);
    assert_eq!(ast_first, (1, 1), "one miss, then one hit");

    // Text first: the AST path hits the entry the text path stored, with
    // the same counts.
    let (mut s, c) = fresh();
    let before = counts(&s);
    let by_text = s.prepare(&c.sql, &scope).unwrap();
    let by_ast = c.prepare(&mut s).unwrap();
    assert!(Arc::ptr_eq(&by_ast, &by_text));
    let text_first = (counts(&s).0 - before.0, counts(&s).1 - before.1);
    assert_eq!(text_first, ast_first);

    // Both plans answer alike.
    let via_ast = s.execute_prepared(&by_ast, args.to_vec()).unwrap();
    assert_eq!(via_ast.scalar().unwrap(), Value::Int(55));

    // The batch query shares its cache entry the same way.
    let (mut s, c) = fresh();
    let calls = vec![vec![Value::Int(7)], vec![Value::Int(9)]];
    let by_ast = c.prepare_batch(&mut s, &calls).unwrap();
    let by_text = s
        .prepare(&c.batch_sql, &ParamScope::new(Vec::new()))
        .unwrap();
    assert!(Arc::ptr_eq(&by_ast, &by_text));
}
