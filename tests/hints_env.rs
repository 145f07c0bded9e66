//! The one precedence rule for `XQA_HINTS`: the environment supplies
//! the hints the caller left absent, a hint the caller set wins, and a
//! malformed value fails compilation. This is the only binary in the
//! tree that touches the environment; the variable is process-global,
//! so its tests take turns holding `ENV`.

use std::sync::{Mutex, MutexGuard};
use xqa::{DynamicContext, Engine, EngineError, EngineOptions, PreparedQuery};

const QUERY: &str = "for $x in 1 to 8 \
     let $m := for $y in (2, 4, 6) where $y = $x return $y \
     return <j>{$x}:{count($m)}</j>";

fn compile(hints: &str) -> Result<PreparedQuery, EngineError> {
    Engine::with_options(EngineOptions {
        hints: hints.parse().expect("valid hints"),
        ..Default::default()
    })
    .compile(QUERY)
}

/// The effective hints of a plan compiled under `hints`, checked against
/// the plan itself: it carries a hash join exactly when they say so.
fn effective(hints: &str) -> String {
    let plan = compile(hints).expect("compile");
    assert_eq!(
        plan.explain().contains("[hash join"),
        plan.hints().hash_join == Some(true),
        "{}",
        plan.explain()
    );
    let out = plan.run(&DynamicContext::new()).expect("run");
    assert_eq!(out.len(), 8, "query result drifted");
    plan.hints().to_string()
}

static ENV: Mutex<()> = Mutex::new(());

/// Set (or with `None` remove) `XQA_HINTS` for as long as the guard lives.
fn xqa_hints(value: Option<&str>) -> MutexGuard<'static, ()> {
    let guard = ENV.lock().unwrap_or_else(|e| e.into_inner());
    match value {
        Some(v) => std::env::set_var("XQA_HINTS", v),
        None => std::env::remove_var("XQA_HINTS"),
    }
    guard
}

#[test]
fn env_fills_an_absent_hint_and_a_set_hint_wins_in_both_directions() {
    {
        let _env = xqa_hints(None);
        assert_eq!(effective(""), "");
        assert_eq!(effective("join=hash"), "join=hash");
    }
    {
        let _env = xqa_hints(Some("join=hash"));
        assert_eq!(effective(""), "join=hash");
        assert_eq!(effective("join=nested"), "join=nested");
    }
    let _env = xqa_hints(Some("join=nested"));
    assert_eq!(effective(""), "join=nested");
    assert_eq!(effective("join=hash"), "join=hash");
}

#[test]
fn env_fills_hint_by_hint_and_empty_is_no_hints() {
    {
        let _env = xqa_hints(Some("join=nested,expr=tree"));
        assert_eq!(
            effective("join=hash,topk=off"),
            "join=hash,expr=tree,topk=off"
        );
    }
    let _env = xqa_hints(Some(""));
    assert_eq!(effective(""), "");
}

/// A typo is a compile error naming the offending pair and the valid
/// keys — even when the caller pins the hint the typo was meant for.
#[test]
fn malformed_env_is_a_compile_error() {
    for bad in ["join=sideways", "jion=hash", "join"] {
        let _env = xqa_hints(Some(&format!("expr=tree,{bad}")));
        for pinned in ["", "join=nested"] {
            let err = compile(pinned)
                .expect_err("malformed XQA_HINTS")
                .to_string();
            assert!(err.contains("XQA_HINTS"), "{err}");
            assert!(err.contains(&format!("`{bad}`")), "{err}");
            assert!(err.contains("join=hash|nested"), "{err}");
            assert!(err.contains("implicit-groupby=on|off"), "{err}");
        }
    }
    let _env = xqa_hints(Some("join=hash,join=hash"));
    let err = compile("").expect_err("duplicate hint").to_string();
    assert!(err.contains("duplicate hint `join`"), "{err}");
}
