//! Plan hints: the one value that pins optimizer decisions, and the one
//! grammar (`key=value[,key=value...]`) that spells it — on the CLI's
//! `--hint`, in the `XQA_HINTS` environment variable, and in the trace.

use std::fmt;

/// One hint: its key, the value that pins the decision on, the value
/// that pins it off, and what each side runs. `FromStr`, `Display` and
/// [`PlanHints::table`] all read this list and nothing else.
struct HintKey {
    key: &'static str,
    on: &'static str,
    off: &'static str,
    pins: &'static str,
    absent: &'static str,
}

impl HintKey {
    fn grammar(&self) -> String {
        format!("{}={}|{}", self.key, self.on, self.off)
    }
}

/// In [`PlanHints::slots`] order.
const KEYS: [HintKey; 6] = [
    HintKey {
        key: "join",
        on: "hash",
        off: "nested",
        pins: "joinable nested FLWORs: unnest all to a hash join | never unnest",
        absent: "statistics decide",
    },
    HintKey {
        key: "access",
        on: "index",
        off: "walk",
        pins: "//T scans and value predicates: always via the indexes | always tree-walk",
        absent: "statistics decide",
    },
    HintKey {
        key: "expr",
        on: "bytecode",
        off: "tree",
        pins: "FLWOR clause expressions: register programs | IR tree-walker",
        absent: "bytecode",
    },
    HintKey {
        key: "topk",
        on: "on",
        off: "off",
        pins: "positional bound over order by: bounded heap | full sort",
        absent: "on",
    },
    HintKey {
        key: "implicit-groupby",
        on: "on",
        off: "off",
        pins: "distinct-values self-join: rewrite to group by (sound when every item \
               has each key exactly once) | leave as written",
        absent: "off",
    },
    HintKey {
        key: "nest-agg",
        on: "on",
        off: "off",
        pins: "group-by nests read only by count(): keep a running count | keep every member",
        absent: "on",
    },
];

/// Optional pins on the planner's decisions. An absent hint (`None`,
/// the default) means the engine decides; `Some(true)` / `Some(false)`
/// force one side. All but `implicit_groupby` never change a result:
/// every forced path keeps the per-item fallbacks that make it
/// byte-identical to its reference. `implicit_groupby` is the paper's
/// opt-in rewrite and carries its premise (see [`crate::rewrite`]).
///
/// Parses from and prints as `key=value[,key=value...]` (the empty
/// string at default); see [`PlanHints::table`] for the keys.
///
/// ```
/// use xqa_engine::PlanHints;
///
/// let hints: PlanHints = "join=hash,topk=off".parse().unwrap();
/// assert_eq!(hints.hash_join, Some(true));
/// assert_eq!(hints.topk, Some(false));
/// assert_eq!(hints.to_string(), "join=hash,topk=off");
/// assert!("join=sideways".parse::<PlanHints>().is_err());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PlanHints {
    /// `join=hash|nested`: unnest every eligible nested-FLWOR equality
    /// join into a `HashJoin` regardless of statistics (the runtime
    /// still falls back to an ordered build scan per probe when atom
    /// classes make hashing unable to reproduce comparison errors), or
    /// never unnest. Absent: unnest only when catalog statistics are
    /// attached and the estimated build side is at most
    /// [`crate::rewrite::MAX_HASH_BUILD_ROWS`].
    pub hash_join: Option<bool>,
    /// `access=index|walk`: annotate every eligible `//T` scan and
    /// value predicate to resolve through the document store's indexes
    /// (the runtime still walks per document when no store covers it or
    /// the value index cannot answer exactly), or always tree-walk.
    /// Absent: annotate only when attached statistics favor the index.
    pub index_scan: Option<bool>,
    /// `expr=bytecode|tree`: compile the scalar subset of FLWOR clause
    /// expressions to register programs, or evaluate every expression
    /// on the IR tree-walker (the differential baseline). Absent:
    /// bytecode.
    pub bytecode: Option<bool>,
    /// `topk=on|off`: push `[position() le k]`-style bounds over an
    /// `order by` into the sort as a heap limit, or always sort in
    /// full. Absent: on.
    pub topk: Option<bool>,
    /// `implicit-groupby=on|off`: rewrite the `distinct-values` +
    /// self-join pattern (Table 1's "Q" template) into an explicit
    /// `group by`. Absent: off, matching the paper's setup ("no
    /// rewrites were performed to detect the group-by implied in the
    /// query").
    pub implicit_groupby: Option<bool>,
    /// `nest-agg=on|off`: a `group by` nest that every later clause and
    /// the return expression read only as `count($nest)` (and that has
    /// no `order by`) keeps a running item count per group instead of
    /// its members, or always keep the members. Absent: on.
    pub nest_agg: Option<bool>,
}

impl PlanHints {
    fn slots(&mut self) -> [&mut Option<bool>; KEYS.len()] {
        [
            &mut self.hash_join,
            &mut self.index_scan,
            &mut self.bytecode,
            &mut self.topk,
            &mut self.implicit_groupby,
            &mut self.nest_agg,
        ]
    }

    /// These hints, with `fallback` supplying the ones left absent.
    pub fn or(self, fallback: PlanHints) -> PlanHints {
        PlanHints {
            hash_join: self.hash_join.or(fallback.hash_join),
            index_scan: self.index_scan.or(fallback.index_scan),
            bytecode: self.bytecode.or(fallback.bytecode),
            topk: self.topk.or(fallback.topk),
            implicit_groupby: self.implicit_groupby.or(fallback.implicit_groupby),
            nest_agg: self.nest_agg.or(fallback.nest_agg),
        }
    }

    /// The hints the `XQA_HINTS` environment variable spells (none when
    /// it is unset); an error names what it could not parse.
    pub(crate) fn from_env() -> Result<PlanHints, String> {
        match std::env::var("XQA_HINTS") {
            Ok(v) => v.parse().map_err(|e| format!("XQA_HINTS: {e}")),
            Err(std::env::VarError::NotPresent) => Ok(PlanHints::default()),
            Err(e) => Err(format!("XQA_HINTS: {e}")),
        }
    }

    /// One line per hint — `key=on|off`, what each side runs, and what
    /// the engine does when the hint is absent — for `xqa --help` and
    /// the README.
    pub fn table() -> String {
        KEYS.iter()
            .map(|k| format!("  {:<26}{} (absent: {})\n", k.grammar(), k.pins, k.absent))
            .collect()
    }
}

impl fmt::Display for PlanHints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut hints = *self;
        let mut sep = "";
        for (k, slot) in KEYS.iter().zip(hints.slots()) {
            if let Some(on) = *slot {
                write!(f, "{sep}{}={}", k.key, if on { k.on } else { k.off })?;
                sep = ",";
            }
        }
        Ok(())
    }
}

impl std::str::FromStr for PlanHints {
    type Err = String;

    fn from_str(s: &str) -> Result<PlanHints, String> {
        let mut hints = PlanHints::default();
        for pair in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
            let parsed = KEYS.iter().enumerate().find_map(|(i, k)| match value {
                _ if k.key != key => None,
                v if v == k.on => Some((i, true)),
                v if v == k.off => Some((i, false)),
                _ => None,
            });
            let Some((i, on)) = parsed else {
                let valid: Vec<String> = KEYS.iter().map(HintKey::grammar).collect();
                return Err(format!(
                    "invalid hint `{pair}` (valid hints: {})",
                    valid.join(", ")
                ));
            };
            if hints.slots()[i].replace(on).is_some() {
                return Err(format!("duplicate hint `{key}` in `{s}`"));
            }
        }
        Ok(hints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_prints_empty_and_empty_parses_to_default() {
        assert_eq!(PlanHints::default().to_string(), "");
        assert_eq!("".parse::<PlanHints>().unwrap(), PlanHints::default());
        assert_eq!(" , ".parse::<PlanHints>().unwrap(), PlanHints::default());
    }

    #[test]
    fn every_key_and_value_round_trips() {
        for (i, k) in KEYS.iter().enumerate() {
            for (value, on) in [(k.on, true), (k.off, false)] {
                let text = format!("{}={value}", k.key);
                let mut hints: PlanHints = text.parse().unwrap();
                assert_eq!(hints.to_string(), text);
                for (j, slot) in hints.slots().into_iter().enumerate() {
                    assert_eq!(*slot, (i == j).then_some(on), "{text}: slot {j}");
                }
            }
        }
        let all = "join=nested,access=index,expr=tree,topk=off,implicit-groupby=on,nest-agg=off";
        let hints: PlanHints = all.parse().unwrap();
        assert_eq!(hints.to_string(), all);
        assert_eq!(hints.to_string().parse::<PlanHints>().unwrap(), hints);
        // Display order is the key order, whatever order was parsed.
        let shuffled: PlanHints = " topk=off , join=nested ".parse().unwrap();
        assert_eq!(shuffled.to_string(), "join=nested,topk=off");
    }

    #[test]
    fn duplicates_unknown_keys_and_unknown_values_are_rejected() {
        let err = |s: &str| s.parse::<PlanHints>().unwrap_err();
        assert!(err("join=hash,join=nested").contains("duplicate hint `join`"));
        assert!(err("join=hash,join=hash").contains("duplicate hint `join`"));
        for bad in ["jion=hash", "join=sideways", "join", "join=", "topk=true"] {
            let e = err(&format!("access=walk,{bad}"));
            assert!(e.contains(&format!("invalid hint `{bad}`")), "{e}");
            for k in &KEYS {
                assert!(e.contains(&k.grammar()), "{e}");
            }
        }
    }

    #[test]
    fn or_fills_only_absent_hints() {
        let set: PlanHints = "join=nested,topk=off".parse().unwrap();
        let fallback: PlanHints = "join=hash,expr=tree".parse().unwrap();
        assert_eq!(
            set.or(fallback).to_string(),
            "join=nested,expr=tree,topk=off"
        );
        assert_eq!(PlanHints::default().or(fallback), fallback);
        assert_eq!(set.or(PlanHints::default()), set);
    }

    #[test]
    fn table_lists_every_key_once() {
        let table = PlanHints::table();
        assert_eq!(table.lines().count(), KEYS.len());
        for k in &KEYS {
            assert!(table.contains(&k.grammar()));
        }
    }
}
