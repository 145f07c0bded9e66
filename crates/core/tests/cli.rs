//! End-to-end tests of the `xqa` CLI binary.

use std::io::Write;
use std::process::Command;

fn xqa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xqa"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("xqa-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let mut f = std::fs::File::create(&path).expect("create temp file");
    f.write_all(contents.as_bytes()).expect("write temp file");
    path
}

/// The members of one JSON object, as (key, raw value text) in order:
/// enough to compare records without a JSON library.
fn json_members(object: &str) -> Vec<(String, String)> {
    let mut members = Vec::new();
    let (mut depth, mut in_string, mut escaped, mut start) = (0, false, false, 0);
    for (i, c) in object.char_indices() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                if depth == 1 {
                    start = i + 1;
                }
            }
            '}' | ']' | ',' if depth == 1 => {
                let (key, value) = object[start..i].split_once(':').expect("key: value");
                members.push((key.trim().trim_matches('"').to_string(), value.to_string()));
                start = i + 1;
                if c != ',' {
                    depth -= 1;
                }
            }
            '}' | ']' => depth -= 1,
            _ => {}
        }
    }
    members
}

/// Start `xqa serve` on an ephemeral port over `documents`; returns
/// the child and the address it prints once bound.
fn spawn_serve(documents: &[String]) -> (std::process::Child, String) {
    use std::io::{BufRead, BufReader};
    let mut child = xqa()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(documents)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn xqa serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listen line")
        .to_string();
    (child, addr)
}

/// Send one raw request that asks for `Connection: close`; returns the
/// status line and the body, reassembled when it arrived chunked.
fn http(addr: &str, raw: &str) -> std::io::Result<(String, String)> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.write_all(raw.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or(("", ""));
    let status = head.lines().next().unwrap_or("").to_string();
    if !head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
        return Ok((status, body.to_string()));
    }
    let mut out = String::new();
    let mut rest = body;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size");
        if size == 0 {
            break;
        }
        out.push_str(&after[..size]);
        rest = &after[size + 2..];
    }
    Ok((status, out))
}

/// A POST of `query` to `/query` carrying `X-Request-Id: id`.
fn post_request(query: &str, id: &str) -> String {
    format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nX-Request-Id: {id}\r\n\
         Content-Length: {}\r\n\r\n{query}",
        query.len()
    )
}

#[test]
fn inline_query_against_input_file() {
    let input = write_temp(
        "books.xml",
        "<bib><book><price>10</price></book><book><price>20</price></book></bib>",
    );
    let out = xqa()
        .args(["-q", "sum(//price)"])
        .arg(&input)
        .output()
        .expect("run xqa");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "30");
}

#[test]
fn query_file_with_group_by() {
    let query = write_temp(
        "group.xq",
        "for $b in //book group by $b/publisher into $p nest $b/price into $prices \
         order by $p return <r>{string($p)}:{sum($prices)}</r>",
    );
    let input = write_temp(
        "bib2.xml",
        "<bib><book><publisher>A</publisher><price>1</price></book>\
         <book><publisher>B</publisher><price>2</price></book>\
         <book><publisher>A</publisher><price>3</price></book></bib>",
    );
    let out = xqa().arg(&query).arg(&input).output().expect("run xqa");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<r>A:4</r><r>B:2</r>"
    );
}

#[test]
fn stats_and_explain_go_to_stderr() {
    let input = write_temp("v.xml", "<r><v>1</v><v>1</v></r>");
    let out = xqa()
        .args([
            "-q",
            "for $v in //v group by $v into $k return $k",
            "--stats",
            "--explain",
            "--hint",
            "access=walk",
        ])
        .arg(&input)
        .output()
        .expect("run xqa");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("group-by (hash, deep-equal)"), "{stderr}");
    // One `stats:` line names every declared counter, joins and scans
    // included, under the name the declaration gives it.
    let stats = stderr
        .lines()
        .find(|l| l.starts_with("stats: "))
        .unwrap_or_else(|| panic!("no stats line: {stderr}"));
    for word in [
        " tuples_grouped=2",
        " groups_emitted=1",
        " tuples_pruned_topk=0",
        " scan_walk_tuples=2",
        " join_hash_probes=0",
    ] {
        assert!(stats.contains(word), "{word}: {stats}");
    }
    // stdout has only the result
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "<v>1</v>");
}

#[test]
fn pretty_printing() {
    let input = write_temp("p.xml", "<r><a>1</a></r>");
    let out = xqa()
        .args(["-q", "<out><inner>{//a}</inner></out>", "--pretty"])
        .arg(&input)
        .output()
        .expect("run xqa");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("<out>\n  <inner>"), "{stdout}");
}

#[test]
fn doc_registration() {
    let input = write_temp("main.xml", "<main/>");
    let extra = write_temp("extra.xml", "<data><v>7</v></data>");
    let out = xqa()
        .args(["-q", "sum(doc(\"extra\")//v)"])
        .args(["--doc".to_string(), format!("extra={}", extra.display())])
        .arg(&input)
        .output()
        .expect("run xqa");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "7");
}

#[test]
fn implicit_groupby_hint_announces_rewrite() {
    let input = write_temp(
        "orders.xml",
        "<orders><order><lineitem><m>A</m></lineitem><lineitem><m>A</m></lineitem>\
         <lineitem><m>B</m></lineitem></order></orders>",
    );
    let out = xqa()
        .args([
            "-q",
            "for $a in distinct-values(//order/lineitem/m) \
             let $items := for $i in //order/lineitem where $i/m = $a return $i \
             return <r>{$a}|{count($items)}</r>",
            "--hint",
            "implicit-groupby=on",
        ])
        .arg(&input)
        .output()
        .expect("run xqa");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("implicit group-by detected"), "{stderr}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "<r>A|2</r><r>B|1</r>"
    );
}

#[test]
fn bad_query_exits_nonzero_with_message() {
    let out = xqa().args(["-q", "1 +"]).output().expect("run xqa");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("syntax error"));
}

#[test]
fn missing_input_file_reports_cleanly() {
    let out = xqa()
        .args(["-q", "1", "-i", "/nonexistent/nope.xml"])
        .output()
        .expect("run xqa");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn help_and_unknown_flags() {
    let out = xqa().arg("--help").output().expect("run xqa");
    assert_eq!(out.status.code(), Some(2));
    let help = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(help.contains("usage: xqa"));
    // `--hint` is documented once, from the key list the parser reads;
    // the README carries the same table.
    let table = xqa::PlanHints::table();
    assert!(help.contains(&table), "{help}");
    assert!(
        include_str!("../../../README.md").contains(&table),
        "README.md hint table drifted from PlanHints::table():\n{table}"
    );
    // The `/metrics` reference is rendered from the metric registry.
    let metrics = xqa::service::metrics::reference_table();
    assert!(
        include_str!("../../../README.md").contains(&metrics),
        "README.md /metrics reference drifted from the metric registry \
         (xqa_service::metrics::reference_table()):\n{metrics}"
    );
    let out = xqa()
        .args(["--frobnicate", "-q", "1"])
        .output()
        .expect("run xqa");
    assert_eq!(out.status.code(), Some(2));
}

/// Intra-query parallelism is opt-in: without `--threads` the grouped
/// query's plan carries no `[parallel` tag, `--threads 2` adds it, and
/// the plan fingerprint is the same at every thread count.
#[test]
fn parallelism_is_opt_in() {
    let grouped = "for $x in 1 to 5000 group by $x mod 2 into $k nest $x into $xs \
                   return count($xs)";
    let run = |threads: &[&str]| {
        let diag = write_temp(&format!("opt-in-{}.json", threads.join("")), "");
        let out = xqa()
            .args(["--explain", "-q", grouped, "--diag-json"])
            .arg(&diag)
            .args(threads)
            .output()
            .expect("run xqa");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let record = std::fs::read_to_string(&diag).expect("read diag json");
        let fingerprint = json_members(&record)
            .into_iter()
            .find(|(k, _)| k == "fingerprint")
            .expect("fingerprint")
            .1;
        (
            String::from_utf8_lossy(&out.stderr).into_owned(),
            fingerprint,
        )
    };
    let (serial, print) = run(&[]);
    assert!(!serial.contains("[parallel"), "{serial}");
    let (two, _) = run(&["--threads", "2"]);
    assert!(two.contains("[parallel ×2]"), "{two}");
    for threads in [["--threads", "1"], ["--threads", "4"]] {
        assert_eq!(run(&threads).1, print, "fingerprint at {threads:?}");
    }
}

/// `xqa serve` runs every plan serially and has no second thread knob.
#[test]
fn serve_runs_plans_serially() {
    let (mut child, addr) = spawn_serve(&[]);
    let metrics = http(
        &addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let _ = child.kill();
    let _ = child.wait();
    let (status, body) = metrics.expect("GET /metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    for sample in ["xqa_workers 2", "xqa_query_threads 1"] {
        assert!(
            body.lines().any(|l| l == sample),
            "{sample} missing:\n{body}"
        );
    }
    let out = xqa()
        .args([
            "serve",
            "--query-threads",
            "2",
            "-i",
            "/nonexistent/nope.xml",
        ])
        .output()
        .expect("run xqa serve");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--query-threads"));
}

#[test]
fn no_input_document_queries_still_work() {
    let out = xqa()
        .args(["-q", "(1 to 5)[. mod 2 = 1]"])
        .output()
        .expect("run xqa");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "1 3 5");
}

#[test]
fn collection_registration() {
    let input = write_temp("coll-main.xml", "<main/>");
    let a = write_temp("coll-a.xml", "<part><v>1</v></part>");
    let b = write_temp("coll-b.xml", "<part><v>2</v><v>3</v></part>");
    let out = xqa()
        .args([
            "-q",
            "sum(for $d in collection(\"parts\") return sum($d//v))",
        ])
        .args([
            "--collection".to_string(),
            format!("parts={},{}", a.display(), b.display()),
        ])
        .arg(&input)
        .output()
        .expect("run xqa");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "6");
    // Malformed spec is a usage error.
    let out = xqa()
        .args(["-q", "1", "--collection", "nofiles="])
        .output()
        .expect("run xqa");
    assert_eq!(out.status.code(), Some(2));
}

/// Spawn `xqa serve` on an ephemeral port and run HTTP requests
/// against it, comparing with one-shot CLI output. Both load the same
/// `-i`, `--doc` and `--collection` flags, and a file named twice is
/// one document on both sides.
#[test]
fn serve_answers_queries_like_one_shot_runs() {
    let input = write_temp(
        "serve-bib.xml",
        "<bib><book><publisher>A</publisher><price>1</price></book>\
         <book><publisher>B</publisher><price>2</price></book>\
         <book><publisher>A</publisher><price>3</price></book></bib>",
    );
    let path = input.to_str().expect("utf-8 temp path");
    let documents = [
        "-i".to_string(),
        path.to_string(),
        "--doc".to_string(),
        format!("bib={path}"),
        "--collection".to_string(),
        format!("twice={path},{path}"),
    ];
    let queries = [
        "for $b in //book group by $b/publisher into $p \
         nest $b/price into $prices order by $p \
         return <r>{string($p)}:{sum($prices)}</r>",
        "doc(\"bib\") is /",
        "collection(\"twice\")[1] is collection(\"twice\")[2]",
    ];

    // Reference: a one-shot CLI run of each query over the same files.
    let one_shot = |query: &str| {
        let out = xqa()
            .args(["-q", query])
            .args(&documents)
            .output()
            .expect("one-shot run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    };
    let expected: Vec<String> = queries.iter().map(|q| one_shot(q)).collect();
    assert_eq!(expected[1..], ["true", "true"]);

    let (mut child, addr) = spawn_serve(&documents);
    let served: std::io::Result<Vec<(String, String)>> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| http(&addr, &post_request(q, &format!("q{i}"))))
        .collect();
    let _ = child.kill();
    let _ = child.wait();

    for ((status, body), expected) in served.expect("queries over HTTP").iter().zip(&expected) {
        assert!(status.starts_with("HTTP/1.1 200"), "{status}: {body}");
        assert_eq!(body, expected);
    }
}

/// `--diag-json` writes the record `GET /debug/query/<id>` serves: for
/// one FLWOR query over one document, the same keys, plan fingerprint,
/// rewrite kinds and pipeline signatures.
#[test]
fn the_cli_record_is_the_served_record() {
    let input = write_temp(
        "record.xml",
        "<r><order><lineitem><shipmode>AIR</shipmode></lineitem>\
         <lineitem><shipmode>RAIL</shipmode></lineitem></order>\
         <order><lineitem><shipmode>AIR</shipmode></lineitem></order></r>",
    );
    let path = input.to_str().expect("utf-8 temp path");
    let query = "for $m in distinct-values(//order/lineitem/shipmode) \
                 let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
                 order by string($m) \
                 return <g>{string($m)}:{count($items)}</g>";
    let diag = write_temp("record-diag.json", "");
    let out = xqa()
        .args(["-q", query, "-i", path, "--diag-json"])
        .arg(&diag)
        .output()
        .expect("run xqa");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cli = json_members(&std::fs::read_to_string(&diag).expect("diag file"));

    let (mut child, addr) = spawn_serve(&["-i".to_string(), path.to_string()]);
    let posted = http(&addr, &post_request(query, "r"));
    let record = http(
        &addr,
        "GET /debug/query/r HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let _ = child.kill();
    let _ = child.wait();
    let (status, body) = posted.expect("POST /query");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}: {body}");
    let (status, record) = record.expect("GET /debug/query/r");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}: {record}");
    let served = json_members(&record);

    let keys = |members: &[(String, String)]| -> Vec<String> {
        let mut keys: Vec<String> = members.iter().map(|(key, _)| key.clone()).collect();
        keys.sort();
        keys
    };
    assert_eq!(keys(&cli), keys(&served));
    assert_eq!(cli.len(), 14, "{cli:?}");
    let value = |members: &[(String, String)], key: &str| -> String {
        members
            .iter()
            .find_map(|(k, v)| (k == key).then(|| v.clone()))
            .unwrap_or_else(|| panic!("no {key} in {members:?}"))
    };
    for key in ["fingerprint", "rewrites"] {
        assert_eq!(value(&cli, key), value(&served, key), "{key}");
    }
    assert!(value(&cli, "rewrites").contains("join-unnest"), "{cli:?}");
    let signatures = |members: &[(String, String)]| -> Vec<String> {
        value(members, "profile")
            .split("\"signature\":")
            .skip(1)
            .map(|rest| {
                rest.split(",\"executions\":")
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    };
    assert!(!signatures(&cli).is_empty(), "{cli:?}");
    assert_eq!(signatures(&cli), signatures(&served));
}

/// A run that fails still writes its record: `ok` false, the error, and
/// the stats and profile of what ran before it (192 tuples: the `for`
/// had bound three batches of 64 when `$x = 150` divided by zero).
#[test]
fn a_failed_run_writes_its_record() {
    let diag = write_temp("failed-diag.json", "");
    std::fs::remove_file(&diag).expect("start without the file");
    let out = xqa()
        .args([
            "-q",
            "for $x in 1 to 200 return $x idiv (150 - $x)",
            "--diag-json",
        ])
        .arg(&diag)
        .output()
        .expect("run xqa");
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let record = json_members(&std::fs::read_to_string(&diag).expect("diag file written"));
    let value = |key: &str| -> String {
        record
            .iter()
            .find_map(|(k, v)| (k == key).then(|| v.clone()))
            .unwrap_or_else(|| panic!("no {key} in {record:?}"))
    };
    assert_eq!(value("ok"), "false");
    assert!(value("error").contains("FOAR0001"), "{record:?}");
    let stats = json_members(&value("stats"));
    let produced = stats
        .iter()
        .find_map(|(k, v)| (k == "tuples_produced").then(|| v.parse::<u64>().expect("a count")))
        .expect("tuples_produced");
    assert!(produced >= 192, "{produced}");
    assert!(value("profile").contains("\"pipelines\":[{"), "{record:?}");
}

#[test]
fn hint_flag_controls_unnesting() {
    let input = write_temp(
        "join.xml",
        "<r><order><lineitem><shipmode>AIR</shipmode></lineitem>\
         <lineitem><shipmode>RAIL</shipmode></lineitem></order>\
         <order><lineitem><shipmode>AIR</shipmode></lineitem></order></r>",
    );
    let query = "for $m in distinct-values(//order/lineitem/shipmode) \
                 let $items := for $li in //order/lineitem where $li/shipmode = $m return $li \
                 order by string($m) \
                 return <g>{string($m)}:{count($items)}</g>";
    let run = |hint: &[&str]| {
        let out = xqa()
            .args(["-q", query, "--explain"])
            .args(hint)
            .arg(&input)
            .output()
            .expect("run xqa");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "<g>AIR:2</g><g>RAIL:1</g>"
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let hash = ["--hint", "join=hash"];
    let nested = ["--hint", "join=nested"];
    assert!(run(&hash).contains("[hash join"), "join=hash must unnest");
    assert!(
        !run(&nested).contains("[hash join"),
        "join=nested must not unnest"
    );
    // Without a hint the planner unnests too: `join=hash` is the
    // default.
    assert!(run(&[]).contains("[hash join"), "no hint must unnest");
    // --diag-json records the hints in the compile event.
    let diag = write_temp("diag.json", "");
    let out = xqa()
        .args([
            "-q",
            "1",
            "--hint",
            "access=walk,join=nested",
            "--diag-json",
        ])
        .arg(&diag)
        .output()
        .expect("run xqa");
    assert!(out.status.success());
    let diag = std::fs::read_to_string(&diag).expect("diag file");
    let trace = json_members(&diag)
        .into_iter()
        .find_map(|(key, value)| (key == "compile_trace").then_some(value))
        .unwrap_or_else(|| panic!("no compile_trace: {diag}"));
    assert!(trace.contains("hints [join=nested,access=walk]"), "{trace}");
    // A malformed --hint is a usage error, on run and on serve.
    for args in [
        vec!["-q", "1", "--hint", "join=sideways"],
        vec!["serve", "--hint", "join=sideways"],
    ] {
        let bad = xqa().args(&args).output().expect("run xqa");
        assert_eq!(bad.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&bad.stderr).into_owned();
        assert!(stderr.contains("join=hash|nested"), "{args:?}: {stderr}");
    }
}

/// The paper query of the `explain analyze` group/top-k golden, profiled
/// through the CLI: at `--threads` 1 and 4 the `explain analyze` block
/// is the engine's golden file, byte for byte, and the `--diag-json`
/// record's profile names every operator of the pipeline.
#[test]
fn profiled_paper_query_matches_the_explain_analyze_golden() {
    let query = "(for $x in 1 to 50 count $c let $m := $x mod 5 where $c le 40 \
                 group by $m into $k nest $x into $xs \
                 order by count($xs) descending, number($k) \
                 return at $r <g r=\"{$r}\">{$k}:{count($xs)}</g>)[position() le 3]";
    let golden = include_str!("../../engine/tests/golden/explain_analyze_group_topk.txt");
    let diag = write_temp("golden-diag.json", "");
    for threads in ["1", "4"] {
        let out = xqa()
            .args(["-q", query, "--profile", "--deterministic-clock"])
            .args(["--threads", threads, "--diag-json"])
            .arg(&diag)
            .output()
            .expect("run xqa");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{stderr}");
        let at = stderr
            .find("explain analyze:")
            .unwrap_or_else(|| panic!("no explain analyze: {stderr}"));
        assert_eq!(&stderr[at..], golden, "threads={threads}");
        let record = std::fs::read_to_string(&diag).expect("diag file");
        let json = json_members(&record)
            .into_iter()
            .find_map(|(key, value)| (key == "profile").then_some(value))
            .unwrap_or_else(|| panic!("no profile: {record}"));
        for op in [
            "ForScan",
            "CountBind",
            "LetBind",
            "Filter",
            "GroupConsume",
            "OrderBy",
            "ReturnAt",
        ] {
            assert!(
                json.contains(&format!("\"op\":\"{op}\"")),
                "threads={threads}: {op} missing from {json}"
            );
        }
    }
}

/// The expression-evaluator hint went with the bytecode evaluator: it is
/// an unknown hint like any other, a usage error on `--hint` (exit 2)
/// whose message lists exactly the five keys that remain.
#[test]
fn the_retired_expression_hint_is_rejected() {
    // Spelled from its parts, so the old spelling appears nowhere live.
    let retired = ["expr", "tree"].join("=");
    let keys = [
        "join=hash|nested",
        "access=index|walk",
        "topk=on|off",
        "implicit-groupby=on|off",
        "nest-agg=on|off",
    ];
    let out = xqa()
        .args(["-q", "1", "--hint", &retired])
        .output()
        .expect("run xqa");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        stderr.contains(&format!("invalid hint `{retired}`")),
        "{stderr}"
    );
    let listed = stderr
        .split_once("(valid hints: ")
        .and_then(|(_, rest)| rest.split_once(')'))
        .map(|(list, _)| list.split(", ").collect::<Vec<_>>())
        .unwrap_or_else(|| panic!("no key list: {stderr}"));
    assert_eq!(listed, keys, "{stderr}");
}
