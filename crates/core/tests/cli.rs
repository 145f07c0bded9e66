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
    // `--hint` / `XQA_HINTS` are documented once, from the key list the
    // parser reads; the README carries the same table.
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
/// against it, comparing with one-shot CLI output.
#[test]
fn serve_answers_queries_like_one_shot_runs() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;

    let input = write_temp(
        "serve-bib.xml",
        "<bib><book><publisher>A</publisher><price>1</price></book>\
         <book><publisher>B</publisher><price>2</price></book>\
         <book><publisher>A</publisher><price>3</price></book></bib>",
    );
    let query = "for $b in //book group by $b/publisher into $p \
                 nest $b/price into $prices order by $p \
                 return <r>{string($p)}:{sum($prices)}</r>";

    // Reference: a one-shot CLI run of the same query over the same file.
    let one_shot = xqa()
        .args(["-q", query])
        .arg(&input)
        .output()
        .expect("one-shot run");
    assert!(
        one_shot.status.success(),
        "{}",
        String::from_utf8_lossy(&one_shot.stderr)
    );
    let expected = String::from_utf8_lossy(&one_shot.stdout).trim().to_string();

    let mut child = xqa()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2", "-i"])
        .arg(&input)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn xqa serve");
    // The server prints "listening on HOST:PORT" once bound.
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("listen line")
        .to_string();

    let served = (|| -> std::io::Result<String> {
        let mut stream = TcpStream::connect(&addr)?;
        use std::io::Write as _;
        write!(
            stream,
            "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Length: {}\r\n\r\n{query}",
            query.len()
        )?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    })();
    let _ = child.kill();
    let _ = child.wait();

    let response = served.expect("query over HTTP");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or(("", ""));
    // Streamed responses arrive chunked; reassemble the payload.
    let body = if head
        .to_ascii_lowercase()
        .contains("transfer-encoding: chunked")
    {
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
        out
    } else {
        body.to_string()
    };
    assert_eq!(body, expected);
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
    let run = |hint: &[&str], env: Option<&str>| {
        let mut cmd = xqa();
        if let Some(env) = env {
            cmd.env("XQA_HINTS", env);
        }
        let out = cmd
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
    assert!(
        run(&hash, None).contains("[hash join"),
        "join=hash must unnest"
    );
    assert!(
        !run(&nested, None).contains("[hash join"),
        "join=nested must not unnest"
    );
    // The CLI builds catalog statistics from the input, so without a
    // hint the planner unnests too.
    assert!(run(&[], None).contains("[hash join"), "no hint must unnest");
    // XQA_HINTS supplies the hint --hint leaves absent, and only then.
    assert!(!run(&[], Some("join=nested")).contains("[hash join"));
    assert!(run(&hash, Some("join=nested")).contains("[hash join"));
    assert!(!run(&nested, Some("join=hash")).contains("[hash join"));
    // --diag-json records the effective hints.
    let diag = write_temp("diag.json", "");
    let out = xqa()
        .args(["-q", "1", "--hint", "join=nested", "--diag-json"])
        .arg(&diag)
        .env("XQA_HINTS", "join=hash,expr=tree")
        .output()
        .expect("run xqa");
    assert!(out.status.success());
    let diag = std::fs::read_to_string(&diag).expect("diag file");
    assert!(
        diag.contains("\"hints\":\"join=nested,expr=tree\""),
        "{diag}"
    );
    // A malformed --hint is a usage error, on run and on serve; a
    // malformed XQA_HINTS fails the compile.
    for args in [
        vec!["-q", "1", "--hint", "join=sideways"],
        vec!["serve", "--hint", "join=sideways"],
    ] {
        let bad = xqa().args(&args).output().expect("run xqa");
        assert_eq!(bad.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&bad.stderr).into_owned();
        assert!(stderr.contains("join=hash|nested"), "{args:?}: {stderr}");
    }
    let bad = xqa()
        .args(["-q", "1"])
        .env("XQA_HINTS", "jion=hash")
        .output()
        .expect("run xqa");
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&bad.stderr).into_owned();
    assert!(
        stderr.contains("XQA_HINTS: invalid hint `jion=hash`"),
        "{stderr}"
    );
}
