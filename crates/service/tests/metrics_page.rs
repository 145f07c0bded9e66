//! The shape of `GET /metrics`: every sample line's name and label
//! set, in page order, values stripped, held against
//! `tests/golden/metrics_samples.txt` (written before the page was
//! rendered from the metric registry), and the `# HELP` / `# TYPE`
//! framing every family carries.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p xqa-service --test metrics_page`.

use std::io::{Read, Write};
use std::net::TcpStream;

use xqa_service::{DocumentCatalog, Server, ServiceConfig};

fn scrape() -> String {
    let mut catalog = DocumentCatalog::new();
    catalog
        .set_context_xml("<r><v>1</v><v>2</v></r>")
        .expect("well-formed");
    let config = ServiceConfig {
        workers: 1,
        ..Default::default()
    };
    let server = Server::start("127.0.0.1:0", &catalog, config).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    server.shutdown();
    let (head, body) = response.split_once("\r\n\r\n").expect("header end");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

/// The sample lines of a page: everything but comments, value dropped.
fn sample_names(page: &str) -> Vec<&str> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.rsplit_once(' ').expect("`name value`").0)
        .collect()
}

#[test]
fn sample_lines_match_the_golden() {
    let page = scrape();
    let actual: String = sample_names(&page)
        .iter()
        .map(|name| format!("{name}\n"))
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/metrics_samples.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nrun with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "the metric registry renders different /metrics sample lines (names, labels or order) \
         than the golden"
    );
}

/// Every family is introduced by exactly one `# HELP` and one `# TYPE`
/// line, in that order, ahead of its first sample; counters, and only
/// counters, end in `_total`.
#[test]
fn every_family_has_one_help_and_one_type_before_its_samples() {
    let page = scrape();
    let mut families: Vec<&str> = Vec::new();
    let mut helped: Option<&str> = None;
    let mut current: Option<(&str, &str)> = None;
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("`# HELP name text`");
            assert!(helped.is_none(), "{name}: HELP follows a HELP");
            assert!(!help.trim().is_empty(), "{name}: empty help");
            assert!(!families.contains(&name), "{name}: introduced twice");
            helped = Some(name);
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("`# TYPE name kind`");
            assert_eq!(helped.take(), Some(name), "TYPE without its HELP");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
            assert_eq!(kind == "counter", name.ends_with("_total"), "{line}");
            families.push(name);
            current = Some((name, kind));
        } else {
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            assert!(helped.is_none(), "sample between HELP and TYPE: {line}");
            let (family, kind) = current.expect("a sample before any # TYPE");
            let name = line.split(['{', ' ']).next().expect("sample name");
            let suffix = name.strip_prefix(family).unwrap_or_else(|| {
                panic!("sample {name} is not of the family {family} declared above it")
            });
            let allowed: &[&str] = if kind == "histogram" {
                &["_bucket", "_sum", "_count"]
            } else {
                &[""]
            };
            assert!(allowed.contains(&suffix), "{line}");
        }
    }
    // 30 of the service's own plus the engine's 16 at the time of writing.
    assert!(families.len() >= 46, "{}", families.len());
}
