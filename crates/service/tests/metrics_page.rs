//! The shape of `GET /metrics`, held against
//! `tests/golden/metrics_samples.txt`: every sample line's name and
//! label set, in page order, values stripped.
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
