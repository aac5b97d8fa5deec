//! Request bodies nested deep enough to exhaust a recursive parser's
//! stack (~100 KB, well under the body limit) are refused with a 400,
//! and the server keeps answering well-formed requests.

mod common;

use common::{exchange, two_sibling_ron};
use idar_server::{Server, ServerConfig};

#[test]
fn deeply_nested_bodies_are_refused_and_the_server_survives() {
    let handle = Server::start("127.0.0.1:0", ServerConfig::default()).expect("server start");
    let addr = handle.addr();
    let ok = two_sibling_ron();

    let deep_formula = format!("{}p", "!".repeat(100_000));
    let deep_schema = format!("{}p{}", "p(".repeat(50_000), ")".repeat(50_000));
    let hostile = [
        (
            "completion: \"p[b]\"",
            format!("completion: \"{deep_formula}\""),
        ),
        (
            "(add, \"p\", \"true\")",
            format!("(add, \"p\", \"{deep_formula}\")"),
        ),
        ("schema: \"p(b)\"", format!("schema: \"{deep_schema}\"")),
    ];
    for (field, replacement) in &hostile {
        assert!(ok.contains(field), "the test form has `{field}`");
        let body = ok.replace(field, replacement);
        assert!(body.len() < 1 << 20, "under the body limit");
        for (path, tenant) in [
            ("/v1/analyze?kind=completability", None),
            ("/v1/session", Some("acme")),
        ] {
            let (status, _, resp) = exchange(addr, "POST", path, tenant, &body);
            assert_eq!(status, 400, "{path} with a nested {field}: {resp}");
            assert!(resp.contains("nests deeper"), "{resp}");
        }
    }

    let (status, headers, _) = exchange(addr, "POST", "/v1/analyze?kind=completability", None, &ok);
    assert_eq!(status, 200, "the server still answers");
    assert_eq!(headers.get("x-verdict").map(String::as_str), Some("holds"));
    handle.shutdown();
}
