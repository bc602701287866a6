//! The exactness harnesses' graph strategy, [`common::GraphCase`], pins
//! its minimal cases: a failure shrinks by the graph (edges, then
//! vertices, then weights) to the smallest graph that still fails.

use pathrank_testkit::prelude::*;

mod common;
use common::{integer_times, GraphCase};

/// The report a failing property panics with.
fn report_of(property: fn()) -> String {
    let payload = std::panic::catch_unwind(property).expect_err("the property must fail");
    payload
        .downcast_ref::<String>()
        .expect("a formatted report")
        .clone()
}

/// The minimal graph a report names.
fn minimal_graph(report: &str) -> &str {
    let (_, rest) = report
        .split_once("shrink runs):\n  case = ")
        .expect("minimal inputs");
    rest.split_once("\noriginal inputs:")
        .expect("original inputs")
        .0
}

#[test]
fn graph_case_shrinks_a_fork_to_three_vertices_and_two_edges() {
    proptest! {
        fn no_vertex_forks(case in GraphCase::new(integer_times)) {
            let mut out_degree = vec![0; case.n()];
            for &(from, _, _) in &case.edges {
                out_degree[from as usize] += 1;
            }
            prop_assert!(out_degree.iter().all(|&d| d < 2));
        }
    }
    let report = report_of(no_vertex_forks);
    let minimal = minimal_graph(&report);
    assert!(minimal.starts_with("3 vertices "), "{report}");
    assert!(minimal.contains(", 2 edges ["), "{report}");
    assert_eq!(
        minimal.matches(" w1").count(),
        2,
        "weights shrink to 1: {report}"
    );
}

#[test]
fn graph_case_shrinks_a_two_cycle_to_two_vertices_and_two_edges() {
    proptest! {
        fn no_two_cycles(case in GraphCase::new(integer_times)) {
            for &(from, to, _) in &case.edges {
                prop_assert!(!case.edges.iter().any(|&(f, t, _)| (f, t) == (to, from)));
            }
        }
    }
    let report = report_of(no_two_cycles);
    let minimal = minimal_graph(&report);
    assert!(minimal.starts_with("2 vertices "), "{report}");
    assert!(minimal.contains(", 2 edges ["), "{report}");
}
