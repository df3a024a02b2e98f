//! The socket load driver shared by the `latency` and `throughput`
//! benches: the client split, the request lines, and one live pass.

#![cfg(unix)]

use yalla_bench::daemon::{run_pass, split, Class, Workload};
use yalla_corpus::{Subject, Suite};
use yalla_cpp::vfs::Vfs;
use yalla_obs::json::{parse, JsonValue};

fn tiny_subject() -> Subject {
    let mut vfs = Vfs::new();
    vfs.add_file(
        "lib.hpp",
        "namespace K { class W { public: int id() const; }; }\n",
    );
    vfs.add_file(
        "main.cpp",
        "#include \"lib.hpp\"\nint f(K::W& w) { return w.id(); }\n",
    );
    Subject {
        name: "tiny",
        suite: Suite::PyKokkos,
        vfs,
        main_source: "main.cpp".to_string(),
        sources: vec!["main.cpp".to_string()],
        header: "lib.hpp".to_string(),
        pch_headers: Vec::new(),
        kernel: None,
    }
}

#[test]
fn equal_weights_deal_round_robin_and_drop_empty_groups() {
    for (loads, n) in [(18, 8), (3, 8), (8, 8), (17, 3), (1, 1)] {
        let mut expected: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..loads {
            expected[i % n].push(i);
        }
        expected.retain(|g| !g.is_empty());
        assert_eq!(
            split(0..loads, n, |_| 1.0),
            expected,
            "{loads} loads over {n} clients"
        );
    }
    assert_eq!(split(0..3, 8, |_| 1.0).len(), 3);
}

#[test]
fn modeled_weights_join_the_lightest_group_heaviest_first() {
    // Sorted heaviest first, as the throughput bench orders its loads;
    // a tie goes to the first of the lightest groups.
    let costs = [9.0, 7.0, 6.0, 5.0, 4.0, 2.0, 2.0, 1.0];
    assert_eq!(
        split(costs, 3, |c| *c),
        vec![vec![9.0, 2.0, 2.0], vec![7.0, 4.0, 1.0], vec![6.0, 5.0]]
    );
}

#[test]
fn request_lines_name_their_op_and_carry_the_modeled_latency() {
    let subject = tiny_subject();
    let all = vec![
        Class::Open,
        Class::Edit,
        Class::Rerun,
        Class::Get,
        Class::Status,
    ];
    let plain = Workload::new(&subject, None, all.clone());
    for class in all {
        let line = parse(&plain.request(class)).expect("valid JSON");
        assert_eq!(
            line.get("op").and_then(JsonValue::as_str),
            Some(class.name())
        );
    }
    let open = parse(&plain.request(Class::Open)).unwrap();
    assert_eq!(open.get("build_latency_us"), None);
    let modeled = Workload::new(&subject, Some(1500.0), Vec::new());
    let open = parse(&modeled.request(Class::Open)).unwrap();
    assert_eq!(
        open.get("build_latency_us").and_then(JsonValue::as_f64),
        Some(1500.0)
    );
    // The edit rewrites the main source with its own content.
    let edit = parse(&plain.request(Class::Edit)).unwrap();
    let main = subject.vfs.lookup("main.cpp").unwrap();
    assert_eq!(
        edit.get("text").and_then(JsonValue::as_str),
        Some(subject.vfs.text(main))
    );
}

#[test]
fn a_pass_samples_every_request_and_sees_the_warm_rerun() {
    let subject = tiny_subject();
    let script = vec![
        Class::Open,
        Class::Rerun,
        Class::Edit,
        Class::Rerun,
        Class::Status,
    ];
    let load = Workload::new(&subject, None, script.clone());
    let pass = run_pass("daemon-test", 2, &[vec![&load]]);
    let classes: Vec<Class> = pass.samples.iter().map(|s| s.class).collect();
    assert_eq!(classes, script);
    assert!(pass.samples.iter().all(|s| s.subject == "tiny"));
    // The cold rerun recomputes; the rerun after a same-content edit
    // is fully cached.
    assert_eq!(pass.recomputed(), 1);
    assert!(pass.samples[3].fully_cached);
}
