//! The socket load driver behind the `latency` and `throughput` benches.
//!
//! Both benches drive the paper's steady-state loop (Figure 6: edit,
//! rerun, only the compile step recompiles) through a live `yalla serve`
//! daemon over its real Unix socket, for the same corpus subjects. This
//! module owns everything they share: the request lines, the split of
//! subjects across clients, the client threads, and one cold pass per
//! configuration (fresh daemon, clients, shutdown, wall and CPU time).
//! The benches keep only their scripts and reports.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use yalla_core::serve::{client_request, Server};
use yalla_corpus::Subject;
use yalla_exec::Executor;
use yalla_obs::chrome::escape_json;
use yalla_obs::json::JsonValue;

/// A request class, named after the daemon op it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Open the project (the cold pipeline on its first rerun).
    Open,
    /// Rewrite the main source with unchanged content.
    Edit,
    /// Run the pipeline over the pending edits.
    Rerun,
    /// Fetch the lightweight header.
    Get,
    /// Daemon-wide status.
    Status,
}

impl Class {
    /// The op name, which is also the report's class label.
    pub fn name(self) -> &'static str {
        match self {
            Class::Open => "open",
            Class::Edit => "edit",
            Class::Rerun => "rerun",
            Class::Get => "get",
            Class::Status => "status",
        }
    }
}

/// One measured request, as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The subject the request belongs to.
    pub subject: &'static str,
    /// The request class.
    pub class: Class,
    /// Client-observed latency: send to parsed response (µs).
    pub us: u64,
    /// Whether the response reported `"fully_cached": true` (reruns only).
    pub fully_cached: bool,
}

impl Sample {
    /// A rerun that recomputed at least one stage.
    pub fn recomputed(&self) -> bool {
        self.class == Class::Rerun && !self.fully_cached
    }
}

/// One subject's request script, sent in order by one client.
pub struct Workload {
    /// The subject name, doubling as the daemon project name.
    subject: &'static str,
    build_latency_us: Option<f64>,
    /// Request classes in send order.
    script: Vec<Class>,
    open: String,
    edit: String,
}

impl Workload {
    /// The `script` for `subject`. `open` carries `build_latency_us`
    /// when given, and every `edit` rewrites the main source with its
    /// own content: §6's common case, so warm reruns revalidate instead
    /// of recomputing.
    pub fn new(subject: &Subject, build_latency_us: Option<f64>, script: Vec<Class>) -> Self {
        let files: Vec<String> = subject
            .vfs
            .iter()
            .map(|(id, _)| {
                format!(
                    "\"{}\": \"{}\"",
                    escape_json(subject.vfs.path(id)),
                    escape_json(subject.vfs.text(id))
                )
            })
            .collect();
        let sources: Vec<String> = subject.sources.iter().map(|s| format!("\"{s}\"")).collect();
        let latency = build_latency_us
            .map(|us| format!(", \"build_latency_us\": {us}"))
            .unwrap_or_default();
        let open = format!(
            "{{\"op\": \"open\", \"project\": \"{}\", \"header\": \"{}\", \
             \"sources\": [{}], \"files\": {{{}}}{latency}}}",
            subject.name,
            escape_json(&subject.header),
            sources.join(", "),
            files.join(", ")
        );
        let main_id = subject
            .vfs
            .lookup(&subject.main_source)
            .unwrap_or_else(|| panic!("{}: no main source", subject.name));
        let edit = format!(
            "{{\"op\": \"edit\", \"project\": \"{}\", \"path\": \"{}\", \"text\": \"{}\"}}",
            subject.name,
            escape_json(&subject.main_source),
            escape_json(subject.vfs.text(main_id))
        );
        Workload {
            subject: subject.name,
            build_latency_us,
            script,
            open,
            edit,
        }
    }

    /// The modeled build latency every rerun sleeps (µs), if any.
    pub fn build_latency_us(&self) -> Option<f64> {
        self.build_latency_us
    }

    /// The request line `class` sends for this subject.
    pub fn request(&self, class: Class) -> String {
        match class {
            Class::Open => self.open.clone(),
            Class::Edit => self.edit.clone(),
            Class::Rerun => format!("{{\"op\": \"rerun\", \"project\": \"{}\"}}", self.subject),
            Class::Get => format!(
                "{{\"op\": \"get\", \"project\": \"{}\", \"artifact\": \"lightweight\"}}",
                self.subject
            ),
            Class::Status => "{\"op\": \"status\"}".to_string(),
        }
    }
}

/// Greedy split of `loads` into at most `n` client groups: each load in
/// turn joins the group with the least total weight so far, the first
/// such group on a tie. Equal weights therefore give the round-robin
/// `i % n`; weights sorted heaviest first give list-scheduling balance.
/// Empty groups are dropped, so fewer than `n` loads make fewer groups.
pub fn split<T>(
    loads: impl IntoIterator<Item = T>,
    n: usize,
    weight: impl Fn(&T) -> f64,
) -> Vec<Vec<T>> {
    let mut groups: Vec<(f64, Vec<T>)> = (0..n).map(|_| (0.0, Vec::new())).collect();
    for load in loads {
        let lightest = groups
            .iter_mut()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("n > 0");
        lightest.0 += weight(&load);
        lightest.1.push(load);
    }
    groups
        .into_iter()
        .map(|(_, g)| g)
        .filter(|g| !g.is_empty())
        .collect()
}

/// What one pass measured.
pub struct Pass {
    /// Every request of every client, in per-client send order.
    pub samples: Vec<Sample>,
    /// From the first client's start to the last client's end (µs).
    pub wall_us: f64,
    /// User CPU time of this process over the same span (s).
    pub user_s: f64,
    /// System CPU time of this process over the same span (s).
    pub sys_s: f64,
}

impl Pass {
    /// Reruns that recomputed at least one stage.
    pub fn recomputed(&self) -> usize {
        self.samples.iter().filter(|s| s.recomputed()).count()
    }
}

/// One cold pass: a fresh daemon with `workers` executor workers, one
/// client thread per group, then `shutdown`. `tag` names the socket.
pub fn run_pass(tag: &str, workers: usize, groups: &[Vec<&Workload>]) -> Pass {
    let socket = std::env::temp_dir().join(format!("yalla-{tag}-{}.sock", std::process::id()));
    let server = Server::start(&socket, Executor::new(workers)).expect("start daemon");
    let (user0, sys0) = cpu_times();
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let socket = socket.as_path();
        let clients: Vec<_> = groups
            .iter()
            .map(|group| scope.spawn(move || run_client(socket, group)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    let wall_us = start.elapsed().as_secs_f64() * 1e6;
    let (user1, sys1) = cpu_times();
    let _ = client_request(&mut connect(&socket), "{\"op\": \"shutdown\"}");
    server.join();
    Pass {
        samples,
        wall_us,
        user_s: user1 - user0,
        sys_s: sys1 - sys0,
    }
}

/// Sends every workload's script in turn on one connection.
fn run_client(socket: &Path, group: &[&Workload]) -> Vec<Sample> {
    let mut stream = connect(socket);
    let mut samples = Vec::new();
    for w in group {
        for &class in &w.script {
            let request = w.request(class);
            let start = Instant::now();
            let r = client_request(&mut stream, &request)
                .unwrap_or_else(|e| panic!("{}: {e}", w.subject));
            let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            assert!(
                r.get("ok") == Some(&JsonValue::Bool(true)),
                "{}: rejected: {r:?}",
                w.subject
            );
            samples.push(Sample {
                subject: w.subject,
                class,
                us,
                fully_cached: r.get("fully_cached") == Some(&JsonValue::Bool(true)),
            });
        }
    }
    samples
}

fn connect(path: &Path) -> UnixStream {
    for _ in 0..200 {
        if let Ok(s) = UnixStream::connect(path) {
            return s;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("could not connect to {}", path.display());
}

/// (utime, stime) of this process in seconds, from `/proc/self/stat`
/// (0.0 on platforms without procfs): separates real compute from
/// kernel-side scheduling overhead in the pass reports.
fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields 14/15 (1-based), counted after the parenthesized comm, in
    // ticks of USER_HZ (100 on every Linux this runs on).
    let after_comm = stat.rsplit(") ").next().unwrap_or("");
    let mut secs = after_comm
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / 100.0);
    (secs.next().unwrap_or(0.0), secs.next().unwrap_or(0.0))
}
