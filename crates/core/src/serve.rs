//! The `yalla serve` daemon: a long-lived pool of warm [`Session`]s
//! behind a line-delimited JSON protocol.
//!
//! The paper's workflow keeps the substitution tool resident so the
//! developer loop (edit → rerun → read artifacts) never pays process
//! startup or cold caches. This module implements that as a daemon:
//!
//! * **Shards.** Each project gets a [`ProjectShard`] holding one warm
//!   [`Session`]. Shards are keyed by the *root hash* — a content hash of
//!   the opened file tree plus the substitution options — so re-opening
//!   an identical project (even under another name) lands on the same
//!   warm shard instead of rebuilding caches. Shard state is split by
//!   concern — an edit queue, a published-artifacts slot, and the
//!   session itself — each behind its own lock, so `edit`, `get`,
//!   `status`, and `metrics` never wait behind a pipeline pass; only
//!   concurrent `rerun`s on the *same* project serialize.
//! * **Batching + coalescing.** `edit` requests are queued on the shard
//!   and applied in arrival order by the next `rerun` — N edits between
//!   reruns cost one pipeline pass, exactly like saving N files before
//!   rebuilding. An edit that lands while a rerun is *already running*
//!   goes further: it cancels the in-flight attempt (cooperatively, at
//!   the next stage boundary — see [`yalla_exec::CancelToken`]), and the
//!   rerun retries with the new edit folded in. The response reports how
//!   many attempts were superseded and how many edits it absorbed. After
//!   `MAX_SUPERSEDES` cancelled rounds the final attempt runs
//!   un-cancellable, so a continuous edit stream degrades to plain
//!   batching instead of livelocking the client.
//! * **Priority.** Client-blocking work runs at interactive priority;
//!   warm-up prefetches after a daemon restart run at background
//!   priority ([`yalla_exec::Priority`]) and are cancelled the moment a
//!   real rerun arrives — idle workers pre-warm caches, busy workers
//!   never queue client work behind a prefetch.
//! * **Execution.** A rerun runs on its handler thread, admitted by a
//!   counting semaphore sized to the [`yalla_exec::Executor`]'s worker
//!   count — one worker makes the daemon a strictly serial build agent,
//!   N workers overlap up to N project builds. Only the session's short
//!   stage-DAG tasks enter the pool itself, so a worker can never get
//!   stuck executing another project's entire build mid-wait. An
//!   optional per-shard *build latency* is slept under the semaphore,
//!   modeling the client-blocking compile the paper's Figure 6
//!   attributes to each iteration; the `throughput` bench's `open`
//!   requests set it to measure scheduling overlap.
//! * **Wire protocol.** One JSON object per line, over a Unix socket
//!   (`ok`/`error` responses, one per request, in order). See
//!   [`ServeState::handle_line`] for the operation set.
//! * **Telemetry.** Every request gets a monotonically increasing id,
//!   stamped as `"req"` on its response line and installed as the
//!   ambient [`yalla_obs::reqid`] for the handler's whole extent — so
//!   stage, store, and event-log records produced anywhere downstream
//!   (including DAG worker threads) join back to the request. Requests
//!   are wrapped in a `serve` span, counted per class under
//!   `serve.requests.<op>`, and timed into the `latency.serve.<op>`
//!   histograms; the `metrics` op exposes all of it in Prometheus text
//!   format, snapshotted without pausing any worker.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Read};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use yalla_cpp::hash::{self, Fnv64};
use yalla_cpp::vfs::Vfs;
use yalla_exec::{CancelToken, Executor, Priority};
use yalla_obs::chrome::escape_json;
use yalla_obs::json::JsonValue;
use yalla_obs::metrics::names;
use yalla_store::{Store, NS_SERVE};

use crate::engine::{Options, SubstitutionResult, YallaError};
use crate::persist::ProjectRecord;
use crate::session::Session;

/// Supersede bound: after this many cancelled attempts, one rerun request
/// runs its final attempt un-cancellable so a continuous edit stream can
/// never livelock a client (later edits fall back to plain batching).
const MAX_SUPERSEDES: u64 = 4;

/// The edit side of a shard: queued edits plus supersede bookkeeping.
/// `edit` requests only ever touch this lock — never the session — so
/// queuing an edit during a multi-second build returns in microseconds.
#[derive(Debug, Default)]
struct EditQueue {
    /// Edits queued since the last rerun attempt started, arrival order.
    pending: Vec<(String, String)>,
    /// Bumped once per accepted edit. A rerun attempt captures the
    /// generation its input covers; any later edit supersedes it.
    generation: u64,
    /// The in-flight rerun attempt, if cancellable: its token and the
    /// edit generation it covers. An edit that lands with a higher
    /// generation cancels the token, folding itself into the retry.
    active: Option<(CancelToken, u64)>,
}

/// The read side of a shard: the last published run. `get`/`status`
/// requests only ever touch this lock, so reads never wait on a build.
#[derive(Debug, Default)]
struct Published {
    /// Client reruns completed on this shard.
    reruns: u64,
    /// Rerun attempts cancelled mid-flight by a superseding edit.
    cancelled: u64,
    /// The edit generation the published artifacts cover (monotonic).
    generation: u64,
    /// The most recent successful run's artifacts.
    last: Option<SubstitutionResult>,
    /// The most recent run's one-line stage summary.
    last_summary: String,
}

/// A warm project shard with per-concern locks: `edits` (queue +
/// supersede state), `published` (last artifacts), and `session` (the
/// pipeline itself, held only by the one running rerun). `edit`, `get`,
/// `status`, and `metrics` never take the session lock, so no request
/// class ever waits behind a pipeline pass.
#[derive(Debug)]
pub struct ProjectShard {
    /// Client-facing project name (first name that opened this tree).
    name: String,
    /// Content hash of the opened file tree + options (the shard key).
    root_hash: u64,
    /// Modeled client-blocking build time slept inside each rerun task.
    build_latency: Duration,
    /// The project's file set, fixed at open: edits may only change the
    /// contents of existing files, so `edit` validates lock-free.
    files: HashSet<String>,
    edits: Mutex<EditQueue>,
    published: Mutex<Published>,
    session: Mutex<Session>,
    /// Cancel token for this shard's background warm-up prefetch; the
    /// first client rerun cancels it and takes over.
    warmup: Mutex<Option<CancelToken>>,
}

impl ProjectShard {
    /// The shard of `record`'s project under key `root_hash`: its file
    /// tree, its file set and a fresh session backed by `store`. `warmup`
    /// is the token of the shard's background prefetch, if it gets one.
    fn new(
        root_hash: u64,
        record: ProjectRecord,
        store: Option<Arc<Store>>,
        warmup: Option<CancelToken>,
    ) -> Arc<ProjectShard> {
        let mut vfs = Vfs::new();
        let mut files = HashSet::new();
        for (path, text) in record.files {
            vfs.add_file(&path, text);
            files.insert(path);
        }
        let options = Options {
            header: record.header,
            sources: record.sources,
            ..Options::default()
        };
        Arc::new(ProjectShard {
            name: record.name,
            root_hash,
            build_latency: record.build_latency,
            files,
            edits: Mutex::default(),
            published: Mutex::default(),
            session: Mutex::new(Session::with_store(options, vfs, store)),
            warmup: Mutex::new(warmup),
        })
    }
}

/// A counting semaphore bounding how many builds run at once. Sized to
/// the executor's worker count: one worker makes the daemon a strictly
/// serial build agent, N workers overlap up to N project builds.
#[derive(Debug)]
struct BuildGate {
    slots: Mutex<usize>,
    freed: Condvar,
}

impl BuildGate {
    fn new(slots: usize) -> Self {
        BuildGate {
            slots: Mutex::new(slots.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut slots = self.slots.lock().expect("gate lock");
        while *slots == 0 {
            slots = self.freed.wait(slots).expect("gate lock");
        }
        *slots -= 1;
    }

    fn release(&self) {
        *self.slots.lock().expect("gate lock") += 1;
        self.freed.notify_one();
    }
}

/// A response line plus the shutdown signal.
#[derive(Debug)]
pub struct Response {
    /// The JSON response line (no trailing newline).
    pub text: String,
    /// True when this request asked the daemon to stop.
    pub shutdown: bool,
}

impl Response {
    fn ok(body: String) -> Self {
        Response {
            text: body,
            shutdown: false,
        }
    }

    fn error(message: impl AsRef<str>) -> Self {
        yalla_obs::count(names::SERVE_REJECTED, 1);
        Response {
            text: format!(
                "{{\"ok\": false, \"error\": \"{}\"}}",
                escape_json(message.as_ref())
            ),
            shutdown: false,
        }
    }
}

/// The longest request line the daemon reads, newline excluded: far
/// above the largest corpus project's `open` request (about 3.5 MB), and
/// a bound on what one client can make a connection handler buffer.
const MAX_REQUEST_BYTES: usize = 64 << 20;

/// How a call to [`read_request_line`] ended.
#[derive(Debug, PartialEq, Eq)]
enum RequestLine {
    /// The buffer holds one whole line: through its newline, or through
    /// the end of the stream when the last line has none.
    Complete,
    /// The stream ended with nothing buffered.
    Eof,
    /// More than the limit arrived without a newline.
    TooLarge,
}

/// Reads one request line from `reader` into `line`, after what an
/// earlier call cut short by an I/O error (a read timeout) left there,
/// reading at most `limit` bytes before the newline. The caller checks
/// the bytes for UTF-8 once the line is whole, so a timeout inside a
/// multi-byte character loses nothing.
///
/// # Errors
///
/// Propagates the reader's I/O errors; what was read stays in `line`.
fn read_request_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    limit: usize,
) -> std::io::Result<RequestLine> {
    let room = (limit + 1).saturating_sub(line.len()) as u64;
    reader.take(room).read_until(b'\n', line)?;
    Ok(match line.last() {
        None => RequestLine::Eof,
        Some(b'\n') => RequestLine::Complete,
        _ if line.len() > limit => RequestLine::TooLarge,
        _ => RequestLine::Complete,
    })
}

/// The daemon's shared state: the shard pool and the executor that runs
/// every rerun. Transport-independent — the Unix-socket [`Server`] and
/// in-process tests both drive it through [`ServeState::handle_line`].
#[derive(Debug)]
pub struct ServeState {
    exec: Arc<Executor>,
    /// Bounds concurrent builds to the worker count.
    gate: BuildGate,
    /// root hash → shard. The warm pool.
    shards: Mutex<HashMap<u64, Arc<ProjectShard>>>,
    /// project name → root hash (names are aliases into the pool).
    names: Mutex<HashMap<String, u64>>,
    /// On-disk store shared with every shard session. Project records
    /// persisted here let a restarted daemon rebuild its warm pool.
    store: Option<Arc<Store>>,
    requests: AtomicU64,
    /// Fault-injection hook: when nonzero, the first attempt of every
    /// rerun arms its cancel token to trip at the N-th checkpoint, as if
    /// a superseding edit had landed exactly at that stage boundary.
    cancel_every: AtomicU64,
    /// When this daemon state was created (drives `status`'s uptime).
    start: Instant,
}

/// Sleeps `dur` in small slices, returning early (true) the moment
/// `cancel` trips — the modeled client-blocking compile is a cancel
/// point too, so a superseded rerun stops burning its build-gate slot.
fn sleep_cancellable(dur: Duration, cancel: &CancelToken) -> bool {
    let deadline = Instant::now() + dur;
    loop {
        if cancel.is_cancelled() {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1).min(deadline - now));
    }
}

fn hash_request_tree(
    header: &str,
    sources: &[String],
    files: &std::collections::BTreeMap<String, JsonValue>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(header);
    for s in sources {
        h.write_str(s);
    }
    for (path, text) in files {
        h.write_str(path);
        h.write_u64(hash::hash_str(text.as_str().unwrap_or_default()));
    }
    h.finish()
}

fn str_field<'a>(req: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

impl ServeState {
    /// A daemon state whose reruns execute on `exec`, persisting to the
    /// process-global store (if `YALLA_CACHE_DIR` is set).
    pub fn new(exec: Executor) -> Self {
        ServeState::with_store(exec, Store::global())
    }

    /// A daemon state backed by an explicit on-disk store. Project
    /// records found in the store rebuild the warm shard pool, so a
    /// daemon restarted on the same cache dir — even after a crash —
    /// serves its first rerun per project disk-warm.
    pub fn with_store(exec: Executor, store: Option<Arc<Store>>) -> Self {
        let gate = BuildGate::new(exec.workers());
        let state = ServeState {
            exec: Arc::new(exec),
            gate,
            shards: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            store,
            requests: AtomicU64::new(0),
            cancel_every: AtomicU64::new(0),
            start: Instant::now(),
        };
        state.rebuild_pool();
        state
    }

    /// Arms cancel-injection: when `n > 0`, the first attempt of every
    /// rerun trips its own cancel token at the `n`-th checkpoint — the
    /// same code path a superseding edit takes, but landing at a
    /// deterministic stage boundary regardless of thread timing. The
    /// rerun then retries and completes normally (`0` disarms). Test and
    /// fuzz hook.
    pub fn set_cancel_every(&self, n: u64) {
        self.cancel_every.store(n, Ordering::Relaxed);
    }

    /// Rebuilds the shard pool from project records persisted in the
    /// store. Undecodable records (torn writes, format bumps) are
    /// skipped — the project is simply cold until reopened. Each rebuilt
    /// shard gets a background-priority warm-up prefetch: idle workers
    /// pre-run its pipeline disk-warm so the first client rerun is
    /// memory-warm, but the first real rerun (or edit) on the shard
    /// cancels the prefetch and takes over.
    fn rebuild_pool(&self) {
        let Some(store) = &self.store else { return };
        let mut rebuilt: Vec<Arc<ProjectShard>> = Vec::new();
        {
            let mut shards = self.shards.lock().expect("shards lock");
            let mut name_map = self.names.lock().expect("names lock");
            for key in store.keys(NS_SERVE) {
                let Some(record) = store
                    .get_view(NS_SERVE, key)
                    .and_then(|view| ProjectRecord::decode(&view))
                else {
                    continue;
                };
                name_map.insert(record.name.clone(), key);
                let shard = Arc::clone(shards.entry(key).or_insert_with(|| {
                    let warmup = Some(CancelToken::new());
                    ProjectShard::new(key, record, Some(Arc::clone(store)), warmup)
                }));
                rebuilt.push(shard);
            }
            if !shards.is_empty() {
                yalla_obs::gauge(names::SERVE_SHARDS, shards.len() as i64);
            }
        }
        // Queue the prefetches outside the pool locks. The task holds the
        // executor weakly: a queued prefetch must not keep the executor
        // (and so the daemon) alive, and one draining at shutdown simply
        // no-ops.
        for shard in rebuilt {
            let Some(token) = shard.warmup.lock().expect("warmup lock").clone() else {
                continue;
            };
            let exec = Arc::downgrade(&self.exec);
            self.exec.spawn_background(move || {
                let Some(exec) = exec.upgrade() else { return };
                if token.is_cancelled() {
                    return;
                }
                // A client rerun owns the session lock if it got here
                // first — the prefetch is then pointless, not worth
                // waiting for.
                let Ok(mut session) = shard.session.try_lock() else {
                    return;
                };
                let run = session.rerun_with(&exec, &token, Priority::Background);
                drop(session);
                if let Ok(run) = run {
                    yalla_obs::count(names::SERVE_PREFETCHES, 1);
                    let summary = run.summary_line();
                    let mut pubd = shard.published.lock().expect("published lock");
                    if pubd.last.is_none() {
                        pubd.last_summary = summary;
                        pubd.last = Some(run.result);
                    }
                }
            });
        }
    }

    /// Persists a shard's project record (name, options, current file
    /// tree) so a restarted daemon can rebuild this shard. Best-effort:
    /// a full or read-only store just means a cold restart.
    fn persist_project(&self, shard: &ProjectShard, session: &Session) {
        let Some(store) = &self.store else { return };
        let opts = session.options();
        let record = ProjectRecord {
            name: shard.name.clone(),
            header: opts.header.clone(),
            sources: opts.sources.clone(),
            build_latency: shard.build_latency,
            files: session
                .vfs()
                .iter()
                .map(|(_, f)| (f.path.clone(), f.text.clone()))
                .collect(),
        };
        store.put(NS_SERVE, shard.root_hash, &record.encode());
    }

    /// The executor reruns are scheduled on.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Total requests handled so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    fn shard(&self, project: &str) -> Result<Arc<ProjectShard>, String> {
        let root = *self
            .names
            .lock()
            .expect("names lock")
            .get(project)
            .ok_or_else(|| format!("unknown project `{project}` (open it first)"))?;
        Ok(Arc::clone(
            self.shards
                .lock()
                .expect("shards lock")
                .get(&root)
                .expect("named shard exists"),
        ))
    }

    /// Handles one request line and produces one response line.
    ///
    /// Operations (`op` field):
    ///
    /// | op         | fields                                   | effect |
    /// |------------|------------------------------------------|--------|
    /// | `open`     | `project`, `header`, `sources`, `files`, optional `build_latency_us` | create or re-attach a warm shard |
    /// | `edit`     | `project`, `path`, `text`                | queue an edit (batched) |
    /// | `rerun`    | `project`                                | apply queued edits, run the pipeline once |
    /// | `get`      | `project`, `artifact` (`lightweight`, `wrappers`, `report`, `source:<path>`) | read an artifact |
    /// | `status`   | —                                        | shard inventory, uptime, per-class request totals, store hit-ratio |
    /// | `metrics`  | —                                        | Prometheus-text counters/gauges/latency quantiles |
    /// | `shutdown` | —                                        | stop the daemon |
    ///
    /// Every response carries a `"req"` field: the request's id, also
    /// installed as the ambient [`yalla_obs::reqid`] while the handler
    /// runs so downstream telemetry joins back to this request.
    pub fn handle_line(&self, line: &str) -> Response {
        let req_id = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        let _ambient = yalla_obs::reqid::set(req_id);
        yalla_obs::count(names::SERVE_REQUESTS, 1);
        let started = Instant::now();
        let (class, mut response) = self.dispatch(line);
        let dur = started.elapsed();
        if let Some(op) = class {
            yalla_obs::count(&names::serve_requests(op), 1);
            yalla_obs::observe(&names::latency_serve(op), dur);
        }
        yalla_obs::event("request", || {
            let ok = !response.text.starts_with("{\"ok\": false");
            [
                ("op", class.unwrap_or("invalid").into()),
                ("ok", i64::from(ok).into()),
                ("dur_us", (dur.as_micros() as i64).into()),
            ]
        });
        // Stamp the request id as the first field of the response object
        // (every response is a JSON object, so this is a pure prefix
        // rewrite).
        if let Some(rest) = response.text.strip_prefix('{') {
            response.text = format!("{{\"req\": {req_id}, {rest}");
        }
        response
    }

    /// Parses and routes one request; returns the request class (the
    /// `op`, when recognized) alongside the response.
    fn dispatch(&self, line: &str) -> (Option<&'static str>, Response) {
        let req = match yalla_obs::json::parse(line) {
            Ok(v) => v,
            Err(e) => return (None, Response::error(format!("bad request JSON: {e}"))),
        };
        let op = match str_field(&req, "op") {
            Ok(op) => op.to_string(),
            Err(e) => return (None, Response::error(e)),
        };
        let _span = yalla_obs::span("serve", &op);
        match op.as_str() {
            "open" => (Some("open"), self.handle_open(&req)),
            "edit" => (Some("edit"), self.handle_edit(&req)),
            "rerun" => (Some("rerun"), self.handle_rerun(&req)),
            "get" => (Some("get"), self.handle_get(&req)),
            "status" => (Some("status"), self.handle_status()),
            "metrics" => (Some("metrics"), self.handle_metrics()),
            "shutdown" => (
                Some("shutdown"),
                Response {
                    text: "{\"ok\": true, \"op\": \"shutdown\"}".to_string(),
                    shutdown: true,
                },
            ),
            other => (None, Response::error(format!("unknown op `{other}`"))),
        }
    }

    fn handle_open(&self, req: &JsonValue) -> Response {
        let project = match str_field(req, "project") {
            Ok(p) => p.to_string(),
            Err(e) => return Response::error(e),
        };
        let header = match str_field(req, "header") {
            Ok(h) => h.to_string(),
            Err(e) => return Response::error(e),
        };
        let sources: Vec<String> = match req.get("sources").and_then(JsonValue::as_array) {
            Some(items) => items
                .iter()
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect(),
            None => return Response::error("missing array field `sources`"),
        };
        let files = match req.get("files").and_then(JsonValue::entries) {
            Some(map) => map,
            None => return Response::error("missing object field `files`"),
        };
        let build_latency = Duration::from_micros(
            req.get("build_latency_us")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
                .max(0.0) as u64,
        );

        let root_hash = hash_request_tree(&header, &sources, files);
        let mut shards = self.shards.lock().expect("shards lock");
        let created = !shards.contains_key(&root_hash);
        let mut new_shard = None;
        if created {
            let record = ProjectRecord {
                name: project.clone(),
                header,
                sources,
                build_latency,
                files: files
                    .iter()
                    .map(|(path, text)| (path.clone(), text.as_str().unwrap_or_default().into()))
                    .collect(),
            };
            let shard = ProjectShard::new(root_hash, record, self.store.clone(), None);
            shards.insert(root_hash, Arc::clone(&shard));
            new_shard = Some(shard);
            yalla_obs::gauge(names::SERVE_SHARDS, shards.len() as i64);
        }
        drop(shards);
        if let Some(shard) = new_shard {
            if let Some(store) = &self.store {
                if !store.contains(NS_SERVE, root_hash) {
                    let session = shard.session.lock().expect("session lock");
                    self.persist_project(&shard, &session);
                }
            }
        }
        self.names
            .lock()
            .expect("names lock")
            .insert(project.clone(), root_hash);
        Response::ok(format!(
            "{{\"ok\": true, \"op\": \"open\", \"project\": \"{}\", \"shard\": \"{root_hash:016x}\", \"created\": {created}}}",
            escape_json(&project)
        ))
    }

    fn handle_edit(&self, req: &JsonValue) -> Response {
        let project = match str_field(req, "project") {
            Ok(p) => p,
            Err(e) => return Response::error(e),
        };
        let path = match str_field(req, "path") {
            Ok(p) => p.to_string(),
            Err(e) => return Response::error(e),
        };
        let text = match str_field(req, "text") {
            Ok(t) => t.to_string(),
            Err(e) => return Response::error(e),
        };
        let shard = match self.shard(project) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        // The file set is fixed at open, so validation never needs the
        // session. The only lock this handler takes is the edit queue's —
        // a few pushes and compares — so edits return in microseconds
        // even while a multi-second rerun holds the session.
        if !shard.files.contains(&path) {
            return Response::error(format!("unknown file `{path}` in project `{project}`"));
        }
        let mut edits = shard.edits.lock().expect("edits lock");
        edits.pending.push((path, text));
        edits.generation += 1;
        let pending = edits.pending.len();
        // Supersede: an in-flight rerun covering an older generation is
        // now building stale input. Cancel it — it stops at its next
        // stage boundary and retries with this edit folded in.
        let mut superseded = false;
        if let Some((token, covers)) = &edits.active {
            if *covers < edits.generation && !token.is_cancelled() {
                token.cancel();
                superseded = true;
            }
        }
        drop(edits);
        yalla_obs::count(names::SERVE_EDITS_BATCHED, 1);
        Response::ok(format!(
            "{{\"ok\": true, \"op\": \"edit\", \"pending\": {pending}, \"superseded\": {superseded}}}"
        ))
    }

    fn handle_rerun(&self, req: &JsonValue) -> Response {
        let project = match str_field(req, "project") {
            Ok(p) => p,
            Err(e) => return Response::error(e),
        };
        let shard = match self.shard(project) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        // A client rerun owns the shard: cancel any background warm-up
        // prefetch so it yields the session at its next stage boundary.
        if let Some(token) = shard.warmup.lock().expect("warmup lock").take() {
            token.cancel();
        }
        // The session lock (held through the whole retry loop) serializes
        // concurrent reruns on one project; the build gate bounds
        // cross-project build concurrency to the worker count. `edit`,
        // `get`, `status`, and `metrics` use their own locks and never
        // wait here. The modeled build latency and the pipeline run stay
        // on this handler thread — only the session's short stage tasks
        // ever enter the pool, so a worker mid-wait can never pick up
        // another project's multi-second build and stall its own.
        let mut session = shard.session.lock().expect("session lock");
        let mut edits_applied = 0usize;
        let mut superseded_rounds = 0u64;
        let clear_active = || {
            shard.edits.lock().expect("edits lock").active = None;
        };
        loop {
            let attempt = superseded_rounds + 1;
            // Take the queue and register this attempt as cancellable.
            // The final attempt (after MAX_SUPERSEDES cancelled rounds)
            // is not registered: later edits can no longer supersede it,
            // they just batch for the next rerun — a continuous edit
            // stream cannot livelock the client.
            let (batch, target_gen, token) = {
                let mut edits = shard.edits.lock().expect("edits lock");
                let batch = std::mem::take(&mut edits.pending);
                let token = CancelToken::new();
                if attempt == 1 {
                    let inject = self.cancel_every.load(Ordering::Relaxed);
                    if inject > 0 {
                        token.trip_after(inject);
                    }
                }
                edits.active = if attempt <= MAX_SUPERSEDES {
                    Some((token.clone(), edits.generation))
                } else {
                    None
                };
                (batch, edits.generation, token)
            };
            if attempt > 1 && !batch.is_empty() {
                // Edits absorbed by a cancelled round — coalescing saved
                // a whole pipeline pass per edit beyond plain batching.
                yalla_obs::count(names::SERVE_EDITS_COALESCED, batch.len() as i64);
            }
            edits_applied += batch.len();
            for (path, text) in batch {
                if let Err(e) = session.apply_edit(&path, text) {
                    clear_active();
                    return Response::error(e.to_string());
                }
            }
            let attempt_started = Instant::now();
            self.gate.acquire();
            // The modeled client-blocking compile (Figure 6), slept under
            // the gate so a one-slot daemon genuinely serializes builds —
            // but sliced, so a superseding edit aborts the sleep too.
            let cancelled_in_sleep =
                !shard.build_latency.is_zero() && sleep_cancellable(shard.build_latency, &token);
            let run = if cancelled_in_sleep {
                Err(YallaError::Cancelled)
            } else {
                session.rerun_with(&self.exec, &token, Priority::Interactive)
            };
            self.gate.release();
            match run {
                Ok(run) => {
                    clear_active();
                    yalla_obs::count(names::SERVE_RERUNS, 1);
                    let summary = run.summary_line();
                    let fully_cached = run.fully_cached();
                    let reruns = {
                        let mut pubd = shard.published.lock().expect("published lock");
                        pubd.reruns += 1;
                        pubd.generation = pubd.generation.max(target_gen);
                        pubd.last_summary = summary.clone();
                        pubd.last = Some(run.result);
                        pubd.reruns
                    };
                    // Keep the on-disk project record current so a
                    // crashed daemon restarts with this shard's latest
                    // file tree. By the time the rerun response is
                    // written, the record is durable — a SIGKILL any
                    // moment after still recovers.
                    if let Some(store) = &self.store {
                        if edits_applied > 0 || !store.contains(NS_SERVE, shard.root_hash) {
                            self.persist_project(&shard, &session);
                        }
                    }
                    return Response::ok(format!(
                        "{{\"ok\": true, \"op\": \"rerun\", \"reruns\": {reruns}, \
                         \"edits_applied\": {edits_applied}, \"superseded\": {superseded_rounds}, \
                         \"generation\": {target_gen}, \"fully_cached\": {fully_cached}, \
                         \"summary\": \"{}\"}}",
                        escape_json(&summary)
                    ));
                }
                Err(YallaError::Cancelled) => {
                    // Superseded (or injected): the attempt stopped at a
                    // stage boundary, published nothing, and left every
                    // cache key-consistent. Fold the newer edits in and
                    // go again.
                    clear_active();
                    superseded_rounds += 1;
                    yalla_obs::count(names::SERVE_CANCELLED, 1);
                    yalla_obs::observe(
                        names::LATENCY_SERVE_RERUN_CANCELLED,
                        attempt_started.elapsed(),
                    );
                    shard.published.lock().expect("published lock").cancelled += 1;
                    yalla_obs::event("cancel", || {
                        [
                            ("project", shard.name.as_str().into()),
                            ("generation", (target_gen as i64).into()),
                            ("checkpoints", (token.checkpoints() as i64).into()),
                        ]
                    });
                }
                Err(e) => {
                    clear_active();
                    return Response::error(e.to_string());
                }
            }
        }
    }

    fn handle_get(&self, req: &JsonValue) -> Response {
        let project = match str_field(req, "project") {
            Ok(p) => p,
            Err(e) => return Response::error(e),
        };
        let artifact = match str_field(req, "artifact") {
            Ok(a) => a.to_string(),
            Err(e) => return Response::error(e),
        };
        let shard = match self.shard(project) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        // Reads come off the published slot — a rerun mid-pipeline never
        // blocks a `get`, which simply sees the previous run's artifacts.
        let published = shard.published.lock().expect("published lock");
        let Some(last) = &published.last else {
            return Response::error(format!("project `{project}` has no completed run"));
        };
        let text = match artifact.as_str() {
            "lightweight" => last.lightweight_header.clone(),
            "wrappers" => last.wrappers_file.clone(),
            "report" => format!("{:?}", last.report.verification),
            other => match other.strip_prefix("source:") {
                Some(path) => match last.rewritten_sources.get(path) {
                    Some(text) => text.clone(),
                    None => return Response::error(format!("no rewritten source `{path}`")),
                },
                None => return Response::error(format!("unknown artifact `{other}`")),
            },
        };
        Response::ok(format!(
            "{{\"ok\": true, \"op\": \"get\", \"artifact\": \"{}\", \"text\": \"{}\"}}",
            escape_json(&artifact),
            escape_json(&text)
        ))
    }

    fn handle_status(&self) -> Response {
        let shards = self.shards.lock().expect("shards lock");
        let mut rows: Vec<String> = Vec::with_capacity(shards.len());
        let mut sorted: Vec<&Arc<ProjectShard>> = shards.values().collect();
        sorted.sort_by(|a, b| a.name.cmp(&b.name));
        for shard in sorted {
            // Queue + published locks only: status stays microseconds
            // even while a rerun holds the session. `generation` is the
            // last *published* generation — a cancelled attempt never
            // shows up here as current.
            let pending = shard.edits.lock().expect("edits lock").pending.len();
            let pubd = shard.published.lock().expect("published lock");
            rows.push(format!(
                "{{\"project\": \"{}\", \"shard\": \"{:016x}\", \"reruns\": {}, \"cancelled\": {}, \"generation\": {}, \"pending_edits\": {pending}, \"last_summary\": \"{}\"}}",
                escape_json(&shard.name),
                shard.root_hash,
                pubd.reruns,
                pubd.cancelled,
                pubd.generation,
                escape_json(&pubd.last_summary)
            ));
        }
        drop(shards);
        let metrics = yalla_obs::global().metrics();
        let by_class: Vec<String> = names::REQUEST_CLASSES
            .iter()
            .map(|op| {
                format!(
                    "\"{op}\": {}",
                    metrics.counter(&names::serve_requests(op)).get()
                )
            })
            .collect();
        let store_hits = metrics.counter(names::STORE_HITS).get();
        let store_lookups = store_hits + metrics.counter(names::STORE_MISSES).get();
        let hit_ratio = if store_lookups > 0 {
            store_hits as f64 / store_lookups as f64
        } else {
            0.0
        };
        Response::ok(format!(
            "{{\"ok\": true, \"op\": \"status\", \"workers\": {}, \"requests\": {}, \
             \"uptime_us\": {}, \"requests_by_class\": {{{}}}, \
             \"store_lookups\": {store_lookups}, \"store_hit_ratio\": {hit_ratio:.4}, \
             \"shards\": [{}]}}",
            self.exec.workers(),
            self.requests(),
            self.start.elapsed().as_micros(),
            by_class.join(", "),
            rows.join(", ")
        ))
    }

    /// The `metrics` op: the live telemetry state — counters, gauges,
    /// and latency-histogram quantiles — rendered in Prometheus text
    /// exposition format. The snapshot is plain atomic reads; no worker
    /// pauses for a scrape.
    fn handle_metrics(&self) -> Response {
        let text = yalla_obs::export::prometheus(yalla_obs::global());
        Response::ok(format!(
            "{{\"ok\": true, \"op\": \"metrics\", \"text\": \"{}\"}}",
            escape_json(&text)
        ))
    }

    /// Number of warm shards (`n` distinct project trees).
    pub fn shard_count(&self) -> usize {
        self.shards.lock().expect("shards lock").len()
    }
}

#[cfg(unix)]
pub use unix_server::{client_request, Server};

#[cfg(unix)]
mod unix_server {
    use super::*;
    use std::io::{BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::{Path, PathBuf};
    use std::thread::JoinHandle;

    /// A running `yalla serve` daemon on a Unix socket.
    ///
    /// One thread accepts connections; each connection gets a handler
    /// thread reading request lines and writing response lines in order.
    /// A `shutdown` request (from any client) stops the accept loop and
    /// joins every handler.
    #[derive(Debug)]
    pub struct Server {
        state: Arc<ServeState>,
        socket: PathBuf,
        stop: Arc<AtomicBool>,
        accept_thread: Option<JoinHandle<()>>,
    }

    impl Server {
        /// Binds `socket` (removing any stale file) and starts serving.
        /// Reruns execute on `exec`. Persists to the process-global store
        /// (if `YALLA_CACHE_DIR` is set).
        ///
        /// # Errors
        ///
        /// Propagates socket bind failures.
        pub fn start(socket: &Path, exec: Executor) -> std::io::Result<Server> {
            Server::start_with_store(socket, exec, Store::global())
        }

        /// Like [`Server::start`] with an explicit on-disk store: the
        /// warm pool is rebuilt from persisted project records before the
        /// socket accepts its first connection.
        ///
        /// # Errors
        ///
        /// Propagates socket bind failures.
        pub fn start_with_store(
            socket: &Path,
            exec: Executor,
            store: Option<Arc<Store>>,
        ) -> std::io::Result<Server> {
            let _ = std::fs::remove_file(socket);
            let listener = UnixListener::bind(socket)?;
            listener.set_nonblocking(true)?;
            let state = Arc::new(ServeState::with_store(exec, store));
            let stop = Arc::new(AtomicBool::new(false));
            let accept_thread = {
                let state = Arc::clone(&state);
                let stop = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("yalla-serve-accept".into())
                    .spawn(move || accept_loop(listener, state, stop))
                    .expect("spawn accept thread")
            };
            Ok(Server {
                state,
                socket: socket.to_path_buf(),
                stop,
                accept_thread: Some(accept_thread),
            })
        }

        /// The daemon's shared state (for in-process inspection).
        pub fn state(&self) -> &Arc<ServeState> {
            &self.state
        }

        /// The socket path this server listens on.
        pub fn socket(&self) -> &Path {
            &self.socket
        }

        /// True once a `shutdown` request was handled.
        pub fn is_stopped(&self) -> bool {
            self.stop.load(Ordering::Acquire)
        }

        /// Requests shutdown (as if a client had sent `shutdown`).
        pub fn shutdown(&self) {
            self.stop.store(true, Ordering::Release);
        }

        /// Blocks until the accept loop and every connection handler have
        /// exited. Call after [`Server::shutdown`] (or after a client sent
        /// `shutdown`) for a clean stop.
        pub fn join(mut self) {
            if let Some(handle) = self.accept_thread.take() {
                let _ = handle.join();
            }
            let _ = std::fs::remove_file(&self.socket);
        }
    }

    impl Drop for Server {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::Release);
            if let Some(handle) = self.accept_thread.take() {
                let _ = handle.join();
            }
            let _ = std::fs::remove_file(&self.socket);
        }
    }

    fn accept_loop(listener: UnixListener, state: Arc<ServeState>, stop: Arc<AtomicBool>) {
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !stop.load(Ordering::Acquire) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&state);
                    let stop = Arc::clone(&stop);
                    handlers.push(
                        std::thread::Builder::new()
                            .name("yalla-serve-conn".into())
                            .spawn(move || handle_connection(stream, state, stop))
                            .expect("spawn connection handler"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        stop.store(true, Ordering::Release);
        for handle in handlers {
            let _ = handle.join();
        }
    }

    fn handle_connection(stream: UnixStream, state: Arc<ServeState>, stop: Arc<AtomicBool>) {
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        let mut respond = |response: &Response| {
            writer
                .write_all(response.text.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .and_then(|()| writer.flush())
                .is_ok()
        };
        loop {
            match read_request_line(&mut reader, &mut line, MAX_REQUEST_BYTES) {
                Ok(RequestLine::Eof) => break, // client hung up
                Ok(RequestLine::TooLarge) => {
                    // The rest of the line is never read: answer, then
                    // close this connection only.
                    respond(&Response::error(format!(
                        "request too large: more than {MAX_REQUEST_BYTES} bytes in one line"
                    )));
                    break;
                }
                Ok(RequestLine::Complete) => {
                    let response = match std::str::from_utf8(&line).map(str::trim) {
                        Ok("") => None,
                        Ok(text) => Some(state.handle_line(text)),
                        Err(_) => Some(Response::error("request is not UTF-8")),
                    };
                    line.clear();
                    if let Some(response) = response {
                        if !respond(&response) {
                            break;
                        }
                        if response.shutdown {
                            stop.store(true, Ordering::Release);
                            break;
                        }
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Partial line (if any) stays buffered in `line`.
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// Client helper: sends one request line on `stream` and reads one
    /// response line, parsed as JSON. Used by tests and by the socket
    /// load driver behind the `latency` and `throughput` benches.
    ///
    /// # Errors
    ///
    /// Returns I/O failures and response-parse failures as strings.
    pub fn client_request(stream: &mut UnixStream, request: &str) -> Result<JsonValue, String> {
        stream
            .write_all(request.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
        yalla_obs::json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_req(project: &str) -> String {
        format!(
            "{{\"op\": \"open\", \"project\": \"{project}\", \"header\": \"lib.hpp\", \
             \"sources\": [\"main.cpp\"], \"files\": {{\
             \"lib.hpp\": \"namespace K {{ class W {{ public: int id() const; }}; }}\\n\", \
             \"main.cpp\": \"#include \\\"lib.hpp\\\"\\nint f(K::W& w) {{ return w.id(); }}\\n\"}}}}"
        )
    }

    fn state() -> ServeState {
        ServeState::new(Executor::new(2))
    }

    /// Hands out `data` at most `chunk` bytes per read, and fails once
    /// with a timeout when it reaches `stall_at`.
    struct Trickle {
        data: Vec<u8>,
        at: usize,
        chunk: usize,
        stall_at: Option<usize>,
    }

    impl std::io::Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.stall_at == Some(self.at) {
                self.stall_at = None;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let end = self.data.len().min(self.at + self.chunk);
            let end = self.stall_at.map_or(end, |s| end.min(s.max(self.at)));
            let n = (end - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    fn trickle(data: &str, chunk: usize, stall_at: Option<usize>) -> std::io::BufReader<Trickle> {
        let data = data.as_bytes().to_vec();
        std::io::BufReader::with_capacity(
            chunk,
            Trickle {
                data,
                at: 0,
                chunk,
                stall_at,
            },
        )
    }

    /// Every line `read_request_line` reads with `limit`, as text.
    fn lines(reader: &mut impl std::io::BufRead, limit: usize) -> Vec<Result<String, RequestLine>> {
        let mut out = Vec::new();
        let mut line = Vec::new();
        loop {
            match read_request_line(reader, &mut line, limit) {
                Ok(RequestLine::Complete) => {
                    out.push(Ok(String::from_utf8(std::mem::take(&mut line)).unwrap()));
                }
                Ok(RequestLine::Eof) => return out,
                Ok(other) => {
                    out.push(Err(other));
                    return out;
                }
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
        }
    }

    #[test]
    fn request_lines_are_read_up_to_the_limit_across_reads() {
        for chunk in [1, 2, 64] {
            assert_eq!(
                lines(&mut trickle("ab\ncdef\ngh", chunk, None), 4),
                [Ok("ab\n".into()), Ok("cdef\n".into()), Ok("gh".into())],
                "chunk {chunk}"
            );
            assert_eq!(
                lines(&mut trickle("ab\ncdefg\nhi\n", chunk, None), 4),
                [Ok("ab\n".into()), Err(RequestLine::TooLarge)],
                "chunk {chunk}"
            );
            assert_eq!(
                lines(&mut trickle("abcdefgh", chunk, None), 4),
                [Err(RequestLine::TooLarge)],
                "chunk {chunk}"
            );
        }
        assert!(lines(&mut trickle("", 4, None), 4).is_empty());
    }

    #[test]
    fn a_timeout_inside_a_character_keeps_the_partial_line() {
        // The stall falls between the two bytes of `é`.
        let mut reader = trickle("{\"a\": \"é\"}\nx\n", 64, Some(8));
        assert_eq!(
            lines(&mut reader, 64),
            [Ok("{\"a\": \"é\"}\n".into()), Ok("x\n".into())]
        );
    }

    #[test]
    fn open_rerun_get_roundtrip() {
        let state = state();
        let r = state.handle_line(&open_req("p1"));
        assert!(r.text.contains("\"created\": true"), "{}", r.text);
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        assert!(r.text.contains("\"ok\": true"), "{}", r.text);
        assert!(r.text.contains("\"fully_cached\": false"), "{}", r.text);
        let r = state
            .handle_line("{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"lightweight\"}");
        assert!(r.text.contains("class W;"), "{}", r.text);
        // A second rerun with no edits is fully cached.
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        assert!(r.text.contains("\"fully_cached\": true"), "{}", r.text);
    }

    #[test]
    fn edits_batch_until_the_next_rerun() {
        let state = state();
        state.handle_line(&open_req("p1"));
        state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        let r = state.handle_line(
            "{\"op\": \"edit\", \"project\": \"p1\", \"path\": \"main.cpp\", \
             \"text\": \"#include \\\"lib.hpp\\\"\\nint g(K::W& w) { return w.id() + 1; }\\n\"}",
        );
        assert!(r.text.contains("\"pending\": 1"), "{}", r.text);
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        assert!(r.text.contains("\"edits_applied\": 1"), "{}", r.text);
        let r = state.handle_line(
            "{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"source:main.cpp\"}",
        );
        assert!(r.text.contains("int g("), "{}", r.text);
    }

    #[test]
    fn identical_trees_share_a_shard() {
        let state = state();
        let a = state.handle_line(&open_req("alpha"));
        let b = state.handle_line(&open_req("beta"));
        assert!(a.text.contains("\"created\": true"));
        assert!(b.text.contains("\"created\": false"), "{}", b.text);
        assert_eq!(state.shard_count(), 1);
        // Warm state carries across names: a rerun under `alpha` makes the
        // first `beta` rerun fully cached.
        state.handle_line("{\"op\": \"rerun\", \"project\": \"alpha\"}");
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"beta\"}");
        assert!(r.text.contains("\"fully_cached\": true"), "{}", r.text);
    }

    #[test]
    fn unknown_project_and_bad_json_are_rejected() {
        let state = state();
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"nope\"}");
        assert!(r.text.contains("\"ok\": false"));
        let r = state.handle_line("this is not json");
        assert!(r.text.contains("\"ok\": false"));
        let r = state.handle_line("{\"op\": \"frobnicate\"}");
        assert!(r.text.contains("unknown op"));
    }

    #[test]
    fn edits_to_unknown_files_are_rejected_cleanly() {
        let state = state();
        state.handle_line(&open_req("p1"));
        let r = state.handle_line(
            "{\"op\": \"edit\", \"project\": \"p1\", \"path\": \"ghost.cpp\", \"text\": \"x\"}",
        );
        assert!(r.text.contains("\"ok\": false"), "{}", r.text);
        assert!(r.text.contains("ghost.cpp"), "{}", r.text);
    }

    #[test]
    fn status_lists_shards_sorted_by_name() {
        let state = state();
        state.handle_line(&open_req("zz"));
        let r = state.handle_line("{\"op\": \"status\"}");
        assert!(r.text.contains("\"workers\": 2"), "{}", r.text);
        assert!(r.text.contains("\"project\": \"zz\""), "{}", r.text);
        let parsed = yalla_obs::json::parse(&r.text).expect("status is valid JSON");
        assert_eq!(
            parsed
                .get("shards")
                .and_then(JsonValue::as_array)
                .map(<[JsonValue]>::len),
            Some(1)
        );
    }

    #[test]
    fn injected_cancellation_retries_and_reports_supersede() {
        let state = state();
        state.handle_line(&open_req("p1"));
        // Trip the first attempt's token at its first checkpoint (run
        // entry) — the same path a superseding edit takes, landed
        // deterministically. The rerun must absorb the cancel, retry,
        // and still answer correctly.
        state.set_cancel_every(1);
        let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        state.set_cancel_every(0);
        assert!(r.text.contains("\"ok\": true"), "{}", r.text);
        assert!(r.text.contains("\"superseded\": 1"), "{}", r.text);
        let r = state
            .handle_line("{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"lightweight\"}");
        assert!(r.text.contains("class W;"), "{}", r.text);
        let status = state.handle_line("{\"op\": \"status\"}");
        assert!(status.text.contains("\"cancelled\": 1"), "{}", status.text);
        // The cancelled attempt published nothing: exactly one rerun.
        assert!(status.text.contains("\"reruns\": 1"), "{}", status.text);
    }

    #[test]
    fn cancelled_attempts_leave_caches_byte_consistent() {
        // A run cancelled at every possible boundary, then a clean run:
        // the artifacts must be byte-identical to a never-cancelled
        // shard's. Cancel points only stop *between* stages, so no
        // half-written artifact can ever be published or cached.
        let clean = state();
        clean.handle_line(&open_req("p1"));
        clean.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        let want = clean
            .handle_line("{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"lightweight\"}");

        let state = state();
        state.handle_line(&open_req("p1"));
        for boundary in 1..=8 {
            state.set_cancel_every(boundary);
            let r = state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
            assert!(r.text.contains("\"ok\": true"), "{}", r.text);
        }
        state.set_cancel_every(0);
        let got = state
            .handle_line("{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"lightweight\"}");
        let artifact = |r: &Response| {
            yalla_obs::json::parse(&r.text)
                .expect("valid JSON")
                .get("text")
                .and_then(JsonValue::as_str)
                .expect("artifact text")
                .to_string()
        };
        assert_eq!(artifact(&got), artifact(&want));
    }

    fn temp_store(tag: &str) -> Arc<Store> {
        let dir =
            std::env::temp_dir().join(format!("yalla-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(Store::open(dir).expect("open store"))
    }

    #[test]
    fn warm_pool_rebuilds_from_store_across_daemon_generations() {
        let store = temp_store("restart");
        let dir = store.dir().to_path_buf();

        // Generation 1: open, warm up, edit, rerun. The project record and
        // the run bundle are on disk by the time the rerun responds.
        let gen1 = ServeState::with_store(Executor::new(2), Some(Arc::clone(&store)));
        gen1.handle_line(&open_req("p1"));
        gen1.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        gen1.handle_line(
            "{\"op\": \"edit\", \"project\": \"p1\", \"path\": \"main.cpp\", \
             \"text\": \"#include \\\"lib.hpp\\\"\\nint g(K::W& w) { return w.id() + 7; }\\n\"}",
        );
        gen1.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        let want = gen1.handle_line(
            "{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"source:main.cpp\"}",
        );
        drop(gen1); // daemon "dies"; only the cache dir survives

        // Generation 2: a fresh state on the same dir rebuilds the pool
        // before any request, and its first rerun is fully disk-warm.
        let gen2 = ServeState::with_store(
            Executor::new(2),
            Some(Arc::new(Store::open(&dir).expect("reopen store"))),
        );
        assert_eq!(gen2.shard_count(), 1, "pool rebuilt from project records");
        let r = gen2.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        assert!(r.text.contains("\"ok\": true"), "{}", r.text);
        assert!(
            r.text.contains("\"fully_cached\": true"),
            "first rerun after restart should be disk-warm: {}",
            r.text
        );
        let got = gen2.handle_line(
            "{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"source:main.cpp\"}",
        );
        assert!(
            got.text.contains("+ 7"),
            "edited tree survived: {}",
            got.text
        );
        // Compare the artifact payloads, not the raw lines — request ids
        // differ across daemon generations by design.
        let artifact = |r: &Response| {
            yalla_obs::json::parse(&r.text)
                .expect("valid JSON")
                .get("text")
                .and_then(JsonValue::as_str)
                .expect("artifact text")
                .to_string()
        };
        assert_eq!(
            artifact(&got),
            artifact(&want),
            "artifacts identical across restart"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_project_records_are_skipped_not_fatal() {
        let store = temp_store("corrupt-record");
        let dir = store.dir().to_path_buf();
        store.put(NS_SERVE, 0xdead, b"not a project record");
        let state = ServeState::with_store(Executor::new(1), Some(Arc::clone(&store)));
        assert_eq!(state.shard_count(), 0, "garbage record ignored");
        // The daemon still serves: a fresh open works normally.
        let r = state.handle_line(&open_req("p1"));
        assert!(r.text.contains("\"created\": true"), "{}", r.text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn responses_are_valid_json() {
        let state = state();
        for line in [
            open_req("p1").as_str(),
            "{\"op\": \"rerun\", \"project\": \"p1\"}",
            "{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"wrappers\"}",
            "{\"op\": \"get\", \"project\": \"p1\", \"artifact\": \"report\"}",
            "{\"op\": \"status\"}",
            "{\"op\": \"metrics\"}",
            "not json",
            "{\"op\": \"shutdown\"}",
        ] {
            let r = state.handle_line(line);
            yalla_obs::json::parse(&r.text)
                .unwrap_or_else(|e| panic!("invalid response for {line}: {e}\n{}", r.text));
        }
    }

    #[test]
    fn responses_carry_monotonic_request_ids() {
        let state = state();
        let id = |r: &Response| {
            yalla_obs::json::parse(&r.text)
                .expect("valid JSON")
                .get("req")
                .and_then(JsonValue::as_f64)
                .expect("every response is stamped with a req id")
        };
        let a = id(&state.handle_line("{\"op\": \"status\"}"));
        let b = id(&state.handle_line("{\"op\": \"status\"}"));
        // Errors are requests too: they consume an id.
        let c = id(&state.handle_line("not json"));
        let d = id(&state.handle_line("{\"op\": \"status\"}"));
        assert!(a >= 1.0);
        assert_eq!(b, a + 1.0);
        assert_eq!(c, b + 1.0);
        assert_eq!(d, c + 1.0);
    }

    #[test]
    fn status_reports_uptime_class_totals_and_hit_ratio() {
        let state = state();
        state.handle_line(&open_req("p1"));
        state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        let r = state.handle_line("{\"op\": \"status\"}");
        let parsed = yalla_obs::json::parse(&r.text).expect("valid JSON");
        assert!(
            parsed
                .get("uptime_us")
                .and_then(JsonValue::as_f64)
                .is_some(),
            "{}",
            r.text
        );
        let by_class = parsed.get("requests_by_class").expect("per-class totals");
        // Counters are process-global, so other tests may have bumped
        // them too — assert presence and a sane floor, not exact values.
        for op in [
            "open", "edit", "rerun", "get", "status", "metrics", "shutdown",
        ] {
            assert!(
                by_class.get(op).and_then(JsonValue::as_f64).is_some(),
                "{}",
                r.text
            );
        }
        assert!(by_class.get("rerun").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        let ratio = parsed
            .get("store_hit_ratio")
            .and_then(JsonValue::as_f64)
            .expect("hit ratio present");
        assert!((0.0..=1.0).contains(&ratio), "{ratio}");
        assert!(
            parsed
                .get("store_lookups")
                .and_then(JsonValue::as_f64)
                .is_some(),
            "{}",
            r.text
        );
    }

    #[test]
    fn metrics_op_returns_prometheus_text() {
        let state = state();
        state.handle_line(&open_req("p1"));
        state.handle_line("{\"op\": \"rerun\", \"project\": \"p1\"}");
        let r = state.handle_line("{\"op\": \"metrics\"}");
        let parsed = yalla_obs::json::parse(&r.text).expect("valid JSON");
        let text = parsed
            .get("text")
            .and_then(JsonValue::as_str)
            .expect("metrics text");
        assert!(
            text.contains("# TYPE yalla_serve_requests counter"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE yalla_latency_serve_rerun summary"),
            "{text}"
        );
        assert!(
            text.contains("yalla_latency_serve_rerun{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("yalla_latency_serve_rerun_count"), "{text}");
    }
}
