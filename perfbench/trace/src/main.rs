//! `perfbench-trace` — replays a perfbench corpus in-process through the
//! public entry point of each verifier layer and records one span per
//! call.
//!
//! ```text
//! perfbench-trace --workload check-ring|check-symbolic|serve-session \
//!     --manifest FILE --out FILE --check-bin PATH --data-dir DIR
//! ```
//!
//! The manifest has one request per line: `id<TAB>phase<TAB>path<TAB>c`,
//! where `phase` is `setup` or `timed` and `c` is `1` for a compositional
//! submission. Spans and counts stay in memory and are written to `--out`
//! as JSON lines when the replay ends:
//!
//! * `{"span":NAME,"req":ID,"phase":P,"parent":PARENT,"start_ns":S,"end_ns":E}`
//!   — one per call; `parent` is `request` for the calls on a request's
//!   path and `side` for measurements taken beside it (the compile, the
//!   build at the other thread count, the `--version` round trip, the
//!   in-process `Service::verify`);
//! * `{"request":ID,"phase":P,"e2e_ns":N,"verdicts":{..},"cache":{..},"counts":{..}}`
//!   — one per request.
//!
//! Nothing here changes how the layers run: every call is the same
//! public function `unity-check` or `unity-serve` would make.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use unity_ag::cert::program_hash;
use unity_core::compose::{InitSatCheck, System};
use unity_core::dsl;
use unity_mc::prelude::*;
use unity_mc::spec::load_spec;
use unity_serve::journal::Journal;
use unity_serve::store::{ArtifactStore, MEM_CACHE_SPECS};
use unity_serve::{CacheState, Service, ServiceConfig, VerifyRequest};

/// Process CPU time (all threads) in nanoseconds.
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant every Linux libc accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// In-memory span and count recorder.
struct Tracer {
    origin: Instant,
    out: String,
    req: u64,
    phase: String,
    /// Time spent in `side` spans during the current request.
    side_ns: u128,
    counts: BTreeMap<&'static str, f64>,
    verdicts: BTreeMap<String, &'static str>,
    cache: BTreeMap<&'static str, String>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            out: String::new(),
            req: 0,
            phase: String::new(),
            side_ns: 0,
            counts: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            cache: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u128 {
        t.duration_since(self.origin).as_nanos()
    }

    /// Times `f` as one span named `name` under `parent`.
    fn span<T>(&mut self, name: &str, parent: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if parent == "side" {
            self.side_ns += end.duration_since(start).as_nanos();
        }
        let _ = writeln!(
            self.out,
            "{{\"span\":\"{name}\",\"req\":{},\"phase\":\"{}\",\"parent\":\"{parent}\",\"start_ns\":{},\"end_ns\":{}}}",
            self.req,
            self.phase,
            self.ns(start),
            self.ns(end)
        );
        value
    }

    fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    fn begin(&mut self, req: u64, phase: &str) {
        self.req = req;
        self.phase = phase.to_string();
        self.side_ns = 0;
        self.counts.clear();
        self.verdicts.clear();
        self.cache.clear();
    }

    /// Closes the request; `elapsed_ns` covers its path and any side
    /// spans taken inside it, which do not count toward `e2e_ns`.
    fn end(&mut self, elapsed_ns: u128) {
        let e2e_ns = elapsed_ns.saturating_sub(self.side_ns);
        let mut line = format!(
            "{{\"request\":{},\"phase\":\"{}\",\"e2e_ns\":{e2e_ns},\"verdicts\":{{",
            self.req, self.phase
        );
        let items: Vec<String> = self
            .verdicts
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        line.push_str(&items.join(","));
        line.push_str("},\"cache\":{");
        let items: Vec<String> = self
            .cache
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        line.push_str(&items.join(","));
        line.push_str("},\"counts\":{");
        let items: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        line.push_str(&items.join(","));
        line.push_str("}}\n");
        self.out.push_str(&line);
    }

    fn record_report(&mut self, report: &Report) {
        for c in &report.checks {
            let v = match c.verdict.outcome {
                Outcome::Pass => "pass",
                Outcome::Fail { .. } => "fail",
                Outcome::Error { .. } => "error",
            };
            self.verdicts.insert(c.name.clone(), v);
        }
    }
}

/// `load_spec`, split at its layer boundaries: `dsl.parse` for the
/// program blocks and the check lines, `compose` for the merge.
fn load_layered(t: &mut Tracer, src: &str) -> Result<(System, Vec<NamedCheck>), String> {
    let mut program_src = String::new();
    let mut check_lines: Vec<(usize, String)> = Vec::new();
    let mut in_spec = false;
    for (k, raw) in src.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.starts_with("spec ") {
            in_spec = true;
        } else if in_spec && line == "end" {
            in_spec = false;
        } else if in_spec && !line.is_empty() {
            check_lines.push((k + 1, line.to_string()));
        } else if !in_spec {
            program_src.push_str(raw);
            program_src.push('\n');
        }
    }
    let programs = t
        .span("dsl.parse", "request", || dsl::parse_programs(&program_src))
        .map_err(|e| e.to_string())?;
    t.count("compose.components", programs.len() as f64);
    let system = t
        .span("compose", "request", || {
            System::compose_merging(&programs, InitSatCheck::BoundedExhaustive(1 << 22))
        })
        .map_err(|e| e.to_string())?;
    let vocab = system.vocab().clone();
    let checks = t.span("dsl.parse", "request", || {
        check_lines
            .iter()
            .map(|(line, text)| {
                let (name, prop) = text.split_once(':').ok_or("unlabelled check")?;
                let property = dsl::parse_property(prop, &vocab).map_err(|e| e.to_string())?;
                Ok(NamedCheck {
                    name: name.trim().to_string(),
                    property,
                    line: *line,
                })
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    // The split above must agree with the real loader (checked beside
    // the request, so the duplicate parse costs the request nothing).
    let reference = t
        .span("spec.load", "side", || load_spec(src))
        .map_err(|e| e.to_string())?;
    if reference.checks.len() != checks.len()
        || reference.system.composed.commands.len() != system.composed.commands.len()
    {
        return Err("layered load disagrees with load_spec".into());
    }
    Ok((system, checks))
}

fn report_of(
    program: &unity_core::program::Program,
    cfg: &ScanConfig,
    checks: Vec<CheckReport>,
) -> Report {
    Report {
        program: program.name.clone(),
        vars: program.vocab.iter().map(|(_, d)| d.name.clone()).collect(),
        engine: cfg.engine,
        universe: Universe::Reachable,
        checks,
        sim: Vec::new(),
        elapsed: std::time::Duration::ZERO,
    }
}

/// Decides every check in `session`, one span per check, splitting
/// `leadsto` from the safety scans.
fn decide_all(
    t: &mut Tracer,
    session: &mut Verifier<'_>,
    checks: &[NamedCheck],
) -> Vec<CheckReport> {
    let symbolic = session.cfg().engine == Engine::Symbolic;
    checks
        .iter()
        .map(|c| {
            let name = match (&c.property, symbolic) {
                (unity_core::properties::Property::LeadsTo(..), _) => "fair.leadsto",
                (_, true) => "symbolic.check",
                (_, false) => "check.safety",
            };
            let verdict = t.span(name, "request", || session.verify(&c.property));
            if let VerdictStats::Explicit {
                scanned_states,
                worklist_pushes,
                ..
            } = &verdict.stats
            {
                if name == "fair.leadsto" {
                    t.count("fair.states_scanned", *scanned_states as f64);
                    t.count("fair.worklist_pushes", *worklist_pushes as f64);
                }
            }
            CheckReport {
                name: c.name.clone(),
                line: c.line,
                verdict,
            }
        })
        .collect()
}

/// Builds the explicit artifacts a flat session needs, one span each,
/// plus the compile and the build at the other thread count beside the
/// request (the binaries only compile inside `TransitionSystem::build`).
/// A build at one thread is `transition.build_t1`, one at the default
/// thread count `transition.build`, whichever of them is on the path.
fn build_explicit(
    t: &mut Tracer,
    program: &unity_core::program::Program,
    cfg: &ScanConfig,
) -> Result<SessionArtifacts, String> {
    t.span("compiled.compile", "side", || {
        CompiledProgram::try_compile(program, cfg)
    });
    let sequential = cfg.par.threads == 1;
    let (path_span, side_span, side_par) = if sequential {
        (
            "transition.build_t1",
            "transition.build",
            ParConfig::default(),
        )
    } else {
        (
            "transition.build",
            "transition.build_t1",
            ParConfig::sequential(),
        )
    };
    let cpu0 = process_cpu_ns();
    let ts = t
        .span(path_span, "request", || {
            TransitionSystem::build(program, Universe::Reachable, cfg)
        })
        .map_err(|e| e.to_string())?;
    t.count(
        "transition.build_cpu_ns",
        process_cpu_ns().saturating_sub(cpu0) as f64,
    );
    t.count("transition.states", ts.len() as f64);
    t.count("transition.edges", ts.transition_count() as f64);
    let pred = t.span("pred.build", "request", || {
        PredIndex::build_with(&ts, &cfg.par)
    });
    t.count("pred.edges", pred.edge_count() as f64);
    let side_cfg = ScanConfig {
        par: side_par,
        ..cfg.clone()
    };
    let side = t
        .span(side_span, "side", || {
            TransitionSystem::build(program, Universe::Reachable, &side_cfg)
        })
        .map_err(|e| e.to_string())?;
    // Shards of the default-thread build, on the path or beside it.
    let sharded = if sequential { &side } else { &ts };
    t.count("transition.shards", sharded.build_stats().shards as f64);
    Ok(SessionArtifacts {
        ts: [Some(Arc::new(ts)), None],
        pred: [Some(Arc::new(pred)), None],
        field_order: None,
    })
}

/// One `unity-check SPEC --threads 1` (or `--engine symbolic`) run,
/// in-process.
fn replay_cli(t: &mut Tracer, src: &str, symbolic: bool) -> Result<(), String> {
    let (system, checks) = load_layered(t, src)?;
    let program = &system.composed;
    let cfg = if symbolic {
        ScanConfig {
            engine: Engine::Symbolic,
            ..ScanConfig::default()
        }
    } else {
        // What `unity-check --threads 1` runs.
        ScanConfig {
            engine: Engine::Compiled,
            par: ParConfig::sequential(),
            ..ScanConfig::default()
        }
    };
    let mut session = Verifier::new(program, cfg.clone());
    if symbolic {
        t.span("symbolic.build", "request", || session.symbolic().is_some());
    } else {
        let arts = build_explicit(t, program, &cfg)?;
        session.seed(arts);
    }
    let reports = decide_all(t, &mut session, &checks);
    t.record_report(&report_of(program, &cfg, reports));
    if symbolic {
        if let Some(sym) = session.symbolic() {
            let s = sym.stats();
            t.count("symbolic.peak_nodes", s.bdd.peak_nodes as f64);
            t.count("symbolic.cache_lookups", s.bdd.cache_lookups as f64);
            t.count("symbolic.cache_hits", s.bdd.cache_hits as f64);
            t.count("symbolic.sift_swaps", s.bdd.swaps as f64);
            t.count("symbolic.gc_runs", s.bdd.gc_runs as f64);
        }
        // Nothing enumerated: the explicit explorer never ran.
        if session.status().ts_reachable {
            return Err("symbolic replay built an explicit transition system".into());
        }
    }
    Ok(())
}

/// The daemon's memory layer is a FIFO of `MEM_CACHE_SPECS` program
/// hashes, filled by disk loads and saves; replaying its insertions tells
/// a memory hit from a disk read without touching the store's internals.
struct MemModel {
    order: VecDeque<String>,
    set: HashSet<String>,
}

impl MemModel {
    fn insert(&mut self, hash: &str) {
        if self.set.insert(hash.to_string()) {
            self.order.push_back(hash.to_string());
            if self.order.len() > MEM_CACHE_SPECS {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }
}

/// Size and modification time of every file in the given program
/// directories (the store keeps no subdirectories below them).
type Snapshot = HashMap<PathBuf, (u64, std::time::SystemTime)>;

fn snapshot(dirs: &[PathBuf]) -> Snapshot {
    let mut files = Snapshot::new();
    for dir in dirs {
        let Ok(entries) = std::fs::read_dir(dir) else {
            continue;
        };
        for e in entries.flatten() {
            if let Ok(m) = e.metadata() {
                if let Ok(t) = m.modified() {
                    files.insert(e.path(), (m.len(), t));
                }
            }
        }
    }
    files
}

/// Bytes of the files a save created or rewrote since `before`.
fn bytes_written(before: &Snapshot, dirs: &[PathBuf]) -> u64 {
    snapshot(dirs)
        .iter()
        .filter(|(path, now)| before.get(*path) != Some(now))
        .map(|(_, (len, _))| len)
        .sum()
}

/// One `POST /verify`, replayed twice: through `Service::verify` (beside
/// the request) and through the store, session, report and journal calls
/// `Service::verify` makes (the request path).
struct ServeReplay {
    service: Service,
    store: ArtifactStore,
    journal: Journal,
    mem: MemModel,
}

impl ServeReplay {
    fn open(dir: &Path) -> Result<Self, String> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        let service = Service::open(ServiceConfig {
            data_dir: dir.join("service"),
            workers,
            default_timeout: Some(std::time::Duration::from_millis(300_000)),
            queue_limit: ServiceConfig::default_queue_limit(workers),
        })?;
        let layered = dir.join("layered");
        std::fs::create_dir_all(&layered).map_err(|e| e.to_string())?;
        let store = ArtifactStore::open(layered.join("store")).map_err(|e| e.to_string())?;
        let (journal, _) = Journal::open(&layered.join("journal.log"))?;
        Ok(ServeReplay {
            service,
            store,
            journal,
            mem: MemModel {
                order: VecDeque::new(),
                set: HashSet::new(),
            },
        })
    }

    fn replay(&mut self, t: &mut Tracer, src: &str, compositional: bool) -> Result<(), String> {
        let mut req = VerifyRequest::new(src);
        req.compositional = compositional;
        let resp = t
            .span("service.verify", "side", || self.service.verify(req))
            .map_err(|e| e.to_string())?;
        let state = |s: CacheState| format!("{s:?}").to_lowercase();
        t.cache
            .insert("ts_reachable", state(resp.cache.ts_reachable));
        t.cache
            .insert("cert_hits", resp.cache.cert_hits.to_string());
        t.cache
            .insert("cert_misses", resp.cache.cert_misses.to_string());
        let service_verdicts: Vec<_> = resp
            .report
            .checks
            .iter()
            .map(|c| (c.name.clone(), c.verdict.passed()))
            .collect();

        let (system, checks) = load_layered(t, src)?;
        let program = &system.composed;
        let cfg = ScanConfig::default();
        let hash = program_hash(program);
        let report = if compositional {
            let (session, hashes) = t.span("compositional.plan", "request", || {
                let mut s = CompositionalVerifier::new(&system, cfg.clone())
                    .with_universe(Universe::Reachable);
                let hashes = s.plan_hashes(&checks);
                (s, hashes)
            });
            let certs = t.span("store.load_certs", "request", || {
                self.store.load_certs(&hashes)
            });
            let mut session = session.with_certs(certs);
            let report = t.span("compositional.verify", "request", || {
                session.verify_all(&checks)
            });
            let s = session.stats().clone();
            t.count("compositional.cert_hits", s.cert_hits as f64);
            t.count("compositional.cert_misses", s.cert_misses as f64);
            t.count(
                "compositional.product_fallbacks",
                s.product_fallbacks as f64,
            );
            t.count("compositional.component_checks", s.component_checks as f64);
            let mut dirs: Vec<PathBuf> = hashes.iter().map(|h| self.store.program_dir(h)).collect();
            dirs.push(self.store.program_dir(&hash));
            let before = t.span("store.snapshot", "side", || snapshot(&dirs));
            t.span("store.save_certs", "request", || {
                self.store.save_certs(session.certs())
            })?;
            if let Some(arts) = session.product_artifacts() {
                t.span("store.save", "request", || {
                    self.store.save(&hash, src, &arts)
                })?;
                self.mem.insert(&hash);
            }
            let written = t.span("store.snapshot", "side", || bytes_written(&before, &dirs));
            t.count("store.bytes_written", written as f64);
            report
        } else {
            let on_disk = self
                .store
                .program_dir(&hash)
                .join("ts_reachable.seg")
                .exists();
            let in_memory = self.mem.set.contains(&hash);
            let stored = t.span("store.load", "request", || {
                self.store.load(&hash, program, &cfg)
            });
            t.count("store.loads", 1.0);
            t.count("store.mem_hits", f64::from(u8::from(in_memory)));
            if !in_memory && on_disk {
                self.mem.insert(&hash);
            }
            let mut session = Verifier::new(program, cfg.clone());
            if stored.ts[0].is_none() {
                let arts = build_explicit(t, program, &cfg)?;
                session.seed(arts);
            } else {
                session.seed(stored);
            }
            let reports = decide_all(t, &mut session, &checks);
            let dirs = [self.store.program_dir(&hash)];
            let before = t.span("store.snapshot", "side", || snapshot(&dirs));
            t.span("store.save", "request", || {
                self.store.save(&hash, src, &session.artifacts())
            })?;
            let written = t.span("store.snapshot", "side", || bytes_written(&before, &dirs));
            t.count("store.bytes_written", written as f64);
            self.mem.insert(&hash);
            report_of(program, &cfg, reports)
        };
        let json = t.span("report.to_json", "request", || report.to_json());
        t.count("report.bytes", json.len() as f64);
        let spec = unity_serve::spec_hash(src);
        t.span("journal.append", "request", || {
            self.journal.append(&spec, &report)
        })?;
        t.record_report(&report);
        let layered: Vec<_> = report
            .checks
            .iter()
            .map(|c| (c.name.clone(), c.verdict.passed()))
            .collect();
        if layered != service_verdicts {
            return Err("layered replay and Service::verify disagree".into());
        }
        Ok(())
    }
}

struct Args {
    workload: String,
    manifest: PathBuf,
    out: PathBuf,
    check_bin: PathBuf,
    data_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut manifest, mut out, mut check_bin, mut data_dir) =
        (None, None, None, None, None);
    while let Some(a) = it.next() {
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--manifest" => manifest = Some(PathBuf::from(v)),
            "--out" => out = Some(PathBuf::from(v)),
            "--check-bin" => check_bin = Some(PathBuf::from(v)),
            "--data-dir" => data_dir = Some(PathBuf::from(v)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        manifest: manifest.ok_or("--manifest is required")?,
        out: out.ok_or("--out is required")?,
        check_bin: check_bin.ok_or("--check-bin is required")?,
        data_dir: data_dir.ok_or("--data-dir is required")?,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let manifest = std::fs::read_to_string(&args.manifest).map_err(|e| e.to_string())?;
    let mut t = Tracer::new();
    let mut serve = match args.workload.as_str() {
        "serve-session" => Some(ServeReplay::open(&args.data_dir)?),
        "check-ring" | "check-symbolic" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let f: Vec<&str> = line.split('\t').collect();
        let [id, phase, path, comp] = f[..] else {
            return Err(format!("bad manifest line `{line}`"));
        };
        let id: u64 = id.parse().map_err(|_| format!("bad id `{id}`"))?;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        t.begin(id, phase);
        if serve.is_none() {
            // The process start a CLI request pays before any layer runs.
            let bin = args.check_bin.clone();
            t.span("process.spawn", "side", || {
                std::process::Command::new(&bin)
                    .arg("--version")
                    .env_remove("UNITY_BUILD_THREADS")
                    .output()
            })
            .map_err(|e| e.to_string())?;
        }
        t.side_ns = 0;
        let start = Instant::now();
        match &mut serve {
            Some(s) => s.replay(&mut t, &src, comp == "1")?,
            None => replay_cli(&mut t, &src, args.workload == "check-symbolic")?,
        }
        t.end(start.elapsed().as_nanos());
    }
    std::fs::write(&args.out, &t.out).map_err(|e| format!("{}: {e}", args.out.display()))
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            std::process::ExitCode::from(2)
        }
    }
}
