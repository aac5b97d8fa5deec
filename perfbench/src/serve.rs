//! `serve`: an in-process `idar-server` under a closed loop of two
//! connections.
//!
//! About 70% of the exchanges belong to session users (open →
//! (`safe_updates` → `vet` | `submit`)* → close) on forms from the
//! approval, ringi, committee and lightweight recipes, so session opens
//! build graphs of tens to hundreds of states. About 30% are
//! `POST /v1/analyze`: three quarters repeat one of 16 pool forms (a
//! shared-cache hit after its first use), the rest are fresh seeded forms
//! (misses).
//! Both kinds of caller wait for each reply, so the loop is closed.

use crate::reference;
use crate::stats::{self, Rng};
use crate::Run;
use idar_core::serialize::{from_ron, to_ron};
use idar_core::{InstNodeId, Update};
use idar_gen::{ScenarioAxis, ScenarioRecipe};
use idar_logic::gen::split_mix;
use idar_server::{HttpLimits, Response, Server, ServerConfig, ServerHandle};
use idar_solver::{analyze_keyed, AnalysisKind, AnalysisRequest, Verdict, VerdictCache};
use idar_workflow::manager::{FormManager, Rejection};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Tenants the session users spread over.
const TENANTS: usize = 4;
/// Analysis forms that repeat.
const POOL: usize = 16;
/// 429 retries per exchange before it counts as failed.
const MAX_RETRIES: u32 = 8;
/// Exchanges whose bytes the traced run records and replays.
const TRACE_EXCHANGES: usize = 20_000;

/// One session user's script: which form, under which tenant, how many
/// middle operations, and the seed of its update picks.
struct Program {
    tenant: String,
    ron: String,
    middle: usize,
    seed: u64,
}

/// One stateless analysis: the form and the question asked of it.
#[derive(Clone)]
struct AnalysisForm {
    ron: String,
    kind: AnalysisKind,
}

struct Inputs {
    seed: u64,
    pool: Vec<AnalysisForm>,
}

/// Analysis form `i` of the stream tagged `tag`: scenario forms from the
/// four axes in turn, a quarter of them asked about semi-soundness.
fn analysis_form(seed: u64, tag: u64, i: usize) -> AnalysisForm {
    let axes = ScenarioAxis::ALL;
    let spec = axes[i % axes.len()].sample(split_mix(seed ^ split_mix(tag + i as u64)));
    AnalysisForm {
        ron: to_ron(&spec.build("analyze").form),
        kind: if i % 4 == 1 {
            AnalysisKind::Semisoundness
        } else {
            AnalysisKind::Completability
        },
    }
}

const POOL_TAG: u64 = 0xA000_0000;
const FRESH_TAG: u64 = 0xF000_0000;

/// The program of session user `p`: a form from the approval, ringi,
/// committee and lightweight recipes in turn. Programs are made on
/// demand and no two users share one, so the server never sees a session
/// form twice, the mix is the same from the first second to the last,
/// and every run meets the rare large forms at the same rate.
fn make_program(seed: u64, p: usize) -> Program {
    let recipes = [
        ScenarioRecipe::approval(),
        ScenarioRecipe::ringi(),
        ScenarioRecipe::committee(),
        ScenarioRecipe::lightweight(),
    ];
    let s = split_mix(seed ^ split_mix(0x5E55_0000 + p as u64));
    Program {
        tenant: format!("t{}", p % TENANTS),
        ron: to_ron(&recipes[p % recipes.len()].sample(s).build("session").form),
        middle: 3 + (s % 6) as usize,
        seed: s,
    }
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        seed,
        pool: (0..POOL)
            .map(|i| analysis_form(seed, POOL_TAG, i))
            .collect(),
    }
}

/// Which form analysis ticket `t` asks about: every fourth ticket takes
/// the next fresh form, the others a pool form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum FormId {
    Pool(usize),
    Fresh(usize),
}

fn ticket_form_id(t: u64) -> FormId {
    if t % 4 == 3 {
        FormId::Fresh((t / 4) as usize)
    } else {
        FormId::Pool((split_mix(t) % POOL as u64) as usize)
    }
}

/// The form of ticket `t`. Fresh forms are made on demand, so no run
/// exhausts them and every one is a cache miss.
fn ticket_form(inputs: &Inputs, id: FormId) -> std::borrow::Cow<'_, AnalysisForm> {
    match id {
        FormId::Pool(i) => std::borrow::Cow::Borrowed(&inputs.pool[i]),
        FormId::Fresh(i) => std::borrow::Cow::Owned(analysis_form(inputs.seed, FRESH_TAG, i)),
    }
}

fn kind_name(kind: AnalysisKind) -> &'static str {
    match kind {
        AnalysisKind::Completability => "completability",
        AnalysisKind::Semisoundness => "semisoundness",
        AnalysisKind::Satisfiability => "satisfiability",
    }
}

fn rejection_tag(r: &Rejection) -> &'static str {
    match r {
        Rejection::NotAllowed => "not-allowed",
        Rejection::WouldStrand => "would-strand",
        Rejection::Undecided => "undecided",
    }
}

/// The wire token the server hands out for an update.
fn encode_update(mgr: &FormManager, u: &Update) -> String {
    match u {
        Update::Add { parent, edge } => {
            format!("add {} {}", parent.0, mgr.form().schema().path_of(*edge))
        }
        Update::Del { node } => format!("del {}", node.0),
    }
}

/// The update a wire token names.
fn decode_update(mgr: &FormManager, token: &str) -> Option<Update> {
    let mut parts = token.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some("add"), Some(parent), Some(path)) => Some(Update::Add {
            parent: InstNodeId(parent.parse().ok()?),
            edge: mgr.form().schema().resolve(path).ok()?,
        }),
        (Some("del"), Some(node), None) => Some(Update::Del {
            node: InstNodeId(node.parse().ok()?),
        }),
        _ => None,
    }
}

/// Where a session user is in its script.
#[derive(Debug, Clone)]
enum Step {
    Open,
    Safe,
    Act { verb: &'static str, token: String },
    Close,
    Done,
}

/// A session user in flight: its script position and the verdicts seen.
struct User {
    user: usize,
    p: Program,
    rng: Rng,
    session: u64,
    left: usize,
    step: Step,
    verdicts: Vec<String>,
}

impl User {
    fn new(seed: u64, user: usize) -> User {
        let p = make_program(seed, user);
        User {
            user,
            rng: Rng::new(p.seed),
            session: 0,
            left: p.middle,
            p,
            step: Step::Open,
            verdicts: Vec::new(),
        }
    }

    /// The request bytes of the current step.
    fn request(&self) -> Vec<u8> {
        let p = &self.p;
        let id = self.session;
        let t = Some(p.tenant.as_str());
        match &self.step {
            Step::Open => http_request("POST", "/v1/session", t, &p.ron),
            Step::Safe => http_request("GET", &format!("/v1/session/{id}/safe_updates"), t, ""),
            Step::Act { verb, token } => {
                http_request("POST", &format!("/v1/session/{id}/{verb}"), t, token)
            }
            Step::Close => http_request("POST", &format!("/v1/session/{id}/close"), t, ""),
            Step::Done => unreachable!("a finished user sends nothing"),
        }
    }

    /// Advance the script on a reply. `tokens` are the safe updates a
    /// `safe_updates` reply listed, in order.
    fn advance(&mut self, verdict: &str, session: Option<u64>, tokens: &[String]) {
        self.verdicts.push(verdict.to_string());
        let after_middle = |left: usize| if left > 0 { Step::Safe } else { Step::Close };
        self.step = match &self.step {
            Step::Open => {
                self.session = session.unwrap_or(0);
                after_middle(self.left)
            }
            Step::Safe if tokens.is_empty() => {
                self.left -= 1;
                after_middle(self.left)
            }
            Step::Safe => {
                let token = tokens[self.rng.below(tokens.len())].clone();
                let verb = if self.rng.below(3) == 0 {
                    "vet"
                } else {
                    "submit"
                };
                Step::Act { verb, token }
            }
            Step::Act { .. } => {
                self.left -= 1;
                after_middle(self.left)
            }
            Step::Close | Step::Done => Step::Done,
        };
    }
}

fn http_request(method: &str, path: &str, tenant: Option<&str>, body: &str) -> Vec<u8> {
    let tenant = tenant.map_or(String::new(), |t| format!("X-Tenant: {t}\r\n"));
    format!(
        "{method} {path} HTTP/1.1\r\nHost: idar\r\n{tenant}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A parsed reply.
#[derive(Debug, Default)]
struct Reply {
    status: u16,
    verdict: String,
    session: Option<u64>,
    retry_after: Option<u64>,
    body: String,
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.split("\r\n");
    let mut reply = Reply {
        status: lines.next()?.split(' ').nth(1)?.parse().ok()?,
        body: body.to_string(),
        ..Reply::default()
    };
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim().to_ascii_lowercase().as_str() {
                "x-verdict" => reply.verdict = v.trim().to_string(),
                "x-session" => reply.session = v.trim().parse().ok(),
                "retry-after" => reply.retry_after = v.trim().parse().ok(),
                _ => {}
            }
        }
    }
    Some(reply)
}

/// The update tokens of a `{"safe":[...]}` body.
fn safe_tokens(body: &str) -> Vec<String> {
    body.split('"')
        .filter(|s| s.starts_with("add ") || s.starts_with("del "))
        .map(str::to_string)
        .collect()
}

/// One exchange as the client saw it.
struct Exchange {
    latency: Duration,
    connect: Duration,
    reply: Option<Reply>,
}

impl Exchange {
    fn ok(&self) -> bool {
        self.reply
            .as_ref()
            .is_some_and(|r| (200..300).contains(&r.status))
    }
}

/// Send one request, retrying 429s; timed from the first attempt.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Exchange {
    let t0 = Instant::now();
    let mut connect = Duration::ZERO;
    let mut attempt = || -> std::io::Result<Option<Reply>> {
        let c0 = Instant::now();
        let mut s = TcpStream::connect(addr)?;
        connect += c0.elapsed();
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        // A refusing server may close its read side early; the refusal
        // is still on the wire, so read whatever came back.
        let _ = s.write_all(raw);
        let mut buf = Vec::new();
        s.read_to_end(&mut buf)?;
        Ok(parse_reply(&buf))
    };
    let mut retries = 0;
    let reply = loop {
        match attempt() {
            Ok(Some(r)) if r.status == 429 && retries < MAX_RETRIES => {
                retries += 1;
                let hint = Duration::from_secs(r.retry_after.unwrap_or(0));
                std::thread::sleep(hint.min(Duration::from_millis(25)));
            }
            Ok(r) => break r,
            Err(_) => break None,
        }
    };
    Exchange {
        latency: t0.elapsed(),
        connect,
        reply,
    }
}

/// The timing of one exchange, kept compact so that the client's own
/// memory does not grow with throughput.
#[derive(Clone, Copy)]
struct Sample {
    /// Seconds since the loop started.
    start: f32,
    latency_ms: f32,
    connect_us: f32,
    analyze: bool,
    ok: bool,
}

/// An exchange the traced run replays: its bytes and what came back.
struct Recorded {
    start: f32,
    latency: Duration,
    analyze: bool,
    raw: Vec<u8>,
    verdict: String,
    session: Option<u64>,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    /// `(ticket, X-Verdict)` of each analysis; `None` when it failed.
    tickets: Vec<(u64, Option<Verdict>)>,
    /// `(user, verdicts)` of each user that ran to the end.
    users: Vec<(usize, Vec<String>)>,
    /// Users abandoned after a failed exchange.
    abandoned: usize,
    recorded: Vec<Recorded>,
}

fn parse_verdict(tag: &str) -> Option<Verdict> {
    match tag {
        "holds" => Some(Verdict::Holds),
        "fails" => Some(Verdict::Fails),
        "unknown" => Some(Verdict::Unknown),
        _ => None,
    }
}

/// The closed loop: each client alternates session steps with an
/// analysis on three of every ten exchanges, until `seconds` pass; a
/// client then finishes its user in flight, so every session closes.
fn drive(
    inputs: &Inputs,
    addr: SocketAddr,
    seconds: f64,
    record: bool,
) -> (Vec<ClientLog>, Vec<f64>) {
    let next_user = AtomicU64::new(0);
    let next_ticket = AtomicU64::new(0);
    let recorded = AtomicU64::new(0);
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (next_user, next_ticket, recorded) = (&next_user, &next_ticket, &recorded);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut user: Option<User> = None;
                    for k in 0u64.. {
                        let full =
                            record && recorded.load(Ordering::Relaxed) as usize >= TRACE_EXCHANGES;
                        let past = full || Instant::now() >= deadline;
                        if past && user.is_none() {
                            break;
                        }
                        let start = epoch.elapsed().as_secs_f32();
                        let analyze = !past && matches!(k % 10, 2 | 5 | 8);
                        let (raw, x) = if analyze {
                            let t = next_ticket.fetch_add(1, Ordering::Relaxed);
                            let f = ticket_form(inputs, ticket_form_id(t));
                            let path = format!("/v1/analyze?kind={}", kind_name(f.kind));
                            let raw = http_request("POST", &path, None, &f.ron);
                            let x = exchange(addr, &raw);
                            let verdict = x
                                .reply
                                .as_ref()
                                .filter(|_| x.ok())
                                .and_then(|r| parse_verdict(&r.verdict));
                            log.tickets.push((t, verdict));
                            (raw, x)
                        } else {
                            let u = user.get_or_insert_with(|| {
                                User::new(
                                    inputs.seed,
                                    next_user.fetch_add(1, Ordering::Relaxed) as usize,
                                )
                            });
                            let raw = u.request();
                            let x = exchange(addr, &raw);
                            match (&x.reply, x.ok()) {
                                (Some(r), true) => {
                                    let tokens = match u.step {
                                        Step::Safe => safe_tokens(&r.body),
                                        _ => Vec::new(),
                                    };
                                    u.advance(&r.verdict, r.session, &tokens);
                                }
                                _ => u.step = Step::Done,
                            }
                            if matches!(u.step, Step::Done) {
                                let u = user.take().expect("user in flight");
                                if u.verdicts.last().map(String::as_str) == Some("closed") {
                                    log.users.push((u.user, u.verdicts));
                                } else {
                                    log.abandoned += 1;
                                }
                            }
                            (raw, x)
                        };
                        log.samples.push(Sample {
                            start,
                            latency_ms: stats::ms(x.latency) as f32,
                            connect_us: x.connect.as_secs_f32() * 1e6,
                            analyze,
                            ok: x.ok(),
                        });
                        let keep = record
                            && x.ok()
                            && (recorded.fetch_add(1, Ordering::Relaxed) as usize)
                                < TRACE_EXCHANGES;
                        if keep {
                            let r = x.reply.expect("ok exchanges have replies");
                            log.recorded.push(Recorded {
                                start,
                                latency: x.latency,
                                analyze,
                                raw,
                                verdict: r.verdict,
                                session: r.session,
                            });
                        }
                    }
                    log
                })
            })
            .collect();
        // This thread samples the peak resident set of each one-second
        // window while the clients run.
        let mut rss = Vec::new();
        let windows = (seconds.floor() as u32).max(1);
        for w in 1..=windows {
            if handles.iter().all(|h| h.is_finished()) {
                break; // a traced run stops once it has its exchanges
            }
            stats::reset_peak_rss();
            let end = epoch + Duration::from_secs(u64::from(w));
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            rss.push(stats::peak_rss_mb());
        }
        let logs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, rss)
    })
}

/// Drive one user's program through `FormManager` in-process, as the
/// server would: the user's reference verdict vector.
fn reference_user(seed: u64, user: usize, cfg: &ServerConfig, inner: usize) -> Vec<String> {
    let mut user = User::new(seed, user);
    let form = from_ron(&user.p.ron).expect("generated forms parse");
    let mut mgr = FormManager::new(form, cfg.budget.clone(), cfg.policy).with_threads(inner);
    while !matches!(user.step, Step::Done) {
        let (verdict, tokens) = match &user.step {
            Step::Open => ("opened".to_string(), Vec::new()),
            Step::Safe => {
                let safe = mgr.safe_updates();
                let tokens: Vec<String> = safe.iter().map(|u| encode_update(&mgr, u)).collect();
                (format!("safe:{}", tokens.len()), tokens)
            }
            Step::Act { verb, token } => {
                let up = decode_update(&mgr, token).expect("tokens decode");
                let outcome = if *verb == "vet" {
                    mgr.vet(&up)
                } else {
                    mgr.submit(up)
                };
                let tag = match outcome {
                    Ok(()) if mgr.is_complete() => "ok-complete",
                    Ok(()) => "ok",
                    Err(r) => rejection_tag(&r),
                };
                (tag.to_string(), Vec::new())
            }
            Step::Close => ("closed".to_string(), Vec::new()),
            Step::Done => unreachable!(),
        };
        user.advance(&verdict, Some(0), &tokens);
    }
    user.verdicts
}

/// The reference answer for an analysis form, from plain enumeration of
/// its reachable space.
fn reference_analysis(f: &AnalysisForm) -> Result<bool, String> {
    let form = from_ron(&f.ron).map_err(|e| e.to_string())?;
    let plain = reference::depth1(&form, 100_000).ok_or("analysis form did not close")?;
    Ok(match f.kind {
        AnalysisKind::Semisoundness => plain.semisound,
        _ => plain.completable,
    })
}

/// A `"key":number` field of the `/metrics` body.
fn metrics_field(body: &str, key: &str) -> f64 {
    body.split_once(&format!("\"{key}\":"))
        .and_then(|(_, rest)| rest.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// The server, shut down (drained) when dropped.
struct Served(Option<ServerHandle>);

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(h) = self.0.take() {
            h.shutdown();
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let cfg = ServerConfig::default();
    let ((inputs, mut served), setup_s) = stats::timed_setup(|| {
        let inputs = inputs(seed);
        let server = Server::start("127.0.0.1:0", cfg.clone()).expect("bind a local port");
        (inputs, Served(Some(server)))
    });
    let mut out = Run::new(setup_s);
    let handle = served.0.as_ref().expect("server running");
    let (addr, inner) = (handle.addr(), handle.inner_threads());
    out.context(format!(
        "clients={CLIENTS} server_threads={} explorer_threads={inner}",
        cfg.threads
    ));
    let (logs, rss) = drive(&inputs, addr, seconds, trace);
    let metrics_body = exchange(addr, &http_request("GET", "/metrics", None, ""))
        .reply
        .map(|r| r.body)
        .unwrap_or_default();
    // The `/metrics` request itself is accepted but not yet completed
    // while the counters are read; every client exchange has completed.
    let (accepted, completed) = (
        metrics_field(&metrics_body, "accepted"),
        metrics_field(&metrics_body, "completed"),
    );
    if accepted != completed + 1.0 {
        out.mismatch(format!(
            "serve: /metrics shows accepted {accepted}, completed {completed} with only itself in flight"
        ));
    }
    let final_snapshot = served.0.take().expect("server running").shutdown();
    if final_snapshot.accepted != final_snapshot.completed {
        out.mismatch(format!(
            "serve: drained server accepted {} but completed {}",
            final_snapshot.accepted, final_snapshot.completed
        ));
    }

    check_verdicts(&inputs, &logs, &cfg, inner, &mut out);
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|x| !x.ok).count() as u64;
    if trace {
        let recorded: Vec<Recorded> = logs.into_iter().flat_map(|l| l.recorded).collect();
        traced(&samples, recorded, &metrics_body, &cfg, inner, &mut out);
        return out;
    }

    // One-second windows of the measured phase are the rounds; exchanges
    // that finish users after the deadline are checked but not timed. The
    // figures are medians over windows: the rare large session forms come
    // in clusters that stall a few windows, and the mean would follow them.
    let windows = (seconds.floor() as usize).max(1);
    let mut rounds: [Vec<Vec<f64>>; 3] = std::array::from_fn(|_| vec![Vec::new(); windows]);
    for x in &samples {
        let w = x.start as usize;
        if w < windows {
            rounds[0][w].push(f64::from(x.latency_ms));
            rounds[1 + usize::from(x.analyze)][w].push(f64::from(x.latency_ms));
        }
    }
    let tickets: Vec<Option<Verdict>> = logs
        .iter()
        .flat_map(|l| l.tickets.iter().map(|t| t.1))
        .collect();
    let decided = tickets
        .iter()
        .filter(|v| matches!(v, Some(Verdict::Holds | Verdict::Fails)))
        .count();
    let n = samples.len();
    let m = &mut out.metrics;
    stats::put_round_latency(m, "exchange", &rounds[0]);
    stats::put_round_latency(m, "session", &rounds[1]);
    stats::put_round_latency(m, "analyze", &rounds[2]);
    let per_window: Vec<f64> = rounds[0].iter().map(|r| r.len() as f64).collect();
    let timed: usize = rounds[0].iter().map(Vec::len).sum();
    m.put("requests_per_s", "1/s", stats::median(&per_window), timed);
    stats::put_round_rss(m, &rss);
    m.put(
        "decided_share",
        "ratio",
        decided as f64 / tickets.len().max(1) as f64,
        tickets.len(),
    );
    m.put(
        "failed_share",
        "ratio",
        out.failed as f64 / n.max(1) as f64,
        n,
    );
    out.alias("p50_ms", "exchange_p50_ms");
    out.alias("p90_ms", "exchange_p90_ms");
    out.alias("ops_per_s", "requests_per_s");
    out
}

/// `f` over `items` on one thread per core: the reference computations
/// after the measured phase.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let chunk = items.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Every analysis verdict must equal its form's reference verdict, and
/// every finished user's verdict vector its program's in-process one.
fn check_verdicts(
    inputs: &Inputs,
    logs: &[ClientLog],
    cfg: &ServerConfig,
    inner: usize,
    out: &mut Run,
) {
    let users: Vec<&(usize, Vec<String>)> = logs.iter().flat_map(|l| &l.users).collect();
    let abandoned: usize = logs.iter().map(|l| l.abandoned).sum();
    let wants = par_map(&users, |(user, _)| {
        reference_user(inputs.seed, *user, cfg, inner)
    });
    for ((user, got), want) in users.iter().zip(&wants) {
        if got != want {
            out.mismatch(format!(
                "serve user {user}: verdicts {got:?}, in-process {want:?}"
            ));
        }
    }
    let tickets: Vec<(u64, Option<Verdict>)> = logs
        .iter()
        .flat_map(|l| l.tickets.iter().copied())
        .collect();
    let mut ids: Vec<FormId> = tickets.iter().map(|&(t, _)| ticket_form_id(t)).collect();
    ids.sort_unstable();
    ids.dedup();
    let refs = par_map(&ids, |&id| reference_analysis(&ticket_form(inputs, id)));
    let forms: HashMap<FormId, Result<bool, String>> = ids.iter().copied().zip(refs).collect();
    for &(t, got) in &tickets {
        match (got, &forms[&ticket_form_id(t)]) {
            // A failed exchange, counted in `failed`; Unknown is not a
            // wrong answer, it lowers `decided_share`.
            (None | Some(Verdict::Unknown), _) => {}
            (Some(g), Ok(w)) if (g == Verdict::Holds) == *w => {}
            (Some(g), w) => out.mismatch(format!(
                "serve analysis ticket {t}: verdict {g}, reference {w:?}"
            )),
        }
    }
    out.context(format!(
        "users={} abandoned_users={abandoned} analyses={} distinct_forms={}",
        users.len(),
        tickets.len(),
        forms.len()
    ));
}

/// Per-layer time of the in-process replay.
#[derive(Default)]
struct Layers {
    read: (Duration, usize),
    write: (Duration, usize),
    from_ron: (Duration, usize),
    probe: (Duration, usize),
    hits: usize,
    open: (Duration, usize),
    safe: (Duration, usize),
    vet: (Duration, usize),
    submit: (Duration, usize),
}

/// Time `f` into `slot` when `on`.
fn lap<T>(on: bool, slot: &mut (Duration, usize), f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let v = f();
    slot.0 += t0.elapsed();
    slot.1 += 1;
    v
}

/// A replayed session: the manager, and the `new` time still to be
/// charged to the open together with the first `safe_updates`.
struct Session {
    mgr: FormManager,
    open_pending: Option<Duration>,
}

/// Replay recorded requests in send order through the layers the server
/// is made of, with a fresh cache and fresh sessions. Returns the
/// in-process time of each exchange and the replay's verdict tags.
fn replay(
    recorded: &[Recorded],
    cfg: &ServerConfig,
    inner: usize,
    on: bool,
    layers: &mut Layers,
) -> Vec<(Duration, String)> {
    let cache = Arc::new(VerdictCache::new());
    let mut sessions: HashMap<(String, u64), Session> = HashMap::new();
    let limits = HttpLimits::default();
    let mut results = Vec::with_capacity(recorded.len());
    for x in recorded {
        let t0 = Instant::now();
        let req = lap(on, &mut layers.read, || {
            idar_server::http::read_request(&mut x.raw.as_slice(), &limits)
        })
        .expect("recorded requests parse");
        let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
        let tenant = req.header("x-tenant").unwrap_or("").to_string();
        let (status, verdict) = match (req.method.as_str(), segments.as_slice()) {
            ("POST", ["v1", "analyze"]) => {
                let kind = match req.query("kind") {
                    Some("semisoundness") => AnalysisKind::Semisoundness,
                    _ => AnalysisKind::Completability,
                };
                let form =
                    lap(on, &mut layers.from_ron, || from_ron(&req.body)).expect("forms parse");
                let request = AnalysisRequest::new(form, kind)
                    .with_budget(cfg.budget.clone())
                    .with_threads(inner);
                let (key, hit) = lap(on, &mut layers.probe, || {
                    let key = VerdictCache::key_for(&request.form, kind, &request.budget);
                    let hit = cache.get_keyed(&key);
                    (key, hit)
                });
                layers.hits += usize::from(hit.is_some());
                // A miss runs the rest of `analyze_with`: the pipeline on
                // the key already built (it probes once more, then stores).
                let verdict = match hit {
                    Some(h) => h.verdict,
                    None => analyze_keyed(&request, &cache, &key).verdict,
                };
                (200, idar_server::verdict_tag(verdict).to_string())
            }
            ("POST", ["v1", "session"]) => {
                let form =
                    lap(on, &mut layers.from_ron, || from_ron(&req.body)).expect("forms parse");
                let t_new = Instant::now();
                let mut mgr = FormManager::new(form, cfg.budget.clone(), cfg.policy)
                    .with_cache(Arc::clone(&cache))
                    .with_threads(inner)
                    .with_max_retained_states(cfg.max_retained_states);
                if let Some(bytes) = cfg.max_retained_bytes {
                    mgr = mgr.with_max_retained_bytes(bytes);
                }
                let open_pending = Some(t_new.elapsed());
                let id = x.session.expect("opens return an id");
                sessions.insert((tenant, id), Session { mgr, open_pending });
                (200, "opened".to_string())
            }
            (_, ["v1", "session", id, op]) => {
                let key = (tenant, id.parse::<u64>().expect("numeric session id"));
                let s = sessions.get_mut(&key).expect("recorded sessions are open");
                match *op {
                    "safe_updates" => {
                        let t_safe = Instant::now();
                        let safe = s.mgr.safe_updates();
                        let dt = t_safe.elapsed();
                        if on {
                            match s.open_pending.take() {
                                Some(t_new) => {
                                    layers.open.0 += t_new + dt;
                                    layers.open.1 += 1;
                                }
                                None => {
                                    layers.safe.0 += dt;
                                    layers.safe.1 += 1;
                                }
                            }
                        }
                        let tokens: Vec<String> = safe
                            .iter()
                            .map(|u| format!("\"{}\"", encode_update(&s.mgr, u)))
                            .collect();
                        (200, format!("safe:{}", tokens.len()))
                    }
                    "vet" | "submit" => {
                        let up = decode_update(&s.mgr, req.body.trim()).expect("tokens decode");
                        let outcome = if *op == "vet" {
                            lap(on, &mut layers.vet, || s.mgr.vet(&up))
                        } else {
                            lap(on, &mut layers.submit, || s.mgr.submit(up))
                        };
                        let tag = match outcome {
                            Ok(()) if s.mgr.is_complete() => "ok-complete",
                            Ok(()) => "ok",
                            Err(r) => rejection_tag(&r),
                        };
                        (200, tag.to_string())
                    }
                    _ => {
                        sessions.remove(&key);
                        (200, "closed".to_string())
                    }
                }
            }
            _ => (404, "-".to_string()),
        };
        let mut sink: Vec<u8> = Vec::new();
        let response = Response::json(status, "{}").header("X-Verdict", verdict.clone());
        lap(on, &mut layers.write, || response.write_to(&mut sink)).expect("writes to memory");
        results.push((t0.elapsed(), verdict));
    }
    results
}

/// The traced run: replay the recorded request bytes in-process, layer
/// by layer, and set the client's latencies against the replay.
fn traced(
    samples: &[Sample],
    mut recorded: Vec<Recorded>,
    metrics_body: &str,
    cfg: &ServerConfig,
    inner: usize,
    out: &mut Run,
) {
    recorded.sort_by(|a, b| a.start.total_cmp(&b.start));
    // Alternate untimed and timed replays so that neither side alone pays
    // for warming the allocator; the layers are read off the last one.
    let (mut plain_s, mut timed_s) = (0.0, 0.0);
    let total = |r: &[(Duration, String)]| r.iter().map(|(d, _)| d.as_secs_f64()).sum::<f64>();
    let mut layers = Layers::default();
    let mut timed = Vec::new();
    for _ in 0..2 {
        plain_s += total(&replay(
            &recorded,
            cfg,
            inner,
            false,
            &mut Layers::default(),
        ));
        layers = Layers::default();
        timed = replay(&recorded, cfg, inner, true, &mut layers);
        timed_s += total(&timed);
    }
    let mut transport = [(0.0f64, 0usize); 2];
    for (x, (dt, verdict)) in recorded.iter().zip(&timed) {
        if *verdict != x.verdict {
            out.mismatch(format!(
                "serve replay: verdict {verdict}, over HTTP {}",
                x.verdict
            ));
        }
        let slot = &mut transport[usize::from(x.analyze)];
        slot.0 += (x.latency.as_secs_f64() - dt.as_secs_f64()) * 1e6;
        slot.1 += 1;
    }
    let us = |(d, n): (Duration, usize)| d.as_secs_f64() * 1e6 / n.max(1) as f64;
    let connects: f64 = samples.iter().map(|x| f64::from(x.connect_us)).sum();
    let m = &mut out.metrics;
    m.put(
        "server.client.connect_us",
        "us",
        connects / samples.len().max(1) as f64,
        samples.len(),
    );
    m.put(
        "server.http.read_request_us",
        "us",
        us(layers.read),
        layers.read.1,
    );
    m.put(
        "server.http.write_us",
        "us",
        us(layers.write),
        layers.write.1,
    );
    let (t_all, n_all) = (
        transport[0].0 + transport[1].0,
        transport[0].1 + transport[1].1,
    );
    m.put(
        "server.transport_queue_us",
        "us",
        t_all / n_all.max(1) as f64,
        n_all,
    );
    m.put(
        "server.transport_queue_us.session",
        "us",
        transport[0].0 / transport[0].1.max(1) as f64,
        transport[0].1,
    );
    m.put(
        "server.transport_queue_us.analyze",
        "us",
        transport[1].0 / transport[1].1.max(1) as f64,
        transport[1].1,
    );
    m.put(
        "workflow.manager.safe_updates_us",
        "us",
        us(layers.safe),
        layers.safe.1,
    );
    m.put(
        "workflow.manager.vet_us",
        "us",
        us(layers.vet),
        layers.vet.1,
    );
    m.put(
        "workflow.manager.submit_us",
        "us",
        us(layers.submit),
        layers.submit.1,
    );
    m.put(
        "workflow.manager.open_ms",
        "ms",
        us(layers.open) / 1e3,
        layers.open.1,
    );
    m.put(
        "core.serialize.from_ron_us",
        "us",
        us(layers.from_ron),
        layers.from_ron.1,
    );
    m.put(
        "solver.cache.probe_us",
        "us",
        us(layers.probe),
        layers.probe.1,
    );
    m.put(
        "solver.cache.hit_rate",
        "ratio",
        layers.hits as f64 / layers.probe.1.max(1) as f64,
        layers.probe.1,
    );
    for (name, key) in [
        ("workflow.manager.graph_hit_rate", "graph_hit_rate"),
        ("workflow.manager.cold_solves", "cold_solves"),
        ("server.metrics.shed", "shed"),
        ("server.metrics.graph_evictions", "graph_evictions"),
    ] {
        let v = metrics_field(metrics_body, key);
        if v.is_nan() {
            out.mismatch(format!("serve: /metrics has no {key}"));
        }
        let unit = if key.ends_with("rate") {
            "ratio"
        } else {
            "count"
        };
        out.metrics
            .put(name, unit, if v.is_nan() { 0.0 } else { v }, 1);
    }
    out.metrics.put(
        "bench.trace_overhead_share",
        "ratio",
        timed_s / plain_s - 1.0,
        recorded.len(),
    );
}
