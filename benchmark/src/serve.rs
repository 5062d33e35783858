//! `serve-explain`: a single closed-loop client talks to an in-process
//! `nadroid-serve` daemon (one worker, one inner thread) over loopback.
//! Each app of a pass gets a cold `analyze`, then a warm single-id
//! `explain` for each surviving id in seeded order.

use crate::gen::{explain_order, App};
use crate::scale::{compose, fidelity, parse_traced};
use crate::trace::Tracer;
use crate::{check, config, ms_since, Run, Stream};
use nadroid_core::{analyze, render_explain_from_json, render_provenance_json_with, Summary};
use nadroid_serve::{AnalyzeOpts, Client, Response, ServeConfig, Server};
use std::time::Instant;

/// Op class of the first request for a program (computed, then cached).
pub const COLD: &str = "cold";
/// Op class of the explain requests that follow it (cache hits).
pub const EXPLAIN: &str = "explain";

/// The daemon's result-cache budget. One pass over the 27 apps caches
/// ~8.6 MB, so under this budget the cache fills during the first pass
/// and evicts least-recently-used entries from then on; the 64 MiB
/// default would take ~8 passes (longer than a run) to evict at all.
const CACHE_BYTES: usize = 8 << 20;

/// The app a variant was made from (its name less the pass suffix):
/// the input its samples are grouped under.
fn input_of(name: &str) -> &str {
    name.rsplit_once("_p").map_or(name, |(base, _)| base)
}

/// Send one request as one op, timing the round trip. In traced mode
/// the op and its `serve.request` span open here, the caller ends the
/// op, and the reply's server time, client overhead and size are
/// counted.
fn request(
    client: &mut Client,
    run: &mut Run,
    send: impl FnOnce(&mut Client) -> Result<Response, String>,
) -> (Result<Response, String>, f64) {
    run.attempted += 1;
    if let Some(tr) = &mut run.trace {
        tr.begin_op();
        tr.open("serve.request");
    }
    let t = Instant::now();
    let reply = send(client);
    let ms = ms_since(t);
    if let Some(tr) = &mut run.trace {
        tr.close();
        if let Ok(r @ (Response::Analyze { micros, .. } | Response::Explain { micros, .. })) =
            &reply
        {
            let server_ms = *micros as f64 / 1e3;
            tr.count("serve.server_ms", server_ms);
            tr.count("serve.overhead_ms", ms - server_ms);
            // The reply as the daemon writes it, less the request id.
            tr.count("serve.response_bytes", r.encode().len() as f64 + 1.0);
        }
    }
    (reply, ms)
}

fn end_op(run: &mut Run) {
    if let Some(tr) = &mut run.trace {
        tr.end_op();
    }
}

/// The daemon's cold work composed in process, layer by layer: the
/// summary, surviving ids and provenance document it would cache.
fn compose_cold(dsl: &str, tr: &mut Tracer) -> Result<(Summary, Vec<String>, String), String> {
    let cfg = config();
    let p = parse_traced(dsl, tr)?;
    let (summary, ids) = compose(&p, &cfg, tr);
    let analysis = tr.leaf("core.analyze", || analyze(&p, &cfg));
    let provs = tr.leaf("core.provenance", || analysis.warning_provenances());
    let json = tr.leaf("core.provenance_json", || {
        render_provenance_json_with(&analysis, &provs)
    });
    tr.count("core.provenance_json_bytes", json.len() as f64);
    Ok((summary, ids, json))
}

/// Cold request, then explains, for one app.
fn app_ops(client: &mut Client, seed: u64, app: &App, run: &mut Run) {
    let (reply, ms) = request(client, run, |c| c.analyze(&app.dsl, AnalyzeOpts::default()));
    let Ok(Response::Analyze {
        cached,
        summary,
        warnings: ids,
        ..
    }) = &reply
    else {
        end_op(run);
        run.failed += 1;
        run.checked(&app.name, Err(format!("analyze failed: {reply:?}")));
        return;
    };
    run.sample(COLD, input_of(&app.name), ms);
    run.checked(
        &app.name,
        check::cold_reply(&app.truth, *cached, summary, ids),
    );
    let composed = run.trace.as_mut().map(|tr| compose_cold(&app.dsl, tr));
    end_op(run);
    let json = match composed {
        None => None,
        Some(Ok((s, composed_ids, json))) => {
            run.checked(
                &app.name,
                fidelity(&(s, composed_ids), &(*summary, ids.clone())),
            );
            Some(json)
        }
        Some(Err(e)) => {
            run.checked(&app.name, Err(format!("traced parse failed: {e}")));
            None
        }
    };
    for id in explain_order(seed, &app.name, ids) {
        let (reply, ms) = request(client, run, |c| {
            c.explain(&app.dsl, Some(&id), AnalyzeOpts::default())
        });
        let rendered = match (&json, &mut run.trace) {
            (Some(json), Some(tr)) => Some(tr.leaf("core.explain_render", || {
                render_explain_from_json(json, Some(&id))
            })),
            _ => None,
        };
        end_op(run);
        let Ok(Response::Explain { cached, text, .. }) = &reply else {
            run.failed += 1;
            run.checked(&app.name, Err(format!("explain {id} failed: {reply:?}")));
            continue;
        };
        run.sample(EXPLAIN, input_of(&app.name), ms);
        run.checked(&app.name, check::explain_reply(&id, *cached, text));
        if rendered.is_some_and(|r| r.as_ref() != Ok(text)) {
            run.checked(
                &app.name,
                Err(format!("traced explain of {id} differs from the daemon's")),
            );
        }
    }
}

/// The serve-explain stream: one step per app (its cold request and
/// its explains), one round per pass; pass `p` comes from `pass(p)`.
pub struct Serve {
    client: Client,
    server: Server,
    seed: u64,
    pass: Box<dyn Fn(u64) -> Vec<App>>,
    done: u64,
    apps: Vec<App>,
    next: usize,
}

impl Serve {
    /// Start a one-worker, one-thread daemon on an ephemeral loopback
    /// port, connect to it, and make the first pass.
    ///
    /// # Errors
    ///
    /// Binding or connecting failed.
    pub fn new(seed: u64, pass: Box<dyn Fn(u64) -> Vec<App>>) -> Result<Serve, String> {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            threads: 1,
            cache_bytes: CACHE_BYTES,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon failed to start: {e}"))?;
        let client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect failed: {e}"))?;
        Ok(Serve {
            client,
            server,
            seed,
            apps: pass(0),
            pass,
            done: 0,
            next: 0,
        })
    }

    /// Record the daemon's cache counters (traced mode), shut it down
    /// and wait for its threads.
    pub fn finish(mut self, run: &mut Run) {
        if let Some(tr) = &mut run.trace {
            if let Ok(Response::Stats { fields }) = self.client.stats() {
                for (name, counter) in [
                    ("cache_bytes", "serve.cache_bytes"),
                    ("cache_evictions", "serve.cache_evictions"),
                    ("cache_hits", "serve.cache_hits"),
                    ("cache_misses", "serve.cache_misses"),
                ] {
                    let v = fields.iter().find(|(n, _)| n == name).map_or(0, |f| f.1);
                    tr.count(counter, v as f64);
                }
            }
        }
        let _ = self.client.shutdown();
        drop(self.client);
        self.server.shutdown();
        self.server.join();
    }
}

impl Stream for Serve {
    fn step(&mut self, run: &mut Run) -> bool {
        app_ops(&mut self.client, self.seed, &self.apps[self.next], run);
        self.next += 1;
        if self.next < self.apps.len() {
            return false;
        }
        self.done += 1;
        self.next = 0;
        self.apps = (self.pass)(self.done);
        true
    }
}
