(** [bccd] — a resident BCC solver service.

    Architecture: one acceptor thread submits connections to a
    {!Bcc_engine.Engine.Pool} of worker domains (installed as the engine
    default, so solver-internal portfolios share the same domains); when
    too many connections are waiting, new ones are refused with [429]
    and [retry-after: 1] at the door (backpressure) instead of buffering
    unbounded work, and requests that outwait the timeout in the queue
    are answered [503] without being solved.  Results are
    memoized in a content-addressed LRU ({!Cache}) keyed by
    (instance digest, endpoint, budget, target), so a budget sweep over
    a fixed workload — the paper's Section 6 evaluation pattern — pays
    the instance parse and the [A^BCC] run once per distinct budget and
    the parse once overall.

    Endpoints ({!Request} decodes each request's parameters once, for
    every layer):
    - [POST /solve], [POST /gmc3], [POST /ecc] — body is either the
      plain-text instance format of {!Bcc_data.Io} or a JSON object
      [{"instance": <preloaded name>}] / [{"text": <instance text>}]
      with optional ["budget"]/["target"] fields ([?budget=]/[?target=]
      query parameters override);
    - [GET /instances] — the instances preloaded at startup;
    - the workload-store family (backed by {!Bcc_store.Store}, durable
      under [state_dir] and recovered on restart):
      [PUT /workloads/:name[?format=text|log&budget=B]] (create/replace
      from instance text or a raw search log),
      [POST /workloads/:name/delta[?format=delta|log]] (apply one atomic
      epoch-advancing batch),
      [POST /workloads/:name/solve[?cold=true&incremental=true&timeout_ms=MS]]
      (warm-started re-solve, committed to the journal;
      [?incremental=true] routes through {!Bcc_core.Pipeline} and
      reports [components_total]/[components_reused] in the response),
      [GET /workloads/:name/solution], [GET /workloads/:name] and
      [GET /workloads];
    - [GET /healthz], [GET /metrics] (Prometheus text format, including
      [bcc_stage_duration_seconds] histograms labeled by pipeline stage,
      [bcc_engine_tasks_total] counters labeled by engine backend and
      outcome, the [bcc_engine_queue_depth] gauge, and the store series
      [bcc_store_epochs_total], [bcc_store_journal_bytes],
      [bcc_store_replay_seconds] and [bcc_warm_start_utility_ratio],
      plus the incremental-pipeline series
      [bcc_resolve_components_total],
      [bcc_resolve_components_reused_total] and the
      [bcc_resolve_wall_seconds] histogram);
    - [GET /debug/trace?last=N] — the most recent completed
      {!Bcc_obs.Trace} spans as a JSON forest (children nested under
      their parents), for inspecting where a solve spent its time;
    - [GET /debug/solves[?id=…]] — the {!Bcc_obs.Recorder} flight
      recorder: the last N solves keyed by correlation id, and per id
      the anytime utility curve, the raw wide events and the spans that
      overlapped the solve; incremental solves additionally carry
      [components_total]/[components_reused] on their summary rows;
    - [GET /debug/sched] — the live {!Bcc_sched.Sched} state: batch /
      coalescing counters, per-tenant deficit-round-robin standings and
      the shared curve cache's occupancy.

    {2 Batch scheduling and multi-tenancy}

    Solve traffic ([POST /solve]/[/gmc3]/[/ecc] and
    [POST /workloads/:name/solve]) is admitted through a
    {!Bcc_sched.Sched} between the accept loop and the engine:
    concurrent requests for the same instance content (or the same
    workload epoch) under the same solver options coalesce into one
    batch — bit-identical requests share one computed response; distinct
    budgets on the same key run as sibling groups priced off the same
    curves.  Requests name a tenant ({!Request} gives the precedence)
    and tenants receive weighted fair share via deficit round-robin
    ([tenant_weights]); a tenant whose queue exceeds
    [tenant_depth] is answered [429] with a [retry-after] of at least
    1 s.  [/metrics] exports the [bcc_sched_*] and [bcc_curve_cache_*]
    series.

    {2 Request correlation}

    With telemetry on ([trace_spans > 0]) every request is handled under
    a fresh {!Bcc_obs.Event} correlation id, returned to the client in
    the [X-Bcc-Trace-Id] response header; the solver's anytime progress
    stream, store commits and a closing [http_request] event all carry
    it, so [GET /debug/solves?id=<header value>] replays exactly what
    that request did.  The progress stream also feeds the metrics
    registry ([bcc_incumbent_improvements_total],
    [bcc_solve_rounds_total], [bcc_solve_utility_ratio]).

    Shutdown ({!request_stop}, wired to SIGINT/SIGTERM by the daemon):
    stop accepting, answer queued-but-unstarted connections [503], let
    workers finish in-flight solves, shut down the engine pool (joining
    every worker domain), close the socket. *)

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  workers : int;  (** <= 0 means [Domain.recommended_domain_count ()] *)
  queue_depth : int;
  cache_entries : int;  (** capacity of each of the two LRU caches *)
  timeout_s : float;  (** socket read/write timeout and max queue wait *)
  preload : (string * string) list;  (** (name, instance file) pairs *)
  trace_spans : int;
      (** span ring-buffer capacity; [> 0] turns on {!Bcc_obs} tracing and
          stage profiling at startup, [0] leaves both off *)
  state_dir : string option;
      (** workload-store state directory; [None] keeps the store
          in-memory only (workloads do not survive a restart) *)
  event_log : string option;
      (** append every wide event as one JSONL line to this file
          (truncated at startup); [None] disables the file sink *)
  debug_dir : string option;
      (** flight-recorder dump directory: slow or degraded solves are
          written to [<dir>/<corr>.jsonl] on completion; [None] disables
          automatic dumps *)
  sched_concurrency : int;
      (** concurrently executing solve batches; [<= 0] auto-sizes to
          [workers - 1] (min 1), leaving a worker free to feed — and
          coalesce into — the next batch *)
  tenant_depth : int;  (** max queued solve requests per tenant (429 beyond) *)
  tenant_weights : (string * int) list;
      (** fair-share weights by tenant name; absent tenants weigh 1 *)
  curve_cache_mb : int;
      (** byte budget (MiB) of the process-wide curve cache shared
          across workloads by the incremental pipeline *)
  forward : Http.request -> Http.response option;
      (** cluster routing hook, consulted before local handling:
          [Some resp] short-circuits with the forwarded answer, [None]
          (the default's behavior) serves locally.  The daemon wires
          {!Bcc_cluster.Router.forward} in here; a function field keeps
          lib/server free of a dependency cycle with lib/cluster. *)
}

val default_config : config
(** 127.0.0.1:8080, auto-sized workers, queue 64, 256 cache entries,
    30 s timeout, nothing preloaded, 4096-span trace buffer, in-memory
    store, auto batch concurrency, tenant depth 32, 64 MiB curve
    cache. *)

type t

val create : config -> t
(** Loads the [preload] instances, binds and listens.
    @raise Unix.Unix_error when the address is unavailable
    @raise Failure on an unparseable preload file. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val num_workers : t -> int
val metrics : t -> Metrics.t

val store : t -> Bcc_store.Store.t
(** The workload store (already replayed by {!create}) — the daemon uses
    it to report recovery at startup. *)

val run : t -> unit
(** Blocks serving requests until {!request_stop}; returns only after
    workers are drained and joined and the socket is closed. *)

val request_stop : t -> unit
(** Async-signal-safe (just an atomic store): safe to call from a
    [Sys.Signal_handle] or any thread.  [run] notices within ~250 ms. *)
