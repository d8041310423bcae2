module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Gmc3 = Bcc_core.Gmc3
module Ecc = Bcc_core.Ecc
module Io = Bcc_data.Io
module Timer = Bcc_util.Timer
module Trace = Bcc_obs.Trace
module Stage = Bcc_obs.Stage
module Event = Bcc_obs.Event
module Progress = Bcc_obs.Progress
module Recorder = Bcc_obs.Recorder
module Engine = Bcc_engine.Engine
module Deadline = Bcc_robust.Deadline
module Fault = Bcc_robust.Fault
module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Pipeline = Bcc_core.Pipeline
module Sched = Bcc_sched.Sched
module Curve_cache = Bcc_sched.Curve_cache

type config = {
  host : string;
  port : int;
  workers : int;
  queue_depth : int;
  cache_entries : int;
  timeout_s : float;
  preload : (string * string) list;
  trace_spans : int;
  state_dir : string option;
  event_log : string option;  (* JSONL wide-event log, one line per event *)
  debug_dir : string option;  (* flight-recorder dumps of slow/degraded solves *)
  sched_concurrency : int;  (* concurrent solve batches; 0 = workers - 1 *)
  tenant_depth : int;  (* max queued solve requests per tenant *)
  tenant_weights : (string * int) list;  (* fair-share weights; default 1 *)
  curve_cache_mb : int;  (* byte budget of the shared curve cache *)
  forward : Http.request -> Http.response option;
      (* cluster hook, consulted before local handling: [Some resp]
         means another shard owns the request and [resp] is its (or the
         failover path's) answer.  The daemon wires Bcc_cluster.Router
         in here; [fun _ -> None] (the default) serves everything
         locally.  A function field rather than a Router value keeps
         lib/server free of a dependency cycle with lib/cluster. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 8080;
    workers = 0;
    queue_depth = 64;
    cache_entries = 256;
    timeout_s = 30.0;
    preload = [];
    trace_spans = 4096;
    state_dir = None;
    event_log = None;
    debug_dir = None;
    sched_concurrency = 0;
    tenant_depth = 32;
    tenant_weights = [];
    curve_cache_mb = 64;
    forward = (fun _ -> None);
  }

type loaded = { digest : string; inst : Instance.t }

type t = {
  cfg : config;
  sock : Unix.file_descr;
  actual_port : int;
  num_workers : int;
  pool : Engine.Pool.t;  (* connection handlers AND solver-internal portfolios *)
  pending : int Atomic.t;  (* accepted connections not yet picked up by a worker *)
  stop : bool Atomic.t;
  named : (string, loaded) Hashtbl.t;
  inst_cache : loaded Cache.t;  (* raw body digest -> parsed instance *)
  sol_cache : Json.t Cache.t;  (* canonical digest + endpoint + params -> result *)
  store : Store.t;  (* versioned workloads, durable under [state_dir] *)
  curve_cache : Curve_cache.t;  (* curve artifacts shared across workloads *)
  sched : Http.response Sched.t;  (* batch scheduler for solve traffic *)
  metrics : Metrics.t;
}

(* Content-addressed identity: the serialized instance minus its header
   comment, so the digest depends on budget/queries/costs but not on the
   (arbitrary) instance name — an inline body and a preloaded file with
   the same content share cache entries. *)
let canonical_digest inst =
  let s = Io.to_string inst in
  let body =
    match String.index_opt s '\n' with
    | Some i when String.length s > 0 && s.[0] = '#' ->
        String.sub s (i + 1) (String.length s - i - 1)
    | _ -> s
  in
  Digest.to_hex (Digest.string body)

let create cfg =
  let named = Hashtbl.create 8 in
  List.iter
    (fun (name, file) ->
      let inst = Io.load file in
      Hashtbl.replace named name { digest = canonical_digest inst; inst })
    cfg.preload;
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port))
   with e -> (try Unix.close sock with _ -> ()); raise e);
  Unix.listen sock 128;
  let actual_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let num_workers =
    if cfg.workers > 0 then cfg.workers else Domain.recommended_domain_count ()
  in
  (* Always the [Domains] backend, even at one worker, so the accept loop
     stays responsive while a solve is in flight.  Installing it as the
     engine default makes solver-internal portfolios (QK/HkS/solver arms)
     run on the same domains as the connection handlers — a worker that
     opens a sub-portfolio drains it itself, so this cannot deadlock. *)
  let pool = Engine.Pool.domains ~jobs:num_workers in
  Engine.install_default pool;
  let curve_cache =
    Curve_cache.create ~max_bytes:(max 1 cfg.curve_cache_mb * 1024 * 1024) ()
  in
  (* Batch concurrency below the worker count keeps a worker available
     to feed (and coalesce into) the next batch while one runs; the
     wrapper is work-conserving, so blocked submitters execute the
     batches themselves. *)
  let sched =
    Sched.create
      ~weights:cfg.tenant_weights ~tenant_depth:cfg.tenant_depth
      ~concurrency:
        (if cfg.sched_concurrency > 0 then cfg.sched_concurrency
         else max 1 (num_workers - 1))
      ()
  in
  let t =
    {
      cfg;
      sock;
      actual_port;
      num_workers;
      pool;
      pending = Atomic.make 0;
      stop = Atomic.make false;
      named;
      inst_cache = Cache.create ~capacity:(max 1 cfg.cache_entries);
      sol_cache = Cache.create ~capacity:(max 1 cfg.cache_entries);
      store = Store.create ?dir:cfg.state_dir ~curve_cache ();
      curve_cache;
      sched;
      metrics = Metrics.create ();
    }
  in
  if cfg.trace_spans > 0 then begin
    Trace.set_tracing ~capacity:cfg.trace_spans true;
    Trace.set_profiling true;
    (* Solver stages run well below the default request-latency buckets;
       start at 10 µs. *)
    let stage_buckets = [| 1e-5; 1e-4; 1e-3; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 30.0 |] in
    Stage.set_observer (fun stage dt ->
        Metrics.observe t.metrics "bcc_stage_duration_seconds"
          ~labels:[ ("stage", stage) ] ~buckets:stage_buckets
          ~help:"Wall time per solver pipeline stage." dt)
  end;
  (* Wide-event telemetry rides the same switch as tracing: every
     request gets a correlation id, the solver's anytime progress stream
     lands in the event ring, and the flight recorder groups it per
     solve for [GET /debug/solves]. *)
  if cfg.trace_spans > 0 then begin
    Event.set_enabled ~capacity:(max 1024 cfg.trace_spans) true;
    Recorder.enable ();
    Recorder.set_debug_dir cfg.debug_dir;
    (match cfg.event_log with Some path -> Event.log_to_file path | None -> ());
    (* Metrics bridge: fold the progress stream into the Prometheus
       registry as it happens (counters here are event-driven, not the
       scrape-time delta-inc pattern — each event is seen exactly
       once). *)
    Event.add_sink ~name:"metrics" (fun e ->
        match e.Event.name with
        | "incumbent_update" ->
            Metrics.inc t.metrics "bcc_incumbent_improvements_total"
              ~help:"Incumbent updates emitted by the solver's anytime stream."
        | "solve_report" -> (
            match Progress.report_of_event e with
            | Some r ->
                Metrics.inc t.metrics "bcc_solve_rounds_total"
                  ~help:"Residual rounds run, summed over solves."
                  ~by:(float_of_int r.Progress.rounds);
                Metrics.set t.metrics "bcc_solve_utility_ratio"
                  ~help:
                    "Last solve's utility as a share of the instance's total \
                     utility."
                  r.Progress.utility_ratio
            | None -> ())
        | _ -> ())
  end;
  t

let port t = t.actual_port
let num_workers t = t.num_workers
let metrics t = t.metrics
let store t = t.store
let request_stop t = Atomic.set t.stop true

(* --- request handling --- *)

let prop_name inst p =
  match Instance.names inst with
  | Some tbl -> Symtab.name tbl p
  | None -> string_of_int p

let classifiers_json inst (sol : Solution.t) =
  Json.List
    (List.map
       (fun c ->
         Json.List
           (List.map (fun p -> Json.Str (prop_name inst p)) (Propset.to_list c)))
       sol.Solution.classifiers)

let solution_fields inst (sol : Solution.t) =
  [
    ("cost", Json.Num sol.Solution.cost);
    ("utility", Json.Num sol.Solution.utility);
    ("classifiers", classifiers_json inst sol);
    ("verified", Json.Bool (Solution.verify inst sol));
  ]

(* Cache lookups pass through the ["cache.get"] injection point; a
   lookup that faults is downgraded to a miss (plus an error counter) so
   a broken cache degrades throughput, never availability. *)
let cache_find t ~name cache key =
  match
    Fault.hit "cache.get";
    Cache.find cache key
  with
  | v -> v
  | exception Fault.Injected _ ->
      Metrics.inc t.metrics "bccd_cache_errors_total"
        ~labels:[ ("cache", name) ]
        ~help:"Cache lookups that failed (treated as misses).";
      None

let fmt_opt = function None -> "-" | Some x -> Printf.sprintf "%.17g" x

let resolve_instance t = function
  | Request.Named name -> (
      match Hashtbl.find_opt t.named name with
      | Some l -> Ok l
      | None -> Error (404, "unknown instance: " ^ name))
  | Request.Inline { text; digest } -> (
      let digest = Lazy.force digest in
      match cache_find t ~name:"instance" t.inst_cache digest with
      | Some l ->
          Metrics.inc t.metrics "bccd_cache_hits_total"
            ~labels:[ ("cache", "instance") ];
          Ok l
      | None -> (
          Metrics.inc t.metrics "bccd_cache_misses_total"
            ~labels:[ ("cache", "instance") ];
          match Io.load_string ~name:("inline-" ^ String.sub digest 0 8) text with
          | inst ->
              let l = { digest = canonical_digest inst; inst } in
              Cache.put t.inst_cache digest l;
              Ok l
          | exception Failure msg -> Error (400, msg)))

(* The solve's own deadline, anchored when its handler starts, not at
   admission. *)
let deadline_of = function
  | None -> Deadline.none
  | Some ms -> Deadline.of_timeout_ms ~label:"request" ms

let handle_solve t ~endpoint ~source ~budget ~target ~timeout_ms =
  let ep = Request.endpoint_name endpoint in
  match resolve_instance t source with
  | Error (status, msg) -> Http.error_response status msg
  | Ok { digest; inst } -> (
      match (endpoint, target) with
      | Request.Gmc3, None -> Http.error_response 400 "gmc3 needs a \"target\" utility"
      | _ -> (
          let inst = match budget with Some b -> Instance.with_budget inst b | None -> inst in
          let key =
            Printf.sprintf "%s|%s|b=%s|t=%s" digest ep (fmt_opt budget) (fmt_opt target)
          in
          let deadline = deadline_of timeout_ms in
          let degraded = ref false in
          let compute () =
            let timer = Timer.start () in
            let fields =
              match endpoint with
              | Request.Solve ->
                  let r = Solver.solve_within ~deadline inst in
                  if r.Solver.degraded then degraded := true;
                  solution_fields inst r.Solver.solution
              | Request.Gmc3 ->
                  (* GMC3/ECC inherit the deadline ambiently (their
                     inner solves degrade rather than raise); the
                     expired clock afterwards is what marks the
                     composite result degraded. *)
                  let r =
                    Deadline.with_current deadline @@ fun () ->
                    Gmc3.solve inst ~target:(Option.get target)
                  in
                  if Deadline.expired deadline then degraded := true;
                  solution_fields inst r.Gmc3.solution
                  @ [
                      ("reached", Json.Bool r.Gmc3.reached);
                      ("budget_used", Json.Num r.Gmc3.budget_used);
                    ]
              | Request.Ecc ->
                  let sol =
                    Deadline.with_current deadline @@ fun () -> Ecc.solve inst
                  in
                  if Deadline.expired deadline then degraded := true;
                  solution_fields inst sol
                  @ [ ("ratio", Json.Num (Ecc.ratio_of sol)) ]
            in
            Metrics.observe t.metrics "bccd_solve_duration_seconds"
              ~labels:[ ("endpoint", ep) ]
              ~help:"Time spent computing uncached solves."
              (Timer.elapsed_s timer);
            Json.Obj
              (( "instance",
                 Json.Str
                   (match source with
                   | Request.Named n -> n
                   | Request.Inline _ -> Instance.name inst) )
              :: ("digest", Json.Str digest)
              :: ("budget", Json.Num (Instance.budget inst))
              :: fields)
          in
          match
            match cache_find t ~name:"solution" t.sol_cache key with
            | Some json -> (json, true)
            | None ->
                let json = compute () in
                (* A degraded result is what the deadline allowed,
                   not the instance's answer — never memoize it. *)
                if not !degraded then Cache.put t.sol_cache key json;
                (json, false)
          with
          | json, was_hit ->
              Metrics.inc t.metrics
                (if was_hit then "bccd_cache_hits_total"
                 else "bccd_cache_misses_total")
                ~labels:[ ("cache", "solution") ];
              if !degraded then begin
                Metrics.inc t.metrics "bcc_requests_degraded_total"
                  ~labels:[ ("endpoint", ep) ]
                  ~help:"Requests answered with a degraded (deadline-cut) solution."
              end;
              if (not (Deadline.is_none deadline)) && Deadline.expired deadline
              then
                Metrics.inc t.metrics "bcc_deadline_exceeded_total"
                  ~labels:[ ("endpoint", ep) ]
                  ~help:"Requests whose deadline expired during handling.";
              let extra =
                (if Deadline.is_none deadline then []
                 else [ ("degraded", Json.Bool !degraded) ])
                @ [ ("cached", Json.Bool was_hit) ]
              in
              let json =
                match json with
                | Json.Obj fields -> Json.Obj (fields @ extra)
                | j -> j
              in
              Http.json_response 200 json
          | exception Failure msg -> Http.error_response 400 msg))

(* --- workload store endpoints --- *)

let info_json (i : Store.info) =
  Json.Obj
    ([
       ("name", Json.Str i.Store.name);
       ("epoch", Json.Num (float_of_int i.Store.epoch));
       ("budget", Json.Num i.Store.budget);
       ("queries", Json.Num (float_of_int i.Store.num_queries));
       ("journal_bytes", Json.Num (float_of_int i.Store.journal_bytes));
     ]
    @ (match i.Store.solved_epoch with
      | Some e -> [ ("solved_epoch", Json.Num (float_of_int e)) ]
      | None -> [])
    @
    match i.Store.warm_ratio with
    | Some r -> [ ("warm_ratio", Json.Num r) ]
    | None -> [])

let solved_json (s : Store.solved) =
  Json.Obj
    (("workload", Json.Str s.Store.info.Store.name)
    :: ("epoch", Json.Num (float_of_int s.Store.solved_at))
    :: ("budget", Json.Num (Instance.budget s.Store.instance))
    :: solution_fields s.Store.instance s.Store.solution
    @ [
        ("degraded", Json.Bool s.Store.degraded);
        ("warm", Json.Bool s.Store.warm);
        ("seed_utility", Json.Num s.Store.seed_utility);
        ("wall_s", Json.Num s.Store.wall_s);
      ]
    @
    if s.Store.components_total = 0 then []
    else
      [
        ("components_total", Json.Num (float_of_int s.Store.components_total));
        ("components_reused", Json.Num (float_of_int s.Store.components_reused));
      ])

let stored to_json = function
  | Ok v -> Http.json_response 200 (to_json v)
  | Error `Not_found -> Http.error_response 404 "no such workload (or it was never solved)"
  | Error (`Bad msg) -> Http.error_response 400 msg

let handle_workload_delta t name ~log body =
  match
    (* A raw log tail as a delta: each line becomes an [add] of its
       search count, the paper's drifting-utility feed. *)
    if log then fst (Delta.of_log body) else Delta.parse body
  with
  | exception Failure msg -> Http.error_response 400 msg
  | ops -> stored info_json (Store.delta t.store ~name ops)

let handle_workload_solve t name ~cold ~incremental ~timeout_ms =
  let deadline = deadline_of timeout_ms in
  match Store.solve t.store ~name ~cold ~incremental ~deadline () with
  | Error e -> stored solved_json (Error e)
  | Ok s ->
      Metrics.observe t.metrics "bccd_solve_duration_seconds"
        ~labels:[ ("endpoint", "workload") ]
        ~help:"Time spent computing uncached solves." s.Store.wall_s;
      if incremental then begin
        Metrics.inc t.metrics "bcc_resolve_components_total"
          ~by:(float_of_int s.Store.components_total)
          ~help:"Pipeline components staged by incremental re-solves.";
        Metrics.inc t.metrics "bcc_resolve_components_reused_total"
          ~by:(float_of_int s.Store.components_reused)
          ~help:"Pipeline component curves served from the artifact cache.";
        Metrics.observe t.metrics "bcc_resolve_wall_seconds"
          ~help:"Wall time of incremental (pipeline) re-solves." s.Store.wall_s
      end;
      if s.Store.degraded then
        Metrics.inc t.metrics "bcc_requests_degraded_total"
          ~labels:[ ("endpoint", "workload") ]
          ~help:"Requests answered with a degraded (deadline-cut) solution.";
      Http.json_response 200 (solved_json s)

let handle_instances t =
  let entries =
    Hashtbl.fold
      (fun name { digest; inst } acc ->
        Json.Obj
          [
            ("name", Json.Str name);
            ("digest", Json.Str digest);
            ("budget", Json.Num (Instance.budget inst));
            ("queries", Json.Num (float_of_int (Instance.num_queries inst)));
            ("classifiers", Json.Num (float_of_int (Instance.num_classifiers inst)));
            ("properties", Json.Num (float_of_int (Instance.num_properties inst)));
          ]
        :: acc)
      t.named []
  in
  Http.json_response 200 (Json.Obj [ ("instances", Json.List entries) ])

let attr_json (v : Trace.value) =
  match v with
  | Trace.Bool b -> Json.Bool b
  | Trace.Int n -> Json.Num (float_of_int n)
  | Trace.Float x -> Json.Num x
  | Trace.Str s -> Json.Str s

let span_json (sp : Trace.span) children =
  Json.Obj
    ([
       ("name", Json.Str sp.Trace.name);
       ("id", Json.Num (float_of_int sp.Trace.id));
       ("tid", Json.Num (float_of_int sp.Trace.tid));
       ("start_s", Json.Num sp.Trace.start_s);
       ("duration_s", Json.Num (sp.Trace.end_s -. sp.Trace.start_s));
       ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) (Trace.ordered_attrs sp)));
     ]
    @ if children = [] then [] else [ ("children", Json.List children) ])

(* Last-N completed spans as a forest.  Children complete before their
   parents, so one chronological pass has every child's JSON built by
   the time its parent is reached. *)
let handle_trace last =
  let spans = Trace.spans ~last () in
  let present = Hashtbl.create 64 in
  List.iter (fun (sp : Trace.span) -> Hashtbl.replace present sp.Trace.id ()) spans;
  let children : (int, Json.t list) Hashtbl.t = Hashtbl.create 64 in
  let take id =
    match Hashtbl.find_opt children id with Some l -> List.rev l | None -> []
  in
  let roots = ref [] in
  List.iter
    (fun (sp : Trace.span) ->
      let j = span_json sp (take sp.Trace.id) in
      if Hashtbl.mem present sp.Trace.parent then
        Hashtbl.replace children sp.Trace.parent
          (j :: Option.value ~default:[] (Hashtbl.find_opt children sp.Trace.parent))
      else roots := j :: !roots)
    spans;
  Http.json_response 200
    (Json.Obj
       [
         ("enabled", Json.Bool (Trace.tracing ()));
         ("dropped", Json.Num (float_of_int (Trace.dropped ())));
         ("spans", Json.List (List.rev !roots));
       ])

let event_json (e : Event.t) =
  Json.Obj
    [
      ("ts_s", Json.Num e.Event.ts_s);
      ("name", Json.Str e.Event.name);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, attr_json v)) e.Event.attrs));
    ]

(* One flight-recorder record.  The summary row carries enough to spot
   the interesting solve (wall time, degradation, final utility); the
   [?id=] detail adds the anytime curve, the raw events and the spans
   that overlapped the solve's window. *)
let solve_json ~detail (s : Recorder.solve) =
  let events = Recorder.events s in
  let report = List.find_map Progress.report_of_event events in
  let curve = Progress.curve events in
  let final_utility =
    match report with
    | Some r -> Some r.Progress.utility
    | None -> ( match List.rev curve with (_, u) :: _ -> Some u | [] -> None)
  in
  (* Incremental solves drop one [pipeline_reuse] event; surface its
     reuse accounting on the summary row. *)
  let reuse =
    List.find_map
      (fun (e : Event.t) ->
        if e.Event.name <> "pipeline_reuse" then None
        else
          match
            ( List.assoc_opt "components" e.Event.attrs,
              List.assoc_opt "reused" e.Event.attrs )
          with
          | Some (Event.Int total), Some (Event.Int reused) -> Some (total, reused)
          | _ -> None)
      events
  in
  Json.Obj
    ([
       ("id", Json.Str s.Recorder.corr);
       ("start_s", Json.Num s.Recorder.start_s);
       ("wall_s", Json.Num (s.Recorder.end_s -. s.Recorder.start_s));
       ("events", Json.Num (float_of_int s.Recorder.n_events));
       ("complete", Json.Bool s.Recorder.complete);
       ("degraded", Json.Bool s.Recorder.degraded);
     ]
    @ (match final_utility with
      | Some u -> [ ("final_utility", Json.Num u) ]
      | None -> [])
    @ (match reuse with
      | Some (total, reused) ->
          [
            ("components_total", Json.Num (float_of_int total));
            ("components_reused", Json.Num (float_of_int reused));
          ]
      | None -> [])
    @
    if not detail then []
    else
      [
        ( "curve",
          Json.List
            (List.map
               (fun (t, u) -> Json.Obj [ ("t", Json.Num t); ("u", Json.Num u) ])
               curve) );
        ("event_log", Json.List (List.map event_json events));
        ( "spans",
          Json.List
            (List.map (fun sp -> span_json sp []) s.Recorder.spans) );
      ])

let handle_solves = function
  | Some id -> (
      match Recorder.find id with
      | Some s -> Http.json_response 200 (solve_json ~detail:true s)
      | None -> Http.error_response 404 ("no recorded solve with id " ^ id))
  | None ->
      Http.json_response 200
        (Json.Obj
           [
             ("enabled", Json.Bool (Event.enabled ()));
             ("dumps", Json.Num (float_of_int (Recorder.dump_count ())));
             ( "solves",
               Json.List (List.map (solve_json ~detail:false) (Recorder.solves ())) );
           ])

let handle_sched_debug t =
  let ss = Sched.stats t.sched in
  let cs = Curve_cache.stats t.curve_cache in
  let tenant_json (ti : Sched.Core.tenant_info) =
    Json.Obj
      [
        ("tenant", Json.Str ti.Sched.Core.ti_tenant);
        ("weight", Json.Num (float_of_int ti.Sched.Core.ti_weight));
        ("deficit", Json.Num (float_of_int ti.Sched.Core.ti_deficit));
        ("queued_batches", Json.Num (float_of_int ti.Sched.Core.ti_queued_batches));
        ("queued_waiters", Json.Num (float_of_int ti.Sched.Core.ti_queued_waiters));
        ("dispatched", Json.Num (float_of_int ti.Sched.Core.ti_dispatched));
      ]
  in
  Http.json_response 200
    (Json.Obj
       [
         ("batches_total", Json.Num (float_of_int ss.Sched.batches_total));
         ("coalesced_total", Json.Num (float_of_int ss.Sched.coalesced_total));
         ("rejected_total", Json.Num (float_of_int ss.Sched.rejected_total));
         ("expired_total", Json.Num (float_of_int ss.Sched.expired_total));
         ("queued_batches", Json.Num (float_of_int ss.Sched.queued_batches));
         ("queued_waiters", Json.Num (float_of_int ss.Sched.queued_waiters));
         ("running", Json.Num (float_of_int ss.Sched.running));
         ("est_batch_s", Json.Num ss.Sched.est_batch_s);
         ("tenants", Json.List (List.map tenant_json ss.Sched.tenants));
         ( "curve_cache",
           Json.Obj
             [
               ("entries", Json.Num (float_of_int cs.Curve_cache.entries));
               ("bytes", Json.Num (float_of_int cs.Curve_cache.bytes));
               ("max_bytes", Json.Num (float_of_int cs.Curve_cache.max_bytes));
               ("hits", Json.Num (float_of_int cs.Curve_cache.hits));
               ("misses", Json.Num (float_of_int cs.Curve_cache.misses));
               ("insertions", Json.Num (float_of_int cs.Curve_cache.insertions));
               ("evictions", Json.Num (float_of_int cs.Curve_cache.evictions));
             ] );
       ])

let handle_metrics t =
  let cache_gauges name cache =
    Metrics.set t.metrics "bccd_cache_entries" ~labels:[ ("cache", name) ]
      ~help:"Live entries per cache."
      (float_of_int (Cache.length cache));
    Metrics.inc t.metrics "bccd_cache_evictions_total" ~labels:[ ("cache", name) ]
      ~by:(float_of_int (Cache.evictions cache)
          -. Metrics.counter_value t.metrics "bccd_cache_evictions_total"
               ~labels:[ ("cache", name) ])
  in
  cache_gauges "solution" t.sol_cache;
  cache_gauges "instance" t.inst_cache;
  Metrics.set t.metrics "bccd_workers" ~help:"Worker pool size."
    (float_of_int t.num_workers);
  Metrics.set t.metrics "bccd_uptime_seconds" ~help:"Process uptime."
    (Timer.now_s ());
  (* Execution-engine counters: process-wide atomics polled on scrape
     (the same delta-inc pattern as the cache eviction counter). *)
  let backend_name = function Engine.Seq -> "seq" | Engine.Domains -> "domains" in
  let outcome_name = function
    | `Ok -> "ok"
    | `Error -> "error"
    | `Cancelled -> "cancelled"
  in
  List.iter
    (fun ((b, o), n) ->
      let labels = [ ("backend", backend_name b); ("outcome", outcome_name o) ] in
      Metrics.inc t.metrics "bcc_engine_tasks_total" ~labels
        ~help:"Engine tasks completed, by backend and outcome."
        ~by:
          (float_of_int n
          -. Metrics.counter_value t.metrics "bcc_engine_tasks_total" ~labels))
    (Engine.task_counts ());
  Metrics.set t.metrics "bcc_engine_queue_depth"
    ~help:"Jobs and batch tickets waiting in the engine work queue."
    (float_of_int (Engine.Pool.queue_depth t.pool));
  (* Workload-store series: the commit counter is a store-wide total
     polled with the same delta-inc pattern; journal size and warm-start
     quality are per-workload gauges. *)
  Metrics.inc t.metrics "bcc_store_epochs_total"
    ~help:"Epoch-advancing workload commits (puts and deltas)."
    ~by:
      (float_of_int (Store.epochs_committed t.store)
      -. Metrics.counter_value t.metrics "bcc_store_epochs_total");
  Metrics.set t.metrics "bcc_store_replay_seconds"
    ~help:"Wall time the startup state-directory replay took."
    (Store.replay_seconds t.store);
  List.iter
    (fun (i : Store.info) ->
      Metrics.set t.metrics "bcc_store_journal_bytes"
        ~labels:[ ("workload", i.Store.name) ]
        ~help:"Journal bytes accumulated since the last compaction."
        (float_of_int i.Store.journal_bytes);
      match i.Store.warm_ratio with
      | Some r ->
          Metrics.set t.metrics "bcc_warm_start_utility_ratio"
            ~labels:[ ("workload", i.Store.name) ]
            ~help:
              "Share of the last warm solve's utility already covered by its \
               re-validated seed."
            r
      | None -> ())
    (Store.list t.store);
  (* Scheduler and shared-curve-cache series, polled with the same
     delta-inc pattern as the engine counters. *)
  let delta_inc name ?(labels = []) ?help live =
    Metrics.inc t.metrics name ~labels ?help
      ~by:(live -. Metrics.counter_value t.metrics name ~labels)
  in
  let ss = Sched.stats t.sched in
  delta_inc "bcc_sched_batches_total"
    ~help:"Solve batches dispatched by the batch scheduler."
    (float_of_int ss.Sched.batches_total);
  delta_inc "bcc_sched_coalesced_total"
    ~help:"Solve requests that joined an already-queued batch group."
    (float_of_int ss.Sched.coalesced_total);
  delta_inc "bcc_sched_rejected_total"
    ~help:"Solve requests refused by per-tenant admission."
    (float_of_int ss.Sched.rejected_total);
  delta_inc "bcc_sched_expired_total"
    ~help:"Queued solve requests whose deadline lapsed before dispatch."
    (float_of_int ss.Sched.expired_total);
  Metrics.set t.metrics "bcc_sched_queue_depth"
    ~help:"Solve batches waiting for dispatch."
    (float_of_int ss.Sched.queued_batches);
  Metrics.set t.metrics "bcc_sched_running"
    ~help:"Solve batches currently executing."
    (float_of_int ss.Sched.running);
  Metrics.set t.metrics "bcc_sched_batch_seconds_est"
    ~help:"EWMA of recent batch wall times (drives 429 retry-after)."
    ss.Sched.est_batch_s;
  List.iter
    (fun (ti : Sched.Core.tenant_info) ->
      let labels = [ ("tenant", ti.Sched.Core.ti_tenant) ] in
      delta_inc "bcc_sched_dispatched_total" ~labels
        ~help:"Batches dispatched, by tenant."
        (float_of_int ti.Sched.Core.ti_dispatched);
      Metrics.set t.metrics "bcc_sched_tenant_queued_waiters" ~labels
        ~help:"Waiters queued, by tenant."
        (float_of_int ti.Sched.Core.ti_queued_waiters))
    ss.Sched.tenants;
  let cs = Curve_cache.stats t.curve_cache in
  Metrics.set t.metrics "bcc_curve_cache_entries"
    ~help:"Curve artifacts resident in the shared cache."
    (float_of_int cs.Curve_cache.entries);
  Metrics.set t.metrics "bcc_curve_cache_bytes"
    ~help:"Bytes held by the shared curve cache."
    (float_of_int cs.Curve_cache.bytes);
  delta_inc "bcc_curve_cache_hits_total"
    ~help:"Curve-cache lookups served from a resident artifact."
    (float_of_int cs.Curve_cache.hits);
  delta_inc "bcc_curve_cache_misses_total"
    ~help:"Curve-cache lookups that missed."
    (float_of_int cs.Curve_cache.misses);
  delta_inc "bcc_curve_cache_insertions_total"
    ~help:"Curve artifacts inserted into the shared cache."
    (float_of_int cs.Curve_cache.insertions);
  delta_inc "bcc_curve_cache_evictions_total"
    ~help:"Curve artifacts evicted to stay within the byte budget."
    (float_of_int cs.Curve_cache.evictions);
  Http.response ~content_type:"text/plain; version=0.0.4; charset=utf-8" 200
    (Metrics.render t.metrics)

let handle_direct t (r : Request.t) =
  let timeout_ms = r.Request.timeout_ms in
  match r.Request.route with
  | Request.Healthz -> Http.response 200 "ok\n"
  | Request.Metrics -> handle_metrics t
  | Request.Instances -> handle_instances t
  | Request.Debug_trace last -> handle_trace last
  | Request.Debug_solves id -> handle_solves id
  | Request.Debug_sched -> handle_sched_debug t
  | Request.Compute { endpoint; source; budget; target } ->
      handle_solve t ~endpoint ~source ~budget ~target ~timeout_ms
  | Request.Workload_list ->
      Http.json_response 200
        (Json.Obj [ ("workloads", Json.List (List.map info_json (Store.list t.store))) ])
  | Request.Workload_put { name; budget; source } ->
      stored info_json (Store.put t.store ~name ?budget source)
  | Request.Workload_info name ->
      stored info_json (Option.to_result ~none:`Not_found (Store.info t.store name))
  | Request.Workload_delta { name; log; body } -> handle_workload_delta t name ~log body
  | Request.Workload_solve { name; cold; incremental } ->
      handle_workload_solve t name ~cold ~incremental ~timeout_ms
  | Request.Workload_solution name -> stored solved_json (Store.solution t.store name)
  | Request.Reject (status, msg) -> Http.error_response status msg

(* --- scheduled solve admission --- *)

(* Admission rejections (429/503), under both the legacy reason-labeled
   counter and the robustness-layer total asserted by the fault-matrix
   tests. *)
let count_rejected t reason =
  Metrics.inc t.metrics "bccd_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Connections refused or abandoned.";
  Metrics.inc t.metrics "bcc_requests_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Requests rejected before solving (backpressure, shutdown)."

let default_options_fp = lazy (Pipeline.options_fingerprint Solver.default_options)

(* Coalescing identity.  [key] is the artifact-sharing identity — same
   instance content (or same workload at the same epoch) under the same
   solver options; distinct budgets on one key belong in one batch,
   priced off the same component curves.  [subkey] adds everything that
   changes the response bytes, so only bit-identical requests share a
   computed result.  [None] routes around the scheduler (the direct
   path produces the 400/404). *)
let sched_keys t (r : Request.t) =
  let optfp = Lazy.force default_options_fp in
  let timeout = fmt_opt r.Request.timeout_ms in
  match r.Request.route with
  | Request.Compute { endpoint; source; budget; target } ->
      let src_id =
        match source with
        | Request.Named n -> "n:" ^ n
        | Request.Inline { digest; _ } -> "i:" ^ Lazy.force digest
      in
      let key =
        Printf.sprintf "s|/%s|%s|%s" (Request.endpoint_name endpoint) src_id optfp
      in
      Some
        ( key,
          Printf.sprintf "%s|b=%s|t=%s|to=%s" key (fmt_opt budget) (fmt_opt target)
            timeout )
  | Request.Workload_solve { name; cold; incremental } ->
      Option.map
        (fun (i : Store.info) ->
          let key =
            Printf.sprintf "w|%s|e=%d|%s|c=%b|i=%b" name i.Store.epoch optfp cold
              incremental
          in
          (key, Printf.sprintf "%s|to=%s" key timeout))
        (Store.info t.store name)
  | _ -> None

(* Solve traffic goes through the batch scheduler: concurrent identical
   requests coalesce into one computation, tenants get weighted fair
   share, and a full tenant queue answers 429 with a clamped
   retry-after.  Everything else (health, metrics, workload CRUD) stays
   on the direct path. *)
let handle t (req : Http.request) =
  match t.cfg.forward req with
  | Some resp -> resp
  | None -> (
  let r = Request.decode req in
  match sched_keys t r with
  | None -> handle_direct t r
  | Some (key, subkey) -> (
      let tenant = r.Request.tenant in
      (* Queue deadline: a request that cannot finish in time is pruned
         from the queue, not solved. *)
      let deadline_s =
        Option.map (fun ms -> Timer.now_s () +. (ms /. 1000.)) r.Request.timeout_ms
      in
      let corr = Event.current_corr () in
      let run () =
        (* May run on another submitter's thread: re-install the
           originating request's correlation scope. *)
        let direct () =
          try handle_direct t r with
          | Failure msg -> Http.error_response 400 msg
          | e -> Http.error_response 500 (Printexc.to_string e)
        in
        if corr = "" then direct () else Event.with_corr corr direct
      in
      match
        Sched.submit t.sched ~tenant ?deadline_s
          ?corr:(if corr = "" then None else Some corr)
          ~key ~subkey run
      with
      | Ok resp -> resp
      | Error (Sched.Busy { retry_after_s }) ->
          count_rejected t "tenant_queue_full";
          Http.error_response 429
            ~headers:[ ("retry-after", string_of_int retry_after_s) ]
            (Printf.sprintf "tenant %S queue full, retry in %ds" tenant
               retry_after_s)
      | Error Sched.Expired ->
          count_rejected t "sched_deadline";
          Http.error_response 503 "deadline expired before the solve was dispatched"
      | Error (Sched.Faulted (Fault.Injected point)) ->
          Http.error_response 500 ("injected fault: " ^ point)
      | Error (Sched.Faulted e) ->
          Http.error_response 500 (Printexc.to_string e)))

(* --- connection plumbing --- *)

let count_request t ~endpoint ~status =
  Metrics.inc t.metrics "bccd_requests_total"
    ~labels:[ ("endpoint", endpoint); ("status", string_of_int status) ]
    ~help:"Requests by endpoint and response status."

let respond_error t fd ?headers ~endpoint ~status msg =
  count_request t ~endpoint ~status;
  Http.write_response fd (Http.error_response ?headers status msg)

(* Half-close and drain the client's unread bytes before [close].
   Responses written without reading the request (rejections, read
   errors) would otherwise race a TCP RST — closing a socket with
   unread receive data discards the just-written response on most
   stacks, and the client sees ECONNRESET instead of its 429/503.
   The drain is clamped to 1s so a client that never closes cannot pin
   the accept loop (rejections linger inline there). *)
let linger fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0 with Unix.Unix_error _ -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let buf = Bytes.create 4096 in
  try
    while Unix.read fd buf 0 (Bytes.length buf) > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

let serve_conn t fd enqueued_at =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if Atomic.get t.stop then begin
        count_rejected t "shutdown";
        respond_error t fd ~endpoint:"-" ~status:503 "shutting down";
        linger fd
      end
      else if Timer.now_s () -. enqueued_at > t.cfg.timeout_s then begin
        (* The request waited out its deadline in the queue; solving it
           now would only add to the pile-up. *)
        count_rejected t "queue_timeout";
        respond_error t fd ~endpoint:"-" ~status:503 "timed out in queue";
        linger fd
      end
      else begin
        (* Keep-alive: a client that asked for it (the cluster router's
           pooled connections) may send further requests on the same
           socket.  The idle wait between requests is capped well below
           [timeout_s] so an idle pooled connection cannot pin this
           worker, and the request count is bounded as a backstop.
           Errors on a reused connection close it silently — the
           typical case is the client racing our idle timeout. *)
        let keep_alive_idle_s = Float.min 5.0 t.cfg.timeout_s in
        let max_keep_alive = 256 in
        let rec request_loop ~first n =
          if n <= 0 || Atomic.get t.stop then ()
          else
            match
              Fault.hit "server.read";
              Http.read_request fd
            with
            | exception Fault.Injected point ->
                respond_error t fd ~endpoint:"-" ~status:500
                  ("injected fault: " ^ point);
                linger fd
            | Error { status_hint; message } ->
                if first then begin
                  respond_error t fd ~endpoint:"-" ~status:status_hint message;
                  linger fd
                end
            | Ok req ->
                let timer = Timer.start () in
                (* Every request gets a correlation id — adopted from an
                   [X-Bcc-Trace-Id] request header when a routing hop
                   upstream already minted one (so one trace id follows
                   the request across the cluster), fresh otherwise —
                   installed as the ambient id for the whole handling
                   (engine tasks carry it onto worker domains), stamped
                   on every event the request emits, and returned in
                   [X-Bcc-Trace-Id] so the client can pull the solve's
                   record from [/debug/solves?id=…]. *)
                let corr =
                  if not (Event.enabled ()) then ""
                  else
                    match Http.header req "x-bcc-trace-id" with
                    | Some c when c <> "" && String.length c <= 64 -> c
                    | _ -> Event.new_corr ()
                in
                let run () =
                  try handle t req with
                  | Failure msg -> Http.error_response 400 msg
                  | e -> Http.error_response 500 (Printexc.to_string e)
                in
                let resp =
                  if corr = "" then run ()
                  else
                    Event.with_corr corr (fun () ->
                        let resp = run () in
                        Event.emit "http_request"
                          ~attrs:
                            [
                              ("method", Event.Str req.meth);
                              ("path", Event.Str req.path);
                              ("status", Event.Int resp.Http.status);
                              ("duration_s", Event.Float (Timer.elapsed_s timer));
                            ];
                        resp)
                in
                let resp =
                  if corr = "" then resp
                  else
                    { resp with
                      Http.headers = ("X-Bcc-Trace-Id", corr) :: resp.Http.headers
                    }
                in
                Metrics.observe t.metrics "bccd_request_duration_seconds"
                  ~labels:[ ("endpoint", req.path) ]
                  ~help:"End-to-end request handling time."
                  (Timer.elapsed_s timer);
                count_request t ~endpoint:req.path ~status:resp.Http.status;
                let keep_alive = Http.wants_keep_alive req && n > 1 in
                Http.write_response ~keep_alive fd resp;
                if keep_alive then begin
                  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO keep_alive_idle_s
                   with Unix.Unix_error _ -> ());
                  request_loop ~first:false (n - 1)
                end
        in
        request_loop ~first:true max_keep_alive
      end)

let enqueue_conn t fd =
  (* Socket-level timeouts bound slow readers/writers per request. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.cfg.timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.timeout_s
   with Unix.Unix_error _ -> ());
  let reject ?headers reason ~status msg =
    count_rejected t reason;
    respond_error t fd ?headers ~endpoint:"-" ~status msg;
    linger fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* Backpressure on {e connections} waiting for a worker, not on the raw
     engine queue — solver-internal batch tickets transit the same queue
     and must not trip the admission limit.  A full queue is the
     retryable condition (429 + retry-after); shutdown is the
     non-retryable 503. *)
  if Atomic.get t.pending >= t.cfg.queue_depth then
    reject "queue_full" ~status:429
      ~headers:[ ("retry-after", "1") ]
      "server busy, queue full"
  else begin
    Atomic.incr t.pending;
    Metrics.set t.metrics "bccd_queue_depth"
      ~help:"Connections waiting for a worker."
      (float_of_int (Atomic.get t.pending));
    let enqueued_at = Timer.now_s () in
    let job () =
      Atomic.decr t.pending;
      Metrics.set t.metrics "bccd_queue_depth" (float_of_int (Atomic.get t.pending));
      try serve_conn t fd enqueued_at with _ -> ()
    in
    if not (Engine.Pool.submit t.pool job) then begin
      Atomic.decr t.pending;
      reject "shutdown" ~status:503 "shutting down"
    end
  end

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.select [ t.sock ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.sock with
          | fd, _ -> enqueue_conn t fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Shutdown: the engine pool drains queued connections (late arrivals
     get 503 from [serve_conn]'s stop check) and joins its domains; any
     in-flight solve finishes first. *)
  Engine.Pool.shutdown t.pool;
  Store.close t.store;
  Event.close_log ();
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  (* The daemon is done with the shared pool; leave later library calls
     (tests run several daemons per process) a working default. *)
  Engine.set_default_jobs 1
