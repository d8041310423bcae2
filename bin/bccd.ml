(* bccd — resident BCC solver daemon.

   Serves POST /solve, /gmc3, /ecc, the /workloads store family, plus
   GET /instances, /healthz, /metrics, /debug/trace, /debug/solves and
   /debug/sched over plain HTTP/1.1 (see lib/server/server.mli for the
   wire format).  Solve traffic is admitted through a multi-tenant
   batch scheduler: identical concurrent requests coalesce into one
   computation and tenants (--tenant-weight) share the workers by
   weighted deficit round-robin.
   Every request is answered with an X-Bcc-Trace-Id correlation header
   that keys its record in the /debug/solves flight recorder; --event-log
   streams the wide events to a JSONL file and --debug-dir dumps slow or
   degraded solves automatically.  With --state-dir, workloads are
   journaled to disk and recovered on restart.  SIGINT/SIGTERM trigger a
   graceful shutdown that drains in-flight solves before exiting. *)

open Cmdliner
module Server = Bcc_server.Server

let port_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.port
    & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Listen port; 0 picks an ephemeral port.")

let host_arg =
  Arg.(
    value
    & opt string Server.default_config.Server.host
    & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")

let workers_arg =
  Arg.(
    value & opt int 0
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:"Worker threads; 0 sizes the pool to the machine (recommended domain count).")

let queue_depth_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.queue_depth
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:"Bounded request queue; further connections get 429 with retry-after.")

let cache_entries_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.cache_entries
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"Capacity of the instance and solution LRU caches.")

let timeout_arg =
  Arg.(
    value
    & opt float Server.default_config.Server.timeout_s
    & info [ "t"; "timeout" ] ~docv:"SECONDS"
        ~doc:"Socket read/write timeout and maximum queue wait per request.")

let load_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string string) []
    & info [ "load" ] ~docv:"NAME=FILE"
        ~doc:"Preload an instance file under NAME (repeatable); clients may then \
              POST {\"instance\": \"NAME\"} instead of a full instance body.")

let trace_buffer_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.trace_spans
    & info [ "trace-buffer" ] ~docv:"N"
        ~doc:"Span ring-buffer capacity backing GET /debug/trace and the per-stage \
              latency histograms; 0 disables tracing and profiling entirely.")

let event_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "event-log" ] ~docv:"FILE"
        ~doc:"Append every wide telemetry event (request lifecycle, solver anytime \
              progress, store commits) as one JSONL line to FILE (truncated at \
              startup).")

let debug_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "debug-dir" ] ~docv:"DIR"
        ~doc:"Flight-recorder dump directory: a solve that finishes degraded or \
              slower than 1s is written to DIR/<trace-id>.jsonl (events then spans) \
              for post-mortem inspection.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:"Durable workload-store directory (snapshots + journals); created if \
              missing, replayed at startup.  Without it the /workloads store is \
              in-memory only.")

let sched_concurrency_arg =
  Arg.(
    value & opt int 0
    & info [ "sched-concurrency" ] ~docv:"N"
        ~doc:"Concurrently executing solve batches; 0 auto-sizes to workers - 1 \
              so one worker stays free to coalesce arrivals into the next batch.")

let tenant_depth_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.tenant_depth
    & info [ "tenant-depth" ] ~docv:"N"
        ~doc:"Max queued solve requests per tenant; beyond it the tenant gets 429 \
              with a retry-after hint.")

let tenant_weight_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "tenant-weight" ] ~docv:"NAME=W"
        ~doc:"Fair-share weight of tenant NAME (repeatable); unlisted tenants \
              weigh 1.  A weight-2 tenant is dispatched twice as often under \
              contention.")

let curve_cache_mb_arg =
  Arg.(
    value
    & opt int Server.default_config.Server.curve_cache_mb
    & info [ "curve-cache-mb" ] ~docv:"MIB"
        ~doc:"Byte budget of the process-wide curve cache the incremental \
              pipeline shares across workloads; least-recently-used artifacts \
              are evicted beyond it.")

let route_to_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "route-to"; "router" ] ~docv:"HOST:PORT,..."
        ~doc:"Run this node as a cluster router in front of the listed bccd \
              shards: workloads are rendezvous-hashed onto shards, stateless \
              solves fail over (and hedge) across them, store traffic is \
              owner-only with 503+retry-after while the owner is down.")

let hedge_delay_ms_arg =
  Arg.(
    value & opt float 50.0
    & info [ "hedge-delay-ms" ] ~docv:"MS"
        ~doc:"Router only: hedge an idempotent read onto the backup shard when \
              the primary has not answered within MS milliseconds.")

let log_level_arg =
  let levels =
    [
      ("debug", Logs.Debug);
      ("info", Logs.Info);
      ("warning", Logs.Warning);
      ("error", Logs.Error);
    ]
  in
  Arg.(
    value
    & opt (enum levels) Logs.Warning
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Stderr log verbosity: $(b,debug), $(b,info), $(b,warning) or $(b,error).")

(* Status lines are best effort: a supervisor may stop reading stdout,
   and with SIGPIPE ignored the write then fails.  Unbuffered, so no
   unwritable bytes are left for the flush at exit. *)
let say fmt =
  let write s = ignore (Unix.write_substring Unix.stdout s 0 (String.length s)) in
  Printf.ksprintf (fun s -> try write s with Unix.Unix_error _ -> ()) fmt

let run host port workers queue_depth cache_entries timeout preload trace_spans state_dir
    event_log debug_dir sched_concurrency tenant_depth tenant_weights curve_cache_mb
    route_to hedge_delay_ms level =
  Bcc_obs.Log_reporter.install ~level ();
  (* Fault injection is opt-in per entry point: only binaries load
     BCC_FAULTS, never the libraries. *)
  (match Bcc_robust.Fault.load_env () with
  | () ->
      if Bcc_robust.Fault.enabled () then
        say "bccd: armed faults: %s\n" (Bcc_robust.Fault.summary ())
  | exception Failure msg -> prerr_endline ("bccd: " ^ msg); exit 2);
  let ring =
    match route_to with
    | None -> Ok None
    | Some spec -> (
        match Bcc_cluster.Ring.parse_nodes spec with
        | Some ring -> Ok (Some ring)
        | None ->
            Error
              (Printf.sprintf
                 "--route-to %S: expected a comma-separated host:port list" spec))
  in
  match ring with
  | Error msg -> `Error (true, msg)
  | Ok ring ->
  (* The router needs the server's metrics registry, which exists only
     after Server.create; the config needs the forward hook before.  A
     ref cell closes the cycle. *)
  let router : Bcc_cluster.Router.t option ref = ref None in
  let cfg =
    {
      Server.host;
      port;
      workers;
      queue_depth;
      cache_entries;
      timeout_s = timeout;
      preload;
      trace_spans;
      state_dir;
      event_log;
      debug_dir;
      sched_concurrency;
      tenant_depth;
      tenant_weights;
      curve_cache_mb;
      forward =
        (fun req ->
          match !router with
          | Some r -> Bcc_cluster.Router.forward r req
          | None -> None);
    }
  in
  match Server.create cfg with
  | exception Failure msg -> `Error (false, msg)
  | exception Unix.Unix_error (e, _, _) ->
      `Error (false, Printf.sprintf "cannot bind %s:%d: %s" host port (Unix.error_message e))
  | srv ->
      (match ring with
      | Some ring ->
          let r =
            Bcc_cluster.Router.create
              ~hedge_delay_s:(Float.max 0.0 hedge_delay_ms /. 1000.0)
              ~tenant_depth ~tenant_weights ~metrics:(Server.metrics srv) ring
          in
          Bcc_cluster.Router.start_probes r;
          router := Some r;
          say "bccd: routing to %d shards: %s\n"
            (Bcc_cluster.Ring.size ring)
            (String.concat ", "
               (List.map Bcc_cluster.Ring.node_id (Bcc_cluster.Ring.nodes ring)))
      | None -> ());
      let stop _ = Server.request_stop srv in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      List.iter
        (fun (name, _) -> say "bccd: loaded instance %s\n" name)
        preload;
      (match state_dir with
      | Some dir ->
          let infos = Bcc_server.Server.store srv |> Bcc_store.Store.list in
          say "bccd: recovered %d workloads from %s in %.3fs\n"
            (List.length infos) dir
            (Bcc_store.Store.replay_seconds (Server.store srv));
          List.iter
            (fun (i : Bcc_store.Store.info) ->
              say "bccd: workload %s at epoch %d (%d queries)\n"
                i.Bcc_store.Store.name i.Bcc_store.Store.epoch
                i.Bcc_store.Store.num_queries)
            infos
      | None -> ());
      say "bccd: listening on %s:%d (%d workers, queue %d, cache %d, timeout %gs)\n"
        host (Server.port srv) (Server.num_workers srv) queue_depth cache_entries timeout;
      Server.run srv;
      (match !router with Some r -> Bcc_cluster.Router.stop r | None -> ());
      say "bccd: shutdown complete\n";
      `Ok ()

let cmd =
  let term =
    Term.(
      ret
        (const run $ host_arg $ port_arg $ workers_arg $ queue_depth_arg
       $ cache_entries_arg $ timeout_arg $ load_arg $ trace_buffer_arg
       $ state_dir_arg $ event_log_arg $ debug_dir_arg $ sched_concurrency_arg
       $ tenant_depth_arg $ tenant_weight_arg $ curve_cache_mb_arg
       $ route_to_arg $ hedge_delay_ms_arg $ log_level_arg))
  in
  let doc = "resident BCC solver service with request batching and a solution cache" in
  Cmd.v (Cmd.info "bccd" ~doc) term

let () = exit (Cmd.eval cmd)
