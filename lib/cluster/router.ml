(* The routing tier that turns N bccd shards into one service.

   Workload names are rendezvous-hashed onto shards (Ring), so a
   workload's journal, curve artifacts and request coalescing always
   land on the same shard.  The stateless solve family is routed to
   the key's owner for cache locality but can be served by any shard
   (the solver is deterministic), so those requests fail over along
   the ring order and may be hedged.  Store state is single-homed:
   reads of a down owner's workloads and all mutations answer 503 +
   retry-after rather than forking state onto a backup.

   Health is a per-shard up/down state machine driven by a background
   /healthz probe loop and by forward-time failures (a connect failure
   marks the shard suspect immediately; the next probe settles it).

   Every forwarding attempt passes the ["cluster.forward"] fault point,
   so the failover path is testable without killing processes. *)

module Http = Bcc_server.Http
module Json = Bcc_server.Json
module Request = Bcc_server.Request
module Metrics = Bcc_server.Metrics
module Fault = Bcc_robust.Fault
module Admission = Bcc_sched.Admission
module Timer = Bcc_util.Timer

let fault_point = "cluster.forward"

type shard_state = {
  mutable up : bool;
  mutable consecutive_fails : int;
}

type t = {
  ring : Ring.t;
  client : Client.t;
  metrics : Metrics.t;
  admission : Admission.t;
  hedge_delay_s : float;
  down_after : int;  (* consecutive failures before Up -> Down *)
  probe_interval_s : float;
  health_lock : Mutex.t;
  health : (string, shard_state) Hashtbl.t;
  stop : bool Atomic.t;
  mutable probe_thread : Thread.t option;
}

(* --- health state machine --- *)

let shard_state t node =
  let id = Ring.node_id node in
  match Hashtbl.find_opt t.health id with
  | Some s -> s
  | None ->
      let s = { up = true; consecutive_fails = 0 } in
      Hashtbl.replace t.health id s;
      s

let set_up_gauge t node up =
  Metrics.set t.metrics "bcc_cluster_shard_up"
    ~labels:[ ("shard", Ring.node_id node) ]
    ~help:"1 when the shard passes health probes, 0 when it is down."
    (if up then 1.0 else 0.0)

let note_result t node ~ok =
  Mutex.lock t.health_lock;
  let s = shard_state t node in
  let changed =
    if ok then begin
      let was = s.up in
      s.consecutive_fails <- 0;
      s.up <- true;
      not was
    end
    else begin
      s.consecutive_fails <- s.consecutive_fails + 1;
      if s.up && s.consecutive_fails >= t.down_after then begin
        s.up <- false;
        true
      end
      else false
    end
  in
  let up_now = s.up in
  Mutex.unlock t.health_lock;
  if changed then set_up_gauge t node up_now

let is_up t node =
  Mutex.lock t.health_lock;
  let up = (shard_state t node).up in
  Mutex.unlock t.health_lock;
  up

let probe t node =
  let req =
    {
      Http.meth = "GET";
      path = "/healthz";
      query = [];
      headers = [];
      body = "";
    }
  in
  match Client.request ~idempotent:true t.client node req with
  | Ok resp -> note_result t node ~ok:(resp.Http.status = 200)
  | Error _ -> note_result t node ~ok:false

let probe_loop t =
  while not (Atomic.get t.stop) do
    List.iter (fun node -> probe t node) (Ring.nodes t.ring);
    (* Small sleep slices keep shutdown prompt. *)
    let slept = ref 0.0 in
    while (not (Atomic.get t.stop)) && !slept < t.probe_interval_s do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

let create ?(hedge_delay_s = 0.05) ?(down_after = 2) ?(probe_interval_s = 0.5)
    ?(tenant_depth = 64) ?(tenant_weights = []) ?client ~metrics ring =
  let client =
    match client with Some c -> c | None -> Client.create ~timeout_s:30.0 ()
  in
  let t =
    {
      ring;
      client;
      metrics;
      admission = Admission.create ~weights:tenant_weights ~depth:tenant_depth ();
      hedge_delay_s;
      down_after = max 1 down_after;
      probe_interval_s = Float.max 0.05 probe_interval_s;
      health_lock = Mutex.create ();
      health = Hashtbl.create 8;
      stop = Atomic.make false;
      probe_thread = None;
    }
  in
  List.iter (fun n -> set_up_gauge t n true) (Ring.nodes ring);
  t

let start_probes t =
  if t.probe_thread = None then
    t.probe_thread <- Some (Thread.create probe_loop t)

let stop t =
  Atomic.set t.stop true;
  (match t.probe_thread with Some th -> Thread.join th | None -> ());
  t.probe_thread <- None;
  Client.close_idle t.client

let ring t = t.ring
let client t = t.client
let admission t = t.admission

(* --- forwarding --- *)

let count_forward t node ~outcome =
  Metrics.inc t.metrics "bcc_cluster_forwards_total"
    ~labels:[ ("shard", Ring.node_id node); ("outcome", outcome) ]
    ~help:"Forwarding attempts by target shard and outcome."

let count_rejected t reason =
  Metrics.inc t.metrics "bcc_cluster_rejected_total"
    ~labels:[ ("reason", reason) ]
    ~help:"Requests the router refused without forwarding."

let retry_after_headers t =
  [ ("retry-after", string_of_int (max 1 (int_of_float (ceil t.probe_interval_s)))) ]

let shard_header node = ("x-bcc-shard", Ring.node_id node)

(* Hop-by-hop headers and the shard's copy of the trace id must not
   leak into the router's own response (write_response re-frames the
   body and the router stamps its own trace header). *)
let sanitize (resp : Http.response) =
  let hop = [ "connection"; "content-length"; "x-bcc-trace-id" ] in
  {
    resp with
    Http.headers =
      List.filter
        (fun (k, _) -> not (List.mem (String.lowercase_ascii k) hop))
        resp.Http.headers;
  }

(* One attempt at one shard.  The fault point stands in for a dead or
   unreachable shard; an injected throw is an attempt failure, so an
   armed ["cluster.forward"] exercises exactly the failover path a
   SIGKILL would. *)
let attempt t node ~idempotent ~deadline_ms (req : Http.request) =
  match
    Fault.hit fault_point;
    Client.request ?deadline_ms ~idempotent t.client node req
  with
  | exception Fault.Injected _ ->
      count_forward t node ~outcome:"injected";
      note_result t node ~ok:false;
      Error { Http.status_hint = 502; message = "injected fault: " ^ fault_point }
  | Ok resp ->
      count_forward t node ~outcome:"ok";
      note_result t node ~ok:true;
      let resp = sanitize resp in
      Ok { resp with Http.headers = shard_header node :: resp.Http.headers }
  | Error e ->
      count_forward t node ~outcome:"error";
      note_result t node ~ok:false;
      Error e

(* Stateless compute: owner first for curve-cache locality, every other
   shard is a valid fallback (deterministic solver — identical bytes
   from any of them).  GETs additionally hedge onto the first backup
   when the primary is slow. *)
let forward_stateless t key ~deadline_ms (req : Http.request) =
  let nodes = Ring.order t.ring key in
  let up_nodes = List.filter (is_up t) nodes in
  let candidates = if up_nodes = [] then nodes else up_nodes in
  if req.Http.meth = "GET" && List.length candidates > 1 then begin
    match
      Fault.hit fault_point;
      Client.hedged ?deadline_ms ~hedge_delay_s:t.hedge_delay_s t.client
        candidates req
    with
    | exception Fault.Injected _ ->
        count_forward t (List.hd candidates) ~outcome:"injected";
        Http.error_response ~headers:(retry_after_headers t) 503
          ("injected fault: " ^ fault_point)
    | Ok resp, hedges ->
        if hedges > 0 then
          Metrics.inc t.metrics "bcc_cluster_hedges_total"
            ~help:"Hedge requests launched for slow idempotent reads.";
        count_forward t (List.hd candidates) ~outcome:"ok";
        sanitize resp
    | Error { Http.status_hint; message }, _ ->
        count_forward t (List.hd candidates) ~outcome:"error";
        Http.error_response status_hint message
  end
  else
    let rec try_nodes = function
      | [] ->
          Http.error_response ~headers:(retry_after_headers t) 503
            "no shard available"
      | node :: rest -> (
          match attempt t node ~idempotent:true ~deadline_ms req with
          | Ok resp -> resp
          | Error { Http.status_hint; message } ->
              if rest = [] then Http.error_response status_hint message
              else try_nodes rest)
    in
    try_nodes candidates

(* Store state is single-homed: only the owner can answer.  A down
   owner gets 503 + retry-after (the client retries once the shard
   recovers) — never a silent failover that would read stale state or
   fork the journal. *)
let forward_sticky t key ~mutation ~deadline_ms (req : Http.request) =
  let owner = Ring.owner t.ring key in
  if not (is_up t owner) then begin
    count_forward t owner ~outcome:"down";
    count_rejected t (if mutation then "owner_down_mutation" else "owner_down_read");
    Http.error_response ~headers:(retry_after_headers t) 503
      (Printf.sprintf "shard %s owning %S is down, retry shortly"
         (Ring.node_id owner) key)
  end
  else
    match attempt t owner ~idempotent:(not mutation) ~deadline_ms req with
    | Ok resp -> resp
    | Error { Http.status_hint = _; message } ->
        Http.error_response ~headers:(retry_after_headers t) 503
          (Printf.sprintf "shard %s owning %S is unreachable (%s), retry shortly"
             (Ring.node_id owner) key message)

(* GET /workloads is the union of every shard's listing. *)
let forward_scatter t ~deadline_ms (req : Http.request) =
  let rows =
    List.concat_map
      (fun node ->
        if not (is_up t node) then []
        else
          match attempt t node ~idempotent:true ~deadline_ms req with
          | Ok resp when resp.Http.status = 200 -> (
              match Json.of_string resp.Http.body with
              | Ok j -> (
                  match Option.bind (Json.member "workloads" j) Json.get_list with
                  | Some l -> l
                  | None -> [])
              | Error _ -> [])
          | Ok _ | Error _ -> [])
      (Ring.nodes t.ring)
  in
  Http.json_response 200 (Json.Obj [ ("workloads", Json.List rows) ])

(* The request's own timeout rides [X-Bcc-Deadline-Ms] to the shard
   unchanged (in whole milliseconds), not the time left after this hop. *)
let forward t (req : Http.request) =
  let r = Request.decode req in
  let deadline_ms = r.Request.timeout_ms in
  let send =
    match r.Request.placement with
    | Request.Local -> None
    | Request.Stateless key ->
        Some (fun () -> forward_stateless t (Lazy.force key) ~deadline_ms req)
    | Request.Sticky_read key ->
        Some (fun () -> forward_sticky t key ~mutation:false ~deadline_ms req)
    | Request.Mutation key ->
        Some (fun () -> forward_sticky t key ~mutation:true ~deadline_ms req)
    | Request.Scatter -> Some (fun () -> forward_scatter t ~deadline_ms req)
  in
  let tenant = r.Request.tenant in
  Option.map
    (fun send ->
      match Admission.with_slot t.admission ~tenant send with
      | Some resp -> resp
      | None ->
          count_rejected t "tenant_inflight_full";
          Http.error_response
            ~headers:[ ("retry-after", "1") ]
            429
            (Printf.sprintf "tenant %S has too many forwards in flight" tenant))
    send
