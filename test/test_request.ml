(* Table-driven tests of the shared request decoder (Bcc_server.Request):
   every route with its parameters or its exact rejection, the cluster
   placement of each, and the tenant and timeout precedence rules.  No
   sockets: requests are built the way Http.read_request returns them. *)

module Request = Bcc_server.Request
module Http = Bcc_server.Http
module Store = Bcc_store.Store

let md5 s = Digest.to_hex (Digest.string s)

(* [target] is "/path?k=v&k=v" (already percent-decoded). *)
let req ?(headers = []) ?(body = "") meth target =
  let path, query =
    match String.split_on_char '?' target with
    | [ path; q ] ->
        ( path,
          List.map
            (fun kv ->
              match String.index_opt kv '=' with
              | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
              | None -> (kv, ""))
            (String.split_on_char '&' q) )
    | _ -> (target, [])
  in
  let headers = List.map (fun (k, v) -> (String.lowercase_ascii k, v)) headers in
  { Http.meth; path; query; headers; body }

let show_route =
  let opt = function None -> "-" | Some x -> Printf.sprintf "%.17g" x in
  function
  | Request.Compute { endpoint; source; budget; target } ->
      Printf.sprintf "%s %s budget=%s target=%s" (Request.endpoint_name endpoint)
        (match source with
        | Request.Named n -> "named " ^ n
        | Request.Inline { text; digest } ->
            Printf.sprintf "inline %S md5=%s" text (Lazy.force digest))
        (opt budget) (opt target)
  | Request.Workload_put { name; budget; source } ->
      Printf.sprintf "put %s budget=%s %s" name (opt budget)
        (match source with Store.Text s -> "text " ^ s | Store.Log s -> "log " ^ s)
  | Request.Workload_delta { name; log; body } ->
      Printf.sprintf "delta %s log=%b %S" name log body
  | Request.Workload_solve { name; cold; incremental } ->
      Printf.sprintf "workload-solve %s cold=%b incremental=%b" name cold incremental
  | Request.Workload_info n -> "info " ^ n
  | Request.Workload_solution n -> "solution " ^ n
  | Request.Workload_list -> "list"
  | Request.Healthz -> "healthz"
  | Request.Metrics -> "metrics"
  | Request.Instances -> "instances"
  | Request.Debug_trace n -> Printf.sprintf "trace last=%d" n
  | Request.Debug_solves id -> "solves " ^ Option.value ~default:"-" id
  | Request.Debug_sched -> "sched"
  | Request.Reject (status, msg) -> Printf.sprintf "reject %d %s" status msg

let show_placement = function
  | Request.Local -> "local"
  | Request.Stateless k -> "stateless " ^ Lazy.force k
  | Request.Sticky_read k -> "sticky-read " ^ k
  | Request.Mutation k -> "mutation " ^ k
  | Request.Scatter -> "scatter"

(* Compared through their renderings: both types hold lazy hashes. *)
let testable show =
  Alcotest.testable (fun ppf x -> Format.pp_print_string ppf (show x)) (fun a b -> show a = show b)
let route_t = testable show_route
let placement_t = testable show_placement

let fig = "budget 4\nquery x;y 8\nclassifier x 1\nclassifier y 1\n"
let solve budget = Request.Compute { endpoint = Request.Solve; source = Request.Named "fig"; budget; target = None }
let inline text = Request.Inline { text; digest = Lazy.from_val (md5 text) }
let bad msg = Request.Reject (400, msg)
let stateless key = Request.Stateless (Lazy.from_val key)
let must_be_positive = bad "timeout_ms must be a positive number of milliseconds"
let bad_budget = bad {|"budget" must be a non-negative number|}

(* (request, route, placement).  The placement column is the cluster
   class a router gives the request: it follows the method and path, so
   a request its shard will reject is still sent to that shard. *)
let routes =
  let named = {|{"instance":"fig","budget":4}|} in
  let text_json = Printf.sprintf {|{"text":%S,"target":9}|} fig in
  let bad_json = {|{"instance|} in
  let both = {|{"instance":"fig","text":"x"}|} in
  let neither = {|{"budget":4}|} in
  [
    (req "GET" "/healthz", Request.Healthz, Request.Local);
    (req "GET" "/metrics", Request.Metrics, Request.Local);
    (req "GET" "/instances", Request.Instances, stateless "n:/instances");
    (req "GET" "/debug/trace", Request.Debug_trace 512, Request.Local);
    (req "GET" "/debug/trace?last=7", Request.Debug_trace 7, Request.Local);
    (req "GET" "/debug/trace?last=0", Request.Debug_trace 512, Request.Local);
    (req "GET" "/debug/trace?last=x", Request.Debug_trace 512, Request.Local);
    (req "GET" "/debug/solves", Request.Debug_solves None, Request.Local);
    (req "GET" "/debug/solves?id=ab12", Request.Debug_solves (Some "ab12"), Request.Local);
    (req "GET" "/debug/sched", Request.Debug_sched, Request.Local);
    (* compute endpoints and their three instance sources *)
    (req "POST" "/solve" ~body:named, solve (Some 4.0), stateless "n:fig");
    (req "POST" "/solve?budget=7" ~body:named, solve (Some 7.0), stateless "n:fig");
    ( req "POST" "/gmc3" ~body:text_json,
      Request.Compute { endpoint = Request.Gmc3; source = inline fig; budget = None; target = Some 9.0 },
      stateless ("i:" ^ md5 text_json) );
    ( req "POST" "/ecc?budget=3" ~body:("\n" ^ fig),
      Request.Compute
        { endpoint = Request.Ecc; source = inline ("\n" ^ fig); budget = Some 3.0; target = None },
      stateless ("i:" ^ md5 ("\n" ^ fig)) );
    (req "POST" "/solve", bad "empty body: send instance text or a JSON object",
     stateless ("i:" ^ md5 ""));
    (req "POST" "/solve" ~body:" \r\n\t", bad "empty body: send instance text or a JSON object",
     stateless ("i:" ^ md5 " \r\n\t"));
    (req "POST" "/solve" ~body:bad_json, bad "bad JSON body: unterminated string at offset 10",
     stateless ("i:" ^ md5 bad_json));
    (* offsets count from the first non-blank character *)
    (req "POST" "/solve" ~body:("\n " ^ bad_json),
     bad "bad JSON body: unterminated string at offset 10",
     stateless ("i:" ^ md5 ("\n " ^ bad_json)));
    (req "POST" "/solve" ~body:both, bad {|provide either "instance" or "text", not both|},
     stateless "n:fig");
    (req "POST" "/solve" ~body:neither, bad {|JSON body needs an "instance" name or inline "text"|},
     stateless ("i:" ^ md5 neither));
    (req "POST" "/solve?budget=abc" ~body:named, bad "bad ?budget=abc", stateless "n:fig");
    (req "POST" "/solve?target=inf" ~body:named, bad "bad ?target=inf", stateless "n:fig");
    (* a budget is never negative or NaN, whether from the query or the body *)
    (req "POST" "/solve?budget=-1" ~body:named, bad "bad ?budget=-1", stateless "n:fig");
    (req "POST" "/gmc3" ~body:{|{"instance":"fig","budget":-1,"target":9}|}, bad_budget,
     stateless "n:fig");
    (req "POST" "/ecc" ~body:{|{"instance":"fig","budget":"nan"}|}, bad_budget,
     stateless "n:fig");
    (req "POST" "/solve?budget=4" ~body:{|{"instance":"fig","budget":-1}|}, solve (Some 4.0),
     stateless "n:fig");
    (req "POST" "/solve?timeout_ms=abc" ~body:named, bad "bad ?timeout_ms=abc",
     stateless "n:fig");
    (req "POST" "/solve?timeout_ms=-5" ~body:named, must_be_positive, stateless "n:fig");
    (req "POST" "/solve?budget=abc&timeout_ms=abc" ~body:named, bad "bad ?budget=abc",
     stateless "n:fig");
    (req "POST" "/solve" ~body:{|{"instance":"fig","timeout_ms":0}|}, must_be_positive,
     stateless "n:fig");
    (req "GET" "/solve", Request.Reject (405, "use POST for /solve"), Request.Local);
    (req "PUT" "/gmc3", Request.Reject (405, "use POST for /gmc3"), Request.Local);
    (req "POST" "/healthz", Request.Reject (405, "use GET for /healthz"), Request.Local);
    (req "POST" "/instances", Request.Reject (405, "use GET for /instances"), Request.Local);
    (req "DELETE" "/debug/sched", Request.Reject (405, "use GET for /debug/sched"), Request.Local);
    (req "GET" "/nope", Request.Reject (404, "no such endpoint: /nope"), Request.Local);
    (* the workload store family *)
    (req "GET" "/workloads", Request.Workload_list, Request.Scatter);
    (req "POST" "/workloads", Request.Reject (405, "use GET for /workloads"), Request.Local);
    ( req "PUT" "/workloads/w" ~body:fig,
      Request.Workload_put { name = "w"; budget = None; source = Store.Text fig },
      Request.Mutation "w" );
    ( req "PUT" "/workloads/w?format=log&budget=1000" ~body:"a;b 3\n",
      Request.Workload_put { name = "w"; budget = Some 1000.0; source = Store.Log "a;b 3\n" },
      Request.Mutation "w" );
    (req "PUT" "/workloads/w?budget=-1", bad "bad ?budget=-1", Request.Mutation "w");
    (req "PUT" "/workloads/w?format=csv", bad "unknown ?format=csv (use text or log)",
     Request.Mutation "w");
    (req "GET" "/workloads/w", Request.Workload_info "w", Request.Sticky_read "w");
    (req "DELETE" "/workloads/w", Request.Reject (405, "use PUT or GET for /workloads/w"),
     Request.Local);
    ( req "POST" "/workloads/w/delta" ~body:"add x 1\n",
      Request.Workload_delta { name = "w"; log = false; body = "add x 1\n" },
      Request.Mutation "w" );
    ( req "POST" "/workloads/w/delta?format=log" ~body:"x 1\n",
      Request.Workload_delta { name = "w"; log = true; body = "x 1\n" },
      Request.Mutation "w" );
    (req "POST" "/workloads/w/delta?format=xml", bad "unknown ?format=xml (use delta or log)",
     Request.Mutation "w");
    (req "GET" "/workloads/w/delta", Request.Reject (405, "use POST for /workloads/w/delta"),
     Request.Local);
    ( req "POST" "/workloads/w/solve",
      Request.Workload_solve { name = "w"; cold = false; incremental = false },
      Request.Mutation "w" );
    ( req "POST" "/workloads/w/solve?cold=1&incremental=true",
      Request.Workload_solve { name = "w"; cold = true; incremental = true },
      Request.Mutation "w" );
    ( req "POST" "/workloads/w/solve?cold=no&incremental=0",
      Request.Workload_solve { name = "w"; cold = false; incremental = false },
      Request.Mutation "w" );
    (req "POST" "/workloads/w/solve?cold=maybe", bad "bad ?cold=maybe", Request.Mutation "w");
    (req "POST" "/workloads/w/solve?incremental=2", bad "bad ?incremental=2", Request.Mutation "w");
    (req "POST" "/workloads/w/solve?timeout_ms=abc", must_be_positive, Request.Mutation "w");
    (req "POST" "/workloads/w/solve?timeout_ms=0", must_be_positive, Request.Mutation "w");
    (req "GET" "/workloads/w/solution", Request.Workload_solution "w", Request.Sticky_read "w");
    ( req "POST" "/workloads/w/solution",
      Request.Reject (405, "use GET for /workloads/w/solution"),
      Request.Local );
    (req "GET" "/workloads/w/x/y", Request.Reject (404, "no such endpoint: /workloads/w/x/y"),
     Request.Local);
    (req "GET" "/workloads/", Request.Reject (404, "no such endpoint: /workloads/"), Request.Local);
    (* empty segments are skipped, by the handler and the router alike *)
    (req "GET" "/workloads//w/", Request.Workload_info "w", Request.Sticky_read "w");
  ]

let decodes_every_route () =
  List.iter
    (fun ((r : Http.request), route, placement) ->
      let name = Printf.sprintf "%s %s %S" r.Http.meth r.Http.path r.Http.body in
      let d = Request.decode r in
      Alcotest.check route_t ("route of " ^ name) route d.Request.route;
      Alcotest.check placement_t ("placement of " ^ name) placement d.Request.placement)
    routes

let tenant_precedence () =
  let body = {|{"instance":"fig","tenant":"j"}|} in
  List.iter
    (fun (expected, r) ->
      Alcotest.(check string)
        (Printf.sprintf "%s %s" r.Http.path (String.concat "," (List.map fst r.Http.headers)))
        expected (Request.decode r).Request.tenant)
    [
      ("q", req "POST" "/solve?tenant=q" ~headers:[ ("X-Bcc-Tenant", "h") ] ~body);
      ("h", req "POST" "/solve?tenant=" ~headers:[ ("X-Bcc-Tenant", "h") ] ~body);
      ("j", req "POST" "/solve" ~headers:[ ("X-Bcc-Tenant", "") ] ~body);
      ("default", req "POST" "/solve" ~body:{|{"instance":"fig","tenant":""}|});
      ("default", req "POST" "/solve" ~body:{|{"instance":"fig","tenant":5}|});
      ("default", req "POST" "/solve" ~body:fig);
      ("default", req "POST" "/solve" ~body:{|{"tenant":"j"|});
      (* every route names a tenant: the router admits all forwards per tenant *)
      ("h", req "PUT" "/workloads/w" ~headers:[ ("X-Bcc-Tenant", "h") ] ~body:fig);
      ("j", req "POST" "/workloads/w/solve" ~body:{|{"tenant":"j"}|});
    ]

let timeout_precedence () =
  let deadline v = [ ("X-Bcc-Deadline-Ms", v) ] in
  let json ms = Printf.sprintf {|{"instance":"fig","timeout_ms":%s}|} ms in
  List.iter
    (fun (label, expected, r) ->
      let d = Request.decode r in
      Alcotest.(check (option (float 0.0))) label expected d.Request.timeout_ms;
      (match d.Request.route with
      | Request.Reject (_, msg) -> Alcotest.failf "%s: rejected (%s)" label msg
      | _ -> ()))
    [
      ("query first", Some 50.0,
       req "POST" "/solve?timeout_ms=50" ~headers:(deadline "70") ~body:(json "60"));
      ("query beats a bad body value", Some 50.0,
       req "POST" "/solve?timeout_ms=50" ~body:(json "-1"));
      ("then the JSON body", Some 60.0, req "POST" "/solve" ~headers:(deadline "70") ~body:(json "60"));
      ("then the header", Some 70.0, req "POST" "/solve" ~headers:(deadline " 70 ") ~body:fig);
      ("a non-number body value is absent", Some 70.0,
       req "POST" "/solve" ~headers:(deadline "70") ~body:(json {|"soon"|}));
      ("a bad header is ignored", None, req "POST" "/solve" ~headers:(deadline "abc") ~body:fig);
      ("a non-positive header is ignored", None,
       req "POST" "/solve" ~headers:(deadline "-5") ~body:fig);
      ("no timeout", None, req "POST" "/solve" ~body:fig);
      ("workload solve: query", Some 50.0, req "POST" "/workloads/w/solve?timeout_ms=50");
      ("workload solve: body", Some 60.0, req "POST" "/workloads/w/solve" ~body:{|{"timeout_ms":60}|});
      ("workload solve: header", Some 70.0, req "POST" "/workloads/w/solve" ~headers:(deadline "70"));
      ("only solves decode a timeout", None,
       req "GET" "/workloads/w?timeout_ms=abc" ~headers:(deadline "70"));
    ];
  (* a bad query or body value is the caller's mistake: 400 *)
  List.iter
    (fun (r, expected) ->
      Alcotest.check route_t r.Http.path expected (Request.decode r).Request.route)
    [
      (req "POST" "/solve?timeout_ms=nan" ~body:(json "60"), bad "bad ?timeout_ms=nan");
      (req "POST" "/solve" ~headers:(deadline "70") ~body:(json "-1"), must_be_positive);
      (req "POST" "/solve" ~body:(json {|"inf"|}), must_be_positive);
      (req "POST" "/workloads/w/solve" ~body:{|{"timeout_ms":0}|}, must_be_positive);
    ]

let suite =
  [
    ("every route, placement and rejection", `Quick, decodes_every_route);
    ("tenant precedence", `Quick, tenant_precedence);
    ("timeout precedence and validation", `Quick, timeout_precedence);
  ]
