type endpoint = Solve | Gmc3 | Ecc
type source = Named of string | Inline of { text : string; digest : string Lazy.t }

type route =
  | Compute of
      { endpoint : endpoint; source : source; budget : float option; target : float option }
  | Workload_put of { name : string; budget : float option; source : Bcc_store.Store.source }
  | Workload_delta of { name : string; log : bool; body : string }
  | Workload_solve of { name : string; cold : bool; incremental : bool }
  | Workload_info of string
  | Workload_solution of string
  | Workload_list
  | Healthz
  | Metrics
  | Instances
  | Debug_trace of int
  | Debug_solves of string option
  | Debug_sched
  | Reject of int * string

type placement =
  | Local | Stateless of string Lazy.t | Sticky_read of string | Mutation of string | Scatter
type t = { route : route; tenant : string; timeout_ms : float option; placement : placement }

let endpoint_name = function Solve -> "solve" | Gmc3 -> "gmc3" | Ecc -> "ecc"
let md5 s = Digest.to_hex (Digest.string s)

(* The body's shape, decided from its first non-blank character so that
   plain instance text is never copied. *)
let body_of (req : Http.request) =
  let b = req.Http.body in
  let rec first i =
    if i < String.length b && String.contains " \012\n\r\t" b.[i] then first (i + 1) else i
  in
  let i = first 0 in
  if i = String.length b then `Empty
  else if b.[i] = '{' then `Json (Json.of_string (String.trim b))
  else `Text

let field name get = function
  | `Json (Ok j) -> Option.bind (Json.member name j) get
  | _ -> None

let tenant req body =
  let given = function Some s when s <> "" -> Some s | _ -> None in
  [ Http.query_param req "tenant"; Http.header req "x-bcc-tenant";
    field "tenant" Json.get_string body ]
  |> List.find_map given |> Option.value ~default:"default"

let ( let* ) = Result.bind
let bad_request r = Result.map_error (fun msg -> (400, msg)) r

(* A query parameter overrides the body's value, so a raw-text body can
   still be swept over budgets. *)
let num_param ?(min = neg_infinity) req name fallback =
  match Http.query_param req name with
  | None -> Ok fallback
  | Some s -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f >= min -> Ok (Some f)
      | _ -> Error (Printf.sprintf "bad ?%s=%s" name s))

let must_be_positive = "timeout_ms must be a positive number of milliseconds"

(* [num_param] checks the query's budget; the body's is checked here, so
   no negative or NaN budget reaches the solve cache key. *)
let budget_param req body =
  match num_param ~min:0.0 req "budget" (field "budget" Json.get_num body) with
  | Ok (Some b) when not (b >= 0.0) -> Error {|"budget" must be a non-negative number|}
  | r -> r

let timeout req body =
  let positive ms = Float.is_finite ms && ms > 0.0 in
  match num_param req "timeout_ms" (field "timeout_ms" Json.get_num body) with
  | Ok (Some ms) when not (positive ms) -> Error must_be_positive
  | (Ok (Some _) | Error _) as r -> r
  | Ok None -> (
      (* A malformed header is ignored: a router hop added it, the
         caller did not. *)
      match
        Option.bind (Http.header req "x-bcc-deadline-ms") (fun s ->
            float_of_string_opt (String.trim s))
      with
      | Some ms when positive ms -> Ok (Some ms)
      | _ -> Ok None)

let flag req name =
  match Http.query_param req name with
  | None | Some ("0" | "false" | "no") -> Ok false
  | Some ("1" | "true" | "yes") -> Ok true
  | Some s -> Error (Printf.sprintf "bad ?%s=%s" name s)

let format req ~default choices =
  match Http.query_param req "format" with
  | None -> Ok default
  | Some f -> (
      match List.assoc_opt f choices with
      | Some v -> Ok v
      | None ->
          Error
            (Printf.sprintf "unknown ?format=%s (use %s)" f
               (String.concat " or " (List.map fst choices))))

(* A shard needs only the instance text's digest and a router only the
   ring key; for a raw-text body the two are one hash. *)
let compute (req : Http.request) endpoint body =
  let named = field "instance" Json.get_string body in
  let inline text = Inline { text; digest = lazy (md5 text) } in
  let source =
    match body with
    | `Empty -> Error "empty body: send instance text or a JSON object"
    | `Text -> Ok (inline req.Http.body)
    | `Json (Error msg) -> Error ("bad JSON body: " ^ msg)
    | `Json (Ok _) -> (
        match (named, field "text" Json.get_string body) with
        | Some n, None -> Ok (Named n)
        | None, Some s -> Ok (inline s)
        | Some _, Some _ -> Error {|provide either "instance" or "text", not both|}
        | None, None -> Error {|JSON body needs an "instance" name or inline "text"|})
  in
  let key () =
    match (body, source, named) with
    | `Text, Ok (Inline { digest; _ }), _ -> "i:" ^ Lazy.force digest
    | _, _, Some n -> "n:" ^ n
    | _ -> "i:" ^ md5 req.Http.body
  in
  ( Stateless (lazy (key ())),
    bad_request
      (let* source = source in
       let* budget = budget_param req body in
       let* target = num_param req "target" (field "target" Json.get_num body) in
       let* timeout = timeout req body in
       Ok (Compute { endpoint; source; budget; target }, timeout)) )

(* The workload routes are the one segment-parameterized family; empty
   segments are skipped. *)
let workloads (req : Http.request) segs body =
  let path = req.Http.path and text = req.Http.body in
  let plain placement route = (placement, Ok (route, None)) in
  let reject status msg = (Local, Error (status, msg)) in
  match (req.Http.meth, segs) with
  | "GET", [] -> plain Scatter Workload_list
  | "PUT", [ name ] ->
      ( Mutation name,
        bad_request
          (let* budget = num_param ~min:0.0 req "budget" None in
           let* source =
             format req ~default:(Bcc_store.Store.Text text)
               [ ("text", Bcc_store.Store.Text text); ("log", Bcc_store.Store.Log text) ]
           in
           Ok (Workload_put { name; budget; source }, None)) )
  | "GET", [ name ] -> plain (Sticky_read name) (Workload_info name)
  | "POST", [ name; "delta" ] ->
      ( Mutation name,
        bad_request
          (let* log = format req ~default:false [ ("delta", false); ("log", true) ] in
           Ok (Workload_delta { name; log; body = text }, None)) )
  | "POST", [ name; "solve" ] ->
      ( Mutation name,
        bad_request
          (let* cold = flag req "cold" in
           let* incremental = flag req "incremental" in
           (* this route words every bad timeout the same way *)
           let* timeout = Result.map_error (fun _ -> must_be_positive) (timeout req body) in
           Ok (Workload_solve { name; cold; incremental }, timeout)) )
  | "GET", [ name; "solution" ] -> plain (Sticky_read name) (Workload_solution name)
  | _, [] -> reject 405 "use GET for /workloads"
  | _, [ _ ] -> reject 405 ("use PUT or GET for " ^ path)
  | _, [ _; ("delta" | "solve") ] -> reject 405 ("use POST for " ^ path)
  | _, [ _; "solution" ] -> reject 405 ("use GET for " ^ path)
  | _ -> reject 404 ("no such endpoint: " ^ path)

let decode (req : Http.request) =
  let body = body_of req in
  let path = req.Http.path in
  let local route = (Local, Ok (route, None)) in
  let reject status msg = (Local, Error (status, msg ^ path)) in
  let placement, decoded =
    match (req.Http.meth, path) with
    | "GET", "/healthz" -> local Healthz
    | "GET", "/metrics" -> local Metrics
    | "GET", "/instances" -> (Stateless (Lazy.from_val "n:/instances"), Ok (Instances, None))
    | "GET", "/debug/trace" ->
        local
          (Debug_trace
             (match Option.bind (Http.query_param req "last") int_of_string_opt with
             | Some n when n > 0 -> n
             | _ -> 512))
    | "GET", "/debug/solves" -> local (Debug_solves (Http.query_param req "id"))
    | "GET", "/debug/sched" -> local Debug_sched
    | "POST", "/solve" -> compute req Solve body
    | "POST", "/gmc3" -> compute req Gmc3 body
    | "POST", "/ecc" -> compute req Ecc body
    | _ when path = "/workloads"
             || (String.length path > 11 && String.sub path 0 11 = "/workloads/") ->
        workloads req (List.tl (List.filter (( <> ) "") (String.split_on_char '/' path))) body
    | _, ("/solve" | "/gmc3" | "/ecc") -> reject 405 "use POST for "
    | _, ("/healthz" | "/metrics" | "/instances" | "/debug/trace" | "/debug/solves"
         | "/debug/sched") ->
        reject 405 "use GET for "
    | _ -> reject 404 "no such endpoint: "
  in
  let route, timeout_ms =
    match decoded with Ok rt -> rt | Error (status, msg) -> (Reject (status, msg), None)
  in
  { route; tenant = tenant req body; timeout_ms; placement }
