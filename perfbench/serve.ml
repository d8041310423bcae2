(* The serve workload: the shipped bccd binary, started by the
   benchmark on an ephemeral loopback port with two workers and a state
   directory inside the work directory, every other flag at its
   default, so its built-in telemetry is on as users run it.  One
   keep-alive connection drives it in a closed loop through a fixed
   request script.  Each HTTP request is one operation; answers are
   checked after the timed phase. *)

module Http = Bcc_server.Http
module Json = Bcc_server.Json
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Io = Bcc_data.Io

let bccd = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "bccd.exe"))

(* --- the daemon --- *)

type daemon = { pid : int; port : int; drain : Thread.t; state : string }

let live : daemon list ref = ref []
let started = ref 0

(* Stop a daemon and wait for it.  Its stdout is drained to the end:
   closing the pipe early would make bccd's shutdown message fail. *)
let stop ?(signal = Sys.sigterm) d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.kill d.pid signal with Unix.Unix_error _ -> ());
  let deadline = Common.now () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Common.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
        end
        else begin
          Thread.delay 0.02;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  Thread.join d.drain;
  Common.rm_rf d.state

let kill_all () = List.iter (stop ~signal:Sys.sigkill) !live

(* Start bccd and return once it prints its listening line. *)
let start ~extra =
  incr started;
  let state =
    Filename.concat Common.work_dir
      (Printf.sprintf "state/serve-%d-%d" (Unix.getpid ()) !started)
  in
  Common.rm_rf state;
  Common.mkdir_p (Filename.dirname state);
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    Array.of_list ([ bccd; "--port"; "0"; "--workers"; "2"; "--state-dir"; state ] @ extra)
  in
  let pid = Unix.create_process_env bccd args (Common.child_env ()) null out_w Unix.stderr in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let rec listening () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf line "bccd: listening on %[^:]:%d " (fun _ p -> p) with
        | p -> p
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> listening ())
    | exception End_of_file -> failwith "bccd exited before listening"
  in
  let port =
    try listening ()
    with e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic;
      raise e
  in
  let drain =
    Thread.create
      (fun ic ->
        (try
           while true do
             ignore (input_line ic)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ic
  in
  let d = { pid; port; drain; state } in
  live := d :: !live;
  d

(* --- one keep-alive client connection --- *)

type conn = { port : int; mutable fd : Unix.file_descr option }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None

let request c ~meth ~path ?(query = []) ?(body = "") () =
  let fd =
    match c.fd with
    | Some fd -> fd
    | None ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, c.port));
        c.fd <- Some fd;
        fd
  in
  match
    Http.write_request ~keep_alive:true fd { Http.meth; path; query; headers = []; body };
    Http.read_response fd
  with
  | Ok resp ->
      (* bccd closes a keep-alive connection after a fixed number of
         requests; the next request reconnects. *)
      if
        List.exists
          (fun (k, v) ->
            String.lowercase_ascii k = "connection" && String.lowercase_ascii v = "close")
          resp.Http.headers
      then close c;
      resp
  | Error e ->
      close c;
      { Http.status = e.Http.status_hint; reason = e.Http.message; headers = []; body = "" }
  | exception Unix.Unix_error (e, _, _) ->
      close c;
      { Http.status = 599; reason = Unix.error_message e; headers = []; body = "" }

(* --- /metrics --- *)

(* Prometheus text as (name, label block, value). *)
let scrape c =
  let resp = request c ~meth:"GET" ~path:"/metrics" () in
  String.split_on_char '\n' resp.Http.body
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
               let series = String.sub line 0 i in
               let name, labels =
                 match String.index_opt series '{' with
                 | Some j -> (String.sub series 0 j, String.sub series j (i - j))
                 | None -> (series, "")
               in
               Option.map
                 (fun v -> (name, labels, v))
                 (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))

(* A series family summed over the label blocks [keep] accepts, as the
   difference between two scrapes. *)
let delta before after ?(keep = fun _ -> true) name =
  let sum m =
    List.fold_left
      (fun acc (n, labels, v) -> if n = name && keep labels then acc +. v else acc)
      0.0 m
  in
  sum after -. sum before

(* Stages of bcc_stage_duration_seconds reported per layer. *)
let stages =
  [ "solve"; "prune"; "decompose"; "knapsack"; "qk"; "qk.pipeline"; "qk.repair"; "mc3";
    "sweep"; "round"; "engine.task"; "store.put"; "store.delta"; "store.solve";
    "store.materialize"; "store.commit" ]

(* --- the workload --- *)

type kind = Whatif of float | Delta | Resolve | Read

type answer = { kind : kind; status : int; body : string; lat : float }

let json_num field body =
  match Json.of_string body with
  | Ok j -> Option.bind (Json.member field j) Json.get_num
  | Error _ -> None

let json_bool field body =
  match Json.of_string body with
  | Ok j -> Option.bind (Json.member field j) Json.get_bool
  | Error _ -> None

let expect_ok what (resp : Http.response) =
  if resp.Http.status <> 200 then
    failwith (Printf.sprintf "serve set-up: %s answered %d %s" what resp.status resp.body);
  resp

(* The daemon's answer rebuilt against the benchmark's own parse of the
   instance, compared with an in-process solve at the same budget. *)
let same_as_library fresh expected budget body =
  match Json.of_string body with
  | Error _ -> false
  | Ok j -> (
      let names = Option.get (Instance.names fresh) in
      let set = function
        | Json.List ps ->
            Propset.of_list
              (List.map
                 (fun p -> Option.get (Symtab.find names (Option.get (Json.get_string p))))
                 ps)
        | _ -> raise Not_found
      in
      match Option.bind (Json.member "classifiers" j) Json.get_list with
      | None -> false
      | Some cs -> (
          match List.map set cs with
          | exception (Not_found | Invalid_argument _) -> false
          | sets ->
              let got = Solution.of_sets (Instance.with_budget fresh budget) sets in
              let sort s = List.sort Propset.compare s.Solution.classifiers in
              got.Solution.utility = expected.Solution.utility
              && got.Solution.cost = expected.Solution.cost
              && List.equal Propset.equal (sort got) (sort expected)))

let run ~dir ~traced ~telemetry =
  let input name = Common.read_file (Filename.concat dir name) in
  let bb = input "bb.txt" and workload = input "workload.txt" in
  let batches = Array.of_list (Inputs.split_batches (input "deltas.txt")) in
  let script =
    List.filter (( <> ) "") (String.split_on_char '\n' (input "script.txt"))
  in
  let first_budget = Printf.sprintf "%g" Inputs.whatif_budgets.(0) in
  let extra = if telemetry then [] else [ "--trace-buffer"; "0" ] in
  let dispose (d, c, _, _) =
    close c;
    stop d
  in
  let setup () =
    let d = start ~extra in
    let c = { port = d.port; fd = None } in
    let put = expect_ok "PUT" (request c ~meth:"PUT" ~path:"/workloads/w" ~body:workload ()) in
    let solved = expect_ok "solve" (request c ~meth:"POST" ~path:"/workloads/w/solve" ()) in
    ignore
      (expect_ok "what-if"
         (request c ~meth:"POST" ~path:"/solve" ~query:[ ("budget", first_budget) ] ~body:bb ()));
    ( d,
      c,
      Option.value ~default:0.0 (json_num "epoch" put.body),
      Option.value ~default:0.0 (json_num "utility" solved.body) )
  in
  let ((d, c, epoch0, utility0) as daemon), setup_s = Common.set_up ~dispose setup in
  let m0 = scrape c in
  let answers = ref [] and next_batch = ref 0 in
  let op kind ~meth ~path ?query ?body () =
    let t0 = Common.now () in
    let resp = request c ~meth ~path ?query ?body () in
    let lat = Common.now () -. t0 in
    answers := { kind; status = resp.Http.status; body = resp.body; lat } :: !answers
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "whatif"; b ] ->
          op (Whatif (float_of_string b)) ~meth:"POST" ~path:"/solve" ~query:[ ("budget", b) ]
            ~body:bb ()
      | [ "delta" ] ->
          op Delta ~meth:"POST" ~path:"/workloads/w/delta" ~body:batches.(!next_batch) ();
          incr next_batch;
          op Resolve ~meth:"POST" ~path:"/workloads/w/solve" ()
      | [ "read" ] -> op Read ~meth:"GET" ~path:"/workloads/w/solution" ()
      | _ -> failwith ("serve: bad script line " ^ line))
    script;
  let m1 = scrape c in
  let peak = Common.peak_rss_mb (string_of_int d.pid) in
  dispose daemon;
  let setup_s = setup_s @ Common.set_up_after ~dispose setup in
  let answers = List.rev !answers in
  (* Checks, outside the timed phase. *)
  let fresh = Io.load_string bb in
  let expected = Hashtbl.create 8 in
  let library b =
    match Hashtbl.find_opt expected b with
    | Some s -> s
    | None ->
        let s = Solver.solve (Instance.with_budget fresh b) in
        Hashtbl.add expected b s;
        s
  in
  let epoch = ref epoch0 and solved_utility = ref utility0 in
  let failed = ref 0 and utility = ref 0.0 in
  let hit = ref [] and miss = ref [] in
  List.iter
    (fun a ->
      let ok =
        a.status = 200
        &&
        match a.kind with
        | Whatif b ->
            let cached = json_bool "cached" a.body = Some true in
            if cached then hit := a.lat :: !hit else miss := a.lat :: !miss;
            utility := !utility +. Option.value ~default:0.0 (json_num "utility" a.body);
            same_as_library fresh (library b) b a.body
        | Delta ->
            epoch := !epoch +. 1.0;
            json_num "epoch" a.body = Some !epoch
        | Resolve ->
            let u = Option.value ~default:0.0 (json_num "utility" a.body) in
            solved_utility := u;
            utility := !utility +. u;
            json_num "epoch" a.body = Some !epoch
            && json_bool "verified" a.body = Some true
            && json_bool "degraded" a.body = Some false
        | Read ->
            let u = Option.value ~default:0.0 (json_num "utility" a.body) in
            utility := !utility +. u;
            u = !solved_utility && json_bool "verified" a.body = Some true
      in
      if not ok then incr failed)
    answers;
  let lat_ms kind =
    1000.0
    *. Common.median
         (List.filter_map (fun a -> if a.kind = kind then Some a.lat else None) answers)
  in
  let d name ?keep () = delta m0 m1 ?keep name in
  let frac cache =
    let keep l = Common.contains l (Printf.sprintf "cache=\"%s\"" cache) in
    let h = d "bccd_cache_hits_total" ~keep () and m = d "bccd_cache_misses_total" ~keep () in
    if h +. m = 0.0 then 0.0 else h /. (h +. m)
  in
  let not_metrics l = not (Common.contains l "/metrics") in
  let handler_ms =
    let n = d "bccd_request_duration_seconds_count" ~keep:not_metrics () in
    if n = 0.0 then 0.0 else 1000.0 *. d "bccd_request_duration_seconds_sum" ~keep:not_metrics () /. n
  in
  let lats = List.map (fun a -> a.lat) answers in
  let mean_ms = 1000.0 *. List.fold_left ( +. ) 0.0 lats /. float_of_int (List.length lats) in
  {
    Common.setup_s;
    lat_s = lats;
    utility = !utility;
    attempted = List.length answers;
    failed = !failed;
    peak_rss_mb = peak;
    layers =
      (if not traced then []
       else
         [
           ("http.whatif_hit_ms", 1000.0 *. Common.median !hit);
           ("http.whatif_miss_ms", 1000.0 *. Common.median !miss);
           ("http.read_ms", lat_ms Read);
           ("http.delta_ms", lat_ms Delta);
           ("http.resolve_ms", lat_ms Resolve);
           ("server.handler_ms", handler_ms);
           ("http.transport_ms", mean_ms -. handler_ms);
           ("server.inst_cache_hit_frac", frac "instance");
           ("server.sol_cache_hit_frac", frac "solution");
           ("server.solve_s", d "bccd_solve_duration_seconds_sum" ());
           ("sched.batches", d "bcc_sched_batches_total" ());
           ("sched.coalesced", d "bcc_sched_coalesced_total" ());
         ]
         @ List.map
             (fun st ->
               ( "server.stage_s." ^ st,
                 d "bcc_stage_duration_seconds_sum"
                   ~keep:(fun l -> Common.contains l (Printf.sprintf "stage=\"%s\"" st))
                   () ))
             stages);
  }
