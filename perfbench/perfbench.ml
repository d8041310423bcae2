(* perfbench — the repository's benchmark.

   Usage (from the repository root, after building with dune):
     perfbench.exe --workload plan|scale|drift|serve --seed N --seconds S --trace 0|1

   perfbench/run.sh builds bccd and this program from source and runs
   it with the same arguments.

   The seed generates every input (Inputs); the operation count is
   fixed by the workload and --seconds, never by the clock, so a seed
   always does the same work and [utility] repeats exactly.  Each
   workload runs in a measured process of its own ("measure"
   sub-command): in-process workloads solve inside it with the engine
   pinned to one job (Inproc); serve drives a bccd it starts (Serve).

   --size tiny shrinks every input; the benchmark's smoke test
   (smoke_test.py) uses it.

   --trace 0 prints the end-to-end metrics of one untraced run.
   --trace 1 makes an untraced run and a traced run and prints the
   per-layer metrics of the traced one, plus the tracing overhead
   (traced / untraced timed wall - 1); for serve also a run with the
   daemon's telemetry off (--trace-buffer 0) gives the daemon's
   telemetry overhead.  Metric names and units come from
   BENCHMARK.json; every one listed for the mode is printed.

   Output: a "record" line (seed, op counts, job and worker counts,
   host, revision, the bench-owned kernel's time before and after the
   run), one "metric" line per metric, and as the last line one JSON
   object {correct, attempted, failed, metrics}.  A failed answer check
   fails the run (exit 1). *)

module Json = Bcc_server.Json

let workloads = [ "plan"; "scale"; "drift"; "serve" ]

(* Operations per run, sized from the rates measured on a 2-vCPU VM so
   a run's timed phase lasts about --seconds. *)
let ops_for workload seconds =
  match workload with
  | "plan" ->
      Inputs.budgets_per_dataset
      * max 1 (int_of_float (Float.round (float_of_int seconds *. 0.95 /. 2.0)))
  | "scale" -> max 1 (int_of_float (Float.round (float_of_int seconds /. 10.0)))
  | "drift" -> max 4 (seconds * 12)
  | _ -> max 8 (seconds * 70)

(* --- the measured process --- *)

let result_to_json (r : Common.result) =
  let floats xs = Json.List (List.map (fun x -> Json.Num x) xs) in
  Json.Obj
    [
      ("setup_s", floats r.setup_s);
      ("lat_s", floats r.lat_s);
      ("utility", Json.Num r.utility);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("peak_rss_mb", Json.Num r.peak_rss_mb);
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.layers));
    ]

let result_of_json j =
  let num k = Option.get (Option.bind (Json.member k j) Json.get_num) in
  let floats k =
    List.map (fun x -> Option.get (Json.get_num x))
      (Option.get (Option.bind (Json.member k j) Json.get_list))
  in
  {
    Common.setup_s = floats "setup_s";
    lat_s = floats "lat_s";
    utility = num "utility";
    attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    peak_rss_mb = num "peak_rss_mb";
    layers =
      (match Json.member "layers" j with
      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, Option.get (Json.get_num v))) kvs
      | _ -> []);
  }

let measure workload dir ops traced telemetry =
  at_exit Serve.kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r =
    if workload = "serve" then Serve.run ~dir ~traced ~telemetry
    else Inproc.run ~workload ~dir ~ops ~traced
  in
  print_endline (Json.to_string (result_to_json r))

(* --- the orchestrator --- *)

let child = ref None

let run_measured ~workload ~dir ~ops ~traced ~telemetry =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [| Sys.executable_name; "measure"; workload; dir; string_of_int ops;
       string_of_bool traced; string_of_bool telemetry |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name args (Common.child_env ()) Unix.stdin out_w
      Unix.stderr
  in
  child := Some pid;
  Unix.close out_w;
  let out = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let _, status = Unix.waitpid [] pid in
  child := None;
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, Ok j -> result_of_json j
  | _ -> failwith (Printf.sprintf "measured %s run failed" workload)

let wall (r : Common.result) = List.fold_left ( +. ) 0.0 r.lat_s

(* The end-to-end metrics of one untraced run, and the tail's
   percentile. *)
let end_to_end (r : Common.result) =
  let tail, pct = Common.tail r.lat_s in
  ( [
      ("setup_s", Common.median r.setup_s);
      ("ops_per_s", float_of_int (List.length r.lat_s) /. wall r);
      ("p50_ms", 1000.0 *. Common.median r.lat_s);
      ("tail_ms", 1000.0 *. tail);
      ("utility", r.utility);
      ("ok_frac", float_of_int (r.attempted - r.failed) /. float_of_int r.attempted);
      ("peak_rss_mb", r.peak_rss_mb);
    ],
    pct )

let manifest () =
  match Json.of_string (Common.read_file "BENCHMARK.json") with
  | Ok j -> j
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

(* (name, unit) of every metric the manifest lists under [key]. *)
let listed key =
  List.map
    (fun m ->
      let s k = Option.get (Option.bind (Json.member k m) Json.get_string) in
      (s "name", s "unit"))
    (Option.get (Option.bind (Json.member key (manifest ())) Json.get_list))

let command_output prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  match Unix.create_process prog (Array.of_list (prog :: args)) null out_w null with
  | pid ->
      Unix.close out_w;
      Unix.close null;
      let out = In_channel.input_all (Unix.in_channel_of_descr out_r) in
      Unix.close out_r;
      let _, st = Unix.waitpid [] pid in
      if st = Unix.WEXITED 0 then Some (String.trim out) else None
  | exception Unix.Unix_error _ ->
      Unix.close out_w;
      Unix.close out_r;
      Unix.close null;
      None

(* A digest of the program's sources, which identifies the code even in
   a checkout that is not a git repository. *)
let source_digest () =
  let rec files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat d e in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  Digest.to_hex
    (Digest.string
       (String.concat "" (List.map (fun p -> Digest.file p) (files "lib" @ files "bin"))))

let nproc () =
  String.split_on_char '\n' (Common.read_file "/proc/cpuinfo")
  |> List.filter (String.starts_with ~prefix:"processor")
  |> List.length

let orchestrate ~tiny workload seed seconds trace =
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle
           (fun _ ->
             Option.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !child;
             exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let ops = ops_for workload seconds in
  let kernel_before = Common.kernel_ms () in
  let dir = Inputs.write ~workload ~seed ~ops ~tiny in
  at_exit (fun () -> Common.rm_rf dir);
  let run ~traced ~telemetry = run_measured ~workload ~dir ~ops ~traced ~telemetry in
  let base = run ~traced:false ~telemetry:true in
  let e2e, pct = end_to_end base in
  let runs, values, listed_key =
    if trace = 0 then ([ base ], e2e, "end_to_end")
    else
      let traced = run ~traced:true ~telemetry:true in
      let telemetry_overhead, quiet =
        if workload = "serve" then
          let quiet = run ~traced:false ~telemetry:false in
          ((wall base /. wall quiet) -. 1.0, [ quiet ])
        else (0.0, [])
      in
      ( (base :: traced :: quiet),
        traced.layers
        @ [
            ("obs.trace_overhead", (wall traced /. wall base) -. 1.0);
            ("obs.daemon_telemetry_overhead", telemetry_overhead);
          ],
        "per_layer" )
  in
  let kernel_after = Common.kernel_ms () in
  let attempted = List.fold_left (fun acc (r : Common.result) -> acc + r.attempted) 0 runs in
  let failed = List.fold_left (fun acc (r : Common.result) -> acc + r.failed) 0 runs in
  let record =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ("seconds", Json.Num (float_of_int seconds));
        ("trace", Json.Num (float_of_int trace));
        ("size", Json.Str (if tiny then "tiny" else "full"));
        ("ops", Json.Num (float_of_int base.attempted));
        ("setups", Json.Num (float_of_int (Common.setups_before + Common.setups_after)));
        ("jobs", Json.Num 1.0);
        ("bccd_workers", Json.Num (if workload = "serve" then 2.0 else 0.0));
        ("tail_percentile", Json.Num pct);
        ("nproc", Json.Num (float_of_int (nproc ())));
        ("ocaml", Json.Str Sys.ocaml_version);
        ( "git_rev",
          match command_output "git" [ "rev-parse"; "HEAD" ] with
          | Some r -> Json.Str r
          | None -> Json.Null );
        ("source_md5", Json.Str (source_digest ()));
        ("kernel_ms_before", Json.Num kernel_before);
        ("kernel_ms_after", Json.Num kernel_after);
      ]
  in
  print_endline ("record " ^ Json.to_string record);
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name values with
          | Some v -> v
          | None when trace = 1 -> 0.0  (* a layer this workload does not run *)
          | None -> failwith ("no value for metric " ^ name)
        in
        Printf.printf "metric %s = %.6g %s%s\n" name v unit
          (if name = "tail_ms" then Printf.sprintf " (p%.1f of %d)" pct base.attempted else "");
        (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
      (listed listed_key)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]));
  if failed > 0 then exit 1

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload plan|scale|drift|serve --seed N --seconds S --trace 0|1 \
     [--size full|tiny]";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "measure"; workload; dir; ops; traced; telemetry ] ->
      measure workload dir (int_of_string ops) (bool_of_string traced) (bool_of_string telemetry)
  | _ :: args ->
      let rec parse acc = function
        | [] -> acc
        | k :: v :: rest when String.starts_with ~prefix:"--" k -> parse ((k, v) :: acc) rest
        | _ -> usage ()
      in
      let opts = parse [] args in
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      let workload = get "--workload" in
      let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
      let size = Option.value ~default:"full" (List.assoc_opt "--size" opts) in
      if
        (not (List.mem workload workloads))
        || seconds < 1
        || (trace <> 0 && trace <> 1)
        || not (List.mem size [ "full"; "tiny" ])
      then usage ();
      orchestrate ~tiny:(size = "tiny") workload seed seconds trace
  | [] -> usage ()
