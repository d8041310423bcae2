module Instance = Bcc_core.Instance
module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Solve_ctx = Bcc_core.Solve_ctx
module Pipeline = Bcc_core.Pipeline
module Io = Bcc_data.Io
module Log_parser = Bcc_data.Log_parser
module Timer = Bcc_util.Timer
module Trace = Bcc_obs.Trace
module Event = Bcc_obs.Event
module Deadline = Bcc_robust.Deadline
module Fault = Bcc_robust.Fault
module Curve_cache = Bcc_sched.Curve_cache

let log_src = Logs.Src.create "bcc.store" ~doc:"workload store commits and replay"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Bridge between the two open decoded types: [bcc_sched] cannot depend
   on [bcc_core], so the curve cache stores opaque [Curve_cache.decoded]
   values and this layer — which sees both — wraps the pipeline's
   decoded curves ([Solve_ctx.decoded]) into them. *)
type Curve_cache.decoded += Decoded of Solve_ctx.decoded

type source = Text of string | Log of string

type info = {
  name : string;
  epoch : int;
  budget : float;
  num_queries : int;
  journal_bytes : int;
  solved_epoch : int option;
  warm_ratio : float option;
}

type solved = {
  info : info;
  instance : Instance.t;
  solution : Solution.t;
  solved_at : int;
  degraded : bool;
  warm : bool;
  seed_utility : float;
  wall_s : float;
  components_total : int;
  components_reused : int;
}

type error = [ `Not_found | `Bad of string ]

type kind = Ktext | Klog

type workload = {
  wname : string;
  kind : kind;
  generation : string;
  names : Symtab.t;
  queries : float Propset.Tbl.t;  (* query -> utility *)
  costs : float Propset.Tbl.t;  (* classifier -> explicit finite cost *)
  oracle : (Propset.t -> float) option;  (* prices classifiers outside [costs] *)
  mutable budget : float;
  mutable epoch : int;
  mutable cached : Instance.t option;
  mutable cached_epoch : int;
  (* What the deltas since [cached] changed: query sets whose utility
     was set or that were removed, and classifier sets re-priced.  The
     next [materialize] derives the epoch's instance from them. *)
  touched : unit Propset.Tbl.t;
  repriced : unit Propset.Tbl.t;
  mutable last : solved option;  (* info field is stale; refreshed on access *)
  mutable warm_ratio : float option;
  mutable jfd : Unix.file_descr option;
  mutable journal_bytes : int;
  (* Incremental-pipeline curve artifacts live in the store-wide
     [Curve_cache] (shared across workloads, byte-bounded), claimed
     under this workload's owner id ([wname ^ "@" ^ generation] — a
     re-put starts a fresh generation, so stale claims are fenced).  The
     per-owner footprints drive delta invalidation; the fingerprint key
     makes hits self-validating, so eviction is garbage collection and
     reuse accounting, never a correctness requirement. *)
  (* Fingerprint hints: pipeline hint key -> (property-name footprint,
     component fingerprint).  Lets an incremental solve skip rehashing
     components no delta touched (Solve_ctx.fp_hints).  Hints stay
     per-workload (unlike curve payloads) because their validity rests
     on this table seeing every delta to this workload; they are a pure
     in-process memo — never persisted, rebuilt by the first solve after
     a restart. *)
  fp_hints : (string, string list * string) Hashtbl.t;
  lock : Mutex.t;
}

type t = {
  dir : string option;
  compact_bytes : int;
  cache : Curve_cache.t;  (* curve artifacts, shared across workloads *)
  tbl : (string, workload) Hashtbl.t;
  reg_lock : Mutex.t;  (* lock order: [reg_lock] before any workload lock *)
  epochs : int Atomic.t;
  mutable replay_s : float;
}

(* The curve cache's owner id for a workload: generation-qualified, so a
   re-put (fresh generation) naturally orphans the old claims. *)
let owner_of w = w.wname ^ "@" ^ w.generation

(* --- names, generations, small file helpers --- *)

let valid_name s =
  let n = String.length s in
  n > 0 && n <= 128
  && s.[0] <> '.'
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = '-')
       s

(* Generations fence journal records against a workload's previous life
   (see Codec); pid + wall-clock millis + a process counter is unique
   across both restarts and rapid re-puts. *)
let gen_counter = Atomic.make 0

let fresh_gen () =
  Printf.sprintf "g%x.%x.%x" (Unix.getpid ())
    (Int64.to_int (Int64.of_float (Unix.gettimeofday () *. 1000.)) land 0xffff_ffff)
    (Atomic.fetch_and_add gen_counter 1)

let snap_path dir name = Filename.concat dir (name ^ ".snap")
let journal_path dir name = Filename.concat dir (name ^ ".journal")
let artifacts_path dir name = Filename.concat dir (name ^ ".artifacts")

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write fd b !pos (n - !pos)
  done

(* Make a rename/create durable: fsync the containing directory. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- state construction and materialization --- *)

let prop_name w p = Symtab.name w.names p

let props_string w set =
  String.concat ";" (List.map (prop_name w) (Propset.to_list set))

(* An epoch's instance is derived from the last one built, through the
   sets its deltas touched; with none to start from (a log put, or a
   replay) it is built from the whole workload. *)
let materialize w =
  match w.cached with
  | Some inst when w.cached_epoch = w.epoch -> inst
  | prev ->
      Trace.with_span ~name:"store.materialize" @@ fun sp ->
      let name = Printf.sprintf "%s@%d" w.wname w.epoch in
      let cost c =
        match Propset.Tbl.find_opt w.costs c with
        | Some x -> x
        | None -> ( match w.oracle with Some f -> f c | None -> infinity)
      in
      let changed = Propset.Tbl.length w.touched + Propset.Tbl.length w.repriced in
      let inst =
        match prev with
        | Some prev ->
            let changes =
              Propset.Tbl.fold
                (fun q () acc -> (q, Propset.Tbl.find_opt w.queries q) :: acc)
                w.touched []
            in
            let repriced = Propset.Tbl.fold (fun c () acc -> c :: acc) w.repriced [] in
            Instance.derive ~name prev ~budget:w.budget ~changes ~repriced ~cost
        | None ->
            let qs = Propset.Tbl.fold (fun q u acc -> (q, u) :: acc) w.queries [] in
            Instance.create ~name ~names:w.names ~budget:w.budget ~queries:(Array.of_list qs)
              ~cost ()
      in
      Propset.Tbl.reset w.touched;
      Propset.Tbl.reset w.repriced;
      w.cached <- Some inst;
      w.cached_epoch <- w.epoch;
      if Trace.recording sp then begin
        Trace.add_attr sp "workload" (Trace.Str w.wname);
        Trace.add_attr sp "epoch" (Trace.Int w.epoch);
        Trace.add_attr sp "queries" (Trace.Int (Instance.num_queries inst));
        Trace.add_attr sp "derived" (Trace.Bool (Option.is_some prev));
        Trace.add_attr sp "changed" (Trace.Int changed)
      end;
      inst

(* Ops are validated in full before anything mutates, so a rejected
   batch leaves the workload untouched. *)
let validate_ops ops =
  let check_props what ps =
    if ps = [] then failwith ("Store.delta: empty property list in " ^ what);
    List.iter
      (fun p ->
        if p = "" then failwith ("Store.delta: empty property name in " ^ what))
      ps;
    if List.length (List.sort_uniq compare ps) > 16 then
      failwith ("Store.delta: more than 16 properties in " ^ what)
  in
  let check_num what x =
    if Float.is_nan x then failwith ("Store.delta: " ^ what ^ " is NaN");
    if x < 0.0 then failwith ("Store.delta: negative " ^ what)
  in
  let check_finite what x =
    check_num what x;
    if not (Float.is_finite x) then failwith ("Store.delta: " ^ what ^ " must be finite")
  in
  List.iter
    (fun (op : Delta.op) ->
      match op with
      | Delta.Set_budget b -> check_finite "budget" b
      | Delta.Upsert (ps, u) | Delta.Add (ps, u) ->
          check_props "upsert/add" ps;
          check_finite "utility" u
      | Delta.Remove ps -> check_props "remove" ps
      | Delta.Set_cost (ps, c) ->
          check_props "cost" ps;
          check_num "cost" c)
    ops

let apply_ops w ops =
  let intern ps = Propset.of_list (List.map (Symtab.intern w.names) ps) in
  let touch ps =
    let q = intern ps in
    Propset.Tbl.replace w.touched q ();
    q
  in
  List.iter
    (fun (op : Delta.op) ->
      Deadline.poll ();
      match op with
      | Delta.Set_budget b -> w.budget <- b
      | Delta.Upsert (ps, u) -> Propset.Tbl.replace w.queries (touch ps) u
      | Delta.Add (ps, u) ->
          let q = touch ps in
          let prev = Option.value ~default:0.0 (Propset.Tbl.find_opt w.queries q) in
          Propset.Tbl.replace w.queries q (prev +. u)
      | Delta.Remove ps -> Propset.Tbl.remove w.queries (touch ps)
      | Delta.Set_cost (ps, c) ->
          let s = intern ps in
          Propset.Tbl.replace w.repriced s ();
          if Float.is_finite c then Propset.Tbl.replace w.costs s c
          else Propset.Tbl.remove w.costs s)
    ops

let build_state ~name ?budget source =
  (match budget with
  | Some b when not (Float.is_finite b && b >= 0.0) ->
      failwith "Store.put: budget must be finite and non-negative"
  | _ -> ());
  let fresh kind oracle =
    {
      wname = name;
      kind;
      generation = fresh_gen ();
      names = Symtab.create ();
      queries = Propset.Tbl.create 256;
      costs = Propset.Tbl.create 256;
      oracle;
      budget = 0.0;
      epoch = 0;
      cached = None;
      cached_epoch = -1;
      touched = Propset.Tbl.create 16;
      repriced = Propset.Tbl.create 16;
      last = None;
      warm_ratio = None;
      jfd = None;
      journal_bytes = 0;
      fp_hints = Hashtbl.create 8;
      lock = Mutex.create ();
    }
  in
  match source with
  | Text text ->
      let inst = Io.load_string ~name text in
      let inst =
        match budget with Some b -> Instance.with_budget inst b | None -> inst
      in
      (* [Io.load_string] always interns through a symbol table. *)
      let names = Option.get (Instance.names inst) in
      let w = { (fresh Ktext None) with names; budget = Instance.budget inst } in
      for qi = 0 to Instance.num_queries inst - 1 do
        Propset.Tbl.replace w.queries (Instance.query inst qi) (Instance.utility inst qi)
      done;
      for id = 0 to Instance.num_classifiers inst - 1 do
        Propset.Tbl.replace w.costs (Instance.classifier inst id) (Instance.cost inst id)
      done;
      w.cached <- Some inst;
      w.cached_epoch <- 0;
      w
  | Log text ->
      let names, queries, _stats = Log_parser.parse_string text in
      let oracle = Log_parser.default_cost ~seed:(Hashtbl.hash name) in
      let w = { (fresh Klog (Some oracle)) with names } in
      w.budget <- Option.value ~default:1000.0 budget;
      Array.iter (fun (q, u) -> Propset.Tbl.replace w.queries q u) queries;
      w

(* --- snapshots --- *)

let render_snapshot w =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# bcc workload snapshot\n";
  Printf.bprintf buf "workload %s\n" w.wname;
  Printf.bprintf buf "generation %s\n" w.generation;
  Printf.bprintf buf "kind %s\n" (match w.kind with Ktext -> "text" | Klog -> "log");
  Printf.bprintf buf "epoch %d\n" w.epoch;
  (* %.17g: utilities accumulate float increments; the snapshot must
     round-trip them exactly or a replayed workload would drift. *)
  Printf.bprintf buf "budget %.17g\n" w.budget;
  let sorted tbl =
    Propset.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Propset.compare a b)
  in
  List.iter
    (fun (q, u) -> Printf.bprintf buf "query %s %.17g\n" (props_string w q) u)
    (sorted w.queries);
  List.iter
    (fun (c, x) -> Printf.bprintf buf "cost %s %.17g\n" (props_string w c) x)
    (sorted w.costs);
  (match w.last with
  | Some s ->
      Printf.bprintf buf "solved %d %.17g %.17g\n" s.solved_at s.solution.Solution.cost
        s.solution.Solution.utility;
      List.iter
        (fun c -> Printf.bprintf buf "select %s\n" (props_string w c))
        s.solution.Solution.classifiers
  | None -> ());
  Buffer.contents buf

let tokens line =
  let line = String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) line in
  List.filter (fun s -> s <> "") (String.split_on_char ' ' line)

(* Snapshot parsing: snapshots are written atomically (temp + rename),
   so unlike the journal there is no torn-tail tolerance — anything
   malformed is a hard [Failure]. *)
let parse_snapshot ~file text =
  let fail msg = failwith (Printf.sprintf "Store.replay %s: %s" file msg) in
  let parse_num what s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && f >= 0.0 -> f
    | _ -> fail ("bad " ^ what ^ ": " ^ s)
  in
  let wname = ref None
  and generation = ref None
  and kind = ref None
  and epoch = ref None
  and budget = ref None in
  let names = Symtab.create () in
  let queries = Propset.Tbl.create 256 in
  let costs = Propset.Tbl.create 256 in
  let solved = ref None in
  let selects = ref [] in
  let parse_props s =
    let parts = String.split_on_char ';' s in
    List.iter (fun p -> if p = "" then fail ("empty property name in: " ^ s)) parts;
    Propset.of_list (List.map (Symtab.intern names) parts)
  in
  List.iter
    (fun line ->
      Deadline.poll ();
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match tokens line with
        | [ "workload"; n ] when valid_name n -> wname := Some n
        | [ "generation"; g ] -> generation := Some g
        | [ "kind"; ("text" | "log") as k ] -> kind := Some k
        | [ "epoch"; e ] -> (
            match int_of_string_opt e with
            | Some e when e >= 0 -> epoch := Some e
            | _ -> fail ("bad epoch: " ^ e))
        | [ "budget"; b ] -> budget := Some (parse_num "budget" b)
        | [ "query"; props; u ] ->
            Propset.Tbl.replace queries (parse_props props) (parse_num "utility" u)
        | [ "cost"; props; c ] ->
            Propset.Tbl.replace costs (parse_props props) (parse_num "cost" c)
        | [ "solved"; e; c; u ] -> (
            match int_of_string_opt e with
            | Some e when e >= 0 -> solved := Some (e, parse_num "cost" c, parse_num "utility" u)
            | _ -> fail ("bad solved epoch: " ^ e))
        | [ "select"; props ] ->
            if !solved = None then fail "select before solved";
            selects := parse_props props :: !selects
        | _ -> fail ("malformed line: " ^ line))
    (String.split_on_char '\n' text);
  match (!wname, !generation, !kind, !epoch, !budget) with
  | Some wname, Some generation, Some kind, Some epoch, Some budget ->
      let kind = if kind = "log" then Klog else Ktext in
      let oracle =
        match kind with
        | Klog -> Some (Log_parser.default_cost ~seed:(Hashtbl.hash wname))
        | Ktext -> None
      in
      let w =
        {
          wname;
          kind;
          generation;
          names;
          queries;
          costs;
          oracle;
          budget;
          epoch;
          cached = None;
          cached_epoch = -1;
          touched = Propset.Tbl.create 16;
          repriced = Propset.Tbl.create 16;
          last = None;
          warm_ratio = None;
          jfd = None;
          journal_bytes = 0;
          fp_hints = Hashtbl.create 8;
          lock = Mutex.create ();
        }
      in
      (match !solved with
      | Some (at, cost, utility) ->
          (* The committed numbers are preserved verbatim: if deltas have
             advanced the workload past [at], re-pricing would silently
             change what the store "remembers" serving. *)
          let solution =
            { Solution.classifiers = List.rev !selects; cost; utility }
          in
          w.last <-
            Some
              {
                info =
                  {
                    name = wname;
                    epoch;
                    budget;
                    num_queries = Propset.Tbl.length queries;
                    journal_bytes = 0;
                    solved_epoch = Some at;
                    warm_ratio = None;
                  };
                instance = materialize w;
                solution;
                solved_at = at;
                degraded = false;
                warm = false;
                seed_utility = 0.0;
                wall_s = 0.0;
                components_total = 0;
                components_reused = 0;
              }
      | None -> ());
      w
  | _ -> fail "missing workload/generation/kind/epoch/budget header"

(* --- persistence primitives --- *)

let write_snapshot t w =
  match t.dir with
  | None -> ()
  | Some dir ->
      let path = snap_path dir w.wname in
      let tmp = path ^ ".tmp" in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          write_all fd (render_snapshot w);
          Unix.fsync fd);
      Unix.rename tmp path;
      fsync_dir dir

(* Artifacts are a pure cache: they are rewritten wholesale after each
   incremental solve (atomic temp + rename) and any record that fails to
   decode — torn tail, wrong generation, malformed payload — is silently
   skipped.  The pipeline re-validates every payload against the live
   instance anyway, so the worst a bad artifact file can cause is a cold
   component recompute. *)
let write_artifacts t w =
  match t.dir with
  | None -> ()
  | Some dir ->
      let path = artifacts_path dir w.wname in
      let owned = Curve_cache.owned t.cache ~owner:(owner_of w) in
      if owned = [] then begin
        if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ()
      end
      else begin
        let buf = Buffer.create 4096 in
        owned
        |> List.map (fun (fp, (fpr, payload)) -> (fp, fpr, payload))
        |> List.iter (fun (fp, fpr, payload) ->
               Buffer.add_string buf
                 (Codec.encode
                    {
                      Codec.kind = "artifact";
                      generation = w.generation;
                      epoch = w.epoch;
                      payload = fp ^ "\n" ^ String.concat ";" fpr ^ "\n" ^ payload;
                    }));
        let tmp = path ^ ".tmp" in
        let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            write_all fd (Buffer.contents buf);
            Unix.fsync fd);
        Unix.rename tmp path;
        fsync_dir dir
      end

let load_artifacts t dir w =
  let path = artifacts_path dir w.wname in
  if Sys.file_exists path then begin
    let records, _torn = Codec.decode (read_file path) in
    List.iter
      (fun (r : Codec.record) ->
        if r.Codec.kind = "artifact" && r.Codec.generation = w.generation then
          match String.index_opt r.Codec.payload '\n' with
          | None -> ()
          | Some i -> (
              let fp = String.sub r.Codec.payload 0 i in
              let rest =
                String.sub r.Codec.payload (i + 1) (String.length r.Codec.payload - i - 1)
              in
              match String.index_opt rest '\n' with
              | None -> ()
              | Some j ->
                  let footprint =
                    match String.sub rest 0 j with
                    | "" -> []
                    | s -> String.split_on_char ';' s
                  in
                  let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
                  if fp <> "" then
                    Curve_cache.store t.cache ~owner:(owner_of w) ~footprint fp payload))
      records
  end

let close_journal w =
  (match w.jfd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  w.jfd <- None

let truncate_journal t w =
  match t.dir with
  | None -> ()
  | Some dir ->
      close_journal w;
      let fd =
        Unix.openfile (journal_path dir w.wname)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
          0o644
      in
      w.jfd <- Some fd;
      w.journal_bytes <- 0

(* Append one record and fsync it — the commit point for deltas and
   solves.  Raises (and leaves memory untouched — callers append before
   mutating) on injected faults or I/O errors. *)
let append t w record =
  match t.dir with
  | None -> ()
  | Some dir ->
      Trace.with_span ~name:"store.commit" @@ fun sp ->
      Fault.hit "store.append";
      let fd =
        match w.jfd with
        | Some fd -> fd
        | None ->
            let fd =
              Unix.openfile (journal_path dir w.wname)
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
                0o644
            in
            w.jfd <- Some fd;
            fd
      in
      let s = Codec.encode record in
      write_all fd s;
      Unix.fsync fd;
      w.journal_bytes <- w.journal_bytes + String.length s;
      if Trace.recording sp then begin
        Trace.add_attr sp "kind" (Trace.Str record.Codec.kind);
        Trace.add_attr sp "epoch" (Trace.Int record.Codec.epoch);
        Trace.add_attr sp "bytes" (Trace.Int (String.length s))
      end;
      (* The same commit as a wide event, stamped with the ambient
         correlation id, so a request's durable side effects line up
         with its solve stream in the flight recorder. *)
      if Event.enabled () then
        Event.emit "store_commit"
          ~attrs:
            [
              ("workload", Event.Str w.wname);
              ("kind", Event.Str record.Codec.kind);
              ("epoch", Event.Int record.Codec.epoch);
              ("bytes", Event.Int (String.length s));
            ]

let maybe_compact t w =
  if w.journal_bytes > t.compact_bytes then begin
    Trace.with_span ~name:"store.compact" @@ fun sp ->
    if Trace.recording sp then begin
      Trace.add_attr sp "workload" (Trace.Str w.wname);
      Trace.add_attr sp "folded_bytes" (Trace.Int w.journal_bytes)
    end;
    (* Same generation: the snapshot advances to the current epoch, so
       any journal records a crash leaves behind are skipped by their
       (now stale) epochs on replay. *)
    write_snapshot t w;
    truncate_journal t w;
    Log.debug (fun m -> m "%s: compacted journal into snapshot at epoch %d" w.wname w.epoch)
  end

(* --- startup replay --- *)

let replay_workload t dir base =
  Deadline.poll ();
  let sfile = snap_path dir base in
  let w = parse_snapshot ~file:sfile (read_file sfile) in
  if w.wname <> base then
    failwith (Printf.sprintf "Store.replay %s: snapshot is for workload %s" sfile w.wname);
  let jpath = journal_path dir base in
  let jbytes = if Sys.file_exists jpath then read_file jpath else "" in
  let records, tail = Codec.decode jbytes in
  (* Records are applied in order; the first out-of-sequence epoch stops
     the replay (nothing after it can be trusted), while records from an
     older generation or at-or-below the snapshot epoch are simply
     stale.  Only the torn tail is truncated from the file — stale
     records are rewritten away by the next compaction. *)
  let stop = ref false in
  List.iter
    (fun (r : Codec.record) ->
      Deadline.poll ();
      if (not !stop) && r.generation = w.generation then
        match r.kind with
        | "delta" when r.epoch = w.epoch + 1 ->
            let ops = Delta.parse r.payload in
            validate_ops ops;
            apply_ops w ops;
            w.epoch <- r.epoch;
            w.cached <- None
        | "delta" when r.epoch <= w.epoch -> ()
        | "delta" ->
            Log.warn (fun m ->
                m "%s: journal gap at epoch %d (workload at %d); stopping replay" base
                  r.epoch w.epoch);
            stop := true
        | "solve" when r.epoch = w.epoch ->
            let inst = materialize w in
            let solution = Codec.solution_of_string inst r.payload in
            w.last <-
              Some
                {
                  info =
                    {
                      name = w.wname;
                      epoch = w.epoch;
                      budget = w.budget;
                      num_queries = Propset.Tbl.length w.queries;
                      journal_bytes = 0;
                      solved_epoch = Some w.epoch;
                      warm_ratio = None;
                    };
                  instance = inst;
                  solution;
                  solved_at = w.epoch;
                  degraded = false;
                  warm = false;
                  seed_utility = 0.0;
                  wall_s = 0.0;
                  components_total = 0;
                  components_reused = 0;
                }
        | "solve" when r.epoch < w.epoch -> ()
        | _ ->
            Log.warn (fun m -> m "%s: unknown journal record kind %s; stopping replay" base r.kind);
            stop := true)
    records;
  if tail > 0 then begin
    Log.warn (fun m -> m "%s: truncating %d torn bytes from journal tail" base tail);
    Unix.truncate jpath (String.length jbytes - tail)
  end;
  w.journal_bytes <- String.length jbytes - tail;
  load_artifacts t dir w;
  Hashtbl.replace t.tbl base w

let create ?dir ?(compact_bytes = 262_144) ?curve_cache () =
  let t =
    {
      dir;
      compact_bytes = max 1 compact_bytes;
      (* Default: a private cache, so each store's artifact lifetime is
         self-contained (tests rely on a fresh store solving cold).  The
         daemon passes one shared cache so curves cross workloads. *)
      cache =
        (match curve_cache with Some c -> c | None -> Curve_cache.create ());
      tbl = Hashtbl.create 8;
      reg_lock = Mutex.create ();
      epochs = Atomic.make 0;
      replay_s = 0.0;
    }
  in
  (match dir with
  | None -> ()
  | Some d ->
      (try Unix.mkdir d 0o755 with
      | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
      | Unix.Unix_error (e, _, _) ->
          failwith
            (Printf.sprintf "Store.create: cannot create %s: %s" d (Unix.error_message e)));
      let timer = Timer.start () in
      Trace.with_span ~name:"store.replay" @@ fun sp ->
      let bases =
        Sys.readdir d |> Array.to_list
        |> List.filter_map (fun f -> Filename.chop_suffix_opt f ~suffix:".snap")
        |> List.filter valid_name |> List.sort compare
      in
      List.iter (replay_workload t d) bases;
      t.replay_s <- Timer.elapsed_s timer;
      if Trace.recording sp then
        Trace.add_attr sp "workloads" (Trace.Int (List.length bases));
      Log.info (fun m ->
          m "replayed %d workloads from %s in %.3fs" (List.length bases) d t.replay_s));
  t

let close t =
  Mutex.lock t.reg_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.reg_lock)
    (fun () -> Hashtbl.iter (fun _ w -> close_journal w) t.tbl)

(* --- the public operations --- *)

let info_of w =
  {
    name = w.wname;
    epoch = w.epoch;
    budget = w.budget;
    num_queries = Propset.Tbl.length w.queries;
    journal_bytes = w.journal_bytes;
    solved_epoch = Option.map (fun s -> s.solved_at) w.last;
    warm_ratio = w.warm_ratio;
  }

(* Lock order is always registry -> workload; the workload lock is taken
   while the registry lock is still held, so [w] cannot be replaced
   between lookup and lock. *)
let with_workload t name f =
  Mutex.lock t.reg_lock;
  match Hashtbl.find_opt t.tbl name with
  | None ->
      Mutex.unlock t.reg_lock;
      Error `Not_found
  | Some w ->
      Mutex.lock w.lock;
      Mutex.unlock t.reg_lock;
      Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) (fun () -> f w)

let put t ~name ?budget source =
  if not (valid_name name) then
    Error (`Bad ("invalid workload name (use [A-Za-z0-9._-], no leading dot): " ^ name))
  else
    Trace.with_span ~name:"store.put" @@ fun sp ->
    if Trace.recording sp then Trace.add_attr sp "workload" (Trace.Str name);
    match build_state ~name ?budget source with
    | exception Failure msg -> Error (`Bad msg)
    | w ->
        Mutex.lock t.reg_lock;
        let old = Hashtbl.find_opt t.tbl name in
        (* Hold the outgoing workload's lock across the file swap so an
           in-flight solve cannot append to the journal mid-replace. *)
        (match old with Some o -> Mutex.lock o.lock | None -> ());
        Fun.protect
          ~finally:(fun () ->
            (match old with Some o -> Mutex.unlock o.lock | None -> ());
            Mutex.unlock t.reg_lock)
          (fun () ->
            (match old with Some o -> close_journal o | None -> ());
            (* New-generation snapshot first (atomic rename = the commit
               point), then truncate the journal: a crash in between
               leaves old-generation records that replay skips. *)
            write_snapshot t w;
            truncate_journal t w;
            (* The fresh generation orphans any artifact file on disk
               and the old generation's curve-cache claims; remove both
               so a re-put name cannot serve a stale cache. *)
            (match old with
            | Some o -> Curve_cache.drop_owner t.cache ~owner:(owner_of o)
            | None -> ());
            write_artifacts t w;
            Hashtbl.replace t.tbl name w;
            Atomic.incr t.epochs;
            Ok (info_of w))

(* Delta-footprint invalidation: drop every artifact whose property
   footprint intersects the properties the batch touches (a budget
   change re-fingerprints everything, so it clears the lot).  Untouched
   components keep their curves and are reused by the next incremental
   solve.  Purely an accounting/GC step — a stale artifact that survived
   would still miss on its fingerprint. *)
let evict_artifacts t w ops =
  if List.exists (function Delta.Set_budget _ -> true | _ -> false) ops then begin
    Curve_cache.drop_owner t.cache ~owner:(owner_of w);
    Hashtbl.reset w.fp_hints
  end
  else begin
    let touched = Hashtbl.create 16 in
    List.iter
      (fun (op : Delta.op) ->
        match op with
        | Delta.Set_budget _ -> ()
        | Delta.Upsert (ps, _) | Delta.Add (ps, _) | Delta.Remove ps | Delta.Set_cost (ps, _)
          ->
            List.iter (fun p -> Hashtbl.replace touched p ()) ps)
      ops;
    Curve_cache.evict_owner t.cache ~owner:(owner_of w) ~touched:(Hashtbl.mem touched);
    (* The hint sweep is the correctness half of the hint contract: a
       fingerprint hint may only survive a delta its footprint provably
       does not intersect (Solve_ctx.fp_hints). *)
    let dead =
      Hashtbl.fold
        (fun key (footprint, _) acc ->
          if List.exists (Hashtbl.mem touched) footprint then key :: acc else acc)
        w.fp_hints []
    in
    List.iter (Hashtbl.remove w.fp_hints) dead
  end

let delta t ~name ops =
  with_workload t name @@ fun w ->
  Trace.with_span ~name:"store.delta" @@ fun sp ->
  if Trace.recording sp then begin
    Trace.add_attr sp "workload" (Trace.Str name);
    Trace.add_attr sp "ops" (Trace.Int (List.length ops))
  end;
  match validate_ops ops with
  | exception Failure msg -> Error (`Bad msg)
  | () ->
      if ops = [] then Error (`Bad "empty delta: no ops")
      else begin
        append t w
          {
            Codec.kind = "delta";
            generation = w.generation;
            epoch = w.epoch + 1;
            payload = Delta.to_string ops;
          };
        apply_ops w ops;
        w.epoch <- w.epoch + 1;
        evict_artifacts t w ops;
        Atomic.incr t.epochs;
        maybe_compact t w;
        Ok (info_of w)
      end

let solve t ~name ?options ?(cold = false) ?(incremental = false) ?(deadline = Deadline.none)
    () =
  with_workload t name @@ fun w ->
  Trace.with_span ~name:"store.solve" @@ fun sp ->
  let inst = materialize w in
  let warm =
    if cold || incremental then None else Option.map (fun s -> s.solution) w.last
  in
  (* Seed utility under the *current* epoch: what the previous solution
     still covers after the delta (vanished classifiers dropped). *)
  let seed_utility =
    match warm with
    | Some s -> (Solution.of_sets inst s.Solution.classifiers).Solution.utility
    | None -> 0.0
  in
  let timer = Timer.start () in
  let outcome, components_total, components_reused =
    if not incremental then
      (Solver.solve_within ?options ?warm ~deadline inst, 0, 0)
    else begin
      (* Incremental pipeline: per-component curves served from the
         store-wide curve cache when the delta footprint left them
         untouched.  Lookup is fingerprint-global — another workload (or
         another epoch's surviving claim) with the same component
         content serves the hit; self-validating either way.
         Deliberately not warm-seeded — the per-component solves must be
         pure functions of component content so an incremental re-solve
         is bit-identical to a cold pipeline solve at the same epoch. *)
      let ownr = owner_of w in
      let cache =
        Solve_ctx.cache
          ~find_decoded:(fun fp ->
            match Curve_cache.find_decoded t.cache fp with
            | Some (Decoded d) -> Some d
            | _ -> None)
          ~store_decoded:(fun fp d -> Curve_cache.store_decoded t.cache fp (Decoded d))
          ~find:(fun fp -> Curve_cache.find t.cache fp)
          ~store:(fun fp payload -> Curve_cache.store t.cache ~owner:ownr fp payload)
          ()
      in
      let hints =
        {
          Solve_ctx.hint_find =
            (fun key -> Option.map snd (Hashtbl.find_opt w.fp_hints key));
          hint_record =
            (fun key footprint fp -> Hashtbl.replace w.fp_hints key (footprint, fp));
        }
      in
      let ctx = Solve_ctx.make ~deadline ~cache ~hints () in
      let report = Pipeline.solve ?options ctx inst in
      (* Stamp the footprints the eviction scan intersects with delta
         footprints; newly stored artifacts were parked with an empty
         footprint above, and a cross-workload hit becomes claimed by
         this owner here. *)
      List.iter
        (fun (c : Pipeline.component_report) ->
          let footprint =
            List.sort compare
              (List.map (prop_name w) (Propset.to_list c.Pipeline.props))
          in
          Curve_cache.set_footprint t.cache ~owner:ownr c.Pipeline.fingerprint footprint)
        report.Pipeline.components;
      write_artifacts t w;
      (report.Pipeline.outcome, report.Pipeline.components_total,
       report.Pipeline.components_reused)
    end
  in
  let wall_s = Timer.elapsed_s timer in
  let solution = outcome.Solver.solution in
  append t w
    {
      Codec.kind = "solve";
      generation = w.generation;
      epoch = w.epoch;
      payload = Codec.solution_to_string inst solution;
    };
  maybe_compact t w;
  w.warm_ratio <-
    (match warm with
    | Some _ ->
        Some (if solution.Solution.utility > 0.0 then seed_utility /. solution.Solution.utility else 1.0)
    | None -> w.warm_ratio);
  let s =
    {
      info = info_of w;
      instance = inst;
      solution;
      solved_at = w.epoch;
      degraded = outcome.Solver.degraded;
      warm = Option.is_some warm;
      seed_utility;
      wall_s;
      components_total;
      components_reused;
    }
  in
  w.last <- Some s;
  if Trace.recording sp then begin
    Trace.add_attr sp "workload" (Trace.Str name);
    Trace.add_attr sp "epoch" (Trace.Int w.epoch);
    Trace.add_attr sp "warm" (Trace.Bool s.warm);
    Trace.add_attr sp "seed_utility" (Trace.Float seed_utility);
    Trace.add_attr sp "utility" (Trace.Float solution.Solution.utility);
    Trace.add_attr sp "degraded" (Trace.Bool s.degraded);
    if incremental then begin
      Trace.add_attr sp "components" (Trace.Int components_total);
      Trace.add_attr sp "reused" (Trace.Int components_reused)
    end
  end;
  Ok s

let solution t name =
  with_workload t name @@ fun w ->
  match w.last with
  | None -> Error `Not_found
  | Some s -> Ok { s with info = info_of w }

let info t name =
  match with_workload t name (fun w -> Ok (info_of w)) with
  | Ok i -> Some i
  | Error _ -> None

let list t =
  Mutex.lock t.reg_lock;
  let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.tbl [] in
  Mutex.unlock t.reg_lock;
  ws
  |> List.map (fun w ->
         Mutex.lock w.lock;
         Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) (fun () -> info_of w))
  |> List.sort (fun a b -> compare a.name b.name)

let epochs_committed t = Atomic.get t.epochs
let replay_seconds t = t.replay_s
