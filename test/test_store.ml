(* The workload store: delta codec and apply semantics, epoch-cached
   materialization, warm-vs-cold solve quality, snapshot + journal
   persistence (including torn tails, mid-file corruption, compaction
   and generation fencing on re-put), and qcheck properties over the
   journal record codec. *)

module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Codec = Bcc_store.Codec
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Io = Bcc_data.Io
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

let ok = function
  | Ok v -> v
  | Error (`Bad msg) -> Alcotest.failf "unexpected `Bad: %s" msg
  | Error `Not_found -> Alcotest.fail "unexpected `Not_found"

let bad = function
  | Ok _ -> Alcotest.fail "expected `Bad, got Ok"
  | Error (`Bad _) -> ()
  | Error `Not_found -> Alcotest.fail "expected `Bad, got `Not_found"

(* Figure 1 as instance text (same optima as the bccd fixture: utility 9
   at budget 4, 11 at 11). *)
let fig_text =
  "budget 4\n\
   query x;y;z 8\n\
   query x;z 1\n\
   query x;y 2\n\
   classifier x 5\n\
   classifier y 3\n\
   classifier z 3\n\
   classifier x;y;z 3\n\
   classifier x;z 4\n\
   classifier y;z 0\n"

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Unix.mkdir base 0o755;
  base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = temp_dir "bcc_store" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_file path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

(* --- delta codec --- *)

let delta_roundtrip () =
  let ops =
    [
      Delta.Set_budget 12.5;
      Delta.Upsert ([ "wooden"; "table" ], 8.0);
      Delta.Add ([ "round" ], 2.25);
      Delta.Remove [ "round"; "table" ];
      Delta.Set_cost ([ "wooden" ], 3.0);
      Delta.Set_cost ([ "round"; "wooden" ], infinity);
    ]
  in
  Alcotest.(check bool) "round-trips" true (Delta.parse (Delta.to_string ops) = ops);
  let expect_fail name text =
    match Delta.parse text with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  expect_fail "malformed line" "wibble x 3";
  expect_fail "NaN utility" "upsert a nan";
  expect_fail "negative utility" "upsert a -1";
  expect_fail "infinite utility" "upsert a inf";
  expect_fail "empty property" "remove a;;b";
  expect_fail "duplicate property" "upsert a;a 3";
  expect_fail "missing field" "budget";
  (* infinity is legal for costs only: it evicts the explicit price *)
  Alcotest.(check bool) "cost inf parses" true
    (Delta.parse "cost a;b inf" = [ Delta.Set_cost ([ "a"; "b" ], infinity) ]);
  (* comments and blank lines are ignored *)
  Alcotest.(check bool) "comments skipped" true
    (Delta.parse "# drift\n\nbudget 7\n" = [ Delta.Set_budget 7.0 ])

let delta_of_log () =
  let ops, stats = Delta.of_log "wooden table\t5\nround\n" in
  Alcotest.(check int) "lines" 2 stats.Bcc_data.Log_parser.lines;
  let normalized =
    List.map
      (function Delta.Add (ps, u) -> (List.sort compare ps, u) | _ -> assert false)
      ops
    |> List.sort compare
  in
  Alcotest.(check bool) "adds with counts" true
    (normalized = [ ([ "round" ], 1.0); ([ "table"; "wooden" ], 5.0) ])

(* --- apply semantics and materialization --- *)

let apply_semantics () =
  let store = Store.create () in
  Alcotest.(check bool) "bad name rejected" true
    (match Store.put store ~name:".hidden" (Store.Text fig_text) with
    | Error (`Bad _) -> true
    | _ -> false);
  let info = ok (Store.put store ~name:"fig" (Store.Text fig_text)) in
  Alcotest.(check int) "epoch 0" 0 info.Store.epoch;
  Alcotest.(check int) "three queries" 3 info.Store.num_queries;
  let s0 = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check (float 1e-9)) "figure1 optimum" 9.0 s0.Store.solution.Solution.utility;
  Alcotest.(check bool) "first solve is cold" false s0.Store.warm;
  (* the materialized instance is cached per epoch *)
  let s0' = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check bool) "same-epoch instance physically shared" true
    (s0.Store.instance == s0'.Store.instance);
  Alcotest.(check bool) "second solve is warm" true s0'.Store.warm;
  (* a rejected batch leaves the workload untouched *)
  bad (Store.delta store ~name:"fig" [ Delta.Upsert ([ "x" ], -1.0) ]);
  bad (Store.delta store ~name:"fig" []);
  Alcotest.(check int) "epoch unchanged after rejected batch" 0
    (Option.get (Store.info store "fig")).Store.epoch;
  (* budget change + utility drift, applied atomically *)
  let info =
    ok
      (Store.delta store ~name:"fig"
         [ Delta.Set_budget 11.0; Delta.Add ([ "x"; "y" ], 1.0); Delta.Remove [ "x"; "z" ] ])
  in
  Alcotest.(check int) "epoch advanced" 1 info.Store.epoch;
  Alcotest.(check int) "query removed" 2 info.Store.num_queries;
  let s1 = ok (Store.solve store ~name:"fig" ()) in
  Alcotest.(check bool) "new epoch materializes a new instance" true
    (not (s1.Store.instance == s0.Store.instance));
  Alcotest.(check (float 1e-9)) "new budget" 11.0 (Instance.budget s1.Store.instance);
  (* all of figure1's per-query utility remains reachable at budget 11:
     8 + (2 + 1 drifted) = 11 *)
  Alcotest.(check (float 1e-9)) "drifted optimum" 11.0 s1.Store.solution.Solution.utility;
  Alcotest.(check bool) "warm-seeded" true s1.Store.warm;
  (* unknown workload is `Not_found, unsolved workload too *)
  Alcotest.(check bool) "unknown workload" true
    (Store.solve store ~name:"nope" () = Error `Not_found);
  ignore (ok (Store.put store ~name:"fresh" (Store.Text fig_text)));
  Alcotest.(check bool) "never-solved workload has no solution" true
    (match Store.solution store "fresh" with Error `Not_found -> true | _ -> false);
  Alcotest.(check int) "epochs committed: 2 puts + 1 delta" 3
    (Store.epochs_committed store);
  Store.close store

(* --- warm vs cold (the acceptance bar: small delta -> warm >= cold) --- *)

let drifting_log n =
  String.concat ""
    (List.init n (fun i ->
         Printf.sprintf "w%d x%d\t%d\n" (i mod 8) (i mod 5) (5 + (i * 7 mod 23))))

let warm_never_trails_cold () =
  let store = Store.create () in
  ignore (ok (Store.put store ~name:"drift" ~budget:90.0 (Store.Log (drifting_log 40))));
  let s0 = ok (Store.solve store ~name:"drift" ()) in
  Alcotest.(check bool) "baseline solve has utility" true
    (s0.Store.solution.Solution.utility > 0.0);
  (* 2 of 40 queries change (5%) *)
  ignore
    (ok
       (Store.delta store ~name:"drift"
          [ Delta.Upsert ([ "w1"; "x1" ], 60.0); Delta.Add ([ "w2"; "x2" ], 25.0) ]));
  let warm = ok (Store.solve store ~name:"drift" ()) in
  Alcotest.(check bool) "warm-seeded" true warm.Store.warm;
  Alcotest.(check bool) "seed re-validated to a positive utility" true
    (warm.Store.seed_utility > 0.0);
  let cold = ok (Store.solve store ~name:"drift" ~cold:true ()) in
  Alcotest.(check bool) "cold solve is cold" false cold.Store.warm;
  Alcotest.(check bool)
    (Printf.sprintf "warm (%.1f) >= cold (%.1f)" warm.Store.solution.Solution.utility
       cold.Store.solution.Solution.utility)
    true
    (warm.Store.solution.Solution.utility >= cold.Store.solution.Solution.utility -. 1e-9);
  (* warm ratio got exported *)
  (match (Option.get (Store.info store "drift")).Store.warm_ratio with
  | Some r -> Alcotest.(check bool) "warm ratio in (0, 1]" true (r > 0.0 && r <= 1.0 +. 1e-9)
  | None -> Alcotest.fail "warm_ratio missing after a warm solve");
  Store.close store

(* The solver-level guarantee behind it: the result never trails its own
   re-validated seed, even when the seed is junk for the new instance. *)
let solver_warm_contract () =
  let inst = Io.load_string ~name:"fig" fig_text in
  let cold = Bcc_core.Solver.solve inst in
  let shifted = Instance.with_budget inst 3.0 in
  (* warm seed from a bigger budget: picks that no longer fit are
     dropped, and the result is still feasible and >= the seed *)
  let warm = Bcc_core.Solver.solve ~warm:cold shifted in
  Alcotest.(check bool) "feasible under the tighter budget" true
    (Solution.verify shifted warm);
  let reseeded = Bcc_core.Solver.solve ~warm:cold inst in
  Alcotest.(check (float 1e-9)) "same instance + own seed keeps the optimum"
    cold.Solution.utility reseeded.Solution.utility

(* --- persistence --- *)

let persistence_roundtrip () =
  with_dir @@ fun dir ->
  let epoch1_solution =
    let store = Store.create ~dir () in
    ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
    ignore
      (ok (Store.delta store ~name:"fig" [ Delta.Set_budget 11.0; Delta.Add ([ "y" ], 3.0) ]));
    let s = ok (Store.solve store ~name:"fig" ()) in
    Store.close store;
    s
  in
  (* reopen: same epoch, same committed solution, and the journal keeps
     working *)
  let store = Store.create ~dir () in
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "epoch recovered" 1 info.Store.epoch;
  Alcotest.(check (option int)) "solved epoch recovered" (Some 1) info.Store.solved_epoch;
  let s = ok (Store.solution store "fig") in
  Alcotest.(check (float 1e-9)) "utility recovered"
    epoch1_solution.Store.solution.Solution.utility s.Store.solution.Solution.utility;
  Alcotest.(check (float 1e-9)) "cost recovered"
    epoch1_solution.Store.solution.Solution.cost s.Store.solution.Solution.cost;
  Alcotest.(check bool) "replay time measured" true (Store.replay_seconds store >= 0.0);
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x"; "y" ], 1.0) ]));
  Alcotest.(check int) "journal usable after replay" 2
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let torn_tail_truncated () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let intact = read_file journal in
  (* a crash mid-append: half a record at the tail *)
  append_file journal "@rec delta gXXX 3 250 0123456789abcdef0123456789abcdef\npartial";
  let store = Store.create ~dir () in
  Alcotest.(check int) "committed epochs survive" 2
    (Option.get (Store.info store "fig")).Store.epoch;
  Alcotest.(check string) "torn tail truncated from the file" intact (read_file journal);
  (* and appends continue cleanly after the truncation *)
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x" ], 1.0) ]));
  Store.close store;
  let store = Store.create ~dir () in
  Alcotest.(check int) "post-recovery delta survives too" 3
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let mid_journal_corruption () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let bytes = Bytes.of_string (read_file journal) in
  (* flip a payload byte of the SECOND record: its checksum breaks, so
     replay keeps epoch 1 and distrusts everything after *)
  Bytes.set bytes (Bytes.length bytes - 3)
    (match Bytes.get bytes (Bytes.length bytes - 3) with '0' -> '1' | _ -> '0');
  Out_channel.with_open_bin journal (fun oc -> Out_channel.output_bytes oc bytes);
  let store = Store.create ~dir () in
  Alcotest.(check int) "intact prefix survives corruption" 1
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

let compaction_folds_journal () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir ~compact_bytes:64 () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  for i = 1 to 5 do
    ignore
      (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], float_of_int i) ]))
  done;
  (* every delta record exceeds 64 bytes, so each commit compacts *)
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "journal folded into the snapshot" 0 info.Store.journal_bytes;
  Alcotest.(check int) "epochs intact" 5 info.Store.epoch;
  Store.close store;
  let store = Store.create ~dir ~compact_bytes:64 () in
  let info = Option.get (Store.info store "fig") in
  Alcotest.(check int) "compacted state replays" 5 info.Store.epoch;
  (* the folded utility drift is really in the materialized instance:
     query y accumulated 1+2+3+4+5 on top of nothing *)
  let s = ok (Store.solve store ~name:"fig" ~cold:true ()) in
  let inst = s.Store.instance in
  let found = ref false in
  for qi = 0 to Instance.num_queries inst - 1 do
    if Instance.utility inst qi = 15.0 then found := true
  done;
  Alcotest.(check bool) "accumulated adds survive compaction" true !found;
  Store.close store

(* A re-put starts a new generation: journal records from the previous
   life must not replay onto the new base, even if the crash happened
   before the journal truncation hit the disk. *)
let put_fences_old_generation () =
  with_dir @@ fun dir ->
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "y" ], 3.0) ]));
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "z" ], 2.0) ]));
  Store.close store;
  let journal = Filename.concat dir "fig.journal" in
  let old_records = read_file journal in
  let store = Store.create ~dir () in
  ignore (ok (Store.put store ~name:"fig" (Store.Text fig_text)));
  Store.close store;
  (* simulate the crash window: old-generation records still (or again)
     in the journal after the new-generation snapshot landed *)
  append_file journal old_records;
  let store = Store.create ~dir () in
  Alcotest.(check int) "old-generation records are fenced off" 0
    (Option.get (Store.info store "fig")).Store.epoch;
  ignore (ok (Store.delta store ~name:"fig" [ Delta.Add ([ "x" ], 1.0) ]));
  Alcotest.(check int) "new generation advances normally" 1
    (Option.get (Store.info store "fig")).Store.epoch;
  Store.close store

(* --- solution codec --- *)

let solution_codec () =
  let inst = Io.load_string ~name:"fig" fig_text in
  let sol = Bcc_core.Solver.solve inst in
  let text = Codec.solution_to_string inst sol in
  let back = Codec.solution_of_string inst text in
  Alcotest.(check (float 1e-9)) "utility round-trips" sol.Solution.utility
    back.Solution.utility;
  Alcotest.(check (float 1e-9)) "cost round-trips" sol.Solution.cost back.Solution.cost;
  (* the same file format Io.save_solution writes loads as a warm seed *)
  let file = Filename.temp_file "bcc_sol" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Io.save_solution file inst sol;
      let loaded = Codec.solution_of_string inst (read_file file) in
      Alcotest.(check (float 1e-9)) "Io.save_solution interchanges" sol.Solution.utility
        loaded.Solution.utility);
  (* lenient mode drops drifted selections; strict refuses them *)
  let drifted = text ^ "select nosuch;props 9\n" in
  Alcotest.(check (float 1e-9)) "unknown selection dropped leniently"
    sol.Solution.utility (Codec.solution_of_string inst drifted).Solution.utility;
  (match Codec.solution_of_string ~strict:true inst drifted with
  | _ -> Alcotest.fail "strict mode accepted an unknown selection"
  | exception Failure _ -> ());
  match Codec.solution_of_string inst "select\n" with
  | _ -> Alcotest.fail "malformed select line accepted"
  | exception Failure _ -> ()

(* --- qcheck: derived epochs = full builds --- *)

(* What a workload holds, keyed by property names: the model every epoch
   the store derives is checked against. *)
type model = {
  m_queries : (string list, float) Hashtbl.t;
  m_costs : (string list, float) Hashtbl.t;  (* explicit prices *)
  mutable m_budget : float;
}

let model_apply m ops =
  List.iter
    (fun (op : Delta.op) ->
      match op with
      | Delta.Set_budget b -> m.m_budget <- b
      | Delta.Upsert (ps, u) -> Hashtbl.replace m.m_queries (List.sort compare ps) u
      | Delta.Add (ps, u) ->
          let q = List.sort compare ps in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt m.m_queries q) in
          Hashtbl.replace m.m_queries q (prev +. u)
      | Delta.Remove ps -> Hashtbl.remove m.m_queries (List.sort compare ps)
      | Delta.Set_cost (ps, c) ->
          let c_key = List.sort compare ps in
          if Float.is_finite c then Hashtbl.replace m.m_costs c_key c
          else Hashtbl.remove m.m_costs c_key)
    ops

(* [Instance.create] on the model's content, under the store's symbol
   table (every name in the model has been interned by the store). *)
let model_instance m ~name ~names ~oracle =
  let intern ps = Bcc_core.Propset.of_list (List.map (Bcc_core.Symtab.intern names) ps) in
  let explicit = Bcc_core.Propset.Tbl.create 16 in
  Hashtbl.iter (fun ps c -> Bcc_core.Propset.Tbl.replace explicit (intern ps) c) m.m_costs;
  let cost c =
    match Bcc_core.Propset.Tbl.find_opt explicit c with
    | Some x -> x
    | None -> ( match oracle with Some f -> f c | None -> infinity)
  in
  let queries = Hashtbl.fold (fun ps u acc -> (intern ps, u) :: acc) m.m_queries [] in
  Instance.create ~name ~names ~budget:m.m_budget ~queries:(Array.of_list queries) ~cost ()

let random_props rng =
  let props = [| "a"; "b"; "c"; "d"; "e"; "f"; "g" |] in
  Rng.sample_without_replacement rng (1 + Rng.int rng 3) (Array.length props)
  |> Array.map (fun i -> props.(i))
  |> Array.to_list

let random_ops rng =
  let amount () = Rng.choose rng [| 0.0; 0.5; 1.0; 3.0; 10.0 |] in
  List.init (1 + Rng.int rng 5) (fun _ ->
      match Rng.int rng 8 with
      | 0 | 1 -> Delta.Upsert (random_props rng, amount ())
      | 2 | 3 -> Delta.Add (random_props rng, amount ())
      | 4 -> Delta.Remove (random_props rng)
      | 5 -> Delta.Set_budget (float_of_int (Rng.int rng 30))
      | _ ->
          (* Text workloads have no oracle, so [inf] prices a set out; a
             log workload falls back to its oracle. *)
          let price = Rng.choose rng [| 0.0; 1.0; 2.0; 5.0; infinity |] in
          Delta.Set_cost (random_props rng, price))

let random_source rng ~log =
  let set sep = String.concat sep (random_props rng) in
  let buf = Buffer.create 256 in
  if log then begin
    for _ = 1 to 3 + Rng.int rng 8 do
      Printf.bprintf buf "%s\t%d\n" (set " ") (1 + Rng.int rng 9)
    done;
    Store.Log (Buffer.contents buf)
  end
  else begin
    Printf.bprintf buf "budget %d\n" (5 + Rng.int rng 10);
    for _ = 1 to 3 + Rng.int rng 8 do
      Printf.bprintf buf "query %s %d\n" (set ";") (1 + Rng.int rng 9)
    done;
    for _ = 1 to 4 + Rng.int rng 8 do
      Printf.bprintf buf "classifier %s %d\n" (set ";") (Rng.int rng 5)
    done;
    Store.Text (Buffer.contents buf)
  end

(* The model of a freshly put workload: what the store keeps of it. *)
let model_of_source ~name = function
  | Store.Text text ->
      let inst = Io.load_string ~name text in
      let names = Option.get (Instance.names inst) in
      let key c = List.map (Bcc_core.Symtab.name names) (Bcc_core.Propset.to_list c) in
      let key c = List.sort compare (key c) in
      let m =
        {
          m_queries = Hashtbl.create 16;
          m_costs = Hashtbl.create 16;
          m_budget = Instance.budget inst;
        }
      in
      for qi = 0 to Instance.num_queries inst - 1 do
        Hashtbl.replace m.m_queries (key (Instance.query inst qi)) (Instance.utility inst qi)
      done;
      for id = 0 to Instance.num_classifiers inst - 1 do
        Hashtbl.replace m.m_costs (key (Instance.classifier inst id)) (Instance.cost inst id)
      done;
      m
  | Store.Log text ->
      let names, queries, _ = Bcc_data.Log_parser.parse_string text in
      let m = { m_queries = Hashtbl.create 16; m_costs = Hashtbl.create 16; m_budget = 20.0 } in
      Array.iter
        (fun (q, u) ->
          Hashtbl.replace m.m_queries
            (List.sort compare (List.map (Bcc_core.Symtab.name names) (Bcc_core.Propset.to_list q)))
            u)
        queries;
      m

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc (read_file (Filename.concat src f))))
    (Sys.readdir src)

(* Random delta sequences through a durable store, several deltas
   between solves: each solved epoch's instance, derived from the last,
   must be [Instance.create] of the model's content.  Then two restarts
   on copies of the state directory take one more delta, one rebuilding
   the epoch in full and one deriving it from the instance a solve just
   built; both must equal the model's instance and give the same
   answer.  The last solves are incremental, whose answer is a function
   of the instance alone, not of a warm seed. *)
let derived_epochs_match_full_builds =
  QCheck.Test.make ~name:"store: derived epochs = full builds, across a restart"
    ~count:(count 25) QCheck.int (fun seed ->
      let rng = Rng.create (0xde71 lxor seed) in
      let log = seed land 1 = 1 in
      let name = "w" in
      let oracle =
        if log then Some (Bcc_data.Log_parser.default_cost ~seed:(Hashtbl.hash name)) else None
      in
      let source = random_source rng ~log in
      let m = model_of_source ~name source in
      with_dir @@ fun dir ->
      let check what (s : Store.solved) =
        let inst = s.Store.instance in
        let names = Option.get (Instance.names inst) in
        let expected = model_instance m ~name:(Instance.name inst) ~names ~oracle in
        let a = Fixtures.view inst and b = Fixtures.view expected in
        match Fixtures.view_diff ~probes:(Fixtures.probes [ a; b ]) a b with
        | None -> ()
        | Some field -> QCheck.Test.fail_reportf "seed %d, %s: %s differs" seed what field
      in
      let delta stores =
        let ops = random_ops rng in
        List.iter (fun st -> ignore (ok (Store.delta st ~name ops))) stores;
        model_apply m ops
      in
      let store = Store.create ~dir () in
      ignore (ok (Store.put store ~name ~budget:m.m_budget source));
      for round = 1 to 3 do
        for _ = 1 to 1 + Rng.int rng 3 do
          delta [ store ]
        done;
        check (Printf.sprintf "round %d" round) (ok (Store.solve store ~name ()))
      done;
      delta [ store ];
      Store.close store;
      let dir2 = dir ^ ".copy" in
      copy_dir dir dir2;
      Fun.protect ~finally:(fun () -> rm_rf dir2) @@ fun () ->
      let rebuilt = Store.create ~dir () and derived = Store.create ~dir:dir2 () in
      ignore (ok (Store.solve derived ~name ~incremental:true ()));
      delta [ rebuilt; derived ];
      let a = ok (Store.solve rebuilt ~name ~incremental:true ()) in
      let b = ok (Store.solve derived ~name ~incremental:true ()) in
      check "rebuilt after a restart" a;
      check "derived after a restart" b;
      Store.close rebuilt;
      Store.close derived;
      let va = Fixtures.view a.Store.instance and vb = Fixtures.view b.Store.instance in
      (match Fixtures.view_diff ~probes:(Fixtures.probes [ va; vb ]) va vb with
      | None -> ()
      | Some field -> QCheck.Test.fail_reportf "seed %d, after a restart: %s differs" seed field);
      if a.Store.solution <> b.Store.solution then
        QCheck.Test.fail_reportf "seed %d: the restarted stores answer differently" seed;
      true)

(* --- qcheck: journal record codec --- *)

let gen_record rng =
  let token () =
    let n = 1 + Rng.int rng 8 in
    String.init n (fun _ -> Char.chr (Char.code 'a' + Rng.int rng 26))
  in
  let payload =
    (* arbitrary bytes, newlines and NULs included: framing is by length *)
    String.init (Rng.int rng 200) (fun _ -> Char.chr (Rng.int rng 256))
  in
  { Codec.kind = token (); generation = token (); epoch = Rng.int rng 1000; payload }

let codec_roundtrip =
  QCheck.Test.make ~name:"codec: encode/decode round-trips" ~count:(count 200)
    QCheck.small_int (fun seed ->
      let rng = Rng.create (0x5374 lxor seed) in
      let records = List.init (1 + Rng.int rng 6) (fun _ -> gen_record rng) in
      let bytes = String.concat "" (List.map Codec.encode records) in
      let decoded, tail = Codec.decode bytes in
      decoded = records && tail = 0)

let codec_truncation =
  QCheck.Test.make ~name:"codec: any truncation yields a committed prefix"
    ~count:(count 200) QCheck.small_int (fun seed ->
      let rng = Rng.create (0x7472 lxor seed) in
      let records = List.init (1 + Rng.int rng 5) (fun _ -> gen_record rng) in
      let encodings = List.map Codec.encode records in
      let bytes = String.concat "" encodings in
      let cut = Rng.int rng (String.length bytes + 1) in
      let truncated = String.sub bytes 0 cut in
      let decoded, tail = Codec.decode truncated in
      (* expected: the longest whole-record prefix that fits in [cut] *)
      let rec prefix acc len = function
        | e :: rest when len + String.length e <= cut ->
            prefix (acc + 1) (len + String.length e) rest
        | _ -> (acc, len)
      in
      let n_expected, len_expected = prefix 0 0 encodings in
      List.length decoded = n_expected
      && decoded = List.filteri (fun i _ -> i < n_expected) records
      && tail = cut - len_expected)

let suite =
  [
    ("delta: codec round-trip and rejects", `Quick, delta_roundtrip);
    ("delta: of_log", `Quick, delta_of_log);
    ("store: apply semantics + epoch cache", `Quick, apply_semantics);
    ("store: warm re-solve never trails cold", `Quick, warm_never_trails_cold);
    ("solver: warm seed contract", `Quick, solver_warm_contract);
    ("persistence: snapshot + journal round-trip", `Quick, persistence_roundtrip);
    ("persistence: torn tail truncated, not fatal", `Quick, torn_tail_truncated);
    ("persistence: mid-journal corruption keeps prefix", `Quick, mid_journal_corruption);
    ("persistence: compaction folds the journal", `Quick, compaction_folds_journal);
    ("persistence: re-put fences the old generation", `Quick, put_fences_old_generation);
    ("solution codec: round-trip, lenient drift, strict", `Quick, solution_codec);
    qtest derived_epochs_match_full_builds;
    qtest codec_roundtrip;
    qtest codec_truncation;
  ]
