(* Tests for A^BCC, the baselines and the hardness-equivalence special
   cases (Theorems 3.1 and 3.3). *)

module Propset = Bcc_core.Propset
module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Exact = Bcc_core.Exact
module Baselines = Bcc_core.Baselines
module Cover = Bcc_core.Cover
module Covers = Bcc_core.Covers
module Knapsack = Bcc_knapsack.Knapsack
module Graph = Bcc_graph.Graph
module Heap = Bcc_util.Heap
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest
let ps = Fixtures.ps

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]

let small_instance seed =
  let rng = Rng.create (seed * 131) in
  let budget = float_of_int (3 + Rng.int rng 15) in
  Fixtures.random_instance ~seed ~max_len:3 ~num_props:6 ~num_queries:5 ~budget ()

(* --- feasibility / verification --- *)

let solver_always_feasible =
  QCheck.Test.make ~name:"A^BCC output verifies on random instances" ~count:60
    QCheck.small_int (fun seed ->
      let inst = small_instance seed in
      Solution.verify inst (Solver.solve inst))

let baselines_always_feasible =
  QCheck.Test.make ~name:"baseline outputs verify on random instances" ~count:40
    QCheck.small_int (fun seed ->
      let inst = small_instance seed in
      Solution.verify inst (Baselines.rand inst Baselines.Budget)
      && Solution.verify inst (Baselines.ig1 inst Baselines.Budget)
      && Solution.verify inst (Baselines.ig2 inst Baselines.Budget))

(* --- quality vs brute force (the Figure 3d claim: loss < 20%) --- *)

let solver_near_optimal () =
  let ratios =
    List.map
      (fun seed ->
        let inst = small_instance seed in
        let opt = (Exact.solve inst).Solution.utility in
        if opt <= 0.0 then 1.0 else (Solver.solve inst).Solution.utility /. opt)
      seeds
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "instance %d within 20%% of optimal (got %.0f%%)" i (100. *. r))
        true (r >= 0.8))
    ratios;
  let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  Alcotest.(check bool) "average above 95%" true (avg >= 0.95)

let solver_beats_baselines_on_average () =
  let margin = ref 0.0 in
  List.iter
    (fun seed ->
      let inst = small_instance seed in
      let ours = (Solver.solve inst).Solution.utility in
      (* RAND is averaged over 5 runs, exactly as in the paper's
         evaluation protocol (Section 6.1). *)
      let rand_avg =
        let runs = List.map (fun s -> (Baselines.rand ~seed:s inst Baselines.Budget).Solution.utility) [ 1; 2; 3; 4; 5 ] in
        List.fold_left ( +. ) 0.0 runs /. 5.0
      in
      let best_baseline =
        List.fold_left max 0.0
          [
            rand_avg;
            (Baselines.ig1 inst Baselines.Budget).Solution.utility;
            (Baselines.ig2 inst Baselines.Budget).Solution.utility;
          ]
      in
      margin := !margin +. (ours -. best_baseline))
    seeds;
  Alcotest.(check bool) "A^BCC at least matches the best baseline in aggregate" true
    (!margin >= -1e-9)

let solver_monotone_in_budget () =
  List.iter
    (fun seed ->
      let inst = small_instance seed in
      let u_small =
        (Solver.solve (Instance.with_budget inst (Instance.budget inst /. 2.0)))
          .Solution.utility
      in
      let u_big =
        (Solver.solve (Instance.with_budget inst (Instance.budget inst *. 2.0)))
          .Solution.utility
      in
      Alcotest.(check bool) "more budget never hurts (A^BCC)" true (u_big +. 1e-9 >= u_small))
    [ 2; 5; 9 ]

let solver_zero_budget () =
  let inst = Instance.with_budget (Fixtures.figure1 ~budget:0.0) 0.0 in
  let sol = Solver.solve inst in
  Alcotest.(check bool) "feasible at zero budget" true (Solution.verify inst sol);
  Alcotest.(check (float 1e-9)) "only free classifiers selected" 0.0 sol.Solution.cost

let solver_huge_budget_covers_all () =
  let inst = Fixtures.figure1 ~budget:1000.0 in
  let sol = Solver.solve inst in
  Alcotest.(check (float 1e-9)) "everything covered" 11.0 sol.Solution.utility

(* --- solver option ablations --- *)

let ablation_options () =
  let base = Solver.default_options in
  List.iter
    (fun seed ->
      let inst = small_instance seed in
      let full = (Solver.solve ~options:base inst).Solution.utility in
      List.iter
        (fun options ->
          let sol = Solver.solve ~options inst in
          Alcotest.(check bool) "ablated variants stay feasible" true
            (Solution.verify inst sol);
          (* The ablated variants cannot be better than 'full' by more
             than the exact optimum allows; sanity: both within optimum. *)
          let opt = (Exact.solve inst).Solution.utility in
          Alcotest.(check bool) "never exceeds the optimum" true
            (sol.Solution.utility <= opt +. 1e-9 && full <= opt +. 1e-9))
        [
          { base with mc3_improve = false };
          { base with prune = false };
          { base with residual_rounds = false };
        ])
    [ 3; 7; 11 ]

(* --- Theorem 3.1: BCC(l=1) = Knapsack --- *)

let theorem_31_knapsack_equivalence =
  QCheck.Test.make ~name:"BCC(l=1) optimum equals the knapsack optimum" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 1 + Rng.int rng 8 in
      let values = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 9)) in
      let weights = Array.init n (fun _ -> 1 + Rng.int rng 6) in
      let budget = 1 + Rng.int rng 15 in
      let queries = Array.init n (fun i -> (Propset.singleton i, values.(i))) in
      let cost c =
        match Propset.to_list c with [ p ] -> float_of_int weights.(p) | _ -> infinity
      in
      let inst = Instance.create ~budget:(float_of_int budget) ~queries ~cost () in
      let bcc = Exact.solve inst in
      let ks = Knapsack.exact_int ~values ~weights ~budget () in
      abs_float (bcc.Solution.utility -. ks.Knapsack.value) < 1e-9)

(* --- Theorem 3.3: I_2 = DkS --- *)

let theorem_33_dks_equivalence =
  QCheck.Test.make ~name:"I_2 optimum equals the DkS optimum" ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 4 in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = u + 1 to n - 1 do
          if Rng.float rng 1.0 < 0.45 then edges := (u, v) :: !edges
        done
      done;
      if !edges = [] then true
      else begin
        let k = 2 + Rng.int rng (n - 2) in
        (* I_2: queries = edges, uniform utility 1; singleton classifiers
           cost 1, everything else infinity; budget = k. *)
        let queries =
          Array.of_list (List.map (fun (u, v) -> (Propset.of_list [ u; v ], 1.0)) !edges)
        in
        let cost c = if Propset.length c = 1 then 1.0 else infinity in
        let inst = Instance.create ~budget:(float_of_int k) ~queries ~cost () in
        let bcc = Exact.solve inst in
        let g = Graph.of_edges n (List.map (fun (u, v) -> (u, v, 1.0)) !edges) in
        let _, dks = Bcc_dks.Exact.dks g ~k in
        abs_float (bcc.Solution.utility -. dks) < 1e-9
      end)

(* --- the ratio-greedy sweep and IG2 against their references --- *)

(* [Solver.greedy_sweep] as it read with a parked list: a query whose
   cover does not fit waits in [parked] and every purchase re-inserts
   all parked queries at their old ratio.  Returns how many parked
   queries purchases re-inserted. *)
let reference_sweep ?allowed state ~limit =
  let inst = Cover.instance state in
  let spent0 = Cover.spent state in
  let heap = Heap.create ~max:true (Instance.num_queries inst) in
  let ratio_of qi =
    match Covers.cheapest_cover ?allowed state qi with
    | None -> None
    | Some (cost, ids) ->
        let u = Instance.utility inst qi in
        Some ((if cost <= 1e-12 then infinity else u /. cost), cost, ids)
  in
  List.iter
    (fun qi -> match ratio_of qi with Some (r, _, _) -> Heap.insert heap qi r | None -> ())
    (Cover.uncovered_queries state);
  let parked = ref [] in
  let reinserted = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Heap.pop heap with
    | None -> continue_ := false
    | Some (qi, _) ->
        if not (Cover.is_covered state qi) then begin
          match ratio_of qi with
          | None -> ()
          | Some (r, cost, ids) ->
              if cost <= limit -. (Cover.spent state -. spent0) +. 1e-9 then begin
                List.iter (fun id -> Cover.select state id) ids;
                List.iter
                  (fun id ->
                    Array.iter
                      (fun q ->
                        if not (Cover.is_covered state q) then begin
                          match ratio_of q with
                          | Some (r', _, _) -> Heap.update heap q r'
                          | None -> ignore (Heap.remove heap q)
                        end)
                      (Instance.queries_containing inst id))
                  ids;
                List.iter
                  (fun (q, pr) ->
                    if not (Heap.mem heap q) then begin
                      incr reinserted;
                      Heap.insert heap q pr
                    end)
                  !parked;
                parked := []
              end
              else parked := (qi, r) :: !parked
        end
  done;
  !reinserted

(* Sweep inputs: up to 40 queries of up to 3 properties over 20, about
   one classifier in twelve free; the free ones and a random few more
   already selected, a limit up to an eighth of the universe's cost (so
   covers often do not fit), and sometimes an [allowed] filter. *)
let sweep_case seed =
  let rng = Rng.create ((seed * 7) + 3) in
  let inst =
    Fixtures.random_instance ~seed ~max_len:3 ~num_props:20
      ~num_queries:(1 + Rng.int rng 40) ~budget:1.0 ()
  in
  let n = Instance.num_classifiers inst in
  let state = Cover.create inst in
  for id = 0 to n - 1 do
    if Instance.cost inst id <= 0.0 || Rng.int rng 10 = 0 then Cover.select state id
  done;
  let total = ref 0.0 in
  for id = 0 to n - 1 do
    total := !total +. Instance.cost inst id
  done;
  let limit = Rng.float rng (!total /. 8.0) in
  let keep = Array.init n (fun _ -> Rng.int rng 4 > 0) in
  let allowed = if Rng.int rng 2 = 0 then None else Some (fun id -> keep.(id)) in
  (state, limit, allowed)

let sweep_matches_reference =
  QCheck.Test.make ~name:"greedy_sweep = parked-list reference" ~count:(count 300)
    QCheck.small_int (fun seed ->
      let state, limit, allowed = sweep_case seed in
      let a = Cover.clone state and b = Cover.clone state in
      Solver.greedy_sweep ?allowed a ~limit;
      ignore (reference_sweep ?allowed b ~limit);
      Cover.selected a = Cover.selected b)

(* The property above is only as strong as its inputs: they must make
   the reference park queries and re-insert them. *)
let sweep_cases_park () =
  let reinserting = ref 0 in
  for seed = 0 to 99 do
    let state, limit, allowed = sweep_case seed in
    if reference_sweep ?allowed state ~limit > 0 then incr reinserting
  done;
  Alcotest.(check bool)
    (Printf.sprintf "parked queries re-inserted in %d of 100 cases" !reinserting)
    true (!reinserting >= 20)

(* [Baselines.ig2] as it read before the per-query subset index: a
   newly covered query's classifiers are found by building each subset
   and looking it up by set.  The run loop is [Baselines]' own. *)
let reference_ig2 inst stop =
  let n = Instance.num_classifiers inst in
  let sums = Array.make n 0.0 in
  for id = 0 to n - 1 do
    Array.iter
      (fun qi -> sums.(id) <- sums.(id) +. Instance.utility inst qi)
      (Instance.queries_containing inst id)
  done;
  let ratio id =
    let c = Instance.cost inst id in
    if c <= 1e-12 then if sums.(id) > 0.0 then infinity else 0.0 else sums.(id) /. c
  in
  let heap = Heap.create ~max:true n in
  for id = 0 to n - 1 do
    Heap.insert heap id (ratio id)
  done;
  let step state remaining =
    let rec pick () =
      match Heap.pop heap with
      | None -> []
      | Some (id, _) ->
          if Cover.is_selected state id then pick ()
          else if Instance.cost inst id > remaining then pick ()
          else if ratio id <= 0.0 then []
          else begin
            let newly = Cover.select_traced state id in
            List.iter
              (fun qi ->
                let u = Instance.utility inst qi in
                List.iter
                  (fun c ->
                    match Instance.classifier_id inst c with
                    | Some cid ->
                        sums.(cid) <- sums.(cid) -. u;
                        if Heap.mem heap cid then Heap.update heap cid (ratio cid)
                    | None -> ())
                  (Propset.subsets (Instance.query inst qi)))
              newly;
            [ id ]
          end
    in
    pick ()
  in
  let state = Cover.create inst in
  let budget = match stop with Baselines.Budget -> Instance.budget inst | _ -> infinity in
  let best_ratio = ref 0.0 in
  let best_prefix = ref [] in
  let continue_ = ref true in
  while !continue_ do
    (match stop with
    | Baselines.Target target when Cover.covered_utility state >= target -> continue_ := false
    | Baselines.Best_ratio when Cover.covered_count state = Instance.num_queries inst ->
        continue_ := false
    | _ -> ());
    if !continue_ then begin
      match step state (budget -. Cover.spent state) with
      | [] -> continue_ := false
      | ids ->
          List.iter (fun id -> Cover.select state id) ids;
          if stop = Baselines.Best_ratio then begin
            let spent = Cover.spent state in
            let covered = Cover.covered_utility state in
            let ratio =
              if spent > 1e-12 then covered /. spent
              else if covered > 0.0 then infinity
              else 0.0
            in
            if ratio > !best_ratio then begin
              best_ratio := ratio;
              best_prefix := Cover.selected state
            end
          end
    end
  done;
  Solution.of_ids inst
    (match stop with Baselines.Best_ratio -> !best_prefix | _ -> Cover.selected state)

let ig2_matches_reference =
  QCheck.Test.make ~name:"IG2 = subset-enumerating reference" ~count:(count 300)
    QCheck.small_int (fun seed ->
      let rng = Rng.create (seed * 5 + 1) in
      let inst =
        Fixtures.random_instance ~seed ~max_len:4 ~num_props:7
          ~num_queries:(1 + Rng.int rng 12)
          ~budget:(float_of_int (Rng.int rng 30))
          ()
      in
      List.for_all
        (fun stop ->
          let a = Baselines.ig2 inst stop and b = reference_ig2 inst stop in
          List.equal Propset.equal a.Solution.classifiers b.Solution.classifiers
          && Int64.equal (Int64.bits_of_float a.Solution.cost) (Int64.bits_of_float b.Solution.cost)
          && Int64.equal
               (Int64.bits_of_float a.Solution.utility)
               (Int64.bits_of_float b.Solution.utility))
        [
          Baselines.Budget;
          Baselines.Target (Instance.total_utility inst /. 2.0);
          Baselines.Best_ratio;
        ])

(* --- baselines behaviour --- *)

let rand_deterministic_by_seed () =
  let inst = small_instance 4 in
  let a = Baselines.rand ~seed:5 inst Baselines.Budget in
  let b = Baselines.rand ~seed:5 inst Baselines.Budget in
  Alcotest.(check (float 1e-12)) "same seed, same utility" a.Solution.utility
    b.Solution.utility

let ig_baselines_reasonable () =
  (* On Figure 1 with a generous budget the greedy baselines should cover
     a decent share; RAND at least stays feasible. *)
  let inst = Fixtures.figure1 ~budget:11.0 in
  let ig1 = Baselines.ig1 inst Baselines.Budget in
  let ig2 = Baselines.ig2 inst Baselines.Budget in
  Alcotest.(check bool) "IG1 achieves something" true (ig1.Solution.utility >= 8.0);
  Alcotest.(check bool) "IG2 achieves something" true (ig2.Solution.utility >= 8.0)

let baselines_exhaust_mode_terminates () =
  let inst = small_instance 6 in
  List.iter
    (fun f ->
      let sol = f inst Baselines.Best_ratio in
      Alcotest.(check bool) "best-ratio prefix is a valid solution" true
        (Solution.verify (Instance.with_budget inst infinity) sol))
    [ Baselines.ig1; Baselines.ig2; Baselines.rand ~seed:1 ]

let long_query_chain () =
  (* One length-6 query plus its prefix subqueries: residual rounds must
     assemble the chain (Example 4.8 at depth). *)
  let module P = Propset in
  let queries =
    Array.init 6 (fun i -> (P.of_list (List.init (i + 1) Fun.id), float_of_int (i + 1)))
  in
  let cost c = if P.length c = 1 then 1.0 else infinity in
  let inst = Instance.create ~budget:6.0 ~queries ~cost () in
  let sol = Solver.solve inst in
  Alcotest.(check (float 1e-9)) "all six prefixes covered by the six singletons" 21.0
    sol.Solution.utility;
  Alcotest.(check bool) "verifies" true (Solution.verify inst sol);
  (* Half the budget covers the three cheapest-to-complete prefixes. *)
  let sol3 = Solver.solve (Instance.with_budget inst 3.0) in
  Alcotest.(check (float 1e-9)) "budget 3 covers prefixes 1..3" 6.0 sol3.Solution.utility

let suite =
  [
    qtest solver_always_feasible;
    Alcotest.test_case "long-query chain" `Quick long_query_chain;
    qtest baselines_always_feasible;
    Alcotest.test_case "A^BCC within 20% of brute force" `Slow solver_near_optimal;
    Alcotest.test_case "A^BCC vs baselines (aggregate)" `Slow solver_beats_baselines_on_average;
    Alcotest.test_case "budget monotonicity" `Slow solver_monotone_in_budget;
    Alcotest.test_case "zero budget" `Quick solver_zero_budget;
    Alcotest.test_case "huge budget covers all" `Quick solver_huge_budget_covers_all;
    Alcotest.test_case "option ablations stay sound" `Slow ablation_options;
    qtest theorem_31_knapsack_equivalence;
    qtest theorem_33_dks_equivalence;
    Alcotest.test_case "RAND deterministic by seed" `Quick rand_deterministic_by_seed;
    Alcotest.test_case "greedy baselines on figure1" `Quick ig_baselines_reasonable;
    Alcotest.test_case "best-ratio mode terminates" `Quick baselines_exhaust_mode_terminates;
    qtest sweep_matches_reference;
    Alcotest.test_case "sweep reference inputs park queries" `Quick sweep_cases_park;
    qtest ig2_matches_reference;
  ]
