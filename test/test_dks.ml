(* Tests for the DkS/HkS solver portfolio, DkSH peeling and the densest
   (ratio) peeling — the engines behind A^QK_H and A^ECC. *)

module Graph = Bcc_graph.Graph
module Hypergraph = Bcc_graph.Hypergraph
module Hks = Bcc_dks.Hks
module Exact = Bcc_dks.Exact
module Dksh = Bcc_dks.Dksh
module Densest = Bcc_dks.Densest
module Rng = Bcc_util.Rng
module Heap = Bcc_util.Heap

let qtest = QCheck_alcotest.to_alcotest

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

let value_of_bool_sel g sel = Graph.induced_weight g sel

(* --- HkS --- *)

let hks_value_known () =
  let g = Graph.of_edges 3 [ (0, 1, 2.0); (1, 2, 4.0) ] in
  let inst = Hks.make g ~k:2 in
  Alcotest.(check (float 1e-9)) "value of {1,2}" 4.0 (Hks.value inst [| 0; 1; 1 |]);
  Alcotest.(check (float 1e-9)) "value of all" 6.0 (Hks.value inst [| 1; 1; 1 |])

let hks_blowup_fractional_value () =
  (* One edge of weight 6 between nodes of multiplicity 2 and 3: selecting
     1 copy of each yields 6 * (1/2) * (1/3) = 1. *)
  let g = Graph.of_edges ~node_costs:[| 2.0; 3.0 |] 2 [ (0, 1, 6.0) ] in
  let inst = Hks.make ~mult:[| 2; 3 |] g ~k:2 in
  Alcotest.(check (float 1e-9)) "per-copy scaling" 1.0 (Hks.value inst [| 1; 1 |]);
  Alcotest.(check (float 1e-9)) "full selection recovers the weight" 6.0
    (Hks.value inst [| 2; 3 |])

let hks_feasibility =
  QCheck.Test.make ~name:"all HkS solvers return feasible selections" ~count:80
    QCheck.small_int (fun seed ->
      let g = Fixtures.random_graph ~seed ~n:14 ~density:0.3 ~max_cost:4 ~max_weight:9 in
      let mult = Array.init 14 (fun v -> int_of_float (Graph.node_cost g v)) in
      let total = Array.fold_left ( + ) 0 mult in
      let k = 1 + (seed mod total) in
      let inst = Hks.make ~mult g ~k in
      List.for_all
        (fun sel -> Hks.feasible inst sel)
        [ Hks.peel inst; Hks.greedy_add inst; Hks.spectral inst; Hks.solve inst ])

let hks_local_search_improves =
  QCheck.Test.make ~name:"local search never decreases the value" ~count:80 QCheck.small_int
    (fun seed ->
      let g = Fixtures.random_graph ~seed ~n:12 ~density:0.35 ~max_cost:3 ~max_weight:9 in
      let inst = Hks.make g ~k:5 in
      let sel = Hks.greedy_add inst in
      let polished = Hks.local_search inst sel in
      Hks.value inst polished +. 1e-9 >= Hks.value inst sel && Hks.feasible inst polished)

(* On small unit-cost graphs the portfolio should be close to the exact
   optimum; [41] reports 65-80%, we require 60% as a safety margin and
   check the average is much higher. *)
let hks_quality () =
  let ratios =
    List.map
      (fun seed ->
        let g = Fixtures.random_graph ~seed ~n:12 ~density:0.4 ~max_cost:1 ~max_weight:9 in
        let k = 5 in
        let _, opt = Exact.dks g ~k in
        if opt <= 0.0 then 1.0
        else begin
          let sel = Hks.solve (Hks.make g ~k) in
          let got =
            value_of_bool_sel g (Array.map (fun t -> t > 0) sel)
          in
          got /. opt
        end)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
  in
  let avg = List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios) in
  List.iter
    (fun r -> Alcotest.(check bool) "every instance above 60% of optimal" true (r >= 0.6))
    ratios;
  Alcotest.(check bool) "average above 90% of optimal" true (avg >= 0.9)

(* The reference [Hks.peel] must reproduce: one heap pop per dropped
   copy, every live neighbour re-keyed on each pop. *)
let peel_one_copy_at_a_time inst =
  let g = Hks.graph inst and mult = Hks.multiplicities inst in
  let pcw u v w = w /. (float_of_int mult.(u) *. float_of_int mult.(v)) in
  let sel = Array.copy mult in
  let total = ref (Hks.total_copies inst) in
  let heap = Heap.create (Graph.n g) in
  for v = 0 to Graph.n g - 1 do
    Heap.insert heap v
      (Graph.fold_neighbors g v (fun acc u w -> acc +. (pcw u v w *. float_of_int sel.(u))) 0.0)
  done;
  while !total > Hks.k inst do
    match Heap.pop heap with
    | None -> assert false
    | Some (v, d) ->
        sel.(v) <- sel.(v) - 1;
        decr total;
        Graph.iter_neighbors g v (fun u w ->
            if Heap.mem heap u then Heap.add_to heap u (-.pcw u v w));
        if sel.(v) > 0 then Heap.insert heap v d
  done;
  sel

(* Few distinct weights and multiplicities make equal keys common;
   repeated edges merge into summed weights. *)
let peel_batches_exactly =
  let case =
    let open QCheck.Gen in
    let* n = int_range 1 10 in
    let* palette = list_size (int_range 1 3) (int_range 1 40) in
    let* mult = array_size (return n) (oneof [ int_range 1 40; oneofl palette ]) in
    let* edges =
      list_size (int_range 0 (4 * n))
        (triple (int_bound (n - 1)) (int_bound (n - 1)) (oneofl [ 0.5; 1.0; 3.0 ]))
    in
    let* k = int_range 0 (Array.fold_left ( + ) 0 mult) in
    return (mult, List.filter (fun (u, v, _) -> u <> v) edges, k)
  in
  QCheck.Test.make ~name:"batched peel = one copy per pop, byte for byte" ~count:(count 500)
    (QCheck.make ~print:QCheck.Print.(triple (array int) (list (triple int int float)) int) case)
    (fun (mult, edges, k) ->
      let inst = Hks.make ~mult (Graph.of_edges (Array.length mult) edges) ~k in
      Hks.peel inst = peel_one_copy_at_a_time inst)

let hks_k_extremes () =
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (2, 3, 5.0) ] in
  let inst0 = Hks.make g ~k:0 in
  Alcotest.(check int) "k=0 selects nothing" 0 (Hks.copies (Hks.solve inst0));
  let inst_all = Hks.make g ~k:10 in
  Alcotest.(check int) "k >= n selects everything" 4 (Hks.copies (Hks.solve inst_all))

(* --- Exact --- *)

let exact_dks_known () =
  (* Triangle 0-1-2 plus pendant 3: densest 3-subgraph is the triangle. *)
  let g = Graph.of_edges 4 [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (2, 3, 1.0) ] in
  let sel, v = Exact.dks g ~k:3 in
  Alcotest.(check (float 1e-9)) "triangle weight" 3.0 v;
  Alcotest.(check (array bool)) "triangle nodes" [| true; true; true; false |] sel

let exact_qk_known () =
  let g =
    Graph.of_edges ~node_costs:[| 1.0; 1.0; 5.0 |] 3 [ (0, 1, 3.0); (1, 2, 10.0) ]
  in
  let _, v = Exact.qk g ~budget:2.0 in
  Alcotest.(check (float 1e-9)) "budget 2 affords only {0,1}" 3.0 v;
  let _, v6 = Exact.qk g ~budget:7.0 in
  Alcotest.(check (float 1e-9)) "budget 7 affords everything" 13.0 v6

(* --- DkSH --- *)

let dksh_peel_known () =
  let h =
    Hypergraph.create ~node_costs:[| 1.0; 1.0; 1.0; 1.0 |]
      ~edges:[| ([| 0; 1; 2 |], 1.0); ([| 0; 1; 3 |], 1.0); ([| 1; 2; 3 |], 1.0) |]
  in
  let sel = Dksh.peel h ~k:3 in
  Alcotest.(check int) "keeps k nodes" 3
    (Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 sel);
  Alcotest.(check bool) "keeps at least one full edge" true (Dksh.value h sel >= 1.0)

let dksh_k_ge_n () =
  let h = Hypergraph.create ~node_costs:[| 1.0; 1.0 |] ~edges:[| ([| 0; 1 |], 2.0) |] in
  Alcotest.(check (float 1e-9)) "everything kept" 2.0 (Dksh.value h (Dksh.peel h ~k:5))

(* --- Densest (ratio) --- *)

let densest_known () =
  (* Heavy pair {0,1} (weight 10, cost 2) vs light triangle (weight 3,
     cost 3): best ratio is the pair at 5. *)
  let h =
    Hypergraph.create ~node_costs:[| 1.0; 1.0; 1.0; 1.0; 1.0 |]
      ~edges:
        [|
          ([| 0; 1 |], 10.0); ([| 2; 3 |], 1.0); ([| 3; 4 |], 1.0); ([| 2; 4 |], 1.0);
        |]
    in
  let _, ratio = Densest.peel h in
  Alcotest.(check bool) "finds the heavy pair's ratio" true (ratio >= 5.0 -. 1e-9)

let densest_zero_cost_infinite_ratio () =
  let h = Hypergraph.create ~node_costs:[| 0.0; 0.0 |] ~edges:[| ([| 0; 1 |], 3.0) |] in
  let _, ratio = Densest.peel h in
  Alcotest.(check bool) "free positive weight = infinite ratio" true (ratio = infinity)

let densest_vs_exact =
  QCheck.Test.make ~name:"ratio peeling close to the exact densest ratio" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let n = 7 in
      let node_costs = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 4)) in
      let nedges = 1 + Rng.int rng 8 in
      let edges =
        Array.init nedges (fun _ ->
            let k = 2 + Rng.int rng 2 in
            (Rng.sample_without_replacement rng k n, float_of_int (1 + Rng.int rng 9)))
      in
      let h = Hypergraph.create ~node_costs ~edges in
      let _, got = Densest.peel h in
      let _, opt = Exact.densest_ratio h in
      (* Greedy peeling is an r-approximation (r = max edge size <= 3). *)
      got +. 1e-9 >= opt /. 3.0)

let spectral_finds_planted_clique () =
  (* A heavy 4-clique planted in a sparse background: the spectral
     rounding must rank the clique nodes on top. *)
  let b = Graph.builder 20 in
  List.iter
    (fun (u, v) -> Graph.add_edge b u v 10.0)
    [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ];
  let rng = Rng.create 7 in
  for _ = 1 to 15 do
    let u = 4 + Rng.int rng 16 and v = 4 + Rng.int rng 16 in
    if u <> v then Graph.add_edge b u v 1.0
  done;
  let g = Graph.build b in
  let inst = Hks.make g ~k:4 in
  let sel = Hks.spectral inst in
  let clique_copies = sel.(0) + sel.(1) + sel.(2) + sel.(3) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 of 4 clique nodes selected (%d)" clique_copies)
    true (clique_copies >= 3)

let suite =
  [
    Alcotest.test_case "hks value on known graph" `Quick hks_value_known;
    Alcotest.test_case "hks blow-up value scaling" `Quick hks_blowup_fractional_value;
    qtest hks_feasibility;
    qtest hks_local_search_improves;
    qtest peel_batches_exactly;
    Alcotest.test_case "hks portfolio quality vs exact" `Slow hks_quality;
    Alcotest.test_case "hks k extremes" `Quick hks_k_extremes;
    Alcotest.test_case "spectral finds a planted clique" `Quick spectral_finds_planted_clique;
    Alcotest.test_case "exact dks known" `Quick exact_dks_known;
    Alcotest.test_case "exact qk known" `Quick exact_qk_known;
    Alcotest.test_case "dksh peel known" `Quick dksh_peel_known;
    Alcotest.test_case "dksh k >= n" `Quick dksh_k_ge_n;
    Alcotest.test_case "densest ratio known" `Quick densest_known;
    Alcotest.test_case "densest zero-cost ratio" `Quick densest_zero_cost_infinite_ratio;
    qtest densest_vs_exact;
  ]
