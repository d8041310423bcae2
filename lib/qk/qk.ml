module Graph = Bcc_graph.Graph
module Hks = Bcc_dks.Hks
module Heap = Bcc_util.Heap
module Rng = Bcc_util.Rng
module Trace = Bcc_obs.Trace
module Engine = Bcc_engine.Engine

type instance = { graph : Bcc_graph.Graph.t; budget : float }
type solution = { nodes : int list; cost : float; value : float }

type options = {
  bipartitions : int;
  resolution : int;
  max_expensive_branches : int;
  seed : int;
}

let default_options =
  { bipartitions = 0; resolution = 2000; max_expensive_branches = 24; seed = 0x5EED }

let evaluate inst nodes =
  let nodes = List.sort_uniq compare nodes in
  let sel = Array.make (Graph.n inst.graph) false in
  List.iter (fun v -> sel.(v) <- true) nodes;
  {
    nodes;
    cost = Graph.induced_cost inst.graph sel;
    value = Graph.induced_weight inst.graph sel;
  }

let verify inst sol =
  let fresh = evaluate inst sol.nodes in
  fresh.cost <= inst.budget +. 1e-6
  && abs_float (fresh.cost -. sol.cost) < 1e-6
  && abs_float (fresh.value -. sol.value) < 1e-6

(* ------------------------------------------------------------------ *)
(* Greedy fill: spend leftover budget on the original graph.           *)
(* ------------------------------------------------------------------ *)

let greedy_fill inst selected =
  let g = inst.graph in
  let n = Graph.n g in
  let remaining = ref (inst.budget -. Graph.induced_cost g selected) in
  (* Bootstrap: an empty selection has no marginal gains, so seed it with
     the best affordable edge (weight per endpoint cost). *)
  if Array.for_all (fun s -> not s) selected then begin
    let best = ref None in
    Graph.iter_edges g (fun u v w ->
        let c = Graph.node_cost g u +. Graph.node_cost g v in
        if c <= !remaining +. 1e-12 then begin
          let score = if c <= 1e-12 then infinity else w /. c in
          match !best with
          | Some (_, _, s) when s >= score -> ()
          | _ -> best := Some (u, v, score)
        end);
    match !best with
    | Some (u, v, _) ->
        selected.(u) <- true;
        selected.(v) <- true;
        remaining := !remaining -. Graph.node_cost g u -. Graph.node_cost g v
    | None -> ()
  end;
  let gain = Array.make n 0.0 in
  Graph.iter_edges g (fun u v w ->
      if selected.(u) && not selected.(v) then gain.(v) <- gain.(v) +. w;
      if selected.(v) && not selected.(u) then gain.(u) <- gain.(u) +. w);
  let prio v =
    let c = Graph.node_cost g v in
    if c <= 1e-12 then (if gain.(v) > 0.0 then infinity else 0.0) else gain.(v) /. c
  in
  let heap = Heap.create ~max:true n in
  for v = 0 to n - 1 do
    if (not selected.(v)) && Graph.node_cost g v <= !remaining +. 1e-12 then
      Heap.insert heap v (prio v)
  done;
  let continue_ = ref true in
  while !continue_ do
    match Heap.pop heap with
    | None -> continue_ := false
    | Some (v, p) ->
        if p <= 0.0 then continue_ := false
        else begin
          let c = Graph.node_cost g v in
          if c <= !remaining +. 1e-12 then begin
            selected.(v) <- true;
            remaining := !remaining -. c;
            Graph.iter_neighbors g v (fun u w ->
                if not selected.(u) then begin
                  gain.(u) <- gain.(u) +. w;
                  if Heap.mem heap u then Heap.update heap u (prio u)
                end)
          end
        end
  done

(* Node-level 1-for-1 swap local search on the final candidate: replace
   a selected node by an unselected one when that increases the induced
   weight within budget.  Skipped on very large graphs. *)
let local_improve inst selected =
  Trace.with_span ~name:"qk.repair" @@ fun sp ->
  let swaps = ref 0 in
  let g = inst.graph in
  let n = Graph.n g in
  if n > 1500 then ()
  else begin
    let contrib = Array.make n 0.0 in
    Graph.iter_edges g (fun u v w ->
        if selected.(u) then contrib.(v) <- contrib.(v) +. w;
        if selected.(v) then contrib.(u) <- contrib.(u) +. w);
    let cost = ref (Graph.induced_cost g selected) in
    let apply v delta_sel =
      selected.(v) <- delta_sel;
      let sign = if delta_sel then 1.0 else -1.0 in
      cost := !cost +. (sign *. Graph.node_cost g v);
      Graph.iter_neighbors g v (fun u w -> contrib.(u) <- contrib.(u) +. (sign *. w))
    in
    let rounds = ref 0 in
    let improved = ref true in
    while !improved && !rounds < 30 do
      improved := false;
      incr rounds;
      let best = ref None in
      for v = 0 to n - 1 do
        if selected.(v) then
          for u = 0 to n - 1 do
            if not selected.(u) then begin
              let mutual =
                match Graph.edge_weight g u v with Some w -> w | None -> 0.0
              in
              let delta = contrib.(u) -. mutual -. contrib.(v) in
              let fits =
                !cost -. Graph.node_cost g v +. Graph.node_cost g u
                <= inst.budget +. 1e-9
              in
              if fits && delta > 1e-9 then begin
                match !best with
                | Some (_, _, d) when d >= delta -> ()
                | _ -> best := Some (v, u, delta)
              end
            end
          done
      done;
      match !best with
      | Some (v, u, _) ->
          apply v false;
          apply u true;
          incr swaps;
          improved := true
      | None -> ()
    done
  end;
  if Trace.recording sp then Trace.add_attr sp "swaps" (Trace.Int !swaps)

(* ------------------------------------------------------------------ *)
(* The bipartite blow-up pipeline on a "cheap" subgraph.                *)
(* ------------------------------------------------------------------ *)

(* Reassign the copies of one side greedily by per-copy weighted degree
   into the other side.  Equivalent to the paper's two swap phases:
   afterwards at most one node of the side is partially selected and the
   crossing weight has not decreased. *)
let reassign_side cross mult sel ~side_mask ~side =
  let n = Graph.n cross in
  let deg = Array.make n 0.0 in
  Graph.iter_edges cross (fun u v w ->
      let pcw = w /. (float_of_int mult.(u) *. float_of_int mult.(v)) in
      if side_mask.(u) = side && side_mask.(v) <> side then
        deg.(u) <- deg.(u) +. (pcw *. float_of_int sel.(v));
      if side_mask.(v) = side && side_mask.(u) <> side then
        deg.(v) <- deg.(v) +. (pcw *. float_of_int sel.(u)));
  let members = ref [] in
  let budget_copies = ref 0 in
  for v = 0 to n - 1 do
    if side_mask.(v) = side then begin
      budget_copies := !budget_copies + sel.(v);
      sel.(v) <- 0;
      members := v :: !members
    end
  done;
  let members = Array.of_list !members in
  Array.sort (fun a b -> compare deg.(b) deg.(a)) members;
  Array.iter
    (fun v ->
      if !budget_copies > 0 then begin
        let take = min mult.(v) !budget_copies in
        sel.(v) <- take;
        budget_copies := !budget_copies - take
      end)
    members

(* Resolve the at-most-two partially selected nodes per the paper's
   final-selection cases; returns the set of completely selected
   nodes. *)
let finalize_partials cross mult sel ~budget_ticks =
  let n = Graph.n cross in
  let used = ref 0 in
  for v = 0 to n - 1 do
    used := !used + sel.(v)
  done;
  let partials = ref [] in
  for v = 0 to n - 1 do
    if sel.(v) > 0 && sel.(v) < mult.(v) then partials := v :: !partials
  done;
  let complete v =
    used := !used + (mult.(v) - sel.(v));
    sel.(v) <- mult.(v)
  in
  let missing v = mult.(v) - sel.(v) in
  (match !partials with
  | [] -> ()
  | [ v ] ->
      (* Preprocessing guarantees mult(v) <= budget/2 and the HkS phase
         used at most budget/2 ticks, so completion always fits. *)
      if !used + missing v <= budget_ticks then complete v else sel.(v) <- 0
  | [ a; b ] ->
      if !used + missing a + missing b <= budget_ticks then begin
        complete a;
        complete b
      end
      else begin
        let mutual = match Graph.edge_weight cross a b with Some w -> w | None -> 0.0 in
        let pcw_ab = mutual /. (float_of_int mult.(a) *. float_of_int mult.(b)) in
        let w_sel = pcw_ab *. float_of_int sel.(a) *. float_of_int sel.(b) in
        let total = Hks.value (Hks.make ~mult cross ~k:!used) sel in
        if w_sel > total /. 5.0 && mult.(a) + mult.(b) <= budget_ticks then begin
          (* Case II: keep only the two heavy endpoints, fully. *)
          Array.fill sel 0 n 0;
          sel.(a) <- mult.(a);
          sel.(b) <- mult.(b)
        end
        else begin
          (* Case I: drop the mutual edge, consolidate into the endpoint
             with the higher per-copy degree, then complete it. *)
          let deg_excl v other =
            Graph.fold_neighbors cross v
              (fun acc u w ->
                if u = other then acc
                else
                  acc
                  +. w /. (float_of_int mult.(v) *. float_of_int mult.(u))
                     *. float_of_int sel.(u))
              0.0
          in
          let hi, lo = if deg_excl a b >= deg_excl b a then (a, b) else (b, a) in
          let moved = min sel.(lo) (mult.(hi) - sel.(hi)) in
          sel.(hi) <- sel.(hi) + moved;
          used := !used + moved - sel.(lo);
          sel.(lo) <- 0;
          if sel.(hi) < mult.(hi) then begin
            if !used + missing hi <= budget_ticks then complete hi else sel.(hi) <- 0
          end
        end
      end
  | _ -> assert false (* reassign_side leaves at most one partial per side *));
  Array.init n (fun v -> sel.(v) > 0 && sel.(v) = mult.(v))

(* One full bipartition iteration over the cheap subgraph; returns a
   node set (over the cheap subgraph's ids). *)
let pipeline_once cheap mult ~budget_ticks rng =
  let n = Graph.n cheap in
  let side_mask = Array.init n (fun _ -> Rng.bool rng) in
  let b = Graph.builder n in
  for v = 0 to n - 1 do
    Graph.set_node_cost b v (Graph.node_cost cheap v)
  done;
  Graph.iter_edges cheap (fun u v w ->
      if side_mask.(u) <> side_mask.(v) then Graph.add_edge b u v w);
  let cross = Graph.build b in
  let k = max 1 (budget_ticks / 2) in
  let hks = Hks.make ~mult cross ~k in
  let sel = Hks.solve hks in
  reassign_side cross mult sel ~side_mask ~side:true;
  reassign_side cross mult sel ~side_mask ~side:false;
  finalize_partials cross mult sel ~budget_ticks

(* Per-copy weighted degree of [v] into the current selection. *)
let degree_into_sel g mult sel v =
  Graph.fold_neighbors g v
    (fun acc u w ->
      acc
      +. w /. (float_of_int mult.(v) *. float_of_int mult.(u)) *. float_of_int sel.(u))
    0.0

(* Non-bipartite pass: run HkS on the full cheap graph at copy budget
   [k], then round to whole nodes — mostly-selected, highest per-copy
   degree first — within the tick budget.  On practical (non-worst-case)
   graphs keeping all edges beats the bipartition, so both are tried. *)
let full_pass cheap mult ~budget_ticks ~k =
  let n = Graph.n cheap in
  let hks = Hks.make ~mult cheap ~k:(max 1 k) in
  let sel = Hks.solve hks in
  let frac = Array.init n (fun v -> float_of_int sel.(v) /. float_of_int mult.(v)) in
  let degree = Array.init n (degree_into_sel cheap mult sel) in
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b ->
      match Float.compare frac.(b) frac.(a) with
      | 0 -> Float.compare degree.(b) degree.(a)
      | c -> c)
    order;
  let chosen = Array.make n false in
  let used = ref 0 in
  Array.iter
    (fun v ->
      if sel.(v) > 0 && !used + mult.(v) <= budget_ticks then begin
        chosen.(v) <- true;
        used := !used + mult.(v)
      end)
    order;
  chosen

(* Solve over a subset of nodes (cheap nodes) with a given budget; the
   result is a candidate node set over the ORIGINAL instance ids. *)
let solve_cheap inst opts pool rng ~allowed ~budget =
  Trace.with_span ~name:"qk.pipeline" @@ fun sp ->
  let g = inst.graph in
  if budget <= 0.0 then []
  else begin
    let cheap, back = Graph.subgraph g allowed in
    let n = Graph.n cheap in
    if n = 0 then []
    else begin
      let resolution = max 8 opts.resolution in
      (* Tick size: budget/resolution, but never so fine that the total
         number of blow-up copies explodes (cheap nodes cost far more
         than the tick when the budget is small relative to the costs). *)
      let total_cost =
        let acc = ref 0.0 in
        for v = 0 to n - 1 do
          acc := !acc +. Graph.node_cost cheap v
        done;
        !acc
      in
      let tick =
        max (budget /. float_of_int resolution) (total_cost /. 300_000.0)
      in
      let resolution = max 8 (int_of_float (budget /. tick)) in
      let mult =
        Array.init n (fun v -> max 1 (int_of_float (ceil (Graph.node_cost cheap v /. tick))))
      in
      let iterations =
        if opts.bipartitions > 0 then opts.bipartitions
        else begin
          let log2n = int_of_float (ceil (log (float_of_int (max n 2)) /. log 2.0)) in
          min 8 (max 2 log2n)
        end
      in
      if Trace.recording sp then begin
        Trace.add_attr sp "nodes" (Trace.Int n);
        Trace.add_attr sp "copies" (Trace.Int (Array.fold_left ( + ) 0 mult));
        Trace.add_attr sp "ticks" (Trace.Int resolution);
        Trace.add_attr sp "passes" (Trace.Int (iterations + 2))
      end;
      (* Map back, fill greedily with the true float costs, evaluate on
         the original graph.  Runs inside each pass task; everything it
         touches besides the shared read-only graphs is task-local. *)
      let finish_pass set =
        let full = Array.make (Graph.n g) false in
        Array.iteri (fun v chosen -> if chosen then full.(back.(v)) <- true) set;
        (* Guard: integer rounding can overshoot the true budget only by
           accident; drop greedily if so. *)
        let cost = ref (Graph.induced_cost g full) in
        if !cost > budget then begin
          let order = Array.init (Graph.n g) (fun i -> i) in
          Array.sort
            (fun a b -> compare (Graph.node_cost g b) (Graph.node_cost g a))
            order;
          Array.iter
            (fun v ->
              if !cost > budget && full.(v) then begin
                full.(v) <- false;
                cost := !cost -. Graph.node_cost g v
              end)
            order
        end;
        greedy_fill { inst with budget } full;
        let value = Graph.induced_weight g full in
        let nodes =
          Array.to_list
            (Array.of_seq
               (Seq.filter_map
                  (fun v -> if full.(v) then Some v else None)
                  (Seq.init (Graph.n g) (fun i -> i))))
        in
        (value, nodes)
      in
      (* The restart portfolio: each bipartition gets its own RNG stream
         derived from (this call's stream, pass index), so results are
         bit-identical at any job count. *)
      let score = fst in
      let tasks =
        List.init iterations (fun i ->
            Engine.Task.make ~label:"qk.bipartition" ~rng:(Rng.derive rng i) ~score
              (fun trng ->
                Bcc_robust.Deadline.poll ();
                Bcc_robust.Fault.hit "qk.restart";
                finish_pass (pipeline_once cheap mult ~budget_ticks:resolution trng)))
        @ [
            (* Non-bipartite passes: at the paper's half-budget k and at
               the full tick budget (the rounding keeps both feasible). *)
            Engine.Task.make ~label:"qk.full-half" ~score (fun _ ->
                finish_pass (full_pass cheap mult ~budget_ticks:resolution ~k:(resolution / 2)));
            Engine.Task.make ~label:"qk.full" ~score (fun _ ->
                finish_pass (full_pass cheap mult ~budget_ticks:resolution ~k:resolution));
          ]
      in
      match Engine.Portfolio.best pool tasks with
      | Some r -> snd r.Engine.Portfolio.value
      | None -> []
    end
  end

let solve ?(options = default_options) ?pool ?rng inst =
  Trace.with_span ~name:"qk" @@ fun sp ->
  let g = inst.graph in
  let n = Graph.n g in
  if Trace.recording sp then begin
    Trace.add_attr sp "nodes" (Trace.Int n);
    Trace.add_attr sp "budget" (Trace.Float inst.budget)
  end;
  (* Explicit solve-context threading: callers (the solver pipeline)
     hand us their pool and randomness stream; the defaults reproduce
     the historical ambient-pool + seed-constant behavior bit for
     bit. *)
  let pool = match pool with Some p -> p | None -> Engine.default_pool () in
  let root = match rng with Some r -> r | None -> Rng.create options.seed in
  let budget = inst.budget in
  let affordable = Array.init n (fun v -> Graph.node_cost g v <= budget +. 1e-12) in
  let expensive =
    Array.init n (fun v -> affordable.(v) && Graph.node_cost g v > budget /. 2.0)
  in
  let cheap = Array.init n (fun v -> affordable.(v) && not expensive.(v)) in
  let expensive_ids =
    let ids = ref [] in
    for v = n - 1 downto 0 do
      if expensive.(v) then ids := v :: !ids
    done;
    let ids = Array.of_list !ids in
    Array.sort (fun a b -> compare (Graph.weighted_degree g b) (Graph.weighted_degree g a)) ids;
    ids
  in
  (* Candidate-generating branches, one engine task each; every branch
     returns a list of candidate node sets and derives its RNG stream
     from (seed, branch index) so any schedule yields the same draws.
     Branch order fixes candidate order: cheap-only first, then the
     expensive-node branches by descending weighted degree, then the
     expensive pair. *)
  let branch i label f = Engine.Task.make ~label ~rng:(Rng.derive root i) f in
  let cheap_branch =
    (* Branch: no expensive node. *)
    branch 0 "qk.branch.cheap" (fun rng ->
        [ solve_cheap inst options pool rng ~allowed:cheap ~budget ])
  in
  let expensive_branches =
    List.filteri (fun i _ -> i < options.max_expensive_branches)
      (Array.to_list (Array.mapi (fun i v -> (i, v)) expensive_ids))
    |> List.map (fun (i, v) ->
           branch (1 + i) "qk.branch.expensive" (fun rng ->
               (* One expensive node + residual, and the bare hub: the
                  final greedy fill grows the hub using its own edges,
                  which the residual solve cannot see. *)
               let residual_budget = budget -. Graph.node_cost g v in
               [ v :: solve_cheap inst options pool rng ~allowed:cheap ~budget:residual_budget; [ v ] ]))
  in
  let pair_branch =
    (* Branch: a pair of expensive nodes (at most two fit in the budget). *)
    branch (1 + Array.length expensive_ids) "qk.branch.pair" (fun _ ->
        let ne = Array.length expensive_ids in
        let pair_cap = min ne 200 in
        let best_pair = ref None in
        for i = 0 to pair_cap - 1 do
          for j = i + 1 to pair_cap - 1 do
            let a = expensive_ids.(i) and b = expensive_ids.(j) in
            if Graph.node_cost g a +. Graph.node_cost g b <= budget +. 1e-12 then begin
              let w = match Graph.edge_weight g a b with Some w -> w | None -> 0.0 in
              match !best_pair with
              | Some (_, _, w') when w' >= w -> ()
              | _ -> best_pair := Some (a, b, w)
            end
          done
        done;
        match !best_pair with Some (a, b, _) -> [ [ a; b ] ] | None -> [])
  in
  let candidates =
    List.concat
      (Engine.Portfolio.collect pool
         ((cheap_branch :: expensive_branches) @ [ pair_branch ]))
  in
  (* Evaluate all candidates after a final greedy fill, in parallel;
     rank by realized value with ties to the earlier candidate. *)
  let eval_tasks =
    List.map
      (fun nodes ->
        Engine.Task.make ~label:"qk.candidate"
          ~score:(function Some sol -> sol.value | None -> neg_infinity)
          (fun _ ->
            let sel = Array.make n false in
            List.iter (fun v -> sel.(v) <- true) nodes;
            if Graph.induced_cost g sel <= budget +. 1e-9 then begin
              greedy_fill inst sel;
              local_improve inst sel;
              greedy_fill inst sel;
              let nodes = ref [] in
              for v = n - 1 downto 0 do
                if sel.(v) then nodes := v :: !nodes
              done;
              Some (evaluate inst !nodes)
            end
            else None))
      candidates
  in
  let best =
    match Engine.Portfolio.best pool eval_tasks with
    | Some { Engine.Portfolio.value = Some sol; _ } when sol.value > 0.0 -> sol
    | _ -> { nodes = []; cost = 0.0; value = 0.0 }
  in
  if Trace.recording sp then begin
    Trace.add_attr sp "candidates" (Trace.Int (List.length candidates));
    Trace.add_attr sp "picked" (Trace.Int (List.length best.nodes));
    Trace.add_attr sp "value" (Trace.Float best.value);
    Trace.add_attr sp "cost" (Trace.Float best.cost)
  end;
  best
