module Knapsack = Bcc_knapsack.Knapsack
module Qk = Bcc_qk.Qk
module Mc3 = Bcc_setcover.Mc3
module Trace = Bcc_obs.Trace
module Event = Bcc_obs.Event
module Progress = Bcc_obs.Progress
module Engine = Bcc_engine.Engine
module Deadline = Bcc_robust.Deadline
module Timer = Bcc_util.Timer

let log_src = Logs.Src.create "bcc.solver" ~doc:"A^BCC round-by-round progress"

module Log = (val Logs.src_log log_src : Logs.LOG)

type options = {
  prune : bool;
  prune_mode : Prune.mode;
  mc3_improve : bool;
  residual_rounds : bool;
  final_sweep : bool;
  max_rounds : int;
  max_qk_nodes : int;
  knapsack_grid : int;
  qk : Qk.options;
  mc3_max_queries : int;
}

let default_options =
  {
    prune = true;
    prune_mode = `Lossless;
    mc3_improve = true;
    residual_rounds = true;
    final_sweep = true;
    max_rounds = 8;
    max_qk_nodes = 50_000;
    knapsack_grid = 10_000;
    (* Fewer bipartition restarts and expensive-node branches than the
       standalone QK defaults: the solver calls QK many times per run
       (per round, per allocation) and the realized-gain arbiter plus the
       residual rounds already provide diversification. *)
    qk = { Qk.default_options with bipartitions = 2; max_expensive_branches = 4 };
    mc3_max_queries = 30_000;
  }

(* Cost of selecting [ids] on top of [state] (ignoring already-selected
   ones). *)
let marginal_cost inst state ids =
  List.fold_left
    (fun acc id -> if Cover.is_selected state id then acc else acc +. Instance.cost inst id)
    0.0 ids

(* Try the MC3 local-search improvement (Algorithm 1 line 3): a cheaper
   cover of the already-covered queries.  Returns a replacement state
   when it strictly improves the spent cost without losing utility. *)
let mc3_improvement inst state options =
  Trace.with_span ~name:"mc3" @@ fun sp ->
  let covered = Cover.covered_queries state in
  let n_covered = List.length covered in
  if Trace.recording sp then Trace.add_attr sp "covered" (Trace.Int n_covered);
  let result =
  if n_covered = 0 then None
  else if Instance.max_length inst > 2 && n_covered > options.mc3_max_queries then None
  else begin
    let queries =
      Array.of_list (List.map (fun qi -> Propset.to_array (Instance.query inst qi)) covered)
    in
    (* Candidate classifiers: every finite-cost subset of a covered
       query. *)
    let seen = Hashtbl.create 256 in
    let rev = ref [] in
    List.iter
      (fun qi ->
        for k = Instance.subsets_begin inst qi to Instance.subsets_end inst qi - 1 do
          let id = Instance.subset_id inst k in
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id ();
            rev := id :: !rev
          end
        done)
      covered;
    let candidate_ids = Array.of_list (List.rev !rev) in
    let classifiers =
      Array.map
        (fun id -> (Propset.to_array (Instance.classifier inst id), Instance.cost inst id))
        candidate_ids
    in
    let mc3 = { Mc3.queries; classifiers } in
    match Mc3.solve mc3 with
    | Some { Mc3.cost; chosen } when cost < Cover.spent state -. 1e-9 ->
        let state' = Cover.create inst in
        List.iter (fun i -> Cover.select state' candidate_ids.(i)) chosen;
        (* Safety: the replacement must preserve the covered utility
           (it covers a superset of the previously covered queries). *)
        if Cover.covered_utility state' >= Cover.covered_utility state -. 1e-9 then Some state'
        else None
    | _ -> None
  end
  in
  if Trace.recording sp then begin
    Trace.add_attr sp "improved" (Trace.Bool (Option.is_some result));
    match result with
    | Some s' ->
        Trace.add_attr sp "reclaimed"
          (Trace.Float (Cover.spent state -. Cover.spent s'))
    | None -> ()
  end;
  result

(* Ratio-greedy sweep: repeatedly buy the whole cheapest cover with the
   best utility/cost ratio until [limit] is exhausted.  Mutates [state];
   used both as a portfolio candidate (from a clone) and as the final
   leftover-budget sweep. *)
let greedy_sweep ?allowed state ~limit =
  Trace.with_span ~name:"sweep" @@ fun sp ->
  let inst = Cover.instance state in
  let spent0 = Cover.spent state in
  let heap = Bcc_util.Heap.create ~max:true (Instance.num_queries inst) in
  let ratio_of qi =
    match Covers.cheapest_cover ?allowed state qi with
    | None -> None
    | Some (cost, ids) ->
        let u = Instance.utility inst qi in
        Some ((if cost <= 1e-12 then infinity else u /. cost), cost, ids)
  in
  List.iter
    (fun qi ->
      match ratio_of qi with
      | Some (r, _, _) -> Bcc_util.Heap.insert heap qi r
      | None -> ())
    (Cover.uncovered_queries state);
  let continue_ = ref true in
  while !continue_ do
    Deadline.poll ();
    match Bcc_util.Heap.pop heap with
    | None -> continue_ := false
    | Some (qi, _) ->
        if not (Cover.is_covered state qi) then begin
          match ratio_of qi with
          | Some (_, cost, ids) when cost <= limit -. (Cover.spent state -. spent0) +. 1e-9 ->
              List.iter (fun id -> Cover.select state id) ids;
              (* Eagerly refresh the queries whose covers the new
                 selections may have cheapened.  [Heap.update] also
                 re-admits a query dropped below as unaffordable. *)
              List.iter
                (fun id ->
                  Array.iter
                    (fun q ->
                      if not (Cover.is_covered state q) then begin
                        match ratio_of q with
                        | Some (r', _, _) -> Bcc_util.Heap.update heap q r'
                        | None -> ignore (Bcc_util.Heap.remove heap q)
                      end)
                    (Instance.queries_containing inst id))
                ids
          | _ ->
              (* Uncoverable, or unaffordable: its cover gets cheaper only
                 through a purchase of a classifier it contains, whose
                 refresh puts it back, and the remaining limit only
                 shrinks. *)
              ()
        end
  done;
  if Trace.recording sp then begin
    Trace.add_attr sp "limit" (Trace.Float limit);
    Trace.add_attr sp "spent" (Trace.Float (Cover.spent state -. spent0))
  end

type outcome = { solution : Solution.t; degraded : bool }

let solve_with_ctx ?(options = default_options) (ctx : Solve_ctx.t) inst =
  (* A solve with no explicit correlation id and no enclosing scope
     mints a fresh one, so every solver run's progress stream is
     separable by correlation id (the Progress.solve_curves contract —
     merging successive solves' streams is exactly the BENCH_9 anytime
     corruption).  Inside an existing scope (a server request, a
     pipeline driving component sub-solves) the ambient id is kept, so
     the whole request stays one recorder stream. *)
  (match ctx.Solve_ctx.corr with
   | None when Event.enabled () && Event.current_corr () = "" ->
       Event.with_corr (Event.new_corr ())
   | _ -> Solve_ctx.with_corr ctx)
  @@ fun () ->
  Trace.with_span ~name:"solve" @@ fun sp ->
  let deadline = ctx.Solve_ctx.deadline in
  let warm = ctx.Solve_ctx.warm in
  let pool = Solve_ctx.pool ctx in
  let budget = Instance.budget inst in
  if Trace.recording sp then begin
    Trace.add_attr sp "classifiers" (Trace.Int (Instance.num_classifiers inst));
    Trace.add_attr sp "queries" (Trace.Int (Instance.num_queries inst));
    Trace.add_attr sp "budget" (Trace.Float budget);
    if not (Deadline.is_none deadline) then
      Trace.add_attr sp "deadline_s" (Trace.Float (Deadline.remaining_s deadline))
  end;
  Deadline.with_current deadline @@ fun () ->
  (* Anytime progress stream (tentpole of the telemetry layer).  The
     whole block is observation-only — no solver state is read back out
     of it — so solutions are bit-identical with events on or off, and
     with events off every site below costs one [ev] branch.  [ev] is
     snapshotted once so a mid-solve toggle cannot produce a report
     without its solve_start. *)
  let ev = Event.enabled () in
  let t0 = if ev then Timer.now_s () else 0.0 in
  if ev then
    Event.emit "solve_start"
      ~attrs:
        [
          ("classifiers", Event.Int (Instance.num_classifiers inst));
          ("queries", Event.Int (Instance.num_queries inst));
          ("budget", Event.Float budget);
          ("deadline_s", Event.Float (Deadline.remaining_s deadline));
        ];
  let improvements = ref 0 in
  let last_emitted_u = ref neg_infinity in
  (* Sizes of the most recently built decomposition (the round's
     full-budget one — round 0 builds the half-budget one first and the
     full-budget build overwrites).  Attached to incumbent updates so
     the curve shows how much structure each round raced over. *)
  let last_knap = ref 0 in
  let last_qk = ref 0 in
  let note_degraded reason =
    if ev then Event.emit "degraded" ~attrs:[ ("reason", Event.Str reason) ]
  in
  let emit_incumbent ~round ~arm ~utility ~cost =
    if ev then begin
      if utility > !last_emitted_u +. 1e-12 then incr improvements;
      last_emitted_u := utility;
      Progress.emit_incumbent
        {
          Progress.round;
          arm;
          utility;
          cost;
          budget_slack = budget -. cost;
          deadline_margin_s = Deadline.remaining_s (Deadline.current ());
          knap_items = !last_knap;
          qk_nodes = !last_qk;
        }
    end
  in
  let degraded = ref false in
  let state = ref (Cover.create inst) in
  (* Zero-cost classifiers are free wins (paper preprocessing). *)
  for id = 0 to Instance.num_classifiers inst - 1 do
    if Instance.cost inst id <= 0.0 then Cover.select !state id
  done;
  (* Warm start: re-validate a previous solution against this instance
     (classifiers that left the universe vanish, costs are re-read) and
     adopt every pick that still fits the budget as the starting state.
     The seeded state is also banked as an incumbent raced at the end,
     so the result never trails its own re-validated seed.  Picks are
     ordered by (cost, set) so re-seeding is deterministic regardless of
     the order the previous solution listed them. *)
  let warm_banked =
    match warm with
    | None -> None
    | Some prev ->
        Trace.with_span ~name:"warm_seed" @@ fun wsp ->
        let picks =
          List.filter_map (Instance.classifier_id inst) prev.Solution.classifiers
          |> List.sort_uniq compare
          |> List.map (fun id -> (Instance.cost inst id, Instance.classifier inst id, id))
          |> List.sort (fun (c1, s1, _) (c2, s2, _) ->
                 match Float.compare c1 c2 with 0 -> Propset.compare s1 s2 | n -> n)
        in
        List.iter
          (fun (cost, _, id) ->
            if (not (Cover.is_selected !state id)) && Cover.spent !state +. cost <= budget +. 1e-9
            then Cover.select !state id)
          picks;
        let banked = Solution.of_ids inst (Cover.selected !state) in
        if Trace.recording wsp then begin
          Trace.add_attr wsp "given" (Trace.Int (List.length prev.Solution.classifiers));
          Trace.add_attr wsp "seeded" (Trace.Int (List.length banked.Solution.classifiers));
          Trace.add_attr wsp "utility" (Trace.Float banked.Solution.utility)
        end;
        Some banked
  in
  (* Anytime fallback: with a real deadline in play, bank a cheap greedy
     incumbent up front so an expiry in round 0 still returns a useful
     feasible solution rather than just the zero-cost classifiers.  Off
     the deadline path this costs one [is_none] check. *)
  let fallback =
    if Deadline.is_none (Deadline.current ()) then None
    else
      try
        let s = Cover.clone !state in
        greedy_sweep s ~limit:(budget -. Cover.spent s);
        Some (Solution.of_ids inst (Cover.selected s))
      with Deadline.Expired _ ->
        degraded := true;
        note_degraded "fallback_seed";
        None
  in
  let keep =
    if options.prune then
      try Prune.rule1 ~mode:options.prune_mode ~deadline inst
      with Deadline.Expired _ ->
        (* Pruning is an optimization, never a prerequisite: an expiry
           here degrades to the unpruned universe and lets the rounds
           salvage what time remains. *)
        degraded := true;
        note_degraded "prune";
        Array.make (Instance.num_classifiers inst) true
    else [||]
  in
  if ev && options.prune then begin
    let kept = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 keep in
    Event.emit "prune"
      ~attrs:[ ("kept", Event.Int kept); ("total", Event.Int (Array.length keep)) ]
  end;
  let allowed id = if options.prune then keep.(id) else true in
  let max_rounds = if options.residual_rounds then max 1 options.max_rounds else 1 in
  let continue_ = ref true in
  let round = ref 0 in
  (* The MC3 step rarely starts succeeding after failing twice in a row;
     back off to keep large instances fast. *)
  let mc3_failures = ref 0 in
  (* The recovery point: [!state] only ever changes after the realized-
     gain arbiter commits a winner, so unwinding out of a round with
     [Expired] (from the round-boundary poll or re-raised out of an arm
     portfolio) leaves it a budget-feasible incumbent. *)
  (try
  while !continue_ && !round < max_rounds do
    Deadline.poll ();
    let remaining = budget -. Cover.spent !state in
    if remaining <= 1e-9 then continue_ := false
    else begin
      Trace.with_span ~name:"round" @@ fun rsp ->
      if Trace.recording rsp then begin
        Trace.add_attr rsp "round" (Trace.Int !round);
        Trace.add_attr rsp "remaining" (Trace.Float remaining)
      end;
      let base_utility = Cover.covered_utility !state in
      let evaluate ids =
        let s = Cover.clone !state in
        List.iter (fun id -> Cover.select s id) ids;
        (Cover.covered_utility s -. base_utility, s)
      in
      (* Per Algorithm 1 the first round reserves half the budget for
         the residual rounds; we evaluate the full-budget decomposition
         as well and keep whichever realizes more utility — a strict
         improvement that never violates the budget. *)
      let allocs = if !round = 0 then [ remaining /. 2.0; remaining ] else [ remaining ] in
      (* The per-round arm portfolio (Knapsack-vs-QK and friends), raced
         through the engine.  The decompositions and [!state] are read
         shared between arms — the cover state is not mutated until the
         realized-gain arbiter below picks a winner. *)
      let arm_tasks =
        List.concat_map
          (fun alloc ->
            let knap, qkp =
              Decompose.build ~allowed ~max_qk_nodes:options.max_qk_nodes !state ~budget:alloc
            in
            if ev then begin
              last_knap := Array.length knap.Decompose.weights;
              last_qk := Array.length qkp.Decompose.node_classifier
            end;
            (* BCC(1): knapsack over residual 1-covers, under both credit
               schemes; the realized-gain arbiter picks the better. *)
            let knap_candidate values () =
              let ksol =
                Knapsack.solve ~grid:options.knapsack_grid ~deadline ~values
                  ~weights:knap.Decompose.weights alloc
              in
              List.map (fun i -> knap.Decompose.item_classifier.(i)) ksol.Knapsack.items
            in
            (* Whole-cover knapsack: one composite item per uncovered
               query, weighing its cheapest complete cover.  This makes
               i-covers with i >= 3 (invisible to the BCC(1)/BCC(2)
               decomposition until residual progress) competitive in the
               same round.  Shared classifiers across covers are charged
               repeatedly — a conservative overestimate; the realized
               evaluation and later rounds recover the sharing. *)
            let cover_ids () =
              let entries =
                List.filter_map
                  (fun qi ->
                    match Covers.cheapest_cover ~allowed !state qi with
                    | Some (cost, ids) when cost <= alloc ->
                        Some (Instance.utility inst qi, cost, ids)
                    | _ -> None)
                  (Cover.uncovered_queries !state)
              in
              let values = Array.of_list (List.map (fun (u, _, _) -> u) entries) in
              let weights = Array.of_list (List.map (fun (_, c, _) -> c) entries) in
              let covers = Array.of_list (List.map (fun (_, _, ids) -> ids) entries) in
              let ksol =
                Knapsack.solve ~grid:options.knapsack_grid ~deadline ~values ~weights alloc
              in
              List.sort_uniq compare
                (List.concat_map (fun i -> covers.(i)) ksol.Knapsack.items)
            in
            (* BCC(2): QK over residual 2-covers (itself an engine
               portfolio — batches nest). *)
            let qk_ids () =
              let qsol =
                Qk.solve ~options:options.qk ~pool ?rng:ctx.Solve_ctx.rng qkp.Decompose.qk
              in
              List.filter_map
                (fun v ->
                  let id = qkp.Decompose.node_classifier.(v) in
                  if id >= 0 then Some id else None)
                qsol.Qk.nodes
            in
            (* Label each arm for the round span; a ":half" suffix marks
               the round-0 half-budget allocation. *)
            let tag base = if alloc < remaining -. 1e-12 then base ^ ":half" else base in
            List.map
              (fun (name, gen) ->
                let arm = tag name in
                Engine.Task.make ~label:("solver.arm:" ^ arm) (fun _ -> (arm, gen ())))
              [
                ("knap", knap_candidate knap.Decompose.values);
                ("knap-all", knap_candidate knap.Decompose.values_all);
                ("cover", cover_ids);
                ("qk", qk_ids);
              ])
          allocs
      in
      let candidates = Engine.Portfolio.collect pool arm_tasks in
      (* Realized gains, each on its own clone of the cover state. *)
      let evaluated =
        Engine.Portfolio.collect pool
          (List.map
             (fun (arm, ids) ->
               Engine.Task.make ~label:("solver.eval:" ^ arm) (fun _ ->
                   let g, s = evaluate ids in
                   (arm, ids, g, s)))
             candidates)
      in
      (* Reduce in fixed task order (never completion order): best gain,
         near-ties broken toward the cheaper selection, exactly as the
         old sequential scan did. *)
      let gain, chosen_state, chosen_ids, chosen_arm =
        List.fold_left
          (fun (bg, bs, bi, ba) (arm, ids, g, s) ->
            if
              g > bg +. 1e-12
              || (g > bg -. 1e-12 && marginal_cost inst !state ids < marginal_cost inst !state bi)
            then (g, s, ids, arm)
            else (bg, bs, bi, ba))
          (neg_infinity, !state, [], "none") evaluated
      in
      (* Feasibility guard: both subproblems were budgeted at [alloc]. *)
      let cost_added = marginal_cost inst !state chosen_ids in
      if Trace.recording rsp then begin
        Trace.add_attr rsp "arm" (Trace.Str chosen_arm);
        Trace.add_attr rsp "gain" (Trace.Float gain);
        Trace.add_attr rsp "cost" (Trace.Float cost_added)
      end;
      Log.debug (fun m ->
          m "round %d: remaining=%.1f best arm=%s gain=%.1f (cost %.1f, %d classifiers)" !round
            remaining chosen_arm gain cost_added (List.length chosen_ids));
      if gain > 1e-9 && cost_added <= remaining +. 1e-6 then begin
        state := chosen_state;
        emit_incumbent ~round:!round ~arm:chosen_arm
          ~utility:(Cover.covered_utility !state)
          ~cost:(Cover.spent !state);
        if options.mc3_improve && !mc3_failures < 2 then begin
          match mc3_improvement inst !state options with
          | Some better ->
              Log.debug (fun m ->
                  m "round %d: MC3 local search reclaimed %.1f of budget" !round
                    (Cover.spent !state -. Cover.spent better));
              state := better;
              emit_incumbent ~round:!round ~arm:"mc3"
                ~utility:(Cover.covered_utility !state)
                ~cost:(Cover.spent !state);
              mc3_failures := 0
          | None -> incr mc3_failures
        end
      end
      else if !round > 0 then
        (* A fruitless full-allocation round ends the loop; a fruitless
           half-budget first round still deserves a full-budget try. *)
        continue_ := false;
      incr round
    end
  done
  with Deadline.Expired _ ->
    degraded := true;
    note_degraded "rounds");
  (* Final sweep: spend any leftover budget on whole cheapest covers.
     Skipped once degraded — its polls would raise immediately. *)
  if options.final_sweep && not !degraded then begin
    (try greedy_sweep !state ~limit:(budget -. Cover.spent !state)
     with Deadline.Expired _ ->
       degraded := true;
       note_degraded "sweep");
    emit_incumbent ~round:!round ~arm:"sweep"
      ~utility:(Cover.covered_utility !state)
      ~cost:(Cover.spent !state)
  end;
  let structured = Solution.of_ids inst (Cover.selected !state) in
  (* Top-level portfolio: a pure ratio-greedy run occasionally beats the
     decomposition on workloads dominated by long queries (it exploits
     classifier sharing sequentially); keep whichever realizes more. *)
  let result =
    if (not options.final_sweep) || !degraded then structured
    else begin
      let race =
        [
          Engine.Task.make ~label:"solver.race:greedy" (fun _ ->
              let greedy_state = Cover.create inst in
              for id = 0 to Instance.num_classifiers inst - 1 do
                if Instance.cost inst id <= 0.0 then Cover.select greedy_state id
              done;
              greedy_sweep greedy_state ~limit:(budget -. Cover.spent greedy_state);
              Solution.of_ids inst (Cover.selected greedy_state));
          (* And a per-classifier greedy arm (the IG2 rule), which
             sometimes wins on workloads where one classifier contributes
             to many queries without completing any single cover
             cheaply. *)
          Engine.Task.make ~label:"solver.race:ig2" (fun _ ->
              Baselines.ig2 inst Baselines.Budget);
        ]
      in
      try
        match Engine.Portfolio.collect pool race with
        | [ by_query; by_classifier ] ->
            Solution.better structured (Solution.better by_query by_classifier)
        | _ -> structured
      with Deadline.Expired _ ->
        degraded := true;
        note_degraded "race";
        structured
    end
  in
  if ev && result.Solution.utility > Cover.covered_utility !state +. 1e-12 then
    emit_incumbent ~round:!round ~arm:"race" ~utility:result.Solution.utility
      ~cost:result.Solution.cost;
  (* On the degraded path the banked greedy incumbent competes with
     whatever the interrupted rounds left behind. *)
  let result =
    match fallback with Some f when !degraded -> Solution.better result f | _ -> result
  in
  (* The warm incumbent competes unconditionally: rounds that drifted
     away from the seed must still beat it to win. *)
  let result =
    match warm_banked with Some w -> Solution.better result w | None -> result
  in
  if Trace.recording sp then begin
    Trace.add_attr sp "rounds" (Trace.Int !round);
    Trace.add_attr sp "degraded" (Trace.Bool !degraded);
    Trace.add_attr sp "utility" (Trace.Float result.Solution.utility);
    Trace.add_attr sp "cost" (Trace.Float result.Solution.cost)
  end;
  (* Close the anytime curve on the returned solution (arm ["final"], so
     the curve's last utility always equals the answer), then summarize
     the whole solve in one wide [solve_report] event — the flight
     recorder keys its completion (and slow/degraded dumps) off it. *)
  if ev then begin
    emit_incumbent ~round:!round ~arm:"final" ~utility:result.Solution.utility
      ~cost:result.Solution.cost;
    let total = Instance.total_utility inst in
    Progress.emit_report
      {
        Progress.rounds = !round;
        improvements = !improvements;
        utility = result.Solution.utility;
        cost = result.Solution.cost;
        utility_ratio = (if total <= 0.0 then 1.0 else result.Solution.utility /. total);
        degraded = !degraded;
        wall_s = Timer.now_s () -. t0;
      }
  end;
  { solution = result; degraded = !degraded }

let solve_within ?options ?warm ~deadline inst =
  solve_with_ctx ?options (Solve_ctx.make ~deadline ?warm ()) inst

(* The ambient deadline (if any — e.g. installed by the daemon around a
   request, and re-installed by engine tasks) flows into [solve_within],
   so the GMC3/ECC reductions and every other caller inherit graceful
   degradation without signature changes. *)
let solve ?options ?warm inst =
  (solve_within ?options ?warm ~deadline:(Deadline.current ()) inst).solution
