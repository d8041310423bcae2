(* The in-process workloads: plan, scale and drift.  Each runs in a
   process of its own, started by the orchestrator, with the engine
   pinned to one job.  The process reads its inputs as text, sets up
   (see {!Common.set_up}), then runs a fixed sequence of operations,
   timing each one.  Answer checks run outside the timed intervals. *)

module Instance = Bcc_core.Instance
module Solution = Bcc_core.Solution
module Solver = Bcc_core.Solver
module Pipeline = Bcc_core.Pipeline
module Propset = Bcc_core.Propset
module Io = Bcc_data.Io
module Store = Bcc_store.Store
module Delta = Bcc_store.Delta
module Curve_cache = Bcc_sched.Curve_cache
module Engine = Bcc_engine.Engine

let input dir name = Common.read_file (Filename.concat dir name)

(* The timed phase: [op i] is timed, [after i answer] is not. *)
let timed ~traced ~ops op after =
  if traced then Spans.start_tracing ();
  let tasks0 = Engine.task_counts () in
  Spans.reset_alloc ();
  let lat = ref [] in
  for i = 0 to ops - 1 do
    let t0 = Common.now () in
    let answer = op i in
    lat := (Common.now () -. t0) :: !lat;
    if traced then Spans.harvest ();
    after i answer
  done;
  if traced then Spans.stop_tracing ();
  let tasks =
    List.fold_left2 (fun acc (_, a) (_, b) -> acc + b - a) 0 tasks0 (Engine.task_counts ())
  in
  (List.rev !lat, tasks)

let solver_layers ~tasks =
  [
    ("core.solve_s", Spans.total "bench.solve");
    ("core.solve_self_s", Spans.self "solve");
    ("core.solve_alloc_mb", Spans.alloc_mb "bench.solve");
    ("core.prune_s", Spans.total "prune");
    ("core.decompose_s", Spans.total "decompose");
    ("core.sweep_s", Spans.total "sweep");
    ("core.rounds", float_of_int (Spans.count "round"));
    ("qk.self_s", Spans.self "qk" +. Spans.self "qk.pipeline" +. Spans.self "qk.repair");
    ("qk.calls", float_of_int (Spans.count "qk"));
    ("knapsack.s", Spans.total "knapsack");
    ("knapsack.calls", float_of_int (Spans.count "knapsack"));
    ("mc3.s", Spans.total "mc3");
    ("engine.tasks", float_of_int tasks);
  ]

(* Parse time and allocation per instance, as the median over every
   parse made while setting up. *)
let parse_probe = ref []

let parse text =
  let a0 = Common.allocated_bytes () and t0 = Common.now () in
  let inst = Io.load_string text in
  parse_probe := (Common.now () -. t0, Common.allocated_bytes () -. a0) :: !parse_probe;
  inst

let parse_layers () =
  [
    ("data.parse_s", Common.median (List.map fst !parse_probe));
    ("data.parse_alloc_mb", Common.mb (Common.median (List.map snd !parse_probe)));
  ]

(* plan and scale: one [Solver.solve] per operation.  Operation i
   solves dataset (i / per_dataset) mod datasets at budget
   i mod |budgets|.  Set-up parses every dataset and answers one
   warm-up budget when [warm_up]; every answer is verified against a
   fresh parse of the same text after the timed phase. *)
let solve_workload ~dir ~ops ~traced ~budgets ~per_dataset ~warm_up =
  let texts =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> input dir f)
    |> Array.of_list
  in
  let dataset i = (i / per_dataset) mod Array.length texts
  and budget i = budgets.(i mod Array.length budgets) in
  let setup () =
    let insts = Array.map parse texts in
    if warm_up then ignore (Solver.solve (Instance.with_budget insts.(0) budgets.(0)));
    insts
  in
  let insts, setup_s = Common.set_up setup in
  let answers = Array.make ops Solution.empty in
  let lat, tasks =
    timed ~traced ~ops
      (fun i ->
        Spans.bench "bench.solve" (fun () ->
            Solver.solve (Instance.with_budget insts.(dataset i) (budget i))))
      (fun i sol -> answers.(i) <- sol)
  in
  let peak = Common.peak_rss_mb "self" in
  let setup_s = setup_s @ Common.set_up_after setup in
  let fresh = Array.map Io.load_string texts in
  let failed = ref 0 in
  Array.iteri
    (fun i sol ->
      if not (Solution.verify (Instance.with_budget fresh.(dataset i) (budget i)) sol) then
        incr failed)
    answers;
  {
    Common.setup_s;
    lat_s = lat;
    utility = Array.fold_left (fun acc s -> acc +. s.Solution.utility) 0.0 answers;
    attempted = ops;
    failed = !failed;
    peak_rss_mb = peak;
    layers = (if traced then parse_layers () @ solver_layers ~tasks else []);
  }

let same_solution (a : Solution.t) (b : Solution.t) =
  a.utility = b.utility && a.cost = b.cost
  && List.equal Propset.equal a.classifiers b.classifiers

(* drift: a durable store on a state directory inside the work
   directory.  Each operation parses one delta batch, applies it and
   re-solves incrementally.  Every answer is verified against the epoch
   it solved; the last one must equal a cold pipeline solve of that
   epoch bit for bit. *)
let drift ~dir ~ops ~traced =
  let text = input dir "workload.txt" in
  let batches = Array.of_list (Inputs.split_batches (input dir "deltas.txt")) in
  if Array.length batches < ops then failwith "drift: fewer delta batches than operations";
  let ok = function
    | Ok v -> v
    | Error (`Bad msg) -> failwith ("drift: " ^ msg)
    | Error `Not_found -> failwith "drift: workload vanished"
  in
  let put_probe = ref [] in
  let state_root = Filename.concat Common.work_dir "state" in
  let n = ref 0 in
  let dispose (store, _, state) =
    Store.close store;
    Common.rm_rf state
  in
  let setup () =
    incr n;
    let state = Filename.concat state_root (Printf.sprintf "drift-%d-%d" (Unix.getpid ()) !n) in
    Common.rm_rf state;
    Common.mkdir_p state_root;
    let cache = Curve_cache.create () in
    let store = Store.create ~dir:state ~curve_cache:cache () in
    let t0 = Common.now () in
    ignore (ok (Store.put store ~name:"w" (Store.Text text)));
    put_probe := (Common.now () -. t0) :: !put_probe;
    ignore (ok (Store.solve store ~name:"w" ~incremental:true ()));
    (store, cache, state)
  in
  let (store, cache, state), setup_s = Common.set_up ~dispose setup in
  let cache0 = Curve_cache.stats cache in
  let failed = ref 0 and utility = ref 0.0 in
  let reused = ref 0 and total = ref 0 in
  let last = ref None in
  let lat, tasks =
    timed ~traced ~ops
      (fun i ->
        let batch = Delta.parse batches.(i) in
        ignore (ok (Spans.bench "bench.store.delta" (fun () -> Store.delta store ~name:"w" batch)));
        ok (Spans.bench "bench.store.solve" (fun () -> Store.solve store ~name:"w" ~incremental:true ())))
      (fun _ (s : Store.solved) ->
        utility := !utility +. s.solution.utility;
        reused := !reused + s.components_reused;
        total := !total + s.components_total;
        if s.degraded || not (Solution.verify s.instance s.solution) then incr failed;
        last := Some s)
  in
  let peak = Common.peak_rss_mb "self" in
  (match !last with
  | Some s ->
      let cold = Pipeline.solve (Bcc_core.Solve_ctx.make ()) s.instance in
      if not (same_solution cold.Pipeline.outcome.Solver.solution s.solution) then incr failed
  | None -> ());
  let cache1 = Curve_cache.stats cache in
  let journal = match Store.info store "w" with Some i -> i.Store.journal_bytes | None -> 0 in
  dispose (store, cache, state);
  let setup_s = setup_s @ Common.set_up_after ~dispose setup in
  let lookups = cache1.hits - cache0.hits + cache1.misses - cache0.misses in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  {
    Common.setup_s;
    lat_s = lat;
    utility = !utility;
    attempted = ops;
    failed = !failed;
    peak_rss_mb = peak;
    layers =
      (if not traced then []
       else
         solver_layers ~tasks
         @ [
             ("pipeline.prune_s", Spans.total "pipeline.prune");
             ("pipeline.components_s", Spans.total "pipeline.components");
             ("pipeline.lookup_s", Spans.total "pipeline.lookup");
             ("pipeline.curves_s", Spans.total "pipeline.curves");
             ("pipeline.assemble_s", Spans.total "pipeline.assemble");
             ("pipeline.race_s", Spans.total "pipeline.race");
             ("pipeline.self_s", Spans.self "pipeline");
             ("pipeline.reuse_frac", frac !reused !total);
             ("pipeline.recomputed", float_of_int (!total - !reused));
             ("store.put_s", Common.median !put_probe);
             ("store.delta_s", Spans.total "bench.store.delta");
             ("store.solve_s", Spans.total "bench.store.solve");
             ("store.materialize_s", Spans.total "store.materialize");
             ("store.commit_s", Spans.total "store.commit");
             ("store.solve_alloc_mb", Spans.alloc_mb "bench.store.solve");
             ("store.journal_bytes", float_of_int journal);
             ("curve_cache.hit_frac", frac (cache1.hits - cache0.hits) lookups);
             ("curve_cache.bytes", float_of_int cache1.bytes);
           ]);
  }

let run ~workload ~dir ~ops ~traced =
  Engine.set_default_jobs 1;
  let r =
    match workload with
    | "plan" ->
        solve_workload ~dir ~ops ~traced ~budgets:Inputs.sweep
          ~per_dataset:Inputs.budgets_per_dataset ~warm_up:true
    | "scale" ->
        solve_workload ~dir ~ops ~traced ~budgets:[| 5000.0 |] ~per_dataset:1 ~warm_up:false
    | "drift" -> drift ~dir ~ops ~traced
    | w -> invalid_arg ("not an in-process workload: " ^ w)
  in
  if traced && !Spans.dropped > 0 then
    failwith (Printf.sprintf "trace ring dropped %d spans" !Spans.dropped);
  r
