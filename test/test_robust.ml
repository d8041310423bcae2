(* The robustness layer: deadline contexts (with an injected fake clock,
   so nothing here sleeps), the fault-injection registry, cooperative
   cancellation through the execution engine, and the solver's graceful
   degradation contract. *)

module Timer = Bcc_util.Timer
module Deadline = Bcc_robust.Deadline
module Fault = Bcc_robust.Fault
module Engine = Bcc_engine.Engine
module Instance = Bcc_core.Instance
module Solver = Bcc_core.Solver
module Solution = Bcc_core.Solution

let qtest = QCheck_alcotest.to_alcotest

(* Run [f] under a settable fake clock starting at [t0]. *)
let with_fake_clock ?(t0 = 1000.0) f =
  let now = Atomic.make t0 in
  Timer.set_source (Some (fun () -> Atomic.get now));
  Fun.protect
    ~finally:(fun () -> Timer.set_source None)
    (fun () -> f (fun t -> Atomic.set now t))

let with_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

(* --- deadlines --- *)

let deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "none remaining infinite" true
    (Deadline.remaining_s Deadline.none = infinity);
  Deadline.check Deadline.none;
  Deadline.cancel Deadline.none;
  Alcotest.(check bool) "none survives cancel" false (Deadline.expired Deadline.none);
  with_fake_clock (fun set ->
      let d = Deadline.after ~label:"unit" 5.0 in
      Alcotest.(check bool) "fresh deadline alive" false (Deadline.expired d);
      Alcotest.(check (float 1e-9)) "remaining" 5.0 (Deadline.remaining_s d);
      set 1004.0;
      Alcotest.(check bool) "still alive at t+4" false (Deadline.expired d);
      set 1005.0;
      Alcotest.(check bool) "expired exactly at kill time" true (Deadline.expired d);
      Alcotest.(check (float 1e-9)) "remaining clamps to zero" 0.0
        (Deadline.remaining_s d);
      (match Deadline.check d with
      | () -> Alcotest.fail "check did not raise"
      | exception Deadline.Expired l -> Alcotest.(check string) "label" "unit" l);
      let c = Deadline.after ~label:"cancelled" 60.0 in
      Deadline.cancel c;
      Alcotest.(check bool) "cancel expires regardless of clock" true
        (Deadline.expired c))

let ambient_binding () =
  with_fake_clock (fun set ->
      Alcotest.(check bool) "default ambient is none" true
        (Deadline.is_none (Deadline.current ()));
      Alcotest.(check bool) "inactive without installs" false (Deadline.active ());
      Deadline.poll ();
      let outer = Deadline.after ~label:"outer" 10.0 in
      Deadline.with_current outer (fun () ->
          Alcotest.(check bool) "outer installed" true (Deadline.current () == outer);
          Alcotest.(check bool) "active with an install" true (Deadline.active ());
          (* A looser inner deadline must NOT extend the outer one. *)
          let loose = Deadline.after ~label:"loose" 100.0 in
          Deadline.with_current loose (fun () ->
              Alcotest.(check string) "tighter (outer) wins" "outer"
                (Deadline.label (Deadline.current ())));
          (* A tighter inner deadline shadows it. *)
          let tight = Deadline.after ~label:"tight" 1.0 in
          Deadline.with_current tight (fun () ->
              Alcotest.(check string) "tight wins" "tight"
                (Deadline.label (Deadline.current ()));
              set 1002.0;
              match Deadline.poll () with
              | () -> Alcotest.fail "poll ignored the expired ambient deadline"
              | exception Deadline.Expired l ->
                  Alcotest.(check string) "poll raises the tight label" "tight" l);
          set 1000.0;
          Alcotest.(check string) "inner scope restored" "outer"
            (Deadline.label (Deadline.current ())));
      Alcotest.(check bool) "ambient restored to none" true
        (Deadline.is_none (Deadline.current ()));
      Alcotest.(check bool) "inactive again" false (Deadline.active ()))

(* --- fault registry --- *)

let fault_registry () =
  with_faults (fun () ->
      Alcotest.check_raises "unknown point rejected"
        (Invalid_argument "Fault.arm: unknown injection point nope") (fun () ->
          Fault.arm "nope" Fault.Throw);
      Alcotest.(check bool) "disabled by default" false (Fault.enabled ());
      Fault.hit "engine.task";
      (* throw, bounded count *)
      Fault.arm ~count:2 "engine.task" Fault.Throw;
      Alcotest.(check bool) "enabled once armed" true (Fault.enabled ());
      let throws = ref 0 in
      for _ = 1 to 5 do
        match Fault.hit "engine.task" with
        | () -> ()
        | exception Fault.Injected p ->
            Alcotest.(check string) "payload is the point" "engine.task" p;
            incr throws
      done;
      Alcotest.(check int) "count bounds the fires" 2 !throws;
      Alcotest.(check int) "fired counter" 2 (Fault.fired "engine.task");
      (* corrupt pairs with [corrupting] and never throws from [hit] *)
      Fault.arm ~count:1 "cache.get" Fault.Corrupt;
      Fault.hit "cache.get";
      Alcotest.(check bool) "corrupt consumed by hit" false (Fault.corrupting "cache.get");
      Fault.arm ~count:1 "cache.get" Fault.Corrupt;
      Alcotest.(check bool) "corrupting fires" true (Fault.corrupting "cache.get");
      Fault.disarm "engine.task";
      Fault.disarm "cache.get";
      Alcotest.(check bool) "disarm-all disables the fast path" false (Fault.enabled ()))

let fault_probability_reproducible () =
  with_faults (fun () ->
      let pattern () =
        Fault.reset ();
        Fault.arm ~prob:0.5 ~seed:42 "qk.restart" Fault.Throw;
        List.init 64 (fun _ ->
            match Fault.hit "qk.restart" with
            | () -> false
            | exception Fault.Injected _ -> true)
      in
      let a = pattern () and b = pattern () in
      Alcotest.(check (list bool)) "seeded firing pattern reproduces" a b;
      let fired = List.length (List.filter Fun.id a) in
      Alcotest.(check bool) "probabilistic: some fire, some don't" true
        (fired > 0 && fired < 64))

let fault_env_parsing () =
  with_faults (fun () ->
      let var = "BCC_FAULTS_TEST" in
      Unix.putenv var "engine.task:throw:1, cache.get:corrupt, qk.restart:delay:0:2:p=0.5:seed=7";
      Fault.load_env ~var ();
      Alcotest.(check bool) "entries armed" true (Fault.enabled ());
      (match Fault.hit "engine.task" with
      | () -> Alcotest.fail "engine.task should throw once"
      | exception Fault.Injected _ -> ());
      Fault.hit "engine.task" (* count exhausted *);
      let s = Fault.summary () in
      Alcotest.(check bool) "summary mentions every armed point" true
        (List.for_all
           (fun needle ->
             let n = String.length needle and m = String.length s in
             let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
             go 0)
           [ "engine.task"; "cache.get"; "qk.restart" ]);
      Fault.reset ();
      Unix.putenv var "engine.task:sploit";
      Alcotest.(check bool) "unknown action is a Failure" true
        (match Fault.load_env ~var () with
        | () -> false
        | exception Failure _ -> true);
      Unix.putenv var "not.a.point:throw";
      Alcotest.(check bool) "unknown point is a Failure" true
        (match Fault.load_env ~var () with
        | () -> false
        | exception Failure _ -> true);
      Unix.putenv var "";
      Fault.load_env ~var ();
      Alcotest.(check bool) "empty var is a no-op" false (Fault.enabled ()))

(* --- engine cancellation --- *)

let with_pool jobs f =
  let pool = if jobs <= 1 then Engine.Pool.seq () else Engine.Pool.domains ~jobs in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) (fun () -> f pool)

(* A batch submitted under an already-cancelled deadline must drain
   without running any task body. *)
let cancelled_batch_runs_nothing jobs () =
  with_pool jobs (fun pool ->
      let ran = Atomic.make 0 in
      let d = Deadline.after ~label:"batch" 60.0 in
      Deadline.cancel d;
      let tasks =
        Deadline.with_current d (fun () ->
            List.init 16 (fun i ->
                Engine.Task.make ~label:(Printf.sprintf "t%d" i) (fun _ ->
                    Atomic.incr ran)))
      in
      (match Engine.Portfolio.collect pool tasks with
      | _ -> Alcotest.fail "cancelled batch returned results"
      | exception Deadline.Expired l -> Alcotest.(check string) "label" "batch" l);
      Alcotest.(check int) "no task body ran" 0 (Atomic.get ran);
      (* The pool is still healthy for the next batch. *)
      let ok = Engine.Portfolio.collect pool [ Engine.Task.make (fun _ -> 41 + 1) ] in
      Alcotest.(check (list int)) "pool serviceable after cancellation" [ 42 ] ok)

(* Cancelling mid-batch: tasks claimed after the cancel are skipped.
   Task 2 cancels the deadline; tasks 3+ block on [gate] until the
   cancel is visible, so a worker can be *in* a late task when the axe
   falls (it finishes) but can never claim more than one afterwards —
   the executed count is bounded by the in-flight window, not luck.
   Tasks are claimed in index order, so tasks 0 and 1 are claimed
   before task 2 runs, but a runner may not have started one yet; task
   2 waits until three tasks have started, or the cancel would make
   that runner skip it as expired. *)
let midbatch_cancellation jobs () =
  with_pool jobs (fun pool ->
      let ran = Atomic.make 0 in
      let gate = Atomic.make false in
      let d = Deadline.after ~label:"mid" 60.0 in
      let n = 64 in
      let tasks =
        Deadline.with_current d (fun () ->
            List.init n (fun i ->
                Engine.Task.make ~label:(Printf.sprintf "m%d" i) (fun _ ->
                    Atomic.incr ran;
                    if i = 2 then begin
                      while Atomic.get ran < 3 do
                        Domain.cpu_relax ()
                      done;
                      Deadline.cancel d;
                      Atomic.set gate true
                    end
                    else if i > 2 then
                      while not (Atomic.get gate) do
                        Domain.cpu_relax ()
                      done)))
      in
      (match Engine.Portfolio.collect pool tasks with
      | _ -> Alcotest.fail "batch ignored the mid-flight cancel"
      | exception Deadline.Expired _ -> ());
      (* 3 tasks before the cancel plus at most one in-flight task per
         runner (jobs workers + the participating caller). *)
      Alcotest.(check bool)
        (Printf.sprintf "ran %d of %d, remainder drained" (Atomic.get ran) n)
        true
        (Atomic.get ran >= 3 && Atomic.get ran <= 3 + jobs + 1))

let per_task_timeout () =
  with_pool 1 (fun pool ->
      (* timeout_s measured from task start: an already-elapsed budget of
         0 expires at the first poll inside the body. *)
      let t =
        Engine.Task.make ~label:"timed" ~timeout_s:0.0 (fun _ ->
            Deadline.poll ();
            Alcotest.fail "poll ignored the per-task timeout")
      in
      match Engine.Portfolio.collect pool [ t ] with
      | _ -> Alcotest.fail "timeout did not surface"
      | exception Deadline.Expired l ->
          Alcotest.(check string) "timeout label" "timed.timeout" l)

let engine_cancelled_counter () =
  let before =
    List.assoc (Engine.Seq, `Cancelled) (Engine.task_counts ())
  in
  with_pool 1 (fun pool ->
      let d = Deadline.after ~label:"ctr" 60.0 in
      Deadline.cancel d;
      let t = Deadline.with_current d (fun () -> Engine.Task.make (fun _ -> ())) in
      (try ignore (Engine.Portfolio.collect pool [ t ]) with Deadline.Expired _ -> ()));
  let after = List.assoc (Engine.Seq, `Cancelled) (Engine.task_counts ()) in
  Alcotest.(check int) "cancelled outcome counted" (before + 1) after

(* --- solver degradation --- *)

let same_solution msg (a : Solution.t) (b : Solution.t) =
  Alcotest.(check (float 1e-9)) (msg ^ ": utility") a.Solution.utility b.Solution.utility;
  Alcotest.(check (float 1e-9)) (msg ^ ": cost") a.Solution.cost b.Solution.cost;
  Alcotest.(check int) (msg ^ ": classifier count")
    (List.length a.Solution.classifiers)
    (List.length b.Solution.classifiers)

let solve_within_none_is_solve () =
  let check inst =
    let plain = Solver.solve inst in
    let o = Solver.solve_within ~deadline:Deadline.none inst in
    Alcotest.(check bool) "not degraded" false o.Solver.degraded;
    same_solution "none deadline is bit-identical" plain o.Solver.solution
  in
  check (Fixtures.figure1 ~budget:4.0);
  check (Fixtures.random_instance ~seed:7 ~budget:20.0 ())

let expired_deadline_degrades () =
  let inst = Fixtures.figure1 ~budget:4.0 in
  List.iter
    (fun deadline ->
      let o = Solver.solve_within ~deadline inst in
      Alcotest.(check bool) "flagged degraded" true o.Solver.degraded;
      Alcotest.(check bool) "still budget-feasible and verified" true
        (Solution.verify inst o.Solver.solution);
      Alcotest.(check bool) "cost within budget" true
        (o.Solver.solution.Solution.cost <= Instance.budget inst +. 1e-9))
    [
      Deadline.after ~label:"elapsed" 0.0;
      (let d = Deadline.after ~label:"cancelled" 60.0 in
       Deadline.cancel d;
       d);
    ]

let degraded_solves_feasible_q =
  QCheck.Test.make ~name:"degraded solve is always budget-feasible" ~count:60
    QCheck.small_int (fun seed ->
      let budget = float_of_int (3 + (seed mod 17)) in
      let inst = Fixtures.random_instance ~seed ~budget () in
      let o = Solver.solve_within ~deadline:(Deadline.after 0.0) inst in
      o.Solver.degraded
      && Solution.verify inst o.Solver.solution
      && o.Solver.solution.Solution.cost <= budget +. 1e-9)

let suite =
  [
    ("deadline basics (fake clock)", `Quick, deadline_basics);
    ("ambient deadline: tighter wins, restores", `Quick, ambient_binding);
    ("fault registry: arm/count/corrupt/disarm", `Quick, fault_registry);
    ("fault probability is seed-reproducible", `Quick, fault_probability_reproducible);
    ("BCC_FAULTS parsing and errors", `Quick, fault_env_parsing);
    ("cancelled batch runs nothing (seq)", `Quick, cancelled_batch_runs_nothing 1);
    ("cancelled batch runs nothing (domains)", `Quick, cancelled_batch_runs_nothing 3);
    ("mid-batch cancel drains the remainder (seq)", `Quick, midbatch_cancellation 1);
    ("mid-batch cancel drains the remainder (domains)", `Quick, midbatch_cancellation 3);
    ("per-task timeout", `Quick, per_task_timeout);
    ("cancelled tasks counted as cancelled", `Quick, engine_cancelled_counter);
    ("solve_within none = solve", `Quick, solve_within_none_is_solve);
    ("expired deadline degrades gracefully", `Quick, expired_deadline_degrades);
    qtest degraded_solves_feasible_q;
  ]
