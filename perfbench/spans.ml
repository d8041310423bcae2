(* Per-layer accounting for the in-process workloads.

   The benchmark wraps every public call it makes in a span of its own
   ([bench.*]) through {!Bcc_obs.Trace}, so the library's existing
   spans (prune, decompose, knapsack, qk, ...) nest under it.  With
   tracing on, the ring is harvested between operations, never inside
   one, and folded into per-name totals; a span's self time is its
   duration minus the union of its children's intervals.  Allocation
   and wall time of the benchmark's own spans are measured here in
   every run, traced or not, so the code path is the same in both. *)

module Trace = Bcc_obs.Trace

type agg = { mutable count : int; mutable total_s : float; mutable self_s : float }

let table : (string, agg) Hashtbl.t = Hashtbl.create 64
let alloc : (string, float) Hashtbl.t = Hashtbl.create 8
let dropped = ref 0

let get name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { count = 0; total_s = 0.0; self_s = 0.0 } in
      Hashtbl.add table name a;
      a

(* Length of the part of [lo, hi] covered by the given intervals. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None clipped

let harvest () =
  dropped := !dropped + Trace.dropped ();
  let spans = Trace.spans () in
  Trace.clear ();
  let by_id = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_id s.id s;
      if s.parent >= 0 then Hashtbl.add children s.parent (s.start_s, s.end_s))
    spans;
  (* An engine task runs the work of whoever submitted it, so its self
     time counts towards the nearest enclosing span that is not a task
     (a QK restart towards [qk], an arm of the final race towards
     [solve]). *)
  let rec owner (s : Trace.span) =
    if s.name <> "engine.task" then s.name
    else match Hashtbl.find_opt by_id s.parent with Some p -> owner p | None -> s.name
  in
  List.iter
    (fun (s : Trace.span) ->
      let dur = s.end_s -. s.start_s in
      let a = get s.name in
      a.count <- a.count + 1;
      a.total_s <- a.total_s +. dur;
      let o = get (owner s) in
      o.self_s <-
        o.self_s +. (dur -. covered s.start_s s.end_s (Hashtbl.find_all children s.id)))
    spans

let start_tracing () =
  (* A whole run records far more spans than any ring should hold (one
     drift run: tens of thousands of engine tasks); harvesting after
     every operation keeps the ring from wrapping, and [dropped] proves
     it did not. *)
  Trace.set_tracing ~capacity:(1 lsl 20) true;
  Trace.set_profiling true;
  Hashtbl.reset table;
  dropped := 0

let stop_tracing () =
  harvest ();
  Trace.set_tracing false;
  Trace.set_profiling false

(* A benchmark span around one public call, with its allocation. *)
let bench name f =
  let a0 = Common.allocated_bytes () in
  let r = Trace.with_span ~name (fun _ -> f ()) in
  let da = Common.allocated_bytes () -. a0 in
  Hashtbl.replace alloc name
    (da +. Option.value ~default:0.0 (Hashtbl.find_opt alloc name));
  r

let reset_alloc () = Hashtbl.reset alloc
let alloc_mb name = Common.mb (Option.value ~default:0.0 (Hashtbl.find_opt alloc name))
let count name = match Hashtbl.find_opt table name with Some a -> a.count | None -> 0
let total name = match Hashtbl.find_opt table name with Some a -> a.total_s | None -> 0.0
let self name = match Hashtbl.find_opt table name with Some a -> a.self_s | None -> 0.0
