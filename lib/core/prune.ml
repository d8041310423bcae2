module Trace = Bcc_obs.Trace

type mode = [ `Lossless | `Paper ]

let kept_count mask = Array.fold_left (fun acc k -> if k then acc + 1 else acc) 0 mask

let rule1 ?budget ?(mode = `Lossless) ?(deadline = Bcc_robust.Deadline.none) inst =
  Trace.with_span ~name:"prune" @@ fun sp ->
  let budget = match budget with Some b -> b | None -> Instance.budget inst in
  let n = Instance.num_classifiers inst in
  let keep = Array.make n true in
  let singleton_sum c =
    Propset.fold
      (fun acc p -> acc +. Instance.cost_of inst (Propset.singleton p))
      0.0 c
  in
  for id = 0 to n - 1 do
    let c = Instance.classifier inst id in
    let len = Propset.length c in
    if len > 1 then begin
      let replacement = singleton_sum c in
      let threshold =
        match mode with
        | `Lossless -> Instance.cost inst id
        | `Paper -> float_of_int len *. Instance.cost inst id
      in
      if replacement <= threshold then keep.(id) <- false
    end
  done;
  (* Budget guard: re-admit long classifiers for queries that pruning
     would make unaffordable.  The fast path — the all-singleton cover
     fits the budget — skips the exact DP. *)
  let state = Cover.create inst in
  for qi = 0 to Instance.num_queries inst - 1 do
    (* The budget guard's cheapest-cover scans dominate on big
       instances; the explicit context deadline bounds them per query. *)
    Bcc_robust.Deadline.check deadline;
    let q = Instance.query inst qi in
    let singles = singleton_sum q in
    if singles > budget then begin
      let affordable_with_kept =
        match Covers.cheapest_cover state ~allowed:(fun id -> keep.(id)) qi with
        | Some (c, _) -> c <= budget
        | None -> false
      in
      if not affordable_with_kept then begin
        let affordable_at_all =
          match Covers.cheapest_cover state qi with
          | Some (c, _) -> c <= budget
          | None -> false
        in
        if affordable_at_all then
          for k = Instance.subsets_begin inst qi to Instance.subsets_end inst qi - 1 do
            keep.(Instance.subset_id inst k) <- true
          done
      end
    end
  done;
  if Trace.recording sp then begin
    Trace.add_attr sp "total" (Trace.Int n);
    Trace.add_attr sp "kept" (Trace.Int (kept_count keep));
    Trace.add_attr sp "mode"
      (Trace.Str (match mode with `Lossless -> "lossless" | `Paper -> "paper"))
  end;
  keep
