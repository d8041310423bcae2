module Heap = Bcc_util.Heap
module Rng = Bcc_util.Rng

type stop = Budget | Target of float | Best_ratio

(* Shared run loop: [step state remaining] proposes the next classifier
   ids to select (empty list = stuck).  Tracks the best-ratio prefix for
   the ECC variant. *)
let run inst stop step =
  let state = Cover.create inst in
  let budget = match stop with Budget -> Instance.budget inst | _ -> infinity in
  let best_ratio = ref 0.0 in
  let best_prefix = ref [] in
  let continue_ = ref true in
  while !continue_ do
    (match stop with
    | Target target when Cover.covered_utility state >= target -> continue_ := false
    | Best_ratio when Cover.covered_count state = Instance.num_queries inst ->
        continue_ := false
    | _ -> ());
    if !continue_ then begin
      let remaining = budget -. Cover.spent state in
      match step state remaining with
      | [] -> continue_ := false
      | ids ->
          List.iter (fun id -> Cover.select state id) ids;
          if stop = Best_ratio then begin
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
  let ids = match stop with Best_ratio -> !best_prefix | _ -> Cover.selected state in
  Solution.of_ids inst ids

let rand ?(seed = 42) inst stop =
  let rng = Rng.create seed in
  let n = Instance.num_classifiers inst in
  (* Mutable pool: pick a random index; classifiers that no longer fit
     are swapped out permanently. *)
  let pool = Array.init n (fun i -> i) in
  let pool_size = ref n in
  let remove_at i =
    decr pool_size;
    pool.(i) <- pool.(!pool_size)
  in
  let step state remaining =
    let rec try_pick attempts =
      if !pool_size = 0 || attempts > 4 * n then []
      else begin
        let i = Rng.int rng !pool_size in
        let id = pool.(i) in
        if Cover.is_selected state id then begin
          remove_at i;
          try_pick attempts
        end
        else if Instance.cost inst id > remaining then begin
          remove_at i;
          try_pick (attempts + 1)
        end
        else begin
          remove_at i;
          [ id ]
        end
      end
    in
    try_pick 0
  in
  run inst stop step

let ig2 inst stop =
  let n = Instance.num_classifiers inst in
  (* sums.(c) = total utility of uncovered queries containing c. *)
  let sums = Array.make n 0.0 in
  for id = 0 to n - 1 do
    Array.iter
      (fun qi -> sums.(id) <- sums.(id) +. Instance.utility inst qi)
      (Instance.queries_containing inst id)
  done;
  let ratio id =
    let c = Instance.cost inst id in
    if c <= 1e-12 then if sums.(id) > 0.0 then infinity else 0.0
    else sums.(id) /. c
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
          else if Instance.cost inst id > remaining then pick () (* never fits again *)
          else if ratio id <= 0.0 then []
          else begin
            let newly = Cover.select_traced state id in
            (* Covered queries leave the sums of every classifier they
               contain. *)
            List.iter
              (fun qi ->
                let u = Instance.utility inst qi in
                for k = Instance.subsets_begin inst qi to Instance.subsets_end inst qi - 1 do
                  let cid = Instance.subset_id inst k in
                  sums.(cid) <- sums.(cid) -. u;
                  if Heap.mem heap cid then Heap.update heap cid (ratio cid)
                done)
              newly;
            [ id ] (* already selected; run loop's select is idempotent *)
          end
    in
    pick ()
  in
  run inst stop step

let ig1 inst stop =
  let nq = Instance.num_queries inst in
  (* Per uncovered query: cheapest completing cover and its ratio. *)
  let state_ref = ref None in
  let heap = Heap.create ~max:true nq in
  let refresh state qi =
    if Cover.is_covered state qi then ignore (Heap.remove heap qi)
    else begin
      match Covers.cheapest_cover state qi with
      | None -> ignore (Heap.remove heap qi)
      | Some (cost, _) ->
          let u = Instance.utility inst qi in
          let r = if cost <= 1e-12 then infinity else u /. cost in
          Heap.update heap qi r
    end
  in
  let step state remaining =
    (match !state_ref with
    | None ->
        state_ref := Some state;
        for qi = 0 to nq - 1 do
          refresh state qi
        done
    | Some _ -> ());
    (* Pop the best query whose cheapest cover fits; parked queries are
       re-inserted after a successful selection (their covers may get
       cheaper later). *)
    let parked = ref [] in
    let rec pick () =
      match Heap.pop heap with
      | None -> []
      | Some (qi, r) ->
          if Cover.is_covered state qi then pick ()
          else begin
            match Covers.cheapest_cover state qi with
            | None -> pick ()
            | Some (cost, ids) ->
                if cost > remaining then begin
                  parked := (qi, r) :: !parked;
                  pick ()
                end
                else ids
          end
    in
    let result = pick () in
    List.iter (fun (qi, r) -> if not (Heap.mem heap qi) then Heap.insert heap qi r) !parked;
    (match result with
    | [] -> ()
    | ids ->
        (* Selecting these classifiers can cheapen covers of any query
           containing one of them; refresh those (and drop covered). *)
        let state' = state in
        List.iter (fun id -> Cover.select state' id) ids;
        let affected = Hashtbl.create 16 in
        List.iter
          (fun id ->
            Array.iter
              (fun qi -> Hashtbl.replace affected qi ())
              (Instance.queries_containing inst id))
          ids;
        Hashtbl.iter (fun qi () -> refresh state' qi) affected);
    result
  in
  run inst stop step
