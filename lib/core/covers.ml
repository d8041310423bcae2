type candidate = { id : int; bits : int }

let residual_target state qi = Cover.full_mask state qi land lnot (Cover.mask state qi)

let candidates state ?(allowed = fun _ -> true) qi =
  let inst = Cover.instance state in
  let target = residual_target state qi in
  if target = 0 then ([], 0)
  else begin
    let out = ref [] in
    for k = Instance.subsets_begin inst qi to Instance.subsets_end inst qi - 1 do
      let id = Instance.subset_id inst k in
      if (not (Cover.is_selected state id)) && allowed id then begin
        let bits = Instance.subset_mask inst k land target in
        if bits <> 0 then out := { id; bits } :: !out
      end
    done;
    (!out, target)
  end

let cheapest_cover state ?(allowed = fun _ -> true) qi =
  let inst = Cover.instance state in
  let target = residual_target state qi in
  if target = 0 then None
  else begin
    (* The candidates of [candidates], in its (descending mask) order:
       with the strict [<] below, that order picks among equal-cost
       covers. *)
    let lo = Instance.subsets_begin inst qi in
    let hi = Instance.subsets_end inst qi in
    let ids = Array.make (hi - lo) 0 in
    let bits = Array.make (hi - lo) 0 in
    let costs = Array.make (hi - lo) 0.0 in
    let n = ref 0 in
    for k = hi - 1 downto lo do
      let id = Instance.subset_id inst k in
      if (not (Cover.is_selected state id)) && allowed id then begin
        let b = Instance.subset_mask inst k land target in
        if b <> 0 then begin
          ids.(!n) <- id;
          bits.(!n) <- b;
          costs.(!n) <- Instance.cost inst id;
          incr n
        end
      end
    done;
    let dp = Array.make (target + 1) infinity in
    (* via.(m): the candidate that last improved dp.(m); its predecessor
       mask is [m land lnot bits.(via.(m))]. *)
    let via = Array.make (target + 1) (-1) in
    dp.(0) <- 0.0;
    (* dp over submasks of [target]: because each transition ORs bits in,
       filling masks in ascending order with per-candidate relaxation
       from [m land lnot bits] is exact. *)
    for m = 1 to target do
      if m land target = m then
        for ci = 0 to !n - 1 do
          if bits.(ci) land m <> 0 then begin
            let prev = dp.(m land lnot bits.(ci)) in
            if prev < infinity then begin
              let c = prev +. costs.(ci) in
              if c < dp.(m) then begin
                dp.(m) <- c;
                via.(m) <- ci
              end
            end
          end
        done
    done;
    if dp.(target) = infinity then None
    else begin
      let chosen = ref [] in
      let m = ref target in
      while !m <> 0 do
        let ci = via.(!m) in
        chosen := ids.(ci) :: !chosen;
        m := !m land lnot bits.(ci)
      done;
      Some (dp.(target), List.sort_uniq Int.compare !chosen)
    end
  end

let one_covers cands ~target =
  List.filter (fun { bits; _ } -> bits land target = target) cands

let two_covers cands ~target =
  let cands = Array.of_list cands in
  let n = Array.length cands in
  let out = ref [] in
  for i = 0 to n - 1 do
    if cands.(i).bits land target <> target then
      for j = i + 1 to n - 1 do
        if
          cands.(j).bits land target <> target
          && (cands.(i).bits lor cands.(j).bits) land target = target
        then out := (cands.(i), cands.(j)) :: !out
      done
  done;
  !out
