type t = {
  name : string;
  names : Symtab.t option;
  budget : float;
  queries : Propset.t array;
  utilities : float array;
  classifiers : Propset.t array;
  costs : float array;
  ids : int Propset.Tbl.t; (* classifier set -> id, finite-cost classifiers only *)
  subsets : int array; (* per query, its finite-cost subsets: (id lsl 16) lor mask *)
  subsets_start : int array; (* query qi's entries: subsets_start.(qi) .. subsets_start.(qi + 1) - 1 *)
  containing : int array array; (* classifier id -> query ids containing it *)
  num_properties : int;
  max_length : int;
}

let empty names =
  {
    name = "bcc";
    names;
    budget = 0.0;
    queries = [||];
    utilities = [||];
    classifiers = [||];
    costs = [||];
    ids = Propset.Tbl.create 1;
    subsets = [||];
    subsets_start = [| 0 |];
    containing = [||];
    num_properties = 0;
    max_length = 0;
  }

(* First index in [a.(lo ..)] whose set is not below [q]. *)
let lower_bound a lo q =
  let lo = ref lo and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Propset.compare a.(mid) q < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* [n = |P|], counted in a hash set specialised to int properties. *)
module Int_set = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

let count_properties queries =
  let props = Int_set.create 256 in
  Array.iter (Propset.iter (fun p -> Int_set.replace props p ())) queries;
  Int_set.length props

(* The one instance build.  [changes] is sorted by [Propset.compare],
   free of duplicates and of the empty set, its utilities checked.  The
   result is the instance a from-scratch build of [t]'s queries with
   [changes] applied would give: the same query order, the same
   first-sight classifier ids (queries in order, each query's subsets in
   ascending mask order), the same index.  [who] names the caller in
   errors. *)
let build ~who ~name t ~budget ~changes ~repriced ~cost =
  if budget < 0.0 then invalid_arg (who ^ ": negative budget");
  let old_nq = Array.length t.queries and old_ncl = Array.length t.classifiers in
  (* Merge the changes into [t]'s sorted queries; [src.(qi)] is the old
     index of query [qi], or -1 for a query [t] does not hold. *)
  let cap = old_nq + Array.length changes in
  let queries = Array.make cap Propset.empty in
  let utilities = Array.make cap 0.0 in
  let src = Array.make cap (-1) in
  let nq = ref 0 and next_old = ref 0 and same_sets = ref true in
  let copy_old upto =
    let len = upto - !next_old in
    Array.blit t.queries !next_old queries !nq len;
    Array.blit t.utilities !next_old utilities !nq len;
    for k = 0 to len - 1 do
      src.(!nq + k) <- !next_old + k
    done;
    nq := !nq + len;
    next_old := upto
  in
  Array.iter
    (fun (q, change) ->
      let pos = lower_bound t.queries !next_old q in
      copy_old pos;
      let held = pos < old_nq && Propset.equal t.queries.(pos) q in
      if held then next_old := pos + 1;
      match change with
      | Some u ->
          queries.(!nq) <- q;
          utilities.(!nq) <- 0.0 +. u;
          if held then src.(!nq) <- pos else same_sets := false;
          incr nq
      | None -> if held then same_sets := false)
    changes;
  copy_old old_nq;
  let nq = !nq in
  let queries = if nq = cap then queries else Array.sub queries 0 nq in
  let utilities = if nq = cap then utilities else Array.sub utilities 0 nq in
  let price c =
    let x = cost c in
    if x < 0.0 then invalid_arg (who ^ ": negative cost");
    x
  in
  (* Re-priced classifiers of [t] are priced again at first sight.  A
     re-priced set outside [t]'s universe that turns finite enters every
     kept query holding it, and those queries list their subsets anew. *)
  let repriced_old = Bytes.make old_ncl '\000' in
  let reenum = Bytes.make nq '\000' in
  let entering =
    List.filter_map
      (fun s ->
        match Propset.Tbl.find_opt t.ids s with
        | Some o ->
            Bytes.set repriced_old o '\001';
            None
        | None when Propset.is_empty s -> None
        | None ->
            let holders = ref [] in
            for qi = 0 to nq - 1 do
              if src.(qi) >= 0 && Propset.subset s queries.(qi) then holders := qi :: !holders
            done;
            if !holders = [] then None
            else begin
              let x = price s in
              if x = infinity then None
              else begin
                List.iter (fun qi -> Bytes.set reenum qi '\001') !holders;
                Some (s, x)
              end
            end)
      repriced
  in
  let listed qi = src.(qi) < 0 || Bytes.get reenum qi = '\001' in
  (* Upper bounds: a kept query's entries can only shrink, and a
     classifier is either [t]'s or a subset of a query listed anew.  The
     capping [min] only keeps the size sane: [Propset.subsets] rejects a
     query over 16 properties before any entry is written. *)
  let n_listed = ref 0 and listed_entries = ref 0 and kept_entries = ref 0 in
  for qi = 0 to nq - 1 do
    if listed qi then begin
      incr n_listed;
      listed_entries := !listed_entries + (1 lsl min 16 (Propset.length queries.(qi))) - 1
    end
    else kept_entries := !kept_entries + t.subsets_start.(src.(qi) + 1) - t.subsets_start.(src.(qi))
  done;
  let subsets = Array.make (!listed_entries + !kept_entries) 0 in
  let subsets_start = Array.make (nq + 1) 0 in
  let classifiers = Array.make (old_ncl + !listed_entries) Propset.empty in
  let costs = Array.make (old_ncl + !listed_entries) 0.0 in
  let n_cl = ref 0 in
  let add c x =
    let id = !n_cl in
    classifiers.(id) <- c;
    costs.(id) <- x;
    incr n_cl;
    id
  in
  (* Ids go out at first sight.  [remap] takes [t]'s ids to the new ones
     (-2 not yet seen, -1 priced out); [fresh] numbers the sets [t] does
     not hold, keeping -1 for infinite ones so the oracle is consulted
     once per set. *)
  let remap = Array.make old_ncl (-2) in
  let old_id o =
    let id = remap.(o) in
    if id <> -2 then id
    else begin
      let c = t.classifiers.(o) in
      let x = if Bytes.get repriced_old o = '\001' then price c else t.costs.(o) in
      let id = if x = infinity then -1 else add c x in
      remap.(o) <- id;
      id
    end
  in
  let fresh = Propset.Tbl.create (4 * max !n_listed 16) in
  let fresh_id c =
    match Propset.Tbl.find_opt fresh c with
    | Some id -> id
    | None ->
        let x =
          match List.find_opt (fun (s, _) -> Propset.equal s c) entering with
          | Some (_, x) -> x
          | None -> price c
        in
        let id = if x = infinity then -1 else add c x in
        Propset.Tbl.add fresh c id;
        id
  in
  let n_entries = ref 0 in
  let emit id mask =
    if id >= 0 then begin
      subsets.(!n_entries) <- (id lsl 16) lor mask;
      incr n_entries
    end
  in
  for qi = 0 to nq - 1 do
    subsets_start.(qi) <- !n_entries;
    if listed qi then
      (* [Propset.subsets] lists the subset of mask [i + 1] at index [i]. *)
      List.iteri
        (fun i c ->
          let id =
            if old_ncl = 0 then fresh_id c
            else
              match Propset.Tbl.find_opt t.ids c with
              | Some o -> old_id o
              | None -> fresh_id c
          in
          emit id (i + 1))
        (Propset.subsets queries.(qi))
    else begin
      let o = src.(qi) in
      for k = t.subsets_start.(o) to t.subsets_start.(o + 1) - 1 do
        let e = t.subsets.(k) in
        emit (old_id (e lsr 16)) (e land 0xffff)
      done
    end
  done;
  subsets_start.(nq) <- !n_entries;
  let subsets =
    if !n_entries = Array.length subsets then subsets else Array.sub subsets 0 !n_entries
  in
  let n_cl = !n_cl in
  let classifiers = Array.sub classifiers 0 n_cl in
  (* Absent and infinite read the same to [classifier_id] and [cost_of].
     A renumbered universe gets a table of its own size: copying [t]'s
     would walk every bucket a cold build sized for all of its sets. *)
  let ids =
    if old_ncl = 0 then begin
      Propset.Tbl.filter_map_inplace (fun _ id -> if id < 0 then None else Some id) fresh;
      fresh
    end
    else begin
      let same = ref (n_cl = old_ncl) in
      Array.iteri (fun o id -> if id <> o then same := false) remap;
      if !same then t.ids
      else begin
        let ids = Propset.Tbl.create (2 * n_cl) in
        Array.iteri (fun id c -> Propset.Tbl.add ids c id) classifiers;
        ids
      end
    end
  in
  (* Invert the subset index: count each classifier's queries, then
     fill every list back to front so it ends up ascending. *)
  let fill = Array.make n_cl 0 in
  Array.iter (fun e -> fill.(e lsr 16) <- fill.(e lsr 16) + 1) subsets;
  let containing = Array.map (fun n -> Array.make n 0) fill in
  for qi = nq - 1 downto 0 do
    for k = subsets_start.(qi) to subsets_start.(qi + 1) - 1 do
      let id = subsets.(k) lsr 16 in
      fill.(id) <- fill.(id) - 1;
      containing.(id).(fill.(id)) <- qi
    done
  done;
  let same_sets = !same_sets in
  {
    name;
    names = t.names;
    budget;
    queries;
    utilities;
    classifiers;
    costs = Array.sub costs 0 n_cl;
    ids;
    subsets;
    subsets_start;
    containing;
    num_properties = (if same_sets then t.num_properties else count_properties queries);
    max_length =
      (if same_sets then t.max_length
       else Array.fold_left (fun acc q -> max acc (Propset.length q)) 0 queries);
  }

let by_set (a, _) (b, _) = Propset.compare a b

let create ?(name = "bcc") ?names ~budget ~queries ~cost () =
  if budget < 0.0 then invalid_arg "Instance.create: negative budget";
  Array.iter
    (fun (_, u) -> if u < 0.0 then invalid_arg "Instance.create: negative utility")
    queries;
  (* Merge duplicate queries (utilities add up in input order), drop
     empty ones. *)
  let sorted = Array.copy queries in
  Array.stable_sort by_set sorted;
  let merged = ref [] in
  Array.iter
    (fun (q, u) ->
      if not (Propset.is_empty q) then
        merged :=
          match !merged with
          | (q', sum) :: rest when Propset.equal q q' -> (q', sum +. u) :: rest
          | acc -> (q, 0.0 +. u) :: acc)
    sorted;
  let changes = Array.of_list (List.rev_map (fun (q, sum) -> (q, Some sum)) !merged) in
  build ~who:"Instance.create" ~name (empty names) ~budget ~changes ~repriced:[] ~cost

let derive ?name t ~budget ~changes ~repriced ~cost =
  let name = Option.value name ~default:t.name in
  List.iter
    (function
      | _, Some u when u < 0.0 -> invalid_arg "Instance.derive: negative utility" | _ -> ())
    changes;
  (* A set listed twice keeps its last change. *)
  let sorted = Array.of_list (List.filter (fun (q, _) -> not (Propset.is_empty q)) changes) in
  Array.stable_sort by_set sorted;
  let changes =
    Array.fold_right
      (fun (q, change) acc ->
        match acc with (q', _) :: _ when Propset.equal q q' -> acc | _ -> (q, change) :: acc)
      sorted []
  in
  build ~who:"Instance.derive" ~name t ~budget ~changes:(Array.of_list changes) ~repriced ~cost

let name t = t.name
let names t = t.names
let budget t = t.budget
let with_budget t budget = { t with budget }
let num_queries t = Array.length t.queries
let query t i = t.queries.(i)
let utility t i = t.utilities.(i)
let total_utility t = Array.fold_left ( +. ) 0.0 t.utilities
let max_length t = t.max_length
let num_properties t = t.num_properties
let num_classifiers t = Array.length t.classifiers
let classifier t i = t.classifiers.(i)
let cost t i = t.costs.(i)
let classifier_id t c = Propset.Tbl.find_opt t.ids c
let cost_of t c = match classifier_id t c with Some id -> t.costs.(id) | None -> infinity
let queries_containing t id = t.containing.(id)
let subsets_begin t qi = t.subsets_start.(qi)
let subsets_end t qi = t.subsets_start.(qi + 1)
let subset_id t k = t.subsets.(k) lsr 16
let subset_mask t k = t.subsets.(k) land 0xffff

let restrict t qids =
  let qids = List.sort_uniq compare qids in
  let queries =
    Array.of_list (List.map (fun qi -> (t.queries.(qi), t.utilities.(qi))) qids)
  in
  create ~name:t.name ?names:t.names ~budget:t.budget ~queries
    ~cost:(fun c -> cost_of t c)
    ()

let pp_summary fmt t =
  Format.fprintf fmt
    "instance %s: %d queries, %d properties, %d classifiers, l=%d, budget=%g, total utility=%g"
    t.name (num_queries t) t.num_properties (num_classifiers t) t.max_length t.budget
    (total_utility t)
