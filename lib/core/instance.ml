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

let create ?(name = "bcc") ?names ~budget ~queries ~cost () =
  if budget < 0.0 then invalid_arg "Instance.create: negative budget";
  (* Merge duplicate queries (utilities add up), drop empty ones. *)
  let merged = Propset.Tbl.create (max (Array.length queries) 16) in
  Array.iter
    (fun (q, u) ->
      if u < 0.0 then invalid_arg "Instance.create: negative utility";
      if not (Propset.is_empty q) then begin
        let prev = try Propset.Tbl.find merged q with Not_found -> 0.0 in
        Propset.Tbl.replace merged q (prev +. u)
      end)
    queries;
  let qlist = Propset.Tbl.fold (fun q u acc -> (q, u) :: acc) merged [] in
  let qlist = List.sort (fun (a, _) (b, _) -> Propset.compare a b) qlist in
  let queries = Array.of_list (List.map fst qlist) in
  let utilities = Array.of_list (List.map snd qlist) in
  let nq = Array.length queries in
  (* CL = union of the queries' power sets; infinite-cost classifiers are
     excluded from the universe but remembered (id -1) during the build
     so the oracle is consulted only once per set. *)
  let ids = Propset.Tbl.create (4 * max nq 16) in
  let rev_entries = ref [] in
  let next_id = ref 0 in
  (* Each query's finite-cost subsets, packed in ascending mask order
     ([Propset.subsets] lists the subset of mask [i + 1] at index [i]).
     The capping [min] only keeps the size sane: [Propset.subsets]
     rejects a query over 16 properties before any entry is written. *)
  let subsets =
    Array.make
      (Array.fold_left (fun acc q -> acc + (1 lsl min 16 (Propset.length q)) - 1) 0 queries)
      0
  in
  let subsets_start = Array.make (nq + 1) 0 in
  let n_entries = ref 0 in
  Array.iteri
    (fun qi q ->
      subsets_start.(qi) <- !n_entries;
      List.iteri
        (fun i c ->
          let id =
            match Propset.Tbl.find_opt ids c with
            | Some id -> id
            | None ->
                let cl_cost = cost c in
                if cl_cost < 0.0 then invalid_arg "Instance.create: negative cost";
                if cl_cost = infinity then begin
                  Propset.Tbl.add ids c (-1);
                  -1
                end
                else begin
                  let id = !next_id in
                  incr next_id;
                  Propset.Tbl.add ids c id;
                  rev_entries := (c, cl_cost) :: !rev_entries;
                  id
                end
          in
          if id >= 0 then begin
            subsets.(!n_entries) <- (id lsl 16) lor (i + 1);
            incr n_entries
          end)
        (Propset.subsets q))
    queries;
  subsets_start.(nq) <- !n_entries;
  let subsets =
    if !n_entries = Array.length subsets then subsets else Array.sub subsets 0 !n_entries
  in
  (* Absent and infinite read the same to [classifier_id] and [cost_of]. *)
  Propset.Tbl.filter_map_inplace (fun _ id -> if id < 0 then None else Some id) ids;
  let n_cl = !next_id in
  let classifiers = Array.make (max n_cl 1) Propset.empty in
  let costs = Array.make (max n_cl 1) 0.0 in
  List.iteri
    (fun i (c, cl_cost) ->
      classifiers.(n_cl - 1 - i) <- c;
      costs.(n_cl - 1 - i) <- cl_cost)
    !rev_entries;
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
  let props = Hashtbl.create 256 in
  Array.iter (fun q -> Propset.iter (fun p -> Hashtbl.replace props p ()) q) queries;
  let max_length = Array.fold_left (fun acc q -> max acc (Propset.length q)) 0 queries in
  {
    name;
    names;
    budget;
    queries;
    utilities;
    classifiers = (if n_cl = 0 then [||] else Array.sub classifiers 0 n_cl);
    costs = (if n_cl = 0 then [||] else Array.sub costs 0 n_cl);
    ids;
    subsets;
    subsets_start;
    containing;
    num_properties = Hashtbl.length props;
    max_length;
  }

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
