(* Tests for the core model: property sets, instances, coverage
   semantics, cover DP, decomposition and pruning. *)

module Propset = Bcc_core.Propset
module Symtab = Bcc_core.Symtab
module Instance = Bcc_core.Instance
module Cover = Bcc_core.Cover
module Covers = Bcc_core.Covers
module Solution = Bcc_core.Solution
module Decompose = Bcc_core.Decompose
module Prune = Bcc_core.Prune
module Rng = Bcc_util.Rng

let qtest = QCheck_alcotest.to_alcotest
let ps = Fixtures.ps

let count n =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some c when c > 0 -> c | _ -> n)
  | None -> n

(* --- Propset --- *)

let propset_gen =
  QCheck.map (fun l -> Propset.of_list (List.map abs l)) QCheck.(list_of_size Gen.(0 -- 8) small_int)

let propset_union_commutes =
  QCheck.Test.make ~name:"union commutes and contains both" ~count:200
    (QCheck.pair propset_gen propset_gen) (fun (a, b) ->
      let u = Propset.union a b in
      Propset.equal u (Propset.union b a) && Propset.subset a u && Propset.subset b u)

let propset_inter_diff =
  QCheck.Test.make ~name:"inter + diff partition the set" ~count:200
    (QCheck.pair propset_gen propset_gen) (fun (a, b) ->
      let i = Propset.inter a b and d = Propset.diff a b in
      Propset.equal a (Propset.union i d) && Propset.length i + Propset.length d = Propset.length a)

let propset_subset_reflexive =
  QCheck.Test.make ~name:"subset is reflexive and respects union" ~count:200 propset_gen
    (fun a -> Propset.subset a a && Propset.subset Propset.empty a)

let propset_sorted_dedup () =
  let s = Propset.of_list [ 3; 1; 3; 2; 1 ] in
  Alcotest.(check (list int)) "sorted, unique" [ 1; 2; 3 ] (Propset.to_list s);
  Alcotest.(check int) "length" 3 (Propset.length s)

let propset_subsets_count =
  QCheck.Test.make ~name:"a set of n properties has 2^n - 1 subsets" ~count:50
    (QCheck.map (fun l -> Propset.of_list (List.map (fun x -> abs x mod 20) l))
       QCheck.(list_of_size Gen.(0 -- 6) small_int))
    (fun s ->
      let n = Propset.length s in
      List.length (Propset.subsets s) = (1 lsl n) - 1
      && List.for_all (fun sub -> Propset.subset sub s) (Propset.subsets s))

let propset_positions () =
  let q = ps [ 10; 20; 30 ] in
  Alcotest.(check int) "positions of {10,30}" 0b101 (Propset.positions_in (ps [ 10; 30 ]) q);
  Alcotest.(check int) "foreign members ignored" 0b010 (Propset.positions_in (ps [ 20; 99 ]) q)

let propset_pp_names () =
  let tbl = Symtab.create () in
  let w = Symtab.intern tbl "wooden" in
  let t = Symtab.intern tbl "table" in
  (* ids follow interning order, so "wooden" (id 0) prints first *)
  Alcotest.(check string) "named rendering" "{wooden, table}"
    (Propset.to_string ~names:tbl (ps [ t; w ]))

(* --- Instance --- *)

let instance_merges_duplicates () =
  let queries = [| (ps [ 0; 1 ], 2.0); (ps [ 1; 0 ], 3.0); (ps [ 2 ], 1.0) |] in
  let inst = Instance.create ~budget:10.0 ~queries ~cost:(fun _ -> 1.0) () in
  Alcotest.(check int) "two distinct queries" 2 (Instance.num_queries inst);
  Alcotest.(check (float 1e-9)) "utilities merged" 6.0 (Instance.total_utility inst)

let instance_classifier_universe () =
  (* Section 2.1's example: P = {x,y,z}, Q = {xy, xz} => CL excludes YZ. *)
  let inst =
    Instance.create ~budget:10.0
      ~queries:[| (ps [ 0; 1 ], 1.0); (ps [ 0; 2 ], 1.0) |]
      ~cost:(fun _ -> 1.0) ()
  in
  Alcotest.(check int) "CL = {X, Y, Z, XY, XZ}" 5 (Instance.num_classifiers inst);
  Alcotest.(check (option int)) "YZ is not relevant" None
    (Instance.classifier_id inst (ps [ 1; 2 ]));
  Alcotest.(check int) "n = 3 properties" 3 (Instance.num_properties inst)

let instance_restrict () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let sub = Instance.restrict inst [ 0 ] in
  Alcotest.(check int) "one query kept" 1 (Instance.num_queries sub);
  Alcotest.(check (float 1e-9)) "same budget" 11.0 (Instance.budget sub);
  (* Costs inherited from the parent's oracle. *)
  let q = Instance.query sub 0 in
  Alcotest.(check (float 1e-9)) "cost inherited" (Instance.cost_of inst q)
    (Instance.cost_of sub q)

let instance_rejects_negative () =
  Alcotest.check_raises "negative utility"
    (Invalid_argument "Instance.create: negative utility") (fun () ->
      ignore
        (Instance.create ~budget:1.0 ~queries:[| (ps [ 0 ], -1.0) |] ~cost:(fun _ -> 1.0) ()))

(* The subset index packs a query's position mask into 16 bits. *)
let instance_rejects_long_query () =
  Alcotest.check_raises "a 17-property query" (Invalid_argument "Propset.subsets: set too large")
    (fun () ->
      ignore
        (Instance.create ~budget:1.0
           ~queries:[| (ps (List.init 17 Fun.id), 1.0) |]
           ~cost:(fun _ -> 1.0) ()))

let containment_index_sound =
  QCheck.Test.make ~name:"containment index lists exactly the superset queries" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~budget:10.0 () in
      let ok = ref true in
      for id = 0 to Instance.num_classifiers inst - 1 do
        let c = Instance.classifier inst id in
        let listed = Array.to_list (Instance.queries_containing inst id) in
        for qi = 0 to Instance.num_queries inst - 1 do
          let contains = Propset.subset c (Instance.query inst qi) in
          if contains <> List.mem qi listed then ok := false
        done
      done;
      !ok)

(* --- derive = create --- *)

(* The instance build as it stood before [Instance.derive]: merge in a
   hash table, sort, then walk every query's subsets.  Every created and
   derived instance is checked against it, accessor by accessor. *)
let reference_build ~name ~budget ~queries ~cost : Fixtures.view =
  let merged = Propset.Tbl.create (max (Array.length queries) 16) in
  Array.iter
    (fun (q, u) ->
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
  let ids = Propset.Tbl.create (4 * max nq 16) in
  let rev_entries = ref [] in
  let next_id = ref 0 in
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
  let subsets = Array.sub subsets 0 !n_entries in
  let entries = Array.of_list (List.rev !rev_entries) in
  let n_cl = Array.length entries in
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
  {
    Fixtures.name;
    budget;
    queries;
    utilities;
    classifiers = Array.map fst entries;
    costs = Array.map snd entries;
    id_of =
      (fun c ->
        match Propset.Tbl.find_opt ids c with Some id when id >= 0 -> Some id | _ -> None);
    subsets;
    subsets_start;
    containing;
    num_properties = Hashtbl.length props;
    max_length = Array.fold_left (fun acc q -> max acc (Propset.length q)) 0 queries;
  }

(* A random walk over instance content: each step applies a batch of
   changes and re-prices to a model, derives the next instance from the
   last, and checks it — and a fresh [create] of the model — against the
   reference.  Properties are drawn from 0..6, so every set the builds
   can decide is among the 127 probed. *)
let derive_walk ~seed ~steps =
  let rng = Rng.create (0xd371 lxor seed) in
  let universe = 7 in
  let probes =
    List.init ((1 lsl universe) - 1) (fun m ->
        Propset.of_list
          (List.filter (fun p -> (m + 1) land (1 lsl p) <> 0) (List.init universe Fun.id)))
  in
  let random_set () =
    let k = 1 + Rng.int rng 4 in
    Propset.of_array (Rng.sample_without_replacement rng k universe)
  in
  let utilities = [| 0.0; -0.0; 1.0; 2.5; 7.0; 0.1; 12.0 |] in
  let prices = [| 0.0; 1.0; 1.5; 3.0; 4.0; infinity |] in
  let salt = Rng.int rng 1000 in
  (* The oracle: explicit prices over a hashed base that has zeros and
     infinities of its own. *)
  let base c =
    match ((Propset.hash c * 31) + salt) land 0xff mod 7 with
    | 0 -> 0.0
    | 1 | 2 -> infinity
    | k -> float_of_int k
  in
  let oracle explicit c =
    match Propset.Tbl.find_opt explicit c with Some x -> x | None -> base c
  in
  let content = Propset.Tbl.create 16 in
  for _ = 1 to Rng.int rng 10 do
    Propset.Tbl.replace content (random_set ()) (Rng.choose rng utilities)
  done;
  let explicit = ref (Propset.Tbl.create 16) in
  let as_queries () = Propset.Tbl.fold (fun q u acc -> (q, u) :: acc) content [] |> Array.of_list in
  let check what inst ~name ~budget =
    let queries = as_queries () in
    let expected = reference_build ~name ~budget ~queries ~cost:(oracle !explicit) in
    match Fixtures.view_diff ~probes (Fixtures.view inst) expected with
    | None -> ()
    | Some field -> QCheck.Test.fail_reportf "seed %d, %s: %s differs" seed what field
  in
  (* [create] sees duplicates and an empty query as well. *)
  let create budget =
    let extra =
      List.filter_map
        (fun (q, _) -> if Rng.int rng 3 = 0 then Some (q, Rng.choose rng [| 0.0; -0.0 |]) else None)
        (Array.to_list (as_queries ()))
    in
    let queries = Array.append (as_queries ()) (Array.of_list ((Propset.empty, 1.0) :: extra)) in
    Rng.shuffle rng queries;
    let inst = Instance.create ~name:"walk" ~budget ~queries ~cost:(oracle !explicit) () in
    let expected = reference_build ~name:"walk" ~budget ~queries ~cost:(oracle !explicit) in
    match Fixtures.view_diff ~probes (Fixtures.view inst) expected with
    | None -> inst
    | Some field -> QCheck.Test.fail_reportf "seed %d, create: %s differs" seed field
  in
  let inst = ref (create 10.0) in
  for step = 1 to steps do
    let held = as_queries () in
    let pick_held () = fst (Rng.choose rng held) in
    let changes =
      List.init (1 + Rng.int rng 5) (fun _ ->
          match Rng.int rng 7 with
          | 0 | 1 -> (random_set (), Some (Rng.choose rng utilities))
          | 2 when held <> [||] -> (pick_held (), Some (Rng.choose rng utilities))
          | 3 when held <> [||] -> (pick_held (), None)
          | 4 when Instance.num_classifiers !inst > 0 ->
              (* The last query holding some classifier, when there is one. *)
              let id = Rng.int rng (Instance.num_classifiers !inst) in
              let holders = Instance.queries_containing !inst id in
              let qi = holders.(Array.length holders - 1) in
              (Instance.query !inst qi, if Array.length holders = 1 then None else Some 1.0)
          | 5 -> (Propset.empty, Some 3.0)
          | _ -> (random_set (), None))
    in
    let repriced =
      List.init (Rng.int rng 4) (fun _ ->
          match Rng.int rng 3 with
          | 0 when Instance.num_classifiers !inst > 0 ->
              Instance.classifier !inst (Rng.int rng (Instance.num_classifiers !inst))
          | 1 when held <> [||] -> Rng.choose rng (Array.of_list (Propset.subsets (pick_held ())))
          | _ -> random_set ())
    in
    let next = Propset.Tbl.copy !explicit in
    List.iter (fun c -> Propset.Tbl.replace next c (Rng.choose rng prices)) repriced;
    explicit := next;
    List.iter
      (fun (q, change) ->
        if not (Propset.is_empty q) then
          match change with
          | Some u -> Propset.Tbl.replace content q (0.0 +. u)
          | None -> Propset.Tbl.remove content q)
      changes;
    let budget = float_of_int (Rng.int rng 20) in
    let name = if Rng.bool rng then Some (Printf.sprintf "walk@%d" step) else None in
    let expected_name = Option.value name ~default:(Instance.name !inst) in
    inst := Instance.derive ?name !inst ~budget ~changes ~repriced ~cost:(oracle !explicit);
    check (Printf.sprintf "step %d derive" step) !inst ~name:expected_name ~budget;
    if step mod 5 = 0 then ignore (create budget)
  done;
  true

let derive_matches_create =
  QCheck.Test.make ~name:"derive and create match the reference build" ~count:(count 60)
    QCheck.int (fun seed -> derive_walk ~seed ~steps:25)

let derive_rejects_negative () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  Alcotest.check_raises "negative utility"
    (Invalid_argument "Instance.derive: negative utility") (fun () ->
      ignore
        (Instance.derive inst ~budget:1.0 ~changes:[ (ps [ 0 ], Some (-1.0)) ] ~repriced:[]
           ~cost:(fun _ -> 1.0)));
  Alcotest.check_raises "negative budget" (Invalid_argument "Instance.derive: negative budget")
    (fun () ->
      ignore (Instance.derive inst ~budget:(-1.0) ~changes:[] ~repriced:[] ~cost:(fun _ -> 1.0)))

(* --- Cover --- *)

let cover_incremental_matches_oracle =
  QCheck.Test.make ~name:"incremental cover tracker = from-scratch oracle" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~budget:100.0 () in
      let rng = Rng.create (seed + 999) in
      let n = Instance.num_classifiers inst in
      if n = 0 then true
      else begin
        let state = Cover.create inst in
        let chosen = ref [] in
        for _ = 1 to 1 + Rng.int rng n do
          let id = Rng.int rng n in
          Cover.select state id;
          chosen := Instance.classifier inst id :: !chosen
        done;
        abs_float
          (Cover.covered_utility state -. Cover.utility_of_selection inst !chosen)
        < 1e-9
      end)

let cover_exact_union_semantics () =
  (* Coverage requires the union to be exactly the query: a superset
     classifier never covers. *)
  let inst =
    Instance.create ~budget:10.0
      ~queries:[| (ps [ 0 ], 1.0); (ps [ 0; 1 ], 1.0) |]
      ~cost:(fun _ -> 1.0) ()
  in
  let state = Cover.create inst in
  ignore (Cover.select_set state (ps [ 0; 1 ]));
  (* XY covers xy but NOT the singleton query x. *)
  Alcotest.(check (float 1e-9)) "only xy covered" 1.0 (Cover.covered_utility state);
  Alcotest.(check int) "one query covered" 1 (Cover.covered_count state)

let cover_residual_shrinks () =
  let inst =
    Instance.create ~budget:10.0 ~queries:[| (ps [ 0; 1; 2 ], 1.0) |] ~cost:(fun _ -> 1.0) ()
  in
  let state = Cover.create inst in
  Alcotest.(check bool) "initial residual is the query" true
    (Propset.equal (Cover.residual state 0) (ps [ 0; 1; 2 ]));
  ignore (Cover.select_set state (ps [ 1 ]));
  Alcotest.(check bool) "after Y the residual is xz" true
    (Propset.equal (Cover.residual state 0) (ps [ 0; 2 ]));
  ignore (Cover.select_set state (ps [ 0; 2 ]));
  Alcotest.(check bool) "covered" true (Cover.is_covered state 0);
  Alcotest.(check bool) "empty residual" true (Propset.is_empty (Cover.residual state 0))

let cover_select_traced () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let state = Cover.create inst in
  ignore (Cover.select_set state (ps [ 1; 2 ]));
  let id = match Instance.classifier_id inst (ps [ 0; 2 ]) with Some i -> i | None -> -1 in
  let newly = Cover.select_traced state id in
  Alcotest.(check int) "XZ completes two queries (xz and xyz)" 2 (List.length newly);
  Alcotest.(check (list int)) "re-selection reports nothing" [] (Cover.select_traced state id)

let cover_clone_independent () =
  let inst = Fixtures.figure1 ~budget:11.0 in
  let a = Cover.create inst in
  let b = Cover.clone a in
  ignore (Cover.select_set b (ps [ 0; 1; 2 ]));
  Alcotest.(check (float 1e-9)) "original untouched" 0.0 (Cover.covered_utility a);
  Alcotest.(check (float 1e-9)) "clone advanced" 8.0 (Cover.covered_utility b)

(* --- Covers DP --- *)

let cheapest_cover_matches_brute =
  QCheck.Test.make ~name:"cheapest-cover DP is optimal (vs subset brute force)" ~count:100
    QCheck.small_int (fun seed ->
      let inst = Fixtures.random_instance ~seed ~max_len:3 ~budget:100.0 () in
      let state = Cover.create inst in
      let ok = ref true in
      for qi = 0 to Instance.num_queries inst - 1 do
        let q = Instance.query inst qi in
        (* Brute force over classifier subsets contained in q. *)
        let cands =
          List.filter_map (fun c -> Instance.classifier_id inst c) (Propset.subsets q)
        in
        let best = ref infinity in
        let rec go rest acc_cost acc_union =
          if Propset.equal acc_union q then best := min !best acc_cost
          else
            match rest with
            | [] -> ()
            | id :: tl ->
                go tl (acc_cost +. Instance.cost inst id)
                  (Propset.union acc_union (Instance.classifier inst id));
                go tl acc_cost acc_union
        in
        go cands 0.0 Propset.empty;
        (match Covers.cheapest_cover state qi with
        | Some (cost, ids) ->
            let union =
              List.fold_left
                (fun acc id -> Propset.union acc (Instance.classifier inst id))
                Propset.empty ids
            in
            if not (Propset.equal union q) then ok := false;
            if abs_float (cost -. !best) > 1e-9 then ok := false
        | None -> if !best < infinity then ok := false)
      done;
      !ok)

(* --- The cover kernel against its subset-enumerating reference --- *)

(* [Covers.candidates] and [Covers.cheapest_cover] as they read before
   the instance's per-query subset index: every subset of the query is
   built and looked up by set, and the residual target comes from
   [Cover.residual]. *)
let reference_candidates state ?(allowed = fun _ -> true) qi =
  let inst = Cover.instance state in
  let q = Instance.query inst qi in
  let target = Propset.positions_in (Cover.residual state qi) q in
  if target = 0 then ([], 0)
  else begin
    let out = ref [] in
    List.iter
      (fun c ->
        match Instance.classifier_id inst c with
        | Some id when (not (Cover.is_selected state id)) && allowed id ->
            let bits = Propset.positions_in c q land target in
            if bits <> 0 then out := { Covers.id; bits } :: !out
        | _ -> ())
      (Propset.subsets q);
    (!out, target)
  end

let reference_cheapest_cover state ?allowed qi =
  let inst = Cover.instance state in
  let cands, target = reference_candidates state ?allowed qi in
  if target = 0 then None
  else begin
    let dp = Array.make (target + 1) infinity in
    let parent = Array.make (target + 1) (-1, -1) in
    dp.(0) <- 0.0;
    let cands = Array.of_list cands in
    for m = 1 to target do
      if m land target = m then
        Array.iteri
          (fun ci { Covers.id; bits } ->
            if bits land m <> 0 then begin
              let prev = m land lnot bits land target in
              if dp.(prev) < infinity then begin
                let c = dp.(prev) +. Instance.cost inst id in
                if c < dp.(m) then begin
                  dp.(m) <- c;
                  parent.(m) <- (ci, prev)
                end
              end
            end)
          cands
    done;
    if dp.(target) = infinity then None
    else begin
      let ids = ref [] in
      let m = ref target in
      while !m <> 0 do
        let ci, prev = parent.(!m) in
        ids := cands.(ci).Covers.id :: !ids;
        m := prev
      done;
      Some (dp.(target), List.sort_uniq compare !ids)
    end
  end

(* Queries up to 6 long over 8 properties; a seeded oracle prices about
   one set in six at zero and one in six at infinity, and draws the
   rest from a few values so equal-cost covers are common. *)
let kernel_instance seed =
  let rng = Rng.create seed in
  let queries =
    Array.init
      (1 + Rng.int rng 10)
      (fun _ ->
        let len = 1 + Rng.int rng 6 in
        (Propset.of_array (Rng.sample_without_replacement rng len 8), float_of_int (Rng.int rng 9)))
  in
  let cost c =
    match Rng.int (Rng.create ((Propset.hash c * 7919) lxor seed)) 6 with
    | 0 -> 0.0
    | 1 -> infinity
    | k -> float_of_int (k / 2)
  in
  (Instance.create ~budget:10.0 ~queries ~cost (), cost)

let kernel_matches_reference =
  QCheck.Test.make ~name:"cover kernel = subset-enumerating reference"
    ~count:(count 300) QCheck.small_int (fun seed ->
      let inst, cost = kernel_instance seed in
      let rng = Rng.create (seed + 17) in
      let n = Instance.num_classifiers inst in
      let state = Cover.create inst in
      for id = 0 to n - 1 do
        if Rng.int rng 4 = 0 then Cover.select state id
      done;
      let keep = Array.init n (fun _ -> Rng.int rng 3 > 0) in
      let same_cover a b =
        match (a, b) with
        | None, None -> true
        | Some (c, ids), Some (c', ids') ->
            Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float c') && ids = ids'
        | _ -> false
      in
      let ok = ref true in
      for qi = 0 to Instance.num_queries inst - 1 do
        List.iter
          (fun allowed ->
            if Covers.candidates state ?allowed qi <> reference_candidates state ?allowed qi
            then ok := false;
            if
              not
                (same_cover
                   (Covers.cheapest_cover state ?allowed qi)
                   (reference_cheapest_cover state ?allowed qi))
            then ok := false)
          [ None; Some (fun id -> keep.(id)) ];
        List.iter
          (fun c ->
            if cost c = infinity && Instance.classifier_id inst c <> None then ok := false)
          (Propset.subsets (Instance.query inst qi))
      done;
      for id = 0 to n - 1 do
        let c = Instance.classifier inst id in
        let brute =
          List.filter
            (fun qi -> Propset.subset c (Instance.query inst qi))
            (List.init (Instance.num_queries inst) Fun.id)
        in
        if Array.to_list (Instance.queries_containing inst id) <> brute then ok := false
      done;
      !ok)

(* --- Decompose / Prune --- *)

let decompose_l1_is_knapsack () =
  (* Observation 4.3: with only singleton queries the decomposition is a
     pure knapsack; the QK side is empty. *)
  let queries = Array.init 5 (fun i -> (ps [ i ], float_of_int (i + 1))) in
  let inst = Instance.create ~budget:3.0 ~queries ~cost:(fun _ -> 1.0) () in
  let state = Cover.create inst in
  let knap, qkp = Decompose.build state ~budget:3.0 in
  Alcotest.(check int) "five items" 5 (Array.length knap.Decompose.values);
  (* The QK side holds only the items (as bonus-edge endpoints) plus the
     zero-cost virtual node: no genuine 2-cover edges exist. *)
  let g = qkp.Decompose.qk.Bcc_qk.Qk.graph in
  Alcotest.(check int) "QK = items + virtual node" 6 (Bcc_graph.Graph.n g);
  Alcotest.(check int) "only bonus edges" 5 (Bcc_graph.Graph.m g);
  Alcotest.(check bool) "virtual node marked -1" true
    (Array.exists (fun id -> id = -1) qkp.Decompose.node_classifier)

let decompose_respects_allowed () =
  let inst = Fixtures.figure2 ~budget:2.0 in
  let state = Cover.create inst in
  let knap, qkp = Decompose.build ~allowed:(fun _ -> false) state ~budget:2.0 in
  Alcotest.(check int) "no items when everything is filtered" 0
    (Array.length knap.Decompose.values);
  Alcotest.(check int) "no QK nodes either" 0
    (Bcc_graph.Graph.n qkp.Decompose.qk.Bcc_qk.Qk.graph)

let prune_uniform_keeps_singletons () =
  (* With uniform costs rule 1 reduces the universe to singletons
     (Section 4.2). *)
  let queries = [| (ps [ 0; 1 ], 1.0); (ps [ 1; 2; 3 ], 2.0) |] in
  let inst = Instance.create ~budget:100.0 ~queries ~cost:(fun _ -> 1.0) () in
  let keep = Prune.rule1 ~mode:`Paper inst in
  for id = 0 to Instance.num_classifiers inst - 1 do
    let len = Propset.length (Instance.classifier inst id) in
    Alcotest.(check bool)
      (Format.asprintf "classifier %a" (Propset.pp ?names:None) (Instance.classifier inst id))
      (len = 1) keep.(id)
  done

let prune_budget_guard () =
  (* Tight budget: the singletons cost 3 each (sum 6 > budget 2) but the
     pair classifier costs 2 — the guard must keep it. *)
  let queries = [| (ps [ 0; 1 ], 1.0) |] in
  let cost c = if Propset.length c = 2 then 2.0 else 3.0 in
  let inst = Instance.create ~budget:2.0 ~queries ~cost () in
  let keep = Prune.rule1 inst in
  let id = match Instance.classifier_id inst (ps [ 0; 1 ]) with Some i -> i | None -> -1 in
  Alcotest.(check bool) "XY survives the guard" true keep.(id)

let prune_keeps_cheap_conjunctions () =
  (* A conjunction much cheaper than its parts is kept: C(XY)=1,
     singletons cost 10 each (replacement 20 > 2*1). *)
  let queries = [| (ps [ 0; 1 ], 1.0) |] in
  let cost c = if Propset.length c = 2 then 1.0 else 10.0 in
  let inst = Instance.create ~budget:100.0 ~queries ~cost () in
  let keep = Prune.rule1 inst in
  let id = match Instance.classifier_id inst (ps [ 0; 1 ]) with Some i -> i | None -> -1 in
  Alcotest.(check bool) "cheap XY kept" true keep.(id)

let suite =
  [
    qtest propset_union_commutes;
    qtest propset_inter_diff;
    qtest propset_subset_reflexive;
    Alcotest.test_case "propset sorts and dedups" `Quick propset_sorted_dedup;
    qtest propset_subsets_count;
    Alcotest.test_case "propset position masks" `Quick propset_positions;
    Alcotest.test_case "propset named printing" `Quick propset_pp_names;
    Alcotest.test_case "instance merges duplicate queries" `Quick instance_merges_duplicates;
    Alcotest.test_case "instance derives CL correctly" `Quick instance_classifier_universe;
    Alcotest.test_case "instance restrict" `Quick instance_restrict;
    Alcotest.test_case "instance rejects negative utility" `Quick instance_rejects_negative;
    Alcotest.test_case "instance rejects a query over 16 properties" `Quick
      instance_rejects_long_query;
    qtest containment_index_sound;
    qtest derive_matches_create;
    Alcotest.test_case "derive rejects a negative utility or budget" `Quick
      derive_rejects_negative;
    qtest cover_incremental_matches_oracle;
    Alcotest.test_case "coverage is exact-union" `Quick cover_exact_union_semantics;
    Alcotest.test_case "residuals shrink" `Quick cover_residual_shrinks;
    Alcotest.test_case "select_traced reports new covers" `Quick cover_select_traced;
    Alcotest.test_case "clone independence" `Quick cover_clone_independent;
    qtest cheapest_cover_matches_brute;
    qtest kernel_matches_reference;
    Alcotest.test_case "decompose l=1 is knapsack" `Quick decompose_l1_is_knapsack;
    Alcotest.test_case "decompose respects allowed filter" `Quick decompose_respects_allowed;
    Alcotest.test_case "paper-mode prune keeps singletons under uniform costs" `Quick
      prune_uniform_keeps_singletons;
    Alcotest.test_case "prune budget guard" `Quick prune_budget_guard;
    Alcotest.test_case "prune keeps cheap conjunctions" `Quick prune_keeps_cheap_conjunctions;
  ]
