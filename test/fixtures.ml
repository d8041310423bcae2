(* Shared test fixtures: the paper's worked examples and random-instance
   generators used across suites. *)

module Propset = Bcc_core.Propset
module Instance = Bcc_core.Instance
module Rng = Bcc_util.Rng

let ps = Propset.of_list

(* Figure 1: Q = {xyz, xz, xy}; U = 8/1/2; C(X)=5, C(Y)=C(Z)=C(XYZ)=3,
   C(XZ)=4, C(YZ)=0, C(XY)=inf.  Properties x=0, y=1, z=2. *)
let figure1 ~budget =
  let x = 0 and y = 1 and z = 2 in
  let queries =
    [| (ps [ x; y; z ], 8.0); (ps [ x; z ], 1.0); (ps [ x; y ], 2.0) |]
  in
  let cost c =
    if Propset.equal c (ps [ x ]) then 5.0
    else if Propset.equal c (ps [ y ]) then 3.0
    else if Propset.equal c (ps [ z ]) then 3.0
    else if Propset.equal c (ps [ x; y; z ]) then 3.0
    else if Propset.equal c (ps [ x; z ]) then 4.0
    else if Propset.equal c (ps [ y; z ]) then 0.0
    else if Propset.equal c (ps [ x; y ]) then infinity
    else infinity
  in
  Instance.create ~name:"figure1" ~budget ~queries ~cost ()

(* Figure 2: Q = {xy, yz, xz}; U(xy)=2, U(yz)=1, U(xz)=1;
   C(X)=C(Y)=1, C(Z)=2, C(XY)=2, C(YZ)=1, C(XZ)=1; budget 2. *)
let figure2 ~budget =
  let x = 0 and y = 1 and z = 2 in
  let queries = [| (ps [ x; y ], 2.0); (ps [ y; z ], 1.0); (ps [ x; z ], 1.0) |] in
  let cost c =
    if Propset.equal c (ps [ x ]) then 1.0
    else if Propset.equal c (ps [ y ]) then 1.0
    else if Propset.equal c (ps [ z ]) then 2.0
    else if Propset.equal c (ps [ x; y ]) then 2.0
    else if Propset.equal c (ps [ y; z ]) then 1.0
    else if Propset.equal c (ps [ x; z ]) then 1.0
    else infinity
  in
  Instance.create ~name:"figure2" ~budget ~queries ~cost ()

(* Small random instances for oracle comparisons. *)
let random_instance ?(max_len = 3) ?(num_props = 6) ?(num_queries = 6) ~seed ~budget () =
  let rng = Rng.create seed in
  let queries =
    Array.init num_queries (fun _ ->
        let len = 1 + Rng.int rng max_len in
        let props = Rng.sample_without_replacement rng (min len num_props) num_props in
        (Propset.of_array props, float_of_int (1 + Rng.int rng 9)))
  in
  let cost c =
    let h = Rng.create ((Propset.hash c * 131) lxor seed) in
    match Rng.int h 12 with
    | 0 -> 0.0
    | 11 -> infinity
    | k -> float_of_int k
  in
  Instance.create ~name:"random" ~budget ~queries ~cost ()

let random_graph ~seed ~n ~density ~max_cost ~max_weight =
  let rng = Rng.create seed in
  let b = Bcc_graph.Graph.builder n in
  for v = 0 to n - 1 do
    Bcc_graph.Graph.set_node_cost b v (float_of_int (1 + Rng.int rng max_cost))
  done;
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < density then
        Bcc_graph.Graph.add_edge b u v (float_of_int (1 + Rng.int rng max_weight))
    done
  done;
  Bcc_graph.Graph.build b

(* An instance seen through its accessors, for comparing two builds bit
   for bit.  [id_of] stands for [Instance.classifier_id]. *)
type view = {
  name : string;
  budget : float;
  queries : Propset.t array;
  utilities : float array;
  classifiers : Propset.t array;
  costs : float array;
  id_of : Propset.t -> int option;
  subsets : int array;  (* (id lsl 16) lor mask, as the index packs them *)
  subsets_start : int array;
  containing : int array array;
  num_properties : int;
  max_length : int;
}

let view inst =
  let nq = Instance.num_queries inst and ncl = Instance.num_classifiers inst in
  let n_entries = if nq = 0 then 0 else Instance.subsets_end inst (nq - 1) in
  {
    name = Instance.name inst;
    budget = Instance.budget inst;
    queries = Array.init nq (Instance.query inst);
    utilities = Array.init nq (Instance.utility inst);
    classifiers = Array.init ncl (Instance.classifier inst);
    costs = Array.init ncl (Instance.cost inst);
    id_of = Instance.classifier_id inst;
    subsets =
      Array.init n_entries (fun k ->
          (Instance.subset_id inst k lsl 16) lor Instance.subset_mask inst k);
    subsets_start =
      Array.init (nq + 1) (fun qi -> if qi = nq then n_entries else Instance.subsets_begin inst qi);
    containing = Array.init ncl (Instance.queries_containing inst);
    num_properties = Instance.num_properties inst;
    max_length = Instance.max_length inst;
  }

(* The first accessor on which two views differ, or [None].  Floats
   compare bit for bit, so -0.0 differs from 0.0; [probes] are the sets
   whose classifier id (and hence [cost_of]) must agree as well. *)
let view_diff ~probes (a : view) (b : view) =
  let same_floats x y =
    Array.length x = Array.length y
    && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) x y
  in
  let sets x y = Array.length x = Array.length y && Array.for_all2 Propset.equal x y in
  let checks =
    [
      ("name", a.name = b.name);
      ("budget", same_floats [| a.budget |] [| b.budget |]);
      ("queries", sets a.queries b.queries);
      ("utilities", same_floats a.utilities b.utilities);
      ("classifiers", sets a.classifiers b.classifiers);
      ("costs", same_floats a.costs b.costs);
      ("subset index", a.subsets = b.subsets && a.subsets_start = b.subsets_start);
      ("containment index", a.containing = b.containing);
      ("num_properties", a.num_properties = b.num_properties);
      ("max_length", a.max_length = b.max_length);
    ]
  in
  match List.find_opt (fun (_, ok) -> not ok) checks with
  | Some (what, _) -> Some what
  | None ->
      List.find_map
        (fun c ->
          if a.id_of c = b.id_of c then None
          else Some ("classifier_id " ^ Propset.to_string c))
        probes

(* Every non-empty subset of the views' queries and every classifier:
   the sets whose lookup a build decides. *)
let probes views =
  let tbl = Propset.Tbl.create 64 in
  List.iter
    (fun (v : view) ->
      Array.iter
        (fun q -> List.iter (fun c -> Propset.Tbl.replace tbl c ()) (Propset.subsets q))
        v.queries;
      Array.iter (fun c -> Propset.Tbl.replace tbl c ()) v.classifiers)
    views;
  Propset.Tbl.fold (fun c () acc -> c :: acc) tbl []
