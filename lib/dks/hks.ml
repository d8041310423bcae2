module Graph = Bcc_graph.Graph
module Heap = Bcc_util.Heap
module Engine = Bcc_engine.Engine

type instance = { g : Graph.t; mult : int array; k : int; total : int }

let make ?mult g ~k =
  let n = Graph.n g in
  let mult = match mult with Some m -> Array.copy m | None -> Array.make n 1 in
  if Array.length mult <> n then invalid_arg "Hks.make: multiplicity length mismatch";
  Array.iter (fun m -> if m <= 0 then invalid_arg "Hks.make: non-positive multiplicity") mult;
  let total = Array.fold_left ( + ) 0 mult in
  { g; mult; k = max k 0; total }

let graph t = t.g
let multiplicities t = Array.copy t.mult
let k t = t.k
let total_copies t = t.total

type selection = int array

let copies sel = Array.fold_left ( + ) 0 sel

let value t sel =
  let acc = ref 0.0 in
  Graph.iter_edges t.g (fun u v w ->
      if sel.(u) > 0 && sel.(v) > 0 then
        acc :=
          !acc
          +. w
             *. (float_of_int sel.(u) /. float_of_int t.mult.(u))
             *. (float_of_int sel.(v) /. float_of_int t.mult.(v)));
  !acc

let feasible t sel =
  Array.length sel = Graph.n t.g
  && copies sel <= t.k
  && Array.for_all (fun ok -> ok) (Array.mapi (fun v s -> s >= 0 && s <= t.mult.(v)) sel)

(* Per-copy weight of the edge (u, v). *)
let pcw t u v w = w /. (float_of_int t.mult.(u) *. float_of_int t.mult.(v))

(* Per-copy weighted degree of [v] w.r.t. the selection [sel]. *)
let degree_into t sel v =
  Graph.fold_neighbors t.g v (fun acc u w -> acc +. (pcw t u v w *. float_of_int sel.(u))) 0.0

(* Dropping a copy of [v] leaves [v]'s own degree [d] unchanged (no self
   loops) and lowers each live neighbour's by its per-copy edge weight,
   so [v] keeps popping until a neighbour's falling degree passes (d, v)
   in the heap's (priority, key) order.  Each batch counts those copies
   with the very float steps that single pops would take, drops them
   together and re-keys every neighbour once, leaving the heap with the
   members a pop per copy would leave: the answer is bit-identical. *)
let peel t =
  let n = Graph.n t.g in
  let sel = Array.copy t.mult in
  let total = ref t.total in
  if !total <= t.k then sel
  else begin
    let heap = Heap.create n in
    let max_degree = ref 0 in
    for v = 0 to n - 1 do
      Heap.insert heap v (degree_into t sel v);
      max_degree := max !max_degree (Graph.degree t.g v)
    done;
    (* The popped node's live neighbours: id, degree step, degree. *)
    let nbr = Array.make !max_degree 0 in
    let step = Array.make !max_degree 0.0 in
    let deg = Array.make !max_degree 0.0 in
    while !total > t.k do
      match Heap.pop heap with
      | None -> total := t.k (* unreachable: heap tracks all nodes with copies *)
      | Some (v, d) ->
          let live = ref 0 in
          Graph.iter_neighbors t.g v (fun u w ->
              if Heap.mem heap u then begin
                nbr.(!live) <- u;
                step.(!live) <- -.pcw t u v w;
                deg.(!live) <- Heap.priority heap u;
                incr live
              end);
          let m = ref (min sel.(v) (!total - t.k)) in
          for i = 0 to !live - 1 do
            let p = ref deg.(i) and j = ref 1 in
            while !j < !m do
              p := !p +. step.(i);
              if !p < d || (!p = d && nbr.(i) < v) then m := !j else incr j
            done
          done;
          let m = !m in
          sel.(v) <- sel.(v) - m;
          total := !total - m;
          for i = 0 to !live - 1 do
            let p = ref deg.(i) in
            for _ = 1 to m do
              p := !p +. step.(i)
            done;
            Heap.update heap nbr.(i) !p
          done;
          if sel.(v) > 0 then Heap.insert heap v d
    done;
    sel
  end

let greedy_add t =
  let n = Graph.n t.g in
  let sel = Array.make n 0 in
  if t.k = 0 || n = 0 then sel
  else if t.k >= t.total then Array.copy t.mult
  else begin
    let remaining = ref t.k in
    let heap = Heap.create ~max:true n in
    let add_copy v =
      sel.(v) <- sel.(v) + 1;
      decr remaining;
      Graph.iter_neighbors t.g v (fun u w ->
          if Heap.mem heap u then Heap.add_to heap u (pcw t u v w))
    in
    for v = 0 to n - 1 do
      Heap.insert heap v 0.0
    done;
    (* Seed with the endpoints of the edge that is densest per copy. *)
    let best_edge = ref None in
    Graph.iter_edges t.g (fun u v w ->
        let d = pcw t u v w in
        match !best_edge with
        | Some (_, _, d') when d' >= d -> ()
        | _ -> best_edge := Some (u, v, d));
    (match !best_edge with
    | Some (u, v, _) when t.k >= 2 ->
        add_copy u;
        add_copy v
    | _ -> ());
    while !remaining > 0 do
      match Heap.pop heap with
      | None -> remaining := 0
      | Some (v, gain) ->
          if sel.(v) < t.mult.(v) then begin
            add_copy v;
            (* Adding a copy of [v] leaves [v]'s own marginal gain
               unchanged, so it can go straight back. *)
            if sel.(v) < t.mult.(v) then Heap.insert heap v gain
          end
    done;
    sel
  end

let spectral ?(iters = 60) t =
  let n = Graph.n t.g in
  let sel = Array.make n 0 in
  if t.k = 0 || n = 0 then sel
  else begin
    (* Power iteration on M x = (sum_u w(u,v)/mult(v) x_u) — the blown-up
       adjacency collapsed over interchangeable copies. *)
    let x = Array.make n (1.0 /. float_of_int n) in
    let y = Array.make n 0.0 in
    for _ = 1 to iters do
      Array.fill y 0 n 0.0;
      Graph.iter_edges t.g (fun u v w ->
          y.(v) <- y.(v) +. (w /. float_of_int t.mult.(v) *. x.(u));
          y.(u) <- y.(u) +. (w /. float_of_int t.mult.(u) *. x.(v)));
      let sq = ref 0.0 in
      for i = 0 to n - 1 do
        sq := !sq +. (y.(i) *. y.(i))
      done;
      let norm = sqrt !sq in
      if norm > 0.0 then
        for i = 0 to n - 1 do
          x.(i) <- y.(i) /. norm
        done
    done;
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare x.(b) x.(a)) order;
    let remaining = ref t.k in
    Array.iter
      (fun v ->
        if !remaining > 0 then begin
          let take = min t.mult.(v) !remaining in
          sel.(v) <- take;
          remaining := !remaining - take
        end)
      order;
    sel
  end

let local_search ?(max_rounds = 200) t sel0 =
  let n = Graph.n t.g in
  let sel = Array.copy sel0 in
  if n = 0 then sel
  else begin
    let deg = Array.init n (fun v -> degree_into t sel v) in
    (* The per-copy weights of the edges at this round's [v]; zero off
       its neighbours. *)
    let row = Array.make n 0.0 in
    let apply_delta v delta =
      sel.(v) <- sel.(v) + delta;
      Graph.iter_neighbors t.g v (fun u w ->
          deg.(u) <- deg.(u) +. (float_of_int delta *. pcw t u v w))
    in
    let improved = ref true in
    let rounds = ref 0 in
    while !improved && !rounds < max_rounds do
      Bcc_robust.Deadline.poll ();
      Bcc_robust.Fault.hit "hks.iter";
      improved := false;
      incr rounds;
      (* Cheapest selected copy to give up. *)
      let v_min = ref (-1) in
      for v = 0 to n - 1 do
        if sel.(v) > 0 && (!v_min < 0 || deg.(v) < deg.(!v_min)) then v_min := v
      done;
      if !v_min >= 0 then begin
        let v = !v_min in
        (* Best copy to take instead (correcting for the edge to [v]). *)
        let best_u = ref (-1) in
        let best_gain = ref neg_infinity in
        Graph.iter_neighbors t.g v (fun u w -> row.(u) <- pcw t u v w);
        for u = 0 to n - 1 do
          if u <> v && sel.(u) < t.mult.(u) then begin
            let gain = deg.(u) -. row.(u) in
            if gain > !best_gain then begin
              best_gain := gain;
              best_u := u
            end
          end
        done;
        Graph.iter_neighbors t.g v (fun u _ -> row.(u) <- 0.0);
        if !best_u >= 0 && !best_gain > deg.(v) +. 1e-12 then begin
          apply_delta v (-1);
          apply_delta !best_u 1;
          improved := true
        end
      end
    done;
    sel
  end

(* The heuristic arm portfolio, raced through the execution engine.
   Arms share [t] read-only and build their own selections, so they are
   safe on the [Domains] backend; ranking is by value with ties going to
   the earlier arm, exactly what the old sequential fold kept. *)
let solve t =
  let arm label f =
    Engine.Task.make ~label ~score:(value t) (fun _rng -> local_search t (f t))
  in
  let tasks =
    [ arm "hks.peel" peel; arm "hks.greedy" greedy_add; arm "hks.spectral" spectral ]
  in
  match Engine.Portfolio.best (Engine.default_pool ()) tasks with
  | Some r -> r.Engine.Portfolio.value
  | None -> Array.make (Graph.n t.g) 0
