type t = {
  mutable size : int;
  keys : int array; (* slot -> key *)
  pos : int array; (* key -> slot, or -1 when absent *)
  prio : float array; (* key -> priority *)
  sign : float; (* +1 for min-heap, -1 for max-heap *)
}

let create ?(max = false) capacity =
  if capacity < 0 then invalid_arg "Heap.create";
  {
    size = 0;
    keys = Array.make (Stdlib.max capacity 1) (-1);
    pos = Array.make (Stdlib.max capacity 1) (-1);
    prio = Array.make (Stdlib.max capacity 1) 0.0;
    sign = (if max then -1.0 else 1.0);
  }

let size t = t.size
let is_empty t = t.size = 0
let mem t key = key >= 0 && key < Array.length t.pos && t.pos.(key) >= 0

let priority t key =
  if not (mem t key) then raise Not_found;
  t.prio.(key) *. t.sign

(* Internal priorities are stored pre-multiplied by [sign] so the heap
   invariant is always "parent <= child". *)

let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  t.keys.(i) <- kj;
  t.keys.(j) <- ki;
  t.pos.(kj) <- i;
  t.pos.(ki) <- j

(* The heap order: internal priority, then key.  Keys are unique, so
   this is a strict total order and the pop sequence depends on the
   members alone, never on how earlier operations left the slots. *)
let before t a b =
  let pa = t.prio.(a) and pb = t.prio.(b) in
  pa < pb || (pa = pb && a < b)

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t t.keys.(i) t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t t.keys.(l) t.keys.(!smallest) then smallest := l;
  if r < t.size && before t t.keys.(r) t.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let insert t key p =
  if key < 0 || key >= Array.length t.pos then invalid_arg "Heap.insert: key out of range";
  if t.pos.(key) >= 0 then invalid_arg "Heap.insert: key already present";
  t.prio.(key) <- p *. t.sign;
  t.keys.(t.size) <- key;
  t.pos.(key) <- t.size;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let update t key p =
  if not (mem t key) then insert t key p
  else begin
    let old = t.prio.(key) in
    t.prio.(key) <- p *. t.sign;
    let i = t.pos.(key) in
    if t.prio.(key) < old then sift_up t i else sift_down t i
  end

let add_to t key d =
  if mem t key then update t key ((t.prio.(key) *. t.sign) +. d) else insert t key d

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.prio.(t.keys.(0)) *. t.sign)

let remove_at t i =
  let key = t.keys.(i) in
  t.size <- t.size - 1;
  if i <> t.size then begin
    let last = t.keys.(t.size) in
    t.keys.(i) <- last;
    t.pos.(last) <- i;
    t.pos.(key) <- -1;
    (* The moved element may need to go either way. *)
    sift_up t i;
    sift_down t (t.pos.(last))
  end
  else t.pos.(key) <- -1;
  key

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(t.keys.(0)) *. t.sign in
    let key = remove_at t 0 in
    Some (key, p)
  end

let remove t key =
  if not (mem t key) then false
  else begin
    ignore (remove_at t t.pos.(key));
    true
  end

let to_sorted_list t =
  List.init t.size (Array.get t.keys)
  |> List.sort (fun a b -> if a = b then 0 else if before t a b then -1 else 1)
  |> List.map (fun k -> (k, t.prio.(k) *. t.sign))
