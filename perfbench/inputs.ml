(* Seeded inputs.  Every input a workload hands the system is generated
   here, from the seed alone, and written out as text: instance text
   ({!Bcc_data.Io.to_string}), delta text ({!Bcc_store.Delta.to_string})
   and a request script.  The measured process only ever parses these
   files, so its set-up time and peak memory belong to the system, not
   to the generators. *)

module Rng = Bcc_util.Rng
module Zipf = Bcc_util.Zipf
module Io = Bcc_data.Io
module Delta = Bcc_store.Delta

(* The Section 6.2 budget sweep on P. *)
let sweep = [| 500.0; 1000.0; 2000.0; 4000.0; 8000.0 |]

(* Plan solves each P dataset at this many budgets of the sweep. *)
let budgets_per_dataset = 2

(* What-if budgets on BB: the Figure 3a range in 8 steps.  Set-up
   answers the first, so the timed phase has 7 cache misses: fewer than
   the 10 samples [tail_ms] leaves beyond it, so the tail measures the
   warm re-solves, not the spread of a few BB solve times. *)
let whatif_budgets = Array.init 8 (fun i -> 40.0 *. float_of_int (i + 1))

let batch_sep = "%%"

(* A clustered workload: each category has its own property namespace,
   so a delta confined to a few categories leaves every other
   category's overlap-graph component unchanged. *)
let clustered rng ~categories ~queries_per ~props_per =
  let buf = Buffer.create (categories * queries_per * 24) in
  Printf.bprintf buf "budget %d\n" (categories * 10);
  let prop c i = Printf.sprintf "c%dp%d" c i in
  for c = 0 to categories - 1 do
    for _ = 1 to queries_per do
      let k = 2 + Rng.int rng 2 in
      let props =
        List.sort_uniq compare (List.init k (fun _ -> prop c (Rng.int rng props_per)))
      in
      Printf.bprintf buf "query %s %d\n" (String.concat ";" props) (1 + Rng.int rng 20)
    done
  done;
  for c = 0 to categories - 1 do
    for i = 0 to props_per - 1 do
      Printf.bprintf buf "classifier %s %d\n" (prop c i) (1 + Rng.int rng 4);
      if i + 1 < props_per then
        Printf.bprintf buf "classifier %s;%s %d\n" (prop c i) (prop c (i + 1))
          (2 + Rng.int rng 3)
    done
  done;
  Buffer.contents buf

(* Category popularity: Zipf over ranks, with the rank -> category
   mapping shuffled per seed so the hot categories differ by seed. *)
let skewed_categories rng ~categories =
  let zipf = Zipf.create ~s:1.0 categories in
  let perm = Array.init categories Fun.id in
  Rng.shuffle rng perm;
  fun () -> perm.(Zipf.sample zipf rng)

(* One delta batch: [touch] distinct categories, each with four
   utility upserts and, with [reprice], one classifier re-price. *)
let batch rng draw ~touch ~reprice ~props_per =
  let rec pick acc =
    if List.length acc = touch then List.rev acc
    else
      let c = draw () in
      pick (if List.mem c acc then acc else c :: acc)
  in
  List.concat_map
    (fun c ->
      let p () = Printf.sprintf "c%dp%d" c (Rng.int rng props_per) in
      let props () =
        let a = p () and b = p () in
        if a = b then [ a ] else List.sort compare [ a; b ]
      in
      List.init 4 (fun _ -> Delta.Upsert (props (), float_of_int (5 + Rng.int rng 15)))
      @ if reprice then [ Delta.Set_cost ([ p () ], float_of_int (1 + Rng.int rng 5)) ] else [])
    (pick [])

let batches rng ~categories ~touch ~reprice ~props_per n =
  let draw = skewed_categories rng ~categories in
  List.init n (fun _ -> Delta.to_string (batch rng draw ~touch ~reprice ~props_per))
  |> String.concat (batch_sep ^ "\n")

let split_batches text =
  let flush cur acc = String.concat "\n" (List.rev cur) :: acc in
  let rec go cur acc = function
    | [] -> List.rev (flush cur acc)
    | l :: rest when l = batch_sep -> go [] (flush cur acc) rest
    | l :: rest -> go (l :: cur) acc rest
  in
  if text = "" then [] else go [] [] (String.split_on_char '\n' text)

(* [tiny] shrinks every input for the benchmark's own smoke test; the
   measured configuration is the full size. *)
let categories ~tiny full = if tiny then 12 else full
let queries_per = 40
let props_per = 8

(* Serve's request script: one step per line, "whatif B", "delta" (a
   batch followed by a warm re-solve) or "read".  Budgets are drawn
   with skew, so most what-ifs repeat an earlier question. *)
let script rng ~steps =
  let zipf = Zipf.create ~s:1.0 (Array.length whatif_budgets) in
  let perm = Array.init (Array.length whatif_budgets) Fun.id in
  Rng.shuffle rng perm;
  let buf = Buffer.create (steps * 12) in
  let deltas = ref 0 in
  for _ = 1 to steps do
    let u = Rng.float rng 1.0 in
    if u < 0.60 then
      Printf.bprintf buf "whatif %g\n" whatif_budgets.(perm.(Zipf.sample zipf rng))
    else if u < 0.85 then begin
      incr deltas;
      Buffer.add_string buf "delta\n"
    end
    else Buffer.add_string buf "read\n"
  done;
  (Buffer.contents buf, !deltas)

(* The files of one workload's inputs, as (file name, contents). *)
let generate ~workload ~seed ~ops ~tiny =
  let rng k = Rng.derive (Rng.create seed) k in
  match workload with
  | "plan" ->
      (* Solve time differs a lot between P datasets, so a run plans
         many of them, each at a few budgets, and their mix, not one
         draw, sets its time. *)
      let params =
        if tiny then
          { Bcc_data.Private_like.default_params with num_queries = 300; num_properties = 150;
            num_anchors = 40 }
        else Bcc_data.Private_like.default_params
      in
      List.init (max 1 (ops / budgets_per_dataset)) (fun i ->
          ( Printf.sprintf "instance-%d.txt" i,
            Io.to_string
              (Bcc_data.Private_like.generate ~params ~seed:((seed * 64) + i) ~budget:sweep.(0)
                 ()) ))
  | "scale" ->
      let params =
        if tiny then
          { Bcc_data.Synthetic.default_params with num_queries = 2000; num_properties = 400 }
        else Bcc_data.Synthetic.default_params
      in
      [ ("instance-0.txt",
         Io.to_string (Bcc_data.Synthetic.generate ~params ~seed ~budget:5000.0 ())) ]
  | "drift" ->
      let categories = categories ~tiny 300 in
      [
        ("workload.txt", clustered (rng 1) ~categories ~queries_per ~props_per);
        ("deltas.txt", batches (rng 2) ~categories ~touch:4 ~reprice:true ~props_per ops);
      ]
  | "serve" ->
      let categories = categories ~tiny 144 in
      let params =
        if tiny then { Bcc_data.Bestbuy.default_params with num_queries = 100; num_properties = 80 }
        else Bcc_data.Bestbuy.default_params
      in
      let script, deltas = script (rng 3) ~steps:ops in
      [
        ("bb.txt", Io.to_string (Bcc_data.Bestbuy.generate ~params ~seed ~budget:160.0 ()));
        ("workload.txt", clustered (rng 1) ~categories ~queries_per ~props_per);
        (* Serve's batches are pure utility drift, one category each.  A
           re-price makes about one warm re-solve in thirty take three
           times as long; with the ~10 of those a run would hold sitting
           exactly at [tail_ms]'s rank, the tail swung by a fifth between
           seeds.  drift keeps re-prices. *)
        ("deltas.txt", batches (rng 2) ~categories ~touch:1 ~reprice:false ~props_per deltas);
        ("script.txt", script);
      ]
  | w -> invalid_arg ("unknown workload " ^ w)

(* Write the inputs for (workload, seed, ops) to a fresh directory
   under the work directory and return it. *)
let write ~workload ~seed ~ops ~tiny =
  let dir =
    Filename.concat Common.work_dir (Printf.sprintf "inputs/%s-%d" workload (Unix.getpid ()))
  in
  Common.rm_rf dir;
  Common.mkdir_p dir;
  List.iter
    (fun (name, text) -> Common.write_file (Filename.concat dir name) text)
    (generate ~workload ~seed ~ops ~tiny);
  dir
