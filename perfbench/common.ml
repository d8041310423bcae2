(* Helpers shared by the benchmark's orchestrator and its measured
   processes: files, clocks, memory probes, order statistics. *)

module Timer = Bcc_util.Timer

let now = Timer.now_s

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Everything the benchmark writes lives under this directory of the
   checkout it runs in. *)
let work_dir = ".perfbench"

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Bytes allocated by this domain so far (minor + direct major), the
   counter the allocation probes difference. *)
let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)

let mb bytes = bytes /. 1048576.0

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* What one measured process reports. *)
type result = {
  setup_s : float list;  (** one per set-up *)
  lat_s : float list;  (** one per timed operation *)
  utility : float;  (** summed over the answers of the timed phase *)
  attempted : int;
  failed : int;  (** operations whose answer failed its check *)
  peak_rss_mb : float;  (** of the process that solves *)
  layers : (string * float) list;  (** per-layer metrics; traced runs only *)
}

(* Set-ups per run, half before the timed phase and half after it, so
   [setup_s] (their median) samples both ends of the run rather than
   one moment of the host's speed. *)
let setups_before = 2
let setups_after = 2

let timed_setup f =
  let t0 = now () in
  let s = f () in
  (s, now () -. t0)

(* The set-ups before the timed phase; the last one is kept and
   [dispose] releases each earlier one before the next starts, outside
   the timing. *)
let set_up ?(dispose = ignore) f =
  let rec go i times prev =
    Option.iter dispose prev;
    let s, dt = timed_setup f in
    if i + 1 = setups_before then (s, List.rev (dt :: times)) else go (i + 1) (dt :: times) (Some s)
  in
  go 0 [] None

(* The set-ups after the timed phase, each released at once. *)
let set_up_after ?(dispose = ignore) f =
  List.init setups_after (fun _ ->
      let s, dt = timed_setup f in
      dispose s;
      dt)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile that leaves at least ten samples above it:
   the sample at sorted index n-11, reported as percentile 100(n-10)/n.
   Below eleven samples no such percentile exists and the maximum is
   reported (percentile 100). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0.0, 100.0)
  else if n < 11 then (a.(n - 1), 100.0)
  else (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

(* A fixed CPU-bound kernel owned by the benchmark (an integer mixing
   loop over a 1 MiB array).  Its time before and after a run shows a
   slow host episode in the run record. *)
let kernel_ms () =
  let once () =
    let a = Array.init 131072 (fun i -> i) in
    let t0 = now () in
    let acc = ref 0 in
    for r = 1 to 60 do
      for i = 0 to Array.length a - 1 do
        let v = (a.(i) * 0x9E3779B1) lxor (!acc lsr 7) + r in
        a.(i) <- v land 0xFFFFFF;
        acc := !acc + a.((v land 0x1FFFF))
      done
    done;
    let dt = now () -. t0 in
    ignore (Sys.opaque_identity !acc);
    1000.0 *. dt
  in
  median (List.init 3 (fun _ -> once ()))

(* The environment handed to every process the benchmark starts:
   variables that change how the solver or the runtime behaves are
   dropped, so the job count and fault plan are the benchmark's own. *)
let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"BCC_" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> Array.of_list
