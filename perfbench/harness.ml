(* Measurement plumbing shared by the workloads: the clock, order
   statistics, operation accounting, exact-count reconciliation, layer
   spans and probes, temporary directories and the result line.

   Everything here runs outside the library except two reads: the
   Obs.Metrics registry (for exact work counts) and Obs.Trace (whose
   spans a traced run opens around the same public calls an untraced run
   makes). *)

module Metrics = Dcs.Obs.Metrics
module Trace = Dcs.Obs.Trace

(* ---------------------------------------------------------------- *)
(* Clock                                                             *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Process CPU seconds, every domain included. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------------------------------------------------------------- *)
(* Order statistics                                                  *)

(* Linear interpolation between closest ranks (Python's
   [statistics.quantiles(..., method='inclusive')], numpy's default). *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Percentiles a tail may be reported at, in tenths of a percent,
   highest first. *)
let tail_ladder = [ 999; 990; 950; 900; 750; 500 ]

(* Samples strictly above the [p10]/10-th percentile of [n]: all but the
   ceil(n·p) at or below it. Integer arithmetic, so that 99% of 1000 is
   exactly 990. *)
let beyond ~n p10 = n - (((p10 * n) + 999) / 1000)

(* The highest percentile of the ladder that has at least ten samples
   beyond it, in tenths of a percent; [None] below 20 samples. *)
let tail_percentile n = List.find_opt (fun p -> beyond ~n p >= 10) tail_ladder

let percentile_label p10 =
  if p10 mod 10 = 0 then Printf.sprintf "p%d" (p10 / 10)
  else Printf.sprintf "p%d.%d" (p10 / 10) (p10 mod 10)

(* ---------------------------------------------------------------- *)
(* Series                                                            *)

(* Named observations, appended in order. Times are milliseconds. *)
let series : (string, float list ref) Hashtbl.t = Hashtbl.create 32

let record name v =
  match Hashtbl.find_opt series name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add series name (ref [ v ])

let values name =
  match Hashtbl.find_opt series name with
  | Some l -> Array.of_list (List.rev !l)
  | None -> [||]

let clear_series () = Hashtbl.reset series

let series_names () =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) series [])

(* One human-readable line: count, median, quartiles and the tail. *)
let describe name unit =
  let v = values name in
  let n = Array.length v in
  let tail =
    match tail_percentile n with
    | Some p ->
        Printf.sprintf "%s=%.4g" (percentile_label p)
          (quantile v (float_of_int p /. 1000.0))
    | None -> "tail=none(n<20)"
  in
  Printf.sprintf "series %s n=%d%s p50=%.4g p25=%.4g p75=%.4g %s" name n
    (if unit = "" then "" else " " ^ unit)
    (median v) (quantile v 0.25) (quantile v 0.75) tail

(* ---------------------------------------------------------------- *)
(* Operation accounting                                              *)

let attempted = ref 0
let failed = ref 0
let self_failed = ref 0

let complain msg =
  if !failed + !self_failed <= 10 then prerr_endline ("perfbench: " ^ msg)

(* One operation attempted; [ok] false counts it failed. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      incr attempted;
      if not ok then begin
        incr failed;
        complain msg
      end)
    fmt

(* A check of the harness itself (count reconciliation, decomposition):
   failing one makes the run incorrect without being an operation. *)
let self_check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr self_failed;
        complain msg
      end)
    fmt

(* ---------------------------------------------------------------- *)
(* Exact counts                                                      *)

module Counts = struct
  type t = (string * int) list
  (** Nonzero counter deltas, sorted by name. *)

  let read () =
    List.filter_map
      (function name, Metrics.Counter_v v -> Some (name, v) | _ -> None)
      (Metrics.snapshot ())

  let diff before after =
    List.filter_map
      (fun (name, v) ->
        let v0 = Option.value ~default:0 (List.assoc_opt name before) in
        if v <> v0 then Some (name, v - v0) else None)
      after

  let get (c : t) name = Option.value ~default:0 (List.assoc_opt name c)

  let add (a : t) (b : t) =
    let names = List.sort_uniq compare (List.map fst a @ List.map fst b) in
    List.map (fun n -> (n, get a n + get b n)) names

  let to_string (c : t) =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %d" k v) c)
    ^ "}"

  (* Every counter whose delta differs, as "name ref->got". *)
  let mismatches (reference : t) (got : t) =
    let names =
      List.sort_uniq compare (List.map fst reference @ List.map fst got)
    in
    List.filter_map
      (fun n ->
        let r = get reference n and g = get got n in
        if r = g then None else Some (Printf.sprintf "%s %d->%d" n r g))
      names

  (* Reference deltas per op position. The first sighting of a key
     records it; every later one must repeat it exactly. *)
  type book = (string, t) Hashtbl.t

  let book () : book = Hashtbl.create 64

  let reconcile (book : book) ~key (got : t) =
    match Hashtbl.find_opt book key with
    | None ->
        Hashtbl.add book key got;
        Ok ()
    | Some reference -> (
        match mismatches reference got with
        | [] -> Ok ()
        | ms -> Error (Printf.sprintf "%s: %s" key (String.concat ", " ms)))
end

(* ---------------------------------------------------------------- *)
(* Ops, layers and probes                                            *)

type kind = Op | Aux

let kind_name = function Op -> "op" | Aux -> "aux"

(* Per-run state the workloads reach through [op], [layer] and
   [probe]. [domains] is the workload's explicit domain count. *)
let domains = ref 1
let traced = ref false
let book = Counts.book ()

(* Op positions within the current cycle, and the cycle's count totals
   per kind. *)
let positions = Hashtbl.create 2
let cycle_counts = Hashtbl.create 2

(* Top-level layer time inside the running op (ms), for the share of
   the op its layer spans leave unaccounted. *)
let in_op = ref false
let op_layer_ms = ref 0.0
let layer_depth = ref 0

let begin_cycle () =
  Hashtbl.reset positions;
  Hashtbl.reset cycle_counts

let counts_of_cycle kind =
  Option.value ~default:[] (Hashtbl.find_opt cycle_counts kind)

let next_position kind =
  let i = Option.value ~default:0 (Hashtbl.find_opt positions kind) in
  Hashtbl.replace positions kind (i + 1);
  i

(* The series an op kind's wall times go to; traced ops keep their own. *)
let op_series kind = (if !traced then "traced." else "") ^ kind_name kind ^ "_ms"

(* One timed operation of the closed loop. Wall time goes to the kind's
   series; the registry's counter deltas over exactly [f] must repeat
   those of the same position in the reference cycle. *)
let op kind f =
  let key = Printf.sprintf "%s#%d" (kind_name kind) (next_position kind) in
  let c0 = Counts.read () in
  in_op := true;
  op_layer_ms := 0.0;
  let cpu0 = cpu_seconds () in
  let r, s =
    Fun.protect ~finally:(fun () -> in_op := false) (fun () -> timed f)
  in
  let cpu = cpu_seconds () -. cpu0 in
  let delta = Counts.diff c0 (Counts.read ()) in
  let ms = 1e3 *. s in
  record (op_series kind) ms;
  if kind = Op then begin
    record "cpu_util" (cpu /. (s *. float_of_int !domains));
    if !traced then record "unaccounted" (1.0 -. (!op_layer_ms /. ms))
  end;
  (match Counts.reconcile book ~key delta with
  | Ok () -> ()
  | Error e ->
      self_check false "counts of %s differ from the reference cycle (%s)"
        (if !traced then "a traced op" else "an op")
        e);
  Hashtbl.replace cycle_counts kind (Counts.add (counts_of_cycle kind) delta);
  r

(* Time spent by a layer inside the running op, charged to its
   accounted share; for layers timed by hand (per pool task). *)
let account_layer_ms ms = if !in_op && !layer_depth = 0 then op_layer_ms := !op_layer_ms +. ms

(* [cycle ()] with tracing on: layer spans and probes run. *)
let traced_cycle cycle () =
  traced := true;
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      traced := false;
      Trace.disable ())
    cycle

(* A call into one layer. Untraced, exactly [f ()]; traced, [f] runs in
   an Obs.Trace span and its wall time goes to the series [name]. *)
let layer name f =
  if not !traced then f ()
  else begin
    let depth = !layer_depth in
    layer_depth := depth + 1;
    let r, s =
      Fun.protect
        ~finally:(fun () -> layer_depth := depth)
        (fun () -> timed (fun () -> Trace.with_span name f))
    in
    let ms = 1e3 *. s in
    record name ms;
    if depth = 0 then account_layer_ms ms;
    r
  end

(* A call made only by the traced run, outside every op, to explain a
   layer the op calls internally. Its answer is never required to match
   the op's; a probe that raises is reported and skipped. *)
let probe name f =
  if not !traced then None
  else
    match layer name f with
    | v -> Some v
    | exception e ->
        Printf.printf "probe %s raised %s\n" name (Printexc.to_string e);
        None

(* ---------------------------------------------------------------- *)
(* Host-speed probe                                                  *)

(* A fixed pure-OCaml loop with no library calls and no allocation: a
   xorshift walk over a 64 KiB array. Timed between cycles so a reader
   can tell host drift from a program change; never used to scale a
   metric. *)
let probe_cells = Array.make 8192 0

let host_loop () =
  let x = ref 0x2545F491 in
  for i = 1 to 1_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 8191 in
    probe_cells.(j) <- probe_cells.(j) + i
  done

let host_probe () =
  let (), s = timed host_loop in
  record "host_ms" (1e3 *. s)

(* CPU time the hypervisor gave to other guests, in seconds summed over
   every CPU: the steal column of /proc/stat (0 where there is none). *)
let steal_seconds () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.0
      | _ -> 0.0)
  | None -> 0.0
  | exception Sys_error _ -> 0.0

(* ---------------------------------------------------------------- *)
(* Temporary directories                                             *)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f dir] in a fresh directory under [parent], removed however [f]
   exits. *)
let with_temp_dir ~parent prefix f =
  let dir = Filename.temp_dir ~temp_dir:parent prefix "" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then remove_tree dir)
    (fun () -> f dir)

(* ---------------------------------------------------------------- *)
(* Memory                                                            *)

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(* ---------------------------------------------------------------- *)
(* Result line                                                       *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (json_number m.value) m.unit)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed m
