(* perfbench — the benchmark of the min-cut, decode and serve/ingest
   pipelines.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR

   Each workload is one process and a closed loop with one client: a
   fixed cycle of timed operations repeated until S seconds of cycles
   have run. Inputs are a pure function of --seed; every library call
   gets the workload's domain count explicitly. The first cycle is an
   untimed warm-up whose registry counter deltas become the reference:
   every later op must repeat its position's counts exactly, traced or
   not.

   --trace 0 reports the end-to-end metrics (README.md). --trace 1
   alternates untraced cycles with the same cycles run with Obs.Trace
   spans around the layer calls and probes between them, and reports the
   per-layer metrics.

   Human-readable lines come first; the last line of stdout is one JSON
   object {correct, attempted, failed, metrics}. *)

open Harness

module type WORKLOAD = sig
  type t

  val domains : int
  val setup : seed:int -> tmp:string -> t
  val cycle : t -> unit
  val layers : t -> metric list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("mincut", (module Bench_mincut));
    ("decode", (module Bench_decode));
    ("serve_ingest", (module Bench_serve_ingest));
  ]

(* Every per-layer metric of BENCHMARK.json, with its unit. A traced run
   prints all of them; a layer its workload never calls reads 0. *)
let per_layer =
  [
    ("graph.freeze_ms", "ms"); ("sketch.strength_ms", "ms");
    ("sketch.connectivity_ms", "ms"); ("solve.mincut_ms", "ms");
    ("solve.sparsify_ms", "ms"); ("mincut.karger_h_ms", "ms");
    ("solve.certify_ms", "ms"); ("sketch.connectivity_dir_ms", "ms");
    ("solve.st_mincut_ms", "ms"); ("pool.cpu_util", "ratio");
    ("conn.by_weight", "count"); ("conn.by_strength", "count");
    ("conn.by_triangle", "count"); ("conn.flows", "count");
    ("conn.budgeted", "count"); ("csr.builds", "count");
    ("pool.tasks", "count"); ("pool.batched_calls", "count");
    ("partial.fallbacks", "count"); ("solve.kept_frac", "ratio");
    ("lower.forall_decode_ms", "ms"); ("graph.cut_delta_per_s", "1/s");
    ("csr.cut_delta", "count"); ("csr.flip_sweep_calls", "count");
    ("csr.cut_full", "count"); ("sketch.exact_sketch_ms", "ms");
    ("lower.foreach_decode_ms", "ms"); ("foreach_lb.cut_queries", "count");
    ("serve.cache_hit_rate", "ratio"); ("serve.cache_misses", "count");
    ("serve.cache_evictions", "count"); ("serve.batches", "count");
    ("pool.supervised_rounds", "count"); ("pool.supervised_tasks", "count");
    ("serve.virtual_p99_ticks", "ticks"); ("stream.apply_ms", "ms");
    ("stream.freeze_ms", "ms"); ("serve.update_graph_ms", "ms");
    ("stream.wal_appends", "count"); ("csr.compactions", "count");
    ("wal.scan_ms", "ms"); ("stream.recover_ms", "ms");
    ("trace.overhead_frac", "ratio"); ("trace.unaccounted_frac", "ratio");
    ("host.probe_ms", "ms"); ("host.steal_frac", "ratio");
  ]

(* Set-ups per end-to-end run; [setup_s] is their median. *)
let setups = 9

(* Cycles until they have taken [seconds], at least two of them;
   [between] runs after each cycle, outside the budget, and so does the
   host probe. *)
let run_for ?(between = ignore) cycle ~seconds =
  let busy = ref 0.0 and cycles = ref 0 in
  while !cycles < 2 || !busy < seconds do
    begin_cycle ();
    let (), s = timed cycle in
    busy := !busy +. s;
    incr cycles;
    host_probe ();
    between ()
  done;
  !cycles

let print_counts () =
  List.iter
    (fun k ->
      Printf.printf "counts %s per cycle %s\n" (kind_name k)
        (Counts.to_string (counts_of_cycle k)))
    [ Op; Aux ]

let print_series names = List.iter (fun (n, u) -> print_endline (describe n u)) names

let run (module W : WORKLOAD) ~name ~seed ~seconds ~trace ~tmp =
  domains := W.domains;
  Printf.printf
    "context workload=%s seed=%d seconds=%g trace=%d domains=%d cores=%d ocaml=%s\n%!"
    name seed seconds trace W.domains
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  (* Inputs are a pure function of the seed, so every set-up builds an
     identical instance; a new one replaces the old, which is collected
     outside the timing so each set-up starts from the same heap. *)
  let setup_s = ref [] and current = ref None in
  let set_up () =
    current := None;
    Gc.full_major ();
    let i, s = timed (fun () -> W.setup ~seed ~tmp) in
    setup_s := s :: !setup_s;
    current := Some i
  in
  set_up ();
  let cycle () = W.cycle (Option.get !current) in
  (* Warm-up: fills caches and the count book; its times are dropped. *)
  begin_cycle ();
  let (), warm_s = timed cycle in
  Printf.printf "warmup_s %.4f\n" warm_s;
  print_counts ();
  clear_series ();
  let steal0 = steal_seconds () and wall0 = now () in
  (* Share of the host's CPU time the hypervisor gave elsewhere. *)
  let steal_frac () =
    (steal_seconds () -. steal0)
    /. ((now () -. wall0) *. float_of_int (Domain.recommended_domain_count ()))
  in
  let metrics =
    if trace = 0 then begin
      let more () = if List.length !setup_s < setups then set_up () in
      let cycles = run_for ~between:more cycle ~seconds in
      while List.length !setup_s < setups do
        set_up ()
      done;
      let setup_s = Array.of_list (List.rev !setup_s) in
      Printf.printf "cycles %d\nsetup_s %s\n" cycles
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_s)));
      print_series
        [ ("op_ms", "ms"); ("aux_ms", "ms"); ("cpu_util", "ratio"); ("host_ms", "ms") ];
      Printf.printf "host steal_frac %.4f\n" (steal_frac ());
      [
        metric "op_p50_ms" "ms" (median (values "op_ms"));
        metric "aux_p50_ms" "ms" (median (values "aux_ms"));
        metric "setup_s" "s" (median setup_s);
        metric "peak_rss_mb" "MB" (peak_rss_mb ());
      ]
    end
    else begin
      (* Untraced and traced cycles alternate, so both see the same host. *)
      Trace.reset ();
      let pairs =
        run_for
          (fun () ->
            cycle ();
            begin_cycle ();
            traced_cycle cycle ())
          ~seconds
      in
      Printf.printf "cycle pairs %d (untraced, traced)\n" pairs;
      print_counts ();
      List.iter
        (fun (s : Trace.stat) ->
          Printf.printf "span %s count=%d total_s=%.6f self_s=%.6f\n" s.name s.count
            s.total_s s.self_s)
        (Trace.stats ());
      List.iter (fun name -> print_endline (describe name "")) (series_names ());
      let measured =
        W.layers (Option.get !current)
        @ [
            metric "trace.overhead_frac" "ratio"
              ((median (values "traced.op_ms") /. median (values "op_ms")) -. 1.0);
            metric "trace.unaccounted_frac" "ratio" (median (values "unaccounted"));
            metric "host.probe_ms" "ms" (median (values "host_ms"));
            metric "host.steal_frac" "ratio" (steal_frac ());
          ]
      in
      List.iter
        (fun (m : metric) ->
          self_check (List.mem_assoc m.name per_layer)
            "metric %s is not in the per-layer list" m.name;
          self_check (Float.is_finite m.value) "metric %s is not a number" m.name)
        measured;
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (m : metric) -> m.name = name) measured with
          | Some m when Float.is_finite m.value -> m
          | _ -> metric name unit 0.0)
        per_layer
    end
  in
  List.iter
    (fun (m : metric) -> Printf.printf "metric %s %.6g %s\n" m.name m.value m.unit)
    metrics;
  Printf.printf "ops attempted %d, failed %d; harness checks failed %d\n" !attempted !failed
    !self_failed;
  let correct = !failed = 0 && !self_failed = 0 in
  print_endline (json_result ~correct ~attempted:!attempted ~failed:!failed metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref (-1) and tmp = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds of measured cycles");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--tmp", Arg.Set_string tmp, "DIR parent of the temporary journals");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some _ when !tmp = "" || (!trace <> 0 && !trace <> 1) ->
      prerr_endline "perfbench: --tmp DIR and --trace 0|1 are required";
      exit 2
  | Some w ->
      run w ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~tmp:!tmp
