(* E17 — chaos harness: the supervision layer under deliberately hostile
   conditions. Three escalations:

   A. Worker crashes and hangs injected mid-sweep (Dcs.Fault policies drawn
      from the per-attempt streams): the unsupervised pool aborts the whole
      sweep at the lowest failing trial, the supervised pool restarts the
      failing trials on fresh domains and completes with results
      bit-identical to the clean run — the injected faults live on the
      attempt streams, the trial values on the task streams, so recovery
      cannot perturb results.

   B. Checkpoint chaos: a sweep is interrupted at a deterministic point
      (simulated kill), then its snapshot is bit-flipped or truncated. The
      CRC-framed loader rejects the damaged snapshot, the sweep recomputes,
      and the final results are bit-identical to an uninterrupted run in
      every scenario.

   C. Stragglers in the distributed pipeline: shard sketches that arrive
      past the coordinator's deadline (policy timeout rate) trigger
      speculative re-requests; the late copy is kept as a fallback, so the
      estimate never moves — straggling costs speculative bits, not data.

   Everything here is deterministic: fault decisions ride the same split
   streams as the trials, so this table is byte-identical at every
   DCS_DOMAINS and is part of bin/check_determinism.sh's default set. *)

open Dcs

let trials_a = 32
let trials_b = 24
let deadline = 0.02
let restart_budget = 8

let run () =
  Common.section
    "E17 Chaos harness — crash/hang recovery, checkpoint corruption, stragglers";
  let rng0 = Common.rng_for 17 in
  let g = Generators.planted_mincut rng0 ~block:30 ~k:5 ~p_inner:0.55 in
  let exact = Stoer_wagner.mincut_value g in
  Printf.printf
    "workload: Karger estimate on n=%d m=%d (true min cut %.0f), %d trials/sweep\n"
    (Ugraph.n g) (Ugraph.m g) exact trials_a;

  (* The sweep workload: trial i's value is a pure function of its task
     stream, so every run below must agree bit-for-bit. *)
  let trial_value rng = fst (Karger.mincut ~domains:1 rng ~trials:20 g) in

  (* --- Part A: injected worker crashes and hangs --- *)
  let master_a = Prng.fork rng0 in
  let chaos_task ~crash ~hang ctx =
    let chaos =
      Fault.create (Fault.policy ~drop:crash ~timeout:hang ()) ctx.Pool.attempt_rng
    in
    if Fault.drops_message chaos then
      failwith
        (Printf.sprintf "injected crash (trial %d, attempt %d)" ctx.Pool.index
           ctx.Pool.attempt);
    if Fault.times_out chaos then
      (* An injected hang: spin until the supervisor's deadline cancels the
         attempt. Domains are not preemptible, so hangs poll [guard] — the
         recovery contract the supervision layer documents. *)
      while true do
        Pool.guard ctx
      done;
    trial_value ctx.Pool.rng
  in
  let indices = Array.init trials_a Fun.id in
  let clean, _ =
    Pool.run_supervised ~restart_budget:0 ~rng:master_a ~indices (fun ctx ->
        trial_value ctx.Pool.rng)
  in
  let ta =
    Table.create
      ~title:
        (Printf.sprintf
           "supervised (restart budget %d, deadline %.0f ms) vs unsupervised pool"
           restart_budget (deadline *. 1000.))
      ~columns:
        [
          "crash p"; "hang p"; "crashes"; "hangs"; "restarts"; "completed";
          "identical"; "unsupervised sweep";
        ]
  in
  List.iter
    (fun (crash, hang) ->
      let supervised_row =
        match
          Pool.run_supervised ~restart_budget ~deadline ~rng:master_a ~indices
            (chaos_task ~crash ~hang)
        with
        | vals, rep -> Some (vals, rep)
        | exception Pool.Poisoned _ -> None
      in
      (* The same chaos decisions at attempt 0, no supervision: any
         failure aborts the sweep, reported at the lowest failing trial. *)
      let unsupervised =
        let probe i =
          let task_master = Prng.split master_a i in
          let ctx =
            {
              Pool.index = i;
              attempt = 0;
              rng = Prng.split task_master 0;
              attempt_rng = Prng.split task_master 1;
              deadline = Some deadline;
              started = Unix.gettimeofday ();
            }
          in
          chaos_task ~crash ~hang ctx
        in
        match
          Pool.run_batched ~arena:(fun () -> ()) ~n:trials_a (fun () -> probe)
        with
        | _ -> "completed"
        | exception Pool.Task_failed { index; exn; _ } ->
            Printf.sprintf "ABORTED at trial %d (%s)" index
              (match exn with
              | Pool.Cancelled _ -> "hang"
              | _ -> "crash")
      in
      match supervised_row with
      | None ->
          Table.add_row ta
            [
              Printf.sprintf "%.2f" crash; Printf.sprintf "%.2f" hang; "-"; "-";
              "-"; "poisoned"; "no"; unsupervised;
            ]
      | Some (vals, rep) ->
          Table.add_row ta
            [
              Printf.sprintf "%.2f" crash;
              Printf.sprintf "%.2f" hang;
              Table.fint rep.Pool.crashes;
              Table.fint rep.Pool.hangs;
              Table.fint rep.Pool.restarts;
              Printf.sprintf "%d/%d" rep.Pool.tasks trials_a;
              (if vals = clean then "yes" else "NO");
              unsupervised;
            ])
    [ (0.0, 0.0); (0.15, 0.05); (0.3, 0.1) ];
  Table.print ta;
  Common.note "identical = supervised results bit-equal to the fault-free sweep:";
  Common.note "injected faults draw from the per-attempt streams, trial values from";
  Common.note "the per-task streams, so restarts can never perturb an estimate.";

  (* --- Part B: checkpoint interruption and corruption --- *)
  let master_b = Prng.fork rng0 in
  let path = Filename.temp_file "dcs_e17" ".ckpt" in
  let encode v = Printf.sprintf "%h" v in
  let decode s =
    try Scanf.sscanf s "%h" (fun v -> Some v)
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  in
  let sweep ?(resume = true) ?abort_after () =
    Checkpoint.sweep ~path ~signature:"E17B" ~resume ~block:4 ?abort_after
      ~encode ~decode ~rng:master_b ~n:trials_b (fun ctx ->
        trial_value ctx.Pool.rng)
  in
  let clean_b, _ =
    Checkpoint.sweep ~signature:"E17B" ~encode ~decode ~rng:master_b
      ~n:trials_b (fun ctx -> trial_value ctx.Pool.rng)
  in
  let tb =
    Table.create
      ~title:
        (Printf.sprintf
           "checkpointed sweep (%d trials, snapshot every 4): kill + damage"
           trials_b)
      ~columns:[ "scenario"; "snapshot"; "resumed"; "recomputed"; "identical" ]
  in
  let row scenario (vals, (rep : Checkpoint.sweep_report)) =
    Table.add_row tb
      [
        scenario;
        (match rep.Checkpoint.discarded with
        | None -> "accepted"
        | Some _ -> "rejected");
        Table.fint rep.Checkpoint.resumed;
        Table.fint rep.Checkpoint.computed;
        (if vals = clean_b then "yes" else "NO");
      ]
  in
  (* Kill the sweep after 10+ newly checkpointed trials, then resume. *)
  (match sweep ~resume:false ~abort_after:10 () with
  | _ -> failwith "E17: abort_after failed to interrupt"
  | exception Checkpoint.Interrupted _ -> ());
  row "kill mid-sweep, resume" (sweep ());
  (* Flip one bit in the (now complete) snapshot: the loader must reject
     it and the sweep must recompute everything, results unchanged. *)
  let flip_bit () =
    let ic = open_in_bin path in
    let raw = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string raw in
    let pos = Bytes.length b / 2 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x08));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  flip_bit ();
  row "bit flip in snapshot" (sweep ());
  (* Truncate the rewritten snapshot mid-file: same story. *)
  let truncate_file () =
    let ic = open_in_bin path in
    let raw = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin path in
    output_string oc (String.sub raw 0 (String.length raw / 2));
    close_out oc
  in
  truncate_file ();
  row "snapshot truncated" (sweep ());
  (* A snapshot from a different configuration must not resurrect. *)
  Checkpoint.save ~path ~signature:"E17B-other-config"
    [ { Checkpoint.index = 0; payload = encode 999.0 } ];
  row "signature mismatch" (sweep ());
  Sys.remove path;
  Table.print tb;
  Common.note "every damaged snapshot is rejected at load (CRC frame, length checks,";
  Common.note "signature) and the sweep falls back to recomputing — final results are";
  Common.note "bit-identical to the uninterrupted run in all four scenarios.";

  (* --- Part C: stragglers in the distributed pipeline --- *)
  let master_c = Prng.fork rng0 in
  let shards = Partition.random rng0 ~servers:3 g in
  let cfg =
    { (Coordinator.default_config ~eps:0.3) with Coordinator.karger_trials = 40 }
  in
  let tc =
    Table.create
      ~title:"per-sketch deadline overruns: timeout = p per delivery, budget 4"
      ~columns:
        [ "p"; "stragglers"; "spec rr"; "retrans kb"; "degraded"; "estimate" ]
  in
  List.iteri
    (fun row_i p ->
      let mrow = Prng.split master_c row_i in
      let run_pipeline fault =
        Coordinator.min_cut_robust (Prng.split mrow 0) cfg ~fault shards
      in
      let clean_est =
        (run_pipeline (Fault.create Fault.no_faults (Prng.split mrow 1)))
          .Coordinator.base
          .Coordinator.estimate
      in
      let r =
        run_pipeline
          (Fault.create (Fault.policy ~timeout:p ()) (Prng.split mrow 1))
      in
      let rep = r.Coordinator.report in
      Table.add_row tc
        [
          Printf.sprintf "%.2f" p;
          Table.fint rep.Coordinator.stragglers;
          Table.fint rep.Coordinator.speculative_retransmissions;
          Common.kbits rep.Coordinator.retransmit_bits;
          (if rep.Coordinator.degraded then "yes" else "no");
          (if r.Coordinator.base.Coordinator.estimate = clean_est then
             "= clean"
           else "DIVERGED");
        ])
    [ 0.0; 0.25; 0.6; 1.0 ];
  Table.print tc;
  Common.note "a straggling sketch is re-requested speculatively but never lost (the";
  Common.note "late copy is the fallback), so the estimate matches the clean run even";
  Common.note "at p = 1.0 — the cost is the speculative retransmission bits."
