(* Checkpoint/resume across domain counts.

   test/test_checkpoint.ml proves kill-then-resume is bit-exact at the
   ambient domain count; here the same contract is pinned across domain
   counts on the chunked executor that [Checkpoint.sweep] runs on. The
   sweeps are killed at block boundaries (the only places a real kill can
   land between snapshots), resumed at a {e different} domain count, and
   must still reproduce a plain uncheckpointed [Pool.run_supervised] byte
   for byte, with every trial computed exactly once across the two halves
   (checked against the [pool.supervised_tasks] Obs counter). *)

open Dcs

let with_tmp f =
  let path = Filename.temp_file "dcs_bckpt_test" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* The same lossless trial as the single-setting checkpoint tests: two
   draws off the per-index task stream, so any scheduling difference
   shows. *)
let trial ctx =
  let rng = ctx.Pool.rng in
  (Prng.bits64 rng, Prng.bits64 rng)

let encode (a, b) = Printf.sprintf "%Lx %Lx" a b

let decode s =
  try Scanf.sscanf s "%Lx %Lx" (fun a b -> Some (a, b))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let n = 23
let seed = 907
let domains_grid = [ 1; 2; 4 ]

(* The reference answer is the plain supervised run, no persistence:
   checkpointing, domain count and interruption must all be invisible. *)
let expected =
  lazy
    (fst
       (Pool.run_supervised ~domains:1 ~rng:(Prng.create seed)
          ~indices:(Array.init n Fun.id) trial))

let supervised_tasks () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "pool.supervised_tasks")

let test_sweep_matches_supervised_run () =
  List.iter
    (fun domains ->
      let vals, rep =
        Checkpoint.sweep ~domains ~encode ~decode ~rng:(Prng.create seed) ~n
          trial
      in
      Alcotest.(check int)
        (Printf.sprintf "d=%d all computed" domains)
        n rep.Checkpoint.computed;
      Alcotest.(check bool)
        (Printf.sprintf "d=%d sweep = supervised run" domains)
        true
        (vals = Lazy.force expected))
    domains_grid

let test_snapshots_identical_across_domains () =
  (* Not just the results: the snapshot bytes on disk are the same file
     at every domain count, so a run at one setting can resume another's
     checkpoint. *)
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let snapshot domains path =
    ignore
      (Checkpoint.sweep ~path ~signature:"snap" ~resume:false ~block:6 ~domains
         ~encode ~decode ~rng:(Prng.create seed) ~n trial);
    read path
  in
  with_tmp (fun path_a ->
      with_tmp (fun path_b ->
          Alcotest.(check string) "snapshot bytes identical"
            (snapshot 1 path_a) (snapshot 4 path_b)))

let test_kill_at_block_boundary_resume_identical () =
  (* Kill exactly at block boundaries (the snapshot points), resume at a
     different domain count, demand bit-equality with the clean run — for
     every boundary of a 5-block sweep. *)
  let block = 5 in
  List.iter
    (fun abort_after ->
      with_tmp (fun path ->
          let before = supervised_tasks () in
          (match
             Checkpoint.sweep ~path ~signature:"kill" ~resume:false ~block
               ~abort_after ~domains:4 ~encode ~decode ~rng:(Prng.create seed)
               ~n trial
           with
          | _ -> Alcotest.fail "abort_after should interrupt"
          | exception Checkpoint.Interrupted { completed_now; _ } ->
              Alcotest.(check int)
                (Printf.sprintf "killed at the %d-trial boundary" abort_after)
                abort_after completed_now);
          let vals, rep =
            Checkpoint.sweep ~path ~signature:"kill" ~block ~domains:2 ~encode
              ~decode ~rng:(Prng.create seed) ~n trial
          in
          Alcotest.(check int) "checkpointed trials restored" abort_after
            rep.Checkpoint.resumed;
          Alcotest.(check int) "only the rest recomputed" (n - abort_after)
            rep.Checkpoint.computed;
          Alcotest.(check bool) "kill + resume bit-identical" true
            (vals = Lazy.force expected);
          (* Exactly-once accounting: across the kill and the resume,
             every trial was submitted to the pool exactly once — the
             restored ones were never resubmitted. *)
          Alcotest.(check int) "each trial supervised exactly once" n
            (supervised_tasks () - before)))
    [ block; 2 * block; 3 * block; 4 * block ]

let test_kill_resume_with_crashes_exactly_once () =
  (* Crash injection on first attempts + a kill + a cross-setting resume:
     results still bit-identical, and restarts show up on the restart
     counters — never as duplicate supervised submissions. *)
  let crashy ctx =
    if ctx.Pool.attempt = 0 && ctx.Pool.index mod 5 = 2 then failwith "flaky";
    trial ctx
  in
  with_tmp (fun path ->
      let before = supervised_tasks () in
      (match
         Checkpoint.sweep ~path ~signature:"crashy" ~resume:false ~block:4
           ~abort_after:8 ~domains:3 ~encode ~decode ~rng:(Prng.create seed) ~n
           crashy
       with
      | _ -> Alcotest.fail "abort_after should interrupt"
      | exception Checkpoint.Interrupted { completed_now; _ } ->
          Alcotest.(check int) "killed at a block boundary" 8 completed_now);
      let vals, rep =
        Checkpoint.sweep ~path ~signature:"crashy" ~block:4 ~domains:1 ~encode
          ~decode ~rng:(Prng.create seed) ~n crashy
      in
      Alcotest.(check int) "restored" 8 rep.Checkpoint.resumed;
      Alcotest.(check bool) "crashes recovered in the resume" true
        (rep.Checkpoint.crashes > 0 && rep.Checkpoint.restarts > 0);
      Alcotest.(check bool) "crashy kill + resume bit-identical" true
        (vals = Lazy.force expected);
      Alcotest.(check int) "exactly-once despite restarts" n
        (supervised_tasks () - before))

let suite =
  [
    Alcotest.test_case "bcheckpoint: sweep = supervised run at every domain count"
      `Quick test_sweep_matches_supervised_run;
    Alcotest.test_case "bcheckpoint: snapshot bytes identical across domains"
      `Quick test_snapshots_identical_across_domains;
    Alcotest.test_case "bcheckpoint: kill at every block boundary + resume"
      `Quick test_kill_at_block_boundary_resume_identical;
    Alcotest.test_case "bcheckpoint: crashes + kill + resume exactly once"
      `Quick test_kill_resume_with_crashes_exactly_once;
  ]
