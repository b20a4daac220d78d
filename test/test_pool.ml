(* The parallel trial engine's regression net: (a) parallel == sequential
   for every domain count we care about, (b) seed-split streams are
   reproducible and pairwise non-colliding, (c) exceptions raised inside a
   domain propagate to the caller instead of hanging or vanishing. *)

open Dcs

let domain_counts = [ 1; 2; 4 ]

(* [Array.init n f] on the unsupervised runner, with no arena. *)
let run ~domains ~n f =
  Pool.run_batched ~domains ~arena:(fun () -> ()) ~n (fun () i -> f i)

(* --- (a) parallel results equal sequential results --- *)

let test_run_batched_matches_sequential () =
  let f i = (i * 31) + (i mod 7) in
  let expected = Array.init 103 f in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "domains=%d" d)
        expected
        (run ~domains:d ~n:103 f))
    domain_counts

let test_edge_sizes () =
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "n=0, domains=%d" d)
        [||]
        (run ~domains:d ~n:0 (fun i -> i));
      Alcotest.(check (array int))
        (Printf.sprintf "n=1, domains=%d" d)
        [| 0 |]
        (run ~domains:d ~n:1 (fun i -> i));
      (* more domains than tasks *)
      Alcotest.(check (array int))
        (Printf.sprintf "n=3, domains=%d" d)
        [| 0; 2; 4 |]
        (run ~domains:d ~n:3 (fun i -> 2 * i)))
    domain_counts

let test_sum_bit_identical () =
  (* Terms of wildly different magnitudes: any reassociation of the float
     sum would show up as an inequality under exact comparison. The terms
     are computed in parallel and summed in index order after the join. *)
  let f i = Float.ldexp 1.0 ((i mod 40) - 20) +. (float_of_int i *. 1e-7) in
  let seq = ref 0.0 in
  for i = 0 to 999 do
    seq := !seq +. f i
  done;
  List.iter
    (fun d ->
      let par = Array.fold_left ( +. ) 0.0 (run ~domains:d ~n:1000 f) in
      Alcotest.(check bool)
        (Printf.sprintf "exactly equal at domains=%d" d)
        true
        (Float.equal !seq par))
    domain_counts

(* The wired-through trial loops: the same seed must give byte-identical
   stats at every domain count. *)

let test_foreach_trials_domain_invariant () =
  let p = Foreach_lb.make_params ~beta:1 ~inv_eps:4 16 in
  let stats d =
    Foreach_lb.run_trials ~domains:d (Prng.create 42) p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.Foreach_lb.graph)
      ~trials:6 ~bits_per_trial:10
  in
  let reference = stats 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "identical stats at domains=%d" d)
        true
        (stats d = reference))
    domain_counts

let test_forall_trials_domain_invariant () =
  let p = Forall_lb.make_params ~beta:1 ~inv_eps_sq:8 16 in
  let stats d =
    Forall_lb.run_trials ~domains:d (Prng.create 43) p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.Forall_lb.graph)
      ~decoder:`Topk ~trials:8
  in
  let reference = stats 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "identical stats at domains=%d" d)
        true
        (stats d = reference))
    domain_counts

let test_karger_domain_invariant () =
  let g =
    Generators.erdos_renyi_connected (Prng.create 44) ~n:40 ~p:0.15
  in
  let run d = Karger.mincut ~domains:d (Prng.create 45) ~trials:24 g in
  let v1, c1 = run 1 in
  List.iter
    (fun d ->
      let v, c = run d in
      Alcotest.(check (float 0.0)) (Printf.sprintf "value, domains=%d" d) v1 v;
      Alcotest.(check bool)
        (Printf.sprintf "cut, domains=%d" d)
        true (Cut.equal c1 c))
    domain_counts;
  let cands d =
    Karger.candidate_cuts ~domains:d (Prng.create 46) ~trials:30 ~factor:2.0 g
    |> List.map (fun (v, c) -> (v, Cut.to_list c))
  in
  let reference = cands 1 in
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "candidates, domains=%d" d)
        true
        (cands d = reference))
    domain_counts

let test_karger_stein_domain_invariant () =
  let g =
    Generators.erdos_renyi_connected (Prng.create 47) ~n:24 ~p:0.25
  in
  let run d = Karger_stein.mincut ~domains:d ~runs:6 (Prng.create 48) g in
  let v1, c1 = run 1 in
  List.iter
    (fun d ->
      let v, c = run d in
      Alcotest.(check (float 0.0)) (Printf.sprintf "value, domains=%d" d) v1 v;
      Alcotest.(check bool)
        (Printf.sprintf "cut, domains=%d" d)
        true (Cut.equal c1 c))
    domain_counts

(* --- (b) seed-split streams: reproducible, parent-preserving, disjoint --- *)

let test_split_reproducible () =
  let draws g = Array.init 16 (fun _ -> Prng.bits64 g) in
  let parent = Prng.create 7 in
  let a = draws (Prng.split parent 5) in
  let b = draws (Prng.split parent 5) in
  Alcotest.(check (array int64)) "same index, same stream" a b

let test_split_pure_in_parent () =
  let a = Prng.create 11 and b = Prng.create 11 in
  for i = 0 to 9 do
    ignore (Prng.split a i)
  done;
  for _ = 1 to 50 do
    Alcotest.(check int64) "parent unchanged by split" (Prng.bits64 b)
      (Prng.bits64 a)
  done

let test_split_streams_pairwise_non_colliding () =
  let parent = Prng.create 13 in
  let children = 64 and draws = 8 in
  (* All (child, draw) outputs distinct: 512 values of 64 bits colliding
     would be a one-in-10^13 event for independent streams, and any
     systematic overlap between sibling streams lands here immediately. *)
  let seen = Hashtbl.create (children * draws) in
  for i = 0 to children - 1 do
    let g = Prng.split parent i in
    for _ = 1 to draws do
      let v = Prng.bits64 g in
      Alcotest.(check bool)
        (Printf.sprintf "no collision (child %d)" i)
        false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ()
    done
  done

let test_split_differs_from_parent_continuation () =
  let parent = Prng.create 17 in
  let child = Prng.split parent 0 in
  let xs = Array.init 32 (fun _ -> Prng.bits64 parent) in
  let ys = Array.init 32 (fun _ -> Prng.bits64 child) in
  Alcotest.(check bool) "child is not the parent stream" true (xs <> ys)

let test_split_rejects_negative () =
  let g = Prng.create 19 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Prng.split: index must be nonnegative") (fun () ->
      ignore (Prng.split g (-1)))

(* --- (c) exception propagation --- *)

let test_exception_propagates () =
  (* Worker exceptions surface as Task_failed carrying the failing task's
     index and the original exception — not a bare re-raise. *)
  List.iter
    (fun d ->
      (match
         run ~domains:d ~n:16 (fun i -> if i = 11 then failwith "boom" else i)
       with
      | _ -> Alcotest.failf "no exception at domains=%d" d
      | exception Pool.Task_failed { index; exn; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "failing index at domains=%d" d)
            11 index;
          Alcotest.(check bool)
            (Printf.sprintf "original exn preserved at domains=%d" d)
            true
            (exn = Failure "boom"));
      (* Nested pools keep the innermost tag: outer task 2 dies because its
         inner task 5 did, and the caller sees index 5. *)
      match
        run ~domains:d ~n:4 (fun i ->
            Array.fold_left ( + ) 0
              (run ~domains:d ~n:8 (fun j ->
                   if i = 2 && j = 5 then failwith "inner" else j)))
      with
      | _ -> Alcotest.failf "no nested exception at domains=%d" d
      | exception Pool.Task_failed { index; exn; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "innermost index at domains=%d" d)
            5 index;
          Alcotest.(check bool)
            (Printf.sprintf "inner exn preserved at domains=%d" d)
            true
            (exn = Failure "inner"))
    domain_counts

let test_exception_reports_lowest_index () =
  (* Several failing tasks: the reported one is the lowest index, at every
     domain count — failures are merged after the join, whichever domain
     ran which chunk, so the abort point is deterministic. *)
  List.iter
    (fun d ->
      match
        run ~domains:d ~n:32 (fun i ->
            if i mod 7 = 5 then failwith "multi" else i)
      with
      | _ -> Alcotest.failf "no exception at domains=%d" d
      | exception Pool.Task_failed { index; _ } ->
          Alcotest.(check int)
            (Printf.sprintf "lowest failing index at domains=%d" d)
            5 index)
    domain_counts

let test_exception_joins_all_domains () =
  (* A failure in the first chunk must not cut the run short: every task
     outside the failing one has run (its side effect is visible) by the
     time the exception reaches the caller, at every domain count. *)
  List.iter
    (fun d ->
      let hit = Array.make 16 0 in
      (try
         ignore
           (run ~domains:d ~n:16 (fun i ->
                if i = 3 then failwith "early";
                hit.(i) <- 1;
                i))
       with Pool.Task_failed _ -> ());
      let finished = Array.fold_left ( + ) 0 hit in
      Alcotest.(check int)
        (Printf.sprintf "all other tasks completed at domains=%d" d)
        15 finished)
    domain_counts

let test_domain_count_positive () =
  Alcotest.(check bool) "at least one domain" true (Pool.domain_count () >= 1)

(* --- (d) supervised runs: crash/hang recovery, determinism, poisoning --- *)

(* The full index set 0..n-1. *)
let all n = Array.init n Fun.id

(* The reference a supervised run must reproduce bit-for-bit: trial i's
   value is a pure function of the task stream split(split(master, i), 0),
   whatever the domain count, restart pattern or faults injected. *)
let reference_values ~seed n =
  let master = Prng.create seed in
  Array.init n (fun i ->
      let rng = Prng.split (Prng.split master i) 0 in
      Array.init 4 (fun _ -> Prng.bits64 rng))

let trial_value ctx =
  let rng = ctx.Pool.rng in
  Array.init 4 (fun _ -> Prng.bits64 rng)

let test_supervised_clean_matches_reference () =
  let n = 23 in
  let expected = reference_values ~seed:301 n in
  List.iter
    (fun d ->
      let vals, rep =
        Pool.run_supervised ~domains:d ~rng:(Prng.create 301) ~indices:(all n)
          trial_value
      in
      Alcotest.(check bool)
        (Printf.sprintf "values match streams at domains=%d" d)
        true (vals = expected);
      Alcotest.(check int) "no crashes" 0 rep.Pool.crashes;
      Alcotest.(check int) "no restarts" 0 rep.Pool.restarts;
      Alcotest.(check int) "one round" 1 rep.Pool.rounds)
    domain_counts

let test_supervised_crash_recovery_bit_identical () =
  (* Tasks 4, 9 and 14 crash on their first attempt (attempt-dependent
     failure, like a real transient fault); the supervisor re-executes them
     and the final results are bit-identical to the clean reference, at
     every domain count. *)
  let n = 17 in
  let expected = reference_values ~seed:302 n in
  List.iter
    (fun d ->
      let vals, rep =
        Pool.run_supervised ~domains:d ~rng:(Prng.create 302) ~indices:(all n)
          (fun ctx ->
            if ctx.Pool.attempt = 0 && ctx.Pool.index mod 5 = 4 then
              failwith "transient";
            trial_value ctx)
      in
      Alcotest.(check bool)
        (Printf.sprintf "recovered values bit-identical at domains=%d" d)
        true (vals = expected);
      Alcotest.(check int)
        (Printf.sprintf "crashes counted at domains=%d" d)
        3 rep.Pool.crashes;
      Alcotest.(check int)
        (Printf.sprintf "restarts counted at domains=%d" d)
        3 rep.Pool.restarts;
      Alcotest.(check int)
        (Printf.sprintf "two rounds at domains=%d" d)
        2 rep.Pool.rounds;
      Alcotest.(check int)
        (Printf.sprintf "failures reported at domains=%d" d)
        3
        (List.length rep.Pool.failures);
      List.iter
        (fun (f : Pool.failure) ->
          Alcotest.(check int)
            "failure recorded for a crashing index" 4
            (f.Pool.failed_index mod 5);
          Alcotest.(check bool) "crash, not hang" false f.Pool.hung)
        rep.Pool.failures)
    domain_counts

let test_supervised_repeated_crashes_within_budget () =
  (* A task that fails its first three attempts still completes when the
     budget allows, and the value is unchanged. *)
  let n = 6 in
  let expected = reference_values ~seed:303 n in
  let vals, rep =
    Pool.run_supervised ~restart_budget:3 ~rng:(Prng.create 303)
      ~indices:(all n) (fun ctx ->
        if ctx.Pool.index = 2 && ctx.Pool.attempt < 3 then failwith "stubborn";
        trial_value ctx)
  in
  Alcotest.(check bool) "value survives three restarts" true (vals = expected);
  Alcotest.(check int) "three crashes" 3 rep.Pool.crashes;
  Alcotest.(check int) "four rounds" 4 rep.Pool.rounds

let test_supervised_hang_recovery () =
  (* Task 3 "hangs" on its first attempt: it spins polling [guard] until
     the deadline cancels it. The supervisor re-runs it and the sweep
     completes bit-identically to the clean reference. *)
  let n = 8 in
  let expected = reference_values ~seed:304 n in
  let vals, rep =
    Pool.run_supervised ~deadline:0.01 ~rng:(Prng.create 304) ~indices:(all n)
      (fun ctx ->
        if ctx.Pool.index = 3 && ctx.Pool.attempt = 0 then
          while true do
            Pool.guard ctx
          done;
        trial_value ctx)
  in
  Alcotest.(check bool) "values bit-identical after hang" true (vals = expected);
  Alcotest.(check int) "one hang" 1 rep.Pool.hangs;
  Alcotest.(check int) "no crashes" 0 rep.Pool.crashes;
  (match rep.Pool.failures with
  | [ f ] ->
      Alcotest.(check int) "hung index" 3 f.Pool.failed_index;
      Alcotest.(check bool) "flagged as hang" true f.Pool.hung
  | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs))

let test_supervised_poisoned () =
  (* A deterministic failure exhausts the restart budget and surfaces as
     Poisoned with the right index and attempt count. *)
  match
    Pool.run_supervised ~restart_budget:2 ~rng:(Prng.create 305)
      ~indices:(all 9)
      (fun ctx ->
        if ctx.Pool.index = 7 then failwith "always";
        trial_value ctx)
  with
  | _ -> Alcotest.fail "expected Poisoned"
  | exception Pool.Poisoned { index; attempts; last } ->
      Alcotest.(check int) "poisoned index" 7 index;
      Alcotest.(check int) "budget+1 attempts" 3 attempts;
      Alcotest.(check int) "last failure index" 7 last.Pool.failed_index

let test_supervised_attempt_stream_fresh_per_attempt () =
  (* ctx.rng is the same stream on every attempt (values must not depend
     on the restart pattern); ctx.attempt_rng is fresh per attempt (so
     retry-dependent decisions can differ). Record both across a forced
     restart. *)
  let seen = Array.make 2 None in
  let _, _ =
    Pool.run_supervised ~rng:(Prng.create 306) ~indices:(all 1) (fun ctx ->
        let task_draw = Prng.bits64 ctx.Pool.rng in
        let attempt_draw = Prng.bits64 ctx.Pool.attempt_rng in
        seen.(ctx.Pool.attempt) <- Some (task_draw, attempt_draw);
        if ctx.Pool.attempt = 0 then failwith "once";
        [||])
  in
  match (seen.(0), seen.(1)) with
  | Some (t0, a0), Some (t1, a1) ->
      Alcotest.(check int64) "task stream identical across attempts" t0 t1;
      Alcotest.(check bool) "attempt stream fresh per attempt" true (a0 <> a1)
  | _ -> Alcotest.fail "both attempts should have recorded draws"

let test_supervised_indices_subset_matches_full_run () =
  (* Computing a subset of indices (what a checkpoint resume does) yields
     exactly the full run's values at those indices. *)
  let n = 15 in
  let expected = reference_values ~seed:307 n in
  let indices = [| 2; 3; 7; 11; 14 |] in
  let vals, _ = Pool.run_supervised ~rng:(Prng.create 307) ~indices trial_value in
  Array.iteri
    (fun slot idx ->
      Alcotest.(check bool)
        (Printf.sprintf "index %d matches full run" idx)
        true
        (vals.(slot) = expected.(idx)))
    indices

let test_fingerprint_pure_and_distinguishing () =
  let g = Prng.create 308 in
  let fp1 = Prng.fingerprint g in
  let fp2 = Prng.fingerprint g in
  Alcotest.(check int64) "fingerprint does not advance the stream" fp1 fp2;
  let before = Prng.bits64 (Prng.create 308) in
  let after = Prng.bits64 g in
  Alcotest.(check int64) "stream untouched by fingerprinting" before after;
  Alcotest.(check bool) "sibling streams fingerprint differently" true
    (Prng.fingerprint (Prng.split g 0) <> Prng.fingerprint (Prng.split g 1))

let suite =
  [
    Alcotest.test_case "pool: run_batched = sequential" `Quick
      test_run_batched_matches_sequential;
    Alcotest.test_case "pool: edge sizes" `Quick test_edge_sizes;
    Alcotest.test_case "pool: sum bit-identical across domains" `Quick
      test_sum_bit_identical;
    Alcotest.test_case "pool: foreach_lb trials domain-invariant" `Quick
      test_foreach_trials_domain_invariant;
    Alcotest.test_case "pool: forall_lb trials domain-invariant" `Quick
      test_forall_trials_domain_invariant;
    Alcotest.test_case "pool: karger domain-invariant" `Quick
      test_karger_domain_invariant;
    Alcotest.test_case "pool: karger-stein domain-invariant" `Quick
      test_karger_stein_domain_invariant;
    Alcotest.test_case "prng: split reproducible" `Quick test_split_reproducible;
    Alcotest.test_case "prng: split leaves parent untouched" `Quick
      test_split_pure_in_parent;
    Alcotest.test_case "prng: split streams non-colliding" `Quick
      test_split_streams_pairwise_non_colliding;
    Alcotest.test_case "prng: split differs from parent" `Quick
      test_split_differs_from_parent_continuation;
    Alcotest.test_case "prng: split rejects negative index" `Quick
      test_split_rejects_negative;
    Alcotest.test_case "pool: exceptions propagate as Task_failed" `Quick
      test_exception_propagates;
    Alcotest.test_case "pool: lowest failing index reported" `Quick
      test_exception_reports_lowest_index;
    Alcotest.test_case "pool: failing chunk still joins the rest" `Quick
      test_exception_joins_all_domains;
    Alcotest.test_case "pool: domain_count positive" `Quick
      test_domain_count_positive;
    Alcotest.test_case "supervise: clean run matches split streams" `Quick
      test_supervised_clean_matches_reference;
    Alcotest.test_case "supervise: crash recovery bit-identical" `Quick
      test_supervised_crash_recovery_bit_identical;
    Alcotest.test_case "supervise: repeated crashes within budget" `Quick
      test_supervised_repeated_crashes_within_budget;
    Alcotest.test_case "supervise: hang cancelled and re-run" `Quick
      test_supervised_hang_recovery;
    Alcotest.test_case "supervise: budget exhaustion poisons" `Quick
      test_supervised_poisoned;
    Alcotest.test_case "supervise: task stream stable, attempt stream fresh"
      `Quick test_supervised_attempt_stream_fresh_per_attempt;
    Alcotest.test_case "supervise: subset run matches full run" `Quick
      test_supervised_indices_subset_matches_full_run;
    Alcotest.test_case "prng: fingerprint pure and distinguishing" `Quick
      test_fingerprint_pure_and_distinguishing;
  ]
