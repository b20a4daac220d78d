(* Self-tests of the benchmark harness: order statistics and the tail
   rule, exact-count reconciliation, and temporary-directory clean-up.
   Run with `dune build @perfbench/selftest` or
   `python3 perfbench/run.py --self-test`; exits 1 if any check fails.
   The drifting-op check makes the harness print its count-mismatch
   complaint on stderr; that line is expected. *)

open Harness

let failures = ref 0

let expect name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12

let test_quantiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  (* statistics.quantiles(range(1, 11), n=4, method='inclusive') *)
  expect "quartiles match Python's inclusive method"
    (close (quantile xs 0.25) 3.25 && close (quantile xs 0.5) 5.5
    && close (quantile xs 0.75) 7.75);
  expect "quantile ends are the extremes"
    (close (quantile xs 0.0) 1.0 && close (quantile xs 1.0) 10.0);
  expect "median of an even count interpolates" (close (median [| 4.; 1.; 3.; 2. |]) 2.5);
  expect "quantile ignores input order"
    (close (median [| 9.; 1.; 5. |]) 5.0 && close (median [| 5.; 9.; 1. |]) 5.0);
  expect "quantile of nothing is nan" (Float.is_nan (median [||]))

let test_tail () =
  let tail n = tail_percentile n in
  expect "no tail below 20 samples" (tail 0 = None && tail 19 = None);
  expect "20 samples: p50" (tail 20 = Some 500);
  expect "39 samples: p50, 40: p75" (tail 39 = Some 500 && tail 40 = Some 750);
  expect "100 samples: p90" (tail 100 = Some 900);
  expect "199 samples: p90, 200: p95" (tail 199 = Some 900 && tail 200 = Some 950);
  expect "1000 samples: p99 (exactly 10 beyond)"
    (tail 1000 = Some 990 && beyond ~n:1000 990 = 10);
  expect "9999 samples: p99, 10000: p99.9" (tail 9999 = Some 990 && tail 10000 = Some 999);
  expect "every chosen tail keeps >= 10 samples beyond it"
    (List.for_all
       (fun n -> match tail n with Some p -> beyond ~n p >= 10 | None -> n < 20)
       (List.init 3000 Fun.id));
  expect "labels" (percentile_label 990 = "p99" && percentile_label 999 = "p99.9")

let test_counts () =
  let before = [ ("a", 1); ("b", 5) ] and after = [ ("a", 4); ("b", 5); ("c", 2) ] in
  expect "diff keeps only counters that moved, new ones included"
    (Counts.diff before after = [ ("a", 3); ("c", 2) ]);
  let book = Counts.book () in
  let c = [ ("a", 3); ("c", 2) ] in
  expect "first sighting becomes the reference" (Counts.reconcile book ~key:"op#0" c = Ok ());
  expect "an exact repeat reconciles" (Counts.reconcile book ~key:"op#0" c = Ok ());
  expect "another position has its own reference"
    (Counts.reconcile book ~key:"op#1" [ ("a", 1) ] = Ok ());
  expect "a changed count is named"
    (Counts.reconcile book ~key:"op#0" [ ("a", 4); ("c", 2) ] = Error "op#0: a 3->4");
  expect "a vanished counter is named"
    (Counts.reconcile book ~key:"op#0" [ ("a", 3) ] = Error "op#0: c 2->0");
  expect "an extra counter is named"
    (Counts.reconcile book ~key:"op#0" [ ("a", 3); ("c", 2); ("d", 1) ]
    = Error "op#0: d 0->1");
  expect "add sums by name"
    (Counts.add [ ("a", 1) ] [ ("a", 2); ("b", 1) ] = [ ("a", 3); ("b", 1) ])

(* The same path the workloads take: ops whose registry deltas repeat
   pass; one that does more work fails a harness check, not an op. *)
let test_op_reconciliation () =
  let ctr = Metrics.counter "perfbench.selftest" in
  let work k () = Metrics.inc ~by:k ctr in
  let cycle k =
    begin_cycle ();
    op Op (work 2);
    op Op (work k)
  in
  let failed0 = !self_failed in
  cycle 3;
  cycle 3;
  expect "repeated cycles reconcile" (!self_failed = failed0);
  expect "cycle counts sum the kind's ops"
    (Counts.get (counts_of_cycle Op) "perfbench.selftest" = 5);
  cycle 4;
  expect "a drifting op fails a harness check" (!self_failed = failed0 + 1);
  expect "ops are not failed by a count drift" (!failed = 0);
  self_failed := failed0

let test_temp_dirs () =
  let parent = Filename.current_dir_name in
  let seen = ref "" in
  let v =
    with_temp_dir ~parent "selftest" (fun dir ->
        seen := dir;
        Sys.mkdir (Filename.concat dir "sub") 0o755;
        Out_channel.with_open_text (Filename.concat dir "sub/f") (fun oc ->
            output_string oc "x");
        42)
  in
  expect "the body's value is returned" (v = 42);
  expect "the directory tree is removed" (!seen <> "" && not (Sys.file_exists !seen));
  let raised =
    match
      with_temp_dir ~parent "selftest" (fun dir ->
          seen := dir;
          Out_channel.with_open_text (Filename.concat dir "wal.log") (fun oc ->
              output_string oc "x");
          failwith "op raised")
    with
    | () -> false
    | exception Failure _ -> true
  in
  expect "the exception propagates" raised;
  expect "the directory is removed when the body raises" (not (Sys.file_exists !seen))

let () =
  test_quantiles ();
  test_tail ();
  test_counts ();
  test_op_reconciliation ();
  test_temp_dirs ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end;
  print_endline "all self-tests passed"
