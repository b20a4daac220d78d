(* Connectivity-sampled sparsifiers: the p = min(1, rho/lambda-hat)
   contract in isolation — identity when the cap pins every probability
   at 1, byte-determinism across reruns and domain counts, and exact
   preservation of weak planted edges. *)

open Dcs

let ugraph seed ~n ~p ~max_weight =
  let rng = Prng.create seed in
  let g0 = Generators.erdos_renyi_connected rng ~n ~p in
  Generators.random_multigraph_weights rng g0 ~max_weight

(* cap <= rho pins p = rho/lambda-hat >= 1 everywhere: the sparsifier is
   the identity (binomial_keep at p = 1 keeps the exact weight). *)
let test_identity_when_cap_leq_rho () =
  let g = ugraph 7 ~n:40 ~p:0.3 ~max_weight:5 in
  let h, conn =
    Partial_mincut.sparsify ~rho:10.0 ~cap:10.0 (Prng.create 1) ~eps:0.5 g
  in
  Alcotest.(check bool) "identity" true (Ugraph.equal g h);
  Connectivity.iter conn (fun _ _ _ lam ->
      Alcotest.(check bool) "lambda-hat <= cap" true (lam <= 10.0 +. 1e-9))

let test_sparsify_deterministic () =
  let g = ugraph 11 ~n:60 ~p:0.4 ~max_weight:6 in
  let h1, _ = Partial_mincut.sparsify ~rho:6.0 (Prng.create 42) ~eps:0.5 g in
  let h2, _ = Partial_mincut.sparsify ~rho:6.0 (Prng.create 42) ~eps:0.5 g in
  Alcotest.(check bool) "same sparsifier" true (Ugraph.equal h1 h2);
  Alcotest.(check bool) "strictly sparser" true (Ugraph.m h1 < Ugraph.m g)

(* Estimates — and therefore the sampled graph — are a pure function of
   graph content, independent of the worker-domain count. *)
let test_domain_count_identity () =
  let g = ugraph 13 ~n:60 ~p:0.4 ~max_weight:6 in
  let lambdas domains =
    let conn =
      Connectivity.estimate_ugraph ~domains ~flow_budget:16 ~cap:64.0 g
    in
    let _, dst, _ = Connectivity.edges conn in
    Array.mapi (fun i _ -> Connectivity.lambda_at conn i) dst
  in
  let l1 = lambdas 1 in
  List.iter
    (fun d ->
      Alcotest.(check (array (float 0.0))) "lambda across domains" l1 (lambdas d))
    [ 2; 4 ];
  let sparse domains =
    let conn =
      Connectivity.estimate_ugraph ~domains ~flow_budget:16 ~cap:64.0 g
    in
    fst
      (Partial_mincut.sparsify ~rho:6.0 ~connectivity:conn (Prng.create 5)
         ~eps:0.5 g)
  in
  Alcotest.(check bool) "H across domains" true (Ugraph.equal (sparse 1) (sparse 2))

(* Planted two-block instance: the k cross edges have true local
   connectivity k < rho, so lambda-hat <= k pins p = 1 and the planted
   cut survives sampling with its weight exact. *)
let test_planted_cut_kept_exactly () =
  let block = 30 and k = 3 in
  let g = Generators.planted_mincut (Prng.create 3) ~block ~k ~p_inner:0.5 in
  let h, conn =
    Partial_mincut.sparsify ~rho:8.0 ~cap:128.0 ~flow_budget:64
      (Prng.create 9) ~eps:0.5 g
  in
  let planted u = u < block in
  Alcotest.(check (float 1e-9))
    "planted cut exact in H" (float_of_int k) (Ugraph.cut_weight h planted);
  Connectivity.iter conn (fun u v _ lam ->
      if planted u <> planted v then
        Alcotest.(check bool)
          "cross lambda-hat <= k" true
          (lam <= float_of_int k +. 1e-9))

let test_rho_validation () =
  let g = ugraph 17 ~n:10 ~p:0.5 ~max_weight:3 in
  Alcotest.check_raises "rho = 0" (Invalid_argument "Partial_mincut: rho must be positive")
    (fun () -> ignore (Partial_mincut.sparsify ~rho:0.0 (Prng.create 1) ~eps:0.5 g));
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Partial_mincut: eps in (0,1)") (fun () ->
      ignore (Partial_mincut.rho_ugraph ~eps:1.5 ~n:10 ()))

(* Estimates for another graph must be refused, not sampled from: H would
   be drawn from the wrong edges and certify would vouch for a cut of g
   that need not be minimal. Same vertex count with a different edge
   count, and a different vertex count, both raise — at every entry point. *)
let test_foreign_connectivity_rejected () =
  let g = ugraph 19 ~n:30 ~p:0.4 ~max_weight:4 in
  let other = ugraph 20 ~n:30 ~p:0.2 ~max_weight:4 in
  let smaller = ugraph 21 ~n:20 ~p:0.4 ~max_weight:4 in
  assert (Ugraph.m other <> Ugraph.m g);
  let err =
    Invalid_argument "Partial_mincut.sparsify: connectivity is for another graph"
  in
  List.iter
    (fun h ->
      let conn = Connectivity.estimate_ugraph ~flow_budget:4 ~cap:32.0 h in
      Alcotest.check_raises "sparsify" err (fun () ->
          ignore
            (Partial_mincut.sparsify ~rho:4.0 ~connectivity:conn (Prng.create 1)
               ~eps:0.5 g));
      Alcotest.check_raises "mincut" err (fun () ->
          ignore
            (Partial_mincut.mincut ~rho:4.0 ~connectivity:conn (Prng.create 1)
               ~eps:0.5 ~solver:Partial_mincut.Stoer_wagner g)))
    [ other; smaller ];
  Alcotest.check_raises "frozen view of another graph"
    (Invalid_argument "Connectivity.estimate_ugraph: csr vertex count")
    (fun () ->
      ignore
        (Connectivity.estimate_ugraph ~csr:(Csr.of_ugraph smaller) ~cap:32.0 g));
  let dg = Generators.balanced_digraph (Prng.create 22) ~n:20 ~p:0.4 ~beta:2.0 ~max_weight:4.0 in
  let dother = Generators.balanced_digraph (Prng.create 23) ~n:20 ~p:0.2 ~beta:2.0 ~max_weight:4.0 in
  let dconn = Connectivity.estimate_digraph ~flow_budget:4 ~beta:2.0 ~cap:32.0 dother in
  let derr =
    Invalid_argument
      "Directed_sparsifier.connectivity_sparsify: connectivity is for another graph"
  in
  Alcotest.check_raises "st_mincut" derr (fun () ->
      ignore
        (Partial_mincut.st_mincut ~rho:4.0 ~connectivity:dconn (Prng.create 1)
           ~eps:0.5 ~beta:2.0 ~s:0 ~t:1 dg));
  Alcotest.check_raises "connectivity_sparsify" derr (fun () ->
      ignore
        (Directed_sparsifier.connectivity_sparsify ~rho:4.0 ~connectivity:dconn
           (Prng.create 1) ~eps:0.5 ~beta:2.0 dg))

(* The NI tier walks the strengths in lock-step with g's canonical edges,
   so strengths of any other edge set — disjoint, one edge more or one
   edge fewer — must be refused rather than read at the wrong edges. *)
let test_foreign_strengths_rejected () =
  let g = ugraph 24 ~n:30 ~p:0.4 ~max_weight:4 in
  let with_edge h u v =
    let h = Ugraph.copy h in
    Ugraph.add_edge h u v 1.0;
    h
  in
  let missing_pair =
    let rec find u v =
      if Ugraph.mem_edge g u v then
        if v + 1 < 30 then find u (v + 1) else find (u + 1) (u + 2)
      else (u, v)
    in
    find 0 1
  in
  let superset = with_edge g (fst missing_pair) (snd missing_pair) in
  let others = [ ugraph 25 ~n:30 ~p:0.4 ~max_weight:4; superset ] in
  let expect label h g =
    let strengths = Strength.compute ~max_rounds:8 h in
    match Connectivity.estimate_ugraph ~strengths ~cap:16.0 g with
    | _ -> Alcotest.failf "%s: foreign strengths accepted" label
    | exception Invalid_argument msg ->
        let prefix = "Connectivity.estimate_ugraph: strengths are for another" in
        Alcotest.(check string)
          label prefix
          (String.sub msg 0 (min (String.length msg) (String.length prefix)))
  in
  List.iteri (fun i h -> expect (Printf.sprintf "other %d" i) h g) others;
  (* g's strengths, read for the superset graph: one edge too few. *)
  expect "subset" g superset

let suite =
  [
    Alcotest.test_case "cap <= rho is the identity" `Quick
      test_identity_when_cap_leq_rho;
    Alcotest.test_case "sparsify is deterministic" `Quick
      test_sparsify_deterministic;
    Alcotest.test_case "identical across domain counts" `Quick
      test_domain_count_identity;
    Alcotest.test_case "planted cut kept exactly" `Quick
      test_planted_cut_kept_exactly;
    Alcotest.test_case "parameter validation" `Quick test_rho_validation;
    Alcotest.test_case "foreign connectivity rejected" `Quick
      test_foreign_connectivity_rejected;
    Alcotest.test_case "foreign strengths rejected" `Quick
      test_foreign_strengths_rejected;
  ]
