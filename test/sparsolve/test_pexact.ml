(* The exact path of Dcs.Partial_mincut.mincut: whenever the λ̂ quotient
   answers, its value is the minimum cut — checked against exhaustive
   enumeration (Brute) and Stoer–Wagner — and wherever it cannot prove the
   minimum (a cap below λ, fractional weights) it declines and the sampled
   path answers. *)

open Dcs

let path_of (r : Partial_mincut.result) = r.stats.Partial_mincut.path
let is_exact r = path_of r = Partial_mincut.Exact

let solve ?cap ?(rho = 4.0) g =
  Partial_mincut.mincut ?cap ~rho ~flow_budget:64 (Prng.create 1) ~eps:0.4
    ~solver:Partial_mincut.Stoer_wagner g

(* The answer is the minimum by both oracles, and the cut carries it. *)
let agrees g (r : Partial_mincut.result) =
  let brute, _ = Brute.mincut_ugraph g in
  let sw, _ = Stoer_wagner.mincut g in
  r.value = brute && r.value = sw
  && Ugraph.cut_value g r.cut = r.value
  && Cut.is_proper r.cut

(* Integer weights, n <= 14, from sparse to complete; one in five leaves
   its top vertex isolated, and sparse ones are often disconnected. *)
let random_graph rng =
  let n = 2 + Prng.int rng 13 in
  let p = [| 0.15; 0.35; 0.7; 1.0 |].(Prng.int rng 4) in
  let live = if Prng.int rng 5 = 0 then n - 1 else n in
  let g = Ugraph.create n in
  for u = 0 to live - 1 do
    for v = u + 1 to live - 1 do
      if Prng.float rng 1.0 < p then
        Ugraph.add_edge g u v (float_of_int (1 + Prng.int rng 6))
    done
  done;
  g

(* Caps from below most min cuts to uncapped. *)
let caps = [| 2.0; 6.0; 24.0; infinity |]

let prop_exact_is_minimum =
  QCheck.Test.make ~name:"exact path = Brute = Stoer-Wagner" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let g = random_graph rng in
      let cap = caps.(Prng.int rng (Array.length caps)) in
      let r = solve ~cap g in
      let brute, _ = Brute.mincut_ugraph g in
      (* Every path reports a real cut weight; the exact one the minimum. *)
      r.value >= brute && ((not (is_exact r)) || agrees g r))

(* The same family, counted: the path must both answer and decline on it,
   so the property above cannot pass by never running. *)
let test_answers_and_declines () =
  let answered = ref 0 and declined = ref 0 in
  for seed = 1 to 200 do
    let rng = Prng.create seed in
    let g = random_graph rng in
    let cap = caps.(Prng.int rng (Array.length caps)) in
    let r = solve ~cap g in
    if is_exact r then begin
      incr answered;
      if not (agrees g r) then
        Alcotest.failf "seed %d: exact value %g is not the minimum" seed r.value
    end
    else incr declined
  done;
  Alcotest.(check bool) "some answered" true (!answered > 50);
  Alcotest.(check bool) "some declined" true (!declined > 10)

let check_exact label g expected =
  let r = solve ~cap:64.0 g in
  Alcotest.(check bool) (label ^ ": exact path") true (is_exact r);
  Alcotest.(check (float 0.0)) (label ^ ": value") expected r.value;
  Alcotest.(check bool) (label ^ ": oracles") true (agrees g r)

let test_adversarial () =
  check_exact "n = 2" (Ugraph.of_edges 2 [ (0, 1, 3.0) ]) 3.0;
  (* K4 plus an isolated vertex: U₀ = 0 answers at once. *)
  let isolated = Ugraph.create 5 in
  for u = 0 to 3 do
    for v = u + 1 to 3 do
      Ugraph.add_edge isolated u v 2.0
    done
  done;
  check_exact "isolated vertex" isolated 0.0;
  check_exact "two triangles"
    (Ugraph.of_edges 6
       [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0);
         (3, 5, 1.0) ])
    0.0;
  check_exact "star"
    (Ugraph.of_edges 7 (List.init 6 (fun i -> (0, i + 1, float_of_int (6 - i)))))
    1.0;
  check_exact "unit path" (Generators.path ~n:7) 1.0;
  check_exact "complete" (Generators.complete ~n:9) 8.0;
  (* A weighted path leaves k = 3 super-vertices ({0,1}, {2}, {3,4,5} at
     τ = U₀ = 4), and 3³ > max(8, m = 5): over budget, the path declines
     and the sampled path still finds the light edge. *)
  let path =
    Ugraph.of_edges 6
      [ (0, 1, 4.0); (1, 2, 3.0); (2, 3, 2.0); (3, 4, 5.0); (4, 5, 6.0) ]
  in
  let r = solve ~cap:64.0 path in
  Alcotest.(check bool) "weighted path: declined" false (is_exact r);
  Alcotest.(check int) "weighted path: k" 3 r.stats.Partial_mincut.quotient_k;
  Alcotest.(check (float 0.0)) "weighted path: value" 2.0 r.value

(* K9 has λ = 8 on every pair. With cap 3 every edge reaches τ = 3, the
   quotient is one vertex, and U₀ = 8 > τ proves nothing: the path must
   decline, and the sampled path (p = 1 here) still finds 8. *)
let test_cap_below_lambda_declines () =
  let g = Generators.complete ~n:9 in
  let r = solve ~cap:3.0 g in
  Alcotest.(check bool) "declined" false (is_exact r);
  Alcotest.(check int) "quotient collapsed" 1 r.stats.Partial_mincut.quotient_k;
  Alcotest.(check (float 0.0)) "tau = cap" 3.0 r.stats.Partial_mincut.tau;
  Alcotest.(check (float 0.0)) "value" 8.0 r.value

(* Two unit triangles joined by a bridge of weight 1.5: λ = 1.5 across,
   but the NI tier counts the bridge as 2 rounded units and gives it λ̂ = 2
   = U₀, so contracting by λ̂ would merge the whole graph and report 2.
   The integer-weight guard must keep the path out. *)
let test_fractional_weights_guarded () =
  let g =
    Ugraph.of_edges 6
      [ (0, 1, 1.0); (1, 2, 1.0); (0, 2, 1.0); (3, 4, 1.0); (4, 5, 1.0);
        (3, 5, 1.0); (2, 3, 1.5) ]
  in
  let r = solve ~cap:64.0 g in
  Alcotest.(check bool) "not the exact path" false (is_exact r);
  Alcotest.(check int) "guard skipped the quotient" 0
    r.stats.Partial_mincut.quotient_k;
  Alcotest.(check (float 0.0)) "value = Stoer-Wagner" 1.5 r.value

(* The planted instance the sampler is built for: the two cross-edge
   blocks contract to k = 2 and the planted cut is the answer. *)
let test_planted_exact () =
  let g =
    Generators.planted_mincut (Prng.create 21) ~block:40 ~k:3 ~p_inner:0.5
  in
  let r = solve ~rho:8.0 ~cap:128.0 g in
  Alcotest.(check bool) "exact path" true (is_exact r);
  Alcotest.(check int) "two super-vertices" 2 r.stats.Partial_mincut.quotient_k;
  Alcotest.(check int) "one quotient edge" 1 r.stats.Partial_mincut.m_sparse;
  Alcotest.(check (float 0.0)) "planted value" 3.0 r.value;
  Alcotest.(check (float 0.0))
    "value = Stoer-Wagner" (fst (Stoer_wagner.mincut g)) r.value

let suite =
  [
    QCheck_alcotest.to_alcotest prop_exact_is_minimum;
    Alcotest.test_case "answers and declines on random graphs" `Quick
      test_answers_and_declines;
    Alcotest.test_case "adversarial shapes answered exactly" `Quick
      test_adversarial;
    Alcotest.test_case "cap below lambda declines" `Quick
      test_cap_below_lambda_declines;
    Alcotest.test_case "fractional weights guarded" `Quick
      test_fractional_weights_guarded;
    Alcotest.test_case "planted instance answered exactly" `Quick
      test_planted_exact;
  ]
