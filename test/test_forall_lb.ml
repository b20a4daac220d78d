open Dcs
module F = Forall_lb

let check_float = Alcotest.(check (float 1e-9))

let small_params () = F.make_params ~beta:2 ~inv_eps_sq:8 32
(* block k = 16, chains = 2, strings per pair = 32, h = 32. *)

(* --- parameters and addressing --- *)

let test_params_derived () =
  let p = small_params () in
  Alcotest.(check int) "block" 16 (F.block_size p);
  Alcotest.(check int) "strings/pair" 32 (F.strings_per_pair p);
  Alcotest.(check int) "h" 32 (F.total_strings p);
  Alcotest.(check int) "bits" 256 (F.bits_capacity p);
  check_float "balance bound" 4.0 (F.balance_upper_bound p)

let test_params_validation () =
  Alcotest.check_raises "d multiple of 4"
    (Invalid_argument "Forall_lb: 1/eps^2 must be a positive multiple of 4")
    (fun () -> ignore (F.make_params ~beta:2 ~inv_eps_sq:6 24));
  Alcotest.check_raises "n multiple of block"
    (Invalid_argument
       "Forall_lb: n (20) must be a multiple of block 16 with at least 2 blocks")
    (fun () -> ignore (F.make_params ~beta:2 ~inv_eps_sq:8 20))

let test_address_roundtrip () =
  let p = small_params () in
  for g = 0 to F.total_strings p - 1 do
    let a = F.address_of_string_index p g in
    Alcotest.(check int) "roundtrip" g (F.string_index_of_address p a);
    Alcotest.(check bool) "ranges" true
      (a.F.pair = 0 && a.F.i >= 0 && a.F.i < 16 && a.F.j >= 0 && a.F.j < 2)
  done

(* --- encoding --- *)

let random_inst seed p =
  let rng = Prng.create seed in
  F.random_instance rng p

let test_encode_graph_shape () =
  let p = small_params () in
  let inst = random_inst 1 p in
  Alcotest.(check int) "n" 32 (Digraph.n inst.F.graph);
  (* forward 16*16 + backward 16*16 for the single pair *)
  Alcotest.(check int) "m" 512 (Digraph.m inst.F.graph)

let test_encode_weights () =
  let p = small_params () in
  let inst = random_inst 2 p in
  Digraph.iter_edges inst.F.graph (fun u v w ->
      if u < 16 && v >= 16 then
        Alcotest.(check bool) "forward in {1,2}" true (w = 1.0 || w = 2.0)
      else if u >= 16 && v < 16 then check_float "backward 1/beta" 0.5 w
      else Alcotest.fail "edge crosses nonadjacent blocks")

let test_encode_forward_matches_strings () =
  let p = small_params () in
  let inst = random_inst 3 p in
  (* Weight of (l_i, v-th of R_j) is s_{i,j}(v) + 1. *)
  for i = 0 to 15 do
    for j = 0 to 1 do
      let s = inst.F.gh.Gap_hamming.strings.(F.string_index_of_address p { pair = 0; i; j }) in
      for v = 0 to 7 do
        let expected = if s.(v) then 2.0 else 1.0 in
        check_float "weight encodes bit" expected
          (Digraph.weight inst.F.graph i (16 + (j * 8) + v))
      done
    done
  done

let test_encode_balance () =
  let p = small_params () in
  let inst = random_inst 4 p in
  Alcotest.(check bool) "2β-balanced edgewise" true
    (Balance.edgewise_upper_bound inst.F.graph <= 4.0 +. 1e-9)

let test_encode_strongly_connected () =
  let p = small_params () in
  let inst = random_inst 5 p in
  Alcotest.(check bool) "strongly connected" true
    (Traversal.is_strongly_connected inst.F.graph)

(* --- query cuts and fixed backward weights --- *)

let test_fixed_backward_matches_skeleton () =
  let p = small_params () in
  let lay = F.layout p in
  let skeleton = Layout.backward_skeleton lay ~weight:0.5 in
  let rng = Prng.create 6 in
  let t = Bitstring.random_weight rng ~n:8 ~weight:4 in
  List.iter
    (fun (j, u_size) ->
      let a = { F.pair = 0; i = 3; j } in
      (* arbitrary U of the right size *)
      let u_mem o = o < u_size in
      let s = F.query_cut p a ~u_mem ~t in
      check_float
        (Printf.sprintf "j=%d u=%d" j u_size)
        (F.fixed_backward_weight p a ~u_size)
        (Cut.value skeleton s))
    [ (0, 8); (1, 8); (0, 1); (1, 1) ]

let test_estimate_w_ut_exact () =
  let p = small_params () in
  let inst = random_inst 7 p in
  let sk = Exact_sketch.create inst.F.graph in
  let rng = Prng.create 8 in
  let t = Bitstring.random_weight rng ~n:8 ~weight:4 in
  let a = { F.pair = 0; i = 0; j = 1 } in
  let u_mem o = o mod 2 = 0 in
  let est = F.estimate_w_ut p ~query:sk.Sketch.query a ~u_mem ~t in
  (* direct w(U, T) *)
  let direct = ref 0.0 in
  for i = 0 to 15 do
    if u_mem i then
      for v = 0 to 7 do
        if t.(v) then
          direct := !direct +. Digraph.weight inst.F.graph i (16 + 8 + v)
      done
  done;
  check_float "estimate = w(U,T)" !direct est

(* --- decoding --- *)

let test_decode_enumerate_exact_high_success () =
  let rng = Prng.create 9 in
  let p = small_params () in
  let st =
    F.run_trials rng p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
      ~decoder:`Enumerate ~trials:30
  in
  Alcotest.(check bool) "success >= 2/3" true (st.F.success_rate >= 0.67)

let test_decode_topk_exact_high_success () =
  let rng = Prng.create 10 in
  let p = small_params () in
  let st =
    F.run_trials rng p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
      ~decoder:`Topk ~trials:40
  in
  Alcotest.(check bool) "success >= 2/3" true (st.F.success_rate >= 0.67)

let test_decode_enumerate_freezes_once () =
  (* Exact_sketch freezes the instance once, and the enumerate decoder
     walks that same frozen graph: one csr.builds per trial, no refreeze. *)
  let builds = Obs.Metrics.counter "csr.builds" in
  let trials = 6 in
  let before = Obs.Metrics.counter_value builds in
  ignore
    (F.run_trials ~domains:1 (Prng.create 19) (small_params ())
       ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
       ~decoder:`Enumerate ~trials);
  Alcotest.(check int) "one freeze per trial" trials
    (Obs.Metrics.counter_value builds - before)

let test_decode_single_query_exact () =
  (* With an exact oracle even the one-query decoder works. *)
  let rng = Prng.create 11 in
  let p = small_params () in
  let st =
    F.run_trials rng p
      ~sketch_of:(fun _ inst -> Exact_sketch.create inst.F.graph)
      ~decoder:`Single ~trials:40
  in
  Alcotest.(check bool) "success = 1 with exact oracle" true (st.F.success_rate >= 0.99)

let test_single_query_collapses_before_enumerate () =
  (* The paper's Section 4 narrative: at noise where the one-query decoder
     is near chance, the Lemma 4.4 enumeration still succeeds. *)
  let rng = Prng.create 12 in
  let p = small_params () in
  let noise = 0.05 in
  let single =
    F.run_trials rng p
      ~sketch_of:(fun r inst ->
        Noisy_oracle.create ~mode:Noisy_oracle.Random r ~eps:noise inst.F.graph)
      ~decoder:`Single ~trials:120
  in
  let enum =
    F.run_trials rng p
      ~sketch_of:(fun r inst ->
        Noisy_oracle.create ~mode:Noisy_oracle.Random r ~eps:noise inst.F.graph)
      ~decoder:`Enumerate ~trials:60
  in
  Alcotest.(check bool) "single near chance" true (single.F.success_rate < 0.8);
  Alcotest.(check bool) "enumerate still strong" true (enum.F.success_rate >= 0.85);
  Alcotest.(check bool) "separation" true
    (enum.F.success_rate >= single.F.success_rate +. 0.1)

let test_decode_enumerate_guard () =
  let p = F.make_params ~beta:4 ~inv_eps_sq:8 64 in
  (* k = 32 > 20 *)
  let rng = Prng.create 13 in
  let inst = F.random_instance rng p in
  let sk = Exact_sketch.create inst.F.graph in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Forall_lb.decode_enumerate: k too large (> 20)") (fun () ->
      ignore
        (F.decode_enumerate p ~query:sk.Sketch.query inst.F.target
           ~t:inst.F.gh.Gap_hamming.t))

let test_decode_enumerate_csr_matches_query_path () =
  (* The incremental CSR walk and the per-subset query path visit subsets in
     the same order with the same tie-break; on the dyadic encoder weights
     both float summation orders are exact, so decisions agree bit for bit. *)
  let p = small_params () in
  for seed = 20 to 29 do
    let inst = random_inst seed p in
    let g = inst.F.graph in
    let t = inst.F.gh.Gap_hamming.t in
    let via_query =
      F.decode_enumerate p ~query:(fun s -> Cut.value g s) inst.F.target ~t
    in
    let via_csr =
      F.decode_enumerate_frozen p (Csr.of_digraph g) inst.F.target ~t
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d decisions agree" seed)
      true (via_query = via_csr)
  done

let test_decode_enumerate_accepts_k24 () =
  (* k = 24 sat behind the old k > 20 guard; the CSR path walks its
     C(24,12) subsets incrementally. *)
  let p = F.make_params ~beta:2 ~inv_eps_sq:12 48 in
  Alcotest.(check int) "block" 24 (F.block_size p);
  let inst = random_inst 30 p in
  let d =
    F.decode_enumerate_frozen p
      (Csr.of_digraph inst.F.graph)
      inst.F.target ~t:inst.F.gh.Gap_hamming.t
  in
  Alcotest.(check bool) "exact sketch decodes correctly" true
    (d = F.correct_decision inst)

let test_decode_enumerate_csr_guard () =
  (* Even the CSR path has a ceiling. k = 32 > enumerate_guard = 28. *)
  Alcotest.(check int) "guard" 28 F.enumerate_guard;
  let p = F.make_params ~beta:4 ~inv_eps_sq:8 64 in
  let inst = random_inst 31 p in
  Alcotest.check_raises "k too large for csr"
    (Invalid_argument "Forall_lb.decode_enumerate: k too large (> 28)") (fun () ->
      ignore
        (F.decode_enumerate_frozen p
           (Csr.of_digraph inst.F.graph)
           inst.F.target ~t:inst.F.gh.Gap_hamming.t))

let test_topk_q_half_size () =
  let p = small_params () in
  let inst = random_inst 14 p in
  let sketch_graph = Csr.of_digraph inst.F.graph in
  let q =
    F.topk_q_set p ~sketch_graph inst.F.target ~t:inst.F.gh.Gap_hamming.t
  in
  let size = Array.fold_left (fun a b -> if b then a + 1 else a) 0 q in
  Alcotest.(check int) "|Q| = k/2" 8 size;
  (* A t longer than 1/eps^2 = 8 is rejected, not read by its prefix. *)
  let long_t = Array.append inst.F.gh.Gap_hamming.t (Array.make 4 true) in
  Alcotest.check_raises "topk_q_set: long t"
    (Invalid_argument "Forall_lb.topk_q_set: t") (fun () ->
      ignore (F.topk_q_set p ~sketch_graph inst.F.target ~t:long_t));
  Alcotest.check_raises "decode_topk: long t"
    (Invalid_argument "Forall_lb.decode_topk: t") (fun () ->
      ignore (F.decode_topk p ~sketch_graph inst.F.target ~t:long_t))

let test_lemma43_stats_reasonable () =
  (* With c small, E[|L_high|] and E[|L_low|] are close to a constant
     fraction of k; check they are nonzero on average and bounded by k. *)
  let rng = Prng.create 15 in
  let p = small_params () in
  let total_high = ref 0 and total_low = ref 0 in
  let trials = 40 in
  for _ = 1 to trials do
    let inst = F.random_instance rng p in
    let h, l = F.lemma43_stats inst in
    Alcotest.(check bool) "bounded" true (h + l <= F.block_size p);
    total_high := !total_high + h;
    total_low := !total_low + l
  done;
  Alcotest.(check bool) "some highs" true (!total_high > trials);
  Alcotest.(check bool) "some lows" true (!total_low > trials)

let test_codec_bits () =
  let p = small_params () in
  let bits = F.codec_bits p in
  Alcotest.(check bool) "~ h/eps^2" true
    (bits >= F.bits_capacity p && bits <= F.bits_capacity p + 200)

let test_codec_sketch_exact () =
  let p = small_params () in
  let inst = random_inst 16 p in
  let sk = F.codec_sketch inst in
  let rng = Prng.create 17 in
  for _ = 1 to 10 do
    let c = Cut.random rng ~n:32 in
    check_float "codec exact" (Cut.value inst.F.graph c) (sk.Sketch.query c)
  done

let test_correct_decision_mapping () =
  let p = small_params () in
  let inst = random_inst 18 p in
  let d = F.correct_decision inst in
  if inst.F.gh.Gap_hamming.high then
    Alcotest.(check bool) "high" true (d = F.Delta_high)
  else Alcotest.(check bool) "low" true (d = F.Delta_low)

(* --- the full Lemma 4.1 reduction through the codec --- *)

let test_gap_hamming_protocol_via_codec () =
  (* Alice's message = the instance codec (h/ε² bits); Bob decides the
     planted Hamming gap from it — the Theorem 1.2 reduction end-to-end. *)
  let rng = Prng.create 77 in
  let p = small_params () in
  let st =
    F.run_trials rng p
      ~sketch_of:(fun _ inst -> F.codec_sketch inst)
      ~decoder:`Topk ~trials:60
  in
  Alcotest.(check bool) "success >= 2/3" true (st.F.success_rate >= 0.67);
  Alcotest.(check bool) "message ~ h/eps^2 bits" true
    (st.F.mean_sketch_bits >= float_of_int (F.bits_capacity p))

(* qcheck: the top-k Q maximizes the additive score over half-size subsets
   (Lemma 4.4's argmax property for additive sketches): its total w(Q, T)
   on the true graph is at least that of any random half-size subset. *)
let prop_topk_maximizes_score =
  QCheck.Test.make ~name:"§4 top-k Q maximizes w(U,T)" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let p = F.make_params ~beta:1 ~inv_eps_sq:16 32 in
      let inst = F.random_instance rng p in
      let t = inst.F.gh.Gap_hamming.t in
      let a = inst.F.target in
      let q =
        F.topk_q_set p ~sketch_graph:(Csr.of_digraph inst.F.graph) a ~t
      in
      let score mem =
        let acc = ref 0.0 in
        for i = 0 to 15 do
          if mem i then
            for v = 0 to 15 do
              if t.(v) then
                acc := !acc +. Digraph.weight inst.F.graph i (16 + (a.F.j * 16) + v)
            done
        done;
        !acc
      in
      let random_half = Cut.random_of_size rng ~n:16 ~k:8 in
      score (fun i -> q.(i)) >= score (Cut.mem random_half) -. 1e-9)

let suite =
  [
    Alcotest.test_case "params: derived" `Quick test_params_derived;
    Alcotest.test_case "params: validation" `Quick test_params_validation;
    Alcotest.test_case "address: roundtrip" `Quick test_address_roundtrip;
    Alcotest.test_case "encode: shape" `Quick test_encode_graph_shape;
    Alcotest.test_case "encode: weights" `Quick test_encode_weights;
    Alcotest.test_case "encode: strings -> weights" `Quick test_encode_forward_matches_strings;
    Alcotest.test_case "encode: balance" `Quick test_encode_balance;
    Alcotest.test_case "encode: strongly connected" `Quick test_encode_strongly_connected;
    Alcotest.test_case "fixed backward = skeleton" `Quick test_fixed_backward_matches_skeleton;
    Alcotest.test_case "estimate w(U,T) exact" `Quick test_estimate_w_ut_exact;
    Alcotest.test_case "decode: enumerate (exact)" `Quick test_decode_enumerate_exact_high_success;
    Alcotest.test_case "decode: topk (exact)" `Quick test_decode_topk_exact_high_success;
    Alcotest.test_case "decode: enumerate freezes once per trial" `Quick
      test_decode_enumerate_freezes_once;
    Alcotest.test_case "decode: single query (exact)" `Quick test_decode_single_query_exact;
    Alcotest.test_case "single vs enumerate separation" `Quick test_single_query_collapses_before_enumerate;
    Alcotest.test_case "decode: enumerate guard" `Quick test_decode_enumerate_guard;
    Alcotest.test_case "decode: csr = query path" `Quick test_decode_enumerate_csr_matches_query_path;
    Alcotest.test_case "decode: accepts k = 24" `Quick test_decode_enumerate_accepts_k24;
    Alcotest.test_case "decode: csr guard" `Quick test_decode_enumerate_csr_guard;
    Alcotest.test_case "topk: |Q| = k/2" `Quick test_topk_q_half_size;
    Alcotest.test_case "lemma 4.3 statistics" `Quick test_lemma43_stats_reasonable;
    Alcotest.test_case "codec: bits" `Quick test_codec_bits;
    Alcotest.test_case "codec: exact" `Quick test_codec_sketch_exact;
    Alcotest.test_case "correct decision mapping" `Quick test_correct_decision_mapping;
    Alcotest.test_case "gap-hamming protocol via codec (Lemma 4.1)" `Quick test_gap_hamming_protocol_via_codec;
    QCheck_alcotest.to_alcotest prop_topk_maximizes_score;
  ]
