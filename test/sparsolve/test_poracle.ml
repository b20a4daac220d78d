(* Differential oracles for the min-cut preprocessing: Strength and the
   Connectivity tier chain must equal straightforward references bit for
   bit. Each reference is the plain formulation kept here on purpose — NI
   forests over hashtables with a sorted edge walk, λ̂ from sorted edge
   lists and per-edge sorted-row merges — so a faster implementation can
   only pass by computing exactly the same numbers. *)

open Dcs

let bits = Int64.bits_of_float

(* Random weighted graphs, fractional (sub-unit ones included) or integer,
   with a few isolated vertices at the top of the range. *)
let random_ugraph seed ~n ~p ~frac =
  let r = Prng.create seed in
  let g = Ugraph.create n in
  let live = max 0 (n - 2) in
  for u = 0 to live - 1 do
    for v = u + 1 to live - 1 do
      if Prng.float r 1.0 < p then
        let w =
          if frac then 0.05 +. Prng.float r 6.0
          else float_of_int (1 + Prng.int r 6)
        in
        Ugraph.add_edge g u v w
    done
  done;
  g

let random_digraph seed ~n ~p =
  let r = Prng.create seed in
  let g = Digraph.create n in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.float r 1.0 < p then
        Digraph.add_edge g u v (float_of_int (1 + Prng.int r 8))
    done
  done;
  g

(* --- Strength reference: NI forests over hashtables --- *)

type ref_strength = {
  r_idx : (int * int, int) Hashtbl.t;
  r_cons : (int * int, int) Hashtbl.t;
  r_rounds : int;
}

let rec find parent x =
  if parent.(x) = x then x
  else begin
    parent.(x) <- find parent parent.(x);
    parent.(x)
  end

let ref_strength ~max_rounds g =
  let n = Ugraph.n g in
  let idx = Hashtbl.create 64 and cons = Hashtbl.create 64 in
  let live = Hashtbl.create 64 in
  Ugraph.iter_edges g (fun u v w ->
      Hashtbl.replace live (u, v) (max 1 (int_of_float (Float.round w))));
  let all_edges = Array.of_seq (Hashtbl.to_seq_keys live) in
  Array.sort compare all_edges;
  let round = ref 0 in
  while Hashtbl.length live > 0 && !round < max_rounds do
    incr round;
    let parent = Array.init n Fun.id in
    let used = ref [] in
    Array.iter
      (fun (u, v) ->
        if Hashtbl.mem live (u, v) then begin
          let ru = find parent u and rv = find parent v in
          if ru <> rv then begin
            parent.(ru) <- rv;
            used := (u, v) :: !used
          end
        end)
      all_edges;
    List.iter
      (fun e ->
        Hashtbl.replace cons e
          (1 + Option.value (Hashtbl.find_opt cons e) ~default:0);
        let mult = Hashtbl.find live e in
        if mult <= 1 then begin
          Hashtbl.remove live e;
          Hashtbl.replace idx e !round
        end
        else Hashtbl.replace live e (mult - 1))
      !used
  done;
  Hashtbl.iter (fun e _ -> Hashtbl.replace idx e !round) live;
  { r_idx = idx; r_cons = cons; r_rounds = !round }

let sorted_keys tbl =
  let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare a;
  a

let ref_certificate s g =
  let h = Ugraph.create (Ugraph.n g) in
  Array.iter
    (fun (u, v) ->
      let w =
        Float.min (float_of_int (Hashtbl.find s.r_cons (u, v))) (Ugraph.weight g u v)
      in
      if w > 0.0 then Ugraph.add_edge h u v w)
    (sorted_keys s.r_cons);
  h

let check_strength ~max_rounds g =
  let s = Strength.compute ~max_rounds g in
  let r = ref_strength ~max_rounds g in
  Alcotest.(check int) "rounds_used" r.r_rounds (Strength.rounds_used s);
  let folded = List.rev (Strength.fold (fun u v i acc -> (u, v, i) :: acc) s []) in
  let expected =
    Array.to_list
      (Array.map (fun (u, v) -> (u, v, Hashtbl.find r.r_idx (u, v))) (sorted_keys r.r_idx))
  in
  Alcotest.(check (list (triple int int int))) "fold order and indices" expected folded;
  Hashtbl.iter
    (fun (u, v) i ->
      Alcotest.(check int) "index u v" i (Strength.index s u v);
      Alcotest.(check int) "index v u" i (Strength.index s v u))
    r.r_idx;
  let c = Strength.certificate s g and rc = ref_certificate r g in
  Alcotest.(check bool) "certificate" true (Ugraph.equal rc c);
  (* Same insertion history, so even hashtable iteration order agrees. *)
  Alcotest.(check (list (triple int int (float 0.0))))
    "certificate edge order" (Ugraph.edges rc) (Ugraph.edges c)

let test_strength_oracle () =
  List.iter
    (fun (seed, n, p, frac) ->
      let g = random_ugraph seed ~n ~p ~frac in
      List.iter (fun max_rounds -> check_strength ~max_rounds g) [ 1; 3; 512 ])
    [
      (1, 0, 0.5, false);
      (2, 1, 0.5, false);
      (3, 12, 0.6, true);
      (4, 30, 0.3, true);
      (5, 40, 0.5, false);
      (6, 25, 0.9, true);
    ]

(* --- λ̂ reference: sorted edge lists and sorted-row merges --- *)

let sorted_rows n fill =
  let rows = Array.make n [] in
  fill (fun u v w -> rows.(u) <- (v, w) :: rows.(u));
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort (fun (a, _) (b, _) -> compare a b) a;
      a)
    rows

let merge_bound a b u v w_direct =
  let i = ref 0 and j = ref 0 and acc = ref w_direct in
  while !i < Array.length a && !j < Array.length b do
    let x, xw = a.(!i) and y, yw = b.(!j) in
    if x = y then begin
      if x <> u && x <> v then acc := !acc +. Float.min xw yw;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  !acc

let ref_chain ~cap ~flow_budget ~edges ~ni ~out_rows ~in_rows ~flow_csr =
  let m = Array.length edges in
  let lambda = Array.make m 0.0 in
  let pending = ref [] and by_w = ref 0 and by_s = ref 0 and by_t = ref 0 in
  for i = m - 1 downto 0 do
    let _, _, w = edges.(i) in
    if w >= cap then (lambda.(i) <- cap; incr by_w)
    else
      let b = Float.max w (ni i) in
      if b >= cap then (lambda.(i) <- cap; incr by_s)
      else (lambda.(i) <- b; pending := i :: !pending)
  done;
  let unresolved =
    List.filter
      (fun i ->
        let u, v, w = edges.(i) in
        let tb = merge_bound out_rows.(u) in_rows.(v) u v w in
        if tb >= cap then (lambda.(i) <- cap; incr by_t; false)
        else (lambda.(i) <- Float.max lambda.(i) tb; true))
      !pending
    |> Array.of_list
  in
  Array.sort
    (fun i j ->
      let c = Float.compare lambda.(i) lambda.(j) in
      if c <> 0 then c else Int.compare i j)
    unresolved;
  let nflows = min flow_budget (Array.length unresolved) in
  let net = Dinic.of_csr flow_csr in
  for k = 0 to nflows - 1 do
    let i = unresolved.(k) in
    let u, v, _ = edges.(i) in
    lambda.(i) <- Float.max lambda.(i) (Dinic.maxflow ~limit:cap net ~s:u ~t:v)
  done;
  (lambda, (!by_w, !by_s, !by_t, nflows, Array.length unresolved - nflows))

let sorted_edges iter =
  let l = ref [] in
  iter (fun u v w -> l := (u, v, w) :: !l);
  let a = Array.of_list !l in
  Array.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) a;
  a

let check_conn ~label ref_edges (ref_lambda, (bw, bs, bt, fl, bu)) conn =
  let st = Connectivity.stats conn in
  Alcotest.(check int) (label ^ ": by_weight") bw st.Connectivity.by_weight;
  Alcotest.(check int) (label ^ ": by_strength") bs st.Connectivity.by_strength;
  Alcotest.(check int) (label ^ ": by_triangle") bt st.Connectivity.by_triangle;
  Alcotest.(check int) (label ^ ": flows") fl st.Connectivity.flows;
  Alcotest.(check int) (label ^ ": budgeted") bu st.Connectivity.budgeted;
  let _, dst, _ = Connectivity.edges conn in
  Alcotest.(check int) (label ^ ": edge count") (Array.length ref_edges)
    (Array.length dst);
  let i = ref 0 in
  Connectivity.iter conn (fun u v w lam ->
      let u', v', w' = ref_edges.(!i) in
      if u <> u' || v <> v' || bits w <> bits w' then
        Alcotest.failf "%s: edge %d is (%d,%d,%h), reference (%d,%d,%h)" label
          !i u v w u' v' w';
      if bits lam <> bits (Connectivity.lambda_at conn !i) then
        Alcotest.failf "%s: iter and lambda_at disagree at edge %d" label !i;
      if bits lam <> bits ref_lambda.(!i) then
        Alcotest.failf "%s: lambda(%d,%d) = %h, reference %h" label u v lam
          ref_lambda.(!i);
      incr i)

(* 4 saturates by weight or strength, 24 mostly by common neighbours, and
   1e6 saturates nothing: every edge reaches the merge tier and then the
   flows or the budget. *)
let caps = [ 4.0; 24.0; 1e6 ]

(* Which tiers the references resolved edges in, so a test cannot pass by
   never reaching one. *)
let tiers_seen = Array.make 5 0

let note_tiers (_, (bw, bs, bt, fl, bu)) =
  List.iteri (fun k x -> tiers_seen.(k) <- tiers_seen.(k) + x) [ bw; bs; bt; fl; bu ]

let check_tiers_seen () =
  Array.iteri
    (fun k x ->
      if x = 0 then
        Alcotest.failf "tier %d (weight/strength/triangle/flow/budget) never resolved an edge" k)
    tiers_seen

let test_lambda_ugraph_oracle () =
  Array.fill tiers_seen 0 5 0;
  List.iter
    (fun (seed, n, p, frac) ->
      let g = random_ugraph seed ~n ~p ~frac in
      let edges = sorted_edges (Ugraph.iter_edges g) in
      let rows =
        sorted_rows n (fun add ->
            Ugraph.iter_edges g (fun u v w ->
                add u v w;
                add v u w))
      in
      List.iter
        (fun cap ->
          let rounds = 6 in
          let rs = ref_strength ~max_rounds:rounds g in
          let ni i =
            let u, v, _ = edges.(i) in
            float_of_int (Hashtbl.find rs.r_idx (u, v))
          in
          let flow_budget = 40 in
          let expected =
            ref_chain ~cap ~flow_budget ~edges ~ni ~out_rows:rows ~in_rows:rows
              ~flow_csr:(Csr.of_ugraph (ref_certificate rs g))
          in
          note_tiers expected;
          let strengths = Strength.compute ~max_rounds:rounds g in
          (* Both neighbour-row sources: rows built from [g] (no frozen
             view given) and a given frozen view. *)
          let frozen = Csr.of_ugraph g in
          List.iter
            (fun domains ->
              check_conn
                ~label:(Printf.sprintf "ugraph seed %d cap %g d=%d" seed cap domains)
                edges expected
                (Connectivity.estimate_ugraph ~domains ~flow_budget ~strengths
                   ~cap g);
              check_conn
                ~label:
                  (Printf.sprintf "ugraph seed %d cap %g d=%d csr" seed cap
                     domains)
                edges expected
                (Connectivity.estimate_ugraph ~domains ~flow_budget ~strengths
                   ~csr:frozen ~cap g))
            [ 1; 2; 4 ])
        caps)
    (* 120 vertices at p = 0.5 give ~3500 edges: several merge blocks,
       with runs of one source crossing block boundaries. *)
    [
      (11, 0, 0.5, false);
      (12, 40, 0.5, false);
      (13, 60, 0.3, true);
      (14, 120, 0.5, false);
    ];
  check_tiers_seen ()

let test_lambda_digraph_oracle () =
  Array.fill tiers_seen 0 5 0;
  List.iter
    (fun (seed, n, p) ->
      let g = random_digraph seed ~n ~p in
      let edges = sorted_edges (Digraph.iter_edges g) in
      let out_rows = sorted_rows n (fun add -> Digraph.iter_edges g add) in
      let in_rows =
        sorted_rows n (fun add -> Digraph.iter_edges g (fun u v w -> add v u w))
      in
      (* NI indices are divided by 1 + beta = 3 here, so the strength tier
         fires only under a lower cap. *)
      let beta = 2.0 in
      List.iter
        (fun cap ->
          let rounds = 9 in
          let u = Ugraph.of_digraph g in
          let rs = ref_strength ~max_rounds:rounds u in
          let ni i =
            let a, b, _ = edges.(i) in
            float_of_int (Hashtbl.find rs.r_idx (min a b, max a b)) /. (1.0 +. beta)
          in
          let flow_budget = 40 in
          let expected =
            ref_chain ~cap ~flow_budget ~edges ~ni ~out_rows ~in_rows
              ~flow_csr:(Csr.of_digraph g)
          in
          note_tiers expected;
          let strengths = Strength.compute ~max_rounds:rounds u in
          List.iter
            (fun domains ->
              check_conn
                ~label:(Printf.sprintf "digraph seed %d cap %g d=%d" seed cap domains)
                edges expected
                (Connectivity.estimate_digraph ~domains ~flow_budget ~strengths
                   ~beta ~cap g))
            [ 1; 2; 4 ])
        [ 2.5; 24.0; 1e6 ])
    [ (21, 30, 0.3); (22, 50, 0.2); (23, 90, 0.3) ];
  check_tiers_seen ()

let suite =
  [
    Alcotest.test_case "strength = hashtable reference" `Quick
      test_strength_oracle;
    Alcotest.test_case "ugraph lambda = sorted-merge chain" `Quick
      test_lambda_ugraph_oracle;
    Alcotest.test_case "digraph lambda = sorted-merge chain" `Quick
      test_lambda_digraph_oracle;
  ]
