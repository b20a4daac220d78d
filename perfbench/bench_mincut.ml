(* mincut: the min-cut side of Theorems 1.3/5.7, sparsified, solved,
   then certified by Partial_mincut.

   op:  one certified global min cut of E24's planted two-block graph
        (n = 1000, ~150k weighted edges): freeze, NI strengths, the λ̂
        tiers, then Partial_mincut.mincut with Karger (144 trials) on the
        sampled graph, certified against the frozen input.
   aux: one certified directed s–t min cut of a β = 2 balanced digraph
        (n = 160): Connectivity.estimate_digraph, then
        Partial_mincut.st_mincut.

   A cycle is one op and [aux_per_cycle] aux ops. Both run on 2 domains:
   this is the workload where the parallel side of Pool does the work. *)

open Dcs
open Harness

let domains = 2

(* E24's speed instance. *)
let block = 500
let cross = 2
let p_inner = 0.6
let max_weight = 6
let rounds = 8
let cap = 300.0
let flow_budget = 32
let rho = 14.0
let eps = 0.4
let trials = 144

(* E24's directed certify/repair instance. *)
let d_n = 160
let d_p = 0.3
let d_beta = 2.0
let d_max_weight = 8.0
let d_cap = 300.0
let d_flow_budget = 200
let d_rho = 20.0
let d_eps = 0.5

let aux_per_cycle = 2

type t = {
  g : Ugraph.t;
  planted_value : float;
  dg : Digraph.t;
  dense_st : float;
  solve_rng : Prng.t;
  st_rng : Prng.t;
  karger_rng : Prng.t;
  mutable kept_frac : float;
}

let setup ~seed ~tmp:_ =
  let master = Prng.create seed in
  let g =
    let r = Prng.split master 0 in
    Generators.random_multigraph_weights r
      (Generators.planted_mincut r ~block ~k:cross ~p_inner)
      ~max_weight
  in
  (* The planted cut's weight, summed straight off the edge table: the
     exact reference for every op, with no Csr involved. *)
  let planted_value =
    Ugraph.fold_edges
      (fun u v w acc -> if u < block <> (v < block) then acc +. w else acc)
      g 0.0
  in
  let dg =
    Generators.balanced_digraph (Prng.split master 1) ~n:d_n ~p:d_p
      ~beta:d_beta ~max_weight:d_max_weight
  in
  (* Dense Dinic on the whole digraph: the s–t reference. *)
  let dense_st = Dinic.maxflow (Dinic.of_digraph dg) ~s:0 ~t:(d_n - 1) in
  {
    g;
    planted_value;
    dg;
    dense_st;
    solve_rng = Prng.split master 2;
    st_rng = Prng.split master 3;
    karger_rng = Prng.split master 4;
    kept_frac = nan;
  }

(* What a user pays per graph for one certified global min cut. *)
let global t =
  let csr = layer "graph.freeze_ms" (fun () -> Csr.of_ugraph t.g) in
  let strengths =
    layer "sketch.strength_ms" (fun () -> Strength.compute ~max_rounds:rounds t.g)
  in
  let conn =
    layer "sketch.connectivity_ms" (fun () ->
        Connectivity.estimate_ugraph ~domains ~strengths ~flow_budget ~cap t.g)
  in
  let r =
    layer "solve.mincut_ms" (fun () ->
        Partial_mincut.mincut ~domains ~rho ~connectivity:conn ~csr
          (Prng.copy t.solve_rng) ~eps
          ~solver:(Partial_mincut.Karger { trials })
          t.g)
  in
  (csr, conn, r)

(* The layers Partial_mincut.mincut runs internally, called again from
   outside on the op's own estimates and answer. *)
let explain t csr conn (r : Partial_mincut.result) =
  let h =
    probe "solve.sparsify_ms" (fun () ->
        fst
          (Partial_mincut.sparsify ~domains ~rho ~connectivity:conn
             (Prng.copy t.solve_rng) ~eps t.g))
  in
  Option.iter
    (fun h ->
      ignore
        (probe "mincut.karger_h_ms" (fun () ->
             Karger.mincut ~domains (Prng.copy t.karger_rng) ~trials h)))
    h;
  ignore (probe "solve.certify_ms" (fun () -> Csr.cut_value csr r.cut))

let st t =
  let conn =
    layer "sketch.connectivity_dir_ms" (fun () ->
        Connectivity.estimate_digraph ~domains ~flow_budget:d_flow_budget
          ~beta:d_beta ~cap:d_cap t.dg)
  in
  layer "solve.st_mincut_ms" (fun () ->
      Partial_mincut.st_mincut ~domains ~rho:d_rho ~connectivity:conn
        (Prng.copy t.st_rng) ~eps:d_eps ~beta:d_beta ~s:0 ~t:(d_n - 1) t.dg)

let cycle t =
  let csr, conn, r = op Op (fun () -> global t) in
  check
    (Float.abs (r.value -. t.planted_value) <= 1e-9 *. Float.max 1.0 t.planted_value)
    "mincut: value %g, planted cut %g" r.value t.planted_value;
  let s = r.stats in
  t.kept_frac <- float_of_int s.m_sparse /. float_of_int s.m_full;
  explain t csr conn r;
  for _ = 1 to aux_per_cycle do
    let a = op Aux (fun () -> st t) in
    check
      (a.value >= t.dense_st -. 1e-9
      && a.value <= ((1.0 +. d_eps) *. t.dense_st) +. 1e-9)
      "st_mincut: value %g outside [%g, (1+%g)x] of dense Dinic" a.value
      t.dense_st d_eps
  done

(* Per-layer figures of a traced run; counts are per cycle. *)
let layers t =
  let ms name = median (values name) in
  let op_counts = counts_of_cycle Op in
  let count name = metric name "count" (float_of_int (Counts.get op_counts name)) in
  [
    metric "graph.freeze_ms" "ms" (ms "graph.freeze_ms");
    metric "sketch.strength_ms" "ms" (ms "sketch.strength_ms");
    metric "sketch.connectivity_ms" "ms" (ms "sketch.connectivity_ms");
    metric "solve.mincut_ms" "ms" (ms "solve.mincut_ms");
    metric "solve.sparsify_ms" "ms" (ms "solve.sparsify_ms");
    metric "mincut.karger_h_ms" "ms" (ms "mincut.karger_h_ms");
    metric "solve.certify_ms" "ms" (ms "solve.certify_ms");
    metric "sketch.connectivity_dir_ms" "ms" (ms "sketch.connectivity_dir_ms");
    metric "solve.st_mincut_ms" "ms" (ms "solve.st_mincut_ms");
    metric "pool.cpu_util" "ratio" (median (values "cpu_util"));
    count "conn.by_weight";
    count "conn.by_strength";
    count "conn.by_triangle";
    count "conn.flows";
    count "conn.budgeted";
    count "csr.builds";
    count "pool.tasks";
    count "pool.batched_calls";
    count "partial.fallbacks";
    metric "solve.kept_frac" "ratio" t.kept_frac;
  ]
