module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Prng = Dcs_util.Prng
module Karger = Dcs_mincut.Karger
module Karger_stein = Dcs_mincut.Karger_stein
module Stoer_wagner = Dcs_mincut.Stoer_wagner
module Dinic = Dcs_mincut.Dinic
module Connectivity = Dcs_sketch.Connectivity
module Importance = Dcs_sketch.Importance
module Directed_sparsifier = Dcs_sketch.Directed_sparsifier
module Pool = Dcs_util.Pool
module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

(* Sparsify-then-solve (Cen–Li–Nanongkai et al., partial sparsification):
   run the minimum-cut solver on a connectivity-sampled sparsifier H —
   whose edge count is governed by the sampling rate ρ, not the source
   density — then *certify* the returned cut against the original graph:
   recompute its exact weight over the frozen CSR view and accept only if
   H's value for it is within the sparsifier's ε promise. On acceptance
   the answer is repaired to the exact weight (the cut is real; only its
   H-value was approximate); on violation — or when sampling left H
   unsolvable, e.g. disconnected — fall back to the dense solver on the
   original graph, so the fast path can never make the answer *wrong*,
   only certification make it slow. *)

let m_solves = Metrics.counter "partial.solves"
let m_certified = Metrics.counter "partial.certified"
let m_fallbacks = Metrics.counter "partial.fallbacks"

type solver =
  | Karger of { trials : int }
  | Karger_stein of { runs : int option }
  | Stoer_wagner

type stats = {
  m_full : int;
  m_sparse : int;
  conn : Connectivity.stats;
  sparse_value : float;
  certified : bool;
  fell_back : bool;
}

type result = { value : float; cut : Dcs_graph.Cut.t; stats : stats }

(* Undirected sampling rate: connectivity sampling of undirected graphs
   needs only the Benczúr–Karger-shaped O(log n/ε²) rate (no balance
   factor) — sampling by exact local connectivity at this rate preserves
   all cuts within (1 ± ε) w.h.p. (Fung–Hariharan–Harvey–Panigrahi). *)
let rho_ugraph ?(c = 2.0) ~eps ~n () =
  if eps <= 0.0 || eps >= 1.0 then invalid_arg "Partial_mincut: eps in (0,1)";
  c *. log (float_of_int (max 2 n)) /. (eps *. eps)

(* A [~connectivity] from another graph would sample H from the wrong
   edges, and certify would then vouch for a real cut of [g] that need not
   be minimal: the estimates must at least cover [g]'s vertices and edges.
   ([st_mincut]'s estimates are checked the same way by
   [Directed_sparsifier.connectivity_sparsify].) *)
let check_connectivity conn g =
  if
    Connectivity.n conn <> Ugraph.n g
    || Array.length (Connectivity.edges conn) <> Ugraph.m g
  then invalid_arg "Partial_mincut.sparsify: connectivity is for another graph"

(* Edges per sampling task: fixed, so [pool.tasks] is deterministic. *)
let coin_block = 1024

let sparsify ?c ?rho:rho_opt ?cap ?domains ?chunk ?flow_budget ?connectivity
    ?csr rng ~eps g =
  Trace.with_span "partial.sparsify" @@ fun () ->
  let n = Ugraph.n g in
  let rho =
    match rho_opt with
    | Some r ->
        if r <= 0.0 then invalid_arg "Partial_mincut: rho must be positive";
        r
    | None -> rho_ugraph ?c ~eps ~n ()
  in
  let conn =
    match connectivity with
    | Some conn ->
        check_connectivity conn g;
        conn
    | None ->
        (* Estimates saturate at the cap and p = ρ/λ̂, so the cap must
           exceed ρ for any edge to be dropped; the default lets keep
           probabilities fall to 1/16. *)
        let cap = match cap with Some k -> k | None -> 16.0 *. rho in
        Connectivity.estimate_ugraph ?domains ?chunk ?flow_budget ?csr ~cap g
  in
  (* Every edge draws its coins from its own [Prng.split master i] stream,
     so the pooled pass is scheduling-free; survivors are inserted in index
     order afterwards (a kept weight is always positive, 0 marks a drop). *)
  let master = Prng.fork rng in
  let edges = Connectivity.edges conn in
  let m = Array.length edges in
  let kept = Array.make m 0.0 in
  ignore
    (Pool.run_batched ?domains ~chunk:1
       ~arena:(fun () -> ())
       ~n:((m + coin_block - 1) / coin_block)
       (fun () blk ->
         for i = blk * coin_block to min m ((blk + 1) * coin_block) - 1 do
           let _, _, w = edges.(i) in
           let lam = Connectivity.lambda_at conn i in
           let p = if lam <= 0.0 then 1.0 else rho /. lam in
           match Importance.binomial_keep (Prng.split master i) ~p ~w with
           | Some w' -> kept.(i) <- w'
           | None -> ()
         done));
  let h = Ugraph.create n in
  Array.iteri
    (fun i (u, v, _) -> if kept.(i) > 0.0 then Ugraph.add_edge h u v kept.(i))
    edges;
  (h, conn)

let solve_dense ?domains ?chunk rng ~solver g =
  match solver with
  | Karger { trials } -> Karger.mincut ?domains ?chunk rng ~trials g
  | Karger_stein { runs } -> Karger_stein.mincut ?domains ?chunk ?runs rng g
  | Stoer_wagner -> Stoer_wagner.mincut g

(* |w_G(S) - w_H(S)| <= ε·w_G(S): exactly the per-cut promise the
   sparsifier makes, checked on the one cut that matters. *)
let certifies ~eps ~exact ~sparse =
  Float.abs (exact -. sparse) <= (eps *. exact) +. 1e-9

let mincut ?domains ?chunk ?c ?rho ?cap ?flow_budget ?connectivity ?csr rng
    ~eps ~solver g =
  Metrics.inc m_solves;
  let csr = match csr with Some c -> c | None -> Csr.of_ugraph g in
  let h, conn =
    sparsify ?c ?rho ?cap ?domains ?chunk ?flow_budget ?connectivity ~csr rng
      ~eps g
  in
  let sparse_rng = Prng.fork rng in
  let fallback_rng = Prng.fork rng in
  let stats ~sparse_value ~certified ~fell_back =
    {
      m_full = Ugraph.m g;
      m_sparse = Ugraph.m h;
      conn = Connectivity.stats conn;
      sparse_value;
      certified;
      fell_back;
    }
  in
  let fall_back ~sparse_value =
    Metrics.inc m_fallbacks;
    let value, cut = solve_dense ?domains ?chunk fallback_rng ~solver g in
    { value; cut; stats = stats ~sparse_value ~certified:false ~fell_back:true }
  in
  match
    Trace.with_span "partial.solve" (fun () ->
        solve_dense ?domains ?chunk sparse_rng ~solver h)
  with
  | exception Invalid_argument _ ->
      (* Sampling can disconnect H (binomial zero on a weak edge); the
         dense path answers. *)
      fall_back ~sparse_value:nan
  | sparse_value, cut ->
      let exact =
        Trace.with_span "partial.certify" (fun () -> Csr.cut_value csr cut)
      in
      if certifies ~eps ~exact ~sparse:sparse_value then begin
        Metrics.inc m_certified;
        {
          value = exact;
          cut;
          stats = stats ~sparse_value ~certified:true ~fell_back:false;
        }
      end
      else fall_back ~sparse_value

let st_mincut ?c ?rho:rho_opt ?cap ?domains ?chunk ?flow_budget ?connectivity
    rng ~eps ~beta ~s ~t:sink g =
  Metrics.inc m_solves;
  let n = Digraph.n g in
  if s = sink then invalid_arg "Partial_mincut.st_mincut: s = t";
  let csr = Csr.of_digraph g in
  let rho =
    match rho_opt with
    | Some r -> r
    | None -> Directed_sparsifier.rho ?c ~eps ~beta ~n ()
  in
  let conn =
    match connectivity with
    | Some conn -> conn
    | None ->
        let cap = match cap with Some k -> k | None -> 16.0 *. rho in
        Connectivity.estimate_digraph ?domains ?chunk ?flow_budget ~csr ~beta
          ~cap g
  in
  let h =
    Trace.with_span "partial.sparsify" (fun () ->
        Directed_sparsifier.connectivity_sparsify ~rho ~connectivity:conn rng
          ~eps ~beta g)
  in
  let stats ~sparse_value ~certified ~fell_back =
    {
      m_full = Digraph.m g;
      m_sparse = Digraph.m h;
      conn = Connectivity.stats conn;
      sparse_value;
      certified;
      fell_back;
    }
  in
  let sparse_value, side =
    Trace.with_span "partial.solve" (fun () ->
        Dinic.mincut_side (Dinic.of_digraph h) ~s ~t:sink)
  in
  let exact =
    Trace.with_span "partial.certify" (fun () ->
        Csr.cut_weight csr (Cut.mem side))
  in
  if certifies ~eps ~exact ~sparse:sparse_value then begin
    Metrics.inc m_certified;
    {
      value = exact;
      cut = side;
      stats = stats ~sparse_value ~certified:true ~fell_back:false;
    }
  end
  else begin
    Metrics.inc m_fallbacks;
    let value, cut = Dinic.mincut_side (Dinic.of_csr csr) ~s ~t:sink in
    { value; cut; stats = stats ~sparse_value ~certified:false ~fell_back:true }
  end
