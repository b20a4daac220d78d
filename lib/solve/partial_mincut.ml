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
   only certification make it slow.

   Before any of that, the global solver tries the exact path: a minimum
   cut crosses only low-connectivity edges, so contracting every edge the
   λ̂ lower bounds prove uncuttable leaves a quotient small enough for
   Stoer–Wagner on the instances the sampler is built for (see
   [quotient_mincut]). *)

let m_solves = Metrics.counter "partial.solves"
let m_certified = Metrics.counter "partial.certified"
let m_fallbacks = Metrics.counter "partial.fallbacks"
let m_exact = Metrics.counter "partial.exact"

type solver =
  | Karger of { trials : int }
  | Karger_stein of { runs : int option }
  | Stoer_wagner

type fallback = H_unsolvable | Eps_violated
type path = Exact | Sampled | Dense of fallback

type stats = {
  path : path;
  m_full : int;
  m_sparse : int;
  conn : Connectivity.stats;
  quotient_k : int;
  tau : float;
  sparse_value : float;
  margin : float;
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
  let _, dst, _ = Connectivity.edges conn in
  if Connectivity.n conn <> Ugraph.n g || Array.length dst <> Ugraph.m g then
    invalid_arg "Partial_mincut.sparsify: connectivity is for another graph"

(* Edges per sampling task: fixed, so [pool.tasks] is deterministic. *)
let coin_block = 1024

(* ρ and the λ̂ estimates the sampler draws from. *)
let estimates ?c ?rho:rho_opt ?cap ?domains ?chunk ?flow_budget ?connectivity
    ?csr ~eps g =
  let rho =
    match rho_opt with
    | Some r ->
        if r <= 0.0 then invalid_arg "Partial_mincut: rho must be positive";
        r
    | None -> rho_ugraph ?c ~eps ~n:(Ugraph.n g) ()
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
  (rho, conn)

(* Every edge draws its coins from its own [Prng.split master i] stream,
   so the pooled pass is scheduling-free; survivors are inserted in index
   order afterwards (a kept weight is always positive, 0 marks a drop). *)
let sample ?domains ~rho rng conn =
  let master = Prng.fork rng in
  let off, dst, w = Connectivity.edges conn in
  let n = Connectivity.n conn and m = Array.length dst in
  let kept = Array.make m 0.0 in
  ignore
    (Pool.run_batched ?domains ~chunk:1
       ~arena:(fun () -> ())
       ~n:((m + coin_block - 1) / coin_block)
       (fun () blk ->
         for i = blk * coin_block to min m ((blk + 1) * coin_block) - 1 do
           let lam = Connectivity.lambda_at conn i in
           let p = if lam <= 0.0 then 1.0 else rho /. lam in
           match Importance.binomial_keep (Prng.split master i) ~p ~w:w.(i) with
           | Some w' -> kept.(i) <- w'
           | None -> ()
         done));
  let h = Ugraph.create n in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      if kept.(i) > 0.0 then Ugraph.add_edge h u dst.(i) kept.(i)
    done
  done;
  h

let sparsify ?c ?rho ?cap ?domains ?chunk ?flow_budget ?connectivity ?csr rng
    ~eps g =
  Trace.with_span "partial.sparsify" @@ fun () ->
  let rho, conn =
    estimates ?c ?rho ?cap ?domains ?chunk ?flow_budget ?connectivity ?csr
      ~eps g
  in
  (sample ?domains ~rho rng conn, conn)

(* --- The exact path: contract what λ̂ proves uncuttable --- *)

(* The guard: the NI tier of λ̂ counts rounded multiplicities, so λ̂ is a
   proven lower bound on λ only for integer weights. Integers up to 2^52
   also add exactly while their sums stay below 2^53, so "lighter than τ"
   is decided without rounding; a sum past that fails the final recheck
   and declines. *)
let integer_weights csr =
  let _, _, w = Csr.out_rows csr in
  Array.for_all (fun x -> Float.is_integer x && x >= 1.0 && x <= 0x1p52) w

(* [answer] is (value, cut, quotient edges) when the path is exact. *)
type quotient = { k : int; tau : float; answer : (float * Cut.t * int) option }

(* Let U₀ be the minimum weighted degree — a real cut, a singleton — and
   τ = min(U₀, cap). Since λ̂ <= λ, a cut lighter than τ separates no edge
   with λ̂ >= τ: union-find all of those (canonical order, no sort) and
   such a cut survives in the k-vertex quotient, while every quotient cut
   is a cut of g. So when k is small enough for Stoer–Wagner's O(k³) to
   cost no more than one pass over g (k³ <= max(8, m)), the answer
   min(U₀, quotient min cut) is the exact minimum cut whenever it is
   below τ — or whenever τ = U₀, as no cut is lighter than U₀ without
   being lighter than τ. Otherwise no answer: a cut of weight in [cap, U₀)
   may hide inside a super-vertex. The answer's weight is recomputed on
   the frozen view and must equal the quotient's. *)
let quotient_mincut csr conn =
  let n = Csr.n csr in
  let off, odst, ow = Csr.out_rows csr in
  let u0 = ref infinity and light = ref 0 in
  for v = 0 to n - 1 do
    let d = ref 0.0 in
    for j = off.(v) to off.(v + 1) - 1 do
      d := !d +. ow.(j)
    done;
    if !d < !u0 then begin
      u0 := !d;
      light := v
    end
  done;
  let u0 = !u0 in
  let tau = Float.min u0 (Connectivity.cap conn) in
  let parent = Array.init n Fun.id in
  let rec find x =
    let p = parent.(x) in
    if p = x then x
    else begin
      let r = find p in
      parent.(x) <- r;
      r
    end
  in
  let k = ref n in
  Connectivity.iter conn (fun u v _ lam ->
      if lam >= tau then begin
        let a = find u and b = find v in
        if a <> b then begin
          parent.(a) <- b;
          decr k
        end
      end);
  let k = !k in
  let quotient_cut () =
    (* Super-vertices numbered by first member; quotient weights summed
       in canonical edge order into a dense upper triangle. *)
    let label = Array.make n (-1) and next = ref 0 in
    for v = 0 to n - 1 do
      let r = find v in
      if label.(r) < 0 then begin
        label.(r) <- !next;
        incr next
      end;
      label.(v) <- label.(r)
    done;
    let mat = Array.make (k * k) 0.0 in
    for u = 0 to n - 1 do
      for j = off.(u) to off.(u + 1) - 1 do
        let a = label.(u) and b = label.(odst.(j)) in
        if a < b then mat.((a * k) + b) <- mat.((a * k) + b) +. ow.(j)
      done
    done;
    let q = Ugraph.create k in
    for a = 0 to k - 1 do
      for b = a + 1 to k - 1 do
        if mat.((a * k) + b) > 0.0 then Ugraph.add_edge q a b mat.((a * k) + b)
      done
    done;
    let value, side = Stoer_wagner.mincut q in
    (value, Cut.of_mem ~n (fun v -> Cut.mem side label.(v)), Ugraph.m q)
  in
  let m = Csr.m csr / 2 in
  let answer =
    if n < 2 || k * k * k > max 8 m then None
    else
      let value, cut, mq =
        let single = (u0, Cut.singleton ~n !light, 0) in
        if k < 2 then single
        else
          let (qv, _, _) as q = quotient_cut () in
          if qv < u0 then q else single
      in
      if (value < tau || tau = u0) && Csr.cut_value csr cut = value then
        Some (value, cut, mq)
      else None
  in
  { k; tau; answer }

let solve_dense ?domains ?chunk rng ~solver g =
  match solver with
  | Karger { trials } -> Karger.mincut ?domains ?chunk rng ~trials g
  | Karger_stein { runs } -> Karger_stein.mincut ?domains ?chunk ?runs rng g
  | Stoer_wagner -> Stoer_wagner.mincut g

(* |w_G(S) - w_H(S)| <= ε·w_G(S): exactly the per-cut promise the
   sparsifier makes, checked on the one cut that matters. The margin is
   the slack left, so the cut certifies exactly when it is >= 0. *)
let margin ~eps ~exact ~sparse =
  (eps *. exact) +. 1e-9 -. Float.abs (exact -. sparse)

let mincut ?domains ?chunk ?c ?rho ?cap ?flow_budget ?connectivity ?csr rng
    ~eps ~solver g =
  Metrics.inc m_solves;
  let csr = match csr with Some c -> c | None -> Csr.of_ugraph g in
  let rho, conn =
    estimates ?c ?rho ?cap ?domains ?chunk ?flow_budget ?connectivity ~csr
      ~eps g
  in
  let quotient =
    if integer_weights csr then
      Trace.with_span "partial.quotient" (fun () -> quotient_mincut csr conn)
    else { k = 0; tau = nan; answer = None }
  in
  let stats ~path ~m_sparse ~sparse_value ~margin =
    {
      path;
      m_full = Ugraph.m g;
      m_sparse;
      conn = Connectivity.stats conn;
      quotient_k = quotient.k;
      tau = quotient.tau;
      sparse_value;
      margin;
    }
  in
  match quotient.answer with
  | Some (value, cut, mq) ->
      Metrics.inc m_exact;
      {
        value;
        cut;
        stats = stats ~path:Exact ~m_sparse:mq ~sparse_value:value ~margin:nan;
      }
  | None -> (
      let h =
        Trace.with_span "partial.sparsify" (fun () ->
            sample ?domains ~rho rng conn)
      in
      let sparse_rng = Prng.fork rng in
      let fallback_rng = Prng.fork rng in
      let fall_back reason ~sparse_value ~margin =
        Metrics.inc m_fallbacks;
        let value, cut = solve_dense ?domains ?chunk fallback_rng ~solver g in
        {
          value;
          cut;
          stats =
            stats ~path:(Dense reason) ~m_sparse:(Ugraph.m h) ~sparse_value
              ~margin;
        }
      in
      match
        Trace.with_span "partial.solve" (fun () ->
            solve_dense ?domains ?chunk sparse_rng ~solver h)
      with
      | exception Invalid_argument _ ->
          (* Sampling can disconnect H (binomial zero on a weak edge); the
             dense path answers. *)
          fall_back H_unsolvable ~sparse_value:nan ~margin:nan
      | sparse_value, cut ->
          let exact =
            Trace.with_span "partial.certify" (fun () -> Csr.cut_value csr cut)
          in
          let margin = margin ~eps ~exact ~sparse:sparse_value in
          if margin >= 0.0 then begin
            Metrics.inc m_certified;
            {
              value = exact;
              cut;
              stats =
                stats ~path:Sampled ~m_sparse:(Ugraph.m h) ~sparse_value ~margin;
            }
          end
          else fall_back Eps_violated ~sparse_value ~margin)

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
  let stats ~path ~sparse_value ~margin =
    {
      path;
      m_full = Digraph.m g;
      m_sparse = Digraph.m h;
      conn = Connectivity.stats conn;
      quotient_k = 0;
      tau = nan;
      sparse_value;
      margin;
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
  let margin = margin ~eps ~exact ~sparse:sparse_value in
  if margin >= 0.0 then begin
    Metrics.inc m_certified;
    { value = exact; cut = side; stats = stats ~path:Sampled ~sparse_value ~margin }
  end
  else begin
    Metrics.inc m_fallbacks;
    let value, cut = Dinic.mincut_side (Dinic.of_csr csr) ~s ~t:sink in
    { value; cut; stats = stats ~path:(Dense Eps_violated) ~sparse_value ~margin }
  end
