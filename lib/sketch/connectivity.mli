(** Batched local edge-connectivity estimation for importance sampling.

    For every edge (u, v) of a graph, compute a sound lower bound
    λ̂(u,v) <= λ(u,v), sharp up to a cap: λ̂ = min(λ, cap) whenever the
    exact tier runs. Connectivity sampling (CCPS21: p = min(1, ρ/λ))
    tolerates any underestimate — it only oversamples — and never needs λ
    beyond the sampling rate ρ, so estimation is a chain of increasingly
    expensive, always-sound lower bounds that stops at the first one
    reaching [cap]:

    + the edge's own weight;
    + the Nagamochi–Ibaraki {!Strength} index (divided by (1+β) on
      β-balanced digraphs);
    + a common-neighbour bound (direct edge + one edge-disjoint two-hop
      path per shared neighbour), computed in fixed blocks of edges over
      {!Dcs_util.Pool.run_batched}, each worker domain scattering
      source rows into one dense length-n row and walking target rows;
    + exact Dinic max-flow capped at [cap] — batched over
      {!Dcs_util.Pool.run_batched} with one reusable residual network per
      worker domain (built once, reset between queries), run
      weakest-bound-first under [flow_budget], and, for undirected
      graphs, run on the {!Strength.certificate} (O(cap·n) edges) instead
      of the full graph.

    When the estimates feed p = min(1, ρ/λ̂) sampling, choose
    [cap] {e well above} ρ: estimates saturate at the cap, so [cap = ρ]
    pins every keep probability at 1 and nothing is dropped; keep
    probabilities bottom out at ρ/cap (the samplers default to 16·ρ).

    Estimates are a pure function of graph content (canonical edge order
    read off the frozen view, pure per-index merge and flow tasks):
    byte-identical for every domain count.
    {b Caveat.} The NI tier counts rounded integer multiplicities
    ([max 1 (round w)]), so on fractional weights it can overshoot the
    connectivity, and λ̂ = the max over tiers inherits the excess (the
    certificate the flows run on is clamped to the true weights, so the
    flow tier itself stays sound). Not every generator draws integer
    weights ({!Dcs_graph.Generators.balanced_digraph} does not). Only on
    integer weights >= 1 is every estimate a proven lower bound, so a
    caller that needs the proof must check the weights first — as
    {!Dcs_solve.Partial_mincut.mincut}'s exact path does with its
    integer-weight guard. Metered as [conn.edges], [conn.by_weight],
    [conn.by_strength], [conn.by_triangle], [conn.flows],
    [conn.budgeted]. *)

type stats = {
  edges : int;  (** edges estimated *)
  by_weight : int;  (** resolved by the weight tier (w >= cap) *)
  by_strength : int;  (** resolved by the NI strength tier *)
  by_triangle : int;  (** resolved by the common-neighbour tier *)
  flows : int;  (** exact capped max-flows run *)
  budgeted : int;  (** flow budget exhausted; kept the cheap bound *)
}

type t

val estimate_ugraph :
  ?domains:int ->
  ?chunk:int ->
  ?flow_budget:int ->
  ?csr:Dcs_graph.Csr.t ->
  ?strengths:Strength.t ->
  cap:float ->
  Dcs_graph.Ugraph.t ->
  t
(** λ̂ for every undirected edge (u < v). [csr] reuses a frozen view of
    [g] (it must match [g]; omitted, one is frozen here) — the
    common-neighbour tier and the canonical edge order read it. [strengths] reuses a
    precomputed NI decomposition of [g] (its {!Strength.certificate} is
    the flow graph, so estimates are sharp at [cap] when it ran for at
    least [cap] rounds — the default computes exactly that many); the NI
    tier walks it in lock-step with the canonical edges and raises
    [Invalid_argument] at the first edge where the two differ; [flow_budget]
    (default unlimited) caps the exact tier. [cap] must be positive;
    pass [infinity] for uncapped exact local connectivities (the cheap
    tiers then never fire). *)

val estimate_digraph :
  ?domains:int ->
  ?chunk:int ->
  ?flow_budget:int ->
  ?csr:Dcs_graph.Csr.t ->
  ?strengths:Strength.t ->
  ?beta:float ->
  cap:float ->
  Dcs_graph.Digraph.t ->
  t
(** λ̂ for every directed edge, flows on the digraph itself ([csr]
    reuses a frozen view of [g]). [strengths] is an NI decomposition of
    the {e undirected projection}; its index prefilters through the
    (1+β) balance factor (default [beta] = 1), which is sound exactly
    when [g] is β-balanced — the caller owns that promise, as in
    {!Directed_sparsifier}. *)

val n : t -> int

val cap : t -> float

val edges : t -> int array * int array * float array
(** [(off, dst, w)]: the estimated edges as rows by source, in the shape
    of {!Dcs_graph.Csr.out_rows} — edge [i] is (u, [dst.(i)]) with
    original weight [w.(i)] for [off.(u) <= i < off.(u+1)], in canonical
    ascending (u, v) order (the order {!Importance} samplers consume
    their streams in). The arrays are shared, not copied (a directed
    estimate shares its frozen view's out-rows); callers must not mutate
    them. *)

val lambda_at : t -> int -> float
(** Estimate for edge [i] of {!edges}; in [(0, cap t]]. *)

val iter : t -> (int -> int -> float -> float -> unit) -> unit
(** [iter t f] calls [f u v w lambda] in canonical edge order. *)

val stats : t -> stats
