(** Sparsify-then-solve minimum cuts with certification and repair, and an
    exact path that skips sampling when the λ̂ estimates already decide.

    The partial-sparsification recipe of Cen–Li–Nanongkai et al.
    ({i Minimum Cuts in Directed Graphs via Partial Sparsification}): run
    the solver on a connectivity-sampled sparsifier H — edge count
    governed by the sampling rate ρ, not the source density — then
    {e certify} the returned cut against the original graph: its exact
    weight is recomputed over the frozen CSR view, and the sparse answer
    is accepted only if H's value for that cut is within the
    sparsifier's ε promise. On acceptance the reported value is the
    {e exact} weight (repair); on violation, or when sampling left H
    unsolvable (e.g. disconnected), the dense solver reruns on the
    original graph — the fast path can make the answer slower, never
    wrong. Accepted answers are (1+ε)-approximate minimum cuts with the
    sparsifier's success probability.

    {!mincut} first tries the {e exact path}: a minimum cut crosses only
    low-connectivity edges, so every edge whose λ̂ reaches
    τ = min(U₀, cap) (U₀ the minimum weighted degree) is contracted and
    Stoer–Wagner solves the quotient; when that proves the minimum, it is
    the answer and nothing is sampled. Metered as [partial.solves],
    [partial.exact], [partial.certified], [partial.fallbacks]. *)

type solver =
  | Karger of { trials : int }
  | Karger_stein of { runs : int option }  (** [None]: the solver default *)
  | Stoer_wagner

(** Why the dense solver reran on the input graph. *)
type fallback =
  | H_unsolvable  (** the solver rejected H (e.g. sampling disconnected it) *)
  | Eps_violated  (** H's value for the cut broke the ε promise *)

(** Which path answered. *)
type path =
  | Exact  (** the λ̂ quotient proved the minimum; nothing was sampled *)
  | Sampled  (** the cut solved on H certified within ε *)
  | Dense of fallback

type stats = {
  path : path;
  m_full : int;  (** edges of the input graph *)
  m_sparse : int;
      (** edges of the graph the fast path solved: the quotient on
          [Exact], the sparsifier H otherwise *)
  conn : Dcs_sketch.Connectivity.stats;  (** how λ̂ tiers resolved (prefilters/flows) *)
  quotient_k : int;
      (** super-vertices of the λ̂ quotient; 0 when the integer-weight
          guard skipped it (and always for {!st_mincut}) *)
  tau : float;  (** the contraction threshold min(U₀, cap); [nan] if skipped *)
  sparse_value : float;
      (** the cut's value in the graph solved ([nan] if H unsolvable) *)
  margin : float;
      (** certify slack ε·exact − |exact − sparse| (up to a 1e-9
          tolerance): >= 0 exactly when the cut certified; [nan] when no
          certification ran ([Exact], [Dense H_unsolvable]) *)
}

type result = { value : float; cut : Dcs_graph.Cut.t; stats : stats }
(** [value] is always an exact cut weight of the {e original} graph for
    [cut] — the proven minimum on [Exact], repaired on [Sampled], native
    on [Dense]. *)

val rho_ugraph : ?c:float -> eps:float -> n:int -> unit -> float
(** Undirected sampling rate c·ln n/ε² (default [c] = 2): sampling by
    local connectivity at this rate preserves all cuts within (1 ± ε)
    w.h.p. (Fung–Hariharan–Harvey–Panigrahi shape — no balance factor
    needed undirected). *)

val sparsify :
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?domains:int ->
  ?chunk:int ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  ?csr:Dcs_graph.Csr.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  Dcs_graph.Ugraph.t ->
  Dcs_graph.Ugraph.t * Dcs_sketch.Connectivity.t
(** Connectivity-sampled undirected sparsifier: p = min(1, ρ/λ̂) with λ̂
    from {!Connectivity.estimate_ugraph}, binomial weight resampling,
    one [Prng.split] stream per edge in canonical order, drawn in fixed
    blocks over {!Dcs_util.Pool.run_batched} (byte-identical for every
    domain count). Returns the sparsifier and the estimates it
    sampled from. [rho] overrides {!rho_ugraph}; [cap] is the estimation
    ceiling (default 16·ρ — it must exceed ρ for anything to be
    dropped, since estimates saturate there and p = ρ/λ̂);
    [connectivity] reuses estimates, which must be from this graph:
    [Invalid_argument] when their vertex or edge count differs from
    [g]'s. [csr] is a frozen view of [g] the estimation reads instead of
    freezing its own (unused when [connectivity] is given). *)

val mincut :
  ?domains:int ->
  ?chunk:int ->
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  ?csr:Dcs_graph.Csr.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  solver:solver ->
  Dcs_graph.Ugraph.t ->
  result
(** Global minimum cut: the exact path, else {!sparsify} + [solver] +
    certify/repair.

    {b Exact path.} With the estimates in hand (λ̂ <= λ) and U₀ the
    minimum weighted degree, every edge with λ̂ >= τ = min(U₀, cap) is
    contracted (union-find, canonical order). A cut lighter than τ
    separates no such edge, so it survives in the k-vertex quotient,
    and every quotient cut is a cut of [g]. When k³ <= max(8, m),
    Stoer–Wagner solves the quotient and min(U₀, its cut) is returned —
    exact, and with path [Exact] — if it is below τ or τ = U₀ (cap >= U₀);
    its weight is recomputed on the frozen view and must match. Otherwise
    the sampled path below runs unchanged on the same [rng] forks.

    {b Guard.} The exact path runs only when every weight is an integer in
    [\[1, 2{^52}\]]: λ̂'s NI tier counts rounded multiplicities, so only
    there is it a proven lower bound (see {!Dcs_sketch.Connectivity}). On
    fractional weights the sampled path answers, whose certify/repair
    tolerates an overestimate.

    [csr] reuses an existing frozen view of the input graph for
    certification and λ̂ estimation (it must match [g]); omitted, one is
    frozen here — either way [g] is frozen at most once.
    Note Stoer–Wagner's O(n³) does not shrink with the edge count — pair
    it with this driver for certification value, not speed; the
    contraction solvers (Karger, Karger–Stein) are the fast sampled
    path. *)

val st_mincut :
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?domains:int ->
  ?chunk:int ->
  ?flow_budget:int ->
  ?connectivity:Dcs_sketch.Connectivity.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  s:int ->
  t:int ->
  Dcs_graph.Digraph.t ->
  result
(** Directed s–t minimum cut: Dinic on a
    {!Directed_sparsifier.connectivity_sparsify} sparsifier (the CLNPSQ
    use case), certified against the original digraph's frozen view and
    repaired to the exact directed weight; dense Dinic on violation.
    [beta] is the graph's cut-balance promise, as everywhere in the
    directed samplers. A [connectivity] whose vertex or edge count differs
    from [g]'s raises [Invalid_argument] (from
    {!Directed_sparsifier.connectivity_sparsify}). *)
