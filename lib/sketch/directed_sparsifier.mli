(** Cut sketches for β-balanced directed graphs — the upper-bound side of
    the paper's Theorems 1.1/1.2 (constructions in the shape of IT18 and
    CCPS21).

    Both samplers compute Nagamochi–Ibaraki strengths on the undirected
    projection (forward + backward weight per pair) and then sample each
    *directed* edge independently with a strength-based probability,
    oversampled by a function of β. In a β-balanced graph every directed
    cut is within a (1+β) factor of the corresponding undirected cut, so
    undirected strengths certify directed cut variance up to β factors —
    this is the mechanism behind the Õ(nβ/ε²) for-all bound of CCPS21.

    - [forall_sketch]: p_e = min(1, c·β·ln n / (ε²·k_e)). All directed cuts
      preserved within (1 ± ε) w.h.p.; expected size Õ(nβ/ε²) edges.
    - [foreach_sketch]: p_e = min(1, c·β / (ε²·k_e)) — the same scheme
      without the union-bound log factor; each fixed cut is preserved with
      constant probability (Chebyshev). Note: the asymptotically smaller
      Õ(n√β/ε) for-each construction of CCPS21 requires machinery beyond
      the scope of this reproduction; DESIGN.md discusses this substitution
      and experiment E8 uses the instance-optimal codec for the tightness
      comparison instead. *)

val forall_sketch :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_graph.Digraph.t -> Sketch.t

val foreach_sketch :
  ?c:float -> Dcs_util.Prng.t -> eps:float -> beta:float -> Dcs_graph.Digraph.t -> Sketch.t

val forall_sparsify :
  ?c:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t

val foreach_sparsify :
  ?c:float ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t

val rho : ?c:float -> eps:float -> beta:float -> n:int -> unit -> float
(** The CCPS21 sampling-rate schedule ρ(ε, β, n) = c·γ·ln n/ε² with
    γ = (1+β)(3 + log₂ n); [c] defaults to 0.25 (proof constant scaled
    down, like the strength samplers' [c]). *)

val connectivity_sparsify :
  ?c:float ->
  ?rho:float ->
  ?cap:float ->
  ?domains:int ->
  ?chunk:int ->
  ?flow_budget:int ->
  ?connectivity:Connectivity.t ->
  Dcs_util.Prng.t ->
  eps:float ->
  beta:float ->
  Dcs_graph.Digraph.t ->
  Dcs_graph.Digraph.t
(** Connectivity-based importance sampling (CCPS21's compress):
    p_e = min(1, ρ/λ̂(u,v)) with λ̂ the {!Connectivity} lower-bound
    estimates (capping only raises p — sound), binomial weight
    resampling ({!Importance.binomial_keep}), and one [Prng.split]
    stream per edge over the canonical sorted order, so the sample is a
    pure function of (seed, graph content). [rho] overrides the {!rho}
    schedule (matched-budget experiments). [cap] is the estimation
    ceiling (default 16·ρ): estimates saturate there, so it must exceed
    ρ for anything to be dropped — at [cap = ρ] every p is 1 — and
    keep probabilities bottom out at ρ/cap. [connectivity] reuses
    precomputed estimates (must come from this graph — [Invalid_argument]
    when their vertex or edge count differs from [g]'s; its own cap then
    governs). Sharper λ̂ than the strength indices is the point:
    strength-1 tree edges inside dense regions get their true (large) λ
    and stop being kept with probability 1, which is where the
    worst-cut-error win over {!forall_sparsify} comes from (E24 vs
    E12/E13). *)

val expected_kept : rho:float -> Connectivity.t -> float
(** Exact expected kept-edge count of {!connectivity_sparsify} at rate
    [rho] on those estimates; monotone in [rho] (bisect to match a
    budget). *)
