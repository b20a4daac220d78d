module Ugraph = Dcs_graph.Ugraph
module Digraph = Dcs_graph.Digraph
module Csr = Dcs_graph.Csr
module Pool = Dcs_util.Pool
module Dinic = Dcs_mincut.Dinic
module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

(* Batched local edge-connectivity estimation: a lower bound
   λ̂(u,v) <= min(λ(u,v), cap) for every edge, where λ is the local
   edge connectivity. Connectivity-based importance sampling (CCPS21's
   compress: p = min(1, ρ/λ)) only needs λ capped at the sampling rate ρ
   and tolerates any *under*estimate — a smaller λ̂ means a larger p,
   i.e. oversampling — so the estimator is a chain of ever-sharper,
   always-sound lower bounds and stops at the first one that reaches
   [cap]:

   1. the edge's own weight (an edge is a cut-crossing witness of itself);
   2. the Nagamochi–Ibaraki strength index — an O(cap) forest rounds
      prefilter, divided by (1+β) on digraphs (undirected local
      connectivity exceeds directed λ by at most that factor on
      β-balanced graphs);
   3. a common-neighbour bound: w(u,v) + Σ_z min(w(u,z), w(z,v)) — the
      direct edge plus one edge-disjoint two-hop path per shared
      neighbour — batched over {!Dcs_util.Pool.run_batched} in fixed
      blocks of edges: each worker domain scatters out-row u into one
      dense length-n row and walks in-row v against it, O(deg v) per
      edge plus one O(deg u) scatter per run of edges leaving u;
   4. exact max-flow capped at [cap], batched over
      {!Dcs_util.Pool.run_batched} with one reusable Dinic residual
      network per worker domain (built once per domain, reset — an O(m)
      blit — between queries).

   Exact flows run only where the cheap tiers are uninformative (their
   bound is below [cap]), weakest-bound-first under an optional flow
   budget, and — for undirected graphs — on the NI sparse certificate
   ({!Strength.certificate}, O(cap·n) edges) instead of the full graph.
   Results are a pure function of graph content: edges are visited in
   canonical sorted order (read off the frozen view's sorted rows) and
   each merge block and flow task is a pure function of its index, so
   estimates are byte-identical for every domain count. *)

let m_edges = Metrics.counter "conn.edges"
let m_by_weight = Metrics.counter "conn.by_weight"
let m_by_strength = Metrics.counter "conn.by_strength"
let m_by_triangle = Metrics.counter "conn.by_triangle"
let m_flows = Metrics.counter "conn.flows"
let m_budgeted = Metrics.counter "conn.budgeted"

type stats = {
  edges : int;
  by_weight : int;
  by_strength : int;
  by_triangle : int;
  flows : int;
  budgeted : int;
}

type t = {
  n : int;
  cap : float;
  edges : (int * int * float) array;
  lambda : float array;
  stats : stats;
}

let n t = t.n
let cap t = t.cap
let edges t = t.edges
let lambda_at t i = t.lambda.(i)
let stats t = t.stats

let iter t f =
  Array.iteri (fun i (u, v, w) -> f u v w t.lambda.(i)) t.edges

(* Pending edges per common-neighbour task: a fixed block, never derived
   from the domain count, so [pool.tasks] is deterministic. *)
let merge_block = 1024

(* w_direct + Σ_{z <> u,v} min(w(u,z), w(z,v)) for every pending edge:
   the direct edge plus one two-hop path per common neighbour, pairwise
   edge-disjoint, so every u→v cut severs at least this much weight.
   Each worker domain owns one dense row of length n, all zeros between
   uses: out-row u is scattered into it once per run of pending edges
   with source u (edges are in canonical order, so those runs are
   contiguous), and in-row v is walked adding min(dense.(z), w(z,v)) in
   increasing z — the addition order of a sorted-row merge, since a
   non-neighbour contributes min(0, w) = +0. (z = u reads 0: no
   self-loops; z = v never occurs in in-row v.) The walk stops once the
   sum reaches [cap]: every term is >= 0, so a float sum that has reached
   the cap stays there, and such an edge resolves to exactly [cap]
   whatever the rest would add. Results land in [tb] by pending position,
   so they are the same for every domain count. *)
let common_neighbour_bounds ?domains ~cap ~n ~edges ~pending tri_csr =
  let np = Array.length pending in
  let tb = Array.make np 0.0 in
  let ooff, odst, ow = Csr.out_rows tri_csr in
  let ioff, isrc, iw = Csr.out_rows (Csr.reverse tri_csr) in
  let scatter dense u =
    for j = ooff.(u) to ooff.(u + 1) - 1 do
      dense.(odst.(j)) <- ow.(j)
    done
  and clear dense u =
    for j = ooff.(u) to ooff.(u + 1) - 1 do
      dense.(odst.(j)) <- 0.0
    done
  in
  let nblocks = (np + merge_block - 1) / merge_block in
  ignore
    (Pool.run_batched ?domains ~chunk:1
       ~arena:(fun () -> Array.make n 0.0)
       ~n:nblocks
       (fun dense blk ->
         let cur = ref (-1) in
         for k = blk * merge_block to min np ((blk + 1) * merge_block) - 1 do
           let u, v, w = edges.(pending.(k)) in
           if u <> !cur then begin
             if !cur >= 0 then clear dense !cur;
             scatter dense u;
             cur := u
           end;
           let acc = ref w and j = ref ioff.(v) in
           let stop = ioff.(v + 1) in
           while !j < stop && !acc < cap do
             let a = dense.(isrc.(!j)) and b = iw.(!j) in
             acc := !acc +. (if b < a then b else a);
             incr j
           done;
           tb.(k) <- !acc
         done;
         if !cur >= 0 then clear dense !cur));
  tb

let default_rounds ~cap ~scale =
  if Float.is_finite cap then max 1 (int_of_float (ceil (cap *. scale)))
  else 512

(* The shared tier chain. [ni i] must already include any balance
   correction; the common-neighbour merges read [tri_csr] (the source
   graph: sharpest) while the flows run on [flow_csr] (any weighted
   subgraph of the source is sound — undirected estimation passes the NI
   certificate so flow cost is independent of the source density). *)
let estimate_core ?domains ?chunk ?(flow_budget = max_int) ~cap ~n ~edges ~ni
    ~tri_csr ~flow_csr () =
  if cap <= 0.0 then invalid_arg "Connectivity: cap must be positive";
  if flow_budget < 0 then invalid_arg "Connectivity: flow_budget >= 0";
  let m = Array.length edges in
  let lambda = Array.make m 0.0 in
  let by_weight = ref 0 and by_strength = ref 0 in
  let pending =
    Trace.with_span "conn.tier.ni" @@ fun () ->
    let pending = Array.make m 0 and np = ref 0 in
    for i = 0 to m - 1 do
      let _, _, w = edges.(i) in
      if w >= cap then begin
        lambda.(i) <- cap;
        incr by_weight
      end
      else begin
        let b = Float.max w (ni i) in
        if b >= cap then begin
          lambda.(i) <- cap;
          incr by_strength
        end
        else begin
          lambda.(i) <- b;
          pending.(!np) <- i;
          incr np
        end
      end
    done;
    Array.sub pending 0 !np
  in
  let by_triangle = ref 0 in
  let unresolved =
    Trace.with_span "conn.tier.merge" @@ fun () ->
    let tb = common_neighbour_bounds ?domains ~cap ~n ~edges ~pending tri_csr in
    let unresolved = Array.make (Array.length pending) 0 and nu = ref 0 in
    Array.iteri
      (fun k i ->
        if tb.(k) >= cap then begin
          lambda.(i) <- cap;
          incr by_triangle
        end
        else begin
          lambda.(i) <- Float.max lambda.(i) tb.(k);
          unresolved.(!nu) <- i;
          incr nu
        end)
      pending;
    Array.sub unresolved 0 !nu
  in
  (* Weakest bound first: those are the edges whose sampling probability
     an exact answer moves the most, so a finite flow budget buys the
     sharpest estimates available. Ties break on edge index — the order
     is a pure function of graph content. *)
  Array.sort
    (fun i j ->
      let c = Float.compare lambda.(i) lambda.(j) in
      if c <> 0 then c else Int.compare i j)
    unresolved;
  let nflows = min flow_budget (Array.length unresolved) in
  if nflows > 0 then begin
    Trace.with_span "conn.tier.flow" @@ fun () ->
    let flows =
      Pool.run_batched ?domains ?chunk
        ~arena:(fun () -> Dinic.of_csr flow_csr)
        ~n:nflows
        (fun net k ->
          let u, v, _ = edges.(unresolved.(k)) in
          Dinic.maxflow ~limit:cap net ~s:u ~t:v)
    in
    for k = 0 to nflows - 1 do
      let i = unresolved.(k) in
      lambda.(i) <- Float.max lambda.(i) flows.(k)
    done
  end;
  let budgeted = Array.length unresolved - nflows in
  Metrics.inc ~by:m m_edges;
  Metrics.inc ~by:!by_weight m_by_weight;
  Metrics.inc ~by:!by_strength m_by_strength;
  Metrics.inc ~by:!by_triangle m_by_triangle;
  Metrics.inc ~by:nflows m_flows;
  Metrics.inc ~by:budgeted m_budgeted;
  {
    n;
    cap;
    edges;
    lambda;
    stats =
      {
        edges = m;
        by_weight = !by_weight;
        by_strength = !by_strength;
        by_triangle = !by_triangle;
        flows = nflows;
        budgeted;
      };
  }

(* The canonical edge array, read off the frozen view: rows are sorted,
   so walking them (keeping u < v when [upper]) yields ascending (u, v)
   with no sort and no hashing. *)
let csr_edges ~upper csr =
  let off, dst, w = Csr.out_rows csr in
  let m = if upper then Csr.m csr / 2 else Csr.m csr in
  let edges = Array.make m (0, 0, 0.0) in
  let k = ref 0 in
  for u = 0 to Csr.n csr - 1 do
    for j = off.(u) to off.(u + 1) - 1 do
      let v = dst.(j) in
      if (not upper) || u < v then begin
        edges.(!k) <- (u, v, w.(j));
        incr k
      end
    done
  done;
  edges

let check_csr name n csr =
  if Csr.n csr <> n then
    invalid_arg (Printf.sprintf "Connectivity.%s: csr vertex count" name)

let estimate_ugraph ?domains ?chunk ?flow_budget ?csr ?strengths ~cap g =
  let n = Ugraph.n g in
  let csr = match csr with Some c -> c | None -> Csr.of_ugraph g in
  check_csr "estimate_ugraph" n csr;
  let edges = csr_edges ~upper:true csr in
  let strengths =
    match strengths with
    | Some s -> s
    | None -> Strength.compute ~max_rounds:(default_rounds ~cap ~scale:1.0) g
  in
  (* Neighbour merges read the full graph (sharpest sound bound); flows
     run on the NI sparse certificate — a weighted subgraph with
     O(rounds·n) edges preserving min(λ, rounds) — so per-query flow cost
     is independent of the source density. *)
  let flow_csr = Csr.of_ugraph (Strength.certificate strengths g) in
  let ni i =
    let u, v, _ = edges.(i) in
    float_of_int (Strength.index strengths u v)
  in
  estimate_core ?domains ?chunk ?flow_budget ~cap ~n ~edges ~ni ~tri_csr:csr
    ~flow_csr ()

let estimate_digraph ?domains ?chunk ?flow_budget ?csr ?strengths ?(beta = 1.0)
    ~cap g =
  if beta < 1.0 then invalid_arg "Connectivity.estimate_digraph: beta >= 1";
  let n = Digraph.n g in
  let csr = match csr with Some c -> c | None -> Csr.of_digraph g in
  check_csr "estimate_digraph" n csr;
  let edges = csr_edges ~upper:false csr in
  let strengths =
    match strengths with
    | Some s -> s
    | None ->
        Strength.compute
          ~max_rounds:(default_rounds ~cap ~scale:(1.0 +. beta))
          (Ugraph.of_digraph g)
  in
  (* Undirected strength bounds directed λ only through the balance
     factor: on a β-balanced graph every undirected cut is at most (1+β)
     times its forward directed weight, so λ_dir >= λ_und/(1+β) >=
     NI/(1+β). The caller owns the β promise, exactly as in the
     strength-based samplers. *)
  let ni i =
    let u, v, _ = edges.(i) in
    float_of_int (Strength.index strengths u v) /. (1.0 +. beta)
  in
  estimate_core ?domains ?chunk ?flow_budget ~cap ~n ~edges ~ni ~tri_csr:csr
    ~flow_csr:csr ()
