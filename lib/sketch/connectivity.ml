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
      network per worker domain (built once per domain, reset — one O(m)
      pass — between queries).

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

(* The edges as rows by source, like a frozen view's out-rows: edge i
   is (u, dst.(i)) of weight w.(i) for off.(u) <= i < off.(u+1), in
   canonical order. *)
type t = {
  n : int;
  cap : float;
  off : int array;
  dst : int array;
  w : float array;
  lambda : float array;
  stats : stats;
}

let n t = t.n
let cap t = t.cap
let edges t = (t.off, t.dst, t.w)
let lambda_at t i = t.lambda.(i)
let stats t = t.stats

let iter t f =
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      f u t.dst.(i) t.w.(i) t.lambda.(i)
    done
  done

(* The row holding edge [i]: the last u with off.(u) <= i (empty rows
   share their offset with the next row, so the search skips them). *)
let row_of off i =
  let lo = ref 0 and hi = ref (Array.length off - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if off.(mid) <= i then lo := mid else hi := mid - 1
  done;
  !lo

(* Edges per common-neighbour task: a fixed block, never derived from the
   domain count, so [pool.tasks] is deterministic. *)
let merge_block = 1024

(* A vertex's neighbour row as two runs of (off, nbr, w) rows, the first
   run's neighbours all below the second's: a frozen view's row with an
   empty second run, or an undirected graph's lower and upper halves. *)
type rows =
  (int array * int array * float array) * (int array * int array * float array)

let empty_rows n = (Array.make (n + 1) 0, [||], [||])

let set_row dense (off, nbr, w) u =
  for j = off.(u) to off.(u + 1) - 1 do
    dense.(nbr.(j)) <- w.(j)
  done

let clear_row dense (off, nbr, _) u =
  for j = off.(u) to off.(u + 1) - 1 do
    dense.(nbr.(j)) <- 0.0
  done

(* [acc] plus min(dense.(z), w(z,v)) over row v in increasing z, stopping
   once the sum reaches [cap]. *)
let add_common dense (off, nbr, w) v ~cap acc =
  let acc = ref acc and j = ref off.(v) in
  let stop = off.(v + 1) in
  while !j < stop && !acc < cap do
    let a = dense.(nbr.(!j)) and b = w.(!j) in
    acc := !acc +. (if b < a then b else a);
    incr j
  done;
  !acc

(* w_direct + Σ_{z <> u,v} min(w(u,z), w(z,v)) for every pending edge
   (one the cheaper tiers left below [cap]): the direct edge plus one
   two-hop path per common neighbour, pairwise edge-disjoint, so every
   u→v cut severs at least this much weight. Each worker domain owns one
   dense row of length n, all zeros between uses: u's [out] row is
   scattered into it once per run of pending edges with source u within
   a block (edges are in canonical order, so those runs are contiguous),
   and v's [into] row is walked adding min(dense.(z), w(z,v)) in
   increasing z — the addition order of a sorted-row merge, since a
   non-neighbour contributes min(0, w) = +0. (z = u reads 0: no
   self-loops; z = v never occurs in row v.) The walk stops once the
   sum reaches [cap]: every term is >= 0, so a float sum that has reached
   the cap stays there, and such an edge resolves to exactly [cap]
   whatever the rest would add. Each result raises [lambda.(i)] in place
   (capped to exactly [cap]); blocks own disjoint edges, so the values are
   the same for every domain count. *)
let common_neighbour_bounds ?domains ~cap ~n ~off ~dst ~w ~lambda
    ~out:((out1, out2) : rows) ((in1, in2) : rows) =
  let m = Array.length dst in
  let nblocks = (m + merge_block - 1) / merge_block in
  ignore
    (Pool.run_batched ?domains ~chunk:1
       ~arena:(fun () -> Array.make n 0.0)
       ~n:nblocks
       (fun dense blk ->
         let cur = ref (-1) in
         let clear () =
           if !cur >= 0 then begin
             clear_row dense out1 !cur;
             clear_row dense out2 !cur
           end
         in
         let lo = blk * merge_block in
         let u = ref (row_of off lo) in
         for i = lo to min m ((blk + 1) * merge_block) - 1 do
           while off.(!u + 1) <= i do
             incr u
           done;
           if lambda.(i) < cap then begin
             let u = !u and v = dst.(i) in
             if u <> !cur then begin
               clear ();
               set_row dense out1 u;
               set_row dense out2 u;
               cur := u
             end;
             let acc =
               add_common dense in2 v ~cap (add_common dense in1 v ~cap w.(i))
             in
             lambda.(i) <- (if acc >= cap then cap else Float.max lambda.(i) acc)
           end
         done;
         clear ()))

let default_rounds ~cap ~scale =
  if Float.is_finite cap then max 1 (int_of_float (ceil (cap *. scale)))
  else 512

(* The shared tier chain. [ni f] must call [f i bound] once for every
   edge i, in increasing i, with its NI bound (any balance correction
   included); the common-neighbour merges read the source graph's
   [out]/[into] rows (sharpest) while the flows run on [flow_graph ()]
   (any weighted subgraph of the source is sound — undirected estimation
   passes the NI certificate so flow cost is independent of the source
   density), built only when some flow runs, once the merge rows are
   dead. *)
let estimate_core ?domains ?chunk ?(flow_budget = max_int) ~cap ~n ~off ~dst
    ~w ~ni ~out ~into ~flow_graph () =
  if cap <= 0.0 then invalid_arg "Connectivity: cap must be positive";
  if flow_budget < 0 then invalid_arg "Connectivity: flow_budget >= 0";
  let m = Array.length dst in
  let lambda = Array.make m 0.0 in
  let by_weight = ref 0 and by_strength = ref 0 in
  (* An edge is pending while its bound is below [cap]: each tier raises
     the bound in place, and an edge that reaches the cap is resolved
     (exactly [cap]). *)
  Trace.with_span "conn.tier.ni" (fun () ->
      ni (fun i b_ni ->
          let wi = w.(i) in
          if wi >= cap then begin
            lambda.(i) <- cap;
            incr by_weight
          end
          else begin
            let b = Float.max wi b_ni in
            if b >= cap then begin
              lambda.(i) <- cap;
              incr by_strength
            end
            else lambda.(i) <- b
          end));
  Trace.with_span "conn.tier.merge" (fun () ->
      common_neighbour_bounds ?domains ~cap ~n ~off ~dst ~w ~lambda ~out into);
  let nu = ref 0 in
  Array.iter (fun l -> if l < cap then incr nu) lambda;
  let by_triangle = m - !nu - !by_weight - !by_strength in
  let unresolved = Array.make !nu 0 and k = ref 0 in
  Array.iteri
    (fun i l ->
      if l < cap then begin
        unresolved.(!k) <- i;
        incr k
      end)
    lambda;
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
    let flow_csr = flow_graph () in
    let flows =
      Pool.run_batched ?domains ?chunk
        ~arena:(fun () -> Dinic.of_csr flow_csr)
        ~n:nflows
        (fun net k ->
          let i = unresolved.(k) in
          Dinic.maxflow ~limit:cap net ~s:(row_of off i) ~t:dst.(i))
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
  Metrics.inc ~by:by_triangle m_by_triangle;
  Metrics.inc ~by:nflows m_flows;
  Metrics.inc ~by:budgeted m_budgeted;
  {
    n;
    cap;
    off;
    dst;
    w;
    lambda;
    stats =
      {
        edges = m;
        by_weight = !by_weight;
        by_strength = !by_strength;
        by_triangle;
        flows = nflows;
        budgeted;
      };
  }

(* The canonical undirected edges as rows (off, dst, w), u < v: read off
   a frozen view (rows are sorted, so keeping u < v yields ascending
   (u, v)), or built from [g] itself — one pass counts each row, a second
   walks upper endpoints v in increasing order and appends v to the row
   of each lower neighbour, so rows fill sorted with no freeze. *)
let upper_rows_of_csr csr =
  let roff, rdst, rw = Csr.out_rows csr in
  let n = Csr.n csr in
  let off = Array.make (n + 1) 0 in
  let dst = Array.make (Csr.m csr / 2) 0 and w = Array.make (Csr.m csr / 2) 0.0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for j = roff.(u) to roff.(u + 1) - 1 do
      let v = rdst.(j) in
      if u < v then begin
        dst.(!k) <- v;
        w.(!k) <- rw.(j);
        incr k
      end
    done;
    off.(u + 1) <- !k
  done;
  (off, dst, w)

let upper_rows_of_ugraph g =
  let n = Ugraph.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u _ ->
        if u < v then off.(u + 1) <- off.(u + 1) + 1)
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let dst = Array.make (Ugraph.m g) 0 and w = Array.make (Ugraph.m g) 0.0 in
  let cur = Array.sub off 0 (max 1 n) in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u x ->
        if u < v then begin
          let i = cur.(u) in
          cur.(u) <- i + 1;
          dst.(i) <- v;
          w.(i) <- x
        end)
  done;
  (off, dst, w)

(* The lower halves — row v lists its neighbours u < v, ascending — by a
   counting transpose of the upper rows walked by increasing u. *)
let lower_rows n (off, dst, w) =
  let loff = Array.make (n + 1) 0 in
  Array.iter (fun v -> loff.(v + 1) <- loff.(v + 1) + 1) dst;
  for v = 0 to n - 1 do
    loff.(v + 1) <- loff.(v + 1) + loff.(v)
  done;
  let src = Array.make (Array.length dst) 0
  and lw = Array.make (Array.length dst) 0.0 in
  let cur = Array.sub loff 0 (max 1 n) in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = dst.(i) in
      let j = cur.(v) in
      cur.(v) <- j + 1;
      src.(j) <- u;
      lw.(j) <- w.(i)
    done
  done;
  (loff, src, lw)

let check_csr name n csr =
  if Csr.n csr <> n then
    invalid_arg (Printf.sprintf "Connectivity.%s: csr vertex count" name)

let estimate_ugraph ?domains ?chunk ?flow_budget ?csr ?strengths ~cap g =
  let n = Ugraph.n g in
  (* The merges need each vertex's full neighbour row in increasing
     order: a given frozen view has it; otherwise the lower halves (a
     transpose of the canonical upper rows) followed by the upper ones
     are the same rows, for two thirds of the memory of a freeze plus
     the upper copy. *)
  let (off, dst, w), rows =
    match csr with
    | Some csr ->
        check_csr "estimate_ugraph" n csr;
        (upper_rows_of_csr csr, (Csr.out_rows csr, empty_rows n))
    | None ->
        let upper = upper_rows_of_ugraph g in
        (upper, (lower_rows n upper, upper))
  in
  let m = Array.length dst in
  let strengths =
    match strengths with
    | Some s -> s
    | None -> Strength.compute ~max_rounds:(default_rounds ~cap ~scale:1.0) g
  in
  (* Neighbour merges read the full graph (sharpest sound bound); flows
     run on the NI sparse certificate — a weighted subgraph with
     O(rounds·n) edges preserving min(λ, rounds) — so per-query flow cost
     is independent of the source density. *)
  let flow_graph () = Csr.of_ugraph (Strength.certificate strengths g) in
  (* Strengths of the same graph hold the same edges in the same
     ascending (u, v) order: one walk in lock-step reads every index, with
     no search per edge. *)
  let ni f =
    let mismatch u v =
      invalid_arg
        (Printf.sprintf
           "Connectivity.estimate_ugraph: strengths are for another graph \
            (edge (%d, %d))"
           u v)
    in
    let k =
      Strength.fold
        (fun u v idx i ->
          if i >= m || u >= n || i < off.(u) || i >= off.(u + 1) || dst.(i) <> v
          then mismatch u v;
          f i (float_of_int idx);
          i + 1)
        strengths 0
    in
    if k < m then mismatch (row_of off k) dst.(k)
  in
  estimate_core ?domains ?chunk ?flow_budget ~cap ~n ~off ~dst ~w ~ni
    ~out:rows ~into:rows ~flow_graph ()

let estimate_digraph ?domains ?chunk ?flow_budget ?csr ?strengths ?(beta = 1.0)
    ~cap g =
  if beta < 1.0 then invalid_arg "Connectivity.estimate_digraph: beta >= 1";
  let n = Digraph.n g in
  let csr = match csr with Some c -> c | None -> Csr.of_digraph g in
  check_csr "estimate_digraph" n csr;
  let off, dst, w = Csr.out_rows csr in
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
  let ni f =
    for u = 0 to n - 1 do
      for i = off.(u) to off.(u + 1) - 1 do
        f i
          (float_of_int (Strength.index strengths u dst.(i)) /. (1.0 +. beta))
      done
    done
  in
  estimate_core ?domains ?chunk ?flow_budget ~cap ~n ~off ~dst ~w ~ni
    ~out:(Csr.out_rows csr, empty_rows n)
    ~into:(Csr.out_rows (Csr.reverse csr), empty_rows n)
    ~flow_graph:(fun () -> csr) ()
