module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut

(* Residual network in CSR form. Arcs come in pairs — arc [a] and its
   reverse [a lxor 1] — and each vertex's arc ids occupy one contiguous
   slice [off.(u) .. off.(u+1)-1] of [arcs], so the BFS/DFS scans walk flat
   arrays instead of chasing a linked list. Networks are built from a
   frozen [Csr] view of the source graph, which also makes the arc order
   (and hence the augmenting-path order) canonical rather than an artifact
   of hashtable history. *)

type t = {
  n : int;
  off : int array;           (* vertex -> first position in [arcs] *)
  arcs : int array;          (* position -> arc id *)
  head : int array;          (* arc -> destination *)
  cap : float array;         (* residual capacities, mutated by maxflow *)
  fwd : float array;         (* arc 2k's original capacity, for reset *)
  level : int array;
  iter : int array;          (* vertex -> current position during a phase *)
  queue : int array;         (* BFS queue: each vertex enters at most once *)
}

let eps = 1e-12

(* The network straight off the frozen arc arrays: the k-th stored arc
   (u, v) — rows ascending, endpoints ascending within a row — becomes arc
   2k (u -> v, capacity [unit] or its weight) and its residual twin 2k+1
   (v -> u, capacity 0), and every vertex's slice of [arcs] lists its arc
   ids in increasing k. The original capacities are the view's own weight
   array, shared. *)
let build ?unit csr =
  let n = Csr.n csr in
  let roff, rdst, rw = Csr.out_rows csr in
  let m = Csr.m csr in
  let head = Array.make (2 * m) 0 in
  let fwd = match unit with Some c -> Array.make m c | None -> rw in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    for k = roff.(u) to roff.(u + 1) - 1 do
      off.(u + 1) <- off.(u + 1) + 1;
      off.(rdst.(k) + 1) <- off.(rdst.(k) + 1) + 1
    done
  done;
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let arcs = Array.make (2 * m) 0 in
  let cur = Array.sub off 0 (max 1 n) in
  let put u a =
    let i = cur.(u) in
    cur.(u) <- i + 1;
    arcs.(i) <- a
  in
  for u = 0 to n - 1 do
    for k = roff.(u) to roff.(u + 1) - 1 do
      let v = rdst.(k) in
      let a = 2 * k and b = (2 * k) + 1 in
      head.(a) <- v;
      put u a;
      head.(b) <- u;
      put v b
    done
  done;
  {
    n;
    off;
    arcs;
    head;
    cap = Array.make (2 * m) 0.0;
    fwd;
    level = Array.make n (-1);
    iter = Array.make n 0;
    queue = Array.make (max 1 n) 0;
  }

let of_csr csr = build csr
let of_digraph g = build (Csr.of_digraph g)

(* The symmetric CSR view already stores each undirected edge as a pair of
   opposite arcs of the full capacity, which models undirected flow
   exactly. *)
let of_ugraph g = build (Csr.of_ugraph g)

let reset t =
  for k = 0 to Array.length t.fwd - 1 do
    t.cap.(2 * k) <- t.fwd.(k);
    t.cap.((2 * k) + 1) <- 0.0
  done

let bfs t s =
  Array.fill t.level 0 t.n (-1);
  let q = t.queue in
  t.level.(s) <- 0;
  q.(0) <- s;
  let next = ref 0 and len = ref 1 in
  while !next < !len do
    let u = q.(!next) in
    incr next;
    for p = t.off.(u) to t.off.(u + 1) - 1 do
      let a = t.arcs.(p) in
      let v = t.head.(a) in
      if t.cap.(a) > eps && t.level.(v) < 0 then begin
        t.level.(v) <- t.level.(u) + 1;
        q.(!len) <- v;
        incr len
      end
    done
  done

let rec dfs t u sink pushed =
  if u = sink then pushed
  else begin
    let result = ref 0.0 in
    while !result = 0.0 && t.iter.(u) < t.off.(u + 1) do
      let p = t.iter.(u) in
      let a = t.arcs.(p) in
      let v = t.head.(a) in
      if t.cap.(a) > eps && t.level.(v) = t.level.(u) + 1 then begin
        let d = dfs t v sink (Float.min pushed t.cap.(a)) in
        if d > eps then begin
          t.cap.(a) <- t.cap.(a) -. d;
          t.cap.(a lxor 1) <- t.cap.(a lxor 1) +. d;
          result := d
        end
        else t.iter.(u) <- p + 1
      end
      else t.iter.(u) <- p + 1
    done;
    !result
  end

(* [limit] caps the flow: augmentation stops as soon as [limit] units have
   been routed (each DFS pushes at most the remaining headroom, so the
   returned value never overshoots). The result is the exact max-flow
   whenever it is below [limit], and exactly [limit] otherwise — which is
   all a capped connectivity query or a running-minimum scan needs, at a
   fraction of the phases a saturating flow would pay on well-connected
   pairs. *)
let maxflow ?(limit = infinity) t ~s ~t:sink =
  if s = sink then invalid_arg "Dinic.maxflow: s = t";
  reset t;
  let flow = ref 0.0 in
  let continue = ref (limit > eps) in
  while !continue do
    bfs t s;
    if t.level.(sink) < 0 then continue := false
    else begin
      Array.blit t.off 0 t.iter 0 t.n;
      let rec augment () =
        let headroom = limit -. !flow in
        if headroom > eps then begin
          let f = dfs t s sink headroom in
          if f > eps then begin
            flow := !flow +. f;
            augment ()
          end
        end
      in
      augment ();
      if limit -. !flow <= eps then continue := false
    end
  done;
  Float.min !flow limit

let mincut_side t ~s ~t:sink =
  let f = maxflow t ~s ~t:sink in
  (* Vertices reachable from s in the residual graph. *)
  bfs t s;
  let side = Cut.of_mem ~n:t.n (fun v -> t.level.(v) >= 0) in
  (f, side)

(* One residual network serves all n-1 source-fixed max-flow runs
   ([maxflow] starts from [reset], one O(m) pass — never a rebuild), and
   every run is capped at the running minimum: a flow that reaches the
   current best cannot lower it, so the run stops there. The running
   minimum starts at the minimum weighted degree (the cheapest singleton
   cut, a trivial upper bound), which already truncates the very first
   flows on dense graphs; a graph that turns out disconnected drives the
   minimum to 0 and skips the remaining runs outright. *)
let edge_connectivity g =
  let n = Ugraph.n g in
  if n < 2 then invalid_arg "Dinic.edge_connectivity: need >= 2 vertices";
  let net = of_ugraph g in
  let wdeg = Array.make n 0.0 in
  Ugraph.iter_edges g (fun u v w ->
      wdeg.(u) <- wdeg.(u) +. w;
      wdeg.(v) <- wdeg.(v) +. w);
  let best = ref wdeg.(0) in
  for v = 1 to n - 1 do
    best := Float.min !best wdeg.(v)
  done;
  let v = ref 1 in
  while !v < n && !best > eps do
    best := Float.min !best (maxflow ~limit:!best net ~s:0 ~t:!v);
    incr v
  done;
  if !best <= eps then 0.0 else !best

let edge_disjoint_paths g ~s ~t:sink =
  let net = build ~unit:1.0 (Csr.of_ugraph g) in
  int_of_float (Float.round (maxflow net ~s ~t:sink))
