module Ugraph = Dcs_graph.Ugraph
module Trace = Dcs_obs_core.Trace

(* Edges live in flat arrays in ascending (u, v) order, u < v: edge i has
   lower endpoint u for off.(u) <= i < off.(u+1) and upper endpoint
   dst.(i), and its index and forest count sit in the aligned int arrays.
   No hashing anywhere, and every walk is in canonical order. *)
type t = {
  n : int;
  rounds : int;
  off : int array;  (* length n+1 *)
  dst : int array;
  idx : int array;
  cons : int array; (* forests that used the edge (<= idx) *)
}

(* The edges of [g] as rows by lower endpoint, each row sorted: a fill
   grouped by upper endpoint (walked in increasing order, so each group
   lists its lower endpoints in hashtable order) and a counting transpose
   back by increasing upper endpoint. Returns (off, dst, w). *)
let upper_rows g =
  let n = Ugraph.n g and m = Ugraph.m g in
  let goff = Array.make (n + 1) 0 and off = Array.make (n + 1) 0 in
  let gsrc = Array.make m 0 and gw = Array.make m 0.0 in
  let k = ref 0 in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u w ->
        if u < v then begin
          gsrc.(!k) <- u;
          gw.(!k) <- w;
          off.(u + 1) <- off.(u + 1) + 1;
          incr k
        end);
    goff.(v + 1) <- !k
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let dst = Array.make m 0 and w = Array.make m 0.0 in
  let cur = Array.sub off 0 (max 1 n) in
  for v = 0 to n - 1 do
    for j = goff.(v) to goff.(v + 1) - 1 do
      let u = gsrc.(j) in
      let i = cur.(u) in
      cur.(u) <- i + 1;
      dst.(i) <- v;
      w.(i) <- gw.(j)
    done
  done;
  (off, dst, w)

(* Union-find used per forest round. *)
let rec find parent x =
  if parent.(x) = x then x
  else begin
    parent.(x) <- find parent parent.(x);
    parent.(x)
  end

let compute ?(max_rounds = 512) g =
  if max_rounds < 1 then invalid_arg "Strength.compute: max_rounds";
  Trace.with_span "strength.compute" @@ fun () ->
  let n = Ugraph.n g in
  let off, dst, w = upper_rows g in
  let m = Array.length dst in
  let src = Array.make m 0 in
  for u = 0 to n - 1 do
    Array.fill src off.(u) (off.(u + 1) - off.(u)) u
  done;
  (* Remaining multiplicity per edge; [live] lists the edges with some
     left, ascending. *)
  let rem = Array.map (fun x -> max 1 (int_of_float (Float.round x))) w in
  let idx = Array.make m 0 and cons = Array.make m 0 in
  let live = Array.init m Fun.id and nlive = ref m in
  let used = Array.make (max 1 n) 0 in
  let parent = Array.make n 0 in
  let round = ref 0 in
  (* Forest construction is greedy, so the edge order decides which edges
     each spanning forest grabs. Walking the live edges in ascending
     (u, v) order makes the strength indices a pure function of graph
     content — required for streamed-and-compacted graphs to sample
     identically to batch ones. A round's forest is chosen from the edges
     live at its start; its uses are charged after the walk. *)
  while !nlive > 0 && !round < max_rounds do
    incr round;
    for x = 0 to n - 1 do
      parent.(x) <- x
    done;
    let nused = ref 0 in
    for k = 0 to !nlive - 1 do
      let i = live.(k) in
      let ru = find parent src.(i) and rv = find parent dst.(i) in
      if ru <> rv then begin
        parent.(ru) <- rv;
        used.(!nused) <- i;
        incr nused
      end
    done;
    let exhausted = ref false in
    for k = 0 to !nused - 1 do
      let i = used.(k) in
      cons.(i) <- cons.(i) + 1;
      rem.(i) <- rem.(i) - 1;
      if rem.(i) = 0 then begin
        idx.(i) <- !round;
        exhausted := true
      end
    done;
    if !exhausted then begin
      let j = ref 0 in
      for k = 0 to !nlive - 1 do
        let i = live.(k) in
        if rem.(i) > 0 then begin
          live.(!j) <- i;
          incr j
        end
      done;
      nlive := !j
    end
  done;
  (* Edges still alive are at least max_rounds-connected. *)
  for k = 0 to !nlive - 1 do
    idx.(live.(k)) <- !round
  done;
  { n; rounds = !round; off; dst; idx; cons }

let not_an_edge u v =
  invalid_arg (Printf.sprintf "Strength.index: (%d, %d) is not an edge" u v)

(* Binary search of row min(u, v) for max(u, v). *)
let index t u v =
  let a = min u v and b = max u v in
  if a < 0 || b >= t.n || a = b then not_an_edge u v;
  let lo = ref t.off.(a) and hi = ref (t.off.(a + 1) - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = t.dst.(mid) in
    if d = b then begin
      found := mid;
      lo := !hi + 1
    end
    else if d < b then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then not_an_edge u v;
  t.idx.(!found)

let rounds_used t = t.rounds

let fold f t init =
  let acc = ref init in
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      acc := f u t.dst.(i) t.idx.(i) !acc
    done
  done;
  !acc

(* The Nagamochi–Ibaraki sparse certificate. The forest rounds of [compute]
   are maximal spanning forests of the not-yet-exhausted edges, so the
   union of the first k of them — each edge taken with multiplicity equal
   to the number of those forests that used it — preserves every cut of
   value <= k and hence every local connectivity up to k. The certificate
   weight is min(consumed multiplicity, original weight): consumption is in
   rounded-multiplicity units, and clamping to the true weight keeps the
   certificate a weighted subgraph (its connectivities never exceed the
   source's) even for fractional weights. At most n-1 edges join per round,
   so the certificate has O(rounds_used * n) edges however dense [g] is. *)
let certificate t g =
  if Ugraph.n g <> t.n then invalid_arg "Strength.certificate: vertex count";
  let h = Ugraph.create t.n in
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      if t.cons.(i) > 0 then begin
        let v = t.dst.(i) in
        let w = Float.min (float_of_int t.cons.(i)) (Ugraph.weight g u v) in
        if w > 0.0 then Ugraph.add_edge h u v w
      end
    done
  done;
  h

let min_index t = fold (fun _ _ i acc -> min i acc) t max_int
let max_index t = fold (fun _ _ i acc -> max i acc) t 0
