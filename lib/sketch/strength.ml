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

(* The edges of [g] as rows by lower endpoint, each row sorted, with each
   edge's rounded multiplicity (at least 1): one pass counts the rows, a
   second walks upper endpoints v in increasing order and appends v to
   the row of each lower neighbour u, so every row fills in ascending
   order with no transpose and no weight copy. Returns (off, dst, mult). *)
let upper_rows g =
  let n = Ugraph.n g and m = Ugraph.m g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u _ ->
        if u < v then off.(u + 1) <- off.(u + 1) + 1)
  done;
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u + 1) + off.(u)
  done;
  let dst = Array.make m 0 and mult = Array.make m 0 in
  let cur = Array.sub off 0 (max 1 n) in
  for v = 0 to n - 1 do
    Ugraph.iter_neighbors g v (fun u w ->
        if u < v then begin
          let i = cur.(u) in
          cur.(u) <- i + 1;
          dst.(i) <- v;
          mult.(i) <- max 1 (int_of_float (Float.round w))
        end)
  done;
  (off, dst, mult)

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
  (* While an edge is live, [idx] holds its multiplicity and [cons] the
     forests that used it so far; it is exhausted when they meet, and
     [idx] then takes the round, negated until the forests end. *)
  let off, dst, idx = upper_rows g in
  let m = Array.length dst in
  let cons = Array.make m 0 in
  let nlive = ref m in
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
    for u = 0 to n - 1 do
      for i = off.(u) to off.(u + 1) - 1 do
        if idx.(i) > 0 then begin
          let ru = find parent u and rv = find parent dst.(i) in
          if ru <> rv then begin
            parent.(ru) <- rv;
            used.(!nused) <- i;
            incr nused
          end
        end
      done
    done;
    for k = 0 to !nused - 1 do
      let i = used.(k) in
      cons.(i) <- cons.(i) + 1;
      if cons.(i) = idx.(i) then begin
        idx.(i) <- - !round;
        decr nlive
      end
    done
  done;
  (* Edges still alive are at least max_rounds-connected. *)
  for i = 0 to m - 1 do
    idx.(i) <- (if idx.(i) > 0 then !round else - idx.(i))
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
