module Ugraph = Dcs_graph.Ugraph
module Csr = Dcs_graph.Csr
module Cut = Dcs_graph.Cut
module Trace = Dcs_obs_core.Trace

(* Classic minimum-cut-phase formulation: repeatedly run a maximum-adjacency
   ordering, record the cut-of-the-phase (last vertex added versus the rest),
   then merge the last two vertices. Weights live in a dense matrix; [group]
   tracks which original vertices each super-vertex absorbed so the witness
   side can be reported. *)

let mincut g =
  let n = Ugraph.n g in
  if n < 2 then invalid_arg "Stoer_wagner.mincut: need at least 2 vertices";
  Trace.with_span "stoer_wagner.mincut" @@ fun () ->
  let w = Array.make_matrix n n 0.0 in
  (* Dense init off the frozen arc arrays; each undirected edge appears as
     two opposite arcs, filling both triangles in one pass. *)
  let csr = Csr.of_ugraph g in
  for u = 0 to n - 1 do
    Csr.iter_out csr u (fun v x -> w.(u).(v) <- w.(u).(v) +. x)
  done;
  let group = Array.init n (fun v -> [ v ]) in
  let active = Array.make n true in
  let best_value = ref infinity in
  let best_side = ref [] in
  let remaining = ref n in
  while !remaining > 1 do
    (* Maximum adjacency search over active vertices. *)
    let in_a = Array.make n false in
    let conn = Array.make n 0.0 in
    let prev = ref (-1) in
    let last = ref (-1) in
    for _step = 1 to !remaining do
      (* Select the most tightly connected unadded active vertex. *)
      let sel = ref (-1) in
      for v = 0 to n - 1 do
        if active.(v) && not in_a.(v) then
          if !sel < 0 || conn.(v) > conn.(!sel) then sel := v
      done;
      let v = !sel in
      in_a.(v) <- true;
      prev := !last;
      last := v;
      for u = 0 to n - 1 do
        if active.(u) && not in_a.(u) then conn.(u) <- conn.(u) +. w.(v).(u)
      done
    done;
    let s = !last and t = !prev in
    (* Cut of the phase: group(last) versus everything else. *)
    let phase_value = ref 0.0 in
    for u = 0 to n - 1 do
      if active.(u) && u <> s then phase_value := !phase_value +. w.(s).(u)
    done;
    if !phase_value < !best_value then begin
      best_value := !phase_value;
      best_side := group.(s)
    end;
    (* Merge s into t. *)
    for u = 0 to n - 1 do
      if active.(u) && u <> s && u <> t then begin
        w.(t).(u) <- w.(t).(u) +. w.(s).(u);
        w.(u).(t) <- w.(u).(t) +. w.(u).(s)
      end
    done;
    group.(t) <- group.(s) @ group.(t);
    active.(s) <- false;
    decr remaining
  done;
  (!best_value, Cut.of_indices ~n !best_side)

let mincut_value g = fst (mincut g)
