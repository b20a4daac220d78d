(* serve_ingest: reads and writes side by side.

   A cycle is one episode: a fresh journaled Stream_sketch graph and a
   fresh Serve server over a 64-graph catalog (16-entry sketch cache),
   whose hot slot is the journaled graph. The server answers [windows]
   windows of a Traffic.default trace; between consecutive windows the
   journaled graph takes one mutation batch, is re-frozen and published
   with Serve.update_graph. The episode ends with a WAL scan and a
   journal recovery, whose digest must equal the live one.

   op:  one Serve.run window of [window_requests] requests.
   aux: one ingest batch: [batch_ops] journaled mutations, the re-freeze
        and the publish.

   One domain: the server's pool handles thousands of tiny supervised
   rounds, not a few big tasks. *)

open Dcs
open Harness

let domains = 1

let catalog_size = 64
let catalog_n = 48
let catalog_p = 0.12
let catalog_max_weight = 8
let hot = 0
let windows = 128
let window_requests = 500
let batch_ops = 16
let check_every = 97

type mutation = { insert : bool; u : int; v : int; w : float }

(* Initial arcs of the journaled graph plus one mutation batch per
   window gap, simulated on a weight table so that no delete goes below
   zero. The graph is stationary, so every batch costs about the same on
   every seed: it starts with exactly [initial_arcs] arcs, and the
   mutations rotate through inserting a new arc, deleting a whole arc,
   adding weight to an arc and deleting part of one. Integer weights
   keep every float sum exact. *)
let initial_arcs =
  int_of_float (catalog_p *. float_of_int (catalog_n * (catalog_n - 1)))

let mutation_script rng =
  let n = catalog_n in
  let weight = Array.make_matrix n n 0 in
  let arcs = Array.make ((n * (n - 1)) + 1) (0, 0) in
  let live = ref 0 in
  let add u v w =
    if weight.(u).(v) = 0 then begin
      arcs.(!live) <- (u, v);
      incr live
    end;
    weight.(u).(v) <- weight.(u).(v) + w;
    { insert = true; u; v; w = float_of_int w }
  in
  let remove i w =
    let u, v = arcs.(i) in
    weight.(u).(v) <- weight.(u).(v) - w;
    if weight.(u).(v) = 0 then begin
      decr live;
      arcs.(i) <- arcs.(!live)
    end;
    { insert = false; u; v; w = float_of_int w }
  in
  let weight_draw () = 1 + Prng.int rng catalog_max_weight in
  let rec absent_pair () =
    let u = Prng.int rng n in
    let v = (u + 1 + Prng.int rng (n - 1)) mod n in
    if weight.(u).(v) = 0 then (u, v) else absent_pair ()
  in
  let initial =
    Array.init initial_arcs (fun _ ->
        let u, v = absent_pair () in
        add u v (weight_draw ()))
  in
  let mutation k =
    let i = Prng.int rng !live in
    let u, v = arcs.(i) in
    match k mod 4 with
    | 0 ->
        let u, v = absent_pair () in
        add u v (weight_draw ())
    | 1 -> remove i weight.(u).(v)
    | 2 -> add u v (weight_draw ())
    | _ ->
        if weight.(u).(v) >= 2 then remove i (1 + Prng.int rng (weight.(u).(v) - 1))
        else add u v 1
  in
  let batches = Array.init (windows - 1) (fun _ -> Array.init batch_ops mutation) in
  (initial, batches)

type t = {
  tmp : string;
  catalog : Csr.t array;
  trace : Traffic.request array;
  initial : mutation array;
  batches : mutation array array;
  server_rng : Prng.t;
  stream_seed : int;
  mutable hit_rate : float;
  mutable virtual_p99 : float;
}

let setup ~seed ~tmp =
  let master = Prng.create seed in
  let catalog =
    let r = Prng.split master 0 in
    Array.init catalog_size (fun i ->
        let r = Prng.split r i in
        let g0 = Generators.erdos_renyi_connected r ~n:catalog_n ~p:catalog_p in
        Csr.of_ugraph
          (Generators.random_multigraph_weights r g0 ~max_weight:catalog_max_weight))
  in
  let trace =
    Traffic.generate (Prng.split master 1) Traffic.default
      ~n:(windows * window_requests)
  in
  let initial, batches = mutation_script (Prng.split master 2) in
  {
    tmp;
    catalog;
    trace;
    initial;
    batches;
    server_rng = Prng.split master 3;
    stream_seed = seed land 0xffff;
    hit_rate = nan;
    virtual_p99 = nan;
  }

let open_journal t dir =
  match Stream_sketch.open_journal ~dir ~n:catalog_n ~seed:t.stream_seed () with
  | Ok jr -> jr
  | Error e -> failwith ("serve_ingest: open_journal: " ^ e)

let mutate j m =
  let r =
    if m.insert then Stream_sketch.journal_insert j ~u:m.u ~v:m.v ~w:m.w
    else Stream_sketch.journal_delete j ~u:m.u ~v:m.v ~w:m.w
  in
  match r with
  | Ok () -> check true ""
  | Error e -> check false "serve_ingest: stream rejected a mutation: %s" e

(* Window [w]'s requests, shifted so the window starts no earlier than
   the server's clock: each window then meets an idle server, and the
   episode is a chain of identical-shaped windows. *)
let window_requests_at t srv w =
  let first = t.trace.(w * window_requests).Traffic.arrival in
  let offset = max 0 ((Serve.stats srv).Serve.clock - first) in
  Array.init window_requests (fun i ->
      let r = t.trace.((w * window_requests) + i) in
      { r with Traffic.arrival = r.Traffic.arrival + offset })

let check_answers graphs reqs responses latencies =
  Array.iteri
    (fun i resp ->
      let r = reqs.(i) in
      match resp with
      | Serve.Rejected _ -> check false "serve_ingest: request %d rejected" r.Traffic.seq
      | Serve.Answered a ->
          latencies := a.Serve.latency :: !latencies;
          if r.Traffic.seq mod check_every = 0 then begin
            let g = graphs.(r.Traffic.key) in
            let exact =
              Csr.cut_value g (Cut.random (Prng.create r.Traffic.cut_seed) ~n:(Csr.n g))
            in
            check
              (Float.abs (a.Serve.value -. exact) <= (a.Serve.eps *. exact) +. 1e-9)
              "serve_ingest: request %d answered %g, exact %g, eps %g"
              r.Traffic.seq a.Serve.value exact a.Serve.eps
          end
          else check true "")
    responses

let episode t dir =
  let j, _ = open_journal t dir in
  Array.iter (mutate j) t.initial;
  let graphs = Array.copy t.catalog in
  graphs.(hot) <- Stream_sketch.frozen (Stream_sketch.journal_state j);
  let srv =
    Serve.create ~domains Serve.default_config ~graphs ~rng:(Prng.copy t.server_rng)
  in
  let latencies = ref [] in
  for w = 0 to windows - 1 do
    let reqs = window_requests_at t srv w in
    let responses = op Op (fun () -> layer "serve.run_ms" (fun () -> Serve.run srv reqs)) in
    check_answers graphs reqs responses latencies;
    if w < windows - 1 then
      op Aux (fun () ->
          layer "stream.apply_ms" (fun () -> Array.iter (mutate j) t.batches.(w));
          let c =
            layer "stream.freeze_ms" (fun () ->
                Stream_sketch.frozen (Stream_sketch.journal_state j))
          in
          layer "serve.update_graph_ms" (fun () -> Serve.update_graph srv ~key:hot c);
          graphs.(hot) <- c)
  done;
  let live = Stream_sketch.digest (Stream_sketch.journal_state j) in
  Stream_sketch.close_journal j;
  let scan =
    layer "wal.scan_ms" (fun () -> Wal.scan_file ~path:(Filename.concat dir "wal.log"))
  in
  let j', report = layer "stream.recover_ms" (fun () -> open_journal t dir) in
  let recovered = Stream_sketch.digest (Stream_sketch.journal_state j') in
  Stream_sketch.close_journal j';
  check
    (recovered = live && report.Wal.quarantined = []
    && match scan with Ok s -> s.Wal.damaged = [] | Error _ -> false)
    "serve_ingest: recovered digest %Ld, live %Ld (%d quarantined)" recovered live
    (List.length report.Wal.quarantined);
  let st = Serve.stats srv in
  t.hit_rate <-
    float_of_int st.cache_hits /. float_of_int (max 1 (st.cache_hits + st.cache_misses));
  t.virtual_p99 <- quantile (Array.of_list (List.map float_of_int !latencies)) 0.99

let cycle t = with_temp_dir ~parent:t.tmp "journal" (episode t)

let layers t =
  let op_counts = counts_of_cycle Op and aux_counts = counts_of_cycle Aux in
  let count c name = metric name "count" (float_of_int (Counts.get c name)) in
  let ms name = median (values name) in
  [
    metric "serve.cache_hit_rate" "ratio" t.hit_rate;
    count op_counts "serve.cache_misses";
    count op_counts "serve.cache_evictions";
    count op_counts "serve.batches";
    count op_counts "pool.supervised_rounds";
    count op_counts "pool.supervised_tasks";
    metric "serve.virtual_p99_ticks" "ticks" t.virtual_p99;
    metric "stream.apply_ms" "ms" (ms "stream.apply_ms");
    metric "stream.freeze_ms" "ms" (ms "stream.freeze_ms");
    metric "serve.update_graph_ms" "ms" (ms "serve.update_graph_ms");
    count aux_counts "stream.wal_appends";
    count aux_counts "csr.compactions";
    metric "wal.scan_ms" "ms" (ms "wal.scan_ms");
    metric "stream.recover_ms" "ms" (ms "stream.recover_ms");
  ]
