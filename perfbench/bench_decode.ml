(* decode: the paper's two decoders.

   op:  a battery of 24 Theorem 1.2 for-all decodes
        (Forall_lb.decode_enumerate_frozen, k = 20, on instances frozen
        at set-up) through Pool.run_batched. Nearly all of it is the
        Csr.flip_sweep / cut_delta kernels and the lower layer.
   aux: one Theorem 1.1 for-each op: Exact_sketch.create on the encoded
        digraph, then Foreach_lb.decode_bit over a fixed set of bits,
        every query a full Csr cut.

   A cycle is one op and [aux_per_cycle] aux ops, on 1 domain. *)

open Dcs
open Harness
module Fa = Forall_lb
module Fe = Foreach_lb

let domains = 1

(* For-all battery: beta = 1, 1/eps^2 = 20, so k = 20 and every decode
   walks C(20, 10) subsets. *)
let beta = 1
let inv_eps_sq = 20
let instances = 24

(* For-each instance: beta = 4, 1/eps = 16, n = 128 (2700 encoded bits),
   of which [fe_bits] are decoded per op. *)
let fe_beta = 4
let fe_inv_eps = 16
let fe_n = 128
let fe_bits = 256

let aux_per_cycle = 4

(* The decision Lemma 4.4's enumeration must reach, computed without Csr
   or Pool: with exact cut values the estimate of w(U, T) is the sum of
   the per-vertex estimates w({l}, T) (integer weights, so every sum is
   exact), and the decision is taken at the first strict maximum in the
   library's subset-walk order. *)
let reference_decision p (inst : Fa.instance) =
  let a = inst.target and t = inst.gh.Gap_hamming.t in
  let k = Fa.block_size p in
  let score =
    Array.init k (fun o ->
        Fa.estimate_w_ut p ~query:(Cut.value inst.graph) a
          ~u_mem:(fun x -> x = o)
          ~t)
  in
  let mem = Array.make k false in
  let cur = ref 0.0 and best = ref neg_infinity and best_has_i = ref false in
  Fa.iter_combinations_incremental ~n:k ~k:(k / 2)
    ~flip:(fun o ->
      mem.(o) <- not mem.(o);
      cur := if mem.(o) then !cur +. score.(o) else !cur -. score.(o))
    ~visit:(fun _ ->
      if !cur > !best then begin
        best := !cur;
        best_has_i := mem.(a.i)
      end);
  if !best_has_i then Fa.Delta_low else Fa.Delta_high

type t = {
  p : Fa.params;
  insts : Fa.instance array;
  csrs : Csr.t array;
  reference : Fa.decision array;
  fp : Fe.params;
  fe : Fe.instance;
  bits : int array;
  fe_reference : int array;
  task_ms : float array;
}

let setup ~seed ~tmp:_ =
  let master = Prng.create seed in
  let p = Fa.make_params ~beta ~inv_eps_sq (2 * beta * inv_eps_sq) in
  let insts =
    Array.init instances (fun i -> Fa.random_instance (Prng.split master i) p)
  in
  let csrs = Array.map (fun (i : Fa.instance) -> Csr.of_digraph i.graph) insts in
  let reference = Array.map (reference_decision p) insts in
  let fp = Fe.make_params ~beta:fe_beta ~inv_eps:fe_inv_eps fe_n in
  let fe = Fe.random_instance (Prng.split master instances) fp in
  (* Bits of cluster pairs whose encoding succeeded: a failed pair holds
     constant weights, so its bits carry no information to decode. *)
  let bits =
    let r = Prng.split master (instances + 1) in
    let cap = Fe.bits_capacity fp in
    let rec draw acc k =
      if k = 0 then Array.of_list (List.rev acc)
      else
        let b = Prng.int r cap in
        if Fe.failed_at fe b then draw acc k else draw (b :: acc) (k - 1)
    in
    draw [] fe_bits
  in
  let fe_reference =
    Array.map
      (fun b -> (Fe.decode_bit fp ~query:(Cut.value fe.graph) b).decoded)
      bits
  in
  {
    p;
    insts;
    csrs;
    reference;
    fp;
    fe;
    bits;
    fe_reference;
    task_ms = Array.make instances 0.0;
  }

let decode t scratch i =
  let inst = t.insts.(i) in
  Fa.decode_enumerate_frozen ~scratch t.p t.csrs.(i) inst.target
    ~t:inst.gh.Gap_hamming.t

(* The battery. Traced, each decode runs in a span and its time goes to
   a slot of [task_ms], recorded after the join. *)
let battery t =
  let task =
    if not !traced then decode t
    else fun scratch i ->
      let d, s =
        timed (fun () ->
            Trace.with_span "lower.forall_decode" (fun () -> decode t scratch i))
      in
      t.task_ms.(i) <- 1e3 *. s;
      d
  in
  let decisions =
    Pool.run_batched ~domains
      ~arena:(fun () -> Fa.decode_scratch t.p)
      ~n:instances task
  in
  if !traced then
    Array.iter
      (fun ms ->
        record "lower.forall_decode_ms" ms;
        account_layer_ms ms)
      t.task_ms;
  decisions

let foreach t =
  let sk = layer "sketch.exact_sketch_ms" (fun () -> Exact_sketch.create t.fe.graph) in
  layer "lower.foreach_decode_ms" (fun () ->
      Array.map (fun b -> (Fe.decode_bit t.fp ~query:sk.Sketch.query b).decoded) t.bits)

let cycle t =
  let decisions = op Op (fun () -> battery t) in
  Array.iteri
    (fun i d ->
      check (d = t.reference.(i))
        "decode: instance %d differs from the exact reference decision" i)
    decisions;
  for _ = 1 to aux_per_cycle do
    let decoded = op Aux (fun () -> foreach t) in
    check (decoded = t.fe_reference)
      "foreach: decoded bits differ from the Cut.value reference"
  done

let layers _ =
  let op_counts = counts_of_cycle Op and aux_counts = counts_of_cycle Aux in
  let count c name = metric name "count" (float_of_int (Counts.get c name)) in
  let ms name = median (values name) in
  [
    metric "lower.forall_decode_ms" "ms" (ms "lower.forall_decode_ms");
    metric "graph.cut_delta_per_s" "1/s"
      (float_of_int (Counts.get op_counts "csr.cut_delta") /. (ms "op_ms" /. 1e3));
    count op_counts "csr.cut_delta";
    count op_counts "csr.flip_sweep_calls";
    count op_counts "csr.cut_full";
    metric "sketch.exact_sketch_ms" "ms" (ms "sketch.exact_sketch_ms");
    metric "lower.foreach_decode_ms" "ms" (ms "lower.foreach_decode_ms");
    count aux_counts "foreach_lb.cut_queries";
  ]
