module Prng = Dcs_util.Prng
module Digraph = Dcs_graph.Digraph
module Cut = Dcs_graph.Cut
module Sketch = Dcs_sketch.Sketch

type params = { n : int; beta : int; inv_eps : int }

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let int_sqrt x =
  let r = int_of_float (Float.round (sqrt (float_of_int x))) in
  if r * r = x then Some r else None

let make_params ~beta ~inv_eps n =
  if beta < 1 then invalid_arg "Naive_foreach: beta >= 1";
  if not (is_power_of_two inv_eps) || inv_eps < 2 then
    invalid_arg "Naive_foreach: 1/eps must be a power of two >= 2";
  let sb =
    match int_sqrt beta with
    | Some sb -> sb
    | None -> invalid_arg "Naive_foreach: beta must be a perfect square"
  in
  let block = sb * inv_eps in
  if n <= 0 || n mod block <> 0 || n / block < 2 then
    invalid_arg "Naive_foreach: n must be a multiple of the block with >= 2 blocks";
  { n; beta; inv_eps }

let block_size p =
  match int_sqrt p.beta with Some sb -> sb * p.inv_eps | None -> assert false

let layout p = Layout.create ~n:p.n ~block:(block_size p)

let bits_capacity p =
  let k = block_size p in
  ((layout p).Layout.chains - 1) * k * k

type instance = { params : params; s : bool array; graph : Dcs_graph.Digraph.t }

type address = { pair : int; u : int; v : int }

let address_of_index p q =
  if q < 0 || q >= bits_capacity p then invalid_arg "Naive_foreach: bit index";
  let k = block_size p in
  let per_pair = k * k in
  let pair = q / per_pair in
  let r = q mod per_pair in
  { pair; u = r / k; v = r mod k }

let index_of_address p a =
  let k = block_size p in
  (a.pair * k * k) + (a.u * k) + a.v

let encode p ~s =
  if Array.length s <> bits_capacity p then
    invalid_arg "Naive_foreach.encode: wrong string length";
  let lay = layout p in
  let k = block_size p in
  let g = Digraph.create p.n in
  for pair = 0 to lay.Layout.chains - 2 do
    for u = 0 to k - 1 do
      for v = 0 to k - 1 do
        let bit = s.(index_of_address p { pair; u; v }) in
        Digraph.add_edge g
          (Layout.vertex lay ~chain:pair ~offset:u)
          (Layout.vertex lay ~chain:(pair + 1) ~offset:v)
          (if bit then 2.0 else 1.0)
      done
    done
  done;
  Layout.add_backward_edges lay ~weight:(1.0 /. float_of_int p.beta) g;
  { params = p; s = Array.copy s; graph = g }

let random_instance rng p =
  encode p ~s:(Array.init (bits_capacity p) (fun _ -> Prng.bool rng))

let query_cut p a =
  let lay = layout p in
  let block = lay.Layout.block in
  let mem w =
    let chain = w / block in
    if chain >= a.pair + 2 then true
    else if chain = a.pair then w mod block = a.u
    else if chain = a.pair + 1 then w mod block <> a.v
    else false
  in
  Cut.of_mem ~n:p.n mem

let fixed_crossing_weight p a =
  let lay = layout p in
  let k = lay.Layout.block in
  let within = float_of_int ((k - 1) * (k - 1)) in
  let from_u = if a.pair >= 1 then float_of_int k else 0.0 in
  let into_v =
    if a.pair + 2 <= lay.Layout.chains - 1 then float_of_int k else 0.0
  in
  (within +. from_u +. into_v) /. float_of_int p.beta

let decode_bit p ~query q =
  let a = address_of_index p q in
  let est = query (query_cut p a) -. fixed_crossing_weight p a in
  est >= 1.5

type trial_stats = {
  trials : int;
  bits_tested : int;
  correct : int;
  success_rate : float;
}

let run_trials ?domains rng p ~sketch_of ~trials ~bits_per_trial =
  if trials <= 0 || bits_per_trial <= 0 then invalid_arg "Naive_foreach.run_trials";
  let master = Prng.fork rng in
  let one_trial t =
    let rng = Prng.split master t in
    let inst = random_instance rng p in
    let sk = sketch_of rng inst in
    let correct = ref 0 in
    for _ = 1 to bits_per_trial do
      let q = Prng.int rng (bits_capacity p) in
      if decode_bit p ~query:sk.Sketch.query q = inst.s.(q) then incr correct
    done;
    !correct
  in
  let per_trial =
    Dcs_util.Pool.run_batched ?domains ~arena:(fun () -> ()) ~n:trials
      (fun () -> one_trial)
  in
  let correct = Array.fold_left ( + ) 0 per_trial in
  let total = trials * bits_per_trial in
  {
    trials;
    bits_tested = total;
    correct;
    success_rate = float_of_int correct /. float_of_int total;
  }
