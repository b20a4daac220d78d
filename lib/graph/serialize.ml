let output_generic out n iter =
  Buffer.add_string out (string_of_int n);
  Buffer.add_char out '\n';
  iter (fun u v w -> Buffer.add_string out (Printf.sprintf "%d %d %.17g\n" u v w))

let parse_string s =
  let sc = Scanf.Scanning.from_string s in
  let n = Scanf.bscanf sc " %d" (fun n -> n) in
  let edges = ref [] in
  (try
     while true do
       Scanf.bscanf sc " %d %d %f" (fun u v w -> edges := (u, v, w) :: !edges)
     done
   with Scanf.Scan_failure _ | End_of_file -> ());
  (n, List.rev !edges)

let ugraph_to_string g =
  let out = Buffer.create 256 in
  output_generic out (Ugraph.n g) (fun f -> Ugraph.iter_edges g f);
  Buffer.contents out

let ugraph_of_string s =
  let n, edges = parse_string s in
  Ugraph.of_edges n edges

let digraph_to_string g =
  let out = Buffer.create 256 in
  output_generic out (Digraph.n g) (fun f -> Digraph.iter_edges g f);
  Buffer.contents out

let digraph_of_string s =
  let n, edges = parse_string s in
  Digraph.of_edges n edges

let output_ugraph oc g = output_string oc (ugraph_to_string g)
let output_digraph oc g = output_string oc (digraph_to_string g)

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let input_ugraph ic = ugraph_of_string (read_all ic)
let input_digraph ic = digraph_of_string (read_all ic)

(* --- checksummed frames ---

   The frame format lives in Dcs_util.Checksum so that util-level code
   (Checkpoint snapshots) shares the exact framing the lossy channels use. *)

let parse_frame of_string s =
  match Dcs_util.Checksum.unframe s with
  | Error _ as e -> e
  | Ok body -> (
      (* The checksum already vouches for the bytes; parse failures here
         mean the sender framed a non-graph payload. *)
      try Ok (of_string body) with _ -> Error "frame: payload is not a graph")

let ugraph_to_frame g = Dcs_util.Checksum.frame (ugraph_to_string g)
let ugraph_of_frame s = parse_frame ugraph_of_string s
let digraph_to_frame g = Dcs_util.Checksum.frame (digraph_to_string g)
let digraph_of_frame s = parse_frame digraph_of_string s
