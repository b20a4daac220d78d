type record = { index : int; payload : string }

(* --- snapshot encoding ---

   Body layout (all lengths explicit so payloads may hold any bytes):

     ckpt1\n
     <signature length>\n
     <signature>\n
     <record count>\n
     <index> <payload length>\n<payload>\n     (per record, indices strictly
                                                increasing)

   The body travels inside a Checksum.frame, so the CRC-32 catches every
   single-bit flip and the length header catches truncation before this
   parser ever runs; the strictness below guards against software bugs
   (foreign files, encoder drift), not line noise. *)

let magic = "ckpt1"

let encode_body ~signature records =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (String.length signature));
  Buffer.add_char buf '\n';
  Buffer.add_string buf signature;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int (List.length records));
  Buffer.add_char buf '\n';
  let last = ref (-1) in
  List.iter
    (fun r ->
      if r.index < 0 then invalid_arg "Checkpoint: record index must be nonnegative";
      if r.index <= !last then
        invalid_arg "Checkpoint: record indices must be strictly increasing";
      last := r.index;
      Buffer.add_string buf (string_of_int r.index);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (String.length r.payload));
      Buffer.add_char buf '\n';
      Buffer.add_string buf r.payload;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

exception Malformed of string

let decode_body ~signature body =
  let pos = ref 0 in
  let len = String.length body in
  let fail msg = raise (Malformed msg) in
  let take_line () =
    match String.index_from_opt body !pos '\n' with
    | None -> fail "truncated line"
    | Some nl ->
        let s = String.sub body !pos (nl - !pos) in
        pos := nl + 1;
        s
  in
  let take_bytes k =
    if k < 0 || !pos + k > len then fail "truncated payload";
    let s = String.sub body !pos k in
    pos := !pos + k;
    s
  in
  let int_line s = match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | _ -> fail "unparsable count"
  in
  if take_line () <> magic then fail "bad magic";
  let siglen = int_line (take_line ()) in
  let sig_found = take_bytes siglen in
  if take_line () <> "" then fail "unterminated signature";
  if sig_found <> signature then
    fail "signature mismatch (stale or foreign checkpoint)";
  let count = int_line (take_line ()) in
  let last = ref (-1) in
  let records =
    List.init count (fun _ ->
        let header = take_line () in
        match String.split_on_char ' ' header with
        | [ idx; plen ] ->
            let index = int_line idx and plen = int_line plen in
            if index <= !last then fail "record indices not increasing";
            last := index;
            let payload = take_bytes plen in
            if take_line () <> "" then fail "unterminated payload";
            { index; payload }
        | _ -> fail "bad record header")
  in
  if !pos <> len then fail "trailing bytes";
  records

let save ~path ~signature records =
  let body = encode_body ~signature records in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Checksum.frame body);
      flush oc);
  (* Atomic on POSIX: a reader sees the old snapshot or the new one, never
     a torn write — a crash mid-save costs at most the snapshot being
     written, and the frame check rejects whatever half survives. *)
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load ~path ~signature =
  match read_file path with
  | exception Sys_error e -> Error ("checkpoint: " ^ e)
  | raw -> (
      match Checksum.unframe raw with
      | Error e -> Error ("checkpoint: " ^ e)
      | Ok body -> (
          match decode_body ~signature body with
          | records -> Ok records
          | exception Malformed msg -> Error ("checkpoint: " ^ msg)))

(* --- resumable supervised sweeps --- *)

exception Interrupted of { path : string; completed_now : int }

let () =
  Printexc.register_printer (function
    | Interrupted { path; completed_now } ->
        Some
          (Printf.sprintf
             "Checkpoint.Interrupted (%d trials newly checkpointed in %s)"
             completed_now path)
    | _ -> None)

type sweep_report = {
  resumed : int;
  computed : int;
  saves : int;
  discarded : string option;
  crashes : int;
  hangs : int;
  restarts : int;
  failures : Pool.failure list;
}

(* The remaining trials run on Pool.run_supervised over the missing
   indices; task streams are split by real index, so a resumed subset
   reproduces a full run's values bit for bit. *)
let sweep ?path ?(signature = "") ?(resume = true) ?(block = 16) ?abort_after
    ?domains ?restart_budget ?deadline ~encode ~decode ~rng ~n task =
  if n < 0 then invalid_arg "Checkpoint.sweep: n must be nonnegative";
  if block < 1 then invalid_arg "Checkpoint.sweep: block must be positive";
  let results = Array.make n None in
  let discarded = ref None and resumed = ref 0 in
  (match path with
  | Some p when not resume ->
      (* Cold start requested: a stale snapshot must not resurrect later. *)
      if Sys.file_exists p then (try Sys.remove p with Sys_error _ -> ())
  | Some p when Sys.file_exists p -> (
      match load ~path:p ~signature with
      | Error why -> discarded := Some why
      | Ok records -> (
          (* All-or-nothing: one undecodable or out-of-range record means
             the encoder changed under the snapshot — recompute everything
             rather than mix generations. *)
          match
            List.iter
              (fun r ->
                if r.index >= n then raise (Malformed "record index out of range");
                match decode r.payload with
                | Some v -> results.(r.index) <- Some v
                | None -> raise (Malformed "undecodable trial payload"))
              records
          with
          | () -> resumed := List.length records
          | exception Malformed msg ->
              Array.fill results 0 n None;
              discarded := Some ("checkpoint: " ^ msg)))
  | _ -> ());
  let saves = ref 0 in
  let save_snapshot () =
    match path with
    | None -> ()
    | Some p ->
        let records = ref [] in
        for i = n - 1 downto 0 do
          match results.(i) with
          | Some v -> records := { index = i; payload = encode v } :: !records
          | None -> ()
        done;
        save ~path:p ~signature !records;
        incr saves
  in
  let pending = ref [] in
  for i = n - 1 downto 0 do
    if results.(i) = None then pending := i :: !pending
  done;
  let computed = ref 0 in
  let crashes = ref 0 and hangs = ref 0 and restarts = ref 0 in
  let failures = ref [] in
  let run_indices indices =
    let values, (rep : Pool.report) =
      Pool.run_supervised ?domains ?restart_budget ?deadline ~rng ~indices task
    in
    Array.iteri (fun pos i -> results.(i) <- Some values.(pos)) indices;
    computed := !computed + Array.length indices;
    crashes := !crashes + rep.Pool.crashes;
    hangs := !hangs + rep.Pool.hangs;
    restarts := !restarts + rep.Pool.restarts;
    failures := !failures @ rep.Pool.failures
  in
  (match path with
  | None ->
      (* No checkpointing: one supervised batch, maximum parallelism. *)
      run_indices (Array.of_list !pending)
  | Some p ->
      let rec blocks = function
        | [] -> ()
        | remaining ->
            (match abort_after with
            | Some a when !computed >= a ->
                raise (Interrupted { path = p; completed_now = !computed })
            | _ -> ());
            let rec take k acc = function
              | xs when k = 0 -> (List.rev acc, xs)
              | [] -> (List.rev acc, [])
              | x :: xs -> take (k - 1) (x :: acc) xs
            in
            let batch, rest = take block [] remaining in
            run_indices (Array.of_list batch);
            save_snapshot ();
            blocks rest
      in
      blocks !pending;
      (match abort_after with
      | Some a when !computed >= a && !computed > 0 ->
          raise (Interrupted { path = p; completed_now = !computed })
      | _ -> ()));
  let values =
    Array.map (function Some v -> v | None -> assert false) results
  in
  ( values,
    {
      resumed = !resumed;
      computed = !computed;
      saves = !saves;
      discarded = !discarded;
      crashes = !crashes;
      hangs = !hangs;
      restarts = !restarts;
      failures = !failures;
    } )
