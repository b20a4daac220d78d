module Metrics = Dcs_obs_core.Metrics
module Trace = Dcs_obs_core.Trace

(* Registry-backed scheduling meters. Everything here counts logical work
   (tasks, rounds, restarts), never domains or chunks: snapshots must be
   byte-identical across DCS_DOMAINS. Per-domain utilization is visible in
   the trace ("pool.chunk" spans), which is wall-clock and excluded from
   determinism diffs. *)
let m_batched_calls = Metrics.counter "pool.batched_calls"
let m_tasks = Metrics.counter "pool.tasks"
let m_supervised_tasks = Metrics.counter "pool.supervised_tasks"
let m_rounds = Metrics.counter "pool.supervised_rounds"
let m_restarts = Metrics.counter "pool.restarts"
let m_crashes = Metrics.counter "pool.crashes"
let m_hangs = Metrics.counter "pool.hangs"
let m_poisoned = Metrics.counter "pool.poisoned"

let env_var = "DCS_DOMAINS"

let domain_count () =
  match Sys.getenv_opt env_var with
  | None -> Domain.recommended_domain_count ()
  | Some raw when String.trim raw = "" -> Domain.recommended_domain_count ()
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "%s must be a positive integer (got %S)" env_var raw))

exception Task_failed of { index : int; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Task_failed { index; exn; _ } ->
        Some
          (Printf.sprintf "Pool.Task_failed (task %d: %s)" index
             (Printexc.to_string exn))
    | _ -> None)

(* --- chunked batches with per-domain arenas --- *)

let resolve_domains ~who ~domains =
  let d = match domains with Some d -> d | None -> domain_count () in
  if d < 1 then invalid_arg (who ^ ": domains must be positive");
  d

let default_chunk ~n ~d = max 1 ((n + d - 1) / d)

(* The chunked executor shared by [run_batched] and the supervised rounds:
   tasks 0..n-1 are cut into fixed-size chunks that worker domains pull
   from an atomic cursor (dynamic assignment — a slow chunk does not
   straggle the whole batch the way a static split would), each worker
   builds its [arena] once and reuses it for every task it runs, and
   [run a i] must store its own result by slot. Workers run every chunk to
   completion even when [run] raises — failures are deferred so the caller
   observes an "all other tasks have run" contract — and return their
   failures for the caller to merge.
   Chunk *contents* are fixed by [chunk] alone; only which domain runs a
   chunk varies, which is invisible as long as [run] is slot-addressed. *)
let run_chunked ~d ~chunk ~n ~arena run =
  let nchunks = (n + chunk - 1) / chunk in
  let next = Atomic.make 0 in
  let worker w () =
    Trace.with_span "pool.worker" ~args:[ ("worker", string_of_int w) ]
    @@ fun () ->
    let a = arena () in
    let failures = ref [] in
    let rec loop () =
      let c = Atomic.fetch_and_add next 1 in
      if c < nchunks then begin
        Trace.with_span "pool.chunk" ~args:[ ("chunk", string_of_int c) ]
          (fun () ->
            let lo = c * chunk and hi = min n ((c + 1) * chunk) in
            for i = lo to hi - 1 do
              (* Tag a task exception with its index. When pools nest, an
                 already-tagged exception passes through untouched, so the
                 index names the task closest to the failure. *)
              try run a i with
              | Task_failed _ as e -> failures := e :: !failures
              | e ->
                  let backtrace = Printexc.get_backtrace () in
                  failures := Task_failed { index = i; exn = e; backtrace } :: !failures
            done);
        loop ()
      end
    in
    loop ();
    !failures
  in
  let all_failures =
    if d = 1 then worker 0 ()
    else begin
      let spawned = Array.init (d - 1) (fun w -> Domain.spawn (worker (w + 1))) in
      let first_exn = ref None in
      let mine = try worker 0 () with e -> first_exn := Some e; [] in
      let rest =
        Array.fold_left
          (fun acc dom ->
            match Domain.join dom with
            | fs -> fs @ acc
            | exception e ->
                if Option.is_none !first_exn then first_exn := Some e;
                acc)
          [] spawned
      in
      (* An exception here escaped the per-task isolation (e.g. the arena
         constructor itself died): surface it over the deferred failures. *)
      (match !first_exn with Some e -> raise e | None -> ());
      mine @ rest
    end
  in
  match all_failures with
  | [] -> ()
  | fs ->
      (* Deterministic abort point: the lowest failing index, whatever the
         chunk assignment was. *)
      let lowest a b =
        match (a, b) with
        | Task_failed { index = ia; _ }, Task_failed { index = ib; _ } ->
            if ib < ia then b else a
        | _ -> a
      in
      raise (List.fold_left lowest (List.hd fs) (List.tl fs))

let run_batched ?domains ?chunk ~arena ~n f =
  if n < 0 then invalid_arg "Pool.run_batched: n must be nonnegative";
  let d = min (resolve_domains ~who:"Pool.run_batched" ~domains) (max 1 n) in
  let chunk =
    match chunk with
    | Some c ->
        if c < 1 then invalid_arg "Pool.run_batched: chunk must be positive";
        c
    | None -> default_chunk ~n ~d
  in
  Metrics.inc m_batched_calls;
  Metrics.inc ~by:n m_tasks;
  let results = Array.make n None in
  Trace.with_span "pool.run_batched" (fun () ->
      run_chunked ~d ~chunk ~n ~arena (fun a i ->
          results.(i) <- Some (f a i)));
  Array.map (function Some v -> v | None -> assert false) results

(* --- supervised execution --- *)

type ctx = {
  index : int;
  attempt : int;
  rng : Prng.t;
  attempt_rng : Prng.t;
  deadline : float option;
  started : float;
}

exception Cancelled of { index : int; attempt : int }

let cancelled ctx =
  match ctx.deadline with
  | None -> false
  | Some d -> Unix.gettimeofday () -. ctx.started > d

let guard ctx =
  if cancelled ctx then raise (Cancelled { index = ctx.index; attempt = ctx.attempt })

type failure = {
  failed_index : int;
  failed_attempt : int;
  stream_fingerprint : int64;
  hung : bool;
  error : string;
  backtrace : string;
}

let describe_failure f =
  Printf.sprintf "task %d attempt %d (stream %016Lx) %s" f.failed_index
    f.failed_attempt f.stream_fingerprint
    (if f.hung then "hung past its deadline" else "crashed: " ^ f.error)

type report = {
  tasks : int;
  crashes : int;
  hangs : int;
  restarts : int;
  rounds : int;
  failures : failure list;
}

exception Poisoned of { index : int; attempts : int; last : failure }

let () =
  Printexc.register_printer (function
    | Poisoned { index; attempts; last } ->
        Some
          (Printf.sprintf "Pool.Poisoned (task %d after %d attempts; last: %s)"
             index attempts (describe_failure last))
    | _ -> None)

(* One attempt of one task, fully isolated: every exception is converted
   into a [failure] value, so a worker domain running a batch of attempts
   can never die and take unrelated tasks down with it. *)
let run_attempt ~deadline ~master ~attempt task i =
  let task_master = Prng.split master i in
  let attempt_rng = Prng.split task_master (attempt + 1) in
  let fp = Prng.fingerprint attempt_rng in
  let ctx =
    {
      index = i;
      attempt;
      rng = Prng.split task_master 0;
      attempt_rng;
      deadline;
      started = Unix.gettimeofday ();
    }
  in
  (* Journal this attempt's metric increments: a crashed or hung attempt
     must leave no trace in the merged snapshot, so a retried task counts
     exactly once. *)
  match Metrics.in_attempt (fun () -> task ctx) with
  | v -> Ok v
  | exception Cancelled _ ->
      Error
        {
          failed_index = i;
          failed_attempt = attempt;
          stream_fingerprint = fp;
          hung = true;
          error = "deadline exceeded";
          backtrace = "";
        }
  | exception e ->
      Error
        {
          failed_index = i;
          failed_attempt = attempt;
          stream_fingerprint = fp;
          hung = false;
          error = Printexc.to_string e;
          backtrace = Printexc.get_backtrace ();
        }

let run_supervised ?domains ?(restart_budget = 2) ?deadline ~rng ~indices task =
  if restart_budget < 0 then
    invalid_arg "Pool.run_supervised: restart_budget must be nonnegative";
  Array.iter
    (fun i ->
      if i < 0 then invalid_arg "Pool.run_supervised: indices must be nonnegative")
    indices;
  let d_requested = resolve_domains ~who:"Pool.run_supervised" ~domains in
  let k = Array.length indices in
  Metrics.inc ~by:k m_supervised_tasks;
  let results = Array.make k None in
  let failures = ref [] (* reverse chronological *) in
  let crashes = ref 0 and hangs = ref 0 and restarts = ref 0 and rounds = ref 0 in
  (* Round [attempt] re-executes every still-failing task on fresh domains:
     a crash cannot corrupt its replacement's domain-local state, and the
     attempt streams are pure functions of (master, index, attempt), so the
     rounds — and the final results — are independent of scheduling.
     [pending] holds caller slots (positions into [indices]). *)
  let rec round attempt pending =
    if Array.length pending > 0 then begin
      if attempt > restart_budget then begin
        let i = indices.(pending.(0)) in
        let last = List.find (fun f -> f.failed_index = i) !failures in
        Metrics.inc m_poisoned;
        raise (Poisoned { index = i; attempts = attempt; last })
      end;
      incr rounds;
      Metrics.inc m_rounds;
      if attempt > 0 then begin
        restarts := !restarts + Array.length pending;
        Metrics.inc ~by:(Array.length pending) m_restarts
      end;
      let np = Array.length pending in
      let outcomes = Array.make np None in
      let d = min d_requested np in
      (* run_attempt converts every task exception into a value, so the
         chunked executor sees no failures and the joins are plain. *)
      run_chunked ~d ~chunk:(default_chunk ~n:np ~d) ~n:np
        ~arena:(fun () -> ())
        (fun () pos ->
          outcomes.(pos) <-
            Some
              (run_attempt ~deadline ~master:rng ~attempt task
                 indices.(pending.(pos))));
      let still = ref [] in
      for pos = 0 to np - 1 do
        match outcomes.(pos) with
        | Some (Ok v) -> results.(pending.(pos)) <- Some v
        | Some (Error f) ->
            failures := f :: !failures;
            if f.hung then begin incr hangs; Metrics.inc m_hangs end
            else begin incr crashes; Metrics.inc m_crashes end;
            still := pending.(pos) :: !still
        | None -> assert false
      done;
      round (attempt + 1) (Array.of_list (List.rev !still))
    end
  in
  round 0 (Array.init k Fun.id);
  let values =
    Array.map (function Some v -> v | None -> assert false) results
  in
  ( values,
    {
      tasks = k;
      crashes = !crashes;
      hangs = !hangs;
      restarts = !restarts;
      rounds = !rounds;
      failures = List.rev !failures;
    } )

