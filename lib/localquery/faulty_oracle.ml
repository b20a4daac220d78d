module Fault = Dcs_util.Fault
module Retry = Dcs_util.Retry
module Metrics = Dcs_obs_core.Metrics

let m_retries = Metrics.counter "oracle.retries"
let m_votes = Metrics.counter "oracle.votes_cast"
let m_retry_hist = Metrics.histogram ~buckets:8 "oracle.retry_attempts"
let m_vote_hist = Metrics.histogram ~buckets:8 "oracle.votes_per_query"

type t = {
  oracle : Oracle.t;
  fault : Fault.t;
  retry_budget : int;
  vote_k : int;
  mutable retries : int;
  mutable votes_cast : int;
  mutable backoff_units : int;
}

exception Exhausted of string

let create ?(retry_budget = 8) ?vote_k fault oracle =
  if retry_budget < 1 then
    invalid_arg "Faulty_oracle.create: retry_budget must be >= 1";
  let vote_k =
    match vote_k with
    | Some k ->
        if k < 1 then invalid_arg "Faulty_oracle.create: vote_k must be >= 1";
        k
    | None -> if (Fault.policy_of fault).Fault.lie_rate > 0.0 then 3 else 1
  in
  { oracle; fault; retry_budget; vote_k; retries = 0; votes_cast = 0; backoff_units = 0 }

let oracle t = t.oracle
let n t = Oracle.n t.oracle

(* One vote: retry [attempt] up to the budget on timeouts. [attempt] must
   issue the real (metered) query first and only then consult the fault
   stream — a timed-out query was still paid for. *)
let vote t attempt =
  let out =
    Retry.with_budget ~budget:t.retry_budget
      ~wait:(fun ~attempt -> 1 lsl attempt)
      (fun ~attempt:_ -> attempt ())
  in
  t.retries <- t.retries + (out.Retry.attempts - 1);
  t.backoff_units <- t.backoff_units + out.Retry.backoff_units;
  Metrics.inc ~by:(out.Retry.attempts - 1) m_retries;
  Metrics.observe m_retry_hist out.Retry.attempts;
  out.Retry.value

(* Majority over [vote_k] votes; a vote whose every retry timed out
   abstains, and a query where all votes abstain is a hard failure. *)
let robust t ~name attempt =
  let votes_before = t.votes_cast in
  let winner =
    Retry.majority ~k:t.vote_k (fun _ ->
        t.votes_cast <- t.votes_cast + 1;
        Metrics.inc m_votes;
        vote t attempt)
  in
  Metrics.observe m_vote_hist (t.votes_cast - votes_before);
  match winner with
  | Some (v, _) -> v
  | None ->
      raise
        (Exhausted
           (Printf.sprintf
              "Faulty_oracle.%s: all %d vote(s) exhausted their retry budget of %d"
              name t.vote_k t.retry_budget))

(* Fabricated answers draw from the fault stream, never the caller's rng,
   and are guaranteed wrong (when the domain has room to be wrong). *)

let lie_degree t honest =
  let n = n t in
  if n < 2 then honest
  else
    let r = Fault.draw_int t.fault (n - 1) in
    if r >= honest then r + 1 else r

let lie_neighbor t honest =
  let n = n t in
  match honest with
  | None -> Some (Fault.draw_int t.fault n)
  | Some v ->
      (* n wrong answers: the n-1 other vertices, or ⊥. *)
      let r = Fault.draw_int t.fault n in
      if r = v then None else Some r

let degree t u =
  robust t ~name:"degree" (fun () ->
      let d = Oracle.degree t.oracle u in
      if Fault.times_out t.fault then None
      else if Fault.lies t.fault then Some (lie_degree t d)
      else Some d)

let ith_neighbor t u i =
  robust t ~name:"ith_neighbor" (fun () ->
      let a = Oracle.ith_neighbor t.oracle u i in
      if Fault.times_out t.fault then None
      else if Fault.lies t.fault then Some (lie_neighbor t a)
      else Some a)

let adjacent t u v =
  robust t ~name:"adjacent" (fun () ->
      let a = Oracle.adjacent t.oracle u v in
      if Fault.times_out t.fault then None
      else if Fault.lies t.fault then Some (not a)
      else Some a)

type stats = {
  retries : int;
  votes_cast : int;
  backoff_units : int;
}

let stats (t : t) =
  { retries = t.retries; votes_cast = t.votes_cast; backoff_units = t.backoff_units }
