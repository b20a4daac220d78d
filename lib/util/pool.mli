(** Domain-based parallel trial engine (stdlib [Domain] only, OCaml >= 5).

    Every Monte Carlo experiment in this repo is a loop of independent
    trials; this module fans such loops out over domains while keeping the
    results {e bit-identical} for every domain count:

    - each task [i] computes a pure function of its index (callers derive
      per-task randomness with [Prng.split parent i]);
    - results land in slot [i] of the output array regardless of which
      domain ran the task;
    - reductions are the caller's, performed sequentially in index order
      after the join, so float non-associativity cannot leak scheduling
      into the outcome.

    There are two runners and both sit on one chunked executor: tasks are
    cut into fixed-size chunks that worker domains pull from a shared
    cursor. {!run_batched} is the plain one; {!run_supervised} adds
    per-task crash isolation (a worker exception fails one task, not the
    batch), cooperative per-task deadlines, and deterministic re-execution
    of failed tasks on fresh domains from their own [Prng.split] streams,
    bounded by a restart budget before a task is declared {!Poisoned}.

    The domain count defaults to the [DCS_DOMAINS] environment variable
    when set ([Domain.recommended_domain_count ()] otherwise); a count of 1
    runs every chunk in the calling domain with no spawns.

    The engine meters itself into {!Dcs_obs_core.Metrics} ([pool.tasks],
    [pool.crashes], [pool.restarts], ... — counts of logical events only,
    never anything domain-count dependent) and brackets runs and per-domain
    chunks in {!Dcs_obs_core.Trace} spans. Supervised attempts run inside
    {!Dcs_obs_core.Metrics.in_attempt}, so a crashed-and-retried task's own
    increments commit exactly once. *)

val env_var : string
(** ["DCS_DOMAINS"]. *)

val domain_count : unit -> int
(** The effective default domain count: [DCS_DOMAINS] if set and
    non-empty (must parse as a positive integer, else
    [Invalid_argument]), otherwise — including when set to the empty
    string — [Domain.recommended_domain_count ()]. *)

exception Task_failed of { index : int; exn : exn; backtrace : string }
(** How a worker exception reaches the caller of {!run_batched}: tagged
    with the index of the task that died and the backtrace captured at
    the failure site (non-empty when [Printexc.record_backtrace] is on),
    instead of a bare re-raise that loses which trial was running. Nested
    pools preserve the innermost tag, so the index always names the task
    closest to the failure. *)

(** {2 Chunked batches with per-domain arenas}

    The per-task overheads that make a naive fan-out {e lose} throughput
    as domains grow (BENCH_005's E10: 0.43x at 2 domains, 0.14x at 4 on a
    single core) are spawn/sync cost and, above all, per-task allocation —
    every minor collection is a stop-the-world rendezvous of {e all}
    domains, so allocation-heavy tasks serialize on the GC however many
    domains run. {!run_batched} attacks both: tasks are grouped into
    fixed-size chunks that worker domains pull from a shared cursor (one
    spawn per {e domain}, one atomic fetch per {e chunk}, nothing per
    task), and each domain builds one [arena] of scratch buffers and
    reuses it for every task it runs, so a task written against the arena
    allocates (almost) nothing. *)

val run_batched :
  ?domains:int ->
  ?chunk:int ->
  arena:(unit -> 'arena) ->
  n:int ->
  ('arena -> int -> 'a) ->
  'a array
(** [run_batched ~arena ~n f] is [Array.init n (fun i -> f a i)] where
    each worker domain gets its own [a = arena ()], built once and reused
    across all tasks that domain runs. [f] must treat the arena as
    uninitialized scratch (no task may depend on what a previous task left
    in it) and must be a pure function of [i] given that — then the result
    is bit-identical for every [domains] and [chunk] setting. Callers with
    no scratch to share pass [~arena:(fun () -> ())].

    [chunk] is the number of consecutive tasks dispatched per queue pull
    (default [ceil n/domains]); chunk {e contents} depend only on [chunk],
    never on the domain count. If tasks raise, every non-failing task
    still runs, and after all domains are joined the failure with the
    lowest task index is re-raised as {!Task_failed}. Meters
    [pool.batched_calls] and [pool.tasks]. *)

(** {2 Supervised execution}

    [run_supervised ~rng ~indices task] runs one task per index like
    {!run_batched}, but each task attempt is individually isolated: an
    exception (or a cooperative deadline overrun) fails {e that task's
    attempt} only, and the task is re-executed in a later round on a freshly spawned domain,
    up to [restart_budget] re-executions, after which it is {!Poisoned}.

    Determinism: task [i]'s {!ctx.rng} is [Prng.split (Prng.split rng i) 0]
    — the {e same} stream on every attempt, so a successful re-execution
    returns exactly the value the first execution would have, and results
    are bit-identical at every domain count, restart pattern, and resume
    point. {!ctx.attempt_rng} is [Prng.split (Prng.split rng i) (attempt+1)]
    — a {e fresh} stream per attempt, for anything that should vary across
    restarts (the chaos harness draws its injected faults from it, so a
    crashy attempt can be followed by a clean one). [rng] is never
    advanced; pass a frozen master (e.g. from [Prng.fork]).

    Deadlines are {e cooperative}: a task observes its deadline through
    {!guard}/{!cancelled} and is treated as hung when it raises
    {!Cancelled}. OCaml domains cannot be preempted, so a task that never
    polls and never returns cannot be recovered; a completed attempt's
    value is always accepted, late or not (anything else would let wall
    clock into the results). *)

type ctx = {
  index : int;            (** task index, as seen by the caller *)
  attempt : int;          (** 0 on first execution, +1 per restart *)
  rng : Prng.t;           (** task stream — identical on every attempt *)
  attempt_rng : Prng.t;   (** per-attempt stream — fresh on every attempt *)
  deadline : float option;(** seconds allotted to this attempt *)
  started : float;        (** [Unix.gettimeofday] at attempt start *)
}

exception Cancelled of { index : int; attempt : int }
(** Raised by {!guard} when the attempt has outlived its deadline; the
    supervisor records the attempt as hung and schedules a re-execution. *)

val cancelled : ctx -> bool
(** Whether this attempt is past its deadline ([false] when none is set). *)

val guard : ctx -> unit
(** Cancellation point: raises {!Cancelled} iff [cancelled ctx]. Long
    tasks should call it inside their hot loops. *)

type failure = {
  failed_index : int;
  failed_attempt : int;
  stream_fingerprint : int64;
      (** {!Prng.fingerprint} of the attempt stream at attempt start — the
          exact randomness the failing attempt was running on, for replay *)
  hung : bool;            (** deadline overrun, as opposed to a crash *)
  error : string;         (** [Printexc.to_string] of the crash, or
                              ["deadline exceeded"] *)
  backtrace : string;     (** captured at the failure site; [""] unless
                              [Printexc.record_backtrace] is on *)
}

val describe_failure : failure -> string
(** One-line human rendering: task, attempt, stream fingerprint, cause. *)

type report = {
  tasks : int;            (** tasks submitted *)
  crashes : int;          (** attempts that raised *)
  hangs : int;            (** attempts cancelled past their deadline *)
  restarts : int;         (** re-executions scheduled (= crashes + hangs
                              unless a task was poisoned) *)
  rounds : int;           (** execution rounds (1 = no failures) *)
  failures : failure list;(** chronological: by round, then task order *)
}

exception Poisoned of { index : int; attempts : int; last : failure }
(** A task failed on its initial execution {e and} on every one of its
    [restart_budget] re-executions. Raised in the caller after the final
    round (all other tasks have completed by then). *)

val run_supervised :
  ?domains:int ->
  ?restart_budget:int ->
  ?deadline:float ->
  rng:Prng.t ->
  indices:int array ->
  (ctx -> 'a) ->
  'a array * report
(** Runs one task per entry of [indices] (distinct, nonnegative; pass
    [Array.init n Fun.id] for a full sweep) under supervision. Slot [p] of
    the result corresponds to [indices.(p)], and task streams are split by
    the {e real} index — so running a subset (e.g. the trials a checkpoint
    is missing) yields bit-for-bit the values a full run would have
    produced at those indices; {!Checkpoint.sweep} resumes on this.

    Each round's still-pending attempts run on the chunked executor on
    fresh domains, preserving crash isolation. [restart_budget] (default
    2) is the number of re-executions allowed per task beyond the first; a
    task still failing past it raises {!Poisoned}. [deadline] (seconds,
    default none) bounds each attempt cooperatively. With a crash-free,
    hang-free task function the result array equals
    [Array.map (fun i -> task (ctx of i)) indices], in one round, with an
    empty failure list. *)
