(** Parameter sweeps over pulse counts — the shape of Figures 8/9/13/14/15.

    A sweep runs a base scenario at every pulse count in a range and
    collects the two headline metrics (convergence time, message count) per
    point. Several sweeps (one per configuration) form a figure.

    Execution is split into two layers: a sweep is first {e described} as a
    list of pure {!job} values ({!plan}), then {e executed} on a
    {!Rfd_engine.Pool} of worker domains ({!execute}). Every job carries a
    fully resolved scenario — its own seed substituted into the config and
    its topology pre-built — so jobs share nothing and can run in any order
    on any domain. Results are deterministic and independent of the [jobs]
    count: [~jobs:1] and [~jobs:n] produce bit-identical series. *)

type point = {
  pulses : int;
  convergence_time : float;
  message_count : int;
  peak_damped : int;
  result : Runner.result;
}

type failure_reason =
  | Crashed of string  (** the run raised; the exception, printed *)
  | Budget_exceeded of Runner.result
      (** the run hit its {!Runner.budget}; the partial result is kept so
          the truncated prefix's metrics stay inspectable *)
  | Timed_out of { attempts : int; deadline : float }
      (** supervised execution only: every allowed attempt overran the
          per-job wall-clock deadline *)
  | Interrupted
      (** supervised execution only: the sweep was cancelled (SIGINT
          drain) while this job was still queued — it never ran, and a
          resumed sweep will run it *)

type failure = {
  failed_seed : int;
  failed_pulses : int;
  failed_topology : string;
      (** {!Scenario.topology_summary} of the job's topology, so one bad
          point in a 500-job grid is identifiable without re-running *)
  reason : failure_reason;
}
(** One sweep point that produced no clean data, identified by its plan
    coordinates. *)

type t = {
  label : string;
  base : Scenario.t;
  points : point list;  (** clean points only, in plan order *)
  failures : failure list;
      (** the rest, in plan order — empty for a fully healthy sweep *)
}

(** {1 The declarative job layer} *)

type job = {
  job_scenario : Scenario.t;
      (** resolved scenario: seed substituted, pulse count set, topology
          materialized as [Scenario.Custom] (shared between the jobs of one
          (topology, seed) pair instead of rebuilt per point) *)
  job_seed : int;  (** the RNG seed in [job_scenario]'s config *)
  job_pulses : int;
}

val materialize :
  ?memo:(int * Scenario.topology, Rfd_topology.Graph.t) Hashtbl.t ->
  Scenario.t ->
  Scenario.t
(** Resolve a valid scenario's [Mesh]/[Internet] topology into the
    [Custom] graph {!Runner.base_graph} builds for it — the run's own
    resolver, so the substitution is bit-identical. [Custom] topologies and invalid
    scenarios pass through untouched. [memo], keyed by
    [(config seed, topology)], lets repeated callers — the jobs of one
    sweep, or a long-lived {!Rfd_service} daemon — share one graph
    instead of rebuilding it per request. This resolved form is what
    {!job_key} / {!Journal.job_key} hash, so two parties that materialize
    the same base scenario derive the same cache key. *)

val plan : ?pulses:int list -> ?seeds:int list -> Scenario.t -> job list
(** Describe a sweep as pure jobs, seed-major ([pulses] jobs per seed, in
    order). Default pulse counts: [1 .. 10] (the paper's x axis); default
    seeds: the base scenario's own config seed. The base scenario's
    [pulses] field is ignored. Mesh and Internet topologies are built once
    per (topology, seed) and shared by reference; the substitution is
    bit-identical to letting {!Runner.run} build them (the graph comes from
    the same split of the seed's RNG stream). *)

val execute : ?jobs:int -> ?budget:Runner.budget -> job list -> Runner.result list
(** Run every job, in input order, on a worker pool of [jobs] domains
    (default {!Rfd_engine.Pool.default_jobs}; [~jobs:1] is strictly
    sequential in the calling domain). A job's exception is re-raised after
    the batch completes. *)

val execute_results :
  ?jobs:int -> ?budget:Runner.budget -> job list -> (Runner.result, string) result list
(** Like {!execute}, but degrades gracefully: a job that raises becomes
    [Error (printed exception)] in its slot instead of aborting the batch,
    so every other job's result is still returned (in input order). Note a
    budget-exceeded run is an [Ok] here — it returned a partial result;
    {!run} is what reclassifies it as a {!failure}. *)

val run :
  ?label:string -> ?pulses:int list -> ?jobs:int -> ?budget:Runner.budget -> Scenario.t -> t
(** [plan] + {!execute_results} + point assembly. Default pulse counts:
    [1 .. 10]. The scenario's own [pulses] field is ignored. Crashed jobs
    and budget-exceeded runs land in {!t.failures} as structured records;
    the remaining points are unaffected (and bit-identical to a sweep that
    never had the bad points). *)

(** {1 Supervised execution} *)

type supervision = {
  deadline : float option;  (** per-job wall-clock limit, seconds *)
  retries : int;  (** extra attempts for crashed / timed-out jobs *)
  journal : string option;  (** checkpoint file; see {!Journal} *)
  resume : bool;
      (** skip jobs whose terminal outcome the journal already holds *)
  should_stop : unit -> bool;
      (** polled by the watchdog; [true] starts a graceful drain *)
}

val default_supervision : supervision
(** No deadline, no retries, no journal, never stops — supervised
    execution degrades to plain {!run} semantics. *)

val job_key : job -> string
(** The job's journal identity: {!Journal.job_key} over its resolved
    scenario, seed and pulse count. *)

val run_supervised :
  ?label:string ->
  ?pulses:int list ->
  ?seeds:int list ->
  ?jobs:int ->
  ?budget:Runner.budget ->
  ?supervision:supervision ->
  Scenario.t ->
  t
(** {!run} on a {!Rfd_engine.Supervisor} instead of a bare pool: wedged
    jobs are timed out instead of stalling the sweep, crashed workers are
    respawned, failed jobs retry with deterministic backoff, and every
    terminal outcome is checkpointed to [supervision.journal] (fsync'd)
    as it lands. With [resume = true], journalled jobs are skipped and
    their stored results merged back in plan order — an interrupted sweep
    finished under [resume] is bit-identical to an uninterrupted one, at
    any [jobs] count. [seeds] extends the plan across a seed grid exactly
    as in {!run_many}. Timed-out and cancelled jobs become {!Timed_out} /
    {!Interrupted} failures; everything else matches {!run}. *)

val pp_failure : Format.formatter -> failure -> unit
(** One-line human summary, e.g.
    ["topology=mesh:10x10 seed=7 pulses=3: budget-exceeded(active) after 50000 events, ..."]. *)

val convergence_series : t -> (float * float) list
(** [(pulses, convergence seconds)] pairs. *)

val message_series : t -> (float * float) list

val stable_series : t -> (float * float) list
(** [(pulses, {!Runner.result.time_to_stable})] pairs — when routing and
    the MRAI machinery went permanently inert. *)

val quiet_series : t -> (float * float) list
(** [(pulses, {!Runner.result.time_to_quiet})] pairs — when additionally
    every reuse timer had fired. *)

val intended_series :
  Rfd_damping.Params.t -> interval:float -> tup:float -> pulses:int list -> (float * float) list
(** The paper's "calculation" curve from {!Intended.convergence_time}. *)

(** {1 Multi-seed aggregation} *)

type aggregate = {
  agg_pulses : int;
  convergence : Rfd_engine.Stats.Summary.t;
  messages : Rfd_engine.Stats.Summary.t;
}

val run_many :
  ?pulses:int list ->
  ?jobs:int ->
  ?budget:Runner.budget ->
  seeds:int list ->
  Scenario.t ->
  aggregate list
(** Run the sweep once per seed (the seed is substituted into the
    scenario's config) and aggregate convergence time and message count per
    pulse count. All seeds' runs execute on one [jobs]-domain pool;
    aggregates are accumulated in seed order regardless of [jobs]. Crashed
    or budget-exceeded runs contribute no sample — compare
    {!Rfd_engine.Stats.Summary.n} against [List.length seeds] to detect
    them. Raises [Invalid_argument] on an empty seed list. *)

val mean_convergence_series : aggregate list -> (float * float) list
val mean_message_series : aggregate list -> (float * float) list
