(** Scenario execution.

    A run proceeds exactly like the paper's simulations: build the topology,
    attach the flapping origin stub to the ispAS node, let every node learn
    a stable route, then inject [pulses] withdrawal/announcement pairs and
    run the simulator until fully quiescent (every reuse timer fired).
    Metrics count only flap-phase traffic. *)

(** {1 Run guardrails}

    Damping interactions can keep a network busy far longer than expected —
    and a fault-injected run (loss, duplication, crash/restart churn) may
    not converge at all. A budget bounds the run so a sweep never spins
    forever: when either limit trips, the run stops where it is and
    returns a {e partial} result flagged [Budget_exceeded]. *)

type budget = {
  max_events : int option;
      (** cap on the total number of simulator events executed over the
          whole run (all phases — initial convergence included) *)
  max_sim_time : float option;
      (** absolute virtual-time horizon (seconds); the simulation clock
          starts at [0.] *)
}

val no_budget : budget
(** Both limits off — the default: runs drain to full quiescence. *)

val budget : ?max_events:int -> ?max_sim_time:float -> unit -> budget
(** Checked constructor; raises [Invalid_argument] on non-positive limits. *)

type status =
  | Finished of Rfd_bgp.Oracle.level
      (** the event queue drained; every complete run ends [Finished Quiet] *)
  | Budget_exceeded of Rfd_bgp.Oracle.level
      (** a budget limit tripped first; the level is the oracle's verdict
          at the moment the run was cut off, and every metric in the
          result reflects only the truncated prefix of the run *)

val status_level : status -> Rfd_bgp.Oracle.level
val status_is_budget_exceeded : status -> bool

val status_to_string : status -> string
(** [Finished l] prints as {!Rfd_bgp.Oracle.level_to_string} (so existing
    [final=quiet] consumers keep working); [Budget_exceeded l] prints as
    ["budget-exceeded(" ^ level ^ ")"]. *)

val pp_status : Format.formatter -> status -> unit

type result = {
  scenario : Scenario.t;
  origin : int;  (** node id of the attached origin stub *)
  isp : int;
  num_nodes : int;  (** including the origin stub *)
  tup : float;
      (** measured initial (Tup) convergence duration: origination to last
          update of the initial propagation *)
  initial_updates : int;
  flap_start : float;  (** absolute sim time of the first withdrawal *)
  final_announcement : float;  (** absolute sim time of the last flap event *)
  convergence_time : float;
      (** last flap-phase update minus [final_announcement] (0. if no
          update followed the final announcement) *)
  time_to_stable : float;
      (** seconds after [final_announcement] until the network became
          permanently {e stable} per the {!Rfd_bgp.Oracle}: routing
          fixpoint reached, no messages in flight, MRAI pending queues and
          flush timers drained. Reuse timers may still be outstanding. *)
  time_to_quiet : float;
      (** seconds after [final_announcement] until the network became
          fully {e quiet}: stable and every reuse timer fired (the paper's
          converged-vs-releasing distinction; [time_to_quiet >=
          time_to_stable] always) *)
  final_status : status;
      (** [Finished Quiet] for every run driven to full quiescence;
          [Budget_exceeded _] marks a partial result *)
  message_count : int;  (** updates observed during the flap phase *)
  collector : Collector.t;  (** full series and traces *)
  spans : Phases.span list;  (** four-state classification of the episode *)
  background : (int * Rfd_bgp.Prefix.t) list;
      (** (node, prefix) placement of every background prefix, in
          origination order *)
  sim_events : int;
  peak_heap : int;
      (** high-water mark of the simulator heap over the whole run
          ({!Rfd_engine.Sim.max_heap_size}) — resident events, including
          cancelled-but-not-yet-compacted ones *)
  reuse_timer_events : int;
      (** simulator events spent on reuse scheduling
          ({!Rfd_bgp.Network.reuse_timer_events}) — the cost centre the
          tick-wheel reuse mode collapses *)
  peak_reuse_timers : int;
      (** summed per-router peaks of heap-resident reuse-scheduling events
          ({!Rfd_bgp.Network.peak_reuse_timers}) *)
  wall_seconds : float;
      (** elapsed host time ({!Rfd_engine.Clock.wall}, monotonic) — real
          duration even when other runs execute concurrently on sibling
          domains *)
  cpu_seconds : float;
      (** process CPU time consumed while this run executed; under a
          parallel sweep this includes sibling domains' work and is only
          an upper bound on this run's own cost *)
}

val run : ?budget:budget -> ?observe:(Rfd_bgp.Network.t -> unit) -> Scenario.t -> result
(** Raises [Invalid_argument] when the scenario fails validation.
    [budget] (default {!no_budget}) bounds the whole run; see {!status}.
    The scenario's fault plan, if any, is installed with the flap start as
    its time origin, and so is its workload trace (replayed or generated
    multi-origin churn; prefixes opening with a withdrawal are
    pre-originated during the settle phase, and [final_announcement]
    covers the later of the pulse train and the trace). [observe] is
    called once, after initial convergence and right after the flap-phase
    collector is attached — {!Rfd_bgp.Hooks.subscribe} additional observers
    to the network's hooks there; they stay active for the whole measured
    flap phase. *)

val origin_prefix : Rfd_bgp.Prefix.t
(** The prefix the origin stub announces (constant across runs). *)

val base_graph : seed:int -> Scenario.topology -> Rfd_topology.Graph.t
(** The topology a run with config seed [seed] simulates, before the
    origin stub is attached: [Mesh] and [Internet] are built from the
    first split of the seed's RNG stream, exactly as {!run} and
    {!run_partitioned} build them; [Custom] is returned as is. The one
    place a scenario topology becomes a graph — {!Sweep.materialize} and
    [rfd-sim topo]/[metrics] resolve through it too. Raises
    [Invalid_argument] on a shape the generators reject. *)

val result_digest : result -> string
(** Hex MD5 over the marshalled result with the host-timing fields
    ([wall_seconds], [cpu_seconds]) and [peak_heap] zeroed — a fingerprint
    of everything the simulation determined. Two runs of the same job (any
    [jobs] count, first try or retry) must produce equal digests; the
    supervised sweep's journal and tests use this to verify bit-identity
    cheaply. [peak_heap] is excluded because a partitioned run reports the
    sum of per-partition heap peaks, which varies with the partition count
    even when the simulation outcome is identical. *)

(** {1 Partitioned execution}

    {!run} and {!run_partitioned} execute one phase script over two
    engines: a single {!Rfd_bgp.Network}, or a {!Par_net} whose topology
    is split across domains and advanced in conservative lockstep epochs.
    The script fixes the RNG split order and the scheduling order, so a
    partitioned result is bit-identical (per {!result_digest}) for every
    [partitions] value — including 1. It is deliberately not comparable to
    {!run}, which keeps the historical shared transport RNG streams; see
    {!Par_net} for the two documented differences. *)

type par_stats = {
  partitions : int;  (** effective count (clamped to the node count) *)
  cut_edges : int;  (** topology edges crossing partitions *)
  epochs : int;  (** lockstep epochs executed *)
  per_partition_events : int array;  (** raw executed events per partition *)
  routes_interned_total : int;  (** summed per-partition interning tables *)
  paths_interned_total : int;
}

val run_partitioned :
  ?budget:budget ->
  ?on_bus:(Rfd_bgp.Hooks.t -> unit) ->
  partitions:int ->
  Scenario.t ->
  result * par_stats
(** The phase script of {!run} on a partitioned ensemble. [on_bus] is
    called once with the canonical replay bus, right where [run]'s
    [observe] is called — {!Rfd_bgp.Hooks.subscribe} event observers
    there. Budget limits are checked at epoch barriers, so a tripped
    budget can overshoot by up to one epoch (identically for every
    partition count). Raises [Invalid_argument] when the scenario fails
    validation or [partitions < 1]. *)

val pp_result : Format.formatter -> result -> unit
(** One-paragraph human summary. *)
