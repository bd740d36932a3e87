(** Partitioned conservative-parallel BGP network.

    One {!Rfd_bgp.Network} (with its own simulator) per topology partition,
    advanced in lockstep epochs ({!Rfd_engine.Par_sim}) with the link delay
    as the conservative lookahead. Cross-partition BGP messages travel
    through deterministic per-(src, dst) FIFO mailboxes
    ({!Rfd_engine.Partition}) exchanged at epoch barriers; observations are
    canonicalised by {!Recorder} into one replay bus.

    The partitioned execution is bit-identical for any partition count —
    including 1 — but {e not} to the plain single-network path ({!Rfd_bgp.Network}
    without ownership): partitioned transport uses per-directed-link RNG
    streams where the plain path shares two streams across all links, so the
    sampled jitter differs. Compare partitioned runs with partitioned runs.

    Determinism additionally requires [link_jitter > 0] (the default): with
    zero jitter, distinct deliveries can collide on the exact same
    timestamp and their relative order may then depend on the partition
    count. *)

type t

val create :
  ?policy:Rfd_bgp.Policy.t -> config:Rfd_bgp.Config.t -> partitions:int -> Rfd_topology.Graph.t -> t
(** Partition the graph into [min partitions num_nodes] balanced connected
    chunks ({!Rfd_topology.Graph.partition}) and build one network per
    chunk. Raises [Invalid_argument] when [partitions < 1], the graph is
    empty, or the config fails validation. Spawns a worker pool — callers
    must {!shutdown} (wrap with [Fun.protect]). *)

val shutdown : t -> unit
(** Release the domain pool. The structure stays readable afterwards. *)

val drive : ?until:float -> ?max_events:int -> t -> [ `Drained | `Horizon | `Budget ]
(** Run lockstep epochs until the queues drain, [until] is passed, or the
    corrected event count ({!sim_events}) reaches [max_events]. Budget and
    horizon are checked at epoch barriers only, so either can overshoot by
    at most one epoch — identically for every partition count, because the
    barrier sequence is partition-invariant. *)

val flush : t -> unit
(** Replay observations buffered since the last barrier and deliver any
    mailboxed cross-partition messages. Called automatically at every
    barrier; call after direct [originate]/[withdraw] at a phase boundary
    if observers must see those sends before the next {!drive}. *)

val bus : t -> Rfd_bgp.Hooks.t
(** The canonical replay bus: events from all partitions, sorted by
    (time, owner router, per-owner sequence). Attach {!Collector} and
    {!Rfd_bgp.Hooks.subscribe} observers here. *)

val partitions : t -> int
val graph : t -> Rfd_topology.Graph.t

val part_of : t -> int -> int
(** Owning partition of a node. *)

val cut_edges : t -> int
(** Undirected topology edges whose endpoints live in different partitions. *)

(** {1 Events and clocks} *)

val sim_events : t -> int
(** Total executed events, corrected for broadcast administrative events
    (each counted once, as a single-domain run would). *)

val per_partition_events : t -> int array
(** Raw per-partition executed-event counts (uncorrected). *)

val peak_heap : t -> int
(** Sum of per-partition simulator heap high-water marks. Depends on the
    partition count (excluded from {!Runner.result_digest}). *)

val epochs : t -> int
(** Lockstep epochs executed so far. *)

val now : t -> float
(** Global clock: max over partition clocks = time of the latest executed
    event. *)

val advance_all : t -> time:float -> unit
(** Jump every partition clock forward to [time] (never backward). Call
    with [now t] before direct originations at a phase boundary so send
    times are sampled from the same clock in every partition layout. *)

(** {1 Driving} *)

val originate : t -> node:int -> Rfd_bgp.Prefix.t -> unit
val withdraw : t -> node:int -> Rfd_bgp.Prefix.t -> unit
val schedule_originate : t -> at:float -> node:int -> Rfd_bgp.Prefix.t -> unit
val schedule_withdraw : t -> at:float -> node:int -> Rfd_bgp.Prefix.t -> unit

val schedule_fail_link : t -> at:float -> int -> int -> unit
(** Broadcast: scheduled in every partition, each updating its own replica
    of link state and signalling only its own routers. Likewise the other
    administrative operations below. *)

val schedule_restore_link : t -> at:float -> int -> int -> unit
val schedule_crash : t -> at:float -> int -> unit
val schedule_restart : t -> at:float -> int -> unit
val set_degradation : t -> src:int -> dst:int -> loss:float -> duplication:float -> unit

val fault_target : t -> Rfd_faults.Injector.target
val install_faults : ?start:float -> Rfd_faults.Fault_plan.t -> t -> unit

(** {1 Whole-network checks} *)

val activity : t -> Rfd_bgp.Oracle.counts
(** Summed over partitions, plus cross-partition messages still parked in
    mailboxes (they are in flight, just not yet scheduled). *)

val rib_fixpoint : t -> Rfd_bgp.Prefix.t -> bool
val status : t -> Rfd_bgp.Prefix.t -> Rfd_bgp.Oracle.level
val reuse_timer_events : t -> int
val peak_reuse_timers : t -> int

val routes_interned : t -> int
(** Summed per-partition interning-table sizes (each partition interns its
    own routers' routes). *)

val paths_interned : t -> int
