(** A BGP-style path-vector router.

    Each router is one AS. It keeps per-peer RIB-In tables (with optional
    damping state per entry), a Loc-RIB of best routes, and per-peer RIB-Out
    mirrors of what it last advertised. Updates are exchanged through send
    callbacks supplied by {!Network}, which models link delays.

    Protocol behaviour implemented here:
    - decision process: import preference (policy), then shortest AS path,
      then lowest peer id; self-originated routes always win. It is
      incremental: a change to one peer's route is compared with the
      current Loc-RIB winner only, and the full scan over every peer runs
      only when the winner gets worse or disappears, and on origination;
    - sender-side AS-loop avoidance and receiver-side loop detection;
    - MRAI rate limiting of announcements (per peer and prefix, jittered),
      with withdrawals exempt unless configured otherwise;
    - RFC 2439 route flap damping per RIB-In entry, with reuse timers
      driven by the simulator;
    - RCN filtering and propagation (Section 6 of the paper) and the
      selective-damping baseline, per {!Config.damping_mode}. *)

type t

val create :
  ?table:Route.table ->
  sim:Rfd_engine.Sim.t ->
  id:int ->
  policy:Policy.t ->
  config:Config.t ->
  damping:Rfd_damping.Params.t option ->
  rng:Rfd_engine.Rng.t ->
  hooks:Hooks.t ->
  unit ->
  t
(** [damping] is this router's effective parameter set ([None] = damping
    not deployed here) — {!Network} resolves it from the config's global
    preset, per-router overrides and deployment policy. [rng] is consumed
    for MRAI jitter; hand each router a split stream. [table] is the route
    intern table all advertisements are built through; {!Network} passes
    one shared table to every router so identical routes are physically
    shared network-wide (a private table is created when omitted). *)

val id : t -> int

val damping_params : t -> Rfd_damping.Params.t option
(** Effective damping parameters at this router. *)

val connect : t -> peer:int -> send:(Update.t -> unit) -> unit
(** Register a peering session. [send] must deliver the update to the peer
    (with whatever delay the transport models). Raises [Invalid_argument]
    on duplicate peers or self-peering. *)

val peer_ids : t -> int list
(** Ascending. *)

(** {1 Local prefix origination} *)

val originate : t -> Prefix.t -> unit
(** Start originating a prefix (idempotent). Announces to peers per policy.
    Stamps a fresh root cause. *)

val withdraw_prefix : t -> Prefix.t -> unit
(** Stop originating (no-op when not originating). *)

val originates : t -> Prefix.t -> bool

(** {1 Message handling — called by the transport} *)

val receive : t -> from_peer:int -> Update.t -> unit

val peer_down : t -> peer:int -> unit
(** Session to [peer] lost: RIB-In entries from it are withdrawn (with
    damping penalties), pending output is dropped, armed flush timers are
    cancelled, both MRAI deadline forms (per-prefix and shared per-peer)
    are reset, and nothing more is sent to it until {!peer_up}. *)

val peer_up : t -> peer:int -> unit
(** Session restored: RIB-Out for the peer is reset and current best routes
    are re-advertised. Damping state survives the session flap. *)

(** {1 Inspection} *)

val session_up : t -> peer:int -> bool
(** Whether the session to [peer] is currently up (not torn down by a link
    failure or a crash of either endpoint). Raises [Invalid_argument] on an
    unknown peer. *)

val best : t -> Prefix.t -> Route.t option
(** Best route (as stored, without this router's own AS prepended);
    self-originated prefixes report an empty-path route. *)

val best_peer : t -> Prefix.t -> int option
(** Peer the best route was learned from; [None] when self-originated or
    unreachable. *)

val rib_in_route : t -> peer:int -> Prefix.t -> Route.t option
val is_suppressed : t -> peer:int -> Prefix.t -> bool
val penalty : t -> peer:int -> Prefix.t -> float
(** 0. when the entry has no damping state. *)

val suppressed_count : t -> int
(** Number of currently suppressed RIB-In entries across peers/prefixes. *)

val reuse_timer_events : t -> int
(** Simulator events this router has spent on reuse scheduling so far:
    fired per-entry reuse timers in [Config.Exact] mode (including [`Not_yet]
    re-checks), fired wheel slots in [Config.Tick] mode. *)

val peak_reuse_timers : t -> int
(** High-water mark of this router's reuse-scheduling events resident in
    the simulator heap at once — per-entry timers ([Exact]) or occupied
    wheel slots ([Tick]). *)

val known_prefixes : t -> Prefix.t list
(** Prefixes present in Loc-RIB or any RIB-In, ascending, deduplicated. *)

val recompute_best : t -> Prefix.t -> Route.t option
(** What a full scan of every peer's route would select right now,
    ignoring the cached Loc-RIB. It is the reference the incremental
    decision process is checked against: the convergence oracle's Loc-RIB
    fixpoint ({!Network.rib_fixpoint}) compares {!best} with it. *)

(** {1 Convergence-oracle introspection}

    Exact live counts of this router's outstanding timer work, summed into
    {!Oracle.counts} (with [in_flight = 0]; messages on the wire belong to
    the transport and are counted by {!Network}). *)

val activity : t -> Oracle.counts
(** Parked MRAI updates, armed flush timers and outstanding reuse timers
    across all peers. *)

val peer_activity : t -> peer:int -> Oracle.counts
(** Same, restricted to one peering session. Raises [Invalid_argument] on
    an unknown peer. *)
