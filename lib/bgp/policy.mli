(** Routing policies: import preference and export filtering.

    Two policies from the paper:

    - {!announce_all} — "shortest path routing policy": every best route is
      exported to every peer; all peers have equal import preference, so
      path selection degenerates to shortest AS path.
    - {!no_valley} — the valley-free commercial policy of Section 7: a
      router forwards transit only from or to its customers. Routes learned
      from customers are exported to everyone; routes learned from peers or
      providers only to customers. Import preference follows the standard
      Gao–Rexford ordering: customer > peer > provider.

    Sender-side AS-loop avoidance (never announce a route to a peer whose
    AS is already in the path) is protocol-level, applied by the router
    regardless of policy. *)

type t

val name : t -> string

val import_preference : t -> me:int -> from_peer:int -> route:Route.t -> int
(** Higher wins in path selection; ties fall to AS-path length. Must be a
    pure function of its arguments: the router's incremental decision
    process recomputes the Loc-RIB winner's preference instead of storing
    it, and compares one changed route against it. *)

val export_allowed : t -> me:int -> learned_from:int option -> to_peer:int -> route:Route.t -> bool
(** [learned_from = None] means the route is originated by [me]. Must be a
    pure function of its arguments, like {!import_preference}. *)

val announce_all : t

val no_valley : Rfd_topology.Relations.t -> t

val custom :
  name:string ->
  import_preference:(me:int -> from_peer:int -> route:Route.t -> int) ->
  export_allowed:(me:int -> learned_from:int option -> to_peer:int -> route:Route.t -> bool) ->
  t
(** Escape hatch for experiments with bespoke policies. Both functions must
    be pure: a result that depends on anything but the arguments (time,
    counters, mutable tables) would let the cached Loc-RIB drift from what
    a full scan selects. *)
