(** Canonical observation ordering for partitioned runs.

    Each partition's {!Rfd_bgp.Hooks} bus is subscribed to a recorder,
    which buffers the typed {!Rfd_bgp.Hooks.event}s raw; at every epoch
    barrier {!drain_replay} merges the partitions' buffers, sorts by the
    total key (time, owner router, per-owner sequence) and replays into
    one observer bus. An owner's events keep their relative order under
    any partitioning, so the key — and therefore the replayed stream seen
    by {!Collector} or any {!Rfd_bgp.Hooks.subscribe} callback — is
    independent of the partition count. *)

type t

val create : nodes:int -> t
(** One recorder per partition; [nodes] is the {e global} node count (the
    owner-id space). Raises [Invalid_argument] when [nodes < 1]. *)

val attach : t -> Rfd_bgp.Hooks.t -> unit
(** Subscribe this recorder to every event of the bus. Ownership
    attribution: send/drop/duplicate events belong to the sending router,
    deliveries to the receiving router, router-scoped events to their
    router. *)

val pending : t -> int
(** Buffered records not yet drained (test introspection). *)

val drain_replay : t list -> Rfd_bgp.Hooks.t -> unit
(** Merge and clear every recorder's buffer, replaying the events into
    [bus] in canonical order with {!Rfd_bgp.Hooks.emit}. Must be called at
    a barrier: every buffered record then predates the next global event,
    which keeps the stream sorted across successive calls. *)
