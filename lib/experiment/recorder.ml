(* Canonical observation ordering for partitioned runs.

   Each partition records its hook events raw; at every epoch barrier the
   partitions' buffers are merged, sorted by the total key
   (time, owner router, per-owner sequence) and replayed into a single
   observer bus. The key is partition-invariant: an owner's events execute
   in the same relative order under any partitioning (that is the epoch
   engine's guarantee), so its per-owner sequence numbers are too, and
   cross-owner ties at equal times are broken by the owner id. Observers
   (Collector, subscribers) attached to the bus therefore see one
   deterministic stream regardless of the partition count.

   Ownership of an event follows where it executes: a send (and its
   drop/duplicate outcomes, decided at send time) belongs to the sending
   router, a delivery to the receiving router, every router-scoped hook to
   its router. *)

open Rfd_bgp

type record = { time : float; owner : int; seq : int; event : Hooks.event }

type t = { mutable rev : record list; seqs : int array (* next seq per owner *) }

let create ~nodes =
  if nodes < 1 then invalid_arg "Recorder.create: nodes must be >= 1";
  { rev = []; seqs = Array.make nodes 0 }

let owner : Hooks.event -> int = function
  | Send { src; _ } | Drop { src; _ } | Duplicate { src; _ } -> src
  | Deliver { dst; _ } -> dst
  | Suppress { router; _ }
  | Reuse { router; _ }
  | Reuse_schedule { router; _ }
  | Penalty { router; _ }
  | Best_change { router; _ }
  | Mrai { router; _ } ->
      router

let push t ~time event =
  let owner = owner event in
  let seq = t.seqs.(owner) in
  t.seqs.(owner) <- seq + 1;
  t.rev <- { time; owner; seq; event } :: t.rev

let attach t hooks = Hooks.subscribe hooks (push t)

let compare_record a b =
  match Float.compare a.time b.time with
  | 0 -> ( match Int.compare a.owner b.owner with 0 -> Int.compare a.seq b.seq | c -> c)
  | c -> c

let pending t = List.length t.rev

(* Barrier-time merge: every buffered record predates the next global event
   (records are only emitted by executed events), so draining everything at
   each barrier keeps the replayed stream globally sorted across barriers. *)
let drain_replay recorders bus =
  let records =
    List.concat_map
      (fun t ->
        let items = List.rev t.rev in
        t.rev <- [];
        items)
      recorders
  in
  match records with
  | [] -> ()
  | records ->
      List.iter
        (fun r -> Hooks.emit bus ~time:r.time r.event)
        (List.stable_sort compare_record records)
