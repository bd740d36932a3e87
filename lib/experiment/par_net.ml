(* A partitioned BGP network: one Network (and one simulator) per topology
   partition, advanced in conservative lockstep epochs with the minimum
   link delay as the lookahead, exchanging cross-partition messages through
   deterministic per-(src, dst) FIFO mailboxes at epoch barriers.

   Determinism contract (partitions=1 vs N bit-identical):
   - Transport randomness is per-directed-link (Network's partitioned
     mode), so every draw depends only on that link's own send sequence.
   - Every partition replays the full per-node RNG split sequence, so a
     router's jitter stream is a function of (seed, node) alone.
   - Administrative events (link fail/restore, crash/restart) are
     broadcast: each partition executes them against its own replica of
     link/router state and signals only its own routers; the union equals
     the single-domain behaviour, and the per-partition surplus executions
     are subtracted from the reported event count.
   - Observation order is canonicalised by {!Recorder} at every barrier.

   All of this assumes ties between distinct cross-router events at the
   exact same timestamp do not occur — guaranteed almost surely by
   [link_jitter > 0] (the default); with zero jitter, same-time delivery
   order at a router may depend on the partition count. *)

module Sim = Rfd_engine.Sim
module Pool = Rfd_engine.Pool
module Partition = Rfd_engine.Partition
module Par_sim = Rfd_engine.Par_sim
module Graph = Rfd_topology.Graph
module Injector = Rfd_faults.Injector
open Rfd_bgp

type t = {
  config : Config.t;
  graph : Graph.t;
  parts : int;
  part_of : int array;
  nets : Network.t array;
  sims : Sim.t array;
  recorders : Recorder.t array;
  mailbox : Network.remote Partition.t;
  pool : Pool.t;
  bus : Hooks.t; (* canonical replay bus: attach observers here *)
  admin_runs : int array; (* broadcast admin events executed, per partition *)
  mutable barriers : int;
  mutable drives : int;
}

let create ?policy ~config ~partitions graph =
  if partitions < 1 then invalid_arg "Par_net.create: partitions must be >= 1";
  let n = Graph.num_nodes graph in
  if n = 0 then invalid_arg "Par_net.create: empty topology";
  let parts = min partitions n in
  let part_of = Graph.partition graph ~parts in
  let mailbox = Partition.create ~parts in
  let sims = Array.init parts (fun _ -> Sim.create ()) in
  let nets =
    Array.init parts (fun p ->
        let owned = Array.init n (fun node -> part_of.(node) = p) in
        let emit (r : Network.remote) =
          Partition.post mailbox ~src:p ~dst:part_of.(r.Network.remote_dst) r
        in
        Network.create ?policy ~ownership:(owned, emit) ~config sims.(p) graph)
  in
  let recorders =
    Array.map
      (fun net ->
        let recorder = Recorder.create ~nodes:n in
        Recorder.attach recorder (Network.hooks net);
        recorder)
      nets
  in
  {
    config;
    graph;
    parts;
    part_of;
    nets;
    sims;
    recorders;
    mailbox;
    pool = Pool.create ~jobs:parts ();
    bus = Hooks.create ();
    admin_runs = Array.make parts 0;
    barriers = 0;
    drives = 0;
  }

let shutdown t = Pool.shutdown t.pool
let bus t = t.bus
let partitions t = t.parts
let graph t = t.graph
let part_of t node = t.part_of.(node)
let cut_edges t = Graph.cut_edges t.graph t.part_of

(* Reported event count: every partition executed each broadcast
   administrative event once, but the single-domain run executes it exactly
   once — subtract the per-partition surplus. The per-partition admin
   counts are equal at any barrier (broadcasts land in every partition at
   the same timestamp), so partition 0 is used as the canonical count. *)
let sim_events t =
  let total = Array.fold_left (fun acc sim -> acc + Sim.events_executed sim) 0 t.sims in
  let admin = Array.fold_left ( + ) 0 t.admin_runs in
  total - admin + t.admin_runs.(0)

let per_partition_events t = Array.map Sim.events_executed t.sims
let peak_heap t = Array.fold_left (fun acc sim -> acc + Sim.max_heap_size sim) 0 t.sims
let epochs t = t.barriers - t.drives

let now t = Array.fold_left (fun acc sim -> Float.max acc (Sim.now sim)) 0. t.sims
let advance_all t ~time = Array.iter (fun sim -> Sim.advance_clock sim ~time) t.sims

let flush t =
  Recorder.drain_replay (Array.to_list t.recorders) t.bus;
  ignore
    (Partition.drain t.mailbox ~deliver:(fun ~dst msg ->
         Network.deliver_remote t.nets.(dst) msg))

let exchange t () =
  t.barriers <- t.barriers + 1;
  flush t

let drive ?until ?max_events t =
  t.drives <- t.drives + 1;
  Par_sim.lockstep ~pool:t.pool ~lookahead:t.config.Config.link_delay ?until ?max_events
    ~executed:(fun () -> sim_events t)
    ~exchange:(exchange t) t.sims

(* ------------------------------------------------------------------ *)
(* Driving: routed (single-partition) and broadcast operations          *)

let owner_net t node =
  if node < 0 || node >= Array.length t.part_of then
    invalid_arg (Printf.sprintf "Par_net: node %d out of range" node);
  t.nets.(t.part_of.(node))

let originate t ~node prefix = Network.originate (owner_net t node) ~node prefix
let withdraw t ~node prefix = Network.withdraw (owner_net t node) ~node prefix

let schedule_originate t ~at ~node prefix =
  Network.schedule_originate (owner_net t node) ~at ~node prefix

let schedule_withdraw t ~at ~node prefix =
  Network.schedule_withdraw (owner_net t node) ~at ~node prefix

(* Administrative events go to every partition; each execution bumps the
   partition's admin counter for the event-count correction above. *)
let schedule_admin t ~at f =
  Array.iteri
    (fun p net ->
      ignore
        (Sim.schedule_at (Network.sim net) ~time:at (fun _ ->
             t.admin_runs.(p) <- t.admin_runs.(p) + 1;
             f net)))
    t.nets

let schedule_fail_link t ~at u v = schedule_admin t ~at (fun net -> Network.fail_link net u v)

let schedule_restore_link t ~at u v =
  schedule_admin t ~at (fun net -> Network.restore_link net u v)

let schedule_crash t ~at node = schedule_admin t ~at (fun net -> Network.crash_router net node)

let schedule_restart t ~at node =
  schedule_admin t ~at (fun net -> Network.restart_router net node)

let set_degradation t ~src ~dst ~loss ~duplication =
  Array.iter (fun net -> Network.set_degradation net ~src ~dst ~loss ~duplication) t.nets

let fault_target t =
  {
    Injector.tgt_graph = t.graph;
    Injector.tgt_set_degradation =
      (fun ~src ~dst ~loss ~duplication -> set_degradation t ~src ~dst ~loss ~duplication);
    Injector.tgt_fail_link = (fun ~at u v -> schedule_fail_link t ~at u v);
    Injector.tgt_restore_link = (fun ~at u v -> schedule_restore_link t ~at u v);
    Injector.tgt_crash = (fun ~at node -> schedule_crash t ~at node);
    Injector.tgt_restart = (fun ~at node -> schedule_restart t ~at node);
  }

let install_faults ?start plan t = Injector.install_target ?start plan (fault_target t)

(* ------------------------------------------------------------------ *)
(* Whole-network checks and introspection                               *)

let activity t =
  let base =
    Array.fold_left (fun acc net -> Oracle.add acc (Network.activity net)) Oracle.zero t.nets
  in
  { base with Oracle.in_flight = base.Oracle.in_flight + Partition.pending t.mailbox }

let rib_fixpoint t prefix = Array.for_all (fun net -> Network.rib_fixpoint net prefix) t.nets
let status t prefix = Oracle.classify ~rib_fixpoint:(rib_fixpoint t prefix) (activity t)

let reuse_timer_events t =
  Array.fold_left (fun acc net -> acc + Network.reuse_timer_events net) 0 t.nets

let peak_reuse_timers t =
  Array.fold_left (fun acc net -> acc + Network.peak_reuse_timers net) 0 t.nets

let routes_interned t =
  Array.fold_left (fun acc net -> acc + Route.table_size (Network.route_table net)) 0 t.nets

let paths_interned t =
  Array.fold_left
    (fun acc net -> acc + As_path.table_size (Route.path_table (Network.route_table net)))
    0 t.nets
