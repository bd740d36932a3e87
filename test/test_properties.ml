(* End-to-end property tests: random topologies, random flap trains —
   protocol-level invariants that must hold for every run. *)

open Rfd_bgp
module Sim = Rfd_engine.Sim
module Rng = Rfd_engine.Rng
module RG = Rfd_topology.Random_graphs
module Graph = Rfd_topology.Graph

let p0 = Prefix.v 0

type outcome = {
  sent : int;
  delivered : int;
  suppressions : int;
  reuses : int;
  reachable : int;
  nodes : int;
  fixpoint : bool;
  still_suppressed : int;
}

(* Build a random connected topology, run a random flap train to full
   quiescence, and report the final state. *)
let run_random ~seed ~pulses ~damping ~mode =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 12 in
  let graph = RG.random_spanning_connected (Rng.split rng) ~n ~extra_edges:(Rng.int rng n) in
  let base =
    {
      Config.default with
      Config.mrai = float_of_int (Rng.int rng 4);
      link_delay = 0.01 +. Rng.float rng 0.05;
      link_jitter = Rng.float rng 0.05;
      seed;
    }
  in
  let config =
    if damping then Config.with_damping ~mode Rfd_damping.Params.cisco base else base
  in
  let sim = Sim.create () in
  let net = Network.create ~config sim graph in
  let sent = ref 0 and delivered = ref 0 and suppressions = ref 0 and reuses = ref 0 in
  let h = Network.hooks net in
  h.Hooks.on_send <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr sent);
  h.Hooks.on_deliver <- (fun ~time:_ ~src:_ ~dst:_ _ -> incr delivered);
  h.Hooks.on_suppress <- (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> incr suppressions);
  h.Hooks.on_reuse <- (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ ~noisy:_ -> incr reuses);
  let origin = Rng.int rng n in
  Network.originate net ~node:origin p0;
  Network.run net;
  let t0 = Sim.now sim +. 1. in
  let interval = 20. +. Rng.float rng 100. in
  for i = 0 to pulses - 1 do
    let base_t = t0 +. (2. *. float_of_int i *. interval) in
    Network.schedule_withdraw net ~at:base_t ~node:origin p0;
    Network.schedule_originate net ~at:(base_t +. interval) ~node:origin p0
  done;
  Network.run net;
  let still_suppressed = ref 0 in
  for node = 0 to n - 1 do
    still_suppressed := !still_suppressed + Router.suppressed_count (Network.router net node)
  done;
  {
    sent = !sent;
    delivered = !delivered;
    suppressions = !suppressions;
    reuses = !reuses;
    reachable = Network.reachable_count net p0;
    nodes = n;
    fixpoint = Network.converged net p0;
    still_suppressed = !still_suppressed;
  }

let seed_pulses = QCheck.(pair (int_range 0 100_000) (int_range 0 6))

let prop name ~damping ~mode check =
  QCheck.Test.make ~name ~count:60 seed_pulses (fun (seed, pulses) ->
      check (run_random ~seed ~pulses ~damping ~mode))

let prop_no_damping_full_reachability =
  prop "no damping: every run ends reachable, converged, conserved" ~damping:false
    ~mode:Config.Plain (fun o ->
      o.reachable = o.nodes && o.fixpoint && o.sent = o.delivered && o.suppressions = 0)

let prop_damping_quiesces =
  prop "damping: every suppression is eventually reused; fixpoint holds" ~damping:true
    ~mode:Config.Plain (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes && o.sent = o.delivered)

let prop_rcn_quiesces =
  prop "rcn: same invariants" ~damping:true ~mode:Config.Rcn (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes)

let prop_selective_quiesces =
  prop "selective: same invariants" ~damping:true ~mode:Config.Selective (fun o ->
      o.suppressions = o.reuses && o.still_suppressed = 0 && o.fixpoint
      && o.reachable = o.nodes)

(* Per-event differential check of the incremental decision process: step
   the simulator one event at a time and, after every event, compare each
   router's cached Loc-RIB with the full-scan reference
   ([Network.rib_fixpoint], i.e. [Router.recompute_best]) for every prefix
   in play. Small Barabási–Albert or mesh graphs; origin pulses, an
   anycast prefix, a link fail/restore and a router crash/restart; any
   damping mode, either reuse mode, either policy. Returns the number of
   (event, prefix) pairs where the two disagree. *)
let stepwise_violations ~seed ~damping ~tick ~no_valley ~ba =
  let rng = Rng.create seed in
  let graph =
    if ba then RG.barabasi_albert (Rng.split rng) ~n:(6 + Rng.int rng 10) ~m:(1 + Rng.int rng 2)
    else Rfd_topology.Builders.mesh ~rows:3 ~cols:(3 + Rng.int rng 2)
  in
  let n = Graph.num_nodes graph in
  let base =
    {
      Config.default with
      Config.mrai = float_of_int (Rng.int rng 3);
      link_delay = 0.01 +. Rng.float rng 0.05;
      link_jitter = Rng.float rng 0.05;
      seed;
    }
  in
  let config =
    match damping with
    | None -> base
    | Some mode ->
        let reuse = if tick then Config.Tick 15. else Config.Exact in
        Config.with_damping ~mode ~reuse Rfd_damping.Params.cisco base
  in
  let policy =
    if no_valley then Policy.no_valley (Rfd_topology.Relations.infer_by_degree graph)
    else Policy.announce_all
  in
  let sim = Sim.create () in
  let net = Network.create ~policy ~config sim graph in
  let p1 = Prefix.v 1 in
  let origin = Rng.int rng n in
  Network.originate net ~node:origin p0;
  (* [p1] is anycast: two origins, so self routes meet learned ones. *)
  Network.schedule_originate net ~at:0.5 ~node:(Rng.int rng n) p1;
  Network.schedule_originate net ~at:0.7 ~node:(Rng.int rng n) p1;
  let interval = 20. +. Rng.float rng 60. in
  let pulses = 1 + Rng.int rng 4 in
  for i = 0 to pulses - 1 do
    let at = 10. +. (2. *. float_of_int i *. interval) in
    Network.schedule_withdraw net ~at ~node:origin p0;
    Network.schedule_originate net ~at:(at +. interval) ~node:origin p0
  done;
  let u, v = (Graph.edges graph).(Rng.int rng (Graph.num_edges graph)) in
  let fail_at = 5. +. Rng.float rng (2. *. interval) in
  Network.schedule_fail_link net ~at:fail_at u v;
  Network.schedule_restore_link net ~at:(fail_at +. 1. +. Rng.float rng interval) u v;
  let victim = Rng.int rng n in
  let crash_at = 5. +. Rng.float rng (2. *. interval) in
  Network.schedule_crash net ~at:crash_at victim;
  Network.schedule_restart net ~at:(crash_at +. 1. +. Rng.float rng interval) victim;
  let violations = ref 0 and budget = ref 100_000 in
  while !budget > 0 && Sim.step sim do
    decr budget;
    List.iter (fun p -> if not (Network.rib_fixpoint net p) then incr violations) [ p0; p1 ]
  done;
  (* A run still busy after the budget is a livelock; count it too. *)
  if Sim.pending sim > 0 then incr violations;
  !violations

let prop_loc_rib_matches_full_scan_every_event =
  let damping_modes = [| None; Some Config.Plain; Some Config.Rcn; Some Config.Selective |] in
  QCheck.Test.make ~name:"incremental Loc-RIB equals the full scan after every event" ~count:200
    QCheck.(pair (int_range 0 100_000) (quad (int_range 0 3) bool bool bool))
    (fun (seed, (mode, tick, no_valley, ba)) ->
      stepwise_violations ~seed ~damping:damping_modes.(mode) ~tick ~no_valley ~ba = 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_loc_rib_matches_full_scan_every_event;
    QCheck_alcotest.to_alcotest prop_no_damping_full_reachability;
    QCheck_alcotest.to_alcotest prop_damping_quiesces;
    QCheck_alcotest.to_alcotest prop_rcn_quiesces;
    QCheck_alcotest.to_alcotest prop_selective_quiesces;
  ]
