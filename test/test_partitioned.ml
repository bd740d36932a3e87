(* Partitioned conservative-parallel execution: partitions=1 vs N must be
   bit-identical (same Runner.result_digest) for every scenario shape —
   origin updates, link-state flaps, chaos faults, budgets, and random
   QCheck-generated topologies/configs. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Par_net = Rfd_experiment.Par_net
module Collector = Rfd_experiment.Collector
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

(* link_jitter must stay > 0: the determinism contract relies on distinct
   deliveries never colliding on the exact same timestamp. *)
let fast_config ?(damping = true) ?(seed = 42) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed }
  in
  if damping then Config.with_damping Rfd_damping.Params.cisco base else base

let base_scenario ?faults ?(mechanism = Scenario.Origin_updates) ?(seed = 42) () =
  Scenario.with_pulses
    (Scenario.make ~name:"par" ~config:(fast_config ~seed ()) ~mechanism ?faults small_mesh)
    2

let digest_at ?budget ~partitions scenario =
  let result, stats = Runner.run_partitioned ?budget ~partitions scenario in
  (Runner.result_digest result, result, stats)

let check_identical ?budget label scenario counts =
  let d1, r1, _ = digest_at ?budget ~partitions:1 scenario in
  List.iter
    (fun partitions ->
      let dn, rn, stats = digest_at ?budget ~partitions scenario in
      Alcotest.(check string)
        (Printf.sprintf "%s: digest partitions=1 vs %d" label partitions)
        d1 dn;
      Alcotest.(check int)
        (Printf.sprintf "%s: corrected events partitions=1 vs %d" label partitions)
        r1.Runner.sim_events rn.Runner.sim_events;
      Alcotest.(check int)
        (Printf.sprintf "%s: effective partition count" label)
        (min partitions r1.Runner.num_nodes) stats.Runner.partitions)
    counts;
  r1

let test_digest_identity () =
  let r = check_identical "origin-updates" (base_scenario ()) [ 2; 4 ] in
  Alcotest.(check bool) "run produced traffic" true (r.Runner.message_count > 0);
  Alcotest.(check bool) "run finished quiet" true
    (match r.Runner.final_status with
    | Runner.Finished Oracle.Quiet -> true
    | _ -> false)

let test_digest_identity_link_state () =
  (* Link-state flapping exercises the broadcast administrative path. *)
  ignore (check_identical "link-state" (base_scenario ~mechanism:Scenario.Link_state ()) [ 2; 3 ])

let chaos_faults () =
  Rfd_faults.Fault_plan.make ~name:"par-chaos" ~seed:5
    ~degradation:{ Rfd_faults.Fault_plan.loss = 0.05; duplication = 0.05 }
    ~random_flaps:
      { Rfd_faults.Fault_plan.cycles = 3; window = 40.; down_mean = 5.; candidates = [] }
    ()

let test_digest_identity_chaos () =
  (* Loss, duplication and seeded random link flaps all draw from the
     per-directed-link RNG streams — the partition layout must not shift
     any draw. *)
  ignore (check_identical "chaos" (base_scenario ~faults:(chaos_faults ()) ()) [ 2; 4 ])

let test_digest_identity_budget () =
  (* Budgets are checked at epoch barriers, whose sequence is
     partition-invariant, so a tripped budget cuts every layout at the
     same event prefix. *)
  let scenario = base_scenario () in
  let full, _ = Runner.run_partitioned ~partitions:1 scenario in
  let cap = full.Runner.sim_events / 2 in
  let budget = Runner.budget ~max_events:cap () in
  let r = check_identical ~budget "budget" scenario [ 2; 4 ] in
  Alcotest.(check bool) "budget tripped" true
    (Runner.status_is_budget_exceeded r.Runner.final_status)

let test_par_stats () =
  let _, _, s1 = digest_at ~partitions:1 (base_scenario ()) in
  let _, rn, sn = digest_at ~partitions:3 (base_scenario ()) in
  Alcotest.(check int) "partitions=1: no cut edges" 0 s1.Runner.cut_edges;
  Alcotest.(check int) "partitions=1: one event bucket" 1
    (Array.length s1.Runner.per_partition_events);
  Alcotest.(check int) "partitions=3: three event buckets" 3
    (Array.length sn.Runner.per_partition_events);
  Alcotest.(check bool) "partitions=3: cut is non-empty on a mesh" true (sn.Runner.cut_edges > 0);
  Alcotest.(check bool) "every partition executed events" true
    (Array.for_all (fun e -> e > 0) sn.Runner.per_partition_events);
  (* Raw per-partition counts include the broadcast admin replicas, so they
     sum to >= the corrected total; with no admin events they are equal. *)
  let raw = Array.fold_left ( + ) 0 sn.Runner.per_partition_events in
  Alcotest.(check bool) "raw events cover corrected count" true (raw >= rn.Runner.sim_events);
  Alcotest.(check bool) "epochs counted" true (sn.Runner.epochs > 0);
  Alcotest.(check bool) "interning totals positive" true
    (sn.Runner.routes_interned_total > 0 && sn.Runner.paths_interned_total > 0)

let test_partitions_clamped () =
  (* More partitions than nodes degrades to one partition per node. *)
  let scenario = base_scenario () in
  let _, r, stats = digest_at ~partitions:64 scenario in
  Alcotest.(check int) "clamped to node count" r.Runner.num_nodes stats.Runner.partitions;
  let d1, _, _ = digest_at ~partitions:1 scenario in
  let dn, _, _ = digest_at ~partitions:64 scenario in
  Alcotest.(check string) "still bit-identical" d1 dn

let test_observers_on_bus () =
  let bus_updates = ref 0 in
  let on_bus hooks =
    Hooks.subscribe hooks (fun ~time:_ -> function
      | Hooks.Send _ -> incr bus_updates | _ -> ())
  in
  let result, _ = Runner.run_partitioned ~partitions:2 ~on_bus (base_scenario ()) in
  Alcotest.(check bool) "bus observers see replayed sends" true (!bus_updates > 0);
  (* on_bus wraps after the flap collector attaches, so the collector's
     counts are unaffected by the extra observer. *)
  Alcotest.(check bool) "collector still populated" true (result.Runner.message_count > 0)

(* Random scenarios: any connected topology, seed, damping mode and pulse
   count must stay partition-invariant. *)
let prop_random_identity =
  let gen = QCheck.(triple (int_range 0 10_000) (int_range 1 3) (int_range 2 4)) in
  QCheck.Test.make ~name:"random scenario: partitions=1 vs N digests equal" ~count:12 gen
    (fun (seed, pulses, partitions) ->
      let damping = seed mod 2 = 0 in
      let config = fast_config ~damping ~seed () in
      let scenario =
        Scenario.with_pulses
          (Scenario.make ~name:"qcheck-par" ~config
             (Scenario.Internet { nodes = 10 + (seed mod 7); m = 2 }))
          pulses
      in
      let d1, _, _ = digest_at ~partitions:1 scenario in
      let dn, _, _ = digest_at ~partitions scenario in
      d1 = dn)

let suite =
  [
    Alcotest.test_case "digest: partitions=1 vs 2 vs 4" `Quick test_digest_identity;
    Alcotest.test_case "digest: link-state mechanism" `Quick test_digest_identity_link_state;
    Alcotest.test_case "digest: chaos faults" `Quick test_digest_identity_chaos;
    Alcotest.test_case "digest: budget-exceeded runs" `Quick test_digest_identity_budget;
    Alcotest.test_case "par_stats shape" `Quick test_par_stats;
    Alcotest.test_case "partitions clamp to node count" `Quick test_partitions_clamped;
    Alcotest.test_case "observers on the replay bus" `Quick test_observers_on_bus;
    QCheck_alcotest.to_alcotest prop_random_identity;
  ]
