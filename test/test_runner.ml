(* Tests for scenario validation, the collector, and the runner on small
   topologies. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
module Collector = Rfd_experiment.Collector
module Sweep = Rfd_experiment.Sweep
module Phases = Rfd_experiment.Phases
module Ts = Rfd_engine.Timeseries
open Rfd_bgp

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let fast ?(damping = true) ?(mode = Config.Plain) () =
  let base =
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01 }
  in
  if damping then Config.with_damping ~mode Rfd_damping.Params.cisco base else base

(* [Scenario.make] rejects bad field values eagerly; records mutated by
   hand (via [{ s with ... }]) are still caught by [validate] and by
   [Runner.run]. *)
let test_scenario_validation () =
  let hand_made mutate = mutate (Scenario.make small_mesh) in
  let bad = hand_made (fun s -> { s with Scenario.pulses = -1 }) in
  Alcotest.(check bool) "negative pulses" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.flap_interval = 0. }) in
  Alcotest.(check bool) "zero interval" true (Result.is_error (Scenario.validate bad));
  let bad = hand_made (fun s -> { s with Scenario.topology = Scenario.Mesh { rows = 2; cols = 2 } }) in
  Alcotest.(check bool) "tiny mesh" true (Result.is_error (Scenario.validate bad));
  let good = Scenario.make small_mesh in
  Alcotest.(check bool) "default valid" true (Scenario.validate good = Ok ());
  Alcotest.check_raises "runner surfaces validation"
    (Invalid_argument "Runner.run: pulses must be non-negative") (fun () ->
      ignore (Runner.run (hand_made (fun s -> { s with Scenario.pulses = -1 }))))

let test_scenario_make_rejects_eagerly () =
  Alcotest.check_raises "negative pulses"
    (Invalid_argument "Scenario.make: pulses must be non-negative (got -1)") (fun () ->
      ignore (Scenario.make ~pulses:(-1) small_mesh));
  Alcotest.check_raises "negative background prefixes"
    (Invalid_argument "Scenario.make: background_prefixes must be non-negative (got -3)")
    (fun () -> ignore (Scenario.make ~background_prefixes:(-3) small_mesh));
  Alcotest.check_raises "zero flap interval"
    (Invalid_argument "Scenario.make: flap_interval must be positive (got 0)") (fun () ->
      ignore (Scenario.make ~flap_interval:0. small_mesh));
  Alcotest.check_raises "zero settle gap"
    (Invalid_argument "Scenario.make: settle_gap must be positive (got 0)") (fun () ->
      ignore (Scenario.make ~settle_gap:0. small_mesh));
  Alcotest.check_raises "isp beyond topology"
    (Invalid_argument
       "Scenario.make: isp node 9 is out of range for a 9-node topology (want 0..8)")
    (fun () -> ignore (Scenario.make ~isp:(`Node 9) small_mesh));
  Alcotest.check_raises "negative isp"
    (Invalid_argument
       "Scenario.make: isp node -1 is out of range for a 9-node topology (want 0..8)")
    (fun () -> ignore (Scenario.make ~isp:(`Node (-1)) small_mesh));
  Alcotest.check_raises "tiny mesh"
    (Invalid_argument "Scenario.make: mesh needs rows, cols >= 3 (got 2x2)") (fun () ->
      ignore (Scenario.make (Scenario.Mesh { rows = 2; cols = 2 })));
  Alcotest.check_raises "internet with m >= nodes"
    (Invalid_argument "Scenario.make: internet needs 1 <= m < nodes (got nodes=4 m=4)")
    (fun () -> ignore (Scenario.make (Scenario.Internet { nodes = 4; m = 4 })));
  Alcotest.check_raises "empty custom graph"
    (Invalid_argument "Scenario.make: custom graph is empty") (fun () ->
      ignore (Scenario.make (Scenario.Custom (Rfd_topology.Graph.of_edges ~num_nodes:0 []))));
  (* boundary values stay accepted *)
  ignore (Scenario.make ~isp:(`Node 8) ~pulses:0 ~background_prefixes:0 small_mesh);
  ignore (Scenario.make (Scenario.Internet { nodes = 4; m = 3 }))

let test_run_no_damping () =
  let scenario = Scenario.make ~name:"plain" ~config:(fast ~damping:false ()) small_mesh in
  let r = Runner.run scenario in
  Alcotest.(check int) "10 nodes with stub" 10 r.Runner.num_nodes;
  Alcotest.(check int) "origin is appended node" 9 r.Runner.origin;
  Alcotest.(check int) "isp is node 0 by default" 0 r.Runner.isp;
  Alcotest.(check bool) "tup positive" true (r.Runner.tup > 0.);
  Alcotest.(check bool) "messages flowed" true (r.Runner.message_count > 0);
  (* without damping a single pulse converges quickly *)
  Alcotest.(check bool) "fast convergence" true (r.Runner.convergence_time < 60.);
  Alcotest.(check int) "no suppressions" 0 (Collector.suppress_events r.Runner.collector)

let test_run_with_damping_extends_convergence () =
  let no_damp = Runner.run (Scenario.make ~config:(fast ~damping:false ()) small_mesh) in
  let damp = Runner.run (Scenario.make ~config:(fast ()) small_mesh) in
  if Collector.suppress_events damp.Runner.collector > 0 then
    Alcotest.(check bool) "damping slower than plain" true
      (damp.Runner.convergence_time > no_damp.Runner.convergence_time)

let test_run_zero_pulses () =
  let r = Runner.run (Scenario.make ~pulses:0 ~config:(fast ()) small_mesh) in
  Alcotest.(check int) "no flap messages" 0 r.Runner.message_count;
  Alcotest.(check (float 0.)) "no convergence delay" 0. r.Runner.convergence_time

let test_determinism () =
  let scenario = Scenario.make ~config:(fast ()) ~pulses:2 small_mesh in
  let a = Runner.run scenario and b = Runner.run scenario in
  Alcotest.(check int) "same messages" a.Runner.message_count b.Runner.message_count;
  Alcotest.(check (float 1e-9)) "same convergence" a.Runner.convergence_time
    b.Runner.convergence_time

let test_seed_changes_run () =
  let config = fast () in
  let a = Runner.run (Scenario.make ~config ~pulses:2 small_mesh) in
  let config_b = { config with Config.seed = 4711 } in
  let b = Runner.run (Scenario.make ~config:config_b ~pulses:2 small_mesh) in
  (* jitter differs; counts almost surely differ at least slightly *)
  Alcotest.(check bool) "different seeds differ" true
    (a.Runner.message_count <> b.Runner.message_count
    || a.Runner.convergence_time <> b.Runner.convergence_time)

let test_collector_series_consistency () =
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:2 small_mesh) in
  let c = r.Runner.collector in
  Alcotest.(check int) "series length = message count" (Collector.update_count c)
    (Ts.length (Collector.update_series c));
  Alcotest.(check int) "reuse series matches events" (Collector.reuse_events c)
    (Ts.length (Collector.reuse_series c));
  Alcotest.(check int) "suppress/reuse balance" (Collector.suppress_events c)
    (Collector.reuse_events c);
  Alcotest.(check int) "nothing damped at the end" 0 (Collector.damped_now c);
  Alcotest.(check bool) "noisy <= total reuses" true
    (Collector.noisy_reuse_events c <= Collector.reuse_events c);
  let log = Collector.reuse_log c in
  Alcotest.(check int) "reuse log length" (Collector.reuse_events c) (List.length log);
  Alcotest.(check int) "noisy entries in log" (Collector.noisy_reuse_events c)
    (List.length (List.filter (fun (_, _, _, noisy) -> noisy) log));
  (* log is time-ordered *)
  let times = List.map (fun (t, _, _, _) -> t) log in
  Alcotest.(check bool) "log sorted" true (times = List.sort Float.compare times)

let test_stable_and_quiet_metrics () =
  (* With damping, suppressed entries hold reuse timers long after routing
     settles: time-to-quiet must strictly exceed time-to-stable. The run
     drains fully, so the final oracle status is always Quiet. *)
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  Alcotest.(check bool) "stable >= 0" true (r.Runner.time_to_stable >= 0.);
  Alcotest.(check bool) "quiet >= stable" true
    (r.Runner.time_to_quiet >= r.Runner.time_to_stable);
  Alcotest.(check bool) "drained run ends quiet" true
    (Oracle.is_quiet (Runner.status_level r.Runner.final_status));
  Alcotest.(check bool) "drained run is not budget-limited" true
    (not (Runner.status_is_budget_exceeded r.Runner.final_status));
  if Collector.suppress_events r.Runner.collector > 0 then
    Alcotest.(check bool) "reuse timers outlast routing stability" true
      (r.Runner.time_to_quiet > r.Runner.time_to_stable);
  (* without damping there are no reuse timers: the metrics coincide *)
  let plain = Runner.run (Scenario.make ~config:(fast ~damping:false ()) ~pulses:1 small_mesh) in
  Alcotest.(check (float 1e-9)) "no damping: quiet = stable" plain.Runner.time_to_stable
    plain.Runner.time_to_quiet

let test_run_budgets () =
  let scenario = Scenario.make ~config:(fast ()) ~pulses:2 small_mesh in
  let full = Runner.run scenario in
  Alcotest.(check string) "drained status prints the bare level" "quiet"
    (Runner.status_to_string full.Runner.final_status);
  (* Event budget: cut the run off well before it drains. The cap is a
     total over all phases, and the simulator stops exactly on it. *)
  let cap = full.Runner.sim_events / 4 in
  let partial = Runner.run ~budget:(Runner.budget ~max_events:cap ()) scenario in
  Alcotest.(check bool) "event budget trips" true
    (Runner.status_is_budget_exceeded partial.Runner.final_status);
  Alcotest.(check int) "stopped exactly at the cap" cap partial.Runner.sim_events;
  let s = Runner.status_to_string partial.Runner.final_status in
  Alcotest.(check bool)
    (Printf.sprintf "status string marks the budget (%s)" s)
    true
    (String.length s > 16 && String.sub s 0 16 = "budget-exceeded(");
  (* Sim-time budget: the horizon lands inside the settle gap, before the
     first flap. *)
  let timed = Runner.run ~budget:(Runner.budget ~max_sim_time:5. ()) scenario in
  Alcotest.(check bool) "time budget trips" true
    (Runner.status_is_budget_exceeded timed.Runner.final_status);
  Alcotest.(check int) "nothing measured in the flap phase" 0
    timed.Runner.message_count;
  (* A generous budget must leave the run bit-identical to an unbudgeted
     one. *)
  let generous =
    Runner.run
      ~budget:(Runner.budget ~max_events:(full.Runner.sim_events * 2) ~max_sim_time:1e9 ())
      scenario
  in
  Alcotest.(check bool) "generous budget finishes" true
    (not (Runner.status_is_budget_exceeded generous.Runner.final_status));
  Alcotest.(check int) "generous budget: same events" full.Runner.sim_events
    generous.Runner.sim_events;
  Alcotest.(check int) "generous budget: same messages" full.Runner.message_count
    generous.Runner.message_count;
  Alcotest.check_raises "zero max_events rejected"
    (Invalid_argument "Runner.budget: max_events must be positive") (fun () ->
      ignore (Runner.budget ~max_events:0 ()));
  Alcotest.check_raises "negative max_sim_time rejected"
    (Invalid_argument "Runner.budget: max_sim_time must be positive") (fun () ->
      ignore (Runner.budget ~max_sim_time:(-1.) ()))

let test_internet_topology_random_isp () =
  let scenario =
    Scenario.make ~name:"internet"
      ~config:(fast ~damping:false ())
      ~isp:`Random (Scenario.Internet { nodes = 30; m = 2 })
  in
  let r = Runner.run scenario in
  Alcotest.(check int) "31 nodes with stub" 31 r.Runner.num_nodes;
  Alcotest.(check bool) "isp within base graph" true (r.Runner.isp >= 0 && r.Runner.isp < 30);
  Alcotest.(check bool) "converged fast" true (r.Runner.convergence_time < 120.)

let test_no_valley_policy_runs () =
  let scenario =
    Scenario.make ~policy:Scenario.No_valley
      ~config:(fast ~damping:false ())
      (Scenario.Internet { nodes = 30; m = 2 })
  in
  let r = Runner.run scenario in
  (* valley-free reachability to a stub customer is still universal *)
  Alcotest.(check bool) "messages flowed" true (r.Runner.message_count > 0)

let test_probe_at_distance () =
  let scenario =
    Scenario.make ~config:(fast ()) ~probe:(Scenario.At_distance 2) small_mesh
  in
  let r = Runner.run scenario in
  let pairs = Collector.probed_pairs r.Runner.collector in
  Alcotest.(check bool) "probe pairs resolved" true (pairs <> [])

let test_spans_cover_episode () =
  let r = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  match r.Runner.spans with
  | [] -> Alcotest.fail "spans expected"
  | first :: _ ->
      Alcotest.(check (float 1e-6)) "starts at flap" r.Runner.flap_start first.Phases.start_time;
      let last = List.nth r.Runner.spans (List.length r.Runner.spans - 1) in
      Alcotest.(check bool) "ends converged" true
        (last.Phases.kind = Phases.Converged && last.Phases.end_time = infinity)

let test_sweep () =
  let base = Scenario.make ~name:"sweep" ~config:(fast ~damping:false ()) small_mesh in
  let sweep = Sweep.run ~pulses:[ 1; 2; 3 ] base in
  Alcotest.(check int) "three points" 3 (List.length sweep.Sweep.points);
  let msgs = Sweep.message_series sweep in
  Alcotest.(check int) "series length" 3 (List.length msgs);
  (* without damping, messages grow with pulses *)
  let values = List.map snd msgs in
  Alcotest.(check bool) "monotone-ish growth" true
    (List.nth values 2 > List.hd values)

let test_link_state_mechanism () =
  (* Flapping the physical (isp, origin) link instead of the origin's
     prefix must produce the same qualitative damping behaviour: the isp
     entry charges 1000 per pulse (session withdrawal) and suppresses at
     the third pulse. *)
  let run mechanism pulses =
    Runner.run (Scenario.make ~config:(fast ()) ~mechanism ~pulses small_mesh)
  in
  let by_link = run Scenario.Link_state 3 in
  let by_updates = run Scenario.Origin_updates 3 in
  Alcotest.(check bool) "link flaps reconverge" true
    (by_link.Runner.convergence_time > 0.);
  (* both mechanisms end fully reachable *)
  Alcotest.(check bool) "suppression happened via link flaps" true
    (Collector.suppress_events by_link.Runner.collector > 0);
  Alcotest.(check bool) "suppression happened via update flaps" true
    (Collector.suppress_events by_updates.Runner.collector > 0);
  (* the dominating reuse delay is the isp's in both cases: same order *)
  let ratio = by_link.Runner.convergence_time /. by_updates.Runner.convergence_time in
  Alcotest.(check bool)
    (Printf.sprintf "same order of magnitude (ratio %.2f)" ratio)
    true
    (ratio > 0.3 && ratio < 3.)

let test_background_prefixes () =
  (* A populated multi-prefix RIB must not change the flapping prefix's
     damping dynamics, and the flaps must not damp the stable prefixes. *)
  let plain = Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 small_mesh) in
  let loaded =
    Runner.run (Scenario.make ~config:(fast ()) ~pulses:3 ~background_prefixes:5 small_mesh)
  in
  (* background traffic consumes link-jitter randomness, so runs are not
     bit-identical — but stable prefixes are silent during the flap phase
     and damping is per (peer, prefix), so the dynamics must be the same
     in kind and magnitude *)
  let ratio a b = if b = 0. then 1. else a /. b in
  Alcotest.(check bool) "suppression happens in both" true
    (Collector.suppress_events plain.Runner.collector > 0
    && Collector.suppress_events loaded.Runner.collector > 0);
  let conv_ratio = ratio loaded.Runner.convergence_time plain.Runner.convergence_time in
  Alcotest.(check bool)
    (Printf.sprintf "same magnitude convergence (ratio %.2f)" conv_ratio)
    true
    (conv_ratio > 0.5 && conv_ratio < 2.);
  let msg_ratio =
    ratio (float_of_int loaded.Runner.message_count) (float_of_int plain.Runner.message_count)
  in
  Alcotest.(check bool)
    (Printf.sprintf "same magnitude messages (ratio %.2f)" msg_ratio)
    true
    (msg_ratio > 0.5 && msg_ratio < 2.);
  Alcotest.(check bool) "validation" true
    (Result.is_error
       (Scenario.validate
          { (Scenario.make small_mesh) with Scenario.background_prefixes = -1 }))

let test_custom_topology () =
  let g = Rfd_topology.Builders.ring 5 in
  let r =
    Runner.run (Scenario.make ~config:(fast ~damping:false ()) (Scenario.Custom g))
  in
  Alcotest.(check int) "ring + stub" 6 r.Runner.num_nodes

(* [Runner.base_graph] is what [rfd-sim topo]/[metrics] print and what
   [Sweep.materialize] substitutes, so it must be the graph the run
   simulates, minus the origin stub. *)
let test_base_graph_is_simulated () =
  let module Graph = Rfd_topology.Graph in
  List.iter
    (fun (label, topology) ->
      let scenario =
        Scenario.make ~config:{ (fast ()) with Config.seed = 42 } ~isp:`Random topology
      in
      let simulated = ref None in
      let r = Runner.run ~observe:(fun net -> simulated := Some (Network.graph net)) scenario in
      let base = Runner.base_graph ~seed:42 topology in
      let with_stub =
        Graph.add_edges (Graph.add_nodes base 1) [ (r.Runner.isp, r.Runner.origin) ]
      in
      Alcotest.(check bool) (label ^ ": base graph + stub = simulated graph") true
        (Graph.equal with_stub (Option.get !simulated)))
    [
      ("internet", Scenario.Internet { nodes = 30; m = 2 });
      ("mesh", Scenario.Mesh { rows = 4; cols = 3 });
    ];
  (* The graph comes from the seed stream's first split, not the stream
     itself: drawing from the unsplit stream gives another graph. *)
  let unsplit =
    Rfd_topology.Random_graphs.barabasi_albert (Rfd_engine.Rng.create 42) ~n:30 ~m:2
  in
  Alcotest.(check bool) "unsplit stream draws a different graph" false
    (Graph.equal unsplit (Runner.base_graph ~seed:42 (Scenario.Internet { nodes = 30; m = 2 })))

let suite =
  [
    Alcotest.test_case "scenario validation" `Quick test_scenario_validation;
    Alcotest.test_case "scenario make rejects eagerly" `Quick
      test_scenario_make_rejects_eagerly;
    Alcotest.test_case "run budgets" `Quick test_run_budgets;
    Alcotest.test_case "run without damping" `Quick test_run_no_damping;
    Alcotest.test_case "damping extends convergence" `Quick
      test_run_with_damping_extends_convergence;
    Alcotest.test_case "zero pulses" `Quick test_run_zero_pulses;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_run;
    Alcotest.test_case "collector consistency" `Quick test_collector_series_consistency;
    Alcotest.test_case "stable vs quiet metrics" `Quick test_stable_and_quiet_metrics;
    Alcotest.test_case "internet topology, random isp" `Quick test_internet_topology_random_isp;
    Alcotest.test_case "no-valley policy" `Quick test_no_valley_policy_runs;
    Alcotest.test_case "probe resolution" `Quick test_probe_at_distance;
    Alcotest.test_case "spans cover episode" `Quick test_spans_cover_episode;
    Alcotest.test_case "sweep over pulse counts" `Quick test_sweep;
    Alcotest.test_case "link-state flap mechanism" `Quick test_link_state_mechanism;
    Alcotest.test_case "background prefixes" `Quick test_background_prefixes;
    Alcotest.test_case "custom topology" `Quick test_custom_topology;
    Alcotest.test_case "base graph is the simulated graph" `Quick test_base_graph_is_simulated;
  ]
