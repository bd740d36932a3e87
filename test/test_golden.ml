(* Golden digests: absolute pins of Runner.result_digest for both engines.

   The partitioned tests only prove partitions=1 equals partitions=N; these
   pin every value, so a change to either engine (or to the phase script
   they share) that moves any simulated quantity fails here. The plain
   engine and the partitioned engine use different transport RNG streams,
   hence two digests per shape: plain, and one shared by P=1 and P=3. *)

module Scenario = Rfd_experiment.Scenario
module Runner = Rfd_experiment.Runner
open Rfd_bgp

let fast_config () =
  Config.with_damping Rfd_damping.Params.cisco
    { Config.default with Config.mrai = 1.; link_delay = 0.01; link_jitter = 0.01; seed = 42 }

let small_mesh = Scenario.Mesh { rows = 3; cols = 3 }

let chaos_faults () =
  Rfd_faults.Fault_plan.make ~name:"golden-chaos" ~seed:5
    ~degradation:{ Rfd_faults.Fault_plan.loss = 0.05; duplication = 0.05 }
    ~random_flaps:
      { Rfd_faults.Fault_plan.cycles = 3; window = 40.; down_mean = 5.; candidates = [] }
    ()

(* (name, scenario, budget, plain digest, partitioned digest) *)
let shapes () =
  [
    ( "paper mesh, origin updates",
      Scenario.make ~name:"golden"
        ~config:(Config.with_damping Rfd_damping.Params.cisco Config.default)
        ~pulses:2 Scenario.paper_mesh,
      None,
      "6e337c40003a91565451d26a2ae2102c",
      "1e1300c8bb7e798c3240227541b50fa9" );
    ( "link-state mechanism",
      Scenario.make ~name:"golden" ~config:(fast_config ()) ~pulses:2
        ~mechanism:Scenario.Link_state small_mesh,
      None,
      "b08e5a90979f0c33e825d4377eebf310",
      "6129ef374bd3793c2a1f9aa96a692bd0" );
    ( "chaos faults",
      Scenario.make ~name:"golden" ~config:(fast_config ()) ~pulses:2
        ~faults:(chaos_faults ()) small_mesh,
      None,
      "a059e7adb146a6e1f13df7a378096929",
      "482e5d6d0f03ac8fcde8dea2b9895881" );
    ( "background + Pareto flappers",
      Scenario.make ~name:"golden" ~config:(fast_config ()) ~pulses:2
        ~background_prefixes:20
        ~workload:
          (Scenario.Flappers { count = 6; flaps = 3; mean_gap = 5.; alpha = 1.5; seed = 3 })
        small_mesh,
      None,
      "71e399f8da2f10ba0631b223aaa4e835",
      "4fea8b2b6c216528d9c86438f57df5f1" );
    ( "budget exceeded",
      Scenario.make ~name:"golden" ~config:(fast_config ()) ~pulses:3 small_mesh,
      Some (Runner.budget ~max_events:200 ()),
      "483c55713a44321cf3983e5d1fb06cd4",
      "1d6c42e2d48b3b7e249c7e1f0e045172" );
    ( "internet, random isp",
      Scenario.make ~name:"golden" ~config:(fast_config ()) ~pulses:2 ~isp:`Random
        (Scenario.Internet { nodes = 40; m = 2 }),
      None,
      "2e1e47b429c8d7f6fce1383be94ef5ae",
      "d79391492a2e9c7de4bbadd7b7e4b55e" );
  ]

let engines = [ ("plain", None); ("P=1", Some 1); ("P=3", Some 3) ]

let run_on ?budget engine scenario =
  match engine with
  | None -> Runner.run ?budget scenario
  | Some partitions -> fst (Runner.run_partitioned ?budget ~partitions scenario)

let case (name, scenario, budget, plain, partitioned) (label, engine) =
  let expected = match engine with None -> plain | Some _ -> partitioned in
  Alcotest.test_case (Printf.sprintf "%s: %s" name label) `Quick (fun () ->
      let r = run_on ?budget engine scenario in
      Alcotest.(check string) "digest" expected (Runner.result_digest r);
      Alcotest.(check bool)
        "budget verdict" (budget <> None)
        (Runner.status_is_budget_exceeded r.Runner.final_status))

let suite = List.concat_map (fun shape -> List.map (case shape) engines) (shapes ())
