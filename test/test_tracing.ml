(* Tests for protocol-event subscribers composed with existing hooks, and
   for the recorder's canonical replay of typed events. *)

module Collector = Rfd_experiment.Collector
module Recorder = Rfd_experiment.Recorder
open Rfd_bgp

let p0 = Prefix.v 0

let fast = { Config.default with Config.mrai = 0.; link_delay = 0.01; link_jitter = 0. }

(* Subscribe a list-builder; the returned thunk reads the events so far. *)
let record hooks =
  let events = ref [] in
  Hooks.subscribe hooks (fun ~time event -> events := (time, event) :: !events);
  fun () -> List.rev !events

let count p events = List.length (List.filter (fun (_, e) -> p e) events)
let is_deliver = function Hooks.Deliver _ -> true | _ -> false
let line_network config =
  Network.create ~config (Rfd_engine.Sim.create ()) (Rfd_topology.Builders.line 3)

let test_records_protocol_events () =
  let net = line_network fast in
  let events = record (Network.hooks net) in
  Network.originate net ~node:0 p0;
  Network.run net;
  let events = events () in
  let seen p = count p events > 0 in
  Alcotest.(check bool) "sends traced" true (seen (function Hooks.Send _ -> true | _ -> false));
  Alcotest.(check bool) "deliveries traced" true (seen is_deliver);
  Alcotest.(check bool) "best changes traced" true
    (seen (function Hooks.Best_change _ -> true | _ -> false));
  let transcript =
    String.concat "\n"
      (List.map (fun (time, e) -> Format.asprintf "%a" (Hooks.pp_event ~time) e) events)
  in
  Alcotest.(check bool) "renders" true (String.length transcript > 0)

let test_composes_with_collector () =
  (* collector first, subscriber second: both must observe every delivery *)
  let net = line_network fast in
  let collector = Collector.create () in
  Collector.attach collector (Network.hooks net);
  let events = record (Network.hooks net) in
  Network.originate net ~node:0 p0;
  Network.run net;
  Alcotest.(check bool) "collector saw messages" true (Collector.update_count collector > 0);
  Alcotest.(check int) "subscriber and collector agree" (Collector.update_count collector)
    (count is_deliver (events ()))

let test_damping_topics () =
  let net = line_network (Config.with_damping Rfd_damping.Params.cisco fast) in
  let events = record (Network.hooks net) in
  Network.originate net ~node:0 p0;
  Network.run net;
  let t0 = Rfd_engine.Sim.now (Network.sim net) +. 1. in
  for i = 0 to 3 do
    Network.schedule_withdraw net ~at:(t0 +. (120. *. float_of_int i)) ~node:0 p0;
    Network.schedule_originate net ~at:(t0 +. (120. *. float_of_int i) +. 60.) ~node:0 p0
  done;
  Network.run net;
  let events = events () in
  List.iter
    (fun (name, p) -> Alcotest.(check bool) (name ^ " traced") true (count p events > 0))
    [
      ("penalty", function Hooks.Penalty _ -> true | _ -> false);
      ("suppress", function Hooks.Suppress _ -> true | _ -> false);
      ("reuse", function Hooks.Reuse _ -> true | _ -> false);
    ]

let test_disabled_trace () =
  (* A field assignment after a subscription detaches the subscriber from
     that field: Collector.attach replaces the fields it counts, which is
     how the runner retires its settle-phase collector. *)
  let net = line_network fast in
  let events = record (Network.hooks net) in
  let collector = Collector.create () in
  Collector.attach collector (Network.hooks net);
  Network.originate net ~node:0 p0;
  Network.run net;
  Alcotest.(check bool) "collector saw messages" true (Collector.update_count collector > 0);
  Alcotest.(check int) "detached from deliveries" 0 (count is_deliver (events ()))

let test_runner_observe () =
  (* the Runner's [observe] hook exposes the network for extra subscribers
     during the measured flap phase *)
  let events = ref (fun () -> []) in
  let observe net = events := record (Network.hooks net) in
  let scenario =
    Rfd_experiment.Scenario.make ~config:fast
      (Rfd_experiment.Scenario.Mesh { rows = 3; cols = 3 })
  in
  let r = Rfd_experiment.Runner.run ~observe scenario in
  Alcotest.(check int) "subscriber covers the flap phase exactly"
    r.Rfd_experiment.Runner.message_count
    (count is_deliver (!events ()))

let test_recorder_replay () =
  (* Two partitions' raw buses, recorded and drained into one bus: the
     subscriber sees every event unchanged, sorted by (time, owner, per-owner
     sequence). *)
  let raw = [| Hooks.create (); Hooks.create () |] in
  let recorders =
    Array.map
      (fun bus ->
        let r = Recorder.create ~nodes:4 in
        Recorder.attach r bus;
        r)
      raw
  in
  let update = Update.withdraw p0 in
  let send src dst = Hooks.Send { src; dst; update } in
  let deliver src dst = Hooks.Deliver { src; dst; update } in
  let penalty router = Hooks.Penalty { router; peer = 0; prefix = p0; penalty = 1000. } in
  (* (partition, time, event); a delivery is owned by its receiver *)
  let emitted =
    [
      (1, 2., send 3 1);
      (0, 1., send 1 3);
      (1, 1., deliver 0 2);
      (0, 2., deliver 3 0);
      (0, 1., penalty 1);
      (1, 1., penalty 3);
    ]
  in
  List.iter (fun (p, time, event) -> Hooks.emit raw.(p) ~time event) emitted;
  let bus = Hooks.create () in
  let events = record bus in
  Alcotest.(check int) "buffered" 3 (Recorder.pending recorders.(0));
  Recorder.drain_replay (Array.to_list recorders) bus;
  Alcotest.(check int) "drained" 0 (Recorder.pending recorders.(0));
  let expected =
    [
      (1., send 1 3);
      (1., penalty 1);
      (1., deliver 0 2);
      (1., penalty 3);
      (2., deliver 3 0);
      (2., send 3 1);
    ]
  in
  Alcotest.(check bool) "canonical order, events unchanged" true (events () = expected)

let suite =
  [
    Alcotest.test_case "records protocol events" `Quick test_records_protocol_events;
    Alcotest.test_case "composes with collector" `Quick test_composes_with_collector;
    Alcotest.test_case "damping topics" `Quick test_damping_topics;
    Alcotest.test_case "disabled trace" `Quick test_disabled_trace;
    Alcotest.test_case "runner observe hook" `Quick test_runner_observe;
    Alcotest.test_case "recorder replay is canonical" `Quick test_recorder_replay;
  ]
