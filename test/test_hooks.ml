(* Tests for the typed protocol-event view of the hook bus: emit,
   subscribe and the transcript line format. *)

open Rfd_bgp

let p0 = Prefix.v 0
let route = Route.make ~prefix:p0 ~path:(As_path.of_list [ 2; 1 ])
let update = Update.announce route

(* One event per constructor, each with distinct field values. *)
let every_event =
  [
    Hooks.Send { src = 1; dst = 2; update };
    Hooks.Deliver { src = 3; dst = 4; update = Update.withdraw p0 };
    Hooks.Drop { src = 5; dst = 6; update };
    Hooks.Duplicate { src = 7; dst = 8; update };
    Hooks.Suppress { router = 1; peer = 2; prefix = p0 };
    Hooks.Reuse { router = 3; peer = 4; prefix = p0; noisy = true };
    Hooks.Reuse_schedule { router = 5; peer = 6; prefix = p0; at = 812.5 };
    Hooks.Penalty { router = 7; peer = 8; prefix = p0; penalty = 1500. };
    Hooks.Best_change { router = 9; prefix = p0; best = Some route };
    Hooks.Mrai { router = 10; peer = 11; prefix = p0; action = Hooks.Flush_armed };
  ]

let test_emit_each_event () =
  List.iteri
    (fun i event ->
      let bus = Hooks.create () in
      let seen = ref [] in
      Hooks.subscribe bus (fun ~time event -> seen := (time, event) :: !seen);
      let time = float_of_int i +. 0.25 in
      Hooks.emit bus ~time event;
      let label = Format.asprintf "%a" (Hooks.pp_event ~time) event in
      Alcotest.(check bool) label true (!seen = [ (time, event) ]))
    every_event

let test_subscribers_in_order () =
  let bus = Hooks.create () in
  let log = ref [] in
  bus.Hooks.on_suppress <- (fun ~time:_ ~router:_ ~peer:_ ~prefix:_ -> log := "field" :: !log);
  Hooks.subscribe bus (fun ~time:_ _ -> log := "first" :: !log);
  Hooks.subscribe bus (fun ~time:_ _ -> log := "second" :: !log);
  Hooks.emit bus ~time:0. (Hooks.Suppress { router = 0; peer = 1; prefix = p0 });
  Alcotest.(check (list string)) "installed field, then subscribers in order"
    [ "field"; "first"; "second" ] (List.rev !log)

let test_pp_event () =
  let line time event = Format.asprintf "%a" (Hooks.pp_event ~time) event in
  let check expected time event = Alcotest.(check string) expected expected (line time event) in
  check "[     1.500] send         1 -> 2: A p0 via [2 1]" 1.5 (List.nth every_event 0);
  check "[    10.000] drop         5 -> 6: A p0 via [2 1]" 10. (List.nth every_event 2);
  check "[     0.000] reuse        router 3 reuses peer 4 for p0 (noisy)" 0.
    (List.nth every_event 5);
  check "[     2.000] reuse        router 5 arms reuse timer peer 6 p0 fires 812.50" 2.
    (List.nth every_event 6);
  check "[     3.000] penalty      router 7 peer 8 p0 penalty 1500" 3. (List.nth every_event 7);
  check "[     4.000] best         router 9: p0 unreachable" 4.
    (Hooks.Best_change { router = 9; prefix = p0; best = None });
  check "[     5.000] mrai         router 10 peer 11 p0: flush-armed" 5.
    (List.nth every_event 9)

let suite =
  [
    Alcotest.test_case "emit delivers each event" `Quick test_emit_each_event;
    Alcotest.test_case "subscribers in order" `Quick test_subscribers_in_order;
    Alcotest.test_case "pp_event formats" `Quick test_pp_event;
  ]
